//! Threaded stress execution — the paper's actual attack mechanics:
//! genuinely concurrent requests, optionally with an injected
//! per-statement delay standing in for the 200 ms pass-through proxy the
//! authors used to widen race windows (§4.2.4).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use acidrain_apps::SqlConn;
use acidrain_db::{Connection, Database, DbError, Obs, ResultSet, Stopwatch};

/// A [`Connection`] that sleeps before each statement, emulating
/// application-server-to-database network latency.
///
/// The sleep is the fixed base `delay` plus whatever jitter the database's
/// fault injector draws on its latency channel
/// ([`Connection::jittered_delay`]); with the channel unconfigured the
/// base delay is used untouched, so existing attacks are unchanged.
pub struct DelayConn {
    conn: Connection,
    delay: Duration,
}

impl DelayConn {
    /// Wrap `conn`, sleeping `delay` before every statement.
    pub fn new(conn: Connection, delay: Duration) -> Self {
        DelayConn { conn, delay }
    }
}

impl SqlConn for DelayConn {
    fn exec(&mut self, sql: &str) -> Result<ResultSet, DbError> {
        let delay = self.conn.jittered_delay(self.delay);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        self.conn.execute(sql)
    }

    fn set_api(&mut self, name: &str, invocation: u64) {
        self.conn.set_api(name, invocation);
    }

    fn session(&self) -> u64 {
        self.conn.session_id()
    }

    fn obs(&self) -> Obs {
        self.conn.obs().clone()
    }
}

/// Run `tasks` on real threads, all released simultaneously by a barrier,
/// each with its own connection (delayed by `delay` per statement). Each
/// task's wall-clock latency lands in the registry's task histogram when
/// metrics are enabled. [`run_concurrent_watchdog`] with no deadline; a
/// task's panic panics here.
pub fn run_concurrent<T, F>(db: &Arc<Database>, tasks: Vec<F>, delay: Duration) -> Vec<T>
where
    T: Send,
    F: FnOnce(&mut dyn SqlConn) -> T + Send,
{
    run_concurrent_watchdog(db, tasks, delay, Duration::MAX)
        .into_iter()
        .map(|outcome| match outcome {
            TaskOutcome::Completed(v) => v,
            _ => panic!("stress task panicked"),
        })
        .collect()
}

/// How one watchdog-supervised task ended.
#[derive(Debug)]
pub enum TaskOutcome<T> {
    /// The task ran to completion and returned a value.
    Completed(T),
    /// The task failed after the watchdog deadline elapsed — in practice a
    /// lock wait that the clamped `lock_wait_timeout` degraded into a
    /// reported [`DbError::LockTimeout`] instead of a hang.
    TimedOut {
        /// How long the task ran before the clamp fired.
        elapsed: Duration,
    },
    /// The task panicked before the deadline.
    Panicked,
}

impl<T> TaskOutcome<T> {
    /// Whether the watchdog clamp fired.
    pub fn is_timed_out(&self) -> bool {
        matches!(self, TaskOutcome::TimedOut { .. })
    }

    /// The completed value, if any.
    pub fn completed(self) -> Option<T> {
        match self {
            TaskOutcome::Completed(v) => Some(v),
            _ => None,
        }
    }
}

/// [`run_concurrent`] with a per-task watchdog: the database's
/// `lock_wait_timeout` is clamped to `deadline` for the duration of the
/// run (and restored after), so a task stuck waiting on a lock held by a
/// wedged peer degrades into a reported [`TaskOutcome::TimedOut`] within
/// roughly `deadline` instead of hanging the harness. Task panics are
/// caught; a panic after the deadline is classified as the timeout it
/// almost certainly is (the task unwrapped the injected
/// [`DbError::LockTimeout`]).
///
/// [`DbError::LockTimeout`]: acidrain_db::DbError::LockTimeout
pub fn run_concurrent_watchdog<T, F>(
    db: &Arc<Database>,
    tasks: Vec<F>,
    delay: Duration,
    deadline: Duration,
) -> Vec<TaskOutcome<T>>
where
    T: Send,
    F: FnOnce(&mut dyn SqlConn) -> T + Send,
{
    let prior = db.lock_wait_timeout();
    db.set_lock_wait_timeout(prior.min(deadline));
    let barrier = std::sync::Barrier::new(tasks.len());
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = tasks
            .into_iter()
            .map(|task| {
                let mut conn = DelayConn::new(db.connect(), delay);
                let session = conn.session();
                let obs = db.obs().clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    // One stopwatch serves both the watchdog's timeout
                    // classification and the recorded task latency, so the
                    // duration the report shows is the duration the
                    // classification used (no separate clock reads to
                    // drift apart).
                    let sw = Stopwatch::start();
                    let result = catch_unwind(AssertUnwindSafe(|| task(&mut conn)));
                    let elapsed = sw.elapsed();
                    obs.task_finished(session, elapsed);
                    (result, elapsed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok((Ok(value), _)) => TaskOutcome::Completed(value),
                Ok((Err(_), elapsed)) if elapsed >= deadline => TaskOutcome::TimedOut { elapsed },
                _ => TaskOutcome::Panicked,
            })
            .collect()
    });
    db.set_lock_wait_timeout(prior);
    outcomes
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;
    use acidrain_db::{IsolationLevel, Value};
    use acidrain_sql::schema::{ColumnDef, ColumnType, Schema, TableSchema};

    #[test]
    fn concurrent_tasks_all_complete() {
        let schema = Schema::new().with_table(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::Int).auto_increment(),
                ColumnDef::new("v", ColumnType::Int),
            ],
        ));
        let db = Database::new(schema, IsolationLevel::ReadCommitted);
        let tasks: Vec<_> = (0..8)
            .map(|i| {
                move |conn: &mut dyn SqlConn| {
                    conn.exec(&format!("INSERT INTO t (v) VALUES ({i})"))
                        .unwrap();
                    i
                }
            })
            .collect();
        let results = run_concurrent(&db, tasks, Duration::ZERO);
        assert_eq!(results.len(), 8);
        assert_eq!(db.table_rows("t").unwrap().len(), 8);
        // Auto-increment ids are unique under concurrency.
        let mut ids: Vec<i64> = db
            .table_rows("t")
            .unwrap()
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8);
    }

    #[test]
    fn delay_connection_still_correct() {
        let schema = Schema::new().with_table(TableSchema::new(
            "t",
            vec![ColumnDef::new("v", ColumnType::Int)],
        ));
        let db = Database::new(schema, IsolationLevel::ReadCommitted);
        db.seed("t", vec![vec![Value::Int(0)]]).unwrap();
        let tasks: Vec<_> = (0..4)
            .map(|_| {
                |conn: &mut dyn SqlConn| {
                    conn.exec("UPDATE t SET v = v + 1").unwrap();
                }
            })
            .collect();
        run_concurrent(&db, tasks, Duration::from_millis(1));
        // Relative updates serialize via write locks regardless of delay.
        assert_eq!(db.table_rows("t").unwrap()[0][0], Value::Int(4));
    }

    #[test]
    fn watchdog_degrades_hung_lock_wait_into_timeout() {
        let schema = Schema::new().with_table(TableSchema::new(
            "t",
            vec![ColumnDef::new("v", ColumnType::Int)],
        ));
        let db = Database::new(schema, IsolationLevel::ReadCommitted);
        db.seed("t", vec![vec![Value::Int(0)]]).unwrap();

        // A connection outside the task set holds a row lock for the
        // whole run: every task's update would wait forever.
        let mut holder = db.connect();
        holder.execute("BEGIN").unwrap();
        holder.execute("SELECT v FROM t FOR UPDATE").unwrap();

        let started = Instant::now();
        let deadline = Duration::from_millis(100);
        let tasks: Vec<_> = (0..2)
            .map(|_| {
                |conn: &mut dyn SqlConn| {
                    conn.exec("UPDATE t SET v = 1").unwrap();
                }
            })
            .collect();
        let outcomes = run_concurrent_watchdog(&db, tasks, Duration::ZERO, deadline);

        assert!(
            started.elapsed() < Duration::from_secs(5),
            "watchdog must bound the run"
        );
        assert!(
            outcomes.iter().all(|o| o.is_timed_out()),
            "hung lock waits must be reported, got {outcomes:?}"
        );
        // The clamp is restored afterwards.
        assert!(db.lock_wait_timeout() > deadline);

        holder.execute("ROLLBACK").unwrap();
        assert_eq!(db.active_transactions(), 0);
        assert_eq!(db.locked_resources(), 0);
    }
}
