//! Deterministic interleaving of concurrent API calls.
//!
//! Each API call runs on its own thread against a [`GatedConn`] that pauses
//! before every statement until the driver grants a permit. Exactly one
//! statement executes at a time, so the driver's grant sequence *is* the
//! interleaving — this replaces the paper's "rapid successive HTTP
//! requests" and 200 ms proxy delay with a reproducible schedule.
//!
//! Each session has two channels to the driver: on one it reports each
//! park (and whether its last attempt hit a lock conflict), on the other
//! it receives permits. A hang-up ends the conversation: a session that
//! returned or panicked has dropped its sender, which reads as finished; a
//! driver whose schedule panicked has dropped the permits, so a parked
//! statement fails with [`DbError::ConnectionDropped`], the sessions
//! unwind and the panic propagates instead of hanging.
//!
//! Lock conflicts surface to the driver as [`StepOutcome::Blocked`]
//! (nothing executed; the permit can be retried after other sessions make
//! progress), which is how witness-derived schedules remain executable
//! even when the database's locks fight back.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use acidrain_apps::SqlConn;
use acidrain_db::{Connection, Database, DbError, ResultSet};

/// What happened when the driver granted one permit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The session executed one statement and is parked before its next
    /// one (or went on to finish).
    Executed,
    /// The statement hit a lock conflict: nothing executed; retry later.
    Blocked,
    /// The session had already finished; no permit was consumed.
    Finished,
}

/// A [`Connection`] that parks before every statement until granted.
pub struct GatedConn {
    // Declared before `parked`: fields drop in order, so a finished
    // session's open transaction is rolled back before the driver sees the
    // hang-up.
    conn: Connection,
    parked: Sender<bool>,
    permits: Receiver<()>,
    last_blocked: bool,
}

impl GatedConn {
    /// Park until the driver grants a permit; `Err` once the driver is
    /// gone.
    fn await_permit(&mut self) -> Result<(), DbError> {
        self.parked
            .send(self.last_blocked)
            .map_err(|_| DbError::ConnectionDropped)?;
        self.permits.recv().map_err(|_| DbError::ConnectionDropped)
    }
}

impl SqlConn for GatedConn {
    fn exec(&mut self, sql: &str) -> Result<ResultSet, DbError> {
        loop {
            self.await_permit()?;
            match self.conn.try_execute(sql) {
                Err(DbError::WouldBlock { .. }) => {
                    self.last_blocked = true;
                }
                other => {
                    self.last_blocked = false;
                    return other;
                }
            }
        }
    }

    fn set_api(&mut self, name: &str, invocation: u64) {
        self.conn.set_api(name, invocation);
    }

    fn session(&self) -> u64 {
        self.conn.session_id()
    }

    fn obs(&self) -> acidrain_db::Obs {
        self.conn.obs().clone()
    }
}

/// The driver's end of one session's two channels.
struct Session {
    parked: Receiver<bool>,
    permits: Sender<()>,
    finished: bool,
}

impl Session {
    /// Wait for the session's next park and report the statement before
    /// it; a hang-up means the session finished.
    fn await_park(&mut self) -> StepOutcome {
        match self.parked.recv() {
            Ok(true) => StepOutcome::Blocked,
            Ok(false) => StepOutcome::Executed,
            Err(_) => {
                self.finished = true;
                StepOutcome::Executed
            }
        }
    }
}

/// Driver handle for stepping sessions one statement at a time.
pub struct Stepper {
    sessions: Vec<Session>,
}

impl Stepper {
    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the stepper has no sessions.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Whether session `i` has finished its task.
    pub fn finished(&self, i: usize) -> bool {
        self.sessions[i].finished
    }

    /// Grant one permit to session `i` and wait for the outcome.
    pub fn step(&mut self, i: usize) -> StepOutcome {
        let session = &mut self.sessions[i];
        if session.finished {
            return StepOutcome::Finished;
        }
        // The session is parked on this very channel: it cannot hang up.
        session.permits.send(()).expect("parked session hung up");
        session.await_park()
    }

    /// Step session `i` until it has *executed* `n` statements (re-granting
    /// through blocks by letting other sessions run one statement). Returns
    /// the number actually executed (less than `n` if the session
    /// finished).
    pub fn run_statements(&mut self, i: usize, n: usize) -> usize {
        let mut executed = 0;
        let mut stall = 0;
        while executed < n {
            match self.step(i) {
                StepOutcome::Executed => {
                    executed += 1;
                    stall = 0;
                }
                StepOutcome::Finished => break,
                StepOutcome::Blocked => {
                    stall += 1;
                    assert!(stall < 10_000, "session {i} is stuck on a lock");
                    // Let someone else make progress to release the lock.
                    for j in (0..self.len()).filter(|j| *j != i) {
                        if self.step(j) == StepOutcome::Executed {
                            break;
                        }
                    }
                }
            }
        }
        executed
    }

    /// Run session `i` to completion, stepping other sessions through its
    /// lock waits.
    pub fn run_to_completion(&mut self, i: usize) {
        self.run_statements(i, usize::MAX);
    }

    /// Run every remaining session to completion, round-robin.
    pub fn drain(&mut self) {
        let mut stall = 0;
        while (0..self.len()).any(|i| !self.finished(i)) {
            let mut progressed = false;
            for i in 0..self.len() {
                progressed |= self.step(i) == StepOutcome::Executed;
            }
            stall = if progressed { 0 } else { stall + 1 };
            assert!(stall < 10_000, "all sessions are stuck");
        }
    }
}

/// Run `tasks` concurrently with the interleaving dictated by `schedule`.
/// Any sessions still unfinished when `schedule` returns are drained.
/// Returns the tasks' results in order.
pub fn run_deterministic<T, F>(
    db: &Arc<Database>,
    tasks: Vec<F>,
    schedule: impl FnOnce(&mut Stepper),
) -> Vec<T>
where
    T: Send,
    F: FnOnce(&mut dyn SqlConn) -> T + Send,
{
    let conns = tasks.iter().map(|_| db.connect()).collect();
    run_deterministic_on(conns, tasks, schedule)
}

/// [`run_deterministic`] over caller-built connections — one per task,
/// in order. This is how the replay driver applies per-session isolation
/// overrides ([`Connection::set_isolation`]) before the interleaving
/// starts.
pub fn run_deterministic_on<T, F>(
    conns: Vec<Connection>,
    tasks: Vec<F>,
    schedule: impl FnOnce(&mut Stepper),
) -> Vec<T>
where
    T: Send,
    F: FnOnce(&mut dyn SqlConn) -> T + Send,
{
    assert_eq!(
        conns.len(),
        tasks.len(),
        "one connection per task, in task order"
    );
    std::thread::scope(|scope| {
        let mut sessions = Vec::with_capacity(tasks.len());
        let handles: Vec<_> = tasks
            .into_iter()
            .zip(conns)
            .map(|(task, conn)| {
                let (park_tx, park_rx) = channel();
                let (permit_tx, permit_rx) = channel();
                sessions.push(Session {
                    parked: park_rx,
                    permits: permit_tx,
                    finished: false,
                });
                let mut gc = GatedConn {
                    conn,
                    parked: park_tx,
                    permits: permit_rx,
                    last_blocked: false,
                };
                scope.spawn(move || task(&mut gc))
            })
            .collect();

        let mut stepper = Stepper { sessions };
        // Every session parks at its first statement (or finishes) before
        // the schedule takes control.
        for session in &mut stepper.sessions {
            session.await_park();
        }
        schedule(&mut stepper);
        stepper.drain();
        handles
            .into_iter()
            .map(|h| h.join().expect("session task panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acidrain_db::{IsolationLevel, Value};
    use acidrain_sql::schema::{ColumnDef, ColumnType, Schema, TableSchema};

    fn db() -> Arc<Database> {
        let schema = Schema::new().with_table(TableSchema::new(
            "counter",
            vec![
                ColumnDef::new("id", ColumnType::Int).unique(),
                ColumnDef::new("n", ColumnType::Int),
            ],
        ));
        let db = Database::new(schema, IsolationLevel::ReadCommitted);
        db.seed("counter", vec![vec![Value::Int(1), Value::Int(0)]])
            .unwrap();
        db
    }

    fn read_then_write(conn: &mut dyn SqlConn) -> i64 {
        let n = conn
            .exec("SELECT n FROM counter WHERE id = 1")
            .unwrap()
            .scalar_i64()
            .unwrap();
        conn.exec(&format!("UPDATE counter SET n = {} WHERE id = 1", n + 1))
            .unwrap();
        n
    }

    #[test]
    fn serial_schedule_preserves_both_increments() {
        let db = db();
        let results = run_deterministic(
            &db,
            vec![read_then_write, read_then_write],
            |s: &mut Stepper| {
                s.run_to_completion(0);
                s.run_to_completion(1);
            },
        );
        assert_eq!(results, vec![0, 1]);
        assert_eq!(db.table_rows("counter").unwrap()[0][1], Value::Int(2));
    }

    #[test]
    fn racing_schedule_loses_an_update() {
        let db = db();
        // Both read before either writes: the Figure-1 interleaving.
        let results = run_deterministic(
            &db,
            vec![read_then_write, read_then_write],
            |s: &mut Stepper| {
                s.run_statements(0, 1); // A reads 0
                s.run_statements(1, 1); // B reads 0
                s.run_to_completion(0);
                s.run_to_completion(1);
            },
        );
        assert_eq!(results, vec![0, 0]);
        assert_eq!(
            db.table_rows("counter").unwrap()[0][1],
            Value::Int(1),
            "one increment is lost, deterministically"
        );
    }

    #[test]
    fn determinism_across_runs() {
        for _ in 0..5 {
            let db = db();
            run_deterministic(
                &db,
                vec![read_then_write, read_then_write],
                |s: &mut Stepper| {
                    s.run_statements(0, 1);
                    s.run_statements(1, 1);
                },
            );
            assert_eq!(db.table_rows("counter").unwrap()[0][1], Value::Int(1));
        }
    }

    #[test]
    fn blocked_sessions_are_reported_and_recover() {
        let db = db();
        let txn_writer = |conn: &mut dyn SqlConn| -> i64 {
            conn.exec("BEGIN").unwrap();
            conn.exec("UPDATE counter SET n = n + 10 WHERE id = 1")
                .unwrap();
            conn.exec("COMMIT").unwrap();
            0
        };
        let results = run_deterministic(&db, vec![txn_writer, txn_writer], |s: &mut Stepper| {
            s.run_statements(0, 2); // A: BEGIN + UPDATE (holds the row lock)
            s.run_statements(1, 1); // B: BEGIN
            assert_eq!(
                s.step(1),
                StepOutcome::Blocked,
                "B's update must block on A"
            );
            // Finish A; B can proceed afterwards (drain handles it).
        });
        assert_eq!(results.len(), 2);
        assert_eq!(db.table_rows("counter").unwrap()[0][1], Value::Int(20));
    }

    #[test]
    fn zero_statement_tasks_finish_cleanly() {
        let db = db();
        let results = run_deterministic(
            &db,
            vec![|_c: &mut dyn SqlConn| 42, |_c: &mut dyn SqlConn| 43],
            |_s: &mut Stepper| {},
        );
        assert_eq!(results, vec![42, 43]);
    }

    /// Run `f` on its own thread and return the message it panicked with;
    /// fails (rather than hangs) if it has not panicked within 10 s.
    fn panic_message(f: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                .expect_err("the schedule panics");
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            let _ = tx.send(message);
        });
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("a panicking schedule must not hang the scheduler")
    }

    #[test]
    fn a_panicking_schedule_propagates_instead_of_hanging() {
        let message = panic_message(|| {
            run_deterministic(
                &db(),
                vec![read_then_write, read_then_write],
                |s: &mut Stepper| {
                    s.run_statements(0, 1);
                    panic!("schedule gave up");
                },
            );
        });
        assert_eq!(message, "schedule gave up");
    }

    #[test]
    fn a_schedule_panicking_inside_a_transaction_rolls_it_back() {
        let db = db();
        let store = Arc::clone(&db);
        let message = panic_message(move || {
            let txn_writer = |conn: &mut dyn SqlConn| {
                conn.exec("BEGIN")?;
                conn.exec("UPDATE counter SET n = n + 10 WHERE id = 1")?;
                conn.exec("COMMIT").map(drop)
            };
            run_deterministic(&store, vec![txn_writer, txn_writer], |s: &mut Stepper| {
                s.run_statements(0, 2); // A: BEGIN + UPDATE (holds the row lock)
                panic!("schedule gave up holding a lock");
            });
        });
        assert_eq!(message, "schedule gave up holding a lock");
        assert_eq!(
            db.table_rows("counter").unwrap()[0][1],
            Value::Int(0),
            "A's dropped connection rolled its update back"
        );
        let mut conn = db.connect();
        conn.execute("UPDATE counter SET n = 1 WHERE id = 1")
            .expect("the row lock was released");
    }

    #[test]
    fn step_on_finished_session_reports_finished() {
        let db = db();
        run_deterministic(&db, vec![|_c: &mut dyn SqlConn| 0i64], |s: &mut Stepper| {
            assert_eq!(s.step(0), StepOutcome::Finished);
            assert!(s.finished(0));
        });
    }
}
