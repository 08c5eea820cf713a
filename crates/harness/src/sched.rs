//! Deterministic interleaving of concurrent API calls.
//!
//! Each API call runs on its own thread against a [`GatedConn`] that pauses
//! before every statement until the driver grants a permit. Exactly one
//! statement executes at a time, so the driver's grant sequence *is* the
//! interleaving — this replaces the paper's "rapid successive HTTP
//! requests" and 200 ms proxy delay with a reproducible schedule.
//!
//! Lock conflicts surface to the driver as [`StepOutcome::Blocked`]
//! (nothing executed; the permit can be retried after other sessions make
//! progress), which is how witness-derived schedules remain executable
//! even when the database's locks fight back.

use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use acidrain_apps::SqlConn;
use acidrain_db::{Connection, Database, DbError, ResultSet};

/// Session state shared between a session thread and the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GateState {
    /// The session is executing application code (or has just been granted
    /// a permit).
    Running,
    /// The session is parked before a statement. `blocked` records whether
    /// its previous attempt hit a lock conflict.
    AwaitingPermit { blocked: bool },
    /// The driver granted a permit; the session owns the "CPU".
    PermitGranted,
    /// The session's task returned (or panicked).
    Finished,
}

struct Gate {
    state: Mutex<GateState>,
    to_session: Condvar,
    to_driver: Condvar,
}

impl Gate {
    fn new() -> Arc<Self> {
        Arc::new(Gate {
            state: Mutex::new(GateState::Running),
            to_session: Condvar::new(),
            to_driver: Condvar::new(),
        })
    }
}

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
    conn: Connection,
    gate: Arc<Gate>,
    last_blocked: bool,
}

impl GatedConn {
    /// Park until the driver grants a permit.
    fn await_permit(&mut self) {
        let mut st = self.gate.state.lock();
        *st = GateState::AwaitingPermit {
            blocked: self.last_blocked,
        };
        self.gate.to_driver.notify_all();
        while *st != GateState::PermitGranted {
            self.gate.to_session.wait(&mut st);
        }
        *st = GateState::Running;
    }
}

impl SqlConn for GatedConn {
    fn exec(&mut self, sql: &str) -> Result<ResultSet, DbError> {
        loop {
            self.await_permit();
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

/// Marks the gate finished when the session thread exits (normally or by
/// panic), so the driver never hangs.
struct FinishGuard(Arc<Gate>);

impl Drop for FinishGuard {
    fn drop(&mut self) {
        let mut st = self.0.state.lock();
        *st = GateState::Finished;
        self.0.to_driver.notify_all();
    }
}

/// Driver handle for stepping sessions one statement at a time.
pub struct Stepper {
    gates: Vec<Arc<Gate>>,
}

impl Stepper {
    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the stepper has no sessions.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Whether session `i` has finished its task.
    pub fn finished(&self, i: usize) -> bool {
        *self.gates[i].state.lock() == GateState::Finished
    }

    /// Grant one permit to session `i` and wait for the outcome.
    pub fn step(&mut self, i: usize) -> StepOutcome {
        let gate = &self.gates[i];
        let mut st = gate.state.lock();
        loop {
            match *st {
                GateState::AwaitingPermit { .. } => break,
                GateState::Finished => return StepOutcome::Finished,
                _ => gate.to_driver.wait(&mut st),
            }
        }
        *st = GateState::PermitGranted;
        gate.to_session.notify_all();
        loop {
            match *st {
                GateState::AwaitingPermit { blocked } => {
                    return if blocked {
                        StepOutcome::Blocked
                    } else {
                        StepOutcome::Executed
                    };
                }
                GateState::Finished => return StepOutcome::Executed,
                _ => gate.to_driver.wait(&mut st),
            }
        }
    }

    /// Step session `i` until it has *executed* `n` statements (re-granting
    /// through blocks by letting other sessions run one statement). Returns
    /// the number actually executed (less than `n` if the session
    /// finished).
    pub fn run_statements(&mut self, i: usize, n: usize) -> usize {
        let mut executed = 0;
        let mut stall = 0;
        while executed < n && !self.finished(i) {
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
                    let others: Vec<usize> = (0..self.len())
                        .filter(|j| *j != i && !self.finished(*j))
                        .collect();
                    for j in others {
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
        loop {
            let mut progressed = false;
            let mut all_done = true;
            for i in 0..self.len() {
                if self.finished(i) {
                    continue;
                }
                all_done = false;
                if self.step(i) == StepOutcome::Executed {
                    progressed = true;
                }
            }
            if all_done {
                return;
            }
            if progressed {
                stall = 0;
            } else {
                stall += 1;
                assert!(stall < 10_000, "all sessions are stuck");
            }
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
    let gates: Vec<Arc<Gate>> = tasks.iter().map(|_| Gate::new()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = tasks
            .into_iter()
            .zip(conns)
            .zip(&gates)
            .map(|((task, conn), gate)| {
                let mut gc = GatedConn {
                    conn,
                    gate: Arc::clone(gate),
                    last_blocked: false,
                };
                scope.spawn(move || {
                    let _guard = FinishGuard(Arc::clone(&gc.gate));
                    task(&mut gc)
                })
            })
            .collect();

        let mut stepper = Stepper {
            gates: gates.clone(),
        };
        // Wait until every session is parked at its first statement (or
        // already finished) before handing control to the schedule.
        for gate in &stepper.gates {
            let mut st = gate.state.lock();
            while matches!(*st, GateState::Running | GateState::PermitGranted) {
                gate.to_driver.wait(&mut st);
            }
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

    #[test]
    fn step_on_finished_session_reports_finished() {
        let db = db();
        run_deterministic(&db, vec![|_c: &mut dyn SqlConn| 0i64], |s: &mut Stepper| {
            assert_eq!(s.step(0), StepOutcome::Finished);
            assert!(s.finished(0));
        });
    }
}
