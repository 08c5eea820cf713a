//! Interleaving-space exploration: ground truth for the C1 condition.
//!
//! 2AD reasons about *all possible* concurrent interleavings from one
//! serial trace; this module goes the other way and actually *runs* them.
//! For small scenarios every productive interleaving is enumerated
//! (bounded exhaustive model checking); for larger ones a seeded random
//! sample is drawn. Each explored schedule replays against a fresh store
//! and the final state is checked — so a "safe" verdict from
//! [`exhaustive`] is a proof over the bounded schedule space, not just a
//! failure to exploit. Every replay goes through [`run_schedule`], the
//! one helper that runs a [`Scenario`]'s sessions under a
//! [`crate::sched`] schedule; [`crate::attack::Race`] is the scenario
//! behind Table 5's attacks and their serial controls.
//!
//! A schedule is a sequence of session indices; entry k runs exactly one
//! statement of that session. Only *productive* steps (ones that execute
//! a statement rather than parking on a lock) appear in schedules: a
//! blocked step changes no data, and every state reachable through it is
//! covered by schedules that let the lock holder run first. Deadlocks are
//! productive steps — the victim's statement errors and its session
//! continues down its error path.

use std::sync::Arc;

use acidrain_apps::SqlConn;
use acidrain_db::Database;

use crate::sched::{run_deterministic, StepOutcome, Stepper};

/// A factory producing a fresh, identically seeded store plus the session
/// requests to interleave. Stores are rebuilt per replay, keeping
/// exploration side-effect free and deterministic.
pub trait Scenario: Sync {
    /// Number of concurrent sessions.
    fn sessions(&self) -> usize;

    /// Build a fresh store (including any setup traffic).
    fn make_store(&self) -> Arc<Database>;

    /// Run session `index`'s request against `conn`. Errors are the
    /// session's own business (requests may be refused); outcomes are
    /// judged via [`Scenario::check`].
    fn run_session(&self, index: usize, conn: &mut dyn SqlConn);

    /// Check the invariant over the final committed state; `Err` describes
    /// the violation.
    fn check(&self, db: &Database) -> Result<(), String>;
}

/// Run `scenario`'s sessions against a fresh store under `schedule`, drain
/// whatever the schedule left unfinished, and return the store. The one
/// way application code runs under a schedule: [`exhaustive`] and
/// [`randomized`] replay every prefix through it, and Table 5's attack and
/// its serial control are two schedules of one [`crate::attack::Race`].
pub fn run_schedule(scenario: &dyn Scenario, schedule: impl FnOnce(&mut Stepper)) -> Arc<Database> {
    let db = scenario.make_store();
    let tasks = (0..scenario.sessions())
        .map(|i| move |conn: &mut dyn SqlConn| scenario.run_session(i, conn))
        .collect();
    run_deterministic(&db, tasks, schedule);
    db
}

/// Result of replaying one schedule from a fresh store.
#[derive(Debug)]
struct Replay {
    /// Whether the schedule's final entry executed a statement (see module
    /// docs: only productive branches are explored).
    productive: bool,
    /// Which sessions had finished by the end of the schedule.
    finished: Vec<bool>,
    /// Invariant check, evaluated only when every session finished within
    /// the schedule.
    violation: Option<String>,
}

impl Replay {
    fn all_finished(&self) -> bool {
        self.finished.iter().all(|f| *f)
    }
}

fn replay(scenario: &dyn Scenario, schedule: &[usize]) -> Replay {
    let mut last = None;
    let mut finished = Vec::new();
    let db = run_schedule(scenario, |s: &mut Stepper| {
        for &choice in schedule {
            last = Some(s.step(choice));
        }
        finished = (0..s.len()).map(|i| s.finished(i)).collect();
        // run_schedule drains any remaining sessions afterwards; that run
        // is discarded along with the store.
    });
    let mut replay = Replay {
        productive: last == Some(StepOutcome::Executed),
        finished,
        violation: None,
    };
    if replay.all_finished() {
        replay.violation = scenario.check(&db).err();
    }
    replay
}

/// The outcome of exploring a scenario's schedule space.
#[derive(Debug)]
pub struct Exploration {
    /// Complete schedules executed and checked.
    pub schedules_run: usize,
    /// Schedules whose final state violated the invariant.
    pub violations: Vec<Vec<usize>>,
    /// Whether the productive-schedule space was fully enumerated (vs
    /// sampled, or truncated by the budget).
    pub complete: bool,
}

impl Exploration {
    /// Whether no explored schedule violated the invariant.
    pub fn all_safe(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Exhaustively explore every productive interleaving, up to
/// `max_schedules` complete schedules (a safety budget).
pub fn exhaustive(scenario: &dyn Scenario, max_schedules: usize) -> Exploration {
    let mut result = Exploration {
        schedules_run: 0,
        violations: Vec::new(),
        complete: true,
    };
    // Each entry carries its own replay, so every prefix runs once.
    let mut stack = vec![(Vec::new(), replay(scenario, &[]))];
    while let Some((prefix, state)) = stack.pop() {
        if result.schedules_run >= max_schedules {
            result.complete = false;
            break;
        }
        if state.all_finished() {
            result.schedules_run += 1;
            if state.violation.is_some() {
                result.violations.push(prefix);
            }
            continue;
        }
        for i in 0..scenario.sessions() {
            if state.finished[i] {
                continue;
            }
            let mut child = prefix.clone();
            child.push(i);
            let child_state = replay(scenario, &child);
            if child_state.productive {
                stack.push((child, child_state));
            }
        }
    }
    result
}

/// Sample `samples` random productive schedules (deterministic under
/// `seed`).
pub fn randomized(scenario: &dyn Scenario, samples: usize, seed: u64) -> Exploration {
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut result = Exploration {
        schedules_run: 0,
        violations: Vec::new(),
        complete: false,
    };
    'samples: for _ in 0..samples {
        let mut prefix: Vec<usize> = Vec::new();
        let mut state = replay(scenario, &prefix);
        loop {
            if state.all_finished() {
                result.schedules_run += 1;
                if state.violation.is_some() {
                    result.violations.push(prefix);
                }
                continue 'samples;
            }
            let mut candidates: Vec<usize> = (0..scenario.sessions())
                .filter(|i| !state.finished[*i])
                .collect();
            candidates.shuffle(&mut rng);
            let next = candidates.into_iter().find_map(|i| {
                let mut child = prefix.clone();
                child.push(i);
                let child_state = replay(scenario, &child);
                child_state.productive.then_some((child, child_state))
            });
            let Some((child, child_state)) = next else {
                // All remaining sessions blocked without a deadlock cycle
                // is unreachable; bail defensively.
                result.schedules_run += 1;
                continue 'samples;
            };
            (prefix, state) = (child, child_state);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use acidrain_apps::didactic::Bank;
    use acidrain_db::{IsolationLevel, Value};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Two withdrawals racing one account; the audit table records each
    /// success so over-withdrawal is observable in the final state.
    struct WithdrawScenario {
        bank: Bank,
        isolation: IsolationLevel,
        opening: i64,
        amount: i64,
    }

    impl Scenario for WithdrawScenario {
        fn sessions(&self) -> usize {
            2
        }

        fn make_store(&self) -> Arc<Database> {
            self.bank.make_bank(self.isolation, self.opening)
        }

        fn run_session(&self, _index: usize, conn: &mut dyn SqlConn) {
            if self.bank.withdraw(conn, 1, self.amount).is_ok() {
                // The teller hands out cash on success: record it.
                let _ = conn.exec(&format!(
                    "INSERT INTO accounts (balance) VALUES ({})",
                    -self.amount
                ));
            }
        }

        fn check(&self, db: &Database) -> Result<(), String> {
            let rows = db.table_rows("accounts").unwrap();
            let balance = rows[0][1].as_i64().unwrap();
            let paid_out: i64 = rows[1..].iter().map(|r| -r[1].as_i64().unwrap()).sum();
            if balance < 0 {
                return Err(format!("overdrawn: {balance}"));
            }
            if paid_out > self.opening {
                return Err(format!(
                    "paid out {paid_out} from an opening balance of {}",
                    self.opening
                ));
            }
            let _ = Value::Int(0);
            Ok(())
        }
    }

    fn scenario(bank: Bank, isolation: IsolationLevel) -> WithdrawScenario {
        WithdrawScenario {
            bank,
            isolation,
            opening: 100,
            amount: 99,
        }
    }

    #[test]
    fn exhaustive_finds_the_overdraft_at_weak_isolation() {
        // Unscoped withdraw (Figure 1a) at Read Committed: some
        // interleaving pays out $198 from a $100 account.
        let result = exhaustive(
            &scenario(Bank::figure_1a(), IsolationLevel::ReadCommitted),
            5000,
        );
        assert!(result.complete);
        assert!(result.schedules_run > 1);
        assert!(
            !result.all_safe(),
            "the overdraft interleaving must be found"
        );
        // And at least one schedule is safe (the serial ones).
        assert!(result.violations.len() < result.schedules_run);
    }

    #[test]
    fn exhaustive_proves_safety_at_strong_isolation() {
        for isolation in [
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::Serializable,
        ] {
            let result = exhaustive(&scenario(Bank::figure_1b(), isolation), 5000);
            assert!(result.complete, "{isolation}");
            assert!(result.all_safe(), "{isolation}: {:?}", result.violations);
            assert!(result.schedules_run > 1);
        }
    }

    /// A scenario that counts the stores it builds: one per replay.
    struct Counted {
        inner: WithdrawScenario,
        stores: AtomicUsize,
    }

    impl Scenario for Counted {
        fn sessions(&self) -> usize {
            self.inner.sessions()
        }

        fn make_store(&self) -> Arc<Database> {
            self.stores.fetch_add(1, Ordering::Relaxed);
            self.inner.make_store()
        }

        fn run_session(&self, index: usize, conn: &mut dyn SqlConn) {
            self.inner.run_session(index, conn);
        }

        fn check(&self, db: &Database) -> Result<(), String> {
            self.inner.check(db)
        }
    }

    #[test]
    fn exhaustive_replays_each_prefix_once() {
        // (bank, level, stores built, complete schedules, violating ones)
        for (bank, isolation, replays, schedules, violations) in [
            (Bank::figure_1a(), IsolationLevel::ReadCommitted, 51, 16, 12),
            (Bank::figure_1b(), IsolationLevel::Serializable, 149, 32, 0),
        ] {
            let counted = Counted {
                inner: scenario(bank, isolation),
                stores: AtomicUsize::new(0),
            };
            let result = exhaustive(&counted, 5000);
            assert!(result.complete, "{isolation}");
            assert_eq!(result.schedules_run, schedules, "{isolation}");
            assert_eq!(result.violations.len(), violations, "{isolation}");
            assert_eq!(counted.stores.into_inner(), replays, "{isolation}");
        }
    }

    #[test]
    fn select_for_update_is_safe_even_at_read_committed() {
        let result = exhaustive(
            &scenario(Bank::fixed(), IsolationLevel::ReadCommitted),
            5000,
        );
        assert!(result.complete);
        assert!(result.all_safe(), "{:?}", result.violations);
    }

    #[test]
    fn budget_truncation_is_reported() {
        let result = exhaustive(
            &scenario(Bank::figure_1a(), IsolationLevel::ReadCommitted),
            1,
        );
        assert!(!result.complete);
        assert!(result.schedules_run <= 1);
    }

    #[test]
    fn randomized_is_deterministic_and_finds_the_race() {
        let s = scenario(Bank::figure_1a(), IsolationLevel::ReadCommitted);
        let a = randomized(&s, 40, 7);
        let b = randomized(&s, 40, 7);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.schedules_run, 40);
        assert!(!a.all_safe(), "40 random schedules should hit the race");
    }
}
