//! Transparent retry/backoff for transient database failures.
//!
//! [`RetryConn`] wraps any [`SqlConn`] and re-issues work when the
//! database reports a transient failure ([`DbError::is_retryable`]):
//! deadlock-victim aborts, serialization failures, lock-wait timeouts,
//! dropped connections. Retries use bounded exponential backoff with
//! deterministic, seeded jitter, so a chaos run with a fixed seed replays
//! bit-for-bit.
//!
//! The [`RetryPolicy`] knob mirrors the spectrum real applications sit on
//! (the ACIDRain paper's §4.2 corpus ships all three):
//!
//! * [`RetryPolicy::NoRetry`] — surface every transient error to the
//!   caller (most of the paper's PHP corpus).
//! * [`RetryPolicy::RetryStatement`] — re-issue the failed statement when
//!   the transaction state is intact (lock waits) or when there is no
//!   surrounding transaction (autocommit); in-transaction aborts still
//!   propagate.
//! * [`RetryPolicy::RetryTxn`] — additionally replay the whole recorded
//!   transaction after an abort (the Rails/ActiveRecord deadlock-retry
//!   idiom), which is the only sound way to retry once the database has
//!   rolled the transaction back.

use std::time::Duration;

use acidrain_db::{DbError, Obs, ResultSet};
use acidrain_obs::RetryEvent;
use acidrain_sql::{may_be_transaction_control, parse_statement, Statement};

use crate::framework::SqlConn;

/// What a [`RetryConn`] does when the database reports a transient error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetryPolicy {
    /// Propagate every error; the wrapper only keeps statistics.
    NoRetry,
    /// Retry single statements whose failure left no partial transaction
    /// behind; propagate in-transaction aborts.
    RetryStatement,
    /// Retry statements *and* replay the recorded transaction after an
    /// abort.
    #[default]
    RetryTxn,
}

/// Retry/backoff tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryConfig {
    /// What to retry (nothing, statements, or whole transactions).
    pub policy: RetryPolicy,
    /// Retry budget per logical statement (replays count against it).
    pub max_retries: u32,
    /// First backoff step; doubled each attempt up to `max_backoff`.
    /// `Duration::ZERO` disables sleeping (deterministic tests).
    pub base_backoff: Duration,
    /// Ceiling for the doubling backoff.
    pub max_backoff: Duration,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            policy: RetryPolicy::RetryTxn,
            max_retries: 8,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(5),
            seed: 0,
        }
    }
}

impl RetryConfig {
    /// A config that never sleeps — for deterministic tests.
    pub fn no_sleep(policy: RetryPolicy, max_retries: u32) -> Self {
        RetryConfig {
            policy,
            max_retries,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            seed: 0,
        }
    }
}

/// What a [`RetryConn`] did on behalf of its caller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Single-statement re-issues (transaction state intact).
    pub statement_retries: u64,
    /// Whole-transaction replays after an abort.
    pub txn_replays: u64,
    /// Retryable errors surfaced to the caller after the budget ran out
    /// (or because the policy forbade retrying).
    pub gave_up: u64,
    /// Total time spent backing off.
    pub total_backoff: Duration,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`SqlConn`] that transparently retries transient failures.
pub struct RetryConn<C: SqlConn> {
    inner: C,
    config: RetryConfig,
    /// Statements of the currently open explicit transaction (including
    /// its `BEGIN` / `SET autocommit=0`), recorded for replay.
    txn_log: Vec<String>,
    in_txn: bool,
    /// Global jitter-draw counter (deterministic stream per seed).
    draws: u64,
    stats: RetryStats,
    /// Observability handle inherited from the wrapped connection; retry
    /// and backoff probes record here (after each decision, never before).
    obs: Obs,
}

impl<C: SqlConn> RetryConn<C> {
    /// Wrap `inner` with retry behavior per `config`.
    pub fn new(inner: C, config: RetryConfig) -> Self {
        let obs = inner.obs();
        RetryConn {
            inner,
            config,
            txn_log: Vec::new(),
            in_txn: false,
            draws: 0,
            stats: RetryStats::default(),
            obs,
        }
    }

    /// Retry activity recorded so far.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// The wrapper's configuration.
    pub fn config(&self) -> &RetryConfig {
        &self.config
    }

    /// Unwrap, returning the inner connection.
    pub fn into_inner(self) -> C {
        self.inner
    }

    fn reset_txn(&mut self) {
        self.in_txn = false;
        self.txn_log.clear();
    }

    /// Record a successfully executed statement in the transaction log.
    /// Only text the gate admits is parsed: a data statement can never
    /// parse as transaction control, so it is logged as it stands.
    fn track(&mut self, sql: &str) {
        let control = may_be_transaction_control(sql)
            .then(|| parse_statement(sql).ok())
            .flatten();
        match control {
            Some(Statement::Begin) | Some(Statement::SetAutocommit(false)) => {
                self.in_txn = true;
                self.txn_log.clear();
                self.txn_log.push(sql.to_string());
            }
            Some(Statement::Commit)
            | Some(Statement::Rollback)
            | Some(Statement::SetAutocommit(true)) => {
                self.reset_txn();
            }
            _ => {
                if self.in_txn {
                    self.txn_log.push(sql.to_string());
                }
            }
        }
    }

    /// Exponential backoff with deterministic jitter: step `attempt` waits
    /// `base * 2^(attempt-1)` (capped) scaled by a seeded factor in
    /// `[0.5, 1.0)`.
    fn backoff(&mut self, attempt: u32) {
        if self.config.base_backoff.is_zero() {
            return;
        }
        let exp = self
            .config
            .base_backoff
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.config.max_backoff);
        let roll = splitmix64(self.config.seed ^ self.draws.wrapping_mul(0x9E37)) >> 11;
        self.draws += 1;
        let jitter = 0.5 + 0.5 * (roll as f64 / (1u64 << 53) as f64);
        let delay = exp.mul_f64(jitter);
        self.stats.total_backoff += delay;
        self.obs.backoff(self.inner.session(), delay);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }

    /// Re-execute the recorded transaction prefix after an abort. On a
    /// retryable failure mid-replay the partial transaction is rolled
    /// back and `Ok(false)` returned so the caller can back off and try
    /// again; non-retryable errors propagate.
    fn replay_txn(&mut self) -> Result<bool, DbError> {
        let statements: Vec<String> = self.txn_log.clone();
        for sql in &statements {
            match self.inner.exec(sql) {
                Ok(_) => {}
                Err(e) if e.is_retryable() => {
                    if !e.aborts_transaction() {
                        // Partial transaction still open: clear it before
                        // the next replay starts from BEGIN.
                        let _ = self.inner.exec("ROLLBACK");
                    }
                    return Ok(false);
                }
                Err(e) => {
                    self.reset_txn();
                    return Err(e);
                }
            }
        }
        Ok(true)
    }
}

impl<C: SqlConn> SqlConn for RetryConn<C> {
    fn exec(&mut self, sql: &str) -> Result<ResultSet, DbError> {
        let session = self.inner.session();
        let mut attempts = 0u32;
        loop {
            let err = match self.inner.exec(sql) {
                Ok(rs) => {
                    self.track(sql);
                    return Ok(rs);
                }
                Err(e) => e,
            };
            let aborted = err.aborts_transaction();
            let policy = self.config.policy;
            let retryable = err.is_retryable()
                && match policy {
                    RetryPolicy::NoRetry => false,
                    // Statement retry is only sound when no transaction
                    // state was lost with the failure.
                    RetryPolicy::RetryStatement => !(aborted && self.in_txn),
                    RetryPolicy::RetryTxn => true,
                };
            if !retryable || attempts >= self.config.max_retries {
                if aborted {
                    self.reset_txn();
                }
                if err.is_retryable() {
                    self.stats.gave_up += 1;
                    self.obs.retry(session, RetryEvent::GaveUp);
                }
                return Err(err);
            }

            attempts += 1;
            self.backoff(attempts);

            if aborted && self.in_txn {
                // Replay the recorded transaction, then fall through to
                // re-issue the failed statement.
                loop {
                    match self.replay_txn() {
                        Ok(true) => {
                            self.stats.txn_replays += 1;
                            self.obs.retry(session, RetryEvent::TxnReplay);
                            break;
                        }
                        Ok(false) => {
                            if attempts >= self.config.max_retries {
                                self.reset_txn();
                                self.stats.gave_up += 1;
                                self.obs.retry(session, RetryEvent::GaveUp);
                                return Err(err);
                            }
                            attempts += 1;
                            self.backoff(attempts);
                        }
                        Err(fatal) => return Err(fatal),
                    }
                }
            } else {
                self.stats.statement_retries += 1;
                self.obs.retry(session, RetryEvent::Statement);
            }
        }
    }

    fn set_api(&mut self, name: &str, invocation: u64) {
        self.inner.set_api(name, invocation);
    }

    fn session(&self) -> u64 {
        self.inner.session()
    }

    fn obs(&self) -> Obs {
        self.obs.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acidrain_db::{Database, FaultConfig, IsolationLevel, Value};
    use acidrain_sql::schema::{ColumnDef, ColumnType, Schema, TableSchema};

    fn counter_db() -> std::sync::Arc<Database> {
        let schema = Schema::new().with_table(TableSchema::new(
            "t",
            vec![ColumnDef::new("v", ColumnType::Int)],
        ));
        let db = Database::new(schema, IsolationLevel::ReadCommitted);
        db.seed("t", vec![vec![Value::Int(0)]]).unwrap();
        db
    }

    #[test]
    fn track_follows_transaction_control() {
        let db = counter_db();
        let mut conn = RetryConn::new(db.connect(), RetryConfig::default());
        let (off, upd, sp, to_sp) = (
            "SET autocommit = 0",
            "UPDATE t SET v = v + 1",
            "SAVEPOINT a",
            "ROLLBACK TO SAVEPOINT a",
        );
        let (begin, restock) = ("`begin`", "-- restock\nUPDATE t SET v = 3");
        let steps: [(&str, bool, &[&str]); 9] = [
            ("SELECT v FROM t", false, &[]),
            (off, true, &[off]),
            (upd, true, &[off, upd]),
            (sp, true, &[off, upd, sp]),
            (to_sp, true, &[off, upd, sp, to_sp]),
            ("ROLLBACK", false, &[]),
            (begin, true, &[begin]),
            (restock, true, &[begin, restock]),
            ("-- done\nCOMMIT;", false, &[]),
        ];
        for (sql, in_txn, txn_log) in steps {
            conn.exec(sql).unwrap();
            assert_eq!(conn.in_txn, in_txn, "after {sql:?}");
            assert_eq!(conn.txn_log, txn_log, "after {sql:?}");
        }
    }

    #[test]
    fn no_faults_means_no_retries() {
        let db = counter_db();
        let mut conn = RetryConn::new(db.connect(), RetryConfig::default());
        for _ in 0..5 {
            conn.exec("BEGIN").unwrap();
            conn.exec("UPDATE t SET v = v + 1").unwrap();
            conn.exec("COMMIT").unwrap();
        }
        assert_eq!(conn.stats(), RetryStats::default());
        assert_eq!(db.table_rows("t").unwrap()[0][0], Value::Int(5));
    }

    #[test]
    fn txn_replay_converges_under_heavy_aborts() {
        let db = counter_db();
        db.enable_faults(FaultConfig::seeded(21).with_deadlock(0.3));
        let mut conn = RetryConn::new(
            db.connect(),
            RetryConfig::no_sleep(RetryPolicy::RetryTxn, 40),
        );
        for _ in 0..50 {
            conn.exec("BEGIN").unwrap();
            conn.exec("UPDATE t SET v = v + 1").unwrap();
            conn.exec("COMMIT").unwrap();
        }
        assert_eq!(
            db.table_rows("t").unwrap()[0][0],
            Value::Int(50),
            "every transaction must eventually commit exactly once"
        );
        assert!(conn.stats().txn_replays > 0, "{:?}", conn.stats());
        assert_eq!(db.active_transactions(), 0);
        assert_eq!(db.locked_resources(), 0);
    }

    #[test]
    fn no_retry_policy_surfaces_aborts() {
        let db = counter_db();
        db.enable_faults(FaultConfig::seeded(3).with_deadlock(1.0));
        let mut conn = RetryConn::new(db.connect(), RetryConfig::no_sleep(RetryPolicy::NoRetry, 8));
        conn.exec("BEGIN").unwrap();
        let err = conn.exec("UPDATE t SET v = 1").unwrap_err();
        assert_eq!(err, DbError::Deadlock);
        assert_eq!(conn.stats().gave_up, 1);
        assert_eq!(conn.stats().txn_replays, 0);
    }

    #[test]
    fn statement_policy_propagates_in_txn_aborts_but_retries_autocommit() {
        let db = counter_db();
        db.enable_faults(FaultConfig::seeded(17).with_deadlock(0.4));
        let mut conn = RetryConn::new(
            db.connect(),
            RetryConfig::no_sleep(RetryPolicy::RetryStatement, 40),
        );
        // Autocommit statements retry to completion.
        for _ in 0..20 {
            conn.exec("UPDATE t SET v = v + 1").unwrap();
        }
        assert_eq!(db.table_rows("t").unwrap()[0][0], Value::Int(20));

        // In-transaction aborts surface (replay would be unsound).
        db.enable_faults(FaultConfig::seeded(5).with_deadlock(1.0));
        conn.exec("BEGIN").unwrap(); // control statements never fault
        let err = conn.exec("UPDATE t SET v = 0").unwrap_err();
        assert!(err.aborts_transaction());
        assert_eq!(conn.stats().gave_up, 1);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let db = counter_db();
        db.enable_faults(FaultConfig::seeded(9).with_deadlock(1.0));
        let mut conn = RetryConn::new(
            db.connect(),
            RetryConfig::no_sleep(RetryPolicy::RetryTxn, 6),
        );
        let err = conn.exec("UPDATE t SET v = 1").unwrap_err();
        assert!(err.is_retryable());
        assert_eq!(conn.stats().gave_up, 1);
        assert!(conn.stats().statement_retries <= 6);
        assert_eq!(db.table_rows("t").unwrap()[0][0], Value::Int(0));
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let mk = |seed| RetryConfig {
            policy: RetryPolicy::RetryTxn,
            max_retries: 12,
            base_backoff: Duration::from_nanos(10),
            max_backoff: Duration::from_nanos(300),
            seed,
        };
        let run = |seed| {
            let db = counter_db();
            db.enable_faults(FaultConfig::seeded(33).with_deadlock(0.5));
            let mut conn = RetryConn::new(db.connect(), mk(seed));
            for _ in 0..10 {
                conn.exec("UPDATE t SET v = v + 1").unwrap();
            }
            conn.stats().total_backoff
        };
        assert_eq!(run(1), run(1));
        assert!(run(1) > Duration::ZERO);
    }
}
