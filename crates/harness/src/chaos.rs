//! Deterministic chaos runs: the storefront driver's serial configuration
//! against a fault-injecting store, checked into one reproducible report.
//!
//! Everything downstream of the seed is deterministic — the request
//! interleaving (a seeded shuffle that preserves per-session order), the
//! injected faults (the injector's decisions are pure hashes of
//! `(seed, session, statement#)`), and the retry behavior — so two runs of
//! one [`Config`] on equal stores produce bit-for-bit identical reports:
//! same fault counts, same final committed state digest, same 2AD witness
//! set. That property is what makes fault-injection campaigns debuggable:
//! any surprising report can be replayed exactly.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use acidrain_apps::prelude::*;
use acidrain_db::{Database, DbError, IsolationLevel, RecoveryInfo, StmtOutcome, WalConfig};

use crate::attack::Invariant;
use crate::storefront::{self, Config, Outcome};

/// A chaos run's counts and the checkers' verdicts over its store. Two
/// runs of one serial config on equal stores compare equal field for
/// field.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// What the driver counted.
    pub outcome: Outcome,
    /// Per-invariant verdicts over the final committed state (only the
    /// invariants the app supports).
    pub invariant_results: Vec<(Invariant, Option<Violation>)>,
    /// 2AD witnesses found in the run's log (which includes aborted and
    /// retried statement sequences).
    pub witnesses: usize,
    /// Log entries recording aborted attempts.
    pub aborted_log_entries: usize,
    /// FNV-1a digest of the final committed table contents.
    pub state_digest: u64,
}

impl ChaosReport {
    /// Whether every checked invariant held.
    pub fn invariants_held(&self) -> bool {
        self.invariant_results.iter().all(|(_, v)| v.is_none())
    }
}

/// Drive `app` on `db` (built from `app.make_store`) as `config` says,
/// then check the store. The chaos configurations pace serially: what
/// they exercise is the fault path — injected aborts, retry convergence,
/// and the audit trail they leave in the query log.
pub fn run_chaos(app: &(dyn ShopApp + Sync), db: &Arc<Database>, config: &Config) -> ChaosReport {
    let outcome = storefront::run(&[app], db, config).outcome;
    ChaosReport {
        outcome,
        invariant_results: storefront::invariants(db, app),
        witnesses: storefront::witnesses(db, app),
        aborted_log_entries: db
            .log_entries()
            .iter()
            .filter(|e| e.outcome == StmtOutcome::Aborted)
            .count(),
        state_digest: storefront::state_digest(db, app),
    }
}

/// Rebuild `app`'s store (same schema, same seeded fixtures) and recover
/// the durable state under `wal` into it — the restart half of a
/// kill-and-recover cycle. Returns the recovered database alongside what
/// recovery found; errors only on structural corruption ([`DbError::Io`] /
/// [`DbError::WalCorrupt`]), never on an ordinary torn tail.
pub fn recover_app_store(
    app: &dyn ShopApp,
    isolation: IsolationLevel,
    wal: WalConfig,
) -> Result<(Arc<Database>, RecoveryInfo), DbError> {
    let db = app.make_store(isolation);
    let info = db.recover(wal)?;
    Ok((db, info))
}

/// A unique scratch directory under the system temp dir for WAL/recovery
/// artifacts (no external tempdir dependency). The directory is created;
/// callers remove it best-effort when done.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("acidrain-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use acidrain_db::FaultConfig;

    fn chaos(config: &Config) -> ChaosReport {
        run_chaos(
            &PrestaShop,
            &PrestaShop.make_store(IsolationLevel::ReadCommitted),
            config,
        )
    }

    #[test]
    fn clean_run_commits_everything() {
        let report = chaos(&Config::default());
        assert_eq!(report.outcome.failed, 0);
        assert_eq!(report.outcome.fault_stats.total_injected(), 0);
        assert_eq!(report.aborted_log_entries, 0);
        assert_eq!(report.outcome.retry_stats, RetryStats::default());
        assert!(report.outcome.committed > 0);
        assert!(report.invariants_held(), "{report:?}");
    }

    #[test]
    fn faulty_run_converges_via_retries() {
        let config = Config {
            seed: 42,
            faults: FaultConfig::disabled()
                .with_deadlock(0.10)
                .with_write_conflict(0.05),
            ..Config::default()
        };
        let report = chaos(&config);
        let outcome = &report.outcome;
        assert!(outcome.fault_stats.total_injected() > 0, "{report:?}");
        assert!(report.aborted_log_entries > 0);
        assert!(
            outcome.retry_stats.txn_replays + outcome.retry_stats.statement_retries > 0,
            "{report:?}"
        );
        // The retry layer absorbs the chaos: requests still complete.
        assert_eq!(outcome.failed, outcome.retry_stats.gave_up as usize);
        if outcome.failed == 0 {
            // Serial-at-request-level chaos with converged retries must
            // preserve the serial invariants.
            assert!(report.invariants_held(), "{report:?}");
        }
    }

    #[test]
    fn no_retry_policy_surfaces_failures() {
        let config = Config {
            seed: 42,
            faults: FaultConfig::disabled().with_deadlock(0.25),
            retry: RetryConfig::no_sleep(RetryPolicy::NoRetry, 12),
            ..Config::default()
        };
        let report = chaos(&config);
        assert!(report.outcome.failed > 0, "{report:?}");
        assert_eq!(report.outcome.retry_stats.txn_replays, 0);
    }
}
