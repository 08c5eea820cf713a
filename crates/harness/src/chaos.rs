//! Deterministic chaos runs: a seeded storefront workload executed
//! against a fault-injecting store through retrying connections, with a
//! fully reproducible report.
//!
//! Everything downstream of the seed is deterministic — the request
//! interleaving (a seeded shuffle that preserves per-session order), the
//! injected faults (the injector's decisions are pure hashes of
//! `(seed, session, statement#)`), and the retry behavior — so two runs
//! with the same [`ChaosConfig`] produce bit-for-bit identical reports:
//! same fault counts, same final committed state digest, same 2AD witness
//! set. That property is what makes fault-injection campaigns debuggable:
//! any surprising report can be replayed exactly.

use std::fmt::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use acidrain_apps::prelude::*;
use acidrain_apps::{observed_request, AppError, RetryConfig, RetryConn, RetryPolicy, RetryStats};
use acidrain_core::{Analyzer, RefinementConfig};
use acidrain_db::{
    Database, DbError, FaultConfig, FaultStats, IsolationLevel, LogEntry, MetricsReport,
    RecoveryInfo, StmtOutcome, WalConfig,
};
use rand::prelude::*;

use crate::attack::Invariant;

/// Configuration for one chaos run. Every source of nondeterminism is
/// derived from `seed`.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed: drives the interleaving shuffle, the fault injector,
    /// and the retry jitter.
    pub seed: u64,
    /// Fault channels to enable on the store (its `seed` field is
    /// overridden by the master seed).
    pub faults: FaultConfig,
    /// Client-side retry policy.
    pub policy: RetryPolicy,
    /// Retry budget per request.
    pub max_retries: u32,
    /// Number of concurrent shopper sessions (each gets its own cart and
    /// retrying connection).
    pub sessions: usize,
    /// Script length per session.
    pub requests_per_session: usize,
    /// Isolation level of the chaos store.
    pub isolation: IsolationLevel,
    /// Route predicates through the store's ordered indexes (the engine
    /// default) rather than the reference full scan. Indexes are
    /// maintained either way; this gates only the read path, and index
    /// candidates are probed in the same ascending slot order a full scan
    /// visits — so a seeded run produces a bit-for-bit identical
    /// [`ChaosReport`] whether this is on or off (the engine invariance
    /// suite pins this down).
    pub use_indexes: bool,
    /// Attach a write-ahead log before the workload runs. Combined with a
    /// crash point in `faults`, the run dies at a deterministic, seeded
    /// instant (the report's `crashed` flag is set and the remaining
    /// requests never execute) and the directory holds exactly what a
    /// `kill -9` would have left — ready for [`recover_app_store`].
    pub wal: Option<WalConfig>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            faults: FaultConfig::disabled(),
            policy: RetryPolicy::RetryTxn,
            max_retries: 12,
            sessions: 4,
            requests_per_session: 6,
            isolation: IsolationLevel::ReadCommitted,
            use_indexes: true,
            wal: None,
        }
    }
}

/// Everything a chaos run produced. Two runs with equal configs compare
/// equal field-for-field.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Requests that completed successfully.
    pub committed: usize,
    /// Requests the application rejected by business logic (sold out,
    /// voucher exhausted, ...).
    pub rejected: usize,
    /// Requests that failed with a database error even after retries.
    pub failed: usize,
    /// Injected-fault totals from the store's injector.
    pub fault_stats: FaultStats,
    /// Retry activity aggregated across all sessions.
    pub retry_stats: RetryStats,
    /// Per-invariant verdicts over the final committed state (only the
    /// invariants the app supports).
    pub invariant_results: Vec<(Invariant, Option<Violation>)>,
    /// 2AD witnesses found in the chaos log (which includes aborted and
    /// retried statement sequences).
    pub witnesses: usize,
    /// Log entries recording aborted attempts.
    pub aborted_log_entries: usize,
    /// FNV-1a digest of the final committed table contents.
    pub state_digest: u64,
    /// Whether an injected crash point killed the WAL mid-run (the
    /// remaining requests were skipped, as after a real `kill -9`).
    pub crashed: bool,
}

impl ChaosReport {
    /// Whether every checked invariant held.
    pub fn invariants_held(&self) -> bool {
        self.invariant_results.iter().all(|(_, v)| v.is_none())
    }
}

/// One shopper request in the workload.
pub(crate) enum Request {
    AddToCart { product: i64, qty: i64 },
    Checkout,
}

impl Request {
    /// Issue the request for `cart` on `conn`, tagged as the invocation of
    /// its API that `number` hands out for slot 0 (`add_to_cart`) or 1
    /// (`checkout`). Invocation numbers are global per API name: lifting
    /// groups log entries by `name#invocation` (not by session), so
    /// per-session numbering would fuse different sessions' requests into
    /// one node.
    pub(crate) fn dispatch<C: SqlConn>(
        self,
        app: &dyn ShopApp,
        conn: &mut C,
        cart: i64,
        number: impl FnOnce(usize) -> u64,
    ) -> AppResult<()> {
        match self {
            Request::AddToCart { product, qty } => {
                conn.set_api("add_to_cart", number(0));
                observed_request(conn, |c| app.add_to_cart(c, cart, product, qty))
            }
            Request::Checkout => {
                conn.set_api("checkout", number(1));
                observed_request(conn, |c| app.checkout(c, cart, &CheckoutRequest::plain()))
                    .map(|_| ())
            }
        }
    }
}

/// The per-session request script: a cart add followed by a plain
/// checkout, repeated, with pens and laptops split across sessions so the
/// shared stock rows see contention. The workload deliberately stays
/// inside the apps' serially-clean envelope — one single-line cart per
/// checkout, no vouchers — because the corpus apps (faithfully to their
/// originals) interleave writes with per-line validation and would leak
/// partial state on rejection even in a clean serial run; with this
/// script any violation in a chaos report is attributable to the run,
/// not the workload.
pub(crate) fn session_script(session: usize, len: usize) -> Vec<Request> {
    let product = if session.is_multiple_of(2) {
        PEN
    } else {
        LAPTOP
    };
    (0..len)
        .map(|i| {
            if i % 2 == 0 {
                Request::AddToCart { product, qty: 1 }
            } else {
                Request::Checkout
            }
        })
        .collect()
}

/// FNV-1a digest of the committed contents of every table, in schema
/// order — the engine-invariance fingerprint chaos reports carry and the
/// recovery suite compares bit-for-bit against a recovered engine. The
/// hashed text is each table's name followed by its rows, one line per
/// row, each value followed by `|`.
pub fn state_digest(db: &Arc<Database>, app: &dyn ShopApp) -> u64 {
    let mut text = String::new();
    for table in app.schema().tables() {
        text.push_str(&table.name);
        for row in db.table_rows(&table.name).unwrap_or_default() {
            for value in row {
                let _ = write!(text, "{value}|");
            }
            text.push('\n');
        }
    }
    acidrain_sql::fnv1a(text.as_bytes())
}

/// Run the seeded chaos workload against `app` and report.
///
/// Requests execute serially in a seeded shuffled interleaving that
/// preserves per-session order — concurrency enters through transaction
/// interleaving at the statement level being irrelevant here; what the
/// chaos run exercises is the *fault path*: injected aborts, retry
/// convergence, and the audit trail they leave in the query log.
pub fn run_chaos(app: &dyn ShopApp, config: &ChaosConfig) -> ChaosReport {
    run_chaos_core(app, config, false).0
}

/// [`run_chaos`] with metrics recorded: returns the deterministic
/// [`ChaosReport`] alongside the run's [`MetricsReport`] (latency
/// histograms, fault/retry counters, contention gauges). Only the second
/// element varies run-to-run — it carries wall-clock timings. Recording
/// is observational: every probe fires after the engine's deterministic
/// decisions, so the report equals [`run_chaos`]'s bit for bit (the
/// observability test suite pins this down).
pub fn run_chaos_instrumented(
    app: &dyn ShopApp,
    config: &ChaosConfig,
) -> (ChaosReport, MetricsReport) {
    run_chaos_core(app, config, true)
}

fn run_chaos_core(
    app: &dyn ShopApp,
    config: &ChaosConfig,
    metrics: bool,
) -> (ChaosReport, MetricsReport) {
    app.reset_session_state();
    let db = app.make_store(config.isolation);
    db.set_use_indexes(config.use_indexes);
    let mut faults = config.faults.clone();
    faults.seed = config.seed;
    db.enable_faults(faults);
    if let Some(wal_config) = &config.wal {
        db.attach_wal(wal_config.clone())
            .expect("chaos store accepts a fresh WAL");
    }
    if metrics {
        db.enable_metrics();
    }

    // One retrying connection and request script per session.
    let mut conns: Vec<RetryConn<_>> = (0..config.sessions)
        .map(|s| {
            RetryConn::new(
                db.connect(),
                RetryConfig {
                    policy: config.policy,
                    max_retries: config.max_retries,
                    base_backoff: std::time::Duration::ZERO,
                    max_backoff: std::time::Duration::ZERO,
                    seed: config.seed ^ s as u64,
                },
            )
        })
        .collect();
    let mut scripts: Vec<std::vec::IntoIter<Request>> = (0..config.sessions)
        .map(|s| session_script(s, config.requests_per_session).into_iter())
        .collect();

    // Seeded interleaving: shuffle the multiset of session slots, then
    // drain each session's script in that global order.
    let mut order: Vec<usize> = (0..config.sessions)
        .flat_map(|s| std::iter::repeat_n(s, config.requests_per_session))
        .collect();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x000C_4A05);
    order.shuffle(&mut rng);

    let mut committed = 0;
    let mut rejected = 0;
    let mut failed = 0;
    let mut invocations = [0u64; 2];
    for s in order {
        // A dead WAL is the simulated kill -9: nothing runs after it.
        if db.wal_crashed() {
            break;
        }
        let request = scripts[s].next().expect("script length matches order");
        let result = request.dispatch(app, &mut conns[s], s as i64 + 1, |slot| {
            let number = invocations[slot];
            invocations[slot] += 1;
            number
        });
        match result {
            Ok(()) => committed += 1,
            Err(AppError::Rejected(_)) => rejected += 1,
            Err(_) => failed += 1,
        }
    }

    let fault_stats = db.fault_stats();
    let retry_stats = conns.iter().fold(RetryStats::default(), |mut acc, c| {
        let s = c.stats();
        acc.statement_retries += s.statement_retries;
        acc.txn_replays += s.txn_replays;
        acc.gave_up += s.gave_up;
        acc.total_backoff += s.total_backoff;
        acc
    });
    drop(conns);

    let log = db.log_entries();
    let aborted_log_entries = log
        .iter()
        .filter(|e| e.outcome == StmtOutcome::Aborted)
        .count();
    let witnesses = targeted_witnesses(&log, app, config.isolation);
    let invariant_results = supported_invariants(&db, app);

    let report = ChaosReport {
        committed,
        rejected,
        failed,
        fault_stats,
        retry_stats,
        invariant_results,
        witnesses,
        aborted_log_entries,
        state_digest: state_digest(&db, app),
        crashed: db.wal_crashed(),
    };
    (report, db.metrics_report())
}

/// 2AD witnesses in a run's query log at `isolation`, by the targeted
/// analysis (the paper's §4.2.3 filtered mode): the cycle search is
/// restricted to the invariants' columns. The unfiltered search is
/// quadratic in a chaos trace's many distinct abort-shaped API patterns;
/// the targeted one stays tractable and is the witness set that matters
/// for the invariants a report carries. The log contains aborted and
/// retried sequences; lifting discards the aborted work. A log that does
/// not lift counts no witnesses.
pub(crate) fn targeted_witnesses(
    log: &[LogEntry],
    app: &dyn ShopApp,
    isolation: IsolationLevel,
) -> usize {
    let targets: Vec<_> = Invariant::ALL
        .into_iter()
        .flat_map(|inv| inv.targets())
        .collect();
    Analyzer::from_log(log, &app.schema())
        .map(|a| {
            a.analyze_targeted(&RefinementConfig::at_isolation(isolation), &targets)
                .finding_count()
        })
        .unwrap_or(0)
}

/// Each invariant `app` supports, checked over `db`'s committed state.
pub(crate) fn supported_invariants(
    db: &Arc<Database>,
    app: &dyn ShopApp,
) -> Vec<(Invariant, Option<Violation>)> {
    Invariant::ALL
        .into_iter()
        .filter(|inv| inv.feature(app) == FeatureStatus::Supported)
        .map(|inv| (inv, inv.check(db, app).err()))
        .collect()
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

    #[test]
    fn clean_run_commits_everything() {
        let config = ChaosConfig::default();
        let report = run_chaos(&PrestaShop, &config);
        assert_eq!(report.failed, 0);
        assert_eq!(report.fault_stats.total_injected(), 0);
        assert_eq!(report.aborted_log_entries, 0);
        assert_eq!(report.retry_stats, RetryStats::default());
        assert!(report.committed > 0);
        assert!(report.invariants_held(), "{report:?}");
    }

    #[test]
    fn faulty_run_converges_via_retries() {
        let config = ChaosConfig {
            seed: 42,
            faults: FaultConfig::disabled()
                .with_deadlock(0.10)
                .with_write_conflict(0.05),
            ..ChaosConfig::default()
        };
        let report = run_chaos(&PrestaShop, &config);
        assert!(report.fault_stats.total_injected() > 0, "{report:?}");
        assert!(report.aborted_log_entries > 0);
        assert!(
            report.retry_stats.txn_replays + report.retry_stats.statement_retries > 0,
            "{report:?}"
        );
        // The retry layer absorbs the chaos: requests still complete.
        assert_eq!(report.failed, report.retry_stats.gave_up as usize);
        if report.failed == 0 {
            // Serial-at-request-level chaos with converged retries must
            // preserve the serial invariants.
            assert!(report.invariants_held(), "{report:?}");
        }
    }

    #[test]
    fn no_retry_policy_surfaces_failures() {
        let config = ChaosConfig {
            seed: 42,
            faults: FaultConfig::disabled().with_deadlock(0.25),
            policy: RetryPolicy::NoRetry,
            ..ChaosConfig::default()
        };
        let report = run_chaos(&PrestaShop, &config);
        assert!(report.failed > 0, "{report:?}");
        assert_eq!(report.retry_stats.txn_replays, 0);
    }
}
