//! Socket-driven chaos: the fault-injection campaign of [`crate::chaos`],
//! mounted over real TCP connections.
//!
//! The in-process chaos runner interleaves requests serially under a
//! seeded shuffle; here the concurrency is real — each session is a
//! thread driving a [`RemoteConn`] against a live wire server, so the
//! interleaving is decided by network and OS scheduling exactly as in the
//! paper's deployment model. On top of the engine's injected faults
//! (deadlocks, write conflicts), the runner can inject the fault class
//! only a network deployment has: clients that vanish mid-transaction.
//! Every such disconnect must be absorbed by the server's abort-on-
//! disconnect path — the report's leak checks (`active_transactions`,
//! `locked_resources` both zero after the run) prove no dropped socket
//! left row locks behind.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use acidrain_apps::prelude::*;
use acidrain_apps::{AppError, RetryConfig, RetryConn, RetryPolicy};
use acidrain_db::{DbError, FaultConfig, FaultStats, IsolationLevel, MetricsReport};
use acidrain_net::{RemoteConn, Server, ServerConfig};

use crate::attack::Invariant;
use crate::chaos::{session_script, supported_invariants, targeted_witnesses};

/// Configuration for one socket-driven chaos run.
#[derive(Debug, Clone)]
pub struct NetChaosConfig {
    /// Seed for the per-session request mix and retry jitter. The run is
    /// *not* deterministic — real sockets race — but the offered workload
    /// is.
    pub seed: u64,
    /// Fault channels to enable on the served store (its `seed` field is
    /// overridden by the master seed).
    pub faults: FaultConfig,
    /// Client-side retry policy (wrapped around the socket, so retries
    /// replay over the wire like a real application server's would).
    pub policy: RetryPolicy,
    /// Retry budget per request.
    pub max_retries: u32,
    /// Concurrent socket sessions (one thread each).
    pub sessions: usize,
    /// Requests per session.
    pub requests_per_session: usize,
    /// Isolation level every client negotiates via `HELLO`.
    pub isolation: IsolationLevel,
    /// Every Nth request, the session abandons its socket *inside* an
    /// open transaction holding a row lock, then reconnects — the flaky-
    /// client fault. `None` disables.
    pub drop_every: Option<usize>,
    /// Wire-server knobs (admission ceiling, timeouts, worker count).
    pub server: ServerConfig,
}

impl Default for NetChaosConfig {
    fn default() -> Self {
        NetChaosConfig {
            seed: 0,
            faults: FaultConfig::disabled(),
            policy: RetryPolicy::RetryTxn,
            max_retries: 12,
            sessions: 8,
            requests_per_session: 8,
            isolation: IsolationLevel::ReadCommitted,
            drop_every: None,
            server: ServerConfig::default(),
        }
    }
}

/// What a socket-driven chaos run produced. Unlike [`crate::ChaosReport`]
/// this is not run-to-run reproducible — the interleaving is the
/// network's — so it carries leak checks and wire-health counters instead
/// of a state digest.
#[derive(Debug)]
pub struct NetChaosReport {
    /// Requests that completed successfully.
    pub committed: usize,
    /// Requests rejected by application business logic.
    pub rejected: usize,
    /// Requests that failed with a database error even after retries.
    pub failed: usize,
    /// Deliberate mid-transaction socket abandonments.
    pub injected_disconnects: usize,
    /// Wire-protocol violations observed client-side (zero on a healthy
    /// server).
    pub protocol_errors: usize,
    /// Engine-side injected fault totals.
    pub fault_stats: FaultStats,
    /// Per-invariant verdicts over the final committed state (only the
    /// invariants the app supports).
    pub invariant_results: Vec<(Invariant, Option<Violation>)>,
    /// 2AD witnesses found in the run's query log.
    pub witnesses: usize,
    /// Transactions still open after every socket closed (must be 0).
    pub leaked_transactions: usize,
    /// Row locks still held after every socket closed (must be 0).
    pub leaked_locks: usize,
    /// Snapshot pins still registered after every socket closed (must be
    /// 0). A leaked pin is the quiet cousin of a leaked lock: nothing
    /// blocks, but version GC is wedged at that bound forever.
    pub leaked_snapshot_pins: usize,
    /// The server's full metrics report (session/frame/disconnect
    /// counters included).
    pub metrics: MetricsReport,
}

impl NetChaosReport {
    /// Whether every checked invariant held.
    pub fn invariants_held(&self) -> bool {
        self.invariant_results.iter().all(|(_, v)| v.is_none())
    }

    /// Whether the session layer kept its hygiene promises: no leaked
    /// transactions or locks, no wire-protocol violations on either side.
    pub fn clean_wire(&self) -> bool {
        self.leaked_transactions == 0
            && self.leaked_locks == 0
            && self.leaked_snapshot_pins == 0
            && self.protocol_errors == 0
            && self.metrics.counters.net_protocol_errors == 0
    }
}

/// Run the socket-driven chaos workload for `app` and report.
pub fn run_net_chaos(app: &(dyn ShopApp + Sync), config: &NetChaosConfig) -> NetChaosReport {
    app.reset_session_state();
    let db = app.make_store(config.isolation);
    let mut faults = config.faults.clone();
    faults.seed = config.seed;
    db.enable_faults(faults);
    db.enable_metrics();
    let handle = Server::start(Arc::clone(&db), config.server.clone()).expect("start chaos server");
    let addr = handle.addr();

    // Invocation numbers are global per API name, shared across the
    // client threads.
    let invocations: Arc<[AtomicU64; 2]> = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);

    let results: Vec<[usize; 5]> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for s in 0..config.sessions {
            let invocations = Arc::clone(&invocations);
            let obs = db.obs().clone();
            handles.push(scope.spawn(move || {
                let connect = || -> RetryConn<RemoteConn> {
                    let mut conn = RemoteConn::connect(addr)
                        .expect("chaos client connects")
                        .with_obs(obs.clone());
                    conn.set_isolation(config.isolation)
                        .expect("negotiate isolation");
                    RetryConn::new(
                        conn,
                        RetryConfig {
                            policy: config.policy,
                            max_retries: config.max_retries,
                            seed: config.seed ^ s as u64,
                            ..RetryConfig::default()
                        },
                    )
                };
                let mut conn = connect();
                let cart = s as i64 + 1;
                // committed, rejected, failed, disconnects, protocol errors
                let mut counts = [0usize; 5];
                for (i, request) in session_script(s, config.requests_per_session)
                    .into_iter()
                    .enumerate()
                {
                    if config.drop_every.is_some_and(|n| n > 0 && (i + 1) % n == 0) {
                        // The flaky client: open a transaction, take a row
                        // lock, and vanish without ROLLBACK or QUIT. The
                        // server must absorb it via disconnect-abort.
                        let mut raw = conn.into_inner();
                        let _ = raw.exec("BEGIN");
                        let _ = raw.exec(&format!(
                            "UPDATE products SET stock = stock WHERE id = {PEN}"
                        ));
                        drop(raw);
                        counts[3] += 1;
                        conn = connect();
                    }
                    let result = request.dispatch(app, &mut conn, cart, |slot| {
                        invocations[slot].fetch_add(1, Ordering::Relaxed)
                    });
                    match result {
                        Ok(()) => counts[0] += 1,
                        Err(AppError::Rejected(_)) | Err(AppError::Unsupported(_)) => {
                            counts[1] += 1
                        }
                        Err(AppError::Db(DbError::Internal(msg)))
                            if msg.starts_with("wire protocol") =>
                        {
                            counts[4] += 1
                        }
                        Err(AppError::Db(_)) => counts[2] += 1,
                    }
                }
                counts
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("chaos client thread"))
            .collect()
    });

    // Every client socket is gone; stop the server so vanished sessions
    // are finalized before the leak checks. The explicit GC pass then
    // publishes the post-run snapshot bound: with every pin released it
    // must reach the commit clock, which makes pin leaks visible in the
    // metrics (`gc_oldest_snapshot` stuck below `commit_clock`), not just
    // in the direct `pinned_snapshots` probe.
    handle.shutdown();
    db.gc();

    let mut totals = [0usize; 5];
    for counts in &results {
        for (t, c) in totals.iter_mut().zip(counts) {
            *t += c;
        }
    }

    NetChaosReport {
        committed: totals[0],
        rejected: totals[1],
        failed: totals[2],
        injected_disconnects: totals[3],
        protocol_errors: totals[4],
        fault_stats: db.fault_stats(),
        invariant_results: supported_invariants(&db, app),
        witnesses: targeted_witnesses(&db.log_entries(), app, config.isolation),
        leaked_transactions: db.active_transactions(),
        leaked_locks: db.locked_resources(),
        leaked_snapshot_pins: db.pinned_snapshots(),
        metrics: db.metrics_report(),
    }
}

/// The default flaky-client campaign: [`run_net_chaos`] with every third
/// request abandoning its socket mid-transaction and a 5 % injected
/// deadlock rate.
pub fn flaky_client_campaign(app: &(dyn ShopApp + Sync), seed: u64) -> NetChaosReport {
    run_net_chaos(
        app,
        &NetChaosConfig {
            seed,
            drop_every: Some(3),
            faults: FaultConfig::disabled().with_deadlock(0.05),
            ..NetChaosConfig::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_socket_run_commits_and_leaks_nothing() {
        let report = run_net_chaos(&PrestaShop, &NetChaosConfig::default());
        assert!(report.committed > 0, "{report:?}");
        assert!(report.clean_wire(), "{report:?}");
        assert_eq!(report.metrics.counters.net_accepted, 8, "{report:?}");
    }

    #[test]
    fn flaky_clients_are_absorbed_by_disconnect_abort() {
        let report = flaky_client_campaign(&PrestaShop, 7);
        assert!(report.injected_disconnects > 0, "{report:?}");
        assert!(report.clean_wire(), "{report:?}");
        // Most abandoned sockets die holding an open transaction and are
        // counted as disconnect aborts; a few may race an injected fault
        // that already aborted the transaction before the drop, so the
        // count is bounded, not exact.
        let aborts = report.metrics.counters.net_disconnect_aborts as usize;
        assert!(
            aborts > 0 && aborts <= report.injected_disconnects,
            "disconnect aborts {aborts} vs {} injected: {report:?}",
            report.injected_disconnects
        );
        // The workload still makes progress around the vanishing clients.
        assert!(report.committed > 0, "{report:?}");
    }

    /// Flaky clients at the snapshot-pinning levels: every abandoned
    /// socket's pin must be released, and the post-run GC bound must
    /// reach the commit clock — a wire session that leaked its pin would
    /// leave `gc_oldest_snapshot` wedged below it.
    #[test]
    fn flaky_snapshot_clients_release_their_pins() {
        for level in [
            IsolationLevel::MySqlRepeatableRead,
            IsolationLevel::SnapshotIsolation,
        ] {
            let report = run_net_chaos(
                &PrestaShop,
                &NetChaosConfig {
                    seed: 11,
                    isolation: level,
                    drop_every: Some(2),
                    faults: FaultConfig::disabled().with_deadlock(0.05),
                    ..NetChaosConfig::default()
                },
            );
            assert!(report.injected_disconnects > 0, "{level:?}: {report:?}");
            assert!(report.clean_wire(), "{level:?}: {report:?}");
            assert_eq!(report.leaked_snapshot_pins, 0, "{level:?}: {report:?}");
            assert_eq!(
                report.metrics.gc_oldest_snapshot, report.metrics.commit_clock,
                "{level:?}: GC bound stuck below the clock — a pin leaked: {report:?}"
            );
        }
    }
}
