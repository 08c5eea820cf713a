//! One storefront driver: every campaign the harness runs against the
//! corpus's cart/checkout endpoints is a configuration of [`run`].
//!
//! A run has the three parts Elle gives a test: a *generator* of calls (a
//! per-session script, or the zipfian mix of [`acidrain_apps::mix`]), a
//! *client* that issues them through retrying connections and counts what
//! came back (the [`Run`]), and *checkers* that read the run and the store
//! afterwards ([`invariants`], [`witnesses`], [`state_digest`],
//! [`leaks`]). Three parameters pick the configuration:
//!
//! * [`Transport`] — in-process connections, or sockets to a wire server
//!   the run starts on the store (the paper's remote adversary, §5);
//! * [`Pacing`] — a seeded serial shuffle of the session scripts (the
//!   chaos run: everything downstream of the seed is deterministic),
//!   one thread per session running its script (closed loop: the
//!   interleaving is the scheduler's), or arrivals at a fixed rate over a
//!   small thread pool (open loop: a slow server shows up as queueing in
//!   the latency, not as a lower offered load);
//! * faults — the engine's injector, seeded by the run seed, and clients
//!   that vanish inside a transaction every Nth call.
//!
//! The caller builds the store: `ShopApp::make_store` plus whichever
//! `Database` setters the campaign needs (`set_use_indexes`, `attach_wal`
//! with a crash point in the faults, `enable_metrics`). A WAL killed by an
//! injected crash point ends the run, as a `kill -9` would.

use std::fmt::Write;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use acidrain_apps::mix::{session_script, Mix, Request};
use acidrain_apps::prelude::*;
use acidrain_apps::AppError;
use acidrain_core::{Analyzer, RefinementConfig};
use acidrain_db::{Database, DbError, FaultConfig, FaultStats};
use acidrain_net::{RemoteConn, Server, ServerConfig};
use acidrain_obs::{Histogram, HistogramSnapshot};
use rand::prelude::*;

use crate::attack::Invariant;

/// How clients reach the store.
#[derive(Debug, Clone)]
pub enum Transport {
    /// Engine connections in this process.
    InProcess,
    /// A wire server the run starts on the store and stops at its end;
    /// each client is a socket that negotiates the store's isolation level
    /// with `HELLO`.
    Wire(ServerConfig),
}

/// How calls are scheduled onto the sessions.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// One thread issues every session's script in a seeded shuffle that
    /// keeps each session's order.
    Serial,
    /// One thread per session, each running its script back to back.
    Closed,
    /// Call `i` is due at `i / rate` seconds into the window, however long
    /// earlier calls took; calls are drawn from the mix and issued by a
    /// pool of up to [`OPEN_LOOP_THREADS`] threads, each cycling through
    /// its share of the sessions.
    Open {
        /// Arrivals per second.
        rate: f64,
        /// Length of the arrival window.
        duration: Duration,
    },
}

/// Threads the open loop drives its sessions from.
pub const OPEN_LOOP_THREADS: usize = 8;

/// One driver run's configuration. The default is the chaos run's: four
/// sessions of six requests, serially shuffled, in process, no faults.
#[derive(Debug, Clone)]
pub struct Config {
    /// Master seed: the shuffle, the fault injector, the retry jitter and
    /// the mix all derive from it.
    pub seed: u64,
    /// How clients reach the store.
    pub transport: Transport,
    /// How calls are scheduled.
    pub pacing: Pacing,
    /// Sessions, each with its own connection (and, under a script, its
    /// own cart: session `s` shops in cart `s + 1`).
    pub sessions: usize,
    /// Script length per session (the open loop's count is rate × window).
    pub requests_per_session: usize,
    /// Engine fault channels; their `seed` is replaced by the run seed.
    pub faults: FaultConfig,
    /// Before every Nth call a client thread issues, it opens a second
    /// connection, takes a row lock inside a transaction, and vanishes
    /// without `ROLLBACK` — the flaky client. The engine (or the wire
    /// server's abort-on-disconnect) must release what it held.
    pub drop_every: Option<usize>,
    /// Client retry policy; its `seed` is replaced by the run seed xor the
    /// session number.
    pub retry: RetryConfig,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 0,
            transport: Transport::InProcess,
            pacing: Pacing::Serial,
            sessions: 4,
            requests_per_session: 6,
            faults: FaultConfig::disabled(),
            drop_every: None,
            retry: RetryConfig::no_sleep(RetryPolicy::RetryTxn, 12),
        }
    }
}

/// What the client counted. Deterministic under serial pacing: two runs
/// of one config on equal stores compare equal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Requests that completed.
    pub committed: usize,
    /// Requests the application refused by business logic (sold out,
    /// voucher exhausted, feature absent): correct refusals.
    pub rejected: usize,
    /// Requests that failed with a database error after retries.
    pub failed: usize,
    /// Wire-protocol violations the client saw (zero on a healthy server).
    pub protocol_errors: usize,
    /// Flaky clients that vanished mid-transaction.
    pub dropped: usize,
    /// The engine injector's totals.
    pub fault_stats: FaultStats,
    /// Retry activity summed over the sessions.
    pub retry_stats: RetryStats,
    /// Whether an injected crash point killed the WAL (the requests after
    /// it never ran).
    pub crashed: bool,
}

impl Outcome {
    /// Count one request's result: the one outcome classifier.
    pub fn count(&mut self, result: &AppResult<()>) {
        match result {
            Ok(()) => self.committed += 1,
            Err(AppError::Rejected(_) | AppError::Unsupported(_)) => self.rejected += 1,
            Err(AppError::Db(DbError::Internal(msg))) if msg.starts_with("wire protocol") => {
                self.protocol_errors += 1
            }
            Err(AppError::Db(_)) => self.failed += 1,
        }
    }

    /// Requests issued.
    pub fn requests(&self) -> usize {
        self.committed + self.rejected + self.failed + self.protocol_errors
    }
}

/// One driver run: the deterministic counts, and the timing kept apart
/// from them.
#[derive(Debug, Clone)]
pub struct Run {
    /// What the client counted.
    pub outcome: Outcome,
    /// Per-request latency: from the call's due time under open pacing
    /// (queueing included), from its issue otherwise.
    pub latency: HistogramSnapshot,
}

/// Drive `apps` against `db` as `config` says. Under a script, session
/// `s` runs `apps[s % apps.len()]`; the mix draws from all of `apps`.
///
/// # Panics
///
/// With no session, when the wire server cannot start or a client cannot
/// connect to it, and when a client thread panics.
pub fn run(apps: &[&(dyn ShopApp + Sync)], db: &Arc<Database>, config: &Config) -> Run {
    assert!(config.sessions > 0, "a run needs a session");
    for app in apps {
        app.reset_session_state();
    }
    db.enable_faults(FaultConfig {
        seed: config.seed,
        ..config.faults.clone()
    });
    let (mut outcome, latency) = match &config.transport {
        Transport::InProcess => drive(apps, db, config, || db.connect()),
        Transport::Wire(server) => {
            let server = Server::start(Arc::clone(db), server.clone()).expect("start the server");
            let (addr, level) = (server.addr(), db.default_isolation());
            let counts = drive(apps, db, config, || {
                let mut conn = RemoteConn::connect(addr)
                    .expect("client connects")
                    .with_obs(db.obs().clone());
                conn.set_isolation(level)
                    .expect("HELLO at the store's level");
                conn
            });
            // Every socket is closed; stopping the server finalizes the
            // sessions they left before any checker looks.
            server.shutdown();
            counts
        }
    };
    outcome.fault_stats = db.fault_stats();
    outcome.crashed = db.wal_crashed();
    Run { outcome, latency }
}

/// One call a client thread issues: on which session, and, in the open
/// loop, when after the thread's start it is due.
struct Call {
    session: usize,
    app: usize,
    cart: i64,
    request: Request,
    due: Option<Duration>,
}

fn drive<C: SqlConn + Send>(
    apps: &[&(dyn ShopApp + Sync)],
    db: &Database,
    config: &Config,
    connect: impl Fn() -> C + Sync,
) -> (Outcome, HistogramSnapshot) {
    let n = config.sessions;
    let script = |s: usize| {
        let requests = session_script(s, config.requests_per_session);
        requests.map(move |request| Call {
            session: s,
            app: s % apps.len(),
            cart: s as i64 + 1,
            request,
            due: None,
        })
    };
    // The calls each client thread issues. A session is only ever used by
    // one thread, except in an open loop whose sessions do not divide
    // evenly among the threads.
    let plan: Vec<Vec<Call>> = match config.pacing {
        Pacing::Serial => {
            let mut scripts: Vec<_> = (0..n).map(script).collect();
            let mut order: Vec<usize> = (0..n)
                .flat_map(|s| std::iter::repeat_n(s, config.requests_per_session))
                .collect();
            order.shuffle(&mut StdRng::seed_from_u64(config.seed ^ 0x000C_4A05));
            let calls = order.into_iter().map(|s| scripts[s].next());
            vec![calls
                .map(|call| call.expect("script length matches order"))
                .collect()]
        }
        Pacing::Closed => (0..n).map(|s| script(s).collect()).collect(),
        Pacing::Open { rate, duration } => {
            let mut plan: Vec<_> = (0..n.min(OPEN_LOOP_THREADS)).map(|_| Vec::new()).collect();
            let threads = plan.len();
            let mut mix = Mix::new(config.seed);
            let dues = (0..).map(|i| Duration::from_secs_f64(i as f64 / rate));
            for (i, due) in dues.take_while(|&due| due < duration).enumerate() {
                let (app, cart, request) = mix.draw(apps.len());
                let due = Some(due);
                plan[i % threads].push(Call {
                    session: i % n,
                    app,
                    cart,
                    request,
                    due,
                });
            }
            plan
        }
    };

    // Connect every session up front, in session order: engine session ids
    // follow it.
    let sessions: Vec<_> = (0..n)
        .map(|s| {
            let retry = RetryConfig {
                seed: config.seed ^ s as u64,
                ..config.retry.clone()
            };
            Mutex::new(RetryConn::new(connect(), retry))
        })
        .collect();
    let invocations = [AtomicU64::new(0), AtomicU64::new(0)];
    let latency = Histogram::default();
    let outcome = Mutex::new(Outcome::default());
    let client = |calls: Vec<Call>| {
        let t0 = Instant::now();
        for (i, call) in calls.into_iter().enumerate() {
            let due = call.due.map_or_else(Instant::now, |offset| t0 + offset);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            // A dead WAL is the simulated kill -9: nothing runs after it.
            if db.wal_crashed() {
                break;
            }
            if config.drop_every.is_some_and(|k| k > 0 && (i + 1) % k == 0) {
                let mut flaky = connect();
                let _ = flaky.exec("BEGIN");
                let _ = flaky.exec(&format!(
                    "UPDATE products SET stock = stock WHERE id = {PEN}"
                ));
                outcome.lock().expect("no client panicked").dropped += 1;
            }
            let mut conn = sessions[call.session].lock().expect("no client panicked");
            let result = call
                .request
                .dispatch(apps[call.app], &mut *conn, call.cart, &invocations);
            outcome.lock().expect("no client panicked").count(&result);
            latency.record(due.elapsed());
        }
    };
    let client = &client;
    let bodies = plan.into_iter().map(|calls| move || client(calls));
    for (result, _) in released_together(bodies.collect()) {
        result.unwrap_or_else(|panic| resume_unwind(panic));
    }
    let mut outcome = outcome.into_inner().expect("no client panicked");
    for session in sessions {
        let conn = session.into_inner().expect("no client panicked");
        let (stats, retries) = (conn.stats(), &mut outcome.retry_stats);
        retries.statement_retries += stats.statement_retries;
        retries.txn_replays += stats.txn_replays;
        retries.gave_up += stats.gave_up;
        retries.total_backoff += stats.total_backoff;
    }
    (outcome, latency.snapshot())
}

/// Run `bodies` on scoped threads that a barrier releases at once. Each
/// returns its result (a panic caught) and its wall time.
pub(crate) fn released_together<T: Send>(
    bodies: Vec<impl FnOnce() -> T + Send>,
) -> Vec<(std::thread::Result<T>, Duration)> {
    let barrier = Barrier::new(bodies.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = bodies
            .into_iter()
            .map(|body| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let started = Instant::now();
                    let result = catch_unwind(AssertUnwindSafe(body));
                    (result, started.elapsed())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("the body's panic is caught"))
            .collect()
    })
}

/// Each invariant `app` supports (Table 3), checked over `db`'s committed
/// state.
pub fn invariants(db: &Arc<Database>, app: &dyn ShopApp) -> Vec<(Invariant, Option<Violation>)> {
    Invariant::ALL
        .into_iter()
        .filter(|inv| inv.feature(app) == FeatureStatus::Supported)
        .map(|inv| (inv, inv.check(db, app).err()))
        .collect()
}

/// 2AD witnesses in `db`'s query log at the store's level, by the targeted
/// analysis (the paper's §4.2.3 filtered mode): the cycle search is
/// restricted to the invariants' columns. The unfiltered search is
/// quadratic in a chaos trace's many distinct abort-shaped API patterns.
/// Lifting discards aborted work; a log that does not lift counts none.
pub fn witnesses(db: &Database, app: &dyn ShopApp) -> usize {
    let targets: Vec<_> = Invariant::ALL
        .into_iter()
        .flat_map(|inv| inv.targets())
        .collect();
    let config = RefinementConfig::at_isolation(db.default_isolation());
    Analyzer::from_log(&db.log_entries(), &app.schema())
        .map(|a| a.analyze_targeted(&config, &targets).finding_count())
        .unwrap_or(0)
}

/// FNV-1a digest of the committed contents of every table, in schema
/// order — the fingerprint the chaos baselines pin and the recovery suite
/// compares against a recovered engine. The hashed text is each table's
/// name followed by its rows, one line per row, each value followed by
/// `|`.
pub fn state_digest(db: &Database, app: &dyn ShopApp) -> u64 {
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

/// What a finished run left behind in the engine. Every session is gone
/// by then, so a healthy engine reads all zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Leaks {
    /// Transactions still open.
    pub transactions: usize,
    /// Resources still locked.
    pub locks: usize,
    /// Snapshot pins still registered: they block nothing, but wedge
    /// version GC at their timestamp for good.
    pub snapshot_pins: usize,
    /// Distance between the commit clock and the GC bound after a fresh
    /// `Database::gc`: a pin leak made visible in the metrics.
    pub gc_lag: u64,
}

/// Check `db` for leaks after a run. The GC bound and the commit clock
/// come from the metrics registry, so the store must record metrics.
pub fn leaks(db: &Database) -> Leaks {
    assert!(
        db.metrics_enabled(),
        "the GC bound is read from the metrics"
    );
    db.gc();
    let metrics = db.metrics_report();
    Leaks {
        transactions: db.active_transactions(),
        locks: db.locked_resources(),
        snapshot_pins: db.pinned_snapshots(),
        gc_lag: metrics.commit_clock.abs_diff(metrics.gc_oldest_snapshot),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counted(result: AppResult<()>) -> Outcome {
        let mut outcome = Outcome::default();
        outcome.count(&result);
        outcome
    }

    #[test]
    fn ok_counts_as_committed() {
        assert_eq!(counted(Ok(())).committed, 1);
    }

    #[test]
    fn rejected_counts_as_rejected() {
        let outcome = counted(Err(AppError::Rejected("sold out".into())));
        assert_eq!((outcome.rejected, outcome.requests()), (1, 1));
    }

    /// A feature the application ships without is a business refusal, not
    /// a database failure.
    #[test]
    fn unsupported_counts_as_rejected() {
        let outcome = counted(Err(AppError::Unsupported("vouchers")));
        assert_eq!((outcome.rejected, outcome.requests()), (1, 1));
    }

    #[test]
    fn wire_protocol_error_counts_as_protocol_error() {
        let outcome = counted(Err(AppError::Db(DbError::Internal(
            "wire protocol: bad frame".into(),
        ))));
        assert_eq!((outcome.protocol_errors, outcome.requests()), (1, 1));
    }

    #[test]
    fn other_db_error_counts_as_failed() {
        for e in [
            DbError::Internal("a WAL is already attached".into()),
            DbError::Deadlock,
        ] {
            let outcome = counted(Err(AppError::Db(e)));
            assert_eq!((outcome.failed, outcome.requests()), (1, 1));
        }
    }
}
