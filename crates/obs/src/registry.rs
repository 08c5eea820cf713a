//! The metric registry and the cheap [`Obs`] probe handle.
//!
//! A [`Registry`] holds `SHARDS` independent banks of atomic counters and
//! histograms; sessions hash onto shards (the same discipline as the query
//! log), so concurrent sessions rarely touch the same cache lines.
//! [`Obs`] is a cloneable `Arc` wrapper — the handle every layer of the
//! engine threads through — whose probe methods all share one contract:
//!
//! **When the registry is disabled, a probe costs exactly one relaxed
//! atomic load** (the `enabled` flag check) and touches nothing else: no
//! clock reads, no locks, no allocation, no counter traffic. This mirrors
//! the fault injector's `FaultHandle` fast path and is what keeps seeded
//! chaos runs bit-for-bit identical with observability compiled in.
//!
//! Timing probes split into a *start* call that captures an
//! [`std::time::Instant`] only when enabled (returning a [`Timer`] /
//! [`WaitToken`] that remembers the decision) and a *finish* call that is
//! free when the token is empty — so a timed probe site still pays only
//! the single load, at start.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::hist::Histogram;
use crate::report::{Counters, LevelMetrics, MetricsReport};
use crate::trace::{SpanKind, TraceBuffer, TraceEvent};

/// Number of metric shards; sessions map onto shards by `session % SHARDS`.
pub const SHARDS: usize = 16;

/// Maximum number of distinct isolation levels the per-level counters
/// track (the engine currently defines 6).
pub const MAX_LEVELS: usize = 8;

/// How a statement attempt ended, from the probe's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// Executed; effects are part of the transaction.
    Ok,
    /// Statement-level failure; the transaction survived.
    Failed,
    /// The whole transaction was rolled back.
    Aborted,
    /// The attempt hit a lock conflict and will be retried; not counted
    /// in the statement latency histogram (the eventual completed attempt
    /// is).
    Blocked,
}

/// What a retry wrapper did on behalf of its caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryEvent {
    /// A single statement was re-issued.
    Statement,
    /// A whole recorded transaction was replayed after an abort.
    TxnReplay,
    /// The retry budget ran out (or the policy forbade retrying) and the
    /// error surfaced to the caller.
    GaveUp,
}

/// One shard's bank of counters and histograms. All fields are atomics;
/// recording never locks or allocates.
#[derive(Debug, Default)]
struct Shard {
    statements: Histogram,
    transactions: Histogram,
    lock_waits_hist: Histogram,
    latches: Histogram,
    tasks: Histogram,
    backoff: Histogram,
    /// Group-commit batch sizes: each recorded "nanos" value is the number
    /// of commit records one WAL fsync made durable.
    group_commit: Histogram,
    /// Admission-queue depths: each recorded "nanos" value is the number
    /// of sockets waiting when one more was enqueued.
    net_queue_depth: Histogram,

    lock_waits: AtomicU64,
    lock_timeouts: AtomicU64,
    deadlocks: AtomicU64,
    injected_faults: AtomicU64,
    statement_retries: AtomicU64,
    txn_replays: AtomicU64,
    retries_gave_up: AtomicU64,
    statements_ok: AtomicU64,
    statements_failed: AtomicU64,
    statements_aborted: AtomicU64,
    blocked_attempts: AtomicU64,
    log_appends: AtomicU64,
    index_hits: AtomicU64,
    index_fallbacks: AtomicU64,
    wal_appends: AtomicU64,
    wal_fsyncs: AtomicU64,
    wal_bytes: AtomicU64,
    gc_runs: AtomicU64,
    gc_reclaimed: AtomicU64,
    net_accepted: AtomicU64,
    net_rejected: AtomicU64,
    net_queued: AtomicU64,
    net_disconnect_aborts: AtomicU64,
    net_frames: AtomicU64,
    net_protocol_errors: AtomicU64,
    net_reactor_parks: AtomicU64,
    repair_candidates: AtomicU64,
    repair_closures: AtomicU64,
    repair_replays: AtomicU64,

    commits_by_level: [AtomicU64; MAX_LEVELS],
    aborts_by_level: [AtomicU64; MAX_LEVELS],
}

/// The shared metric state behind an [`Obs`] handle.
#[derive(Debug)]
pub struct Registry {
    enabled: AtomicBool,
    tracing: AtomicBool,
    shards: Vec<Shard>,
    /// Highest commit timestamp any probe has observed (gauge).
    commit_clock: AtomicU64,
    /// Sessions currently parked on the lock table (gauge + high-water).
    lock_waiters: AtomicI64,
    lock_waiters_peak: AtomicU64,
    /// Sessions currently acquiring a storage latch (gauge + high-water).
    latch_waiters: AtomicI64,
    latch_waiters_peak: AtomicU64,
    /// Oldest snapshot bound the last GC run pruned against (gauge).
    gc_oldest_snapshot: AtomicU64,
    /// Longest version chain any GC run has observed (high-water).
    gc_chain_peak: AtomicU64,
    /// Network sessions currently open on the wire server (gauge +
    /// high-water).
    net_sessions: AtomicI64,
    net_sessions_peak: AtomicU64,
    /// Display names for the per-level counter rows, set by the engine.
    level_names: Mutex<Vec<String>>,
    traces: TraceBuffer,
    /// Common clock for trace timestamps.
    epoch: Instant,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            enabled: AtomicBool::new(false),
            tracing: AtomicBool::new(false),
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
            commit_clock: AtomicU64::new(0),
            lock_waiters: AtomicI64::new(0),
            lock_waiters_peak: AtomicU64::new(0),
            latch_waiters: AtomicI64::new(0),
            latch_waiters_peak: AtomicU64::new(0),
            gc_oldest_snapshot: AtomicU64::new(0),
            gc_chain_peak: AtomicU64::new(0),
            net_sessions: AtomicI64::new(0),
            net_sessions_peak: AtomicU64::new(0),
            level_names: Mutex::new(Vec::new()),
            traces: TraceBuffer::default(),
            epoch: Instant::now(),
        }
    }
}

/// A started (or deliberately skipped) measurement. Produced by
/// [`Obs::timer`]; `None` inside means the registry was disabled at start
/// and the matching finish probe is free.
#[derive(Debug, Clone, Copy)]
pub struct Timer(Option<Instant>);

impl Timer {
    /// A timer that records nothing when finished.
    pub fn disarmed() -> Self {
        Timer(None)
    }

    /// Whether the timer is live (the registry was enabled at start).
    pub fn is_armed(&self) -> bool {
        self.0.is_some()
    }

    /// Elapsed time, if armed.
    pub fn elapsed(&self) -> Option<Duration> {
        self.0.map(|start| start.elapsed())
    }
}

/// Token for an in-flight gauge-tracked wait (lock-table park or storage
/// latch acquisition). Returned armed only when the registry was enabled
/// at the start probe.
#[derive(Debug)]
pub struct WaitToken(Option<Instant>);

/// An always-running stopwatch — the one timing primitive harness and
/// bench code share, so "elapsed" means the same thing in watchdog
/// classification and in reported histograms. Unlike [`Timer`], it is
/// unconditional: use it where the duration feeds program logic (e.g.
/// timeout classification) and hand the result to
/// [`Obs::task_finished`] for recording.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start the stopwatch now.
    #[allow(clippy::new_without_default)]
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}

/// The cheap, cloneable observability handle threaded through the engine.
///
/// All probes are no-ops costing one relaxed atomic load while the
/// registry is disabled (the construction default); see the module docs
/// for the exact contract. Enable with [`Obs::enable`], read back with
/// [`Obs::report`], and optionally collect spans with
/// [`Obs::set_tracing`] / [`Obs::take_trace`].
#[derive(Debug, Clone, Default)]
pub struct Obs {
    registry: Arc<Registry>,
}

impl Obs {
    /// A fresh, disabled registry.
    pub fn new() -> Self {
        Obs::default()
    }

    /// A fresh registry with per-level counter rows labelled `names`
    /// (index-aligned with the engine's dense isolation-level codes).
    pub fn with_level_names(names: Vec<String>) -> Self {
        let obs = Obs::default();
        *obs.registry
            .level_names
            .lock()
            .expect("level names poisoned") = names;
        obs
    }

    /// Turn metric recording on.
    pub fn enable(&self) {
        self.registry.enabled.store(true, Ordering::Release);
    }

    /// Turn metric recording off. Already-recorded values are retained.
    pub fn disable(&self) {
        self.registry.enabled.store(false, Ordering::Release);
    }

    /// Whether probes currently record (one relaxed load).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.registry.enabled.load(Ordering::Relaxed)
    }

    /// Turn span tracing on or off. Tracing only takes effect while the
    /// registry itself is enabled, and (unlike metrics) allocates per
    /// span.
    pub fn set_tracing(&self, on: bool) {
        self.registry.tracing.store(on, Ordering::Release);
    }

    #[inline]
    fn shard(&self, session: u64) -> &Shard {
        &self.registry.shards[session as usize % SHARDS]
    }

    #[inline]
    fn trace_armed(&self) -> bool {
        self.registry.tracing.load(Ordering::Relaxed)
    }

    fn push_trace(
        &self,
        session: u64,
        txn: u64,
        kind: SpanKind,
        name: &str,
        start: Instant,
        dur: Duration,
    ) {
        let start_nanos = start
            .saturating_duration_since(self.registry.epoch)
            .as_nanos() as u64;
        self.registry.traces.push(TraceEvent {
            session,
            txn,
            kind,
            name: name.to_string(),
            start_nanos,
            duration_nanos: dur.as_nanos() as u64,
        });
    }

    // -- timing probes ----------------------------------------------------

    /// Start a measurement: one relaxed load; reads the clock only when
    /// enabled.
    #[inline]
    pub fn timer(&self) -> Timer {
        if self.registry.enabled.load(Ordering::Relaxed) {
            Timer(Some(Instant::now()))
        } else {
            Timer(None)
        }
    }

    /// Record a finished statement attempt. `level` is the engine's dense
    /// isolation-level code; `txn` and `sql` feed the trace span (pass
    /// `0` / `""` when unknown). Costs nothing when `timer` is disarmed.
    pub fn statement_finished(
        &self,
        session: u64,
        level: u8,
        outcome: ProbeOutcome,
        timer: Timer,
        txn: u64,
        sql: &str,
    ) {
        let Some(start) = timer.0 else { return };
        let dur = start.elapsed();
        let shard = self.shard(session);
        match outcome {
            ProbeOutcome::Ok => shard.statements_ok.fetch_add(1, Ordering::Relaxed),
            ProbeOutcome::Failed => shard.statements_failed.fetch_add(1, Ordering::Relaxed),
            ProbeOutcome::Aborted => shard.statements_aborted.fetch_add(1, Ordering::Relaxed),
            ProbeOutcome::Blocked => {
                // Blocked attempts are retried verbatim; count them but
                // keep the latency histogram to completed attempts.
                shard.blocked_attempts.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let _ = level; // levels are tracked at transaction granularity
        shard.statements.record(dur);
        if self.trace_armed() {
            self.push_trace(session, txn, SpanKind::Statement, sql, start, dur);
        }
    }

    /// Record a finished transaction: latency histogram, per-level
    /// commit/abort counters, and (when tracing) the whole-transaction
    /// span named after the isolation level.
    pub fn txn_finished(
        &self,
        session: u64,
        txn: u64,
        level: u8,
        committed: bool,
        timer: Timer,
        level_name: &str,
    ) {
        let Some(start) = timer.0 else { return };
        let dur = start.elapsed();
        let shard = self.shard(session);
        shard.transactions.record(dur);
        let idx = (level as usize).min(MAX_LEVELS - 1);
        if committed {
            shard.commits_by_level[idx].fetch_add(1, Ordering::Relaxed);
        } else {
            shard.aborts_by_level[idx].fetch_add(1, Ordering::Relaxed);
        }
        if self.trace_armed() {
            self.push_trace(
                session,
                txn,
                SpanKind::Txn { committed },
                level_name,
                start,
                dur,
            );
        }
    }

    /// Start of a lock-table park: one relaxed load; bumps the lock-waiter
    /// gauge when enabled.
    #[inline]
    pub fn lock_wait_start(&self) -> WaitToken {
        if !self.registry.enabled.load(Ordering::Relaxed) {
            return WaitToken(None);
        }
        let now = self.registry.lock_waiters.fetch_add(1, Ordering::Relaxed) + 1;
        self.registry
            .lock_waiters_peak
            .fetch_max(now.max(0) as u64, Ordering::Relaxed);
        WaitToken(Some(Instant::now()))
    }

    /// End of a lock-table park. Free when the token is disarmed.
    pub fn lock_wait_finished(&self, token: WaitToken, session: u64, txn: u64, timed_out: bool) {
        let Some(start) = token.0 else { return };
        let dur = start.elapsed();
        self.registry.lock_waiters.fetch_sub(1, Ordering::Relaxed);
        let shard = self.shard(session);
        shard.lock_waits.fetch_add(1, Ordering::Relaxed);
        if timed_out {
            shard.lock_timeouts.fetch_add(1, Ordering::Relaxed);
        }
        shard.lock_waits_hist.record(dur);
        if self.trace_armed() {
            self.push_trace(
                session,
                txn,
                SpanKind::LockWait { timed_out },
                "lock table",
                start,
                dur,
            );
        }
    }

    /// Start of a storage-latch acquisition: one relaxed load; bumps the
    /// latch-waiter gauge when enabled.
    #[inline]
    pub fn latch_wait_start(&self) -> WaitToken {
        if !self.registry.enabled.load(Ordering::Relaxed) {
            return WaitToken(None);
        }
        let now = self.registry.latch_waiters.fetch_add(1, Ordering::Relaxed) + 1;
        self.registry
            .latch_waiters_peak
            .fetch_max(now.max(0) as u64, Ordering::Relaxed);
        WaitToken(Some(Instant::now()))
    }

    /// Storage latches granted. Free when the token is disarmed.
    pub fn latch_acquired(&self, token: WaitToken, session: u64) {
        let Some(start) = token.0 else { return };
        self.registry.latch_waiters.fetch_sub(1, Ordering::Relaxed);
        self.shard(session).latches.record(start.elapsed());
    }

    // -- counter probes ---------------------------------------------------

    /// An organic (waits-for cycle) deadlock was detected.
    #[inline]
    pub fn deadlock(&self, session: u64) {
        if !self.registry.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.shard(session)
            .deadlocks
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The fault injector fired. Called *after* the deterministic decision
    /// is made — probes never participate in it.
    #[inline]
    pub fn injected_fault(&self, session: u64) {
        if !self.registry.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.shard(session)
            .injected_faults
            .fetch_add(1, Ordering::Relaxed);
    }

    /// A retry wrapper acted; see [`RetryEvent`].
    #[inline]
    pub fn retry(&self, session: u64, event: RetryEvent) {
        if !self.registry.enabled.load(Ordering::Relaxed) {
            return;
        }
        let shard = self.shard(session);
        match event {
            RetryEvent::Statement => shard.statement_retries.fetch_add(1, Ordering::Relaxed),
            RetryEvent::TxnReplay => shard.txn_replays.fetch_add(1, Ordering::Relaxed),
            RetryEvent::GaveUp => shard.retries_gave_up.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// A retry wrapper backed off for `dur`.
    #[inline]
    pub fn backoff(&self, session: u64, dur: Duration) {
        if !self.registry.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.shard(session).backoff.record(dur);
    }

    /// A predicated table scan picked its candidate set: `hit` when an
    /// index probe supplied it, `false` when the scan fell back to the
    /// full slot walk. Fired *after* the executor has committed to the
    /// candidate set, so the probe never influences the route taken.
    #[inline]
    pub fn index_probe(&self, session: u64, hit: bool) {
        if !self.registry.enabled.load(Ordering::Relaxed) {
            return;
        }
        let shard = self.shard(session);
        if hit {
            shard.index_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            shard.index_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A query-log entry landed.
    #[inline]
    pub fn log_append(&self, session: u64) {
        if !self.registry.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.shard(session)
            .log_appends
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Publish the commit clock's current value (monotonic gauge).
    #[inline]
    pub fn commit_clock(&self, ts: u64) {
        if !self.registry.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.registry.commit_clock.fetch_max(ts, Ordering::Relaxed);
    }

    /// A commit record was appended to the WAL buffer (`bytes` = framed
    /// record size). Fired after the append is decided, inside the commit
    /// critical section — the probe never influences WAL contents.
    #[inline]
    pub fn wal_append(&self, session: u64, bytes: u64) {
        if !self.registry.enabled.load(Ordering::Relaxed) {
            return;
        }
        let shard = self.shard(session);
        shard.wal_appends.fetch_add(1, Ordering::Relaxed);
        shard.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// A WAL fsync completed, making `batch` commit records durable at
    /// once. `batch` feeds the group-commit batch-size histogram (recorded
    /// as a raw count, not a duration); per-commit-fsync mode records a
    /// constant 1.
    #[inline]
    pub fn wal_fsync(&self, session: u64, batch: u64) {
        if !self.registry.enabled.load(Ordering::Relaxed) {
            return;
        }
        let shard = self.shard(session);
        shard.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
        shard.group_commit.record_nanos(batch);
    }

    /// A version-GC pass finished: it pruned against snapshot bound
    /// `oldest`, reclaimed `reclaimed` superseded versions, and the
    /// longest surviving chain holds `max_chain` versions. Fired after
    /// the prune completes — the probe never influences what is
    /// reclaimed. GC is engine-wide, so the counters land on shard 0.
    #[inline]
    pub fn gc_run(&self, reclaimed: u64, oldest: u64, max_chain: u64) {
        if !self.registry.enabled.load(Ordering::Relaxed) {
            return;
        }
        let shard = self.shard(0);
        shard.gc_runs.fetch_add(1, Ordering::Relaxed);
        shard.gc_reclaimed.fetch_add(reclaimed, Ordering::Relaxed);
        self.registry
            .gc_oldest_snapshot
            .fetch_max(oldest, Ordering::Relaxed);
        self.registry
            .gc_chain_peak
            .fetch_max(max_chain, Ordering::Relaxed);
    }

    /// A harness task / request finished after `dur` — the shared
    /// measurement path for watchdog classification and bench reporting.
    #[inline]
    pub fn task_finished(&self, session: u64, dur: Duration) {
        if !self.registry.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.shard(session).tasks.record(dur);
    }

    // -- network probes ---------------------------------------------------

    /// The wire server admitted a socket and bound it to `session`. Bumps
    /// the accepted counter and the open-session gauge (with high-water).
    /// Fired after the session is fully admitted — never part of the
    /// admission decision.
    #[inline]
    pub fn net_session_opened(&self, session: u64) {
        if !self.registry.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.shard(session)
            .net_accepted
            .fetch_add(1, Ordering::Relaxed);
        let now = self.registry.net_sessions.fetch_add(1, Ordering::Relaxed) + 1;
        self.registry
            .net_sessions_peak
            .fetch_max(now.max(0) as u64, Ordering::Relaxed);
    }

    /// A network session ended. `disconnect_abort` marks the case where
    /// the client vanished with a transaction open and the server aborted
    /// it through the normal rollback path.
    #[inline]
    pub fn net_session_closed(&self, session: u64, disconnect_abort: bool) {
        if !self.registry.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.registry.net_sessions.fetch_sub(1, Ordering::Relaxed);
        if disconnect_abort {
            self.shard(session)
                .net_disconnect_aborts
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Admission control refused a socket (at the `max_sessions` ceiling
    /// with the queue full or queueing disabled).
    #[inline]
    pub fn net_rejected(&self) {
        if !self.registry.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.shard(0).net_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A socket was parked in the admission queue; `depth` is the queue
    /// length including it. Feeds the queue-depth histogram (raw counts).
    #[inline]
    pub fn net_queued(&self, depth: u64) {
        if !self.registry.enabled.load(Ordering::Relaxed) {
            return;
        }
        let shard = self.shard(0);
        shard.net_queued.fetch_add(1, Ordering::Relaxed);
        shard.net_queue_depth.record_nanos(depth);
    }

    /// The server parsed one protocol frame (request line) from `session`.
    #[inline]
    pub fn net_frame(&self, session: u64) {
        if !self.registry.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.shard(session)
            .net_frames
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The wire server's acceptor is about to block in `accept` with no
    /// session open and no socket queued: an idle server, waiting for its
    /// next arrival without polling. Fired once per such entry; the
    /// acceptor is engine-wide, so the counter lands on shard 0. (The name
    /// is from the reactor the acceptor replaced; the benchmark reads it.)
    #[inline]
    pub fn net_reactor_parked(&self) {
        if !self.registry.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.shard(0)
            .net_reactor_parks
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The server answered a malformed frame with `ERR PROTOCOL`.
    #[inline]
    pub fn net_protocol_error(&self, session: u64) {
        if !self.registry.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.shard(session)
            .net_protocol_errors
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The repair adviser evaluated `n` candidate fix sets against the
    /// static audit. Adviser runs are engine-wide, so the counters land
    /// on shard 0.
    #[inline]
    pub fn repair_candidates(&self, n: u64) {
        if !self.registry.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.shard(0)
            .repair_candidates
            .fetch_add(n, Ordering::Relaxed);
    }

    /// The repair adviser found `n` statically-closing fix sets.
    #[inline]
    pub fn repair_closures(&self, n: u64) {
        if !self.registry.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.shard(0)
            .repair_closures
            .fetch_add(n, Ordering::Relaxed);
    }

    /// The repair adviser replayed one repaired witness plan.
    #[inline]
    pub fn repair_replay(&self) {
        if !self.registry.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.shard(0).repair_replays.fetch_add(1, Ordering::Relaxed);
    }

    // -- readout ----------------------------------------------------------

    /// Aggregate every shard into an owned [`MetricsReport`].
    pub fn report(&self) -> MetricsReport {
        let r = &self.registry;
        let mut report = MetricsReport {
            enabled: self.is_enabled(),
            commit_clock: r.commit_clock.load(Ordering::Relaxed),
            lock_waiters: r.lock_waiters.load(Ordering::Relaxed),
            lock_waiters_peak: r.lock_waiters_peak.load(Ordering::Relaxed),
            latch_waiters: r.latch_waiters.load(Ordering::Relaxed),
            latch_waiters_peak: r.latch_waiters_peak.load(Ordering::Relaxed),
            gc_oldest_snapshot: r.gc_oldest_snapshot.load(Ordering::Relaxed),
            gc_chain_peak: r.gc_chain_peak.load(Ordering::Relaxed),
            net_sessions: r.net_sessions.load(Ordering::Relaxed),
            net_sessions_peak: r.net_sessions_peak.load(Ordering::Relaxed),
            ..MetricsReport::default()
        };
        let mut commits = [0u64; MAX_LEVELS];
        let mut aborts = [0u64; MAX_LEVELS];
        for shard in &r.shards {
            report.statements.merge(&shard.statements.snapshot());
            report.transactions.merge(&shard.transactions.snapshot());
            report.lock_waits.merge(&shard.lock_waits_hist.snapshot());
            report.latches.merge(&shard.latches.snapshot());
            report.tasks.merge(&shard.tasks.snapshot());
            report.backoff.merge(&shard.backoff.snapshot());
            report.group_commit.merge(&shard.group_commit.snapshot());
            report
                .net_queue_depth
                .merge(&shard.net_queue_depth.snapshot());
            let c = &mut report.counters;
            c.lock_waits += shard.lock_waits.load(Ordering::Relaxed);
            c.lock_timeouts += shard.lock_timeouts.load(Ordering::Relaxed);
            c.deadlocks += shard.deadlocks.load(Ordering::Relaxed);
            c.injected_faults += shard.injected_faults.load(Ordering::Relaxed);
            c.statement_retries += shard.statement_retries.load(Ordering::Relaxed);
            c.txn_replays += shard.txn_replays.load(Ordering::Relaxed);
            c.retries_gave_up += shard.retries_gave_up.load(Ordering::Relaxed);
            c.statements_ok += shard.statements_ok.load(Ordering::Relaxed);
            c.statements_failed += shard.statements_failed.load(Ordering::Relaxed);
            c.statements_aborted += shard.statements_aborted.load(Ordering::Relaxed);
            c.blocked_attempts += shard.blocked_attempts.load(Ordering::Relaxed);
            c.log_appends += shard.log_appends.load(Ordering::Relaxed);
            c.index_hits += shard.index_hits.load(Ordering::Relaxed);
            c.index_fallbacks += shard.index_fallbacks.load(Ordering::Relaxed);
            c.wal_appends += shard.wal_appends.load(Ordering::Relaxed);
            c.wal_fsyncs += shard.wal_fsyncs.load(Ordering::Relaxed);
            c.wal_bytes += shard.wal_bytes.load(Ordering::Relaxed);
            c.gc_runs += shard.gc_runs.load(Ordering::Relaxed);
            c.gc_reclaimed += shard.gc_reclaimed.load(Ordering::Relaxed);
            c.net_accepted += shard.net_accepted.load(Ordering::Relaxed);
            c.net_rejected += shard.net_rejected.load(Ordering::Relaxed);
            c.net_queued += shard.net_queued.load(Ordering::Relaxed);
            c.net_disconnect_aborts += shard.net_disconnect_aborts.load(Ordering::Relaxed);
            c.net_frames += shard.net_frames.load(Ordering::Relaxed);
            c.net_protocol_errors += shard.net_protocol_errors.load(Ordering::Relaxed);
            c.net_reactor_parks += shard.net_reactor_parks.load(Ordering::Relaxed);
            c.repair_candidates += shard.repair_candidates.load(Ordering::Relaxed);
            c.repair_closures += shard.repair_closures.load(Ordering::Relaxed);
            c.repair_replays += shard.repair_replays.load(Ordering::Relaxed);
            for i in 0..MAX_LEVELS {
                commits[i] += shard.commits_by_level[i].load(Ordering::Relaxed);
                aborts[i] += shard.aborts_by_level[i].load(Ordering::Relaxed);
            }
        }
        let names = r.level_names.lock().expect("level names poisoned");
        for i in 0..MAX_LEVELS {
            if commits[i] == 0 && aborts[i] == 0 && i >= names.len() {
                continue;
            }
            report.by_level.push(LevelMetrics {
                level: names
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| format!("level_{i}")),
                commits: commits[i],
                aborts: aborts[i],
            });
        }
        report
    }

    /// Drain collected trace events (sorted by start time).
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        self.registry.traces.take()
    }

    /// Number of collected (undrained) trace events.
    pub fn trace_len(&self) -> usize {
        self.registry.traces.len()
    }

    /// Expose the raw counters snapshot (shortcut for
    /// [`MetricsReport::counters`]).
    pub fn counters(&self) -> Counters {
        self.report().counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let obs = Obs::new();
        let t = obs.timer();
        assert!(!t.is_armed());
        obs.statement_finished(1, 0, ProbeOutcome::Ok, t, 1, "SELECT 1");
        obs.txn_finished(1, 1, 0, true, obs.timer(), "RC");
        let tok = obs.lock_wait_start();
        obs.lock_wait_finished(tok, 1, 1, false);
        let tok = obs.latch_wait_start();
        obs.latch_acquired(tok, 1);
        obs.deadlock(1);
        obs.injected_fault(1);
        obs.retry(1, RetryEvent::TxnReplay);
        obs.backoff(1, Duration::from_millis(1));
        obs.log_append(1);
        obs.index_probe(1, true);
        obs.index_probe(1, false);
        obs.commit_clock(42);
        obs.task_finished(1, Duration::from_millis(1));
        obs.wal_append(1, 64);
        obs.wal_fsync(1, 3);
        obs.gc_run(5, 42, 3);
        obs.net_session_opened(1);
        obs.net_session_closed(1, true);
        obs.net_rejected();
        obs.net_queued(4);
        obs.net_frame(1);
        obs.net_protocol_error(1);
        obs.net_reactor_parked();
        obs.repair_candidates(7);
        obs.repair_closures(3);
        obs.repair_replay();
        let report = obs.report();
        assert!(!report.enabled);
        assert_eq!(report.net_sessions, 0);
        assert_eq!(report.net_sessions_peak, 0);
        assert_eq!(report.net_queue_depth.count(), 0);
        assert_eq!(report.gc_oldest_snapshot, 0);
        assert_eq!(report.gc_chain_peak, 0);
        assert_eq!(report.statements.count(), 0);
        assert_eq!(report.transactions.count(), 0);
        assert_eq!(report.counters, Counters::default());
        assert_eq!(report.commit_clock, 0);
        assert_eq!(obs.trace_len(), 0);
    }

    #[test]
    fn enabled_registry_counts_across_shards() {
        let obs = Obs::with_level_names(vec!["RC".into(), "SER".into()]);
        obs.enable();
        for session in 0..40u64 {
            obs.statement_finished(session, 0, ProbeOutcome::Ok, obs.timer(), 1, "SELECT 1");
            obs.deadlock(session);
            obs.txn_finished(
                session,
                session,
                (session % 2) as u8,
                session % 3 != 0,
                obs.timer(),
                "x",
            );
        }
        let report = obs.report();
        assert!(report.enabled);
        assert_eq!(report.statements.count(), 40);
        assert_eq!(report.counters.deadlocks, 40);
        assert_eq!(report.transactions.count(), 40);
        let total: u64 = report.by_level.iter().map(|l| l.commits + l.aborts).sum();
        assert_eq!(total, 40);
        assert_eq!(report.by_level[0].level, "RC");
        assert_eq!(report.by_level[1].level, "SER");
    }

    #[test]
    fn lock_wait_gauge_tracks_peak() {
        let obs = Obs::new();
        obs.enable();
        let a = obs.lock_wait_start();
        let b = obs.lock_wait_start();
        let mid = obs.report();
        assert_eq!(mid.lock_waiters, 2);
        obs.lock_wait_finished(a, 1, 1, false);
        obs.lock_wait_finished(b, 2, 2, true);
        let done = obs.report();
        assert_eq!(done.lock_waiters, 0);
        assert_eq!(done.lock_waiters_peak, 2);
        assert_eq!(done.counters.lock_waits, 2);
        assert_eq!(done.counters.lock_timeouts, 1);
        assert_eq!(done.lock_waits.count(), 2);
    }

    #[test]
    fn tracing_collects_spans_only_when_enabled() {
        let obs = Obs::new();
        obs.enable();
        obs.statement_finished(1, 0, ProbeOutcome::Ok, obs.timer(), 3, "SELECT 1");
        assert_eq!(obs.trace_len(), 0, "tracing off: no spans");
        obs.set_tracing(true);
        obs.statement_finished(1, 0, ProbeOutcome::Ok, obs.timer(), 3, "SELECT 2");
        obs.txn_finished(1, 3, 1, true, obs.timer(), "READ COMMITTED");
        let events = obs.take_trace();
        assert_eq!(events.len(), 2);
        assert!(events.iter().any(|e| e.name == "SELECT 2"));
        assert!(events
            .iter()
            .any(|e| e.kind == SpanKind::Txn { committed: true }));
    }

    #[test]
    fn blocked_attempts_stay_out_of_latency_histogram() {
        let obs = Obs::new();
        obs.enable();
        obs.statement_finished(1, 0, ProbeOutcome::Blocked, obs.timer(), 1, "UPDATE t");
        obs.statement_finished(1, 0, ProbeOutcome::Ok, obs.timer(), 1, "UPDATE t");
        let report = obs.report();
        assert_eq!(report.counters.blocked_attempts, 1);
        assert_eq!(report.statements.count(), 1);
    }

    #[test]
    fn wal_probes_track_group_commit_batches() {
        let obs = Obs::new();
        obs.enable();
        obs.wal_append(1, 64);
        obs.wal_append(2, 80);
        obs.wal_fsync(2, 2);
        let report = obs.report();
        assert_eq!(report.counters.wal_appends, 2);
        assert_eq!(report.counters.wal_bytes, 144);
        assert_eq!(report.counters.wal_fsyncs, 1);
        assert_eq!(report.group_commit.count(), 1);
        assert_eq!(report.group_commit.max_nanos, 2, "batch of 2 commits");
    }

    #[test]
    fn gc_probe_accumulates_and_tracks_peaks() {
        let obs = Obs::new();
        obs.enable();
        obs.gc_run(5, 10, 4);
        obs.gc_run(2, 17, 2);
        let report = obs.report();
        assert_eq!(report.counters.gc_runs, 2);
        assert_eq!(report.counters.gc_reclaimed, 7);
        assert_eq!(report.gc_oldest_snapshot, 17, "gauge follows the bound");
        assert_eq!(report.gc_chain_peak, 4, "high-water, not last value");
    }

    #[test]
    fn net_probes_track_sessions_and_queue() {
        let obs = Obs::new();
        obs.enable();
        obs.net_session_opened(1);
        obs.net_session_opened(2);
        obs.net_frame(1);
        obs.net_frame(1);
        obs.net_protocol_error(2);
        obs.net_queued(3);
        obs.net_rejected();
        obs.net_reactor_parked();
        obs.net_reactor_parked();
        let mid = obs.report();
        assert_eq!(mid.net_sessions, 2);
        obs.net_session_closed(1, false);
        obs.net_session_closed(2, true);
        let report = obs.report();
        assert_eq!(report.net_sessions, 0);
        assert_eq!(report.net_sessions_peak, 2);
        assert_eq!(report.counters.net_accepted, 2);
        assert_eq!(report.counters.net_frames, 2);
        assert_eq!(report.counters.net_protocol_errors, 1);
        assert_eq!(report.counters.net_queued, 1);
        assert_eq!(report.counters.net_rejected, 1);
        assert_eq!(report.counters.net_disconnect_aborts, 1);
        assert_eq!(report.counters.net_reactor_parks, 2);
        assert_eq!(report.net_queue_depth.count(), 1);
        assert_eq!(report.net_queue_depth.max_nanos, 3, "depth of 3 waiting");
        let json = report.to_json();
        assert!(json.contains("\"net_sessions_peak\": 2"));
        assert!(json.contains("\"net_queue_depth\":"));
        assert!(json.contains("\"net_disconnect_aborts\": 1"));
        assert!(json.contains("\"net_reactor_parks\": 2"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn disable_retains_recorded_values() {
        let obs = Obs::new();
        obs.enable();
        obs.deadlock(1);
        obs.disable();
        obs.deadlock(1); // ignored
        assert_eq!(obs.report().counters.deadlocks, 1);
    }
}
