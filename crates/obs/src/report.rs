//! Aggregated metric read-out: [`MetricsReport`] and its JSON export.
//!
//! A report is a point-in-time merge of every registry shard — the
//! structure the harness prints alongside chaos/attack results. It is
//! plain owned data; producing one never perturbs the engine.

use crate::hist::HistogramSnapshot;
use crate::json::{field, Json};

/// Monotonic event counters, aggregated across shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Lock-table parks (a statement blocked on a conflicting holder).
    pub lock_waits: u64,
    /// Parks that ended by exhausting the lock-wait timeout.
    pub lock_timeouts: u64,
    /// Organic waits-for-cycle deadlocks detected.
    pub deadlocks: u64,
    /// Faults the injector fired (counted after the deterministic
    /// decision).
    pub injected_faults: u64,
    /// Single-statement re-issues by retry wrappers.
    pub statement_retries: u64,
    /// Whole-transaction replays by retry wrappers.
    pub txn_replays: u64,
    /// Retryable errors surfaced after the retry budget ran out.
    pub retries_gave_up: u64,
    /// Statements that completed successfully.
    pub statements_ok: u64,
    /// Statement-level failures (transaction survived).
    pub statements_failed: u64,
    /// Statements whose failure rolled the whole transaction back.
    pub statements_aborted: u64,
    /// Attempts that hit a lock conflict and were retried verbatim.
    pub blocked_attempts: u64,
    /// Query-log entries appended.
    pub log_appends: u64,
    /// Table scans routed through an index (candidate set came from an
    /// index probe instead of a full slot walk).
    pub index_hits: u64,
    /// Predicated table scans that fell back to the full slot walk (no
    /// usable `col = literal` conjunct, column not index-backed, or the
    /// index path disabled).
    pub index_fallbacks: u64,
    /// Commit records appended to the write-ahead log.
    pub wal_appends: u64,
    /// WAL fsyncs issued (group commit amortizes many appends per fsync).
    pub wal_fsyncs: u64,
    /// Bytes of framed commit records appended to the WAL.
    pub wal_bytes: u64,
    /// Version-GC passes completed.
    pub gc_runs: u64,
    /// Superseded row versions reclaimed by GC across all passes.
    pub gc_reclaimed: u64,
    /// Network sessions the wire server accepted and mapped onto
    /// connections.
    pub net_accepted: u64,
    /// Sockets refused by admission control (`ERR SERVER_BUSY`).
    pub net_rejected: u64,
    /// Sockets parked in the admission queue before being admitted.
    pub net_queued: u64,
    /// Server-side aborts triggered by a client vanishing mid-transaction
    /// (the disconnect path through normal rollback).
    pub net_disconnect_aborts: u64,
    /// Protocol frames (request lines) the server parsed.
    pub net_frames: u64,
    /// Malformed frames / protocol violations the server answered with
    /// `ERR PROTOCOL`.
    pub net_protocol_errors: u64,
    /// Times the wire server's acceptor entered a blocking `accept` with
    /// no session open and no socket queued (idle without polling).
    pub net_reactor_parks: u64,
    /// Candidate fix sets the repair adviser evaluated statically.
    pub repair_candidates: u64,
    /// Candidate fix sets that closed their finding without opening a
    /// new one.
    pub repair_closures: u64,
    /// Repaired witness plans the adviser replayed against the engine.
    pub repair_replays: u64,
}

/// Commit/abort counts for one isolation level.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelMetrics {
    /// Display name of the level.
    pub level: String,
    /// Transactions committed at this level.
    pub commits: u64,
    /// Transactions rolled back at this level.
    pub aborts: u64,
}

impl LevelMetrics {
    /// Fraction of transactions at this level that aborted.
    pub fn abort_rate(&self) -> f64 {
        let total = self.commits + self.aborts;
        if total == 0 {
            0.0
        } else {
            self.aborts as f64 / total as f64
        }
    }
}

/// Point-in-time aggregate of everything a registry recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// Whether the registry was enabled when the report was taken (a
    /// disabled registry yields an all-zero report).
    pub enabled: bool,
    /// Per-statement latency (completed attempts only).
    pub statements: HistogramSnapshot,
    /// Per-transaction latency, begin → commit/abort.
    pub transactions: HistogramSnapshot,
    /// Lock-table park durations.
    pub lock_waits: HistogramSnapshot,
    /// Storage-latch acquisition durations.
    pub latches: HistogramSnapshot,
    /// Harness task / request latency (the watchdog's measurement path).
    pub tasks: HistogramSnapshot,
    /// Retry backoff sleeps.
    pub backoff: HistogramSnapshot,
    /// Group-commit batch sizes: each sample is the number of commit
    /// records one WAL fsync made durable (raw counts, not durations —
    /// read the `*_ns` fields as plain numbers).
    pub group_commit: HistogramSnapshot,
    /// Admission-queue depth sampled at each enqueue (raw counts, not
    /// durations — read the `*_ns` fields as plain numbers).
    pub net_queue_depth: HistogramSnapshot,
    /// Event counters (lock waits, faults, retries, statement outcomes).
    pub counters: Counters,
    /// Per-isolation-level commit/abort rows.
    pub by_level: Vec<LevelMetrics>,
    /// Highest commit timestamp observed (the engine's commit clock).
    pub commit_clock: u64,
    /// Sessions parked on the lock table right now.
    pub lock_waiters: i64,
    /// High-water mark of simultaneous lock-table waiters.
    pub lock_waiters_peak: u64,
    /// Sessions acquiring a storage latch right now.
    pub latch_waiters: i64,
    /// High-water mark of simultaneous latch acquirers.
    pub latch_waiters_peak: u64,
    /// Oldest snapshot bound the most recent GC pass pruned against.
    pub gc_oldest_snapshot: u64,
    /// Longest version chain any GC pass observed (high-water).
    pub gc_chain_peak: u64,
    /// Network sessions currently open on the wire server.
    pub net_sessions: i64,
    /// High-water mark of simultaneous network sessions.
    pub net_sessions_peak: u64,
}

impl MetricsReport {
    /// Transactions finished (commits + aborts) across all levels.
    pub fn transactions_finished(&self) -> u64 {
        self.by_level.iter().map(|l| l.commits + l.aborts).sum()
    }

    /// Overall abort rate across all levels.
    pub fn abort_rate(&self) -> f64 {
        let total = self.transactions_finished();
        if total == 0 {
            0.0
        } else {
            let aborts: u64 = self.by_level.iter().map(|l| l.aborts).sum();
            aborts as f64 / total as f64
        }
    }

    /// Whether any contention signal (lock waits, timeouts, deadlocks) was
    /// recorded.
    pub fn saw_contention(&self) -> bool {
        self.counters.lock_waits > 0
            || self.counters.lock_timeouts > 0
            || self.counters.deadlocks > 0
            || self.counters.blocked_attempts > 0
    }

    /// Serialize the whole report as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        let c = &self.counters;
        let counters = [
            ("lock_waits", c.lock_waits),
            ("lock_timeouts", c.lock_timeouts),
            ("deadlocks", c.deadlocks),
            ("injected_faults", c.injected_faults),
            ("statement_retries", c.statement_retries),
            ("txn_replays", c.txn_replays),
            ("retries_gave_up", c.retries_gave_up),
            ("statements_ok", c.statements_ok),
            ("statements_failed", c.statements_failed),
            ("statements_aborted", c.statements_aborted),
            ("blocked_attempts", c.blocked_attempts),
            ("log_appends", c.log_appends),
            ("index_hits", c.index_hits),
            ("index_fallbacks", c.index_fallbacks),
            ("wal_appends", c.wal_appends),
            ("wal_fsyncs", c.wal_fsyncs),
            ("wal_bytes", c.wal_bytes),
            ("gc_runs", c.gc_runs),
            ("gc_reclaimed", c.gc_reclaimed),
            ("net_accepted", c.net_accepted),
            ("net_rejected", c.net_rejected),
            ("net_queued", c.net_queued),
            ("net_disconnect_aborts", c.net_disconnect_aborts),
            ("net_frames", c.net_frames),
            ("net_protocol_errors", c.net_protocol_errors),
            ("net_reactor_parks", c.net_reactor_parks),
            ("repair_candidates", c.repair_candidates),
            ("repair_closures", c.repair_closures),
            ("repair_replays", c.repair_replays),
        ];
        let by_level = self.by_level.iter().map(|l| {
            Json::Obj(vec![
                field("level", Json::str(&l.level)),
                field("commits", Json::Num(l.commits)),
                field("aborts", Json::Num(l.aborts)),
                field("abort_rate", Json::Fixed(l.abort_rate())),
            ])
        });
        let histograms = [
            ("statements", &self.statements),
            ("transactions", &self.transactions),
            ("lock_waits", &self.lock_waits),
            ("latches", &self.latches),
            ("tasks", &self.tasks),
            ("backoff", &self.backoff),
            ("group_commit", &self.group_commit),
            ("net_queue_depth", &self.net_queue_depth),
        ];
        let mut fields = vec![
            field("enabled", Json::Bool(self.enabled)),
            field("commit_clock", Json::Num(self.commit_clock)),
            field("lock_waiters", Json::Int(self.lock_waiters)),
            field("lock_waiters_peak", Json::Num(self.lock_waiters_peak)),
            field("latch_waiters", Json::Int(self.latch_waiters)),
            field("latch_waiters_peak", Json::Num(self.latch_waiters_peak)),
            field("gc_oldest_snapshot", Json::Num(self.gc_oldest_snapshot)),
            field("gc_chain_peak", Json::Num(self.gc_chain_peak)),
            field("net_sessions", Json::Int(self.net_sessions)),
            field("net_sessions_peak", Json::Num(self.net_sessions_peak)),
            field(
                "counters",
                Json::Obj(
                    counters
                        .iter()
                        .map(|(name, n)| field(name, Json::Num(*n)))
                        .collect(),
                ),
            ),
            field("by_level", Json::Arr(by_level.collect())),
        ];
        fields.extend(histograms.iter().map(|(name, h)| {
            field(
                name,
                Json::Obj(vec![
                    field("count", Json::Num(h.count())),
                    field("mean_ns", Json::Num(h.mean_nanos())),
                    field("p50_ns", Json::Num(h.percentile_nanos(0.50))),
                    field("p90_ns", Json::Num(h.percentile_nanos(0.90))),
                    field("p99_ns", Json::Num(h.percentile_nanos(0.99))),
                    field("max_ns", Json::Num(h.max_nanos)),
                ]),
            )
        }));
        Json::Obj(fields).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_rate_math() {
        let report = MetricsReport {
            by_level: vec![
                LevelMetrics {
                    level: "RC".into(),
                    commits: 9,
                    aborts: 1,
                },
                LevelMetrics {
                    level: "SER".into(),
                    commits: 0,
                    aborts: 10,
                },
            ],
            ..MetricsReport::default()
        };
        assert_eq!(report.transactions_finished(), 20);
        assert!((report.abort_rate() - 0.55).abs() < 1e-9);
        assert!((report.by_level[0].abort_rate() - 0.1).abs() < 1e-9);
        assert_eq!(report.by_level[1].abort_rate(), 1.0);
    }

    #[test]
    fn empty_report_rates_are_zero() {
        let report = MetricsReport::default();
        assert_eq!(report.abort_rate(), 0.0);
        assert!(!report.saw_contention());
    }

    #[test]
    fn json_shape() {
        let report = MetricsReport {
            enabled: true,
            by_level: vec![LevelMetrics {
                level: "READ COMMITTED".into(),
                commits: 3,
                aborts: 1,
            }],
            ..MetricsReport::default()
        };
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"enabled\": true"));
        assert!(json.contains("\"lock_waits\":"));
        assert!(json.contains("\"READ COMMITTED\""));
        assert!(json.contains("\"abort_rate\": 0.2500"));
        assert!(json.contains("\"p99_ns\":"));
        // Every opening brace closes (cheap balance check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
