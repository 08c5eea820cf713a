//! Span-style transaction traces.
//!
//! When tracing is enabled (see [`crate::Obs::set_tracing`]) the engine's
//! probe sites append [`TraceEvent`]s describing each transaction's life:
//! a `Txn` span from `BEGIN` to commit/abort, `Statement` spans for each
//! statement attempt, and `LockWait` spans for every park on the lock
//! table. Events are collected in per-session-hash shards (the same
//! sharding discipline as the query log) so concurrent sessions rarely
//! contend on the same buffer.
//!
//! Traces export two ways:
//!
//! * [`trace_json`] — a plain JSON array of the raw events;
//! * [`trace_chrome_json`] — the Chrome Trace Event format consumed by
//!   `chrome://tracing` / [Perfetto](https://ui.perfetto.dev), with one
//!   track (`tid`) per database session.
//!
//! Tracing allocates (span names carry the SQL text), so it is off by
//! default and independent of the metrics flag; the zero-allocation
//! guarantee of the metrics path only applies while tracing stays off.

use std::sync::Mutex;

use crate::json::{field, Json};

/// What a [`TraceEvent`] describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanKind {
    /// A whole transaction, `BEGIN` → `COMMIT`/`ROLLBACK`.
    Txn {
        /// `true` for commit, `false` for abort/rollback.
        committed: bool,
    },
    /// One statement attempt.
    Statement,
    /// One park on the lock table waiting for a conflicting holder.
    LockWait {
        /// Whether the wait ended by exhausting the lock-wait timeout.
        timed_out: bool,
    },
}

impl SpanKind {
    /// Category string used in the chrome trace export.
    pub fn category(&self) -> &'static str {
        match self {
            SpanKind::Txn { .. } => "txn",
            SpanKind::Statement => "stmt",
            SpanKind::LockWait { .. } => "lock",
        }
    }
}

/// One span in a transaction trace. Times are nanoseconds since the
/// owning registry was created, so events from different sessions share
/// one clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Session (connection) the span belongs to.
    pub session: u64,
    /// Transaction the span belongs to (0 when none was open).
    pub txn: u64,
    /// What the span measured (transaction, statement, or lock wait).
    pub kind: SpanKind,
    /// Human-readable payload: the SQL text for statements, the isolation
    /// level for transactions, the blocking description for lock waits.
    pub name: String,
    /// Span start, nanoseconds since the registry epoch.
    pub start_nanos: u64,
    /// Span duration in nanoseconds.
    pub duration_nanos: u64,
}

/// Number of independent trace shards; sessions hash onto shards.
const TRACE_SHARDS: usize = 16;

/// Sharded trace-event collector.
#[derive(Debug)]
pub struct TraceBuffer {
    shards: Vec<Mutex<Vec<TraceEvent>>>,
}

impl Default for TraceBuffer {
    fn default() -> Self {
        TraceBuffer {
            shards: (0..TRACE_SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }
}

impl TraceBuffer {
    /// Append one span event to the owning session's shard.
    pub fn push(&self, event: TraceEvent) {
        let shard = event.session as usize % TRACE_SHARDS;
        self.shards[shard]
            .lock()
            .expect("trace shard poisoned")
            .push(event);
    }

    /// Drain all shards, returning events sorted by start time (ties
    /// broken by session then transaction, so the order is deterministic).
    pub fn take(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = self
            .shards
            .iter()
            .flat_map(|s| std::mem::take(&mut *s.lock().expect("trace shard poisoned")))
            .collect();
        all.sort_by_key(|e| (e.start_nanos, e.session, e.txn));
        all
    }

    /// Number of buffered span events across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("trace shard poisoned").len())
            .sum()
    }

    /// Whether no span events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Export events as a plain JSON array of span objects.
pub fn trace_json(events: &[TraceEvent]) -> String {
    let spans = events.iter().map(|e| {
        let (kind, flag) = match &e.kind {
            SpanKind::Txn { committed } => ("txn", Some(("committed", *committed))),
            SpanKind::Statement => ("statement", None),
            SpanKind::LockWait { timed_out } => ("lock_wait", Some(("timed_out", *timed_out))),
        };
        let mut fields = vec![
            field("kind", Json::str(kind)),
            field("session", Json::Num(e.session)),
            field("txn", Json::Num(e.txn)),
            field("name", Json::str(&e.name)),
            field("start_ns", Json::Num(e.start_nanos)),
            field("duration_ns", Json::Num(e.duration_nanos)),
        ];
        fields.extend(flag.map(|(key, value)| field(key, Json::Bool(value))));
        Json::Obj(fields)
    });
    Json::Arr(spans.collect()).to_string()
}

/// Export events in the Chrome Trace Event format (a JSON array of
/// complete `"ph": "X"` events). Load the output in `chrome://tracing` or
/// Perfetto; each database session renders as its own track.
pub fn trace_chrome_json(events: &[TraceEvent]) -> String {
    let spans = events.iter().map(|e| {
        let name = match &e.kind {
            SpanKind::Txn { committed: true } => format!("txn#{} commit ({})", e.txn, e.name),
            SpanKind::Txn { committed: false } => format!("txn#{} abort ({})", e.txn, e.name),
            SpanKind::Statement => e.name.clone(),
            SpanKind::LockWait { timed_out: false } => format!("lock wait ({})", e.name),
            SpanKind::LockWait { timed_out: true } => format!("lock wait TIMEOUT ({})", e.name),
        };
        // Chrome expects microsecond timestamps; fractional values keep
        // sub-microsecond spans visible.
        Json::Obj(vec![
            field("name", Json::Str(name)),
            field("cat", Json::str(e.kind.category())),
            field("ph", Json::str("X")),
            field("ts", Json::Fixed(e.start_nanos as f64 / 1000.0)),
            field("dur", Json::Fixed(e.duration_nanos as f64 / 1000.0)),
            field("pid", Json::Num(1)),
            field("tid", Json::Num(e.session)),
        ])
    });
    Json::Arr(spans.collect()).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                session: 1,
                txn: 7,
                kind: SpanKind::Statement,
                name: "SELECT \"x\" FROM t".into(),
                start_nanos: 100,
                duration_nanos: 50,
            },
            TraceEvent {
                session: 1,
                txn: 7,
                kind: SpanKind::Txn { committed: true },
                name: "READ COMMITTED".into(),
                start_nanos: 90,
                duration_nanos: 200,
            },
            TraceEvent {
                session: 2,
                txn: 8,
                kind: SpanKind::LockWait { timed_out: true },
                name: "blocked on txn#7".into(),
                start_nanos: 120,
                duration_nanos: 1000,
            },
        ]
    }

    #[test]
    fn buffer_drains_in_start_order() {
        let buf = TraceBuffer::default();
        for e in sample() {
            buf.push(e);
        }
        assert_eq!(buf.len(), 3);
        let drained = buf.take();
        assert!(buf.is_empty());
        assert_eq!(drained[0].start_nanos, 90);
        assert_eq!(drained[2].start_nanos, 120);
    }

    #[test]
    fn chrome_export_is_valid_shape() {
        let out = trace_chrome_json(&sample());
        assert!(out.starts_with('['));
        assert!(out.ends_with(']'));
        assert!(out.contains("\"ph\": \"X\""));
        assert!(out.contains("\"tid\": 2"));
        assert!(out.contains("txn#7 commit (READ COMMITTED)"));
        assert!(out.contains("lock wait TIMEOUT"));
        // Embedded quotes in SQL are escaped.
        assert!(out.contains("SELECT \\\"x\\\" FROM t"));
    }

    #[test]
    fn json_export_carries_flags() {
        let out = trace_json(&sample());
        assert!(out.contains("\"committed\": true"));
        assert!(out.contains("\"timed_out\": true"));
        assert!(out.contains("\"kind\": \"statement\""));
    }
}
