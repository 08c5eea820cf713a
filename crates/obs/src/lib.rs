//! # acidrain-obs
//!
//! Lock-free observability for the ACIDRain reproduction's database
//! engine: latency histograms, contention counters and gauges, and
//! span-style transaction traces — the instrumentation the paper's
//! methodology implicitly depends on (its only probe is the general query
//! log) and that the decomposed fine-grained engine needs to make its
//! latches, lock table, and fault injector legible.
//!
//! The crate is dependency-free and sits *below* `acidrain-db` in the
//! workspace graph; every layer above threads a cloneable [`Obs`] handle.
//!
//! ## The one-atomic-load contract
//!
//! Every probe on a **disabled** registry costs exactly one relaxed
//! atomic load and has no other effect — no clock read, no lock, no
//! allocation, no stores. Timing probes return a disarmed [`Timer`] /
//! [`WaitToken`] whose finish half is a plain `Option` check (zero atomic
//! operations). Probes also sit strictly *after* the engine's
//! deterministic fault decisions, so seeded chaos runs produce identical
//! digests with observability on or off.
//!
//! ## Metric taxonomy
//!
//! * **Histograms** (fixed log₂ nanosecond buckets, wait-free): statement
//!   latency, transaction latency, lock-wait durations, storage-latch
//!   acquisition, harness task latency, retry backoff.
//! * **Counters**: lock waits / timeouts / deadlocks / injected faults /
//!   retries / statement outcomes, plus per-isolation-level commit and
//!   abort counts.
//! * **Gauges**: the engine's commit clock, and current/peak lock-table
//!   and latch waiters.
//! * **Traces**: per-transaction spans (begin → statements → lock waits →
//!   commit/abort), exportable as plain JSON ([`trace_json`]) or the
//!   `chrome://tracing` / Perfetto format ([`trace_chrome_json`]).
//! * **JSON**: [`json`] is the workspace's only JSON writer; the report,
//!   both trace exports, and the analysis reports above this crate all
//!   render through its [`Json`] tree.
//!
//! ```
//! use acidrain_obs::{Obs, ProbeOutcome};
//! use std::time::Duration;
//!
//! let obs = Obs::new();           // disabled: probes are one atomic load
//! obs.enable();
//! let timer = obs.timer();
//! // ... execute a statement ...
//! obs.statement_finished(1, 0, ProbeOutcome::Ok, timer, 7, "SELECT 1");
//! obs.task_finished(1, Duration::from_micros(120));
//! let report = obs.report();
//! assert_eq!(report.statements.count(), 1);
//! assert!(report.to_json().contains("\"statements_ok\": 1"));
//! ```

#![warn(missing_docs)]

pub mod hist;
pub mod json;
pub mod registry;
pub mod report;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use json::{field, json_escape, Json};
pub use registry::{
    Obs, ProbeOutcome, RetryEvent, Stopwatch, Timer, WaitToken, MAX_LEVELS, SHARDS,
};
pub use report::{Counters, LevelMetrics, MetricsReport};
pub use trace::{trace_chrome_json, trace_json, SpanKind, TraceBuffer, TraceEvent};
