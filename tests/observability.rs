//! Acceptance tests for the engine-wide observability layer.
//!
//! Two properties carry the whole design:
//!
//! 1. **Non-interference** — metrics and tracing are observational only.
//!    Every probe fires *after* the engine's deterministic decisions
//!    (fault draws, lock verdicts), so a seeded chaos run produces a
//!    bit-for-bit identical [`ChaosReport`] with observability on or off.
//! 2. **The one-atomic-load contract** — a disabled registry records
//!    nothing, and the [`MetricsReport`] it yields says so. (The *cost*
//!    side of the contract is enforced by the `obs_overhead` guard bench
//!    in `crates/bench`.)
//!
//! [`ChaosReport`]: acidrain_harness::ChaosReport
//! [`MetricsReport`]: acidrain_db::MetricsReport

use std::sync::Arc;

use acidrain_apps::prelude::*;
use acidrain_apps::RetryPolicy;
use acidrain_db::{Database, FaultConfig, IsolationLevel};
use acidrain_harness::chaos::{run_chaos, run_chaos_instrumented, ChaosConfig};
use acidrain_obs::{trace_chrome_json, trace_json, SpanKind};

fn chaotic_config(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        faults: FaultConfig::disabled()
            .with_deadlock(0.08)
            .with_write_conflict(0.05)
            .with_lock_timeout(0.03),
        policy: RetryPolicy::RetryTxn,
        max_retries: 32,
        sessions: 6,
        requests_per_session: 9,
        isolation: IsolationLevel::ReadCommitted,
        use_indexes: true,
        wal: None,
    }
}

#[test]
fn same_seed_chaos_run_is_identical_with_metrics_on_or_off() {
    let baseline = run_chaos(&PrestaShop, &chaotic_config(0xAC1D));
    let (instrumented, metrics) = run_chaos_instrumented(&PrestaShop, &chaotic_config(0xAC1D));

    // The deterministic report — fault counts, retry totals, witness set,
    // committed-state digest — must not move by a single bit when the
    // registry is recording.
    assert_eq!(baseline, instrumented);
    assert!(
        baseline.fault_stats.total_injected() > 0,
        "the chaos must be real for the invariance claim to bite: {baseline:?}"
    );

    // And the observational side must actually have observed the run.
    assert!(metrics.enabled);
    assert!(metrics.statements.count() > 0);
    assert_eq!(
        metrics.counters.injected_faults,
        baseline.fault_stats.total_injected(),
        "the injected-fault counter mirrors the injector's own ledger"
    );
}

#[test]
fn instrumented_chaos_metrics_are_coherent() {
    let config = chaotic_config(7);
    let (report, metrics) = run_chaos_instrumented(&PrestaShop, &config);

    // Latency data exists for every layer the run exercised.
    assert!(metrics.statements.count() > 0);
    assert!(metrics.transactions.count() > 0);
    assert!(metrics.tasks.count() as usize >= report.committed + report.rejected);

    // Retry activity in the chaos report reappears in the obs counters.
    assert_eq!(metrics.counters.txn_replays, report.retry_stats.txn_replays);
    assert_eq!(
        metrics.counters.statement_retries,
        report.retry_stats.statement_retries
    );

    // Every statement landed in exactly one outcome bucket, and the
    // per-level commit/abort split only has mass at the run's level.
    let c = &metrics.counters;
    assert_eq!(
        metrics.statements.count(),
        c.statements_ok + c.statements_failed + c.statements_aborted
    );
    for level in &metrics.by_level {
        if level.level != "READ COMMITTED" {
            assert_eq!(level.commits + level.aborts, 0, "{level:?}");
        }
    }
    assert!(metrics.abort_rate() > 0.0, "injected aborts must show up");
}

#[test]
fn disabled_registry_records_nothing() {
    let db: Arc<Database> = Oscar.make_store(IsolationLevel::ReadCommitted);
    assert!(!db.metrics_enabled());

    let mut conn = db.connect();
    Oscar.add_to_cart(&mut conn, 1, PEN, 1).unwrap();
    Oscar
        .checkout(&mut conn, 1, &CheckoutRequest::plain())
        .unwrap();

    let report = db.metrics_report();
    assert!(!report.enabled);
    assert_eq!(report.statements.count(), 0);
    assert_eq!(report.transactions.count(), 0);
    assert_eq!(report.counters.log_appends, 0);
    assert_eq!(report.commit_clock, 0);
    assert!(db.take_trace().is_empty());
}

#[test]
fn enabling_metrics_mid_flight_starts_recording() {
    let db: Arc<Database> = Oscar.make_store(IsolationLevel::ReadCommitted);
    let mut conn = db.connect();
    Oscar.add_to_cart(&mut conn, 1, PEN, 1).unwrap();
    assert_eq!(db.metrics_report().statements.count(), 0);

    db.enable_metrics();
    Oscar.add_to_cart(&mut conn, 1, PEN, 1).unwrap();
    let on = db.metrics_report();
    assert!(on.statements.count() > 0);
    assert!(
        on.commit_clock > 0,
        "gauge tracks the engine's commit clock"
    );

    db.disable_metrics();
    let frozen = db.metrics_report().statements.count();
    Oscar.add_to_cart(&mut conn, 1, PEN, 1).unwrap();
    assert_eq!(db.metrics_report().statements.count(), frozen);
}

#[test]
fn trace_spans_cover_the_transaction_lifecycle_and_export_cleanly() {
    let db: Arc<Database> = Oscar.make_store(IsolationLevel::ReadCommitted);
    db.enable_metrics();
    db.set_tracing(true);

    let mut conn = db.connect();
    Oscar.add_to_cart(&mut conn, 1, PEN, 1).unwrap();
    Oscar
        .checkout(&mut conn, 1, &CheckoutRequest::plain())
        .unwrap();

    let events = db.take_trace();
    assert!(!events.is_empty());
    assert!(events.iter().any(|e| matches!(e.kind, SpanKind::Statement)));
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, SpanKind::Txn { committed: true })));
    // Spans are well-formed: durations fit inside the recorded window.
    for e in &events {
        assert!(e.duration_nanos > 0 || matches!(e.kind, SpanKind::Statement));
    }

    // Both exporters emit parseable JSON arrays with one element per span.
    let plain = trace_json(&events);
    assert!(plain.starts_with('[') && plain.ends_with(']'));
    assert_eq!(plain.matches("\"kind\"").count(), events.len());

    let chrome = trace_chrome_json(&events);
    assert!(chrome.starts_with('[') && chrome.ends_with(']'));
    assert_eq!(chrome.matches("\"ph\": \"X\"").count(), events.len());

    // take_trace drains.
    assert!(db.take_trace().is_empty());
}
