//! Acceptance tests for the deterministic fault-injection layer:
//! fixed-seed chaos runs are bit-for-bit reproducible, and hung lock
//! waits degrade into reported timeouts inside the watchdog deadline.

use std::sync::Arc;
use std::time::{Duration, Instant};

use acidrain_apps::prelude::*;
use acidrain_apps::RetryPolicy;
use acidrain_db::{Database, FaultConfig, IsolationLevel, Value};
use acidrain_harness::chaos::{run_chaos, ChaosConfig};
use acidrain_harness::stress::run_concurrent_watchdog;
use acidrain_sql::schema::{ColumnDef, ColumnType, Schema, TableSchema};

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
fn fixed_seed_chaos_runs_are_bit_for_bit_reproducible() {
    let config = chaotic_config(0xAC1D);
    let first = run_chaos(&PrestaShop, &config);
    let second = run_chaos(&PrestaShop, &config);

    // Same abort counts, same final committed state, same witness set —
    // the whole report compares equal.
    assert_eq!(first, second);
    assert!(
        first.fault_stats.total_injected() > 0,
        "the chaos must be real for the reproducibility claim to bite: {first:?}"
    );
    assert!(first.aborted_log_entries > 0);
}

#[test]
fn different_seeds_produce_different_chaos() {
    let first = run_chaos(&PrestaShop, &chaotic_config(1));
    let second = run_chaos(&PrestaShop, &chaotic_config(2));
    assert_ne!(
        first.fault_stats, second.fault_stats,
        "independent seeds must not replay the same fault sequence"
    );
}

#[test]
fn chaos_reports_are_complete_even_when_requests_fail() {
    // No retries: injected aborts surface as failed requests, yet the
    // report still carries invariant verdicts and fault counts instead of
    // the harness panicking.
    let config = ChaosConfig {
        policy: RetryPolicy::NoRetry,
        ..chaotic_config(0xBEEF)
    };
    let report = run_chaos(&PrestaShop, &config);
    assert!(report.failed > 0, "{report:?}");
    assert!(!report.invariant_results.is_empty());
    assert!(report.fault_stats.total_injected() > 0);
}

#[test]
fn watchdog_bounds_hung_lock_waits() {
    let schema = Schema::new().with_table(TableSchema::new(
        "t",
        vec![ColumnDef::new("v", ColumnType::Int)],
    ));
    let db: Arc<Database> = Database::new(schema, IsolationLevel::ReadCommitted);
    db.seed("t", vec![vec![Value::Int(0)]]).unwrap();

    // Wedge the row for the duration of the run.
    let mut holder = db.connect();
    holder.execute("BEGIN").unwrap();
    holder.execute("SELECT v FROM t FOR UPDATE").unwrap();

    let deadline = Duration::from_millis(200);
    let started = Instant::now();
    let tasks: Vec<_> = (0..3)
        .map(|_| {
            |conn: &mut dyn SqlConn| {
                conn.exec("UPDATE t SET v = v + 1").unwrap();
            }
        })
        .collect();
    let outcomes = run_concurrent_watchdog(&db, tasks, Duration::ZERO, deadline);

    assert!(
        started.elapsed() < Duration::from_secs(10),
        "run must complete within the watchdog envelope, took {:?}",
        started.elapsed()
    );
    assert!(
        outcomes.iter().all(|o| o.is_timed_out()),
        "every blocked task must report a timeout: {outcomes:?}"
    );

    holder.execute("ROLLBACK").unwrap();
    assert_eq!(db.table_rows("t").unwrap()[0][0], Value::Int(0));
    assert_eq!(db.active_transactions(), 0);
    assert_eq!(db.locked_resources(), 0);
}
