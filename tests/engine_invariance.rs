//! Engine-invariance suite: the fine-grained concurrency refactor of
//! `acidrain-db` must not change anything the 2AD pipeline observes.
//!
//! The paper's attacks depend only on which *statement interleavings* each
//! isolation level admits, so the lifted [`AbstractHistory`] (node/edge
//! counts, witness set) for a fixed workload must be identical before and
//! after the engine's internals changed. The constants in this file were
//! captured against the pre-refactor engine (single global `Mutex<DbInner>`,
//! commit `fb59cf7`) and pin that behaviour bit-for-bit:
//!
//! * scripted Hermitage-style anomaly scenarios (lost update, write skew,
//!   phantom, serializable phantom blocking) lift to the same graph and the
//!   same witness count at every isolation level;
//! * seeded chaos storefront runs produce field-for-field identical
//!   [`ChaosReport`]s (including the FNV state digest);
//! * a genuinely concurrent threaded storefront workload on disjoint rows
//!   yields the order-independent fingerprint (node count, edge count,
//!   zero witnesses, fixed final state).

use std::sync::Arc;
use std::time::Duration;

use acidrain_apps::prelude::*;
use acidrain_apps::{RetryPolicy, SqlConn};
use acidrain_core::{Analyzer, RefinementConfig};
use acidrain_db::{Database, DbError, FaultConfig, IsolationLevel, Value};
use acidrain_harness::chaos::{run_chaos, ChaosConfig};
use acidrain_harness::stress::run_concurrent;
use acidrain_sql::schema::{ColumnDef, ColumnType, Schema, TableSchema};

fn test_db(isolation: IsolationLevel) -> Arc<Database> {
    let schema = Schema::new().with_table(TableSchema::new(
        "test",
        vec![
            ColumnDef::new("id", ColumnType::Int).unique(),
            ColumnDef::new("value", ColumnType::Int),
        ],
    ));
    let d = Database::new(schema, isolation);
    d.seed(
        "test",
        vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(20)],
        ],
    )
    .unwrap();
    d
}

/// Lift the database's log and return the invariance fingerprint:
/// (history nodes, history edges, full-analysis witness count).
fn fingerprint(db: &Arc<Database>, isolation: IsolationLevel) -> (usize, usize, usize) {
    let log = db.log_entries();
    let analyzer = Analyzer::from_log(&log, &db.schema()).expect("log lifts");
    let report = analyzer.analyze(&RefinementConfig::at_isolation(isolation));
    (
        analyzer.history().node_count(),
        analyzer.history().edge_count(),
        report.finding_count(),
    )
}

/// Classic lost update admitted by MySQL-RR: both sessions read, then both
/// blind-write values derived from the stale reads.
#[test]
fn lost_update_scenario_fingerprint_is_stable() {
    let level = IsolationLevel::MySqlRepeatableRead;
    let d = test_db(level);
    let mut t1 = d.connect();
    let mut t2 = d.connect();
    t1.set_api("debit", 0);
    t2.set_api("debit", 1);
    t1.execute("BEGIN").unwrap();
    t2.execute("BEGIN").unwrap();
    t1.execute("SELECT value FROM test WHERE id = 1").unwrap();
    t2.execute("SELECT value FROM test WHERE id = 1").unwrap();
    t1.execute("UPDATE test SET value = 9 WHERE id = 1")
        .unwrap();
    t1.execute("COMMIT").unwrap();
    t2.execute("UPDATE test SET value = 8 WHERE id = 1")
        .unwrap();
    t2.execute("COMMIT").unwrap();

    let fp = fingerprint(&d, level);
    eprintln!("lost_update fingerprint: {fp:?}");
    assert_eq!(fp, (2, 2, 1), "lost-update abstract history changed");
    assert_eq!(d.table_rows("test").unwrap()[0][1], Value::Int(8));
}

/// Write skew under Snapshot Isolation: disjoint writes validated only
/// against each writer's own row.
#[test]
fn write_skew_scenario_fingerprint_is_stable() {
    let level = IsolationLevel::SnapshotIsolation;
    let d = test_db(level);
    let mut t1 = d.connect();
    let mut t2 = d.connect();
    t1.set_api("oncall", 0);
    t2.set_api("oncall", 1);
    t1.execute("BEGIN").unwrap();
    t2.execute("BEGIN").unwrap();
    t1.execute("SELECT value FROM test WHERE id = 1").unwrap();
    t2.execute("SELECT value FROM test WHERE id = 2").unwrap();
    t1.execute("UPDATE test SET value = 11 WHERE id = 1")
        .unwrap();
    t2.execute("UPDATE test SET value = 21 WHERE id = 2")
        .unwrap();
    t1.execute("COMMIT").unwrap();
    t2.execute("COMMIT").unwrap();

    let fp = fingerprint(&d, level);
    eprintln!("write_skew fingerprint: {fp:?}");
    assert_eq!(fp, (2, 2, 0), "write-skew abstract history changed");
}

/// Phantom under Read Committed: a predicate read repeated around a
/// concurrent committed insert sees the phantom.
#[test]
fn phantom_scenario_fingerprint_is_stable() {
    let level = IsolationLevel::ReadCommitted;
    let d = test_db(level);
    let mut t1 = d.connect();
    let mut t2 = d.connect();
    t1.set_api("report", 0);
    t2.set_api("insert", 0);
    t1.execute("BEGIN").unwrap();
    assert_eq!(
        t1.query_i64("SELECT COUNT(*) FROM test WHERE value > 5")
            .unwrap(),
        2
    );
    t2.execute("INSERT INTO test (id, value) VALUES (3, 30)")
        .unwrap();
    assert_eq!(
        t1.query_i64("SELECT COUNT(*) FROM test WHERE value > 5")
            .unwrap(),
        3
    );
    t1.execute("COMMIT").unwrap();

    let fp = fingerprint(&d, level);
    eprintln!("phantom fingerprint: {fp:?}");
    assert_eq!(fp, (3, 3, 1), "phantom abstract history changed");
}

/// Serializable closes the phantom window by blocking the insert; the
/// lifted history of the serialized outcome is fixed.
#[test]
fn serializable_phantom_block_fingerprint_is_stable() {
    let level = IsolationLevel::Serializable;
    let d = test_db(level);
    let mut t1 = d.connect();
    let mut t2 = d.connect();
    t1.set_api("report", 0);
    t2.set_api("insert", 0);
    t1.execute("BEGIN").unwrap();
    t1.execute("SELECT COUNT(*) FROM test WHERE value > 5")
        .unwrap();
    let blocked = t2.try_execute("INSERT INTO test (id, value) VALUES (3, 30)");
    assert!(matches!(blocked, Err(DbError::WouldBlock { .. })));
    t1.execute("COMMIT").unwrap();
    t2.try_execute("INSERT INTO test (id, value) VALUES (3, 30)")
        .unwrap();

    let fp = fingerprint(&d, level);
    eprintln!("serializable fingerprint: {fp:?}");
    assert_eq!(fp, (2, 2, 0), "serialized phantom history changed");
    assert_eq!(d.table_rows("test").unwrap().len(), 3);
}

fn chaos_config(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        faults: FaultConfig::disabled()
            .with_deadlock(0.08)
            .with_write_conflict(0.05)
            .with_lock_timeout(0.03),
        policy: RetryPolicy::RetryTxn,
        max_retries: 12,
        sessions: 4,
        requests_per_session: 6,
        isolation: IsolationLevel::ReadCommitted,
        use_indexes: true,
        wal: None,
    }
}

/// Seeded chaos storefront runs pin the whole report: request outcomes,
/// injected-fault counters, 2AD witnesses over the abort-bearing log, and
/// the FNV digest of the final committed state.
#[test]
fn seeded_chaos_reports_match_pre_refactor_baseline() {
    // (seed, committed, rejected, failed, total_injected, aborted_log_entries, witnesses, state_digest)
    type ChaosBaseline = (u64, usize, usize, usize, u64, usize, usize, u64);
    let baselines: [ChaosBaseline; 2] = [
        (7, 23, 1, 0, 25, 25, 23, 0x5cfe8dde5d24bca6),
        (42, 23, 1, 0, 17, 17, 23, 0x847b71aef40076ac),
    ];
    let reports: Vec<_> = baselines
        .iter()
        .map(|b| run_chaos(&PrestaShop, &chaos_config(b.0)))
        .collect();
    for (b, report) in baselines.iter().zip(&reports) {
        eprintln!(
            "chaos seed {}: committed={} rejected={} failed={} injected={} aborted={} witnesses={} digest={:#x}",
            b.0,
            report.committed,
            report.rejected,
            report.failed,
            report.fault_stats.total_injected(),
            report.aborted_log_entries,
            report.witnesses,
            report.state_digest
        );
    }
    for ((seed, committed, rejected, failed, injected, aborted, witnesses, digest), report) in
        baselines.into_iter().zip(reports)
    {
        assert_eq!(report.committed, committed, "seed {seed}");
        assert_eq!(report.rejected, rejected, "seed {seed}");
        assert_eq!(report.failed, failed, "seed {seed}");
        assert_eq!(report.fault_stats.total_injected(), injected, "seed {seed}");
        assert_eq!(report.aborted_log_entries, aborted, "seed {seed}");
        assert_eq!(report.witnesses, witnesses, "seed {seed}");
        assert_eq!(report.state_digest, digest, "seed {seed:#x}");
        assert!(report.invariants_held(), "seed {seed}: {report:?}");
    }
}

/// The index read path (point probe, else range probe) is a pure
/// routing change: forcing it off (the reference full scan everywhere)
/// must reproduce field-for-field identical chaos reports — request
/// outcomes, fault counters, 2AD witnesses, and the state digest — for the
/// same seeds.
#[test]
fn chaos_reports_identical_with_index_path_on_or_off() {
    for seed in [7u64, 42, 0xAC1D] {
        let on = run_chaos(&PrestaShop, &chaos_config(seed));
        let off = run_chaos(
            &PrestaShop,
            &ChaosConfig {
                use_indexes: false,
                ..chaos_config(seed)
            },
        );
        assert_eq!(
            on, off,
            "seed {seed}: index routing changed the chaos report"
        );
    }
}

/// One scripted two-session scenario: `(session, SQL)` steps at a level,
/// and the abstract-history fingerprint the index-on run is pinned to
/// (where a baseline exists).
struct Script {
    level: IsolationLevel,
    apis: [(&'static str, u64); 2],
    steps: &'static [(usize, &'static str)],
    baseline: Option<(usize, usize, usize)>,
}

/// Scripted scenarios lift to the same abstract history and final state
/// with the index path on or off: point probes (the lost-update script)
/// and range probes (the sweep/restock script, whose predicates are
/// genuine ranges) must read and lock the same rows in the same slot
/// order the full scan visits.
#[test]
fn scripted_fingerprints_identical_with_index_path_on_or_off() {
    let scripts = [
        Script {
            level: IsolationLevel::MySqlRepeatableRead,
            apis: [("debit", 0), ("debit", 1)],
            steps: &[
                (0, "BEGIN"),
                (1, "BEGIN"),
                (0, "SELECT value FROM test WHERE id = 1"),
                (1, "SELECT value FROM test WHERE id = 1"),
                (0, "UPDATE test SET value = 9 WHERE id = 1"),
                (0, "COMMIT"),
                (1, "UPDATE test SET value = 8 WHERE id = 1"),
                (1, "COMMIT"),
            ],
            baseline: Some((2, 2, 1)),
        },
        Script {
            level: IsolationLevel::ReadCommitted,
            apis: [("sweep", 0), ("restock", 0)],
            steps: &[
                (0, "BEGIN"),
                (0, "SELECT id FROM test WHERE value < 15"),
                (1, "UPDATE test SET value = 5 WHERE value >= 20"),
                (0, "UPDATE test SET value = 99 WHERE value BETWEEN 1 AND 12"),
                (0, "COMMIT"),
            ],
            baseline: None,
        },
    ];
    for script in &scripts {
        let run = |use_indexes: bool| {
            let d = test_db(script.level);
            d.set_use_indexes(use_indexes);
            let mut sessions = [d.connect(), d.connect()];
            for (session, (api, invocation)) in sessions.iter_mut().zip(script.apis) {
                session.set_api(api, invocation);
            }
            for &(session, sql) in script.steps {
                sessions[session].execute(sql).unwrap();
            }
            let rows = d.table_rows("test").unwrap();
            (fingerprint(&d, script.level), rows)
        };
        let (on, off) = (run(true), run(false));
        assert_eq!(
            on, off,
            "index routing changed history or final state: {:?}",
            script.steps
        );
        if let Some(baseline) = script.baseline {
            assert_eq!(on.0, baseline, "fingerprint drifted from baseline");
        }
    }
}

/// A genuinely concurrent threaded workload on disjoint rows: the abstract
/// history's fingerprint is order-independent (undirected conflict edges
/// over a fixed op multiset), so it must be identical under the serial
/// pre-refactor engine and the parallel one — whatever the interleaving.
#[test]
fn concurrent_disjoint_workload_fingerprint_is_stable() {
    const SESSIONS: usize = 4;
    const ROUNDS: i64 = 5;
    let schema = Schema::new().with_table(TableSchema::new(
        "account",
        vec![
            ColumnDef::new("id", ColumnType::Int).unique(),
            ColumnDef::new("balance", ColumnType::Int),
        ],
    ));
    let db = Database::new(schema, IsolationLevel::ReadCommitted);
    db.seed(
        "account",
        (0..SESSIONS)
            .map(|s| vec![Value::Int(s as i64 + 1), Value::Int(100)])
            .collect(),
    )
    .unwrap();

    let tasks: Vec<_> = (0..SESSIONS)
        .map(|s| {
            move |conn: &mut dyn SqlConn| {
                let id = s as i64 + 1;
                for round in 0..ROUNDS {
                    conn.set_api("transfer", (s as i64 * ROUNDS + round) as u64);
                    conn.exec("BEGIN").unwrap();
                    conn.exec(&format!("SELECT balance FROM account WHERE id = {id}"))
                        .unwrap();
                    conn.exec(&format!(
                        "UPDATE account SET balance = balance - 1 WHERE id = {id}"
                    ))
                    .unwrap();
                    conn.exec("COMMIT").unwrap();
                }
            }
        })
        .collect();
    run_concurrent(&db, tasks, Duration::ZERO);

    let log = db.log_entries();
    let analyzer = Analyzer::from_log(&log, &db.schema()).expect("log lifts");
    let report = analyzer.analyze(&RefinementConfig::at_isolation(
        IsolationLevel::ReadCommitted,
    ));
    let fp = (
        analyzer.history().node_count(),
        analyzer.history().edge_count(),
        report.finding_count(),
    );
    eprintln!("concurrent fingerprint: {fp:?}");
    assert_eq!(fp, (2, 3, 1), "concurrent disjoint-row history changed");

    // Every session decremented its own row ROUNDS times.
    for row in db.table_rows("account").unwrap() {
        assert_eq!(row[1], Value::Int(100 - ROUNDS));
    }
    assert_eq!(db.active_transactions(), 0);
    assert_eq!(db.locked_resources(), 0);
}
