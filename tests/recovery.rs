//! Kill-and-recover invariance for the durability layer.
//!
//! The contract under test: a recovered engine is indistinguishable from
//! the engine that wrote the log. Concretely —
//!
//! * an uncrashed seeded chaos run, recovered from its WAL into a fresh
//!   store, reproduces the run's committed-state digest **bit-for-bit**,
//!   at every isolation level and for every corpus app;
//! * a run killed at any injected crash point leaves a disk image whose
//!   recovery yields a committed *prefix* of the uncrashed run — no
//!   committed transaction lost, no uncommitted work resurrected, all
//!   serial invariants intact;
//! * a torn log tail (the file cut at **every** byte offset) never
//!   panics recovery and never costs a complete record;
//! * checkpoints fold the log into a snapshot without changing what
//!   recovery rebuilds, even when the checkpoint itself crashes midway;
//! * savepoint-shaped transactions replay exactly their committed
//!   effects (partial rollbacks leave no trace in the redo log).

use std::collections::HashMap;
use std::fs;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use acidrain_apps::prelude::*;
use acidrain_db::wal::{scan_wal, WAL_HEADER_LEN};
use acidrain_db::{
    CrashPoint, CrashSpec, Database, DbError, FaultConfig, IsolationLevel, Value, WalConfig,
};
use acidrain_harness::{recover_app_store, run_chaos, scratch_dir, state_digest, ChaosConfig};
use acidrain_sql::schema::{ColumnDef, ColumnType, Schema, TableSchema};

fn cleanup(dirs: &[std::path::PathBuf]) {
    for dir in dirs {
        let _ = fs::remove_dir_all(dir);
    }
}

/// Chaos config with a WAL attached and a mix of organic faults, so the
/// log records a workload that includes rollbacks, retries, and the slot
/// gaps rolled-back inserts leave behind.
fn walled_config(seed: u64, isolation: IsolationLevel, wal: WalConfig) -> ChaosConfig {
    ChaosConfig {
        seed,
        isolation,
        faults: FaultConfig::disabled()
            .with_deadlock(0.06)
            .with_write_conflict(0.04),
        wal: Some(wal),
        ..ChaosConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Uncrashed replay: recovered state must equal the live state bit-for-bit
// ---------------------------------------------------------------------------

/// The acceptance bar from the issue: for every isolation level, a seeded
/// run's WAL replayed into a fresh store reproduces the live engine's
/// state digest exactly.
#[test]
fn replay_reproduces_digest_at_every_isolation_level() {
    for (i, isolation) in IsolationLevel::ALL.into_iter().enumerate() {
        let dir = scratch_dir("replay-level");
        let config = walled_config(100 + i as u64, isolation, WalConfig::new(&dir));
        let report = run_chaos(&PrestaShop, &config);
        assert!(!report.crashed, "{isolation}: no crash was armed");
        assert!(report.committed > 0, "{isolation}: workload must commit");

        let (db, info) = recover_app_store(&PrestaShop, isolation, WalConfig::new(&dir))
            .unwrap_or_else(|e| panic!("{isolation}: recovery failed: {e}"));
        assert_eq!(
            state_digest(&db, &PrestaShop),
            report.state_digest,
            "{isolation}: recovered digest must match the live run bit-for-bit"
        );
        assert_eq!(info.snapshot_ts, 0, "{isolation}: no checkpoint was taken");
        assert_eq!(info.torn_bytes_discarded, 0, "{isolation}: clean shutdown");
        assert!(info.commits_replayed > 0, "{isolation}");
        cleanup(&[dir]);
    }
}

/// Same bar across the whole corpus: every app's store schema (indexes,
/// auto-increment columns, multi-table writes) survives the WAL round
/// trip.
#[test]
fn replay_reproduces_digest_for_every_corpus_app() {
    for (i, app) in all_apps().into_iter().enumerate() {
        let app: &dyn ShopApp = app.as_ref();
        let dir = scratch_dir("replay-app");
        let config = walled_config(
            200 + i as u64,
            IsolationLevel::ReadCommitted,
            WalConfig::new(&dir),
        );
        let report = run_chaos(app, &config);
        assert!(!report.crashed, "{}", app.name());

        let (db, _info) =
            recover_app_store(app, IsolationLevel::ReadCommitted, WalConfig::new(&dir))
                .unwrap_or_else(|e| panic!("{}: recovery failed: {e}", app.name()));
        assert_eq!(
            state_digest(&db, app),
            report.state_digest,
            "{}: recovered digest must match the live run",
            app.name()
        );
        cleanup(&[dir]);
    }
}

// ---------------------------------------------------------------------------
// Seeded kill -9 at each crash point
// ---------------------------------------------------------------------------

/// Kill the run at each durability-pipeline crash point and recover. The
/// recovered log must be a byte prefix of the same-seed uncrashed run's
/// log, every surviving record must replay, the serial invariants must
/// hold on the recovered state, and recovery itself must be
/// deterministic.
#[test]
fn crash_at_each_point_recovers_a_committed_prefix() {
    // MidCheckpoint can only fire inside `Database::checkpoint`, which the
    // chaos workload never calls; it gets its own engine-level test below.
    for point in [
        CrashPoint::WalAppend,
        CrashPoint::PreFsync,
        CrashPoint::PostFsync,
    ] {
        let isolation = IsolationLevel::ReadCommitted;
        let clean_dir = scratch_dir("crash-clean");
        let crash_dir = scratch_dir("crash-kill");

        let clean = run_chaos(
            &PrestaShop,
            &walled_config(31, isolation, WalConfig::new(&clean_dir)),
        );
        assert!(!clean.crashed);

        let mut crashed_config = walled_config(31, isolation, WalConfig::new(&crash_dir));
        crashed_config.faults = crashed_config.faults.with_crash(CrashSpec::new(point, 4));
        let crashed = run_chaos(&PrestaShop, &crashed_config);
        assert!(
            crashed.crashed,
            "{}: the armed crash must fire",
            point.name()
        );
        assert!(
            crashed.committed < clean.committed,
            "{}: the kill must cut the workload short",
            point.name()
        );

        let (db, info) = recover_app_store(&PrestaShop, isolation, WalConfig::new(&crash_dir))
            .unwrap_or_else(|e| panic!("{}: recovery failed: {e}", point.name()));

        // Recovery truncated any torn tail off the file, so what remains
        // must be an exact byte prefix of the uncrashed run's log: same
        // seed, same commit order, same encodings.
        let clean_bytes = fs::read(WalConfig::new(&clean_dir).log_path()).unwrap();
        let kept_bytes = fs::read(WalConfig::new(&crash_dir).log_path()).unwrap();
        assert!(
            clean_bytes.starts_with(&kept_bytes),
            "{}: surviving log must be a byte prefix of the uncrashed log \
             ({} vs {} bytes)",
            point.name(),
            kept_bytes.len(),
            clean_bytes.len()
        );

        // Every record that survived on disk was replayed.
        let (records, valid) = scan_wal(&WalConfig::new(&crash_dir).log_path()).unwrap();
        assert_eq!(valid, kept_bytes.len() as u64, "{}", point.name());
        assert_eq!(
            info.commits_replayed,
            records.len() as u64,
            "{}",
            point.name()
        );
        if point == CrashPoint::WalAppend {
            assert!(
                info.torn_bytes_discarded > 0,
                "a mid-append kill must leave a torn tail"
            );
        }

        // The recovered state is a transaction-consistent prefix, so the
        // app-level serial invariants must hold on it.
        for inv in acidrain_harness::Invariant::ALL {
            if inv.feature(&PrestaShop) == FeatureStatus::Supported {
                assert!(
                    inv.check(&db, &PrestaShop).is_ok(),
                    "{}: invariant {inv:?} violated after recovery",
                    point.name()
                );
            }
        }

        // Recovery is deterministic: a second restart from the (now
        // repaired) disk image rebuilds the identical state.
        let first_digest = state_digest(&db, &PrestaShop);
        let (db2, info2) =
            recover_app_store(&PrestaShop, isolation, WalConfig::new(&crash_dir)).unwrap();
        assert_eq!(
            state_digest(&db2, &PrestaShop),
            first_digest,
            "{}",
            point.name()
        );
        assert_eq!(info2.commits_replayed, info.commits_replayed);
        assert_eq!(info2.torn_bytes_discarded, 0, "tail already repaired");

        cleanup(&[clean_dir, crash_dir]);
    }
}

/// A post-fsync kill dies after the batch is durable but before any
/// committer is acknowledged: the "durable but unacked" commits must
/// survive recovery (fsync-then-ack ordering, the classic group-commit
/// correctness requirement).
#[test]
fn post_fsync_kill_keeps_durable_unacked_commits() {
    let dir = scratch_dir("post-fsync");
    let mut config = walled_config(77, IsolationLevel::ReadCommitted, WalConfig::new(&dir));
    config.faults = config
        .faults
        .with_crash(CrashSpec::new(CrashPoint::PostFsync, 3));
    let report = run_chaos(&PrestaShop, &config);
    assert!(report.crashed);

    let (_db, info) = recover_app_store(
        &PrestaShop,
        IsolationLevel::ReadCommitted,
        WalConfig::new(&dir),
    )
    .unwrap();
    let (records, _) = scan_wal(&WalConfig::new(&dir).log_path()).unwrap();
    // The fsync that crashed had already hardened its batch: every record
    // on disk is complete and replays, including commits whose sessions
    // never heard the acknowledgment.
    assert_eq!(info.commits_replayed, records.len() as u64);
    assert_eq!(
        info.torn_bytes_discarded, 0,
        "post-fsync leaves no torn tail"
    );
    assert!(info.commits_replayed >= 3, "the crashing batch was durable");
    cleanup(&[dir]);
}

// ---------------------------------------------------------------------------
// Torn tails: cut the log at every byte
// ---------------------------------------------------------------------------

/// Truncate a healthy log at every possible byte offset and recover each
/// image. Recovery must never panic or error, must keep exactly the
/// complete records before the cut, and must account for every discarded
/// byte. Equal-prefix cuts must rebuild identical states.
#[test]
fn torn_tail_at_every_byte_never_loses_a_committed_record() {
    let base_dir = scratch_dir("torn-base");
    let config = ChaosConfig {
        seed: 5,
        sessions: 2,
        requests_per_session: 2,
        wal: Some(WalConfig::new(&base_dir)),
        ..ChaosConfig::default()
    };
    let report = run_chaos(&PrestaShop, &config);
    assert!(!report.crashed);

    let bytes = fs::read(WalConfig::new(&base_dir).log_path()).unwrap();
    let (records, valid) = scan_wal(&WalConfig::new(&base_dir).log_path()).unwrap();
    assert_eq!(valid, bytes.len() as u64, "healthy log has no torn tail");
    assert!(records.len() >= 2, "workload must write several records");

    // A zero-length file is a legitimate crash image (killed between
    // creating the file and writing its magic): nothing was durable, so
    // recovery succeeds with nothing to replay. Any *partial* header is
    // structural corruption: recovery must refuse it cleanly, never panic.
    for cut in 0..WAL_HEADER_LEN as usize {
        let dir = scratch_dir("torn-header");
        fs::write(WalConfig::new(&dir).log_path(), &bytes[..cut]).unwrap();
        let result = recover_app_store(
            &PrestaShop,
            IsolationLevel::ReadCommitted,
            WalConfig::new(&dir),
        );
        if cut == 0 {
            let (_, info) = result.expect("empty log file recovers as a fresh log");
            assert_eq!(info.commits_replayed, 0);
        } else {
            assert!(
                matches!(result, Err(DbError::WalCorrupt(_))),
                "cut at {cut}: truncated header must be rejected as corrupt"
            );
        }
        cleanup(&[dir]);
    }

    let mut digest_by_records: HashMap<u64, u64> = HashMap::new();
    for cut in WAL_HEADER_LEN as usize..=bytes.len() {
        let dir = scratch_dir("torn-cut");
        fs::write(WalConfig::new(&dir).log_path(), &bytes[..cut]).unwrap();

        let (db, info) = recover_app_store(
            &PrestaShop,
            IsolationLevel::ReadCommitted,
            WalConfig::new(&dir),
        )
        .unwrap_or_else(|e| panic!("cut at {cut}: recovery failed: {e}"));

        // Exactly the records fully contained in the prefix survive.
        let expected: u64 = records
            .iter()
            .filter(|r| r.offset + r.len <= cut as u64)
            .count() as u64;
        assert_eq!(
            info.commits_replayed, expected,
            "cut at {cut}: complete records before the cut must replay"
        );
        let boundary = records
            .iter()
            .filter(|r| r.offset + r.len <= cut as u64)
            .map(|r| r.offset + r.len)
            .max()
            .unwrap_or(WAL_HEADER_LEN);
        assert_eq!(
            info.torn_bytes_discarded,
            cut as u64 - boundary,
            "cut at {cut}: every byte past the last whole record is discarded"
        );

        // Same surviving prefix ⇒ same recovered state, regardless of how
        // many torn bytes followed it.
        let digest = state_digest(&db, &PrestaShop);
        if let Some(&prev) = digest_by_records.get(&expected) {
            assert_eq!(digest, prev, "cut at {cut}: prefix state must be stable");
        } else {
            digest_by_records.insert(expected, digest);
        }
        cleanup(&[dir]);
    }

    // The full log rebuilds the run's exact final state.
    assert_eq!(
        digest_by_records[&(records.len() as u64)],
        report.state_digest
    );
    cleanup(&[base_dir]);
}

// ---------------------------------------------------------------------------
// Engine-level: checkpoints, savepoints, group commit under real threads
// ---------------------------------------------------------------------------

fn accounts_db(isolation: IsolationLevel) -> Arc<Database> {
    let schema = Schema::new().with_table(TableSchema::new(
        "accounts",
        vec![
            ColumnDef::new("id", ColumnType::Int).auto_increment(),
            ColumnDef::new("balance", ColumnType::Int),
        ],
    ));
    let db = Database::new(schema, isolation);
    db.seed(
        "accounts",
        vec![
            vec![Value::Int(1), Value::Int(100)],
            vec![Value::Int(2), Value::Int(100)],
        ],
    )
    .unwrap();
    db
}

/// Checkpoint mid-stream: the snapshot absorbs the prefix, the log keeps
/// the suffix, and recovery stitches them back into the live state. Also
/// pins that auto-increment draws continue above replayed ids.
#[test]
fn checkpoint_plus_log_tail_rebuilds_live_state() {
    let dir = scratch_dir("checkpoint");
    let wal = WalConfig::new(&dir);
    let db = accounts_db(IsolationLevel::ReadCommitted);
    db.attach_wal(wal.clone()).unwrap();

    let mut conn = db.connect();
    conn.execute("INSERT INTO accounts (balance) VALUES (7)")
        .unwrap();
    conn.execute("UPDATE accounts SET balance = balance - 10 WHERE id = 1")
        .unwrap();
    db.checkpoint().unwrap();
    // Post-checkpoint traffic lives only in the truncated log's tail.
    conn.execute("INSERT INTO accounts (balance) VALUES (8)")
        .unwrap();
    conn.execute("DELETE FROM accounts WHERE id = 2").unwrap();
    let live_rows = db.table_rows("accounts").unwrap();
    drop(conn);
    drop(db);

    let recovered = accounts_db(IsolationLevel::ReadCommitted);
    let info = recovered.recover(wal.clone()).unwrap();
    assert!(
        info.snapshot_ts > 0,
        "the checkpoint snapshot was installed"
    );
    assert_eq!(
        info.commits_replayed, 2,
        "only the post-checkpoint tail replays"
    );
    assert_eq!(recovered.table_rows("accounts").unwrap(), live_rows);

    // The replayed auto-increment counter keeps new ids above every
    // recovered row.
    let mut conn = recovered.connect();
    conn.execute("INSERT INTO accounts (balance) VALUES (9)")
        .unwrap();
    let rows = recovered.table_rows("accounts").unwrap();
    let max_id = rows
        .iter()
        .map(|r| match r[0] {
            Value::Int(id) => id,
            ref v => panic!("non-int id {v:?}"),
        })
        .max()
        .unwrap();
    assert_eq!(
        rows.iter().filter(|r| r[0] == Value::Int(max_id)).count(),
        1,
        "fresh draw must not collide with a recovered id"
    );
    assert!(max_id >= 4, "counter resumed past the replayed draws");
    cleanup(&[dir]);
}

/// Log-size-triggered auto-checkpoint: once the WAL crosses the
/// configured byte threshold, the next writing commit folds the log into
/// a snapshot automatically — the log shrinks back under the threshold,
/// and recovery from the rotated image reproduces the live state.
#[test]
fn auto_checkpoint_fires_on_log_growth() {
    let dir = scratch_dir("auto_checkpoint");
    let wal = WalConfig::new(&dir);
    let db = accounts_db(IsolationLevel::ReadCommitted);
    db.attach_wal(wal.clone()).unwrap();
    // Low threshold so a handful of commits crosses it; a manual-only
    // engine would grow the log linearly with commit count.
    db.set_auto_checkpoint(512);

    let mut conn = db.connect();
    for i in 0..200 {
        conn.execute(&format!(
            "UPDATE accounts SET balance = {} WHERE id = 1",
            i + 1000
        ))
        .unwrap();
    }
    let snapshot = wal.snapshot_path();
    assert!(
        snapshot.exists(),
        "no auto-checkpoint fired over 200 commits"
    );
    let log_len = fs::metadata(wal.log_path()).unwrap().len();
    assert!(
        log_len - WAL_HEADER_LEN < 5 * 512,
        "log kept growing past the threshold: {log_len} bytes"
    );
    let live_rows = db.table_rows("accounts").unwrap();
    drop(conn);
    drop(db);

    let recovered = accounts_db(IsolationLevel::ReadCommitted);
    let info = recovered.recover(wal).unwrap();
    assert!(info.snapshot_ts > 0, "recovery used the rotated snapshot");
    assert_eq!(recovered.table_rows("accounts").unwrap(), live_rows);
    cleanup(&[dir]);
}

/// A crash in the middle of writing the snapshot temp file kills the
/// engine but leaves the previous disk image (old snapshot + full log)
/// intact — recovery after the botched checkpoint loses nothing.
#[test]
fn mid_checkpoint_crash_preserves_the_previous_image() {
    let dir = scratch_dir("mid-checkpoint");
    let wal = WalConfig::new(&dir);
    let db = accounts_db(IsolationLevel::ReadCommitted);
    db.attach_wal(wal.clone()).unwrap();
    db.enable_faults(
        FaultConfig::disabled().with_crash(CrashSpec::new(CrashPoint::MidCheckpoint, 1)),
    );

    let mut conn = db.connect();
    conn.execute("UPDATE accounts SET balance = 55 WHERE id = 1")
        .unwrap();
    let live_rows = db.table_rows("accounts").unwrap();

    let err = db
        .checkpoint()
        .expect_err("armed checkpoint crash must fire");
    assert!(matches!(err, DbError::Io(_)), "got {err}");
    assert!(db.wal_crashed(), "the engine is dead after the kill");
    // Dead log: further commits fail loudly instead of losing writes.
    let late = conn.execute("UPDATE accounts SET balance = 0 WHERE id = 2");
    assert!(matches!(late, Err(DbError::Io(_))), "got {late:?}");
    drop(conn);
    drop(db);

    // No snapshot was installed; the full WAL replays the committed state.
    assert!(!wal.snapshot_path().exists(), "rename never happened");
    let recovered = accounts_db(IsolationLevel::ReadCommitted);
    let info = recovered.recover(wal.clone()).unwrap();
    assert_eq!(info.snapshot_ts, 0);
    assert_eq!(recovered.table_rows("accounts").unwrap(), live_rows);
    cleanup(&[dir]);
}

/// Savepoint round trip through the WAL: only the effects that survived
/// `ROLLBACK TO` reach the redo log, and the replayed state matches the
/// live engine row-for-row.
#[test]
fn savepoint_partial_rollback_replays_committed_effects_only() {
    let dir = scratch_dir("savepoint");
    let wal = WalConfig::new(&dir);
    let db = accounts_db(IsolationLevel::ReadCommitted);
    db.attach_wal(wal.clone()).unwrap();

    let mut conn = db.connect();
    conn.execute("BEGIN").unwrap();
    conn.execute("INSERT INTO accounts (balance) VALUES (11)")
        .unwrap();
    conn.execute("SAVEPOINT a").unwrap();
    conn.execute("INSERT INTO accounts (balance) VALUES (22)")
        .unwrap();
    conn.execute("UPDATE accounts SET balance = 0 WHERE id = 1")
        .unwrap();
    conn.execute("ROLLBACK TO SAVEPOINT a").unwrap();
    conn.execute("INSERT INTO accounts (balance) VALUES (33)")
        .unwrap();
    conn.execute("RELEASE SAVEPOINT a").unwrap();
    // Unknown savepoint is a statement-level error; the transaction (and
    // its surviving writes) stays open and commits normally.
    let err = conn
        .execute("ROLLBACK TO SAVEPOINT nope")
        .expect_err("unknown mark");
    assert!(matches!(err, DbError::UnknownSavepoint(_)), "got {err}");
    assert!(
        conn.in_transaction(),
        "statement-level error keeps the txn open"
    );
    conn.execute("COMMIT").unwrap();

    let live_rows = db.table_rows("accounts").unwrap();
    let balances: Vec<_> = live_rows.iter().map(|r| r[1].clone()).collect();
    assert!(balances.contains(&Value::Int(11)));
    assert!(balances.contains(&Value::Int(33)));
    assert!(!balances.contains(&Value::Int(22)), "rolled back");
    assert!(
        balances.contains(&Value::Int(100)),
        "id 1 update rolled back"
    );
    drop(conn);
    drop(db);

    let recovered = accounts_db(IsolationLevel::ReadCommitted);
    let info = recovered.recover(wal.clone()).unwrap();
    assert_eq!(info.commits_replayed, 1, "one commit record for the txn");
    assert_eq!(recovered.table_rows("accounts").unwrap(), live_rows);
    cleanup(&[dir]);
}

/// Group commit under real concurrency: many threads' autocommit writes
/// race through the flush-leader protocol, the leader batches (with a
/// 1 ms device latency, commits pile up behind each fsync), and the
/// recovered store holds every acknowledged write.
#[test]
fn group_commit_under_threads_recovers_every_acknowledged_write() {
    const THREADS: usize = 4;
    const ITERS: usize = 25;
    let dir = scratch_dir("group-threads");
    let wal = WalConfig::new(&dir).with_fsync_delay(Duration::from_millis(1));
    let db = accounts_db(IsolationLevel::ReadCommitted);
    db.attach_wal(wal.clone()).unwrap();
    db.enable_metrics();

    thread::scope(|s| {
        for t in 0..THREADS {
            let mut conn = db.connect();
            s.spawn(move || {
                let id = if t % 2 == 0 { 1 } else { 2 };
                for _ in 0..ITERS {
                    conn.execute(&format!(
                        "UPDATE accounts SET balance = balance + 1 WHERE id = {id}"
                    ))
                    .unwrap();
                }
            });
        }
    });
    let live_rows = db.table_rows("accounts").unwrap();
    let report = db.metrics_report();
    assert_eq!(report.counters.wal_appends, (THREADS * ITERS) as u64);
    assert!(
        report.counters.wal_fsyncs < report.counters.wal_appends,
        "the flush leader never batched: {} fsyncs for {} commits",
        report.counters.wal_fsyncs,
        report.counters.wal_appends
    );
    assert!(
        report.group_commit.max_nanos > 1,
        "no fsync covered more than one commit"
    );
    drop(db);

    let recovered = accounts_db(IsolationLevel::ReadCommitted);
    let info = recovered.recover(wal.clone()).unwrap();
    assert_eq!(
        info.commits_replayed,
        (THREADS * ITERS) as u64,
        "every acknowledged commit is on disk"
    );
    assert_eq!(recovered.table_rows("accounts").unwrap(), live_rows);
    cleanup(&[dir]);
}

/// A session committing alone is its own flush leader: every commit
/// record gets its own fsync before the statement is acknowledged (the
/// durability a separate per-commit mode used to provide).
#[test]
fn lone_session_fsyncs_every_commit() {
    let dir = scratch_dir("lone-session");
    let wal = WalConfig::new(&dir);
    let db = accounts_db(IsolationLevel::ReadCommitted);
    db.attach_wal(wal.clone()).unwrap();
    db.enable_metrics();

    let mut conn = db.connect();
    for _ in 0..6 {
        conn.execute("UPDATE accounts SET balance = balance + 1 WHERE id = 1")
            .unwrap();
    }
    let report = db.metrics_report();
    assert_eq!(report.counters.wal_appends, 6);
    assert_eq!(
        report.counters.wal_fsyncs, 6,
        "a lone session has nobody to batch with"
    );
    assert_eq!(report.group_commit.count(), 6);
    assert_eq!(
        report.group_commit.max_nanos, 1,
        "every batch is a single commit"
    );
    assert!(report.counters.wal_bytes > 0);
    cleanup(&[dir]);
}
