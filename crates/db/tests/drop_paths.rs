//! Connection drop-path regression suite.
//!
//! A [`Connection`] that vanishes mid-transaction — an in-process handle
//! dropped on an error path, or a network session whose socket went away —
//! must be indistinguishable from an explicit `ROLLBACK`: versions undone,
//! row locks released, waiters woken, GC snapshot pins dropped, and the
//! query log left with an `Aborted` terminator so observed-history
//! analysis discards the dead transaction's statements. Before the fix,
//! locks and pins were released but the log carried no marker, so lifted
//! histories treated the rolled-back writes as live.

use std::sync::Arc;
use std::time::{Duration, Instant};

use acidrain_db::{Database, IsolationLevel, StmtOutcome, Value};
use acidrain_sql::schema::{ColumnDef, ColumnType, Schema, TableSchema};

fn accounts_db(isolation: IsolationLevel) -> Arc<Database> {
    let schema = Schema::new().with_table(TableSchema::new(
        "accounts",
        vec![
            ColumnDef::new("id", ColumnType::Int).unique(),
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

/// Dropping a connection with an open writing transaction rolls the
/// writes back, releases every row lock, and leaves no active
/// transaction — at every isolation level.
#[test]
fn drop_mid_txn_rolls_back_and_releases_locks() {
    for level in IsolationLevel::ALL {
        let db = accounts_db(level);
        let mut victim = db.connect();
        victim.execute("BEGIN").unwrap();
        victim
            .execute("UPDATE accounts SET balance = balance - 60 WHERE id = 1")
            .unwrap();
        victim.execute("SAVEPOINT sp1").unwrap();
        victim
            .execute("UPDATE accounts SET balance = balance + 60 WHERE id = 2")
            .unwrap();
        assert_eq!(db.active_transactions(), 1, "{level:?}");
        assert!(db.locked_resources() > 0, "{level:?}");

        drop(victim);

        assert_eq!(db.active_transactions(), 0, "{level:?}: txn leaked");
        assert_eq!(db.locked_resources(), 0, "{level:?}: row locks leaked");
        let mut check = db.connect();
        assert_eq!(
            check
                .query_i64("SELECT balance FROM accounts WHERE id = 1")
                .unwrap(),
            100,
            "{level:?}: write survived the drop"
        );
        assert_eq!(
            check
                .query_i64("SELECT balance FROM accounts WHERE id = 2")
                .unwrap(),
            100,
            "{level:?}: post-savepoint write survived the drop"
        );
    }
}

/// The drop appends a synthetic `ROLLBACK` with an `Aborted` outcome so
/// lifting discards the dead transaction's statements.
#[test]
fn drop_mid_txn_logs_aborted_terminator() {
    let db = accounts_db(IsolationLevel::ReadCommitted);
    let mut victim = db.connect();
    victim.execute("BEGIN").unwrap();
    victim
        .execute("UPDATE accounts SET balance = balance - 1 WHERE id = 1")
        .unwrap();
    let session = victim.session_id();
    drop(victim);

    let entries = db.log_entries();
    let last = entries
        .iter()
        .rfind(|e| e.session == session)
        .expect("victim session logged statements");
    assert_eq!(&*last.sql, "ROLLBACK");
    assert_eq!(
        last.outcome,
        StmtOutcome::Aborted,
        "drop must terminate the session's log with an Aborted marker"
    );
}

/// A clean drop (no open transaction) adds no synthetic log entry.
#[test]
fn clean_drop_logs_nothing() {
    let db = accounts_db(IsolationLevel::ReadCommitted);
    let mut conn = db.connect();
    conn.query_i64("SELECT balance FROM accounts WHERE id = 1")
        .unwrap();
    let before = db.log_entries().len();
    drop(conn);
    assert_eq!(db.log_entries().len(), before);
    assert_eq!(db.active_transactions(), 0);
}

/// A waiter blocked on the victim's row lock wakes as soon as the victim
/// drops — well within the lock-wait deadline, not by exhausting it.
#[test]
fn waiter_wakes_when_holder_drops() {
    let db = accounts_db(IsolationLevel::ReadCommitted);
    db.set_lock_wait_timeout(Duration::from_secs(30));
    let mut victim = db.connect();
    victim.execute("BEGIN").unwrap();
    victim
        .execute("UPDATE accounts SET balance = balance - 1 WHERE id = 1")
        .unwrap();

    let waiter_db = Arc::clone(&db);
    let waiter = std::thread::spawn(move || {
        let mut conn = waiter_db.connect();
        let start = Instant::now();
        let result = conn.execute("UPDATE accounts SET balance = balance + 1 WHERE id = 1");
        (result, start.elapsed())
    });

    // Give the waiter time to park on the lock table, then vanish.
    std::thread::sleep(Duration::from_millis(100));
    drop(victim);

    let (result, waited) = waiter.join().unwrap();
    assert!(result.is_ok(), "waiter failed: {result:?}");
    assert!(
        waited < Duration::from_secs(10),
        "waiter took {waited:?}; should wake on drop, not on timeout"
    );
    assert_eq!(db.locked_resources(), 0);
}

/// Dropping a transaction that pinned a transaction-long snapshot (SI /
/// MySQL-RR) releases the GC pin: a subsequent GC pass reclaims versions
/// the dead snapshot was holding.
#[test]
fn drop_releases_gc_snapshot_pin() {
    for level in [
        IsolationLevel::SnapshotIsolation,
        IsolationLevel::MySqlRepeatableRead,
    ] {
        let db = accounts_db(level);
        db.set_gc_interval(0); // manual GC only
        let mut pinner = db.connect();
        pinner.execute("BEGIN").unwrap();
        // First read pins the transaction-long snapshot.
        pinner
            .query_i64("SELECT balance FROM accounts WHERE id = 1")
            .unwrap();

        // Pile up versions the pinned snapshot can still see.
        let mut writer = db.connect();
        for _ in 0..20 {
            writer
                .execute("UPDATE accounts SET balance = balance + 1 WHERE id = 2")
                .unwrap();
        }
        db.gc();
        let (live_pinned, _) = db.version_stats();

        drop(pinner);
        db.gc();
        let (live_after, chain_after) = db.version_stats();
        assert!(
            live_after < live_pinned,
            "{level:?}: GC reclaimed nothing after the pin dropped \
             ({live_pinned} -> {live_after})"
        );
        assert_eq!(chain_after, 1, "{level:?}: chains should collapse to tip");
    }
}

/// Session accounting: connects raise `open_sessions`, drops lower it.
#[test]
fn open_sessions_counts_connects_and_drops() {
    let db = accounts_db(IsolationLevel::ReadCommitted);
    assert_eq!(db.open_sessions(), 0);
    let a = db.connect();
    let b = db.connect();
    assert_eq!(db.open_sessions(), 2);
    drop(a);
    assert_eq!(db.open_sessions(), 1);
    let c = db.connect();
    assert_eq!(db.open_sessions(), 2);
    drop((b, c));
    assert_eq!(db.open_sessions(), 0);
}
