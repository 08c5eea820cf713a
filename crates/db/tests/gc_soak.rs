//! Epoch-based version-GC soaks: sustained update workloads must not grow
//! version chains without bound at any isolation level, and a long-lived
//! transaction snapshot must pin exactly the versions it can still see —
//! nothing older, and never the live tip.

use acidrain_db::{Database, IsolationLevel, Value};
use acidrain_sql::schema::{ColumnDef, ColumnType, Schema, TableSchema};

fn counter_db(isolation: IsolationLevel) -> std::sync::Arc<Database> {
    let schema = Schema::new().with_table(TableSchema::new(
        "counter",
        vec![
            ColumnDef::new("id", ColumnType::Int).unique(),
            ColumnDef::new("n", ColumnType::Int),
        ],
    ));
    let db = Database::new(schema, isolation);
    db.seed("counter", vec![vec![Value::Int(1), Value::Int(0)]])
        .unwrap();
    db
}

/// Sustained updates to one row at every isolation level: with GC firing
/// on the commit-interval trigger, the slot's version chain stays bounded
/// by the interval instead of growing linearly with update count.
#[test]
fn sustained_updates_keep_chains_bounded_at_all_levels() {
    const UPDATES: usize = 400;
    const GC_INTERVAL: u64 = 16;
    for level in IsolationLevel::ALL {
        let db = counter_db(level);
        db.set_gc_interval(GC_INTERVAL);
        let mut c = db.connect();
        for _ in 0..UPDATES {
            c.execute("UPDATE counter SET n = n + 1 WHERE id = 1")
                .unwrap();
        }
        let (live, max_chain) = db.version_stats();
        // Between GC passes at most GC_INTERVAL new versions accumulate
        // on top of the one live version (plus slack for the pass that
        // ran before the most recent updates).
        let bound = 2 * GC_INTERVAL as usize + 2;
        assert!(
            max_chain <= bound,
            "{level:?}: chain grew to {max_chain} (> {bound}) over {UPDATES} updates"
        );
        assert!(live <= bound, "{level:?}: {live} live versions (> {bound})");
        assert_eq!(
            c.query_i64("SELECT n FROM counter WHERE id = 1").unwrap(),
            UPDATES as i64
        );
    }
}

/// An explicit `gc()` with no pinned snapshots collapses every chain to
/// its visible tip and reports the reclaimed count.
#[test]
fn explicit_gc_collapses_chains() {
    let db = counter_db(IsolationLevel::ReadCommitted);
    // Never trigger automatically; this test drives GC by hand.
    db.set_gc_interval(u64::MAX);
    let mut c = db.connect();
    for _ in 0..50 {
        c.execute("UPDATE counter SET n = n + 1 WHERE id = 1")
            .unwrap();
    }
    let (live_before, chain_before) = db.version_stats();
    assert!(chain_before > 10, "precondition: chain built up");
    let stats = db.gc();
    assert_eq!(stats.reclaimed, live_before - 1);
    assert_eq!(stats.live_versions, 1);
    assert_eq!(stats.max_chain, 1);
    assert_eq!(
        c.query_i64("SELECT n FROM counter WHERE id = 1").unwrap(),
        50
    );
}

/// A long-lived transaction snapshot (MySQL-RR here; SI behaves the same)
/// pins its snapshot timestamp: GC keeps the version that snapshot reads
/// plus everything newer, but the moment the reader commits, a later pass
/// reclaims the whole superseded tail.
#[test]
fn long_lived_snapshot_pins_only_what_it_sees() {
    for level in [
        IsolationLevel::MySqlRepeatableRead,
        IsolationLevel::SnapshotIsolation,
    ] {
        let db = counter_db(level);
        db.set_gc_interval(u64::MAX);
        let mut writer = db.connect();
        // Build history the reader must NOT see pinned: these versions
        // are superseded before the snapshot exists.
        for _ in 0..10 {
            writer
                .execute("UPDATE counter SET n = n + 1 WHERE id = 1")
                .unwrap();
        }
        let mut reader = db.connect();
        reader.execute("BEGIN").unwrap();
        // First data statement pins the transaction snapshot.
        assert_eq!(
            reader
                .query_i64("SELECT n FROM counter WHERE id = 1")
                .unwrap(),
            10
        );
        // More updates the snapshot must not observe.
        for _ in 0..10 {
            writer
                .execute("UPDATE counter SET n = n + 1 WHERE id = 1")
                .unwrap();
        }
        let stats = db.gc();
        // Everything superseded before the pinned snapshot is gone; the
        // snapshot's own version and the newer tail survive.
        assert!(
            stats.reclaimed >= 9,
            "{level:?}: pre-snapshot history kept ({} reclaimed)",
            stats.reclaimed
        );
        let (_, chain) = db.version_stats();
        assert!(
            chain >= 2,
            "{level:?}: the pinned snapshot's version was reclaimed"
        );
        // The reader still sees its snapshot value.
        assert_eq!(
            reader
                .query_i64("SELECT n FROM counter WHERE id = 1")
                .unwrap(),
            10
        );
        reader.execute("COMMIT").unwrap();
        // Pin released: the next pass collapses to the live tip.
        let stats = db.gc();
        assert!(stats.reclaimed >= 1, "{level:?}: release freed nothing");
        assert_eq!(stats.max_chain, 1, "{level:?}");
        assert_eq!(
            writer
                .query_i64("SELECT n FROM counter WHERE id = 1")
                .unwrap(),
            20
        );
    }
}

/// Uncommitted writers block reclamation of their chains (undo indices
/// must stay valid) but release them on rollback.
#[test]
fn gc_skips_active_writers_until_they_finish() {
    let db = counter_db(IsolationLevel::ReadCommitted);
    db.set_gc_interval(u64::MAX);
    let mut setup = db.connect();
    for _ in 0..5 {
        setup
            .execute("UPDATE counter SET n = n + 1 WHERE id = 1")
            .unwrap();
    }
    let mut writer = db.connect();
    writer.execute("BEGIN").unwrap();
    writer
        .execute("UPDATE counter SET n = 100 WHERE id = 1")
        .unwrap();
    let stats = db.gc();
    assert_eq!(
        stats.reclaimed, 0,
        "chain with an uncommitted version must be skipped"
    );
    writer.execute("ROLLBACK").unwrap();
    let stats = db.gc();
    assert!(stats.reclaimed >= 4, "rollback unblocked reclamation");
    assert_eq!(
        setup
            .query_i64("SELECT n FROM counter WHERE id = 1")
            .unwrap(),
        5
    );
}

/// Autocommit snapshot reads (point and range) race writers that commit
/// two-step updates (`a`, then `b`, to the same new value, in one explicit
/// transaction) with a GC pass after every commit. Every read must see each
/// row exactly once with `a == b` — a pass that pruned a version a reader
/// could still see would make the row vanish or expose the half-done step
/// — and nothing may stay pinned or open afterwards.
#[test]
fn autocommit_snapshot_reads_race_gc() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const ROWS: i64 = 8;
    const TXNS_PER_WRITER: i64 = 600;
    const WRITERS: i64 = 2;
    for level in [
        IsolationLevel::SnapshotIsolation,
        IsolationLevel::MySqlRepeatableRead,
    ] {
        let schema = Schema::new().with_table(TableSchema::new(
            "pair",
            vec![
                ColumnDef::new("id", ColumnType::Int).unique(),
                ColumnDef::new("a", ColumnType::Int),
                ColumnDef::new("b", ColumnType::Int),
            ],
        ));
        let db = Database::new(schema, level);
        db.seed(
            "pair",
            (1..=ROWS)
                .map(|id| vec![Value::Int(id), Value::Int(0), Value::Int(0)])
                .collect(),
        )
        .unwrap();
        db.set_gc_interval(1);
        let done = Arc::new(AtomicBool::new(false));

        // Each writer owns the rows `id % WRITERS == w`, so writers never
        // conflict and every transaction commits.
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    let mut c = db.connect();
                    for k in 1..=TXNS_PER_WRITER {
                        let id = (k * WRITERS + w) % ROWS + 1;
                        c.execute("BEGIN").unwrap();
                        c.execute(&format!("UPDATE pair SET a = {k} WHERE id = {id}"))
                            .unwrap();
                        c.execute(&format!("UPDATE pair SET b = {k} WHERE id = {id}"))
                            .unwrap();
                        c.execute("COMMIT").unwrap();
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|r| {
                let (db, done) = (Arc::clone(&db), Arc::clone(&done));
                std::thread::spawn(move || {
                    let mut c = db.connect();
                    let mut reads = 0u64;
                    let check = |row: &[Value], what: &str| {
                        assert_eq!(row[1], row[2], "{level}: {what} saw a half-done update");
                    };
                    while !done.load(Ordering::Acquire) || reads == 0 {
                        let id = (reads as i64 + r) % ROWS + 1;
                        let point = c
                            .execute(&format!("SELECT id, a, b FROM pair WHERE id = {id}"))
                            .unwrap();
                        assert_eq!(point.len(), 1, "{level}: row {id} vanished");
                        check(&point.rows[0], "a point read");
                        let range = c
                            .execute("SELECT id, a, b FROM pair WHERE id BETWEEN 1 AND 8")
                            .unwrap();
                        let ids: Vec<&Value> = range.rows.iter().map(|row| &row[0]).collect();
                        let expected: Vec<Value> = (1..=ROWS).map(Value::Int).collect();
                        assert!(
                            ids.iter().copied().eq(&expected),
                            "{level}: a range read saw rows {ids:?}"
                        );
                        for row in &range.rows {
                            check(row, "a range read");
                        }
                        reads += 1;
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Release);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(db.pinned_snapshots(), 0, "{level}");
        assert_eq!(db.active_transactions(), 0, "{level}");
        for row in db.table_rows("pair").unwrap() {
            assert_eq!(row[1], row[2], "{level}: final row {row:?}");
        }
    }
}
