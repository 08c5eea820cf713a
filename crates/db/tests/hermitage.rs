//! Hermitage-style isolation tests (the methodology the paper's footnote 6
//! cites — https://github.com/ept/hermitage): classic anomaly scenarios
//! executed against every isolation level, asserting exactly which levels
//! admit which phenomena.
//!
//! Level cheat-sheet for this substrate:
//!
//! | anomaly              | RU | RC | MySQL-RR | RR | SI | Ser |
//! |----------------------|----|----|----------|----|----|-----|
//! | G0 dirty write       | no | no | no       | no | no | no  |
//! | G1a aborted read     | YES| no | no       | no | no | no  |
//! | G1b intermediate read| YES| no | no       | no | no | no  |
//! | PMP phantom re-read  | YES| YES| no¹      | YES| no¹| no  |
//! | P4 lost update       | YES| YES| YES      | no | no | no  |
//! | G-single read skew   | YES| YES| no¹      | no²| no¹| no  |
//! | G2-item write skew   | YES| YES| YES      | no²| YES| no  |
//!
//! ¹ snapshot reads;  ² blocked/deadlocked by read locks (this RR is
//! PL-2.99 via shared item locks, stronger than MySQL's namesake).

use std::sync::Arc;

use acidrain_db::{Database, DbError, IsolationLevel, Value};
use acidrain_sql::schema::{ColumnDef, ColumnType, Schema, TableSchema};

fn db(isolation: IsolationLevel) -> Arc<Database> {
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

fn value(db: &Database, id: i64) -> i64 {
    db.table_rows("test")
        .unwrap()
        .iter()
        .find(|r| r[0] == Value::Int(id))
        .map(|r| r[1].as_i64().unwrap())
        .unwrap_or(i64::MIN)
}

/// G0: dirty writes are prevented everywhere (write locks till commit).
#[test]
fn g0_dirty_write_prevented_at_every_level() {
    for level in IsolationLevel::ALL {
        let d = db(level);
        let mut t1 = d.connect();
        let mut t2 = d.connect();
        t1.execute("BEGIN").unwrap();
        t2.execute("BEGIN").unwrap();
        t1.execute("UPDATE test SET value = 11 WHERE id = 1")
            .unwrap();
        // T2's write to the same row must block, not interleave.
        let blocked = t2.try_execute("UPDATE test SET value = 12 WHERE id = 1");
        assert!(
            matches!(blocked, Err(DbError::WouldBlock { .. })),
            "{level}"
        );
        t1.execute("COMMIT").unwrap();
        let retry = t2.try_execute("UPDATE test SET value = 12 WHERE id = 1");
        if level == IsolationLevel::SnapshotIsolation {
            // First-updater-wins: the row changed after T2's implied
            // snapshot, so T2 aborts — still no dirty write.
            assert!(matches!(retry, Err(DbError::WriteConflict(_))), "{level}");
            assert_eq!(value(&d, 1), 11, "{level}: T1's write stands");
        } else {
            retry.unwrap();
            t2.execute("COMMIT").unwrap();
            assert_eq!(value(&d, 1), 12, "{level}: writes serialized");
        }
    }
}

/// G1a: reading data from a transaction that later aborts.
#[test]
fn g1a_aborted_read_only_at_read_uncommitted() {
    for level in IsolationLevel::ALL {
        let d = db(level);
        let mut t1 = d.connect();
        let mut t2 = d.connect();
        t1.execute("BEGIN").unwrap();
        t1.execute("UPDATE test SET value = 101 WHERE id = 1")
            .unwrap();
        if level.read_locks_items() {
            // Locking-read levels cannot even read the dirty row; the
            // read blocks until T1 resolves.
            let blocked = t2.try_execute("SELECT value FROM test WHERE id = 1");
            assert!(
                matches!(blocked, Err(DbError::WouldBlock { .. })),
                "{level}"
            );
            t1.execute("ROLLBACK").unwrap();
            assert_eq!(
                t2.query_i64("SELECT value FROM test WHERE id = 1").unwrap(),
                10
            );
            continue;
        }
        let seen = t2.query_i64("SELECT value FROM test WHERE id = 1").unwrap();
        t1.execute("ROLLBACK").unwrap();
        let expected_dirty = level == IsolationLevel::ReadUncommitted;
        assert_eq!(seen == 101, expected_dirty, "{level}: saw {seen}");
        assert_eq!(value(&d, 1), 10, "{level}: rollback restored");
    }
}

/// G1b: reading an intermediate (not final) value of a transaction.
#[test]
fn g1b_intermediate_read_only_at_read_uncommitted() {
    for level in IsolationLevel::ALL {
        let d = db(level);
        let mut t1 = d.connect();
        let mut t2 = d.connect();
        t1.execute("BEGIN").unwrap();
        t1.execute("UPDATE test SET value = 101 WHERE id = 1")
            .unwrap();
        if level.read_locks_items() {
            let blocked = t2.try_execute("SELECT value FROM test WHERE id = 1");
            assert!(
                matches!(blocked, Err(DbError::WouldBlock { .. })),
                "{level}"
            );
            t1.execute("UPDATE test SET value = 11 WHERE id = 1")
                .unwrap();
            t1.execute("COMMIT").unwrap();
            assert_eq!(
                t2.query_i64("SELECT value FROM test WHERE id = 1").unwrap(),
                11
            );
            continue;
        }
        let seen = t2.query_i64("SELECT value FROM test WHERE id = 1").unwrap();
        t1.execute("UPDATE test SET value = 11 WHERE id = 1")
            .unwrap();
        t1.execute("COMMIT").unwrap();
        let expected_dirty = level == IsolationLevel::ReadUncommitted;
        assert_eq!(seen == 101, expected_dirty, "{level}: saw {seen}");
        assert_eq!(value(&d, 1), 11, "{level}");
    }
}

/// PMP: a predicate re-read observes rows inserted by a concurrent,
/// committed transaction (phantom).
#[test]
fn pmp_phantom_envelope() {
    for level in IsolationLevel::ALL {
        let d = db(level);
        let mut t1 = d.connect();
        let mut t2 = d.connect();
        t1.execute("BEGIN").unwrap();
        let before = t1
            .query_i64("SELECT COUNT(*) FROM test WHERE value > 0")
            .unwrap();
        assert_eq!(before, 2, "{level}");

        let insert = t2.try_execute("INSERT INTO test (id, value) VALUES (3, 30)");
        if level == IsolationLevel::Serializable {
            // The predicate read holds a shared table lock.
            assert!(matches!(insert, Err(DbError::WouldBlock { .. })), "{level}");
            t1.execute("COMMIT").unwrap();
            continue;
        }
        insert.unwrap_or_else(|e| panic!("{level}: {e}"));

        let after = t1
            .query_i64("SELECT COUNT(*) FROM test WHERE value > 0")
            .unwrap();
        t1.execute("COMMIT").unwrap();
        let phantom_expected = matches!(
            level,
            IsolationLevel::ReadUncommitted
                | IsolationLevel::ReadCommitted
                | IsolationLevel::RepeatableRead
        );
        assert_eq!(
            after == 3,
            phantom_expected,
            "{level}: re-read saw {after} rows"
        );
    }
}

/// P4: the classic lost update via read-compute-write.
#[test]
fn p4_lost_update_envelope() {
    for level in IsolationLevel::ALL {
        let d = db(level);
        let mut t1 = d.connect();
        let mut t2 = d.connect();
        t1.execute("BEGIN").unwrap();
        t2.execute("BEGIN").unwrap();
        let v1 = t1.query_i64("SELECT value FROM test WHERE id = 1").unwrap();
        let v2 = t2.query_i64("SELECT value FROM test WHERE id = 1").unwrap();
        assert_eq!((v1, v2), (10, 10), "{level}");

        // T1 writes and commits first.
        let w1 = t1.try_execute(&format!("UPDATE test SET value = {} WHERE id = 1", v1 + 5));
        match level {
            IsolationLevel::RepeatableRead | IsolationLevel::Serializable => {
                // Lock-based levels: T1 blocks on T2's shared lock.
                assert!(matches!(w1, Err(DbError::WouldBlock { .. })), "{level}");
                // T2's own upgrade closes the cycle: deadlock, T2 aborts.
                let w2 =
                    t2.try_execute(&format!("UPDATE test SET value = {} WHERE id = 1", v2 + 5));
                assert!(matches!(w2, Err(DbError::Deadlock)), "{level}");
                t1.try_execute(&format!("UPDATE test SET value = {} WHERE id = 1", v1 + 5))
                    .unwrap();
                t1.execute("COMMIT").unwrap();
                assert_eq!(value(&d, 1), 15, "{level}: exactly one increment");
            }
            IsolationLevel::SnapshotIsolation => {
                w1.unwrap();
                t1.execute("COMMIT").unwrap();
                // First-committer-wins: T2's write conflicts.
                let w2 =
                    t2.try_execute(&format!("UPDATE test SET value = {} WHERE id = 1", v2 + 5));
                assert!(matches!(w2, Err(DbError::WriteConflict(_))), "{level}");
                assert_eq!(value(&d, 1), 15, "{level}");
            }
            _ => {
                w1.unwrap();
                t1.execute("COMMIT").unwrap();
                t2.try_execute(&format!("UPDATE test SET value = {} WHERE id = 1", v2 + 5))
                    .unwrap();
                t2.execute("COMMIT").unwrap();
                assert_eq!(value(&d, 1), 15, "{level}: T1's update was LOST");
            }
        }
    }
}

/// G-single (read skew): reading two items straddling another
/// transaction's commit.
#[test]
fn g_single_read_skew_envelope() {
    for level in IsolationLevel::ALL {
        let d = db(level);
        let mut t1 = d.connect();
        let mut t2 = d.connect();
        t1.execute("BEGIN").unwrap();
        let x = t1.query_i64("SELECT value FROM test WHERE id = 1").unwrap();
        assert_eq!(x, 10, "{level}");

        // T2 moves 5 from id=1 to id=2 and commits.
        t2.execute("BEGIN").unwrap();
        let moved = (|| -> Result<(), DbError> {
            t2.try_execute("UPDATE test SET value = 5 WHERE id = 1")?;
            t2.try_execute("UPDATE test SET value = 25 WHERE id = 2")?;
            t2.execute("COMMIT")?;
            Ok(())
        })();
        if matches!(
            level,
            IsolationLevel::RepeatableRead | IsolationLevel::Serializable
        ) {
            // T1's read lock on id=1 blocks the transfer entirely.
            assert!(moved.is_err(), "{level}");
            let y = t1.query_i64("SELECT value FROM test WHERE id = 2").unwrap();
            assert_eq!(x + y, 30, "{level}: consistent");
            t1.execute("COMMIT").unwrap();
            continue;
        }
        moved.unwrap();
        let y = t1.query_i64("SELECT value FROM test WHERE id = 2").unwrap();
        t1.execute("COMMIT").unwrap();
        let skew_expected = matches!(
            level,
            IsolationLevel::ReadUncommitted | IsolationLevel::ReadCommitted
        );
        // Consistent states sum to 30 (10+20 before, 5+25 after).
        assert_eq!(x + y != 30, skew_expected, "{level}: x={x} y={y}");
    }
}

/// G2-item (write skew): disjoint read-write pairs that are jointly
/// inconsistent.
#[test]
fn g2_item_write_skew_envelope() {
    for level in [
        IsolationLevel::ReadCommitted,
        IsolationLevel::MySqlRepeatableRead,
        IsolationLevel::SnapshotIsolation,
    ] {
        let d = db(level);
        let mut t1 = d.connect();
        let mut t2 = d.connect();
        // Invariant the application intends: value(1) + value(2) >= 25.
        t1.execute("BEGIN").unwrap();
        t2.execute("BEGIN").unwrap();
        let sum1 = t1
            .query_i64("SELECT SUM(value) FROM test WHERE id IN (1, 2)")
            .unwrap();
        let sum2 = t2
            .query_i64("SELECT SUM(value) FROM test WHERE id IN (1, 2)")
            .unwrap();
        assert_eq!((sum1, sum2), (30, 30), "{level}");
        // Each withdraws 10 from a different row — individually fine.
        t1.execute("UPDATE test SET value = 0 WHERE id = 1")
            .unwrap();
        t2.execute("UPDATE test SET value = 10 WHERE id = 2")
            .unwrap();
        t1.execute("COMMIT").unwrap();
        t2.execute("COMMIT").unwrap();
        // Write skew: final sum 10 < 25 though both checks passed.
        assert_eq!(
            value(&d, 1) + value(&d, 2),
            10,
            "{level}: write skew manifests"
        );
    }

    // Serializable prevents it: the predicate reads take table locks, so
    // one writer deadlocks or waits.
    let d = db(IsolationLevel::Serializable);
    let mut t1 = d.connect();
    let mut t2 = d.connect();
    t1.execute("BEGIN").unwrap();
    t2.execute("BEGIN").unwrap();
    t1.query_i64("SELECT SUM(value) FROM test WHERE id IN (1, 2)")
        .unwrap();
    t2.query_i64("SELECT SUM(value) FROM test WHERE id IN (1, 2)")
        .unwrap();
    let w1 = t1.try_execute("UPDATE test SET value = 0 WHERE id = 1");
    assert!(matches!(w1, Err(DbError::WouldBlock { .. })));
    let w2 = t2.try_execute("UPDATE test SET value = 10 WHERE id = 2");
    assert!(matches!(w2, Err(DbError::Deadlock)));
    t1.try_execute("UPDATE test SET value = 0 WHERE id = 1")
        .unwrap();
    t1.execute("COMMIT").unwrap();
    assert_eq!(value(&d, 1) + value(&d, 2), 20, "one withdrawal only");
}

/// MySQL-RR's split personality (paper footnote 6): repeatable snapshot
/// reads, but writes behave like Read Committed.
#[test]
fn mysql_rr_footnote6() {
    let d = db(IsolationLevel::MySqlRepeatableRead);
    let mut t1 = d.connect();
    let mut t2 = d.connect();
    t1.execute("BEGIN").unwrap();
    assert_eq!(
        t1.query_i64("SELECT value FROM test WHERE id = 1").unwrap(),
        10
    );
    t2.execute("UPDATE test SET value = 99 WHERE id = 1")
        .unwrap();
    // The read is repeatable...
    assert_eq!(
        t1.query_i64("SELECT value FROM test WHERE id = 1").unwrap(),
        10
    );
    // ...but a relative update acts on the current committed value.
    t1.execute("UPDATE test SET value = value + 1 WHERE id = 1")
        .unwrap();
    t1.execute("COMMIT").unwrap();
    assert_eq!(value(&d, 1), 100, "update applied over T2's committed 99");
}

/// An autocommit UPDATE that parks on a row lock keeps the snapshot it
/// drew on its first attempt. At SI that first snapshot predates the
/// holder's commit, so first-updater-wins aborts the retry; at MySQL-RR
/// the retry's current read applies over the committed value. Pinning
/// only explicit transactions' snapshots would let the retry draw a fresh
/// one at SI and silently lose the conflict.
#[test]
fn blocked_autocommit_update_keeps_its_first_snapshot() {
    for (level, outcome) in [
        (IsolationLevel::SnapshotIsolation, None),
        (IsolationLevel::MySqlRepeatableRead, Some(11)),
    ] {
        let d = db(level);
        d.set_lock_wait_timeout(std::time::Duration::from_secs(30));
        d.enable_metrics();
        let mut a = d.connect();
        a.execute("UPDATE test SET value = 0 WHERE id = 1").unwrap();
        a.execute("BEGIN").unwrap();
        a.execute("UPDATE test SET value = value + 1 WHERE id = 1")
            .unwrap();

        let blocked_before = d.obs().counters().blocked_attempts;
        let b_db = Arc::clone(&d);
        let b = std::thread::spawn(move || {
            b_db.connect()
                .execute("UPDATE test SET value = value + 10 WHERE id = 1")
        });
        // B's first attempt has drawn its snapshot and parked.
        while d.obs().counters().blocked_attempts == blocked_before {
            std::thread::yield_now();
        }
        a.execute("COMMIT").unwrap();

        let result = b.join().unwrap();
        match outcome {
            None => {
                assert!(
                    matches!(result, Err(DbError::WriteConflict(_))),
                    "{level}: {result:?}"
                );
                assert_eq!(value(&d, 1), 1, "{level}: A's write stands alone");
            }
            Some(v) => {
                assert_eq!(result.unwrap().affected_rows(), 1, "{level}");
                assert_eq!(value(&d, 1), v, "{level}: B applied over A");
            }
        }
        assert_eq!(d.pinned_snapshots(), 0, "{level}");
        assert_eq!(d.active_transactions(), 0, "{level}");
    }
}
