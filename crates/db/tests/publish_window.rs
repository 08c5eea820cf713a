//! Regression stress for the commit "publish window".
//!
//! A commit stamps its versions under the owning tables' *read* latches
//! (stamps are atomic words), then stores `commit_ts`, then releases its
//! row locks. A statement can therefore hold a clock bound below stamps
//! already present in its table — and, because readers share the latch
//! with the committer, a whole commit fits inside one scan. Every current
//! read ("latest committed version, then lock it") must re-verify after
//! its lock grants (`exec.rs::current_read`); without that, an
//! UPDATE/DELETE identifies an already-ended version as current and
//! clobbers the committer's end stamp, INSERT's unique check misses a
//! stamped-but-unpublished duplicate, and a locking SELECT returns the
//! value from before the commit whose lock release granted it the row.
//!
//! These tests can't force the window deterministically; they hammer it
//! from many threads and assert invariants that the races break. The
//! corruption also trips `debug_assert`s in `publish_commit`, so a hit
//! fails the test by panic in debug builds even when the end state happens
//! to look consistent.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use acidrain_db::{Database, DbError, IsolationLevel, Value};
use acidrain_sql::schema::{ColumnDef, ColumnType, Schema, TableSchema};

/// `account_db` plus a `tag` column no index covers, holding the hot row
/// (`id = 1`, `tag = 7`, slot 0) followed by `FILLER` cold rows. The wide
/// table and the unindexed predicate are what widen the window: a
/// `WHERE tag = 7` scan reads the hot row first and then walks every
/// filler row before it requests the row lock, so concurrent commits on
/// the hot row land between the read and the grant.
fn wide_account_db(default_isolation: IsolationLevel) -> Arc<Database> {
    const FILLER: i64 = 3000;
    let schema = Schema::new().with_table(TableSchema::new(
        "account",
        vec![
            ColumnDef::new("id", ColumnType::Int).unique(),
            ColumnDef::new("balance", ColumnType::Int),
            ColumnDef::new("tag", ColumnType::Int),
        ],
    ));
    let db = Database::new(schema, default_isolation);
    let mut rows = vec![vec![Value::Int(1), Value::Int(0), Value::Int(7)]];
    rows.extend((2..=FILLER + 1).map(|id| vec![Value::Int(id), Value::Int(0), Value::Int(0)]));
    db.seed("account", rows).unwrap();
    db
}

fn account_db(default_isolation: IsolationLevel) -> Arc<Database> {
    let schema = Schema::new().with_table(TableSchema::new(
        "account",
        vec![
            ColumnDef::new("id", ColumnType::Int).unique(),
            ColumnDef::new("balance", ColumnType::Int),
        ],
    ));
    Database::new(schema, default_isolation)
}

/// Autocommit read-modify-write increments on one hot row from many
/// threads: every granted update must apply on top of the previous
/// committed version, so the final balance equals the number of successful
/// statements. A straddled commit loses an increment (and trips the
/// publish-time `debug_assert`).
#[test]
fn hot_row_updates_never_straddle_commits() {
    for isolation in [
        IsolationLevel::ReadCommitted,
        IsolationLevel::MySqlRepeatableRead,
    ] {
        const THREADS: usize = 4;
        const ITERS: usize = 400;
        let db = account_db(isolation);
        db.seed("account", vec![vec![Value::Int(1), Value::Int(0)]])
            .unwrap();

        let successes: usize = thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let mut conn = db.connect();
                    s.spawn(move || {
                        let mut ok = 0usize;
                        for _ in 0..ITERS {
                            match conn
                                .execute("UPDATE account SET balance = balance + 1 WHERE id = 1")
                            {
                                Ok(rs) => {
                                    assert_eq!(rs.affected_rows(), 1, "{isolation}");
                                    ok += 1;
                                }
                                Err(e) => panic!("unexpected error under {isolation}: {e}"),
                            }
                        }
                        ok
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });

        assert_eq!(successes, THREADS * ITERS, "{isolation}");
        let rows = db.table_rows("account").unwrap();
        assert_eq!(rows.len(), 1, "{isolation}");
        assert_eq!(
            rows[0][1],
            Value::Int((THREADS * ITERS) as i64),
            "{isolation}"
        );
        assert_eq!(db.active_transactions(), 0);
        assert_eq!(db.locked_resources(), 0);
    }
}

/// Updates racing delete/re-insert cycles on the same row: a current-read
/// update that straddles a committed delete would resurrect the row (or
/// corrupt its chain); the unique-insert check racing a stamped-but-
/// unpublished insert would admit a duplicate id.
#[test]
fn update_delete_reinsert_races_keep_one_row() {
    const UPDATERS: usize = 2;
    const CYCLERS: usize = 2;
    const ITERS: usize = 300;
    let db = account_db(IsolationLevel::ReadCommitted);
    db.seed("account", vec![vec![Value::Int(1), Value::Int(0)]])
        .unwrap();

    thread::scope(|s| {
        for _ in 0..UPDATERS {
            let mut conn = db.connect();
            s.spawn(move || {
                for _ in 0..ITERS {
                    // Affects 0 rows whenever the row is deleted; must
                    // never resurrect a deleted version.
                    conn.execute("UPDATE account SET balance = balance + 1 WHERE id = 1")
                        .unwrap();
                }
            });
        }
        for _ in 0..CYCLERS {
            let mut conn = db.connect();
            s.spawn(move || {
                for _ in 0..ITERS {
                    conn.execute("DELETE FROM account WHERE id = 1").unwrap();
                    // Two cyclers race the re-insert; the unique check must
                    // admit exactly one of them.
                    match conn.execute("INSERT INTO account (id, balance) VALUES (1, 0)") {
                        Ok(_) | Err(DbError::ConstraintViolation(_)) => {}
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            });
        }
    });

    let rows = db.table_rows("account").unwrap();
    assert!(
        rows.len() <= 1,
        "unique id duplicated or row resurrected: {rows:?}"
    );
    assert_eq!(db.active_transactions(), 0);
    assert_eq!(db.locked_resources(), 0);
}

/// Per round, every thread races to insert the same fresh unique id;
/// exactly one insert may win even when the winner's commit is stamped
/// but not yet published when a loser runs its duplicate check.
#[test]
fn unique_insert_races_admit_exactly_one_winner() {
    const THREADS: usize = 4;
    const ROUNDS: i64 = 250;
    let db = account_db(IsolationLevel::ReadCommitted);

    let wins: usize = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let mut conn = db.connect();
                s.spawn(move || {
                    let mut won = 0usize;
                    for id in 1..=ROUNDS {
                        match conn.execute(&format!(
                            "INSERT INTO account (id, balance) VALUES ({id}, 0)"
                        )) {
                            Ok(_) => won += 1,
                            Err(DbError::ConstraintViolation(_)) => {}
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                    won
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    assert_eq!(wins, ROUNDS as usize, "duplicate unique ids admitted");
    let rows = db.table_rows("account").unwrap();
    assert_eq!(rows.len(), ROUNDS as usize);
    let mut ids: Vec<i64> = rows
        .iter()
        .map(|r| match r[0] {
            Value::Int(v) => v,
            ref other => panic!("non-int id {other:?}"),
        })
        .collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), ROUNDS as usize, "duplicate ids in table");
    assert_eq!(db.active_transactions(), 0);
    assert_eq!(db.locked_resources(), 0);
}

/// `SELECT ... FOR UPDATE` is the paper's fix for the lost update (Figure
/// 1): the value it returns must be the one the granted lock protects.
/// Two threads run the locked read-modify-write as explicit transactions
/// against two autocommit incrementers; at every level the final balance
/// must equal the number of acknowledged increments (under Snapshot
/// Isolation first-updater-wins may abort some — those are not counted).
#[test]
fn for_update_read_modify_write_loses_no_update() {
    const ITERS: usize = 150;
    for isolation in IsolationLevel::ALL {
        let db = wide_account_db(isolation);
        let acknowledged: i64 = thread::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..2 {
                let mut conn = db.connect();
                handles.push(s.spawn(move || {
                    (0..ITERS)
                        .filter(|_| {
                            conn.execute("UPDATE account SET balance = balance + 1 WHERE id = 1")
                                .is_ok()
                        })
                        .count() as i64
                }));
            }
            for _ in 0..2 {
                let mut conn = db.connect();
                handles.push(s.spawn(move || {
                    let mut ok = 0;
                    for _ in 0..ITERS {
                        conn.execute("BEGIN").unwrap();
                        let step = conn
                            .query_scalar("SELECT balance FROM account WHERE tag = 7 FOR UPDATE")
                            .and_then(|read| match read {
                                Some(Value::Int(balance)) => conn.execute(&format!(
                                    "UPDATE account SET balance = {} WHERE id = 1",
                                    balance + 1
                                )),
                                other => panic!("hot row vanished under {isolation}: {other:?}"),
                            })
                            .and_then(|_| conn.execute("COMMIT"));
                        match step {
                            Ok(_) => ok += 1,
                            Err(e) if e.aborts_transaction() => {}
                            Err(e) => panic!("unexpected error under {isolation}: {e}"),
                        }
                    }
                    ok
                }));
            }
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let rows = db.table_rows("account").unwrap();
        assert_eq!(
            rows[0][1],
            Value::Int(acknowledged),
            "lost update under {isolation}"
        );
        assert_eq!(db.active_transactions(), 0);
        assert_eq!(db.locked_resources(), 0);
    }
}

/// At REPEATABLE READ a row read once is S-locked until commit, so a
/// second read of it in the same transaction must agree with the first —
/// which only holds if the first read returned the value its lock
/// protects, not the one from before the grant.
#[test]
fn repeatable_read_reads_agree_within_a_transaction() {
    /// Stops the updater however the reader's loop ends, panics included.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    const ITERS: usize = 200;
    let db = wide_account_db(IsolationLevel::RepeatableRead);
    let done = &AtomicBool::new(false);
    thread::scope(|s| {
        let mut writer = db.connect();
        s.spawn(move || {
            while !done.load(Ordering::Relaxed) {
                writer
                    .execute("UPDATE account SET balance = balance + 1 WHERE id = 1")
                    .unwrap();
            }
        });
        let _stop = StopOnDrop(done);
        let mut reader = db.connect();
        for _ in 0..ITERS {
            reader.execute("BEGIN").unwrap();
            let scanned = reader
                .query_i64("SELECT balance FROM account WHERE tag = 7")
                .unwrap();
            let probed = reader
                .query_i64("SELECT balance FROM account WHERE id = 1")
                .unwrap();
            reader.execute("COMMIT").unwrap();
            assert_eq!(scanned, probed, "non-repeatable read at REPEATABLE READ");
        }
    });
    assert_eq!(db.active_transactions(), 0);
    assert_eq!(db.locked_resources(), 0);
}
