//! Integration tests for the fault-injection layer, cutting across the
//! stack: injected aborts must roll back cleanly (no leaked locks or
//! transactions), the retry layer must converge under sustained abort
//! rates, and the query log's record of aborted attempts must be visible
//! to — but discounted by — 2AD trace lifting.

use std::sync::Arc;

use acidrain_apps::{RetryConfig, RetryConn, RetryPolicy, SqlConn};
use acidrain_core::lift_trace;
use acidrain_db::{Database, DbError, FaultConfig, IsolationLevel, StmtOutcome, Value};
use acidrain_sql::parse_statement;
use acidrain_sql::schema::{ColumnDef, ColumnType, Schema, TableSchema};

fn schema() -> Schema {
    Schema::new().with_table(TableSchema::new(
        "accounts",
        vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("balance", ColumnType::Int),
        ],
    ))
}

fn bank() -> Arc<Database> {
    let db = Database::new(schema(), IsolationLevel::ReadCommitted);
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

#[test]
fn injected_deadlocks_roll_back_cleanly() {
    let db = bank();
    db.enable_faults(FaultConfig::seeded(1).with_deadlock(1.0));

    let mut conn = db.connect();
    conn.execute("BEGIN").unwrap();
    let err = conn
        .execute("UPDATE accounts SET balance = 0 WHERE id = 1")
        .unwrap_err();
    assert_eq!(err, DbError::Deadlock);

    // The whole transaction was rolled back: no open transaction, no
    // leaked locks, and the victim's prior writes are gone.
    assert_eq!(db.active_transactions(), 0);
    assert_eq!(db.locked_resources(), 0);

    // A fresh connection can lock and update the same rows immediately.
    db.disable_faults();
    let mut other = db.connect();
    other
        .execute("UPDATE accounts SET balance = 50 WHERE id = 1")
        .unwrap();
    assert_eq!(db.table_rows("accounts").unwrap()[0][1], Value::Int(50));
}

#[test]
fn injected_lock_timeout_releases_waiters() {
    let db = bank();
    db.enable_faults(FaultConfig::seeded(2).with_lock_timeout(1.0));

    let mut conn = db.connect();
    conn.execute("BEGIN").unwrap();
    let err = conn
        .execute("SELECT balance FROM accounts WHERE id = 1 FOR UPDATE")
        .unwrap_err();
    assert_eq!(err, DbError::LockTimeout);
    assert_eq!(db.active_transactions(), 0);
    assert_eq!(db.locked_resources(), 0);
}

#[test]
fn retry_conn_converges_under_thirty_percent_aborts() {
    let db = bank();
    db.enable_faults(
        FaultConfig::seeded(7)
            .with_deadlock(0.20)
            .with_write_conflict(0.10),
    );

    const TRANSFERS: i64 = 40;
    let mut conn = RetryConn::new(
        db.connect(),
        RetryConfig::no_sleep(RetryPolicy::RetryTxn, 64),
    );
    for _ in 0..TRANSFERS {
        conn.exec("BEGIN").unwrap();
        conn.exec("UPDATE accounts SET balance = balance - 1 WHERE id = 1")
            .unwrap();
        conn.exec("UPDATE accounts SET balance = balance + 1 WHERE id = 2")
            .unwrap();
        conn.exec("COMMIT").unwrap();
    }

    // Every transfer committed exactly once despite the abort rate, and
    // money was conserved.
    let rows = db.table_rows("accounts").unwrap();
    assert_eq!(rows[0][1], Value::Int(100 - TRANSFERS));
    assert_eq!(rows[1][1], Value::Int(100 + TRANSFERS));
    assert!(
        db.fault_stats().total_injected() > 0,
        "the abort rate must actually have fired: {:?}",
        db.fault_stats()
    );
    assert!(conn.stats().txn_replays > 0);
    assert_eq!(db.active_transactions(), 0);
    assert_eq!(db.locked_resources(), 0);
}

#[test]
fn log_records_aborted_attempts_and_lifting_discounts_them() {
    let db = bank();

    // First attempt: every data statement is a deadlock victim.
    db.enable_faults(FaultConfig::seeded(3).with_deadlock(1.0));
    let mut conn = db.connect();
    conn.set_api("transfer", 0);
    conn.execute("BEGIN").unwrap();
    conn.execute("UPDATE accounts SET balance = balance - 10 WHERE id = 1")
        .unwrap_err();

    // Retry fault-free under the same API tag (what RetryConn does).
    db.disable_faults();
    conn.execute("BEGIN").unwrap();
    conn.execute("UPDATE accounts SET balance = balance - 10 WHERE id = 1")
        .unwrap();
    conn.execute("UPDATE accounts SET balance = balance + 10 WHERE id = 2")
        .unwrap();
    conn.execute("COMMIT").unwrap();
    drop(conn);

    let log = db.log_entries();
    let aborted: Vec<_> = log
        .iter()
        .filter(|e| e.outcome == StmtOutcome::Aborted)
        .collect();
    assert_eq!(
        aborted.len(),
        1,
        "the deadlocked UPDATE must be logged as aborted: {log:#?}"
    );
    assert!(aborted[0].sql.contains("balance - 10"));

    // Lifting sees the aborted attempt but counts only the committed
    // transaction: one explicit txn with both UPDATE ops.
    let trace = lift_trace(&log, &schema()).unwrap();
    assert_eq!(trace.api_calls.len(), 1);
    let call = &trace.api_calls[0];
    assert_eq!(call.name, "transfer");
    assert_eq!(
        call.txns.len(),
        1,
        "the aborted attempt must not appear as a committed txn: {call:#?}"
    );
    assert!(call.txns[0].explicit);
    assert_eq!(call.txns[0].ops.len(), 2);
}

#[test]
fn fixed_seed_fault_sequences_are_reproducible() {
    let run = |seed: u64| {
        let db = bank();
        db.enable_faults(FaultConfig::seeded(seed).with_deadlock(0.3));
        let mut conn = RetryConn::new(
            db.connect(),
            RetryConfig::no_sleep(RetryPolicy::RetryTxn, 64),
        );
        for _ in 0..20 {
            conn.exec("UPDATE accounts SET balance = balance + 1 WHERE id = 1")
                .unwrap();
        }
        (db.fault_stats(), conn.stats(), db.log_entries().len())
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5).0, run(6).0, "different seeds diverge");
}

#[test]
fn a_parsed_statement_executes_exactly_as_its_text() {
    // `try_execute_parsed(&parse(sql)?, sql)` is `try_execute(sql)`: the
    // same results, the same query log and the same fault draws, under a
    // fault channel that fires. A statement that does not parse fails
    // before the engine sees it on both paths: no log line, no fault draw.
    let script = [
        "BEGIN",
        "UPDATE accounts SET balance = balance - 10 WHERE id = 1",
        "SELECT balance FROM accounts WHERE id = 1",
        "SELEC balance FROM accounts",
        "UPDATE accounts SET balance = balance + 10 WHERE id = 2",
        "COMMIT",
        "INSERT INTO accounts (id, balance) VALUES (3, 5)",
        "SELECT SUM(balance) FROM accounts",
        "UPDATE accounts SET balance = 0 WHERE id = 3",
    ];
    let run = |parsed: bool| {
        let db = bank();
        db.enable_faults(FaultConfig::seeded(3).with_deadlock(0.3));
        let mut conn = db.connect();
        conn.set_api("transfer", 0);
        let results: Vec<_> = (0..3)
            .flat_map(|_| script)
            .map(|sql| {
                if parsed {
                    parse_statement(sql)
                        .map_err(DbError::from)
                        .and_then(|stmt| conn.try_execute_parsed(&stmt, sql))
                } else {
                    conn.try_execute(sql)
                }
            })
            .collect();
        let log = db.take_log();
        (results, log, db.fault_stats(), db.table_rows("accounts"))
    };
    let (text, parsed) = (run(false), run(true));
    assert_eq!(text, parsed);
    let (results, log, stats, _) = text;
    assert!(stats.injected_deadlocks > 0, "no fault fired: {stats:?}");
    let broken = results
        .iter()
        .filter(|r| matches!(r, Err(DbError::Parse(_))))
        .count();
    assert_eq!(broken, 3);
    assert_eq!(stats.statements_seen as usize, results.len() - broken);
    assert!(log.iter().all(|e| !e.sql.starts_with("SELEC ")), "{log:?}");
}
