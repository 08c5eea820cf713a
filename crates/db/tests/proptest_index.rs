//! Differential property test for the index read path: two stores take
//! the same statements, one routing predicates through the indexes and
//! one with `set_use_indexes(false)` (the reference full scan), and must
//! agree on every result, every error, every `FOR UPDATE` lock count and
//! the final table.
//!
//! The engine does not enforce column types, so the indexed columns here
//! really do hold numerics, strings and NULL side by side — both
//! keyspaces of one index — and the literals are the ones whose keys
//! coincide or sit at a keyspace edge: `0` / `-0.0`, `2` / `2.0` / `'2'`,
//! `TRUE` / `1`, `''`, and two integers one `f64` apart.

use std::sync::Arc;

use proptest::prelude::*;

use acidrain_db::{Connection, Database, IsolationLevel, ResultSet};
use acidrain_sql::schema::{ColumnDef, ColumnType, Schema, TableSchema};

const LITERALS: [&str; 19] = [
    "NULL",
    "0",
    "-0.0",
    "1",
    "2",
    "2.0",
    "2.5",
    "3",
    "5",
    "7",
    "9007199254740992",
    "9007199254740993",
    "TRUE",
    "FALSE",
    "''",
    "'2'",
    "'a'",
    "'m'",
    "'z'",
];

/// `k` and `s` are declared-indexed, `u` is unique (index-backed, and its
/// duplicate check probes on INSERT), `v` has no index.
const COLUMNS: [&str; 4] = ["k", "s", "u", "v"];

fn schema() -> Schema {
    Schema::new().with_table(TableSchema::new(
        "t",
        vec![
            ColumnDef::new("id", ColumnType::Int).auto_increment(),
            ColumnDef::new("k", ColumnType::Int).indexed(),
            ColumnDef::new("s", ColumnType::Str).indexed(),
            ColumnDef::new("u", ColumnType::Int).unique(),
            ColumnDef::new("v", ColumnType::Int),
        ],
    ))
}

fn literal() -> impl Strategy<Value = &'static str> {
    (0..LITERALS.len()).prop_map(|i| LITERALS[i])
}

fn column() -> impl Strategy<Value = &'static str> {
    (0..COLUMNS.len()).prop_map(|i| COLUMNS[i])
}

/// One comparison, either way round, or a (NOT) BETWEEN.
fn atom() -> impl Strategy<Value = String> {
    let op = (0..6usize).prop_map(|i| ["=", "<", "<=", ">", ">=", "<>"][i]);
    prop_oneof![
        (column(), op.clone(), literal()).prop_map(|(c, op, l)| format!("{c} {op} {l}")),
        (literal(), op, column()).prop_map(|(l, op, c)| format!("{l} {op} {c}")),
        (column(), literal(), literal()).prop_map(|(c, a, b)| format!("{c} BETWEEN {a} AND {b}")),
        (column(), literal(), literal())
            .prop_map(|(c, a, b)| format!("{c} NOT BETWEEN {a} AND {b}")),
    ]
}

fn predicate() -> impl Strategy<Value = String> {
    prop_oneof![
        atom(),
        (atom(), atom()).prop_map(|(a, b)| format!("{a} AND {b}")),
        (atom(), atom(), atom()).prop_map(|(a, b, c)| format!("{a} AND {b} AND {c}")),
        (atom(), atom()).prop_map(|(a, b)| format!("{a} OR {b}")),
        (atom(), atom(), atom()).prop_map(|(a, b, c)| format!("{a} AND ({b} OR {c})")),
        // Two conjuncts on one column: a point beside a range, an inverted
        // pair, a range with an other-keyspace or NULL bound.
        Just("k > 3 AND k = 5".to_string()),
        Just("k < 3 AND k > 7".to_string()),
        Just("k >= 2 AND k <= 'm'".to_string()),
        Just("s >= '' AND s < NULL".to_string()),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    /// A statement both stores execute.
    Sql(String),
    /// A locking read, wrapped in its own transaction when none is open.
    ForUpdate(String),
    /// `Database::gc()`: prunes ended versions and unwinds their entries.
    Gc,
}

fn op() -> impl Strategy<Value = Op> {
    let insert = || {
        (literal(), literal(), literal(), literal()).prop_map(|(k, s, u, v)| {
            Op::Sql(format!(
                "INSERT INTO t (k, s, u, v) VALUES ({k}, {s}, {u}, {v})"
            ))
        })
    };
    let update = ((0..2usize), literal(), predicate())
        .prop_map(|(c, l, p)| format!("UPDATE t SET {} = {l} WHERE {p}", COLUMNS[c]));
    let select = || predicate().prop_map(|p| format!("SELECT * FROM t WHERE {p}"));
    prop_oneof![
        insert(),
        insert(),
        update.prop_map(Op::Sql),
        predicate().prop_map(|p| Op::Sql(format!("DELETE FROM t WHERE {p}"))),
        select().prop_map(Op::Sql),
        select().prop_map(Op::Sql),
        select().prop_map(Op::Sql),
        predicate().prop_map(Op::ForUpdate),
        Just(Op::Sql("BEGIN".to_string())),
        Just(Op::Sql("COMMIT".to_string())),
        Just(Op::Sql("ROLLBACK".to_string())),
        Just(Op::Gc),
    ]
}

/// The indexed store and the reference store, driven in lockstep.
struct Twins {
    dbs: [Arc<Database>; 2],
    conns: [Connection; 2],
}

impl Twins {
    fn new() -> Self {
        let dbs = [true, false].map(|use_indexes| {
            let db = Database::new(schema(), IsolationLevel::ReadCommitted);
            db.set_use_indexes(use_indexes);
            db
        });
        let conns = [dbs[0].connect(), dbs[1].connect()];
        Twins { dbs, conns }
    }

    /// Execute on both; they must agree on the rows or on the error.
    fn execute(&mut self, sql: &str) -> Result<ResultSet, String> {
        let [indexed, scanned] = self
            .conns
            .each_mut()
            .map(|conn| conn.execute(sql).map_err(|e| e.to_string()));
        assert_eq!(indexed, scanned, "{sql}");
        indexed
    }

    fn assert_same_locks(&self, sql: &str) {
        let [indexed, scanned] = self.dbs.each_ref().map(|db| db.locked_resources());
        assert_eq!(indexed, scanned, "locks after {sql}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn index_path_agrees_with_the_reference_scan(
        ops in proptest::collection::vec(op(), 1..60)
    ) {
        let mut twins = Twins::new();
        for op in &ops {
            match op {
                Op::Sql(sql) => {
                    let _ = twins.execute(sql);
                    twins.assert_same_locks(sql);
                }
                Op::ForUpdate(predicate) => {
                    let own_txn = !twins.conns[0].in_transaction();
                    if own_txn {
                        twins.execute("BEGIN").unwrap();
                    }
                    let sql = format!("SELECT * FROM t WHERE {predicate} FOR UPDATE");
                    let _ = twins.execute(&sql);
                    twins.assert_same_locks(&sql);
                    if own_txn {
                        twins.execute("ROLLBACK").unwrap();
                    }
                }
                Op::Gc => {
                    let [indexed, scanned] = twins.dbs.each_ref().map(|db| db.gc().reclaimed);
                    prop_assert_eq!(indexed, scanned);
                }
            }
        }
        for conn in &mut twins.conns {
            conn.rollback_open();
        }
        let [indexed, scanned] = twins.dbs.each_ref().map(|db| db.table_rows("t").unwrap());
        prop_assert_eq!(indexed, scanned);
        // Every probe shape once more over the settled table.
        for column in COLUMNS {
            for literal in LITERALS {
                for op in ["=", "<", "<=", ">", ">=", "<>"] {
                    let _ = twins.execute(&format!("SELECT id FROM t WHERE {column} {op} {literal}"));
                }
            }
        }
    }
}
