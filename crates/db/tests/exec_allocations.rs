//! Allocation budget for executing the benchmark's hot statements.
//!
//! Every statement of every API call runs parse → plan → execute → log, so
//! an allocation the executor makes per statement or per matched row is
//! paid on every call. A counting global allocator pins how many heap
//! allocations one `execute_parsed` of each shape makes after a warm-up
//! call of the same shape: what the statement returns (its `ResultSet`),
//! its query-log entry, its index probe's slots and the few pieces of
//! per-statement scratch. A budget that grows means the executor started
//! copying rows or building per-row scratch again.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use acidrain_apps::prelude::{seed_store, shop_schema};
use acidrain_db::{Connection, Database, IsolationLevel, Value};
use acidrain_sql::parse_statement;
use acidrain_sql::schema::{ColumnDef, ColumnType, Schema, TableSchema};

struct Counting;

thread_local! {
    /// Allocations made by this thread. Counting per thread keeps the
    /// harness's other threads out of the figure.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Rows of the catalog: the price column is a permutation of `1..=ROWS`,
/// so a 20-wide price window holds exactly 20 rows.
const CATALOG_ROWS: i64 = 1000;

/// The catalog of the read workload: autocommit snapshot reads at SI
/// through the unique `id` and the indexed `price`.
fn catalog() -> Arc<Database> {
    let schema = Schema::new().with_table(TableSchema::new(
        "catalog",
        vec![
            ColumnDef::new("id", ColumnType::Int).unique(),
            ColumnDef::new("price", ColumnType::Int).indexed(),
            ColumnDef::new("name", ColumnType::Str),
        ],
    ));
    let db = Database::new(schema, IsolationLevel::SnapshotIsolation);
    db.seed(
        "catalog",
        (1..=CATALOG_ROWS)
            .map(|id| {
                vec![
                    Value::Int(id),
                    Value::Int((id * 31) % CATALOG_ROWS + 1),
                    Value::Str(format!("item-{id}")),
                ]
            })
            .collect(),
    )
    .unwrap();
    db
}

/// The sample store at the storefront's level, with a three-line cart 7.
fn shop() -> Arc<Database> {
    let db = Database::new(shop_schema(), IsolationLevel::MySqlRepeatableRead);
    seed_store(&db);
    let mut c = db.connect();
    for product in [1, 2, 1] {
        c.execute(&format!(
            "INSERT INTO cart_items (cart_id, product_id, qty) VALUES (7, {product}, 1)"
        ))
        .unwrap();
    }
    db
}

/// Heap allocations (and reallocations) one autocommit `execute_parsed`
/// of `sql` makes, after one warm-up execution. The query log is drained
/// before the measured call, so its entry always lands in a fresh shard.
fn allocations(db: &Arc<Database>, conn: &mut Connection, sql: &str) -> u64 {
    let stmt = parse_statement(sql).unwrap();
    conn.execute_parsed(&stmt, sql).unwrap();
    db.take_log();
    let before = ALLOCATIONS.with(Cell::get);
    let result = conn.execute_parsed(&stmt, sql).unwrap();
    let after = ALLOCATIONS.with(Cell::get);
    drop(result);
    after - before
}

/// The hot shapes and the allocations one execution of each makes. Before
/// matches named their rows instead of copying them, each statement built
/// one scratch and the lock manager reused its emptied vectors, the same
/// five took 29 / 128 / 48 / 17 / 29. A lower count is an
/// improvement: lower the pin with it. The counts are the same in debug
/// and release builds (the debug latch-order checker's stack is warm after
/// the first call).
const CATALOG_BUDGETS: [(&str, u64); 2] = [
    ("SELECT id, price, name FROM catalog WHERE id = 500", 18),
    (
        "SELECT id, price FROM catalog WHERE price BETWEEN 100 AND 119",
        41,
    ),
];

const SHOP_BUDGETS: [(&str, u64); 3] = [
    (
        "SELECT ci.product_id, ci.qty, p.price FROM cart_items AS ci INNER JOIN products \
         AS p ON p.id = ci.product_id WHERE ci.cart_id = 7 ORDER BY ci.id ASC",
        24,
    ),
    (
        "INSERT INTO cart_items (cart_id, product_id, qty) VALUES (7, 1, 2)",
        13,
    ),
    ("UPDATE products SET stock = stock - 2 WHERE id = 1", 18),
];

#[test]
fn hot_statements_execute_within_their_allocation_budget() {
    let mut measured = Vec::new();
    let db = catalog();
    let mut conn = db.connect();
    for (sql, _) in CATALOG_BUDGETS {
        measured.push((sql, allocations(&db, &mut conn, sql)));
    }
    let db = shop();
    // No GC pass inside a measured call: its sweep is not the statement's.
    db.set_gc_interval(0);
    let mut conn = db.connect();
    for (sql, _) in SHOP_BUDGETS {
        measured.push((sql, allocations(&db, &mut conn, sql)));
    }
    let budgets: Vec<(&str, u64)> = CATALOG_BUDGETS.into_iter().chain(SHOP_BUDGETS).collect();
    assert_eq!(measured, budgets, "allocations to execute each shape");
}
