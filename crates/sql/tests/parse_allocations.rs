//! Allocation budget for `parse_statement` on the shop's hot statements.
//!
//! Every statement an application issues is parsed once on the engine
//! path, so an allocation per keyword test or per consumed token is paid
//! on every call. A counting global allocator pins how many heap
//! allocations one parse of each shape makes; a budget that grows means
//! the parser started copying again.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use acidrain_sql::parse_statement;

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

/// Heap allocations (and reallocations) one `parse_statement(sql)` makes.
fn allocations(sql: &str) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let stmt = parse_statement(sql).expect("shop statement parses");
    let after = ALLOCATIONS.with(Cell::get);
    drop(stmt);
    after - before
}

/// The shop's hot shapes and the allocations one parse of each makes: the
/// token vector, plus what the AST keeps. Before the parser compared
/// keywords in place and moved token text into the AST, the same four took
/// 4 / 137 / 29 / 40; before identifier tokens borrowed the statement text,
/// 2 / 42 / 14 / 15. A lower count is an improvement: lower the pin with
/// it.
const BUDGETS: [(&str, u64); 4] = [
    ("BEGIN", 1),
    (
        "SELECT ci.product_id, ci.qty, p.price FROM cart_items AS ci INNER JOIN products \
         AS p ON p.id = ci.product_id WHERE ci.cart_id = 7 ORDER BY ci.id ASC",
        27,
    ),
    (
        "INSERT INTO cart_items (cart_id, product_id, qty) VALUES (7, 1, 2)",
        8,
    ),
    ("UPDATE products SET stock = stock - 2 WHERE id = 1", 10),
];

#[test]
fn shop_statements_parse_within_their_allocation_budget() {
    // Measure every shape before comparing, so a failure shows them all.
    let measured: Vec<(&str, u64)> = BUDGETS
        .iter()
        .map(|&(sql, _)| (sql, allocations(sql)))
        .collect();
    assert_eq!(measured, BUDGETS, "allocations to parse each shape");
}
