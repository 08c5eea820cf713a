//! Every lookup the storefront apps make into a growing table is served by
//! an index.
//!
//! `cart_items`, `orders`, `order_items`, `voucher_applications`,
//! `stock_adjustments` and `app_locks` grow with every call, so a lookup
//! that scans one of them gets slower for as long as a store runs. The
//! `products` catalogue is the exception: it holds two rows, and the apps'
//! `id IN (..)` lists and join sides over it are left to scan. A scan
//! probes once per table it reads, so a statement may fall back at most
//! once per `products` access — which still holds the `cart_items` side of
//! the cart joins to its index.

use std::collections::BTreeMap;

use acidrain_apps::mix::ADD_TENTHS;
use acidrain_apps::prelude::*;
use acidrain_db::{Database, IsolationLevel};
use acidrain_sql::rwset::statement_accesses;
use acidrain_sql::{parse_statement, statement_template};

/// The store the shop workloads start from: the sample store, with stock
/// raised so that checkouts take the success path.
fn fresh_store() -> std::sync::Arc<Database> {
    let db = Database::new(shop_schema(), IsolationLevel::ReadCommitted);
    seed_store(&db);
    let mut admin = db.connect();
    admin
        .execute("UPDATE products SET stock = 1000000000")
        .unwrap();
    admin
        .execute("UPDATE stock_adjustments SET amount = 1000000000")
        .unwrap();
    drop(admin);
    db.take_log();
    db
}

/// The storefront mix's add/checkout ratio on one app: seven in ten calls
/// put a pen or a laptop into one of five carts, the rest check a cart out
/// plainly. One voucher checkout at the end reaches the voucher
/// tables, which the mix itself never does.
fn run_mix(app: &dyn ShopApp, conn: &mut dyn SqlConn) {
    let mut state = 0xac1d_u64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        state >> 33
    };
    for _ in 0..60 {
        let cart = 1 + (next() % 5) as i64;
        let product = if next() % 2 == 0 { PEN } else { LAPTOP };
        let result = if next() % 10 < ADD_TENTHS {
            app.add_to_cart(conn, cart, product, 1)
        } else {
            app.checkout(conn, cart, &CheckoutRequest::plain())
                .map(|_| ())
        };
        check(app, result);
    }
    check(app, app.add_to_cart(conn, 6, PEN, 1));
    let voucher = CheckoutRequest::with_voucher(VOUCHER_CODE);
    check(app, app.checkout(conn, 6, &voucher).map(|_| ()));
}

fn check(app: &dyn ShopApp, result: AppResult<()>) {
    match result {
        Ok(()) | Err(AppError::Rejected(_)) | Err(AppError::Unsupported(_)) => {}
        Err(AppError::Db(e)) => panic!("{}: {e}", app.name()),
    }
}

#[test]
fn shop_lookups_into_growing_tables_never_fall_back_to_a_scan() {
    let schema = shop_schema();
    let mut scans = Vec::new();
    for app in all_apps() {
        app.reset_session_state();
        let db = fresh_store();
        run_mix(app.as_ref(), &mut db.connect());

        // One statement per template, re-run on the grown store.
        let mut templates = BTreeMap::new();
        for entry in db.take_log() {
            let template = statement_template(&entry.sql).unwrap().text;
            templates.entry(template).or_insert(entry.sql);
        }
        db.enable_metrics();
        let mut checked = 0;
        for (template, sql) in templates {
            let stmt = parse_statement(&sql).unwrap();
            let accesses = statement_accesses(&stmt, &schema);
            if accesses.is_empty() {
                continue;
            }
            let catalogue = accesses.iter().filter(|a| a.table == "products").count();
            let before = db.obs().counters().index_fallbacks;
            db.connect().execute(&sql).unwrap();
            let fallbacks = db.obs().counters().index_fallbacks - before;
            if fallbacks > catalogue as u64 {
                scans.push(format!("{}: {template} ({fallbacks} scans)", app.name()));
            }
            checked += 1;
        }
        assert!(checked > 0, "{}: no statement checked", app.name());
    }
    assert!(scans.is_empty(), "full scans:\n{}", scans.join("\n"));
}
