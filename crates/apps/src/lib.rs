//! # acidrain-apps
//!
//! The simulated application corpus for the ACIDRain reproduction
//! (Warszawski & Bailis, SIGMOD 2017, §4): twelve eCommerce applications
//! whose endpoints issue the same SQL access patterns — transaction
//! scoping, `SELECT FOR UPDATE` usage, single-vs-double cart reads,
//! revalidation, session locking, in-database mutexes — that the paper
//! documents per application, plus the paper's didactic examples (the
//! Figure-1 bank, the Figure-3 payroll app, the Figure-9 mini-shop), the
//! three target invariants (Table 3), and the Table 1 / Table 5 oracles.
//!
//! ```
//! use acidrain_apps::prelude::*;
//! use acidrain_db::IsolationLevel;
//!
//! let app = PrestaShop;
//! let db = app.make_store(IsolationLevel::ReadCommitted);
//! let mut conn = db.connect();
//! app.add_to_cart(&mut conn, 1, PEN, 2).unwrap();
//! let order = app.checkout(&mut conn, 1, &CheckoutRequest::plain()).unwrap();
//! assert!(order > 0);
//! check_cart(&db).unwrap();
//! ```

#![warn(missing_docs)]

pub mod booking;
pub mod corpus;
pub mod didactic;
pub mod endpoints;
pub mod flexcoin;
pub mod framework;
pub mod invariants;
pub mod java;
pub mod php;
pub mod python;
pub mod repair;
pub mod retry;
pub mod ruby;

pub use corpus::{all_apps, expected_row, Cell, CorpusEntry, ExpectedRow, TABLE1, TABLE5};
pub use endpoints::{
    all_surfaces, booking_surfaces, corpus_surfaces, didactic_surfaces, flexcoin_surface,
    AppSurface, Scenario, INVENTORY_QTY,
};
pub use framework::{
    observed_request, AppError, AppResult, CheckoutRequest, FeatureStatus, Language, ShopApp,
    SqlConn, StockModel,
};
pub use invariants::{check_cart, check_inventory, check_voucher, Violation};
pub use repair::{can_repair, is_transaction_control_sql, Repair, Repaired};
pub use retry::{RetryConfig, RetryConn, RetryPolicy, RetryStats};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::corpus::{all_apps, expected_row, Cell, TABLE1, TABLE5};
    pub use crate::endpoints::{
        all_surfaces, corpus_surfaces, AppSurface, Scenario, INVENTORY_QTY,
    };
    pub use crate::framework::{
        clear_cart, insert_order, insert_order_items, observed_request, query_i64, read_cart,
        read_cart_total, seed_store, shop_schema, AppError, AppResult, CheckoutRequest,
        FeatureStatus, Language, ShopApp, SqlConn, StockModel, LAPTOP, LAPTOP_PRICE, LAPTOP_STOCK,
        PEN, PEN_PRICE, PEN_STOCK, VOUCHER_CODE, VOUCHER_ID, VOUCHER_LIMIT,
    };
    pub use crate::invariants::{check_cart, check_inventory, check_voucher, Violation};
    pub use crate::java::{Broadleaf, Shopizer};
    pub use crate::php::{Magento, OpenCart, PrestaShop, WooCommerce};
    pub use crate::python::{LightningFastShop, Oscar, Saleor};
    pub use crate::retry::{RetryConfig, RetryConn, RetryPolicy, RetryStats};
    pub use crate::ruby::{RorEcommerce, Shoppe, Spree};
}
