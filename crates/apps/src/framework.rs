//! Common scaffolding for the simulated application corpus: the connection
//! abstraction endpoints run against, the shared shop schema and fixtures,
//! error types, and the `ShopApp` trait every simulated application
//! implements.

use std::sync::Arc;

use acidrain_db::{Connection, Database, DbError, IsolationLevel, Obs, ResultSet, Value};
use acidrain_sql::schema::{ColumnDef, ColumnType, Schema, TableSchema};

/// The connection surface application endpoints are written against.
///
/// Production code runs against a plain [`Connection`]; the harness's
/// deterministic scheduler substitutes a gated connection that pauses
/// before every statement so interleavings can be scripted.
pub trait SqlConn {
    /// Execute one SQL statement and return its result set.
    fn exec(&mut self, sql: &str) -> Result<ResultSet, DbError>;

    /// Tag subsequent statements with an API-call identity for the query
    /// log (drivers call this; endpoints themselves never do).
    fn set_api(&mut self, name: &str, invocation: u64);

    /// The database session id (used as the cart identity by drivers).
    fn session(&self) -> u64;

    /// The observability handle of the underlying database. Wrappers
    /// delegate to their inner connection; the default (a fresh, disabled
    /// registry) keeps bare test doubles trivially valid.
    fn obs(&self) -> Obs {
        Obs::default()
    }
}

impl SqlConn for Connection {
    fn exec(&mut self, sql: &str) -> Result<ResultSet, DbError> {
        self.execute(sql)
    }

    fn set_api(&mut self, name: &str, invocation: u64) {
        Connection::set_api(self, name, invocation);
    }

    fn session(&self) -> u64 {
        self.session_id()
    }

    fn obs(&self) -> Obs {
        Connection::obs(self).clone()
    }
}

/// Run one application request against `conn`, recording its wall-clock
/// latency into the registry's task histogram — the same series the stress
/// watchdog and the bench report read, so "request latency" means one
/// thing everywhere. Free (two relaxed loads) while metrics are off.
pub fn observed_request<C: SqlConn + ?Sized, T>(conn: &mut C, f: impl FnOnce(&mut C) -> T) -> T {
    let obs = conn.obs();
    let timer = obs.timer();
    let out = f(conn);
    if let Some(dur) = timer.elapsed() {
        obs.task_finished(conn.session(), dur);
    }
    out
}

/// Application-level outcome of an endpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum AppError {
    /// Underlying database error (deadlock, serialization failure, ...).
    Db(DbError),
    /// The request was rejected by business logic (insufficient stock,
    /// voucher exhausted, empty cart, ...). Not an anomaly — a correctly
    /// refused request.
    Rejected(String),
    /// The application ships with this functionality broken or absent.
    Unsupported(&'static str),
}

impl From<DbError> for AppError {
    fn from(e: DbError) -> Self {
        AppError::Db(e)
    }
}

impl std::fmt::Display for AppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppError::Db(e) => write!(f, "database error: {e}"),
            AppError::Rejected(msg) => write!(f, "rejected: {msg}"),
            AppError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for AppError {}

/// Shorthand result type every endpoint returns.
pub type AppResult<T> = Result<T, AppError>;

/// Availability of an optional feature in an application (the paper's NF /
/// BF / NDB cells in Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureStatus {
    /// The application implements the feature against the database.
    Supported,
    /// The application has no such concept (paper "NF").
    NoFeature,
    /// The functionality ships broken (paper "BF").
    Broken,
    /// Backed by session state rather than the database (paper "NDB").
    NotDbBacked,
}

/// Implementation language, as in Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Language {
    /// Plain PHP (osCommerce lineage).
    Php,
    /// Ruby on Rails (Spree lineage).
    Ruby,
    /// Python / Django (Oscar, Saleor lineage).
    Python,
    /// Java / Spring (Broadleaf, Shopizer lineage).
    Java,
}

impl std::fmt::Display for Language {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Language::Php => "PHP",
            Language::Ruby => "Ruby (Rails)",
            Language::Python => "Python (Django)",
            Language::Java => "Java (Spring)",
        })
    }
}

/// Parameters of a checkout request.
#[derive(Debug, Clone, Default)]
pub struct CheckoutRequest {
    /// Voucher code to redeem, if any.
    pub voucher_code: Option<String>,
    /// Order total supplied by the client (the Broadleaf/Shopizer
    /// request-header pattern, paper §4.2.5). `None` = computed
    /// server-side.
    pub client_total: Option<i64>,
}

impl CheckoutRequest {
    /// A checkout with no voucher and a server-computed total.
    pub fn plain() -> Self {
        CheckoutRequest::default()
    }

    /// A checkout redeeming voucher `code` (server-computed total).
    pub fn with_voucher(code: &str) -> Self {
        CheckoutRequest {
            voucher_code: Some(code.to_string()),
            client_total: None,
        }
    }
}

/// A simulated eCommerce application: its metadata and its HTTP-equivalent
/// endpoints, written as sequences of SQL statements with the transaction
/// scoping, locking, and validation idioms of the real codebase (paper
/// Table 5 and §4.2.6).
pub trait ShopApp: Sync {
    /// Application name as it appears in the paper's tables.
    fn name(&self) -> &'static str;
    /// Implementation language of the original codebase (Table 1).
    fn language(&self) -> Language;

    /// Whether vouchers exist and are database-backed (Table 5).
    fn voucher_support(&self) -> FeatureStatus {
        FeatureStatus::Supported
    }
    /// Whether inventory tracking exists and works (Table 5).
    fn inventory_support(&self) -> FeatureStatus {
        FeatureStatus::Supported
    }
    /// Whether carts are database-backed (Table 5).
    fn cart_support(&self) -> FeatureStatus {
        FeatureStatus::Supported
    }

    /// Whether the deployment serializes same-session requests (PHP
    /// session locking, paper §4.2.6).
    fn session_locked(&self) -> bool {
        false
    }

    /// How this application tracks stock, for the inventory invariant.
    fn stock_model(&self) -> StockModel {
        StockModel::Column
    }

    /// Whether the order total is taken from request state rather than
    /// derived from database reads (the Broadleaf/Shopizer pattern the
    /// paper marks `yes*` in Table 5, §4.2.5).
    fn total_from_request(&self) -> bool {
        false
    }

    /// The store schema (the shared corpus schema unless overridden).
    fn schema(&self) -> Schema {
        shop_schema()
    }

    /// Create and populate a fresh store for this application.
    fn make_store(&self, isolation: IsolationLevel) -> Arc<Database> {
        let db = Database::new(self.schema(), isolation);
        seed_store(&db);
        db
    }

    /// Discard any application-held session state (e.g. Saleor's
    /// session-backed carts). Harness drivers call this when they pair the
    /// application with a fresh store.
    fn reset_session_state(&self) {}

    /// `PUT /api/cart/add` — place `qty` of `product` into cart `cart`.
    fn add_to_cart(
        &self,
        conn: &mut dyn SqlConn,
        cart: i64,
        product: i64,
        qty: i64,
    ) -> AppResult<()>;

    /// `PUT /api/checkout` — place an order for cart `cart`. Returns the
    /// order id.
    fn checkout(&self, conn: &mut dyn SqlConn, cart: i64, req: &CheckoutRequest) -> AppResult<i64>;
}

/// The shared store schema. Product and voucher lookups by `id` are key
/// accesses; lookups by `name`/`code`/foreign keys are predicate accesses —
/// which is what separates Lost Update shapes from Phantom shapes in the
/// Table 5 "AP" column.
///
/// The four non-key columns the apps look rows up by carry a secondary
/// index: `cart_items.cart_id`, `voucher_applications.voucher_id`,
/// `stock_adjustments.product_id` and `app_locks.name`, as the paper's
/// storefronts have on MySQL and Postgres (Rails and Django index foreign
/// keys, the PHP carts' schemas index their cart lookups). Each of those
/// tables grows with every call, so without the index every such lookup
/// scans more rows the longer a store runs. No app reads `orders`,
/// `order_items` or `vouchers` by anything but `id`, so those tables carry
/// no index beyond the key. An index only routes a scan: it changes no
/// result, no lock and no logged statement, and the "AP" column still
/// comes from uniqueness alone (an indexed, non-unique column is a
/// predicate access).
pub fn shop_schema() -> Schema {
    Schema::new()
        .with_table(TableSchema::new(
            "products",
            vec![
                ColumnDef::new("id", ColumnType::Int).auto_increment(),
                ColumnDef::new("name", ColumnType::Str),
                ColumnDef::new("price", ColumnType::Int),
                ColumnDef::new("stock", ColumnType::Int),
            ],
        ))
        .with_table(TableSchema::new(
            "cart_items",
            vec![
                ColumnDef::new("id", ColumnType::Int).auto_increment(),
                ColumnDef::new("cart_id", ColumnType::Int).indexed(),
                ColumnDef::new("product_id", ColumnType::Int),
                ColumnDef::new("qty", ColumnType::Int),
            ],
        ))
        .with_table(TableSchema::new(
            "orders",
            vec![
                ColumnDef::new("id", ColumnType::Int).auto_increment(),
                ColumnDef::new("cart_id", ColumnType::Int),
                ColumnDef::new("total", ColumnType::Int),
                ColumnDef::new("status", ColumnType::Str),
            ],
        ))
        .with_table(TableSchema::new(
            "order_items",
            vec![
                ColumnDef::new("id", ColumnType::Int).auto_increment(),
                ColumnDef::new("order_id", ColumnType::Int),
                ColumnDef::new("product_id", ColumnType::Int),
                ColumnDef::new("qty", ColumnType::Int),
                ColumnDef::new("price", ColumnType::Int),
            ],
        ))
        .with_table(TableSchema::new(
            "vouchers",
            vec![
                ColumnDef::new("id", ColumnType::Int).auto_increment(),
                ColumnDef::new("code", ColumnType::Str),
                ColumnDef::new("value", ColumnType::Int),
                ColumnDef::new("usage_limit", ColumnType::Int),
                ColumnDef::new("used", ColumnType::Int),
            ],
        ))
        .with_table(TableSchema::new(
            "voucher_applications",
            vec![
                ColumnDef::new("id", ColumnType::Int).auto_increment(),
                ColumnDef::new("voucher_id", ColumnType::Int).indexed(),
                ColumnDef::new("order_id", ColumnType::Int),
            ],
        ))
        .with_table(TableSchema::new(
            "app_locks",
            vec![
                ColumnDef::new("id", ColumnType::Int).auto_increment(),
                ColumnDef::new("name", ColumnType::Str).indexed(),
                ColumnDef::new("owner", ColumnType::Int),
            ],
        ))
        // Shoppe tracks stock as a ledger of adjustments (sum = on hand)
        // rather than a counter column.
        .with_table(TableSchema::new(
            "stock_adjustments",
            vec![
                ColumnDef::new("id", ColumnType::Int).auto_increment(),
                ColumnDef::new("product_id", ColumnType::Int).indexed(),
                ColumnDef::new("amount", ColumnType::Int),
            ],
        ))
}

/// How an application tracks product stock, for invariant checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StockModel {
    /// `products.stock` holds the count on hand.
    Column,
    /// On-hand stock is `SUM(stock_adjustments.amount)` per product.
    Adjustments,
}

/// Pen used in the cart attacks; laptop is the item "stolen".
pub const PEN: i64 = 1;
/// The expensive item the cart attacks obtain at the pen's price.
pub const LAPTOP: i64 = 2;
/// Seeded unit price of the pen.
pub const PEN_PRICE: i64 = 2;
/// Seeded unit price of the laptop.
pub const LAPTOP_PRICE: i64 = 900;
/// Seeded on-hand stock of the pen.
pub const PEN_STOCK: i64 = 10;
/// Seeded on-hand stock of the laptop.
pub const LAPTOP_STOCK: i64 = 5;
/// The single-use gift voucher the voucher attacks overspend.
pub const VOUCHER_ID: i64 = 1;
/// Redemption code of the seeded gift voucher.
pub const VOUCHER_CODE: &str = "GIFT";
/// Seeded usage limit of the gift voucher (single-use).
pub const VOUCHER_LIMIT: i64 = 1;

/// Install the sample store every application ships with (paper §4.2.1:
/// "they all shipped with a sample store ... that exercised core
/// application functionality").
pub fn seed_store(db: &Database) {
    db.seed(
        "products",
        vec![
            vec![
                Value::Int(PEN),
                Value::Str("pen".into()),
                Value::Int(PEN_PRICE),
                Value::Int(PEN_STOCK),
            ],
            vec![
                Value::Int(LAPTOP),
                Value::Str("laptop".into()),
                Value::Int(LAPTOP_PRICE),
                Value::Int(LAPTOP_STOCK),
            ],
        ],
    )
    .expect("seed products");
    db.seed(
        "vouchers",
        vec![vec![
            Value::Int(VOUCHER_ID),
            Value::Str(VOUCHER_CODE.into()),
            Value::Int(10),
            Value::Int(VOUCHER_LIMIT),
            Value::Int(0),
        ]],
    )
    .expect("seed vouchers");
    db.seed(
        "app_locks",
        vec![vec![
            Value::Int(1),
            Value::Str("checkout".into()),
            Value::Int(0),
        ]],
    )
    .expect("seed app_locks");
    db.seed(
        "stock_adjustments",
        vec![
            vec![Value::Null, Value::Int(PEN), Value::Int(PEN_STOCK)],
            vec![Value::Null, Value::Int(LAPTOP), Value::Int(LAPTOP_STOCK)],
        ],
    )
    .expect("seed stock_adjustments");
}

// ---------------------------------------------------------------------------
// Shared endpoint building blocks (each app composes these differently).

/// A cart line: (product_id, qty, price).
pub type CartLine = (i64, i64, i64);

/// Read the cart with a products join — one read covering items and
/// prices. Apps that derive both the order total and the order items from
/// this single read are immune to the cart anomaly (paper §4.2.6, "single
/// read of data").
pub fn read_cart(conn: &mut dyn SqlConn, cart: i64) -> AppResult<Vec<CartLine>> {
    let rs = conn.exec(&format!(
        "SELECT ci.product_id, ci.qty, p.price FROM cart_items AS ci INNER JOIN products \
         AS p ON p.id = ci.product_id WHERE ci.cart_id = {cart} ORDER BY ci.id ASC"
    ))?;
    Ok(rs
        .rows
        .iter()
        .map(|r| {
            (
                r[0].as_i64().unwrap_or(0),
                r[1].as_i64().unwrap_or(0),
                r[2].as_i64().unwrap_or(0),
            )
        })
        .collect())
}

/// Sum a cart's total with one aggregate query (a separate read of the
/// cart table).
pub fn read_cart_total(conn: &mut dyn SqlConn, cart: i64) -> AppResult<i64> {
    let rs = conn.exec(&format!(
        "SELECT SUM(ci.qty * p.price) FROM cart_items AS ci INNER JOIN products AS p \
         ON p.id = ci.product_id WHERE ci.cart_id = {cart}"
    ))?;
    Ok(rs.scalar_i64().unwrap_or(0))
}

/// Insert a pending order row for `cart` and return its id.
pub fn insert_order(conn: &mut dyn SqlConn, cart: i64, total: i64) -> AppResult<i64> {
    let rs = conn.exec(&format!(
        "INSERT INTO orders (cart_id, total, status) VALUES ({cart}, {total}, 'pending')"
    ))?;
    rs.last_insert_id()
        .ok_or_else(|| AppError::Db(DbError::Internal("missing order id".into())))
}

/// Finalize an order. Invariants only consider placed orders, so checkouts
/// that fail midway (and real apps' abandoned orders) are not counted as
/// fulfilled.
pub fn mark_order_placed(conn: &mut dyn SqlConn, order: i64) -> AppResult<()> {
    conn.exec(&format!(
        "UPDATE orders SET status = 'placed' WHERE id = {order}"
    ))?;
    Ok(())
}

/// Copy cart lines into `order_items` rows for `order`.
pub fn insert_order_items(conn: &mut dyn SqlConn, order: i64, lines: &[CartLine]) -> AppResult<()> {
    for (product, qty, price) in lines {
        conn.exec(&format!(
            "INSERT INTO order_items (order_id, product_id, qty, price) VALUES \
             ({order}, {product}, {qty}, {price})"
        ))?;
    }
    Ok(())
}

/// Delete every line of `cart` (the post-checkout sweep).
pub fn clear_cart(conn: &mut dyn SqlConn, cart: i64) -> AppResult<()> {
    conn.exec(&format!("DELETE FROM cart_items WHERE cart_id = {cart}"))?;
    Ok(())
}

/// Scalar-query helper.
pub fn query_i64(conn: &mut dyn SqlConn, sql: &str) -> AppResult<i64> {
    Ok(conn.exec(sql)?.scalar_i64().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Probe;
    impl ShopApp for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn language(&self) -> Language {
            Language::Php
        }
        fn add_to_cart(
            &self,
            conn: &mut dyn SqlConn,
            cart: i64,
            product: i64,
            qty: i64,
        ) -> AppResult<()> {
            conn.exec(&format!(
                "INSERT INTO cart_items (cart_id, product_id, qty) VALUES ({cart}, {product}, {qty})"
            ))?;
            Ok(())
        }
        fn checkout(
            &self,
            conn: &mut dyn SqlConn,
            cart: i64,
            _req: &CheckoutRequest,
        ) -> AppResult<i64> {
            let lines = read_cart(conn, cart)?;
            let total: i64 = lines.iter().map(|(_, q, p)| q * p).sum();
            let order = insert_order(conn, cart, total)?;
            insert_order_items(conn, order, &lines)?;
            clear_cart(conn, cart)?;
            Ok(order)
        }
    }

    #[test]
    fn store_seeding_and_building_blocks() {
        let app = Probe;
        let db = app.make_store(IsolationLevel::ReadCommitted);
        let mut conn = db.connect();
        app.add_to_cart(&mut conn, 1, PEN, 3).unwrap();
        app.add_to_cart(&mut conn, 1, LAPTOP, 1).unwrap();
        assert_eq!(
            read_cart_total(&mut conn, 1).unwrap(),
            3 * PEN_PRICE + LAPTOP_PRICE
        );
        let lines = read_cart(&mut conn, 1).unwrap();
        assert_eq!(lines, vec![(PEN, 3, PEN_PRICE), (LAPTOP, 1, LAPTOP_PRICE)]);
        let order = app
            .checkout(&mut conn, 1, &CheckoutRequest::plain())
            .unwrap();
        assert_eq!(order, 1);
        // Cart cleared, order recorded.
        assert_eq!(read_cart(&mut conn, 1).unwrap().len(), 0);
        assert_eq!(
            query_i64(&mut conn, "SELECT total FROM orders WHERE id = 1").unwrap(),
            3 * PEN_PRICE + LAPTOP_PRICE
        );
        assert_eq!(
            query_i64(
                &mut conn,
                "SELECT COUNT(*) FROM order_items WHERE order_id = 1"
            )
            .unwrap(),
            2
        );
    }

    #[test]
    fn seeded_fixtures_match_constants() {
        let db = Probe.make_store(IsolationLevel::ReadCommitted);
        let mut conn = db.connect();
        assert_eq!(
            query_i64(&mut conn, "SELECT stock FROM products WHERE id = 1").unwrap(),
            PEN_STOCK
        );
        assert_eq!(
            query_i64(&mut conn, "SELECT usage_limit FROM vouchers WHERE id = 1").unwrap(),
            VOUCHER_LIMIT
        );
        assert_eq!(
            query_i64(&mut conn, "SELECT COUNT(*) FROM app_locks").unwrap(),
            1
        );
    }
}
