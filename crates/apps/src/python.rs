//! The Python/Django applications: Oscar, Saleor, Lightning Fast Shop.
//!
//! Idioms reproduced from the paper: Oscar wraps checkout in one Django
//! transaction (`set autocommit=0` ... `commit`, Figure 6) — so its
//! voucher and inventory anomalies are *level-based*: a predicate read of
//! the applications table (phantom) and a read-then-blind-write of stock
//! (Lost Update), both inside the transaction. Its cart derives items and
//! total from a single read. Saleor also runs level-based (atomic
//! requests) but its cart lives in session state, not the database (the
//! paper's "NDB"). Lightning Fast Shop lets the ORM wrap each *write* in
//! its own tiny transaction (Figure 8) — everything is scope-based — and
//! reads the cart twice during checkout.

use std::collections::HashMap;

use parking_lot::Mutex;

use crate::framework::*;

fn cart_insert(conn: &mut dyn SqlConn, cart: i64, product: i64, qty: i64) -> AppResult<()> {
    conn.exec(&format!(
        "INSERT INTO cart_items (cart_id, product_id, qty) VALUES ({cart}, {product}, {qty})"
    ))?;
    Ok(())
}

/// django-oscar.
pub struct Oscar;

impl ShopApp for Oscar {
    fn name(&self) -> &'static str {
        "Oscar"
    }

    fn language(&self) -> Language {
        Language::Python
    }

    fn add_to_cart(
        &self,
        conn: &mut dyn SqlConn,
        cart: i64,
        product: i64,
        qty: i64,
    ) -> AppResult<()> {
        cart_insert(conn, cart, product, qty)
    }

    fn checkout(&self, conn: &mut dyn SqlConn, cart: i64, req: &CheckoutRequest) -> AppResult<i64> {
        // One Django transaction around the whole request (Figure 6 shows
        // `set autocommit=0` ... `commit`).
        conn.exec("SET autocommit=0")?;
        let result = self.checkout_inner(conn, cart, req);
        match &result {
            Ok(_) => {
                conn.exec("COMMIT")?;
            }
            Err(_) => {
                conn.exec("ROLLBACK")?;
            }
        }
        conn.exec("SET autocommit=1")?;
        result
    }
}

impl Oscar {
    fn checkout_inner(
        &self,
        conn: &mut dyn SqlConn,
        cart: i64,
        req: &CheckoutRequest,
    ) -> AppResult<i64> {
        // Voucher availability: Figure 6 verbatim — a predicate existence
        // probe on the applications table (phantom, level-based).
        if req.voucher_code.is_some() {
            let rs = conn.exec(&format!(
                "SELECT (1) AS a FROM voucher_applications WHERE \
                 voucher_applications.voucher_id = {VOUCHER_ID} LIMIT 1"
            ))?;
            if !rs.is_empty() {
                return Err(AppError::Rejected("voucher already used".into()));
            }
        }
        // Single cart read: items and total from the same rows.
        let lines = read_cart(conn, cart)?;
        if lines.is_empty() {
            return Err(AppError::Rejected("empty cart".into()));
        }
        let total: i64 = lines.iter().map(|(_, q, p)| q * p).sum();
        let order = insert_order(conn, cart, total)?;
        insert_order_items(conn, order, &lines)?;
        // Inventory: read-check-blind-write inside the transaction
        // (Lost Update, level-based).
        for (product, qty, _) in &lines {
            let stock = query_i64(
                conn,
                &format!("SELECT stock FROM products WHERE id = {product}"),
            )?;
            if stock < *qty {
                return Err(AppError::Rejected(format!(
                    "product {product} out of stock"
                )));
            }
            conn.exec(&format!(
                "UPDATE products SET stock = {} WHERE id = {product}",
                stock - qty
            ))?;
        }
        if req.voucher_code.is_some() {
            conn.exec(&format!(
                "INSERT INTO voucher_applications (voucher_id, order_id) VALUES \
                 ({VOUCHER_ID}, {order})"
            ))?;
        }
        clear_cart(conn, cart)?;
        mark_order_placed(conn, order)?;
        Ok(order)
    }
}

/// Saleor: the cart is session state (paper "NDB"); the database work runs
/// inside one transaction with Lost Update shapes on vouchers and stock.
pub struct Saleor {
    /// Session-backed carts: cart id -> (product, qty) lines. Deliberately
    /// invisible to the database and therefore to 2AD.
    session_carts: Mutex<HashMap<i64, Vec<(i64, i64)>>>,
}

impl Saleor {
    /// A Saleor instance with an empty session-cart store.
    pub fn new() -> Self {
        Saleor {
            session_carts: Mutex::new(HashMap::new()),
        }
    }
}

impl Default for Saleor {
    fn default() -> Self {
        Saleor::new()
    }
}

impl ShopApp for Saleor {
    fn name(&self) -> &'static str {
        "Saleor"
    }

    fn language(&self) -> Language {
        Language::Python
    }

    fn cart_support(&self) -> FeatureStatus {
        FeatureStatus::NotDbBacked
    }

    fn reset_session_state(&self) {
        self.session_carts.lock().clear();
    }

    fn add_to_cart(
        &self,
        _conn: &mut dyn SqlConn,
        cart: i64,
        product: i64,
        qty: i64,
    ) -> AppResult<()> {
        // No SQL at all: the cart lives in the session.
        self.session_carts
            .lock()
            .entry(cart)
            .or_default()
            .push((product, qty));
        Ok(())
    }

    fn checkout(&self, conn: &mut dyn SqlConn, cart: i64, req: &CheckoutRequest) -> AppResult<i64> {
        let lines: Vec<(i64, i64)> = self
            .session_carts
            .lock()
            .get(&cart)
            .cloned()
            .unwrap_or_default();
        if lines.is_empty() {
            return Err(AppError::Rejected("empty cart".into()));
        }
        conn.exec("SET autocommit=0")?;
        let result = self.checkout_inner(conn, &lines, req);
        match &result {
            Ok(_) => {
                conn.exec("COMMIT")?;
                self.session_carts.lock().remove(&cart);
            }
            Err(_) => {
                conn.exec("ROLLBACK")?;
            }
        }
        conn.exec("SET autocommit=1")?;
        result
    }
}

impl Saleor {
    fn checkout_inner(
        &self,
        conn: &mut dyn SqlConn,
        lines: &[(i64, i64)],
        req: &CheckoutRequest,
    ) -> AppResult<i64> {
        let mut total = 0;
        let mut priced: Vec<CartLine> = Vec::new();
        for (product, qty) in lines {
            let price = query_i64(
                conn,
                &format!("SELECT price FROM products WHERE id = {product}"),
            )?;
            total += price * qty;
            priced.push((*product, *qty, price));
        }
        let order = insert_order(conn, 0, total)?;
        insert_order_items(conn, order, &priced)?;
        // Voucher: Lost Update shape, level-based; the redemption is
        // recorded against the order inside the same transaction.
        if req.voucher_code.is_some() {
            let used = query_i64(
                conn,
                &format!("SELECT used FROM vouchers WHERE id = {VOUCHER_ID}"),
            )?;
            let limit = query_i64(
                conn,
                &format!("SELECT usage_limit FROM vouchers WHERE id = {VOUCHER_ID}"),
            )?;
            if used >= limit {
                return Err(AppError::Rejected("voucher exhausted".into()));
            }
            conn.exec(&format!(
                "UPDATE vouchers SET used = {} WHERE id = {VOUCHER_ID}",
                used + 1
            ))?;
            conn.exec(&format!(
                "INSERT INTO voucher_applications (voucher_id, order_id) VALUES \
                 ({VOUCHER_ID}, {order})"
            ))?;
        }
        // Inventory: Lost Update shape, level-based.
        for (product, qty, _) in &priced {
            let stock = query_i64(
                conn,
                &format!("SELECT stock FROM products WHERE id = {product}"),
            )?;
            if stock < *qty {
                return Err(AppError::Rejected(format!(
                    "product {product} out of stock"
                )));
            }
            conn.exec(&format!(
                "UPDATE products SET stock = {} WHERE id = {product}",
                stock - qty
            ))?;
        }
        mark_order_placed(conn, order)?;
        Ok(order)
    }
}

/// Lightning Fast Shop (django-lfs): the only application with all three
/// vulnerabilities. The ORM wraps each write in its own one-statement
/// transaction (Figure 8); the cart is read twice during checkout.
pub struct LightningFastShop;

impl LightningFastShop {
    /// The Figure-8 ORM idiom: `set autocommit=0; <write>; commit`.
    fn orm_write(&self, conn: &mut dyn SqlConn, sql: &str) -> AppResult<ResultHolder> {
        conn.exec("SET autocommit=0")?;
        let rs = conn.exec(sql)?;
        conn.exec("COMMIT")?;
        conn.exec("SET autocommit=1")?;
        Ok(ResultHolder(rs))
    }
}

/// Thin wrapper so callers can reach `last_insert_id` from `orm_write`.
pub struct ResultHolder(pub acidrain_db::ResultSet);

impl ShopApp for LightningFastShop {
    fn name(&self) -> &'static str {
        "Lightning Fast Shop"
    }

    fn language(&self) -> Language {
        Language::Python
    }

    fn add_to_cart(
        &self,
        conn: &mut dyn SqlConn,
        cart: i64,
        product: i64,
        qty: i64,
    ) -> AppResult<()> {
        self.orm_write(
            conn,
            &format!(
                "INSERT INTO cart_items (cart_id, product_id, qty) VALUES \
                 ({cart}, {product}, {qty})"
            ),
        )?;
        Ok(())
    }

    fn checkout(&self, conn: &mut dyn SqlConn, cart: i64, req: &CheckoutRequest) -> AppResult<i64> {
        // Read #1: order total (Figure 8b line 388).
        let total = read_cart_total(conn, cart)?;
        if total == 0 {
            return Err(AppError::Rejected("empty cart".into()));
        }
        let order = self
            .orm_write(
                conn,
                &format!(
                    "INSERT INTO orders (cart_id, total, status) VALUES \
                     ({cart}, {total}, 'pending')"
                ),
            )?
            .0
            .last_insert_id()
            .expect("order id");
        // Read #2: line items (Figure 8b line 438) — the window for the
        // cart attack.
        let lines = read_cart(conn, cart)?;
        for (product, qty, price) in &lines {
            self.orm_write(
                conn,
                &format!(
                    "INSERT INTO order_items (order_id, product_id, qty, price) VALUES \
                     ({order}, {product}, {qty}, {price})"
                ),
            )?;
        }
        // Voucher: Lost Update, scope-based (counter read and write in
        // separate ORM transactions).
        if req.voucher_code.is_some() {
            let used = query_i64(
                conn,
                &format!("SELECT used FROM vouchers WHERE id = {VOUCHER_ID}"),
            )?;
            let limit = query_i64(
                conn,
                &format!("SELECT usage_limit FROM vouchers WHERE id = {VOUCHER_ID}"),
            )?;
            if used >= limit {
                return Err(AppError::Rejected("voucher exhausted".into()));
            }
            self.orm_write(
                conn,
                &format!(
                    "UPDATE vouchers SET used = {} WHERE id = {VOUCHER_ID}",
                    used + 1
                ),
            )?;
            self.orm_write(
                conn,
                &format!(
                    "INSERT INTO voucher_applications (voucher_id, order_id) VALUES \
                     ({VOUCHER_ID}, {order})"
                ),
            )?;
        }
        // Inventory: Lost Update, scope-based.
        for (product, qty, _) in &lines {
            let stock = query_i64(
                conn,
                &format!("SELECT stock FROM products WHERE id = {product}"),
            )?;
            if stock < *qty {
                return Err(AppError::Rejected(format!(
                    "product {product} out of stock"
                )));
            }
            self.orm_write(
                conn,
                &format!(
                    "UPDATE products SET stock = {} WHERE id = {product}",
                    stock - qty
                ),
            )?;
        }
        self.orm_write(
            conn,
            &format!("DELETE FROM cart_items WHERE cart_id = {cart}"),
        )?;
        self.orm_write(
            conn,
            &format!("UPDATE orders SET status = 'placed' WHERE id = {order}"),
        )?;
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acidrain_db::IsolationLevel;

    #[test]
    fn oscar_serial_flow_and_figure6_log_shape() {
        let db = Oscar.make_store(IsolationLevel::ReadCommitted);
        let mut conn = db.connect();
        Oscar.add_to_cart(&mut conn, 1, PEN, 1).unwrap();
        Oscar
            .checkout(&mut conn, 1, &CheckoutRequest::with_voucher(VOUCHER_CODE))
            .unwrap();
        let log: Vec<String> = db.log_entries().iter().map(|e| e.sql.to_string()).collect();
        // Figure 6's shape: autocommit off, existence probe with LIMIT 1,
        // insert into the applications table, commit.
        let ac = log.iter().position(|s| s.contains("autocommit=0")).unwrap();
        let probe = log.iter().position(|s| s.contains("LIMIT 1")).unwrap();
        let ins = log
            .iter()
            .position(|s| s.contains("INSERT INTO voucher_applications"))
            .unwrap();
        let commit = log.iter().rposition(|s| s == "COMMIT").unwrap();
        assert!(ac < probe && probe < ins && ins < commit, "{log:#?}");
        // Second use refused serially.
        Oscar.add_to_cart(&mut conn, 1, PEN, 1).unwrap();
        let err = Oscar
            .checkout(&mut conn, 1, &CheckoutRequest::with_voucher(VOUCHER_CODE))
            .unwrap_err();
        assert!(matches!(err, AppError::Rejected(_)));
    }

    #[test]
    fn oscar_rolls_back_failed_checkout() {
        let db = Oscar.make_store(IsolationLevel::ReadCommitted);
        let mut conn = db.connect();
        Oscar
            .add_to_cart(&mut conn, 1, LAPTOP, LAPTOP_STOCK + 1)
            .unwrap();
        let err = Oscar
            .checkout(&mut conn, 1, &CheckoutRequest::plain())
            .unwrap_err();
        assert!(matches!(err, AppError::Rejected(_)));
        // The transaction rolled back: no dangling order.
        assert_eq!(
            query_i64(&mut conn, "SELECT COUNT(*) FROM orders").unwrap(),
            0
        );
        assert_eq!(
            query_i64(
                &mut conn,
                &format!("SELECT stock FROM products WHERE id = {LAPTOP}")
            )
            .unwrap(),
            LAPTOP_STOCK
        );
    }

    #[test]
    fn saleor_cart_generates_no_sql() {
        let app = Saleor::new();
        let db = app.make_store(IsolationLevel::ReadCommitted);
        let mut conn = db.connect();
        app.add_to_cart(&mut conn, 1, PEN, 2).unwrap();
        assert!(
            db.log_entries().is_empty(),
            "session cart must not touch the database"
        );
        let order = app
            .checkout(&mut conn, 1, &CheckoutRequest::plain())
            .unwrap();
        assert!(order > 0);
        assert_eq!(
            query_i64(
                &mut conn,
                &format!("SELECT stock FROM products WHERE id = {PEN}")
            )
            .unwrap(),
            PEN_STOCK - 2
        );
        // Cart consumed.
        let err = app
            .checkout(&mut conn, 1, &CheckoutRequest::plain())
            .unwrap_err();
        assert!(matches!(err, AppError::Rejected(_)));
    }

    #[test]
    fn lfs_orm_wraps_each_write_in_its_own_txn() {
        let db = LightningFastShop.make_store(IsolationLevel::ReadCommitted);
        let mut conn = db.connect();
        LightningFastShop.add_to_cart(&mut conn, 1, PEN, 1).unwrap();
        let log: Vec<String> = db.log_entries().iter().map(|e| e.sql.to_string()).collect();
        assert_eq!(
            log,
            vec![
                "SET autocommit=0".to_string(),
                "INSERT INTO cart_items (cart_id, product_id, qty) VALUES (1, 1, 1)".to_string(),
                "COMMIT".to_string(),
                "SET autocommit=1".to_string(),
            ]
        );
        // Checkout reads the cart twice (Figure 8's two SELECTs).
        LightningFastShop
            .checkout(&mut conn, 1, &CheckoutRequest::plain())
            .unwrap();
        let log: Vec<String> = db.log_entries().iter().map(|e| e.sql.to_string()).collect();
        let cart_reads = log
            .iter()
            .filter(|s| s.starts_with("SELECT") && s.contains("cart_items"))
            .count();
        assert_eq!(cart_reads, 2, "{log:#?}");
    }

    #[test]
    fn lfs_serial_flow_with_voucher() {
        let db = LightningFastShop.make_store(IsolationLevel::ReadCommitted);
        let mut conn = db.connect();
        LightningFastShop.add_to_cart(&mut conn, 1, PEN, 3).unwrap();
        LightningFastShop
            .checkout(&mut conn, 1, &CheckoutRequest::with_voucher(VOUCHER_CODE))
            .unwrap();
        assert_eq!(
            query_i64(&mut conn, "SELECT used FROM vouchers WHERE id = 1").unwrap(),
            1
        );
        assert_eq!(
            query_i64(
                &mut conn,
                &format!("SELECT stock FROM products WHERE id = {PEN}")
            )
            .unwrap(),
            PEN_STOCK - 3
        );
    }
}
