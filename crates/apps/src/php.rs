//! The PHP applications: OpenCart, PrestaShop, Magento, WooCommerce.
//!
//! Idioms reproduced from the paper: none of the four wraps its critical
//! sections in multi-statement transactions (the PHP rows of Table 5 are
//! all scope-based); OpenCart relies on PHP session locking, which
//! incidentally protects its cart (§4.2.6); Magento takes a `SELECT ...
//! FOR UPDATE` on the stock row but performs its guard check on an earlier
//! read outside the transaction (Figure 7); PrestaShop and WooCommerce
//! derive order total and order items from a single cart read; Magento
//! recomputes the total after each cart read (multiple validations).

use crate::framework::*;

// ---------------------------------------------------------------------------
// Shared PHP-style building blocks (autocommit everywhere).

/// Voucher redemption via an applications table: predicate COUNT then
/// INSERT, in separate autocommitted statements (phantom, scope-based).
fn voucher_phantom_scope(conn: &mut dyn SqlConn, order: i64) -> AppResult<()> {
    let uses = query_i64(
        conn,
        &format!("SELECT COUNT(*) FROM voucher_applications WHERE voucher_id = {VOUCHER_ID}"),
    )?;
    let limit = query_i64(
        conn,
        &format!("SELECT usage_limit FROM vouchers WHERE id = {VOUCHER_ID}"),
    )?;
    if uses >= limit {
        return Err(AppError::Rejected("voucher exhausted".into()));
    }
    conn.exec(&format!(
        "INSERT INTO voucher_applications (voucher_id, order_id) VALUES ({VOUCHER_ID}, {order})"
    ))?;
    Ok(())
}

/// Voucher redemption via a usage counter: key read, application-side
/// arithmetic, blind write — the Lost Update shape, scope-based. The
/// redemption itself is recorded against the order (every real app stores
/// which order a discount applied to).
fn voucher_lu_scope(conn: &mut dyn SqlConn, order: i64) -> AppResult<()> {
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
        "INSERT INTO voucher_applications (voucher_id, order_id) VALUES ({VOUCHER_ID}, {order})"
    ))?;
    Ok(())
}

/// Stock decrement with an application-side guard and blind write, each in
/// its own autocommitted statement (Lost Update, scope-based).
fn inventory_lu_scope(conn: &mut dyn SqlConn, lines: &[CartLine]) -> AppResult<()> {
    for (product, qty, _) in lines {
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
    Ok(())
}

/// Plain cart insert.
fn cart_insert(conn: &mut dyn SqlConn, cart: i64, product: i64, qty: i64) -> AppResult<()> {
    conn.exec(&format!(
        "INSERT INTO cart_items (cart_id, product_id, qty) VALUES ({cart}, {product}, {qty})"
    ))?;
    Ok(())
}

// ---------------------------------------------------------------------------

/// OpenCart: no transactions anywhere; PHP session locking serializes
/// same-session requests (which protects the cart, §4.2.6, but not the
/// store-shared voucher and inventory rows).
pub struct OpenCart;

impl ShopApp for OpenCart {
    fn name(&self) -> &'static str {
        "OpenCart"
    }

    fn language(&self) -> Language {
        Language::Php
    }

    fn session_locked(&self) -> bool {
        true
    }

    fn add_to_cart(
        &self,
        conn: &mut dyn SqlConn,
        cart: i64,
        product: i64,
        qty: i64,
    ) -> AppResult<()> {
        // OpenCart reads the cart row first (merge quantities), then
        // writes — still no transaction.
        let existing = query_i64(
            conn,
            &format!(
                "SELECT qty FROM cart_items WHERE cart_id = {cart} AND product_id = {product}"
            ),
        )?;
        if existing > 0 {
            conn.exec(&format!(
                "UPDATE cart_items SET qty = {} WHERE cart_id = {cart} AND \
                 product_id = {product}",
                existing + qty
            ))?;
        } else {
            cart_insert(conn, cart, product, qty)?;
        }
        Ok(())
    }

    fn checkout(&self, conn: &mut dyn SqlConn, cart: i64, req: &CheckoutRequest) -> AppResult<i64> {
        // Two separate reads of the cart: one for the total, one for the
        // line items (the vulnerable shape — rescued only by session
        // locking).
        let total = read_cart_total(conn, cart)?;
        if total == 0 {
            return Err(AppError::Rejected("empty cart".into()));
        }
        let order = insert_order(conn, cart, total)?;
        let lines = read_cart(conn, cart)?;
        insert_order_items(conn, order, &lines)?;
        inventory_lu_scope(conn, &lines)?;
        if req.voucher_code.is_some() {
            voucher_phantom_scope(conn, order)?;
        }
        clear_cart(conn, cart)?;
        mark_order_placed(conn, order)?;
        Ok(order)
    }
}

/// PrestaShop: single cart read protects the cart; voucher counter and
/// stock guard are read-then-blind-write in autocommitted statements.
pub struct PrestaShop;

impl ShopApp for PrestaShop {
    fn name(&self) -> &'static str {
        "PrestaShop"
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
        cart_insert(conn, cart, product, qty)
    }

    fn checkout(&self, conn: &mut dyn SqlConn, cart: i64, req: &CheckoutRequest) -> AppResult<i64> {
        // Single read: items and total both derive from `lines`.
        let lines = read_cart(conn, cart)?;
        if lines.is_empty() {
            return Err(AppError::Rejected("empty cart".into()));
        }
        let total: i64 = lines.iter().map(|(_, q, p)| q * p).sum();
        let order = insert_order(conn, cart, total)?;
        insert_order_items(conn, order, &lines)?;
        inventory_lu_scope(conn, &lines)?;
        if req.voucher_code.is_some() {
            voucher_lu_scope(conn, order)?;
        }
        clear_cart(conn, cart)?;
        mark_order_placed(conn, order)?;
        Ok(order)
    }
}

/// Magento: the Figure-7 inventory pattern — a guard read outside the
/// transaction, then `SELECT ... FOR UPDATE` and an atomic CASE update
/// inside one; the lock protects the write but not the stale guard. The
/// cart recomputes its total after the second read (multiple validations).
pub struct Magento;

impl Magento {
    /// Figure 7 verbatim: guard outside, locked decrement inside.
    fn decrement_stock(&self, conn: &mut dyn SqlConn, product: i64, qty: i64) -> AppResult<()> {
        let stock = query_i64(
            conn,
            &format!("SELECT stock FROM products WHERE id = {product}"),
        )?;
        if stock < qty {
            return Err(AppError::Rejected(format!(
                "product {product} out of stock"
            )));
        }
        conn.exec("START TRANSACTION")?;
        conn.exec(&format!(
            "SELECT stock FROM products WHERE id = {product} FOR UPDATE"
        ))?;
        conn.exec(&format!(
            "UPDATE products SET stock = CASE id WHEN {product} THEN stock - {qty} ELSE stock \
             END WHERE id IN ({product})"
        ))?;
        conn.exec("COMMIT")?;
        Ok(())
    }
}

impl ShopApp for Magento {
    fn name(&self) -> &'static str {
        "Magento"
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
        cart_insert(conn, cart, product, qty)
    }

    fn checkout(&self, conn: &mut dyn SqlConn, cart: i64, req: &CheckoutRequest) -> AppResult<i64> {
        let total = read_cart_total(conn, cart)?;
        if total == 0 {
            return Err(AppError::Rejected("empty cart".into()));
        }
        let order = insert_order(conn, cart, total)?;
        // Second read of the cart for the line items...
        let lines = read_cart(conn, cart)?;
        insert_order_items(conn, order, &lines)?;
        // ...followed by a revalidation that recomputes the total from the
        // same read (the anomaly stays triggerable but benign, §4.2.5).
        let recomputed: i64 = lines.iter().map(|(_, q, p)| q * p).sum();
        if recomputed != total {
            conn.exec(&format!(
                "UPDATE orders SET total = {recomputed} WHERE id = {order}"
            ))?;
        }
        for (product, qty, _) in &lines {
            self.decrement_stock(conn, *product, *qty)?;
        }
        if req.voucher_code.is_some() {
            voucher_lu_scope(conn, order)?;
        }
        clear_cart(conn, cart)?;
        mark_order_placed(conn, order)?;
        Ok(order)
    }
}

/// WooCommerce: WordPress plugin; same shapes as PrestaShop (single cart
/// read, counter-style voucher, guarded blind stock write).
pub struct WooCommerce;

impl ShopApp for WooCommerce {
    fn name(&self) -> &'static str {
        "WooCommerce"
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
        cart_insert(conn, cart, product, qty)
    }

    fn checkout(&self, conn: &mut dyn SqlConn, cart: i64, req: &CheckoutRequest) -> AppResult<i64> {
        let lines = read_cart(conn, cart)?;
        if lines.is_empty() {
            return Err(AppError::Rejected("empty cart".into()));
        }
        let total: i64 = lines.iter().map(|(_, q, p)| q * p).sum();
        let order = insert_order(conn, cart, total)?;
        insert_order_items(conn, order, &lines)?;
        if req.voucher_code.is_some() {
            voucher_lu_scope(conn, order)?;
        }
        inventory_lu_scope(conn, &lines)?;
        clear_cart(conn, cart)?;
        mark_order_placed(conn, order)?;
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acidrain_db::IsolationLevel;

    fn run_serial(app: &dyn ShopApp) {
        let db = app.make_store(IsolationLevel::ReadCommitted);
        let mut conn = db.connect();
        app.add_to_cart(&mut conn, 1, PEN, 2).unwrap();
        app.add_to_cart(&mut conn, 1, LAPTOP, 1).unwrap();
        let order = app
            .checkout(&mut conn, 1, &CheckoutRequest::with_voucher(VOUCHER_CODE))
            .unwrap();
        // Order total covers the cart; stock decremented; voucher used once.
        let total = query_i64(
            &mut conn,
            &format!("SELECT total FROM orders WHERE id = {order}"),
        )
        .unwrap();
        assert_eq!(total, 2 * PEN_PRICE + LAPTOP_PRICE, "{}", app.name());
        let stock = query_i64(
            &mut conn,
            &format!("SELECT stock FROM products WHERE id = {PEN}"),
        )
        .unwrap();
        assert_eq!(stock, PEN_STOCK - 2, "{}", app.name());
        let uses = query_i64(&mut conn, "SELECT used FROM vouchers WHERE id = 1")
            .unwrap()
            .max(
                query_i64(
                    &mut conn,
                    "SELECT COUNT(*) FROM voucher_applications WHERE voucher_id = 1",
                )
                .unwrap(),
            );
        assert_eq!(uses, 1, "{}", app.name());
        // A second voucher use is refused serially.
        app.add_to_cart(&mut conn, 1, PEN, 1).unwrap();
        let err = app
            .checkout(&mut conn, 1, &CheckoutRequest::with_voucher(VOUCHER_CODE))
            .unwrap_err();
        assert!(
            matches!(err, AppError::Rejected(_)),
            "{}: {err}",
            app.name()
        );
    }

    #[test]
    fn all_php_apps_work_serially() {
        run_serial(&OpenCart);
        run_serial(&PrestaShop);
        run_serial(&Magento);
        run_serial(&WooCommerce);
    }

    #[test]
    fn out_of_stock_is_rejected_serially() {
        for app in [
            &OpenCart as &dyn ShopApp,
            &PrestaShop,
            &Magento,
            &WooCommerce,
        ] {
            let db = app.make_store(IsolationLevel::ReadCommitted);
            let mut conn = db.connect();
            app.add_to_cart(&mut conn, 1, PEN, PEN_STOCK + 1).unwrap();
            let err = app
                .checkout(&mut conn, 1, &CheckoutRequest::plain())
                .unwrap_err();
            assert!(matches!(err, AppError::Rejected(_)), "{}", app.name());
        }
    }

    #[test]
    fn empty_cart_checkout_rejected() {
        for app in [
            &OpenCart as &dyn ShopApp,
            &PrestaShop,
            &Magento,
            &WooCommerce,
        ] {
            let db = app.make_store(IsolationLevel::ReadCommitted);
            let mut conn = db.connect();
            let err = app
                .checkout(&mut conn, 1, &CheckoutRequest::plain())
                .unwrap_err();
            assert!(matches!(err, AppError::Rejected(_)), "{}", app.name());
        }
    }

    #[test]
    fn opencart_merges_cart_quantities() {
        let db = OpenCart.make_store(IsolationLevel::ReadCommitted);
        let mut conn = db.connect();
        OpenCart.add_to_cart(&mut conn, 1, PEN, 2).unwrap();
        OpenCart.add_to_cart(&mut conn, 1, PEN, 3).unwrap();
        assert_eq!(
            query_i64(
                &mut conn,
                "SELECT COUNT(*) FROM cart_items WHERE cart_id = 1"
            )
            .unwrap(),
            1
        );
        assert_eq!(
            query_i64(&mut conn, "SELECT qty FROM cart_items WHERE cart_id = 1").unwrap(),
            5
        );
    }

    #[test]
    fn magento_uses_for_update_inside_txn_only() {
        let db = Magento.make_store(IsolationLevel::ReadCommitted);
        let mut conn = db.connect();
        Magento.add_to_cart(&mut conn, 1, PEN, 1).unwrap();
        Magento
            .checkout(&mut conn, 1, &CheckoutRequest::plain())
            .unwrap();
        let log: Vec<String> = db.log_entries().iter().map(|e| e.sql.to_string()).collect();
        let fu_pos = log
            .iter()
            .position(|s| s.contains("FOR UPDATE"))
            .expect("FOR UPDATE used");
        let begin_pos = log
            .iter()
            .position(|s| s.contains("START TRANSACTION"))
            .unwrap();
        assert!(begin_pos < fu_pos);
        // The guard read happens before the transaction begins (Fig. 7).
        let guard_pos = log
            .iter()
            .position(|s| s.starts_with("SELECT stock FROM products"))
            .unwrap();
        assert!(guard_pos < begin_pos);
    }
}
