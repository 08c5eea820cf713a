//! The Java/Spring applications: Broadleaf and Shopizer.
//!
//! Idioms reproduced from the paper (§4.2.5–§4.2.6): Broadleaf guards its
//! checkout with a correct in-database mutex, but the order total it
//! writes comes from a session value read *before* the mutex was taken —
//! the control-flow bug that kept its cart exploitable (the paper's
//! `yes*`). Its community edition's inventory management is inoperable
//! ("BF"), and its voucher flow is the predicate-count-then-insert shape
//! with no transactions. Shopizer writes the order total straight from a
//! request header (`yes*`), has no voucher concept, and its inventory code
//! is unreachable without a shipping-service integration ("BF").

use crate::framework::*;

fn cart_insert(conn: &mut dyn SqlConn, cart: i64, product: i64, qty: i64) -> AppResult<()> {
    conn.exec(&format!(
        "INSERT INTO cart_items (cart_id, product_id, qty) VALUES ({cart}, {product}, {qty})"
    ))?;
    Ok(())
}

/// Broadleaf Commerce.
pub struct Broadleaf;

impl ShopApp for Broadleaf {
    fn name(&self) -> &'static str {
        "Broadleaf"
    }

    fn language(&self) -> Language {
        Language::Java
    }

    fn inventory_support(&self) -> FeatureStatus {
        FeatureStatus::Broken
    }

    fn total_from_request(&self) -> bool {
        true
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
        // The control-flow bug: the session's cached cart total is read
        // BEFORE the mutex is acquired...
        let session_total = read_cart_total(conn, cart)?;
        if session_total == 0 {
            return Err(AppError::Rejected("empty cart".into()));
        }

        // ...then the (correct) in-database mutex serializes checkouts...
        conn.exec("BEGIN")?;
        conn.exec("SELECT owner FROM app_locks WHERE name = 'checkout' FOR UPDATE")?;

        // ...but the order is written with the stale pre-mutex total while
        // the line items come from a fresh read inside the critical
        // section.
        let lines = read_cart(conn, cart)?;
        let order = insert_order(conn, cart, session_total)?;
        insert_order_items(conn, order, &lines)?;
        conn.exec("COMMIT")?; // releases the mutex

        // Voucher: predicate count + insert, autocommitted (phantom,
        // scope-based).
        if req.voucher_code.is_some() {
            let uses = query_i64(
                conn,
                &format!(
                    "SELECT COUNT(*) FROM voucher_applications WHERE voucher_id = {VOUCHER_ID}"
                ),
            )?;
            let limit = query_i64(
                conn,
                &format!("SELECT usage_limit FROM vouchers WHERE id = {VOUCHER_ID}"),
            )?;
            if uses >= limit {
                return Err(AppError::Rejected("voucher exhausted".into()));
            }
            conn.exec(&format!(
                "INSERT INTO voucher_applications (voucher_id, order_id) VALUES \
                 ({VOUCHER_ID}, {order})"
            ))?;
        }

        // Community-edition inventory management is inoperable: stock is
        // never decremented (paper "BF").
        clear_cart(conn, cart)?;
        mark_order_placed(conn, order)?;
        Ok(order)
    }
}

/// Shopizer.
pub struct Shopizer;

impl ShopApp for Shopizer {
    fn name(&self) -> &'static str {
        "Shopizer"
    }

    fn language(&self) -> Language {
        Language::Java
    }

    fn voucher_support(&self) -> FeatureStatus {
        FeatureStatus::NoFeature
    }

    fn inventory_support(&self) -> FeatureStatus {
        FeatureStatus::Broken
    }

    fn total_from_request(&self) -> bool {
        true
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
        if req.voucher_code.is_some() {
            return Err(AppError::Unsupported("Shopizer has no gift vouchers"));
        }
        // The order total comes from the request (a header the client
        // controls); the line items come from the database read. The
        // paper's prototype flagged this checkout because of its cart
        // reads, and the attack is triggerable concurrently (yes*).
        let lines = read_cart(conn, cart)?;
        if lines.is_empty() {
            return Err(AppError::Rejected("empty cart".into()));
        }
        let total = match req.client_total {
            Some(t) => t,
            None => read_cart_total(conn, cart)?,
        };
        let order = insert_order(conn, cart, total)?;
        insert_order_items(conn, order, &lines)?;
        // Inventory requires a shipping-service integration and is
        // unreachable in the default deployment (paper "BF").
        clear_cart(conn, cart)?;
        mark_order_placed(conn, order)?;
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acidrain_db::IsolationLevel;

    #[test]
    fn broadleaf_serial_flow_uses_mutex() {
        let db = Broadleaf.make_store(IsolationLevel::ReadCommitted);
        let mut conn = db.connect();
        Broadleaf.add_to_cart(&mut conn, 1, PEN, 2).unwrap();
        let order = Broadleaf
            .checkout(&mut conn, 1, &CheckoutRequest::with_voucher(VOUCHER_CODE))
            .unwrap();
        assert_eq!(
            query_i64(
                &mut conn,
                &format!("SELECT total FROM orders WHERE id = {order}")
            )
            .unwrap(),
            2 * PEN_PRICE
        );
        let log: Vec<String> = db.log_entries().iter().map(|e| e.sql.to_string()).collect();
        assert!(log
            .iter()
            .any(|s| s.contains("app_locks") && s.contains("FOR UPDATE")));
        // The stale session read happens before the mutex acquisition.
        let stale = log.iter().position(|s| s.contains("SUM")).unwrap();
        let mutex = log.iter().position(|s| s.contains("app_locks")).unwrap();
        assert!(stale < mutex);
        // Stock untouched (broken inventory).
        assert_eq!(
            query_i64(
                &mut conn,
                &format!("SELECT stock FROM products WHERE id = {PEN}")
            )
            .unwrap(),
            PEN_STOCK
        );
    }

    #[test]
    fn broadleaf_voucher_limit_serially() {
        let db = Broadleaf.make_store(IsolationLevel::ReadCommitted);
        let mut conn = db.connect();
        Broadleaf.add_to_cart(&mut conn, 1, PEN, 1).unwrap();
        Broadleaf
            .checkout(&mut conn, 1, &CheckoutRequest::with_voucher(VOUCHER_CODE))
            .unwrap();
        Broadleaf.add_to_cart(&mut conn, 1, PEN, 1).unwrap();
        let err = Broadleaf
            .checkout(&mut conn, 1, &CheckoutRequest::with_voucher(VOUCHER_CODE))
            .unwrap_err();
        assert!(matches!(err, AppError::Rejected(_)));
    }

    #[test]
    fn shopizer_trusts_client_total() {
        let db = Shopizer.make_store(IsolationLevel::ReadCommitted);
        let mut conn = db.connect();
        Shopizer.add_to_cart(&mut conn, 1, LAPTOP, 1).unwrap();
        let req = CheckoutRequest {
            voucher_code: None,
            client_total: Some(1),
        };
        let order = Shopizer.checkout(&mut conn, 1, &req).unwrap();
        // The client paid 1 for a laptop — the header-total hole.
        assert_eq!(
            query_i64(
                &mut conn,
                &format!("SELECT total FROM orders WHERE id = {order}")
            )
            .unwrap(),
            1
        );
        let items_value = query_i64(
            &mut conn,
            &format!("SELECT SUM(qty * price) FROM order_items WHERE order_id = {order}"),
        )
        .unwrap();
        assert_eq!(items_value, LAPTOP_PRICE);
    }

    #[test]
    fn shopizer_server_total_when_no_header() {
        let db = Shopizer.make_store(IsolationLevel::ReadCommitted);
        let mut conn = db.connect();
        Shopizer.add_to_cart(&mut conn, 1, PEN, 4).unwrap();
        let order = Shopizer
            .checkout(&mut conn, 1, &CheckoutRequest::plain())
            .unwrap();
        assert_eq!(
            query_i64(
                &mut conn,
                &format!("SELECT total FROM orders WHERE id = {order}")
            )
            .unwrap(),
            4 * PEN_PRICE
        );
    }
}
