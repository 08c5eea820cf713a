//! Remediation (paper §4.2.7 "Potential fixes" and §6): repair strategies
//! applied as wrappers around an application, so the fix can be verified
//! by re-running the same ACIDRain attack against the repaired endpoint.
//!
//! * [`Repair::TransactionScoping`] — "for scope-based anomalies,
//!   refactoring to properly group operations within transactions is
//!   required": the wrapper encapsulates each endpoint in one
//!   `BEGIN`/`COMMIT` pair. This converts scope-based anomalies into
//!   level-based ones — it only *removes* them when combined with a
//!   strong enough isolation level.
//! * [`Repair::ScopingAndSerializable`] — the full fix: scoping plus
//!   running the session at Serializable, "as the correctly-scoped
//!   application transactions would exhibit serializable behavior"
//!   (§4.2.1).
//!
//! Scoping wraps the inner endpoint's statements verbatim, so it is only
//! applicable to applications whose endpoints are not already using
//! transaction control of their own (nesting `BEGIN` inside `BEGIN`
//! implicitly commits, which would corrupt the repair).

use std::sync::Arc;

use acidrain_db::{Database, IsolationLevel};
use acidrain_sql::{may_be_transaction_control, parse_statement};

use crate::framework::{
    AppResult, CheckoutRequest, FeatureStatus, Language, ShopApp, SqlConn, StockModel,
};

/// Whether a concrete SQL string is transaction control, by the parser's
/// definition ([`acidrain_sql::Statement::is_transaction_control`]:
/// `BEGIN` / `START TRANSACTION`, `COMMIT`, `ROLLBACK [TO ...]`,
/// `SAVEPOINT`, `RELEASE`, `SET autocommit`). A string that does not parse
/// is not transaction control. Only text that
/// [`may_be_transaction_control`] admits is parsed.
///
/// This is [`can_repair`]'s "endpoint already uses transaction control"
/// gate; the static repair adviser asks the same predicate of its parse
/// memo.
pub fn is_transaction_control_sql(sql: &str) -> bool {
    may_be_transaction_control(sql)
        && parse_statement(sql).is_ok_and(|stmt| stmt.is_transaction_control())
}

/// The repair strategy applied by [`Repaired`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repair {
    /// Wrap each API call in a single transaction (fixes nothing by
    /// itself at weak isolation — the anomaly becomes level-based).
    TransactionScoping,
    /// Wrap each API call in a single transaction *and* run sessions at
    /// Serializable — the paper's complete remediation.
    ScopingAndSerializable,
}

/// An application with a repair applied to its endpoints.
pub struct Repaired<'a> {
    inner: &'a dyn ShopApp,
    repair: Repair,
}

impl<'a> Repaired<'a> {
    /// Wrap `inner` with `repair`. Panics if the application already uses
    /// transaction control inside its endpoints (see module docs).
    pub fn new(inner: &'a dyn ShopApp, repair: Repair) -> Self {
        assert!(
            can_repair(inner),
            "{} uses transaction control internally; statement-level re-scoping would nest \
             transactions",
            inner.name()
        );
        Repaired { inner, repair }
    }

    fn in_endpoint_txn<T>(
        &self,
        conn: &mut dyn SqlConn,
        body: impl FnOnce(&mut dyn SqlConn) -> AppResult<T>,
    ) -> AppResult<T> {
        conn.exec("BEGIN")?;
        match body(conn) {
            Ok(v) => {
                conn.exec("COMMIT")?;
                Ok(v)
            }
            Err(e) => {
                // Statement-level database errors may already have rolled
                // the transaction back; a ROLLBACK on a closed transaction
                // is a no-op.
                conn.exec("ROLLBACK")?;
                Err(e)
            }
        }
    }
}

/// Whether an application's endpoints are free of internal transaction
/// control, making them safely wrappable.
pub fn can_repair(app: &dyn ShopApp) -> bool {
    // Conservative, behavior-derived check: run the endpoints serially on
    // a scratch store and inspect the log for transaction control.
    let db = app.make_store(IsolationLevel::ReadCommitted);
    let mut conn = db.connect();
    let _ = app.add_to_cart(&mut conn, 1, crate::framework::PEN, 1);
    let _ = app.checkout(&mut conn, 1, &CheckoutRequest::plain());
    drop(conn);
    !db.log_entries()
        .iter()
        .any(|e| is_transaction_control_sql(&e.sql))
}

impl ShopApp for Repaired<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn language(&self) -> Language {
        self.inner.language()
    }

    fn voucher_support(&self) -> FeatureStatus {
        self.inner.voucher_support()
    }

    fn inventory_support(&self) -> FeatureStatus {
        self.inner.inventory_support()
    }

    fn cart_support(&self) -> FeatureStatus {
        self.inner.cart_support()
    }

    fn session_locked(&self) -> bool {
        self.inner.session_locked()
    }

    fn stock_model(&self) -> StockModel {
        self.inner.stock_model()
    }

    fn total_from_request(&self) -> bool {
        self.inner.total_from_request()
    }

    fn reset_session_state(&self) {
        self.inner.reset_session_state();
    }

    fn make_store(&self, isolation: IsolationLevel) -> Arc<Database> {
        // The full repair pins sessions at Serializable regardless of the
        // requested level (the paper's "upgrade the isolation level ...
        // to serializability").
        let effective = match self.repair {
            Repair::TransactionScoping => isolation,
            Repair::ScopingAndSerializable => IsolationLevel::Serializable,
        };
        self.inner.make_store(effective)
    }

    fn add_to_cart(
        &self,
        conn: &mut dyn SqlConn,
        cart: i64,
        product: i64,
        qty: i64,
    ) -> AppResult<()> {
        self.in_endpoint_txn(conn, |c| self.inner.add_to_cart(c, cart, product, qty))
    }

    fn checkout(&self, conn: &mut dyn SqlConn, cart: i64, req: &CheckoutRequest) -> AppResult<i64> {
        self.in_endpoint_txn(conn, |c| self.inner.checkout(c, cart, req))
    }
}

impl std::fmt::Debug for Repaired<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Repaired({}, {:?})", self.inner.name(), self.repair)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{query_i64, AppError, PEN, PEN_PRICE, PEN_STOCK, VOUCHER_CODE};
    use crate::php::{Magento, PrestaShop};
    use crate::python::Oscar;
    use crate::ruby::Shoppe;

    #[test]
    fn transaction_control_is_what_the_parser_says_it_is() {
        for (sql, expected) in [
            ("BEGIN", true),
            ("begin work", true),
            ("BEGIN TRANSACTION", true),
            ("START TRANSACTION", true),
            ("COMMIT", true),
            ("COMMIT WORK", true),
            ("ROLLBACK", true),
            ("ROLLBACK WORK", true),
            ("SET autocommit = 0", true),
            ("SET AUTOCOMMIT = 1", true),
            ("SAVEPOINT sp1", true),
            ("ROLLBACK TO sp1", true),
            ("ROLLBACK TO SAVEPOINT sp1", true),
            ("RELEASE sp1", true),
            ("RELEASE SAVEPOINT sp1", true),
            ("INSERT INTO notes (body) VALUES ('autocommit off')", false),
            ("SELECT stock FROM products WHERE id = 1", false),
            ("UPDATE products SET stock = 4 WHERE id = 1", false),
            ("delete from cart_items where cart_id = 1", false),
            ("BEGINNING OF NOTHING", false),
        ] {
            let parsed = parse_statement(sql).map(|stmt| stmt.is_transaction_control());
            assert_eq!(parsed.unwrap_or(false), expected, "parser on {sql:?}");
            assert_eq!(is_transaction_control_sql(sql), expected, "{sql:?}");
        }
    }

    #[test]
    fn repairable_apps_detected() {
        assert!(can_repair(&PrestaShop));
        assert!(can_repair(&Shoppe));
        assert!(
            !can_repair(&Magento),
            "Magento's inventory txn makes it unwrappable"
        );
        assert!(!can_repair(&Oscar), "Oscar already wraps checkout");
    }

    #[test]
    #[should_panic(expected = "transaction control internally")]
    fn wrapping_a_txn_using_app_panics() {
        let _ = Repaired::new(&Magento, Repair::TransactionScoping);
    }

    #[test]
    fn repaired_endpoints_work_serially() {
        for repair in [Repair::TransactionScoping, Repair::ScopingAndSerializable] {
            let app = Repaired::new(&PrestaShop, repair);
            let db = app.make_store(IsolationLevel::ReadCommitted);
            let mut conn = db.connect();
            app.add_to_cart(&mut conn, 1, PEN, 2).unwrap();
            let order = app
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
            assert_eq!(
                query_i64(
                    &mut conn,
                    &format!("SELECT stock FROM products WHERE id = {PEN}")
                )
                .unwrap(),
                PEN_STOCK - 2
            );
        }
    }

    #[test]
    fn rejected_checkout_rolls_back_entirely() {
        // Unlike the unrepaired app, a failed checkout leaves no trace at
        // all (the whole endpoint is one transaction).
        let app = Repaired::new(&PrestaShop, Repair::TransactionScoping);
        let db = app.make_store(IsolationLevel::ReadCommitted);
        let mut conn = db.connect();
        app.add_to_cart(&mut conn, 1, PEN, PEN_STOCK + 1).unwrap();
        let err = app
            .checkout(&mut conn, 1, &CheckoutRequest::plain())
            .unwrap_err();
        assert!(matches!(err, AppError::Rejected(_)));
        assert_eq!(
            query_i64(&mut conn, "SELECT COUNT(*) FROM orders").unwrap(),
            0
        );
    }

    #[test]
    fn scoping_log_shape() {
        let app = Repaired::new(&PrestaShop, Repair::TransactionScoping);
        let db = app.make_store(IsolationLevel::ReadCommitted);
        let mut conn = db.connect();
        app.add_to_cart(&mut conn, 1, PEN, 1).unwrap();
        let log: Vec<String> = db.log_entries().iter().map(|e| e.sql.to_string()).collect();
        assert_eq!(log.first().map(String::as_str), Some("BEGIN"));
        assert_eq!(log.last().map(String::as_str), Some("COMMIT"));
    }
}
