//! The paper's didactic applications: the Figure-1 banking `withdraw`,
//! the Figure-3 payroll functions, and the Figure-9 simplified shop.

use std::sync::Arc;

use acidrain_db::{Database, IsolationLevel, Value};
use acidrain_sql::schema::{ColumnDef, ColumnType, Schema, TableSchema};

use crate::framework::{AppError, AppResult, SqlConn};

// ---------------------------------------------------------------------------
// Figure 1: the vulnerable withdraw function.

/// Schema for the Figure-1 bank: one `accounts` table.
pub fn banking_schema() -> Schema {
    Schema::new().with_table(TableSchema::new(
        "accounts",
        vec![
            ColumnDef::new("id", ColumnType::Int).auto_increment(),
            ColumnDef::new("balance", ColumnType::Int),
        ],
    ))
}

/// A bank whose `withdraw` endpoint matches Figure 1.
pub struct Bank {
    /// Figure 1a (false) vs Figure 1b (true): whether the read-check-write
    /// is wrapped in a transaction.
    pub use_transaction: bool,
    /// The fix the paper names: `SELECT ... FOR UPDATE` on the balance.
    pub use_select_for_update: bool,
}

impl Bank {
    /// The unscoped original: no transaction, no locking.
    pub fn figure_1a() -> Self {
        Bank {
            use_transaction: false,
            use_select_for_update: false,
        }
    }

    /// The transaction-wrapped variant (still vulnerable at weak levels).
    pub fn figure_1b() -> Self {
        Bank {
            use_transaction: true,
            use_select_for_update: false,
        }
    }

    /// Transaction plus `SELECT ... FOR UPDATE`: the paper's fix.
    pub fn fixed() -> Self {
        Bank {
            use_transaction: true,
            use_select_for_update: true,
        }
    }

    /// Fresh bank with one account holding `opening_balance`.
    pub fn make_bank(&self, isolation: IsolationLevel, opening_balance: i64) -> Arc<Database> {
        let db = Database::new(banking_schema(), isolation);
        db.seed(
            "accounts",
            vec![vec![Value::Null, Value::Int(opening_balance)]],
        )
        .expect("seed account");
        db
    }

    /// `withdraw(amt, user_id)` from Figure 1.
    pub fn withdraw(&self, conn: &mut dyn SqlConn, user: i64, amount: i64) -> AppResult<()> {
        if self.use_transaction {
            conn.exec("BEGIN")?;
        }
        let lock_suffix = if self.use_select_for_update {
            " FOR UPDATE"
        } else {
            ""
        };
        let balance = conn
            .exec(&format!(
                "SELECT balance FROM accounts WHERE id = {user}{lock_suffix}"
            ))?
            .scalar_i64()
            .unwrap_or(0);
        if balance < amount {
            if self.use_transaction {
                conn.exec("ROLLBACK")?;
            }
            return Err(AppError::Rejected("insufficient funds".into()));
        }
        conn.exec(&format!(
            "UPDATE accounts SET balance = {} WHERE id = {user}",
            balance - amount
        ))?;
        if self.use_transaction {
            conn.exec("COMMIT")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Figure 3: the payroll application.

/// Schema for the Figure-3 payroll app: `employees` plus a salary-total ledger.
pub fn payroll_schema() -> Schema {
    Schema::new()
        .with_table(TableSchema::new(
            "employees",
            vec![
                ColumnDef::new("first_name", ColumnType::Str),
                ColumnDef::new("last_name", ColumnType::Str),
                ColumnDef::new("salary", ColumnType::Int),
            ],
        ))
        .with_table(TableSchema::new(
            "salary",
            vec![ColumnDef::new("total", ColumnType::Int)],
        ))
}

/// Fresh payroll database with the two seeded employees.
pub fn make_payroll(isolation: IsolationLevel) -> Arc<Database> {
    let db = Database::new(payroll_schema(), isolation);
    db.seed(
        "employees",
        vec![
            vec!["Ada".into(), "Lovelace".into(), Value::Int(50000)],
            vec!["Grace".into(), "Hopper".into(), Value::Int(50000)],
        ],
    )
    .expect("seed employees");
    db.seed("salary", vec![vec![Value::Int(100000)]])
        .expect("seed salary");
    db
}

/// Figure 3a lines 1–7: add an employee if the name is unique.
pub fn add_employee(
    conn: &mut dyn SqlConn,
    first: &str,
    last: &str,
    salary: i64,
) -> AppResult<bool> {
    conn.exec("BEGIN TRANSACTION")?;
    let count = conn
        .exec(&format!(
            "SELECT COUNT(*) FROM employees WHERE first_name='{first}' AND last_name='{last}'"
        ))?
        .scalar_i64()
        .unwrap_or(0);
    let mut added = false;
    if count == 0 {
        conn.exec(&format!(
            "INSERT INTO employees (first_name, last_name, salary) VALUES \
             ('{first}', '{last}', {salary})"
        ))?;
        added = true;
    }
    conn.exec("COMMIT")?;
    Ok(added)
}

/// Figure 3a lines 8–13: raise all salaries and record the new total cost.
pub fn raise_salary(conn: &mut dyn SqlConn, amount: i64) -> AppResult<()> {
    conn.exec(&format!("UPDATE employees SET salary=salary+{amount}"))?;
    conn.exec("BEGIN TRANSACTION")?;
    let count = conn
        .exec("SELECT COUNT(*) FROM employees")?
        .scalar_i64()
        .unwrap_or(0);
    conn.exec(&format!("UPDATE salary SET total=total+{}", count * amount))?;
    conn.exec("COMMIT")?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Figure 9: the simplified shop whose abstract history the paper draws.

/// Schema for the Figure-9 simplified shop.
pub fn minishop_schema() -> Schema {
    Schema::new()
        .with_table(TableSchema::new(
            "cart_items",
            vec![
                ColumnDef::new("cart_id", ColumnType::Int),
                ColumnDef::new("item_id", ColumnType::Int),
                ColumnDef::new("amt", ColumnType::Int),
            ],
        ))
        .with_table(TableSchema::new(
            "stock",
            vec![
                ColumnDef::new("item_id", ColumnType::Int).unique(),
                ColumnDef::new("count", ColumnType::Int),
                ColumnDef::new("price", ColumnType::Int),
            ],
        ))
        .with_table(TableSchema::new(
            "orders",
            vec![
                ColumnDef::new("id", ColumnType::Int).auto_increment(),
                ColumnDef::new("total", ColumnType::Int),
            ],
        ))
        .with_table(TableSchema::new(
            "order_items",
            vec![
                ColumnDef::new("order_id", ColumnType::Int),
                ColumnDef::new("item_id", ColumnType::Int),
                ColumnDef::new("amt", ColumnType::Int),
            ],
        ))
}

/// Fresh minishop with one seeded item (10 on hand at price 5).
pub fn make_minishop(isolation: IsolationLevel) -> Arc<Database> {
    let db = Database::new(minishop_schema(), isolation);
    db.seed(
        "stock",
        vec![vec![Value::Int(1), Value::Int(10), Value::Int(5)]],
    )
    .expect("seed stock");
    db
}

/// Figure 9's `add_to_cart`: read cart, read stock, write cart.
pub fn minishop_add_to_cart(
    conn: &mut dyn SqlConn,
    cart: i64,
    item: i64,
    amt: i64,
) -> AppResult<()> {
    let existing = conn
        .exec(&format!(
            "SELECT amt FROM cart_items WHERE cart_id={cart} AND item_id={item}"
        ))?
        .scalar_i64()
        .unwrap_or(0);
    let available = conn
        .exec(&format!("SELECT count FROM stock WHERE item_id={item}"))?
        .scalar_i64()
        .unwrap_or(0);
    if existing + amt > available {
        return Err(AppError::Rejected("not enough stock".into()));
    }
    if existing > 0 {
        conn.exec(&format!(
            "UPDATE cart_items SET amt={} WHERE cart_id={cart} AND item_id={item}",
            existing + amt
        ))?;
    } else {
        conn.exec(&format!(
            "INSERT INTO cart_items (cart_id, item_id, amt) VALUES ({cart}, {item}, {amt})"
        ))?;
    }
    Ok(())
}

/// Figure 9's `checkout`: read stock, read cart, write order, read cart
/// again, write order_items, write stock — the node sequence 4..9 in the
/// figure.
pub fn minishop_checkout(conn: &mut dyn SqlConn, cart: i64) -> AppResult<i64> {
    let _guard = conn
        .exec(&format!(
            "SELECT SUM(ci.amt) FROM cart_items AS ci INNER JOIN stock AS s \
             ON s.item_id = ci.item_id WHERE ci.cart_id={cart} AND s.count < ci.amt"
        ))?
        .scalar_i64();
    let total = conn
        .exec(&format!(
            "SELECT SUM(ci.amt * s.price) FROM cart_items AS ci INNER JOIN stock AS s \
             ON s.item_id = ci.item_id WHERE ci.cart_id={cart}"
        ))?
        .scalar_i64()
        .unwrap_or(0);
    if total == 0 {
        return Err(AppError::Rejected("empty cart".into()));
    }
    let order = conn
        .exec(&format!("INSERT INTO orders (total) VALUES ({total})"))?
        .last_insert_id()
        .expect("order id");
    let rs = conn.exec(&format!(
        "SELECT item_id, amt FROM cart_items WHERE cart_id={cart}"
    ))?;
    let lines: Vec<(i64, i64)> = rs
        .rows
        .iter()
        .map(|r| (r[0].as_i64().unwrap_or(0), r[1].as_i64().unwrap_or(0)))
        .collect();
    for (item, amt) in &lines {
        conn.exec(&format!(
            "INSERT INTO order_items (order_id, item_id, amt) VALUES ({order}, {item}, {amt})"
        ))?;
        conn.exec(&format!(
            "UPDATE stock SET count = count - {amt} WHERE item_id = {item}"
        ))?;
    }
    conn.exec(&format!("DELETE FROM cart_items WHERE cart_id = {cart}"))?;
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_withdraw_serially_correct() {
        for bank in [Bank::figure_1a(), Bank::figure_1b(), Bank::fixed()] {
            let db = bank.make_bank(IsolationLevel::ReadCommitted, 100);
            let mut conn = db.connect();
            bank.withdraw(&mut conn, 1, 99).unwrap();
            let err = bank.withdraw(&mut conn, 1, 99).unwrap_err();
            assert!(matches!(err, AppError::Rejected(_)));
            assert_eq!(db.table_rows("accounts").unwrap()[0][1], Value::Int(1));
        }
    }

    #[test]
    fn payroll_matches_figure3_log() {
        let db = make_payroll(IsolationLevel::ReadCommitted);
        let mut conn = db.connect();
        conn.set_api("add_employee", 0);
        assert!(add_employee(&mut conn, "John", "Doe", 50000).unwrap());
        conn.set_api("raise_salary", 0);
        raise_salary(&mut conn, 1000).unwrap();
        let log: Vec<String> = db.log_entries().iter().map(|e| e.sql.to_string()).collect();
        // The Figure 3b sequence.
        assert_eq!(log[0], "BEGIN TRANSACTION");
        assert!(log[1].starts_with("SELECT COUNT(*) FROM employees WHERE"));
        assert!(log[2].starts_with("INSERT INTO employees"));
        assert_eq!(log[3], "COMMIT");
        assert_eq!(log[4], "UPDATE employees SET salary=salary+1000");
        assert_eq!(log[5], "BEGIN TRANSACTION");
        assert_eq!(log[6], "SELECT COUNT(*) FROM employees");
        assert_eq!(log[7], "UPDATE salary SET total=total+3000");
        assert_eq!(log[8], "COMMIT");
        // Duplicate adds are refused.
        conn.set_api("add_employee", 1);
        assert!(!add_employee(&mut conn, "John", "Doe", 50000).unwrap());
    }

    #[test]
    fn minishop_serial_flow() {
        let db = make_minishop(IsolationLevel::ReadCommitted);
        let mut conn = db.connect();
        minishop_add_to_cart(&mut conn, 14, 1, 2).unwrap();
        minishop_add_to_cart(&mut conn, 14, 1, 1).unwrap();
        let order = minishop_checkout(&mut conn, 14).unwrap();
        assert_eq!(order, 1);
        let orders = db.table_rows("orders").unwrap();
        assert_eq!(orders[0][1], Value::Int(15), "3 units at price 5");
        assert_eq!(db.table_rows("stock").unwrap()[0][1], Value::Int(7));
        // Oversized add is refused.
        let err = minishop_add_to_cart(&mut conn, 14, 1, 99).unwrap_err();
        assert!(matches!(err, AppError::Rejected(_)));
    }
}
