//! Statement rewriting for the static repair adviser.
//!
//! The adviser's cheapest candidate fix promotes a plain `SELECT` to
//! `SELECT ... FOR UPDATE` so the read acquires exclusive row locks and
//! serializes against the racing writer. The rewrite works on *concrete*
//! SQL text (the statements recorded in the log), never on symbolized
//! templates — `:int`-style placeholders are not part of the dialect and
//! would not re-parse.

use crate::ast::Statement;
use crate::error::ParseError;
use crate::parser::parse_statement;

/// Rewrite a concrete SQL statement to read under `FOR UPDATE`.
///
/// Returns `Ok(Some(rewritten))` when the statement is a lockable
/// `SELECT` (has a `FROM` clause and is not already locking), `Ok(None)`
/// when the statement parses but is not promotable (not a `SELECT`,
/// table-less, or already `FOR UPDATE`), and the parse error otherwise.
///
/// The rewritten text is the canonical [`std::fmt::Display`] rendering,
/// which round-trips through the parser.
///
/// ```
/// use acidrain_sql::rewrite::promote_for_update;
///
/// let out = promote_for_update("SELECT balance FROM accounts WHERE id = 1").unwrap();
/// assert_eq!(
///     out.as_deref(),
///     Some("SELECT balance FROM accounts WHERE id = 1 FOR UPDATE")
/// );
/// assert_eq!(promote_for_update("COMMIT").unwrap(), None);
/// ```
pub fn promote_for_update(sql: &str) -> Result<Option<String>, ParseError> {
    Ok(promote_parsed(&parse_statement(sql)?))
}

/// [`promote_for_update`] of an already-parsed statement: the rewritten
/// text when `stmt` is a lockable `SELECT`, `None` otherwise.
pub fn promote_parsed(stmt: &Statement) -> Option<String> {
    match stmt {
        Statement::Select(s) if s.from.is_some() && !s.for_update => {
            let mut s = s.clone();
            s.for_update = true;
            Some(Statement::Select(s).to_string())
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotes_plain_select() {
        let out = promote_for_update("SELECT qty FROM stock WHERE product_id = 2048")
            .unwrap()
            .unwrap();
        assert_eq!(
            out,
            "SELECT qty FROM stock WHERE product_id = 2048 FOR UPDATE"
        );
        // The rewrite round-trips: re-parsing yields a locking select.
        match parse_statement(&out).unwrap() {
            Statement::Select(s) => assert!(s.for_update),
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn already_locking_select_is_not_promotable() {
        let out = promote_for_update("SELECT qty FROM stock WHERE id = 1 FOR UPDATE").unwrap();
        assert_eq!(out, None);
    }

    #[test]
    fn non_selects_and_tableless_selects_are_not_promotable() {
        assert_eq!(promote_for_update("BEGIN").unwrap(), None);
        assert_eq!(
            promote_for_update("UPDATE stock SET qty = qty - 1").unwrap(),
            None
        );
        assert_eq!(promote_for_update("SELECT 1").unwrap(), None);
    }

    #[test]
    fn parse_errors_propagate() {
        assert!(promote_for_update("SELEC qty FROM stock").is_err());
    }

    #[test]
    fn preserves_order_by_and_limit() {
        let out = promote_for_update("SELECT id FROM seats ORDER BY id ASC LIMIT 1")
            .unwrap()
            .unwrap();
        assert_eq!(
            out,
            "SELECT id FROM seats ORDER BY id ASC LIMIT 1 FOR UPDATE"
        );
    }
}
