//! Statement templates: literal abstraction and fingerprinting.
//!
//! The static 2AD audit reasons over statement *templates* — the shape of
//! a query with its concrete values abstracted away — so that one recorded
//! solo pass per endpoint stands for the infinite family of invocations
//! with different inputs. This module reduces a parsed statement to its
//! template by replacing every literal with a typed placeholder (`:int`,
//! `:float`, `:str`, `:bool`), rendering the result through the canonical
//! [`std::fmt::Display`] renderer, and hashing the rendered text into a
//! stable 64-bit fingerprint.
//!
//! `NULL` is deliberately *not* abstracted: in this dialect it is a
//! structural marker (engine-assigned auto-increment values, explicit
//! absence) rather than a user-supplied parameter, and two statements that
//! differ in NULL-ness have different footprints.
//!
//! ```
//! use acidrain_sql::fingerprint::statement_template;
//!
//! let a = statement_template("SELECT used FROM vouchers WHERE id = 1").unwrap();
//! let b = statement_template("SELECT used FROM vouchers WHERE id = 42").unwrap();
//! assert_eq!(a.text, "SELECT used FROM vouchers WHERE id = :int");
//! assert_eq!(a.hash, b.hash);
//! ```

use crate::ast::{
    Assignment, ColumnRef, Delete, Expr, Insert, Join, Literal, OrderByItem, Select, SelectItem,
    Statement, Update,
};
use crate::error::ParseError;
use crate::parser::parse_statement;

/// A statement with its literals abstracted to typed placeholders.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StatementTemplate {
    /// Canonical rendering of the parameterized statement.
    pub text: String,
    /// FNV-1a hash of [`StatementTemplate::text`]; stable across runs and
    /// platforms, usable as a grouping key.
    pub hash: u64,
}

/// Parse `sql` and reduce it to its [`StatementTemplate`].
pub fn statement_template(sql: &str) -> Result<StatementTemplate, ParseError> {
    Ok(template_of(&parse_statement(sql)?))
}

/// Fingerprint of one statement's *shape*: the [`StatementTemplate`] hash
/// when the text parses, otherwise FNV-1a of the raw text.
///
/// The fallback is what makes fingerprints agree across the concrete and
/// symbolized sides of an analysis. A symbolized statement (`id = :int`)
/// does not round-trip through the parser, but its template hash *is*
/// FNV-1a of the template text — so hashing the unparseable text raw yields
/// the same value the concrete statement's template produced.
pub fn statement_fingerprint(sql: &str) -> u64 {
    parsed_fingerprint(parse_statement(sql).as_ref(), sql)
}

/// [`statement_fingerprint`] of `sql`, given what `sql` parses to.
pub(crate) fn parsed_fingerprint(stmt: Result<&Statement, &ParseError>, sql: &str) -> u64 {
    match stmt {
        Ok(stmt) => template_of(stmt).hash,
        Err(_) => fnv1a(sql.as_bytes()),
    }
}

/// Reduce an already-parsed statement to its [`StatementTemplate`].
pub fn template_of(stmt: &Statement) -> StatementTemplate {
    let text = normalize_statement(stmt).to_string();
    let hash = fnv1a(text.as_bytes());
    StatementTemplate { text, hash }
}

/// Clone `stmt` with every literal replaced by its typed placeholder.
///
/// The returned statement is for rendering and structural comparison only:
/// placeholders are encoded as bare column references (`:int` is not
/// lexable), so the result round-trips through `Display` but not through
/// the parser.
pub fn normalize_statement(stmt: &Statement) -> Statement {
    match stmt {
        Statement::Select(s) => Statement::Select(Select {
            projection: s.projection.iter().map(normalize_item).collect(),
            from: s.from.clone(),
            joins: s
                .joins
                .iter()
                .map(|j| Join {
                    table: j.table.clone(),
                    on: normalize_expr(&j.on),
                })
                .collect(),
            selection: s.selection.as_ref().map(normalize_expr),
            order_by: s
                .order_by
                .iter()
                .map(|o| OrderByItem {
                    expr: normalize_expr(&o.expr),
                    asc: o.asc,
                })
                .collect(),
            limit: s.limit,
            for_update: s.for_update,
        }),
        Statement::Insert(i) => Statement::Insert(Insert {
            table: i.table.clone(),
            columns: i.columns.clone(),
            rows: i
                .rows
                .iter()
                .map(|row| row.iter().map(normalize_expr).collect())
                .collect(),
        }),
        Statement::Update(u) => Statement::Update(Update {
            table: u.table.clone(),
            assignments: u
                .assignments
                .iter()
                .map(|a| Assignment {
                    column: a.column.clone(),
                    value: normalize_expr(&a.value),
                })
                .collect(),
            selection: u.selection.as_ref().map(normalize_expr),
        }),
        Statement::Delete(d) => Statement::Delete(Delete {
            table: d.table.clone(),
            selection: d.selection.as_ref().map(normalize_expr),
        }),
        // Transaction control and DDL carry no user-supplied values.
        other => other.clone(),
    }
}

fn normalize_item(item: &SelectItem) -> SelectItem {
    match item {
        SelectItem::Expr { expr, alias } => SelectItem::Expr {
            expr: normalize_expr(expr),
            alias: alias.clone(),
        },
        other => other.clone(),
    }
}

fn normalize_expr(expr: &Expr) -> Expr {
    match expr {
        Expr::Literal(lit) => match placeholder(lit) {
            Some(name) => Expr::Column(ColumnRef::bare(name)),
            None => expr.clone(),
        },
        Expr::Column(_) => expr.clone(),
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(normalize_expr(expr)),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(normalize_expr(left)),
            op: *op,
            right: Box::new(normalize_expr(right)),
        },
        Expr::Function {
            name,
            args,
            wildcard,
        } => Expr::Function {
            name: name.clone(),
            args: args.iter().map(normalize_expr).collect(),
            wildcard: *wildcard,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(normalize_expr(expr)),
            list: list.iter().map(normalize_expr).collect(),
            negated: *negated,
        },
        Expr::Case {
            operand,
            branches,
            else_branch,
        } => Expr::Case {
            operand: operand.as_ref().map(|o| Box::new(normalize_expr(o))),
            branches: branches
                .iter()
                .map(|(w, t)| (normalize_expr(w), normalize_expr(t)))
                .collect(),
            else_branch: else_branch.as_ref().map(|e| Box::new(normalize_expr(e))),
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(normalize_expr(expr)),
            negated: *negated,
        },
    }
}

/// Placeholder name for a literal, or `None` for structural literals that
/// stay concrete.
fn placeholder(lit: &Literal) -> Option<&'static str> {
    match lit {
        Literal::Int(_) => Some(":int"),
        Literal::Float(_) => Some(":float"),
        Literal::Str(_) => Some(":str"),
        Literal::Bool(_) => Some(":bool"),
        Literal::Null => None,
    }
}

/// 64-bit FNV-1a (no external dependencies, stable across platforms).
///
/// Public because statement fingerprints must stay comparable across the
/// concrete and symbolized sides of an analysis: template text produced by
/// [`statement_template`] does not round-trip through the parser, so callers
/// matching statements by shape hash the raw text with this same function
/// when re-parsing fails.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_become_typed_placeholders() {
        let t = statement_template(
            "INSERT INTO orders (cart_id, total, status) VALUES (7, 902, 'pending')",
        )
        .unwrap();
        assert_eq!(
            t.text,
            "INSERT INTO orders (cart_id, total, status) VALUES (:int, :int, :str)"
        );
    }

    #[test]
    fn same_shape_same_fingerprint() {
        let a = statement_template("UPDATE products SET stock = stock - 3 WHERE id = 2").unwrap();
        let b = statement_template("UPDATE products SET stock = stock - 1 WHERE id = 99").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_shapes_differ() {
        let a = statement_template("SELECT stock FROM products WHERE id = 1").unwrap();
        let b = statement_template("SELECT stock FROM products WHERE name = 'pen'").unwrap();
        assert_ne!(a.hash, b.hash);
        assert_ne!(a.text, b.text);
    }

    #[test]
    fn null_stays_concrete() {
        let t = statement_template("INSERT INTO t (a, b) VALUES (NULL, 5)").unwrap();
        assert_eq!(t.text, "INSERT INTO t (a, b) VALUES (NULL, :int)");
    }

    #[test]
    fn float_bool_and_negation() {
        let t =
            statement_template("SELECT * FROM t WHERE a = 3.5 AND b = TRUE AND c = -2").unwrap();
        // The parser folds unary minus into the integer literal, so the
        // sign is abstracted along with the value.
        assert_eq!(
            t.text,
            "SELECT * FROM t WHERE a = :float AND b = :bool AND c = :int"
        );
    }

    #[test]
    fn control_statements_template_to_themselves() {
        for sql in ["BEGIN", "COMMIT", "ROLLBACK", "SET autocommit=0"] {
            let t = statement_template(sql).unwrap();
            // Canonical rendering (BEGIN -> BEGIN TRANSACTION) but no
            // placeholders.
            assert!(!t.text.contains(':'), "{}", t.text);
        }
    }

    #[test]
    fn case_and_in_list_are_walked() {
        let t = statement_template(
            "UPDATE t SET q=CASE p WHEN 1 THEN q - 1 ELSE q END WHERE p IN (1, 2)",
        )
        .unwrap();
        assert_eq!(
            t.text,
            "UPDATE t SET q=CASE p WHEN :int THEN q - :int ELSE q END WHERE p IN (:int, :int)"
        );
    }

    #[test]
    fn fingerprint_is_stable() {
        // Pin the FNV-1a output so the hash stays comparable across runs
        // and in golden files.
        let t = statement_template("SELECT 1").unwrap();
        assert_eq!(t.hash, fnv1a(t.text.as_bytes()));
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }
}
