//! Predicate analysis for the index read paths.
//!
//! The executor asks two narrow questions before scanning a table: *does
//! the statement's WHERE/ON tree prove `col = literal`* — served by an
//! equality (hash) probe — *or, failing that, a one-column range like
//! `col < literal`* — served by an ordered-index range probe — *for some
//! index-backed column of this table?* If so, the table's candidate rows
//! come from an index probe instead of a full slot walk. The analysis is
//! purely sufficient, never necessary: a conjunct it cannot extract just
//! means a full scan, and every candidate an index supplies is still run
//! through the ordinary predicate evaluation — so a false negative costs
//! time, never correctness.
//!
//! Extraction rules:
//!
//! * only **top-level AND conjuncts** are inspected (`a = 1 AND rest`);
//!   anything under `OR`, `NOT`, arithmetic, `IN`, or `CASE` is opaque;
//! * a conjunct must be `column = literal` or `literal = column` with a
//!   bare column reference and a bare literal — computed values fall back;
//! * column references resolve exactly as [`crate::expr::EvalScope`]
//!   resolves them (qualifier → effective table name; unqualified → first
//!   table in scope order carrying the name);
//! * if *any* column reference in the analyzed clause fails to resolve,
//!   the whole statement falls back to the full scan, so evaluation
//!   surfaces the same [`crate::error::DbError::UnknownColumn`] the
//!   pre-index engine raised.

use acidrain_sql::ast::{BinOp, ColumnRef, Expr};

use crate::storage::TableData;
use crate::value::Value;

/// A `col = literal` equality that holds for every row combination the
/// analyzed clauses accept.
#[derive(Debug, Clone, PartialEq)]
pub struct EqConstraint {
    /// Position of the owning table in the statement's scope (join order).
    pub table: usize,
    /// Storage position of the column within that table.
    pub column: usize,
    /// The literal the column must equal.
    pub value: Value,
}

/// A one-column range that holds for every row combination the analyzed
/// clauses accept: `lower <= col <= upper` with either side optional.
/// Bounds are **widened to inclusive** (`col < 10` contributes upper
/// `10`) — the candidate set is a superset and the exact predicate
/// re-verifies every candidate, same as the equality path.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeConstraint {
    /// Position of the owning table in the statement's scope (join order).
    pub table: usize,
    /// Storage position of the column within that table.
    pub column: usize,
    /// Inclusive lower bound, if any conjunct proved one.
    pub lower: Option<Value>,
    /// Inclusive upper bound, if any conjunct proved one.
    pub upper: Option<Value>,
}

/// One table's name bindings during analysis, mirroring
/// [`crate::expr::EvalTable`] without row values.
#[derive(Debug, Clone, Copy)]
pub struct PlanTable<'a> {
    /// The name expressions refer to the table by (alias or real name).
    pub effective_name: &'a str,
    /// Column names in storage order.
    pub columns: &'a [String],
}

/// Resolve a column reference against the scope, mirroring
/// `EvalScope::lookup`: `Some((table position, column position))` or
/// `None` when evaluation would raise `UnknownColumn`.
fn resolve(tables: &[PlanTable<'_>], col: &ColumnRef) -> Option<(usize, usize)> {
    if let Some(qualifier) = &col.table {
        let ti = tables.iter().position(|t| t.effective_name == qualifier)?;
        let ci = tables[ti].columns.iter().position(|c| c == &col.column)?;
        return Some((ti, ci));
    }
    for (ti, t) in tables.iter().enumerate() {
        if let Some(ci) = t.columns.iter().position(|c| c == &col.column) {
            return Some((ti, ci));
        }
    }
    None
}

/// Whether every column reference in every clause resolves. When one does
/// not, the statement must take the full scan so evaluation raises the
/// same `UnknownColumn` error the index-free engine does.
fn all_resolve(clauses: &[&Expr], tables: &[PlanTable<'_>]) -> bool {
    let mut ok = true;
    for clause in clauses {
        clause.visit_columns(&mut |c| ok &= resolve(tables, c).is_some());
    }
    ok
}

/// Collect the `col = literal` constraints proven by the top-level AND
/// conjuncts of every clause in `clauses`. Returns `None` — demanding a
/// full-scan fallback — when any column reference in any clause fails to
/// resolve.
pub fn equality_constraints(
    clauses: &[&Expr],
    tables: &[PlanTable<'_>],
) -> Option<Vec<EqConstraint>> {
    all_resolve(clauses, tables).then(|| {
        let mut out = Vec::new();
        for clause in clauses {
            collect_conjuncts(clause, tables, &mut out);
        }
        out
    })
}

/// Collect the one-column range constraints proven by the top-level AND
/// conjuncts of every clause in `clauses` — `col < lit`, `lit <= col`,
/// and friends (`BETWEEN` desugars to such conjuncts in the parser).
/// Bounds merge per column: the first lower and first upper seen win
/// (later, possibly tighter bounds only shrink a set the predicate
/// re-verifies anyway). Returns `None` under exactly the same
/// unresolvable-column rule as [`equality_constraints`].
pub fn range_constraints(
    clauses: &[&Expr],
    tables: &[PlanTable<'_>],
) -> Option<Vec<RangeConstraint>> {
    all_resolve(clauses, tables).then(|| {
        let mut out = Vec::new();
        for clause in clauses {
            collect_range_conjuncts(clause, tables, &mut out);
        }
        out
    })
}

/// The one routing decision every statement shares. Per scope table
/// (`data` is aligned with `tables`): the candidate slots of the first
/// equality conjunct an index can serve, else of the first range conjunct
/// one can (`qty < k`, `BETWEEN`), else `None` — a full slot walk, which
/// is also what every table gets when a column fails to resolve.
pub fn index_routes(
    clauses: &[&Expr],
    tables: &[PlanTable<'_>],
    data: &[&TableData],
) -> Vec<Option<Vec<usize>>> {
    let mut routes = vec![None; tables.len()];
    for c in equality_constraints(clauses, tables).iter().flatten() {
        if routes[c.table].is_none() {
            routes[c.table] = data[c.table].indexes.probe(c.column, &c.value);
        }
    }
    if routes.iter().all(Option::is_some) {
        return routes;
    }
    for r in range_constraints(clauses, tables).iter().flatten() {
        if routes[r.table].is_none() {
            routes[r.table] =
                data[r.table]
                    .indexes
                    .probe_range(r.column, r.lower.as_ref(), r.upper.as_ref());
        }
    }
    routes
}

fn collect_range_conjuncts(expr: &Expr, tables: &[PlanTable<'_>], out: &mut Vec<RangeConstraint>) {
    let Expr::Binary { left, op, right } = expr else {
        return;
    };
    if *op == BinOp::And {
        collect_range_conjuncts(left, tables, out);
        collect_range_conjuncts(right, tables, out);
        return;
    }
    // Orient each comparison as `col OP lit`: `lit < col` is `col > lit`.
    let (c, lit, op) = match (&**left, &**right, *op) {
        (Expr::Column(c), Expr::Literal(l), op) => (c, l, op),
        (Expr::Literal(l), Expr::Column(c), BinOp::Lt) => (c, l, BinOp::Gt),
        (Expr::Literal(l), Expr::Column(c), BinOp::LtEq) => (c, l, BinOp::GtEq),
        (Expr::Literal(l), Expr::Column(c), BinOp::Gt) => (c, l, BinOp::Lt),
        (Expr::Literal(l), Expr::Column(c), BinOp::GtEq) => (c, l, BinOp::LtEq),
        _ => return,
    };
    let Some((table, column)) = resolve(tables, c) else {
        return;
    };
    let value = Value::from_literal(lit);
    let (lower, upper) = match op {
        BinOp::Lt | BinOp::LtEq => (None, Some(value)),
        BinOp::Gt | BinOp::GtEq => (Some(value), None),
        _ => return,
    };
    if let Some(existing) = out
        .iter_mut()
        .find(|r| r.table == table && r.column == column)
    {
        if existing.lower.is_none() {
            existing.lower = lower.clone();
        }
        if existing.upper.is_none() {
            existing.upper = upper.clone();
        }
        return;
    }
    out.push(RangeConstraint {
        table,
        column,
        lower,
        upper,
    });
}

fn collect_conjuncts(expr: &Expr, tables: &[PlanTable<'_>], out: &mut Vec<EqConstraint>) {
    match expr {
        Expr::Binary {
            left,
            op: BinOp::And,
            right,
        } => {
            collect_conjuncts(left, tables, out);
            collect_conjuncts(right, tables, out);
        }
        Expr::Binary {
            left,
            op: BinOp::Eq,
            right,
        } => {
            let col_lit = match (&**left, &**right) {
                (Expr::Column(c), Expr::Literal(l)) | (Expr::Literal(l), Expr::Column(c)) => {
                    Some((c, l))
                }
                _ => None,
            };
            if let Some((c, lit)) = col_lit {
                if let Some((table, column)) = resolve(tables, c) {
                    out.push(EqConstraint {
                        table,
                        column,
                        value: Value::from_literal(lit),
                    });
                }
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acidrain_sql::{parse_statement, Statement};

    fn where_expr(sql: &str) -> Expr {
        match parse_statement(&format!("SELECT * FROM t WHERE {sql}")).unwrap() {
            Statement::Select(s) => s.selection.unwrap(),
            _ => unreachable!(),
        }
    }

    fn single_scope(cols: &[&str]) -> Vec<String> {
        cols.iter().map(|s| s.to_string()).collect()
    }

    fn analyze(sql: &str, cols: &[&str]) -> Option<Vec<EqConstraint>> {
        let columns = single_scope(cols);
        let tables = [PlanTable {
            effective_name: "t",
            columns: &columns,
        }];
        equality_constraints(&[&where_expr(sql)], &tables)
    }

    #[test]
    fn extracts_top_level_equality_conjuncts() {
        let cs = analyze("id = 5", &["id", "v"]).unwrap();
        assert_eq!(
            cs,
            vec![EqConstraint {
                table: 0,
                column: 0,
                value: Value::Int(5)
            }]
        );
        // Reversed operands and AND chains both extract.
        let cs = analyze("7 = v AND id = 1 AND v > 0", &["id", "v"]).unwrap();
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].column, 1);
        assert_eq!(cs[1].column, 0);
    }

    #[test]
    fn opaque_shapes_extract_nothing_but_do_not_fallback() {
        assert_eq!(analyze("id = 1 OR v = 2", &["id", "v"]).unwrap(), vec![]);
        assert_eq!(analyze("id + 1 = 2", &["id", "v"]).unwrap(), vec![]);
        assert_eq!(analyze("id IN (1, 2)", &["id", "v"]).unwrap(), vec![]);
        // NOT over an equality is opaque.
        assert_eq!(analyze("NOT id = 1", &["id", "v"]).unwrap(), vec![]);
    }

    #[test]
    fn unresolvable_column_forces_fallback() {
        assert_eq!(analyze("nope = 1", &["id", "v"]), None);
        // ... even when buried in a non-conjunct position.
        assert_eq!(
            analyze("id = 1 AND (nope > 2 OR v = 3)", &["id", "v"]),
            None
        );
    }

    fn analyze_range(sql: &str, cols: &[&str]) -> Option<Vec<RangeConstraint>> {
        let columns = single_scope(cols);
        let tables = [PlanTable {
            effective_name: "t",
            columns: &columns,
        }];
        range_constraints(&[&where_expr(sql)], &tables)
    }

    #[test]
    fn extracts_and_merges_range_conjuncts() {
        let rs = analyze_range("qty < 10", &["id", "qty"]).unwrap();
        assert_eq!(
            rs,
            vec![RangeConstraint {
                table: 0,
                column: 1,
                lower: None,
                upper: Some(Value::Int(10)),
            }]
        );
        // Both sides merge onto one constraint; reversed operands orient.
        let rs = analyze_range("qty >= 2 AND 10 > qty", &["id", "qty"]).unwrap();
        assert_eq!(
            rs,
            vec![RangeConstraint {
                table: 0,
                column: 1,
                lower: Some(Value::Int(2)),
                upper: Some(Value::Int(10)),
            }]
        );
        // BETWEEN desugars in the parser to the same conjunct shape.
        let rs = analyze_range("qty BETWEEN 3 AND 7", &["id", "qty"]).unwrap();
        assert_eq!(rs[0].lower, Some(Value::Int(3)));
        assert_eq!(rs[0].upper, Some(Value::Int(7)));
        // First bound per side wins; extra bounds only widen the superset.
        let rs = analyze_range("qty > 5 AND qty > 8", &["id", "qty"]).unwrap();
        assert_eq!(rs[0].lower, Some(Value::Int(5)));
        assert_eq!(rs[0].upper, None);
    }

    #[test]
    fn range_opaque_shapes_and_fallback() {
        assert_eq!(
            analyze_range("qty < 1 OR qty > 5", &["id", "qty"]).unwrap(),
            vec![]
        );
        assert_eq!(
            analyze_range("qty + 1 < 10", &["id", "qty"]).unwrap(),
            vec![]
        );
        assert_eq!(analyze_range("nope < 1", &["id", "qty"]), None);
    }

    #[test]
    fn qualified_and_join_scope_resolution() {
        let a = single_scope(&["x", "shared"]);
        let b = single_scope(&["y", "shared"]);
        let tables = [
            PlanTable {
                effective_name: "a",
                columns: &a,
            },
            PlanTable {
                effective_name: "b",
                columns: &b,
            },
        ];
        let e = where_expr("b.y = 3 AND shared = 1");
        let cs = equality_constraints(&[&e], &tables).unwrap();
        assert_eq!(
            cs[0],
            EqConstraint {
                table: 1,
                column: 0,
                value: Value::Int(3)
            }
        );
        // Unqualified `shared` resolves to the FIRST scope table, exactly
        // as EvalScope::lookup does.
        assert_eq!(
            cs[1],
            EqConstraint {
                table: 0,
                column: 1,
                value: Value::Int(1)
            }
        );
    }
}
