//! Predicate analysis for the index read path.
//!
//! The executor asks one narrow question before scanning a table: *does
//! the statement's WHERE/ON tree confine some index-backed column of this
//! table to an interval of literals?* `col = literal` is the interval
//! `[literal, literal]`; `col < literal`, `literal <= col`, `BETWEEN` are
//! the open-ended ones. If so, the table's candidate rows come from one
//! ordered-index probe ([`crate::index::TableIndexes::probe`]) instead of
//! a full slot walk. The analysis is purely sufficient, never necessary:
//! a conjunct it cannot extract just means a full scan, and every
//! candidate an index supplies is still run through the ordinary
//! predicate evaluation — so a false negative costs time, never
//! correctness.
//!
//! Extraction rules:
//!
//! * only **top-level AND conjuncts** are inspected (`a = 1 AND rest`);
//!   anything under `OR`, `NOT`, arithmetic, `IN`, or `CASE` is opaque;
//! * a conjunct must compare a bare column reference with a bare literal,
//!   in either order, by `=`, `<`, `<=`, `>` or `>=` — computed values
//!   fall back;
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

/// A one-column interval that holds for every row combination the
/// analyzed clauses accept: `lower <= col <= upper` with either side
/// optional. `col = k` is the point `[k, k]`. Exclusive bounds are
/// **widened to inclusive** (`col < 10` contributes upper `10`) — the
/// candidate set is a superset and the exact predicate re-verifies every
/// candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Position of the owning table in the statement's scope (join order).
    pub table: usize,
    /// Storage position of the column within that table.
    pub column: usize,
    /// Inclusive lower bound, if any conjunct proved one.
    pub lower: Option<Value>,
    /// Inclusive upper bound, if any conjunct proved one.
    pub upper: Option<Value>,
}

impl Constraint {
    /// Whether the interval is a single value.
    fn is_point(&self) -> bool {
        self.lower.is_some() && self.lower == self.upper
    }
}

/// One table's name bindings as the analysis sees them: what
/// [`crate::expr::EvalTable`] binds, without row values. The executor's
/// scope tables implement it, so planning reads the statement's own scope
/// instead of a copy of it.
pub trait PlanTable {
    /// The name expressions refer to the table by (alias or real name).
    fn effective_name(&self) -> &str;
    /// Column names in storage order.
    fn columns(&self) -> &[String];
}

/// Resolve a column reference against the scope, mirroring
/// `EvalScope::lookup`: `Some((table position, column position))` or
/// `None` when evaluation would raise `UnknownColumn`.
fn resolve(tables: &[impl PlanTable], col: &ColumnRef) -> Option<(usize, usize)> {
    if let Some(qualifier) = &col.table {
        let ti = tables
            .iter()
            .position(|t| t.effective_name() == qualifier)?;
        let ci = tables[ti].columns().iter().position(|c| c == &col.column)?;
        return Some((ti, ci));
    }
    for (ti, t) in tables.iter().enumerate() {
        if let Some(ci) = t.columns().iter().position(|c| c == &col.column) {
            return Some((ti, ci));
        }
    }
    None
}

/// Whether every column reference in every clause resolves. When one does
/// not, the statement must take the full scan so evaluation raises the
/// same `UnknownColumn` error the index-free engine does.
fn all_resolve<'e>(clauses: impl IntoIterator<Item = &'e Expr>, tables: &[impl PlanTable]) -> bool {
    let mut ok = true;
    for clause in clauses {
        clause.visit_columns(&mut |c| ok &= resolve(tables, c).is_some());
    }
    ok
}

/// Collect the constraints proven by the top-level AND conjuncts of every
/// clause in `clauses`, in conjunct order. Each `col = lit` is its own
/// point. The inequalities on one column (`col < lit`, `lit <= col`, …;
/// `BETWEEN` desugars to such conjuncts in the parser) merge into one
/// interval: the first lower and first upper seen win (later, possibly
/// tighter bounds only shrink a set the predicate re-verifies anyway). An
/// `=` is never merged into that interval, so `qty > 3 AND qty = 5` keeps
/// the point `[5, 5]` beside the open `[3, ..]` (an interval its own
/// conjuncts close to a point, `qty >= 5 AND qty <= 5`, is a point like
/// any other from then on). Returns `None` —
/// demanding a full-scan fallback — when any column reference in any
/// clause fails to resolve.
pub fn constraints<'e>(
    clauses: impl IntoIterator<Item = &'e Expr> + Clone,
    tables: &[impl PlanTable],
) -> Option<Vec<Constraint>> {
    all_resolve(clauses.clone(), tables).then(|| {
        let mut out = Vec::new();
        for clause in clauses {
            collect_conjuncts(clause, tables, &mut out);
        }
        out
    })
}

/// The one routing decision every statement shares. Per scope table
/// (`data` is aligned with `tables`): the candidate slots of the first
/// point conjunct an index can serve, else of the first range conjunct
/// one can (`qty < k`, `BETWEEN`), else `None` — a full slot walk, which
/// is also what every table gets when a column fails to resolve.
pub fn index_routes<'e>(
    clauses: impl IntoIterator<Item = &'e Expr> + Clone,
    tables: &[impl PlanTable],
    data: &[&TableData],
) -> Vec<Option<Vec<usize>>> {
    let mut routes = vec![None; tables.len()];
    let found = constraints(clauses, tables).unwrap_or_default();
    for points in [true, false] {
        for c in found.iter().filter(|c| c.is_point() == points) {
            if routes[c.table].is_none() {
                routes[c.table] =
                    data[c.table]
                        .indexes
                        .probe(c.column, c.lower.as_ref(), c.upper.as_ref());
            }
        }
    }
    routes
}

fn collect_conjuncts(expr: &Expr, tables: &[impl PlanTable], out: &mut Vec<Constraint>) {
    let Expr::Binary { left, op, right } = expr else {
        return;
    };
    if *op == BinOp::And {
        collect_conjuncts(left, tables, out);
        collect_conjuncts(right, tables, out);
        return;
    }
    // Orient each comparison as `col OP lit`: `lit < col` is `col > lit`.
    let (c, lit, op) = match (&**left, &**right, *op) {
        (Expr::Column(c), Expr::Literal(l), op) => (c, l, op),
        (Expr::Literal(l), Expr::Column(c), BinOp::Lt) => (c, l, BinOp::Gt),
        (Expr::Literal(l), Expr::Column(c), BinOp::LtEq) => (c, l, BinOp::GtEq),
        (Expr::Literal(l), Expr::Column(c), BinOp::Gt) => (c, l, BinOp::Lt),
        (Expr::Literal(l), Expr::Column(c), BinOp::GtEq) => (c, l, BinOp::LtEq),
        (Expr::Literal(l), Expr::Column(c), BinOp::Eq) => (c, l, BinOp::Eq),
        _ => return,
    };
    let Some((table, column)) = resolve(tables, c) else {
        return;
    };
    let value = Value::from_literal(lit);
    let (lower, upper) = match op {
        BinOp::Eq => (Some(value.clone()), Some(value)),
        BinOp::Lt | BinOp::LtEq => (None, Some(value)),
        BinOp::Gt | BinOp::GtEq => (Some(value), None),
        _ => return,
    };
    if op != BinOp::Eq {
        let open = out
            .iter_mut()
            .find(|r| r.table == table && r.column == column && !r.is_point());
        if let Some(open) = open {
            open.lower = open.lower.take().or(lower);
            open.upper = open.upper.take().or(upper);
            return;
        }
    }
    out.push(Constraint {
        table,
        column,
        lower,
        upper,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::RowVersion;
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

    /// A table's name bindings, as the executor's scope tables carry them.
    struct Names<'a> {
        effective_name: &'a str,
        columns: &'a [String],
    }

    impl PlanTable for Names<'_> {
        fn effective_name(&self) -> &str {
            self.effective_name
        }

        fn columns(&self) -> &[String] {
            self.columns
        }
    }

    fn names<'a>(effective_name: &'a str, columns: &'a [String]) -> Names<'a> {
        Names {
            effective_name,
            columns,
        }
    }

    fn analyze(sql: &str, cols: &[&str]) -> Option<Vec<Constraint>> {
        let columns = single_scope(cols);
        constraints([&where_expr(sql)], &[names("t", &columns)])
    }

    /// `[lower, upper]` on `column` of the scope's first table.
    fn interval(column: usize, lower: Option<i64>, upper: Option<i64>) -> Constraint {
        Constraint {
            table: 0,
            column,
            lower: lower.map(Value::Int),
            upper: upper.map(Value::Int),
        }
    }

    fn point(column: usize, value: i64) -> Constraint {
        interval(column, Some(value), Some(value))
    }

    #[test]
    fn extracts_top_level_equality_conjuncts() {
        let cs = analyze("id = 5", &["id", "v"]).unwrap();
        assert_eq!(cs, vec![point(0, 5)]);
        assert!(cs[0].is_point());
        // Reversed operands and AND chains both extract, in conjunct
        // order, each `=` its own point.
        let cs = analyze("7 = v AND id = 1 AND v > 0", &["id", "v"]).unwrap();
        assert_eq!(
            cs,
            vec![point(1, 7), point(0, 1), interval(1, Some(0), None)]
        );
        let cs = analyze("id = 1 AND id = 2", &["id", "v"]).unwrap();
        assert_eq!(cs, vec![point(0, 1), point(0, 2)]);
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
        // ... even when buried in a non-conjunct position, or beside
        // conjuncts of both shapes: one walk reports it for all of them.
        assert_eq!(
            analyze("id = 1 AND (nope > 2 OR v = 3)", &["id", "v"]),
            None
        );
        assert_eq!(analyze("id = 1 AND v < 9 AND nope = v", &["id", "v"]), None);
    }

    #[test]
    fn extracts_and_merges_range_conjuncts() {
        let rs = analyze("qty < 10", &["id", "qty"]).unwrap();
        assert_eq!(rs, vec![interval(1, None, Some(10))]);
        assert!(!rs[0].is_point());
        // Both sides merge onto one constraint; reversed operands orient.
        let rs = analyze("qty >= 2 AND 10 > qty", &["id", "qty"]).unwrap();
        assert_eq!(rs, vec![interval(1, Some(2), Some(10))]);
        // BETWEEN desugars in the parser to the same conjunct shape.
        let rs = analyze("qty BETWEEN 3 AND 7", &["id", "qty"]).unwrap();
        assert_eq!(rs, vec![interval(1, Some(3), Some(7))]);
        // First bound per side wins; extra bounds only widen the superset.
        let rs = analyze("qty > 5 AND qty > 8", &["id", "qty"]).unwrap();
        assert_eq!(rs, vec![interval(1, Some(5), None)]);
        // An inverted pair stays as written: the probe answers it empty.
        let rs = analyze("qty < 3 AND qty > 7", &["id", "qty"]).unwrap();
        assert_eq!(rs, vec![interval(1, Some(7), Some(3))]);
        // An `=` is never merged into the column's open range: it stays
        // its own point, and the range still merges around it.
        let cs = analyze("qty > 3 AND qty = 5 AND qty < 9", &["id", "qty"]).unwrap();
        assert_eq!(cs, vec![interval(1, Some(3), Some(9)), point(1, 5)]);
    }

    #[test]
    fn range_opaque_shapes_and_fallback() {
        assert_eq!(
            analyze("qty < 1 OR qty > 5", &["id", "qty"]).unwrap(),
            vec![]
        );
        assert_eq!(analyze("qty + 1 < 10", &["id", "qty"]).unwrap(), vec![]);
        assert_eq!(analyze("nope < 1", &["id", "qty"]), None);
    }

    #[test]
    fn routes_the_point_before_the_range() {
        let columns = single_scope(&["id", "qty"]);
        let tables = [names("t", &columns)];
        let mut data = TableData::new("t", vec![1]);
        for qty in [4, 5, 6, 5] {
            data.push_row(RowVersion::committed(
                vec![Value::Int(0), Value::Int(qty)],
                1,
            ));
        }
        let route = |sql: &str| index_routes([&where_expr(sql)], &tables, &[&data]);
        // `qty > 3` alone would supply all four slots; the point wins
        // wherever it stands in the conjunction.
        assert_eq!(route("qty > 3"), vec![Some(vec![0, 1, 2, 3])]);
        assert_eq!(route("qty > 3 AND qty = 5"), vec![Some(vec![1, 3])]);
        assert_eq!(route("qty = 5 AND qty > 3"), vec![Some(vec![1, 3])]);
        // A point no index serves (`id`) leaves the range to route.
        assert_eq!(route("id = 0 AND qty >= 6"), vec![Some(vec![2])]);
        // No servable conjunct, or an unresolvable column: the full walk.
        assert_eq!(route("id = 0"), vec![None]);
        assert_eq!(route("qty = 5 AND nope = 1"), vec![None]);
    }

    #[test]
    fn qualified_and_join_scope_resolution() {
        let a = single_scope(&["x", "shared"]);
        let b = single_scope(&["y", "shared"]);
        let tables = [names("a", &a), names("b", &b)];
        let e = where_expr("b.y = 3 AND shared = 1");
        let cs = constraints([&e], &tables).unwrap();
        assert_eq!(
            cs[0],
            Constraint {
                table: 1,
                ..point(0, 3)
            }
        );
        // Unqualified `shared` resolves to the FIRST scope table, exactly
        // as EvalScope::lookup does.
        assert_eq!(cs[1], point(1, 1));
    }
}
