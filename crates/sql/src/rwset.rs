//! Read/write-set extraction.
//!
//! 2AD reasons about operations over *logical data items* — tables and
//! columns, not values (paper §3.1.2). This module reduces a parsed
//! statement to, per referenced table, the set of columns it reads and the
//! set it writes, plus how rows were selected (unique-key equality vs
//! predicate — the distinction Repeatable Read / Snapshot Isolation
//! refinement needs, §3.1.4).
//!
//! Row membership is modeled with the pseudo-column [`EXISTS_COLUMN`]:
//! every read of a table observes which rows exist, and every `INSERT` /
//! `DELETE` changes it. This reproduces the paper's Figure 4 exactly: the
//! bare `SELECT COUNT(*) FROM employees` conflicts with the `INSERT` (which
//! creates a row) but not with `UPDATE employees SET salary=salary+1000`
//! (which only modifies `salary`).

use std::collections::BTreeSet;

use crate::ast::*;
use crate::schema::Schema;

/// Pseudo-column representing row membership in a table.
pub const EXISTS_COLUMN: &str = "::exists";

/// How the rows touched by an access were selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessKind {
    /// Selected by equality on a unique column — a key access that cannot be
    /// affected by phantoms.
    KeyEq,
    /// Selected by an arbitrary predicate (including full scans) — subject
    /// to phantom behavior.
    Predicate,
}

/// The read/write footprint of one statement on one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableAccess {
    /// Real table name (aliases resolved).
    pub table: String,
    pub read_columns: BTreeSet<String>,
    pub write_columns: BTreeSet<String>,
    pub access: AccessKind,
    /// True when the rows were locked via `SELECT ... FOR UPDATE`.
    pub for_update: bool,
}

impl TableAccess {
    /// Whether this access modifies the table.
    pub fn is_write(&self) -> bool {
        !self.write_columns.is_empty()
    }

    /// All columns touched, read or written.
    pub fn all_columns(&self) -> BTreeSet<String> {
        self.read_columns
            .union(&self.write_columns)
            .cloned()
            .collect()
    }
}

/// Extract per-table accesses for a statement. Transaction-control
/// statements yield no accesses. Extraction is lenient about tables or
/// columns missing from `schema`; the schema is used to expand wildcards and
/// classify unique-key reads.
pub fn statement_accesses(stmt: &Statement, schema: &Schema) -> Vec<TableAccess> {
    match stmt {
        Statement::Select(s) => select_accesses(s, schema),
        Statement::Insert(i) => vec![insert_access(i, schema)],
        Statement::Update(u) => vec![update_access(u, schema)],
        Statement::Delete(d) => vec![delete_access(d, schema)],
        Statement::Begin
        | Statement::Commit
        | Statement::Rollback
        | Statement::SetAutocommit(_)
        | Statement::Savepoint(_)
        | Statement::RollbackToSavepoint(_)
        | Statement::ReleaseSavepoint(_)
        | Statement::CreateTable(_) => Vec::new(),
    }
}

/// Resolves alias-qualified column references in a multi-table SELECT.
struct TableScope<'a> {
    /// `(effective name, real name)` pairs in FROM order.
    tables: Vec<(&'a str, &'a str)>,
    schema: &'a Schema,
}

impl<'a> TableScope<'a> {
    /// Index (into `tables`) the column reference belongs to.
    fn resolve(&self, col: &ColumnRef) -> usize {
        if let Some(q) = &col.table {
            if let Some(idx) = self.tables.iter().position(|(eff, _)| *eff == q) {
                return idx;
            }
        }
        // Unqualified (or unknown qualifier): first referenced table whose
        // schema declares the column, defaulting to the main table.
        self.tables
            .iter()
            .position(|(_, real)| {
                self.schema
                    .table(real)
                    .is_some_and(|t| t.column(&col.column).is_some())
            })
            .unwrap_or(0)
    }
}

fn select_accesses(s: &Select, schema: &Schema) -> Vec<TableAccess> {
    let Some(from) = &s.from else {
        return Vec::new();
    };
    let mut tables: Vec<(&str, &str)> = vec![(from.effective_name(), from.name.as_str())];
    for j in &s.joins {
        tables.push((j.table.effective_name(), j.table.name.as_str()));
    }
    let scope = TableScope { tables, schema };
    let n = scope.tables.len();
    let mut reads: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];

    let add_expr = |reads: &mut Vec<BTreeSet<String>>, e: &Expr| {
        e.visit_columns(&mut |c| {
            let idx = scope.resolve(c);
            reads[idx].insert(c.column.clone());
        });
    };

    for item in &s.projection {
        match item {
            SelectItem::Wildcard => {
                for (idx, (_, real)) in scope.tables.iter().enumerate() {
                    expand_wildcard(&mut reads[idx], real, schema);
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let idx = scope
                    .tables
                    .iter()
                    .position(|(eff, _)| eff == q)
                    .unwrap_or(0);
                let real = scope.tables[idx].1;
                expand_wildcard(&mut reads[idx], real, schema);
            }
            SelectItem::Expr { expr, .. } => add_expr(&mut reads, expr),
        }
    }
    for j in &s.joins {
        add_expr(&mut reads, &j.on);
    }
    if let Some(sel) = &s.selection {
        add_expr(&mut reads, sel);
    }
    for ob in &s.order_by {
        add_expr(&mut reads, &ob.expr);
    }

    scope
        .tables
        .iter()
        .enumerate()
        .map(|(idx, (eff, real))| {
            let mut read_columns = std::mem::take(&mut reads[idx]);
            // Every read observes row membership (phantom source).
            read_columns.insert(EXISTS_COLUMN.to_string());
            TableAccess {
                table: (*real).to_string(),
                read_columns,
                write_columns: BTreeSet::new(),
                access: selection_access_kind(s.selection.as_ref(), eff, real, schema),
                for_update: s.for_update,
            }
        })
        .collect()
}

/// How a SELECT selects the rows of `table`: the
/// [`TableAccess::access`] of the first entry [`statement_accesses`] gives
/// for `table` (a self-join answers for its first occurrence in FROM/JOIN
/// order), or [`AccessKind::Predicate`] when the statement does not read
/// `table`. Builds no read sets.
pub fn select_access_kind(s: &Select, table: &str, schema: &Schema) -> AccessKind {
    let Some(from) = &s.from else {
        return AccessKind::Predicate;
    };
    std::iter::once(from)
        .chain(s.joins.iter().map(|j| &j.table))
        .find(|t| t.name == table)
        .map_or(AccessKind::Predicate, |t| {
            selection_access_kind(s.selection.as_ref(), t.effective_name(), table, schema)
        })
}

/// Expand a wildcard read: all declared columns plus row membership.
fn expand_wildcard(reads: &mut BTreeSet<String>, table: &str, schema: &Schema) {
    if let Some(t) = schema.table(table) {
        for c in t.column_names() {
            reads.insert(c.to_string());
        }
    }
    reads.insert(EXISTS_COLUMN.to_string());
}

fn insert_access(i: &Insert, schema: &Schema) -> TableAccess {
    // An insert materialises an entire row: every declared column receives a
    // value (explicit, default, or auto-increment), and row membership
    // changes.
    let mut write_columns: BTreeSet<String> = i.columns.iter().cloned().collect();
    if let Some(t) = schema.table(&i.table) {
        for c in t.column_names() {
            write_columns.insert(c.to_string());
        }
    }
    write_columns.insert(EXISTS_COLUMN.to_string());
    let mut read_columns = BTreeSet::new();
    for row in &i.rows {
        for e in row {
            e.visit_columns(&mut |c| {
                read_columns.insert(c.column.clone());
            });
        }
    }
    TableAccess {
        table: i.table.clone(),
        read_columns,
        write_columns,
        access: AccessKind::KeyEq,
        for_update: false,
    }
}

fn update_access(u: &Update, schema: &Schema) -> TableAccess {
    let mut write_columns = BTreeSet::new();
    let mut read_columns = BTreeSet::new();
    for a in &u.assignments {
        write_columns.insert(a.column.clone());
        a.value.visit_columns(&mut |c| {
            read_columns.insert(c.column.clone());
        });
    }
    if let Some(sel) = &u.selection {
        sel.visit_columns(&mut |c| {
            read_columns.insert(c.column.clone());
        });
    }
    TableAccess {
        table: u.table.clone(),
        read_columns,
        write_columns,
        access: selection_access_kind(u.selection.as_ref(), &u.table, &u.table, schema),
        for_update: false,
    }
}

fn delete_access(d: &Delete, schema: &Schema) -> TableAccess {
    let mut write_columns: BTreeSet<String> = BTreeSet::new();
    if let Some(t) = schema.table(&d.table) {
        for c in t.column_names() {
            write_columns.insert(c.to_string());
        }
    }
    write_columns.insert(EXISTS_COLUMN.to_string());
    let mut read_columns = BTreeSet::new();
    if let Some(sel) = &d.selection {
        sel.visit_columns(&mut |c| {
            read_columns.insert(c.column.clone());
        });
    }
    TableAccess {
        table: d.table.clone(),
        read_columns,
        write_columns,
        access: selection_access_kind(d.selection.as_ref(), &d.table, &d.table, schema),
        for_update: false,
    }
}

/// Classify how a WHERE clause selects rows of `table` (known in expressions
/// as `effective`): [`AccessKind::KeyEq`] iff the top-level conjunction pins
/// a unique column of the table to a single literal.
fn selection_access_kind(
    selection: Option<&Expr>,
    effective: &str,
    table: &str,
    schema: &Schema,
) -> AccessKind {
    let Some(sel) = selection else {
        return AccessKind::Predicate;
    };
    let Some(table_schema) = schema.table(table) else {
        return AccessKind::Predicate;
    };
    let mut conjuncts = Vec::new();
    collect_conjuncts(sel, &mut conjuncts);
    for c in conjuncts {
        if let Some(col) = key_equality_column(c, effective) {
            if table_schema.is_unique_column(col) {
                return AccessKind::KeyEq;
            }
        }
    }
    AccessKind::Predicate
}

/// Split a boolean expression on top-level ANDs.
fn collect_conjuncts<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    if let Expr::Binary {
        left,
        op: BinOp::And,
        right,
    } = e
    {
        collect_conjuncts(left, out);
        collect_conjuncts(right, out);
    } else {
        out.push(e);
    }
}

/// If `e` pins a column of `effective` to a single literal (`col = lit`,
/// `lit = col`, or `col IN (lit)`), return the column name.
fn key_equality_column<'a>(e: &'a Expr, effective: &str) -> Option<&'a str> {
    let column_of = |x: &'a Expr| -> Option<&'a str> {
        if let Expr::Column(c) = x {
            match &c.table {
                Some(t) if t != effective => None,
                _ => Some(c.column.as_str()),
            }
        } else {
            None
        }
    };
    let is_literal = |x: &Expr| matches!(x, Expr::Literal(_));
    match e {
        Expr::Binary {
            left,
            op: BinOp::Eq,
            right,
        } => {
            if let (Some(col), true) = (column_of(left), is_literal(right)) {
                Some(col)
            } else if let (true, Some(col)) = (is_literal(left), column_of(right)) {
                Some(col)
            } else {
                None
            }
        }
        Expr::InList {
            expr,
            list,
            negated: false,
        } if list.len() == 1 => {
            if is_literal(&list[0]) {
                column_of(expr)
            } else {
                None
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use crate::schema::{ColumnDef, ColumnType, TableSchema};

    fn schema() -> Schema {
        Schema::new()
            .with_table(TableSchema::new(
                "employees",
                vec![
                    ColumnDef::new("id", ColumnType::Int).auto_increment(),
                    ColumnDef::new("first_name", ColumnType::Str),
                    ColumnDef::new("last_name", ColumnType::Str),
                    ColumnDef::new("salary", ColumnType::Int),
                ],
            ))
            .with_table(TableSchema::new(
                "salary",
                vec![ColumnDef::new("total", ColumnType::Int)],
            ))
            .with_table(TableSchema::new(
                "stock_item",
                vec![
                    ColumnDef::new("product_id", ColumnType::Int).unique(),
                    ColumnDef::new("qty", ColumnType::Int),
                    ColumnDef::new("website_id", ColumnType::Int),
                ],
            ))
            .with_table(TableSchema::new(
                "product",
                vec![
                    ColumnDef::new("entity_id", ColumnType::Int).unique(),
                    ColumnDef::new("type_id", ColumnType::Str),
                ],
            ))
    }

    fn accesses(sql: &str) -> Vec<TableAccess> {
        statement_accesses(&parse_statement(sql).unwrap(), &schema())
    }

    #[test]
    fn figure4_count_does_not_conflict_with_salary_update() {
        // Op 2: predicate COUNT over names.
        let a2 =
            accesses("SELECT COUNT(*) FROM employees WHERE first_name='John' AND last_name='Doe'");
        // Op 5: raise everyone's salary.
        let a5 = accesses("UPDATE employees SET salary=salary+1000");
        // Op 7: bare COUNT.
        let a7 = accesses("SELECT COUNT(*) FROM employees");
        // Op 3: insert a new employee.
        let a3 = accesses(
            "INSERT INTO employees (first_name, last_name, salary) VALUES ('John', 'Doe', 0)",
        );

        // The update writes only `salary`; the COUNTs read names/row
        // membership -> no overlap (no edge 5-2, no edge 5-7 in Fig. 4).
        assert!(a5[0].write_columns.is_disjoint(&a2[0].read_columns));
        assert!(a5[0].write_columns.is_disjoint(&a7[0].read_columns));
        // The insert conflicts with both COUNTs (edge 3-2 and 3-7) ...
        assert!(!a3[0].write_columns.is_disjoint(&a2[0].read_columns));
        assert!(!a3[0].write_columns.is_disjoint(&a7[0].read_columns));
        // ... and with the salary update (write-write edge 3-5).
        assert!(!a3[0].write_columns.is_disjoint(&a5[0].write_columns));
        // The update also self-conflicts (write-write self-loop on 5).
        assert!(!a5[0].write_columns.is_disjoint(&a5[0].write_columns));
    }

    #[test]
    fn select_reads_projection_where_and_order_columns() {
        let a = accesses("SELECT salary FROM employees WHERE last_name='Doe' ORDER BY id");
        assert_eq!(a.len(), 1);
        let r = &a[0].read_columns;
        for col in ["salary", "last_name", "id", EXISTS_COLUMN] {
            assert!(r.contains(col), "missing {col}");
        }
        assert!(!r.contains("first_name"));
        assert!(a[0].write_columns.is_empty());
    }

    #[test]
    fn wildcard_expands_to_all_columns() {
        let a = accesses("SELECT * FROM employees");
        assert!(a[0].read_columns.contains("first_name"));
        assert!(a[0].read_columns.contains("salary"));
        assert!(a[0].read_columns.contains(EXISTS_COLUMN));
    }

    #[test]
    fn join_splits_accesses_per_table() {
        let a = accesses(
            "SELECT si.*, p.type_id FROM stock_item AS si INNER JOIN product AS p \
             ON p.entity_id = si.product_id WHERE website_id = 0 AND si.product_id IN (2048) \
             FOR UPDATE",
        );
        assert_eq!(a.len(), 2);
        let si = a.iter().find(|t| t.table == "stock_item").unwrap();
        let p = a.iter().find(|t| t.table == "product").unwrap();
        assert!(si.for_update && p.for_update);
        assert!(si.read_columns.contains("qty"));
        assert!(si.read_columns.contains("website_id"));
        assert!(p.read_columns.contains("type_id"));
        assert!(p.read_columns.contains("entity_id"));
        assert!(!p.read_columns.contains("qty"));
    }

    #[test]
    fn unqualified_column_resolves_via_schema() {
        let a = accesses(
            "SELECT type_id FROM stock_item AS si INNER JOIN product AS p \
             ON p.entity_id = si.product_id",
        );
        let p = a.iter().find(|t| t.table == "product").unwrap();
        assert!(p.read_columns.contains("type_id"));
        let si = a.iter().find(|t| t.table == "stock_item").unwrap();
        assert!(!si.read_columns.contains("type_id"));
    }

    #[test]
    fn key_equality_is_detected() {
        let a = accesses("SELECT qty FROM stock_item WHERE product_id = 2048");
        assert_eq!(a[0].access, AccessKind::KeyEq);
        let a = accesses("SELECT qty FROM stock_item WHERE product_id IN (2048)");
        assert_eq!(a[0].access, AccessKind::KeyEq);
        let a = accesses("SELECT qty FROM stock_item WHERE website_id = 0");
        assert_eq!(
            a[0].access,
            AccessKind::Predicate,
            "website_id is not unique"
        );
        let a = accesses("SELECT qty FROM stock_item WHERE product_id > 5");
        assert_eq!(a[0].access, AccessKind::Predicate);
        let a = accesses("SELECT COUNT(*) FROM employees");
        assert_eq!(
            a[0].access,
            AccessKind::Predicate,
            "full scan is a predicate read"
        );
    }

    #[test]
    fn key_equality_in_conjunction() {
        let a = accesses("SELECT qty FROM stock_item WHERE website_id=0 AND product_id=2048");
        assert_eq!(a[0].access, AccessKind::KeyEq);
        // Disjunction does not pin the key.
        let a = accesses("SELECT qty FROM stock_item WHERE website_id=0 OR product_id=2048");
        assert_eq!(a[0].access, AccessKind::Predicate);
    }

    #[test]
    fn insert_writes_all_columns_and_membership() {
        let a = accesses("INSERT INTO employees (first_name) VALUES ('X')");
        let w = &a[0].write_columns;
        for col in ["id", "first_name", "last_name", "salary", EXISTS_COLUMN] {
            assert!(w.contains(col), "missing {col}");
        }
    }

    #[test]
    fn update_footprint() {
        let a = accesses(
            "UPDATE stock_item SET qty = CASE product_id WHEN 2048 THEN qty-1 ELSE qty END \
             WHERE product_id IN (2048) AND website_id = 0",
        );
        assert_eq!(a[0].write_columns.iter().collect::<Vec<_>>(), vec!["qty"]);
        assert!(a[0].read_columns.contains("product_id"));
        assert!(a[0].read_columns.contains("qty"));
        assert!(a[0].read_columns.contains("website_id"));
        assert_eq!(a[0].access, AccessKind::KeyEq);
    }

    #[test]
    fn delete_writes_membership() {
        let a = accesses("DELETE FROM employees WHERE id = 3");
        assert!(a[0].write_columns.contains(EXISTS_COLUMN));
        assert!(a[0].write_columns.contains("salary"));
        assert!(a[0].read_columns.contains("id"));
        assert_eq!(a[0].access, AccessKind::KeyEq);
    }

    #[test]
    fn transaction_control_has_no_accesses() {
        assert!(accesses("BEGIN").is_empty());
        assert!(accesses("COMMIT").is_empty());
        assert!(accesses("SET autocommit=1").is_empty());
    }

    #[test]
    fn unknown_table_is_handled_leniently() {
        let a = accesses("SELECT x FROM mystery WHERE y = 1");
        assert_eq!(a[0].table, "mystery");
        assert!(a[0].read_columns.contains("x"));
        assert!(a[0].read_columns.contains("y"));
        assert_eq!(a[0].access, AccessKind::Predicate);
    }

    #[test]
    fn tableless_select_has_no_accesses() {
        assert!(accesses("SELECT 1").is_empty());
    }

    #[test]
    fn is_write_and_all_columns() {
        let a = accesses("UPDATE salary SET total = total + 3000");
        assert!(a[0].is_write());
        assert!(a[0].all_columns().contains("total"));
        let r = accesses("SELECT total FROM salary");
        assert!(!r[0].is_write());
    }
}
