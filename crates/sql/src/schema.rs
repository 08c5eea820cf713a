//! Minimal schema description shared by the database executor and the 2AD
//! analysis.
//!
//! 2AD needs schema information for two purposes (paper §3.1.4): resolving
//! wildcard reads to concrete column sets, and distinguishing reads on unique
//! keys from predicate reads (the two are treated differently under
//! Repeatable Read and Snapshot Isolation refinement).

use std::collections::BTreeMap;

use crate::ast::Literal;

/// The column types supported by the substrate database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    Int,
    Float,
    Str,
    Bool,
}

/// A column definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: ColumnType,
    /// Whether the column holds unique values (primary or unique key). An
    /// equality predicate on a unique column is a key read, not a predicate
    /// read.
    pub unique: bool,
    /// Whether the column is auto-assigned on insert when omitted.
    pub auto_increment: bool,
    /// Whether the column carries a declared secondary index. Unique
    /// columns are always index-backed; this flag extends equality-index
    /// coverage to non-unique columns (MySQL `KEY`/`INDEX`).
    pub indexed: bool,
    /// Default value used when an INSERT omits the column.
    pub default: Option<Literal>,
}

impl ColumnDef {
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        ColumnDef {
            name: name.into(),
            ty,
            unique: false,
            auto_increment: false,
            indexed: false,
            default: None,
        }
    }

    pub fn unique(mut self) -> Self {
        self.unique = true;
        self
    }

    pub fn indexed(mut self) -> Self {
        self.indexed = true;
        self
    }

    pub fn auto_increment(mut self) -> Self {
        self.auto_increment = true;
        self.unique = true;
        self
    }

    pub fn default(mut self, value: Literal) -> Self {
        self.default = Some(value);
        self
    }
}

/// A table definition.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<ColumnDef>,
}

impl TableSchema {
    pub fn new(name: impl Into<String>, columns: Vec<ColumnDef>) -> Self {
        TableSchema {
            name: name.into(),
            columns,
        }
    }

    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.columns.iter().find(|c| c.name == name)
    }

    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    pub fn column_names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|c| c.name.as_str())
    }

    pub fn is_unique_column(&self, name: &str) -> bool {
        self.column(name).is_some_and(|c| c.unique)
    }

    /// Indices of columns the engine maintains an index over:
    /// every unique column (primary/unique keys) plus declared-indexed
    /// non-unique columns.
    pub fn index_backed_columns(&self) -> Vec<usize> {
        self.columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.unique || c.indexed)
            .map(|(i, _)| i)
            .collect()
    }
}

/// A database schema: an ordered map from table name to table definition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schema {
    tables: BTreeMap<String, TableSchema>,
}

impl Schema {
    pub fn new() -> Self {
        Schema::default()
    }

    /// Add a table, replacing any previous definition with the same name.
    pub fn add_table(&mut self, table: TableSchema) -> &mut Self {
        self.tables.insert(table.name.clone(), table);
        self
    }

    /// Builder-style table addition.
    pub fn with_table(mut self, table: TableSchema) -> Self {
        self.add_table(table);
        self
    }

    pub fn table(&self, name: &str) -> Option<&TableSchema> {
        self.tables.get(name)
    }

    pub fn tables(&self) -> impl Iterator<Item = &TableSchema> {
        self.tables.values()
    }

    pub fn len(&self) -> usize {
        self.tables.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new().with_table(TableSchema::new(
            "employees",
            vec![
                ColumnDef::new("id", ColumnType::Int).auto_increment(),
                ColumnDef::new("first_name", ColumnType::Str),
                ColumnDef::new("last_name", ColumnType::Str),
                ColumnDef::new("salary", ColumnType::Int).default(Literal::Int(0)),
            ],
        ))
    }

    #[test]
    fn lookup_by_table_and_column() {
        let s = sample();
        let t = s.table("employees").unwrap();
        assert_eq!(t.column_index("salary"), Some(3));
        assert!(t.column("missing").is_none());
        assert!(s.table("missing").is_none());
    }

    #[test]
    fn auto_increment_implies_unique() {
        let s = sample();
        assert!(s.table("employees").unwrap().is_unique_column("id"));
        assert!(!s.table("employees").unwrap().is_unique_column("salary"));
    }

    #[test]
    fn defaults_are_recorded() {
        let s = sample();
        assert_eq!(
            s.table("employees")
                .unwrap()
                .column("salary")
                .unwrap()
                .default,
            Some(Literal::Int(0))
        );
    }

    #[test]
    fn replacing_a_table_overwrites() {
        let mut s = sample();
        s.add_table(TableSchema::new("employees", vec![]));
        assert_eq!(s.table("employees").unwrap().columns.len(), 0);
        assert_eq!(s.len(), 1);
    }
}
