//! # acidrain-sql
//!
//! SQL front end for the ACIDRain / 2AD reproduction (Warszawski & Bailis,
//! SIGMOD 2017).
//!
//! The crate provides:
//!
//! * a lexer and recursive-descent parser for the SQL dialect appearing in
//!   the paper's application traces (Figures 3b and 6–8): `SELECT` with
//!   joins, aggregates, `ORDER BY`, `LIMIT`, `FOR UPDATE`; `INSERT`;
//!   `UPDATE` with arithmetic and `CASE`; `DELETE`; and transaction control
//!   including MySQL's `SET autocommit`;
//! * a canonical [`std::fmt::Display`] rendering (round-trip stable);
//! * a minimal [`schema::Schema`] description (columns, unique keys,
//!   defaults) shared by the database executor and the 2AD analysis;
//! * [`rwset`]: reduction of a statement to its per-table read/write column
//!   sets with key-vs-predicate access classification — the logical-item
//!   footprint 2AD builds conflict edges from;
//! * [`fingerprint`]: literal abstraction to typed placeholders plus a
//!   stable 64-bit statement fingerprint — the template layer the static
//!   2AD audit reasons over;
//! * [`ParseMemo`]: each distinct statement text parsed once for the
//!   lifetime of one analysis.
//!
//! ```
//! use acidrain_sql::{parse_statement, rwset::statement_accesses, schema::Schema};
//!
//! let stmt = parse_statement("UPDATE employees SET salary = salary + 1000").unwrap();
//! let accesses = statement_accesses(&stmt, &Schema::new());
//! assert_eq!(accesses[0].table, "employees");
//! assert!(accesses[0].write_columns.contains("salary"));
//! ```

pub mod ast;
pub mod display;
pub mod error;
pub mod fingerprint;
pub mod memo;
pub mod parser;
pub mod rewrite;
pub mod rwset;
pub mod schema;
pub mod token;

pub use ast::{Expr, Literal, Statement};
pub use error::ParseError;
pub use fingerprint::{fnv1a, statement_fingerprint, statement_template, StatementTemplate};
pub use memo::ParseMemo;
pub use parser::{parse_script, parse_statement};
pub use rewrite::{promote_for_update, promote_parsed};
pub use rwset::{statement_accesses, AccessKind, TableAccess, EXISTS_COLUMN};
pub use schema::{ColumnDef, ColumnType, Schema, TableSchema};
pub use token::may_be_transaction_control;
