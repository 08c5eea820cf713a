//! # acidrain-db
//!
//! An in-memory, multi-version transactional database with configurable
//! isolation — the substrate the ACIDRain reproduction runs its attacks
//! against (standing in for MySQL/MariaDB and the Table-2 engines of
//! Warszawski & Bailis, SIGMOD 2017).
//!
//! Design goals, in the paper's terms:
//!
//! * statements execute atomically; every anomaly arises from the
//!   interleaving of statements across transactions — the granularity 2AD
//!   reasons at;
//! * six isolation levels spanning the paper's envelope, including MySQL's
//!   lost-update-admitting "Repeatable Read" (footnote 6) and true
//!   PL-2.99;
//! * `SELECT ... FOR UPDATE`, session autocommit semantics, deadlock
//!   detection, and Snapshot Isolation first-updater-wins;
//! * a general query log tagged with API-call identity — the input to 2AD.
//!
//! ```
//! use acidrain_db::{Database, IsolationLevel, Value};
//! use acidrain_sql::schema::{ColumnDef, ColumnType, Schema, TableSchema};
//!
//! let schema = Schema::new().with_table(TableSchema::new(
//!     "accounts",
//!     vec![
//!         ColumnDef::new("id", ColumnType::Int).auto_increment(),
//!         ColumnDef::new("balance", ColumnType::Int),
//!     ],
//! ));
//! let db = Database::new(schema, IsolationLevel::ReadCommitted);
//! db.seed("accounts", vec![vec![Value::Null, Value::Int(100)]]).unwrap();
//! let mut conn = db.connect();
//! let balance = conn.query_i64("SELECT balance FROM accounts WHERE id = 1").unwrap();
//! assert_eq!(balance, 100);
//! ```

#![warn(missing_docs)]

pub mod db;
pub mod error;
pub mod exec;
pub mod expr;
pub mod fault;
pub mod index;
pub mod isolation;
pub mod latch_order;
pub mod lock;
pub mod log;
pub mod plan;
pub mod result;
pub mod storage;
pub mod txn;
pub mod value;
pub mod wal;

pub use acidrain_obs::{field, json_escape, Json, MetricsReport, Obs, Stopwatch, TraceEvent};
pub use db::{Connection, Database};
pub use error::DbError;
pub use fault::{CrashPoint, CrashSpec, FaultConfig, FaultInjector, FaultStats, InjectedFault};
pub use isolation::{DatabaseProfile, IsolationLevel, PAPER_DATABASES};
pub use log::{ApiTag, LogEntry, StmtOutcome};
pub use result::ResultSet;
pub use txn::TxnId;
pub use value::Value;
pub use wal::{RecoveryInfo, Wal, WalConfig, WalRecordInfo};
