//! Error types for the database substrate.

use std::fmt;

use crate::txn::TxnId;

/// Errors produced while executing statements against the database.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// The SQL text failed to parse.
    Parse(acidrain_sql::ParseError),
    /// Referenced table does not exist.
    UnknownTable(String),
    /// Referenced column does not exist in the referenced table(s).
    UnknownColumn(String),
    /// Type error during expression evaluation.
    Type(String),
    /// A unique-column constraint was violated.
    ConstraintViolation(String),
    /// The statement needs a lock held by another transaction. Carries the
    /// holders so cooperative schedulers can decide what to run next. The
    /// statement had no data effects and can be retried verbatim.
    WouldBlock {
        /// Transactions currently holding the conflicting locks.
        holders: Vec<TxnId>,
    },
    /// The lock manager detected a waits-for cycle; this transaction was
    /// chosen as the victim and has been rolled back.
    Deadlock,
    /// Snapshot Isolation first-committer-wins validation failed ("could
    /// not serialize access due to concurrent update"). The transaction has
    /// been rolled back.
    WriteConflict(String),
    /// A blocking lock wait exceeded the database's lock-wait timeout
    /// (`innodb_lock_wait_timeout` with `innodb_rollback_on_timeout=ON`:
    /// the whole transaction has been rolled back, so no locks leak).
    LockTimeout,
    /// The server dropped the connection mid-statement (injected fault or
    /// session kill); any open transaction has been rolled back.
    ConnectionDropped,
    /// The statement is outside the supported dialect subset.
    Unsupported(String),
    /// A durability I/O operation failed (WAL write/fsync, checkpoint), or
    /// the engine was killed at an injected crash point and can no longer
    /// accept work. Non-retryable: retrying cannot make a dead log durable.
    Io(String),
    /// The write-ahead log or snapshot on disk is structurally invalid
    /// beyond an ordinary torn tail (bad magic, non-monotonic commit
    /// timestamps, a redo op referencing impossible state). Non-retryable.
    WalCorrupt(String),
    /// `ROLLBACK TO` / `RELEASE` named a savepoint that does not exist in
    /// the current transaction. Statement-level and permanent, like MySQL's
    /// ER_SP_DOES_NOT_EXIST: the transaction stays open.
    UnknownSavepoint(String),
    /// Admission control refused a new session: a wire client's decoding
    /// of `ERR SERVER_BUSY`, sent when the server is at its
    /// `acidrain_net::ServerConfig::max_sessions` ceiling with its queue
    /// full (MySQL's ER_CON_COUNT_ERROR, "Too many connections").
    /// Retryable: a slot opens as soon as any existing session closes.
    TooManySessions,
    /// Internal invariant violation — indicates a bug in the substrate.
    Internal(String),
}

impl DbError {
    /// Whether this error aborted the transaction (vs. a statement-level,
    /// retryable condition). Every abort-class error implies the database
    /// already rolled the transaction back and released its locks.
    pub fn aborts_transaction(&self) -> bool {
        matches!(
            self,
            DbError::Deadlock
                | DbError::WriteConflict(_)
                | DbError::LockTimeout
                | DbError::ConnectionDropped
        )
    }

    /// Whether the failure is transient: retrying the work (the statement
    /// for [`DbError::WouldBlock`], the whole transaction for abort-class
    /// errors) can legitimately succeed. Semantic errors (parse, schema,
    /// type, constraint) are permanent and must not be retried, and so are
    /// durability failures ([`DbError::Io`], [`DbError::WalCorrupt`]): a
    /// dead or corrupt log does not heal on retry, so they must not
    /// masquerade as lock timeouts.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            DbError::WouldBlock { .. }
                | DbError::Deadlock
                | DbError::WriteConflict(_)
                | DbError::LockTimeout
                | DbError::ConnectionDropped
                | DbError::TooManySessions
        )
    }
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse(e) => write!(f, "{e}"),
            DbError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            DbError::UnknownColumn(c) => write!(f, "unknown column {c:?}"),
            DbError::Type(msg) => write!(f, "type error: {msg}"),
            DbError::ConstraintViolation(msg) => write!(f, "constraint violation: {msg}"),
            DbError::WouldBlock { holders } => {
                write!(f, "lock wait: blocked on transactions {holders:?}")
            }
            DbError::Deadlock => f.write_str("deadlock detected; transaction rolled back"),
            DbError::WriteConflict(msg) => {
                write!(f, "serialization failure (concurrent update): {msg}")
            }
            DbError::LockTimeout => {
                f.write_str("lock wait timeout exceeded; transaction rolled back")
            }
            DbError::ConnectionDropped => {
                f.write_str("connection dropped by server; transaction rolled back")
            }
            DbError::Unsupported(msg) => write!(f, "unsupported statement: {msg}"),
            DbError::Io(msg) => write!(f, "durability i/o error: {msg}"),
            DbError::WalCorrupt(msg) => write!(f, "write-ahead log corrupt: {msg}"),
            DbError::UnknownSavepoint(name) => write!(f, "savepoint {name:?} does not exist"),
            DbError::TooManySessions => f.write_str("too many sessions; connection refused"),
            DbError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<acidrain_sql::ParseError> for DbError {
    fn from(e: acidrain_sql::ParseError) -> Self {
        DbError::Parse(e)
    }
}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durability_errors_are_permanent() {
        for e in [
            DbError::Io("fsync failed".into()),
            DbError::WalCorrupt("bad magic".into()),
            DbError::UnknownSavepoint("sp1".into()),
        ] {
            assert!(!e.is_retryable(), "{e} must not be retryable");
            assert!(!e.aborts_transaction(), "{e} must not claim abort-class");
        }
    }

    #[test]
    fn a_refused_session_is_retryable_and_aborted_nothing() {
        let e = DbError::TooManySessions;
        assert!(e.is_retryable());
        assert!(!e.aborts_transaction(), "no transaction existed to abort");
    }
}
