//! Parse each statement text once per analysis.
//!
//! A recorded scenario issues a few dozen distinct statement texts, and the
//! analysis side reads them over and over: the lift, the adviser's
//! re-audits of repaired logs, and the replayer, which executes every
//! statement of every schedule (the interleaving, each serial permutation,
//! the setup, each repaired candidate) on a fresh store. A [`ParseMemo`]
//! holds what each distinct text parses to, and its fingerprint, from the
//! first time anyone asks until the memo is dropped.
//!
//! The memo has no bound and no eviction: it lives exactly as long as one
//! analysis of one scenario at one level, and every text it holds was
//! recorded or rewritten for that scenario.
//!
//! ```
//! use acidrain_sql::{fingerprint::statement_fingerprint, parse_statement, ParseMemo};
//!
//! let memo = ParseMemo::new();
//! let sql = "SELECT balance FROM accounts WHERE id = 1";
//! assert_eq!(*memo.parse(sql).unwrap(), parse_statement(sql).unwrap());
//! assert_eq!(memo.fingerprint(sql), statement_fingerprint(sql));
//! assert!(memo.parse("SELEC balance").is_err());
//! assert_eq!(memo.len(), 2);
//! ```

use std::cell::{OnceCell, RefCell};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use crate::ast::Statement;
use crate::error::ParseError;
use crate::fingerprint::parsed_fingerprint;
use crate::parser::parse_statement;

/// What one statement text parses to, and its fingerprint once asked for
/// (the lift never asks, and a fingerprint costs a template rendering).
#[derive(Debug)]
struct Parsed {
    stmt: Result<Arc<Statement>, ParseError>,
    fingerprint: OnceCell<u64>,
}

/// A map from exact statement text to its parse and fingerprint, filled on
/// first use. Reads take `&self`, so every view of one analysis can share
/// it.
#[derive(Debug, Default)]
pub struct ParseMemo {
    entries: RefCell<HashMap<String, Parsed>>,
}

impl ParseMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// `sql` parsed, exactly as [`parse_statement`] parses it (errors
    /// included).
    pub fn parse(&self, sql: &str) -> Result<Arc<Statement>, ParseError> {
        self.read(sql, |parsed| parsed.stmt.clone())
    }

    /// `sql`'s fingerprint, exactly as
    /// [`crate::fingerprint::statement_fingerprint`] computes it.
    pub fn fingerprint(&self, sql: &str) -> u64 {
        self.read(sql, |parsed| {
            *parsed
                .fingerprint
                .get_or_init(|| parsed_fingerprint(parsed.stmt.as_deref(), sql))
        })
    }

    /// Number of distinct texts parsed so far.
    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    /// Whether nothing has been parsed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every text parsed so far.
    pub fn texts(&self) -> BTreeSet<String> {
        self.entries.borrow().keys().cloned().collect()
    }

    fn read<T>(&self, sql: &str, read: impl FnOnce(&Parsed) -> T) -> T {
        if let Some(parsed) = self.entries.borrow().get(sql) {
            return read(parsed);
        }
        let parsed = Parsed {
            stmt: parse_statement(sql).map(Arc::new),
            fingerprint: OnceCell::new(),
        };
        let value = read(&parsed);
        self.entries.borrow_mut().insert(sql.to_string(), parsed);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::statement_fingerprint;

    #[test]
    fn a_text_is_parsed_once_and_errors_stay_errors() {
        let memo = ParseMemo::new();
        let sql = "UPDATE stock SET qty = qty - 1 WHERE id = 2";
        let first = memo.parse(sql).unwrap();
        let again = memo.parse(sql).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "the second read is the memo's");
        assert_eq!(memo.fingerprint(sql), statement_fingerprint(sql));

        let template = "SELECT qty FROM stock WHERE id = :int";
        assert_eq!(
            memo.parse(template),
            parse_statement(template).map(Arc::new)
        );
        assert_eq!(memo.fingerprint(template), statement_fingerprint(template));
        assert_eq!(memo.len(), 2);
        assert!(memo.texts().contains(template));
    }
}
