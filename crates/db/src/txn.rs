//! Transaction identifiers, per-transaction state, and undo records.

use std::cell::Cell;

use acidrain_obs::Timer;

use crate::isolation::IsolationLevel;

/// A transaction identifier, unique for the lifetime of a [`crate::Database`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "txn#{}", self.0)
    }
}

/// An entry in a transaction's undo log.
///
/// Each record carries the exact index of the affected version within the
/// row slot's chain, so commit stamps and rollback removals are O(1) per
/// record instead of scanning the whole chain. The indices stay valid for
/// the transaction's lifetime: only the version's creator may append to or
/// shrink a slot's chain while its row X lock is held, and commits by
/// other transactions merely stamp timestamps in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UndoRecord {
    /// The transaction created a new version at index `version` in
    /// `table`/`row`.
    Created {
        /// Table index.
        table: usize,
        /// Row-slot index within the table.
        row: usize,
        /// Version index within the slot's chain.
        version: usize,
    },
    /// The transaction marked the existing version at index `version` in
    /// `table`/`row` as ended (deleted or superseded by an update).
    Ended {
        /// Table index.
        table: usize,
        /// Row-slot index within the table.
        row: usize,
        /// Version index within the slot's chain.
        version: usize,
    },
}

impl UndoRecord {
    /// The table the record touches (used to batch per-table latch
    /// acquisitions during commit).
    pub fn table(&self) -> usize {
        match *self {
            UndoRecord::Created { table, .. } | UndoRecord::Ended { table, .. } => table,
        }
    }
}

/// State of one active transaction.
#[derive(Debug)]
pub struct TxnState {
    /// The transaction's id.
    pub id: TxnId,
    /// Isolation level the transaction runs at.
    pub isolation: IsolationLevel,
    /// Commit-timestamp snapshot for consistent reads. For
    /// transaction-snapshot levels (MySQL-RR, SI) this is pinned at the
    /// first data statement; otherwise it is refreshed per statement.
    pub snapshot_ts: Option<u64>,
    /// Undo log, in execution order (rolled back in reverse).
    pub undo: Vec<UndoRecord>,
    /// Set when the transaction was started implicitly to serve a single
    /// autocommit statement.
    pub implicit: bool,
    /// Observability timer armed at `BEGIN` (disarmed when the registry is
    /// off); consumed by the commit/rollback probes for the
    /// whole-transaction latency span.
    pub timer: Timer,
    /// Active savepoints, oldest first: `(name, undo-log watermark)`.
    /// `ROLLBACK TO` undoes every [`UndoRecord`] past the watermark and
    /// truncates the undo log back to it; `RELEASE` just forgets marks.
    pub savepoints: Vec<(String, usize)>,
    /// Set before the first lock-manager acquisition this transaction
    /// attempts. Read-only transactions that never touched the lock table
    /// skip `release_all` at commit and so the lock manager's global
    /// mutex. A `Cell` so the read path (which only holds `&TxnState`) can
    /// set it.
    pub locks_taken: Cell<bool>,
    /// The snapshot timestamp this transaction registered in the GC pin
    /// registry, if any (transaction-snapshot levels only); unpinned at
    /// commit/rollback.
    pub pinned_snapshot: Option<u64>,
}

impl TxnState {
    /// Open a transaction with an empty undo log and no snapshot pinned.
    pub fn new(id: TxnId, isolation: IsolationLevel, implicit: bool) -> Self {
        TxnState {
            id,
            isolation,
            snapshot_ts: None,
            undo: Vec::new(),
            implicit,
            timer: Timer::disarmed(),
            savepoints: Vec::new(),
            locks_taken: Cell::new(false),
            pinned_snapshot: None,
        }
    }

    /// Attach the observability timer captured when the transaction began.
    pub fn with_timer(mut self, timer: Timer) -> Self {
        self.timer = timer;
        self
    }

    /// Establish (or move, MySQL-style) a savepoint at the current undo
    /// position. Re-using a name destroys the old mark and any marks set
    /// after it.
    pub fn set_savepoint(&mut self, name: &str) {
        if let Some(i) = self.savepoints.iter().position(|(n, _)| n == name) {
            self.savepoints.truncate(i);
        }
        self.savepoints.push((name.to_string(), self.undo.len()));
    }

    /// Undo-log watermark for `ROLLBACK TO name`. The savepoint itself is
    /// kept (it can be rolled back to again) but later marks are dropped.
    /// Returns `None` when the name is unknown.
    pub fn rollback_to_savepoint(&mut self, name: &str) -> Option<usize> {
        let i = self.savepoints.iter().position(|(n, _)| n == name)?;
        let mark = self.savepoints[i].1;
        self.savepoints.truncate(i + 1);
        Some(mark)
    }

    /// `RELEASE name`: drop the named savepoint and every later one without
    /// undoing any work. Returns false when the name is unknown.
    pub fn release_savepoint(&mut self, name: &str) -> bool {
        match self.savepoints.iter().position(|(n, _)| n == name) {
            Some(i) => {
                self.savepoints.truncate(i);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_ids_order_and_display() {
        assert!(TxnId(1) < TxnId(2));
        assert_eq!(TxnId(7).to_string(), "txn#7");
    }

    #[test]
    fn new_state_is_empty() {
        let t = TxnState::new(TxnId(1), IsolationLevel::ReadCommitted, false);
        assert!(t.undo.is_empty());
        assert_eq!(t.snapshot_ts, None);
        assert!(!t.implicit);
        assert!(t.savepoints.is_empty());
    }

    fn undo_at(row: usize) -> UndoRecord {
        UndoRecord::Created {
            table: 0,
            row,
            version: 0,
        }
    }

    #[test]
    fn savepoints_track_undo_watermarks() {
        let mut t = TxnState::new(TxnId(1), IsolationLevel::ReadCommitted, false);
        t.undo.push(undo_at(0));
        t.set_savepoint("a");
        t.undo.push(undo_at(1));
        t.set_savepoint("b");
        t.undo.push(undo_at(2));

        assert_eq!(t.rollback_to_savepoint("missing"), None);
        assert_eq!(t.rollback_to_savepoint("b"), Some(2));
        // "b" survives its own rollback and can be targeted again.
        assert_eq!(t.rollback_to_savepoint("b"), Some(2));
        // Rolling back to "a" destroys "b".
        assert_eq!(t.rollback_to_savepoint("a"), Some(1));
        assert_eq!(t.savepoints.len(), 1);
        assert_eq!(t.rollback_to_savepoint("b"), None);
    }

    #[test]
    fn savepoint_reuse_and_release() {
        let mut t = TxnState::new(TxnId(1), IsolationLevel::ReadCommitted, false);
        t.set_savepoint("a");
        t.undo.push(undo_at(0));
        t.set_savepoint("b");
        // Re-using "a" drops both old marks and re-adds "a" at the top.
        t.set_savepoint("a");
        assert_eq!(t.savepoints, vec![("a".to_string(), 1)]);

        t.set_savepoint("c");
        assert!(t.release_savepoint("a"));
        assert!(t.savepoints.is_empty(), "release drops later marks too");
        assert!(!t.release_savepoint("a"));
    }
}
