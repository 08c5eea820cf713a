//! Multi-version row storage.
//!
//! Each logical row occupies a stable slot in its table; writes append new
//! versions to the slot's chain. Version visibility is decided against a
//! [`ReadView`], which encodes the isolation level's read rule.
//!
//! # Atomic tuple timestamps
//!
//! A version's begin and end stamps are single `AtomicU64` words carrying
//! a transaction-id tag bit (`TXN_TAG`, the Hekaton encoding):
//!
//! | word            | meaning                                        |
//! |-----------------|------------------------------------------------|
//! | `ts` (untagged) | commit timestamp of the creator/ender          |
//! | `TXN_TAG \| id` | the (uncommitted) transaction that wrote it    |
//! | `0` (end only)  | open — no transaction has ended this version   |
//!
//! Commit timestamps start at 1 and transaction ids stay below `TXN_TAG`,
//! so the three states never collide (a begin word of `0` is the seeded
//! "committed at time zero" state). Visibility checks are plain `Acquire`
//! loads — no latch — and commit stamping is a `Release` store through a
//! shared reference, which is why `Storage::publish_commit` needs only
//! *read* latches: the latch pins the slot/chain `Vec` structure, not the
//! stamps. Readers scanning concurrently with a commit can only observe
//! the `TXN_TAG|id → ts` transition, and both sides of it are invisible
//! to them: the tag matches no other transaction, and `ts` is above every
//! published snapshot bound until the commit clock advances.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::error::DbError;
use crate::index::TableIndexes;
use crate::latch_order::{self, LatchRank, LatchToken};
use crate::txn::{TxnId, UndoRecord};
use crate::value::Value;
use crate::wal::WalOp;

/// Tag bit marking a timestamp word as holding an uncommitted
/// transaction's id rather than a commit timestamp.
const TXN_TAG: u64 = 1 << 63;

/// End-word sentinel: no transaction, committed or not, has ended the
/// version. Never collides with a real end stamp because commit
/// timestamps start at 1.
const OPEN: u64 = 0;

fn tagged(word: u64) -> bool {
    word & TXN_TAG != 0
}

/// One version of a row. The column values are immutable after creation;
/// the begin/end stamps are atomic words (see the module docs for the
/// encoding) so visibility resolves lock-free at read time.
#[derive(Debug)]
pub struct RowVersion {
    /// The row's column values in this version.
    pub values: Vec<Value>,
    /// Begin word: `TXN_TAG | creator` until the creator commits, then its
    /// commit timestamp.
    begin: AtomicU64,
    /// End word: [`OPEN`], or `TXN_TAG | ender` until the ender commits,
    /// then its commit timestamp.
    end: AtomicU64,
}

impl Clone for RowVersion {
    fn clone(&self) -> Self {
        RowVersion {
            values: self.values.clone(),
            begin: AtomicU64::new(self.begin.load(Ordering::Acquire)),
            end: AtomicU64::new(self.end.load(Ordering::Acquire)),
        }
    }
}

impl RowVersion {
    /// A version created (and already committed) at timestamp `ts`.
    pub fn committed(values: Vec<Value>, ts: u64) -> Self {
        debug_assert!(!tagged(ts), "commit timestamp overflows into tag bit");
        RowVersion {
            values,
            begin: AtomicU64::new(ts),
            end: AtomicU64::new(OPEN),
        }
    }

    /// A fresh uncommitted version created by `txn`.
    pub fn uncommitted(values: Vec<Value>, txn: TxnId) -> Self {
        debug_assert!(!tagged(txn.0), "transaction id overflows into tag bit");
        RowVersion {
            values,
            begin: AtomicU64::new(TXN_TAG | txn.0),
            end: AtomicU64::new(OPEN),
        }
    }

    fn begin_word(&self) -> u64 {
        self.begin.load(Ordering::Acquire)
    }

    fn end_word(&self) -> u64 {
        self.end.load(Ordering::Acquire)
    }

    /// Commit timestamp of the creator; `None` while uncommitted.
    pub fn begin_ts(&self) -> Option<u64> {
        let w = self.begin_word();
        (!tagged(w)).then_some(w)
    }

    /// Commit timestamp of the ender; `None` while the version is open or
    /// its ender is uncommitted.
    pub fn end_ts(&self) -> Option<u64> {
        let w = self.end_word();
        (w != OPEN && !tagged(w)).then_some(w)
    }

    /// Whether no transaction, committed or not, has ended this version.
    pub fn is_open(&self) -> bool {
        self.end_word() == OPEN
    }

    /// Whether `txn` created this version and has not yet committed it.
    pub fn created_by(&self, txn: TxnId) -> bool {
        self.begin_word() == (TXN_TAG | txn.0)
    }

    /// Whether `txn` ended this version and has not yet committed the end.
    pub fn ended_by(&self, txn: TxnId) -> bool {
        self.end_word() == (TXN_TAG | txn.0)
    }

    /// Whether either word still carries an uncommitted transaction tag.
    /// Chains containing such a version are skipped by GC, which keeps
    /// every version index recorded in an active transaction's undo log
    /// valid.
    pub fn has_uncommitted_mark(&self) -> bool {
        tagged(self.begin_word()) || tagged(self.end_word())
    }

    /// Publish the creator's commit timestamp (`Release`: readers that see
    /// the stamp also see the values written before it).
    pub fn stamp_begin(&self, ts: u64) {
        debug_assert!(tagged(self.begin_word()), "begin already committed");
        debug_assert!(!tagged(ts));
        self.begin.store(ts, Ordering::Release);
    }

    /// Publish the ender's commit timestamp. Also used by recovery replay,
    /// where the open→ts transition skips the tagged state.
    pub fn stamp_end(&self, ts: u64) {
        debug_assert!(self.end_ts().is_none(), "end already committed");
        debug_assert!(!tagged(ts) && ts != OPEN);
        self.end.store(ts, Ordering::Release);
    }

    /// Mark this open version as ended by the (uncommitted) `txn`. Callers
    /// hold the table's write latch and the row's X lock.
    pub fn mark_ended(&self, txn: TxnId) {
        debug_assert!(self.is_open(), "version already ended");
        debug_assert!(!tagged(txn.0));
        self.end.store(TXN_TAG | txn.0, Ordering::Release);
    }

    /// Roll back `txn`'s uncommitted end mark, if present. A no-op when the
    /// word holds anything else (the mark was never placed, or another
    /// state transition superseded it — impossible while `txn` holds the
    /// row's X lock, but cheap to guard).
    pub fn clear_end(&self, txn: TxnId) {
        if self.ended_by(txn) {
            self.end.store(OPEN, Ordering::Release);
        }
    }
}

/// A stable slot holding the version chain of one logical row (newest last).
#[derive(Debug, Clone, Default)]
pub struct RowSlot {
    /// The version chain, oldest first.
    pub versions: Vec<RowVersion>,
}

/// Data pages for one table.
#[derive(Debug, Clone)]
pub struct TableData {
    /// Table name (immutable after construction).
    pub name: String,
    /// Row slots; a slot's index is the row's stable identity.
    pub rows: Vec<RowSlot>,
    /// One ordered index per unique or declared-indexed column. Maintained
    /// under this table's write latch at version create time and unwound
    /// on rollback; see [`crate::index`] for the visibility-agnostic
    /// superset contract.
    pub indexes: TableIndexes,
    /// Next value handed out for auto-increment columns.
    pub auto_counter: i64,
}

impl TableData {
    /// An empty table with the auto-increment counter at 1, indexing the
    /// given column positions.
    pub fn new(name: impl Into<String>, indexed_columns: Vec<usize>) -> Self {
        TableData {
            name: name.into(),
            rows: Vec::new(),
            indexes: TableIndexes::new(indexed_columns),
            auto_counter: 1,
        }
    }

    /// Append a freshly created row slot and register it in the indexes.
    /// Callers hold the table's write latch (or own the table during
    /// seeding); returns the new slot's index.
    pub fn push_row(&mut self, version: RowVersion) -> usize {
        let slot_idx = self.rows.len();
        self.indexes.add(slot_idx, &version.values);
        self.rows.push(RowSlot {
            versions: vec![version],
        });
        slot_idx
    }

    /// Append a new version to an existing slot's chain and register its
    /// values in the indexes. Callers hold the table's write latch;
    /// returns the new version's position in the chain.
    pub fn push_version(&mut self, slot: usize, version: RowVersion) -> usize {
        self.indexes.add(slot, &version.values);
        let chain = &mut self.rows[slot].versions;
        chain.push(version);
        chain.len() - 1
    }

    /// Draw the next auto-increment value.
    pub fn next_auto(&mut self) -> i64 {
        let v = self.auto_counter;
        self.auto_counter += 1;
        v
    }
}

/// Outcome of one garbage-collection pass over the version store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Superseded versions reclaimed (removed from their chains and
    /// unwound from the indexes).
    pub reclaimed: usize,
    /// Versions still live across all tables after the pass.
    pub live_versions: usize,
    /// Longest version chain remaining after the pass.
    pub max_chain: usize,
}

/// The storage layer of the decomposed engine: per-table latches around
/// the data pages, an atomic commit clock, and a commit critical section
/// that serializes nothing but version-stamp publication.
///
/// Statements pin (read- or write-latch) only the tables they touch for
/// their own duration, so statements on disjoint tables run concurrently
/// and readers of one table run concurrently with each other — and, since
/// stamps are atomic words, with commit publication itself. Correctness
/// of concurrent commit publication rests on the clock protocol:
/// `commit_ts` is advanced with a `Release` store only *after* every
/// version of the committing transaction has been stamped under the
/// owning tables' read latches, and readers `Acquire`-load their `as_of`
/// bound — so a partially stamped commit always carries a timestamp
/// strictly greater than any reader's bound and is consistently invisible.
///
/// That covers snapshot reads. A *current* read ("latest committed, then
/// lock it") also has to order itself against the committer's lock
/// release, which happens after the clock store and outside any latch;
/// that protocol lives, and is stated once, at `exec.rs::current_read`.
#[derive(Debug)]
pub struct Storage {
    tables: Vec<RwLock<TableData>>,
    names: Vec<String>,
    /// Commit clock: the timestamp of the latest fully published commit.
    commit_ts: AtomicU64,
    /// Serializes commit publication (timestamp draw + stamping), keeping
    /// the clock monotonic without a global statement lock.
    commit_serial: Mutex<()>,
}

impl Storage {
    /// Build storage for a fixed set of tables.
    pub fn new(tables: Vec<TableData>) -> Self {
        let names = tables.iter().map(|t| t.name.clone()).collect();
        Storage {
            tables: tables.into_iter().map(RwLock::new).collect(),
            names,
            commit_ts: AtomicU64::new(0),
            commit_serial: Mutex::new(()),
        }
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Table index by name. Names are immutable after construction, so no
    /// latch is needed.
    pub fn table_index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Read-latch a table for the duration of the returned guard.
    pub fn read(&self, table: usize) -> TableReadGuard<'_> {
        let token = latch_order::acquired(LatchRank::Storage, Some(table));
        TableReadGuard {
            guard: self.tables[table].read(),
            _token: token,
        }
    }

    /// Write-latch a table for the duration of the returned guard.
    pub fn write(&self, table: usize) -> TableWriteGuard<'_> {
        let token = latch_order::acquired(LatchRank::Storage, Some(table));
        TableWriteGuard {
            guard: self.tables[table].write(),
            _token: token,
        }
    }

    /// The latest fully published commit timestamp, usable as a snapshot
    /// `as_of` bound.
    pub fn commit_ts(&self) -> u64 {
        self.commit_ts.load(Ordering::Acquire)
    }

    /// Commit critical section: stamp every version named by `undo` with
    /// the next commit timestamp, hand the redo record to `log` if there is
    /// one, then publish the new clock value.
    ///
    /// Stamps are `Release` stores through shared references, so only
    /// per-table *read* latches are needed (they pin the slot and chain
    /// `Vec` structure against concurrent inserts and rollback removals);
    /// readers of the same table proceed concurrently and cannot observe
    /// the half-stamped commit (see the module docs). The only globally
    /// serialized part is the stamping itself, under `commit_serial`.
    ///
    /// With a write-ahead log attached, `log(ts, ops)` receives the redo
    /// ops ([`WalOp`]s in undo order, plus each touched table's
    /// auto-increment watermark after its run of records) still inside the
    /// critical section, so WAL append order is commit-clock order; its LSN
    /// is returned (0 without a log, where no op is built and no value
    /// cloned). The clock is published only when `log` succeeds; on failure
    /// the stamped-but-unpublished versions stay invisible to snapshot
    /// reads (their timestamp is above every reader's bound) and the engine
    /// is expected to stop accepting work (the WAL is dead).
    pub(crate) fn publish_commit(
        &self,
        txn: TxnId,
        undo: &[UndoRecord],
        log: Option<impl FnOnce(u64, &[WalOp]) -> Result<u64, DbError>>,
    ) -> Result<u64, DbError> {
        let _serial_order = latch_order::acquired(LatchRank::CommitSerial, None);
        let _serial = self.commit_serial.lock();
        let ts = self.commit_ts.load(Ordering::Relaxed) + 1;
        let logged = log.is_some();
        let mut ops = Vec::with_capacity(if logged { undo.len() + 1 } else { 0 });
        let mut i = 0;
        while i < undo.len() {
            let table = undo[i].table();
            let guard = self.read(table);
            while i < undo.len() && undo[i].table() == table {
                match undo[i] {
                    UndoRecord::Created { row, version, .. } => {
                        let v = &guard.rows[row].versions[version];
                        debug_assert!(v.created_by(txn));
                        v.stamp_begin(ts);
                        if logged {
                            ops.push(WalOp::Create {
                                table: table as u32,
                                slot: row as u64,
                                values: v.values.clone(),
                            });
                        }
                    }
                    UndoRecord::Ended { row, version, .. } => {
                        let v = &guard.rows[row].versions[version];
                        debug_assert!(v.ended_by(txn));
                        v.stamp_end(ts);
                        if logged {
                            ops.push(WalOp::End {
                                table: table as u32,
                                slot: row as u64,
                            });
                        }
                    }
                }
                i += 1;
            }
            if logged {
                ops.push(WalOp::AutoInc {
                    table: table as u32,
                    value: guard.auto_counter,
                });
            }
        }
        let lsn = log.map_or(Ok(0), |append| append(ts, &ops))?;
        self.commit_ts.store(ts, Ordering::Release);
        Ok(lsn)
    }

    /// Force the commit clock to `ts`. Recovery-only: called while the
    /// engine is still single-threaded, after replay reconstructed the
    /// committed state up to `ts`.
    pub(crate) fn set_commit_ts(&self, ts: u64) {
        self.commit_ts.store(ts, Ordering::Release);
    }

    /// Run `f` while holding the commit critical section, freezing the
    /// commit clock and all version stamping. Checkpoints use this to cut
    /// a consistent snapshot: with `commit_serial` held, the committed
    /// state cannot advance, and per-table read latches (rank above
    /// `CommitSerial`) can be taken freely inside `f`.
    pub(crate) fn with_commit_frozen<R>(&self, f: impl FnOnce() -> R) -> R {
        let _serial_order = latch_order::acquired(LatchRank::CommitSerial, None);
        let _serial = self.commit_serial.lock();
        f()
    }

    /// Undo every effect named by `undo`, newest first. Reverse order keeps
    /// the recorded version indices valid: within one slot, later records
    /// always name higher indices, and no other transaction can grow or
    /// shrink the chain while this transaction's row X lock is held.
    pub fn rollback(&self, txn: TxnId, undo: &[UndoRecord]) {
        for record in undo.iter().rev() {
            match *record {
                UndoRecord::Created {
                    table,
                    row,
                    version,
                } => {
                    let mut guard = self.write(table);
                    let data = &mut *guard;
                    let slot = &mut data.rows[row];
                    debug_assert!(slot.versions[version].created_by(txn));
                    let removed = slot.versions.remove(version);
                    // Unwind the removed version's index entries (unless a
                    // surviving version of the slot still carries the key).
                    data.indexes.unwind(
                        row,
                        &removed.values,
                        data.rows[row].versions.iter().map(|v| v.values.as_slice()),
                    );
                }
                UndoRecord::Ended {
                    table,
                    row,
                    version,
                } => {
                    // Clearing an end mark is an atomic store; the read
                    // latch only pins the chain structure.
                    let guard = self.read(table);
                    guard.rows[row].versions[version].clear_end(txn);
                }
            }
        }
    }

    /// Garbage-collect superseded versions older than `oldest`, the lower
    /// bound on every snapshot any current or future reader can use.
    ///
    /// Per table (write latch, taken one table at a time with nothing else
    /// held), each chain is pruned by draining its ended prefix: versions
    /// whose end stamp is committed at or before `oldest` are invisible to
    /// every reachable snapshot (`end_ts <= as_of` hides them) and to
    /// every current read (a newer committed version supersedes them), so
    /// they are removed and their index entries unwound. Chains containing
    /// any uncommitted tag word are skipped wholesale — active
    /// transactions record version *indices* in their undo logs and GC
    /// must not shift them. Statement-scope snapshots need no
    /// registration: a statement holds its table latches while it reads,
    /// so the write latch serializes GC behind it, and any later statement
    /// draws a snapshot at or above the clock value `oldest` was derived
    /// from.
    pub fn prune(&self, oldest: u64) -> GcStats {
        let mut stats = GcStats::default();
        for idx in 0..self.tables.len() {
            let mut guard = self.write(idx);
            let data = &mut *guard;
            for slot_idx in 0..data.rows.len() {
                let chain = &mut data.rows[slot_idx].versions;
                if chain.iter().any(RowVersion::has_uncommitted_mark) {
                    stats.live_versions += chain.len();
                    stats.max_chain = stats.max_chain.max(chain.len());
                    continue;
                }
                let mut prefix = 0;
                while prefix < chain.len() {
                    match chain[prefix].end_ts() {
                        Some(ts) if ts <= oldest => prefix += 1,
                        _ => break,
                    }
                }
                if prefix > 0 {
                    let removed: Vec<RowVersion> = chain.drain(..prefix).collect();
                    stats.reclaimed += removed.len();
                    for r in &removed {
                        data.indexes.unwind(
                            slot_idx,
                            &r.values,
                            data.rows[slot_idx]
                                .versions
                                .iter()
                                .map(|v| v.values.as_slice()),
                        );
                    }
                }
                let len = data.rows[slot_idx].versions.len();
                stats.live_versions += len;
                stats.max_chain = stats.max_chain.max(len);
            }
        }
        stats
    }

    /// Diagnostic census of the version store: total live versions and the
    /// longest chain. Takes each table's read latch in turn.
    pub fn version_stats(&self) -> (usize, usize) {
        let mut total = 0;
        let mut max_chain = 0;
        for idx in 0..self.tables.len() {
            let guard = self.read(idx);
            for slot in &guard.rows {
                total += slot.versions.len();
                max_chain = max_chain.max(slot.versions.len());
            }
        }
        (total, max_chain)
    }
}

/// A table read latch paired with its latch-order token. Dereferences to
/// the table's data; dropping it releases the latch and pops the token.
pub struct TableReadGuard<'a> {
    guard: RwLockReadGuard<'a, TableData>,
    _token: LatchToken,
}

impl Deref for TableReadGuard<'_> {
    type Target = TableData;

    fn deref(&self) -> &TableData {
        &self.guard
    }
}

/// A table write latch paired with its latch-order token.
pub struct TableWriteGuard<'a> {
    guard: RwLockWriteGuard<'a, TableData>,
    _token: LatchToken,
}

impl Deref for TableWriteGuard<'_> {
    type Target = TableData;

    fn deref(&self) -> &TableData {
        &self.guard
    }
}

impl DerefMut for TableWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut TableData {
        &mut self.guard
    }
}

/// A read rule: which version of each row is visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadView {
    /// See the newest version regardless of commit status, hiding versions
    /// ended by anyone — the reader's own included (Read Uncommitted).
    Latest,
    /// See versions committed at or before `as_of`, plus this transaction's
    /// own writes.
    Snapshot {
        /// Snapshot bound: the highest commit timestamp visible.
        as_of: u64,
        /// The reading transaction (its own writes are always visible).
        txn: TxnId,
    },
}

impl ReadView {
    /// Whether `version` is visible under this view. Lock-free: two atomic
    /// `Acquire` loads against words that concurrent commits may be
    /// stamping (see the module docs for why every observable interleaving
    /// yields the same answer).
    pub fn sees(&self, version: &RowVersion) -> bool {
        match *self {
            // Any creator counts; any ender (even uncommitted) hides it.
            ReadView::Latest => version.is_open(),
            ReadView::Snapshot { as_of, txn } => {
                let begin_visible =
                    version.created_by(txn) || version.begin_ts().is_some_and(|ts| ts <= as_of);
                if !begin_visible {
                    return false;
                }
                let end_visible =
                    version.ended_by(txn) || version.end_ts().is_some_and(|ts| ts <= as_of);
                !end_visible
            }
        }
    }

    /// Chain position of the visible version in `slot`, if any. Version
    /// chains contain at most one visible version per view by construction.
    pub fn visible_index(&self, slot: &RowSlot) -> Option<usize> {
        slot.versions.iter().rposition(|v| self.sees(v))
    }

    /// The visible version in `slot`, if any.
    pub fn visible_version<'a>(&self, slot: &'a RowSlot) -> Option<&'a RowVersion> {
        self.visible_index(slot).map(|i| &slot.versions[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(vals: i64) -> Vec<Value> {
        vec![Value::Int(vals)]
    }

    /// The slots column 0's index holds under `key`.
    fn keyed(t: &TableData, key: i64) -> Option<Vec<usize>> {
        let key = Value::Int(key);
        t.indexes.probe(0, Some(&key), Some(&key))
    }

    #[test]
    fn snapshot_sees_committed_at_or_before() {
        let version = RowVersion::committed(v(1), 5);
        let view = ReadView::Snapshot {
            as_of: 5,
            txn: TxnId(9),
        };
        assert!(view.sees(&version));
        let early = ReadView::Snapshot {
            as_of: 4,
            txn: TxnId(9),
        };
        assert!(!early.sees(&version));
    }

    #[test]
    fn snapshot_sees_own_uncommitted_writes() {
        let version = RowVersion::uncommitted(v(1), TxnId(3));
        let own = ReadView::Snapshot {
            as_of: 10,
            txn: TxnId(3),
        };
        let other = ReadView::Snapshot {
            as_of: 10,
            txn: TxnId(4),
        };
        assert!(own.sees(&version));
        assert!(!other.sees(&version));
    }

    #[test]
    fn snapshot_hides_versions_ended_before_as_of() {
        let version = RowVersion::committed(v(1), 1);
        version.mark_ended(TxnId(2));
        version.stamp_end(3);
        assert!(!ReadView::Snapshot {
            as_of: 3,
            txn: TxnId(9)
        }
        .sees(&version));
        // An uncommitted delete by another transaction does not hide it.
        let version = RowVersion::committed(v(1), 1);
        version.mark_ended(TxnId(2));
        assert!(ReadView::Snapshot {
            as_of: 3,
            txn: TxnId(9)
        }
        .sees(&version));
        // ... but the deleter itself no longer sees it.
        assert!(!ReadView::Snapshot {
            as_of: 3,
            txn: TxnId(2)
        }
        .sees(&version));
    }

    #[test]
    fn latest_sees_uncommitted_and_respects_any_delete() {
        let version = RowVersion::uncommitted(v(1), TxnId(3));
        assert!(ReadView::Latest.sees(&version));
        let deleted = RowVersion::committed(v(1), 1);
        deleted.mark_ended(TxnId(5));
        assert!(!ReadView::Latest.sees(&deleted));
    }

    #[test]
    fn visible_version_picks_newest_visible() {
        let mut slot = RowSlot::default();
        let old = RowVersion::committed(v(1), 1);
        old.mark_ended(TxnId(8));
        old.stamp_end(2);
        slot.versions.push(old);
        slot.versions.push(RowVersion::committed(v(2), 2));
        let view = ReadView::Snapshot {
            as_of: 10,
            txn: TxnId(9),
        };
        assert_eq!(view.visible_version(&slot).unwrap().values, v(2));
        // At as_of = 1 the old version is the visible one.
        let view = ReadView::Snapshot {
            as_of: 1,
            txn: TxnId(9),
        };
        assert_eq!(view.visible_version(&slot).unwrap().values, v(1));
    }

    #[test]
    fn tagged_words_roundtrip() {
        let version = RowVersion::uncommitted(v(1), TxnId(7));
        assert!(version.created_by(TxnId(7)));
        assert!(!version.created_by(TxnId(8)));
        assert_eq!(version.begin_ts(), None);
        assert!(version.has_uncommitted_mark());
        version.stamp_begin(42);
        assert_eq!(version.begin_ts(), Some(42));
        assert!(!version.created_by(TxnId(7)));
        assert!(!version.has_uncommitted_mark());

        assert!(version.is_open());
        version.mark_ended(TxnId(9));
        assert!(version.ended_by(TxnId(9)));
        assert_eq!(version.end_ts(), None);
        assert!(version.has_uncommitted_mark());
        version.clear_end(TxnId(9));
        assert!(version.is_open());
        version.mark_ended(TxnId(9));
        version.stamp_end(43);
        assert_eq!(version.end_ts(), Some(43));
        assert!(!version.ended_by(TxnId(9)));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn descending_table_latches_panic() {
        // A real-site latch-order inversion: write-latching table 0 while
        // holding table 1 violates the ascending-index rule and must panic
        // in the checker (before the RwLock call, so no deadlock).
        let storage = Storage::new(vec![
            TableData::new("a", vec![]),
            TableData::new("b", vec![]),
        ]);
        let _held = storage.write(1);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _inverted = storage.write(0);
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("latch-order violation"), "{msg}");
    }

    #[test]
    fn auto_counter_increments() {
        let mut t = TableData::new("t", vec![]);
        assert_eq!(t.next_auto(), 1);
        assert_eq!(t.next_auto(), 2);
    }

    #[test]
    fn push_row_and_push_version_maintain_indexes() {
        let mut t = TableData::new("t", vec![0]);
        let slot = t.push_row(RowVersion::committed(v(5), 1));
        assert_eq!(keyed(&t, 5), Some(vec![slot]));
        // An updating version re-indexes the slot under its new value and
        // keeps the old entry (superset over the whole chain).
        t.push_version(slot, RowVersion::uncommitted(v(6), TxnId(2)));
        assert_eq!(keyed(&t, 5), Some(vec![slot]));
        assert_eq!(keyed(&t, 6), Some(vec![slot]));
    }

    #[test]
    fn prune_drains_superseded_prefix_and_unwinds_indexes() {
        let storage = Storage::new(vec![TableData::new("t", vec![0])]);
        {
            let mut t = storage.write(0);
            let slot = t.push_row(RowVersion::committed(v(1), 1));
            t.rows[slot].versions[0].mark_ended(TxnId(1));
            t.rows[slot].versions[0].stamp_end(2);
            t.push_version(slot, RowVersion::committed(v(2), 2));
            t.rows[slot].versions[1].mark_ended(TxnId(2));
            t.rows[slot].versions[1].stamp_end(3);
            t.push_version(slot, RowVersion::committed(v(3), 3));
        }
        // Oldest snapshot at 2: only the first version (ended at 2) is
        // reclaimable; the second (ended at 3) is still visible at as_of 2.
        let stats = storage.prune(2);
        assert_eq!(stats.reclaimed, 1);
        assert_eq!(stats.live_versions, 2);
        assert_eq!(stats.max_chain, 2);
        {
            let t = storage.read(0);
            assert_eq!(t.rows[0].versions.len(), 2);
            assert_eq!(t.rows[0].versions[0].values, v(2));
            // The pruned version's index entry is gone; survivors remain.
            assert_eq!(keyed(&t, 1), Some(vec![]));
            assert_eq!(keyed(&t, 2), Some(vec![0]));
            assert_eq!(keyed(&t, 3), Some(vec![0]));
        }
        // A later pass at 3 collapses the chain to the live version.
        let stats = storage.prune(3);
        assert_eq!(stats.reclaimed, 1);
        assert_eq!(stats.live_versions, 1);
        assert_eq!(stats.max_chain, 1);
    }

    #[test]
    fn prune_skips_chains_with_uncommitted_marks() {
        let storage = Storage::new(vec![TableData::new("t", vec![])]);
        {
            let mut t = storage.write(0);
            let slot = t.push_row(RowVersion::committed(v(1), 1));
            t.rows[slot].versions[0].mark_ended(TxnId(1));
            t.rows[slot].versions[0].stamp_end(2);
            // Uncommitted successor: the whole chain must be left alone so
            // the writer's recorded version indices stay valid.
            t.push_version(slot, RowVersion::uncommitted(v(2), TxnId(5)));
        }
        let stats = storage.prune(10);
        assert_eq!(stats.reclaimed, 0);
        assert_eq!(storage.read(0).rows[0].versions.len(), 2);
    }
}
