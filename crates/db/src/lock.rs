//! Hierarchical lock manager with deadlock detection.
//!
//! Resources form a two-level hierarchy: tables (which take intention or
//! coarse modes) and rows (shared/exclusive). Predicate reads under
//! Serializable take a shared table lock, which conflicts with writers'
//! intention-exclusive locks — that is what closes the phantom window at
//! the top level while leaving it open at every weaker level.
//!
//! Acquisition never blocks: [`LockManager::acquire`] either grants the
//! lock or reports the conflicting holders, letting both the cooperative
//! deterministic scheduler and the threaded executor decide how to wait.
//! A waits-for graph detects deadlocks at wait-registration time; the
//! requester is the victim.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::time::{Duration, Instant};

use acidrain_obs::Obs;
use parking_lot::{Condvar, Mutex};

use crate::latch_order::{self, LatchRank};
use crate::txn::TxnId;

/// A lockable resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceId {
    /// A whole table (by table index).
    Table(usize),
    /// A row slot within a table.
    Row(usize, usize),
}

/// Multi-granularity lock modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Intention shared (tables only).
    IntentionShared,
    /// Intention exclusive (tables only).
    IntentionExclusive,
    /// Shared (read) lock.
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

impl LockMode {
    /// Standard multi-granularity compatibility matrix.
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        match (self, other) {
            (IntentionShared, Exclusive) | (Exclusive, IntentionShared) => false,
            (IntentionShared, _) | (_, IntentionShared) => true,
            (IntentionExclusive, IntentionExclusive) => true,
            (IntentionExclusive, _) | (_, IntentionExclusive) => false,
            (Shared, Shared) => true,
            (Shared, Exclusive) | (Exclusive, Shared) | (Exclusive, Exclusive) => false,
        }
    }

    /// Whether holding `self` subsumes a request for `other`.
    pub fn covers(self, other: LockMode) -> bool {
        use LockMode::*;
        matches!(
            (self, other),
            (Exclusive, _)
                | (Shared, Shared)
                | (Shared, IntentionShared)
                | (IntentionExclusive, IntentionExclusive)
                | (IntentionExclusive, IntentionShared)
                | (IntentionShared, IntentionShared)
        )
    }
}

/// Outcome of a lock request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock was granted (or was already held in a covering mode).
    Granted,
    /// The request conflicts with these holders. No state was changed
    /// beyond recording the wait edge; retry after a release.
    Blocked(Vec<TxnId>),
    /// Granting would close a waits-for cycle: the requester must abort.
    Deadlock,
}

#[derive(Debug, Default)]
struct LockEntry {
    /// Current holders and their strongest mode on this resource.
    holders: Vec<(TxnId, LockMode)>,
}

/// A multiplicative hasher for the lock table's keys, which are small
/// integers the engine assigns (table and slot indices, transaction ids),
/// never text from a client: hashing one is a multiply per word instead
/// of SipHash's rounds, and it runs under the manager's mutex.
#[derive(Debug, Default, Clone, Copy)]
struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
type IdSet<T> = HashSet<T, BuildHasherDefault<IdHasher>>;

/// How many emptied holder and held-resource vectors the manager keeps for
/// reuse, and the largest capacity it keeps one at: a resource locked for
/// the first time, or a transaction's first lock, then allocates nothing,
/// and a transaction that locked many rows leaves no large buffer behind.
const SPARE_VECS: usize = 64;
const SPARE_CAPACITY: usize = 256;

/// The lock table plus the waits-for graph.
#[derive(Debug, Default)]
pub struct LockManager {
    locks: IdMap<ResourceId, LockEntry>,
    /// txn -> set of txns it is currently waiting on.
    waits_for: IdMap<TxnId, IdSet<TxnId>>,
    /// Resources held per transaction, for O(held) release; each appears
    /// once (a holder is pushed only when it first joins a resource).
    held: IdMap<TxnId, Vec<ResourceId>>,
    /// Emptied `LockEntry::holders` vectors, for reuse.
    spare_holders: Vec<Vec<(TxnId, LockMode)>>,
    /// Emptied `held` vectors, for reuse.
    spare_held: Vec<Vec<ResourceId>>,
}

impl LockManager {
    /// An empty lock manager.
    pub fn new() -> Self {
        LockManager::default()
    }

    /// Request `mode` on `resource` for `txn`.
    ///
    /// On conflict the wait is recorded and deadlock detection runs; the
    /// caller must translate [`LockOutcome::Deadlock`] into a transaction
    /// abort (this module does not release anything by itself).
    pub fn acquire(&mut self, txn: TxnId, resource: ResourceId, mode: LockMode) -> LockOutcome {
        let spare_holders = &mut self.spare_holders;
        let entry = self.locks.entry(resource).or_insert_with(|| LockEntry {
            holders: spare_holders.pop().unwrap_or_default(),
        });

        if let Some((_, held_mode)) = entry.holders.iter().find(|(holder, _)| *holder == txn) {
            if held_mode.covers(mode) {
                self.stop_waiting(txn);
                return LockOutcome::Granted;
            }
        }

        let conflicting: Vec<TxnId> = entry
            .holders
            .iter()
            .filter(|(holder, held_mode)| *holder != txn && !held_mode.compatible(mode))
            .map(|(holder, _)| *holder)
            .collect();

        if conflicting.is_empty() {
            match entry.holders.iter_mut().find(|(holder, _)| *holder == txn) {
                Some(slot) => slot.1 = upgrade(slot.1, mode),
                None => {
                    entry.holders.push((txn, mode));
                    let spare_held = &mut self.spare_held;
                    self.held
                        .entry(txn)
                        .or_insert_with(|| spare_held.pop().unwrap_or_default())
                        .push(resource);
                }
            }
            self.stop_waiting(txn);
            return LockOutcome::Granted;
        }

        // Record the wait and check for a cycle.
        self.waits_for
            .insert(txn, conflicting.iter().copied().collect());
        if self.in_cycle(txn) {
            self.waits_for.remove(&txn);
            return LockOutcome::Deadlock;
        }
        LockOutcome::Blocked(conflicting)
    }

    /// Release every lock held by `txn` and clear its waits.
    pub fn release_all(&mut self, txn: TxnId) {
        if let Some(mut resources) = self.held.remove(&txn) {
            for r in resources.drain(..) {
                if let Some(entry) = self.locks.get_mut(&r) {
                    entry.holders.retain(|(holder, _)| *holder != txn);
                    if entry.holders.is_empty() {
                        let emptied = self.locks.remove(&r).expect("entry just read");
                        recycle(&mut self.spare_holders, emptied.holders);
                    }
                }
            }
            recycle(&mut self.spare_held, resources);
        }
        if self.waits_for.is_empty() {
            return;
        }
        self.waits_for.remove(&txn);
        // Drop stale wait edges pointing at the finished transaction.
        for waiting in self.waits_for.values_mut() {
            waiting.remove(&txn);
        }
        self.waits_for.retain(|_, w| !w.is_empty());
    }

    /// Clear `txn`'s wait edges after a grant (most grants find none).
    fn stop_waiting(&mut self, txn: TxnId) {
        if !self.waits_for.is_empty() {
            self.waits_for.remove(&txn);
        }
    }

    /// Whether `txn` holds a lock on `resource` in a mode covering `mode`.
    pub fn holds(&self, txn: TxnId, resource: ResourceId, mode: LockMode) -> bool {
        self.locks
            .get(&resource)
            .map(|e| {
                e.holders
                    .iter()
                    .any(|(holder, held)| *holder == txn && held.covers(mode))
            })
            .unwrap_or(false)
    }

    /// The transactions `txn` currently waits on (empty when not waiting).
    pub fn waiting_on(&self, txn: TxnId) -> Vec<TxnId> {
        self.waits_for
            .get(&txn)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// DFS over the waits-for graph looking for a cycle through `start`.
    fn in_cycle(&self, start: TxnId) -> bool {
        let mut stack: Vec<TxnId> = self
            .waits_for
            .get(&start)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        let mut seen = IdSet::default();
        while let Some(t) = stack.pop() {
            if t == start {
                return true;
            }
            if seen.insert(t) {
                if let Some(next) = self.waits_for.get(&t) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    }

    /// Number of currently locked resources (diagnostics/tests).
    pub fn locked_resources(&self) -> usize {
        self.locks.len()
    }
}

/// Keep an emptied vector for reuse unless the spares are full or it is
/// large.
fn recycle<T>(spares: &mut Vec<Vec<T>>, emptied: Vec<T>) {
    debug_assert!(emptied.is_empty());
    if spares.len() < SPARE_VECS && emptied.capacity() <= SPARE_CAPACITY {
        spares.push(emptied);
    }
}

/// Combine a held mode with a newly granted one into the strongest.
fn upgrade(held: LockMode, new: LockMode) -> LockMode {
    use LockMode::*;
    if held == Exclusive || new == Exclusive {
        Exclusive
    } else if held == Shared || new == Shared {
        // S + IX would be SIX in a full implementation; Exclusive is a safe
        // over-approximation at our granularity.
        if held == IntentionExclusive || new == IntentionExclusive {
            Exclusive
        } else {
            Shared
        }
    } else if held == IntentionExclusive || new == IntentionExclusive {
        IntentionExclusive
    } else {
        IntentionShared
    }
}

/// Concurrency wrapper around [`LockManager`]: a dedicated mutex plus a
/// condvar signalled on every lock release.
///
/// This is the lock-manager *layer* of the decomposed engine. The mutex is
/// held only for the duration of a single table operation (acquire,
/// release, bookkeeping query) — never across statement execution — so
/// lock waits no longer stop the world. Blocked transactions park in
/// [`LockTable::wait_for_release`] until every transaction they wait on
/// has released (or the lock-wait timeout fires); the check runs under the
/// manager mutex, so wakeups cannot be missed.
#[derive(Debug, Default)]
pub struct LockTable {
    manager: Mutex<LockManager>,
    released: Condvar,
    /// Observability handle; counts organic deadlocks at the point they
    /// are detected (injected ones are counted by the fault injector).
    obs: Obs,
}

impl LockTable {
    /// A lock table with a fresh (disabled) observability handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// A lock table that reports to `obs` (the owning database's
    /// registry).
    pub fn with_obs(obs: Obs) -> Self {
        LockTable {
            obs,
            ..Self::default()
        }
    }

    /// Non-blocking acquire; see [`LockManager::acquire`]. Deadlock
    /// outcomes are recorded with the observability registry *after*
    /// detection — the probe never influences the verdict.
    pub fn acquire(&self, txn: TxnId, resource: ResourceId, mode: LockMode) -> LockOutcome {
        let outcome = {
            let _order = latch_order::acquired(LatchRank::LockManager, None);
            self.manager.lock().acquire(txn, resource, mode)
        };
        if outcome == LockOutcome::Deadlock {
            self.obs.deadlock(txn.0);
        }
        outcome
    }

    /// Release every lock held by `txn` and wake all parked waiters.
    pub fn release_all(&self, txn: TxnId) {
        {
            let _order = latch_order::acquired(LatchRank::LockManager, None);
            self.manager.lock().release_all(txn);
        }
        self.released.notify_all();
    }

    /// Park until `txn` no longer waits on any other transaction, or until
    /// `timeout` elapses. Returns `true` if the wait timed out with `txn`
    /// still blocked.
    ///
    /// Must be called with no storage latches held (lock ordering: the
    /// lock-manager mutex sits below the storage latches, and parking here
    /// while pinning a table would stall the very writers being waited
    /// for).
    pub fn wait_for_release(&self, txn: TxnId, timeout: Duration) -> bool {
        debug_assert!(
            !latch_order::holds_at_or_above(LatchRank::CommitSerial),
            "wait_for_release called with an engine latch held"
        );
        let deadline = Instant::now() + timeout;
        let _order = latch_order::acquired(LatchRank::LockManager, None);
        let mut manager = self.manager.lock();
        while !manager.waiting_on(txn).is_empty() {
            let now = Instant::now();
            if now >= deadline {
                return true;
            }
            if self
                .released
                .wait_for(&mut manager, deadline - now)
                .timed_out()
            {
                return !manager.waiting_on(txn).is_empty();
            }
        }
        false
    }

    /// Whether `txn` holds `resource` in a mode covering `mode`.
    pub fn holds(&self, txn: TxnId, resource: ResourceId, mode: LockMode) -> bool {
        let _order = latch_order::acquired(LatchRank::LockManager, None);
        self.manager.lock().holds(txn, resource, mode)
    }

    /// Number of currently locked resources (diagnostics/tests).
    pub fn locked_resources(&self) -> usize {
        let _order = latch_order::acquired(LatchRank::LockManager, None);
        self.manager.lock().locked_resources()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T1: TxnId = TxnId(1);
    const T2: TxnId = TxnId(2);
    const T3: TxnId = TxnId(3);
    const ROW: ResourceId = ResourceId::Row(0, 0);
    const TABLE: ResourceId = ResourceId::Table(0);

    #[test]
    fn shared_locks_coexist() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(T1, ROW, LockMode::Shared), LockOutcome::Granted);
        assert_eq!(lm.acquire(T2, ROW, LockMode::Shared), LockOutcome::Granted);
        assert_eq!(
            lm.acquire(T3, ROW, LockMode::Exclusive),
            LockOutcome::Blocked(vec![T1, T2])
        );
    }

    #[test]
    fn exclusive_blocks_everyone() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(T1, ROW, LockMode::Exclusive),
            LockOutcome::Granted
        );
        assert!(matches!(
            lm.acquire(T2, ROW, LockMode::Shared),
            LockOutcome::Blocked(_)
        ));
        lm.release_all(T1);
        assert_eq!(lm.acquire(T2, ROW, LockMode::Shared), LockOutcome::Granted);
    }

    #[test]
    fn reacquire_is_idempotent() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(T1, ROW, LockMode::Exclusive),
            LockOutcome::Granted
        );
        assert_eq!(lm.acquire(T1, ROW, LockMode::Shared), LockOutcome::Granted);
        assert_eq!(
            lm.acquire(T1, ROW, LockMode::Exclusive),
            LockOutcome::Granted
        );
    }

    #[test]
    fn self_upgrade_succeeds_when_alone() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(T1, ROW, LockMode::Shared), LockOutcome::Granted);
        assert_eq!(
            lm.acquire(T1, ROW, LockMode::Exclusive),
            LockOutcome::Granted
        );
        assert!(lm.holds(T1, ROW, LockMode::Exclusive));
    }

    #[test]
    fn upgrade_deadlock_detected() {
        // Classic lost-update prevention under 2PL: both read (S), both try
        // to write (X) -> the second upgrader closes the cycle.
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(T1, ROW, LockMode::Shared), LockOutcome::Granted);
        assert_eq!(lm.acquire(T2, ROW, LockMode::Shared), LockOutcome::Granted);
        assert_eq!(
            lm.acquire(T1, ROW, LockMode::Exclusive),
            LockOutcome::Blocked(vec![T2])
        );
        assert_eq!(
            lm.acquire(T2, ROW, LockMode::Exclusive),
            LockOutcome::Deadlock
        );
    }

    #[test]
    fn cross_resource_deadlock_detected() {
        let r1 = ResourceId::Row(0, 1);
        let r2 = ResourceId::Row(0, 2);
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(T1, r1, LockMode::Exclusive),
            LockOutcome::Granted
        );
        assert_eq!(
            lm.acquire(T2, r2, LockMode::Exclusive),
            LockOutcome::Granted
        );
        assert!(matches!(
            lm.acquire(T1, r2, LockMode::Exclusive),
            LockOutcome::Blocked(_)
        ));
        assert_eq!(
            lm.acquire(T2, r1, LockMode::Exclusive),
            LockOutcome::Deadlock
        );
    }

    #[test]
    fn intention_modes() {
        let mut lm = LockManager::new();
        // Writer takes IX on the table.
        assert_eq!(
            lm.acquire(T1, TABLE, LockMode::IntentionExclusive),
            LockOutcome::Granted
        );
        // Another writer's IX coexists.
        assert_eq!(
            lm.acquire(T2, TABLE, LockMode::IntentionExclusive),
            LockOutcome::Granted
        );
        // A predicate reader's S on the table blocks on both.
        let LockOutcome::Blocked(holders) = lm.acquire(T3, TABLE, LockMode::Shared) else {
            panic!("expected block");
        };
        assert_eq!(holders.len(), 2);
        // IS coexists with IX.
        lm.release_all(T3);
        assert_eq!(
            lm.acquire(T3, TABLE, LockMode::IntentionShared),
            LockOutcome::Granted
        );
    }

    #[test]
    fn predicate_lock_blocks_insert_intent() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(T1, TABLE, LockMode::Shared),
            LockOutcome::Granted
        );
        assert!(matches!(
            lm.acquire(T2, TABLE, LockMode::IntentionExclusive),
            LockOutcome::Blocked(_)
        ));
    }

    #[test]
    fn release_clears_wait_edges() {
        let mut lm = LockManager::new();
        lm.acquire(T1, ROW, LockMode::Exclusive);
        lm.acquire(T2, ROW, LockMode::Exclusive);
        assert_eq!(lm.waiting_on(T2), vec![T1]);
        lm.release_all(T1);
        assert!(lm.waiting_on(T2).is_empty());
        assert_eq!(
            lm.acquire(T2, ROW, LockMode::Exclusive),
            LockOutcome::Granted
        );
        lm.release_all(T2);
        assert_eq!(lm.locked_resources(), 0);
    }

    #[test]
    fn blocked_does_not_grant() {
        let mut lm = LockManager::new();
        lm.acquire(T1, ROW, LockMode::Exclusive);
        let _ = lm.acquire(T2, ROW, LockMode::Shared);
        assert!(!lm.holds(T2, ROW, LockMode::Shared));
        assert!(lm.holds(T1, ROW, LockMode::Exclusive));
    }
}
