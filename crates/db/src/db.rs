//! The database object, connections, and transaction lifecycle.
//!
//! A [`Database`] is a set of layered, independently synchronized
//! subsystems — per-table-latched storage with an atomic commit clock, a
//! lock manager behind its own mutex/condvar, a sharded query log, and
//! atomics for session/config state — so statements from different
//! sessions execute genuinely concurrently. Each *statement* is still
//! atomic: it pins (latches) the tables it touches for its duration, so
//! every concurrency phenomenon in this substrate arises from the
//! *interleaving of statements across transactions* — exactly the
//! granularity at which the paper's anomalies live. See DESIGN.md §8 for
//! what each layer is for, the latch hierarchy, and the current-read
//! protocol that orders a locking read against concurrent commits.
//!
//! Lock waits surface as [`DbError::WouldBlock`] from
//! [`Connection::try_execute`], letting the deterministic scheduler in
//! `acidrain-harness` decide what runs next; [`Connection::execute`] is the
//! blocking flavour used by threaded stress tests.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use acidrain_obs::{MetricsReport, Obs, ProbeOutcome, TraceEvent};
use acidrain_sql::schema::Schema;
use acidrain_sql::{parse_statement, Statement};
use parking_lot::Mutex;

use crate::error::DbError;
use crate::exec;
use crate::fault::{FaultConfig, FaultHandle, FaultStats, InjectedFault};
use crate::isolation::IsolationLevel;
use crate::lock::LockTable;
use crate::log::{ApiTag, LogEntry, QueryLog, StmtOutcome};
use crate::result::ResultSet;
use crate::storage::{GcStats, ReadView, RowVersion, Storage, TableData};
use crate::txn::{TxnId, TxnState};
use crate::value::Value;
use crate::wal::{self, RecoveryInfo, Wal, WalConfig, WalOp};

/// Default for how long a blocking [`Connection::execute`] waits on a lock
/// before giving up (InnoDB's `innodb_lock_wait_timeout` analogue).
/// Override per database with [`Database::set_lock_wait_timeout`]. On
/// timeout the whole transaction is rolled back
/// (`innodb_rollback_on_timeout=ON` semantics), so a timed-out session
/// never wedges other sessions by sitting on its locks.
const DEFAULT_LOCK_WAIT_TIMEOUT: Duration = Duration::from_secs(10);

/// Default number of writing commits between automatic version-GC passes.
/// Frequent enough to keep chains bounded under sustained update streams,
/// rare enough that the per-commit amortized cost is negligible.
const DEFAULT_GC_INTERVAL: u64 = 128;

/// A multi-version transactional database with configurable isolation.
///
/// No global mutex: `storage`, `locks`, `log`, and `faults` synchronize
/// independently, and the scalar configuration/counter fields are atomics.
/// Transaction state lives in the owning [`Connection`], not in a shared
/// map.
pub struct Database {
    /// Immutable after construction; read freely without synchronization.
    pub(crate) schema: Schema,
    /// Each table's column names in storage order, indexed like
    /// `storage`: built once here so statements borrow them.
    pub(crate) columns: Vec<Vec<String>>,
    pub(crate) storage: Storage,
    pub(crate) locks: LockTable,
    pub(crate) log: QueryLog,
    pub(crate) faults: FaultHandle,
    /// Observability registry shared by every subsystem probe. Disabled by
    /// default: each probe then costs a single relaxed atomic load.
    pub(crate) obs: Obs,
    /// The isolation level handed to new connections.
    default_isolation: IsolationLevel,
    next_session: AtomicU64,
    next_txn: AtomicU64,
    /// Sessions currently open (incremented on connect, decremented when a
    /// [`Connection`] drops): the session-leak diagnostic.
    open_sessions: AtomicUsize,
    /// Number of transactions currently active (diagnostics).
    active_txns: AtomicUsize,
    /// Lock-wait timeout in nanoseconds.
    lock_wait_timeout_nanos: AtomicU64,
    /// Whether statements may route predicates through the ordered
    /// indexes (on by default). The indexes are always *maintained*; this
    /// flag only gates the read path, so it can be toggled at any time —
    /// results are identical either way.
    use_indexes: AtomicBool,
    /// GC pin registry: snapshot timestamp → number of active
    /// transaction-long snapshots (MySQL-RR, SI) pinned at it. The GC
    /// bound is computed under this mutex and pins are registered under
    /// it, so a concurrent pass can never slip between a transaction's
    /// clock read and its registration. Statement-scope snapshots are
    /// protected by the table latches instead (GC prunes under the write
    /// latch). Leaf lock: never held while acquiring a latch.
    pinned_snapshots: Mutex<BTreeMap<u64, usize>>,
    /// Writing commits between automatic GC passes (0 disables auto-GC).
    gc_interval: AtomicU64,
    /// Writing commits since the last automatic GC pass.
    commits_since_gc: AtomicU64,
    /// WAL log-size threshold (bytes) past which a commit triggers an
    /// automatic checkpoint; 0 disables the trigger.
    auto_checkpoint_bytes: AtomicU64,
    /// Guard so concurrent commits don't stack up behind one in-flight
    /// automatic checkpoint.
    checkpoint_in_progress: AtomicBool,
    /// Attached write-ahead log, if durability was enabled via
    /// [`Database::attach_wal`] / [`Database::recover`]. Behind a mutex
    /// only for attach-time interior mutability; the hot commit path gates
    /// on `wal_attached` first so the unattached case costs one atomic
    /// load.
    wal: Mutex<Option<Arc<Wal>>>,
    /// Fast-path flag mirroring `wal.is_some()`.
    wal_attached: AtomicBool,
}

impl Database {
    /// Create a database for `schema` with the given default isolation
    /// level for new connections.
    pub fn new(schema: Schema, default_isolation: IsolationLevel) -> Arc<Self> {
        let tables = schema
            .tables()
            .map(|t| TableData::new(t.name.clone(), t.index_backed_columns()))
            .collect();
        let columns = schema
            .tables()
            .map(|t| t.column_names().map(str::to_string).collect())
            .collect();
        let obs = Obs::with_level_names(
            IsolationLevel::ALL
                .iter()
                .map(|l| l.name().to_string())
                .collect(),
        );
        Arc::new(Database {
            schema,
            columns,
            storage: Storage::new(tables),
            locks: LockTable::with_obs(obs.clone()),
            log: QueryLog::with_obs(obs.clone()),
            faults: FaultHandle::with_obs(obs.clone()),
            obs,
            default_isolation,
            next_session: AtomicU64::new(0),
            next_txn: AtomicU64::new(0),
            open_sessions: AtomicUsize::new(0),
            active_txns: AtomicUsize::new(0),
            lock_wait_timeout_nanos: AtomicU64::new(DEFAULT_LOCK_WAIT_TIMEOUT.as_nanos() as u64),
            use_indexes: AtomicBool::new(true),
            pinned_snapshots: Mutex::new(BTreeMap::new()),
            gc_interval: AtomicU64::new(DEFAULT_GC_INTERVAL),
            commits_since_gc: AtomicU64::new(0),
            auto_checkpoint_bytes: AtomicU64::new(0),
            checkpoint_in_progress: AtomicBool::new(false),
            wal: Mutex::new(None),
            wal_attached: AtomicBool::new(false),
        })
    }

    /// Install (or replace) the fault injector configuration. Resets the
    /// injector's per-session counters and statistics.
    pub fn enable_faults(&self, config: FaultConfig) {
        self.faults.reconfigure(config);
    }

    /// Turn fault injection off (counters and statistics reset).
    pub fn disable_faults(&self) {
        self.faults.reconfigure(FaultConfig::disabled());
    }

    /// Snapshot of the fault injector's counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats()
    }

    /// The observability handle every engine probe reports into. Cheap to
    /// clone; see [`acidrain_obs`] for the probe contract.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Start recording metrics (histograms, counters, gauges). Off by
    /// default; while off, every probe site costs one relaxed atomic load.
    /// Probes sit strictly *after* the engine's deterministic decision
    /// points, so toggling this never changes execution results.
    pub fn enable_metrics(&self) {
        self.obs.enable();
    }

    /// Stop recording metrics (already-recorded data is kept).
    pub fn disable_metrics(&self) {
        self.obs.disable();
    }

    /// Whether metrics recording is on.
    pub fn metrics_enabled(&self) -> bool {
        self.obs.is_enabled()
    }

    /// Merge every shard into a point-in-time [`MetricsReport`].
    pub fn metrics_report(&self) -> MetricsReport {
        self.obs.report()
    }

    /// Toggle span-style transaction tracing (requires metrics to be
    /// enabled for spans to be captured).
    pub fn set_tracing(&self, on: bool) {
        self.obs.set_tracing(on);
    }

    /// Drain the captured trace spans in start-time order. Render with
    /// [`acidrain_obs::trace_json`] or [`acidrain_obs::trace_chrome_json`].
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        self.obs.take_trace()
    }

    /// Set how long blocking [`Connection::execute`] calls wait on a lock
    /// before the transaction is rolled back with
    /// [`DbError::LockTimeout`]. The harness watchdog clamps this so hung
    /// lock waits degrade to reported timeouts instead of stalling runs.
    pub fn set_lock_wait_timeout(&self, timeout: Duration) {
        self.lock_wait_timeout_nanos
            .store(timeout.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Current lock-wait timeout for blocking `execute` calls.
    pub fn lock_wait_timeout(&self) -> Duration {
        Duration::from_nanos(self.lock_wait_timeout_nanos.load(Ordering::Relaxed))
    }

    /// Number of currently locked resources (diagnostics: must drop to
    /// zero once every transaction has committed or rolled back).
    pub fn locked_resources(&self) -> usize {
        self.locks.locked_resources()
    }

    /// Number of transaction-long snapshots currently pinned in the GC
    /// registry (diagnostics: must drop to zero once every MySQL-RR/SI
    /// transaction has committed or rolled back — a nonzero residue here
    /// means a vanished session leaked its pin and version GC is stalled
    /// at that timestamp).
    pub fn pinned_snapshots(&self) -> usize {
        self.pinned_snapshots.lock().len()
    }

    /// Enable or disable the index read path. The per-table indexes are
    /// always maintained; when on (the default) a statement routes each
    /// table through the probe of a point conjunct, else of a range
    /// conjunct, else the full scan; when off every predicate takes the
    /// full scan — the reference the invariance tests compare against.
    /// Because index candidates are iterated in the same ascending slot
    /// order the full scan uses — and every candidate still passes through
    /// normal visibility and predicate evaluation — results, lock
    /// acquisition order, abstract histories, and seeded chaos digests are
    /// identical in both modes.
    pub fn set_use_indexes(&self, on: bool) {
        self.use_indexes.store(on, Ordering::Relaxed);
    }

    /// Whether the index read path is enabled.
    pub fn use_indexes(&self) -> bool {
        self.use_indexes.load(Ordering::Relaxed)
    }

    /// Set how many writing commits elapse between automatic version-GC
    /// passes (0 disables the automatic trigger; [`Database::gc`] can
    /// still be called directly). Default: one pass every 128 commits.
    pub fn set_gc_interval(&self, commits: u64) {
        self.gc_interval.store(commits, Ordering::Relaxed);
    }

    /// Garbage-collect superseded row versions now.
    ///
    /// The reclamation bound is the oldest snapshot any current or future
    /// reader can use: the minimum of the registered transaction-long
    /// snapshots and the current commit clock, taken under the pin
    /// registry's mutex so no concurrent pin can race below it. Versions
    /// whose end stamp is committed at or before the bound are invisible
    /// to every such snapshot and are pruned (with their index entries);
    /// chains still carrying an uncommitted transaction tag are left
    /// untouched. Callers must hold no table latches.
    pub fn gc(&self) -> GcStats {
        let oldest = {
            let pins = self.pinned_snapshots.lock();
            let clock = self.storage.commit_ts();
            pins.keys().next().map_or(clock, |p| (*p).min(clock))
        };
        let stats = self.storage.prune(oldest);
        self.obs
            .gc_run(stats.reclaimed as u64, oldest, stats.max_chain as u64);
        stats
    }

    /// Census of the version store: `(total live versions, longest chain)`.
    /// Diagnostics for GC tests and soak harnesses.
    pub fn version_stats(&self) -> (usize, usize) {
        self.storage.version_stats()
    }

    /// Automatic-GC trigger, called once per successful writing commit.
    fn maybe_gc(&self) {
        let every = self.gc_interval.load(Ordering::Relaxed);
        if every == 0 {
            return;
        }
        if self.commits_since_gc.fetch_add(1, Ordering::Relaxed) + 1 < every {
            return;
        }
        self.commits_since_gc.store(0, Ordering::Relaxed);
        self.gc();
    }

    /// Fire [`Database::checkpoint`] automatically whenever a writing
    /// commit observes the WAL's log section above `bytes` (0 disables).
    /// Requires an attached WAL to have any effect.
    pub fn set_auto_checkpoint(&self, bytes: u64) {
        self.auto_checkpoint_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Auto-checkpoint trigger, called once per successful writing commit.
    /// Failures are swallowed: the commit was already acknowledged as
    /// durable, and a checkpoint-killing fault leaves the WAL dead, which
    /// every subsequent writing commit surfaces on its own.
    fn maybe_auto_checkpoint(&self) {
        let threshold = self.auto_checkpoint_bytes.load(Ordering::Relaxed);
        if threshold == 0 {
            return;
        }
        let Some(wal) = self.wal() else {
            return;
        };
        if wal.log_bytes() < threshold {
            return;
        }
        if self.checkpoint_in_progress.swap(true, Ordering::Acquire) {
            return;
        }
        let _ = self.checkpoint();
        self.checkpoint_in_progress.store(false, Ordering::Release);
    }

    /// The isolation level handed to new connections.
    pub fn default_isolation(&self) -> IsolationLevel {
        self.default_isolation
    }

    /// Attach a write-ahead log: every subsequent writing commit appends
    /// its redo record (inside the commit critical section, so WAL order
    /// is commit order) and is acknowledged only once durable, by an fsync
    /// it may share with concurrently committing sessions. Opening an
    /// existing log repairs any torn tail so appends resume at a valid
    /// record boundary; it does **not** replay old records into storage —
    /// use [`Database::recover`] on a fresh engine for that. Errors if a
    /// WAL is already attached.
    pub fn attach_wal(&self, config: WalConfig) -> Result<(), DbError> {
        let mut slot = self.wal.lock();
        if slot.is_some() {
            return Err(DbError::Internal("a WAL is already attached".into()));
        }
        let opened = Wal::open(config, self.obs.clone())?;
        *slot = Some(Arc::new(opened));
        self.wal_attached.store(true, Ordering::Release);
        Ok(())
    }

    /// Whether a WAL is attached.
    pub fn wal_attached(&self) -> bool {
        self.wal_attached.load(Ordering::Acquire)
    }

    /// Whether the attached WAL was killed by an injected crash point (or
    /// a real I/O failure). A dead log fails every subsequent writing
    /// commit with [`DbError::Io`]; the on-disk state is exactly what a
    /// `kill -9` at that point would have left, ready for
    /// [`Database::recover`].
    pub fn wal_crashed(&self) -> bool {
        self.wal().is_some_and(|w| w.is_dead())
    }

    /// Checkpoint: freeze the commit clock, snapshot every table's
    /// committed state to `snapshot.bin` (atomic tmp-file + rename), and
    /// truncate the log. Requires an attached WAL.
    pub fn checkpoint(&self) -> Result<(), DbError> {
        let wal = self
            .wal()
            .ok_or_else(|| DbError::Internal("checkpoint requires an attached WAL".into()))?;
        self.storage.with_commit_frozen(|| {
            let ts = self.storage.commit_ts();
            let snapshot = wal::encode_snapshot(&self.storage, ts);
            wal.checkpoint(&snapshot, &self.faults)
        })
    }

    /// ARIES-lite restart from the durable state under `config.dir`:
    /// install the snapshot (if one exists), replay the WAL tail, discard
    /// (and truncate off) any torn trailing bytes, advance the commit
    /// clock, and attach the repaired log for continued operation.
    ///
    /// Must be called on a freshly built engine in the same pre-crash
    /// state the crashed instance started from (same schema, same seeded
    /// fixtures) before any connections run statements.
    pub fn recover(&self, config: WalConfig) -> Result<RecoveryInfo, DbError> {
        if self.wal_attached() {
            return Err(DbError::Internal(
                "recover must run before a WAL is attached".into(),
            ));
        }
        let info = wal::recover_into(&self.storage, &config)?;
        self.attach_wal(config)?;
        Ok(info)
    }

    fn wal(&self) -> Option<Arc<Wal>> {
        if !self.wal_attached.load(Ordering::Acquire) {
            return None;
        }
        self.wal.lock().clone()
    }

    /// Open a new session. Never refused: the engine sets no session
    /// ceiling. A front end that bounds its session population does so
    /// itself, as the wire server does with its `max_sessions`.
    pub fn connect(self: &Arc<Self>) -> Connection {
        self.open_sessions.fetch_add(1, Ordering::AcqRel);
        let session = self.next_session.fetch_add(1, Ordering::Relaxed) + 1;
        Connection {
            db: Arc::clone(self),
            session,
            isolation: self.default_isolation(),
            txn: None,
            txn_implicit: false,
            autocommit: true,
            api: None,
        }
    }

    /// Number of sessions currently open (connections not yet dropped).
    pub fn open_sessions(&self) -> usize {
        self.open_sessions.load(Ordering::Acquire)
    }

    /// Directly install committed rows, bypassing transactions and the
    /// query log — for fixtures. `Value::Null` in an auto-increment column
    /// is replaced by the counter; explicit values advance the counter.
    pub fn seed(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<(), DbError> {
        let idx = self
            .storage
            .table_index(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        let table_schema = self
            .schema
            .table(table)
            .ok_or_else(|| DbError::UnknownTable(table.into()))?;
        let auto_cols: Vec<usize> = table_schema
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.auto_increment)
            .map(|(i, _)| i)
            .collect();
        let ncols = table_schema.columns.len();
        let ts = self.storage.commit_ts();
        let mut data = self.storage.write(idx);
        for mut row in rows {
            if row.len() != ncols {
                return Err(DbError::Internal(format!(
                    "seed row for {table} has {} values, schema has {ncols} columns",
                    row.len()
                )));
            }
            for &i in &auto_cols {
                match &row[i] {
                    Value::Null => {
                        let v = data.next_auto();
                        row[i] = Value::Int(v);
                    }
                    Value::Int(v) => {
                        let v = *v;
                        if v >= data.auto_counter {
                            data.auto_counter = v + 1;
                        }
                    }
                    _ => {}
                }
            }
            data.push_row(RowVersion::committed(row, ts));
        }
        Ok(())
    }

    /// Latest-committed contents of a table (for invariant checking).
    pub fn table_rows(&self, table: &str) -> Result<Vec<Vec<Value>>, DbError> {
        let idx = self
            .storage
            .table_index(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        let view = ReadView::Snapshot {
            as_of: self.storage.commit_ts(),
            txn: TxnId(u64::MAX),
        };
        Ok(self
            .storage
            .read(idx)
            .rows
            .iter()
            .filter_map(|slot| view.visible_version(slot))
            .map(|v| v.values.clone())
            .collect())
    }

    /// The schema this database was created with.
    pub fn schema(&self) -> Schema {
        self.schema.clone()
    }

    /// Snapshot of the general query log (merged sequence order).
    pub fn log_entries(&self) -> Vec<LogEntry> {
        self.log.entries()
    }

    /// Drain the general query log.
    pub fn take_log(&self) -> Vec<LogEntry> {
        self.log.take()
    }

    /// Number of transactions currently active (diagnostics).
    pub fn active_transactions(&self) -> usize {
        self.active_txns.load(Ordering::Acquire)
    }

    /// Start a transaction; the returned state is owned by the calling
    /// connection.
    pub(crate) fn begin_txn(&self, isolation: IsolationLevel, implicit: bool) -> TxnState {
        let id = TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed) + 1);
        self.active_txns.fetch_add(1, Ordering::AcqRel);
        TxnState::new(id, isolation, implicit).with_timer(self.obs.timer())
    }

    /// Commit a transaction: publish its versions (if it wrote anything),
    /// then release its locks and wake waiters. With a WAL attached, a
    /// writing commit appends its redo record inside the commit critical
    /// section and returns only once the record is durable (group-commit
    /// fsync); read-only transactions skip the log entirely.
    /// On a durability failure ([`DbError::Io`] — the log is dead) the
    /// commit is not acknowledged, but locks are still released and the
    /// transaction is closed so the session can observe the failure
    /// without wedging others.
    pub(crate) fn commit_txn(&self, session: u64, state: TxnState) -> Result<(), DbError> {
        let wrote = !state.undo.is_empty();
        let result = if !wrote {
            Ok(())
        } else {
            let wal = self.wal();
            let append = wal.as_deref().map(|wal| {
                |ts, ops: &[WalOp]| wal.append(session, ts, state.id, ops, &self.faults)
            });
            self.storage
                .publish_commit(state.id, &state.undo, append)
                .and_then(|lsn| match &wal {
                    Some(wal) => wal.sync_to(lsn, session, &self.faults),
                    None => Ok(()),
                })
        };
        self.unpin_snapshot(&state);
        // Read-only fast path: a transaction that never touched the lock
        // manager has nothing to release and skips its global mutex. The
        // pin registry's mutex is the other one a read takes: at MySQL-RR
        // and SI a transaction pins its snapshot there when it first takes
        // one, and unpins it above.
        if state.locks_taken.get() {
            self.locks.release_all(state.id);
        }
        self.active_txns.fetch_sub(1, Ordering::AcqRel);
        self.obs.commit_clock(self.storage.commit_ts());
        self.obs.txn_finished(
            session,
            state.id.0,
            state.isolation.code(),
            result.is_ok(),
            state.timer,
            state.isolation.name(),
        );
        if wrote && result.is_ok() {
            self.maybe_gc();
            self.maybe_auto_checkpoint();
        }
        result
    }

    /// Roll a transaction back: undo its versions, release its locks, wake
    /// waiters.
    pub(crate) fn rollback_txn(&self, session: u64, state: TxnState) {
        self.storage.rollback(state.id, &state.undo);
        self.unpin_snapshot(&state);
        if state.locks_taken.get() {
            self.locks.release_all(state.id);
        }
        self.active_txns.fetch_sub(1, Ordering::AcqRel);
        self.obs.txn_finished(
            session,
            state.id.0,
            state.isolation.code(),
            false,
            state.timer,
            state.isolation.name(),
        );
    }

    /// Drop the transaction's GC pin, if it registered one.
    fn unpin_snapshot(&self, state: &TxnState) {
        if let Some(ts) = state.pinned_snapshot {
            let mut pins = self.pinned_snapshots.lock();
            if let Some(n) = pins.get_mut(&ts) {
                *n -= 1;
                if *n == 0 {
                    pins.remove(&ts);
                }
            }
        }
    }

    /// The snapshot timestamp a transaction's plain reads use, pinning the
    /// transaction-long snapshot on first use for MySQL-RR and SI. The pin
    /// is registered with the GC under the registry mutex — the clock is
    /// read under the same mutex the GC bound is computed under, so the
    /// bound can never pass an in-flight pin.
    pub(crate) fn read_snapshot_ts(&self, state: &mut TxnState) -> u64 {
        if state.isolation.uses_txn_snapshot() {
            if let Some(ts) = state.snapshot_ts {
                return ts;
            }
            let commit_ts = {
                let mut pins = self.pinned_snapshots.lock();
                let commit_ts = self.storage.commit_ts();
                *pins.entry(commit_ts).or_insert(0) += 1;
                commit_ts
            };
            state.snapshot_ts = Some(commit_ts);
            state.pinned_snapshot = Some(commit_ts);
            commit_ts
        } else {
            let commit_ts = self.storage.commit_ts();
            state.snapshot_ts = Some(commit_ts);
            commit_ts
        }
    }

    /// A current-read view: latest committed state plus own writes.
    pub(crate) fn current_read(&self, txn: TxnId) -> ReadView {
        ReadView::Snapshot {
            as_of: self.storage.commit_ts(),
            txn,
        }
    }
}

/// A session against a [`Database`]. Connections are single-threaded and
/// carry MySQL-style session state: autocommit flag, the open transaction
/// (if any — owned here, not in a shared registry), the session isolation
/// level, and the API-call tag applied to logged statements.
pub struct Connection {
    db: Arc<Database>,
    session: u64,
    isolation: IsolationLevel,
    txn: Option<TxnState>,
    /// Whether the open transaction was started implicitly for autocommit
    /// statements (vs `BEGIN` / `SET autocommit=0`).
    txn_implicit: bool,
    autocommit: bool,
    /// Shared by every statement logged under this API call.
    api: Option<Arc<ApiTag>>,
}

impl Connection {
    /// This connection's session id (unique per database).
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// Isolation level used by subsequently started transactions.
    pub fn isolation(&self) -> IsolationLevel {
        self.isolation
    }

    /// Set the isolation level used by subsequently started transactions.
    pub fn set_isolation(&mut self, level: IsolationLevel) {
        self.isolation = level;
    }

    /// Tag subsequent statements as belonging to the given API call.
    pub fn set_api(&mut self, name: impl Into<String>, invocation: u64) {
        self.api = Some(Arc::new(ApiTag {
            name: name.into(),
            invocation,
        }));
    }

    /// Stop tagging statements with an API call.
    pub fn clear_api(&mut self) {
        self.api = None;
    }

    /// Whether an explicit or implicit transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// The id of the currently open transaction, if any.
    pub fn current_txn(&self) -> Option<TxnId> {
        self.txn.as_ref().map(|state| state.id)
    }

    /// Execute a statement, waiting (with timeout) for locks. A lock wait
    /// that exceeds [`Database::lock_wait_timeout`] rolls the whole
    /// transaction back and surfaces as [`DbError::LockTimeout`], so a
    /// stalled session can never wedge others by holding its locks.
    pub fn execute(&mut self, sql: &str) -> Result<ResultSet, DbError> {
        self.execute_parsed(&parse_statement(sql)?, sql)
    }

    /// [`Connection::execute`] of an already-parsed statement. `sql` is the
    /// text `stmt` was parsed from: it is what the query log records.
    pub fn execute_parsed(&mut self, stmt: &Statement, sql: &str) -> Result<ResultSet, DbError> {
        // One deadline for the whole statement, set at the first block:
        // a statement repeatedly woken and re-blocked (its lock claimed
        // by another session each time) shares the budget across parks
        // instead of restarting the clock, so the total wait is bounded.
        let mut deadline: Option<Instant> = None;
        loop {
            match self.apply(stmt, sql) {
                Err(DbError::WouldBlock { .. }) => {
                    let txn_id = self
                        .current_txn()
                        .expect("blocked statement leaves its transaction open");
                    let deadline = *deadline
                        .get_or_insert_with(|| Instant::now() + self.db.lock_wait_timeout());
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    let token = self.db.obs.lock_wait_start();
                    let timed_out =
                        remaining.is_zero() || self.db.locks.wait_for_release(txn_id, remaining);
                    self.db
                        .obs
                        .lock_wait_finished(token, self.session, txn_id.0, timed_out);
                    if timed_out {
                        self.abort_open(sql);
                        return Err(DbError::LockTimeout);
                    }
                }
                other => return other,
            }
        }
    }

    /// Execute a statement without waiting: lock conflicts surface as
    /// [`DbError::WouldBlock`] and the statement can be retried verbatim.
    pub fn try_execute(&mut self, sql: &str) -> Result<ResultSet, DbError> {
        self.try_execute_parsed(&parse_statement(sql)?, sql)
    }

    /// [`Connection::try_execute`] of an already-parsed statement. `sql` is
    /// the text `stmt` was parsed from: it is what the query log records.
    pub fn try_execute_parsed(
        &mut self,
        stmt: &Statement,
        sql: &str,
    ) -> Result<ResultSet, DbError> {
        self.apply(stmt, sql)
    }

    /// Convenience: execute and return the first value of the first row.
    pub fn query_scalar(&mut self, sql: &str) -> Result<Option<Value>, DbError> {
        Ok(self.execute(sql)?.scalar().cloned())
    }

    /// Convenience: execute and return the first value as i64 (0 when the
    /// result is empty or non-numeric).
    pub fn query_i64(&mut self, sql: &str) -> Result<i64, DbError> {
        Ok(self.execute(sql)?.scalar_i64().unwrap_or(0))
    }

    /// Roll back any open transaction (e.g. on application error paths).
    pub fn rollback_open(&mut self) {
        let _ = self.execute("ROLLBACK");
    }

    /// Draw from the database's fault-injector latency channel: `base`
    /// plus this session's next deterministic jitter value. With the
    /// channel unconfigured, returns `base` unchanged. Harness wrappers
    /// use this instead of sleeping a raw fixed duration.
    pub fn jittered_delay(&self, base: Duration) -> Duration {
        self.db.faults.draw_latency(self.session, base)
    }

    /// The observability handle of the database this session belongs to
    /// (see [`Database::obs`]).
    pub fn obs(&self) -> &Obs {
        &self.db.obs
    }

    /// One attempt at executing `stmt`, wrapped in the per-statement
    /// observability probe. The probe runs strictly *after* the engine has
    /// decided the attempt's fate, so metrics can never feed back into
    /// execution; blocked attempts are counted but excluded from the
    /// latency histogram (the eventual completed attempt is recorded).
    fn apply(&mut self, stmt: &Statement, raw: &str) -> Result<ResultSet, DbError> {
        let timer = self.db.obs.timer();
        let txn_before = self.current_txn();
        let result = self.apply_inner(stmt, raw);
        let outcome = match &result {
            Ok(_) => ProbeOutcome::Ok,
            Err(DbError::WouldBlock { .. }) => ProbeOutcome::Blocked,
            Err(e) if e.aborts_transaction() => ProbeOutcome::Aborted,
            Err(_) => ProbeOutcome::Failed,
        };
        let txn = txn_before
            .or_else(|| self.current_txn())
            .map_or(0, |id| id.0);
        self.db.obs.statement_finished(
            self.session,
            self.isolation.code(),
            outcome,
            timer,
            txn,
            raw,
        );
        result
    }

    /// One attempt at executing `stmt`. Latches are acquired (and
    /// released) inside the executor; no locks are held across attempts,
    /// so a blocked statement parks in the lock table with nothing pinned.
    fn apply_inner(&mut self, stmt: &Statement, raw: &str) -> Result<ResultSet, DbError> {
        // Fault decision for this attempt. Data-statement faults ride into
        // the executor (so injected aborts share the organic rollback
        // path); a connection drop kills the session state right here,
        // whatever the statement was.
        let is_data = !stmt.is_transaction_control();
        let injected = self.db.faults.next_fault(self.session, is_data);
        if injected == Some(InjectedFault::ConnectionDrop) {
            self.abort_open(raw);
            return Err(DbError::ConnectionDropped);
        }
        match stmt {
            Statement::Begin => {
                // MySQL implicitly commits an open transaction on BEGIN.
                self.commit_open(raw)?;
                self.txn = Some(self.db.begin_txn(self.isolation, false));
                self.log(raw);
                Ok(ResultSet::empty())
            }
            Statement::Commit => {
                self.commit_open(raw)?;
                self.log(raw);
                Ok(ResultSet::empty())
            }
            Statement::Rollback => {
                if let Some(state) = self.txn.take() {
                    self.db.rollback_txn(self.session, state);
                }
                self.log(raw);
                Ok(ResultSet::empty())
            }
            Statement::SetAutocommit(on) => {
                self.autocommit = *on;
                if *on {
                    self.commit_open(raw)?;
                }
                self.log(raw);
                Ok(ResultSet::empty())
            }
            Statement::Savepoint(name) => {
                // Inside a transaction: mark the current undo position.
                // Outside one (autocommit), MySQL accepts the statement as
                // a no-op.
                if let Some(state) = self.txn.as_mut() {
                    state.set_savepoint(name);
                }
                self.log(raw);
                Ok(ResultSet::empty())
            }
            Statement::RollbackToSavepoint(name) => {
                let mark = self
                    .txn
                    .as_mut()
                    .and_then(|state| state.rollback_to_savepoint(name));
                match mark {
                    Some(mark) => {
                        let state = self.txn.as_mut().expect("savepoint found in open txn");
                        // Undo everything past the watermark. Row locks
                        // taken since the savepoint are retained until
                        // transaction end (conservative divergence from
                        // InnoDB, which may release them).
                        self.db.storage.rollback(state.id, &state.undo[mark..]);
                        state.undo.truncate(mark);
                        self.log(raw);
                        Ok(ResultSet::empty())
                    }
                    None => {
                        // Statement-level error: the transaction stays open.
                        self.log_with(raw, StmtOutcome::Failed);
                        Err(DbError::UnknownSavepoint(name.clone()))
                    }
                }
            }
            Statement::ReleaseSavepoint(name) => {
                let released = self
                    .txn
                    .as_mut()
                    .is_some_and(|state| state.release_savepoint(name));
                if released {
                    self.log(raw);
                    Ok(ResultSet::empty())
                } else {
                    self.log_with(raw, StmtOutcome::Failed);
                    Err(DbError::UnknownSavepoint(name.clone()))
                }
            }
            data_stmt => {
                if self.txn.is_none() {
                    self.txn = Some(self.db.begin_txn(self.isolation, self.autocommit));
                    self.txn_implicit = self.autocommit;
                }
                let state = self.txn.as_mut().expect("transaction just ensured");
                match exec::execute(&self.db, state, data_stmt, injected) {
                    Ok(rs) => {
                        self.log(raw);
                        if self.txn_implicit {
                            let state = self.txn.take().expect("implicit txn open");
                            self.txn_implicit = false;
                            self.db.commit_txn(self.session, state)?;
                        }
                        Ok(rs)
                    }
                    Err(e) if e.aborts_transaction() => {
                        self.abort_open(raw);
                        Err(e)
                    }
                    Err(DbError::WouldBlock { holders }) => {
                        // Keep the transaction (and its locks); the
                        // statement had no effects and is retried verbatim,
                        // so it is not logged.
                        Err(DbError::WouldBlock { holders })
                    }
                    Err(e) => {
                        // Statement-level failure: an explicit transaction
                        // stays open (MySQL semantics); an implicit one is
                        // rolled back.
                        if self.txn_implicit {
                            let state = self.txn.take().expect("implicit txn open");
                            self.db.rollback_txn(self.session, state);
                            self.txn_implicit = false;
                        }
                        self.log_with(raw, StmtOutcome::Failed);
                        Err(e)
                    }
                }
            }
        }
    }

    /// Roll back the open transaction, if any, and log `raw` as the aborted
    /// attempt — the marker that lets 2AD lifting discard the
    /// transaction's prior statements.
    fn abort_open(&mut self, raw: &str) {
        if let Some(state) = self.txn.take() {
            self.db.rollback_txn(self.session, state);
        }
        self.txn_implicit = false;
        self.log_with(raw, StmtOutcome::Aborted);
    }

    /// Commit the open transaction, if any. A durability failure closes it
    /// all the same and logs `raw` as failed.
    fn commit_open(&mut self, raw: &str) -> Result<(), DbError> {
        self.txn_implicit = false;
        let Some(state) = self.txn.take() else {
            return Ok(());
        };
        self.db
            .commit_txn(self.session, state)
            .inspect_err(|_| self.log_with(raw, StmtOutcome::Failed))
    }

    fn log(&self, sql: &str) {
        self.db.log.append(self.session, self.api.clone(), sql);
    }

    fn log_with(&self, sql: &str, outcome: StmtOutcome) {
        self.db
            .log
            .append_with(self.session, self.api.clone(), sql, outcome);
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        if self.txn.is_some() {
            // A session that vanishes mid-transaction — dropped in-process
            // handle or a client socket that went away — takes the same
            // path an explicit ROLLBACK would: undo versions, unpin the GC
            // snapshot, release row locks, wake waiters. The synthetic log
            // entry is load-bearing: without an Aborted marker the
            // transaction's prior statements would read as still-open work
            // to 2AD lifting and observed-history analysis, even though
            // every one of their effects was undone.
            self.abort_open("ROLLBACK");
        }
        self.db.open_sessions.fetch_sub(1, Ordering::AcqRel);
    }
}
