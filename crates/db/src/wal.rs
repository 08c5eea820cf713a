//! Write-ahead logging, group commit, checkpointing, and ARIES-lite
//! recovery.
//!
//! # Log contents and ordering
//!
//! The engine is a multi-version in-memory store; what must survive a
//! crash is the sequence of *committed* logical writes. Each commit
//! appends one framed record holding the commit timestamp, the committing
//! transaction id, and the redo ops derived from the transaction's undo
//! log at publication time: `WalOp::Create` (a new row version with its
//! values), `WalOp::End` (the visible version of a slot was ended), and
//! `WalOp::AutoInc` (the table's auto-increment watermark). Records are
//! appended *inside the commit critical section*
//! (`Storage::publish_commit`), so WAL order is exactly
//! commit-clock order and replaying records front to back reconstructs
//! every version chain bit-for-bit (rolled-back inserts leave gap slots,
//! which replay materializes as empty [`RowSlot`]s to keep slot indices
//! stable).
//!
//! # Group commit
//!
//! `append` only buffers bytes; durability happens in `Wal::sync_to`,
//! called *after* the commit critical section is released. The first
//! session to need a flush becomes the leader: it takes the whole buffer
//! (its own record plus every record appended by sessions that committed
//! meanwhile), writes and fsyncs it outside the buffer lock, then wakes
//! all waiters — one fsync amortized over the batch. A session committing
//! alone is its own leader and fsyncs its one record before it is
//! acknowledged, so there is no separate per-commit mode.
//!
//! # Latching
//!
//! The WAL's two mutexes (`inner` for the buffer/LSN state, `io` for the
//! file) are deliberately *not* registered with [`crate::latch_order`] —
//! they are leaf locks like the fault-injector mutex. Safety argument:
//! `inner` is only acquired from `append`/`checkpoint` (holding
//! `CommitSerial`, rank 0, and nothing else) or from `sync_to` (holding
//! nothing); `io` is only acquired either by a flush leader that holds
//! *neither* `inner` nor any registered latch, or by an `inner` holder
//! after observing `flushing == false` (so no leader can hold `io`).
//! Neither mutex is ever held while acquiring a registered latch, so no
//! cycle through the registered hierarchy is possible.
//!
//! # Crash simulation
//!
//! Durability code paths report crash points to the fault injector
//! ([`CrashPoint`]); when the armed occurrence fires, the WAL truncates
//! its on-disk state to exactly the bytes a `kill -9` at that instant
//! would have left durable, marks itself dead, and every subsequent
//! operation fails with [`DbError::Io`]. Recovery then proceeds from the
//! files alone, exactly as it would after a real crash.
//!
//! # Recovery
//!
//! `recover_into` loads `snapshot.bin` (if present) into storage,
//! replays every WAL record with a commit timestamp greater than the
//! snapshot's, stops at the first torn or corrupt record (truncating the
//! file back to the last valid boundary), and advances the commit clock
//! to the highest replayed timestamp. A record is applied only if its
//! checksum verifies and its payload decodes completely, so a torn tail
//! can never surface partial effects.

use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use acidrain_obs::Obs;
use acidrain_sql::fnv1a;
use parking_lot::{Condvar, Mutex};

use crate::error::DbError;
use crate::fault::{CrashPoint, FaultHandle};
use crate::index::TableIndexes;
use crate::storage::{RowSlot, RowVersion, Storage};
use crate::txn::TxnId;
use crate::value::Value;

/// Magic bytes opening `wal.log`.
const WAL_MAGIC: &[u8; 8] = b"ARWAL001";
/// Magic bytes opening `snapshot.bin`.
const SNAP_MAGIC: &[u8; 8] = b"ARSNAP01";
/// Byte length of the WAL file header (just the magic).
pub const WAL_HEADER_LEN: u64 = 8;
/// Per-record frame header: u32 payload length + u64 FNV-1a checksum.
const REC_HEADER_LEN: usize = 12;

/// Durability configuration: where the log lives and what a flush costs.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding `wal.log` and `snapshot.bin`.
    pub dir: PathBuf,
    /// Extra simulated device latency added to every fsync (spin-waited
    /// after the real `sync_data`), letting benchmarks model a disk with
    /// a meaningful flush cost.
    pub fsync_delay: Option<Duration>,
}

impl WalConfig {
    /// A log rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            fsync_delay: None,
        }
    }

    /// Add a simulated per-fsync device latency.
    pub fn with_fsync_delay(mut self, delay: Duration) -> Self {
        self.fsync_delay = Some(delay);
        self
    }

    /// Path of the log file.
    pub fn log_path(&self) -> PathBuf {
        self.dir.join("wal.log")
    }

    /// Path of the installed (durable) snapshot.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.bin")
    }

    fn snapshot_tmp_path(&self) -> PathBuf {
        self.dir.join("snapshot.tmp")
    }
}

/// One logical redo operation within a commit record. Slot-addressed (not
/// version-index-addressed) so replay is insensitive to uncommitted
/// versions that existed when the record was written.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalOp {
    /// A new committed version of `slot` with the given values.
    Create {
        /// Table index.
        table: u32,
        /// Row-slot index.
        slot: u64,
        /// Column values of the new version.
        values: Vec<Value>,
    },
    /// The open version of `slot` was ended (delete, or the pre-image of
    /// an update; updates log `End` then `Create`).
    End {
        /// Table index.
        table: u32,
        /// Row-slot index.
        slot: u64,
    },
    /// The table's auto-increment counter as of this commit.
    AutoInc {
        /// Table index.
        table: u32,
        /// Counter value after the commit.
        value: i64,
    },
}

/// What recovery found and did; returned by [`crate::Database::recover`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Commit timestamp the installed snapshot covers (0 = no snapshot).
    pub snapshot_ts: u64,
    /// Commit records replayed from the log tail.
    pub commits_replayed: u64,
    /// Torn/corrupt trailing bytes discarded (and truncated off the file).
    pub torn_bytes_discarded: u64,
    /// Commit clock after recovery.
    pub commit_ts: u64,
}

/// Metadata of one valid record found by [`scan_wal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecordInfo {
    /// Byte offset of the record's frame header in the file.
    pub offset: u64,
    /// Total framed length (header + payload).
    pub len: u64,
    /// Commit timestamp the record publishes.
    pub commit_ts: u64,
    /// Committing transaction id.
    pub txn: u64,
    /// Number of redo ops in the record.
    pub ops: u32,
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            put_i64(out, *i);
        }
        Value::Float(f) => {
            out.push(2);
            put_u64(out, f.to_bits());
        }
        Value::Str(s) => {
            out.push(3);
            put_str(out, s);
        }
        Value::Bool(b) => {
            out.push(4);
            out.push(*b as u8);
        }
    }
}

/// Bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "unexpected end of data at offset {} (wanted {n} bytes)",
                self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("invalid utf-8 string: {e}"))
    }

    fn value(&mut self) -> Result<Value, String> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Int(self.i64()?),
            2 => Value::Float(f64::from_bits(self.u64()?)),
            3 => Value::Str(self.str()?),
            4 => Value::Bool(self.u8()? != 0),
            tag => return Err(format!("unknown value tag {tag}")),
        })
    }

    fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Frame one commit record: `[u32 payload_len][u64 fnv1a][payload]` with
/// payload `[u64 commit_ts][u64 txn][u32 op_count][ops…]`.
fn encode_record(ts: u64, txn: TxnId, ops: &[WalOp]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(32 + ops.len() * 16);
    put_u64(&mut payload, ts);
    put_u64(&mut payload, txn.0);
    put_u32(&mut payload, ops.len() as u32);
    for op in ops {
        match op {
            WalOp::Create {
                table,
                slot,
                values,
            } => {
                payload.push(0);
                put_u32(&mut payload, *table);
                put_u64(&mut payload, *slot);
                put_u32(&mut payload, values.len() as u32);
                for v in values {
                    put_value(&mut payload, v);
                }
            }
            WalOp::End { table, slot } => {
                payload.push(1);
                put_u32(&mut payload, *table);
                put_u64(&mut payload, *slot);
            }
            WalOp::AutoInc { table, value } => {
                payload.push(2);
                put_u32(&mut payload, *table);
                put_i64(&mut payload, *value);
            }
        }
    }
    let mut out = Vec::with_capacity(REC_HEADER_LEN + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u64(&mut out, fnv1a(&payload));
    out.extend_from_slice(&payload);
    out
}

/// Decode a record payload. Errors mean "treat as torn/corrupt".
fn decode_payload(payload: &[u8]) -> Result<(u64, u64, Vec<WalOp>), String> {
    let mut r = Reader::new(payload);
    let ts = r.u64()?;
    let txn = r.u64()?;
    let n = r.u32()? as usize;
    let mut ops = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        ops.push(match r.u8()? {
            0 => {
                let table = r.u32()?;
                let slot = r.u64()?;
                let ncols = r.u32()? as usize;
                let mut values = Vec::with_capacity(ncols.min(256));
                for _ in 0..ncols {
                    values.push(r.value()?);
                }
                WalOp::Create {
                    table,
                    slot,
                    values,
                }
            }
            1 => WalOp::End {
                table: r.u32()?,
                slot: r.u64()?,
            },
            2 => WalOp::AutoInc {
                table: r.u32()?,
                value: r.i64()?,
            },
            tag => return Err(format!("unknown op tag {tag}")),
        });
    }
    if !r.at_end() {
        return Err("trailing bytes in record payload".into());
    }
    Ok((ts, txn, ops))
}

/// Parse the record starting at `pos`. `None` means the tail from `pos`
/// on is torn or corrupt (short frame, bad checksum, undecodable payload).
fn parse_record_at(bytes: &[u8], pos: usize) -> Option<(WalRecordInfo, Vec<WalOp>)> {
    if bytes.len() - pos < REC_HEADER_LEN {
        return None;
    }
    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
    let checksum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
    let start = pos + REC_HEADER_LEN;
    if bytes.len() - start < len {
        return None;
    }
    let payload = &bytes[start..start + len];
    if fnv1a(payload) != checksum {
        return None;
    }
    let (ts, txn, ops) = decode_payload(payload).ok()?;
    Some((
        WalRecordInfo {
            offset: pos as u64,
            len: (REC_HEADER_LEN + len) as u64,
            commit_ts: ts,
            txn,
            ops: ops.len() as u32,
        },
        ops,
    ))
}

/// Scan a WAL file: validate the header, walk the records, and return the
/// valid ones plus the byte length of the valid prefix. Bytes past the
/// returned length are a torn or corrupt tail.
pub fn scan_wal(path: &Path) -> Result<(Vec<WalRecordInfo>, u64), DbError> {
    let bytes = fs::read(path)?;
    scan_wal_bytes(&bytes)
}

fn scan_wal_bytes(bytes: &[u8]) -> Result<(Vec<WalRecordInfo>, u64), DbError> {
    if bytes.len() < WAL_MAGIC.len() {
        return Err(DbError::WalCorrupt(
            "log file shorter than its header".into(),
        ));
    }
    if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(DbError::WalCorrupt("bad log magic".into()));
    }
    let mut infos = Vec::new();
    let mut pos = WAL_MAGIC.len();
    while let Some((info, _)) = parse_record_at(bytes, pos) {
        pos += info.len as usize;
        infos.push(info);
    }
    Ok((infos, pos as u64))
}

// ---------------------------------------------------------------------------
// The log itself
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct WalInner {
    /// Appended records not yet handed to a flush.
    buf: Vec<u8>,
    /// Commit records currently in `buf` (for the batch-size histogram).
    buf_commits: u64,
    /// Logical log position after the last `append` (monotonic; unlike
    /// the file length, it survives checkpoint truncation).
    appended_lsn: u64,
    /// Logical log position known durable (via fsync or snapshot).
    durable_lsn: u64,
    /// A flush leader is currently writing outside this lock.
    flushing: bool,
    /// Set once a simulated crash (or real I/O error) killed the log;
    /// every later operation fails with this message.
    dead: Option<String>,
}

#[derive(Debug)]
struct WalFile {
    file: File,
    /// Valid byte length of the file (the next flush's write position).
    end: u64,
}

/// A write-ahead log bound to one database. See the module docs for the
/// protocol; created via [`crate::Database::attach_wal`] or
/// [`crate::Database::recover`].
#[derive(Debug)]
pub struct Wal {
    config: WalConfig,
    obs: Obs,
    inner: Mutex<WalInner>,
    /// Signalled whenever `durable_lsn`, `flushing`, or `dead` changes.
    flushed: Condvar,
    io: Mutex<WalFile>,
}

impl Wal {
    /// Open (or create) the log under `config.dir`, repairing a torn tail
    /// left by a previous crash so appends start at a valid boundary.
    pub(crate) fn open(config: WalConfig, obs: Obs) -> Result<Self, DbError> {
        fs::create_dir_all(&config.dir)?;
        let path = config.log_path();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let len = file.metadata()?.len();
        let end = if len == 0 {
            file.write_all(WAL_MAGIC)?;
            file.sync_data()?;
            WAL_HEADER_LEN
        } else {
            let (_, valid) = scan_wal(&path)?;
            if valid < len {
                file.set_len(valid)?;
                file.sync_data()?;
            }
            valid
        };
        Ok(Wal {
            config,
            obs,
            inner: Mutex::new(WalInner {
                buf: Vec::new(),
                buf_commits: 0,
                appended_lsn: end,
                durable_lsn: end,
                flushing: false,
                dead: None,
            }),
            flushed: Condvar::new(),
            io: Mutex::new(WalFile { file, end }),
        })
    }

    /// The configuration this log was opened with.
    pub fn config(&self) -> &WalConfig {
        &self.config
    }

    /// Whether a simulated crash (or real I/O failure) killed the log.
    pub fn is_dead(&self) -> bool {
        self.inner.lock().dead.is_some()
    }

    /// Bytes of record data currently in the log file (excluding the
    /// header). Drives log-size-triggered auto-checkpointing.
    pub(crate) fn log_bytes(&self) -> u64 {
        self.io.lock().end - WAL_HEADER_LEN
    }

    fn dead_err(msg: &str) -> DbError {
        DbError::Io(msg.to_string())
    }

    /// Append one commit record. Called inside the commit critical
    /// section, so append order is commit order. Returns the record's end
    /// LSN to pass to `Wal::sync_to`.
    pub(crate) fn append(
        &self,
        session: u64,
        ts: u64,
        txn: TxnId,
        ops: &[WalOp],
        faults: &FaultHandle,
    ) -> Result<u64, DbError> {
        let record = encode_record(ts, txn, ops);
        let mut g = self.inner.lock();
        if let Some(msg) = &g.dead {
            return Err(Self::dead_err(msg));
        }
        if faults.next_crash(CrashPoint::WalAppend) {
            // A kill mid-append leaves everything previously buffered plus
            // a torn prefix of this record on the device.
            loop {
                if let Some(msg) = &g.dead {
                    return Err(Self::dead_err(msg));
                }
                if !g.flushing {
                    break;
                }
                self.flushed.wait(&mut g);
            }
            let mut torn = std::mem::take(&mut g.buf);
            g.buf_commits = 0;
            torn.extend_from_slice(&record[..record.len() / 2]);
            let _ = self.write_raw(&torn);
            let msg = "simulated kill at wal-append (torn log tail)".to_string();
            g.dead = Some(msg.clone());
            self.flushed.notify_all();
            return Err(DbError::Io(msg));
        }
        self.obs.wal_append(session, record.len() as u64);
        g.buf.extend_from_slice(&record);
        g.buf_commits += 1;
        g.appended_lsn += record.len() as u64;
        Ok(g.appended_lsn)
    }

    /// Wait until everything up to `lsn` is durable, becoming the group
    /// flush leader if no flush is in flight. Called *outside* the commit
    /// critical section, so sessions park here concurrently and one fsync
    /// covers the whole batch.
    pub(crate) fn sync_to(
        &self,
        lsn: u64,
        session: u64,
        faults: &FaultHandle,
    ) -> Result<(), DbError> {
        let mut g = self.inner.lock();
        loop {
            if let Some(msg) = &g.dead {
                return Err(Self::dead_err(msg));
            }
            if g.durable_lsn >= lsn {
                return Ok(());
            }
            if g.flushing {
                self.flushed.wait(&mut g);
                continue;
            }
            // Become the leader: take the batch, flush outside the lock.
            g.flushing = true;
            let bytes = std::mem::take(&mut g.buf);
            let commits = std::mem::replace(&mut g.buf_commits, 0);
            let target = g.appended_lsn;
            drop(g);
            let res = self.write_batch(&bytes, faults);
            g = self.inner.lock();
            g.flushing = false;
            match res {
                Ok(()) => {
                    g.durable_lsn = g.durable_lsn.max(target);
                    self.obs.wal_fsync(session, commits);
                }
                Err(e) => {
                    g.dead = Some(death_msg(&e));
                }
            }
            self.flushed.notify_all();
        }
    }

    /// Write + fsync a batch at the file's valid end, honouring the
    /// pre-fsync and post-fsync crash points.
    fn write_batch(&self, bytes: &[u8], faults: &FaultHandle) -> Result<(), DbError> {
        let mut f = self.io.lock();
        let base = f.end;
        f.file.seek(SeekFrom::Start(base))?;
        f.file.write_all(bytes)?;
        if faults.next_crash(CrashPoint::PreFsync) {
            // Killed before fsync: the written-but-unsynced batch never
            // survives. Model that by truncating it back off.
            f.file.set_len(base)?;
            f.file.sync_data()?;
            return Err(DbError::Io(
                "simulated kill at pre-fsync (batch lost)".into(),
            ));
        }
        f.file.sync_data()?;
        self.simulate_fsync_cost();
        f.end = base + bytes.len() as u64;
        if faults.next_crash(CrashPoint::PostFsync) {
            // Killed after fsync: the batch is durable but the committing
            // sessions never see the acknowledgement.
            return Err(DbError::Io(
                "simulated kill at post-fsync (batch durable, ack lost)".into(),
            ));
        }
        Ok(())
    }

    /// Raw write + fsync at the file end (torn-tail crash path; errors are
    /// ignored because the log is about to be declared dead anyway).
    fn write_raw(&self, bytes: &[u8]) -> std::io::Result<()> {
        let mut f = self.io.lock();
        let base = f.end;
        f.file.seek(SeekFrom::Start(base))?;
        f.file.write_all(bytes)?;
        f.file.sync_data()?;
        f.end = base + bytes.len() as u64;
        Ok(())
    }

    fn simulate_fsync_cost(&self) {
        if let Some(delay) = self.config.fsync_delay {
            let start = Instant::now();
            while start.elapsed() < delay {
                std::hint::spin_loop();
            }
        }
    }

    /// Install a snapshot and truncate the log. The caller holds the
    /// commit critical section, so no appends race; any in-flight flush
    /// is waited out first. Buffered-but-unflushed commits are covered by
    /// the snapshot (their effects are in storage), so their `sync_to`
    /// waiters complete via the advanced `durable_lsn`.
    pub(crate) fn checkpoint(&self, snapshot: &[u8], faults: &FaultHandle) -> Result<(), DbError> {
        let mut g = self.inner.lock();
        loop {
            if let Some(msg) = &g.dead {
                return Err(Self::dead_err(msg));
            }
            if !g.flushing {
                break;
            }
            self.flushed.wait(&mut g);
        }
        let tmp = self.config.snapshot_tmp_path();
        if faults.next_crash(CrashPoint::MidCheckpoint) {
            // Killed mid-write: a partial temp file is left behind; the
            // previous snapshot and the full log stay intact, so recovery
            // ignores the debris.
            let _ = fs::write(&tmp, &snapshot[..snapshot.len() / 2]);
            let msg = "simulated kill at mid-checkpoint (partial snapshot temp file)".to_string();
            g.dead = Some(msg.clone());
            self.flushed.notify_all();
            return Err(DbError::Io(msg));
        }
        let mut f = File::create(&tmp)?;
        f.write_all(snapshot)?;
        f.sync_data()?;
        drop(f);
        fs::rename(&tmp, self.config.snapshot_path())?;
        {
            let mut io = self.io.lock();
            io.file.set_len(WAL_HEADER_LEN)?;
            io.file.sync_data()?;
            io.end = WAL_HEADER_LEN;
        }
        g.buf.clear();
        g.buf_commits = 0;
        g.durable_lsn = g.appended_lsn;
        self.flushed.notify_all();
        Ok(())
    }
}

fn death_msg(e: &DbError) -> String {
    match e {
        DbError::Io(m) => m.clone(),
        other => other.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Snapshot + recovery
// ---------------------------------------------------------------------------

/// Serialize the committed state of every table. Called with the commit
/// critical section held, so the committed state is a consistent cut at
/// `ts`; uncommitted versions (and uncommitted enders) are skipped — if
/// their transactions later commit, their redo records land in the WAL
/// after the snapshot and replay on top of it.
pub(crate) fn encode_snapshot(storage: &Storage, ts: u64) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(SNAP_MAGIC);
    put_u64(&mut out, ts);
    put_u32(&mut out, storage.table_count() as u32);
    for idx in 0..storage.table_count() {
        let t = storage.read(idx);
        put_str(&mut out, &t.name);
        put_i64(&mut out, t.auto_counter);
        put_u64(&mut out, t.rows.len() as u64);
        for slot in &t.rows {
            let committed: Vec<&RowVersion> = slot
                .versions
                .iter()
                .filter(|v| v.begin_ts().is_some())
                .collect();
            put_u32(&mut out, committed.len() as u32);
            for v in committed {
                put_u64(&mut out, v.begin_ts().expect("filtered on begin_ts"));
                match v.end_ts() {
                    Some(e) => {
                        out.push(1);
                        put_u64(&mut out, e);
                    }
                    None => out.push(0),
                }
                put_u32(&mut out, v.values.len() as u32);
                for val in &v.values {
                    put_value(&mut out, val);
                }
            }
        }
    }
    out
}

fn snap_err(msg: impl std::fmt::Display) -> DbError {
    DbError::WalCorrupt(format!("snapshot: {msg}"))
}

/// Replace storage contents with the snapshot's. Returns the snapshot's
/// commit timestamp.
fn install_snapshot_into(storage: &Storage, bytes: &[u8]) -> Result<u64, DbError> {
    let mut r = Reader::new(bytes);
    if r.take(SNAP_MAGIC.len()).map_err(snap_err)? != SNAP_MAGIC {
        return Err(snap_err("bad magic"));
    }
    let ts = r.u64().map_err(snap_err)?;
    let n = r.u32().map_err(snap_err)? as usize;
    if n != storage.table_count() {
        return Err(snap_err(format!(
            "table count {n} does not match schema ({})",
            storage.table_count()
        )));
    }
    for _ in 0..n {
        let name = r.str().map_err(snap_err)?;
        let idx = storage
            .table_index(&name)
            .ok_or_else(|| snap_err(format!("unknown table {name:?}")))?;
        let auto = r.i64().map_err(snap_err)?;
        let nslots = r.u64().map_err(snap_err)? as usize;
        let mut guard = storage.write(idx);
        let mut indexes = TableIndexes::new(guard.indexes.indexed_columns().to_vec());
        let mut rows = Vec::with_capacity(nslots.min(1 << 20));
        for slot_idx in 0..nslots {
            let nversions = r.u32().map_err(snap_err)? as usize;
            let mut slot = RowSlot::default();
            for _ in 0..nversions {
                let begin = r.u64().map_err(snap_err)?;
                let end = match r.u8().map_err(snap_err)? {
                    0 => None,
                    _ => Some(r.u64().map_err(snap_err)?),
                };
                let ncols = r.u32().map_err(snap_err)? as usize;
                let mut values = Vec::with_capacity(ncols.min(256));
                for _ in 0..ncols {
                    values.push(r.value().map_err(snap_err)?);
                }
                indexes.add(slot_idx, &values);
                let version = RowVersion::committed(values, begin);
                if let Some(e) = end {
                    version.stamp_end(e);
                }
                slot.versions.push(version);
            }
            rows.push(slot);
        }
        guard.rows = rows;
        guard.indexes = indexes;
        guard.auto_counter = auto;
    }
    if !r.at_end() {
        return Err(snap_err("trailing bytes"));
    }
    Ok(ts)
}

/// Apply one commit record's redo ops. Within a record, ops appear in
/// execution order (updates log `End` before `Create`), so "the newest
/// open version" is always the right `End` target.
fn replay_record(storage: &Storage, ts: u64, ops: &[WalOp]) -> Result<(), DbError> {
    for op in ops {
        match op {
            WalOp::Create {
                table,
                slot,
                values,
            } => {
                let idx = *table as usize;
                if idx >= storage.table_count() {
                    return Err(DbError::WalCorrupt(format!("CREATE names table {idx}")));
                }
                let mut guard = storage.write(idx);
                let slot = *slot as usize;
                // Gap slots are inserts that rolled back before this
                // commit: materialize them empty so slot indices line up.
                while guard.rows.len() <= slot {
                    guard.rows.push(RowSlot::default());
                }
                let data = &mut *guard;
                data.indexes.add(slot, values);
                data.rows[slot]
                    .versions
                    .push(RowVersion::committed(values.clone(), ts));
            }
            WalOp::End { table, slot } => {
                let idx = *table as usize;
                if idx >= storage.table_count() {
                    return Err(DbError::WalCorrupt(format!("END names table {idx}")));
                }
                let mut guard = storage.write(idx);
                let slot = *slot as usize;
                let open = guard
                    .rows
                    .get_mut(slot)
                    .and_then(|s| s.versions.iter_mut().rev().find(|v| v.is_open()))
                    .ok_or_else(|| {
                        DbError::WalCorrupt(format!("END op found no open version in slot {slot}"))
                    })?;
                open.stamp_end(ts);
            }
            WalOp::AutoInc { table, value } => {
                let idx = *table as usize;
                if idx >= storage.table_count() {
                    return Err(DbError::WalCorrupt(format!("AUTOINC names table {idx}")));
                }
                storage.write(idx).auto_counter = *value;
            }
        }
    }
    Ok(())
}

/// ARIES-lite restart: install the snapshot (if any), replay the log tail,
/// repair a torn tail, and advance the commit clock. The storage must be
/// in the same state the crashed engine started from (same schema, same
/// seeded fixtures) — the snapshot replaces table contents wholesale, but
/// without one the log replays on top of the seeded state.
pub(crate) fn recover_into(storage: &Storage, config: &WalConfig) -> Result<RecoveryInfo, DbError> {
    let mut snapshot_ts = 0;
    let snap_path = config.snapshot_path();
    if snap_path.exists() {
        let bytes = fs::read(&snap_path)?;
        snapshot_ts = install_snapshot_into(storage, &bytes)?;
    }
    let mut info = RecoveryInfo {
        snapshot_ts,
        commits_replayed: 0,
        torn_bytes_discarded: 0,
        commit_ts: snapshot_ts,
    };
    let log_path = config.log_path();
    if log_path.exists() {
        let bytes = fs::read(&log_path)?;
        if !bytes.is_empty() {
            if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
                return Err(DbError::WalCorrupt("bad log magic".into()));
            }
            let mut pos = WAL_MAGIC.len();
            let mut prev_ts = 0;
            while let Some((rec, ops)) = parse_record_at(&bytes, pos) {
                pos += rec.len as usize;
                if rec.commit_ts <= prev_ts {
                    return Err(DbError::WalCorrupt(format!(
                        "non-monotonic commit timestamp {} after {prev_ts}",
                        rec.commit_ts
                    )));
                }
                prev_ts = rec.commit_ts;
                // Records at or below the snapshot bound are pre-checkpoint
                // leftovers (a crash can land between the snapshot rename
                // and the log truncation); their effects are already in
                // the snapshot.
                if rec.commit_ts > snapshot_ts {
                    replay_record(storage, rec.commit_ts, &ops)?;
                    info.commits_replayed += 1;
                    info.commit_ts = rec.commit_ts;
                }
            }
            if (pos as u64) < bytes.len() as u64 {
                info.torn_bytes_discarded = bytes.len() as u64 - pos as u64;
                let f = OpenOptions::new().write(true).open(&log_path)?;
                f.set_len(pos as u64)?;
                f.sync_data()?;
            }
        }
    }
    storage.set_commit_ts(info.commit_ts);
    Ok(info)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops_sample() -> Vec<WalOp> {
        vec![
            WalOp::End { table: 1, slot: 4 },
            WalOp::Create {
                table: 1,
                slot: 4,
                values: vec![
                    Value::Int(-7),
                    Value::Str("John's".into()),
                    Value::Float(2.5),
                    Value::Bool(true),
                    Value::Null,
                ],
            },
            WalOp::AutoInc { table: 1, value: 9 },
        ]
    }

    #[test]
    fn record_roundtrips_through_codec() {
        let ops = ops_sample();
        let rec = encode_record(42, TxnId(7), &ops);
        let (info, decoded) = parse_record_at(&rec, 0).expect("valid record");
        assert_eq!(info.commit_ts, 42);
        assert_eq!(info.txn, 7);
        assert_eq!(info.len, rec.len() as u64);
        assert_eq!(decoded, ops);
    }

    #[test]
    fn torn_and_corrupt_tails_are_rejected() {
        let rec = encode_record(1, TxnId(1), &ops_sample());
        // Truncation at every byte boundary short of the full record.
        for cut in 0..rec.len() {
            assert!(
                parse_record_at(&rec[..cut], 0).is_none(),
                "cut at {cut} parsed"
            );
        }
        // A flipped payload byte fails the checksum.
        let mut bad = rec.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(parse_record_at(&bad, 0).is_none());
    }

    #[test]
    fn scan_stops_at_first_invalid_record() {
        let mut bytes = WAL_MAGIC.to_vec();
        let r1 = encode_record(1, TxnId(1), &ops_sample());
        let r2 = encode_record(2, TxnId(2), &ops_sample());
        bytes.extend_from_slice(&r1);
        bytes.extend_from_slice(&r2);
        bytes.extend_from_slice(&r2[..r2.len() / 2]); // torn third record
        let (infos, valid) = scan_wal_bytes(&bytes).unwrap();
        assert_eq!(infos.len(), 2);
        assert_eq!(valid, (WAL_MAGIC.len() + r1.len() + r2.len()) as u64);
        assert_eq!(infos[1].offset, (WAL_MAGIC.len() + r1.len()) as u64);
    }

    #[test]
    fn fnv1a_is_stable() {
        // Pinned so the on-disk format cannot silently change.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
