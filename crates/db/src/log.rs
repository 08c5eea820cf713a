//! The general query log — the artifact 2AD analyzes.
//!
//! Every executed statement is appended with its session and API-call
//! tags. The paper (§3.1.1) requires each logged command to be
//! attributable to the API call that generated it; real deployments match
//! timestamps, while our connections carry the tag explicitly.
//!
//! Under fault injection the log also records *failed* attempts: each
//! entry carries a [`StmtOutcome`] so trace lifting can skip statements
//! whose effects never existed and discard transactions the database
//! rolled back. Lock-wait retries ([`crate::DbError::WouldBlock`]) are
//! not logged — the statement had no effects and is re-issued verbatim.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use acidrain_obs::Obs;
use parking_lot::Mutex;

use crate::latch_order::{self, LatchRank};

/// Identifies one invocation of one application API endpoint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ApiTag {
    /// Endpoint name, e.g. `"checkout"`.
    pub name: String,
    /// Invocation counter distinguishing repeated calls to the same
    /// endpoint.
    pub invocation: u64,
}

/// How a logged statement ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StmtOutcome {
    /// The statement executed; its effects are part of the transaction.
    #[default]
    Ok,
    /// The statement failed but the surrounding transaction survived
    /// (statement-level error under MySQL semantics). Its effects never
    /// existed.
    Failed,
    /// The statement failed *and* the database rolled the whole
    /// transaction back (deadlock victim, serialization failure,
    /// lock-wait timeout, dropped connection). Everything the
    /// transaction did is gone.
    Aborted,
}

impl StmtOutcome {
    /// Whether the statement's effects are (potentially) durable.
    pub fn succeeded(self) -> bool {
        matches!(self, StmtOutcome::Ok)
    }

    /// The `!token` used in the textual log format, if any.
    pub fn marker(self) -> Option<&'static str> {
        match self {
            StmtOutcome::Ok => None,
            StmtOutcome::Failed => Some("!failed"),
            StmtOutcome::Aborted => Some("!aborted"),
        }
    }
}

/// One line of the general query log.
///
/// 48 bytes: the tag is shared by every statement of one API call (one
/// `Arc` per [`crate::Connection::set_api`], a reference count per
/// statement), and the text is a boxed `str`, which carries no capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Global sequence number (log position).
    pub seq: u64,
    /// Session (connection) that issued the statement.
    pub session: u64,
    /// API call the statement belongs to, if the connection was tagged.
    pub api: Option<Arc<ApiTag>>,
    /// The statement as issued.
    pub sql: Box<str>,
    /// How the statement ended.
    pub outcome: StmtOutcome,
}

impl fmt::Display for LogEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let marker = self
            .outcome
            .marker()
            .map(|m| format!(" {m}"))
            .unwrap_or_default();
        match &self.api {
            Some(tag) => write!(
                f,
                "{:>5} [s{} {}#{}{marker}] {}",
                self.seq, self.session, tag.name, tag.invocation, self.sql
            ),
            None => write!(
                f,
                "{:>5} [s{}{marker}] {}",
                self.seq, self.session, self.sql
            ),
        }
    }
}

/// Number of independent append shards. Sessions hash onto shards, so
/// concurrent appends from different sessions rarely contend on the same
/// mutex.
const LOG_SHARDS: usize = 16;

/// Entries per shard chunk (48 KiB of [`LogEntry`]).
const LOG_CHUNK: usize = 1024;

/// One shard's entries in append order, in chunks of [`LOG_CHUNK`]. A
/// full chunk is never moved, so past its first chunk an append costs at
/// most one fresh fixed-size allocation — never a copy of the shard under
/// its mutex — and a long log holds no slack beyond its last chunk, where
/// a doubling vector keeps up to half its capacity unused (and briefly
/// both buffers while it grows). The first chunk grows by doubling, so a
/// short log (a scenario's store, a test's) stays small.
type Shard = Vec<Vec<LogEntry>>;

/// The append-only query log.
///
/// Sharded so that appending is not a global serialization point: a global
/// `AtomicU64` hands out sequence numbers while the entry itself lands in a
/// per-session-hash shard. [`QueryLog::entries`] merges the shards back
/// into the deterministic sequence order that trace lifting expects.
#[derive(Debug)]
pub struct QueryLog {
    next_seq: AtomicU64,
    shards: Vec<Mutex<Shard>>,
    /// Observability handle; counts appends (the `log_appends` counter)
    /// without touching the entries themselves.
    obs: Obs,
}

impl Default for QueryLog {
    fn default() -> Self {
        QueryLog::with_obs(Obs::default())
    }
}

impl QueryLog {
    /// A log that reports appends to `obs` (the owning database's
    /// registry).
    pub fn with_obs(obs: Obs) -> Self {
        QueryLog {
            next_seq: AtomicU64::new(0),
            shards: (0..LOG_SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            obs,
        }
    }

    /// Append a successful statement to the log.
    pub fn append(&self, session: u64, api: Option<Arc<ApiTag>>, sql: impl Into<Box<str>>) {
        self.append_with(session, api, sql, StmtOutcome::Ok);
    }

    /// Append a statement with an explicit outcome.
    pub fn append_with(
        &self,
        session: u64,
        api: Option<Arc<ApiTag>>,
        sql: impl Into<Box<str>>,
        outcome: StmtOutcome,
    ) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let entry = LogEntry {
            seq,
            session,
            api,
            sql: sql.into(),
            outcome,
        };
        let shard = session as usize % LOG_SHARDS;
        {
            let _order = latch_order::acquired(LatchRank::LogShard, Some(shard));
            let mut chunks = self.shards[shard].lock();
            match chunks.last_mut() {
                Some(chunk) if chunk.len() < LOG_CHUNK => chunk.push(entry),
                Some(_) => {
                    let mut chunk = Vec::with_capacity(LOG_CHUNK);
                    chunk.push(entry);
                    chunks.push(chunk);
                }
                None => chunks.push(vec![entry]),
            }
        }
        self.obs.log_append(session);
    }

    /// All entries merged across shards in global sequence order.
    pub fn entries(&self) -> Vec<LogEntry> {
        let mut all = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            let _order = latch_order::acquired(LatchRank::LogShard, Some(i));
            for chunk in shard.lock().iter() {
                all.extend_from_slice(chunk);
            }
        }
        all.sort_by_key(|e| e.seq);
        all
    }

    /// Number of logged statements.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let _order = latch_order::acquired(LatchRank::LogShard, Some(i));
                shard.lock().iter().map(Vec::len).sum::<usize>()
            })
            .sum()
    }

    /// Whether the log has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove and return all entries in sequence order. Holds every shard
    /// lock for the duration so the drain is atomic with respect to
    /// landed appends.
    ///
    /// The sequence counter is deliberately *not* reset: an append racing
    /// the drain may have drawn its number before the shard locks were
    /// taken and push after they drop, and a reset would let post-drain
    /// sequence numbers collide with (and sort before) that straggler.
    /// Never reusing numbers keeps every snapshot's merge order correct.
    pub fn take(&self) -> Vec<LogEntry> {
        // Shard locks are collected in ascending index order (latch
        // hierarchy: same-rank latches must ascend).
        let mut guards: Vec<_> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let order = latch_order::acquired(LatchRank::LogShard, Some(i));
                (order, shard.lock())
            })
            .collect();
        let total = guards
            .iter()
            .flat_map(|(_, chunks)| chunks.iter())
            .map(Vec::len)
            .sum();
        let mut all = Vec::with_capacity(total);
        for (_, chunks) in &mut guards {
            for chunk in std::mem::take(&mut **chunks) {
                all.extend(chunk);
            }
        }
        all.sort_by_key(|e| e.seq);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, IsolationLevel};
    use acidrain_sql::{ColumnDef, ColumnType, Schema, TableSchema};

    fn tag(name: &str, invocation: u64) -> Option<Arc<ApiTag>> {
        Some(Arc::new(ApiTag {
            name: name.into(),
            invocation,
        }))
    }

    #[test]
    fn append_assigns_sequence_numbers() {
        let log = QueryLog::default();
        log.append(1, None, "BEGIN");
        log.append(2, tag("checkout", 3), "COMMIT");
        assert_eq!(log.len(), 2);
        assert_eq!(log.entries()[0].seq, 0);
        assert_eq!(log.entries()[1].seq, 1);
        assert_eq!(log.entries()[1].api.as_ref().unwrap().name, "checkout");
        assert_eq!(log.entries()[0].outcome, StmtOutcome::Ok);
    }

    #[test]
    fn display_formats_tags() {
        let log = QueryLog::default();
        log.append(4, tag("add_to_cart", 0), "SELECT 1");
        let line = log.entries()[0].to_string();
        assert!(line.contains("s4"));
        assert!(line.contains("add_to_cart#0"));
        assert!(line.ends_with("SELECT 1"));
    }

    #[test]
    fn display_marks_failed_outcomes() {
        let log = QueryLog::default();
        log.append_with(1, None, "UPDATE t SET v = 1", StmtOutcome::Aborted);
        log.append_with(2, tag("checkout", 0), "SELECT 1", StmtOutcome::Failed);
        assert!(log.entries()[0].to_string().contains("!aborted"));
        assert!(log.entries()[1].to_string().contains("!failed"));
    }

    #[test]
    fn take_drains() {
        let log = QueryLog::default();
        log.append(1, None, "COMMIT");
        let taken = log.take();
        assert_eq!(taken.len(), 1);
        assert!(log.is_empty());
    }

    #[test]
    fn take_never_reuses_sequence_numbers() {
        let log = QueryLog::default();
        log.append(1, None, "BEGIN");
        log.append(2, None, "COMMIT");
        assert_eq!(log.take().len(), 2);
        // Post-drain appends continue the sequence: a straggling append
        // that drew its number before the drain can never collide with or
        // sort after fresher entries.
        log.append(1, None, "SELECT 1");
        assert_eq!(log.entries()[0].seq, 2);
    }

    #[test]
    fn chunked_shards_merge_in_sequence_order() {
        // Three sessions, three shards, each past two full chunks.
        let per_session = 2 * LOG_CHUNK + LOG_CHUNK / 2;
        let log = QueryLog::default();
        let tags: Vec<_> = (0..3).map(|s| tag("checkout", s)).collect();
        let expected = |seq: usize| {
            let session = (seq % 3) as u64 + 1;
            (seq as u64, session, format!("UPDATE t SET v = {seq}"))
        };
        let append_all = |range: std::ops::Range<usize>| {
            for seq in range {
                let (_, session, sql) = expected(seq);
                log.append(session, tags[session as usize - 1].clone(), sql);
            }
        };
        let check = |entries: &[LogEntry], first: usize| {
            assert_eq!(entries.len(), 3 * per_session);
            for (i, e) in entries.iter().enumerate() {
                let (seq, session, sql) = expected(first + i);
                assert_eq!((e.seq, e.session, &*e.sql), (seq, session, sql.as_str()));
                assert_eq!(e.api, tags[session as usize - 1]);
            }
        };

        append_all(0..3 * per_session);
        assert_eq!(log.len(), 3 * per_session);
        check(&log.entries(), 0);
        check(&log.take(), 0);
        assert!(log.is_empty());

        append_all(3 * per_session..6 * per_session);
        check(&log.entries(), 3 * per_session);
        check(&log.take(), 3 * per_session);
    }

    #[test]
    fn an_entry_is_48_bytes() {
        assert!(std::mem::size_of::<LogEntry>() <= 48);
    }

    #[test]
    fn one_api_call_shares_one_tag_and_prints_as_before() {
        let schema = Schema::new().with_table(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::Int).auto_increment(),
                ColumnDef::new("v", ColumnType::Int),
            ],
        ));
        let db = Database::new(schema, IsolationLevel::ReadCommitted);
        let mut c = db.connect();
        c.set_api("checkout", 0);
        for sql in ["BEGIN", "SELECT v FROM t WHERE id = 1", "COMMIT"] {
            c.execute(sql).unwrap();
        }
        c.clear_api();
        c.execute("SELECT v FROM t").unwrap();
        c.set_api("checkout", 1);
        c.execute("UPDATE t SET v = 1 WHERE id = 1").unwrap();
        let log = db.take_log();

        let first = log[0].api.as_ref().unwrap();
        assert!(log[1..3]
            .iter()
            .all(|e| Arc::ptr_eq(e.api.as_ref().unwrap(), first)));
        assert!(log[3].api.is_none());
        assert!(!Arc::ptr_eq(log[4].api.as_ref().unwrap(), first));

        let lines: Vec<String> = log.iter().map(|e| e.to_string()).collect();
        assert_eq!(
            lines,
            [
                "    0 [s1 checkout#0] BEGIN",
                "    1 [s1 checkout#0] SELECT v FROM t WHERE id = 1",
                "    2 [s1 checkout#0] COMMIT",
                "    3 [s1] SELECT v FROM t",
                "    4 [s1 checkout#1] UPDATE t SET v = 1 WHERE id = 1",
            ]
        );
    }
}
