//! `engine_durable`: explicit transactions on rows disjoint by session
//! with a write-ahead log attached — group commit, real `sync_data`,
//! automatic checkpoints off and one explicit checkpoint at each
//! repetition's midpoint. After every repetition the store is dropped and
//! recovered into a fresh engine under a clock.
//!
//! Every flush also waits out [`DEVICE_FLUSH`], the WAL's simulated device
//! latency. The sandbox's own fsync is cheap and drifts: the same commit
//! and seed gave 7274 and then 10712 transactions a second ten minutes
//! apart, which no bound the benchmark may set would survive. With a
//! fixed millisecond on top, that drift is under a tenth of a flush, and
//! what moves the numbers is what the log does: how many flushes it
//! issues and how many commits share one. They are a model device's
//! numbers, not this sandbox's and not a real disk's.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use acidrain_apps::SqlConn;
use acidrain_db::{
    CrashPoint, CrashSpec, Database, FaultConfig, IsolationLevel, LogEntry, Value, WalConfig,
};
use acidrain_sql::schema::{ColumnDef, ColumnType, Schema, TableSchema};

use crate::ops::{durable_ops, DurableOp, LEDGER_ROWS};
use crate::probes;
use crate::run::{clients, Layers, Rep, Workload};
use crate::shop::CLIENTS;
use crate::stats::Samples;
use crate::trace::{Recorder, TimingConn, Trace};

/// Simulated device flush latency, spin-waited by the WAL after each real
/// `sync_data`.
pub const DEVICE_FLUSH: Duration = Duration::from_millis(1);

fn wal_config(dir: &Path) -> WalConfig {
    WalConfig::new(dir).with_fsync_delay(DEVICE_FLUSH)
}

/// Group-commit flushes before the injected crash of the crash pass.
const CRASH_AT_FSYNC: u64 = 40;

pub struct Durable {
    seed: u64,
    ops_per_client: usize,
    warmup_per_client: usize,
    /// Where write-ahead logs go; one fresh directory per repetition.
    scratch: PathBuf,
    streams: Vec<Vec<DurableOp>>,
    log: Vec<LogEntry>,
    stmt_us_mean: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// WAL attached, checkpoint at the midpoint, recovery afterwards.
    Durable,
    /// The same stream with no WAL: what attaching one costs.
    NoWal,
    /// WAL attached and killed before an fsync returns.
    Crash,
}

struct ClientResult {
    latency: Samples,
    finished: Instant,
    /// Journal keys of the transactions whose COMMIT was acknowledged.
    acknowledged: Vec<i64>,
    failed: u64,
    checkpoint_ms: Option<f64>,
    trace: Trace,
}

struct Ran {
    rep: Rep,
    log: Vec<LogEntry>,
    stmt_us_mean: f64,
    commit_us_mean: f64,
}

fn ledger() -> Arc<Database> {
    let schema = Schema::new()
        .with_table(TableSchema::new(
            "ledger",
            vec![
                ColumnDef::new("id", ColumnType::Int).unique(),
                ColumnDef::new("balance", ColumnType::Int),
            ],
        ))
        .with_table(TableSchema::new(
            "journal",
            vec![
                ColumnDef::new("id", ColumnType::Int).unique(),
                ColumnDef::new("ledger_id", ColumnType::Int),
                ColumnDef::new("amount", ColumnType::Int),
            ],
        ));
    let db = Database::new(schema, IsolationLevel::ReadCommitted);
    db.seed(
        "ledger",
        (1..=LEDGER_ROWS)
            .map(|id| vec![Value::Int(id), Value::Int(0)])
            .collect(),
    )
    .expect("seed ledger");
    db
}

/// Sorted rows of both tables: two stores with equal digests hold the
/// same committed state.
fn digest(db: &Database) -> Vec<String> {
    let mut rows: Vec<String> = ["ledger", "journal"]
        .iter()
        .flat_map(|t| {
            db.table_rows(t)
                .expect("schema table")
                .into_iter()
                .map(move |row| format!("{t}{row:?}"))
        })
        .collect();
    rows.sort_unstable();
    rows
}

/// Unique journal key of client `client`'s `i`-th transaction.
fn journal_key(client: usize, i: usize) -> i64 {
    (client * 1_000_000_000 + i + 1) as i64
}

/// One transaction. `Ok` means the COMMIT was acknowledged.
fn transact(conn: &mut impl SqlConn, key: i64, op: &DurableOp) -> Result<(), acidrain_db::DbError> {
    conn.exec("BEGIN")?;
    conn.exec(&format!(
        "UPDATE ledger SET balance = balance + {} WHERE id = {}",
        op.amount, op.id
    ))?;
    conn.exec(&format!(
        "INSERT INTO journal (id, ledger_id, amount) VALUES ({key}, {}, {})",
        op.id, op.amount
    ))?;
    conn.exec("COMMIT")?;
    Ok(())
}

impl Durable {
    pub fn new(seed: u64, ops_per_client: usize, warmup_per_client: usize, scratch: &Path) -> Self {
        Durable {
            seed,
            ops_per_client,
            warmup_per_client,
            scratch: scratch.to_path_buf(),
            streams: (0..CLIENTS)
                .map(|c| durable_ops(seed, c, CLIENTS, warmup_per_client + ops_per_client))
                .collect(),
            log: Vec::new(),
            stmt_us_mean: 0.0,
        }
    }

    fn wal_dir(&self) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        self.scratch.join(format!("wal-{}-{n}", std::process::id()))
    }

    fn run(&self, mode: Mode, traced: bool) -> Ran {
        let origin = Instant::now();
        let db = ledger();
        let dir = self.wal_dir();
        if mode != Mode::NoWal {
            db.attach_wal(wal_config(&dir)).expect("attach WAL");
        }
        let warmup = self.warmup_per_client;
        let at_line = || {
            if traced {
                db.enable_metrics();
            }
            if mode == Mode::Crash {
                db.enable_faults(
                    FaultConfig::seeded(self.seed)
                        .with_crash(CrashSpec::new(CrashPoint::PreFsync, CRASH_AT_FSYNC)),
                );
            }
        };
        let (t0, results) = clients(CLIENTS, at_line, |c, line| {
            let ops = &self.streams[c];
            let recorder = Recorder::shared(origin);
            let mut conn = TimingConn::new(db.connect(), Rc::clone(&recorder));
            let mut out = ClientResult {
                latency: Samples::with_capacity(ops.len() - warmup),
                finished: origin,
                acknowledged: Vec::with_capacity(ops.len()),
                failed: 0,
                checkpoint_ms: None,
                trace: Trace::default(),
            };
            for (i, op) in ops[..warmup].iter().enumerate() {
                let key = journal_key(c, i);
                if transact(&mut conn, key, op).is_ok() {
                    out.acknowledged.push(key);
                }
            }
            if traced {
                recorder.borrow_mut().start();
            }
            line.wait();
            line.wait();
            let measured = &ops[warmup..];
            for (i, op) in measured.iter().enumerate() {
                if c == 0 && i == measured.len() / 2 && mode == Mode::Durable {
                    let start = Instant::now();
                    db.checkpoint().expect("checkpoint");
                    out.checkpoint_ms = Some(start.elapsed().as_secs_f64() * 1e3);
                }
                let key = journal_key(c, warmup + i);
                let start = Instant::now();
                recorder.borrow_mut().begin_op((i * CLIENTS + c) as u64);
                let result = transact(&mut conn, key, op);
                recorder.borrow_mut().end_op("durable.txn");
                match result {
                    Ok(()) => {
                        out.latency.push(start.elapsed().as_nanos() as u64);
                        out.acknowledged.push(key);
                    }
                    Err(_) => {
                        out.failed += 1;
                        if mode == Mode::Crash {
                            // The log is dead; so is this client.
                            break;
                        }
                    }
                }
            }
            out.finished = Instant::now();
            out.trace = recorder.borrow_mut().take();
            out
        });

        let mut rep = Rep {
            setup_s: (t0 - origin).as_secs_f64(),
            attempted: (CLIENTS * self.ops_per_client) as u64,
            ..Rep::default()
        };
        let mut finished = t0;
        let mut trace = Trace::default();
        let mut acknowledged: Vec<i64> = Vec::new();
        let mut checkpoint_ms = 0.0;
        for r in results {
            finished = finished.max(r.finished);
            rep.latency.extend(&r.latency);
            rep.failed += r.failed;
            acknowledged.extend(r.acknowledged);
            checkpoint_ms = r.checkpoint_ms.unwrap_or(checkpoint_ms);
            trace.merge(r.trace);
        }
        rep.wall_s = (finished - t0).as_secs_f64();
        probes::idle_checks(&mut rep, &db);

        let mut l = Layers::new();
        let mut log = Vec::new();
        let mut stmt_us_mean = 0.0;
        if traced {
            let report = db.metrics_report();
            probes::bypass_checks(&mut rep, &report, mode != Mode::NoWal, false);
            let ops = rep.attempted as f64;
            l = probes::engine_layers(&db, &report, ops, rep.latency.sum() as f64);
            log = probes::take_log(&db, &mut l);
            stmt_us_mean = probes::trace_layers(&mut trace, ops, true, &mut l);
        }
        match mode {
            Mode::NoWal => {}
            Mode::Durable => {
                let before = digest(&db);
                drop(db);
                let recovered = ledger();
                let start = Instant::now();
                let info = recovered.recover(wal_config(&dir)).expect("recover");
                let recover_s = start.elapsed().as_secs_f64();
                rep.check(digest(&recovered) == before, || {
                    "recovered tables differ from the tables before the drop".to_string()
                });
                let journal = recovered.table_rows("journal").expect("journal").len();
                rep.check(journal == acknowledged.len(), || {
                    format!(
                        "{journal} journal rows after recovery, {} commits acknowledged",
                        acknowledged.len()
                    )
                });
                l.insert("db.wal.checkpoint_ms", checkpoint_ms);
                l.insert("db.wal.recover_ms", recover_s * 1e3);
                l.insert(
                    "db.wal.recover_records_per_s",
                    info.commits_replayed as f64 / recover_s,
                );
            }
            Mode::Crash => {
                rep.check(db.wal_crashed(), || {
                    "the injected crash never fired".to_string()
                });
                drop(db);
                let recovered = ledger();
                recovered.recover(wal_config(&dir)).expect("recover");
                let journal: HashSet<i64> = recovered
                    .table_rows("journal")
                    .expect("journal")
                    .iter()
                    .filter_map(|row| row[0].as_i64())
                    .collect();
                let lost = acknowledged.iter().filter(|k| !journal.contains(k)).count();
                rep.check(lost == 0, || {
                    format!("{lost} acknowledged commits lost by a crash before fsync")
                });
            }
        }
        let _ = std::fs::remove_dir_all(&dir);

        rep.layers = l;
        rep.spans = trace.spans;
        Ran {
            rep,
            log,
            stmt_us_mean,
            commit_us_mean: trace.commit.mean() / 1e3,
        }
    }
}

impl Workload for Durable {
    fn tail(&self) -> f64 {
        0.99
    }

    fn repetition(&mut self, _index: usize, traced: bool) -> Rep {
        let ran = self.run(Mode::Durable, traced);
        if traced {
            self.log = ran.log;
            self.stmt_us_mean = ran.stmt_us_mean;
        }
        ran.rep
    }

    fn probes(&mut self, layers: &mut Layers, check_failures: &mut Vec<String>) {
        probes::sql_layers(&self.log, self.stmt_us_mean, layers);
        // The same stream with no WAL, traced like the repetitions it is
        // compared with.
        let mut with_wal = self.run(Mode::Durable, true);
        let mut no_wal = self.run(Mode::NoWal, true);
        check_failures.append(&mut with_wal.rep.check_failures);
        check_failures.append(&mut no_wal.rep.check_failures);
        layers.insert(
            "db.wal.attach_overhead_share",
            1.0 - with_wal.rep.ops_per_s() / no_wal.rep.ops_per_s(),
        );
        layers.insert(
            "db.wal.group_wait_us_mean",
            with_wal.commit_us_mean - no_wal.commit_us_mean,
        );
        // Kill the log before an fsync returns: nothing acknowledged may
        // be missing after recovery.
        let mut crash = self.run(Mode::Crash, false);
        check_failures.append(&mut crash.rep.check_failures);
    }

    fn constants(&self) -> Vec<(&'static str, String)> {
        vec![
            ("sessions", CLIENTS.to_string()),
            ("ledger_rows", LEDGER_ROWS.to_string()),
            ("ops_per_client", self.ops_per_client.to_string()),
            ("warmup_per_client", self.warmup_per_client.to_string()),
            ("isolation", "READ COMMITTED".to_string()),
            (
                "flush_policy",
                "group commit, sync_data + 1 ms simulated device flush, one checkpoint at the midpoint"
                    .to_string(),
            ),
        ]
    }
}
