//! `engine_read`: autocommit SELECTs at SNAPSHOT ISOLATION on a catalog
//! far larger than the shop's two products — point lookups through the
//! hash index on `id`, range reads through the ordered index on `price`.

use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use acidrain_apps::SqlConn;
use acidrain_db::{Connection, Database, IsolationLevel, LogEntry, ResultSet, Value};
use acidrain_sql::fnv1a;
use acidrain_sql::schema::{ColumnDef, ColumnType, Schema, TableSchema};

use crate::ops::{read_ops, RANGE_WIDTH, READ_POINT_TENTHS, READ_ZIPF_THETA};
use crate::probes;
use crate::run::{clients, Layers, Rep, Workload};
use crate::shop::CLIENTS;
use crate::stats::Samples;
use crate::trace::{Recorder, TimingConn, Trace};

pub struct Read {
    rows: i64,
    ops_per_client: usize,
    warmup_per_client: usize,
    /// Per client, its rendered SELECTs: warm-up first, then measured.
    streams: Vec<Vec<String>>,
    /// Per client, the digest of every measured result as one session
    /// computed them, made once: the store never changes.
    reference: Option<Vec<Vec<u64>>>,
    log: Vec<LogEntry>,
    stmt_us_mean: f64,
}

impl Read {
    pub fn new(seed: u64, rows: i64, ops_per_client: usize, warmup_per_client: usize) -> Read {
        Read {
            rows,
            ops_per_client,
            warmup_per_client,
            streams: (0..CLIENTS)
                .map(|c| read_ops(seed, c, warmup_per_client + ops_per_client, rows))
                .collect(),
            reference: None,
            log: Vec::new(),
            stmt_us_mean: 0.0,
        }
    }
}

fn catalog(rows: i64) -> Arc<Database> {
    let schema = Schema::new().with_table(TableSchema::new(
        "catalog",
        vec![
            ColumnDef::new("id", ColumnType::Int).unique(),
            ColumnDef::new("price", ColumnType::Int).indexed(),
            ColumnDef::new("name", ColumnType::Str),
        ],
    ));
    let db = Database::new(schema, IsolationLevel::SnapshotIsolation);
    db.seed(
        "catalog",
        (1..=rows)
            .map(|id| {
                vec![
                    Value::Int(id),
                    // A permutation of 1..=rows (31 is coprime to any
                    // power of ten), so a price window holds exactly
                    // RANGE_WIDTH rows scattered over the table.
                    Value::Int((id * 31) % rows + 1),
                    Value::Str(format!("item-{id}")),
                ]
            })
            .collect(),
    )
    .expect("seed catalog");
    db
}

/// Order-free digest of a result: the engine returns range rows in index
/// order today, but nothing promises that.
fn digest(rs: &ResultSet) -> u64 {
    let row_digest = |row: &Vec<Value>| {
        row.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            let word = match v {
                Value::Int(i) => *i as u64,
                Value::Str(s) => fnv1a(s.as_bytes()),
                Value::Float(f) => f.to_bits(),
                Value::Bool(b) => u64::from(*b),
                Value::Null => u64::MAX,
            };
            (h ^ word).wrapping_mul(0x0100_0000_01b3)
        })
    };
    rs.rows
        .iter()
        .map(row_digest)
        .fold(rs.rows.len() as u64, u64::wrapping_add)
}

fn select(conn: &mut impl SqlConn, sql: &str) -> Option<u64> {
    conn.exec(sql).ok().map(|rs| digest(&rs))
}

impl Read {
    /// How many of the clients' digests differ from the reference.
    fn mismatches(&mut self, db: &Arc<Database>, got: &[&[Option<u64>]]) -> usize {
        let warmup = self.warmup_per_client;
        let streams = &self.streams;
        let reference = self.reference.get_or_insert_with(|| {
            let mut conn: Connection = db.connect();
            streams
                .iter()
                .map(|ops| {
                    ops[warmup..]
                        .iter()
                        .map(|sql| select(&mut conn, sql).expect("reference read"))
                        .collect()
                })
                .collect()
        });
        got.iter()
            .zip(reference.iter())
            .flat_map(|(got, want)| got.iter().zip(want))
            .filter(|(got, want)| got.is_some_and(|g| g != **want))
            .count()
    }
}

impl Workload for Read {
    fn tail(&self) -> f64 {
        0.99
    }

    fn repetition(&mut self, _index: usize, traced: bool) -> Rep {
        let origin = Instant::now();
        let db = catalog(self.rows);
        let streams = &self.streams;
        let warmup = self.warmup_per_client;
        type Client = (Samples, Vec<Option<u64>>, Instant, Trace);
        let at_line = || {
            if traced {
                db.enable_metrics();
            }
        };
        let (t0, results) = clients(CLIENTS, at_line, |c, line| -> Client {
            let ops = &streams[c];
            let recorder = Recorder::shared(origin);
            let mut conn = TimingConn::new(db.connect(), Rc::clone(&recorder));
            for sql in &ops[..warmup] {
                select(&mut conn, sql);
            }
            if traced {
                recorder.borrow_mut().start();
            }
            line.wait();
            line.wait();
            let mut latency = Samples::with_capacity(ops.len() - warmup);
            let mut digests = Vec::with_capacity(ops.len() - warmup);
            for (i, sql) in ops[warmup..].iter().enumerate() {
                let start = Instant::now();
                recorder.borrow_mut().begin_op((i * CLIENTS + c) as u64);
                let result = select(&mut conn, sql);
                recorder.borrow_mut().end_op("read.select");
                if result.is_some() {
                    latency.push(start.elapsed().as_nanos() as u64);
                }
                digests.push(result);
            }
            let trace = recorder.borrow_mut().take();
            (latency, digests, Instant::now(), trace)
        });

        let mut rep = Rep {
            setup_s: (t0 - origin).as_secs_f64(),
            attempted: (CLIENTS * self.ops_per_client) as u64,
            ..Rep::default()
        };
        let report = db.metrics_report();
        let digests: Vec<&[Option<u64>]> = results.iter().map(|r| r.1.as_slice()).collect();
        let mismatches = self.mismatches(&db, &digests);
        let mut finished = t0;
        let mut trace = Trace::default();
        for (latency, digests, end, t) in results {
            finished = finished.max(end);
            rep.latency.extend(&latency);
            rep.failed += digests.iter().filter(|d| d.is_none()).count() as u64;
            trace.merge(t);
        }
        rep.wall_s = (finished - t0).as_secs_f64();
        rep.check(mismatches == 0, || {
            format!("{mismatches} results differ from the single-session reference")
        });
        probes::idle_checks(&mut rep, &db);
        if !traced {
            return rep;
        }

        probes::bypass_checks(&mut rep, &report, false, false);
        let fallbacks = report.counters.index_fallbacks;
        rep.check(fallbacks == 0, || {
            format!("{fallbacks} reads fell back to a full scan")
        });
        let ops = rep.attempted as f64;
        let mut l = probes::engine_layers(&db, &report, ops, rep.latency.sum() as f64);
        self.log = probes::take_log(&db, &mut l);
        self.stmt_us_mean = probes::trace_layers(&mut trace, ops, true, &mut l);
        rep.layers = l;
        rep.spans = trace.spans;
        rep
    }

    fn probes(&mut self, layers: &mut Layers, _check_failures: &mut Vec<String>) {
        probes::sql_layers(&self.log, self.stmt_us_mean, layers);
    }

    fn constants(&self) -> Vec<(&'static str, String)> {
        vec![
            ("clients", CLIENTS.to_string()),
            ("catalog_rows", self.rows.to_string()),
            ("ops_per_client", self.ops_per_client.to_string()),
            ("warmup_per_client", self.warmup_per_client.to_string()),
            ("point_tenths", READ_POINT_TENTHS.to_string()),
            ("range_width", RANGE_WIDTH.to_string()),
            ("zipf_theta", READ_ZIPF_THETA.to_string()),
            ("isolation", "SNAPSHOT ISOLATION".to_string()),
        ]
    }
}
