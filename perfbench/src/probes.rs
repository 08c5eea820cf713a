//! Layer probes: each times one layer from outside, through its public
//! functions, over what a repetition recorded.

use std::hint::black_box;
use std::sync::Arc;

use acidrain_apps::SqlConn;
use acidrain_db::{Database, DbError, LogEntry, MetricsReport, Obs, ResultSet};
use acidrain_net::protocol::{encode_error, encode_result};
use acidrain_net::{RemoteConn, Request, Server, ServerConfig};
use acidrain_sql::{parse_statement, statement_template};

use crate::run::{Layers, Rep};
use crate::stats::{timed, Samples};
use crate::trace::Trace;

/// Statements the sql and protocol probes replay at most.
const REPLAY_CAP: usize = 20_000;
const PINGS: usize = 1500;
const CONNECTS: usize = 100;

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// What the engine's own counters say about the measured phase of a
/// traced repetition (metrics are switched on at the start line), plus
/// timed calls of `gc()` and the version census. `ops` is the operations
/// measured, `busy_nanos` the client time they took in total.
pub fn engine_layers(db: &Arc<Database>, m: &MetricsReport, ops: f64, busy_nanos: f64) -> Layers {
    let c = &m.counters;
    let mut l = Layers::new();
    let statements = (c.statements_ok + c.statements_failed + c.statements_aborted) as f64;
    l.insert("db.exec.stmts_per_op", statements / ops);
    l.insert(
        "db.lock.wait_share",
        share(m.lock_waits.sum_nanos as f64, busy_nanos),
    );
    l.insert(
        "db.lock.wait_us_mean",
        share(m.lock_waits.sum_nanos as f64, m.lock_waits.count() as f64) / 1e3,
    );
    l.insert("db.lock.timeouts", c.lock_timeouts as f64);
    l.insert("db.lock.deadlocks", c.deadlocks as f64);
    l.insert(
        "db.index.hit_share",
        share(
            c.index_hits as f64,
            (c.index_hits + c.index_fallbacks) as f64,
        ),
    );
    l.insert("db.index.fallbacks", c.index_fallbacks as f64);
    l.insert(
        "db.log.appends_per_stmt",
        share(c.log_appends as f64, statements),
    );
    l.insert("db.wal.appends", c.wal_appends as f64);
    l.insert("db.wal.fsyncs", c.wal_fsyncs as f64);
    l.insert(
        "db.wal.commits_per_fsync",
        share(c.wal_appends as f64, c.wal_fsyncs as f64),
    );
    l.insert(
        "db.wal.bytes_per_commit",
        share(c.wal_bytes as f64, c.wal_appends as f64),
    );

    let (versions, chain) = db.version_stats();
    let rows: usize = db
        .schema()
        .tables()
        .map(|t| db.table_rows(&t.name).expect("schema table").len())
        .sum();
    l.insert(
        "db.storage.versions_per_row",
        share(versions as f64, rows as f64),
    );
    l.insert(
        "db.storage.chain_peak",
        (chain as u64).max(m.gc_chain_peak) as f64,
    );
    let (gc, gc_nanos) = timed(|| db.gc());
    l.insert("db.storage.gc_call_us", gc_nanos as f64 / 1e3);
    l.insert("db.storage.gc_runs", c.gc_runs as f64);
    l.insert(
        "db.storage.gc_reclaimed",
        (c.gc_reclaimed + gc.reclaimed as u64) as f64,
    );
    l
}

/// What the bench's own spans say about a traced repetition of `ops`
/// operations: statement time as the client saw it (under `stmt_layer`:
/// the engine's when in-process, the wire's over a socket) and what the
/// application spent outside its statements. Returns the mean statement
/// time in microseconds.
pub fn trace_layers(trace: &mut Trace, ops: f64, in_process: bool, l: &mut Layers) -> f64 {
    let stmts = trace.stmt.len();
    if in_process {
        l.insert("db.exec.stmt_us_p50", trace.stmt.percentile_us(0.5));
        l.insert("db.exec.stmt_us_p99", trace.stmt.percentile_us(0.99));
        l.insert("db.exec.commit_us_p50", trace.commit.percentile_us(0.5));
    } else {
        l.insert("net.stmt_us_p50", trace.stmt.percentile_us(0.5));
    }
    l.insert(
        "db.exec.abort_share",
        share(trace.stmt_aborts as f64, stmts as f64),
    );
    l.insert("apps.stmts_per_op", stmts as f64 / ops);
    l.insert("apps.self_us_p50", trace.op_self.percentile_us(0.5));
    trace.stmt.mean() / 1e3
}

/// Once the clients are gone the engine must hold nothing for them.
pub fn idle_checks(rep: &mut Rep, db: &Database) {
    rep.check(db.active_transactions() == 0, || {
        format!("{} transactions left active", db.active_transactions())
    });
    rep.check(db.locked_resources() == 0, || {
        format!("{} resources left locked", db.locked_resources())
    });
    rep.check(db.pinned_snapshots() == 0, || {
        format!("{} snapshots left pinned", db.pinned_snapshots())
    });
}

/// A layer a workload bypasses must have counted nothing, and one it
/// uses something.
pub fn bypass_checks(rep: &mut Rep, m: &MetricsReport, wal: bool, wire: bool) {
    let c = &m.counters;
    rep.check(
        (c.wal_appends + c.wal_fsyncs + c.wal_bytes > 0) == wal,
        || format!("{} WAL appends counted, WAL attached: {wal}", c.wal_appends),
    );
    rep.check((c.net_frames > 0) == wire, || {
        format!("{} frames counted, over a socket: {wire}", c.net_frames)
    });
}

/// Drain the query log, timing the call.
pub fn take_log(db: &Database, layers: &mut Layers) -> Vec<LogEntry> {
    let (log, nanos) = timed(|| db.take_log());
    layers.insert("db.log.take_us", nanos as f64 / 1e3);
    log
}

/// `parse_statement` and `statement_template` replayed over the statement
/// stream a repetition logged. `stmt_us_mean` is the mean time of one
/// statement in that repetition; `db.exec.stmt_us_p50` is already in
/// `layers`.
pub fn sql_layers(log: &[LogEntry], stmt_us_mean: f64, layers: &mut Layers) {
    let mut parse = Samples::default();
    let mut fingerprint = Samples::default();
    for entry in log.iter().take(REPLAY_CAP) {
        let (parsed, nanos) = timed(|| parse_statement(black_box(&entry.sql)));
        black_box(parsed).expect("a logged statement parses");
        parse.push(nanos);
        let (template, nanos) = timed(|| statement_template(black_box(&entry.sql)));
        black_box(template).expect("a logged statement has a template");
        fingerprint.push(nanos);
    }
    layers.insert("sql.stmts", log.len() as f64);
    layers.insert("sql.parse_us_p50", parse.percentile_us(0.5));
    layers.insert("sql.fingerprint_us_p50", fingerprint.percentile_us(0.5));
    layers.insert("sql.parse_share", share(parse.mean() / 1e3, stmt_us_mean));
    layers.insert(
        "db.exec.self_us_p50",
        layers["db.exec.stmt_us_p50"] - layers["sql.parse_us_p50"],
    );
}

/// Round trips and connects against an idle server: the floor the wire
/// puts under every statement.
pub fn net_layers(db: Arc<Database>, workers: usize, smoke: bool, layers: &mut Layers) {
    let (pings, connects) = if smoke {
        (PINGS / 30, CONNECTS / 10)
    } else {
        (PINGS, CONNECTS)
    };
    let server = Server::start(
        db,
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let mut conn = RemoteConn::connect(server.addr()).expect("connect to idle server");
    let mut ping = Samples::with_capacity(pings);
    for _ in 0..pings {
        let (pong, nanos) = timed(|| conn.ping());
        pong.expect("ping an idle server");
        ping.push(nanos);
    }
    conn.quit();
    let mut connect = Samples::with_capacity(connects);
    for _ in 0..connects {
        let (conn, nanos) = timed(|| RemoteConn::connect(server.addr()));
        connect.push(nanos);
        conn.expect("connect to idle server").quit();
    }
    server.shutdown();
    layers.insert("net.ping_us_p50", ping.percentile_us(0.5));
    layers.insert("net.ping_us_p99", ping.percentile_us(0.99));
    layers.insert("net.connect_us_p50", connect.percentile_us(0.5));
}

/// Keeps every statement and its result, so the frames they would make on
/// the wire can be encoded and parsed again under a clock.
pub struct Recording<C: SqlConn> {
    inner: C,
    pub frames: Vec<(String, Result<ResultSet, DbError>)>,
}

impl<C: SqlConn> Recording<C> {
    pub fn new(inner: C) -> Self {
        Recording {
            inner,
            frames: Vec::new(),
        }
    }
}

impl<C: SqlConn> SqlConn for Recording<C> {
    fn exec(&mut self, sql: &str) -> Result<ResultSet, DbError> {
        let result = self.inner.exec(sql);
        self.frames.push((sql.to_string(), result.clone()));
        result
    }

    fn set_api(&mut self, name: &str, invocation: u64) {
        self.inner.set_api(name, invocation);
    }

    fn session(&self) -> u64 {
        self.inner.session()
    }

    fn obs(&self) -> Obs {
        self.inner.obs()
    }
}

/// Encode and parse the frames of `ops` operations: per statement, the
/// request line and the response block rendered, and the request line
/// parsed back.
pub fn protocol_layers(
    frames: &[(String, Result<ResultSet, DbError>)],
    ops: usize,
    layers: &mut Layers,
) {
    let mut encode = Samples::with_capacity(frames.len());
    let mut decode = Samples::with_capacity(frames.len());
    let mut bytes = 0usize;
    for (sql, result) in frames.iter().take(REPLAY_CAP) {
        let (line, request_nanos) = timed(|| Request::Query(black_box(sql).clone()).encode());
        let (response, response_nanos) = timed(|| match black_box(result) {
            Ok(rs) => encode_result(rs),
            Err(e) => encode_error(e),
        });
        encode.push(request_nanos + response_nanos);
        let (parsed, nanos) = timed(|| Request::parse(black_box(&line)));
        black_box(parsed).expect("an encoded request parses");
        decode.push(nanos);
        bytes += line.len() + 1 + response.len();
    }
    layers.insert("net.protocol.encode_ns_p50", encode.percentile(0.5) as f64);
    layers.insert("net.protocol.decode_ns_p50", decode.percentile(0.5) as f64);
    layers.insert("net.protocol.bytes_per_op", share(bytes as f64, ops as f64));
}
