//! The two storefront workloads: the `net::loadgen` call mix through a
//! `RetryConn`, over TCP (`wire_shop`) or straight into the engine
//! (`engine_shop`), closed loop. The traced run of `wire_shop` adds an
//! open-loop phase at a fixed arrival rate and a ladder of rates.

use std::rc::Rc;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use acidrain_apps::prelude::*;
use acidrain_db::{Database, DbError, IsolationLevel, LogEntry};
use acidrain_net::{RemoteConn, Server, ServerConfig, ServerHandle};

use crate::ops::{shop_ops, ShopCall, ShopOp};
use crate::probes::{self, Recording};
use crate::run::{clients, Layers, Rep, Workload};
use crate::stats::Samples;
use crate::trace::{Recorder, TimingConn, Trace};

/// Client threads, connections and server workers: this host's `nproc`.
pub const CLIENTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Transport {
    Engine,
    Wire,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Callers that wait for each reply: gives capacity.
    Closed,
    /// Independent shoppers arriving at a fixed rate; latency counts from
    /// each request's due time.
    Open { rate_per_s: f64 },
}

/// Arrival rate of the open-loop phase: frozen at about half the
/// closed-loop `ops_per_s` of `wire_shop` on the commit that added the
/// benchmark, and held for [`OPEN_SECONDS`].
pub const OPEN_RATE_PER_S: f64 = 400.0;
pub const OPEN_SECONDS: f64 = 3.0;
/// Latency limit, from due time, a rate must meet at p99 to count as held:
/// about four times the closed-loop p99, which a checkout of a hot cart
/// (30-130 statements of ~0.65 ms) sets at ~25 ms whatever the rate.
pub const RATE_LIMIT_US: f64 = 100_000.0;
/// The rates `net.rate_ok_max_per_s` is chosen from, each held for
/// [`LADDER_SECONDS`].
pub const RATE_LADDER: [f64; 5] = [250.0, 500.0, 1000.0, 2000.0, 4000.0];
pub const LADDER_SECONDS: f64 = 1.2;
/// Operations whose frames the protocol probe encodes and parses.
const PROTOCOL_OPS: usize = 400;

#[derive(Debug, Clone, Copy)]
pub struct ShopConfig {
    pub transport: Transport,
    pub pacing: Pacing,
    pub seed: u64,
    /// Measured operations per client thread and repetition.
    pub ops_per_client: usize,
    pub warmup_per_client: usize,
    pub level: IsolationLevel,
    /// Shrinks the probes as `--smoke` shrinks the repetitions.
    pub smoke: bool,
}

pub struct Shop {
    config: ShopConfig,
    /// The query log and mean statement time of the latest traced
    /// repetition, for the probes that replay it.
    log: Vec<LogEntry>,
    stmt_us_mean: f64,
}

impl Shop {
    pub fn new(config: ShopConfig) -> Shop {
        Shop {
            config,
            log: Vec::new(),
            stmt_us_mean: 0.0,
        }
    }
}

/// What one client thread brings back from a repetition.
struct ClientResult {
    latency: Samples,
    lateness: Samples,
    finished: Instant,
    failed: u64,
    rejected: u64,
    protocol_errors: u64,
    checkouts_ok: u64,
    retries: u64,
    gave_up: u64,
    trace: Trace,
}

/// A repetition and what its traced form leaves for the probes.
struct Ran {
    rep: Rep,
    log: Vec<LogEntry>,
    stmt_us_mean: f64,
}

/// A store in the state every shop repetition starts from: the sample
/// store, with stock raised so that checkouts take the success path.
pub fn fresh_store(level: IsolationLevel) -> Arc<Database> {
    let db = Database::new(shop_schema(), level);
    seed_store(&db);
    let mut admin = db.connect();
    admin
        .execute("UPDATE products SET stock = 1000000000")
        .expect("raise stock");
    admin
        .execute("UPDATE stock_adjustments SET amount = 1000000000")
        .expect("raise ledger stock");
    drop(admin);
    db.take_log();
    db
}

/// Issue one storefront call; `Ok(true)` is a checkout that placed an
/// order.
fn call(
    apps: &[Box<dyn ShopApp + Send + Sync>],
    conn: &mut dyn SqlConn,
    op: &ShopOp,
) -> AppResult<bool> {
    let app = &apps[op.app];
    match op.call {
        ShopCall::AddToCart { product } => {
            app.add_to_cart(conn, op.cart, product, 1).map(|_| false)
        }
        ShopCall::Checkout => app
            .checkout(conn, op.cart, &CheckoutRequest::plain())
            .map(|_| true),
    }
}

fn op_name(op: &ShopOp) -> &'static str {
    match op.call {
        ShopCall::AddToCart { .. } => "apps.add_to_cart",
        ShopCall::Checkout => "apps.checkout",
    }
}

impl ShopConfig {
    fn due(&self, client: usize, i: usize) -> Option<Duration> {
        match self.pacing {
            Pacing::Closed => None,
            Pacing::Open { rate_per_s } => Some(Duration::from_secs_f64(
                (i * CLIENTS + client) as f64 / rate_per_s,
            )),
        }
    }

    /// One client thread: warm up, wait at the line, run its operations.
    #[allow(clippy::too_many_arguments)]
    fn client<C: SqlConn>(
        &self,
        conn: C,
        client: usize,
        apps: &[Box<dyn ShopApp + Send + Sync>],
        ops: &[ShopOp],
        origin: Instant,
        traced: bool,
        line: &Barrier,
    ) -> ClientResult {
        let recorder = Recorder::shared(origin);
        let mut conn = RetryConn::new(
            TimingConn::new(conn, Rc::clone(&recorder)),
            RetryConfig {
                seed: self.seed ^ client as u64,
                ..RetryConfig::default()
            },
        );
        let (warmup, measured) = ops.split_at(self.warmup_per_client);
        let mut out = ClientResult {
            latency: Samples::with_capacity(measured.len()),
            lateness: Samples::default(),
            finished: origin,
            failed: 0,
            rejected: 0,
            protocol_errors: 0,
            checkouts_ok: 0,
            retries: 0,
            gave_up: 0,
            trace: Trace::default(),
        };
        for op in warmup {
            if let Ok(true) = call(apps, &mut conn, op) {
                out.checkouts_ok += 1;
            }
        }
        if traced {
            recorder.borrow_mut().start();
        }
        // Warm-up done; the main thread switches the engine's metrics on
        // between the two waits, so counters cover the measured part only.
        line.wait();
        line.wait();
        let t0 = Instant::now();
        for (i, op) in measured.iter().enumerate() {
            let mut start = Instant::now();
            if let Some(offset) = self.due(client, i) {
                let due = t0 + offset;
                if due > start {
                    std::thread::sleep(due - start);
                }
                let late = Instant::now().saturating_duration_since(due);
                out.lateness.push(late.as_nanos() as u64);
                start = due;
            }
            recorder
                .borrow_mut()
                .begin_op((i * CLIENTS + client) as u64);
            let result = call(apps, &mut conn, op);
            recorder.borrow_mut().end_op(op_name(op));
            let nanos = start.elapsed().as_nanos() as u64;
            match result {
                Ok(checkout) => {
                    out.checkouts_ok += u64::from(checkout);
                    out.latency.push(nanos);
                }
                Err(AppError::Rejected(_)) | Err(AppError::Unsupported(_)) => {
                    out.rejected += 1;
                    out.latency.push(nanos);
                }
                Err(AppError::Db(e)) => {
                    out.failed += 1;
                    if matches!(&e, DbError::Internal(m) if m.starts_with("wire protocol")) {
                        out.protocol_errors += 1;
                    }
                }
            }
        }
        out.finished = Instant::now();
        let stats = conn.stats();
        out.retries = stats.statement_retries + stats.txn_replays;
        out.gave_up = stats.gave_up;
        out.trace = recorder.borrow_mut().take();
        out
    }

    /// The calls of repetition `index`, per client. Every repetition has
    /// its own arrangement of the same mix: how large carts grow before
    /// they are checked out depends on the order, so one arrangement's cost
    /// says little, and the median over a run's repetitions says more.
    /// Warm-up and measured calls are drawn apart, so that the measured
    /// part has the exact shares `shop_ops` promises.
    fn streams(&self, index: usize) -> Vec<Vec<ShopOp>> {
        let apps = all_apps().len();
        (0..CLIENTS)
            .map(|c| {
                let stream = 2 * (index * CLIENTS + c);
                let mut ops = shop_ops(self.seed, stream + 1, self.warmup_per_client, apps);
                ops.extend(shop_ops(self.seed, stream, self.ops_per_client, apps));
                ops
            })
            .collect()
    }

    fn run(&self, streams: &[Vec<ShopOp>], traced: bool) -> Ran {
        let origin = Instant::now();
        let apps = all_apps();
        let db = fresh_store(self.level);
        let server = (self.transport == Transport::Wire).then(|| {
            Server::start(
                Arc::clone(&db),
                ServerConfig {
                    workers: CLIENTS,
                    ..ServerConfig::default()
                },
            )
            .expect("bind loopback")
        });
        let addr = server.as_ref().map(ServerHandle::addr);
        let at_line = || {
            if traced {
                db.enable_metrics();
            }
        };
        let (t0, results) = clients(CLIENTS, at_line, |c, line| {
            let ops = &streams[c];
            match addr {
                None => {
                    let mut conn = db.connect();
                    conn.set_isolation(self.level);
                    Some(self.client(conn, c, &apps, ops, origin, traced, line))
                }
                Some(addr) => {
                    let conn = RemoteConn::connect(addr).and_then(|mut conn| {
                        conn.set_isolation(self.level)
                            .map_err(|e| std::io::Error::other(e.to_string()))?;
                        Ok(conn)
                    });
                    match conn {
                        Ok(conn) => Some(self.client(conn, c, &apps, ops, origin, traced, line)),
                        Err(_) => {
                            line.wait();
                            line.wait();
                            None
                        }
                    }
                }
            }
        });

        let mut rep = Rep {
            setup_s: (t0 - origin).as_secs_f64(),
            attempted: (CLIENTS * self.ops_per_client) as u64,
            ..Rep::default()
        };
        let mut finished = t0;
        let mut lateness = Samples::default();
        let mut trace = Trace::default();
        let (mut refused, mut protocol_errors, mut checkouts_ok) = (0u64, 0u64, 0u64);
        let (mut retries, mut gave_up) = (0u64, 0u64);
        for result in results {
            let Some(r) = result else {
                refused += 1;
                rep.failed += self.ops_per_client as u64;
                continue;
            };
            finished = finished.max(r.finished);
            rep.latency.extend(&r.latency);
            lateness.extend(&r.lateness);
            rep.failed += r.failed;
            rep.rejected += r.rejected;
            protocol_errors += r.protocol_errors;
            checkouts_ok += r.checkouts_ok;
            retries += r.retries;
            gave_up += r.gave_up;
            trace.merge(r.trace);
        }
        rep.wall_s = (finished - t0).as_secs_f64();

        // The clients' sockets closed with their threads; stop the server
        // before auditing what the engine still holds.
        let report = db.metrics_report();
        drop(server);
        rep.check(refused == 0, || format!("{refused} connections refused"));
        rep.check(protocol_errors == 0, || {
            format!("{protocol_errors} wire protocol errors")
        });
        probes::idle_checks(&mut rep, &db);
        let orders = db.table_rows("orders").expect("orders table").len() as u64;
        rep.check(orders == checkouts_ok, || {
            format!("{orders} orders placed, {checkouts_ok} checkouts succeeded")
        });
        let mut ran = Ran {
            rep,
            log: Vec::new(),
            stmt_us_mean: 0.0,
        };
        if !traced {
            return ran;
        }

        let rep = &mut ran.rep;
        let wire = self.transport == Transport::Wire;
        probes::bypass_checks(rep, &report, false, wire);
        let ops = rep.attempted as f64;
        let mut l = probes::engine_layers(&db, &report, ops, rep.latency.sum() as f64);
        ran.log = probes::take_log(&db, &mut l);
        ran.stmt_us_mean = probes::trace_layers(&mut trace, ops, !wire, &mut l);
        if wire {
            let c = &report.counters;
            l.insert("net.frames_per_op", c.net_frames as f64 / ops);
            l.insert("net.reactor_parks", c.net_reactor_parks as f64);
            l.insert("net.rejected", c.net_rejected as f64);
            l.insert("net.disconnect_aborts", c.net_disconnect_aborts as f64);
        }
        l.insert("apps.rejected_share", rep.rejected as f64 / ops);
        l.insert("apps.retry_share", retries as f64 / ops);
        l.insert("apps.retries_gave_up", gave_up as f64);
        if !lateness.is_empty() {
            l.insert("loadgen.late_us_p99", lateness.percentile_us(0.99));
        }
        rep.layers = l;
        rep.spans = trace.spans;
        ran
    }

    /// The frames of the first operations of one client's stream, run
    /// in-process so that statements and results can both be kept.
    fn protocol_probe(&self, layers: &mut Layers) {
        let apps = all_apps();
        let db = fresh_store(self.level);
        let mut conn = Recording::new(db.connect());
        let ops = shop_ops(self.seed, 0, PROTOCOL_OPS, apps.len());
        for op in &ops {
            // Refusals and their error frames are part of the traffic.
            let _ = call(&apps, &mut conn, op);
        }
        probes::protocol_layers(&conn.frames, ops.len(), layers);
    }

    fn probe_seconds(&self, full: f64) -> f64 {
        if self.smoke {
            full / 10.0
        } else {
            full
        }
    }

    /// Independent shoppers arriving at `rate_per_s` for `seconds`.
    fn open_loop(&self, rate_per_s: f64, seconds: f64, traced: bool) -> Rep {
        let probe = ShopConfig {
            pacing: Pacing::Open { rate_per_s },
            ops_per_client: (rate_per_s * seconds) as usize / CLIENTS,
            ..*self
        };
        probe.run(&probe.streams(0), traced).rep
    }

    /// The highest ladder rate whose p99 from due time stays within the
    /// limit. A backlog that grows shows as a run that ends late, so the
    /// last arrival must also be answered within the limit of its due
    /// time.
    fn rate_ladder(&self) -> f64 {
        let seconds = self.probe_seconds(LADDER_SECONDS);
        let mut best = 0.0;
        for rate in RATE_LADDER {
            let mut rep = self.open_loop(rate, seconds, false);
            let held = rep.failed == 0
                && rep.latency.percentile_us(0.99) <= RATE_LIMIT_US
                && rep.wall_s <= seconds + RATE_LIMIT_US / 1e6;
            if !held {
                break;
            }
            best = rate;
        }
        best
    }
}

impl Workload for Shop {
    fn tail(&self) -> f64 {
        0.99
    }

    fn repetition(&mut self, index: usize, traced: bool) -> Rep {
        let ran = self.config.run(&self.config.streams(index), traced);
        if traced {
            self.log = ran.log;
            self.stmt_us_mean = ran.stmt_us_mean;
        }
        ran.rep
    }

    fn probes(&mut self, layers: &mut Layers, check_failures: &mut Vec<String>) {
        let config = self.config;
        let streams = config.streams(0);
        match config.transport {
            Transport::Engine => {
                probes::sql_layers(&self.log, self.stmt_us_mean, layers);
                // The same stream at SERIALIZABLE over the default level.
                let base = config.run(&streams, false).rep;
                let ser = ShopConfig {
                    level: IsolationLevel::Serializable,
                    ..config
                }
                .run(&streams, false)
                .rep;
                layers.insert("db.lock.ser_slowdown", ser.wall_s / base.wall_s);
            }
            Transport::Wire => {
                // The statement time under the socket: the same stream
                // run in-process.
                let inproc = ShopConfig {
                    transport: Transport::Engine,
                    pacing: Pacing::Closed,
                    ..config
                }
                .run(&streams, true);
                for name in [
                    "db.exec.stmt_us_p50",
                    "db.exec.stmt_us_p99",
                    "db.exec.commit_us_p50",
                ] {
                    layers.insert(name, inproc.rep.layers[name]);
                }
                probes::sql_layers(&self.log, inproc.stmt_us_mean, layers);
                probes::net_layers(fresh_store(config.level), CLIENTS, config.smoke, layers);
                config.protocol_probe(layers);
                // Independent shoppers at a fixed rate, timed from each
                // request's due time.
                let seconds = config.probe_seconds(OPEN_SECONDS);
                let mut open = config.open_loop(OPEN_RATE_PER_S, seconds, true);
                check_failures.append(&mut open.check_failures);
                check_failures.extend(
                    (open.failed > 0).then(|| format!("{} open-loop calls failed", open.failed)),
                );
                layers.insert("net.open_p50_us", open.latency.percentile_us(0.5));
                layers.insert("net.open_p99_us", open.latency.percentile_us(0.99));
                layers.insert("loadgen.late_us_p99", open.layers["loadgen.late_us_p99"]);
                layers.insert("net.rate_ok_max_per_s", config.rate_ladder());
                // What the socket adds to a statement, and how much of it
                // an idle round trip does not explain.
                let (stmt, exec, ping) = (
                    layers["net.stmt_us_p50"],
                    layers["db.exec.stmt_us_p50"],
                    layers["net.ping_us_p50"],
                );
                layers.insert("net.overhead_us_p50", stmt - exec);
                layers.insert("net.overhead_share", (stmt - exec) / stmt);
                layers.insert("net.unattributed_share", (stmt - ping - exec) / stmt);
            }
        }
    }

    fn constants(&self) -> Vec<(&'static str, String)> {
        let c = &self.config;
        let mut out = vec![
            ("clients", CLIENTS.to_string()),
            ("ops_per_client", c.ops_per_client.to_string()),
            ("warmup_per_client", c.warmup_per_client.to_string()),
            ("isolation", c.level.name().to_string()),
            ("carts", crate::ops::SHOP_CARTS.to_string()),
            ("zipf_theta", crate::ops::SHOP_ZIPF_THETA.to_string()),
        ];
        if c.transport == Transport::Wire {
            out.push(("open_rate_per_s", OPEN_RATE_PER_S.to_string()));
            out.push(("open_seconds", OPEN_SECONDS.to_string()));
            out.push(("rate_limit_us_p99", RATE_LIMIT_US.to_string()));
        }
        out
    }
}
