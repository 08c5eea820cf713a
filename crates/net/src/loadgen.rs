//! Socket load generation: open-loop, zipfian-skewed request streams
//! driving the application corpus over real TCP connections.
//!
//! The generator opens a fixed population of persistent sockets (the
//! "connection pool" — thousands of them), then schedules requests
//! *open-loop*: arrival `i` is due at `t0 + i/rate` regardless of how
//! long earlier requests took, so server slowdowns surface as queueing
//! delay in the recorded latency instead of silently throttling the
//! offered load (the coordinated-omission trap of closed-loop drivers).
//! Each request samples a cart/user id from a zipfian distribution —
//! a small hot set of users does most of the shopping, which is what
//! makes same-row conflicts (the paper's attack surface) common at
//! realistic scale. Latency is measured from the *scheduled* arrival,
//! p50/p99 and friends come from the same log₂ histograms the engine
//! uses, and every client wraps its socket in `RetryConn`, so retry
//! semantics match the in-process harness exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use acidrain_apps::flexcoin::{check_solvency, Flexcoin};
use acidrain_apps::prelude::*;
use acidrain_db::{Database, DbError, IsolationLevel};
use acidrain_obs::{Histogram, HistogramSnapshot};

use crate::client::RemoteConn;

/// Knobs for one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Persistent client sockets held open for the whole run.
    pub sockets: usize,
    /// Driver threads multiplexing requests over the socket population.
    pub threads: usize,
    /// Open-loop arrival rate (requests per second).
    pub rate: f64,
    /// Offered-load window per isolation level.
    pub duration: Duration,
    /// Zipfian user/cart population.
    pub users: u64,
    /// Zipfian skew exponent (0 = uniform; 0.99 = YCSB-style hot set).
    pub zipf_theta: f64,
    /// Seed for the deterministic per-thread request mix.
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            sockets: 1024,
            threads: 8,
            rate: 500.0,
            duration: Duration::from_secs(3),
            users: 1000,
            zipf_theta: 0.99,
            seed: 0xac1d,
        }
    }
}

/// Client-observed outcome counts and latency for one isolation level.
#[derive(Debug, Clone)]
pub struct LevelResult {
    /// The isolation level the clients negotiated via `HELLO`.
    pub level: IsolationLevel,
    /// Requests issued.
    pub requests: u64,
    /// Requests that completed successfully.
    pub ok: u64,
    /// Application-level rejections (business rules: out of stock,
    /// voucher exhausted) — healthy outcomes, not errors.
    pub rejected: u64,
    /// Database errors that survived the client's retry budget.
    pub db_errors: u64,
    /// Wire-protocol violations observed by the client (must be zero on
    /// a healthy server).
    pub protocol_errors: u64,
    /// Latency from *scheduled* arrival to completion.
    pub latency: HistogramSnapshot,
}

/// splitmix64 — the same tiny deterministic generator the retry
/// wrapper's jitter uses.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Zipfian sampler over `1..=n` via a precomputed CDF (ranks weighted
/// `1/rank^theta`), shared read-only across driver threads.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the sampler for a population of `n` with skew `theta`.
    pub fn new(n: u64, theta: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(theta);
            cdf.push(total);
        }
        for w in &mut cdf {
            *w /= total;
        }
        Zipf { cdf }
    }

    /// Draw one id in `1..=n` from a uniform `u64`.
    pub fn sample(&self, raw: u64) -> u64 {
        let u = (raw >> 11) as f64 / (1u64 << 53) as f64;
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) | Err(i) => (i as u64 + 1).min(self.cdf.len() as u64),
        }
    }
}

/// Drive one isolation level's offered load at `addr`. Opens the full
/// socket population first (every socket stays connected for the whole
/// window), then runs the open-loop arrival schedule over it.
pub fn run_level(
    addr: std::net::SocketAddr,
    level: IsolationLevel,
    config: &LoadgenConfig,
) -> std::io::Result<LevelResult> {
    let apps: Arc<Vec<Box<dyn ShopApp + Send + Sync>>> = Arc::new(all_apps());
    let zipf = Arc::new(Zipf::new(config.users, config.zipf_theta));
    let latency = Arc::new(Histogram::default());
    let arrivals = Arc::new(AtomicU64::new(0));
    let start_line = Arc::new(Barrier::new(config.threads));
    let per_thread = (config.sockets / config.threads.max(1)).max(1);

    let mut handles = Vec::new();
    for thread in 0..config.threads {
        let apps = Arc::clone(&apps);
        let zipf = Arc::clone(&zipf);
        let latency = Arc::clone(&latency);
        let arrivals = Arc::clone(&arrivals);
        let start_line = Arc::clone(&start_line);
        let config = config.clone();
        handles.push(std::thread::spawn(move || -> std::io::Result<[u64; 5]> {
            // Open this thread's slice of the socket population and
            // negotiate the level on each session up front.
            let mut conns = Vec::with_capacity(per_thread);
            for i in 0..per_thread {
                let mut conn = RemoteConn::connect(addr)?;
                conn.set_isolation(level)
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
                conns.push(RetryConn::new(
                    conn,
                    RetryConfig {
                        seed: config.seed ^ ((thread * per_thread + i) as u64),
                        ..RetryConfig::default()
                    },
                ));
            }
            let mut rng = config.seed ^ (0xda7a << 16) ^ thread as u64;
            let mut counts = [0u64; 5]; // requests, ok, rejected, db, protocol
            let mut next_conn = 0usize;

            start_line.wait();
            let t0 = Instant::now();
            loop {
                let i = arrivals.fetch_add(1, Ordering::Relaxed);
                let offset = Duration::from_secs_f64(i as f64 / config.rate);
                if offset >= config.duration {
                    break;
                }
                let scheduled = t0 + offset;
                let now = Instant::now();
                if scheduled > now {
                    std::thread::sleep(scheduled - now);
                }
                let conn = &mut conns[next_conn];
                next_conn = (next_conn + 1) % per_thread;
                let app = &apps[(splitmix64(&mut rng) % apps.len() as u64) as usize];
                let cart = zipf.sample(splitmix64(&mut rng)) as i64;
                let product = if splitmix64(&mut rng).is_multiple_of(2) {
                    PEN
                } else {
                    LAPTOP
                };
                let result = if splitmix64(&mut rng) % 10 < 7 {
                    app.add_to_cart(conn, cart, product, 1)
                } else {
                    app.checkout(conn, cart, &CheckoutRequest::plain())
                        .map(|_| ())
                };
                counts[0] += 1;
                match result {
                    Ok(()) => counts[1] += 1,
                    Err(AppError::Rejected(_)) | Err(AppError::Unsupported(_)) => counts[2] += 1,
                    Err(AppError::Db(DbError::Internal(msg)))
                        if msg.starts_with("wire protocol") =>
                    {
                        counts[4] += 1
                    }
                    Err(AppError::Db(_)) => counts[3] += 1,
                }
                latency.record(scheduled.elapsed());
            }
            Ok(counts)
        }));
    }

    let mut totals = [0u64; 5];
    for handle in handles {
        let counts = handle.join().expect("driver thread panicked")?;
        for (t, c) in totals.iter_mut().zip(counts) {
            *t += c;
        }
    }
    Ok(LevelResult {
        level,
        requests: totals[0],
        ok: totals[1],
        rejected: totals[2],
        db_errors: totals[3],
        protocol_errors: totals[4],
        latency: latency.snapshot(),
    })
}

/// Outcome of one over-socket flexcoin attack run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackOutcome {
    /// Wave (1-based) whose concurrent transfers broke solvency; `None`
    /// when every wave stayed solvent.
    pub violated_at_wave: Option<usize>,
    /// Solvency report for the violating wave.
    pub violation: Option<String>,
}

/// Mount the paper's flexcoin over-withdrawal over real sockets:
/// `attackers` concurrent clients fire `transfer(mallory-a → mallory-b)`
/// for the wallet's full balance in barrier-synchronized waves, exactly
/// the rapid-successive-request pattern of the original theft. The
/// transfers race over the network; the oracle (`check_solvency`) audits
/// server-side state between waves. `db` must be the exchange the
/// server at `addr` is serving, with `attacker_funds` in wallet 2.
pub fn flexcoin_attack(
    db: &Arc<Database>,
    addr: std::net::SocketAddr,
    attacker_funds: i64,
    total_deposited: i64,
    attackers: usize,
    max_waves: usize,
) -> std::io::Result<AttackOutcome> {
    // Persistent attacker sockets, reused across waves.
    let mut conns = Vec::with_capacity(attackers);
    for _ in 0..attackers {
        conns.push(Some(RemoteConn::connect(addr)?));
    }
    for wave in 1..=max_waves {
        // Reset the attacker wallets to the deposited state (house
        // wallet is untouched by the transfer endpoint).
        let mut admin = db.connect();
        admin
            .execute(&format!(
                "UPDATE wallets SET coins = {attacker_funds} WHERE id = 2"
            ))
            .expect("reset wallet 2");
        admin
            .execute("UPDATE wallets SET coins = 0 WHERE id = 3")
            .expect("reset wallet 3");
        drop(admin);

        let barrier = Arc::new(Barrier::new(attackers));
        let mut handles = Vec::new();
        for mut slot in conns.drain(..) {
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let mut conn = slot.take().expect("socket present");
                barrier.wait();
                // Rejections and aborts are expected outcomes; the
                // oracle below is the only judge.
                let _ = Flexcoin.transfer(&mut conn, 2, 3, attacker_funds);
                conn
            }));
        }
        for handle in handles {
            conns.push(Some(handle.join().expect("attacker thread panicked")));
        }
        if let Err(violation) = check_solvency(db, total_deposited) {
            return Ok(AttackOutcome {
                violated_at_wave: Some(wave),
                violation: Some(violation),
            });
        }
    }
    Ok(AttackOutcome {
        violated_at_wave: None,
        violation: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = Zipf::new(100, 0.99);
        let mut rng = 42u64;
        let mut counts = vec![0u64; 101];
        for _ in 0..20_000 {
            let id = zipf.sample(splitmix64(&mut rng));
            assert!((1..=100).contains(&id));
            counts[id as usize] += 1;
        }
        // Rank 1 must dominate rank 50 heavily under theta=0.99.
        assert!(
            counts[1] > counts[50] * 5,
            "{} vs {}",
            counts[1],
            counts[50]
        );
    }

    #[test]
    fn zipf_uniform_when_theta_zero() {
        let zipf = Zipf::new(4, 0.0);
        let mut rng = 7u64;
        let mut counts = [0u64; 5];
        for _ in 0..40_000 {
            counts[zipf.sample(splitmix64(&mut rng)) as usize] += 1;
        }
        for (id, &count) in counts.iter().enumerate().skip(1) {
            let share = count as f64 / 40_000.0;
            assert!((share - 0.25).abs() < 0.03, "id {id}: share {share}");
        }
    }
}
