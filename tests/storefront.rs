//! The storefront driver over the wire: the flaky-client campaigns and the
//! open-loop load, each a configuration of `storefront::run`.
//!
//! The wire configurations are thread-timing tests — real sockets race, so
//! the interleaving is the network's — and assert what must hold whatever
//! it is: no wire-protocol violation on either side, and no transaction,
//! lock or snapshot pin left behind once every socket is gone.

use std::sync::Arc;
use std::time::{Duration, Instant};

use acidrain_apps::prelude::*;
use acidrain_db::{Database, FaultConfig, IsolationLevel, MetricsReport};
use acidrain_harness::storefront::{leaks, run, Config, Leaks, Pacing, Run, Transport};
use acidrain_net::ServerConfig;

/// Eight socket sessions of eight scripted requests, one thread each.
fn wire_config(seed: u64) -> Config {
    Config {
        seed,
        transport: Transport::Wire(ServerConfig::default()),
        pacing: Pacing::Closed,
        sessions: 8,
        requests_per_session: 8,
        retry: RetryConfig {
            max_retries: 12,
            ..RetryConfig::default()
        },
        ..Config::default()
    }
}

/// Run `config` for PrestaShop over a fresh store at `level` that records
/// metrics; return the run, the server-side metrics and the leak check.
fn wire_run(level: IsolationLevel, config: &Config) -> (Run, MetricsReport, Leaks) {
    let db = PrestaShop.make_store(level);
    db.enable_metrics();
    let run = run(&[&PrestaShop], &db, config);
    let leaks = leaks(&db);
    (run, db.metrics_report(), leaks)
}

/// The session layer kept its hygiene promises: no leaked transactions,
/// locks or pins, and no wire-protocol violation on either side.
fn assert_clean_wire(run: &Run, metrics: &MetricsReport, leaks: Leaks) {
    assert_eq!(leaks, Leaks::default(), "{run:?}");
    assert_eq!(run.outcome.protocol_errors, 0, "{run:?}");
    assert_eq!(metrics.counters.net_protocol_errors, 0, "{metrics:?}");
}

#[test]
fn wire_clean_run_commits_and_leaks_nothing() {
    let (run, metrics, leaks) = wire_run(IsolationLevel::ReadCommitted, &wire_config(0));
    assert!(run.outcome.committed > 0, "{run:?}");
    assert_clean_wire(&run, &metrics, leaks);
    assert_eq!(metrics.counters.net_accepted, 8, "{metrics:?}");
}

/// Every third request a client vanishes inside a transaction holding a
/// row lock, under a 5 % injected deadlock rate.
#[test]
fn wire_flaky_clients_are_absorbed_by_disconnect_abort() {
    let config = Config {
        drop_every: Some(3),
        faults: FaultConfig::disabled().with_deadlock(0.05),
        ..wire_config(7)
    };
    let (run, metrics, leaks) = wire_run(IsolationLevel::ReadCommitted, &config);
    assert!(run.outcome.dropped > 0, "{run:?}");
    assert_clean_wire(&run, &metrics, leaks);
    // Most abandoned sockets die holding an open transaction and are
    // counted as disconnect aborts; a few may race an injected fault
    // that already aborted the transaction before the drop, so the
    // count is bounded, not exact.
    let aborts = metrics.counters.net_disconnect_aborts as usize;
    assert!(
        aborts > 0 && aborts <= run.outcome.dropped,
        "disconnect aborts {aborts} vs {} injected: {run:?}",
        run.outcome.dropped
    );
    // The workload still makes progress around the vanishing clients.
    assert!(run.outcome.committed > 0, "{run:?}");
}

/// Flaky clients at the snapshot-pinning levels: every abandoned
/// socket's pin must be released, and the post-run GC bound must
/// reach the commit clock — a wire session that leaked its pin would
/// leave `gc_oldest_snapshot` wedged below it.
#[test]
fn wire_flaky_snapshot_clients_release_their_pins() {
    for level in [
        IsolationLevel::MySqlRepeatableRead,
        IsolationLevel::SnapshotIsolation,
    ] {
        let config = Config {
            drop_every: Some(2),
            faults: FaultConfig::disabled().with_deadlock(0.05),
            ..wire_config(11)
        };
        let (run, metrics, leaks) = wire_run(level, &config);
        assert!(run.outcome.dropped > 0, "{level:?}: {run:?}");
        assert_clean_wire(&run, &metrics, leaks);
        assert_eq!(leaks.snapshot_pins, 0, "{level:?}: {run:?}");
        assert_eq!(
            metrics.gc_oldest_snapshot, metrics.commit_clock,
            "{level:?}: GC bound stuck below the clock — a pin leaked: {run:?}"
        );
    }
}

/// The corpus store with every app's tables, serving on a fresh server.
fn corpus_store(level: IsolationLevel) -> Arc<Database> {
    let db: Arc<Database> = Database::new(shop_schema(), level);
    seed_store(&db);
    db.enable_metrics();
    db
}

/// The open loop over the twelve-app corpus.
fn open_loop(db: &Arc<Database>, config: &Config) -> Run {
    let apps = all_apps();
    let apps: Vec<&(dyn ShopApp + Sync)> = apps.iter().map(|app| app.as_ref() as _).collect();
    run(&apps, db, config)
}

/// The full 12-app corpus over sockets at every isolation level, open
/// loop: zero wire-protocol violations on either side and real commits
/// on the server, on a fresh store and server per level so no level
/// inherits another's stock depletion.
#[test]
fn loadgen_drives_the_corpus_cleanly_at_every_level() {
    let config = Config {
        seed: 0xac1d,
        transport: Transport::Wire(ServerConfig {
            max_sessions: 64,
            queue_capacity: 64,
            idle_timeout: Some(Duration::from_secs(30)),
            txn_timeout: Some(Duration::from_secs(10)),
            workers: 4,
        }),
        pacing: Pacing::Open {
            rate: 200.0,
            duration: Duration::from_secs(1),
        },
        sessions: 32,
        retry: RetryConfig::default(),
        ..Config::default()
    };
    for level in IsolationLevel::ALL {
        let db = corpus_store(level);
        let result = open_loop(&db, &config);
        let report = db.metrics_report();

        let requests = result.outcome.requests() as u64;
        assert!(requests > 0, "{level}");
        assert_eq!(
            result.outcome.protocol_errors, 0,
            "{level}: client saw wire-protocol violations"
        );
        assert_eq!(
            report.counters.net_protocol_errors, 0,
            "{level}: server counted protocol errors"
        );
        let commits: u64 = report.by_level.iter().map(|l| l.commits).sum();
        assert!(commits > 0, "{level}: no server-side commits: {report:?}");
        assert_eq!(result.latency.count(), requests, "{level}");
    }
}

/// Thread count is not the knee: a population of 1024 persistent sockets
/// — 1024 server session threads, driven from a pool of eight client
/// threads — holds an offered 2000 requests/s for a 3 s window without
/// building a backlog. (The polling reactor this server replaced needed
/// 17 s for the same 6000 requests.) Release only: the claim is about the
/// server, not about unoptimized clients.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn thousand_sockets_hold_the_offered_rate() {
    let sockets = 1024;
    let config = Config {
        seed: 0xac1d,
        transport: Transport::Wire(ServerConfig {
            max_sessions: 2048,
            ..ServerConfig::default()
        }),
        pacing: Pacing::Open {
            rate: 2000.0,
            duration: Duration::from_secs(3),
        },
        sessions: sockets,
        retry: RetryConfig::default(),
        ..Config::default()
    };
    let db = corpus_store(IsolationLevel::ReadCommitted);

    let begun = Instant::now();
    let result = open_loop(&db, &config);
    let took = begun.elapsed();
    let report = db.metrics_report();

    assert!(
        took < Duration::from_secs(6),
        "{} requests over {sockets} sockets took {took:?} (p50 <= {} us, p99 <= {} us)",
        result.outcome.requests(),
        result.latency.percentile_nanos(0.5) / 1000,
        result.latency.percentile_nanos(0.99) / 1000,
    );
    assert_eq!(
        result.outcome.protocol_errors, 0,
        "client saw protocol violations"
    );
    assert_eq!(report.counters.net_protocol_errors, 0, "{report:?}");
    assert_eq!(report.counters.net_accepted, sockets as u64);
    let commits: u64 = report.by_level.iter().map(|l| l.commits).sum();
    assert!(commits > 0, "no server-side commits: {report:?}");
}
