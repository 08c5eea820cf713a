//! The wire-facing subcommands: `serve` (the line-protocol server over a
//! freshly seeded store) and `attack flexcoin` (the paper's
//! over-withdrawal raced across real sockets).

use std::sync::Arc;
use std::time::Duration;

use acidrain_apps::flexcoin::Flexcoin;
use acidrain_apps::prelude::*;
use acidrain_db::{Database, IsolationLevel};
use acidrain_net::{flexcoin_attack, Server, ServerConfig};

use crate::{Args, Flag, Kind};

pub const SERVE_FLAGS: &[Flag] = &[
    Flag {
        name: "--max-sessions",
        metavar: "N",
        kind: Kind::Value,
        help: "admission ceiling on concurrent sessions (default 4096)",
    },
    Flag {
        name: "--queue",
        metavar: "N",
        kind: Kind::Value,
        help: "sockets parked beyond the ceiling before SERVER_BUSY (default 256)",
    },
    Flag {
        name: "--flexcoin",
        metavar: "",
        kind: Kind::Switch,
        help: "serve the flexcoin exchange, not the 12-app shop",
    },
];

/// Bind `ADDR` (default `127.0.0.1:7878`) and serve a freshly seeded
/// store with default isolation `LEVEL` (default `RC`) until killed.
/// Metrics are enabled; the engine's lock-wait timeout uses its default.
pub fn serve(args: &Args) {
    let addr = args.positionals.first().map_or("127.0.0.1:7878", |a| a);
    let isolation = args
        .positionals
        .get(1)
        .map_or(IsolationLevel::ReadCommitted, |text| args.level(text));
    let config = ServerConfig {
        max_sessions: args.number("--max-sessions").unwrap_or(4096),
        queue_capacity: args.number("--queue").unwrap_or(256),
        idle_timeout: Some(Duration::from_secs(300)),
        txn_timeout: Some(Duration::from_secs(60)),
        workers: 8,
    };
    let flexcoin = args.has("--flexcoin");

    let db: Arc<Database> = if flexcoin {
        Flexcoin.make_exchange(isolation, 100_000, 100)
    } else {
        let db = Database::new(shop_schema(), isolation);
        seed_store(&db);
        db
    };
    db.enable_metrics();

    let handle = Server::start_on(Arc::clone(&db), addr, config)
        .unwrap_or_else(|e| args.fail(format!("cannot bind {addr}: {e}")));
    println!(
        "acidrain serve listening on {} (default isolation {}, store: {})",
        handle.addr(),
        isolation.name(),
        if flexcoin {
            "flexcoin exchange"
        } else {
            "12-app shop"
        },
    );
    loop {
        std::thread::sleep(Duration::from_secs(60));
        let report = db.metrics_report();
        println!(
            "sessions={} accepted={} frames={} commits+aborts={}",
            report.net_sessions,
            report.counters.net_accepted,
            report.counters.net_frames,
            report.transactions_finished(),
        );
    }
}

/// Concurrent `transfer` requests race on the wire at READ COMMITTED
/// until the solvency oracle reports a violation.
pub fn attack(args: &Args) {
    if args.positionals != ["flexcoin"] {
        args.usage_error("only the flexcoin attack is wired up");
    }
    const RESERVE: i64 = 100_000;
    const ATTACKER_FUNDS: i64 = 100;
    const ATTACKERS: usize = 8;
    const MAX_WAVES: usize = 200;
    let db = Flexcoin.make_exchange(IsolationLevel::ReadCommitted, RESERVE, ATTACKER_FUNDS);
    db.enable_metrics();
    let config = ServerConfig {
        // Headroom above the attacker sockets so admission control stays
        // out of the race's way.
        max_sessions: ATTACKERS + 64,
        queue_capacity: ATTACKERS,
        idle_timeout: Some(Duration::from_secs(300)),
        txn_timeout: Some(Duration::from_secs(60)),
        workers: 8,
    };
    let handle = Server::start(Arc::clone(&db), config)
        .unwrap_or_else(|e| args.fail(format!("cannot start server: {e}")));
    let outcome = flexcoin_attack(
        &db,
        handle.addr(),
        ATTACKER_FUNDS,
        RESERVE + ATTACKER_FUNDS,
        ATTACKERS,
        MAX_WAVES,
    )
    .unwrap_or_else(|e| args.fail(format!("attack drive: {e}")));
    handle.shutdown();
    match outcome.violated_at_wave {
        Some(wave) => println!(
            "flexcoin over-withdrawal reproduced over sockets at wave {wave}: {}",
            outcome.violation.unwrap_or_default()
        ),
        None => args.fail(format!("attack did not reproduce within {MAX_WAVES} waves")),
    }
}
