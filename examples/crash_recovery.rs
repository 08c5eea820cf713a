//! Kill a storefront mid-flight and bring it back: a seeded chaos run
//! with a write-ahead log attached dies at an injected crash point (the
//! simulated `kill -9` leaves the WAL directory exactly as a real kill
//! would), then a fresh store recovers the durable prefix and verifies
//! the serial invariants over it.
//!
//! ```text
//! cargo run -p acidrain-harness --example crash_recovery [seed]
//! ```

use acidrain_apps::prelude::*;
use acidrain_db::wal::scan_wal;
use acidrain_db::{CrashPoint, CrashSpec, FaultConfig, IsolationLevel, WalConfig};
use acidrain_harness::chaos::{recover_app_store, run_chaos, scratch_dir};
use acidrain_harness::storefront::{state_digest, Config};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xD1E);
    let app = PrestaShop;
    let dir = scratch_dir("example");
    println!("WAL directory: {}", dir.display());

    // Arm a mid-append crash: the engine dies while the fourth commit
    // record is half-written, leaving a torn tail on disk.
    let config = Config {
        seed,
        faults: FaultConfig::disabled()
            .with_deadlock(0.08)
            .with_crash(CrashSpec::new(CrashPoint::WalAppend, 4)),
        ..Config::default()
    };
    let store = app.make_store(IsolationLevel::ReadCommitted);
    store
        .attach_wal(WalConfig::new(&dir))
        .expect("a fresh store accepts a WAL");

    println!("chaos run against {} (seed {seed:#x})...", app.name());
    let outcome = run_chaos(&app, &store, &config).outcome;
    assert!(outcome.crashed, "the armed crash point fired");
    println!(
        "killed mid-append after {} committed requests ({} never ran)",
        outcome.committed,
        config.sessions * config.requests_per_session - outcome.requests(),
    );

    // Restart: rebuild the store from schema + seed fixtures, then replay
    // the durable prefix of the log.
    let (db, info) = recover_app_store(&app, IsolationLevel::ReadCommitted, WalConfig::new(&dir))
        .expect("recovery never fails on a torn tail");
    println!(
        "recovered: {} commit records replayed, {} torn bytes discarded",
        info.commits_replayed, info.torn_bytes_discarded
    );
    let (records, _) = scan_wal(&WalConfig::new(&dir).log_path()).unwrap();
    assert_eq!(info.commits_replayed, records.len() as u64);

    for invariant in acidrain_harness::Invariant::ALL {
        if invariant.feature(&app) == FeatureStatus::Supported {
            match invariant.check(&db, &app) {
                Ok(()) => println!("invariant {invariant}: held on the recovered state"),
                Err(v) => println!("invariant {invariant}: VIOLATED — {v}"),
            }
        }
    }
    println!("recovered state digest: {:#018x}", state_digest(&db, &app));

    // Recovery is deterministic: a second restart rebuilds the same state.
    let (db2, _) = recover_app_store(&app, IsolationLevel::ReadCommitted, WalConfig::new(&dir))
        .expect("second recovery");
    assert_eq!(state_digest(&db, &app), state_digest(&db2, &app));
    println!("second restart: identical state, bit for bit");

    let _ = std::fs::remove_dir_all(&dir);
}
