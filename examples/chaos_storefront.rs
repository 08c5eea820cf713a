//! A seeded chaos run against a storefront: injected deadlocks, write
//! conflicts, and lock timeouts hammer a retrying shopper workload, and
//! the whole thing replays bit-for-bit from its seed.
//!
//! ```text
//! cargo run -p acidrain-harness --example chaos_storefront [seed]
//! ```
//!
//! Prints the request outcomes, what the fault injector did, how hard the
//! retry layer worked to absorb it, and the invariant verdicts over the
//! final committed state — then reruns the same seed to demonstrate the
//! reports are identical.

use acidrain_apps::prelude::*;
use acidrain_db::{FaultConfig, IsolationLevel};
use acidrain_harness::chaos::run_chaos;
use acidrain_harness::storefront::Config;

fn main() {
    let seed: u64 = match std::env::args().nth(1) {
        None => 0xAC1D,
        Some(text) => text.parse().unwrap_or_else(|_| {
            eprintln!("chaos_storefront: seed {text:?} is not a number");
            eprintln!("usage: chaos_storefront [seed]");
            std::process::exit(2);
        }),
    };
    let app = PrestaShop;
    let config = Config {
        seed,
        faults: FaultConfig::disabled()
            .with_deadlock(0.10)
            .with_write_conflict(0.05)
            .with_lock_timeout(0.03),
        retry: RetryConfig::no_sleep(RetryPolicy::RetryTxn, 32),
        sessions: 6,
        requests_per_session: 9,
        ..Config::default()
    };
    let store = || app.make_store(IsolationLevel::ReadCommitted);

    println!("chaos run against {} (seed {seed:#x})", app.name());
    let report = run_chaos(&app, &store(), &config);

    let outcome = &report.outcome;
    println!(
        "requests: {} committed, {} rejected by business logic, {} failed",
        outcome.committed, outcome.rejected, outcome.failed
    );
    let f = &outcome.fault_stats;
    println!(
        "injected faults: {} deadlocks, {} write conflicts, {} lock timeouts over {} statements",
        f.injected_deadlocks,
        f.injected_write_conflicts,
        f.injected_lock_timeouts,
        f.statements_seen
    );
    let r = &outcome.retry_stats;
    println!(
        "retry layer: {} transaction replays, {} statement retries, {} give-ups",
        r.txn_replays, r.statement_retries, r.gave_up
    );
    println!(
        "query log: {} aborted attempts recorded; 2AD sees {} witnesses after discounting them",
        report.aborted_log_entries, report.witnesses
    );
    for (invariant, violation) in &report.invariant_results {
        match violation {
            None => println!("invariant {invariant}: held"),
            Some(v) => println!("invariant {invariant}: VIOLATED — {v}"),
        }
    }
    println!("final state digest: {:#018x}", report.state_digest);

    let replay = run_chaos(&app, &store(), &config);
    assert_eq!(report, replay);
    println!("replay with the same seed: identical report, bit for bit");
}
