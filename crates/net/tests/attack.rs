//! The over-socket attack end-to-end checks. (The storefront load over
//! sockets is a configuration of the harness's storefront driver; its
//! tests live with it, in the workspace's `tests/storefront.rs`.)
//!
//! PR 1 reproduced the flexcoin over-withdrawal with in-process
//! connections; this suite closes the loop on the paper's actual threat
//! model by mounting the same attack across real TCP sockets, where
//! network scheduling — not a test harness — decides the interleaving.

use acidrain_apps::flexcoin::{check_solvency, Flexcoin};
use acidrain_db::{Database, IsolationLevel};
use acidrain_net::loadgen::flexcoin_attack;
use acidrain_net::{Server, ServerConfig};
use std::sync::Arc;

const RESERVE: i64 = 100_000;
const ATTACKER_FUNDS: i64 = 100;

fn attack_server(isolation: IsolationLevel) -> (Arc<Database>, acidrain_net::ServerHandle) {
    let db = Flexcoin.make_exchange(isolation, RESERVE, ATTACKER_FUNDS);
    db.enable_metrics();
    let handle = Server::start(Arc::clone(&db), ServerConfig::default()).expect("start server");
    (db, handle)
}

/// The acceptance-criteria attack: concurrent transfers racing over real
/// sockets at READ COMMITTED over-withdraw the wallet.
#[test]
fn flexcoin_over_withdrawal_reproduces_over_sockets() {
    let (db, handle) = attack_server(IsolationLevel::ReadCommitted);
    let outcome = flexcoin_attack(
        &db,
        handle.addr(),
        ATTACKER_FUNDS,
        RESERVE + ATTACKER_FUNDS,
        8,
        200,
    )
    .expect("attack drive");
    handle.shutdown();
    assert!(
        outcome.violated_at_wave.is_some(),
        "over-withdrawal did not reproduce over sockets in 200 waves"
    );
    let violation = outcome.violation.unwrap();
    assert!(!violation.is_empty());
}

/// The flexcoin theft is a transaction-*scoping* bug, not an isolation
/// bug: `transfer` never opens a transaction, so its read-then-write
/// races statement-by-statement and even SERIALIZABLE cannot save it
/// (the paper's point that stronger isolation is useless against
/// unscoped logic). The attack must reproduce over sockets at
/// SERIALIZABLE too.
#[test]
fn flexcoin_attack_defeats_serializable_via_scoping() {
    let (db, handle) = attack_server(IsolationLevel::Serializable);
    let outcome = flexcoin_attack(
        &db,
        handle.addr(),
        ATTACKER_FUNDS,
        RESERVE + ATTACKER_FUNDS,
        8,
        200,
    )
    .expect("attack drive");
    handle.shutdown();
    assert!(
        outcome.violated_at_wave.is_some(),
        "unscoped transfer should over-withdraw regardless of isolation"
    );
    assert!(check_solvency(&db, RESERVE + ATTACKER_FUNDS).is_err());
}
