//! The over-socket flexcoin attack: the paper's theft mounted by
//! concurrent clients across real TCP connections.
//!
//! Storefront load over sockets is a configuration of the harness's one
//! storefront driver (`acidrain_harness::storefront`, open-loop pacing
//! over the wire transport). Its zipfian sampler lives in
//! [`acidrain_apps::mix`] and is re-exported here as [`Zipf`].

use std::sync::{Arc, Barrier};

use acidrain_apps::flexcoin::{check_solvency, Flexcoin};
pub use acidrain_apps::mix::Zipf;
use acidrain_db::Database;

use crate::client::RemoteConn;

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
    let mut conns = (0..attackers)
        .map(|_| RemoteConn::connect(addr))
        .collect::<std::io::Result<Vec<_>>>()?;
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

        let barrier = Barrier::new(attackers);
        std::thread::scope(|scope| {
            for conn in &mut conns {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    // Rejections and aborts are expected outcomes; the
                    // oracle below is the only judge.
                    let _ = Flexcoin.transfer(conn, 2, 3, attacker_funds);
                });
            }
        });
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
    use acidrain_apps::mix::Mix;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = Zipf::new(100, 0.99);
        let mut rng = Mix::new(42);
        let mut counts = vec![0u64; 101];
        for _ in 0..20_000 {
            let id = zipf.sample(rng.next_u64());
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
        let mut rng = Mix::new(7);
        let mut counts = [0u64; 5];
        for _ in 0..40_000 {
            counts[zipf.sample(rng.next_u64()) as usize] += 1;
        }
        for (id, &count) in counts.iter().enumerate().skip(1) {
            let share = count as f64 / 40_000.0;
            assert!((share - 0.25).abs() < 0.03, "id {id}: share {share}");
        }
    }
}
