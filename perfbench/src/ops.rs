//! Input generation. Every workload's operations are drawn up front from
//! `--seed` into plain vectors; the program under test sees only those.

use acidrain_net::Zipf;
use rand::prelude::*;

/// One independent generator per (seed, purpose, stream).
pub fn stream_rng(seed: u64, purpose: u64, stream: usize) -> StdRng {
    let mut mix = StdRng::seed_from_u64(seed ^ purpose.rotate_left(32));
    StdRng::seed_from_u64(mix.next_u64().wrapping_add(stream as u64))
}

/// Shoppers the storefront mix draws carts from, and their skew: the
/// `net::loadgen` defaults (a small hot set does most of the shopping).
pub const SHOP_CARTS: u64 = 1000;
pub const SHOP_ZIPF_THETA: f64 = 0.99;
/// Share of storefront calls that are `add_to_cart`, in tenths.
pub const SHOP_ADD_TENTHS: u64 = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShopCall {
    AddToCart { product: i64 },
    Checkout,
}

/// One storefront API call: which application's endpoint, for which cart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShopOp {
    pub app: usize,
    pub cart: i64,
    pub call: ShopCall,
}

/// The `net::loadgen` mix: application uniform over the corpus, cart
/// zipfian, PEN/LAPTOP 50/50, 70 % add_to_cart / 30 % checkout.
///
/// The shares are exact, not sampled: every stream holds the same number
/// of calls to each application, of each kind, for each product, and
/// draws its carts from evenly spaced quantiles of the zipf distribution.
/// `seed` decides how the four columns are paired and in which order the
/// calls arrive. Two seeds then differ in their interleaving and not in
/// how much work they ask for, which is what lets runs on different seeds
/// be compared.
pub fn shop_ops(seed: u64, thread: usize, n: usize, apps: usize) -> Vec<ShopOp> {
    let zipf = Zipf::new(SHOP_CARTS, SHOP_ZIPF_THETA);
    let mut rng = stream_rng(seed, 0x5409, thread);
    let mut shuffled = |mut column: Vec<u64>| {
        column.shuffle(&mut rng);
        column
    };
    let n64 = n as u64;
    let app = shuffled((0..n64).map(|i| i % apps as u64).collect());
    let add = shuffled(
        (0..n64)
            .map(|i| u64::from(i % 10 < SHOP_ADD_TENTHS))
            .collect(),
    );
    let product = shuffled((0..n64).map(|i| i % 2).collect());
    // `Zipf::sample` reads the top 53 bits of its argument as a uniform
    // variate; stratum i of n is the midpoint (i + 1/2) / n.
    let midpoint = |i: u64| ((u128::from(2 * i + 1) << 63) / u128::from(n64)) as u64;
    let cart = shuffled((0..n64).map(|i| zipf.sample(midpoint(i))).collect());
    (0..n)
        .map(|i| ShopOp {
            app: app[i] as usize,
            cart: cart[i] as i64,
            call: if add[i] == 1 {
                ShopCall::AddToCart {
                    product: if product[i] == 0 {
                        acidrain_apps::prelude::PEN
                    } else {
                        acidrain_apps::prelude::LAPTOP
                    },
                }
            } else {
                ShopCall::Checkout
            },
        })
        .collect()
}

/// Rows of the read workload's catalog, against the shop's two products:
/// the working-set contrast.
pub const CATALOG_ROWS: i64 = 100_000;
/// Width of a range read (`price BETWEEN a AND a + RANGE_WIDTH - 1`).
pub const RANGE_WIDTH: i64 = 20;
pub const READ_ZIPF_THETA: f64 = 0.99;
/// Share of reads that are point lookups, in tenths.
pub const READ_POINT_TENTHS: u64 = 8;

/// One autocommit SELECT of the read workload, already rendered.
pub fn read_ops(seed: u64, thread: usize, n: usize, rows: i64) -> Vec<String> {
    let zipf = Zipf::new(rows as u64, READ_ZIPF_THETA);
    let mut rng = stream_rng(seed, 0x4ead, thread);
    (0..n)
        .map(|_| {
            if rng.gen_range(0..10) < READ_POINT_TENTHS {
                // Scatter the zipf ranks over the id space so the hot ids
                // are not the first slots of the table.
                let rank = zipf.sample(rng.next_u64()) as i64;
                let id = (rank * 7919) % rows + 1;
                format!("SELECT id, price, name FROM catalog WHERE id = {id}")
            } else {
                let lo = rng.gen_range(0..(rows - RANGE_WIDTH) as u64) as i64 + 1;
                let hi = lo + RANGE_WIDTH - 1;
                format!("SELECT id, price FROM catalog WHERE price BETWEEN {lo} AND {hi}")
            }
        })
        .collect()
}

/// Rows of the durable workload's ledger, split evenly between sessions
/// so that lock waits are ~0 and the WAL does the work.
pub const LEDGER_ROWS: i64 = 1000;

/// One explicit transaction of the durable workload: the ledger row it
/// credits and the amount. Session `s` of `sessions` owns the ids
/// congruent to `s` modulo `sessions`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableOp {
    pub id: i64,
    pub amount: i64,
}

pub fn durable_ops(seed: u64, session: usize, sessions: usize, n: usize) -> Vec<DurableOp> {
    let mut rng = stream_rng(seed, 0xd04a, session);
    let per_session = LEDGER_ROWS as u64 / sessions as u64;
    (0..n)
        .map(|_| DurableOp {
            id: (rng.gen_range(0..per_session) * sessions as u64 + session as u64) as i64 + 1,
            amount: rng.gen_range(0..100) as i64 + 1,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(shop_ops(7, 0, 500, 12), shop_ops(7, 0, 500, 12));
        assert_ne!(shop_ops(7, 0, 500, 12), shop_ops(8, 0, 500, 12));
        assert_ne!(shop_ops(7, 0, 500, 12), shop_ops(7, 1, 500, 12));
        assert_eq!(read_ops(7, 1, 100, 1000), read_ops(7, 1, 100, 1000));
        assert_eq!(durable_ops(7, 1, 2, 100), durable_ops(7, 1, 2, 100));
    }

    #[test]
    fn shop_mix_has_the_stated_shares() {
        let ops = shop_ops(1, 0, 20_000, 12);
        let adds = ops
            .iter()
            .filter(|o| matches!(o.call, ShopCall::AddToCart { .. }))
            .count();
        assert_eq!(adds, 14_000);
        assert_eq!(ops.iter().filter(|o| o.app == 3).count(), 20_000 / 12 + 1);
        assert!(ops
            .iter()
            .all(|o| o.app < 12 && (1..=1000).contains(&o.cart)));
        let hot = ops.iter().filter(|o| o.cart == 1).count();
        let cold = ops.iter().filter(|o| o.cart == 500).count();
        assert!(hot > 20 * cold.max(1));
    }

    #[test]
    fn durable_sessions_touch_disjoint_rows() {
        let a = durable_ops(3, 0, 2, 2000);
        let b = durable_ops(3, 1, 2, 2000);
        assert!(a
            .iter()
            .all(|o| o.id % 2 == 1 && (1..=LEDGER_ROWS).contains(&o.id)));
        assert!(b
            .iter()
            .all(|o| o.id % 2 == 0 && (1..=LEDGER_ROWS).contains(&o.id)));
    }
}
