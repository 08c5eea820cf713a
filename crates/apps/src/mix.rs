//! The storefront workload: the requests every harness driver asks of the
//! corpus, in one place.
//!
//! Two generators share one [`Request`] type:
//!
//! * a **session script** ([`session_script`]) is a fixed, seed-free
//!   sequence per session — add one item, check out, repeat — that stays
//!   inside the apps' serially-clean envelope, so any invariant violation
//!   after a run is the run's doing, not the workload's;
//! * the **mix** ([`Mix`]) draws calls at random, the way many shoppers
//!   hit a store: the application uniform over a list, the cart zipfian
//!   over [`CARTS`] with skew [`ZIPF_THETA`] (a small hot set of shoppers
//!   does most of the shopping, which makes same-row conflicts — the
//!   paper's attack surface — common), a pen or a laptop at even odds, and
//!   [`ADD_TENTHS`] in ten calls an `add_to_cart`, the rest a plain
//!   checkout.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::framework::{
    observed_request, AppResult, CheckoutRequest, ShopApp, SqlConn, LAPTOP, PEN,
};
use crate::retry::splitmix64;

/// Shoppers (carts) the mix draws from.
pub const CARTS: u64 = 1000;
/// The mix's zipfian skew over carts (YCSB's hot set; 0 is uniform).
pub const ZIPF_THETA: f64 = 0.99;
/// Share of mix calls that are `add_to_cart`, in tenths; the rest check
/// out.
pub const ADD_TENTHS: u64 = 7;

/// One shopper request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Put one of the product ([`PEN`] or [`LAPTOP`]) into the cart.
    AddToCart(i64),
    /// Check the cart out, without a voucher.
    Checkout,
}

impl Request {
    /// Issue the request for `cart` on `conn`, tagged with the next
    /// invocation number of its API from `invocations` (`add_to_cart`'s,
    /// then `checkout`'s). The numbers are global per API name: lifting
    /// groups log entries by `name#invocation`, not by session, so
    /// per-session numbering would fuse different sessions' requests.
    pub fn dispatch<C: SqlConn>(
        self,
        app: &dyn ShopApp,
        conn: &mut C,
        cart: i64,
        invocations: &[AtomicU64; 2],
    ) -> AppResult<()> {
        let (api, slot) = match self {
            Request::AddToCart(_) => ("add_to_cart", 0),
            Request::Checkout => ("checkout", 1),
        };
        conn.set_api(api, invocations[slot].fetch_add(1, Ordering::Relaxed));
        observed_request(conn, |c| match self {
            Request::AddToCart(product) => app.add_to_cart(c, cart, product, 1),
            Request::Checkout => app.checkout(c, cart, &CheckoutRequest::plain()).map(|_| ()),
        })
    }
}

/// Session `session`'s script of `len` requests: a one-item cart add
/// followed by a plain checkout, repeated, with pens in even sessions and
/// laptops in odd ones so the shared stock rows see contention. One
/// single-line cart per checkout and no vouchers: the corpus apps
/// (faithfully to their originals) interleave writes with per-line
/// validation and would leak partial state on a rejected multi-line or
/// voucher checkout even in a clean serial run.
pub fn session_script(session: usize, len: usize) -> impl Iterator<Item = Request> {
    let product = [PEN, LAPTOP][session % 2];
    (0..len).map(move |i| match i % 2 {
        0 => Request::AddToCart(product),
        _ => Request::Checkout,
    })
}

/// Zipfian sampler over `1..=n` via a precomputed CDF (ranks weighted
/// `1/rank^theta`).
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

    /// Draw one id in `1..=n` from a uniform `u64` (its top 53 bits).
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

/// A seeded stream of mix draws (splitmix64 underneath).
pub struct Mix {
    zipf: Zipf,
    state: u64,
}

impl Mix {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Mix {
        Mix {
            zipf: Zipf::new(CARTS, ZIPF_THETA),
            state: seed,
        }
    }

    /// The stream's next raw `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let draw = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        draw
    }

    /// Draw one call against a list of `apps` applications: the index of
    /// the application, the cart, and the request.
    pub fn draw(&mut self, apps: usize) -> (usize, i64, Request) {
        let app = (self.next_u64() % apps as u64) as usize;
        let raw = self.next_u64();
        let cart = self.zipf.sample(raw) as i64;
        let product = [PEN, LAPTOP][(self.next_u64() % 2) as usize];
        let request = if self.next_u64() % 10 < ADD_TENTHS {
            Request::AddToCart(product)
        } else {
            Request::Checkout
        };
        (app, cart, request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's storefront streams are built from these values, so
    /// they may not move by a bit.
    #[test]
    fn zipf_samples_are_pinned() {
        let zipf = Zipf::new(CARTS, ZIPF_THETA);
        let pins = [
            (0, 1),
            (1 << 62, 4),
            (0x9e37_79b9_7f4a_7c15, 61),
            (1 << 63, 25),
            (0xf000_0000_0000_0000, 637),
            (u64::MAX, 1000),
        ];
        for (raw, id) in pins {
            assert_eq!(zipf.sample(raw), id, "sample({raw:#x})");
        }
    }

    /// The stream is splitmix64's: the retry jitter's finalizer applied to
    /// a counter that steps by the golden gamma.
    #[test]
    fn mix_stream_is_splitmix64() {
        let mut mix = Mix::new(0);
        assert_eq!(mix.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(mix.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn mix_keeps_its_shares() {
        let mut mix = Mix::new(0xac1d);
        let draws: Vec<_> = (0..10_000).map(|_| mix.draw(12)).collect();
        let adds = draws
            .iter()
            .filter(|(_, _, r)| matches!(r, Request::AddToCart(_)))
            .count();
        assert!((6_800..7_200).contains(&adds), "{adds} adds in 10 000");
        assert!(draws
            .iter()
            .all(|&(app, cart, _)| app < 12 && (1..=CARTS as i64).contains(&cart)));
    }
}
