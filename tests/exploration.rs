//! Interleaving-space exploration over the real application corpus:
//! randomized model checking confirms the Table-5 verdicts from the
//! opposite direction — instead of attacking one witness schedule, sample
//! the schedule space and check every outcome.

use std::sync::Arc;

use acidrain_apps::prelude::*;
use acidrain_db::{Database, IsolationLevel};
use acidrain_harness::explore::{exhaustive, randomized, Scenario};
use acidrain_harness::{Invariant, Race};

const ISO: IsolationLevel = IsolationLevel::MySqlRepeatableRead;

/// Two concurrent voucher checkouts on disjoint carts.
fn voucher_race(app: &dyn ShopApp) -> Race<'_> {
    Race {
        app,
        invariant: Invariant::Voucher,
        isolation: ISO,
    }
}

/// Checkout racing an add-to-cart on the same cart.
fn cart_race(app: &dyn ShopApp) -> Race<'_> {
    Race {
        app,
        invariant: Invariant::Cart,
        isolation: ISO,
    }
}

#[test]
fn sampled_schedules_double_spend_prestashop_vouchers() {
    let result = randomized(&voucher_race(&PrestaShop), 30, 11);
    assert_eq!(result.schedules_run, 30);
    assert!(
        !result.all_safe(),
        "30 random interleavings should include a double-spend"
    );
}

#[test]
fn sampled_schedules_never_break_spree_vouchers() {
    let result = randomized(&voucher_race(&Spree), 30, 11);
    assert_eq!(result.schedules_run, 30);
    assert!(result.all_safe(), "{:?}", result.violations);
}

#[test]
fn sampled_schedules_steal_from_lfs_carts_but_not_prestashop() {
    let vulnerable = randomized(&cart_race(&LightningFastShop), 30, 5);
    assert!(
        !vulnerable.all_safe(),
        "the two-read cart window must be sampled"
    );

    let safe = randomized(&cart_race(&PrestaShop), 30, 5);
    assert!(
        safe.all_safe(),
        "single-read carts are immune: {:?}",
        safe.violations
    );
}

#[test]
fn exhaustive_minishop_add_to_cart_race() {
    // Figure 9's add_to_cart racing itself: both see the same cart/stock
    // and may jointly exceed available stock in the cart. The invariant
    // checked here is weaker (no negative stock results from adds alone),
    // demonstrating a fully enumerated schedule space on a real endpoint.
    use acidrain_apps::didactic::{make_minishop, minishop_add_to_cart};

    struct AddRace;
    impl Scenario for AddRace {
        fn sessions(&self) -> usize {
            2
        }
        fn make_store(&self) -> Arc<Database> {
            make_minishop(ISO)
        }
        fn run_session(&self, _index: usize, conn: &mut dyn SqlConn) {
            let _ = minishop_add_to_cart(conn, 14, 1, 6);
        }
        fn check(&self, db: &Database) -> Result<(), String> {
            // Stock is 10; each add of 6 is individually fine, but a
            // serial pair must reject the second (6 + 6 > 10). The cart
            // exceeding stock is the anomaly.
            let cart: i64 = db
                .table_rows("cart_items")
                .unwrap()
                .iter()
                .map(|r| r[2].as_i64().unwrap())
                .sum();
            if cart > 10 {
                return Err(format!("cart holds {cart} with only 10 in stock"));
            }
            Ok(())
        }
    }

    let result = exhaustive(&AddRace, 10_000);
    assert!(result.complete, "schedule space small enough to enumerate");
    assert!(result.schedules_run > 10);
    assert!(
        !result.all_safe(),
        "the guard-bypass interleaving exists in the enumerated space"
    );
}
