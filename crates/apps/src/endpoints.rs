//! The endpoint registry: every application's API surface, enumerable
//! without the harness.
//!
//! The static 2AD audit (crate `acidrain-static`) needs, for each
//! application, the list of scenarios it can record in one deterministic
//! solo pass — no concurrency, no scheduler — together with the metadata
//! the detector's refinement config depends on (schema, session locking).
//! This module is that registry.
//!
//! Corpus scenarios and the dynamic harness's probe traces
//! (`acidrain-harness::attack::probe_trace`) are one script,
//! [`record_shop_on`]: the same endpoints, invoked with the same
//! arguments, under the same API tags. That identity is what makes the
//! static report a superset of the dynamic one — both detectors lift the
//! same trace, and the static side runs the untargeted search.
//! `tests/static_superset.rs` pins the byte-level equality of the two
//! recordings.

use std::sync::Arc;

use acidrain_db::{Database, IsolationLevel, LogEntry};
use acidrain_sql::schema::Schema;

use crate::booking;
use crate::corpus::all_apps;
use crate::didactic::{self, Bank};
use crate::flexcoin::Flexcoin;
use crate::framework::{
    observed_request, AppError, AppResult, CheckoutRequest, FeatureStatus, ShopApp, LAPTOP, PEN,
    VOUCHER_CODE,
};

/// Quantity of laptops the inventory scenario adds to the cart — shared
/// with the dynamic harness so both record the same probe trace.
pub const INVENTORY_QTY: i64 = 3;

type Recorder = Box<dyn Fn(IsolationLevel) -> AppResult<Vec<LogEntry>> + Send + Sync>;
type StoreFactory = Box<dyn Fn(IsolationLevel) -> Arc<Database> + Send + Sync>;

/// One recordable solo pass over an application's endpoints.
pub struct Scenario {
    /// Scenario name; for corpus apps this is the invariant it exercises
    /// (`"voucher"`, `"inventory"`, `"cart"`).
    pub name: &'static str,
    /// API endpoints the scenario invokes, in order.
    pub endpoints: &'static [&'static str],
    store: StoreFactory,
    recorder: Recorder,
}

impl Scenario {
    fn new(
        name: &'static str,
        endpoints: &'static [&'static str],
        store: impl Fn(IsolationLevel) -> Arc<Database> + Send + Sync + 'static,
        recorder: impl Fn(IsolationLevel) -> AppResult<Vec<LogEntry>> + Send + Sync + 'static,
    ) -> Self {
        Scenario {
            name,
            endpoints,
            store: Box::new(store),
            recorder: Box::new(recorder),
        }
    }

    /// A fresh store in the same initial state [`Scenario::record`] starts
    /// from — the hook the witness replayer uses to re-bind a recorded
    /// schedule to live state. Calling this repeatedly yields independent,
    /// identically seeded databases.
    pub fn make_store(&self, isolation: IsolationLevel) -> Arc<Database> {
        (self.store)(isolation)
    }

    /// Record the scenario's tagged query log in one solo pass against a
    /// fresh store at `isolation`. Deterministic: no concurrent traffic
    /// runs, so the log depends only on the endpoint code.
    pub fn record(&self, isolation: IsolationLevel) -> AppResult<Vec<LogEntry>> {
        (self.recorder)(isolation)
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("endpoints", &self.endpoints)
            .finish_non_exhaustive()
    }
}

/// One application's auditable API surface.
pub struct AppSurface {
    /// Application name (corpus `ShopApp::name`, or the didactic app's).
    pub app: String,
    /// Whether the app serializes same-session requests (the refinement
    /// the dynamic detector applies via session locking on `cart_items`).
    pub session_locked: bool,
    /// The schema the recorded logs are lifted against.
    pub schema: Schema,
    /// Recordable scenarios, one per supported invariant or workflow.
    pub scenarios: Vec<Scenario>,
}

impl std::fmt::Debug for AppSurface {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppSurface")
            .field("app", &self.app)
            .field("session_locked", &self.session_locked)
            .field("scenarios", &self.scenarios)
            .finish_non_exhaustive()
    }
}

/// Run the shop scenario called `name` (`"voucher"`, `"inventory"` or
/// `"cart"`) as one solo pass on `db` and return the tagged query log. The
/// one script behind the registry's corpus recordings and the dynamic
/// harness's probe traces; the caller owns the store, so it can arm fault
/// injection first.
pub fn record_shop_on(
    app: &dyn ShopApp,
    db: &Arc<Database>,
    name: &str,
) -> AppResult<Vec<LogEntry>> {
    let (product, qty, request) = match name {
        "voucher" => (PEN, 1, CheckoutRequest::with_voucher(VOUCHER_CODE)),
        "inventory" => (LAPTOP, INVENTORY_QTY, CheckoutRequest::plain()),
        "cart" => (PEN, 1, CheckoutRequest::plain()),
        _ => return Err(AppError::Unsupported("no shop scenario of that name")),
    };
    let mut conn = db.connect();
    conn.set_api("add_to_cart", 0);
    observed_request(&mut conn, |c| app.add_to_cart(c, 1, product, qty))?;
    conn.set_api("checkout", 0);
    observed_request(&mut conn, |c| app.checkout(c, 1, &request))?;
    drop(conn);
    Ok(db.log_entries())
}

/// The twelve corpus applications' surfaces. A scenario appears only when
/// the app supports the invariant's feature — matching the dynamic
/// harness, which reports gated cells (no findings) for the rest.
pub fn corpus_surfaces() -> Vec<AppSurface> {
    all_apps()
        .into_iter()
        .map(|app| {
            let app: Arc<dyn ShopApp + Send + Sync> = Arc::from(app);
            let mut scenarios = Vec::new();
            for (name, support) in [
                ("voucher", app.voucher_support()),
                ("inventory", app.inventory_support()),
                ("cart", app.cart_support()),
            ] {
                if support != FeatureStatus::Supported {
                    continue;
                }
                let store_app = Arc::clone(&app);
                let app = Arc::clone(&app);
                scenarios.push(Scenario::new(
                    name,
                    &["add_to_cart", "checkout"],
                    move |iso| {
                        store_app.reset_session_state();
                        store_app.make_store(iso)
                    },
                    move |iso| {
                        app.reset_session_state();
                        record_shop_on(&*app, &app.make_store(iso), name)
                    },
                ));
            }
            AppSurface {
                app: app.name().to_string(),
                session_locked: app.session_locked(),
                schema: app.schema(),
                scenarios,
            }
        })
        .collect()
}

/// The paper's didactic applications: the three Figure-1 bank variants,
/// the Figure-3 payroll app, and the Figure-9 mini-shop.
pub fn didactic_surfaces() -> Vec<AppSurface> {
    let mut surfaces = Vec::new();

    for (name, make) in [
        ("bank-figure1a", Bank::figure_1a as fn() -> Bank),
        ("bank-figure1b", Bank::figure_1b as fn() -> Bank),
        ("bank-fixed", Bank::fixed as fn() -> Bank),
    ] {
        surfaces.push(AppSurface {
            app: name.to_string(),
            session_locked: false,
            schema: didactic::banking_schema(),
            scenarios: vec![Scenario::new(
                "withdraw",
                &["withdraw"],
                move |iso| make().make_bank(iso, 100),
                move |iso| {
                    let bank = make();
                    let db = bank.make_bank(iso, 100);
                    let mut conn = db.connect();
                    conn.set_api("withdraw", 0);
                    observed_request(&mut conn, |c| bank.withdraw(c, 1, 70))?;
                    drop(conn);
                    Ok(db.log_entries())
                },
            )],
        });
    }

    surfaces.push(AppSurface {
        app: "payroll".to_string(),
        session_locked: false,
        schema: didactic::payroll_schema(),
        scenarios: vec![Scenario::new(
            "payroll",
            &["add_employee", "raise_salary"],
            didactic::make_payroll,
            |iso| {
                let db = didactic::make_payroll(iso);
                let mut conn = db.connect();
                conn.set_api("add_employee", 0);
                observed_request(&mut conn, |c| {
                    didactic::add_employee(c, "John", "Doe", 50000)
                })?;
                conn.set_api("raise_salary", 0);
                observed_request(&mut conn, |c| didactic::raise_salary(c, 1000))?;
                drop(conn);
                Ok(db.log_entries())
            },
        )],
    });

    surfaces.push(AppSurface {
        app: "minishop".to_string(),
        session_locked: false,
        schema: didactic::minishop_schema(),
        scenarios: vec![Scenario::new(
            "cart",
            &["add_to_cart", "checkout"],
            didactic::make_minishop,
            |iso| {
                let db = didactic::make_minishop(iso);
                let mut conn = db.connect();
                conn.set_api("add_to_cart", 0);
                observed_request(&mut conn, |c| didactic::minishop_add_to_cart(c, 14, 1, 2))?;
                conn.set_api("checkout", 0);
                observed_request(&mut conn, |c| didactic::minishop_checkout(c, 14))?;
                drop(conn);
                Ok(db.log_entries())
            },
        )],
    });

    surfaces
}

/// The Flexcoin exchange's surface (§2 case study): the vulnerable
/// `transfer` endpoint plus the correctly guarded `withdraw`.
pub fn flexcoin_surface() -> AppSurface {
    AppSurface {
        app: "flexcoin".to_string(),
        session_locked: false,
        schema: crate::flexcoin::exchange_schema(),
        scenarios: vec![Scenario::new(
            "exchange",
            &["transfer", "withdraw"],
            |iso| Flexcoin.make_exchange(iso, 100, 10),
            |iso| {
                let db = Flexcoin.make_exchange(iso, 100, 10);
                let mut conn = db.connect();
                conn.set_api("transfer", 0);
                observed_request(&mut conn, |c| Flexcoin.transfer(c, 2, 3, 5))?;
                conn.set_api("withdraw", 0);
                observed_request(&mut conn, |c| Flexcoin.withdraw(c, 3, 5))?;
                drop(conn);
                Ok(db.log_entries())
            },
        )],
    }
}

/// The non-commerce surfaces: a banking-transfer service and a
/// ticketing (seat-reservation) app — fresh ground beyond the paper's
/// corpus, exercising the repair adviser's two regimes (level-based
/// fixes for the scoped-but-lock-free transfer, scope-first fixes for
/// the unscoped reservation).
pub fn booking_surfaces() -> Vec<AppSurface> {
    vec![
        AppSurface {
            app: "bank-transfer".to_string(),
            session_locked: false,
            schema: booking::transfer_schema(),
            scenarios: vec![Scenario::new(
                "transfer",
                &["transfer", "deposit"],
                |iso| booking::make_transfer_bank(iso, 100),
                |iso| {
                    let db = booking::make_transfer_bank(iso, 100);
                    let mut conn = db.connect();
                    conn.set_api("transfer", 0);
                    observed_request(&mut conn, |c| booking::transfer(c, 1, 2, 30))?;
                    conn.set_api("deposit", 0);
                    observed_request(&mut conn, |c| booking::deposit(c, 2, 10))?;
                    drop(conn);
                    Ok(db.log_entries())
                },
            )],
        },
        AppSurface {
            app: "ticketing".to_string(),
            session_locked: false,
            schema: booking::ticketing_schema(),
            scenarios: vec![Scenario::new(
                "reserve",
                &["reserve", "cancel"],
                |iso| booking::make_ticketing(iso, 3),
                |iso| {
                    let db = booking::make_ticketing(iso, 3);
                    let mut conn = db.connect();
                    conn.set_api("reserve", 0);
                    observed_request(&mut conn, |c| booking::reserve(c, 1))?;
                    conn.set_api("cancel", 0);
                    observed_request(&mut conn, |c| booking::cancel(c, 1))?;
                    drop(conn);
                    Ok(db.log_entries())
                },
            )],
        },
    ]
}

/// Every auditable surface: the corpus, the didactic apps, Flexcoin, and
/// the non-commerce booking apps.
pub fn all_surfaces() -> Vec<AppSurface> {
    let mut surfaces = corpus_surfaces();
    surfaces.extend(didactic_surfaces());
    surfaces.push(flexcoin_surface());
    surfaces.extend(booking_surfaces());
    surfaces
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_the_whole_corpus() {
        let surfaces = corpus_surfaces();
        assert_eq!(surfaces.len(), 12);
        // Every supported invariant appears as a scenario; gated features
        // do not.
        for (surface, app) in surfaces.iter().zip(all_apps()) {
            assert_eq!(surface.app, app.name());
            let names: Vec<&str> = surface.scenarios.iter().map(|s| s.name).collect();
            assert_eq!(
                names.contains(&"voucher"),
                app.voucher_support() == FeatureStatus::Supported
            );
            assert_eq!(
                names.contains(&"inventory"),
                app.inventory_support() == FeatureStatus::Supported
            );
            assert_eq!(
                names.contains(&"cart"),
                app.cart_support() == FeatureStatus::Supported
            );
        }
    }

    #[test]
    fn booking_surfaces_cover_fresh_ground() {
        let surfaces = booking_surfaces();
        assert_eq!(surfaces.len(), 2);
        assert_eq!(surfaces[0].app, "bank-transfer");
        assert_eq!(surfaces[1].app, "ticketing");
        // Both ride along in the full registry.
        let all = all_surfaces();
        for name in ["bank-transfer", "ticketing"] {
            assert!(all.iter().any(|s| s.app == name), "{name} missing");
        }
    }

    #[test]
    fn recordings_are_deterministic() {
        for surface in all_surfaces() {
            for scenario in &surface.scenarios {
                let a = scenario.record(IsolationLevel::ReadCommitted).unwrap();
                let b = scenario.record(IsolationLevel::ReadCommitted).unwrap();
                assert!(!a.is_empty(), "{}/{}", surface.app, scenario.name);
                let strip = |log: &[LogEntry]| {
                    log.iter()
                        .map(|e| (e.session, e.api.clone(), e.sql.clone()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(strip(&a), strip(&b), "{}/{}", surface.app, scenario.name);
            }
        }
    }

    #[test]
    fn stores_are_fresh_and_identically_seeded() {
        for surface in all_surfaces() {
            for scenario in &surface.scenarios {
                let a = scenario.make_store(IsolationLevel::ReadCommitted);
                let b = scenario.make_store(IsolationLevel::ReadCommitted);
                assert!(
                    !Arc::ptr_eq(&a, &b),
                    "{}/{}: make_store must not share state",
                    surface.app,
                    scenario.name
                );
                for table in surface.schema.tables() {
                    assert_eq!(
                        a.table_rows(&table.name).unwrap(),
                        b.table_rows(&table.name).unwrap(),
                        "{}/{}: table {} seeded differently",
                        surface.app,
                        scenario.name,
                        table.name
                    );
                }
            }
        }
    }

    #[test]
    fn scenarios_record_at_every_level() {
        for level in IsolationLevel::ALL {
            for surface in all_surfaces() {
                for scenario in &surface.scenarios {
                    scenario.record(level).unwrap_or_else(|e| {
                        panic!("{}/{} at {level:?}: {e}", surface.app, scenario.name)
                    });
                }
            }
        }
    }
}
