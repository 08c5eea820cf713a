//! ACIDRain attack execution: scripted pen-test trace generation, 2AD
//! witness-derived schedules, concurrent attack runs, and invariant
//! verification — the full Figure-2 workflow from public API calls to a
//! confirmed exploit.
//!
//! Each invariant's two racing requests are one [`Race`], an
//! [`crate::explore::Scenario`]: the witness attack ([`run_attack`]) and
//! its serial control ([`run_serial_control`]) are two schedules of it,
//! run through [`crate::explore::run_schedule`].

use std::sync::Arc;

use acidrain_apps::endpoints::record_shop_on;
use acidrain_apps::prelude::*;
use acidrain_core::{Analyzer, ColumnTarget};
use acidrain_db::{Database, FaultConfig, FaultStats, IsolationLevel, LogEntry};
use acidrain_static::refinement_at;

use crate::explore::{run_schedule, Scenario};
use crate::sched::Stepper;

/// The three target invariants (paper §4.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// Voucher usage stays within its limit (Table 3, I1).
    Voucher,
    /// Stock sold never exceeds stock on hand (Table 3, I2).
    Inventory,
    /// Order totals match their items (Table 3, I3).
    Cart,
}

impl Invariant {
    /// All three target invariants, in Table-5 column order.
    pub const ALL: [Invariant; 3] = [Invariant::Voucher, Invariant::Inventory, Invariant::Cart];

    /// The schema targets used for the paper's filtered analysis (§4.2.3).
    pub fn targets(self) -> Vec<ColumnTarget> {
        match self {
            Invariant::Voucher => vec![
                ColumnTarget::table("vouchers"),
                ColumnTarget::table("voucher_applications"),
            ],
            Invariant::Inventory => vec![
                ColumnTarget::column("products", "stock"),
                ColumnTarget::table("stock_adjustments"),
            ],
            Invariant::Cart => vec![ColumnTarget::table("cart_items")],
        }
    }

    /// Check this invariant over the store's committed state.
    pub fn check(self, db: &Database, app: &dyn ShopApp) -> Result<(), Violation> {
        match self {
            Invariant::Voucher => check_voucher(db),
            Invariant::Inventory => check_inventory(db, app.stock_model()),
            Invariant::Cart => check_cart(db),
        }
    }

    /// The feature gate that decides NF / BF / NDB cells.
    pub fn feature(self, app: &dyn ShopApp) -> FeatureStatus {
        match self {
            Invariant::Voucher => app.voucher_support(),
            Invariant::Inventory => app.inventory_support(),
            Invariant::Cart => app.cart_support(),
        }
    }
}

impl std::fmt::Display for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Invariant::Voucher => "voucher",
            Invariant::Inventory => "inventory",
            Invariant::Cart => "cart",
        })
    }
}

/// Quantity of laptops per cart in the inventory attack: two checkouts of
/// 3 each against a stock of 5 — individually fine, jointly overselling.
/// Shared with the endpoint registry, whose recording script is the probe
/// trace this module replays.
use acidrain_apps::endpoints::INVENTORY_QTY;

/// Run the scripted penetration-test session for `invariant` against a
/// fresh store and return the tagged query log (paper §3.1.1: "a 2AD
/// penetration tester could add items to the store cart, provide address
/// and payment details, then place an order").
pub fn probe_trace(
    app: &dyn ShopApp,
    invariant: Invariant,
    isolation: IsolationLevel,
) -> AppResult<Vec<LogEntry>> {
    app.reset_session_state();
    let db = app.make_store(isolation);
    probe_trace_on(app, &db, invariant)
}

/// [`probe_trace`] against a caller-provided store — the caller controls
/// the store's fault configuration and can inspect its [`FaultStats`]
/// after a failed probe. The script is the endpoint registry's
/// ([`record_shop_on`]), so the static audit records this same trace.
pub fn probe_trace_on(
    app: &dyn ShopApp,
    db: &Arc<Database>,
    invariant: Invariant,
) -> AppResult<Vec<LogEntry>> {
    record_shop_on(app, db, &invariant.to_string())
}

/// Locate `seq` in the probe log: which API invocation it belongs to and
/// its statement index within that invocation.
pub fn statement_index(log: &[LogEntry], seq: u64) -> Option<(String, usize)> {
    let entry = log.iter().find(|e| e.seq == seq)?;
    let tag = entry.api.as_deref()?;
    let index = log
        .iter()
        .filter(|e| e.api.as_deref() == Some(tag) && e.seq < seq)
        .count();
    Some((tag.name.clone(), index))
}

/// The two requests of one invariant's attack, racing on a store whose
/// carts are already filled — Table 5's attack and its serial control are
/// two schedules of this one [`Scenario`].
pub struct Race<'a> {
    /// Application under attack.
    pub app: &'a dyn ShopApp,
    /// The invariant the two requests race to break.
    pub invariant: Invariant,
    /// Isolation level of the attacked store.
    pub isolation: IsolationLevel,
}

impl Scenario for Race<'_> {
    fn sessions(&self) -> usize {
        2
    }

    /// A fresh store with the carts the two requests will use.
    fn make_store(&self) -> Arc<Database> {
        let app = self.app;
        let db = app.make_store(self.isolation);
        app.reset_session_state();
        let mut conn = db.connect();
        let carts: &[(i64, i64, i64)] = match self.invariant {
            // Disjoint products: the two checkouts share only the voucher
            // state, so nothing else (e.g. a stock row write conflict)
            // interferes with the double-spend.
            Invariant::Voucher => &[(1, PEN, 1), (2, LAPTOP, 1)],
            Invariant::Inventory => &[(1, LAPTOP, INVENTORY_QTY), (2, LAPTOP, INVENTORY_QTY)],
            Invariant::Cart => &[(1, PEN, 1)],
        };
        for &(cart, product, qty) in carts {
            app.add_to_cart(&mut conn, cart, product, qty)
                .expect("setup");
        }
        // Setup traffic must not pollute the attack analysis or the
        // log-based diagnostics.
        db.take_log();
        db
    }

    /// Voucher and inventory races are two checkouts of carts 1 and 2;
    /// the cart race is cart 1's checkout against an add to that cart.
    fn run_session(&self, index: usize, conn: &mut dyn SqlConn) {
        let app = self.app;
        let cart = index as i64 + 1;
        // Refused requests are expected; the verdict is the invariant's.
        let _ = match (self.invariant, index) {
            (Invariant::Voucher, _) => app
                .checkout(conn, cart, &CheckoutRequest::with_voucher(VOUCHER_CODE))
                .map(drop),
            (Invariant::Inventory, _) | (Invariant::Cart, 0) => app
                .checkout(conn, cart, &CheckoutRequest::plain())
                .map(drop),
            (Invariant::Cart, _) => app.add_to_cart(conn, 1, LAPTOP, 1),
        };
    }

    fn check(&self, db: &Database) -> Result<(), String> {
        self.invariant
            .check(db, self.app)
            .map_err(|v| v.to_string())
    }
}

/// Run `race` with session 0 executing its first `first` statements, then
/// session 1 to completion, then the rest of session 0 (`usize::MAX`
/// makes the schedule serial), and check the invariant.
fn run_race(race: Race<'_>, first: usize) -> Option<Violation> {
    let db = run_schedule(&race, |s: &mut Stepper| {
        s.run_statements(0, first);
        s.run_to_completion(1);
    });
    race.invariant.check(&db, race.app).err()
}

/// Execute the attack for `invariant` with session 0 paused after its
/// first `k + 1` statements (i.e. just after executing the witness's o₁),
/// while the second session runs to completion in the gap — the Lemma-4
/// schedule realized against the live store. Returns the violation the
/// attack produced, if any.
pub fn run_attack(
    app: &dyn ShopApp,
    invariant: Invariant,
    isolation: IsolationLevel,
    k: usize,
) -> Option<Violation> {
    // Both cart requests share the victim's session (the cart is session
    // state), and PHP session locking serializes them: execute
    // back-to-back instead of interleaved.
    let serial = invariant == Invariant::Cart && app.session_locked();
    let race = Race {
        app,
        invariant,
        isolation,
    };
    run_race(race, if serial { usize::MAX } else { k + 1 })
}

/// Serial control run (paper §4.2.4: "we further ensured that each
/// behavior was indeed unexpected by verifying the attack was not possible
/// under a serial execution"): the same two requests, one after another.
pub fn run_serial_control(
    app: &dyn ShopApp,
    invariant: Invariant,
    isolation: IsolationLevel,
) -> Option<Violation> {
    let race = Race {
        app,
        invariant,
        isolation,
    };
    run_race(race, usize::MAX)
}

/// One audited Table-5 cell: the computed result plus diagnostics.
#[derive(Debug)]
pub struct CellReport {
    /// Application under audit.
    pub app: &'static str,
    /// Invariant column of the cell.
    pub invariant: Invariant,
    /// The verdict (vulnerable / safe / NF / BF / NDB).
    pub cell: Cell,
    /// Witnesses 2AD reported for this invariant's target columns.
    pub witnesses: usize,
    /// How many witnesses were attacked before the verdict.
    pub attacks: usize,
    /// The confirming violation, when vulnerable.
    pub violation: Option<Violation>,
}

/// Where a degraded audit gave up (see [`AuditDegraded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditStage {
    /// The probe session itself failed (e.g. a fault surfaced through the
    /// application's error handling).
    Probe,
    /// The probe log could not be lifted into an abstract history.
    Analysis,
    /// The serial control run violated the invariant — the "attack" is
    /// not concurrency-dependent, so no verdict can be issued.
    SerialControl,
}

/// A partial audit result: instead of panicking mid-pipeline, the audit
/// reports which stage failed, why, and what the fault injector had done
/// to the probe store by that point.
#[derive(Debug, Clone)]
pub struct AuditDegraded {
    /// Which pipeline stage gave up.
    pub stage: AuditStage,
    /// What went wrong, verbatim.
    pub error: String,
    /// Injector activity on the probe store (all zeros when faults were
    /// not enabled).
    pub fault_stats: FaultStats,
}

impl std::fmt::Display for AuditDegraded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "audit degraded at {:?}: {} ({} injected faults)",
            self.stage,
            self.error,
            self.fault_stats.total_injected()
        )
    }
}

impl std::error::Error for AuditDegraded {}

/// Audit one application × invariant cell end-to-end: probe, analyze
/// (refined, targeted), attack each witness until one verifies, classify.
/// Panics if any pipeline stage fails; use [`try_audit_cell`] for
/// graceful degradation.
pub fn audit_cell(
    app: &dyn ShopApp,
    invariant: Invariant,
    isolation: IsolationLevel,
    max_attempts: usize,
) -> CellReport {
    match try_audit_cell(
        app,
        invariant,
        isolation,
        max_attempts,
        &FaultConfig::disabled(),
    ) {
        Ok(report) => report,
        Err(degraded) => panic!("{}: {degraded}", app.name()),
    }
}

/// [`audit_cell`] with graceful degradation: pipeline failures come back
/// as [`AuditDegraded`] (stage + cause + fault counts) instead of
/// panicking, and `faults` is enabled on the probe store so the audit
/// front end can be exercised under injected chaos. The attack replays
/// themselves always run fault-free — the witness-derived schedule must
/// stay deterministic for the verdict to mean anything.
pub fn try_audit_cell(
    app: &dyn ShopApp,
    invariant: Invariant,
    isolation: IsolationLevel,
    max_attempts: usize,
    faults: &FaultConfig,
) -> Result<CellReport, AuditDegraded> {
    // Feature gates first (the NF / BF / NDB cells).
    match invariant.feature(app) {
        FeatureStatus::NoFeature => return Ok(gated(app, invariant, Cell::NoFeature)),
        FeatureStatus::Broken => return Ok(gated(app, invariant, Cell::Broken)),
        FeatureStatus::NotDbBacked => return Ok(gated(app, invariant, Cell::NotDbBacked)),
        FeatureStatus::Supported => {}
    }

    app.reset_session_state();
    let probe_db = app.make_store(isolation);
    if faults.any_faults() || faults.max_latency.is_some() {
        probe_db.enable_faults(faults.clone());
    }
    let probe_result = probe_trace_on(app, &probe_db, invariant);
    let fault_stats = probe_db.fault_stats();
    let log = probe_result.map_err(|e| AuditDegraded {
        stage: AuditStage::Probe,
        error: e.to_string(),
        fault_stats,
    })?;
    let analyzer = Analyzer::from_log(&log, &app.schema()).map_err(|e| AuditDegraded {
        stage: AuditStage::Analysis,
        error: e.to_string(),
        fault_stats,
    })?;
    let config = refinement_at(isolation, app.session_locked());
    let report = analyzer.analyze_targeted(&config, &invariant.targets());
    let witnesses = report.findings.len();

    let mut attacks = 0;
    for finding in report.findings.iter() {
        if attacks >= max_attempts {
            break;
        }
        // Only seeds inside checkout drive our attack scripts.
        if finding.api != "checkout" {
            continue;
        }
        let Some(seq) = analyzer.history().op(finding.witness.o1).log_seq else {
            continue;
        };
        let Some((api, k)) = statement_index(&log, seq) else {
            continue;
        };
        if api != "checkout" {
            continue;
        }
        attacks += 1;
        if let Some(violation) = run_attack(app, invariant, isolation, k) {
            // Confirm the serial control preserves the invariant (C1).
            if let Some(control_violation) = run_serial_control(app, invariant, isolation) {
                return Err(AuditDegraded {
                    stage: AuditStage::SerialControl,
                    error: format!("serial control violated {invariant}: {control_violation:?}"),
                    fault_stats,
                });
            }
            // Classify the access pattern by the seed operation that
            // touches the invariant's columns (the paper's Table 5 "AP"
            // column describes how the *protected data* is accessed, not
            // whichever operation happened to open the cycle).
            let targets = invariant.targets();
            let o1 = analyzer.history().op(finding.witness.o1);
            let o2 = analyzer.history().op(finding.witness.o2);
            let target_op = if targets.iter().any(|t| t.matches(o1)) {
                o1
            } else {
                o2
            };
            let lost_update = target_op.access == acidrain_sql::AccessKind::KeyEq;
            let level_based = finding.scope == acidrain_core::AnomalyScope::LevelBased;
            let cell = if invariant == Invariant::Cart && app.total_from_request() {
                Cell::VulnStarred {
                    lost_update,
                    level_based,
                }
            } else {
                Cell::Vuln {
                    lost_update,
                    level_based,
                }
            };
            return Ok(CellReport {
                app: app.name(),
                invariant,
                cell,
                witnesses,
                attacks,
                violation: Some(violation),
            });
        }
    }

    Ok(CellReport {
        app: app.name(),
        invariant,
        cell: Cell::Safe,
        witnesses,
        attacks,
        violation: None,
    })
}

fn gated(app: &dyn ShopApp, invariant: Invariant, cell: Cell) -> CellReport {
    CellReport {
        app: app.name(),
        invariant,
        cell,
        witnesses: 0,
        attacks: 0,
        violation: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acidrain_apps::{can_repair, observed_request, Repair, Repaired};

    const ISO: IsolationLevel = IsolationLevel::MySqlRepeatableRead;

    #[test]
    fn probe_traces_are_tagged_and_parse() {
        let app = PrestaShop;
        for invariant in Invariant::ALL {
            let log = probe_trace(&app, invariant, ISO).unwrap();
            assert!(!log.is_empty());
            assert!(log.iter().all(|e| e.api.is_some()));
            Analyzer::from_log(&log, &app.schema()).unwrap();
        }
    }

    #[test]
    fn statement_index_locates_seed() {
        let log = probe_trace(&PrestaShop, Invariant::Voucher, ISO).unwrap();
        // Find the voucher counter read.
        let entry = log
            .iter()
            .find(|e| e.sql.contains("SELECT used FROM vouchers"))
            .unwrap();
        let (api, k) = statement_index(&log, entry.seq).unwrap();
        assert_eq!(api, "checkout");
        assert!(k > 0, "the voucher read is not checkout's first statement");
    }

    #[test]
    fn prestashop_voucher_attack_confirms() {
        // End-to-end: the witness-derived schedule double-spends the
        // voucher under MySQL-flavoured Repeatable Read.
        let report = audit_cell(&PrestaShop, Invariant::Voucher, ISO, 60);
        assert!(report.cell.is_vulnerable(), "{report:?}");
        assert_eq!(report.cell.lost_update(), Some(true));
        assert_eq!(report.cell.level_based(), Some(false));
    }

    #[test]
    fn spree_is_safe_but_witnessed() {
        // Spree's voucher anomaly is triggerable but benign (§4.2.5): 2AD
        // reports witnesses, every attack fails to violate the invariant.
        let report = audit_cell(&Spree, Invariant::Voucher, ISO, 60);
        assert_eq!(report.cell, Cell::Safe, "{report:?}");
        assert!(report.witnesses > 0, "the anomaly itself is real");
        assert!(report.attacks > 0);
    }

    #[test]
    fn spree_inventory_is_safe_and_lock_seed_removed() {
        // The FOR UPDATE refinement removes the level-based
        // (locked-read, update) seed; remaining cross-transaction
        // witnesses fail attack verification, so the cell is safe.
        let report = audit_cell(&Spree, Invariant::Inventory, ISO, 60);
        assert_eq!(report.cell, Cell::Safe, "{report:?}");

        let log = probe_trace(&Spree, Invariant::Inventory, ISO).unwrap();
        let analyzer = Analyzer::from_log(&log, &Spree.schema()).unwrap();
        let findings = analyzer
            .analyze_targeted(
                &acidrain_core::RefinementConfig::at_isolation(ISO),
                &Invariant::Inventory.targets(),
            )
            .findings;
        assert!(
            findings
                .iter()
                .all(|f| f.scope != acidrain_core::AnomalyScope::LevelBased),
            "the locked read-modify-write must not be reported"
        );
    }

    #[test]
    fn feature_gates_short_circuit() {
        assert_eq!(
            audit_cell(&Shopizer, Invariant::Voucher, ISO, 60).cell,
            Cell::NoFeature
        );
        assert_eq!(
            audit_cell(&Broadleaf, Invariant::Inventory, ISO, 60).cell,
            Cell::Broken
        );
        assert_eq!(
            audit_cell(&Saleor::new(), Invariant::Cart, ISO, 60).cell,
            Cell::NotDbBacked
        );
    }

    #[test]
    fn faulty_probe_degrades_instead_of_panicking() {
        let faults = FaultConfig::seeded(7).with_deadlock(1.0);
        let degraded =
            try_audit_cell(&PrestaShop, Invariant::Voucher, ISO, 60, &faults).unwrap_err();
        assert_eq!(degraded.stage, AuditStage::Probe);
        assert!(degraded.fault_stats.injected_deadlocks > 0);
        assert!(degraded.to_string().contains("degraded at Probe"));
    }

    #[test]
    fn try_audit_without_faults_matches_audit_cell() {
        let report = try_audit_cell(
            &PrestaShop,
            Invariant::Voucher,
            ISO,
            60,
            &FaultConfig::disabled(),
        )
        .unwrap();
        assert!(report.cell.is_vulnerable(), "{report:?}");
    }

    #[test]
    fn mild_faults_still_let_the_audit_complete() {
        // A probe under light latency jitter (no abort faults) produces
        // the same verdict as a clean probe.
        let faults = FaultConfig::seeded(11).with_max_latency(std::time::Duration::from_micros(50));
        let report = try_audit_cell(&PrestaShop, Invariant::Voucher, ISO, 60, &faults).unwrap();
        assert!(report.cell.is_vulnerable(), "{report:?}");
    }

    /// The serial control as it was before it became a schedule of
    /// [`Race`]: both requests on one blocking connection, one after the
    /// other. The reference [`run_serial_control`] is held to.
    fn reference_serial_control(
        app: &dyn ShopApp,
        invariant: Invariant,
        isolation: IsolationLevel,
    ) -> Option<Violation> {
        let db = Race {
            app,
            invariant,
            isolation,
        }
        .make_store();
        let mut conn = db.connect();
        let _request_ok = match invariant {
            Invariant::Voucher => vec![
                observed_request(&mut conn, |c| {
                    app.checkout(c, 1, &CheckoutRequest::with_voucher(VOUCHER_CODE))
                })
                .is_ok(),
                observed_request(&mut conn, |c| {
                    app.checkout(c, 2, &CheckoutRequest::with_voucher(VOUCHER_CODE))
                })
                .is_ok(),
            ],
            Invariant::Inventory => vec![
                observed_request(&mut conn, |c| app.checkout(c, 1, &CheckoutRequest::plain()))
                    .is_ok(),
                observed_request(&mut conn, |c| app.checkout(c, 2, &CheckoutRequest::plain()))
                    .is_ok(),
            ],
            Invariant::Cart => vec![
                observed_request(&mut conn, |c| app.checkout(c, 1, &CheckoutRequest::plain()))
                    .is_ok(),
                observed_request(&mut conn, |c| app.add_to_cart(c, 1, LAPTOP, 1)).is_ok(),
            ],
        };
        drop(conn);
        invariant.check(&db, app).err()
    }

    #[test]
    fn serial_controls_hold_for_all_apps() {
        // Every app and its repaired variants, every supported invariant,
        // every level: the two-session serial schedule gives the
        // one-connection loop's answer, and that answer is "no violation".
        let mut compared = 0;
        for app in all_apps() {
            let app: &dyn ShopApp = app.as_ref();
            let repaired = if can_repair(app) {
                vec![
                    Repaired::new(app, Repair::TransactionScoping),
                    Repaired::new(app, Repair::ScopingAndSerializable),
                ]
            } else {
                Vec::new()
            };
            let apps = std::iter::once(app).chain(repaired.iter().map(|r| r as &dyn ShopApp));
            for app in apps {
                for invariant in Invariant::ALL {
                    if invariant.feature(app) != FeatureStatus::Supported {
                        continue;
                    }
                    for level in IsolationLevel::ALL {
                        let control = run_serial_control(app, invariant, level);
                        let reference = reference_serial_control(app, invariant, level);
                        let at = format!("{} {invariant} @ {level:?}", app.name());
                        assert_eq!(format!("{control:?}"), format!("{reference:?}"), "{at}");
                        assert!(control.is_none(), "{at}: {control:?}");
                        compared += 1;
                    }
                }
            }
        }
        assert_eq!(compared, 324);
    }
}
