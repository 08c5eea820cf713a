//! Cross-crate pipeline tests: SQL text → database execution → query log
//! → trace lifting → abstract history → witness → live attack, plus the
//! figure-log fidelity checks (Figures 6–8).

use acidrain_apps::prelude::*;
use acidrain_core::{Analyzer, RefinementConfig};
use acidrain_db::IsolationLevel;
use acidrain_harness::attack::{probe_trace, run_attack, statement_index, Invariant};
use acidrain_harness::experiments::pentest_trace;

const ISO: IsolationLevel = IsolationLevel::MySqlRepeatableRead;

/// Every application's pen-test log parses, lifts, and analyzes.
#[test]
fn every_app_pentest_lifts_and_analyzes() {
    for app in all_apps() {
        let log = pentest_trace(app.as_ref(), ISO);
        assert!(!log.is_empty(), "{}", app.name());
        let analyzer = Analyzer::from_log(&log, &app.schema())
            .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
        let report = analyzer.analyze(&RefinementConfig::at_isolation(ISO));
        assert!(report.stats.operation_nodes > 0, "{}", app.name());
        // API nodes: add_to_cart and one or two checkout shapes.
        assert!(report.stats.api_nodes >= 2, "{}", app.name());
    }
}

/// The Figure-6 shape: Oscar's voucher probe runs inside the transaction
/// with a LIMIT-1 existence probe and an applications insert.
#[test]
fn figure6_oscar_voucher_log_shape() {
    let log = probe_trace(&Oscar, Invariant::Voucher, ISO).unwrap();
    let sqls: Vec<&str> = log.iter().map(|e| &*e.sql).collect();
    let autocommit_off = sqls
        .iter()
        .position(|s| s.contains("autocommit=0"))
        .unwrap();
    let probe = sqls
        .iter()
        .position(|s| s.contains("voucher_applications") && s.contains("LIMIT 1"))
        .unwrap();
    let insert = sqls
        .iter()
        .position(|s| s.starts_with("INSERT INTO voucher_applications"))
        .unwrap();
    let commit = sqls.iter().rposition(|s| *s == "COMMIT").unwrap();
    assert!(autocommit_off < probe && probe < insert && insert < commit);
}

/// The Figure-7 shape: Magento's guard read precedes the transaction that
/// takes FOR UPDATE and applies the CASE decrement.
#[test]
fn figure7_magento_inventory_log_shape() {
    let log = probe_trace(&Magento, Invariant::Inventory, ISO).unwrap();
    let sqls: Vec<&str> = log.iter().map(|e| &*e.sql).collect();
    let guard = sqls
        .iter()
        .position(|s| s.starts_with("SELECT stock FROM products"))
        .unwrap();
    let begin = sqls.iter().position(|s| *s == "START TRANSACTION").unwrap();
    let locked = sqls.iter().position(|s| s.ends_with("FOR UPDATE")).unwrap();
    let case_update = sqls
        .iter()
        .position(|s| s.contains("CASE id WHEN"))
        .unwrap();
    assert!(guard < begin && begin < locked && locked < case_update);
}

/// The Figure-8 shape: LFS wraps each write in its own ORM transaction
/// and reads the cart twice during checkout.
#[test]
fn figure8_lfs_cart_log_shape() {
    let log = probe_trace(&LightningFastShop, Invariant::Cart, ISO).unwrap();
    let sqls: Vec<&str> = log.iter().map(|e| &*e.sql).collect();
    // Each INSERT is sandwiched by autocommit toggling.
    for (i, s) in sqls.iter().enumerate() {
        if s.starts_with("INSERT INTO orders") || s.starts_with("INSERT INTO order_items") {
            assert_eq!(sqls[i - 1], "SET autocommit=0", "around {s}");
            assert_eq!(sqls[i + 1], "COMMIT", "around {s}");
        }
    }
    let checkout_reads = log
        .iter()
        .filter(|e| {
            e.api.as_ref().is_some_and(|t| t.name == "checkout")
                && e.sql.starts_with("SELECT")
                && e.sql.contains("cart_items")
        })
        .count();
    assert_eq!(checkout_reads, 2, "the two-read window of Figure 8");
}

/// Witness-driven attacks reproduce deterministically: same seed, same
/// violation, run after run.
#[test]
fn witness_attacks_are_deterministic() {
    let log = probe_trace(&PrestaShop, Invariant::Voucher, ISO).unwrap();
    let seed = log
        .iter()
        .find(|e| e.sql.contains("SELECT used FROM vouchers"))
        .expect("voucher read in probe");
    let (api, k) = statement_index(&log, seed.seq).unwrap();
    assert_eq!(api, "checkout");
    for _ in 0..3 {
        let v = run_attack(&PrestaShop, Invariant::Voucher, ISO, k)
            .expect("the double-spend reproduces every run");
        assert_eq!(v.invariant, "voucher");
    }
}

/// The unrefined analysis is a superset of the refined one.
#[test]
fn refinement_only_removes_findings() {
    for app in all_apps() {
        let log = pentest_trace(app.as_ref(), ISO);
        let analyzer = Analyzer::from_log(&log, &app.schema()).unwrap();
        let raw = analyzer.analyze(&RefinementConfig::none());
        let refined = analyzer.analyze(&RefinementConfig::at_isolation(ISO));
        assert!(
            refined.finding_count() <= raw.finding_count(),
            "{}: refinement must not invent witnesses",
            app.name()
        );
    }
}

/// Targeted analysis is a subset of the full analysis and runs over the
/// same graph (§4.2.3).
#[test]
fn targeted_analysis_is_a_subset() {
    let mut targets = Vec::new();
    for invariant in Invariant::ALL {
        targets.extend(invariant.targets());
    }
    for app in all_apps() {
        let log = pentest_trace(app.as_ref(), ISO);
        let analyzer = Analyzer::from_log(&log, &app.schema()).unwrap();
        let config = RefinementConfig::at_isolation(ISO);
        let full = analyzer.analyze(&config);
        let targeted = analyzer.analyze_targeted(&config, &targets);
        assert!(
            targeted.finding_count() <= full.finding_count(),
            "{}",
            app.name()
        );
        assert_eq!(targeted.stats, full.stats);
    }
}
