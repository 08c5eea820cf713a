//! The paper's tables and figures, and the §4.2.7 remediation experiment.

use acidrain_apps::didactic::Bank;
use acidrain_core::RefinementConfig;
use acidrain_db::IsolationLevel;
use acidrain_harness::experiments::{
    figures as fig, repairs as fixes, table1 as t1, table2 as t2, table4 as t4, table5 as t5,
    PAPER_DEFAULT_ISOLATION,
};

use crate::Args;

pub fn table1(_: &Args) {
    println!("Table 1 — application corpus");
    println!();
    let result = t1::run(PAPER_DEFAULT_ISOLATION);
    print!("{}", result.render());
    println!();
    println!(
        "(deployments/stars/LoC and 'Paper trace' are the paper's Table 1 verbatim; 'Our \
         trace' is the statement count of this reproduction's pen-test session — smaller \
         because the simulated endpoints issue no framework boilerplate)"
    );
}

pub fn table2(_: &Args) {
    println!("Table 2 — level-based anomalies by database isolation level");
    println!("(re-running the full corpus audit at each level; this takes a moment)");
    println!();
    let result = t2::run();
    print!("{}", result.render());
    println!();
    println!("paper reports: MySQL 5 (RC) / 0 (S) / 17; Oracle 5 (RC) / 1 (SI) / 17;");
    println!("               Postgres 5 (RC) / 0 (S) / 17; SAP HANA 5 (RC) / 1 (SI) / 17");
}

pub fn table4(_: &Args) {
    println!("Table 4 — abstract history sizes and analysis runtimes");
    println!();
    let result = t4::run(PAPER_DEFAULT_ISOLATION);
    print!("{}", result.render());
    println!();
    let (unfiltered, filtered) = result.median_findings();
    println!("median findings: {unfiltered} unfiltered, {filtered} after schema targeting");
    println!("(the paper reports medians of 726 and 37 on its much larger framework traces)");
    println!(
        "every analysis completed in under ten seconds: {}",
        if result.all_under_ten_seconds() {
            "YES (paper: YES)"
        } else {
            "NO (paper: YES)"
        }
    );
}

pub fn table5(args: &Args) {
    let isolation = args
        .value("--isolation")
        .map_or(PAPER_DEFAULT_ISOLATION, |text| args.level(text));

    println!("Table 5 — ACIDRain vulnerability matrix at {isolation}");
    println!();
    let result = t5::run(isolation);
    print!("{}", result.render());
    println!();
    let (voucher, inventory, cart) = result.per_invariant_counts();
    let (level, scope) = result.level_scope_split();
    println!(
        "vulnerabilities: {} total ({voucher} voucher, {inventory} inventory, {cart} cart; \
         {level} level-based, {scope} scope-based)",
        result.vulnerability_count()
    );
    if isolation == PAPER_DEFAULT_ISOLATION {
        println!(
            "paper reports:   22 total (8 voucher, 9 inventory, 5 cart; 5 level-based, \
             17 scope-based)"
        );
        println!(
            "matrix matches paper cell-for-cell: {}",
            if result.matches_paper() { "YES" } else { "NO" }
        );
    }
}

pub fn repairs(_: &Args) {
    println!("Remediation (§4.2.7): original vs scoped vs scoped+serializable");
    println!("(only applications without internal transaction control can be auto-scoped)");
    println!();
    let result = fixes::run();
    print!("{}", result.render());
    println!();
    println!(
        "full repair eliminates every vulnerability: {}",
        if result.full_repair_is_complete() {
            "YES"
        } else {
            "NO"
        }
    );
}

pub fn figures(_: &Args) {
    println!("Figure 1 — concurrent withdraw(99) x2 against balance 100");
    for (label, bank, iso) in [
        (
            "1a unscoped, Serializable",
            Bank::figure_1a(),
            IsolationLevel::Serializable,
        ),
        (
            "1b transaction, ReadCommitted",
            Bank::figure_1b(),
            IsolationLevel::ReadCommitted,
        ),
        (
            "1b transaction, SnapshotIsolation",
            Bank::figure_1b(),
            IsolationLevel::SnapshotIsolation,
        ),
        (
            "fixed (FOR UPDATE), ReadCommitted",
            Bank::fixed(),
            IsolationLevel::ReadCommitted,
        ),
    ] {
        let (balance, successes) = fig::figure1_withdraw(&bank, iso);
        println!(
            "  {label:<36} -> {successes} withdrawals succeeded, final balance {balance}{}",
            if successes == 2 {
                "  (OVERDRAWN: $198 withdrawn)"
            } else {
                ""
            }
        );
    }

    println!();
    println!("Figure 3b — payroll SQL log");
    for entry in fig::figure3_log() {
        println!("  {entry}");
    }

    println!();
    println!("Figure 4 — payroll abstract history");
    let analyzer = fig::figure4_analyzer();
    let stats = analyzer.history().stats();
    println!(
        "  {} operation nodes, {} transaction nodes ({} explicit), {} API nodes, {} edges",
        stats.operation_nodes, stats.txn_nodes, stats.explicit_txns, stats.api_nodes, stats.edges
    );
    let report = analyzer.analyze(&RefinementConfig::none());
    for finding in &report.findings {
        println!("  {}", analyzer.describe(finding));
    }

    println!();
    println!("Figure 5 — witness for the raise_salary/add_employee anomaly");
    let (_, trace) = fig::figure5_witness();
    print!("{trace}");
    let (expected, recorded) = fig::figure5_attack();
    println!(
        "  executed: salary ledger records {recorded} but actual salaries cost {expected} — \
         the new employee was counted but not raised"
    );

    println!();
    println!("Figure 9 — simplified shop abstract history");
    let analyzer = fig::figure9_analyzer();
    let stats = analyzer.history().stats();
    println!(
        "  {} operation nodes, {} transaction nodes, {} API nodes, {} edges",
        stats.operation_nodes, stats.txn_nodes, stats.api_nodes, stats.edges
    );
    let report = analyzer.analyze(&RefinementConfig::none());
    println!(
        "  {} potential anomalies, including:",
        report.finding_count()
    );
    for finding in report.findings.iter().take(4) {
        println!("  {}", analyzer.describe(finding));
    }
}
