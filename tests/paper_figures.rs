//! Integration tests pinning each figure of the paper to this
//! reproduction's behavior.

use acidrain_apps::didactic::Bank;
use acidrain_core::{AnomalyPattern, AnomalyScope, RefinementConfig};
use acidrain_db::IsolationLevel;
use acidrain_harness::experiments::figures;

#[test]
fn figure1_overdraft_matrix() {
    // (a) unscoped code: vulnerable at every isolation level.
    for level in IsolationLevel::ALL {
        let (balance, successes) = figures::figure1_withdraw(&Bank::figure_1a(), level);
        assert_eq!(successes, 2, "{level}: scope-based overdraft must manifest");
        assert_eq!(balance, 1);
    }
    // (b) transaction-wrapped: "vulnerable to attack at isolation levels
    // at or below Read Committed".
    for level in [
        IsolationLevel::ReadUncommitted,
        IsolationLevel::ReadCommitted,
        IsolationLevel::MySqlRepeatableRead,
    ] {
        let (_, successes) = figures::figure1_withdraw(&Bank::figure_1b(), level);
        assert_eq!(successes, 2, "{level}");
    }
    for level in [
        IsolationLevel::RepeatableRead,
        IsolationLevel::SnapshotIsolation,
        IsolationLevel::Serializable,
    ] {
        let (balance, successes) = figures::figure1_withdraw(&Bank::figure_1b(), level);
        assert_eq!(
            successes, 1,
            "{level}: strong isolation must stop the Lost Update"
        );
        assert_eq!(balance, 1);
    }
    // (c) "unless explicit locking such as SELECT FOR UPDATE is used".
    let (_, successes) = figures::figure1_withdraw(&Bank::fixed(), IsolationLevel::ReadCommitted);
    assert_eq!(successes, 1);
}

#[test]
fn figure3_log_matches_paper() {
    let log = figures::figure3_log();
    let statements: Vec<&str> = log.iter().map(|e| &*e.sql).collect();
    assert_eq!(
        statements,
        vec![
            "BEGIN TRANSACTION",
            "SELECT COUNT(*) FROM employees WHERE first_name='John' AND last_name='Doe'",
            "INSERT INTO employees (first_name, last_name, salary) VALUES ('John', 'Doe', 50000)",
            "COMMIT",
            "UPDATE employees SET salary=salary+1000",
            "BEGIN TRANSACTION",
            "SELECT COUNT(*) FROM employees",
            "UPDATE salary SET total=total+3000",
            "COMMIT",
        ]
    );
}

#[test]
fn figure4_abstract_history_structure() {
    let analyzer = figures::figure4_analyzer();
    let h = analyzer.history();
    let stats = h.stats();
    // Figure 4 draws 5 operation nodes across 3 transactions in 2 API
    // calls.
    assert_eq!(stats.operation_nodes, 5);
    assert_eq!(stats.txn_nodes, 3);
    assert_eq!(stats.api_nodes, 2);

    // Node ids in trace order: 0=count(names) 1=insert 2=raise-update
    // 3=count(*) 4=total-update. Figure 4's edges and non-edges:
    assert!(h.conflicts(0, 1));
    assert!(h.conflicts(1, 1), "insert self-loop");
    assert!(h.conflicts(1, 2), "insert vs salary raise (w)");
    assert!(h.conflicts(1, 3), "insert vs bare count (r)");
    assert!(h.conflicts(2, 2), "raise self-loop");
    assert!(h.conflicts(4, 4), "total-update self-loop");
    assert!(
        !h.conflicts(0, 2),
        "COUNT(names) must not conflict with the salary update"
    );
    assert!(
        !h.conflicts(2, 3),
        "bare COUNT must not conflict with the salary update"
    );
}

#[test]
fn figure5_witness_matches_paper_schedule() {
    let (finding, trace) = figures::figure5_witness();
    assert_eq!(finding.scope, AnomalyScope::ScopeBased);
    assert_eq!(finding.pattern, AnomalyPattern::Phantom);

    // The paper's Figure 5: a1 runs its blanket update, a2 (add_employee)
    // runs in full, a1 resumes with BEGIN/COUNT/UPDATE/COMMIT; the seed
    // pair is starred.
    let lines: Vec<(String, bool, String)> = trace
        .steps
        .iter()
        .map(|s| (s.instance.clone(), s.seed_marker, s.sql.clone()))
        .collect();
    assert_eq!(lines[0].0, "a1");
    assert!(lines[0].1, "first starred line is the blanket update");
    assert!(lines[0].2.contains("UPDATE employees"));
    let a2: Vec<&(String, bool, String)> = lines.iter().filter(|l| l.0 == "a2").collect();
    assert_eq!(a2.len(), 4, "BEGIN, COUNT, INSERT, COMMIT");
    let starred: Vec<&(String, bool, String)> = lines.iter().filter(|l| l.1).collect();
    assert_eq!(starred.len(), 2);
    assert!(starred[1].2.contains("SELECT COUNT(*) FROM employees"));
}

#[test]
fn figure5_execution_corrupts_the_ledger() {
    let (actual_cost, recorded_total) = figures::figure5_attack();
    assert_eq!(
        recorded_total, 103_000,
        "three employees counted at +1000 each"
    );
    assert_eq!(
        actual_cost, 102_000,
        "only the two existing employees were raised"
    );
}

#[test]
fn figure9_minishop_cycles() {
    let analyzer = figures::figure9_analyzer();
    let report = analyzer.analyze(&RefinementConfig::none());
    // The cart cycle: checkout's cart reads against add_to_cart's write.
    let cart = report
        .findings
        .iter()
        .find(|f| f.api == "checkout" && f.table == "cart_items")
        .expect("cart cycle");
    assert_eq!(cart.scope, AnomalyScope::ScopeBased);
    // The inventory cycle: checkout's stock read and stock write self-loop.
    let stock = report
        .findings
        .iter()
        .find(|f| f.api == "checkout" && f.table == "stock")
        .expect("inventory cycle");
    assert_eq!(stock.scope, AnomalyScope::ScopeBased);
}
