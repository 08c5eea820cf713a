//! Golden-file tests pinning the `static_audit` report — full witness
//! provenance included — for three representative applications at Read
//! Committed and Serializable, as text and (for the two small ones) as
//! the JSON document.
//!
//! Regenerate after an intentional detector or renderer change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p acidrain-static --test golden
//! ```

#[path = "support/golden.rs"]
mod support;

use acidrain_apps::endpoints::all_surfaces;
use acidrain_db::IsolationLevel;
use acidrain_static::{audit_surface, render_json, render_text, StaticAuditReport};

use support::check_golden;

/// The pinned levels: the paper's weak default family representative and
/// the strongest level (where only scope-based anomalies remain).
const LEVELS: [IsolationLevel; 2] = [IsolationLevel::ReadCommitted, IsolationLevel::Serializable];

/// Audit one app and keep only the pinned levels, so the golden file stays
/// small and focused on the RC-vs-SER contrast.
fn report_for(app: &str) -> StaticAuditReport {
    let surfaces = all_surfaces();
    let surface = surfaces
        .iter()
        .find(|s| s.app == app)
        .unwrap_or_else(|| panic!("no surface named {app}"));
    let mut audit = audit_surface(surface).unwrap();
    audit.levels.retain(|l| LEVELS.contains(&l.level));
    StaticAuditReport { apps: vec![audit] }
}

#[test]
fn golden_bank_figure1a() {
    // Didactic: the unscoped Figure-1a bank — identical findings at RC
    // and SER because everything is scope-based.
    let report = report_for("bank-figure1a");
    check_golden("bank-figure1a.txt", &render_text(&report));
    check_golden("bank-figure1a.json", &render_json(&report));
}

#[test]
fn golden_flexcoin() {
    // The §2 case study: the unguarded transfer endpoint.
    let report = report_for("flexcoin");
    check_golden("flexcoin.txt", &render_text(&report));
    check_golden("flexcoin.json", &render_json(&report));
}

#[test]
fn golden_prestashop() {
    // A PHP corpus app with session locking in the refinement config.
    check_golden("PrestaShop.txt", &render_text(&report_for("PrestaShop")));
}
