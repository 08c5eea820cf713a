//! Golden-file tests pinning the witness-replay verdicts — every static
//! finding's confirmed/blocked/inconclusive classification against the
//! live engine — for three representative applications at Read Committed
//! and Serializable, as text and (for the two small ones) as the JSON
//! document.
//!
//! The goldens live next to the static-audit goldens they complement
//! (`crates/static/tests/golden/`), prefixed `replay-`. Regenerate after
//! an intentional engine, detector, or renderer change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p acidrain-harness --test replay_golden
//! ```

#[path = "../../static/tests/support/golden.rs"]
mod support;

use acidrain_apps::endpoints::all_surfaces;
use acidrain_db::IsolationLevel;
use acidrain_harness::replay_surface;
use acidrain_static::{render_json, render_text, ReplayReport};

use support::check_golden;

/// The pinned levels: the paper's weak default family representative and
/// the strongest level (where only scope-based anomalies can confirm).
const LEVELS: [IsolationLevel; 2] = [IsolationLevel::ReadCommitted, IsolationLevel::Serializable];

/// Replay one app at the pinned levels only, so the golden file stays
/// small and focused on the RC-vs-SER contrast.
fn report_for(app: &str) -> ReplayReport {
    let surfaces = all_surfaces();
    let surface = surfaces
        .iter()
        .find(|s| s.app == app)
        .unwrap_or_else(|| panic!("no surface named {app}"));
    let replay = replay_surface(surface, &LEVELS).unwrap();
    ReplayReport { apps: vec![replay] }
}

#[test]
fn golden_replay_bank_figure1a() {
    // Didactic: the unscoped Figure-1a bank — the overdraft confirms at
    // both levels because the anomaly is scope-based.
    let report = report_for("bank-figure1a");
    check_golden("replay-bank-figure1a.txt", &render_text(&report));
    check_golden("replay-bank-figure1a.json", &render_json(&report));
}

#[test]
fn golden_replay_flexcoin() {
    // The §2 case study: the unguarded transfer confirms everywhere; the
    // FOR UPDATE-guarded withdraw is serially equivalent.
    let report = report_for("flexcoin");
    check_golden("replay-flexcoin.txt", &render_text(&report));
    check_golden("replay-flexcoin.json", &render_json(&report));
}

#[test]
fn golden_replay_prestashop() {
    // A PHP corpus app with session locking in the refinement config.
    let report = report_for("PrestaShop");
    check_golden("replay-PrestaShop.txt", &render_text(&report));
}
