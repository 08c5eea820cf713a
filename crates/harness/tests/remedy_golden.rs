//! Golden-file tests pinning the repair adviser's output — the minimal
//! fix set, the alternatives count, and the post-fix witness verdict for
//! every finding — for two representative applications at Read Committed,
//! as text and (for flexcoin) as the JSON document.
//!
//! The goldens live next to the static-audit goldens they complement
//! (`crates/static/tests/golden/`), prefixed `remedy-`. Regenerate after
//! an intentional engine, detector, lattice, or renderer change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p acidrain-harness --test remedy_golden
//! ```

#[path = "../../static/tests/support/golden.rs"]
mod support;

use acidrain_apps::endpoints::all_surfaces;
use acidrain_db::{IsolationLevel, Obs};
use acidrain_harness::advise_surface;
use acidrain_static::{render_json, render_text, RemedyReport};

use support::check_golden;

/// The pinned level: the paper's weak default family representative,
/// where both lock promotions and isolation ladders are in play.
const LEVELS: [IsolationLevel; 1] = [IsolationLevel::ReadCommitted];

fn report_for(app: &str) -> RemedyReport {
    let surfaces = all_surfaces();
    let surface = surfaces
        .iter()
        .find(|s| s.app == app)
        .unwrap_or_else(|| panic!("no surface named {app}"));
    let advised = advise_surface(surface, &LEVELS, &Obs::new()).unwrap();
    RemedyReport {
        apps: vec![advised],
    }
}

#[test]
fn golden_remedy_flexcoin() {
    // The §2 case study: the unscoped transfer needs scoping before any
    // lock helps; the guarded withdraw needs nothing.
    let report = report_for("flexcoin");
    check_golden("remedy-flexcoin.txt", &render_text(&report));
    check_golden("remedy-flexcoin.json", &render_json(&report));
}

#[test]
fn golden_remedy_prestashop() {
    // A PHP corpus app whose endpoints are scope-repairable: exercises
    // the Scope tier plus FOR UPDATE / isolation escalation on top.
    let report = report_for("PrestaShop");
    check_golden("remedy-PrestaShop.txt", &render_text(&report));
}
