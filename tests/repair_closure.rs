//! Cross-validation of the repair adviser: every level-based 2AD finding,
//! across the full surface registry and isolation matrix, must come back
//! with a fix set that is proven closed twice over —
//!
//! - **statically**: re-auditing the repaired trace under the repaired
//!   refinement config reports neither the original finding nor any new
//!   one (the adviser only emits candidates that pass this check), and
//! - **dynamically**: the original Lemma-4 witness, lowered onto the
//!   repaired scenario, no longer replays as *confirmed* against the live
//!   engine.
//!
//! Scope-based findings are allowed to stay open only when the endpoint
//! already issues its own transaction control (the `can_repair` gate:
//! wrapping such an endpoint in a synthetic transaction would nest
//! BEGINs), and then the outcome must carry a residual explaining why.
//!
//! The suite also pins minimality by example: the adviser must not
//! recommend a scope wrap or isolation bump where a single `FOR UPDATE`
//! promotion suffices, and must not stack redundant fixes.

use std::sync::OnceLock;

use acidrain_apps::endpoints::all_surfaces;
use acidrain_core::AnomalyScope;
use acidrain_db::{IsolationLevel, Obs};
use acidrain_harness::{advise_all, advise_surface};
use acidrain_static::{Fix, RemedyReport, Verdict};

/// The levels the closure sweep runs at: the weakest level (largest
/// anomaly surface), the paper's weak default family representative, and
/// the strongest level (where only scope-based anomalies survive). The
/// `acidrain advise` CI step enforces the same gate over all six levels.
const LEVELS: [IsolationLevel; 3] = [
    IsolationLevel::ReadUncommitted,
    IsolationLevel::ReadCommitted,
    IsolationLevel::Serializable,
];

/// The full sweep is expensive (twenty surfaces, three levels, one replay
/// per candidate), so the three suite-wide tests share one report.
fn advise(levels: &[IsolationLevel]) -> &'static RemedyReport {
    static REPORT: OnceLock<RemedyReport> = OnceLock::new();
    REPORT.get_or_init(|| advise_all(levels, &Obs::new()).unwrap())
}

#[test]
fn every_level_based_finding_gets_a_closing_fix() {
    let report = advise(&LEVELS);
    let unclosed = report.unclosed_level_based();
    assert!(
        unclosed.is_empty(),
        "level-based findings without a closing fix set: {:?}",
        unclosed
            .iter()
            .map(|(app, level, o)| format!(
                "{app} @ {}: {} on {} (API {})",
                level.name(),
                o.finding.pattern,
                o.finding.table,
                o.finding.api
            ))
            .collect::<Vec<_>>()
    );
}

#[test]
fn no_recommended_fix_survives_its_witness() {
    let report = advise(&LEVELS);
    let confirmed = report.confirmed_after_fix();
    assert!(
        confirmed.is_empty(),
        "fixes still confirmed on post-repair replay: {:?}",
        confirmed
            .iter()
            .map(|(app, level, o)| format!(
                "{app} @ {}: {} on {} fixed by {:?}",
                level.name(),
                o.finding.pattern,
                o.finding.table,
                o.recommended()
            ))
            .collect::<Vec<_>>()
    );
    // Stronger than the gate: every level-based finding must actually
    // have been replayed (or flagged unreplayable), never left silent.
    for app in &report.apps {
        for level in &app.levels {
            for scenario in &level.scenarios {
                for o in &scenario.outcomes {
                    if o.finding.scope == AnomalyScope::LevelBased {
                        assert!(
                            o.verdict.is_some(),
                            "{} @ {}: level-based finding never reached the replayer: {o:?}",
                            app.app,
                            level.level.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn open_findings_are_scope_based_and_explained() {
    // Whatever the adviser cannot close must be a scope-based anomaly on
    // an endpoint with internal transaction control, and must say so.
    let report = advise(&LEVELS);
    for app in &report.apps {
        for level in &app.levels {
            for scenario in &level.scenarios {
                for o in &scenario.outcomes {
                    if o.closed() {
                        continue;
                    }
                    assert_eq!(
                        o.finding.scope,
                        AnomalyScope::ScopeBased,
                        "{}: unclosed non-scope-based finding: {o:?}",
                        app.app
                    );
                    assert!(
                        o.residual.is_some(),
                        "{}: unclosed finding with no residual explanation: {o:?}",
                        app.app
                    );
                }
            }
        }
    }
}

#[test]
fn minimality_the_scoped_bank_race_needs_one_lock() {
    // bank-figure1b is already transaction-scoped; its RC lost update
    // needs exactly one FOR UPDATE promotion — a scope wrap or isolation
    // bump on top would be non-minimal.
    let surfaces = all_surfaces();
    let surface = surfaces.iter().find(|s| s.app == "bank-figure1b").unwrap();
    let advised = advise_surface(surface, &[IsolationLevel::ReadCommitted], &Obs::new()).unwrap();
    let rc = advised.level(IsolationLevel::ReadCommitted).unwrap();
    assert!(rc.finding_count() > 0);
    for scenario in &rc.scenarios {
        for o in &scenario.outcomes {
            let fix = o.recommended().expect("must close");
            assert_eq!(fix.len(), 1, "non-minimal fix set: {fix:?}");
            assert!(
                matches!(fix[0], Fix::ForUpdate { .. }),
                "cheapest closing fix should be a lock promotion: {fix:?}"
            );
            assert_ne!(o.verdict, Some(Verdict::Confirmed));
        }
    }
}

#[test]
fn minimality_recommended_sets_never_stack_redundant_fixes() {
    // Generic structural pin over the whole sweep: a minimal fix set
    // never contains two isolation bumps, two scope wraps for the same
    // API, or the same statement promoted twice.
    let report = advise(&LEVELS);
    for app in &report.apps {
        for level in &app.levels {
            for scenario in &level.scenarios {
                for o in &scenario.outcomes {
                    let Some(fix) = o.recommended() else { continue };
                    let isolations = fix
                        .iter()
                        .filter(|f| matches!(f, Fix::Isolation { .. }))
                        .count();
                    assert!(
                        isolations <= 1,
                        "{}: stacked isolation bumps: {fix:?}",
                        app.app
                    );
                    for (i, a) in fix.iter().enumerate() {
                        for b in &fix[i + 1..] {
                            assert_ne!(a, b, "{}: duplicate fix in set: {fix:?}", app.app);
                        }
                    }
                }
            }
        }
    }
}
