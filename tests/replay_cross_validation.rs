//! Cross-validation of the witness replayer against the dynamic detector.
//!
//! `tests/static_superset.rs` proves dynamic ⊆ static: every finding the
//! dynamic targeted analysis reports appears in the static audit. This
//! suite closes the loop on the replay side, for every corpus app ×
//! supported invariant × isolation level:
//!
//! - every dynamic finding's static counterpart must get a *definitive,
//!   execution-backed* classification: **confirmed** (the witness
//!   schedule ran and the outcome diverged from every serial order),
//!   **blocked** (the engine refused the interleaving — e.g. Magento's
//!   `FOR UPDATE` on products really does serialize the stock update, the
//!   paper's app-level defense case), or benign — executed cleanly but
//!   *serially equivalent*, the harmless-anomaly case (not every abstract
//!   cycle violates an invariant: two checkouts clearing the same cart
//!   form a real WW cycle whose every interleaving matches a serial
//!   order). What a dynamic finding must **never** be is unrealizable:
//!   the dynamic harness derived it from a live trace, so a plan that
//!   cannot even be attempted is a lowering bug in the replayer, not an
//!   engine property.
//! - at Read Uncommitted — the one level with no isolation-side defense
//!   left — wherever the dynamic detector reports *any* finding, at least
//!   one replay outcome for that scenario must be confirmed: the
//!   vulnerability the dynamic detector flags is executable on the live
//!   engine, not just abstract. (At stronger levels a whole scenario can
//!   legitimately block: Oscar's voucher witnesses all die to
//!   first-committer-wins at Snapshot Isolation.)

use acidrain_apps::endpoints::corpus_surfaces;
use acidrain_apps::prelude::*;
use acidrain_core::Analyzer;
use acidrain_db::IsolationLevel;
use acidrain_harness::attack::{probe_trace, Invariant};
use acidrain_harness::replay_surface;
use acidrain_static::{refinement_for, ReplayOutcome, StaticFinding, Verdict};

/// A dynamic finding projected onto the fields the static report shares
/// (the same projection `static_superset.rs` uses).
#[derive(Debug, PartialEq, Eq)]
struct Key {
    api: String,
    scope: String,
    pattern: String,
    table: String,
    instances: usize,
}

impl Key {
    fn of_static(f: &StaticFinding) -> Key {
        Key {
            api: f.api.clone(),
            scope: f.scope.to_string(),
            pattern: f.pattern.to_string(),
            table: f.table.clone(),
            instances: f.instances,
        }
    }

    fn of_dynamic(f: &acidrain_core::Finding) -> Key {
        Key {
            api: f.api.clone(),
            scope: f.scope.to_string(),
            pattern: f.pattern.to_string(),
            table: f.table.clone(),
            instances: f.witness.instances,
        }
    }
}

#[test]
fn every_dynamic_finding_is_confirmed_by_replay() {
    let surfaces = corpus_surfaces();
    for app in all_apps() {
        let surface = surfaces
            .iter()
            .find(|s| s.app == app.name())
            .unwrap_or_else(|| panic!("no registry surface for {}", app.name()));
        let replay = replay_surface(surface, &IsolationLevel::ALL)
            .unwrap_or_else(|e| panic!("{}: replay failed: {e}", app.name()));
        for invariant in Invariant::ALL {
            if invariant.feature(app.as_ref()) != FeatureStatus::Supported {
                continue;
            }
            for level in IsolationLevel::ALL {
                // The dynamic side, exactly as `try_audit_cell` runs it.
                let log = probe_trace(app.as_ref(), invariant, level)
                    .unwrap_or_else(|e| panic!("{} {invariant} probe: {e}", app.name()));
                let analyzer = Analyzer::from_log(&log, &app.schema()).unwrap();
                let config = refinement_for(surface, level);
                let dynamic = analyzer.analyze_targeted(&config, &invariant.targets());
                if dynamic.findings.is_empty() {
                    continue;
                }

                let outcomes: &[ReplayOutcome] = replay
                    .level(level)
                    .unwrap_or_else(|| panic!("{}: no replay at {level:?}", app.name()))
                    .scenarios
                    .iter()
                    .find(|s| s.scenario == invariant.to_string())
                    .map(|s| s.outcomes.as_slice())
                    .unwrap_or_else(|| panic!("{}: no {invariant} replay", app.name()));

                if level == IsolationLevel::ReadUncommitted {
                    assert!(
                        outcomes
                            .iter()
                            .any(|o| matches!(o.verdict, Verdict::Confirmed)),
                        "{} {invariant} at {}: dynamic detector reports {} findings but \
                         the replayer confirmed none",
                        app.name(),
                        level.name(),
                        dynamic.findings.len()
                    );
                }
                for finding in &dynamic.findings {
                    let key = Key::of_dynamic(finding);
                    let executed = outcomes.iter().any(|o| {
                        if Key::of_static(&o.finding) != key {
                            return false;
                        }
                        match &o.verdict {
                            Verdict::Confirmed | Verdict::Blocked(_) => true,
                            Verdict::Inconclusive(why) => why.contains("serially equivalent"),
                        }
                    });
                    assert!(
                        executed,
                        "{} {invariant} at {}: dynamic finding {key:?} has no \
                         execution-backed verdict under replay (outcomes: {:?})",
                        app.name(),
                        level.name(),
                        outcomes
                            .iter()
                            .map(|o| format!(
                                "{:?} -> {}",
                                Key::of_static(&o.finding),
                                o.verdict.label()
                            ))
                            .collect::<Vec<_>>()
                    );
                }
            }
        }
    }
}
