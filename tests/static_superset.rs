//! Cross-validation of the static 2AD audit against the dynamic detector.
//!
//! The superset guarantee has three legs, each pinned here:
//!
//! 1. **Same trace** — the endpoint registry's solo recordings are
//!    statement-for-statement identical to the dynamic harness's probe
//!    traces, for every corpus app × invariant × isolation level.
//! 2. **Same refinements, wider search** — the static audit applies the
//!    exact refinement config `try_audit_cell` uses but runs the
//!    *untargeted* search, so every finding the dynamic targeted analysis
//!    reports maps into the static report.
//! 3. **Symbolization loses nothing** — template abstraction rewrites
//!    only the rendered SQL; the abstract history over the symbolized
//!    trace equals the concrete one in everything but that text, and its
//!    findings (witnesses included) are identical, for every registered
//!    surface (corpus, didactic, and Flexcoin) at every level.
//!
//! Plus the Serializable column: the static report admits no level-based
//! anomaly at Serializable for any app (scope-based anomalies survive by
//! design — isolation cannot remove them, paper §3.1.4).

use acidrain_apps::endpoints::{all_surfaces, corpus_surfaces};
use acidrain_apps::prelude::*;
use acidrain_core::{lift_trace, Analyzer, AnomalyScope, Op};
use acidrain_db::{IsolationLevel, LogEntry};
use acidrain_harness::attack::{probe_trace, Invariant};
use acidrain_static::{audit_surface, refinement_for, symbolize_trace, AppAudit, StaticFinding};

/// The log fields both recorders control (`seq` is a global allocation
/// counter, irrelevant to equality of the recorded statements).
fn strip(log: &[LogEntry]) -> Vec<(u64, Option<String>, String)> {
    log.iter()
        .map(|e| {
            (
                e.session,
                e.api
                    .as_ref()
                    .map(|t| format!("{}#{}", t.name, t.invocation)),
                e.sql.to_string(),
            )
        })
        .collect()
}

/// A dynamic finding projected onto the fields the static report shares.
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

/// The static findings for one scenario at one level.
fn static_findings<'a>(
    audit: &'a AppAudit,
    level: IsolationLevel,
    scenario: &str,
) -> &'a [StaticFinding] {
    audit
        .level(level)
        .unwrap_or_else(|| panic!("{}: no audit at {level:?}", audit.app))
        .scenarios
        .iter()
        .find(|s| s.scenario == scenario)
        .map(|s| s.findings.as_slice())
        .unwrap_or_else(|| panic!("{}: no scenario {scenario}", audit.app))
}

#[test]
fn registry_recordings_mirror_probe_traces() {
    // Leg 1: byte-identical recorded statements, every corpus app ×
    // supported invariant × isolation level.
    let surfaces = corpus_surfaces();
    for app in all_apps() {
        let surface = surfaces
            .iter()
            .find(|s| s.app == app.name())
            .unwrap_or_else(|| panic!("no registry surface for {}", app.name()));
        for invariant in Invariant::ALL {
            if invariant.feature(app.as_ref()) != FeatureStatus::Supported {
                continue;
            }
            let scenario = surface
                .scenarios
                .iter()
                .find(|s| s.name == invariant.to_string())
                .unwrap_or_else(|| panic!("{}: no {invariant} scenario", app.name()));
            for level in IsolationLevel::ALL {
                let dynamic = probe_trace(app.as_ref(), invariant, level)
                    .unwrap_or_else(|e| panic!("{} {invariant} probe: {e}", app.name()));
                let recorded = scenario
                    .record(level)
                    .unwrap_or_else(|e| panic!("{} {invariant} record: {e}", app.name()));
                assert_eq!(
                    strip(&dynamic),
                    strip(&recorded),
                    "{} {invariant} at {}: registry recording diverges from probe trace",
                    app.name(),
                    level.name()
                );
            }
        }
    }
}

#[test]
fn static_report_is_a_superset_of_dynamic_findings() {
    // Leg 2: every finding the dynamic targeted analysis produces maps
    // into the static report's findings for the same app, scenario, and
    // level — same seed API, scope, pattern, table, and instance count.
    let surfaces = corpus_surfaces();
    for app in all_apps() {
        let surface = surfaces.iter().find(|s| s.app == app.name()).unwrap();
        let audit = audit_surface(surface).unwrap();
        for invariant in Invariant::ALL {
            if invariant.feature(app.as_ref()) != FeatureStatus::Supported {
                continue;
            }
            for level in IsolationLevel::ALL {
                // The dynamic side, exactly as `try_audit_cell` runs it.
                let log = probe_trace(app.as_ref(), invariant, level).unwrap();
                let analyzer = Analyzer::from_log(&log, &app.schema()).unwrap();
                let config = refinement_for(surface, level);
                let dynamic = analyzer.analyze_targeted(&config, &invariant.targets());

                let statics = static_findings(&audit, level, &invariant.to_string());
                let static_keys: Vec<Key> = statics.iter().map(Key::of_static).collect();
                for finding in &dynamic.findings {
                    let key = Key::of_dynamic(finding);
                    assert!(
                        static_keys.contains(&key),
                        "{} {invariant} at {}: dynamic finding {key:?} missing from \
                         static report (static has {static_keys:?})",
                        app.name(),
                        level.name()
                    );
                }
                // The untargeted search is at least as wide.
                assert!(
                    statics.len() >= dynamic.findings.len(),
                    "{} {invariant} at {}: static {} < dynamic {}",
                    app.name(),
                    level.name(),
                    statics.len(),
                    dynamic.findings.len()
                );
            }
        }
    }
}

#[test]
fn symbolization_preserves_findings_for_every_surface() {
    // Leg 3: template abstraction changes only the rendered SQL, so the
    // concrete and symbolized traces build the same abstract history —
    // every operation equal but for `sql` (`log_seq` included), the same
    // locations and edges — and yield the same findings, witnesses
    // included, for every registered surface (corpus, didactic, Flexcoin)
    // at every level. This extends the cross-validation to the apps the
    // dynamic harness has no probe script for, and it is what lets one
    // analysis serve both the printed templates and the replayed log.
    let sql_blind = |op: &Op| Op {
        sql: String::new(),
        ..op.clone()
    };
    for surface in all_surfaces() {
        for scenario in &surface.scenarios {
            for level in IsolationLevel::ALL {
                let at = format!("{}/{} at {}", surface.app, scenario.name, level.name());
                let log = scenario.record(level).unwrap();
                let config = refinement_for(&surface, level);

                let concrete = Analyzer::from_log(&log, &surface.schema).unwrap();
                let mut trace = lift_trace(&log, &surface.schema).unwrap();
                symbolize_trace(&mut trace).unwrap();
                let symbolic = Analyzer::from_trace(trace);

                let (c, s) = (concrete.history(), symbolic.history());
                assert_eq!(c.locs, s.locs, "{at}: operation locations differ");
                assert_eq!(c.edge_count(), s.edge_count(), "{at}: edge count differs");
                assert_eq!(c.edges, s.edges, "{at}: conflict edges differ");
                for node in 0..c.node_count() {
                    assert_eq!(
                        sql_blind(c.op(node)),
                        sql_blind(s.op(node)),
                        "{at}: operation {node} differs beyond its SQL"
                    );
                }
                assert_eq!(
                    concrete.analyze(&config).findings,
                    symbolic.analyze(&config).findings,
                    "{at}: symbolization changed the findings"
                );
            }
        }
    }
}

#[test]
fn serializable_admits_no_level_based_anomaly_anywhere() {
    // The Serializable column of the static report: zero level-based
    // anomalies for every registered surface. What remains at SER is
    // scope-based — anomalies between transactions of the same API call,
    // which no isolation level can remove (paper §3.1.4, §4.2.5).
    for surface in all_surfaces() {
        let audit = audit_surface(&surface).unwrap();
        let ser = audit.level(IsolationLevel::Serializable).unwrap();
        for scenario in &ser.scenarios {
            for finding in &scenario.findings {
                assert_eq!(
                    finding.scope,
                    AnomalyScope::ScopeBased,
                    "{}/{} at Serializable admits a level-based anomaly: {finding:?}",
                    surface.app,
                    scenario.scenario
                );
            }
        }
    }
}
