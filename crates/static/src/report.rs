//! Report rendering: JSON and a fixed-width text table.
//!
//! Both renderings are fully deterministic (no timestamps, no durations,
//! stable ordering), so they double as golden-file material: any drift in
//! templates, refinement behaviour, or the detector shows up as a diff.

use acidrain_db::{field, IsolationLevel, Json};

use crate::audit::{LevelAudit, SeedRef, StaticAuditReport, StaticFinding};
use crate::serialize::document;

/// Short column header per level, in [`IsolationLevel::ALL`] order.
pub(crate) fn level_abbrev(level: IsolationLevel) -> &'static str {
    match level {
        IsolationLevel::ReadUncommitted => "RU",
        IsolationLevel::ReadCommitted => "RC",
        IsolationLevel::MySqlRepeatableRead => "MySQL-RR",
        IsolationLevel::RepeatableRead => "RR",
        IsolationLevel::SnapshotIsolation => "SI",
        IsolationLevel::Serializable => "SER",
    }
}

fn seed_value(s: &SeedRef) -> Json {
    Json::Obj(vec![
        field("position", Json::Num(s.position as u64)),
        field("fingerprint", Json::Num(s.fingerprint)),
        field("template", Json::str(&s.template)),
    ])
}

pub(crate) fn finding_value(f: &StaticFinding) -> Json {
    Json::Obj(vec![
        field("api", Json::str(&f.api)),
        field("scope", Json::str(f.scope.to_string())),
        field("pattern", Json::str(f.pattern.to_string())),
        field("table", Json::str(&f.table)),
        field("instances", Json::Num(f.instances as u64)),
        field(
            "seed",
            Json::Arr(vec![seed_value(&f.seed.0), seed_value(&f.seed.1)]),
        ),
        field(
            "witness",
            Json::Arr(f.witness.iter().map(Json::str).collect()),
        ),
    ])
}

/// Render the audit as JSON (deterministic, schema-stable; shares the
/// [`crate::serialize::SCHEMA_VERSION`] stamp with the replay and
/// adviser reports).
pub fn render_json(report: &StaticAuditReport) -> String {
    let apps = report
        .apps
        .iter()
        .map(|app| {
            let levels = app
                .levels
                .iter()
                .map(|level| {
                    let scenarios = level
                        .scenarios
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                field("scenario", Json::str(&s.scenario)),
                                field(
                                    "endpoints",
                                    Json::Arr(s.endpoints.iter().map(Json::str).collect()),
                                ),
                                field(
                                    "findings",
                                    Json::Arr(s.findings.iter().map(finding_value).collect()),
                                ),
                            ])
                        })
                        .collect();
                    Json::Obj(vec![
                        field("level", Json::str(level.level.name())),
                        field("scenarios", Json::Arr(scenarios)),
                    ])
                })
                .collect();
            Json::Obj(vec![
                field("app", Json::str(&app.app)),
                field("session_locked", Json::Bool(app.session_locked)),
                field("levels", Json::Arr(levels)),
            ])
        })
        .collect();
    document("static_audit", vec![field("apps", Json::Arr(apps))])
}

fn summary_table(report: &StaticAuditReport) -> String {
    let app_width = report
        .apps
        .iter()
        .map(|a| a.app.len())
        .chain(std::iter::once("app".len()))
        .max()
        .unwrap_or(3);
    let mut out = String::new();
    out.push_str(&format!("{:<app_width$}", "app"));
    for level in IsolationLevel::ALL {
        out.push_str(&format!("  {:>8}", level_abbrev(level)));
    }
    out.push('\n');
    out.push_str(&"-".repeat(app_width + 6 * 10));
    out.push('\n');
    for app in &report.apps {
        out.push_str(&format!("{:<app_width$}", app.app));
        for level in IsolationLevel::ALL {
            let count = app.level(level).map(LevelAudit::finding_count).unwrap_or(0);
            if count == 0 {
                out.push_str(&format!("  {:>8}", "-"));
            } else {
                out.push_str(&format!("  {count:>8}"));
            }
        }
        out.push('\n');
    }
    out
}

/// Render the audit as a text report: a per-app × per-level anomaly-count
/// table followed by each finding with its witness schedule.
pub fn render_text(report: &StaticAuditReport) -> String {
    let mut out = String::from("static 2AD audit (anomalies admitted per isolation level)\n\n");
    out.push_str(&summary_table(report));
    for app in &report.apps {
        for level in &app.levels {
            for scenario in &level.scenarios {
                for finding in &scenario.findings {
                    out.push_str(&format!(
                        "\n{} / {} @ {}: [{} {}] API {} on table {} ({} instances)\n",
                        app.app,
                        scenario.scenario,
                        level.level.name(),
                        finding.scope,
                        finding.pattern,
                        finding.api,
                        finding.table,
                        finding.instances,
                    ));
                    out.push_str(&format!(
                        "  seed: #{} {}\n     ~  #{} {}\n",
                        finding.seed.0.position,
                        finding.seed.0.template,
                        finding.seed.1.position,
                        finding.seed.1.template,
                    ));
                    for line in &finding.witness {
                        out.push_str("  | ");
                        out.push_str(line);
                        out.push('\n');
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::audit_surface;
    use acidrain_apps::endpoints::flexcoin_surface;

    #[test]
    fn renderings_are_deterministic_and_well_formed() {
        let report = StaticAuditReport {
            apps: vec![audit_surface(&flexcoin_surface()).unwrap()],
        };
        let a = render_json(&report);
        let b = render_json(&report);
        assert_eq!(a, b);
        assert!(a.contains("\"schema_version\": 1"));
        assert!(a.contains("\"kind\": \"static_audit\""));
        assert!(a.contains("\"app\": \"flexcoin\""));
        assert!(a.contains(":int"), "templates appear in the JSON");
        // Balanced quotes implies escaping didn't break the framing.
        assert_eq!(a.matches('"').count() % 2, 0);
        let text = render_text(&report);
        assert!(text.contains("flexcoin"));
        assert!(text.contains("SERIALIZABLE") || text.contains("SER"));
    }
}
