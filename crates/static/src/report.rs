//! The report tree and its renderers, shared by the audit, the witness
//! replay and the repair adviser.
//!
//! Every report is apps → levels → scenarios ([`Report`], [`AppReport`],
//! [`LevelReport`]) over a per-scenario type `S` — the view
//! [`crate::sweep_surface`] keeps of each analysis. One JSON walker
//! ([`render_json`]), one summary table and one section walker
//! ([`render_text`]) render all three kinds; each kind contributes only
//! its leaves, through [`ScenarioReport`].
//!
//! Both renderings are fully deterministic (no timestamps, no durations,
//! stable ordering), so they double as golden-file material: any drift in
//! templates, refinement behaviour, or the detector shows up as a diff.

use acidrain_db::{field, IsolationLevel, Json};

use crate::serialize::document;

/// One kind of per-scenario result: what the walkers need of it.
pub trait ScenarioReport: Sized {
    /// What the kind reports of one finding.
    type Outcome;
    /// The JSON document's `"kind"`.
    const KIND: &'static str;
    /// The text report's first line.
    const TITLE: &'static str;
    /// Width of one summary-table cell.
    const CELL_WIDTH: usize;
    /// Whether the JSON app object carries `"session_locked"`.
    const SESSION_LOCKED: bool = false;

    /// The scenario's name.
    fn name(&self) -> &str;

    /// One entry per finding, in detector order.
    fn outcomes(&self) -> &[Self::Outcome];

    /// The scenario's JSON fields after `"scenario"`.
    fn json_fields(&self) -> Vec<(String, Json)>;

    /// Append the scenario's text section (it has at least one outcome);
    /// `at` reads `app / scenario @ LEVEL`.
    fn write_text(&self, at: &str, out: &mut String);

    /// The summary cell of a level with at least one outcome.
    fn summary_cell(level: &LevelReport<Self>) -> String;
}

/// One application's results at one isolation level.
#[derive(Debug, Clone)]
pub struct LevelReport<S> {
    /// The isolation level analyzed at.
    pub level: IsolationLevel,
    /// Per-scenario results, in the surface's scenario order.
    pub scenarios: Vec<S>,
}

/// One application's results across the levels that were run.
#[derive(Debug, Clone)]
pub struct AppReport<S> {
    /// Application name.
    pub app: String,
    /// Whether session locking was part of the refinement config.
    pub session_locked: bool,
    /// One entry per level run, in the order asked for.
    pub levels: Vec<LevelReport<S>>,
}

/// A whole report: one entry per application surface.
#[derive(Debug, Clone)]
pub struct Report<S> {
    /// One entry per application surface.
    pub apps: Vec<AppReport<S>>,
}

impl<S: ScenarioReport> LevelReport<S> {
    /// Every outcome at this level, scenario by scenario.
    pub fn outcomes(&self) -> impl Iterator<Item = &S::Outcome> {
        self.scenarios.iter().flat_map(|s| s.outcomes())
    }

    /// Total findings across the level's scenarios.
    pub fn finding_count(&self) -> usize {
        self.outcomes().count()
    }
}

impl<S> AppReport<S> {
    /// The results at `level`, if that level was run.
    pub fn level(&self, level: IsolationLevel) -> Option<&LevelReport<S>> {
        self.levels.iter().find(|l| l.level == level)
    }
}

impl<S: ScenarioReport> Report<S> {
    /// Every outcome of the report with the app and level it belongs to.
    pub fn outcomes(&self) -> impl Iterator<Item = (&str, IsolationLevel, &S::Outcome)> {
        self.apps.iter().flat_map(|app| {
            app.levels
                .iter()
                .flat_map(move |level| level.outcomes().map(move |o| (&*app.app, level.level, o)))
        })
    }

    /// Total findings across every app and level.
    pub fn finding_count(&self) -> usize {
        self.outcomes().count()
    }
}

/// Short column header per level, in [`IsolationLevel::ALL`] order.
fn level_abbrev(level: IsolationLevel) -> &'static str {
    match level {
        IsolationLevel::ReadUncommitted => "RU",
        IsolationLevel::ReadCommitted => "RC",
        IsolationLevel::MySqlRepeatableRead => "MySQL-RR",
        IsolationLevel::RepeatableRead => "RR",
        IsolationLevel::SnapshotIsolation => "SI",
        IsolationLevel::Serializable => "SER",
    }
}

/// Render a report as JSON (deterministic, schema-stable; every kind
/// shares the [`crate::serialize::SCHEMA_VERSION`] stamp).
pub fn render_json<S: ScenarioReport>(report: &Report<S>) -> String {
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
                            let mut fields = vec![field("scenario", Json::str(s.name()))];
                            fields.extend(s.json_fields());
                            Json::Obj(fields)
                        })
                        .collect();
                    Json::Obj(vec![
                        field("level", Json::str(level.level.name())),
                        field("scenarios", Json::Arr(scenarios)),
                    ])
                })
                .collect();
            let mut fields = vec![field("app", Json::str(&app.app))];
            if S::SESSION_LOCKED {
                fields.push(field("session_locked", Json::Bool(app.session_locked)));
            }
            fields.push(field("levels", Json::Arr(levels)));
            Json::Obj(fields)
        })
        .collect();
    document(S::KIND, vec![field("apps", Json::Arr(apps))])
}

/// The per-app × per-level table: `.` for a level that was not run, `-`
/// for one without findings, else the kind's summary cell.
fn summary_table<S: ScenarioReport>(report: &Report<S>) -> String {
    let width = S::CELL_WIDTH;
    let app_width = report
        .apps
        .iter()
        .map(|a| a.app.len())
        .chain(std::iter::once("app".len()))
        .max()
        .unwrap_or(3);
    let mut out = format!("{:<app_width$}", "app");
    for level in IsolationLevel::ALL {
        out.push_str(&format!("  {:>width$}", level_abbrev(level)));
    }
    out.push('\n');
    out.push_str(&"-".repeat(app_width + 6 * (width + 2)));
    out.push('\n');
    for app in &report.apps {
        out.push_str(&format!("{:<app_width$}", app.app));
        for level in IsolationLevel::ALL {
            let cell = match app.level(level) {
                None => ".".to_string(),
                Some(l) if l.finding_count() == 0 => "-".to_string(),
                Some(l) => S::summary_cell(l),
            };
            out.push_str(&format!("  {cell:>width$}"));
        }
        out.push('\n');
    }
    out
}

/// Render a report as text: the kind's title, the summary table, then the
/// section of every scenario with findings.
pub fn render_text<S: ScenarioReport>(report: &Report<S>) -> String {
    let mut out = format!("{}\n\n{}", S::TITLE, summary_table(report));
    for app in &report.apps {
        for level in &app.levels {
            for scenario in level.scenarios.iter().filter(|s| !s.outcomes().is_empty()) {
                let at = format!("{} / {} @ {}", app.app, scenario.name(), level.level.name());
                scenario.write_text(&at, &mut out);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{audit_surface, ScenarioAudit, StaticFinding};
    use crate::remediate::{RemedyOutcome, ScenarioRemedies};
    use crate::replay::{ReplayOutcome, ScenarioReplay, Verdict};
    use acidrain_apps::endpoints::flexcoin_surface;

    #[test]
    fn renderings_are_deterministic_and_well_formed() {
        let report = Report {
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

    /// One app run at RC (where its one scenario has one outcome) and at
    /// SER (where it has none).
    fn two_levels<S>(with: S, without: S) -> Report<S> {
        Report {
            apps: vec![AppReport {
                app: "x".into(),
                session_locked: false,
                levels: vec![
                    LevelReport {
                        level: IsolationLevel::ReadCommitted,
                        scenarios: vec![with],
                    },
                    LevelReport {
                        level: IsolationLevel::Serializable,
                        scenarios: vec![without],
                    },
                ],
            }],
        }
    }

    /// The summary row of a one-app report, cell by cell.
    fn row<S: ScenarioReport>(report: &Report<S>) -> Vec<String> {
        let text = render_text(report);
        let line = text.lines().find(|l| l.starts_with("x ")).unwrap();
        line.split_whitespace()
            .skip(1)
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn the_summary_tells_a_level_not_run_from_one_without_findings() {
        let finding =
            audit_surface(&flexcoin_surface()).unwrap().levels[1].scenarios[0].findings[0].clone();
        let audit = |findings: Vec<StaticFinding>| ScenarioAudit {
            scenario: "s".into(),
            endpoints: Vec::new(),
            findings,
        };
        let replay = |outcomes: Vec<ReplayOutcome>| ScenarioReplay {
            scenario: "s".into(),
            outcomes,
        };
        let remedies = |outcomes: Vec<RemedyOutcome>| ScenarioRemedies {
            scenario: "s".into(),
            outcomes,
        };
        let replayed = ReplayOutcome {
            finding: finding.clone(),
            verdict: Verdict::Confirmed,
        };
        let advised = RemedyOutcome {
            finding: finding.clone(),
            candidates: Vec::new(),
            tried: 0,
            residual: Some("none".into()),
            chosen: None,
            verdict: None,
        };
        // RU, RC, MySQL-RR, RR, SI, SER.
        let cells = |rc: &'static str| vec![".", rc, ".", ".", ".", "-"];
        assert_eq!(
            row(&two_levels(audit(vec![finding]), audit(Vec::new()))),
            cells("1")
        );
        assert_eq!(
            row(&two_levels(replay(vec![replayed]), replay(Vec::new()))),
            cells("1c/0b/0i")
        );
        assert_eq!(
            row(&two_levels(remedies(vec![advised]), remedies(Vec::new()))),
            cells("0/1")
        );
    }
}
