//! The symbolic audit: record each scenario solo, lift it, symbolize it,
//! and run the untargeted 2AD search per isolation level.
//!
//! [`ScenarioAnalysis`] is that front half, run once for one
//! `(surface, scenario, level)`. The audit report, the replay planner and
//! the repair adviser are views of it, so the finding lists the three
//! print are one list by construction.

use acidrain_apps::endpoints::{AppSurface, Scenario};
use acidrain_core::{
    lift_trace_with, Analyzer, AnomalyPattern, AnomalyScope, Finding, RefinementConfig,
};
use acidrain_db::{field, IsolationLevel, Json, LogEntry};
use acidrain_sql::{fnv1a, ParseMemo};

use crate::report::{AppReport, LevelReport, Report, ScenarioReport};
use crate::template::symbolize_trace_with;

/// Why a scenario could not be audited.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// The solo recording pass failed (application error).
    Record(String),
    /// The recorded log could not be lifted or templated.
    Lift(String),
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::Record(e) => write!(f, "recording failed: {e}"),
            AuditError::Lift(e) => write!(f, "lifting failed: {e}"),
        }
    }
}

impl std::error::Error for AuditError {}

/// One endpoint statement of a witness's seed pair, identified down to
/// its template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedRef {
    /// Position of the statement within the API call's flattened
    /// operation sequence.
    pub position: usize,
    /// The statement template.
    pub template: String,
    /// The template's shape fingerprint
    /// ([`acidrain_core::statement_fingerprint`]) — invariant under
    /// symbolization, so consumers can match this seed back to concrete
    /// statements without comparing template text.
    pub fingerprint: u64,
}

/// One anomaly the static audit admits at a given level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticFinding {
    /// API endpoint whose two concurrent instances seed the cycle.
    pub api: String,
    /// Level-based vs scope-based (paper §3.1.4).
    pub scope: AnomalyScope,
    /// Access pattern (Table 5 "AP" column).
    pub pattern: AnomalyPattern,
    /// Table the seed conflict is on.
    pub table: String,
    /// Number of concurrent API instances the witness needs.
    pub instances: usize,
    /// The seed pair (o₁, o₂), as statement templates.
    pub seed: (SeedRef, SeedRef),
    /// The full Lemma-4 witness schedule, rendered over templates.
    pub witness: Vec<String>,
}

/// Audit result for one scenario at one level.
#[derive(Debug, Clone)]
pub struct ScenarioAudit {
    /// Scenario name (for corpus apps, the invariant it exercises).
    pub scenario: String,
    /// Endpoints the scenario records.
    pub endpoints: Vec<String>,
    /// Anomalies admitted at this level, in detector order.
    pub findings: Vec<StaticFinding>,
}

/// Audit result for one application at one isolation level.
pub type LevelAudit = LevelReport<ScenarioAudit>;
/// Audit result for one application across all six levels.
pub type AppAudit = AppReport<ScenarioAudit>;
/// The full corpus audit.
pub type StaticAuditReport = Report<ScenarioAudit>;

fn seed_value(s: &SeedRef) -> Json {
    Json::Obj(vec![
        field("position", Json::Num(s.position as u64)),
        field("fingerprint", Json::Num(s.fingerprint)),
        field("template", Json::str(&s.template)),
    ])
}

/// The JSON fields every report opens a finding with: what the anomaly
/// is, without its seed or witness.
pub(crate) fn identity_fields(f: &StaticFinding) -> [(String, Json); 5] {
    [
        field("api", Json::str(&f.api)),
        field("scope", Json::str(f.scope.to_string())),
        field("pattern", Json::str(f.pattern.to_string())),
        field("table", Json::str(&f.table)),
        field("instances", Json::Num(f.instances as u64)),
    ]
}

fn finding_value(f: &StaticFinding) -> Json {
    let mut fields = Vec::from(identity_fields(f));
    fields.extend([
        field(
            "seed",
            Json::Arr(vec![seed_value(&f.seed.0), seed_value(&f.seed.1)]),
        ),
        field(
            "witness",
            Json::Arr(f.witness.iter().map(Json::str).collect()),
        ),
    ]);
    Json::Obj(fields)
}

impl ScenarioReport for ScenarioAudit {
    type Outcome = StaticFinding;
    const KIND: &'static str = "static_audit";
    const TITLE: &'static str = "static 2AD audit (anomalies admitted per isolation level)";
    const CELL_WIDTH: usize = 8;
    const SESSION_LOCKED: bool = true;

    fn name(&self) -> &str {
        &self.scenario
    }

    fn outcomes(&self) -> &[StaticFinding] {
        &self.findings
    }

    fn json_fields(&self) -> Vec<(String, Json)> {
        vec![
            field(
                "endpoints",
                Json::Arr(self.endpoints.iter().map(Json::str).collect()),
            ),
            field(
                "findings",
                Json::Arr(self.findings.iter().map(finding_value).collect()),
            ),
        ]
    }

    /// Each finding with its seed pair and witness schedule.
    fn write_text(&self, at: &str, out: &mut String) {
        for f in &self.findings {
            out.push_str(&format!(
                "\n{at}: [{} {}] API {} on table {} ({} instances)\n",
                f.scope, f.pattern, f.api, f.table, f.instances,
            ));
            out.push_str(&format!(
                "  seed: #{} {}\n     ~  #{} {}\n",
                f.seed.0.position, f.seed.0.template, f.seed.1.position, f.seed.1.template,
            ));
            for line in &f.witness {
                out.push_str("  | ");
                out.push_str(line);
                out.push('\n');
            }
        }
    }

    fn summary_cell(level: &LevelAudit) -> String {
        level.finding_count().to_string()
    }
}

/// The refinement config both detectors apply at `level`: the level's
/// own refinements, plus session locking on `cart_items` for the apps that
/// serialize same-session requests.
pub fn refinement_at(level: IsolationLevel, session_locked: bool) -> RefinementConfig {
    let config = RefinementConfig::at_isolation(level);
    if !session_locked {
        return config;
    }
    config.with_session_locking(
        ["add_to_cart".to_string(), "checkout".to_string()],
        ["cart_items".to_string()],
    )
}

/// The refinement config the audit applies for `surface` at `level` — the
/// dynamic harness's (`try_audit_cell` calls [`refinement_at`] too), which
/// is half of the superset argument: same trace, same refinements, wider
/// (untargeted) search.
pub fn refinement_for(surface: &AppSurface, level: IsolationLevel) -> RefinementConfig {
    refinement_at(level, surface.session_locked)
}

/// `finding` as the reports print it: seed templates and fingerprints, and
/// the Lemma-4 witness rendered over the symbolized history.
pub(crate) fn static_finding(analyzer: &Analyzer, finding: &Finding) -> StaticFinding {
    let history = analyzer.history();
    let seed_ref = |node: usize| SeedRef {
        position: history.locs[node].position,
        template: history.op(node).sql.clone(),
        // The op's SQL is already its template, and a template's
        // `statement_fingerprint` is FNV-1a of its text (pinned by
        // `seed_templates_fingerprint_as_their_text`), so nothing re-parses.
        fingerprint: fnv1a(history.op(node).sql.as_bytes()),
    };
    let witness = analyzer
        .witness_trace(finding)
        .to_string()
        .lines()
        .map(str::to_string)
        .collect();
    StaticFinding {
        api: finding.api.clone(),
        scope: finding.scope,
        pattern: finding.pattern,
        table: finding.table.clone(),
        instances: finding.witness.instances,
        seed: (seed_ref(finding.witness.o1), seed_ref(finding.witness.o2)),
        witness,
    }
}

/// `error`, prefixed with where in the registry it happened.
fn located(surface: &AppSurface, scenario: &Scenario, error: impl std::fmt::Display) -> String {
    format!("{}/{}: {error}", surface.app, scenario.name)
}

/// One scenario of one surface analyzed at one isolation level: its solo
/// recording, the level's refinement config and what the symbolized search
/// found in it. Built once; [`ScenarioAnalysis::findings`],
/// [`ScenarioAnalysis::plans`] and [`ScenarioAnalysis::remedies`] read it.
pub struct ScenarioAnalysis<'a> {
    pub(crate) surface: &'a AppSurface,
    pub(crate) scenario: &'a Scenario,
    pub(crate) level: IsolationLevel,
    pub(crate) log: Vec<LogEntry>,
    /// Every statement text the lift read, parsed once; the views
    /// (re-audits, replayed schedules) read and extend it.
    pub(crate) memo: ParseMemo,
    pub(crate) config: RefinementConfig,
    /// The analyzer over the symbolized trace. Symbolization rewrites only
    /// `Op.sql`, so this history is the concrete one node for node, with
    /// `log_seq` provenance back into `log`.
    pub(crate) analyzer: Analyzer,
    /// The detector's findings, in detector order.
    pub(crate) detected: Vec<Finding>,
    /// `detected` as the reports print them, index for index.
    pub(crate) rendered: Vec<StaticFinding>,
}

impl<'a> ScenarioAnalysis<'a> {
    /// Record `scenario` in a fresh solo pass at `level` (deterministic and
    /// contention-free), lift it against the surface's schema, symbolize it,
    /// search it untargeted under the level's refinement config and render
    /// what the search found: the one place a scenario is symbolized and
    /// rendered.
    pub fn new(
        surface: &'a AppSurface,
        scenario: &'a Scenario,
        level: IsolationLevel,
    ) -> Result<Self, AuditError> {
        let log = scenario
            .record(level)
            .map_err(|e| AuditError::Record(located(surface, scenario, e)))?;
        let memo = ParseMemo::new();
        let mut trace = lift_trace_with(&log, &surface.schema, &memo)
            .map_err(|e| AuditError::Lift(located(surface, scenario, e)))?;
        symbolize_trace_with(&mut trace, &memo)
            .map_err(|e| AuditError::Lift(located(surface, scenario, e)))?;
        let analyzer = Analyzer::from_trace(trace);
        let config = refinement_for(surface, level);
        let detected = analyzer.analyze(&config).findings;
        let rendered = detected
            .iter()
            .map(|f| static_finding(&analyzer, f))
            .collect();
        Ok(ScenarioAnalysis {
            surface,
            scenario,
            level,
            log,
            memo,
            config,
            analyzer,
            detected,
            rendered,
        })
    }

    /// The surface the scenario belongs to.
    pub fn surface(&self) -> &'a AppSurface {
        self.surface
    }

    /// The scenario analyzed.
    pub fn scenario(&self) -> &'a Scenario {
        self.scenario
    }

    /// The isolation level analyzed at.
    pub fn level(&self) -> IsolationLevel {
        self.level
    }

    /// The anomalies the level admits, in detector order.
    pub fn findings(&self) -> &[StaticFinding] {
        &self.rendered
    }

    /// The scenario's statement texts, parsed: everything the lift read,
    /// plus whatever the views have parsed since. Executors of this
    /// scenario's schedules parse through it.
    pub fn memo(&self) -> &ParseMemo {
        &self.memo
    }
}

/// Analyze every scenario of `surface` at each of `levels`, in that order,
/// and keep what `view` makes of each analysis — the one sweep under the
/// audit, replay and adviser reports. The first error ends it.
pub fn sweep_surface<S>(
    surface: &AppSurface,
    levels: &[IsolationLevel],
    mut view: impl FnMut(ScenarioAnalysis<'_>) -> Result<S, AuditError>,
) -> Result<AppReport<S>, AuditError> {
    let levels = levels
        .iter()
        .map(|&level| {
            let scenarios = surface
                .scenarios
                .iter()
                .map(|scenario| view(ScenarioAnalysis::new(surface, scenario, level)?))
                .collect::<Result<_, _>>()?;
            Ok(LevelReport { level, scenarios })
        })
        .collect::<Result<_, _>>()?;
    Ok(AppReport {
        app: surface.app.clone(),
        session_locked: surface.session_locked,
        levels,
    })
}

/// Audit one application surface at every isolation level.
pub fn audit_surface(surface: &AppSurface) -> Result<AppAudit, AuditError> {
    sweep_surface(surface, &IsolationLevel::ALL, |analysis| {
        Ok(ScenarioAudit {
            scenario: analysis.scenario.name.to_string(),
            endpoints: analysis
                .scenario
                .endpoints
                .iter()
                .map(|e| e.to_string())
                .collect(),
            findings: analysis.rendered,
        })
    })
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::sync::Arc;

    use super::*;
    use acidrain_apps::endpoints::{all_surfaces, didactic_surfaces, flexcoin_surface};
    use acidrain_core::{lift_trace, statement_fingerprint};
    use acidrain_sql::{parse_statement, promote_for_update};

    /// Every recorded log: each scenario of each surface at all six levels.
    fn every_recording() -> Vec<(AppSurface, Vec<Vec<LogEntry>>)> {
        all_surfaces()
            .into_iter()
            .map(|surface| {
                let logs = surface
                    .scenarios
                    .iter()
                    .flat_map(|scenario| {
                        IsolationLevel::ALL.map(|level| scenario.record(level).unwrap())
                    })
                    .collect();
                (surface, logs)
            })
            .collect()
    }

    #[test]
    fn the_parse_memo_answers_as_the_parser_does() {
        // Every recorded text, every text the adviser promotes, and one
        // that does not parse: the memo's parse and fingerprint are the
        // parser's, on the first read and on every later one.
        let mut texts: BTreeSet<String> = BTreeSet::new();
        for (_, logs) in every_recording() {
            for entry in logs.iter().flatten() {
                if let Ok(Some(promoted)) = promote_for_update(&entry.sql) {
                    texts.insert(promoted);
                }
                texts.insert(entry.sql.to_string());
            }
        }
        let malformed = "SELEC balance FROM accounts WHERE id = 1";
        texts.insert(malformed.to_string());
        let memo = ParseMemo::new();
        for _ in 0..2 {
            for sql in &texts {
                assert_eq!(memo.parse(sql), parse_statement(sql).map(Arc::new), "{sql}");
                assert_eq!(memo.fingerprint(sql), statement_fingerprint(sql), "{sql}");
            }
        }
        assert!(memo.parse(malformed).is_err());
        assert_eq!(memo.len(), texts.len());
    }

    #[test]
    fn lifting_through_a_used_memo_is_lifting() {
        // One memo across every scenario: each lift after the first meets
        // texts another scenario put there, and lifts what a fresh parse
        // lifts.
        let memo = ParseMemo::new();
        for (surface, logs) in every_recording() {
            for log in &logs {
                assert_eq!(
                    lift_trace_with(log, &surface.schema, &memo),
                    lift_trace(log, &surface.schema),
                    "{}",
                    surface.app
                );
            }
        }
        assert!(!memo.is_empty());
    }

    #[test]
    fn seed_templates_fingerprint_as_their_text() {
        // `static_finding` takes a seed's fingerprint as FNV-1a of its
        // template text; this is where that equals `statement_fingerprint`
        // for every symbolized operation the audit can seed a finding on.
        let mut ops = 0;
        for surface in all_surfaces() {
            for scenario in &surface.scenarios {
                for level in IsolationLevel::ALL {
                    let analysis = ScenarioAnalysis::new(&surface, scenario, level).unwrap();
                    let trace = &analysis.analyzer.history().trace;
                    for op in trace
                        .api_calls
                        .iter()
                        .flat_map(|a| &a.txns)
                        .flat_map(|t| &t.ops)
                    {
                        assert_eq!(
                            statement_fingerprint(&op.sql),
                            fnv1a(op.sql.as_bytes()),
                            "{}: {}",
                            surface.app,
                            op.sql
                        );
                        ops += 1;
                    }
                }
            }
        }
        assert!(ops > 1000, "{ops}");
    }

    #[test]
    fn serializable_admits_no_level_based_anomaly() {
        // Scope-based anomalies are isolation-independent (the paper's
        // central point: 17 of 22 vulnerable cells cannot be fixed by any
        // level), so Serializable only guarantees the *level-based* column
        // goes to zero.
        for surface in didactic_surfaces() {
            let audit = audit_surface(&surface).unwrap();
            let ser = audit.level(IsolationLevel::Serializable).unwrap();
            for scenario in &ser.scenarios {
                for finding in &scenario.findings {
                    assert_eq!(
                        finding.scope,
                        AnomalyScope::ScopeBased,
                        "{}/{}: {finding:?}",
                        surface.app,
                        scenario.scenario
                    );
                }
            }
        }
    }

    #[test]
    fn transaction_scoping_decides_the_serializable_column() {
        // Figure 1a (no transaction) stays vulnerable at Serializable;
        // Figure 1b (transaction-wrapped) is level-based and goes clean.
        let surfaces = didactic_surfaces();
        let audit_of = |name: &str| {
            surfaces
                .iter()
                .find(|s| s.app == name)
                .map(|s| audit_surface(s).unwrap())
                .unwrap()
        };
        let unscoped = audit_of("bank-figure1a");
        let ser = unscoped.level(IsolationLevel::Serializable).unwrap();
        assert!(
            ser.finding_count() > 0,
            "no transaction: isolation cannot help"
        );
        let scoped = audit_of("bank-figure1b");
        let ser = scoped.level(IsolationLevel::Serializable).unwrap();
        assert_eq!(ser.finding_count(), 0, "transaction-scoped: SER fixes it");
        let rc = scoped.level(IsolationLevel::ReadCommitted).unwrap();
        assert!(rc.finding_count() > 0, "but RC does not");
    }

    #[test]
    fn figure1a_bank_is_vulnerable_and_fixed_bank_is_not() {
        let surfaces = didactic_surfaces();
        let by_name = |name: &str| {
            surfaces
                .iter()
                .find(|s| s.app == name)
                .map(|s| audit_surface(s).unwrap())
                .unwrap()
        };
        let vulnerable = by_name("bank-figure1a");
        let rc = vulnerable.level(IsolationLevel::ReadCommitted).unwrap();
        assert!(rc.finding_count() > 0, "figure 1a withdraw races");
        // Every finding carries template-level provenance.
        for scenario in &rc.scenarios {
            for finding in &scenario.findings {
                assert!(finding.seed.0.template.contains(":int"), "{finding:?}");
                assert!(!finding.witness.is_empty());
            }
        }
        let fixed = by_name("bank-fixed");
        // SELECT ... FOR UPDATE closes the read-modify-write race at
        // every level that honors the lock scope.
        let rc = fixed.level(IsolationLevel::ReadCommitted).unwrap();
        assert_eq!(rc.finding_count(), 0, "FOR UPDATE serializes withdraw");
    }

    #[test]
    fn flexcoin_transfer_is_the_vulnerable_endpoint() {
        let audit = audit_surface(&flexcoin_surface()).unwrap();
        let rc = audit.level(IsolationLevel::ReadCommitted).unwrap();
        let apis: Vec<&str> = rc
            .scenarios
            .iter()
            .flat_map(|s| s.findings.iter().map(|f| f.api.as_str()))
            .collect();
        assert!(apis.contains(&"transfer"), "found: {apis:?}");
    }
}
