//! The symbolic audit: record each scenario solo, lift it, symbolize it,
//! and run the untargeted 2AD search per isolation level.
//!
//! [`ScenarioAnalysis`] is that front half, run once for one
//! `(surface, scenario, level)`. The audit report, the replay planner and
//! the repair adviser are views of it, so the finding lists the three
//! print are one list by construction.

use acidrain_apps::endpoints::{AppSurface, Scenario};
use acidrain_core::{
    lift_trace, statement_fingerprint, Analyzer, AnomalyPattern, AnomalyScope, Finding,
    RefinementConfig,
};
use acidrain_db::{IsolationLevel, LogEntry};

use crate::template::symbolize_trace;

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
#[derive(Debug, Clone)]
pub struct LevelAudit {
    /// The isolation level the symbolic analysis assumed.
    pub level: IsolationLevel,
    /// Per-scenario results.
    pub scenarios: Vec<ScenarioAudit>,
}

impl LevelAudit {
    /// Total findings across the level's scenarios.
    pub fn finding_count(&self) -> usize {
        self.scenarios.iter().map(|s| s.findings.len()).sum()
    }
}

/// Audit result for one application across all six levels.
#[derive(Debug, Clone)]
pub struct AppAudit {
    /// Application name.
    pub app: String,
    /// Whether session locking was part of the refinement config.
    pub session_locked: bool,
    /// One entry per level, in [`IsolationLevel::ALL`] order.
    pub levels: Vec<LevelAudit>,
}

impl AppAudit {
    /// The audit at `level`, if present.
    pub fn level(&self, level: IsolationLevel) -> Option<&LevelAudit> {
        self.levels.iter().find(|l| l.level == level)
    }
}

/// The full corpus audit.
#[derive(Debug, Clone)]
pub struct StaticAuditReport {
    /// One entry per audited application surface.
    pub apps: Vec<AppAudit>,
}

impl StaticAuditReport {
    /// Total findings across every app and level.
    pub fn finding_count(&self) -> usize {
        self.apps
            .iter()
            .flat_map(|a| &a.levels)
            .map(LevelAudit::finding_count)
            .sum()
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
        fingerprint: statement_fingerprint(&history.op(node).sql),
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
        let mut trace = lift_trace(&log, &surface.schema)
            .map_err(|e| AuditError::Lift(located(surface, scenario, e)))?;
        symbolize_trace(&mut trace).map_err(|e| AuditError::Lift(located(surface, scenario, e)))?;
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
            config,
            analyzer,
            detected,
            rendered,
        })
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
}

/// Analyze every scenario of `surface` at each of `levels`, in that order,
/// and keep what `view` makes of each analysis — the one sweep under the
/// audit, replay and adviser reports. The first error ends it.
pub fn sweep_surface<T>(
    surface: &AppSurface,
    levels: &[IsolationLevel],
    mut view: impl FnMut(ScenarioAnalysis<'_>) -> Result<T, AuditError>,
) -> Result<Vec<(IsolationLevel, Vec<T>)>, AuditError> {
    levels
        .iter()
        .map(|&level| {
            let scenarios = surface
                .scenarios
                .iter()
                .map(|scenario| view(ScenarioAnalysis::new(surface, scenario, level)?))
                .collect::<Result<_, _>>()?;
            Ok((level, scenarios))
        })
        .collect()
}

/// Audit one application surface at every isolation level.
pub fn audit_surface(surface: &AppSurface) -> Result<AppAudit, AuditError> {
    let levels = sweep_surface(surface, &IsolationLevel::ALL, |analysis| {
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
    })?
    .into_iter()
    .map(|(level, scenarios)| LevelAudit { level, scenarios })
    .collect();
    Ok(AppAudit {
        app: surface.app.clone(),
        session_locked: surface.session_locked,
        levels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acidrain_apps::endpoints::{didactic_surfaces, flexcoin_surface};

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
