//! Witness replay planning: lower each static finding's Lemma-4 schedule
//! into a concrete scripted interleaving over the scenario's recorded log,
//! plus the verdict/report types the harness driver fills in.
//!
//! The static audit renders its witness schedules over *symbolized*
//! statements (literals replaced by typed placeholders), which are not
//! executable — but a plan needs none of that text. Symbolization rewrites
//! only each operation's SQL, after lifting, so the analysis's history
//! keeps every operation's `log_seq` provenance back into the recorded
//! log, and [`ScenarioAnalysis::plans`] lowers each finding over that one
//! history. The log lines *are* the concrete values: replaying them
//! verbatim is the execution of the witness. The repair adviser's
//! [`ScenarioAnalysis::repaired_plan`] runs the same lowering over a
//! repaired copy of the log, which keeps every recorded entry's `seq`.
//!
//! A [`ReplayPlan`] is the canned-script form of the Lemma-4 schedule:
//! one session per witness instance (the seed plus one per hop), each
//! session replaying its API's recorded statements, with the seed session
//! split at o₁ (`seed_prefix`). The driver executes the seed prefix, then
//! every hop session in full, then the seed remainder — Figure 5's
//! interleaving — and classifies the outcome as confirmed, blocked, or
//! inconclusive ([`Verdict`]).

use acidrain_apps::endpoints::{AppSurface, Scenario};
use acidrain_core::{AbstractHistory, AnomalyScope, Finding};
use acidrain_db::{field, IsolationLevel, Json, LogEntry};

use crate::audit::{identity_fields, AuditError, ScenarioAnalysis, StaticFinding};
use crate::report::{AppReport, LevelReport, Report, ScenarioReport};

/// One session of a replay plan: an API instance's canned statements.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SessionScript {
    /// API endpoint this session replays.
    pub api: String,
    /// The recorded statements, in log order (including `BEGIN`/`COMMIT`).
    pub statements: Vec<String>,
}

/// A static finding lowered to an executable interleaving.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ReplayPlan {
    /// Statements replayed on a plain connection before the concurrent
    /// sessions start: everything the recording executed before the seed
    /// API's first statement (the state the seed instance saw).
    pub setup: Vec<String>,
    /// One script per witness instance; index 0 is the seed instance,
    /// the rest follow the witness hops in cycle order.
    pub sessions: Vec<SessionScript>,
    /// Number of seed-session statements to execute before the hop
    /// sessions run (the script prefix up to and including o₁).
    pub seed_prefix: usize,
}

/// One static finding together with its plan (or the reason none exists).
#[derive(Debug, Clone)]
pub struct FindingPlan {
    /// The finding exactly as the symbolized audit reports it.
    pub finding: StaticFinding,
    /// The executable plan, or why the schedule is not realizable.
    pub plan: Result<ReplayPlan, String>,
}

/// All plans for one scenario at one isolation level.
#[derive(Debug, Clone)]
pub struct ScenarioPlans {
    /// Scenario name.
    pub scenario: String,
    /// One entry per symbolized finding, in detector order.
    pub plans: Vec<FindingPlan>,
}

impl ScenarioAnalysis<'_> {
    /// Compile every finding into a replay plan, in [`Self::findings`]
    /// order.
    pub fn plans(&self) -> ScenarioPlans {
        let scripts = session_scripts(&self.log);
        let plans = self
            .detected
            .iter()
            .zip(&self.rendered)
            .map(|(finding, rendered)| FindingPlan {
                finding: rendered.clone(),
                plan: build_plan(self.analyzer.history(), finding, &self.log, &scripts),
            })
            .collect();
        ScenarioPlans {
            scenario: self.scenario.name.to_string(),
            plans,
        }
    }
}

/// Compile every finding of `scenario` at `level` into a replay plan.
pub fn plan_scenario(
    surface: &AppSurface,
    scenario: &Scenario,
    level: IsolationLevel,
) -> Result<ScenarioPlans, AuditError> {
    Ok(ScenarioAnalysis::new(surface, scenario, level)?.plans())
}

/// The log grouped into per-API scripts, in first-seen order, each script
/// the positions of its API's entries in `log`. Untagged entries belong to
/// no script (they can only reach a plan via `setup`).
pub(crate) fn session_scripts(log: &[LogEntry]) -> Vec<(String, Vec<usize>)> {
    let mut scripts: Vec<(String, Vec<usize>)> = Vec::new();
    for (i, entry) in log.iter().enumerate() {
        let Some(tag) = &entry.api else { continue };
        match scripts.iter_mut().find(|(name, _)| *name == tag.name) {
            Some((_, entries)) => entries.push(i),
            None => scripts.push((tag.name.clone(), vec![i])),
        }
    }
    scripts
}

/// Lower `finding`'s Lemma-4 witness onto the scripts of `log`, the
/// recorded log or a repaired copy of it (which keeps every recorded
/// entry's `seq`). Reads the history's API names, op positions and
/// `log_seq`, never its SQL text.
pub(crate) fn build_plan(
    history: &AbstractHistory,
    finding: &Finding,
    log: &[LogEntry],
    scripts: &[(String, Vec<usize>)],
) -> Result<ReplayPlan, String> {
    let witness = &finding.witness;
    let api_name = |node: usize| history.trace.api_calls[history.locs[node].api].name.clone();

    let seed_api = api_name(witness.o1);
    let script_for = |api: &str| {
        scripts
            .iter()
            .find(|(name, _)| name == api)
            .map(|(_, entries)| entries)
            .ok_or(format!("API {api} was not recorded"))
    };
    let seed_script = script_for(&seed_api)?;
    let o1_seq = history
        .op(witness.o1)
        .log_seq
        .ok_or("seed operation has no log provenance".to_string())?;
    let o1_index = seed_script
        .iter()
        .position(|&i| log[i].seq == o1_seq)
        .ok_or("seed operation's log line is outside its API script".to_string())?;

    let setup = log[..seed_script[0]]
        .iter()
        .map(|e| e.sql.to_string())
        .collect();

    let session = |api: &str| -> Result<SessionScript, String> {
        Ok(SessionScript {
            api: api.to_string(),
            statements: script_for(api)?
                .iter()
                .map(|&i| log[i].sql.to_string())
                .collect(),
        })
    };
    let mut sessions = vec![session(&seed_api)?];
    for hop in &witness.hops {
        sessions.push(session(&api_name(hop.entered_at))?);
    }
    Ok(ReplayPlan {
        setup,
        sessions,
        seed_prefix: o1_index + 1,
    })
}

// ---------------------------------------------------------------------------
// Verdicts and the replay report tree (filled in by the harness driver).
// ---------------------------------------------------------------------------

/// How one finding's replay ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The interleaving executed and its outcome differs from every serial
    /// execution of the same scripts: the anomaly is real at this level.
    Confirmed,
    /// The engine refused the interleaving (lock wait forced a reorder,
    /// or a session aborted — deadlock victim, first-committer-wins).
    /// *Not* a refutation: the abstract witness quantifies over all
    /// expansions, and this was one of them.
    Blocked(String),
    /// The schedule could not be realized or executed cleanly but
    /// serially-equivalently; the reason says which.
    Inconclusive(String),
}

impl Verdict {
    /// Stable lowercase label (report/golden material).
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Confirmed => "confirmed",
            Verdict::Blocked(_) => "blocked",
            Verdict::Inconclusive(_) => "inconclusive",
        }
    }

    /// The reason string, when the verdict carries one.
    pub fn detail(&self) -> Option<&str> {
        match self {
            Verdict::Confirmed => None,
            Verdict::Blocked(r) | Verdict::Inconclusive(r) => Some(r),
        }
    }
}

/// One finding's replay outcome.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The finding as the static audit reports it.
    pub finding: StaticFinding,
    /// The driver's verdict.
    pub verdict: Verdict,
}

/// Replay results for one scenario at one level.
#[derive(Debug, Clone)]
pub struct ScenarioReplay {
    /// Scenario name.
    pub scenario: String,
    /// One outcome per static finding, in detector order.
    pub outcomes: Vec<ReplayOutcome>,
}

/// Replay results for one application at one level.
pub type LevelReplay = LevelReport<ScenarioReplay>;
/// Replay results for one application across the levels that were run.
pub type AppReplay = AppReport<ScenarioReplay>;
/// The full replay report.
pub type ReplayReport = Report<ScenarioReplay>;

impl LevelReplay {
    /// Outcomes whose verdict matches `label` ("confirmed", "blocked",
    /// "inconclusive").
    pub fn count(&self, label: &str) -> usize {
        self.outcomes()
            .filter(|o| o.verdict.label() == label)
            .count()
    }
}

impl ReplayReport {
    /// Total outcomes with verdict `label` across the whole report.
    pub fn count(&self, label: &str) -> usize {
        self.outcomes()
            .filter(|(_, _, o)| o.verdict.label() == label)
            .count()
    }

    /// Level-based anomalies confirmed at Serializable — the engine-health
    /// gate; anything non-zero means Serializable failed to serialize.
    pub fn serializable_level_based_confirmed(&self) -> Vec<&ReplayOutcome> {
        self.outcomes()
            .filter(|(_, level, o)| {
                *level == IsolationLevel::Serializable
                    && o.verdict == Verdict::Confirmed
                    && o.finding.scope == AnomalyScope::LevelBased
            })
            .map(|(_, _, o)| o)
            .collect()
    }
}

fn outcome_value(o: &ReplayOutcome) -> Json {
    let mut fields = vec![field("verdict", Json::str(o.verdict.label()))];
    if let Some(detail) = o.verdict.detail() {
        fields.push(field("detail", Json::str(detail)));
    }
    fields.extend(identity_fields(&o.finding));
    fields.push(field(
        "seed",
        Json::Arr(vec![
            Json::Num(o.finding.seed.0.position as u64),
            Json::Num(o.finding.seed.1.position as u64),
        ]),
    ));
    Json::Obj(fields)
}

impl ScenarioReport for ScenarioReplay {
    type Outcome = ReplayOutcome;
    const KIND: &'static str = "witness_replay";
    const TITLE: &'static str = "witness replay (static findings executed against the engine)";
    const CELL_WIDTH: usize = 12;

    fn name(&self) -> &str {
        &self.scenario
    }

    fn outcomes(&self) -> &[ReplayOutcome] {
        &self.outcomes
    }

    fn json_fields(&self) -> Vec<(String, Json)> {
        vec![field(
            "outcomes",
            Json::Arr(self.outcomes.iter().map(outcome_value).collect()),
        )]
    }

    /// One verdict line per finding.
    fn write_text(&self, at: &str, out: &mut String) {
        out.push_str(&format!("\n{at}\n"));
        for o in &self.outcomes {
            let detail = o
                .verdict
                .detail()
                .map(|d| format!(" ({d})"))
                .unwrap_or_default();
            out.push_str(&format!(
                "  [{}] {} {} API {} on {} ({} instances, seed #{}/#{}){}\n",
                o.verdict.label(),
                o.finding.scope,
                o.finding.pattern,
                o.finding.api,
                o.finding.table,
                o.finding.instances,
                o.finding.seed.0.position,
                o.finding.seed.1.position,
                detail,
            ));
        }
    }

    fn summary_cell(level: &LevelReplay) -> String {
        format!(
            "{}c/{}b/{}i",
            level.count("confirmed"),
            level.count("blocked"),
            level.count("inconclusive")
        )
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::report::{render_json, render_text};
    use crate::template::symbolize_trace;
    use acidrain_apps::endpoints::{all_surfaces, didactic_surfaces, flexcoin_surface};
    use acidrain_core::{lift_trace, Analyzer, RefinementConfig};
    use acidrain_db::{ApiTag, StmtOutcome};
    use acidrain_sql::{statement_template, ColumnDef, ColumnType, Schema, TableSchema};

    fn surface_named(name: &str) -> AppSurface {
        didactic_surfaces()
            .into_iter()
            .find(|s| s.app == name)
            .unwrap()
    }

    #[test]
    fn bank_plan_splits_the_seed_at_o1() {
        let surface = surface_named("bank-figure1a");
        let plans = plan_scenario(
            &surface,
            &surface.scenarios[0],
            IsolationLevel::ReadCommitted,
        )
        .unwrap();
        assert!(!plans.plans.is_empty());
        for fp in &plans.plans {
            let plan = fp.plan.as_ref().expect("bank plan must be realizable");
            assert_eq!(plan.sessions.len(), fp.finding.instances);
            assert_eq!(plan.sessions[0].api, fp.finding.api);
            assert!(plan.seed_prefix >= 1);
            assert!(plan.seed_prefix <= plan.sessions[0].statements.len());
            // The statements are the concrete recorded ones, not templates.
            assert!(
                plan.sessions[0]
                    .statements
                    .iter()
                    .all(|s| !s.contains(":int")),
                "{plan:?}"
            );
        }
    }

    #[test]
    fn every_flexcoin_finding_gets_a_realizable_plan() {
        let surface = flexcoin_surface();
        for level in IsolationLevel::ALL {
            let plans = plan_scenario(&surface, &surface.scenarios[0], level).unwrap();
            for fp in &plans.plans {
                assert!(
                    fp.plan.is_ok(),
                    "{}/{level:?}: {:?}",
                    fp.finding.api,
                    fp.plan
                );
            }
        }
    }

    #[test]
    fn plans_line_up_with_the_audit_report() {
        // The three entry points print one finding list: the audit's, the
        // planner's and the adviser's agree element by element, for every
        // scenario of every surface at every level.
        for surface in all_surfaces() {
            let audit = crate::audit::audit_surface(&surface).unwrap();
            for level in IsolationLevel::ALL {
                let audited = &audit.level(level).unwrap().scenarios;
                for (scenario, audited) in surface.scenarios.iter().zip(audited) {
                    let at = format!("{}/{} @ {level:?}", surface.app, scenario.name);
                    let plans = plan_scenario(&surface, scenario, level).unwrap();
                    let remedies =
                        crate::remediate::remediate_scenario(&surface, scenario, level).unwrap();
                    let planned: Vec<_> = plans.plans.iter().map(|fp| &fp.finding).collect();
                    let advised: Vec<_> = remedies.outcomes.iter().map(|o| &o.finding).collect();
                    assert_eq!(planned, audited.findings.iter().collect::<Vec<_>>(), "{at}");
                    assert_eq!(advised, planned, "{at}");
                }
            }
        }
    }

    /// Hold `plans`, lowered over a symbolized history of `log`, to
    /// [`build_plan`] over an independently lifted *concrete* history of
    /// the same log, finding *i* to finding *i*. Returns the concrete
    /// findings.
    fn assert_plans_match_concrete(
        at: &str,
        log: &[LogEntry],
        schema: &Schema,
        config: &RefinementConfig,
        plans: &[Result<ReplayPlan, String>],
    ) -> Vec<Finding> {
        let concrete = Analyzer::from_log(log, schema).unwrap();
        let findings = concrete.analyze(config).findings;
        let scripts = session_scripts(log);
        assert_eq!(plans.len(), findings.len(), "{at}");
        for (i, (plan, finding)) in plans.iter().zip(&findings).enumerate() {
            let twin = build_plan(concrete.history(), finding, log, &scripts);
            assert_eq!(plan, &twin, "{at}: finding {i}");
        }
        findings
    }

    /// Two endpoints that differ only in literals: after symbolization
    /// their statements render identically.
    fn literal_twins() -> (Vec<LogEntry>, Schema) {
        let schema = Schema::new().with_table(TableSchema::new(
            "accounts",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("balance", ColumnType::Int),
            ],
        ));
        let mut log = Vec::new();
        for (api, id, amount) in [("pay_alice", 1, 60), ("pay_bob", 2, 70)] {
            for sql in [
                format!("SELECT balance FROM accounts WHERE id = {id}"),
                format!("UPDATE accounts SET balance = {amount} WHERE id = {id}"),
            ] {
                log.push(LogEntry {
                    seq: log.len() as u64,
                    session: 1,
                    api: Some(Arc::new(ApiTag {
                        name: api.to_string(),
                        invocation: 0,
                    })),
                    sql: sql.into(),
                    outcome: StmtOutcome::Ok,
                });
            }
        }
        (log, schema)
    }

    #[test]
    fn plans_equal_the_concrete_lowering() {
        // Symbolization rewrites only `Op.sql`, so lowering a finding over
        // the analysis's own history gives the plan a concrete history of
        // the same recording would: every scenario of every surface at
        // every level.
        let mut compared = 0;
        for surface in all_surfaces() {
            for scenario in &surface.scenarios {
                for level in IsolationLevel::ALL {
                    let at = format!("{}/{} @ {level:?}", surface.app, scenario.name);
                    let analysis = ScenarioAnalysis::new(&surface, scenario, level).unwrap();
                    let plans: Vec<_> = analysis
                        .plans()
                        .plans
                        .into_iter()
                        .map(|fp| fp.plan)
                        .collect();
                    compared += assert_plans_match_concrete(
                        &at,
                        &analysis.log,
                        &surface.schema,
                        &analysis.config,
                        &plans,
                    )
                    .len();
                }
            }
        }
        assert!(compared > 4000, "{compared}");

        // Literal twins: the symbolized side cannot tell the endpoints'
        // statements apart, yet each twin's plan replays its own script.
        let (log, schema) = literal_twins();
        assert_eq!(
            statement_template(&log[0].sql).unwrap(),
            statement_template(&log[2].sql).unwrap()
        );
        let mut trace = lift_trace(&log, &schema).unwrap();
        symbolize_trace(&mut trace).unwrap();
        let symbolized = Analyzer::from_trace(trace);
        let config = RefinementConfig::none();
        let scripts = session_scripts(&log);
        let plans: Vec<_> = symbolized
            .analyze(&config)
            .findings
            .iter()
            .map(|f| build_plan(symbolized.history(), f, &log, &scripts))
            .collect();
        let findings = assert_plans_match_concrete("literal twins", &log, &schema, &config, &plans);
        for api in ["pay_alice", "pay_bob"] {
            assert!(findings.iter().any(|f| f.api == api), "{api}: {findings:?}");
        }
        for (finding, plan) in findings.iter().zip(&plans) {
            let plan = plan.as_ref().unwrap();
            assert_eq!(plan.sessions[0].api, finding.api);
            for session in &plan.sessions {
                let (_, own) = scripts.iter().find(|(api, _)| *api == session.api).unwrap();
                let own: Vec<_> = own.iter().map(|&i| log[i].sql.to_string()).collect();
                assert_eq!(session.statements, own, "{finding:?}");
            }
        }
    }

    #[test]
    fn renderings_are_deterministic() {
        let report = ReplayReport {
            apps: vec![AppReplay {
                app: "x".into(),
                session_locked: false,
                levels: vec![LevelReplay {
                    level: IsolationLevel::ReadCommitted,
                    scenarios: vec![ScenarioReplay {
                        scenario: "s".into(),
                        outcomes: Vec::new(),
                    }],
                }],
            }],
        };
        assert_eq!(render_text(&report), render_text(&report));
        let json = render_json(&report);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
