//! Driving the static repair adviser against the live engine.
//!
//! `acidrain-static::remediate` proves each fix set closed *statically*:
//! the re-audited trace admits no anomaly. This module adds the dynamic
//! half of the proof: for every finding with a closing fix, the original
//! Lemma-4 witness is lowered over the same repaired log and config the
//! re-audit read ([`ScenarioAnalysis::repaired_plan`]) and executed
//! through the witness replayer. Candidates are tried in cost order and
//! the first whose replay does **not** confirm the anomaly is recommended
//! ([`acidrain_static::RemedyOutcome::chosen`]); a fix that still confirms
//! is a static/dynamic disagreement the report surfaces (and
//! `acidrain advise` turns into a failing exit code).
//!
//! The fall-through matters: the static model is deliberately more
//! conservative than the engine in places (e.g. lock scopes it cannot
//! see), so a cheaper candidate can close on paper and lose under
//! execution. Walking the lattice until the witness dies keeps the
//! recommendation honest without giving up on cheap fixes wholesale.

use acidrain_apps::endpoints::{all_surfaces, AppSurface};
use acidrain_db::{IsolationLevel, Obs};
use acidrain_static::{
    sweep_surface, AppRemedies, AuditError, RemedyReport, ScenarioAnalysis, ScenarioRemedies,
    Verdict,
};

use crate::replay::{execute_replay_plan, ReplayCaches};

/// Remediate every finding of one analysis, replaying every closing
/// candidate until one survives the witness. Adviser-level counters
/// (candidates, closures, replays) are recorded on `obs`.
pub fn advise_scenario(analysis: &ScenarioAnalysis<'_>, obs: &Obs) -> ScenarioRemedies {
    let (surface, scenario, level) = (analysis.surface(), analysis.scenario(), analysis.level());
    let mut remedies = analysis.remedies();
    let mut caches = ReplayCaches::new(analysis.memo());
    for (index, outcome) in remedies.outcomes.iter_mut().enumerate() {
        obs.repair_candidates(outcome.tried as u64);
        obs.repair_closures(outcome.candidates.len() as u64);
        if outcome.candidates.is_empty() {
            continue;
        }
        let mut fallback: Option<(usize, Verdict)> = None;
        for (ci, candidate) in outcome.candidates.iter().enumerate() {
            let Ok((repaired, session_levels)) = analysis.repaired_plan(index, candidate) else {
                continue;
            };
            obs.repair_replay();
            let verdict = execute_replay_plan(
                scenario,
                level,
                &repaired,
                &surface.schema,
                &session_levels,
                &mut caches,
            );
            if verdict != Verdict::Confirmed {
                outcome.chosen = Some(ci);
                outcome.verdict = Some(verdict);
                break;
            }
            if fallback.is_none() {
                fallback = Some((ci, verdict));
            }
        }
        if outcome.chosen.is_none() {
            // Every lowered candidate still confirmed: report the cheapest
            // so the disagreement is visible. None lowered: recommend the
            // cheapest static closure, flagged as unreplayed, and say why.
            let (ci, verdict) = fallback.unwrap_or_else(|| {
                let reason = match analysis.repaired_plan(index, &[]) {
                    Err(reason) => format!("witness not replayable: {reason}"),
                    Ok(_) => "no candidate could be lowered onto the witness plan".to_string(),
                };
                (0, Verdict::Inconclusive(reason))
            });
            outcome.chosen = Some(ci);
            outcome.verdict = Some(verdict);
        }
    }
    remedies
}

/// [`advise_scenario`] for every scenario of `surface` at each of
/// `levels`.
pub fn advise_surface(
    surface: &AppSurface,
    levels: &[IsolationLevel],
    obs: &Obs,
) -> Result<AppRemedies, AuditError> {
    sweep_surface(surface, levels, |analysis| {
        Ok(advise_scenario(&analysis, obs))
    })
}

/// Advise the whole registry at each of `levels`.
pub fn advise_all(levels: &[IsolationLevel], obs: &Obs) -> Result<RemedyReport, AuditError> {
    let apps = all_surfaces()
        .iter()
        .map(|s| advise_surface(s, levels, obs))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(RemedyReport { apps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acidrain_apps::endpoints::{booking_surfaces, didactic_surfaces, flexcoin_surface};
    use acidrain_core::AnomalyScope;

    fn surface_named(name: &str) -> AppSurface {
        didactic_surfaces()
            .into_iter()
            .chain(booking_surfaces())
            .find(|s| s.app == name)
            .unwrap()
    }

    #[test]
    fn every_scoped_bank_fix_survives_its_witness() {
        let surface = surface_named("bank-figure1b");
        let obs = Obs::new();
        obs.enable();
        let advised = advise_surface(&surface, &[IsolationLevel::ReadCommitted], &obs).unwrap();
        let rc = advised.level(IsolationLevel::ReadCommitted).unwrap();
        assert!(rc.finding_count() > 0);
        for scenario in &rc.scenarios {
            for o in &scenario.outcomes {
                assert!(o.closed(), "{:?}", o.residual);
                assert_ne!(
                    o.verdict,
                    Some(Verdict::Confirmed),
                    "recommended fix failed its replay: {o:?}"
                );
            }
        }
        let counters = obs.counters();
        assert!(counters.repair_candidates > 0);
        assert!(counters.repair_closures > 0);
        assert!(counters.repair_replays > 0);
    }

    #[test]
    fn transfer_bank_lost_update_is_fixed_and_verified() {
        // The new banking surface: scoped but lock-free. Its level-based
        // lost update must get a closing fix whose replay never confirms.
        let surface = surface_named("bank-transfer");
        let obs = Obs::new();
        let advised = advise_surface(&surface, &[IsolationLevel::ReadCommitted], &obs).unwrap();
        let rc = advised.level(IsolationLevel::ReadCommitted).unwrap();
        let level_based: Vec<_> = rc
            .scenarios
            .iter()
            .flat_map(|s| &s.outcomes)
            .filter(|o| o.finding.scope == AnomalyScope::LevelBased)
            .collect();
        assert!(!level_based.is_empty(), "transfer must race with itself");
        for o in level_based {
            assert!(o.closed(), "{:?}", o.residual);
            assert_ne!(o.verdict, Some(Verdict::Confirmed), "{o:?}");
        }
    }

    #[test]
    fn flexcoin_scope_fix_survives_the_witness() {
        let surface = flexcoin_surface();
        let obs = Obs::new();
        let advised = advise_surface(&surface, &[IsolationLevel::ReadCommitted], &obs).unwrap();
        let rc = advised.level(IsolationLevel::ReadCommitted).unwrap();
        for scenario in &rc.scenarios {
            for o in &scenario.outcomes {
                if !o.closed() {
                    continue;
                }
                assert_ne!(o.verdict, Some(Verdict::Confirmed), "{o:?}");
                assert!(o.recommended().is_some());
            }
        }
    }
}
