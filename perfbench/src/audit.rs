//! `audit_corpus`: the paper's detector side. One operation is one
//! (surface, level) cell taken through the whole pipeline — record the
//! solo trace, lift it, symbolize it, search it, replay every finding
//! against the live engine, advise and verify a fix — on one thread.

use std::time::Instant;

use acidrain_apps::{all_surfaces, AppSurface};
use acidrain_core::{lift_trace, AbstractHistory, Analyzer, AnomalyScope};
use acidrain_db::{IsolationLevel, Obs};
use acidrain_harness::{advise_surface, replay_surface};
use acidrain_static::{
    plan_scenario, refinement_for, remediate_scenario, symbolize_trace, Verdict,
};

use rand::seq::SliceRandom;

use crate::ops::stream_rng;
use crate::run::{Layers, Rep, Workload};
use crate::stats::Samples;
use crate::trace::Span;

/// What a sweep found, summed over its cells. The same on every sweep of
/// every run, or the detector changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    pub findings: u64,
    pub confirmed: u64,
    pub blocked: u64,
    pub inconclusive: u64,
    pub closed: u64,
}

pub struct Audit {
    surfaces: Vec<AppSurface>,
    /// The cells of one sweep, in the order `--seed` shuffled them into.
    cells: Vec<(usize, IsolationLevel)>,
    /// Cells run before the clock starts: the first surfaces in registry
    /// order at the first level, the same whatever the seed.
    warmup: Vec<(usize, IsolationLevel)>,
    /// The counts every sweep must reproduce; `None` only for `--smoke`,
    /// whose cell list is not the pinned one.
    pinned: Option<Counts>,
    first: Option<Counts>,
}

/// Stage timings of the traced pipeline, one sample per call.
#[derive(Default)]
struct Stages {
    record: Samples,
    lift: Samples,
    history: Samples,
    symbolize: Samples,
    detect: Samples,
    witness: Samples,
    plan: Samples,
    remediate: Samples,
    replay: Samples,
    advise: Samples,
    nodes: u64,
    edges: u64,
    candidates: u64,
    replays: u64,
}

impl Audit {
    /// `levels` of every surface, shuffled by `seed`. The order decides
    /// nothing but which caches and allocations a cell finds warm.
    pub fn new(
        seed: u64,
        levels: &[IsolationLevel],
        warmup_cells: usize,
        pinned: Option<Counts>,
    ) -> Audit {
        let surfaces = all_surfaces();
        let mut cells: Vec<(usize, IsolationLevel)> = (0..surfaces.len())
            .flat_map(|s| levels.iter().map(move |&l| (s, l)))
            .collect();
        cells.shuffle(&mut stream_rng(seed, 0xa0d1, 0));
        Audit {
            surfaces,
            cells,
            warmup: (0..warmup_cells).map(|s| (s, levels[0])).collect(),
            pinned,
            first: None,
        }
    }

    /// Keep only the first `cells` cells: the `--smoke` sweep.
    pub fn truncated(mut self, cells: usize) -> Audit {
        self.cells.truncate(cells);
        self
    }

    /// One cell, untraced: the calls a user of the pipeline makes.
    fn cell(&self, surface: &AppSurface, level: IsolationLevel, counts: &mut Counts) -> bool {
        let levels = [level];
        for scenario in &surface.scenarios {
            let Ok(log) = scenario.record(level) else {
                return false;
            };
            let Ok(mut trace) = lift_trace(&log, &surface.schema) else {
                return false;
            };
            if symbolize_trace(&mut trace).is_err() {
                return false;
            }
            let report = Analyzer::from_trace(trace).analyze(&refinement_for(surface, level));
            counts.findings += report.findings.len() as u64;
        }
        let Ok(replay) = replay_surface(surface, &levels) else {
            return false;
        };
        let Ok(advice) = advise_surface(surface, &levels, &Obs::new()) else {
            return false;
        };
        tally(&replay.levels[0], &advice.levels[0], level, counts)
    }

    /// One cell with a clock around every stage. `history`, `witness`,
    /// `plan` and `remediate` are timed by calling them once more on their
    /// own: inside the untraced cell they run within `detect`, `replay`
    /// and `advise`.
    fn traced_cell(
        &self,
        surface: &AppSurface,
        level: IsolationLevel,
        counts: &mut Counts,
        stages: &mut Stages,
    ) -> bool {
        let levels = [level];
        for scenario in &surface.scenarios {
            let Ok(log) = stages.record.time(|| scenario.record(level)) else {
                return false;
            };
            let Ok(mut trace) = stages.lift.time(|| lift_trace(&log, &surface.schema)) else {
                return false;
            };
            if stages
                .symbolize
                .time(|| symbolize_trace(&mut trace))
                .is_err()
            {
                return false;
            }
            let copy = trace.clone();
            stages.history.time(|| AbstractHistory::build(copy));
            let analyzer = Analyzer::from_trace(trace);
            let config = refinement_for(surface, level);
            let report = stages.detect.time(|| analyzer.analyze(&config));
            for finding in &report.findings {
                stages.witness.time(|| analyzer.witness_trace(finding));
            }
            counts.findings += report.findings.len() as u64;
            stages.nodes += report.stats.operation_nodes as u64;
            stages.edges += report.stats.edges as u64;
            if stages
                .plan
                .time(|| plan_scenario(surface, scenario, level))
                .is_err()
            {
                return false;
            }
            match stages
                .remediate
                .time(|| remediate_scenario(surface, scenario, level))
            {
                Ok(remedies) => {
                    stages.candidates += remedies
                        .outcomes
                        .iter()
                        .map(|o| o.tried as u64)
                        .sum::<u64>()
                }
                Err(_) => return false,
            }
        }
        let Ok(replay) = stages.replay.time(|| replay_surface(surface, &levels)) else {
            return false;
        };
        let obs = Obs::new();
        obs.enable();
        let Ok(advice) = stages
            .advise
            .time(|| advise_surface(surface, &levels, &obs))
        else {
            return false;
        };
        stages.replays += obs.counters().repair_replays;
        tally(&replay.levels[0], &advice.levels[0], level, counts)
    }
}

/// Add one cell's verdicts to `counts`. `false` when a level-based
/// anomaly was confirmed at SERIALIZABLE: the engine failed to serialize,
/// and the cell counts as failed.
fn tally(
    replay: &acidrain_static::LevelReplay,
    advice: &acidrain_static::LevelRemedies,
    level: IsolationLevel,
    counts: &mut Counts,
) -> bool {
    counts.confirmed += replay.count("confirmed") as u64;
    counts.blocked += replay.count("blocked") as u64;
    counts.inconclusive += replay.count("inconclusive") as u64;
    counts.closed += advice.closed_count() as u64;
    let broken = level == IsolationLevel::Serializable
        && replay.scenarios.iter().flat_map(|s| &s.outcomes).any(|o| {
            o.verdict == Verdict::Confirmed && o.finding.scope == AnomalyScope::LevelBased
        });
    !broken
}

fn stage_layers(stages: &mut Stages, counts: &Counts, wall_s: f64) -> Layers {
    let ms = |s: &mut Samples| s.percentile(0.5) as f64 / 1e6;
    let mut l = Layers::new();
    l.insert("apps.record_ms_p50", ms(&mut stages.record));
    l.insert("core.lift_ms_p50", ms(&mut stages.lift));
    l.insert("core.history_ms_p50", ms(&mut stages.history));
    l.insert("core.detect_ms_p50", ms(&mut stages.detect));
    l.insert("core.witness_us_p50", stages.witness.percentile_us(0.5));
    l.insert("core.nodes", stages.nodes as f64);
    l.insert("core.edges", stages.edges as f64);
    l.insert("core.findings", counts.findings as f64);
    l.insert("static.symbolize_ms_p50", ms(&mut stages.symbolize));
    l.insert("static.plan_ms_p50", ms(&mut stages.plan));
    l.insert("static.remediate_ms_p50", ms(&mut stages.remediate));
    l.insert("static.candidates", stages.candidates as f64);
    l.insert(
        "static.closed_share",
        if counts.findings == 0 {
            0.0
        } else {
            counts.closed as f64 / counts.findings as f64
        },
    );
    l.insert("harness.replay_ms_p50", ms(&mut stages.replay));
    l.insert("harness.advise_ms_p50", ms(&mut stages.advise));
    l.insert("harness.replays", stages.replays as f64);
    l.insert("harness.confirmed", counts.confirmed as f64);
    l.insert("harness.blocked", counts.blocked as f64);
    l.insert("harness.inconclusive", counts.inconclusive as f64);
    l.insert("harness.findings_per_s", counts.findings as f64 / wall_s);
    l
}

impl Workload for Audit {
    fn tail(&self) -> f64 {
        0.90
    }

    /// One sweep of the cells.
    fn repetition(&mut self, _index: usize, traced: bool) -> Rep {
        let origin = Instant::now();
        let mut discard = Counts::default();
        for &(s, level) in &self.warmup {
            self.cell(&self.surfaces[s], level, &mut discard);
        }
        let mut rep = Rep {
            setup_s: origin.elapsed().as_secs_f64(),
            attempted: self.cells.len() as u64,
            ..Rep::default()
        };
        let mut counts = Counts::default();
        let mut stages = Stages::default();
        let t0 = Instant::now();
        for (i, &(s, level)) in self.cells.iter().enumerate() {
            let surface = &self.surfaces[s];
            let start = Instant::now();
            let done = if traced {
                self.traced_cell(surface, level, &mut counts, &mut stages)
            } else {
                self.cell(surface, level, &mut counts)
            };
            let end = Instant::now();
            if !done {
                rep.failed += 1;
                continue;
            }
            rep.latency.push((end - start).as_nanos() as u64);
            if traced {
                rep.spans.push(Span {
                    request: i as u64,
                    id: 0,
                    parent: None,
                    name: "audit.cell",
                    start: (start - origin).as_nanos() as u64,
                    end: (end - origin).as_nanos() as u64,
                });
            }
        }
        rep.wall_s = t0.elapsed().as_secs_f64();

        if let Some(pinned) = self.pinned {
            rep.check(counts == pinned, || {
                format!("sweep counted {counts:?}, pinned {pinned:?}")
            });
        }
        let first = *self.first.get_or_insert(counts);
        rep.check(counts == first, || {
            format!("sweep counted {counts:?}, the first sweep {first:?}")
        });
        if traced {
            rep.layers = stage_layers(&mut stages, &counts, rep.wall_s);
        }
        rep
    }

    fn probes(&mut self, _layers: &mut Layers, _check_failures: &mut Vec<String>) {}

    fn constants(&self) -> Vec<(&'static str, String)> {
        vec![
            ("surfaces", self.surfaces.len().to_string()),
            ("cells_per_sweep", self.cells.len().to_string()),
            ("warmup_cells", self.warmup.len().to_string()),
            ("pinned_counts", format!("{:?}", self.pinned)),
        ]
    }
}
