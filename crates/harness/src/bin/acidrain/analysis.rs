//! The three analysis sweeps over the application registry: `audit`
//! (static 2AD, nothing executed), `replay` (every finding run against
//! the live engine) and `advise` (a minimal fix per finding, proven closed
//! on re-audit and on replay). They share the `--app` filter, the
//! `--json` writer and one schema-versioned report layout.

use std::fmt::Display;
use std::process::exit;
use std::time::{Duration, Instant};

use acidrain_apps::endpoints::AppSurface;
use acidrain_db::Obs;
use acidrain_harness::{advise_surface, replay_surface};
use acidrain_static::{audit_surface, render_json, render_text, AppReport, Report, ScenarioReport};

use crate::Args;

/// Run `each` over the selected surfaces (the first error ends the run),
/// write the JSON document and print the text report, closed by the line
/// `trailer` makes of the report and the sweep's wall time.
fn sweep<S: ScenarioReport, E: Display>(
    args: &Args,
    mut each: impl FnMut(&AppSurface) -> Result<AppReport<S>, E>,
    trailer: impl FnOnce(&Report<S>, Duration) -> String,
) -> Report<S> {
    let start = Instant::now();
    let apps = args
        .surfaces()
        .iter()
        .map(|surface| each(surface).unwrap_or_else(|e| args.fail(e)))
        .collect();
    let report = Report { apps };
    let elapsed = start.elapsed();

    args.write_json(|| render_json(&report));
    if args.text_report() {
        print!("{}", render_text(&report));
        println!(
            "\n{} surfaces, {}",
            report.apps.len(),
            trailer(&report, elapsed)
        );
    }
    report
}

pub fn audit(args: &Args) {
    sweep(args, audit_surface, |report, elapsed| {
        format!(
            "{} findings, audited in {elapsed:.2?} (no concurrent execution)",
            report.finding_count()
        )
    });
}

pub fn replay(args: &Args) {
    let levels = args.levels();
    let report = sweep(
        args,
        |surface| replay_surface(surface, &levels),
        |report, elapsed| {
            format!(
                "{} confirmed / {} blocked / {} inconclusive, replayed in {elapsed:.2?}",
                report.count("confirmed"),
                report.count("blocked"),
                report.count("inconclusive"),
            )
        },
    );

    // A level-based anomaly confirmed at Serializable means the engine
    // failed to serialize: an engine bug, not an application one.
    let ser_failures = report.serializable_level_based_confirmed();
    if !ser_failures.is_empty() {
        eprintln!(
            "acidrain replay: {} level-based anomalies CONFIRMED at Serializable:",
            ser_failures.len()
        );
        for o in ser_failures {
            eprintln!(
                "  {} on {} (API {})",
                o.finding.pattern, o.finding.table, o.finding.api
            );
        }
        exit(3);
    }
}

pub fn advise(args: &Args) {
    let levels = args.levels();
    let obs = Obs::new();
    obs.enable();
    let report = sweep(
        args,
        |surface| advise_surface(surface, &levels, &obs),
        |_, elapsed| {
            let counters = obs.counters();
            format!(
                "{} candidates tried, {} closures, {} post-fix replays, advised in {elapsed:.2?}",
                counters.repair_candidates, counters.repair_closures, counters.repair_replays,
            )
        },
    );

    // The closure gate: every level-based finding has a closing fix set,
    // and no recommended fix still confirms on post-repair replay.
    let mut tripped = false;
    for (what, outcomes) in [
        (
            "level-based findings have NO closing fix",
            report.unclosed_level_based(),
        ),
        (
            "recommended fixes still CONFIRMED on replay",
            report.confirmed_after_fix(),
        ),
    ] {
        if outcomes.is_empty() {
            continue;
        }
        tripped = true;
        eprintln!("acidrain advise: {} {what}:", outcomes.len());
        for (app, level, o) in outcomes {
            eprintln!(
                "  {app} @ {}: {} on {} (API {})",
                level.name(),
                o.finding.pattern,
                o.finding.table,
                o.finding.api
            );
        }
    }
    if tripped {
        exit(3);
    }
}
