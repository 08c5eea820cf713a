//! `acidrain_bench`: the repository's one named benchmark. Five workloads,
//! one per process, every layer timed from outside through its public
//! functions. `BENCHMARK.json` at the repository root is its contract;
//! `perfbench/README.md` is its glossary.
//!
//! ```text
//! acidrain_bench [run] --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--smoke]
//! acidrain_bench all --seed <u64> [--seconds <n>] [--runs <k>] [--trace <0|1>] --out <file>
//! acidrain_bench compare <a.json> <b.json>
//! acidrain_bench manifest
//! ```

mod audit;
mod compare;
mod durable;
mod host;
mod json;
mod metrics;
mod ops;
mod probes;
mod read;
mod run;
mod shop;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use acidrain_db::IsolationLevel;
use acidrain_harness::experiments::PAPER_DEFAULT_ISOLATION;

use crate::json::{obj, Json};
use crate::run::{Outcome, Workload};
use crate::shop::{Pacing, Shop, ShopConfig, Transport};

/// What `audit_corpus` must count on every sweep of its pinned cells.
const AUDIT_PINNED: audit::Counts = audit::Counts {
    findings: 2483,
    confirmed: 2114,
    blocked: 262,
    inconclusive: 107,
    closed: 1127,
};

/// Levels of the pinned sweep: the weakest level in common use, the
/// paper's default, and the strongest. All six take ~9.5 s a sweep on the
/// host the benchmark was written on, which leaves no room for a second.
const AUDIT_LEVELS: [IsolationLevel; 3] = [
    IsolationLevel::ReadCommitted,
    PAPER_DEFAULT_ISOLATION,
    IsolationLevel::Serializable,
];

#[derive(Debug, Clone)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    results: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  acidrain_bench [run] --workload <name> --seed <u64> --seconds <n> --trace <0|1> \
         [--smoke] [--results <dir>]\n  acidrain_bench all --seed <u64> [--seconds <n>] \
         [--runs <k>] [--trace <0|1>] --out <file>\n  acidrain_bench compare <a.json> <b.json>\n\
         workloads: {}",
        metrics::WORKLOADS.map(|w| w.name).join(" ")
    );
    ExitCode::from(2)
}

/// Sizes are constants: a repetition is a fixed amount of work. `--smoke`
/// shrinks them to a functional check whose numbers mean nothing.
fn build(args: &RunArgs) -> Option<Box<dyn Workload>> {
    let (seed, smoke) = (args.seed, args.smoke);
    let shop = |transport, ops_per_client: usize, warmup_per_client: usize| {
        Box::new(Shop::new(ShopConfig {
            transport,
            pacing: Pacing::Closed,
            seed,
            ops_per_client: if smoke { 60 } else { ops_per_client },
            warmup_per_client: if smoke { 10 } else { warmup_per_client },
            level: PAPER_DEFAULT_ISOLATION,
            smoke,
        })) as Box<dyn Workload>
    };
    Some(match args.workload.as_str() {
        "wire_shop" => shop(Transport::Wire, 600, 100),
        "engine_shop" => shop(Transport::Engine, 4000, 400),
        "engine_read" => {
            let (rows, ops, warmup) = if smoke {
                (2000, 300, 50)
            } else {
                (ops::CATALOG_ROWS, 100_000, 5000)
            };
            Box::new(read::Read::new(seed, rows, ops, warmup))
        }
        "engine_durable" => {
            let (ops, warmup) = if smoke { (80, 10) } else { (1000, 50) };
            Box::new(durable::Durable::new(seed, ops, warmup, &args.results))
        }
        "audit_corpus" => {
            if smoke {
                let levels = [IsolationLevel::ReadCommitted];
                Box::new(audit::Audit::new(seed, &levels, 0, None).truncated(4))
            } else {
                Box::new(audit::Audit::new(
                    seed,
                    &AUDIT_LEVELS,
                    4,
                    Some(AUDIT_PINNED),
                ))
            }
        }
        _ => return None,
    })
}

fn parse_run(args: &[String]) -> Option<RunArgs> {
    let mut out = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: metrics::RUN_SECONDS as f64,
        traced: false,
        smoke: false,
        results: PathBuf::from("perfbench/results"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => out.workload = it.next()?.clone(),
            "--seed" => out.seed = it.next()?.parse().ok()?,
            "--seconds" => out.seconds = it.next()?.parse().ok().filter(|s| *s > 0.0)?,
            "--trace" => {
                out.traced = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--smoke" => out.smoke = true,
            "--results" => out.results = PathBuf::from(it.next()?),
            _ => return None,
        }
    }
    (!out.workload.is_empty()).then_some(out)
}

fn metrics_json(outcome: &Outcome, detailed: bool) -> Json {
    Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|(name, unit, value, per_rep)| {
                let mut fields = vec![("value", Json::Num(*value)), ("unit", Json::str(*unit))];
                if detailed && !per_rep.is_empty() {
                    let s = stats::spread(per_rep);
                    fields.push(("q1", Json::Num(s.q1)));
                    fields.push(("q3", Json::Num(s.q3)));
                    let per_rep = per_rep.iter().map(|v| Json::Num(*v)).collect();
                    fields.push(("per_repetition", Json::Arr(per_rep)));
                }
                (name.to_string(), obj(fields))
            })
            .collect(),
    )
}

/// The file a person reads: the result line's fields plus the host, the
/// workload's constants and the spread over repetitions.
fn write_result(args: &RunArgs, workload: &dyn Workload, outcome: &Outcome) -> std::io::Result<()> {
    let detail = obj(vec![
        ("workload", Json::str(args.workload.clone())),
        ("traced", Json::Bool(args.traced)),
        ("smoke", Json::Bool(args.smoke)),
        ("seconds", Json::Num(args.seconds)),
        ("host", host::fingerprint(args.seed, &workload.constants())),
        ("repetitions", Json::UInt(outcome.repetitions as u64)),
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::UInt(outcome.attempted)),
        ("failed", Json::UInt(outcome.failed)),
        ("rejected", Json::UInt(outcome.rejected)),
        (
            "check_failures",
            Json::Arr(outcome.check_failures.iter().map(Json::str).collect()),
        ),
        ("metrics", metrics_json(outcome, true)),
        ("claim", Json::Null),
    ]);
    std::fs::create_dir_all(&args.results)?;
    let kind = if args.traced { "trace" } else { "e2e" };
    let path = args.results.join(format!("{}-{kind}.json", args.workload));
    std::fs::write(path, detail.render_pretty(3))?;
    if args.traced {
        let path = args.results.join(format!("trace-{}.jsonl", args.workload));
        trace::write_spans(&path, &outcome.spans)?;
    }
    Ok(())
}

fn run(args: &RunArgs) -> ExitCode {
    // A number from a debug build or a one-core host would be read as a
    // measurement; refuse to make one rather than skip quietly.
    if cfg!(debug_assertions) && !args.smoke {
        eprintln!("acidrain_bench: refusing to measure a debug build (use --release, or --smoke)");
        return ExitCode::from(2);
    }
    if host::cpus() < 2 {
        eprintln!("acidrain_bench: refusing to measure on fewer than 2 CPUs");
        return ExitCode::from(2);
    }
    let Some(mut workload) = build(args) else {
        return usage();
    };
    let outcome = if args.traced {
        run::per_layer(workload.as_mut(), args.seconds)
    } else {
        run::end_to_end(workload.as_mut(), args.seconds, args.smoke)
    };
    for failure in &outcome.check_failures {
        eprintln!("acidrain_bench: {}: check failed: {failure}", args.workload);
    }
    if let Err(e) = write_result(args, workload.as_ref(), &outcome) {
        eprintln!("acidrain_bench: cannot write results: {e}");
        return ExitCode::from(1);
    }
    let line = obj(vec![
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::UInt(outcome.attempted)),
        ("failed", Json::UInt(outcome.failed)),
        ("metrics", metrics_json(&outcome, false)),
    ]);
    println!("{}", line.render());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(Path::new(a), Path::new(b)),
            _ => usage(),
        },
        Some("all") => compare::all(&args[1..]).unwrap_or_else(usage),
        Some("manifest") => {
            print!("{}", metrics::manifest().render_pretty(2));
            ExitCode::SUCCESS
        }
        Some("run") => parse_run(&args[1..]).map_or_else(usage, |a| run(&a)),
        Some(_) => parse_run(&args).map_or_else(usage, |a| run(&a)),
        None => usage(),
    }
}
