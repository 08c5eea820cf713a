//! `acidrain twoad` — the standalone 2AD analysis, mirroring the paper's
//! prototype (§4.2.3): feed it a SQL query log and a schema, get back the
//! potential ACIDRain anomalies with witness schedules.
//!
//! Log format: one statement per line, optionally prefixed with
//! `[sSESSION api#invocation]`; `#` comments ignored.

use std::process::exit;

use acidrain_core::lift::parse_log_file;
use acidrain_core::{Analyzer, ColumnTarget, RefinementConfig};
use acidrain_db::IsolationLevel;

use crate::{Args, Flag, Kind};

pub const FLAGS: &[Flag] = &[
    Flag {
        name: "--schema",
        metavar: "FILE.sql",
        kind: Kind::Required,
        help: "CREATE TABLE script",
    },
    Flag {
        name: "--log",
        metavar: "FILE.log",
        kind: Kind::Required,
        help: "SQL query log, one statement per line",
    },
    Flag {
        name: "--isolation",
        metavar: "LEVEL",
        kind: Kind::Value,
        help: "refinement isolation level (default mysql-rr)",
    },
    Flag {
        name: "--no-refinement",
        metavar: "",
        kind: Kind::Switch,
        help: "raw Theorem-1 search",
    },
    Flag {
        name: "--target",
        metavar: "TABLE[.COLUMN]",
        kind: Kind::Repeated,
        help: "restrict to a table/column (repeatable)",
    },
    Flag {
        name: "--max-concurrency",
        metavar: "N",
        kind: Kind::Value,
        help: "bound witness width (web-server pool size)",
    },
    Flag {
        name: "--witnesses",
        metavar: "N",
        kind: Kind::Value,
        help: "print N full witness schedules (default 3)",
    },
    Flag {
        name: "--dot",
        metavar: "FILE",
        kind: Kind::Value,
        help: "write the abstract history as Graphviz",
    },
];

pub fn run(args: &Args) {
    let schema_path = args.value("--schema").expect("walker enforces --schema");
    let log_path = args.value("--log").expect("walker enforces --log");
    // `--no-refinement` and `--isolation` override each other; the one
    // given last wins.
    let isolation = match args
        .flags
        .iter()
        .rev()
        .find(|(name, _)| matches!(*name, "--isolation" | "--no-refinement"))
    {
        Some(("--isolation", text)) => Some(args.level(text)),
        Some(_) => None,
        None => Some(IsolationLevel::MySqlRepeatableRead),
    };
    let targets: Vec<ColumnTarget> = args
        .values("--target")
        .map(|t| match t.split_once('.') {
            Some((table, column)) => ColumnTarget::column(table, column),
            None => ColumnTarget::table(t),
        })
        .collect();
    let witnesses_to_print = args.number("--witnesses").unwrap_or(3usize);

    let schema_text = std::fs::read_to_string(schema_path)
        .unwrap_or_else(|e| args.fail(format!("cannot read schema {schema_path:?}: {e}")));
    let schema = acidrain_sql::parser::parse_schema(&schema_text)
        .unwrap_or_else(|e| args.fail(format!("schema error: {e}")));
    let log_text = std::fs::read_to_string(log_path)
        .unwrap_or_else(|e| args.fail(format!("cannot read log {log_path:?}: {e}")));
    let entries = parse_log_file(&log_text);
    if entries.is_empty() {
        args.fail(format!("log {log_path:?} contains no statements"));
    }

    let analyzer = Analyzer::from_log(&entries, &schema)
        .unwrap_or_else(|e| args.fail(format!("lift error: {e}")));
    let mut config = match isolation {
        Some(level) => RefinementConfig::at_isolation(level),
        None => RefinementConfig::none(),
    };
    config.max_concurrency = args.number("--max-concurrency");

    if let Some(path) = args.value("--dot") {
        if let Err(e) = std::fs::write(path, acidrain_core::to_dot(analyzer.history())) {
            args.fail(format!("cannot write {path:?}: {e}"));
        }
        println!("abstract history graph written to {path}");
    }

    let report = if targets.is_empty() {
        analyzer.analyze(&config)
    } else {
        analyzer.analyze_targeted(&config, &targets)
    };

    let stats = report.stats;
    println!(
        "abstract history: {} operation nodes, {} transaction nodes ({} explicit), \
         {} API nodes, {} edges",
        stats.operation_nodes, stats.txn_nodes, stats.explicit_txns, stats.api_nodes, stats.edges
    );
    println!(
        "analysis: {} statements lifted in {:.3} ms, searched in {:.3} ms{}",
        entries.len(),
        report.parse_time.as_secs_f64() * 1e3,
        report.analyze_time.as_secs_f64() * 1e3,
        match isolation {
            Some(level) => format!(", refined at {level}"),
            None => ", unrefined".to_string(),
        }
    );
    println!();

    if report.findings.is_empty() {
        println!("no potential anomalies found");
        return;
    }
    println!(
        "{} potential anomalies (witness pairs):",
        report.findings.len()
    );
    for finding in &report.findings {
        println!("  {}", analyzer.describe(finding));
    }
    for (i, finding) in report.findings.iter().take(witnesses_to_print).enumerate() {
        println!();
        println!("witness #{}: {}", i + 1, analyzer.describe(finding));
        print!("{}", analyzer.witness_trace(finding));
    }
    // Exit code 3 signals findings, for scripting.
    exit(3);
}
