//! Every workload end to end at `--smoke` size, traced and untraced: each
//! named metric is printed with its unit, nothing fails, every output
//! check holds, and layers a workload bypasses report nothing.
//!
//! Sizes are tiny and the build may be a debug one, so the numbers mean
//! nothing; only their presence and the counters are asserted.

use std::path::PathBuf;
use std::process::Command;

/// The last line of a run's standard output, split into its top-level
/// fields and the `name -> (value, unit)` pairs of its metrics. The line's
/// shape is fixed by the driver's contract, so plain string splitting is
/// enough to read it back.
struct Line {
    text: String,
    metrics: Vec<(String, f64, String)>,
}

fn run(workload: &str, traced: bool) -> Line {
    let results = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}"));
    let output = Command::new(env!("CARGO_BIN_EXE_acidrain_bench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.01",
            "--smoke",
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--results")
        .arg(&results)
        .output()
        .expect("run acidrain_bench");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{workload}: {stderr}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let text = stdout.lines().last().expect("a result line").to_string();
    let body = text
        .split_once("\"metrics\": {")
        .expect("a metrics object")
        .1;
    let metrics = body
        .split("}, ")
        .filter_map(|entry| {
            let (name, rest) = entry
                .trim_start_matches('"')
                .split_once("\": {\"value\": ")?;
            let (value, unit) = rest.split_once(", \"unit\": \"")?;
            let unit = unit.split('"').next()?;
            Some((name.to_string(), value.parse().ok()?, unit.to_string()))
        })
        .collect();
    if traced {
        let spans = std::fs::read_to_string(results.join(format!("trace-{workload}.jsonl")))
            .expect("a span file");
        assert!(spans.lines().count() > 0, "{workload}: no spans written");
    }
    Line { text, metrics }
}

impl Line {
    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} missing from {}", self.text))
            .1
    }
}

const WORKLOADS: [&str; 5] = [
    "wire_shop",
    "engine_shop",
    "engine_read",
    "engine_durable",
    "audit_corpus",
];

/// `BENCHMARK.json` names the metrics; read the (name, unit) pairs of one
/// of its lists the same way.
fn declared(list: &str) -> Vec<(String, String)> {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let section = manifest
        .split_once(&format!("\"{list}\": ["))
        .expect("the list")
        .1
        .split_once(']')
        .expect("the list's end")
        .0;
    section
        .lines()
        .filter_map(|line| {
            let name = line.split_once("\"name\": \"")?.1.split('"').next()?;
            let unit = line.split_once("\"unit\": \"")?.1.split('"').next()?;
            Some((name.to_string(), unit.to_string()))
        })
        .collect()
}

#[test]
fn every_workload_reports_every_metric_and_fails_nothing() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.len() >= 5 && per_layer.len() >= 70);
    for workload in WORKLOADS {
        for (traced, names) in [(false, &end_to_end), (true, &per_layer)] {
            let line = run(workload, traced);
            assert!(
                line.text.starts_with("{\"correct\": true, \"attempted\": "),
                "{workload}: {}",
                line.text
            );
            assert!(
                line.text.contains(", \"failed\": 0, "),
                "{workload}: {}",
                line.text
            );
            let reported: Vec<(String, String)> = line
                .metrics
                .iter()
                .map(|(n, _, u)| (n.clone(), u.clone()))
                .collect();
            assert_eq!(&reported, names, "{workload}, traced {traced}");
            if !traced {
                for (name, value, _) in &line.metrics {
                    assert!(*value > 0.0, "{workload}: {name} is {value}");
                }
                continue;
            }
            let durable = workload == "engine_durable";
            for name in ["db.wal.appends", "db.wal.fsyncs", "db.wal.bytes_per_commit"] {
                assert_eq!(line.value(name) > 0.0, durable, "{workload}: {name}");
            }
            let wire = workload == "wire_shop";
            for name in ["net.frames_per_op", "net.ping_us_p50", "net.stmt_us_p50"] {
                assert_eq!(line.value(name) > 0.0, wire, "{workload}: {name}");
            }
            let audit = workload == "audit_corpus";
            assert_eq!(line.value("harness.replays") > 0.0, audit, "{workload}");
            assert_eq!(line.value("sql.stmts") > 0.0, !audit, "{workload}");
        }
    }
}

#[test]
fn refuses_what_it_cannot_measure() {
    let exe = env!("CARGO_BIN_EXE_acidrain_bench");
    let unknown = Command::new(exe)
        .args([
            "--workload",
            "nonesuch",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ])
        .output()
        .expect("run acidrain_bench");
    assert_eq!(unknown.status.code(), Some(2));
    assert!(unknown.stdout.is_empty());
    if cfg!(debug_assertions) {
        let debug = Command::new(exe)
            .args([
                "--workload",
                "engine_read",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ])
            .output()
            .expect("run acidrain_bench");
        assert_eq!(
            debug.status.code(),
            Some(2),
            "a debug build must refuse to measure"
        );
        assert!(debug.stdout.is_empty());
    }
}
