//! The names this benchmark reports. `BENCHMARK.json` at the repository
//! root lists the same names, units, directions and bounds; a unit test
//! holds the two together.

use crate::json::{obj, Json};

/// Seconds one run measures for: what the driver passes as `--seconds`.
pub const RUN_SECONDS: u64 = 15;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "wire_shop",
        why: "storefront calls over TCP, closed loop: net (frame, reactor sweep, job queue, reply) does ~95 % of the work; gives capacity",
    },
    Workload {
        name: "engine_shop",
        why: "the identical call stream in-process: bypasses net, so sql parse, db plan/exec, the lock table on hot rows and the query log do the work",
    },
    Workload {
        name: "engine_read",
        why: "autocommit snapshot SELECTs on 100000 rows: latch-free reads, hash and ordered indexes, pins and GC; no lock-table or WAL traffic",
    },
    Workload {
        name: "engine_durable",
        why: "explicit transactions on disjoint rows with a group-commit WAL and real fsync: db::wal dominates, lock waits are ~0",
    },
    Workload {
        name: "audit_corpus",
        why: "the paper's detector over every surface and level: core, static and harness on thousands of tiny stores; no socket, no WAL",
    },
];

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_tail_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Layer = module name. A workload that does not exercise a layer reports
/// its metrics as 0.
pub const PER_LAYER: [PerLayer; 77] = [
    lower("sql.parse_us_p50", "us"),
    lower("sql.parse_share", "share"),
    lower("sql.fingerprint_us_p50", "us"),
    lower("sql.stmts", "count"),
    lower("db.exec.stmt_us_p50", "us"),
    lower("db.exec.stmt_us_p99", "us"),
    lower("db.exec.self_us_p50", "us"),
    lower("db.exec.commit_us_p50", "us"),
    lower("db.exec.stmts_per_op", "count"),
    lower("db.exec.abort_share", "share"),
    lower("db.lock.wait_share", "share"),
    lower("db.lock.wait_us_mean", "us"),
    lower("db.lock.timeouts", "count"),
    lower("db.lock.deadlocks", "count"),
    lower("db.lock.ser_slowdown", "x"),
    higher("db.index.hit_share", "share"),
    lower("db.index.fallbacks", "count"),
    lower("db.storage.gc_runs", "count"),
    lower("db.storage.gc_reclaimed", "count"),
    lower("db.storage.gc_call_us", "us"),
    lower("db.storage.versions_per_row", "x"),
    lower("db.storage.chain_peak", "count"),
    lower("db.log.appends_per_stmt", "count"),
    lower("db.log.take_us", "us"),
    lower("db.wal.appends", "count"),
    lower("db.wal.fsyncs", "count"),
    higher("db.wal.commits_per_fsync", "count"),
    lower("db.wal.bytes_per_commit", "bytes"),
    lower("db.wal.group_wait_us_mean", "us"),
    lower("db.wal.checkpoint_ms", "ms"),
    lower("db.wal.recover_ms", "ms"),
    higher("db.wal.recover_records_per_s", "1/s"),
    lower("db.wal.attach_overhead_share", "share"),
    lower("net.ping_us_p50", "us"),
    lower("net.ping_us_p99", "us"),
    lower("net.stmt_us_p50", "us"),
    lower("net.overhead_us_p50", "us"),
    lower("net.overhead_share", "share"),
    lower("net.unattributed_share", "share"),
    lower("net.open_p50_us", "us"),
    lower("net.open_p99_us", "us"),
    lower("net.connect_us_p50", "us"),
    lower("net.frames_per_op", "count"),
    lower("net.reactor_parks", "count"),
    lower("net.rejected", "count"),
    lower("net.disconnect_aborts", "count"),
    higher("net.rate_ok_max_per_s", "1/s"),
    lower("net.protocol.encode_ns_p50", "ns"),
    lower("net.protocol.decode_ns_p50", "ns"),
    lower("net.protocol.bytes_per_op", "bytes"),
    lower("apps.stmts_per_op", "count"),
    lower("apps.self_us_p50", "us"),
    lower("apps.rejected_share", "share"),
    lower("apps.retry_share", "share"),
    lower("apps.retries_gave_up", "count"),
    lower("apps.record_ms_p50", "ms"),
    lower("core.lift_ms_p50", "ms"),
    lower("core.history_ms_p50", "ms"),
    lower("core.detect_ms_p50", "ms"),
    lower("core.witness_us_p50", "us"),
    lower("core.nodes", "count"),
    lower("core.edges", "count"),
    higher("core.findings", "count"),
    lower("static.symbolize_ms_p50", "ms"),
    lower("static.plan_ms_p50", "ms"),
    lower("static.remediate_ms_p50", "ms"),
    lower("static.candidates", "count"),
    higher("static.closed_share", "share"),
    lower("harness.replay_ms_p50", "ms"),
    lower("harness.advise_ms_p50", "ms"),
    lower("harness.replays", "count"),
    higher("harness.confirmed", "count"),
    lower("harness.blocked", "count"),
    lower("harness.inconclusive", "count"),
    higher("harness.findings_per_s", "1/s"),
    lower("obs.overhead_share", "share"),
    lower("loadgen.late_us_p99", "us"),
];

/// `BENCHMARK.json` as these tables describe it (`acidrain_bench
/// manifest` prints it; a test holds the committed file to it).
pub fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    obj(vec![
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "perfbench/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["perfbench"])),
        ("run_seconds", Json::UInt(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            Json::parse(&committed).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `acidrain_bench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_meet_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
