//! `all` runs every workload, each in a process of its own, into one set
//! file; `compare` judges one set against another by the bounds the
//! benchmark fixed.

use std::path::Path;
use std::process::{Command, ExitCode};

use crate::host;
use crate::json::{obj, Json};
use crate::metrics::{Better, END_TO_END, WORKLOADS};
use crate::stats::spread;

/// Run every workload `--runs` times and write the set to `--out`.
/// `None` on a malformed command line.
pub fn all(args: &[String]) -> Option<ExitCode> {
    let (mut seed, mut seconds, mut runs, mut traced, mut out) =
        (0u64, crate::metrics::RUN_SECONDS as f64, 1usize, "0", None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => seed = it.next()?.parse().ok()?,
            "--seconds" => seconds = it.next()?.parse().ok()?,
            "--runs" => runs = it.next()?.parse().ok().filter(|k| *k > 0)?,
            "--trace" => traced = it.next().filter(|t| *t == "0" || *t == "1")?,
            "--out" => out = Some(it.next()?.clone()),
            _ => return None,
        }
    }
    let out = out?;
    let exe = std::env::current_exe().ok()?;
    let mut workloads = Vec::new();
    let mut sound = true;
    for w in WORKLOADS {
        let mut values: Vec<(String, String, Vec<Json>)> = Vec::new();
        let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
        for i in 0..runs {
            eprintln!("acidrain_bench: {} run {}/{runs}", w.name, i + 1);
            let output = Command::new(&exe)
                .args(["run", "--workload", w.name, "--trace", traced])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .output();
            let result = output.ok().filter(|o| o.status.success()).and_then(|o| {
                let text = String::from_utf8_lossy(&o.stdout).into_owned();
                text.lines().last().and_then(|l| Json::parse(l).ok())
            });
            let Some(result) = result else {
                eprintln!("acidrain_bench: {} produced no result", w.name);
                correct = false;
                continue;
            };
            correct &= result.get("correct") == Some(&Json::Bool(true));
            attempted += result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0) as u64;
            failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            for (name, metric) in result.get("metrics").map_or(&[][..], Json::fields) {
                let value = metric.get("value").cloned().unwrap_or(Json::Null);
                let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
                match values.iter_mut().find(|(n, _, _)| n == name) {
                    Some((_, _, vs)) => vs.push(value),
                    None => values.push((name.clone(), unit.to_string(), vec![value])),
                }
            }
        }
        sound &= correct && failed == 0;
        workloads.push(obj(vec![
            ("name", Json::str(w.name)),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::UInt(attempted)),
            ("failed", Json::UInt(failed)),
            (
                "metrics",
                Json::Obj(
                    values
                        .into_iter()
                        .map(|(name, unit, vs)| {
                            (
                                name,
                                obj(vec![("unit", Json::Str(unit)), ("values", Json::Arr(vs))]),
                            )
                        })
                        .collect(),
                ),
            ),
        ]));
    }
    let set = obj(vec![
        ("kind", Json::str("acidrain_bench set")),
        ("traced", Json::Bool(traced == "1")),
        ("seconds", Json::Num(seconds)),
        ("runs", Json::UInt(runs as u64)),
        ("host", host::fingerprint(seed, &[])),
        ("workloads", Json::Arr(workloads)),
        ("claim", Json::Null),
    ]);
    if let Err(e) = std::fs::write(&out, set.render_pretty(4)) {
        eprintln!("acidrain_bench: cannot write {out}: {e}");
        return Some(ExitCode::from(1));
    }
    Some(if sound {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn values_of(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    set.get("workloads")
        .and_then(Json::as_arr)
        .into_iter()
        .flatten()
        .filter(|w| w.get("name").and_then(Json::as_str) == Some(workload))
        .filter_map(|w| w.get("metrics")?.get(metric)?.get("values")?.as_arr())
        .flatten()
        .filter_map(Json::as_f64)
        .collect()
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    /// Either side's own runs spread wider than the bound: the pair cannot
    /// tell a change of that size from noise.
    Unresolved,
}

/// Judge `b` against base `a` for a metric that may worsen by `bound`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (sa, sb) = (spread(a), spread(b));
    let worsening = match better {
        Better::Lower => sb.median / sa.median - 1.0,
        Better::Higher => 1.0 - sb.median / sa.median,
    };
    let noisy = |s: &crate::stats::Spread| s.n >= 2 && s.relative_iqr() > bound;
    if noisy(&sa) || noisy(&sb) {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// One row per (metric, workload): both medians with their quartiles, the
/// ratio of `b` to its base `a`, and the verdict. Fails on any `worse`.
pub fn compare(a: &Path, b: &Path) -> ExitCode {
    let (set_a, set_b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("acidrain_bench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<15} {:<12} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload", "metric", "a.median", "a.q1..q3", "b.median", "b.q1..q3", "b/a", "bound"
    );
    let mut worse = 0;
    for w in WORKLOADS {
        for m in END_TO_END {
            let (va, vb) = (
                values_of(&set_a, w.name, m.name),
                values_of(&set_b, w.name, m.name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{:<15} {:<12} missing from one side", w.name, m.name);
                continue;
            }
            let (sa, sb) = (spread(&va), spread(&vb));
            let verdict = judge(&va, &vb, m.better, m.bound);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{:<15} {:<12} {:>12.4} {:>25} {:>12.4} {:>25} {:>8.4} {:>6.2}  {}",
                w.name,
                m.name,
                sa.median,
                format!("{:.4}..{:.4}", sa.q1, sa.q3),
                sb.median,
                format!("{:.4}..{:.4}", sb.q1, sb.q3),
                sb.median / sa.median,
                m.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!("base: a = {}; {worse} worse", a.display());
    if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judges_by_direction_bound_and_spread() {
        let base = [100.0, 101.0, 99.0];
        assert_eq!(
            judge(&base, &[105.0, 106.0, 104.0], Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&base, &[115.0, 116.0, 114.0], Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&base, &[115.0, 116.0, 114.0], Better::Higher, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&base, &[85.0, 86.0, 84.0], Better::Higher, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&base, &[80.0, 100.0, 125.0], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // One run a side has no spread to doubt.
        assert_eq!(
            judge(&[100.0], &[120.0], Better::Lower, 0.10),
            Verdict::Worse
        );
    }
}
