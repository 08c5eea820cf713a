//! What the numbers were taken on: every result file carries this, so a
//! figure cannot be read without its host.

use std::process::Command;

use crate::json::{obj, Json};

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The checked-out commit, or `"none"` outside a git repository (the
/// benchmark's driver runs from a plain copy of the files).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "none".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map_or(head.clone(), |rev| rev.trim().to_string()),
        None => head,
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

pub fn fingerprint(seed: u64, constants: &[(&'static str, String)]) -> Json {
    obj(vec![
        ("nproc", Json::UInt(cpus() as u64)),
        ("profile", Json::str(profile())),
        ("git_rev", Json::str(git_rev())),
        ("rustc", Json::str(rustc_version())),
        ("seed", Json::UInt(seed)),
        (
            "constants",
            Json::Obj(
                constants
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::str(v.clone())))
                    .collect(),
            ),
        ),
    ])
}

/// The process's resident-set high-water mark. One workload per process
/// is what makes this a property of the workload.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
