//! Guard bench for the observability layer's disabled fast path.
//!
//! The probe contract (see `acidrain-obs`) is that with the registry
//! disabled every probe site costs exactly one relaxed atomic load — no
//! clock reads, no locks, no allocation, no counter traffic. This bench
//! *enforces* that: it times a raw relaxed `AtomicBool` load (the
//! cheapest thing the contract permits) and each disabled probe, and
//! fails (non-zero exit) if any probe costs materially more than the
//! baseline — which is what a sneaked-in lock, clock read, or allocation
//! would look like.
//!
//! The threshold is deliberately loose (small multiple of the baseline
//! plus a constant) so scheduler noise on a busy single-CPU host cannot
//! produce false alarms, while a real regression — even an extra
//! `Instant::now()` at ~20-40ns — still trips it. Each measurement takes
//! the minimum over several trials, which is the standard way to strip
//! preemption noise from a nanosecond-scale loop.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use acidrain_obs::Obs;

const ITERS: u64 = 2_000_000;
const TRIALS: usize = 7;

/// Allowed probe cost: `baseline * FACTOR + SLACK_NS`. One relaxed load
/// plus call overhead sits well inside this; a clock read or mutex does
/// not.
const FACTOR: f64 = 4.0;
const SLACK_NS: f64 = 3.0;

/// Best-of-`TRIALS` per-op time in nanoseconds.
fn per_op_ns<F: FnMut()>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..TRIALS {
        let start = Instant::now();
        for _ in 0..ITERS {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / ITERS as f64);
    }
    best
}

fn main() {
    let obs = Obs::new(); // disabled — the construction default
    let flag = AtomicBool::new(false);

    let baseline = per_op_ns(|| {
        black_box(flag.load(Ordering::Relaxed));
    });
    let budget = baseline * FACTOR + SLACK_NS;

    let probes: [(&str, f64); 6] = [
        (
            "timer",
            per_op_ns(|| {
                black_box(obs.timer().is_armed());
            }),
        ),
        (
            "lock_wait_start",
            per_op_ns(|| {
                black_box(obs.lock_wait_start());
            }),
        ),
        (
            "latch_wait_start",
            per_op_ns(|| {
                black_box(obs.latch_wait_start());
            }),
        ),
        (
            "deadlock",
            per_op_ns(|| {
                obs.deadlock(black_box(7));
            }),
        ),
        (
            "log_append",
            per_op_ns(|| {
                obs.log_append(black_box(7));
            }),
        ),
        (
            "commit_clock",
            per_op_ns(|| {
                obs.commit_clock(black_box(42));
            }),
        ),
    ];

    eprintln!("baseline relaxed load: {baseline:.2} ns/op (budget {budget:.2} ns/op)");
    let mut failed = false;
    for (name, ns) in probes {
        let verdict = if ns <= budget { "ok" } else { "FAIL" };
        eprintln!("  disabled {name:<16} {ns:>7.2} ns/op  {verdict}");
        if ns > budget {
            failed = true;
        }
    }

    // The loops above must also have recorded nothing.
    let report = obs.report();
    assert_eq!(report.statements.count(), 0, "disabled probes recorded");
    assert_eq!(report.counters.deadlocks, 0, "disabled probes counted");
    assert_eq!(report.commit_clock, 0, "disabled probes gauged");

    assert!(
        !failed,
        "a disabled observability probe exceeded the one-atomic-load budget"
    );
    eprintln!("disabled-path overhead within the one-atomic-load budget");
}
