//! The measuring loop shared by every workload: repetitions of a fixed
//! operation count, each on a freshly built store, repeated until the
//! run's time is spent; medians over the repetitions are what is reported.
//!
//! The operation count per repetition is fixed because the shop tables
//! grow as they are written: a repetition cut off by the clock would do
//! different work on a faster commit. The clock only decides how many
//! repetitions are made.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::Instant;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, Samples};
use crate::trace::Span;

/// Per-layer values, keyed by the names in [`PER_LAYER`].
pub type Layers = BTreeMap<&'static str, f64>;

/// One repetition: a fresh store, warm-up, then the fixed operations.
#[derive(Debug, Default)]
pub struct Rep {
    /// Build and seed the store, start the server, connect, warm up.
    pub setup_s: f64,
    /// Wall time of the measured operations, first start to last end.
    pub wall_s: f64,
    pub attempted: u64,
    /// Operations that ended in an error a user would see: a database
    /// error that outlived the retry budget, a protocol error, a refused
    /// connection.
    pub failed: u64,
    /// Business-rule refusals (empty cart, voucher spent): not failures.
    pub rejected: u64,
    /// Latency of every operation that did not fail, in nanoseconds.
    pub latency: Samples,
    /// Output checks that did not hold, in words. Empty on a correct run.
    pub check_failures: Vec<String>,
    /// Filled by traced repetitions only.
    pub layers: Layers,
    pub spans: Vec<Span>,
}

impl Rep {
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall_s
    }

    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.check_failures.push(what());
        }
    }
}

/// Run `n` client threads against one start line. A client connects and
/// warms up, then waits at the line *twice*; between the two waits, with
/// every client idle, `at_line` runs on the calling thread (a traced
/// repetition switches the engine's metrics on there, so that counters
/// cover the measured part only). Set-up ends and the measured part
/// begins at the returned instant.
pub fn clients<R: Send>(
    n: usize,
    at_line: impl FnOnce(),
    client: impl Fn(usize, &Barrier) -> R + Sync,
) -> (Instant, Vec<R>) {
    let line = Barrier::new(n + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|c| {
                let (client, line) = (&client, &line);
                s.spawn(move || client(c, line))
            })
            .collect();
        line.wait();
        at_line();
        let t0 = Instant::now();
        line.wait();
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (t0, results)
    })
}

pub trait Workload {
    /// The frozen tail percentile: the highest with at least ten samples
    /// beyond it in one repetition.
    fn tail(&self) -> f64;

    /// Repetition `index` of the run. Repetitions with the same index do
    /// the same work.
    fn repetition(&mut self, index: usize, traced: bool) -> Rep;

    /// Layer probes, run once after the repetitions of a traced run.
    fn probes(&mut self, layers: &mut Layers, check_failures: &mut Vec<String>);

    /// The constants that size this workload, for the host fingerprint.
    fn constants(&self) -> Vec<(&'static str, String)>;
}

/// Everything one process measured.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub rejected: u64,
    pub repetitions: usize,
    pub check_failures: Vec<String>,
    /// Name, unit, the reported value and, where it is a median over
    /// repetitions, the values it is the median of.
    pub metrics: Vec<(&'static str, &'static str, f64, Vec<f64>)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }
}

fn values(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

/// Whether another repetition should start: only while at least half of
/// one (by the mean so far) fits into what is left of the run's time.
fn time_left(spent: f64, reps: usize, seconds: f64) -> bool {
    reps == 0 || spent + spent / reps as f64 / 2.0 < seconds
}

/// Untraced run: end-to-end metrics only, tracing and engine metrics off.
/// `smoke` repetitions are too small to support the tail; it is reported
/// all the same, unchecked.
pub fn end_to_end(workload: &mut dyn Workload, seconds: f64, smoke: bool) -> Outcome {
    let tail = workload.tail();
    let mut reps: Vec<Rep> = Vec::new();
    // Past its time a run goes on only until its samples support the tail
    // (on a host so slow that one sweep of the audit's cells is all that
    // fits).
    while time_left(reps.iter().map(|r| r.wall_s).sum(), reps.len(), seconds)
        || !(smoke || Samples::supports(reps.iter().map(|r| r.latency.len()).sum(), tail))
    {
        reps.push(workload.repetition(reps.len(), false));
    }
    let mut check_failures = Vec::new();
    for rep in &mut reps {
        check_failures.append(&mut rep.check_failures);
    }
    let p50s: Vec<f64> = reps
        .iter_mut()
        .map(|r| r.latency.percentile_us(0.5))
        .collect();
    // The tail is taken per repetition, and the median over repetitions
    // reported, when each has ten samples beyond it; a workload whose
    // repetitions are too few operations for that (a sweep of the audit's
    // cells) pools the run's samples.
    let tails: Vec<f64> = if reps
        .iter()
        .all(|r| Samples::supports(r.latency.len(), tail))
    {
        reps.iter_mut()
            .map(|r| r.latency.percentile_us(tail))
            .collect()
    } else {
        let mut pooled = Samples::default();
        for rep in &reps {
            pooled.extend(&rep.latency);
        }
        vec![pooled.percentile_us(tail)]
    };
    let per_rep: [(&str, Vec<f64>); 4] = [
        ("setup_s", values(&reps, |r| r.setup_s)),
        ("ops_per_s", values(&reps, Rep::ops_per_s)),
        ("op_p50_us", p50s),
        ("op_tail_us", tails),
    ];
    let mut metrics = Vec::new();
    for e in END_TO_END {
        let (value, per_rep) = match per_rep.iter().find(|(n, _)| *n == e.name) {
            Some((_, per_rep)) => (median(per_rep), per_rep.clone()),
            None => (crate::host::peak_rss_mb(), Vec::new()),
        };
        metrics.push((e.name, e.unit, value, per_rep));
    }
    Outcome {
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        rejected: reps.iter().map(|r| r.rejected).sum(),
        repetitions: reps.len(),
        check_failures,
        metrics,
        spans: Vec::new(),
    }
}

/// Share of a traced run's time given to repetitions; the probes get the
/// rest.
const TRACED_REP_SHARE: f64 = 0.6;

/// Traced run: untraced and traced repetitions alternate (so their ratio
/// is the tracing overhead), then the layer probes run over what was
/// recorded. Per-layer values are medians over the traced repetitions.
pub fn per_layer(workload: &mut dyn Workload, seconds: f64) -> Outcome {
    let started = Instant::now();
    let budget = seconds * TRACED_REP_SHARE;
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    while time_left(started.elapsed().as_secs_f64(), traced.len(), budget) {
        let index = traced.len();
        plain.push(workload.repetition(index, false));
        traced.push(workload.repetition(index, true));
    }
    let mut check_failures = Vec::new();
    for rep in plain.iter_mut().chain(traced.iter_mut()) {
        check_failures.append(&mut rep.check_failures);
    }
    let mut layers: Layers = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    for m in PER_LAYER {
        let per_rep: Vec<f64> = traced
            .iter()
            .filter_map(|r| r.layers.get(m.name).copied())
            .collect();
        if !per_rep.is_empty() {
            layers.insert(m.name, median(&per_rep));
        }
    }
    let untraced_rate = median(&values(&plain, Rep::ops_per_s));
    let traced_rate = median(&values(&traced, Rep::ops_per_s));
    layers.insert("obs.overhead_share", 1.0 - traced_rate / untraced_rate);
    workload.probes(&mut layers, &mut check_failures);

    let spans = traced
        .last_mut()
        .map(|r| std::mem::take(&mut r.spans))
        .unwrap_or_default();
    let all = || plain.iter().chain(traced.iter());
    Outcome {
        attempted: all().map(|r| r.attempted).sum(),
        failed: all().map(|r| r.failed).sum(),
        rejected: all().map(|r| r.rejected).sum(),
        repetitions: plain.len() + traced.len(),
        check_failures,
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, layers[m.name], Vec::new()))
            .collect(),
        spans,
    }
}
