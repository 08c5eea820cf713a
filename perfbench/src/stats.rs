//! Exact-percentile sample recorder and the run-level summaries built on
//! it. Latencies are raw `u64` nanoseconds, sorted once when read — never
//! a bucketed histogram, whose log2 buckets are what made the old
//! BENCH_network.json report p50 as exactly 2097152 ns at five levels.

/// Nearest rank of the `p`-quantile among `n` sorted samples, 1-based: the
/// smallest rank with at least `p` of the sample at or below it. The small
/// allowance keeps `0.9 * 100` from landing on rank 91.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Run `f` under a clock: its result and the nanoseconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

/// Raw nanosecond samples of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    nanos: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            nanos: Vec::with_capacity(n),
            sorted: false,
        }
    }

    pub fn push(&mut self, nanos: u64) {
        self.nanos.push(nanos);
        self.sorted = false;
    }

    /// Run `f` and record how long it took.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, nanos) = timed(f);
        self.push(nanos);
        out
    }

    pub fn extend(&mut self, other: &Samples) {
        self.nanos.extend_from_slice(&other.nanos);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.nanos.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nanos.is_empty()
    }

    pub fn sum(&self) -> u64 {
        self.nanos.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.nanos.is_empty() {
            0.0
        } else {
            self.sum() as f64 / self.nanos.len() as f64
        }
    }

    /// The `p`-quantile by the nearest-rank rule: the smallest sample with
    /// at least `p` of the sample at or below it. 0 when empty.
    pub fn percentile(&mut self, p: f64) -> u64 {
        if self.nanos.is_empty() {
            return 0;
        }
        if !self.sorted {
            self.nanos.sort_unstable();
            self.sorted = true;
        }
        self.nanos[rank(p, self.nanos.len()) - 1]
    }

    /// Microseconds at the `p`-quantile.
    pub fn percentile_us(&mut self, p: f64) -> f64 {
        self.percentile(p) as f64 / 1e3
    }

    /// Whether `n` samples leave at least ten beyond their `p`-quantile:
    /// the rule a tail percentile has to meet to be reported.
    pub fn supports(n: usize, p: f64) -> bool {
        n >= 10 + rank(p, n)
    }
}

/// Median and quartiles of a handful of per-repetition values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Spread {
    /// Interquartile range as a share of the median (0 when the median is).
    pub fn relative_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles by the exclusive method — the one Python's
/// `statistics.quantiles(values, n=4)` uses, so figures here agree with
/// the ones the builder's contract computes.
pub fn spread(values: &[f64]) -> Spread {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    let n = v.len();
    let at = |q: f64| -> f64 {
        match n {
            0 => 0.0,
            1 => v[0],
            _ => {
                let pos = q * (n as f64 + 1.0);
                let lo = (pos.floor() as usize).clamp(1, n - 1);
                let frac = (pos - lo as f64).clamp(0.0, 1.0);
                v[lo - 1] + frac * (v[lo] - v[lo - 1])
            }
        }
    };
    Spread {
        median: at(0.5),
        q1: at(0.25),
        q3: at(0.75),
        n,
    }
}

pub fn median(values: &[f64]) -> f64 {
    spread(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: u64) -> Samples {
        let mut s = Samples::default();
        // Pushed in descending order so the sort is exercised.
        for v in (1..=n).rev() {
            s.push(v);
        }
        s
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let mut s = filled(1000);
        assert_eq!(s.percentile(0.50), 500);
        assert_eq!(s.percentile(0.90), 900);
        assert_eq!(s.percentile(0.99), 990);
        assert_eq!(s.percentile(0.999), 999);
        assert_eq!(s.percentile(1.0), 1000);
        assert_eq!(Samples::default().percentile(0.5), 0);
        let mut one = filled(1);
        assert_eq!(one.percentile(0.99), 1);
    }

    #[test]
    fn percentile_is_not_bucketed() {
        // A log2 histogram would report both of these as 2097152.
        let mut s = Samples::default();
        for v in [1_100_000u64, 1_900_000, 1_500_000] {
            s.push(v);
        }
        assert_eq!(s.percentile(0.5), 1_500_000);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        for (n, p, supported) in [
            (19, 0.50, false),
            (20, 0.50, true),
            (99, 0.90, false),
            (100, 0.90, true),
            (999, 0.99, false),
            (1000, 0.99, true),
            (9999, 0.999, false),
            (10_000, 0.999, true),
        ] {
            assert_eq!(Samples::supports(n, p), supported, "{n} samples, p{p}");
        }
    }

    #[test]
    fn extend_resorts() {
        let mut a = filled(10);
        assert_eq!(a.percentile(1.0), 10);
        let mut b = Samples::default();
        b.push(99);
        a.extend(&b);
        assert_eq!(a.percentile(1.0), 99);
        assert_eq!(a.len(), 11);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v);
        assert!((s.q1 - 2.75).abs() < 1e-12);
        assert!((s.median - 5.5).abs() < 1e-12);
        assert!((s.q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = spread(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(spread(&[7.0]).median, 7.0);
        assert!((spread(&[1.0, 3.0]).median - 2.0).abs() < 1e-12);
    }
}
