//! Summary statistics the benchmark reports.

/// A percentile is only reported when at least this many samples lie
/// strictly beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least a `p` share of the samples at or below it.
///
/// # Panics
/// If `sorted` is empty or `p` is outside `(0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 1.0, "percentile share {p} outside (0, 1]");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p` percentile among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, p)
}

/// Whether the `p` percentile of `n` samples has at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it.
pub fn tail_is_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_TAIL_SAMPLES
}

/// Throughput robust to transient slow-downs: the median over batches
/// of `ops` operations each, with batch `i` taking `batch_s[i]` seconds.
///
/// # Panics
/// If `batch_s` is empty.
pub fn median_rate(batch_s: &[f64], ops: f64) -> f64 {
    let rates: Vec<f64> = batch_s.iter().map(|&s| ops / s).collect();
    median(&rates)
}

/// Arithmetic mean (NaN for no values).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values.into_iter().fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n as f64
}

/// Median (mean of the middle pair for an even count).
///
/// # Panics
/// If `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Quartiles `[q1, q2, q3]` by Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method), so the benchmark's own spread
/// matches the one computed over its runs.
///
/// # Panics
/// If `values` is empty.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let s = sorted(values);
    let ld = s.len();
    if ld == 1 {
        return [s[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Run-to-run spread: the distance between the first and third quartile
/// as a share of the median (0 when the median is 0).
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Failure accounting: operations attempted and the share that failed.
/// A one-shot trial fails when it ends unbalanced; an online arrival
/// fails when admission sheds it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Count one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Count `attempted` operations of which `failed` failed.
    ///
    /// # Panics
    /// If `failed > attempted`.
    pub fn record_many(&mut self, attempted: u64, failed: u64) {
        assert!(failed <= attempted, "{failed} failures out of {attempted} attempts");
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Failed share of the attempts (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Share of the attempts that did not fail: `1 - failed_frac`. Unlike
    /// `failed_frac` it is never 0 on a working system, so it can carry a
    /// relative regression bound.
    pub fn served_frac(&self) -> f64 {
        1.0 - self.failed_frac()
    }
}
