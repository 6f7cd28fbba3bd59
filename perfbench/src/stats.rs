//! Order statistics for latency samples.
//!
//! A tail percentile is only meaningful when enough samples lie beyond it,
//! so [`tail`] lowers the requested percentile to the highest one that
//! still has [`MIN_BEYOND`] samples above its rank and reports which
//! percentile it actually read, together with the sample count.

/// Samples that must rank above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// One percentile read off a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// Samples the percentile was read from.
    pub samples: usize,
    /// The percentile actually reported (may be below the one asked for).
    pub percentile: f64,
    pub value: f64,
}

/// The nearest-rank `want`th percentile of `samples`, lowered to the
/// highest percentile that has at least [`MIN_BEYOND`] samples ranked above
/// it. `None` when there are too few samples for any such percentile.
pub fn tail(samples: &[f64], want: f64) -> Option<Percentile> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let ceiling = 100.0 * (n - MIN_BEYOND) as f64 / n as f64;
    let percentile = want.min(ceiling);
    // Nearest rank: the smallest rank r with r/n >= p/100, at least 1.
    // The 1e-9 absorbs float error so that p = 100(n-10)/n lands on n-10.
    let rank = ((percentile / 100.0 * n as f64) - 1e-9).ceil().max(1.0) as usize;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Percentile {
        samples: n,
        percentile,
        value: sorted[rank.min(n) - 1],
    })
}

/// Median of `values` (mean of the middle pair for even counts); `None`
/// for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// One slice of a timed phase: the operations completed in it, how long
/// it lasted, the CPU the measured process used, and its latency samples.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub ops: f64,
    pub seconds: f64,
    pub cpu_s: f64,
    pub latency_us: Vec<f64>,
}

/// The median over windows of each per-window rate and percentile, so that
/// a burst of interference in one slice of a run moves them little. CPU per
/// operation is taken over the whole phase instead: a window may hold only
/// a few of the kernel's 10 ms CPU ticks.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub windows: usize,
    pub ops_per_s: f64,
    pub cpu_us_per_op: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    /// Fewest latency samples in any window.
    pub min_samples: usize,
    /// Lowest p99 stand-in read in any window (99 unless a window had fewer
    /// than 1,000 samples).
    pub tail_percentile: f64,
}

/// Summarizes windows that each hold more than [`MIN_BEYOND`] samples;
/// `None` if there is no such window.
pub fn summarize(windows: &[Window]) -> Option<Summary> {
    let mut rate = Vec::new();
    let (mut cpu_s, mut ops) = (0.0, 0.0);
    let mut p50 = Vec::new();
    let mut p95 = Vec::new();
    let mut p99 = Vec::new();
    let mut min_samples = usize::MAX;
    let mut tail_percentile = 100.0f64;
    for w in windows {
        let (Some(mid), Some(upper), Some(high)) = (
            tail(&w.latency_us, 50.0),
            tail(&w.latency_us, 95.0),
            tail(&w.latency_us, 99.0),
        ) else {
            continue;
        };
        rate.push(w.ops / w.seconds);
        cpu_s += w.cpu_s;
        ops += w.ops;
        p50.push(mid.value);
        p95.push(upper.value);
        p99.push(high.value);
        min_samples = min_samples.min(high.samples);
        tail_percentile = tail_percentile.min(high.percentile);
    }
    Some(Summary {
        windows: rate.len(),
        ops_per_s: median(&rate)?,
        cpu_us_per_op: cpu_s * 1e6 / ops,
        p50_us: median(&p50)?,
        p95_us: median(&p95)?,
        p99_us: median(&p99)?,
        min_samples,
        tail_percentile,
    })
}
