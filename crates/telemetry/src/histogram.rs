//! Log-bucketed histograms cheap enough for hot paths.
//!
//! Values land in power-of-two buckets (`bucket 0` holds the value 0,
//! bucket *k* holds `[2^(k-1), 2^k)`), so recording is a `leading_zeros`
//! plus one relaxed `fetch_add` — no locks, no floats. Snapshots carry the
//! full bucket vector and merge associatively, which is what lets shard
//! snapshots and delta windows compose.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_types,
        clippy::float_arithmetic,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap
    )
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bucket 0 for the value 0, then one bucket per power of two up to 2^63.
pub const BUCKET_COUNT: usize = 65;

/// The bucket a value lands in.
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket (for exporter `le` labels).
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        1..=63 => (1u64 << index) - 1,
        _ => u64::MAX,
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; BUCKET_COUNT],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A cloneable handle to a shared histogram; clones record into the same
/// underlying buckets.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value. Hot-path cheap: one `leading_zeros`, four relaxed
    /// atomic ops.
    pub fn record(&self, value: u64) {
        let core = &self.0;
        core.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        core.min.fetch_min(value, Ordering::Relaxed);
        core.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Point-in-time copy of the bucket state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let core = &self.0;
        HistogramSnapshot {
            buckets: core
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: core.sum.load(Ordering::Relaxed),
            min: core.min.load(Ordering::Relaxed),
            max: core.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a histogram's state. Merge is associative and
/// commutative with [`HistogramSnapshot::empty`] as the identity, and
/// [`HistogramSnapshot::delta`] inverts merge for monotonically grown
/// histograms — the property tests in `tests/props.rs` pin all three laws.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "a snapshot is a pure copy; dropping it unread observes nothing"]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (`BUCKET_COUNT` entries).
    pub buckets: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
    min: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// The identity element for [`merge`](Self::merge).
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; BUCKET_COUNT],
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Total observations — always equal to the sum of the bucket counts.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&b| b == 0)
    }

    /// Smallest recorded value, if any.
    pub fn min(&self) -> Option<u64> {
        if self.is_empty() {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest recorded value, if any.
    pub fn max(&self) -> Option<u64> {
        if self.is_empty() {
            None
        } else {
            Some(self.max)
        }
    }

    /// Arithmetic mean of recorded values (0.0 when empty).
    #[expect(
        clippy::disallowed_types,
        clippy::float_arithmetic,
        reason = "a mean computed once from the integer sum and count"
    )]
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (0.0–1.0).
    #[expect(
        clippy::disallowed_types,
        clippy::float_arithmetic,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the rank is computed once from the integer count; q is clamped to [0, 1], so the rank is a non-negative count"
    )]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Some(bucket_upper_bound(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Combines two snapshots of disjoint observation sets.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(&other.buckets)
                .map(|(&a, &b)| a + b)
                .collect(),
            sum: self.sum + other.sum,
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// The observations recorded after `earlier` was taken (both snapshots
    /// must come from the same growing histogram). The round-trip law
    /// `earlier.merge(&later.delta(&earlier)) == later` holds because a
    /// growing histogram's min/max already cover every earlier sample.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let grown = self.count() > earlier.count();
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(&now, &was)| now.saturating_sub(was))
                .collect(),
            sum: self.sum.saturating_sub(earlier.sum),
            min: if grown { self.min } else { u64::MAX },
            max: if grown { self.max } else { 0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn record_and_stats() {
        let h = Histogram::new();
        for v in [0, 1, 5, 5, 900] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum, 911);
        assert_eq!(s.min(), Some(0));
        assert_eq!(s.max(), Some(900));
        assert!((s.mean() - 911.0 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn clones_share_state() {
        let h = Histogram::new();
        let h2 = h.clone();
        h.record(7);
        h2.record(9);
        assert_eq!(h.snapshot().count(), 2);
    }

    #[test]
    fn quantiles() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // Median of 1..=100 lands in the [64,127] bucket, capped at max.
        let p50 = s.quantile(0.5).unwrap();
        assert!((63..=100).contains(&p50), "p50 {p50}");
        assert_eq!(s.quantile(1.0), Some(100));
        assert_eq!(HistogramSnapshot::empty().quantile(0.5), None);
    }

    #[test]
    fn merge_identity_and_delta_roundtrip() {
        let h = Histogram::new();
        h.record(3);
        let early = h.snapshot();
        h.record(1);
        h.record(4000);
        let late = h.snapshot();
        let delta = late.delta(&early);
        assert_eq!(delta.count(), 2);
        assert_eq!(early.merge(&delta), late);
        assert_eq!(early.merge(&HistogramSnapshot::empty()), early);
        // No growth → empty delta.
        assert!(late.delta(&late).is_empty());
    }
}
