//! Bounded-memory approximate companions to the exact streaming plane.
//!
//! Two sketches with *provable* error bounds, both deterministic (salted
//! FNV-1a from [`crate::hash`], no process state):
//!
//! * [`SpaceSaving`] — Metwally et al.'s top-k heavy-hitter summary. With
//!   capacity `k` over a stream of total weight `N`: every reported
//!   estimate over-counts by at most `N/k`, estimates never under-count,
//!   and any item whose true weight exceeds `N/k` is guaranteed present.
//!   Backs the streaming TLD table (Fig. 4) and the Fig. 8 sample feed.
//!   Its only state is one ordered map of at most `k` counters: a tracked
//!   item's update is one lookup with no allocation, and a new item at
//!   capacity evicts the (min count, min item) counter, found by a scan
//!   over the `k` counters.
//! * [`DistinctSketch`] — an HLL-style register sketch with a fixed
//!   `2^p` byte registers. Standard error is `1.04 / sqrt(2^p)` relative;
//!   small cardinalities fall back to linear counting. Backs the
//!   streaming distinct-NX-name estimate (Fig. 3's name axis).
//!
//! Memory is `O(k + 2^p)` regardless of stream length — the whole point:
//! the approximate plane never grows with the firehose.
//!
//! Register updates accumulate the harmonic denominator as an exact
//! fixed-point `u128` (`sum of 2^(64-rank)` in units of `2^-64`), so the
//! only floating-point work is a single expression at estimate time —
//! no float accumulation anywhere (`clippy::float_arithmetic`).

use std::collections::BTreeMap;

use crate::hash::fnv1a;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SsCounter {
    count: u64,
    /// Maximum possible over-count (the evicted minimum absorbed at entry).
    error: u64,
}

/// One reported heavy hitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopEntry {
    pub item: String,
    /// Estimated weight; `true_weight <= count <= true_weight + error`.
    pub count: u64,
    /// Upper bound on the over-count for this entry.
    pub error: u64,
}

/// Space-saving top-k summary (Metwally, Agrawal, El Abbadi 2005).
#[derive(Debug, Clone, Default)]
pub struct SpaceSaving {
    capacity: usize,
    counters: BTreeMap<String, SsCounter>,
    /// Total offered weight N (the `N` in the `N/k` bound).
    weight: u64,
}

impl SpaceSaving {
    pub fn new(capacity: usize) -> Self {
        SpaceSaving {
            capacity: capacity.max(1),
            ..Default::default()
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total weight offered so far.
    pub fn total_weight(&self) -> u64 {
        self.weight
    }

    /// Offers `weight` occurrences of `item`. A tracked item, or a new
    /// one while there is room, costs one map lookup. A new item at
    /// capacity replaces the (min count, min item) counter, found by a
    /// scan over the at most `capacity` counters.
    pub fn offer(&mut self, item: &str, weight: u64) {
        self.weight += weight;
        if let Some(counter) = self.counters.get_mut(item) {
            counter.count += weight;
            return;
        }
        if self.counters.len() < self.capacity {
            self.counters.insert(
                item.to_string(),
                SsCounter {
                    count: weight,
                    error: 0,
                },
            );
            return;
        }
        // Full: the new item inherits (and absorbs) the minimum counter.
        // `min_by_key` keeps the first minimum, and the map iterates in
        // item order, so ties go to the smallest item.
        let (victim, min_count) = self
            .counters
            .iter()
            .min_by_key(|(_, c)| c.count)
            .map(|(victim, c)| (victim.clone(), c.count))
            .expect("capacity >= 1, so a full summary has a minimum");
        self.counters.remove(&victim);
        self.counters.insert(
            item.to_string(),
            SsCounter {
                count: min_count + weight,
                error: min_count,
            },
        );
    }

    /// Estimated weight of `item` (0 if not tracked). Never under-counts
    /// a tracked item.
    pub fn estimate(&self, item: &str) -> u64 {
        self.counters.get(item).map_or(0, |c| c.count)
    }

    /// The tracked entries, heaviest first; ties break on the item string
    /// ascending so output is deterministic.
    pub fn top(&self, n: usize) -> Vec<TopEntry> {
        let mut entries: Vec<TopEntry> = self
            .counters
            .iter()
            .map(|(item, c)| TopEntry {
                item: item.clone(),
                count: c.count,
                error: c.error,
            })
            .collect();
        entries.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.item.cmp(&b.item)));
        entries.truncate(n);
        entries
    }

    /// The worst-case over-count across tracked items: `N / k`.
    pub fn error_bound(&self) -> u64 {
        self.weight / self.capacity as u64
    }

    /// Approximate heap footprint in bytes (strings + tree entries).
    pub fn heap_bytes(&self) -> usize {
        let strings: usize = self.counters.keys().map(String::len).sum();
        strings + self.counters.len() * std::mem::size_of::<(String, SsCounter)>()
    }
}

/// HLL-style distinct-count sketch with `2^p` one-byte registers.
#[derive(Debug, Clone)]
pub struct DistinctSketch {
    precision: u32,
    salt: u64,
    registers: Vec<u8>,
}

impl DistinctSketch {
    /// `precision` is clamped into `[4, 16]` (16..65536 registers).
    pub fn new(precision: u32, salt: u64) -> Self {
        let precision = precision.clamp(4, 16);
        DistinctSketch {
            precision,
            salt,
            registers: vec![0u8; 1usize << precision],
        }
    }

    pub fn precision(&self) -> u32 {
        self.precision
    }

    /// Register count `m = 2^p`.
    #[cfg(test)]
    fn register_count(&self) -> usize {
        self.registers.len()
    }

    /// Inserts one item (idempotent — duplicates never change the state).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the top `precision` bits of a u64 hash index a 2^precision register array"
    )]
    pub fn insert(&mut self, item: &str) {
        let h = fnv1a(item.as_bytes(), self.salt);
        let idx = (h >> (64 - self.precision)) as usize;
        let tail = h << self.precision;
        let rank = if tail == 0 {
            65 - self.precision
        } else {
            tail.leading_zeros() + 1
        };
        let rank = u8::try_from(rank).expect("rank <= 61 for p >= 4");
        if self.registers[idx] < rank {
            self.registers[idx] = rank;
        }
    }

    /// Register-wise max merge. Panics if the precisions or salts differ
    /// (merging incompatible sketches is a logic error, not data).
    pub fn merge(&mut self, other: &DistinctSketch) {
        assert_eq!(self.precision, other.precision, "precision mismatch");
        assert_eq!(self.salt, other.salt, "salt mismatch");
        for (r, &o) in self.registers.iter_mut().zip(&other.registers) {
            if *r < o {
                *r = o;
            }
        }
    }

    /// Estimated distinct count. Relative standard error `1.04/sqrt(2^p)`;
    /// the small-range regime uses linear counting over empty registers.
    #[expect(
        clippy::disallowed_types,
        clippy::float_arithmetic,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the harmonic sum accumulates exactly in u128; floats appear only in the closed-form estimate, cast to u64 after the non-positive check"
    )]
    pub fn estimate(&self) -> u64 {
        let m = self.registers.len();
        // Exact fixed-point harmonic denominator in units of 2^-64:
        // each register contributes 2^(64 - rank). Ranks are <= 61 for
        // p >= 4, so each term and the 2^16-term sum fit comfortably in
        // u128 — no float accumulation.
        let mut denom_fixed: u128 = 0;
        let mut zeros: u64 = 0;
        for &r in &self.registers {
            denom_fixed += 1u128 << (64 - u32::from(r));
            if r == 0 {
                zeros += 1;
            }
        }
        let m_f = m as f64;
        let alpha = match m {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m_f),
        };
        let denom = (denom_fixed as f64) / 18_446_744_073_709_551_616.0;
        let raw = alpha * m_f * m_f / denom;
        let estimate = if raw <= 2.5 * m_f && zeros > 0 {
            // Linear counting: much tighter when most registers are empty.
            m_f * (m_f / zeros as f64).ln()
        } else {
            raw
        };
        if estimate <= 0.0 {
            0
        } else {
            // Round-half-up without a lossy cast chain.
            (estimate + 0.5).floor() as u64
        }
    }

    /// Theoretical relative standard error for this precision.
    #[expect(
        clippy::disallowed_types,
        clippy::float_arithmetic,
        reason = "a closed-form error bound of the precision; nothing accumulates in float"
    )]
    pub fn standard_error(&self) -> f64 {
        1.04 / (self.registers.len() as f64).sqrt()
    }

    /// Exact register-array footprint in bytes: `2^p`, independent of how
    /// many items were inserted.
    pub fn heap_bytes(&self) -> usize {
        self.registers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_saving_exact_when_under_capacity() {
        let mut ss = SpaceSaving::new(10);
        for (item, n) in [("com", 5u64), ("net", 3), ("org", 2)] {
            ss.offer(item, n);
        }
        assert_eq!(ss.estimate("com"), 5);
        assert_eq!(ss.estimate("net"), 3);
        assert_eq!(ss.estimate("org"), 2);
        assert_eq!(ss.estimate("xyz"), 0);
        let top = ss.top(2);
        assert_eq!(top[0].item, "com");
        assert_eq!(top[0].error, 0);
        assert_eq!(top[1].item, "net");
    }

    #[test]
    fn space_saving_never_undercounts_and_respects_n_over_k() {
        // Zipf-ish stream of 40 distinct items through a k=8 summary.
        let mut ss = SpaceSaving::new(8);
        let mut truth: BTreeMap<String, u64> = BTreeMap::new();
        for i in 0..40u64 {
            let item = format!("tld-{i}");
            let weight = 1 + 400 / (i + 1);
            ss.offer(&item, weight);
            *truth.entry(item).or_insert(0) += weight;
        }
        let n: u64 = truth.values().sum();
        assert_eq!(ss.total_weight(), n);
        let bound = ss.error_bound();
        assert_eq!(bound, n / 8);
        for entry in ss.top(8) {
            let true_count = truth[&entry.item];
            assert!(entry.count >= true_count, "under-count on {}", entry.item);
            assert!(
                entry.count - true_count <= bound,
                "over-count beyond N/k on {}",
                entry.item
            );
        }
        // Any item heavier than N/k must be tracked.
        for (item, &count) in &truth {
            if count > bound {
                assert!(ss.estimate(item) > 0, "heavy hitter {item} evicted");
            }
        }
    }

    #[test]
    fn space_saving_ties_break_deterministically() {
        let mut ss = SpaceSaving::new(4);
        for item in ["b", "a", "d", "c"] {
            ss.offer(item, 7);
        }
        let items: Vec<String> = ss.top(4).into_iter().map(|e| e.item).collect();
        assert_eq!(items, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn distinct_sketch_is_idempotent_and_deterministic() {
        let mut a = DistinctSketch::new(10, 7);
        let mut b = DistinctSketch::new(10, 7);
        for i in 0..500 {
            a.insert(&format!("name-{i}.com"));
            b.insert(&format!("name-{i}.com"));
            b.insert(&format!("name-{i}.com"));
        }
        assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn distinct_sketch_tracks_cardinality_within_bound() {
        let sketch_err = DistinctSketch::new(12, 0xD15C).standard_error();
        for &n in &[100u64, 1_000, 10_000] {
            let mut s = DistinctSketch::new(12, 0xD15C);
            for i in 0..n {
                s.insert(&format!("host-{i}.example.net"));
            }
            let est = s.estimate();
            let err = (est as f64 - n as f64).abs() / n as f64;
            // 4 sigma of the theoretical standard error: deterministic
            // hashing means this either passes forever or never.
            assert!(
                err <= 4.0 * sketch_err,
                "n={n} est={est} err={err:.4} bound={:.4}",
                4.0 * sketch_err
            );
        }
    }

    #[test]
    fn distinct_sketch_merge_equals_union() {
        let mut left = DistinctSketch::new(10, 3);
        let mut right = DistinctSketch::new(10, 3);
        let mut both = DistinctSketch::new(10, 3);
        for i in 0..300 {
            left.insert(&format!("l-{i}"));
            both.insert(&format!("l-{i}"));
        }
        for i in 0..300 {
            right.insert(&format!("r-{i}"));
            both.insert(&format!("r-{i}"));
        }
        left.merge(&right);
        assert_eq!(left.estimate(), both.estimate());
    }

    #[test]
    fn distinct_sketch_memory_is_fixed() {
        let mut s = DistinctSketch::new(12, 0);
        assert_eq!(s.heap_bytes(), 4096);
        for i in 0..100_000 {
            s.insert(&format!("flood-{i}"));
        }
        assert_eq!(s.heap_bytes(), 4096, "sketch grew with the stream");
    }

    #[test]
    fn precision_is_clamped() {
        assert_eq!(DistinctSketch::new(0, 0).register_count(), 16);
        assert_eq!(DistinctSketch::new(30, 0).register_count(), 65_536);
    }
}
