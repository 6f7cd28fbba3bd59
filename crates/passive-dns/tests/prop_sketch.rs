//! Property tests pinning the approximate plane's theoretical error
//! bounds against exact reference computations:
//!
//! * Space-saving top-k (Metwally et al.): estimates never under-count,
//!   over-count by at most N/k, and every item whose true weight exceeds
//!   N/k is present in the summary — for ANY stream — and the summary
//!   equals a naive model that evicts the (min count, min item) counter.
//! * Distinct sketch (HLL-style): the estimate is within a small multiple
//!   of the `1.04/sqrt(2^p)` standard error across deterministic seeds,
//!   merging equals union, and memory never grows with the stream.

use std::collections::BTreeMap;

use nxd_passive_dns::stream::{DistinctSketch, SpaceSaving};
use proptest::prelude::*;

/// Streams where a handful of items dominate — the regime top-k is for.
fn arb_weighted_stream() -> impl Strategy<Value = Vec<(usize, u32)>> {
    proptest::collection::vec(
        (0usize..60, 1u32..50).prop_map(|(idx, w)| {
            // Skew: low indices get quadratically more weight.
            (idx, w * (1 + 60u32.saturating_sub(idx as u32) / 12))
        }),
        0..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The three space-saving guarantees, for any stream and capacity.
    #[test]
    fn space_saving_bounds_hold(
        stream in arb_weighted_stream(),
        k in 1usize..32,
    ) {
        let mut ss = SpaceSaving::new(k);
        let mut truth: BTreeMap<String, u64> = BTreeMap::new();
        for &(idx, w) in &stream {
            let item = format!("item-{idx}");
            ss.offer(&item, u64::from(w));
            *truth.entry(item).or_insert(0) += u64::from(w);
        }
        let n: u64 = truth.values().sum();
        prop_assert_eq!(ss.total_weight(), n);
        let bound = ss.error_bound();
        prop_assert_eq!(bound, n / k as u64);

        for entry in ss.top(k) {
            let true_count = truth.get(&entry.item).copied().unwrap_or(0);
            // Never under-counts…
            prop_assert!(entry.count >= true_count);
            // …over-counts by at most N/k (and by at most its own error).
            prop_assert!(entry.count - true_count <= entry.error);
            prop_assert!(entry.error <= bound);
        }
        // Every true heavy hitter above N/k is tracked.
        for (item, &count) in &truth {
            if count > bound {
                prop_assert!(
                    ss.estimate(item) >= count,
                    "heavy hitter {} (true {}) missing or under-counted",
                    item, count
                );
            }
        }
    }

    /// Estimates are monotone in the tracked set: offering more weight to
    /// a tracked item raises its estimate by exactly that weight.
    #[test]
    fn space_saving_tracked_increments_are_exact(
        stream in arb_weighted_stream(),
        extra in 1u64..100,
    ) {
        let mut ss = SpaceSaving::new(8);
        for &(idx, w) in &stream {
            ss.offer(&format!("item-{idx}"), u64::from(w));
        }
        let top = ss.top(1);
        if let Some(heaviest) = top.first() {
            let before = ss.estimate(&heaviest.item);
            ss.offer(&heaviest.item, extra);
            prop_assert_eq!(ss.estimate(&heaviest.item), before + extra);
        }
    }

    /// The summary equals a naive model of the algorithm: a map of at most
    /// `k` (count, error) counters where a new item at capacity replaces
    /// the entry with the smallest (count, item) pair. Small weights over
    /// few items make count ties, so the tie rule is exercised.
    #[test]
    fn space_saving_matches_the_naive_eviction_model(
        stream in proptest::collection::vec((0usize..12, 1u64..4), 0..200),
        k in 1usize..8,
    ) {
        let mut ss = SpaceSaving::new(k);
        let mut model: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for &(idx, w) in &stream {
            let item = format!("item-{idx}");
            ss.offer(&item, w);
            if let Some(slot) = model.get_mut(&item) {
                slot.0 += w;
            } else if model.len() < k {
                model.insert(item, (w, 0));
            } else {
                let (victim, min) = model
                    .iter()
                    .map(|(name, &(count, _))| (count, name.clone()))
                    .min()
                    .map(|(count, name)| (name, count))
                    .unwrap();
                model.remove(&victim);
                model.insert(item, (min + w, min));
            }
        }
        let mut expected: Vec<(String, u64, u64)> = model
            .into_iter()
            .map(|(item, (count, error))| (item, count, error))
            .collect();
        expected.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let got: Vec<(String, u64, u64)> = ss
            .top(k)
            .into_iter()
            .map(|e| (e.item, e.count, e.error))
            .collect();
        prop_assert_eq!(got, expected);
    }
}

/// Deterministic (non-proptest) error-bound sweep: FNV-1a is a fixed
/// function, so for pinned seeds and cardinalities this either passes
/// forever or never — no flake window. 4σ of the theoretical standard
/// error is the acceptance band.
#[test]
fn distinct_estimate_within_bound_across_seeds_and_precisions() {
    for &precision in &[10u32, 12, 14] {
        let err_bound = 4.0 * DistinctSketch::new(precision, 0).standard_error();
        for salt in 0..5u64 {
            for &n in &[500u64, 5_000, 50_000] {
                let mut sketch = DistinctSketch::new(precision, salt);
                for i in 0..n {
                    sketch.insert(&format!("nx-{salt}-{i}.example.com"));
                }
                let est = sketch.estimate();
                let rel = (est as f64 - n as f64).abs() / n as f64;
                assert!(
                    rel <= err_bound,
                    "p={precision} salt={salt} n={n}: est {est}, rel err {rel:.4} > {err_bound:.4}"
                );
            }
        }
    }
}

#[test]
fn distinct_merge_is_union_and_memory_is_flat() {
    let salt = 0xFEED;
    let mut shards: Vec<DistinctSketch> = (0..8).map(|_| DistinctSketch::new(12, salt)).collect();
    let mut whole = DistinctSketch::new(12, salt);
    for i in 0..20_000u64 {
        let name = format!("shard-name-{i}.net");
        shards[(i % 8) as usize].insert(&name);
        whole.insert(&name);
    }
    let mut merged = DistinctSketch::new(12, salt);
    for s in &shards {
        merged.merge(s);
    }
    // Register-max merge is exactly the sketch of the union.
    assert_eq!(merged.estimate(), whole.estimate());
    // And memory is the register array, independent of insert count.
    assert_eq!(merged.heap_bytes(), 4096);
    assert_eq!(whole.heap_bytes(), 4096);
}

#[test]
fn distinct_estimate_is_exactish_at_tiny_cardinalities() {
    // Linear-counting regime: single-digit relative error down low.
    let mut sketch = DistinctSketch::new(12, 1);
    for i in 0..100u32 {
        sketch.insert(&format!("tiny-{i}.org"));
    }
    let est = sketch.estimate();
    assert!((90..=110).contains(&est), "est {est} far from 100");
}
