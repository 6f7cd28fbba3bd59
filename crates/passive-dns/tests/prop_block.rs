//! Property tests for the compressed columnar layout: for ANY observation
//! stream and ANY block size, a store made of sealed compressed blocks
//! must be indistinguishable from the flat uncompressed layout — row
//! iteration, random access, and every query family bit-identical — and
//! the `ScaleSummary` folds and the row-level `scan` kernels must agree
//! with the scan-based `query` engine on both layouts.

use std::collections::HashMap;

use nxd_dns_wire::RCode;
use nxd_passive_dns::{query, scan, PassiveDb, ScaleSummary, ShardedStore};
use proptest::prelude::*;

const TLDS: [&str; 5] = ["com", "net", "ru", "cn", "org"];

/// One generated observation: name index into a small pool, day, sensor,
/// NXDomain-or-NoError, count.
type Obs = (usize, u32, u16, bool, u32);

fn name_of(idx: usize) -> String {
    format!("name-{idx}.{}", TLDS[idx % TLDS.len()])
}

fn build(observations: &[Obs], block_rows: usize) -> PassiveDb {
    let mut db = PassiveDb::with_block_rows(block_rows);
    for &(idx, day, sensor, nx, count) in observations {
        let rcode = if nx { RCode::NxDomain } else { RCode::NoError };
        db.record_str(&name_of(idx), day, sensor, rcode, count);
    }
    db
}

fn flat(observations: &[Obs]) -> PassiveDb {
    let mut db = PassiveDb::uncompressed();
    for &(idx, day, sensor, nx, count) in observations {
        let rcode = if nx { RCode::NxDomain } else { RCode::NoError };
        db.record_str(&name_of(idx), day, sensor, rcode, count);
    }
    db
}

fn arb_observations() -> impl Strategy<Value = Vec<Obs>> {
    proptest::collection::vec(
        (0usize..40, 16_000u32..18_500, 0u16..8, 0u32..10, 1u32..10).prop_map(
            // 80% NXDomain, 20% NoError.
            |(idx, day, sensor, nx_sel, count)| (idx, day, sensor, nx_sel < 8, count),
        ),
        0..120,
    )
}

const BLOCK_SIZES: [usize; 4] = [1, 3, 7, 16];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Row iteration and random access see through compression: sealed
    /// blocks decode to exactly the rows that went in, in append order,
    /// for any block size (including 1-row blocks and an all-sealed store).
    #[test]
    fn rows_survive_sealing(observations in arb_observations()) {
        let reference = flat(&observations);
        let expect: Vec<_> = reference.rows().collect();
        for block_rows in BLOCK_SIZES {
            let db = build(&observations, block_rows);
            prop_assert_eq!(db.row_count(), reference.row_count());
            let got: Vec<_> = db.rows().collect();
            prop_assert_eq!(&got, &expect, "block_rows={}", block_rows);
            for i in 0..db.row_count() {
                prop_assert_eq!(db.row(i), reference.row(i), "row {}", i);
            }
            // Compression accounting: logical size is layout-independent,
            // resident size never exceeds it by more than the per-block
            // encoding headers on these tiny blocks.
            prop_assert_eq!(db.row_bytes(), reference.row_bytes());
            prop_assert_eq!(reference.compressed_bytes(), reference.row_bytes());
        }
    }

    /// Every query family is bit-identical across layouts — the compressed
    /// store drop-in-replaces the flat one under the scan-based engine.
    #[test]
    fn query_engine_is_layout_blind(observations in arb_observations()) {
        let reference = flat(&observations);
        let panel_ids: HashMap<_, _> = (0..40usize)
            .filter_map(|i| reference.interner().get(&name_of(i)).map(|id| (id, 17_000 + i as u32)))
            .collect();
        for block_rows in BLOCK_SIZES {
            let db = build(&observations, block_rows);
            // Interned ids are assigned in first-appearance order on both
            // sides, so id-keyed panels transfer directly.
            prop_assert_eq!(query::total_nx_responses(&db), query::total_nx_responses(&reference));
            prop_assert_eq!(
                query::total_responses(&db, RCode::NoError),
                query::total_responses(&reference, RCode::NoError)
            );
            prop_assert_eq!(query::distinct_nx_names(&db), query::distinct_nx_names(&reference));
            prop_assert_eq!(query::monthly_nx_series(&db), query::monthly_nx_series(&reference));
            prop_assert_eq!(
                query::yearly_avg_monthly_nx(&db),
                query::yearly_avg_monthly_nx(&reference)
            );
            prop_assert_eq!(query::tld_distribution(&db), query::tld_distribution(&reference));
            prop_assert_eq!(
                query::lifespan_histogram(&db, 60),
                query::lifespan_histogram(&reference, 60)
            );
            prop_assert_eq!(
                query::expiry_aligned_series(&db, &panel_ids, 30, 60),
                query::expiry_aligned_series(&reference, &panel_ids, 30, 60)
            );
            prop_assert_eq!(query::long_lived_nx(&db, 365), query::long_lived_nx(&reference, 365));
            prop_assert_eq!(query::rcode_breakdown(&db), query::rcode_breakdown(&reference));
            prop_assert_eq!(query::nxdomain_share(&db), query::nxdomain_share(&reference));
            prop_assert_eq!(query::nx_by_sensor(&db), query::nx_by_sensor(&reference));
            prop_assert_eq!(
                query::sample_nx_name_strings(&db, 3, 0xA5),
                query::sample_nx_name_strings(&reference, 3, 0xA5)
            );
        }
    }

    /// The store summary and the row-level scan kernels agree with the
    /// scan-based query engine on both layouts (on compressed stores the
    /// summary folds pre-built block summaries; on flat stores it scans the
    /// tail).
    #[test]
    fn scan_kernels_match_query_engine(observations in arb_observations()) {
        let reference = flat(&observations);
        for db in BLOCK_SIZES
            .iter()
            .map(|&b| build(&observations, b))
            .chain(std::iter::once(flat(&observations)))
        {
            let summary = ScaleSummary::of(&db);
            prop_assert_eq!(&summary, db.summary());
            prop_assert_eq!(
                summary.total_responses(RCode::NxDomain),
                query::total_nx_responses(&reference)
            );
            prop_assert_eq!(summary.rcode_breakdown(), query::rcode_breakdown(&reference));
            prop_assert_eq!(summary.monthly_nx_series(), query::monthly_nx_series(&reference));
            prop_assert_eq!(summary.nx_by_sensor(), query::nx_by_sensor(&reference));
            prop_assert_eq!(summary.tld_distribution(), query::tld_distribution(&reference));
            prop_assert_eq!(
                scan::lifespan_histogram(&db, 60),
                query::lifespan_histogram(&reference, 60)
            );
            let panel: Vec<_> = db
                .nx_names()
                .map(|(id, agg)| (id, agg.first_nx_day + 5))
                .collect();
            let panel_map: HashMap<_, _> = panel.iter().copied().collect();
            // De-normalize the query series back to raw totals (an empty
            // panel yields an empty series, i.e. all-zero totals).
            let expect: Vec<u64> = if panel_map.is_empty() {
                vec![0; 91]
            } else {
                query::expiry_aligned_series(&db, &panel_map, 30, 60)
                    .iter()
                    .map(|&(_, v)| (v * panel_map.len() as f64).round() as u64)
                    .collect()
            };
            prop_assert_eq!(scan::expiry_aligned_totals(&db, &panel, 30, 60), expect);
        }
    }

    /// The full sharded engine over compressed shards matches the serial
    /// uncompressed engine for every shard count — the end-to-end BENCH_6
    /// correctness claim.
    #[test]
    fn compressed_sharded_engine_matches_flat_serial(observations in arb_observations()) {
        let reference = flat(&observations);
        let panel_strings: HashMap<String, u32> = (0..40usize)
            .filter(|&i| reference.interner().get(&name_of(i)).is_some())
            .map(|i| (name_of(i), 17_000 + i as u32))
            .collect();
        let panel_ids: HashMap<_, _> = (0..40usize)
            .filter_map(|i| reference.interner().get(&name_of(i)).map(|id| (id, 17_000 + i as u32)))
            .collect();
        for shards in [1usize, 2, 4, 8] {
            let mut store = ShardedStore::with_block_rows(shards, 5);
            store.merge_db(&reference);
            prop_assert_eq!(store.total_nx_responses(), query::total_nx_responses(&reference));
            prop_assert_eq!(store.distinct_nx_names(), query::distinct_nx_names(&reference));
            prop_assert_eq!(store.monthly_nx_series(), query::monthly_nx_series(&reference));
            prop_assert_eq!(store.tld_distribution(), query::tld_distribution(&reference));
            prop_assert_eq!(
                store.lifespan_histogram(60),
                query::lifespan_histogram(&reference, 60)
            );
            prop_assert_eq!(
                store.expiry_aligned_series(&panel_strings, 30, 60),
                query::expiry_aligned_series(&reference, &panel_ids, 30, 60)
            );
            prop_assert_eq!(store.rcode_breakdown(), query::rcode_breakdown(&reference));
            prop_assert_eq!(store.summary().nx_by_sensor(), query::nx_by_sensor(&reference));
            prop_assert_eq!(
                store.summary().nxdomain_share(),
                query::nxdomain_share(&reference)
            );
        }
    }
}
