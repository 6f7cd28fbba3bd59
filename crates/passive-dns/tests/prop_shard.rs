//! Property tests for the sharded parallel engine: for ANY observation
//! stream and ANY shard count, every query family must return results
//! bit-identical to the serial engine — the invariant the whole scale
//! pipeline rests on. Underneath it sits the `ScaleSummary` monoid: merged
//! over ANY name partition, in either order, it equals the summary of the
//! whole.

use std::collections::HashMap;

use nxd_dns_wire::RCode;
use nxd_passive_dns::{query, shard_of, PassiveDb, ScaleSummary, ShardedStore};
use proptest::prelude::*;

const TLDS: [&str; 5] = ["com", "net", "ru", "cn", "org"];

/// One generated observation: name index into a small pool, day, sensor,
/// NXDomain-or-NoError, count.
type Obs = (usize, u32, u16, bool, u32);

fn name_of(idx: usize) -> String {
    format!("name-{idx}.{}", TLDS[idx % TLDS.len()])
}

fn db_of(observations: &[Obs]) -> PassiveDb {
    let mut db = PassiveDb::new();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scalar queries agree for every shard count.
    #[test]
    fn scalars_match_serial(observations in arb_observations()) {
        let db = db_of(&observations);
        for shards in [1usize, 2, 4, 8] {
            let store = ShardedStore::from_db(&db, shards);
            prop_assert_eq!(store.row_count(), db.row_count());
            prop_assert_eq!(store.distinct_names(), db.distinct_names());
            prop_assert_eq!(store.total_nx_responses(), query::total_nx_responses(&db));
            prop_assert_eq!(store.distinct_nx_names(), query::distinct_nx_names(&db));
            prop_assert_eq!(store.long_lived_nx(365), query::long_lived_nx(&db, 365));
            prop_assert_eq!(store.summary().nxdomain_share(), query::nxdomain_share(&db));
        }
    }

    /// Keyed series (trend, rcode, per-sensor) agree for every shard count.
    #[test]
    fn series_match_serial(observations in arb_observations()) {
        let db = db_of(&observations);
        for shards in [1usize, 2, 4, 8] {
            let store = ShardedStore::from_db(&db, shards);
            prop_assert_eq!(store.monthly_nx_series(), query::monthly_nx_series(&db));
            prop_assert_eq!(
                store.summary().yearly_avg_monthly_nx(),
                query::yearly_avg_monthly_nx(&db)
            );
            prop_assert_eq!(store.rcode_breakdown(), query::rcode_breakdown(&db));
            prop_assert_eq!(store.summary().nx_by_sensor(), query::nx_by_sensor(&db));
        }
    }

    /// The figure queries — TLD distribution (Fig. 4), lifespan decay
    /// (Fig. 5), expiry alignment (Fig. 6) — agree, including tie-breaking
    /// order and f64 bit patterns.
    #[test]
    fn figures_match_serial(observations in arb_observations()) {
        let db = db_of(&observations);
        // The expiry panel: every pool name present in the store, pinned to
        // a mid-era day.
        let panel_ids: HashMap<_, _> = (0..40usize)
            .filter_map(|i| db.interner().get(&name_of(i)).map(|id| (id, 17_000 + i as u32)))
            .collect();
        let panel_strings: HashMap<String, u32> = (0..40usize)
            .filter(|&i| db.interner().get(&name_of(i)).is_some())
            .map(|i| (name_of(i), 17_000 + i as u32))
            .collect();
        for shards in [1usize, 2, 4, 8] {
            let store = ShardedStore::from_db(&db, shards);
            prop_assert_eq!(store.tld_distribution(), query::tld_distribution(&db));
            prop_assert_eq!(store.lifespan_histogram(60), query::lifespan_histogram(&db, 60));
            prop_assert_eq!(
                store.expiry_aligned_series(&panel_strings, 30, 60),
                query::expiry_aligned_series(&db, &panel_ids, 30, 60)
            );
            prop_assert_eq!(
                store.sample_nx_names(3, 0xA5),
                query::sample_nx_name_strings(&db, 3, 0xA5)
            );
        }
    }

    /// Structural invariants: every row lives in its name's home shard, and
    /// round-tripping through `to_serial` preserves all aggregates.
    #[test]
    fn rows_live_in_their_home_shard(observations in arb_observations()) {
        let db = db_of(&observations);
        for shards in [2usize, 4, 8] {
            let store = ShardedStore::from_db(&db, shards);
            for (idx, shard) in store.shards().iter().enumerate() {
                for obs in shard.rows() {
                    let name = shard.interner().resolve(obs.name);
                    prop_assert_eq!(shard_of(name, shards), idx, "misrouted {}", name);
                }
            }
            let round_trip = store.to_serial();
            prop_assert_eq!(round_trip.row_count(), db.row_count());
            prop_assert_eq!(
                query::tld_distribution(&round_trip),
                query::tld_distribution(&db)
            );
            prop_assert_eq!(
                query::monthly_nx_series(&round_trip),
                query::monthly_nx_series(&db)
            );
        }
    }

    /// Ingest equivalence: routing through `record_str` directly equals
    /// partitioning an already-built serial store.
    #[test]
    fn direct_ingest_equals_partitioning(observations in arb_observations()) {
        let db = db_of(&observations);
        let mut direct = ShardedStore::new(4);
        for &(idx, day, sensor, nx, count) in &observations {
            let rcode = if nx { RCode::NxDomain } else { RCode::NoError };
            direct.record_str(&name_of(idx), day, sensor, rcode, count);
        }
        let partitioned = ShardedStore::from_db(&db, 4);
        prop_assert_eq!(direct.row_count(), partitioned.row_count());
        prop_assert_eq!(direct.tld_distribution(), partitioned.tld_distribution());
        prop_assert_eq!(direct.monthly_nx_series(), partitioned.monthly_nx_series());
        prop_assert_eq!(
            direct.lifespan_histogram(60),
            partitioned.lifespan_histogram(60)
        );
    }

    /// The monoid law the sharded engine rests on: split the rows into
    /// 1–8 name-disjoint parts (any assignment, not just the shard hash) at
    /// any block size; the per-part summaries merged forward or in reverse
    /// equal the summary of the whole, and every accessor equals the
    /// `query` oracle.
    #[test]
    fn summaries_merge_over_name_partitions(
        observations in arb_observations(),
        parts in 1usize..=8,
        assignment in proptest::collection::vec(0usize..8, 40..41),
    ) {
        for block_rows in [1usize, 7, usize::MAX] {
            let mut whole = PassiveDb::with_block_rows(block_rows);
            let mut split: Vec<PassiveDb> = (0..parts)
                .map(|_| PassiveDb::with_block_rows(block_rows))
                .collect();
            for &(idx, day, sensor, nx, count) in &observations {
                let rcode = if nx { RCode::NxDomain } else { RCode::NoError };
                whole.record_str(&name_of(idx), day, sensor, rcode, count);
                split[assignment[idx] % parts].record_str(&name_of(idx), day, sensor, rcode, count);
            }
            let merge = |acc: ScaleSummary, db: &PassiveDb| {
                let mut acc = acc;
                acc.merge(db.summary());
                acc
            };
            let forward = split.iter().fold(ScaleSummary::default(), merge);
            let reverse = split.iter().rev().fold(ScaleSummary::default(), merge);
            let expect = ScaleSummary::of(&whole);
            prop_assert_eq!(&forward, &expect, "block_rows={}", block_rows);
            prop_assert_eq!(&reverse, &expect, "block_rows={}", block_rows);

            prop_assert_eq!(forward.rcode_breakdown(), query::rcode_breakdown(&whole));
            prop_assert_eq!(
                forward.total_responses(RCode::NoError),
                query::total_responses(&whole, RCode::NoError)
            );
            prop_assert_eq!(forward.total_nx_responses(), query::total_nx_responses(&whole));
            prop_assert_eq!(forward.distinct_nx_names(), query::distinct_nx_names(&whole));
            prop_assert_eq!(forward.monthly_nx_series(), query::monthly_nx_series(&whole));
            prop_assert_eq!(
                forward.yearly_avg_monthly_nx(),
                query::yearly_avg_monthly_nx(&whole)
            );
            prop_assert_eq!(forward.nx_by_sensor(), query::nx_by_sensor(&whole));
            prop_assert_eq!(forward.tld_distribution(), query::tld_distribution(&whole));
            prop_assert_eq!(
                forward.nxdomain_share().to_bits(),
                query::nxdomain_share(&whole).to_bits()
            );
        }
    }
}
