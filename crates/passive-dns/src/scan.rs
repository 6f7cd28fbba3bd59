//! The two row-level §4 kernels over the compressed block layout: the
//! Fig. 5 lifespan histogram and the Fig. 6 expiry-aligned totals.
//!
//! Whole-store group-bys (rcode breakdown, monthly NXDOMAIN series,
//! per-sensor and per-TLD totals) need no scan at all:
//! [`crate::ScaleSummary::of`] folds the sealed blocks' seal-time
//! summaries. These two families need per-row context (each name's first
//! NX day, each name's expiry day), so they decode the blocks a
//! `ScanFilter` admits. They replace the oracle's per-row hash-map
//! traffic with dense arrays indexed by the interner's dense [`NameId`]s.
//!
//! They answer Figs. 5–6 for `nxd-core`'s `scale` module over one store and
//! for [`crate::ShardedStore`]'s fan-out over many. Fig. 6's per-offset
//! totals become averages in one place, [`expiry_aligned_average`], which
//! the oracle, the store and the shards all call. The serial
//! [`crate::query`] engine over an uncompressed store is the pinned
//! reference, both for correctness (prop_block.rs) and for the BENCH_6
//! speedup gate.
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

use nxd_dns_wire::RCode;

use crate::intern::NameId;
use crate::query::LifespanBucket;
use crate::store::{PassiveDb, ScanFilter};

/// Fig. 5 lifespan histogram, identical to
/// [`crate::query::lifespan_histogram`] but hash-free: first-NX days live
/// in a dense array indexed by [`NameId`], and distinct names per offset
/// are counted by sorting packed `(name, offset)` pairs instead of
/// filling a `HashSet` per bucket.
#[must_use]
pub fn lifespan_histogram(db: &PassiveDb, max_days: u32) -> Vec<LifespanBucket> {
    let _t = db.time_query();
    let want = RCode::NxDomain.to_u8();
    // Dense first-NX-day per name; u32::MAX = never NX.
    let mut first_nx = vec![u32::MAX; db.distinct_names()];
    for (id, agg) in db.nx_names() {
        first_nx[id.0 as usize] = agg.first_nx_day;
    }
    let mut queries = vec![0u64; max_days as usize + 1];
    let mut pairs: Vec<u64> = Vec::new();
    db.for_each_block(
        &ScanFilter::rcode(want),
        |(ids, days, _, rcodes, counts)| {
            for i in 0..ids.len() {
                if rcodes[i] != want {
                    continue;
                }
                let first = first_nx[ids[i].0 as usize];
                if first == u32::MAX {
                    continue;
                }
                let offset = days[i].saturating_sub(first);
                if offset <= max_days {
                    queries[offset as usize] += counts[i] as u64;
                    pairs.push(u64::from(ids[i].0) << 32 | u64::from(offset));
                }
            }
        },
    );
    pairs.sort_unstable();
    pairs.dedup();
    let mut names = vec![0u64; max_days as usize + 1];
    for p in pairs {
        names[(p & 0xFFFF_FFFF) as usize] += 1;
    }
    (0..=max_days)
        .map(|d| LifespanBucket {
            day_offset: d,
            names: names[d as usize],
            queries: queries[d as usize],
        })
        .collect()
}

/// Fig. 6's un-normalized totals: summed query counts per day-offset slot
/// in `[-before, after]` over a `(name, expiry day)` panel. Expiry days
/// live in a dense array indexed by [`NameId`] (u32::MAX = not in panel),
/// and blocks wholly outside the panel's day window skip via zone maps.
#[must_use]
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "the range check above puts offset + before in [0, before + after], a valid slot index"
)]
pub fn expiry_aligned_totals(
    db: &PassiveDb,
    panel: &[(NameId, u32)],
    before: u32,
    after: u32,
) -> Vec<u64> {
    let span = (before + after + 1) as usize;
    let mut totals = vec![0u64; span];
    if panel.is_empty() {
        return totals;
    }
    let mut expiry = vec![u32::MAX; db.distinct_names()];
    let mut day_lo = u32::MAX;
    let mut day_hi = 0u32;
    for &(id, e) in panel {
        if (id.0 as usize) < expiry.len() {
            expiry[id.0 as usize] = e;
        }
        day_lo = day_lo.min(e.saturating_sub(before));
        day_hi = day_hi.max(e.saturating_add(after));
    }
    db.for_each_block(
        &ScanFilter::day_range(day_lo, day_hi),
        |(ids, days, _, _, counts)| {
            for i in 0..ids.len() {
                let e = expiry[ids[i].0 as usize];
                if e == u32::MAX {
                    continue;
                }
                let offset = days[i] as i64 - e as i64;
                if offset < -(before as i64) || offset > after as i64 {
                    continue;
                }
                totals[(offset + before as i64) as usize] += counts[i] as u64;
            }
        },
    );
    totals
}

/// Fig. 6's divide-once step: per-offset `totals` (slot 0 is day
/// `-before`) averaged over a panel of `panel_len` names and labelled with
/// signed day offsets; an empty panel gives an empty series. The oracle,
/// the store's figure and the sharded store all divide here, after summing
/// integers, so their floats agree to the bit.
#[must_use]
#[expect(
    clippy::disallowed_types,
    clippy::float_arithmetic,
    reason = "the f64 series divides already-summed integer totals once; nothing accumulates in float"
)]
pub fn expiry_aligned_average(totals: &[u64], panel_len: usize, before: u32) -> Vec<(i32, f64)> {
    if panel_len == 0 {
        return Vec::new();
    }
    let denom = panel_len as f64;
    (-i64::from(before)..)
        .zip(totals)
        .map(|(offset, &t)| (i32::try_from(offset).unwrap_or(i32::MAX), t as f64 / denom))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query;
    use nxd_dns_sim::SimTime;

    fn day(y: i32, m: u32, d: u32) -> u32 {
        SimTime::from_ymd(y, m, d).day_number() as u32
    }

    /// Mixed workload across two calendar months, three sensors, two
    /// TLDs, and both rcodes, built at the given block size.
    fn mixed_db(block_rows: usize) -> PassiveDb {
        let mut db = PassiveDb::with_block_rows(block_rows);
        for i in 0..100u32 {
            let name = format!("n{}.{}", i % 17, if i % 3 == 0 { "com" } else { "ru" });
            let rc = if i % 4 == 0 {
                RCode::NoError
            } else {
                RCode::NxDomain
            };
            let sensor = u16::try_from(i % 3).unwrap();
            db.record_str(&name, day(2015, 1, 1) + i / 2, sensor, rc, i + 1);
        }
        db
    }

    #[test]
    fn summary_scans_match_query_engine() {
        for block_rows in [7, 16, usize::MAX] {
            let db = mixed_db(block_rows);
            let summary = db.summary();
            assert_eq!(
                summary.total_responses(RCode::NxDomain),
                query::total_responses(&db, RCode::NxDomain)
            );
            assert_eq!(
                summary.total_responses(RCode::NoError),
                query::total_responses(&db, RCode::NoError)
            );
            assert_eq!(summary.rcode_breakdown(), query::rcode_breakdown(&db));
            assert_eq!(summary.monthly_nx_series(), query::monthly_nx_series(&db));
            assert_eq!(summary.nx_by_sensor(), query::nx_by_sensor(&db));
            assert_eq!(summary.tld_distribution(), query::tld_distribution(&db));
            assert_eq!(
                lifespan_histogram(&db, 40),
                query::lifespan_histogram(&db, 40)
            );
        }
    }

    #[test]
    fn expiry_kernel_matches_query_engine() {
        for block_rows in [5, usize::MAX] {
            let db = mixed_db(block_rows);
            let panel: Vec<(NameId, u32)> = db
                .nx_names()
                .map(|(id, agg)| (id, agg.first_nx_day + 3))
                .collect();
            let map: std::collections::HashMap<NameId, u32> = panel.iter().copied().collect();
            let totals = expiry_aligned_totals(&db, &panel, 10, 20);
            let slow = query::expiry_aligned_series(&db, &map, 10, 20);
            assert_eq!(totals.len(), slow.len());
            // The oracle divides the same integer totals once by the panel
            // size, so the floats agree to the bit.
            for (t, s) in totals.iter().zip(&slow) {
                let fast = *t as f64 / map.len() as f64;
                assert_eq!(fast.to_bits(), s.1.to_bits(), "offset {}", s.0);
            }
        }
    }

    #[test]
    fn empty_panel_is_empty_series() {
        let db = mixed_db(8);
        assert_eq!(expiry_aligned_totals(&db, &[], 5, 5), vec![0u64; 11]);
        assert!(query::expiry_aligned_series(&db, &Default::default(), 5, 5).is_empty());
    }
}
