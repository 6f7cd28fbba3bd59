//! Summary-accelerated scans over the compressed block layout.
//!
//! Each function here answers the same question as its [`crate::query`]
//! twin and is property-tested to return bit-identical results; the
//! difference is *how*. Sealed blocks carry exact pre-aggregated
//! summaries ([`crate::block::BlockSummary`]) built at seal time, so the
//! whole-store group-bys (rcode breakdown, monthly NXDOMAIN series,
//! per-sensor and per-TLD totals) fold summaries instead of decoding
//! rows — the analogue of BigQuery answering an aggregate from column
//! statistics. Scans that need per-row context (lifespan offsets,
//! expiry alignment) still decode, but replace per-row hash-map traffic
//! with dense arrays indexed by the interner's dense [`NameId`]s.
//!
//! These kernels power [`crate::ShardedStore`]'s fan-out; the serial
//! [`crate::query`] engine over an uncompressed store is the pinned
//! reference both for correctness (prop_block.rs) and for the BENCH_6
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

use std::collections::BTreeMap;

use nxd_dns_wire::RCode;

use crate::block::month_of_day;
use crate::intern::NameId;
use crate::query::{LifespanBucket, TldStat};
use crate::store::{PassiveDb, ScanFilter};

/// Total responses carrying `rcode`: summary fold over sealed blocks plus
/// a scalar pass over the tail. Never decodes a block.
#[must_use]
pub fn total_responses(db: &PassiveDb, rcode: RCode) -> u64 {
    let _t = db.time_query();
    let want = rcode.to_u8();
    let mut total: u64 = db
        .sealed_blocks()
        .iter()
        .map(|b| b.summary().rcode_total(want))
        .sum();
    let (_, _, _, rcodes, counts) = db.tail_columns();
    for i in 0..rcodes.len() {
        if rcodes[i] == want {
            total += counts[i] as u64;
        }
    }
    total
}

/// Response counts per rcode, `(wire value, responses)` sorted by rcode.
/// Summary fold; never decodes a block.
#[must_use]
pub fn rcode_breakdown(db: &PassiveDb) -> Vec<(u8, u64)> {
    let _t = db.time_query();
    let mut map: BTreeMap<u8, u64> = BTreeMap::new();
    for block in db.sealed_blocks() {
        for &(rc, n) in &block.summary().rcode_totals {
            *map.entry(rc).or_insert(0) += n;
        }
    }
    let (_, _, _, rcodes, counts) = db.tail_columns();
    for i in 0..rcodes.len() {
        *map.entry(rcodes[i]).or_insert(0) += counts[i] as u64;
    }
    map.into_iter().collect()
}

/// NXDOMAIN responses per calendar month, `(month_index, responses)`
/// sorted by month. Summary fold; never decodes a block.
#[must_use]
pub fn monthly_nx_series(db: &PassiveDb) -> Vec<(i64, u64)> {
    let _t = db.time_query();
    let want = RCode::NxDomain.to_u8();
    let mut map: BTreeMap<i64, u64> = BTreeMap::new();
    for block in db.sealed_blocks() {
        for &(month, n) in &block.summary().nx_by_month {
            *map.entry(month).or_insert(0) += n;
        }
    }
    let (_, days, _, rcodes, counts) = db.tail_columns();
    for i in 0..days.len() {
        if rcodes[i] == want {
            *map.entry(month_of_day(days[i])).or_insert(0) += counts[i] as u64;
        }
    }
    map.into_iter().collect()
}

/// NXDOMAIN responses grouped by sensor id. Summary fold; never decodes
/// a block.
#[must_use]
pub fn nx_by_sensor(db: &PassiveDb) -> BTreeMap<u16, u64> {
    let _t = db.time_query();
    let want = RCode::NxDomain.to_u8();
    let mut out: BTreeMap<u16, u64> = BTreeMap::new();
    for block in db.sealed_blocks() {
        for &(sensor, n) in &block.summary().nx_by_sensor {
            *out.entry(sensor).or_insert(0) += n;
        }
    }
    let (_, _, sensors, rcodes, counts) = db.tail_columns();
    for i in 0..sensors.len() {
        if rcodes[i] == want {
            *out.entry(sensors[i]).or_insert(0) += counts[i] as u64;
        }
    }
    out
}

/// NXDomain names and query volumes per TLD, sorted like
/// [`crate::query::tld_distribution`] (descending name count, then TLD).
/// Name counts come from the aggregate index; query volumes fold the
/// per-block `nx_by_tld` summaries plus the tail — dense arrays indexed
/// by the interner's dense TLD ids, no hashing.
#[must_use]
pub fn tld_distribution(db: &PassiveDb) -> Vec<TldStat> {
    let _t = db.time_query();
    let tlds = db.interner().tld_count();
    let mut names_by_tld = vec![0u64; tlds];
    for (id, _) in db.nx_names() {
        names_by_tld[db.interner().tld_id(id) as usize] += 1;
    }
    let mut queries_by_tld = vec![0u64; tlds];
    for block in db.sealed_blocks() {
        for &(tld_id, n) in &block.summary().nx_by_tld {
            queries_by_tld[tld_id as usize] += n;
        }
    }
    let want = RCode::NxDomain.to_u8();
    let (ids, _, _, rcodes, counts) = db.tail_columns();
    for i in 0..ids.len() {
        if rcodes[i] == want {
            queries_by_tld[db.interner().tld_id(ids[i]) as usize] += counts[i] as u64;
        }
    }
    let mut out: Vec<TldStat> = (0..tlds)
        .filter(|&t| names_by_tld[t] > 0)
        .map(|t| TldStat {
            tld: db
                .interner()
                .resolve_tld(u32::try_from(t).unwrap_or(u32::MAX))
                .to_string(),
            nx_names: names_by_tld[t],
            nx_queries: queries_by_tld[t],
        })
        .collect();
    out.sort_by(|a, b| b.nx_names.cmp(&a.nx_names).then_with(|| a.tld.cmp(&b.tld)));
    out
}

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

/// Fig. 6 expiry-aligned averages over a `(name, expiry day)` panel —
/// the sharded engines' slice-friendly twin of
/// [`crate::query::expiry_aligned_series`]. Divides summed totals once by
/// `panel_names`, the full cross-shard panel size, so per-shard series
/// sum to the serial result bit-for-bit.
#[must_use]
#[expect(
    clippy::disallowed_types,
    clippy::float_arithmetic,
    reason = "the series divides summed integer totals once by the full panel size"
)]
pub fn expiry_aligned_series(
    db: &PassiveDb,
    panel: &[(NameId, u32)],
    panel_names: usize,
    before: u32,
    after: u32,
) -> Vec<(i32, f64)> {
    let _t = db.time_query();
    if panel_names == 0 {
        return Vec::new();
    }
    let totals = expiry_aligned_totals(db, panel, before, after);
    let denom = panel_names as f64;
    totals
        .iter()
        .enumerate()
        .map(|(i, &t)| (crate::query::day_offset(i, before), t as f64 / denom))
        .collect()
}

/// The un-normalized totals behind [`expiry_aligned_series`]: summed
/// query counts per day-offset slot. Expiry days live in a dense array
/// indexed by [`NameId`] (u32::MAX = not in panel), and blocks wholly
/// outside the panel's day window skip via zone maps.
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
            assert_eq!(
                total_responses(&db, RCode::NxDomain),
                query::total_responses(&db, RCode::NxDomain)
            );
            assert_eq!(
                total_responses(&db, RCode::NoError),
                query::total_responses(&db, RCode::NoError)
            );
            assert_eq!(rcode_breakdown(&db), query::rcode_breakdown(&db));
            assert_eq!(monthly_nx_series(&db), query::monthly_nx_series(&db));
            assert_eq!(nx_by_sensor(&db), query::nx_by_sensor(&db));
            assert_eq!(tld_distribution(&db), query::tld_distribution(&db));
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
            let fast = expiry_aligned_series(&db, &panel, map.len(), 10, 20);
            let slow = query::expiry_aligned_series(&db, &map, 10, 20);
            assert_eq!(fast.len(), slow.len());
            for (f, s) in fast.iter().zip(&slow) {
                assert_eq!(f.0, s.0);
                assert_eq!(f.1.to_bits(), s.1.to_bits(), "offset {}", f.0);
            }
        }
    }

    #[test]
    fn empty_panel_is_empty_series() {
        let db = mixed_db(8);
        assert!(expiry_aligned_series(&db, &[], 0, 5, 5).is_empty());
        assert_eq!(expiry_aligned_totals(&db, &[], 5, 5), vec![0u64; 11]);
    }
}
