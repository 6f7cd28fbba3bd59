//! The analysis/query engine over [`PassiveDb`] — the stand-in for the
//! paper's BigQuery mirror (§3.1). Each function corresponds to a query the
//! paper runs: monthly NXDOMAIN series (Fig. 3), TLD group-by (Fig. 4),
//! lifespan decay (Fig. 5), expiry-aligned averages (Fig. 6), deterministic
//! 1/N sampling (§4.2), and long-lived NXDomain counts (§4.4).
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap
    )
)]

use std::collections::{BTreeMap, HashMap};

use nxd_dns_sim::SimTime;
use nxd_dns_wire::RCode;

use crate::hash::in_sample;
use crate::intern::NameId;
use crate::store::{PassiveDb, ScanFilter};

/// Row of the TLD distribution (Fig. 4).
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "query results are pure; dropping them unread answers nothing"]
pub struct TldStat {
    pub tld: String,
    pub nx_names: u64,
    pub nx_queries: u64,
}

/// Row of the lifespan histogram (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "query results are pure; dropping them unread answers nothing"]
pub struct LifespanBucket {
    /// Days since the name was first seen as NXDomain.
    pub day_offset: u32,
    /// Names receiving at least one query at this offset.
    pub names: u64,
    /// Total NXDOMAIN responses at this offset.
    pub queries: u64,
}

/// Total responses carrying the given rcode.
#[must_use]
pub fn total_responses(db: &PassiveDb, rcode: RCode) -> u64 {
    let _t = db.time_query();
    let want = rcode.to_u8();
    let mut total = 0u64;
    db.for_each_block(&ScanFilter::rcode(want), |(_, _, _, rcodes, counts)| {
        total += rcodes
            .iter()
            .zip(counts)
            .filter(|(&rc, _)| rc == want)
            .map(|(_, &c)| c as u64)
            .sum::<u64>();
    });
    total
}

/// Total NXDOMAIN responses (the paper's 1,069,114,764,701 at full scale).
#[must_use]
pub fn total_nx_responses(db: &PassiveDb) -> u64 {
    total_responses(db, RCode::NxDomain)
}

/// Number of distinct names that ever received an NXDOMAIN response (the
/// paper's 146,363,745,785 at full scale).
#[must_use]
pub fn distinct_nx_names(db: &PassiveDb) -> u64 {
    let _t = db.time_query();
    db.nx_names().count() as u64
}

/// NXDOMAIN responses bucketed by calendar month.
///
/// Returns `(month_index, responses)` sorted by month, where `month_index`
/// counts months since January 2014 (matching [`SimTime::month_index`]).
#[must_use]
pub fn monthly_nx_series(db: &PassiveDb) -> Vec<(i64, u64)> {
    let _t = db.time_query();
    let want = RCode::NxDomain.to_u8();
    let mut buckets: HashMap<i64, u64> = HashMap::new();
    db.for_each_block(&ScanFilter::rcode(want), |(_, days, _, rcodes, counts)| {
        for i in 0..days.len() {
            if rcodes[i] == want {
                let t = SimTime(days[i] as u64 * nxd_dns_sim::SECONDS_PER_DAY);
                *buckets.entry(t.month_index()).or_insert(0) += counts[i] as u64;
            }
        }
    });
    let mut out: Vec<_> = buckets.into_iter().collect();
    out.sort();
    out
}

/// Average NXDOMAIN responses per month for each calendar year (the exact
/// series Fig. 3 plots).
#[must_use]
pub fn yearly_avg_monthly_nx(db: &PassiveDb) -> Vec<(i32, f64)> {
    yearly_from_monthly(&monthly_nx_series(db))
}

/// Folds a monthly series into per-year monthly averages. Shared by this
/// oracle and [`crate::ScaleSummary`] so both produce bit-identical floats
/// from the same monthly totals.
pub fn yearly_from_monthly(monthly: &[(i64, u64)]) -> Vec<(i32, f64)> {
    let mut per_year: HashMap<i32, (u64, u32)> = HashMap::new();
    for &(month_index, responses) in monthly {
        let year = i32::try_from(2014 + month_index.div_euclid(12)).unwrap_or(i32::MAX);
        let entry = per_year.entry(year).or_insert((0, 0));
        entry.0 += responses;
        entry.1 += 1;
    }
    let mut out: Vec<_> = per_year
        .into_iter()
        .map(|(y, (total, months))| (y, total as f64 / months.max(1) as f64))
        .collect();
    out.sort_by_key(|&(y, _)| y);
    out
}

/// NXDomain counts and query volumes grouped by TLD, sorted by descending
/// name count (Fig. 4 plots the top 20).
pub fn tld_distribution(db: &PassiveDb) -> Vec<TldStat> {
    let _t = db.time_query();
    // Names per TLD come from the aggregate index; queries need a scan.
    let mut names_by_tld: HashMap<u32, u64> = HashMap::new();
    for (id, _) in db.nx_names() {
        *names_by_tld.entry(db.interner().tld_id(id)).or_insert(0) += 1;
    }
    let want = RCode::NxDomain.to_u8();
    let mut queries_by_tld: HashMap<u32, u64> = HashMap::new();
    db.for_each_block(&ScanFilter::rcode(want), |(ids, _, _, rcodes, counts)| {
        for i in 0..ids.len() {
            if rcodes[i] == want {
                *queries_by_tld
                    .entry(db.interner().tld_id(ids[i]))
                    .or_insert(0) += counts[i] as u64;
            }
        }
    });
    let mut out: Vec<TldStat> = names_by_tld
        .into_iter()
        .map(|(tld_id, nx_names)| TldStat {
            tld: db.interner().resolve_tld(tld_id).to_string(),
            nx_names,
            nx_queries: queries_by_tld.get(&tld_id).copied().unwrap_or(0),
        })
        .collect();
    out.sort_by(|a, b| b.nx_names.cmp(&a.nx_names).then_with(|| a.tld.cmp(&b.tld)));
    out
}

/// Deterministic 1-in-`n` sample of NXDomain names (§4.2's 1/1,000
/// sampling). Stable across runs: membership is a salted hash of the name.
pub fn sample_nx_names(db: &PassiveDb, n: u64, salt: u64) -> Vec<NameId> {
    let _t = db.time_query();
    assert!(n > 0, "sampling ratio must be positive");
    let mut out: Vec<NameId> = db
        .nx_names()
        .filter(|(id, _)| in_sample(db.interner().resolve(*id), n, salt))
        .map(|(id, _)| id)
        .collect();
    out.sort();
    out
}

/// [`sample_nx_names`] resolved to name strings and sorted — the canonical,
/// interner-independent form a sharded engine can be compared against.
pub fn sample_nx_name_strings(db: &PassiveDb, n: u64, salt: u64) -> Vec<String> {
    let mut out: Vec<String> = sample_nx_names(db, n, salt)
        .into_iter()
        .map(|id| db.interner().resolve(id).to_string())
        .collect();
    out.sort();
    out
}

/// Fig. 5: for each day-offset since a name's first NXDOMAIN observation,
/// how many names still receive queries and how many responses they get.
pub fn lifespan_histogram(db: &PassiveDb, max_days: u32) -> Vec<LifespanBucket> {
    let _t = db.time_query();
    let want = RCode::NxDomain.to_u8();
    let mut queries = vec![0u64; max_days as usize + 1];
    let mut names: Vec<std::collections::HashSet<NameId>> =
        vec![std::collections::HashSet::new(); max_days as usize + 1];
    db.for_each_block(
        &ScanFilter::rcode(want),
        |(ids, days, _, rcodes, counts)| {
            for i in 0..ids.len() {
                if rcodes[i] != want {
                    continue;
                }
                let Some(agg) = db.aggregate(ids[i]) else {
                    continue;
                };
                let offset = days[i].saturating_sub(agg.first_nx_day);
                if offset <= max_days {
                    queries[offset as usize] += counts[i] as u64;
                    names[offset as usize].insert(ids[i]);
                }
            }
        },
    );
    (0..=max_days)
        .map(|d| LifespanBucket {
            day_offset: d,
            names: names[d as usize].len() as u64,
            queries: queries[d as usize],
        })
        .collect()
}

/// Fig. 6: average daily queries per domain, aligned on each domain's
/// status-change day (`expiry[name]`), from `before` days before to `after`
/// days after. Offsets with no observations report 0.
pub fn expiry_aligned_series(
    db: &PassiveDb,
    expiry_day: &HashMap<NameId, u32>,
    before: u32,
    after: u32,
) -> Vec<(i32, f64)> {
    let _t = db.time_query();
    let totals = expiry_aligned_totals(db, expiry_day, before, after);
    crate::scan::expiry_aligned_average(&totals, expiry_day.len(), before)
}

/// The un-normalized totals behind [`expiry_aligned_series`]: summed query
/// counts per day-offset, one slot per offset in `[-before, after]`, from a
/// hash-map panel lookup per row (the reference for
/// [`crate::scan::expiry_aligned_totals`]).
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "the range check above puts offset + before in [0, before + after], a valid slot index"
)]
pub(crate) fn expiry_aligned_totals(
    db: &PassiveDb,
    expiry_day: &HashMap<NameId, u32>,
    before: u32,
    after: u32,
) -> Vec<u64> {
    let span = (before + after + 1) as usize;
    let mut totals = vec![0u64; span];
    // Zone-map hint: only days within [min(e)-before, max(e)+after] over the
    // panel can contribute, so blocks wholly outside that window skip.
    let day_lo = expiry_day
        .values()
        .map(|&e| e.saturating_sub(before))
        .min()
        .unwrap_or(u32::MAX);
    let day_hi = expiry_day
        .values()
        .map(|&e| e.saturating_add(after))
        .max()
        .unwrap_or(0);
    db.for_each_block(
        &ScanFilter::day_range(day_lo, day_hi),
        |(ids, days, _, _, counts)| {
            for i in 0..ids.len() {
                let Some(&e) = expiry_day.get(&ids[i]) else {
                    continue;
                };
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

/// Names that have been NXDomain for at least `min_days` (observed NX span),
/// with their total NXDOMAIN query volume — §4.4's "1,018,964 NXDomains
/// receiving 107,020,820 queries while non-existent for more than 5 years".
#[must_use]
pub fn long_lived_nx(db: &PassiveDb, min_days: u32) -> (u64, u64) {
    let _t = db.time_query();
    let mut names = 0u64;
    let mut queries = 0u64;
    for (_, agg) in db.nx_names() {
        if agg.last_nx_day.saturating_sub(agg.first_nx_day) >= min_days {
            names += 1;
            queries += agg.nx_queries;
        }
    }
    (names, queries)
}

/// Response counts per rcode — the denominator behind the related-work
/// statistic the paper opens with ("previous studies discovered that 10%
/// to 42% of DNS responses are NXDomain responses", Jung et al. / Plonka
/// et al.). Returns `(rcode wire value, responses)` sorted by rcode.
#[must_use]
pub fn rcode_breakdown(db: &PassiveDb) -> Vec<(u8, u64)> {
    let _t = db.time_query();
    let mut map: HashMap<u8, u64> = HashMap::new();
    db.for_each_block(&ScanFilter::all(), |(_, _, _, rcodes, counts)| {
        for i in 0..rcodes.len() {
            *map.entry(rcodes[i]).or_insert(0) += counts[i] as u64;
        }
    });
    let mut out: Vec<_> = map.into_iter().collect();
    out.sort();
    out
}

/// The NXDOMAIN share of all responses (0.0–1.0).
#[must_use]
pub fn nxdomain_share(db: &PassiveDb) -> f64 {
    let breakdown = rcode_breakdown(db);
    let total: u64 = breakdown.iter().map(|&(_, n)| n).sum();
    if total == 0 {
        return 0.0;
    }
    let nx = breakdown
        .iter()
        .find(|&&(rc, _)| rc == RCode::NxDomain.to_u8())
        .map(|&(_, n)| n)
        .unwrap_or(0);
    nx as f64 / total as f64
}

/// NXDOMAIN responses grouped by sensor id (coverage diagnostics). A
/// `BTreeMap` so the serial and sharded engines agree element-for-element
/// under iteration, not just as sets.
#[must_use]
pub fn nx_by_sensor(db: &PassiveDb) -> BTreeMap<u16, u64> {
    let _t = db.time_query();
    let want = RCode::NxDomain.to_u8();
    let mut out = BTreeMap::new();
    db.for_each_block(
        &ScanFilter::rcode(want),
        |(_, _, sensors, rcodes, counts)| {
            for i in 0..sensors.len() {
                if rcodes[i] == want {
                    *out.entry(sensors[i]).or_insert(0) += counts[i] as u64;
                }
            }
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nxd_dns_sim::SimTime;

    fn day(y: i32, m: u32, d: u32) -> u32 {
        SimTime::from_ymd(y, m, d).day_number() as u32
    }

    fn sample_db() -> PassiveDb {
        let mut db = PassiveDb::new();
        db.record_str("dead.com", day(2014, 1, 1), 0, RCode::NxDomain, 10);
        db.record_str("dead.com", day(2014, 1, 15), 0, RCode::NxDomain, 5);
        db.record_str("dead.com", day(2014, 2, 1), 1, RCode::NxDomain, 2);
        db.record_str("gone.ru", day(2014, 1, 2), 1, RCode::NxDomain, 7);
        db.record_str("alive.com", day(2014, 1, 3), 0, RCode::NoError, 100);
        db
    }

    #[test]
    fn totals() {
        let db = sample_db();
        assert_eq!(total_nx_responses(&db), 24);
        assert_eq!(total_responses(&db, RCode::NoError), 100);
        assert_eq!(distinct_nx_names(&db), 2);
    }

    #[test]
    fn monthly_series_buckets_correctly() {
        let db = sample_db();
        let series = monthly_nx_series(&db);
        assert_eq!(series, vec![(0, 22), (1, 2)]);
    }

    #[test]
    fn yearly_average() {
        let db = sample_db();
        let yearly = yearly_avg_monthly_nx(&db);
        assert_eq!(yearly.len(), 1);
        assert_eq!(yearly[0].0, 2014);
        assert!((yearly[0].1 - 12.0).abs() < 1e-9); // (22 + 2) / 2 months
    }

    #[test]
    fn tld_distribution_sorted() {
        let db = sample_db();
        let dist = tld_distribution(&db);
        assert_eq!(dist.len(), 2);
        // .com and .ru both have 1 NX name; ties break alphabetically.
        assert_eq!(dist[0].tld, "com");
        assert_eq!(dist[0].nx_queries, 17);
        assert_eq!(dist[1].tld, "ru");
        assert_eq!(dist[1].nx_queries, 7);
    }

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let mut db = PassiveDb::new();
        for i in 0..10_000 {
            db.record_str(&format!("d{i}.com"), 16_000, 0, RCode::NxDomain, 1);
        }
        let s1 = sample_nx_names(&db, 100, 42);
        let s2 = sample_nx_names(&db, 100, 42);
        assert_eq!(s1, s2);
        // Expect ~100 of 10k; allow generous slack.
        assert!((50..200).contains(&s1.len()), "got {}", s1.len());
        let s3 = sample_nx_names(&db, 100, 43);
        assert_ne!(s1, s3);
    }

    #[test]
    fn lifespan_histogram_offsets() {
        let db = sample_db();
        let hist = lifespan_histogram(&db, 60);
        // dead.com first NX at 2014-01-01: offsets 0, 14, 31. gone.ru: offset 0.
        assert_eq!(hist[0].names, 2);
        assert_eq!(hist[0].queries, 17);
        assert_eq!(hist[14].names, 1);
        assert_eq!(hist[14].queries, 5);
        assert_eq!(hist[31].queries, 2);
        assert_eq!(hist[1].names, 0);
    }

    #[test]
    fn expiry_alignment() {
        let mut db = PassiveDb::new();
        let e = day(2015, 6, 1);
        let id = db.record_str("exp.com", e - 10, 0, RCode::NoError, 8);
        db.record_str("exp.com", e + 5, 0, RCode::NxDomain, 4);
        let mut expiry = HashMap::new();
        expiry.insert(id, e);
        let series = expiry_aligned_series(&db, &expiry, 60, 120);
        let at = |off: i32| series.iter().find(|&&(o, _)| o == off).unwrap().1;
        assert!((at(-10) - 8.0).abs() < 1e-9);
        assert!((at(5) - 4.0).abs() < 1e-9);
        assert_eq!(at(0), 0.0);
        assert_eq!(series.len(), 181);
    }

    #[test]
    fn long_lived_threshold() {
        let db = sample_db();
        // dead.com spans 31 days of NX observations; gone.ru spans 0.
        assert_eq!(long_lived_nx(&db, 30), (1, 17));
        assert_eq!(long_lived_nx(&db, 0), (2, 24));
        assert_eq!(long_lived_nx(&db, 100), (0, 0));
    }

    #[test]
    fn rcode_breakdown_and_share() {
        let db = sample_db();
        let breakdown = rcode_breakdown(&db);
        // NOERROR (0) = 100, NXDOMAIN (3) = 24.
        assert_eq!(breakdown, vec![(0, 100), (3, 24)]);
        let share = nxdomain_share(&db);
        assert!((share - 24.0 / 124.0).abs() < 1e-12);
        assert_eq!(nxdomain_share(&PassiveDb::new()), 0.0);
    }

    #[test]
    fn sensor_grouping() {
        let db = sample_db();
        let by_sensor = nx_by_sensor(&db);
        assert_eq!(by_sensor[&0], 15);
        assert_eq!(by_sensor[&1], 9);
    }

    #[test]
    fn empty_expiry_map() {
        let db = sample_db();
        assert!(expiry_aligned_series(&db, &HashMap::new(), 10, 10).is_empty());
    }
}
