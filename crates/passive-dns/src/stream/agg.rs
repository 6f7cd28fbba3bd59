//! The exact incremental plane: §4 scale aggregates as running state.
//!
//! [`StreamAggregates`] maintains the same answers `query.rs` computes by
//! scanning a [`crate::PassiveDb`](crate::store::PassiveDb) — rcode
//! breakdown, monthly NXDOMAIN series (Fig. 3), NX-by-sensor, TLD
//! distribution (Fig. 4), the deterministic 1/N name sample (§4.2) — but
//! updated O(log n) per row instead of O(store) per refresh. The parity
//! contract (pinned by `tests/prop_stream.rs`): after admitting any row
//! multiset, every accessor here is **bit-identical** to the matching
//! `query.rs` function over a `PassiveDb` holding the same rows.
//!
//! Bit-parity is engineered, not hoped for:
//! * month bucketing delegates to [`crate::block::month_of_day`], the same
//!   helper the columnar zone-maps use;
//! * yearly averages delegate to [`crate::query::yearly_from_monthly`], so
//!   the one float division happens in shared code;
//! * TLD extraction mirrors [`crate::intern::Interner::intern_str`]
//!   (`rsplit('.')`), and the Fig. 4 sort uses the identical comparator;
//! * `BTreeMap` iteration is ascending, which is exactly the sort order
//!   the batch engine applies to its `HashMap`-built vectors.

use std::collections::{BTreeMap, BTreeSet};

use nxd_dns_wire::RCode;

use crate::block::month_of_day;
use crate::hash::fnv1a;
use crate::query::{yearly_from_monthly, TldStat};

/// The last DNS label of `name` — the TLD key the interner uses
/// ([`crate::intern::Interner::intern_str`]).
pub(crate) fn tld_of(name: &str) -> &str {
    name.rsplit('.').next().unwrap_or("")
}

/// Running exact aggregates over the admitted row stream.
#[derive(Debug, Clone)]
pub struct StreamAggregates {
    /// Count-weighted responses per rcode (ascending = batch sort order).
    rcodes: BTreeMap<u8, u64>,
    /// Count-weighted NXDOMAIN responses per sensor.
    nx_by_sensor: BTreeMap<u16, u64>,
    /// Count-weighted NXDOMAIN responses per month-since-2014-01.
    monthly_nx: BTreeMap<i64, u64>,
    /// Distinct names with at least one NXDOMAIN response.
    nx_names: BTreeSet<String>,
    /// Distinct NX names per TLD (bumped on first sighting of a name).
    tld_names: BTreeMap<String, u64>,
    /// Count-weighted NXDOMAIN responses per TLD.
    tld_queries: BTreeMap<String, u64>,
    /// §4.2 deterministic 1/N sample of NX names.
    sample: BTreeSet<String>,
    sample_n: u64,
    sample_salt: u64,
}

impl StreamAggregates {
    /// `sample_n` is the §4.2 sampling ratio (1-in-n, must be positive);
    /// `sample_salt` folds into the membership hash.
    pub fn new(sample_n: u64, sample_salt: u64) -> Self {
        assert!(sample_n > 0, "sampling ratio must be positive");
        StreamAggregates {
            rcodes: BTreeMap::new(),
            nx_by_sensor: BTreeMap::new(),
            monthly_nx: BTreeMap::new(),
            nx_names: BTreeSet::new(),
            tld_names: BTreeMap::new(),
            tld_queries: BTreeMap::new(),
            sample: BTreeSet::new(),
            sample_n,
            sample_salt,
        }
    }

    /// Folds one admitted row in. Returns whether the row was NXDOMAIN.
    pub fn observe(&mut self, name: &str, day: u32, sensor: u16, rcode: u8, count: u64) -> bool {
        *self.rcodes.entry(rcode).or_insert(0) += count;
        let nx = rcode == RCode::NxDomain.to_u8();
        if nx {
            *self.nx_by_sensor.entry(sensor).or_insert(0) += count;
            *self.monthly_nx.entry(month_of_day(day)).or_insert(0) += count;
            *self
                .tld_queries
                .entry(tld_of(name).to_string())
                .or_insert(0) += count;
            if self.nx_names.insert(name.to_string()) {
                *self.tld_names.entry(tld_of(name).to_string()).or_insert(0) += 1;
                if fnv1a(name.as_bytes(), self.sample_salt).is_multiple_of(self.sample_n) {
                    self.sample.insert(name.to_string());
                }
            }
        }
        nx
    }

    /// ≡ [`crate::query::rcode_breakdown`].
    pub fn rcode_breakdown(&self) -> Vec<(u8, u64)> {
        self.rcodes.iter().map(|(&rc, &n)| (rc, n)).collect()
    }

    /// ≡ [`crate::query::total_responses`] for `rcode`.
    pub fn total_responses(&self, rcode: RCode) -> u64 {
        self.rcodes.get(&rcode.to_u8()).copied().unwrap_or(0)
    }

    /// ≡ [`crate::query::total_nx_responses`].
    pub fn total_nx_responses(&self) -> u64 {
        self.total_responses(RCode::NxDomain)
    }

    /// ≡ [`crate::query::distinct_nx_names`].
    pub fn distinct_nx_names(&self) -> u64 {
        self.nx_names.len() as u64
    }

    /// ≡ [`crate::query::monthly_nx_series`].
    pub fn monthly_nx_series(&self) -> Vec<(i64, u64)> {
        self.monthly_nx.iter().map(|(&m, &n)| (m, n)).collect()
    }

    /// ≡ [`crate::query::yearly_avg_monthly_nx`] — same floats, because the
    /// division happens in the shared [`yearly_from_monthly`] fold.
    #[expect(
        clippy::disallowed_types,
        reason = "returns the floats of the shared yearly_from_monthly fold, computed once from merged integer totals"
    )]
    pub fn yearly_avg_monthly_nx(&self) -> Vec<(i32, f64)> {
        yearly_from_monthly(&self.monthly_nx_series())
    }

    /// ≡ [`crate::query::nx_by_sensor`].
    pub fn nx_by_sensor(&self) -> BTreeMap<u16, u64> {
        self.nx_by_sensor.clone()
    }

    /// ≡ [`crate::query::tld_distribution`] — identical comparator
    /// (descending name count, ascending TLD on ties).
    pub fn tld_distribution(&self) -> Vec<TldStat> {
        let mut out: Vec<TldStat> = self
            .tld_names
            .iter()
            .map(|(tld, &nx_names)| TldStat {
                tld: tld.clone(),
                nx_names,
                nx_queries: self.tld_queries.get(tld).copied().unwrap_or(0),
            })
            .collect();
        out.sort_by(|a, b| b.nx_names.cmp(&a.nx_names).then_with(|| a.tld.cmp(&b.tld)));
        out
    }

    /// ≡ [`crate::query::sample_nx_name_strings`] with the configured
    /// (n, salt).
    pub fn sample_nx_name_strings(&self) -> Vec<String> {
        self.sample.iter().cloned().collect()
    }

    pub fn sample_n(&self) -> u64 {
        self.sample_n
    }

    pub fn sample_salt(&self) -> u64 {
        self.sample_salt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query;
    use crate::store::PassiveDb;
    use nxd_dns_sim::SimTime;

    fn day(y: i32, m: u32, d: u32) -> u32 {
        SimTime::from_ymd(y, m, d).day_number() as u32
    }

    /// The same fixture `query.rs` tests against.
    fn rows() -> Vec<(&'static str, u32, u16, RCode, u32)> {
        vec![
            ("dead.com", day(2014, 1, 1), 0, RCode::NxDomain, 10),
            ("dead.com", day(2014, 1, 15), 0, RCode::NxDomain, 5),
            ("dead.com", day(2014, 2, 1), 1, RCode::NxDomain, 2),
            ("gone.ru", day(2014, 1, 2), 1, RCode::NxDomain, 7),
            ("alive.com", day(2014, 1, 3), 0, RCode::NoError, 100),
        ]
    }

    fn both() -> (StreamAggregates, PassiveDb) {
        let mut agg = StreamAggregates::new(1, 42);
        let mut db = PassiveDb::new();
        for (name, day, sensor, rcode, count) in rows() {
            agg.observe(name, day, sensor, rcode.to_u8(), u64::from(count));
            db.record_str(name, day, sensor, rcode, count);
        }
        (agg, db)
    }

    #[test]
    fn parity_with_the_batch_engine_on_the_query_fixture() {
        let (agg, db) = both();
        assert_eq!(agg.total_nx_responses(), query::total_nx_responses(&db));
        assert_eq!(
            agg.total_responses(RCode::NoError),
            query::total_responses(&db, RCode::NoError)
        );
        assert_eq!(agg.distinct_nx_names(), query::distinct_nx_names(&db));
        assert_eq!(agg.monthly_nx_series(), query::monthly_nx_series(&db));
        assert_eq!(
            agg.yearly_avg_monthly_nx(),
            query::yearly_avg_monthly_nx(&db)
        );
        assert_eq!(agg.rcode_breakdown(), query::rcode_breakdown(&db));
        assert_eq!(agg.nx_by_sensor(), query::nx_by_sensor(&db));
        assert_eq!(agg.tld_distribution(), query::tld_distribution(&db));
        assert_eq!(
            agg.sample_nx_name_strings(),
            query::sample_nx_name_strings(&db, 1, 42)
        );
    }

    #[test]
    fn sample_respects_ratio_and_salt() {
        let mut agg = StreamAggregates::new(100, 7);
        let mut db = PassiveDb::new();
        for i in 0..5_000 {
            let name = format!("d{i}.com");
            agg.observe(&name, 16_000, 0, RCode::NxDomain.to_u8(), 1);
            db.record_str(&name, 16_000, 0, RCode::NxDomain, 1);
        }
        let streamed = agg.sample_nx_name_strings();
        assert_eq!(streamed, query::sample_nx_name_strings(&db, 100, 7));
        assert!(!streamed.is_empty());
        assert!(streamed.len() < 500);
    }

    #[test]
    fn tld_matches_interner_rules() {
        assert_eq!(tld_of("a.b.com"), "com");
        assert_eq!(tld_of("nodots"), "nodots");
        assert_eq!(tld_of(""), "");
        assert_eq!(tld_of("trailing."), "");
    }

    #[test]
    #[should_panic(expected = "sampling ratio must be positive")]
    fn zero_sample_ratio_rejected() {
        let _ = StreamAggregates::new(0, 0);
    }
}
