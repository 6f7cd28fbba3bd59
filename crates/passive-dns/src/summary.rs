//! The one §4 aggregate algebra: [`ScaleSummary`], a monoid of exact
//! integer tallies that every whole-store scale answer is read from (rcode
//! breakdown, headline NX totals, Fig. 3 monthly trend, NX by sensor, the
//! Fig. 4 TLD table).
//!
//! `default()` is the identity, [`ScaleSummary::observe_row`] folds one
//! row, [`ScaleSummary::observe_nx_name`] counts one distinct NX name, and
//! [`ScaleSummary::merge`] adds key by key. Every tally is a `u64` in a
//! `BTreeMap`, so merging any partition of the rows in any order gives the
//! same summary; name counts add exactly when the parts hold disjoint
//! names, as shards do ([`crate::hash::shard_of`]). The store
//! ([`PassiveDb::summary`]), the sharded store and the stream engine all
//! answer from it. The accessors are bit-identical to the [`crate::query`]
//! oracle: months come from the shared `month_of_day`, yearly averages
//! divide once in the shared [`yearly_from_monthly`], and `BTreeMap`
//! iteration is the oracle's sort order.
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

use crate::block::{month_of_day, Block, BlockSummary};
use crate::query::{yearly_from_monthly, TldStat};
use crate::store::PassiveDb;

/// The last DNS label of `name`: the TLD key of the interner and of the
/// Fig. 4 table.
pub fn tld_of(name: &str) -> &str {
    name.rsplit('.').next().unwrap_or("")
}

/// Exact §4 tallies over a set of rows. See the module docs for the
/// merge algebra.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScaleSummary {
    /// Count-weighted responses per rcode.
    rcodes: BTreeMap<u8, u64>,
    /// Count-weighted NXDOMAIN responses per sensor.
    nx_by_sensor: BTreeMap<u16, u64>,
    /// Count-weighted NXDOMAIN responses per month since 2014-01.
    nx_by_month: BTreeMap<i64, u64>,
    /// `(distinct NX names, NXDOMAIN responses)` per TLD.
    tlds: BTreeMap<String, (u64, u64)>,
    /// Distinct names with at least one NXDOMAIN response.
    distinct_nx: u64,
}

/// Key-wise addition of `from` into `into`.
fn add_all<K: Ord + Copy>(into: &mut BTreeMap<K, u64>, from: &BTreeMap<K, u64>) {
    for (&key, &n) in from {
        *into.entry(key).or_insert(0) += n;
    }
}

impl ScaleSummary {
    /// Folds one row in. `tld` is [`tld_of`] the row's name.
    pub fn observe_row(&mut self, tld: &str, day: u32, sensor: u16, rcode: u8, count: u64) {
        *self.rcodes.entry(rcode).or_insert(0) += count;
        if rcode == RCode::NxDomain.to_u8() {
            *self.nx_by_sensor.entry(sensor).or_insert(0) += count;
            *self.nx_by_month.entry(month_of_day(day)).or_insert(0) += count;
            self.add_tld(tld, 0, count);
        }
    }

    /// Counts one distinct NXDOMAIN name under `tld`. The caller counts
    /// each name once: a name is NXDOMAIN once it has an NXDOMAIN row with
    /// a non-zero count.
    pub fn observe_nx_name(&mut self, tld: &str) {
        self.distinct_nx += 1;
        self.add_tld(tld, 1, 0);
    }

    /// Adds `other`'s tallies to these. Names are counted twice if both
    /// sides hold them, so merge summaries of name-disjoint row sets.
    pub fn merge(&mut self, other: &ScaleSummary) {
        add_all(&mut self.rcodes, &other.rcodes);
        add_all(&mut self.nx_by_sensor, &other.nx_by_sensor);
        add_all(&mut self.nx_by_month, &other.nx_by_month);
        for (tld, &(names, responses)) in &other.tlds {
            self.add_tld(tld, names, responses);
        }
        self.distinct_nx += other.distinct_nx;
    }

    /// The summary of every row in `db`: the sealed blocks' seal-time
    /// tallies (no block is decoded), the tail tallied the same way, and
    /// distinct names from the per-name aggregate index. TLDs are keyed by
    /// dense interner id until the end. [`PassiveDb::summary`] memoizes
    /// this.
    pub fn of(db: &PassiveDb) -> ScaleSummary {
        let interner = db.interner();
        let tail = BlockSummary::of(db.tail_columns(), RCode::NxDomain.to_u8(), interner);
        let mut out = ScaleSummary::default();
        let mut by_tld: Vec<Option<(u64, u64)>> = vec![None; interner.tld_count()];
        for s in db.sealed_blocks().iter().map(Block::summary).chain([&tail]) {
            add_all(&mut out.rcodes, &s.rcode_totals);
            add_all(&mut out.nx_by_sensor, &s.nx_by_sensor);
            add_all(&mut out.nx_by_month, &s.nx_by_month);
            for (&tld_id, &n) in &s.nx_by_tld {
                by_tld[tld_id as usize].get_or_insert((0, 0)).1 += n;
            }
        }
        for (id, _) in db.nx_names() {
            by_tld[interner.tld_id(id) as usize].get_or_insert((0, 0)).0 += 1;
        }
        for (tld_id, tally) in (0u32..).zip(by_tld) {
            if let Some((names, responses)) = tally {
                out.distinct_nx += names;
                out.add_tld(interner.resolve_tld(tld_id), names, responses);
            }
        }
        out
    }

    /// Bumps one TLD's tallies, allocating its key only on first sight.
    fn add_tld(&mut self, tld: &str, names: u64, responses: u64) {
        match self.tlds.get_mut(tld) {
            Some(entry) => {
                entry.0 += names;
                entry.1 += responses;
            }
            None => {
                self.tlds.insert(tld.to_owned(), (names, responses));
            }
        }
    }

    /// ≡ [`crate::query::rcode_breakdown`].
    pub fn rcode_breakdown(&self) -> Vec<(u8, u64)> {
        self.rcodes.iter().map(|(&rc, &n)| (rc, n)).collect()
    }

    /// ≡ [`crate::query::total_responses`].
    pub fn total_responses(&self, rcode: RCode) -> u64 {
        self.rcodes.get(&rcode.to_u8()).copied().unwrap_or(0)
    }

    /// ≡ [`crate::query::total_nx_responses`].
    pub fn total_nx_responses(&self) -> u64 {
        self.total_responses(RCode::NxDomain)
    }

    /// ≡ [`crate::query::distinct_nx_names`].
    pub fn distinct_nx_names(&self) -> u64 {
        self.distinct_nx
    }

    /// ≡ [`crate::query::monthly_nx_series`].
    pub fn monthly_nx_series(&self) -> Vec<(i64, u64)> {
        self.nx_by_month.iter().map(|(&m, &n)| (m, n)).collect()
    }

    /// ≡ [`crate::query::yearly_avg_monthly_nx`]: the same floats, because
    /// both divide in the shared [`yearly_from_monthly`].
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

    /// ≡ [`crate::query::tld_distribution`]: TLDs with at least one NX
    /// name, by descending name count, then ascending TLD.
    pub fn tld_distribution(&self) -> Vec<TldStat> {
        let mut out: Vec<TldStat> = self
            .tlds
            .iter()
            .filter(|(_, &(names, _))| names > 0)
            .map(|(tld, &(nx_names, nx_queries))| TldStat {
                tld: tld.clone(),
                nx_names,
                nx_queries,
            })
            .collect();
        out.sort_by(|a, b| b.nx_names.cmp(&a.nx_names).then_with(|| a.tld.cmp(&b.tld)));
        out
    }

    /// ≡ [`crate::query::nxdomain_share`].
    #[expect(
        clippy::disallowed_types,
        clippy::float_arithmetic,
        reason = "a fraction computed once from summed integer totals; nothing accumulates in float"
    )]
    pub fn nxdomain_share(&self) -> f64 {
        let total: u64 = self.rcodes.values().sum();
        if total == 0 {
            return 0.0;
        }
        self.total_nx_responses() as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query;

    /// The fixture `query.rs` tests against; day 16_071 is 2014-01-01.
    const ROWS: [(&str, u32, u16, RCode, u32); 5] = [
        ("dead.com", 16_071, 0, RCode::NxDomain, 10),
        ("dead.com", 16_085, 0, RCode::NxDomain, 5),
        ("dead.com", 16_102, 1, RCode::NxDomain, 2),
        ("gone.ru", 16_072, 1, RCode::NxDomain, 7),
        ("alive.com", 16_073, 0, RCode::NoError, 100),
    ];

    fn assert_matches_oracle(s: &ScaleSummary, db: &PassiveDb) {
        assert_eq!(s.total_nx_responses(), query::total_nx_responses(db));
        assert_eq!(
            s.total_responses(RCode::NoError),
            query::total_responses(db, RCode::NoError)
        );
        assert_eq!(s.distinct_nx_names(), query::distinct_nx_names(db));
        assert_eq!(s.monthly_nx_series(), query::monthly_nx_series(db));
        assert_eq!(s.yearly_avg_monthly_nx(), query::yearly_avg_monthly_nx(db));
        assert_eq!(s.rcode_breakdown(), query::rcode_breakdown(db));
        assert_eq!(s.nx_by_sensor(), query::nx_by_sensor(db));
        assert_eq!(s.tld_distribution(), query::tld_distribution(db));
        assert_eq!(
            s.nxdomain_share().to_bits(),
            query::nxdomain_share(db).to_bits()
        );
    }

    #[test]
    fn parity_with_the_batch_engine_on_the_query_fixture() {
        for block_rows in [1, 2, usize::MAX] {
            let mut db = PassiveDb::with_block_rows(block_rows);
            let mut observed = ScaleSummary::default();
            for (name, day, sensor, rcode, count) in ROWS {
                db.record_str(name, day, sensor, rcode, count);
                observed.observe_row(tld_of(name), day, sensor, rcode.to_u8(), u64::from(count));
            }
            for name in ["dead.com", "gone.ru"] {
                observed.observe_nx_name(tld_of(name));
            }
            assert_matches_oracle(&ScaleSummary::of(&db), &db);
            assert_matches_oracle(&observed, &db);
            assert_eq!(observed, ScaleSummary::of(&db));
        }
        let empty = PassiveDb::new();
        assert_matches_oracle(&ScaleSummary::of(&empty), &empty);
    }

    #[test]
    fn tld_matches_interner_rules() {
        assert_eq!(tld_of("a.b.com"), "com");
        assert_eq!(tld_of("nodots"), "nodots");
        assert_eq!(tld_of(""), "");
        assert_eq!(tld_of("trailing."), "");
        let mut interner = crate::Interner::new();
        for name in ["a.b.com", "nodots", "trailing.", "x.ru"] {
            let id = interner.intern_str(name);
            assert_eq!(interner.resolve_tld(interner.tld_id(id)), tld_of(name));
        }
    }
}
