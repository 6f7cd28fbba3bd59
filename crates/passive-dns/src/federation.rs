//! Multi-provider federation — the paper's §7 "Database Coverage" plan:
//! complementing Farsight with CIRCL.lu, DNSIQ, Mnemonic, and regional
//! databases like 114DNS, and quantifying the contributor bias a single
//! provider introduces.
//!
//! A [`Federation`] holds independently collected [`PassiveDb`]s and
//! answers the coverage questions: how much does each provider see, how
//! much is unique to it, and how far its TLD mix deviates from the merged
//! view (the geolocation-bias diagnostic the paper wishes it could run).

use std::collections::HashSet;

use crate::store::PassiveDb;

/// Per-provider coverage statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Coverage {
    pub provider: String,
    /// Distinct NXDomain names this provider observed.
    pub nx_names: u64,
    /// NXDOMAIN responses this provider observed.
    pub nx_responses: u64,
    /// Names no other provider observed.
    pub unique_names: u64,
    /// Jaccard similarity of this provider's name set vs the union.
    pub jaccard_vs_union: f64,
    /// L1 distance between this provider's TLD share vector and the merged
    /// federation's (0 = identical mix, 2 = disjoint).
    pub tld_bias_l1: f64,
}

/// A federation of named passive-DNS providers.
#[derive(Default)]
pub struct Federation {
    providers: Vec<(String, PassiveDb)>,
}

impl Federation {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a provider's database.
    pub fn add_provider(&mut self, name: &str, db: PassiveDb) {
        self.providers.push((name.to_string(), db));
    }

    /// Splits one database into providers by sensor-id range — the
    /// simulation's stand-in for independent collection networks (each
    /// sensor contributes to exactly one provider).
    pub fn from_sensor_ranges(
        db: &PassiveDb,
        ranges: &[(&str, std::ops::Range<u16>)],
    ) -> Federation {
        let mut dbs: Vec<PassiveDb> = ranges.iter().map(|_| PassiveDb::new()).collect();
        for obs in db.rows() {
            if let Some(idx) = ranges.iter().position(|(_, r)| r.contains(&obs.sensor)) {
                let name = db.interner().resolve(obs.name);
                let id = dbs[idx].interner_mut().intern_str(name);
                dbs[idx].append(crate::store::Observation { name: id, ..obs });
            }
        }
        let mut f = Federation::new();
        for ((name, _), shard) in ranges.iter().zip(dbs) {
            f.add_provider(name, shard);
        }
        f
    }

    #[cfg(test)]
    fn provider_count(&self) -> usize {
        self.providers.len()
    }

    pub fn providers(&self) -> impl Iterator<Item = &str> {
        self.providers.iter().map(|(n, _)| n.as_str())
    }

    /// Merges every provider into one database (re-interning names).
    pub fn merged(&self) -> PassiveDb {
        let mut out = PassiveDb::new();
        for (_, db) in &self.providers {
            out.merge(db);
        }
        out
    }

    /// Name sets per provider (NXDomain names only), as strings.
    fn name_sets(&self) -> Vec<HashSet<String>> {
        self.providers
            .iter()
            .map(|(_, db)| {
                db.nx_names()
                    .map(|(id, _)| db.interner().resolve(id).to_string())
                    .collect()
            })
            .collect()
    }

    /// TLD share vector of a database (sorted by TLD name for stable
    /// comparison), as `(tld, share)`.
    fn tld_shares(db: &PassiveDb) -> Vec<(String, f64)> {
        let dist = crate::query::tld_distribution(db);
        let total: u64 = dist.iter().map(|t| t.nx_names).sum();
        if total == 0 {
            return Vec::new();
        }
        let mut shares: Vec<(String, f64)> = dist
            .into_iter()
            .map(|t| (t.tld, t.nx_names as f64 / total as f64))
            .collect();
        shares.sort_by(|a, b| a.0.cmp(&b.0));
        shares
    }

    fn l1_distance(a: &[(String, f64)], b: &[(String, f64)]) -> f64 {
        let mut dist = 0.0;
        let mut i = 0;
        let mut j = 0;
        while i < a.len() || j < b.len() {
            match (a.get(i), b.get(j)) {
                (Some(x), Some(y)) if x.0 == y.0 => {
                    dist += (x.1 - y.1).abs();
                    i += 1;
                    j += 1;
                }
                (Some(x), Some(y)) if x.0 < y.0 => {
                    dist += x.1;
                    i += 1;
                }
                (Some(_), Some(_)) => {
                    dist += b[j].1;
                    j += 1;
                }
                (Some(x), None) => {
                    dist += x.1;
                    i += 1;
                }
                (None, Some(y)) => {
                    dist += y.1;
                    j += 1;
                }
                (None, None) => break,
            }
        }
        dist
    }

    /// Computes the full coverage matrix.
    pub fn coverage(&self) -> Vec<Coverage> {
        let sets = self.name_sets();
        let union: HashSet<&String> = sets.iter().flatten().collect();
        let merged = self.merged();
        let merged_shares = Self::tld_shares(&merged);

        self.providers
            .iter()
            .enumerate()
            .map(|(i, (name, db))| {
                let mine = &sets[i];
                let unique = mine
                    .iter()
                    .filter(|n| {
                        sets.iter()
                            .enumerate()
                            .all(|(j, s)| j == i || !s.contains(*n))
                    })
                    .count() as u64;
                let jaccard = if union.is_empty() {
                    1.0
                } else {
                    mine.len() as f64 / union.len() as f64
                };
                Coverage {
                    provider: name.clone(),
                    nx_names: mine.len() as u64,
                    nx_responses: crate::query::total_nx_responses(db),
                    unique_names: unique,
                    jaccard_vs_union: jaccard,
                    tld_bias_l1: Self::l1_distance(&Self::tld_shares(db), &merged_shares),
                }
            })
            .collect()
    }

    /// Names observed by *every* provider (the high-confidence core).
    pub fn consensus_names(&self) -> Vec<String> {
        let sets = self.name_sets();
        let Some(first) = sets.first() else {
            return Vec::new();
        };
        let mut out: Vec<String> = first
            .iter()
            .filter(|n| sets.iter().all(|s| s.contains(*n)))
            .cloned()
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nxd_dns_wire::RCode;

    fn db_with(names: &[&str]) -> PassiveDb {
        let mut db = PassiveDb::new();
        for (i, n) in names.iter().enumerate() {
            db.record_str(n, 17_000 + i as u32, 0, RCode::NxDomain, 2);
        }
        db
    }

    fn federation() -> Federation {
        let mut f = Federation::new();
        f.add_provider("farsight", db_with(&["a.com", "b.com", "c.ru", "d.cn"]));
        f.add_provider("circl", db_with(&["a.com", "b.com", "e.de"]));
        f.add_provider("114dns", db_with(&["d.cn", "f.cn", "g.cn"]));
        f
    }

    #[test]
    fn merged_covers_union() {
        let f = federation();
        let merged = f.merged();
        assert_eq!(crate::query::distinct_nx_names(&merged), 7);
        // a.com observed by two providers: counts add.
        assert_eq!(merged.aggregate_of("a.com").unwrap().nx_queries, 4);
    }

    #[test]
    fn coverage_counts() {
        let f = federation();
        let cov = f.coverage();
        assert_eq!(cov.len(), 3);
        let farsight = &cov[0];
        assert_eq!(farsight.provider, "farsight");
        assert_eq!(farsight.nx_names, 4);
        // a/b shared with circl, d.cn shared with 114dns → only c.ru unique.
        assert_eq!(farsight.unique_names, 1);
        assert!((farsight.jaccard_vs_union - 4.0 / 7.0).abs() < 1e-12);
        let regional = &cov[2];
        assert_eq!(regional.unique_names, 2); // f.cn, g.cn
    }

    #[test]
    fn regional_provider_shows_tld_bias() {
        let f = federation();
        let cov = f.coverage();
        let farsight_bias = cov[0].tld_bias_l1;
        let regional_bias = cov[2].tld_bias_l1;
        assert!(
            regional_bias > farsight_bias,
            "114dns (all .cn) must deviate more: {regional_bias} vs {farsight_bias}"
        );
    }

    #[test]
    fn consensus_requires_all_providers() {
        let f = federation();
        assert!(f.consensus_names().is_empty(), "no name is in all three");
        let mut f2 = Federation::new();
        f2.add_provider("x", db_with(&["shared.com", "only-x.com"]));
        f2.add_provider("y", db_with(&["shared.com"]));
        assert_eq!(f2.consensus_names(), vec!["shared.com".to_string()]);
    }

    #[test]
    fn empty_federation() {
        let f = Federation::new();
        assert_eq!(f.provider_count(), 0);
        assert!(f.coverage().is_empty());
        assert!(f.consensus_names().is_empty());
        assert_eq!(crate::query::distinct_nx_names(&f.merged()), 0);
    }

    #[test]
    fn l1_distance_bounds() {
        let a = vec![("com".to_string(), 1.0)];
        let b = vec![("ru".to_string(), 1.0)];
        assert!((Federation::l1_distance(&a, &b) - 2.0).abs() < 1e-12);
        assert_eq!(Federation::l1_distance(&a, &a), 0.0);
    }
}
