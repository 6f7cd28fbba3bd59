//! §4 — the scale analyses over the passive-DNS database: headline scalars,
//! Fig. 3 (monthly NXDOMAIN trend), Fig. 4 (TLD distribution), Fig. 5
//! (lifespan decay), Fig. 6 (expiry-aligned query averages), and the §7
//! hijacking sensitivity experiment.
//!
//! Every figure has a `*_sharded` twin running the same analysis through the
//! parallel [`ShardedStore`] executor; results are bit-identical to the
//! serial versions for any shard count.
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap
    )
)]

use std::collections::HashMap;

use nxd_dns_sim::HijackPolicy;
use nxd_dns_wire::RCode;
use nxd_passive_dns::{query, NameId, PassiveDb, ShardedStore};

/// Headline scalars of §4.1/§4.4 (paper values at full scale:
/// 1,069,114,764,701 responses; 146,363,745,785 names; 1,018,964 names
/// non-existent for > 5 years receiving 107,020,820 queries).
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleReport {
    pub total_nx_responses: u64,
    pub distinct_nx_names: u64,
    pub five_year_names: u64,
    pub five_year_queries: u64,
}

/// Computes the headline scalars.
pub fn headline(db: &PassiveDb) -> ScaleReport {
    let (five_year_names, five_year_queries) = query::long_lived_nx(db, 5 * 365);
    ScaleReport {
        total_nx_responses: query::total_nx_responses(db),
        distinct_nx_names: query::distinct_nx_names(db),
        five_year_names,
        five_year_queries,
    }
}

/// Fig. 3: average NXDOMAIN responses per month, per year.
pub fn fig3(db: &PassiveDb) -> Vec<(i32, f64)> {
    query::yearly_avg_monthly_nx(db)
}

/// Fig. 4: the top-`n` TLDs by NXDomain count, with their query volumes.
pub fn fig4(db: &PassiveDb, n: usize) -> Vec<query::TldStat> {
    let mut dist = query::tld_distribution(db);
    dist.truncate(n);
    dist
}

/// Fig. 5: names and queries per day-offset in NX status (0–60 days).
pub fn fig5(db: &PassiveDb) -> Vec<query::LifespanBucket> {
    query::lifespan_histogram(db, 60)
}

/// Fig. 6: average queries per domain from 60 days before to 120 days after
/// the status change.
pub fn fig6(db: &PassiveDb, expiry_days: &HashMap<NameId, u32>) -> Vec<(i32, f64)> {
    query::expiry_aligned_series(db, expiry_days, 60, 120)
}

/// Sharded twin of [`headline`]: the same scalars computed by the parallel
/// executor, one partial per shard, merged deterministically.
pub fn headline_sharded(store: &ShardedStore) -> ScaleReport {
    let (five_year_names, five_year_queries) = store.long_lived_nx(5 * 365);
    ScaleReport {
        total_nx_responses: store.total_nx_responses(),
        distinct_nx_names: store.distinct_nx_names(),
        five_year_names,
        five_year_queries,
    }
}

/// Sharded twin of [`fig3`].
pub fn fig3_sharded(store: &ShardedStore) -> Vec<(i32, f64)> {
    store.yearly_avg_monthly_nx()
}

/// Sharded twin of [`fig4`].
pub fn fig4_sharded(store: &ShardedStore, n: usize) -> Vec<query::TldStat> {
    let mut dist = store.tld_distribution();
    dist.truncate(n);
    dist
}

/// Sharded twin of [`fig5`].
pub fn fig5_sharded(store: &ShardedStore) -> Vec<query::LifespanBucket> {
    store.lifespan_histogram(60)
}

/// Sharded twin of [`fig6`]. The expiry panel is keyed by name string
/// (not [`NameId`]) because interner ids are shard-local.
pub fn fig6_sharded(store: &ShardedStore, expiry_days: &HashMap<String, u32>) -> Vec<(i32, f64)> {
    store.expiry_aligned_series(expiry_days, 60, 120)
}

/// §7 hijack sensitivity: how much of the NXDOMAIN signal would an ISP
/// rewriting policy hide from passive-DNS sensors placed below it?
///
/// Returns `(visible_nx, hidden_nx, hidden_fraction)` for the given policy —
/// with the paper's 4.8% wild rate the hidden fraction stays marginal, which
/// is the paper's argument for why hijacking does not bias the study.
pub fn hijack_sensitivity(db: &PassiveDb, policy: &HijackPolicy) -> (u64, u64, f64) {
    let mut visible = 0u64;
    let mut hidden = 0u64;
    for obs in db.rows() {
        if obs.rcode != RCode::NxDomain.to_u8() {
            continue;
        }
        let name = db.interner().resolve(obs.name);
        // Hijack decisions are per-name (stable resolver-path property).
        let parsed: nxd_dns_wire::Name = match name.parse() {
            Ok(n) => n,
            Err(_) => continue,
        };
        if policy.hijacks(&parsed) {
            hidden += obs.count as u64;
        } else {
            visible += obs.count as u64;
        }
    }
    let total = visible + hidden;
    let fraction = if total == 0 {
        0.0
    } else {
        hidden as f64 / total as f64
    };
    (visible, hidden, fraction)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> PassiveDb {
        let mut db = PassiveDb::new();
        // One short-lived name, one five-year name.
        db.record_str("short.com", 17_000, 0, RCode::NxDomain, 10);
        db.record_str("long.com", 17_000, 0, RCode::NxDomain, 2);
        db.record_str("long.com", 17_000 + 5 * 365 + 1, 0, RCode::NxDomain, 3);
        db.record_str("alive.com", 17_000, 0, RCode::NoError, 50);
        db
    }

    #[test]
    fn headline_scalars() {
        let r = headline(&db());
        assert_eq!(r.total_nx_responses, 15);
        assert_eq!(r.distinct_nx_names, 2);
        assert_eq!(r.five_year_names, 1);
        assert_eq!(r.five_year_queries, 5);
    }

    #[test]
    fn fig4_truncates() {
        let d = db();
        assert_eq!(fig4(&d, 1).len(), 1);
        assert_eq!(fig4(&d, 10).len(), 1); // only .com present
    }

    #[test]
    fn hijack_sensitivity_bounds() {
        let d = db();
        let none = HijackPolicy::none();
        let (v, h, f) = hijack_sensitivity(&d, &none);
        assert_eq!((v, h), (15, 0));
        assert_eq!(f, 0.0);

        let all = HijackPolicy {
            rate_permille: 1000,
            ad_server: std::net::Ipv4Addr::LOCALHOST,
            salt: 0,
        };
        let (v, h, f) = hijack_sensitivity(&d, &all);
        assert_eq!((v, h), (0, 15));
        assert!((f - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sharded_twins_match_serial_figures() {
        let mut d = PassiveDb::new();
        for i in 0..400u32 {
            let day = 16_800 + (i * 13) % 900;
            d.record_str(
                &format!("name-{}.net", i % 120),
                day,
                (i % 5) as u16,
                RCode::NxDomain,
                1 + i % 7,
            );
            if i % 3 == 0 {
                d.record_str(&format!("ok-{i}.org"), day, 0, RCode::NoError, 2);
            }
        }
        for shards in [1usize, 2, 4, 8] {
            let store = ShardedStore::from_db(&d, shards);
            assert_eq!(headline_sharded(&store), headline(&d), "shards={shards}");
            assert_eq!(fig3_sharded(&store), fig3(&d), "shards={shards}");
            assert_eq!(fig4_sharded(&store, 5), fig4(&d, 5), "shards={shards}");
            assert_eq!(fig5_sharded(&store), fig5(&d), "shards={shards}");
            let panel_ids: HashMap<NameId, u32> = (0..120u32)
                .filter_map(|i| {
                    d.interner()
                        .get(&format!("name-{i}.net"))
                        .map(|id| (id, 17_000 + i))
                })
                .collect();
            let panel_strings: HashMap<String, u32> = (0..120u32)
                .map(|i| (format!("name-{i}.net"), 17_000 + i))
                .collect();
            assert_eq!(
                fig6_sharded(&store, &panel_strings),
                fig6(&d, &panel_ids),
                "shards={shards}"
            );
        }
    }

    #[test]
    fn hijack_paper_rate_is_marginal() {
        let mut d = PassiveDb::new();
        for i in 0..5_000 {
            d.record_str(&format!("n{i}.com"), 17_000, 0, RCode::NxDomain, 1);
        }
        let policy = HijackPolicy::paper_rate(11);
        let (_, _, fraction) = hijack_sensitivity(&d, &policy);
        assert!((0.02..0.08).contains(&fraction), "got {fraction}");
    }
}
