//! §4 — the scale analyses over the passive-DNS database: headline scalars,
//! Fig. 3 (monthly NXDOMAIN trend), Fig. 4 (TLD distribution), Fig. 5
//! (lifespan decay), Fig. 6 (expiry-aligned query averages), and the §7
//! hijacking sensitivity experiment.
//!
//! Each figure is answered once, by the store's own engine: the whole-store
//! group-bys read the memoized [`PassiveDb::summary`], and Figs. 5–6 run the
//! compressed-block [`scan`] kernels. The [`query`] oracle they must equal
//! lives in the tests and in `repro scale-parallel`.
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
use nxd_passive_dns::{query, scan, NameId, PassiveDb};

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
    let summary = db.summary();
    let (five_year_names, five_year_queries) = query::long_lived_nx(db, 5 * 365);
    ScaleReport {
        total_nx_responses: summary.total_nx_responses(),
        distinct_nx_names: summary.distinct_nx_names(),
        five_year_names,
        five_year_queries,
    }
}

/// Fig. 3: average NXDOMAIN responses per month, per year.
pub fn fig3(db: &PassiveDb) -> Vec<(i32, f64)> {
    db.summary().yearly_avg_monthly_nx()
}

/// Fig. 4: the top-`n` TLDs by NXDomain count, with their query volumes.
pub fn fig4(db: &PassiveDb, n: usize) -> Vec<query::TldStat> {
    let mut dist = db.summary().tld_distribution();
    dist.truncate(n);
    dist
}

/// Fig. 5: names and queries per day-offset in NX status (0–60 days).
pub fn fig5(db: &PassiveDb) -> Vec<query::LifespanBucket> {
    scan::lifespan_histogram(db, 60)
}

/// Fig. 6: average queries per domain from 60 days before to 120 days after
/// the status change.
pub fn fig6(db: &PassiveDb, expiry_days: &HashMap<NameId, u32>) -> Vec<(i32, f64)> {
    let panel: Vec<(NameId, u32)> = expiry_days.iter().map(|(&id, &day)| (id, day)).collect();
    let totals = scan::expiry_aligned_totals(db, &panel, 60, 120);
    scan::expiry_aligned_average(&totals, expiry_days.len(), 60)
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

    /// 400 rows over 120 NX names in four TLDs whose alphabetical order
    /// is the reverse of their name-count order (zz 60, net 30, com 20,
    /// ab 10), plus NoError noise under .org.
    fn fixture(block_rows: usize) -> PassiveDb {
        let mut d = PassiveDb::with_block_rows(block_rows);
        for i in 0..400u32 {
            let day = 16_800 + (i * 13) % 900;
            let k = i % 120;
            let tld = match k {
                0..60 => "zz",
                60..90 => "net",
                90..110 => "com",
                _ => "ab",
            };
            d.record_str(
                &format!("name-{k}.{tld}"),
                day,
                (i % 5) as u16,
                RCode::NxDomain,
                1 + i % 7,
            );
            if i % 3 == 0 {
                d.record_str(&format!("ok-{i}.org"), day, 0, RCode::NoError, 2);
            }
        }
        d
    }

    #[test]
    fn figures_equal_the_query_oracle() {
        for block_rows in [1, 7, usize::MAX] {
            let d = fixture(block_rows);
            let (five_year_names, five_year_queries) = query::long_lived_nx(&d, 5 * 365);
            let oracle = ScaleReport {
                total_nx_responses: query::total_nx_responses(&d),
                distinct_nx_names: query::distinct_nx_names(&d),
                five_year_names,
                five_year_queries,
            };
            assert_eq!(headline(&d), oracle, "block_rows={block_rows}");
            assert_eq!(
                fig3(&d),
                query::yearly_avg_monthly_nx(&d),
                "block_rows={block_rows}"
            );
            for n in [2, 20] {
                let mut top = query::tld_distribution(&d);
                top.truncate(n);
                assert_eq!(fig4(&d, n), top, "block_rows={block_rows} n={n}");
            }
            assert_eq!(
                fig4(&d, 2)
                    .iter()
                    .map(|t| t.tld.as_str())
                    .collect::<Vec<_>>(),
                ["zz", "net"]
            );
            assert_eq!(
                fig5(&d),
                query::lifespan_histogram(&d, 60),
                "block_rows={block_rows}"
            );
            // Every name in the panel, plus one id the store never issued:
            // it adds no rows but counts toward the denominator.
            let mut panel: HashMap<NameId, u32> = d
                .nx_names()
                .map(|(id, agg)| (id, agg.first_nx_day + 90))
                .collect();
            panel.insert(NameId(u32::MAX), 17_000);
            let series = fig6(&d, &panel);
            let oracle = query::expiry_aligned_series(&d, &panel, 60, 120);
            assert_eq!(series.len(), 181);
            for (a, b) in series.iter().zip(&oracle) {
                assert_eq!(a.0, b.0);
                assert_eq!(
                    a.1.to_bits(),
                    b.1.to_bits(),
                    "block_rows={block_rows} offset {}",
                    a.0
                );
            }
            assert!(fig6(&d, &HashMap::new()).is_empty());
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
