//! Cross-crate integration: the passive-DNS era pipeline end to end —
//! workload generation (nxd-traffic) → database (nxd-passive-dns) →
//! analyses (nxd-core) — with the §4 figure shapes asserted against the
//! paper.

use nxdomain::passive::query;
use nxdomain::study::{origin, scale, selection};
use nxdomain::traffic::era::{self, EraConfig};

fn world() -> era::EraWorld {
    era::generate(EraConfig {
        nx_names: 10_000,
        expired_panel: 500,
        resolver_checks: 150,
        ..Default::default()
    })
}

#[test]
fn full_scale_pipeline_shapes() {
    let w = world();

    // Consistency: the passive DB never disagrees with the DNS simulation.
    let (passed, total) = w.consistency;
    assert_eq!(passed, total);

    // Headline scalars are non-trivial.
    let headline = scale::headline(&w.db);
    assert!(headline.total_nx_responses > 10_000);
    assert!(headline.distinct_nx_names > 5_000);
    assert!(
        headline.five_year_names > 0,
        "a long tail of ≥5y NXDomains must exist"
    );

    // Fig. 3: 2014 < 2016; 2021 jumps over 2020; 2022 stays high.
    let fig3 = scale::fig3(&w.db);
    let get = |y: i32| {
        fig3.iter()
            .find(|&&(yy, _)| yy == y)
            .map(|&(_, v)| v)
            .unwrap_or(0.0)
    };
    assert!(get(2014) < get(2016));
    assert!(
        get(2021) > get(2020) * 1.05,
        "2021 {} vs 2020 {}",
        get(2021),
        get(2020)
    );
    assert!(get(2022) > get(2020));

    // Fig. 4: .com leads both axes; queries align with names.
    let fig4 = scale::fig4(&w.db, 20);
    assert_eq!(fig4[0].tld, "com");
    assert!(fig4[0].nx_queries > fig4[5].nx_queries);

    // Fig. 5: steep decay within ten days.
    let fig5 = scale::fig5(&w.db);
    assert!((fig5[10].names as f64) < fig5[0].names as f64 * 0.6);

    // Fig. 6: expiry spike at ~+30 days exceeding pre-expiry average.
    let fig6 = scale::fig6(&w.db, &w.expiry_days);
    let at = |o: i32| fig6.iter().find(|&&(x, _)| x == o).unwrap().1;
    let pre: f64 = (-30..-5).map(at).sum::<f64>() / 25.0;
    let spike: f64 = (27..=33).map(at).sum::<f64>() / 7.0;
    assert!(spike > pre, "spike {spike} vs pre {pre}");
}

#[test]
fn whois_join_covers_exactly_the_panel() {
    let w = world();
    let join = origin::whois_join(&w.db, &w.whois);
    // Every panel name (and only panel names) has history. A few panel
    // names may emit zero NX queries and thus not appear among nx_names.
    assert!(join.with_history as usize <= w.expiry_days.len());
    assert!(join.with_history as usize >= w.expiry_days.len() * 9 / 10);
    assert!(join.expired_fraction < 0.2);
}

#[test]
fn selection_prefers_high_traffic_old_names() {
    let w = world();
    let criteria = selection::SelectionCriteria {
        min_monthly_queries: 20.0,
        min_nx_days: 182,
        as_of_day: nxdomain::sim::SimTime::ERA_END.day_number() as u32,
        max_selected: 19,
    };
    let picked = selection::select(&w.db, &criteria);
    assert!(!picked.is_empty(), "the heavy tail guarantees candidates");
    assert!(picked.len() <= 19);
    for c in &picked {
        assert!(c.nx_days >= 182);
        assert!(c.avg_monthly_queries >= 20.0);
    }
    // Ordered by total volume.
    for pair in picked.windows(2) {
        assert!(pair[0].total_nx_queries >= pair[1].total_nx_queries);
    }
}

#[test]
fn sampling_is_stable_and_proportional() {
    let w = world();
    let s1 = query::sample_nx_names(&w.db, 100, 7);
    let s2 = query::sample_nx_names(&w.db, 100, 7);
    assert_eq!(s1, s2);
    let expected = scale::headline(&w.db).distinct_nx_names / 100;
    let got = s1.len() as u64;
    assert!(
        got.abs_diff(expected) < expected / 2 + 20,
        "1/100 sample of {} names gave {}",
        expected * 100,
        got
    );
}

#[test]
fn hijack_rates_scale_monotonically() {
    use nxdomain::sim::HijackPolicy;
    let w = world();
    let mut last = 0.0;
    for rate in [0u16, 48, 200, 600] {
        let policy = HijackPolicy {
            rate_permille: rate,
            ..HijackPolicy::paper_rate(3)
        };
        let (_, _, fraction) = scale::hijack_sensitivity(&w.db, &policy);
        assert!(fraction >= last, "hijack fraction must grow with rate");
        last = fraction;
    }
    // At the paper's 4.8% the loss is marginal (<10%).
    let (_, _, f) = scale::hijack_sensitivity(&w.db, &HijackPolicy::paper_rate(3));
    assert!(f < 0.10, "got {f}");
}
