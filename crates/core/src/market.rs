//! The expired-domain market (§2 and §8.2): drop-catching services grab
//! valuable names the instant they are released, while the rest are
//! re-registered — or not — by the public over time. Lauinger et al.
//! (USENIX Security 2017, the paper's references \[62, 63\]) found
//! re-registrations cluster immediately after release; this experiment
//! reproduces that dynamic on the simulated registry and measures the gap
//! distribution.

use nxd_dns_sim::{EventKind, Registry, SimDuration, SimTime};
use nxd_dns_wire::Name;

/// Result of the market simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketReport {
    pub domains: usize,
    /// Domains captured by drop-catch services at release (gap = 0).
    pub drop_caught: usize,
    /// Domains re-registered by the public after some delay.
    pub public_reregistered: usize,
    /// Domains never re-registered inside the horizon — these are the
    /// long-lived NXDomains the paper studies.
    pub never_reregistered: usize,
    /// CDF of re-registration gaps: `(days, fraction of released domains
    /// re-registered within that many days)`.
    pub gap_cdf: Vec<(u32, f64)>,
    /// Median gap in days over re-registered domains (0 = same instant).
    pub median_gap_days: Option<u32>,
}

/// Runs the market: `domains` names registered for one term;
/// `catch_permille` of them are watched by drop-catchers; of the remainder,
/// `public_permille` get re-registered by the public with a geometric delay
/// (mean `mean_gap_days`). The rest stay NXDomain.
pub fn reregistration_market(
    domains: usize,
    catch_permille: u32,
    public_permille: u32,
    mean_gap_days: u32,
    seed: u64,
) -> MarketReport {
    let start = SimTime::from_ymd(2020, 1, 1);
    let mut registry = Registry::new(start);

    // Deterministic per-domain fate (splitmix-style; additive mixing so a
    // seed change re-rolls every fate rather than permuting them — a plain
    // `seed ^ i` hash is xor-linear and two nearby seeds would yield the
    // same aggregate statistics).
    let fate = |i: usize, salt: u64| -> u64 {
        let mut h = seed
            .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    };

    let names: Vec<Name> = (0..domains)
        .map(|i| format!("market-{i}.com").parse().unwrap())
        .collect();
    let mut caught_truth = vec![false; domains];
    let mut public_delay: Vec<Option<u32>> = vec![None; domains];
    for (i, name) in names.iter().enumerate() {
        registry
            .register(name, &format!("owner-{i}"), "registrar", 1)
            .unwrap();
        if fate(i, 1) % 1000 < catch_permille as u64 {
            registry.drop_catch(name, &format!("catcher-{}", i % 5));
            caught_truth[i] = true;
        } else if fate(i, 2) % 1000 < public_permille as u64 {
            // Geometric-ish delay with the requested mean.
            let u = (fate(i, 3) % 10_000) as f64 / 10_000.0;
            let delay = (-(1.0 - u).ln() * mean_gap_days as f64).round() as u32;
            public_delay[i] = Some(delay.max(1));
        }
    }

    // Walk three years a day at a time, performing scheduled public
    // re-registrations as the dates come due.
    let mut release_day: Vec<Option<u32>> = vec![None; domains];
    let mut rereg_day: Vec<Option<u32>> = vec![None; domains];
    let horizon = 3 * 365;
    for day in 1..=horizon {
        registry.tick(start + SimDuration::days(day as u64));
        for event in registry.drain_events() {
            let Some(idx) = names.iter().position(|n| *n == event.domain) else {
                continue;
            };
            match event.kind {
                EventKind::Released => {
                    // Only the first release matters: a re-registered domain
                    // can lapse again inside the horizon.
                    release_day[idx].get_or_insert(day);
                }
                EventKind::DropCaught { .. } | EventKind::Registered { .. }
                    if release_day[idx].is_some() =>
                {
                    rereg_day[idx].get_or_insert(day);
                }
                _ => {}
            }
        }
        // Public re-registrations whose delay elapsed.
        for i in 0..domains {
            if let (Some(released), Some(delay), None) =
                (release_day[i], public_delay[i], rereg_day[i])
            {
                if day >= released + delay
                    && registry
                        .register(&names[i], "public", "registrar", 1)
                        .is_ok()
                {
                    rereg_day[i] = Some(day);
                }
            }
        }
    }

    // Aggregate.
    let mut gaps: Vec<u32> = Vec::new();
    let mut drop_caught = 0;
    let mut public_reregistered = 0;
    let mut never = 0;
    for i in 0..domains {
        match (release_day[i], rereg_day[i]) {
            (Some(released), Some(rereg)) => {
                let gap = rereg - released;
                gaps.push(gap);
                if caught_truth[i] && gap == 0 {
                    drop_caught += 1;
                } else {
                    public_reregistered += 1;
                }
            }
            (Some(_), None) => never += 1,
            _ => never += 1, // not yet released inside the horizon
        }
    }
    gaps.sort_unstable();
    let released_total = (drop_caught + public_reregistered + never).max(1) as f64;
    let gap_cdf = [0u32, 1, 7, 30, 90, 180, 365]
        .iter()
        .map(|&d| {
            let within = gaps.iter().filter(|&&g| g <= d).count();
            (d, within as f64 / released_total)
        })
        .collect();
    let median_gap_days = if gaps.is_empty() {
        None
    } else {
        Some(gaps[gaps.len() / 2])
    };

    MarketReport {
        domains,
        drop_caught,
        public_reregistered,
        never_reregistered: never,
        gap_cdf,
        median_gap_days,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> MarketReport {
        reregistration_market(400, 250, 400, 45, 0xA1)
    }

    #[test]
    fn partitions_add_up() {
        let r = report();
        assert_eq!(r.domains, 400);
        assert_eq!(
            r.drop_caught + r.public_reregistered + r.never_reregistered,
            400
        );
        assert!(r.drop_caught > 0);
        assert!(r.public_reregistered > 0);
        assert!(r.never_reregistered > 0);
    }

    #[test]
    fn drop_catch_gap_is_zero_and_cdf_jumps_at_release() {
        let r = report();
        // Lauinger's finding: a visible cluster at gap 0 (drop-catch).
        let at0 = r.gap_cdf.iter().find(|&&(d, _)| d == 0).unwrap().1;
        assert!(at0 > 0.15, "gap-0 fraction {at0}");
        // CDF is monotone.
        for pair in r.gap_cdf.windows(2) {
            assert!(pair[1].1 >= pair[0].1);
        }
    }

    #[test]
    fn long_tail_never_reregistered() {
        // The paper's subjects: domains that stay NXDomain for months.
        let r = report();
        let share = r.never_reregistered as f64 / r.domains as f64;
        assert!(
            (0.2..0.8).contains(&share),
            "never-reregistered share {share}"
        );
    }

    #[test]
    fn deterministic() {
        assert_eq!(report(), report());
        assert_ne!(report(), reregistration_market(400, 250, 400, 45, 0xA2));
    }

    #[test]
    fn zero_catch_rate_means_no_instant_captures() {
        let r = reregistration_market(150, 0, 500, 30, 7);
        assert_eq!(r.drop_caught, 0);
        if let Some(m) = r.median_gap_days {
            assert!(m >= 1);
        }
    }
}
