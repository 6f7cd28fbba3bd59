//! §7 future-work extensions, implemented: DNS sinkholing with
//! stream-based infection detection, and multi-provider passive-DNS
//! federation with contributor-bias measurement.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use nxd_dga::{all_families, DgaDetector, StreamDetector};
use nxd_dns_sim::{Resolver, ResolverConfig, SimDns, SimDuration, SimTime, Sinkhole};
use nxd_dns_wire::{Name, RType};
use nxd_passive_dns::{Coverage, Federation};
use nxd_traffic::era::{EraWorld, CHINA_SENSORS, EUROPE_SENSORS, GLOBAL_SENSORS};

/// Result of the sinkhole takedown experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkholeReport {
    /// Names on the sinkhole watchlist (the reverse-engineered DGA's
    /// candidates for the day).
    pub watched_names: usize,
    /// Queries redirected to the analysis server.
    pub redirected: usize,
    /// Ground-truth infected clients.
    pub bots_total: usize,
    /// Infected clients identified from the sinkhole stream.
    pub bots_detected: usize,
    /// Clean clients wrongly flagged.
    pub false_positives: usize,
}

/// The sinkhole experiment (§7: "sinkhole NXDomain traffic to dedicated
/// analysis servers, so we can identify security problems directly based on
/// DNS traffic analysis").
///
/// A botnet of `bots` infected clients walks one DGA family's daily
/// candidate list looking for its C&C; `clean` clients produce ordinary
/// NXDomain noise (typos of real names). The defender — who reverse-
/// engineered the family seed, as takedowns do — sinkholes the day's
/// candidates and runs the stream detector over the redirected queries.
pub fn sinkhole_takedown(bots: usize, clean: usize, seed: u64) -> SinkholeReport {
    let start = SimTime::from_ymd(2022, 9, 1);
    let mut dns = SimDns::new(&["com", "net", "org", "ru", "info"], start);
    let mut resolver = Resolver::new(ResolverConfig::default());
    let mut sinkhole = Sinkhole::new(Ipv4Addr::new(198, 51, 100, 53));

    // The defender registers the day's candidate list.
    let family = &all_families()[0]; // the reverse-engineered family
    let date = (2022, 9, 1);
    let candidates = family.generate(seed, date, 250);
    sinkhole.watch_all(candidates.iter().filter_map(|c| c.parse::<Name>().ok()));

    // Register a handful of real domains so clean traffic also resolves.
    for i in 0..10 {
        let name: Name = format!("legit-service-{i}.com").parse().unwrap();
        dns.register_domain(&name, "owner", "registrar", 1, Ipv4Addr::new(192, 0, 2, 10))
            .unwrap();
    }

    let mut t = start;
    let step = SimDuration::seconds(7);

    // Infected clients poll a slice of the candidate list (each bot walks
    // the same algorithm, offset by its own position).
    for bot in 0..bots {
        for (i, candidate) in candidates.iter().take(40).enumerate() {
            t = t + step;
            let qname: Name = candidate.parse().unwrap();
            let res = resolver.resolve(&dns, &qname, RType::A, t);
            let redirected = sinkhole.apply(bot as u64, &qname, res, t);
            // The bot believes it found its C&C: the sinkhole answered.
            debug_assert!(
                i != 0 || !redirected.answers.is_empty(),
                "first candidate must be sinkholed"
            );
        }
    }
    // Clean clients: typos and occasional legit lookups.
    let typos = [
        "gogle.com",
        "facebok.com",
        "wikipedai.org",
        "amazn.com",
        "youtub.com",
    ];
    for c in 0..clean {
        let client = (bots + c) as u64;
        for (i, typo) in typos.iter().enumerate() {
            t = t + step;
            let qname: Name = typo.parse().unwrap();
            let res = resolver.resolve(&dns, &qname, RType::A, t);
            let _ = sinkhole.apply(client, &qname, res, t);
            let legit: Name = format!("legit-service-{}.com", i % 10).parse().unwrap();
            let _ = resolver.resolve(&dns, &legit, RType::A, t);
        }
    }

    // Analysis: feed the sinkhole log to the stream detector.
    let mut stream = StreamDetector::new(86_400, DgaDetector::default());
    let log = sinkhole.log().to_vec();
    for event in &log {
        stream.observe_nx(event.client, event.qname.as_str(), event.at.as_secs());
    }
    let flagged: HashSet<u64> = stream.infected_clients().into_iter().collect();
    let bots_detected = (0..bots as u64).filter(|b| flagged.contains(b)).count();
    let false_positives = flagged.iter().filter(|&&c| c >= bots as u64).count();

    SinkholeReport {
        watched_names: sinkhole.watchlist_len(),
        redirected: log.len(),
        bots_total: bots,
        bots_detected,
        false_positives,
    }
}

/// Splits an era world's database into the three simulated collection
/// networks and computes their coverage/bias matrix (§7 "Database
/// Coverage").
pub fn federation_report(world: &EraWorld) -> Vec<Coverage> {
    let federation = Federation::from_sensor_ranges(
        &world.db,
        &[
            ("farsight-like", GLOBAL_SENSORS),
            ("114dns-like", CHINA_SENSORS),
            ("circl-like", EUROPE_SENSORS),
        ],
    );
    federation.coverage()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nxd_traffic::era::{self, EraConfig};

    #[test]
    fn sinkhole_identifies_every_bot_without_false_positives() {
        let report = sinkhole_takedown(12, 20, 0xB07);
        assert_eq!(report.bots_total, 12);
        assert_eq!(report.bots_detected, 12, "{report:?}");
        assert_eq!(report.false_positives, 0, "{report:?}");
        // Every bot polled 40 watched names.
        assert_eq!(report.redirected, 12 * 40);
        assert_eq!(report.watched_names, 250);
    }

    #[test]
    fn sinkhole_scales_with_botnet_size() {
        let small = sinkhole_takedown(3, 5, 1);
        let large = sinkhole_takedown(30, 5, 1);
        assert!(large.redirected > small.redirected);
        assert_eq!(large.bots_detected, 30);
    }

    #[test]
    fn federation_shows_regional_bias() {
        let world = era::generate(EraConfig {
            nx_names: 6_000,
            expired_panel: 100,
            resolver_checks: 0,
            ..Default::default()
        });
        let coverage = federation_report(&world);
        assert_eq!(coverage.len(), 3);
        let global = &coverage[0];
        let china = coverage
            .iter()
            .find(|c| c.provider == "114dns-like")
            .unwrap();
        // The global network sees the most names…
        assert!(global.nx_names > china.nx_names);
        // …and regional networks deviate more from the merged TLD mix.
        assert!(
            china.tld_bias_l1 > global.tld_bias_l1,
            "china bias {} vs global {}",
            china.tld_bias_l1,
            global.tld_bias_l1
        );
        // Single-provider blind spots exist: the union exceeds any single
        // provider's view (the paper's coverage-limitation argument).
        assert!(global.jaccard_vs_union < 1.0);
        assert!(global.unique_names > 0);
    }
}
