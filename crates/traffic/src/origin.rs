//! The origin-analysis population (§5.2): the 91.5 M expired NXDomains,
//! generated at the same 1/1,000 sampling ratio the paper itself applies to
//! its data. The population carries planted DGA registrations (3%), squat
//! registrations in Fig. 7's type mix, and blocklist entries in Fig. 8's
//! category mix; the `nxd-core` origin pipeline must *re-discover* all
//! three with the real detectors.

use nxd_blocklist::{Blocklist, ThreatCategory};
use nxd_dga::all_families;
use nxd_squat::generate::{self as squatgen, CandidateTable};
use nxd_squat::tables::POPULAR_TARGETS;
use nxd_whois::{HistoricWhoisDb, SpanEnd, WhoisRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Origin-population configuration. Defaults reproduce the paper's numbers
/// at 1/1,000 scale.
#[derive(Debug, Clone)]
pub struct OriginConfig {
    pub seed: u64,
    /// Expired-domain population size (paper: 91,545,561; /1000 ≈ 91,546).
    pub expired_total: usize,
    /// Fraction of the population that is DGA-registered, in permille
    /// (paper: 2,770,650 / 91.5 M ≈ 30‰).
    pub dga_permille: u32,
    /// Squat registrations by kind `(typo, combo, dot, bit, homo)`
    /// (paper: 45,175 / 38,900 / 6,090 / 313 / 126; /1000 with floors).
    pub squat_counts: (usize, usize, usize, usize, usize),
    /// Blocklisted fraction of the population in permille (paper: 483,887
    /// hits in a 20 M sample ≈ 24.2‰).
    pub blocklist_permille: u32,
}

impl Default for OriginConfig {
    fn default() -> Self {
        OriginConfig {
            seed: 0x0219,
            expired_total: 91_546,
            dga_permille: 30,
            squat_counts: (45, 39, 6, 2, 2),
            blocklist_permille: 24,
        }
    }
}

/// One expired domain with its hidden ground-truth origin (the pipeline
/// never reads the label; tests compare pipeline output against it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpiredDomain {
    pub name: String,
    /// Ground truth for evaluation only.
    pub truth: OriginTruth,
}

/// Hidden origin label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OriginTruth {
    Benign,
    Dga,
    Squat(nxd_squat::SquatKind),
}

/// The generated origin world.
pub struct OriginWorld {
    pub domains: Vec<ExpiredDomain>,
    pub whois: HistoricWhoisDb,
    pub blocklist: Blocklist,
    pub config: OriginConfig,
}

/// Generates the expired-domain population.
pub fn generate(config: OriginConfig) -> OriginWorld {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut domains: Vec<ExpiredDomain> = Vec::with_capacity(config.expired_total);
    let mut seen = std::collections::HashSet::new();
    let families = all_families();
    let words = nxd_dga::corpus::WORDS;

    let dga_target = config.expired_total * config.dga_permille as usize / 1000;
    let (n_typo, n_combo, n_dot, n_bit, n_homo) = config.squat_counts;

    // Planted squats, drawn from the generators against popular targets.
    let plant_squats = |kind: nxd_squat::SquatKind,
                        count: usize,
                        gen: fn(&str) -> Vec<String>,
                        rng: &mut StdRng,
                        domains: &mut Vec<ExpiredDomain>,
                        seen: &mut std::collections::HashSet<String>| {
        let mut table = CandidateTable::new(gen);
        let mut planted = 0;
        let mut attempts = 0;
        while planted < count && attempts < count * 50 {
            attempts += 1;
            let candidates = table.get(rng.gen_range(0..POPULAR_TARGETS.len()));
            if candidates.is_empty() {
                continue;
            }
            let name = candidates[rng.gen_range(0..candidates.len())].clone();
            if seen.insert(name.clone()) {
                domains.push(ExpiredDomain {
                    name,
                    truth: OriginTruth::Squat(kind),
                });
                planted += 1;
            }
        }
    };
    plant_squats(
        nxd_squat::SquatKind::Typo,
        n_typo,
        squatgen::typosquats,
        &mut rng,
        &mut domains,
        &mut seen,
    );
    plant_squats(
        nxd_squat::SquatKind::Combo,
        n_combo,
        squatgen::combosquats,
        &mut rng,
        &mut domains,
        &mut seen,
    );
    plant_squats(
        nxd_squat::SquatKind::Dot,
        n_dot,
        squatgen::dotsquats,
        &mut rng,
        &mut domains,
        &mut seen,
    );
    plant_squats(
        nxd_squat::SquatKind::Bit,
        n_bit,
        squatgen::bitsquats,
        &mut rng,
        &mut domains,
        &mut seen,
    );
    plant_squats(
        nxd_squat::SquatKind::Homo,
        n_homo,
        squatgen::homosquats,
        &mut rng,
        &mut domains,
        &mut seen,
    );

    // Planted DGA registrations (the small set a botmaster actually
    // registered, §5.2).
    while domains
        .iter()
        .filter(|d| d.truth == OriginTruth::Dga)
        .count()
        < dga_target
    {
        let fam = &families[rng.gen_range(0..families.len())];
        let date = (
            2014 + rng.gen_range(0..9),
            rng.gen_range(1..13u32),
            rng.gen_range(1..29u32),
        );
        let name = fam.generate(rng.gen(), date, 1).pop().unwrap();
        if seen.insert(name.clone()) {
            domains.push(ExpiredDomain {
                name,
                truth: OriginTruth::Dga,
            });
        }
    }

    // Benign background: human-plausible expired names.
    while domains.len() < config.expired_total {
        let name = match rng.gen_range(0..4) {
            0 => format!(
                "{}{}.com",
                words[rng.gen_range(0..words.len())],
                words[rng.gen_range(0..words.len())]
            ),
            1 => format!(
                "{}-{}.net",
                words[rng.gen_range(0..words.len())],
                words[rng.gen_range(0..words.len())]
            ),
            2 => format!(
                "{}{}.org",
                words[rng.gen_range(0..words.len())],
                rng.gen_range(1..999u32)
            ),
            _ => format!("my{}.info", words[rng.gen_range(0..words.len())]),
        };
        if seen.insert(name.clone()) {
            domains.push(ExpiredDomain {
                name,
                truth: OriginTruth::Benign,
            });
        }
    }

    // WHOIS spans: every domain in this population has exactly the expired
    // history the paper's §5.1 join selects for.
    let mut whois = HistoricWhoisDb::new();
    for (i, d) in domains.iter().enumerate() {
        let registered = 1_300_000_000 + rng.gen_range(0..250_000_000u64);
        let expires = registered + 365 * 86_400 * rng.gen_range(1..4u64);
        whois.add(WhoisRecord {
            domain: d.name.clone(),
            registered,
            expires,
            registrar: ["godaddy", "namecheap", "101domain"][i % 3].to_string(),
            registrant: format!("anon-{i}"),
            nameservers: vec![format!("ns1.{}", d.name)],
            end: SpanEnd::Expired,
        });
    }

    // Blocklist entries: malicious history for a slice of the population,
    // weighted 79/9/8/4 across categories (Fig. 8).
    let mut blocklist = Blocklist::new();
    let bl_target = config.expired_total * config.blocklist_permille as usize / 1000;
    let mut listed = 0;
    let mut idx = 0;
    while listed < bl_target && idx < domains.len() {
        // Spread entries across the population deterministically.
        let d = &domains[(idx * 7919) % domains.len()];
        idx += 1;
        if blocklist.lookup(&d.name).is_some() {
            continue;
        }
        let roll = rng.gen_range(0..100);
        let cat = if roll < 79 {
            ThreatCategory::Malware
        } else if roll < 88 {
            ThreatCategory::Grayware
        } else if roll < 96 {
            ThreatCategory::Phishing
        } else {
            ThreatCategory::CommandAndControl
        };
        blocklist.insert(&d.name, cat);
        listed += 1;
    }

    OriginWorld {
        domains,
        whois,
        blocklist,
        config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> OriginWorld {
        generate(OriginConfig {
            expired_total: 5_000,
            ..Default::default()
        })
    }

    #[test]
    fn population_size_and_uniqueness() {
        let w = small();
        assert_eq!(w.domains.len(), 5_000);
        let unique: std::collections::HashSet<_> = w.domains.iter().map(|d| &d.name).collect();
        assert_eq!(unique.len(), 5_000);
    }

    #[test]
    fn truth_mix_matches_config() {
        let w = small();
        let dga = w
            .domains
            .iter()
            .filter(|d| d.truth == OriginTruth::Dga)
            .count();
        assert_eq!(dga, 150); // 30‰ of 5000
        let squats = w
            .domains
            .iter()
            .filter(|d| matches!(d.truth, OriginTruth::Squat(_)))
            .count();
        assert_eq!(squats, 45 + 39 + 6 + 2 + 2);
    }

    #[test]
    fn whois_has_every_domain_expired() {
        let w = small();
        assert_eq!(w.whois.distinct_domains(), 5_000);
        for d in w.domains.iter().take(100) {
            assert_eq!(w.whois.latest(&d.name).unwrap().end, SpanEnd::Expired);
        }
    }

    #[test]
    fn blocklist_sized_and_weighted() {
        let w = small();
        let total = w.blocklist.len();
        assert_eq!(total, 120); // 24‰ of 5000
        let counts = w.blocklist.category_counts();
        let malware = counts.get(&ThreatCategory::Malware).copied().unwrap_or(0);
        assert!(
            malware as f64 / total as f64 > 0.6,
            "malware should dominate"
        );
    }

    #[test]
    fn deterministic() {
        let a = generate(OriginConfig {
            expired_total: 1_000,
            ..Default::default()
        });
        let b = generate(OriginConfig {
            expired_total: 1_000,
            ..Default::default()
        });
        assert_eq!(a.domains, b.domains);
    }
}
