//! The passive-DNS era workload (2014–2022): the "simulated Internet" whose
//! queries populate the Farsight-substitute database for the §4 scale
//! analyses (Figs. 3–6 and the headline scalars).
//!
//! Composition of the NXDomain name universe (§5.1: the overwhelming
//! majority of NXDomains were never registered, dominated by DGA output and
//! typos):
//!
//! * DGA candidates from the eight `nxd-dga` families (never registered);
//! * typos of popular domains (never registered);
//! * miscellaneous junk (misconfigured suffixes, word mashups);
//! * an *expired panel*: domains registered in the simulated registry that
//!   lapse mid-era — their pre-expiry NOERROR and post-expiry NXDOMAIN
//!   traffic drives Fig. 6, including the +30-day query spike the paper
//!   observed.
//!
//! Every query's rcode is taken from the simulated registry's ground truth,
//! and a configurable subsample is verified through the full recursive
//! resolver, so the passive database can never drift from the DNS
//! simulation.

use std::collections::HashMap;

use nxd_dga::all_families;
use nxd_dns_sim::{Registry, SimTime};
use nxd_dns_wire::{Name, RCode};
use nxd_passive_dns::{NameId, Observation, PassiveDb};
use nxd_squat::generate::{typosquats, CandidateTable};
use nxd_squat::tables::POPULAR_TARGETS;
use nxd_telemetry::Telemetry;
use nxd_whois::{HistoricWhoisDb, SpanEnd, WhoisRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Era generator configuration.
#[derive(Debug, Clone)]
pub struct EraConfig {
    pub seed: u64,
    /// Distinct never-registered NXDomain names to synthesize.
    pub nx_names: usize,
    /// Expired-domain panel size. The paper-proportional value (0.06% of
    /// names) is statistically unusable at laptop scale, so the default
    /// oversamples; [`EraConfig::paper_proportions`] gives the honest ratio.
    pub expired_panel: usize,
    /// Verify this many randomly chosen observations through the recursive
    /// resolver against the registry ground truth.
    pub resolver_checks: usize,
}

impl Default for EraConfig {
    fn default() -> Self {
        EraConfig {
            seed: 0xE5A,
            nx_names: 60_000,
            expired_panel: 1_500,
            resolver_checks: 200,
        }
    }
}

impl EraConfig {
    /// The honest paper ratio: 0.0625% of NXDomain names have WHOIS history.
    pub fn paper_proportions(nx_names: usize) -> Self {
        EraConfig {
            nx_names,
            expired_panel: (nx_names as f64 * 0.000_625).round().max(1.0) as usize,
            ..Default::default()
        }
    }
}

/// Everything the §4 analyses consume.
pub struct EraWorld {
    pub db: PassiveDb,
    pub whois: HistoricWhoisDb,
    /// Expiry day (days since epoch) per expired-panel name id.
    pub expiry_days: HashMap<NameId, u32>,
    pub config: EraConfig,
    /// Resolver-vs-registry consistency check results (passed, total).
    pub consistency: (usize, usize),
}

/// One era name as the live front-end's load driver replays it: just the
/// name and whether it belongs to the expired panel (and so should be
/// *registered* in the serving hierarchy, answering NOERROR while active).
///
/// This is the deterministic spec stream [`generate`] builds internally,
/// stripped of the emission schedule: `nxd-serve`'s loadgen turns each spec
/// into real wire queries instead of synthetic [`PassiveDb`] rows, so the
/// served world exercises the same name universe (DGA output, typos, junk,
/// expired panel) the offline era does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplaySpec {
    pub name: String,
    /// Expired-panel member — register it in the hierarchy before serving.
    pub expired: bool,
}

/// The deterministic name universe for a config, for live replay through
/// `nxd-serve`. Same seed → same specs as [`generate`] would emit.
pub fn replay_specs(config: &EraConfig) -> Vec<ReplaySpec> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let era_start_day = SimTime::ERA_START.day_number() as u32;
    let era_days = SimTime::ERA_END.day_number() as u32 - era_start_day;
    build_name_specs(&mut rng, config, era_start_day, era_days)
        .into_iter()
        .map(|s| ReplaySpec {
            name: s.name,
            expired: s.expired,
        })
        .collect()
}

/// Fig. 3's yearly intensity curve, relative units per month
/// (2014 rise → flat 2016–2020 → 2021 jump → 2022 high).
const YEAR_MULT: [f64; 9] = [8.0, 12.0, 15.0, 15.2, 15.4, 15.5, 16.0, 19.8, 22.3];

/// TLD mix for names that do not inherit one (Fig. 4's top-20 shape).
const TLD_MIX: [(&str, u32); 20] = [
    ("com", 430),
    ("net", 100),
    ("cn", 85),
    ("ru", 75),
    ("org", 60),
    ("de", 30),
    ("uk", 28),
    ("info", 25),
    ("top", 22),
    ("xyz", 20),
    ("nl", 15),
    ("br", 14),
    ("io", 12),
    ("fr", 11),
    ("eu", 10),
    ("online", 9),
    ("jp", 8),
    ("biz", 7),
    ("it", 6),
    ("au", 5),
];

fn weighted_tld(rng: &mut StdRng) -> &'static str {
    let total: u32 = TLD_MIX.iter().map(|(_, w)| w).sum();
    let mut pick = rng.gen_range(0..total);
    for (tld, w) in TLD_MIX {
        if pick < w {
            return tld;
        }
        pick -= w;
    }
    "com"
}

/// Small-λ Poisson sampler (inversion by sequential search).
fn poisson(rng: &mut StdRng, lambda: f64) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        // Normal approximation is fine at this size.
        let u: f64 = rng.gen_range(-3.0..3.0);
        return (lambda + u * lambda.sqrt()).round().max(0.0) as u32;
    }
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 1000 {
            return k;
        }
    }
}

struct NameSpec {
    name: String,
    /// Day the name starts being queried as NX.
    nx_start: u32,
    /// Active NX-query span in days.
    duration: u32,
    /// Base intensity (expected queries/day at offset 0, year-2016 level).
    weight: f64,
    /// Expired-panel entry? Then `nx_start` is the expiry day.
    expired: bool,
    registered_day: u32,
}

/// Generates the era world.
pub fn generate(config: EraConfig) -> EraWorld {
    generate_with(config, &Telemetry::wall())
}

/// Instrumented variant of [`generate`]: stage spans (`era.specs`,
/// `era.registry`, `era.emit`, `era.consistency`) land on the telemetry
/// tracer, and the generated [`PassiveDb`] plus the consistency resolver
/// attach their metrics to the telemetry registry.
pub fn generate_with(config: EraConfig, telemetry: &Telemetry) -> EraWorld {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let era_start_day = SimTime::ERA_START.day_number() as u32;
    let era_end_day = SimTime::ERA_END.day_number() as u32;
    let era_days = era_end_day - era_start_day;

    let specs = {
        let _span = telemetry.span("era.specs");
        build_name_specs(&mut rng, &config, era_start_day, era_days)
    };
    telemetry
        .registry
        .counter("traffic_era_names_total")
        .add(specs.len() as u64);
    telemetry.journal.info(
        "traffic.era",
        "name specs built",
        &[("specs", &specs.len().to_string())],
    );

    let span_registry = telemetry.span("era.registry");
    // ---- registry + WHOIS for the expired panel -------------------------
    // The registry's fixed one-year term sets (registration = expiry − 1y).
    let mut registry = Registry::new(SimTime(0));
    let mut whois = HistoricWhoisDb::new();
    let mut panel: Vec<usize> = (0..specs.len()).filter(|&i| specs[i].expired).collect();
    panel.sort_by_key(|&i| specs[i].registered_day);
    for &i in &panel {
        let spec = &specs[i];
        let reg_time = SimTime(spec.registered_day as u64 * 86_400);
        registry.tick(reg_time);
        let name: Name = spec.name.parse().expect("generated names are valid");
        registry
            .register(&name, &format!("owner-{i}"), pick_registrar(&mut rng), 1)
            .expect("panel names are unique and registrable");
        whois.add(WhoisRecord {
            domain: spec.name.clone(),
            registered: reg_time.as_secs(),
            expires: spec.nx_start as u64 * 86_400,
            registrar: pick_registrar(&mut rng).to_string(),
            registrant: format!("anon-{i}"),
            nameservers: vec![format!("ns1.{}", spec.name)],
            end: SpanEnd::Expired,
        });
    }
    // Roll the registry through the whole era so every panel domain expires.
    registry.tick(SimTime::ERA_END);
    drop(span_registry);
    telemetry.journal.info(
        "traffic.era",
        "expired panel registered",
        &[("panel", &panel.len().to_string())],
    );

    // ---- emit observations ---------------------------------------------
    let span_emit = telemetry.span("era.emit");
    let mut db = PassiveDb::new();
    db.attach_metrics(&telemetry.registry);
    db.attach_journal(telemetry.journal.clone());
    // Per-phase progress for live observers: the gauge climbs to
    // `traffic_era_names_total` while emit is in flight, so two `/metrics`
    // scrapes mid-run visibly differ.
    let specs_emitted = telemetry.registry.gauge("traffic_era_specs_emitted");
    let total_specs = specs.len();
    let mut expiry_days = HashMap::new();
    for (spec_index, spec) in specs.iter().enumerate() {
        let tld = spec.name.rsplit('.').next().unwrap_or("").to_string();
        let id = db.interner_mut().intern_str(&spec.name);
        if spec.expired {
            expiry_days.insert(id, spec.nx_start);
            // Pre-expiry NOERROR traffic (60 days back, constant-ish rate).
            let pre_rate = spec.weight * 1.2;
            for d in 0..60u32 {
                let day = spec.nx_start.saturating_sub(60 - d);
                if day < era_start_day {
                    continue;
                }
                let count = poisson(&mut rng, pre_rate * year_mult(day));
                if count > 0 {
                    let sensor = pick_sensor(&mut rng, &tld);
                    db.append(Observation {
                        name: id,
                        day,
                        sensor,
                        rcode: RCode::NoError.to_u8(),
                        count,
                    });
                }
            }
        }
        // NX-phase traffic: decay from nx_start, optional expiry spike.
        for offset in 0..spec.duration {
            let day = spec.nx_start + offset;
            if day >= era_end_day {
                break;
            }
            let mut lambda = spec.weight * decay(offset) * year_mult(day);
            if spec.expired && (25..=35).contains(&offset) {
                // The unexplained +30-day spike of Fig. 6 — modeled as a
                // burst of monitoring/drop-catch probing.
                lambda *= 35.0;
            }
            let count = poisson(&mut rng, lambda);
            if count > 0 {
                let sensor = pick_sensor(&mut rng, &tld);
                db.append(Observation {
                    name: id,
                    day,
                    sensor,
                    rcode: RCode::NxDomain.to_u8(),
                    count,
                });
            }
        }
        let done = spec_index + 1;
        if done.is_multiple_of(2048) || done == total_specs {
            specs_emitted.set(done as i64);
        }
        if done.is_multiple_of(16_384) {
            telemetry.journal.info(
                "traffic.era",
                "emit heartbeat",
                &[
                    ("specs", &format!("{done}/{total_specs}")),
                    ("rows", &db.row_count().to_string()),
                ],
            );
        }
    }

    drop(span_emit);
    telemetry.journal.info(
        "traffic.era",
        "emit complete",
        &[
            ("rows", &db.row_count().to_string()),
            ("names", &db.distinct_names().to_string()),
        ],
    );

    // ---- resolver/registry consistency subsample ------------------------
    let consistency = {
        let _span = telemetry.span("era.consistency");
        verify_consistency(&mut rng, &config, &db, &registry, telemetry)
    };
    telemetry.journal.info(
        "traffic.era",
        "consistency checked",
        &[
            ("passed", &consistency.0.to_string()),
            ("total", &consistency.1.to_string()),
        ],
    );

    EraWorld {
        db,
        whois,
        expiry_days,
        config,
        consistency,
    }
}

fn year_mult(day: u32) -> f64 {
    let t = SimTime(day as u64 * 86_400);
    let year = t.year().clamp(2014, 2022);
    YEAR_MULT[(year - 2014) as usize] / 15.0
}

/// Query-rate decay with days spent in NX status: fast in the first ten
/// days, long tail afterwards (Fig. 5's shape).
fn decay(offset: u32) -> f64 {
    (1.0 + offset as f64).powf(-0.9)
}

/// Sensor ids by collection network: 0–9 belong to the global provider
/// (Farsight-like), 10–12 to a Greater-China regional network (114DNS-like),
/// 13–15 to a European network (CIRCL-like). Regional TLDs skew towards
/// their region's sensors — the contributor bias the paper's §7 worries
/// about, measurable via `nxd_passive_dns::Federation`.
pub const GLOBAL_SENSORS: std::ops::Range<u16> = 0..10;
pub const CHINA_SENSORS: std::ops::Range<u16> = 10..13;
pub const EUROPE_SENSORS: std::ops::Range<u16> = 13..16;

fn pick_sensor(rng: &mut StdRng, tld: &str) -> u16 {
    let roll = rng.gen_range(0..100u32);
    let range = match tld {
        "cn" | "jp" | "top" | "xyz" if roll < 55 => CHINA_SENSORS,
        "ru" | "de" | "nl" | "fr" | "eu" | "it" | "uk" if roll < 45 => EUROPE_SENSORS,
        _ => {
            if roll < 88 {
                GLOBAL_SENSORS
            } else if roll < 94 {
                CHINA_SENSORS
            } else {
                EUROPE_SENSORS
            }
        }
    };
    rng.gen_range(range)
}

fn pick_registrar(rng: &mut StdRng) -> &'static str {
    ["godaddy", "namecheap", "101domain", "enom", "gandi"][rng.gen_range(0..5usize)]
}

fn build_name_specs(
    rng: &mut StdRng,
    config: &EraConfig,
    era_start_day: u32,
    era_days: u32,
) -> Vec<NameSpec> {
    let mut specs: Vec<NameSpec> = Vec::with_capacity(config.nx_names + config.expired_panel);
    let mut seen = std::collections::HashSet::new();
    let families = all_families();
    let mut typo_table = CandidateTable::new(typosquats);

    // nx_start density follows the Fig. 3 curve so later years carry more
    // first-seen names.
    let year_weights: Vec<f64> = YEAR_MULT.to_vec();
    let wsum: f64 = year_weights.iter().sum();

    let draw_start = |rng: &mut StdRng| -> u32 {
        let mut pick = rng.gen::<f64>() * wsum;
        let mut year = 0usize;
        for (i, w) in year_weights.iter().enumerate() {
            if pick < *w {
                year = i;
                break;
            }
            pick -= w;
        }
        let day_in_year = rng.gen_range(0..360u32);
        (era_start_day + year as u32 * 365 + day_in_year).min(era_start_day + era_days - 1)
    };

    let draw_duration = |rng: &mut StdRng| -> u32 {
        match rng.gen_range(0..1000) {
            0..=799 => rng.gen_range(1..30),
            800..=949 => rng.gen_range(30..365),
            950..=992 => rng.gen_range(365..1825),
            _ => rng.gen_range(1825..3200), // the ≥5-year long tail (§4.4)
        }
    };

    // Pareto-ish base weight: most names get a trickle, a few get firehoses
    // (the >10k-queries/month selection pool).
    let draw_weight = |rng: &mut StdRng| -> f64 {
        let u: f64 = rng.gen_range(0.001..1.0);
        (0.3 * u.powf(-0.7)).min(25.0)
    };

    while specs.len() < config.nx_names {
        let roll = rng.gen_range(0..100);
        let name = if roll < 62 {
            // DGA candidates.
            let fam = &families[rng.gen_range(0..families.len())];
            let date = (
                2014 + rng.gen_range(0..9),
                rng.gen_range(1..13u32),
                rng.gen_range(1..29u32),
            );
            fam.generate(rng.gen(), date, 1).pop().unwrap()
        } else if roll < 80 {
            // Typos of popular targets.
            let typos = typo_table.get(rng.gen_range(0..POPULAR_TARGETS.len()));
            typos[rng.gen_range(0..typos.len())].clone()
        } else {
            // Junk: word mashups and misconfig-looking names.
            let w = nxd_dga::corpus::WORDS;
            format!(
                "{}{}{}.{}",
                w[rng.gen_range(0..w.len())],
                w[rng.gen_range(0..w.len())],
                rng.gen_range(0..100u32),
                weighted_tld(rng)
            )
        };
        // Re-attach a weighted TLD for 40% of names so Fig. 4's mix holds
        // regardless of family TLD conventions.
        let name = if rng.gen_range(0..100) < 40 {
            let label = name.split('.').next().unwrap().to_string();
            format!("{label}.{}", weighted_tld(rng))
        } else {
            name
        };
        if !seen.insert(name.clone()) {
            continue;
        }
        let nx_start = draw_start(rng);
        specs.push(NameSpec {
            name,
            nx_start,
            duration: draw_duration(rng),
            weight: draw_weight(rng),
            expired: false,
            registered_day: 0,
        });
    }

    // Expired panel: distinctive names so they never collide with the junk.
    for i in 0..config.expired_panel {
        let w = nxd_dga::corpus::WORDS;
        let name = format!(
            "{}-{}{}.{}",
            w[rng.gen_range(0..w.len())],
            w[rng.gen_range(0..w.len())],
            i,
            weighted_tld(rng)
        );
        if !seen.insert(name.clone()) {
            continue;
        }
        // Expiry must leave 60 days of pre-era history and 120 days of
        // post-expiry era; the registry's one-year term sets registration.
        let expiry = era_start_day + 425 + rng.gen_range(0..(era_days - 425 - 130));
        specs.push(NameSpec {
            name,
            nx_start: expiry,
            duration: draw_duration(rng).max(130),
            weight: draw_weight(rng).max(0.5),
            expired: true,
            registered_day: expiry - 365,
        });
    }
    specs
}

/// Two-layer consistency check.
///
/// Layer 1 — every sampled observation's rcode must match the registry's
/// registration spans at that instant (row-level ground truth).
///
/// Layer 2 — a genuine end-to-end check: rebuild the hierarchy as a
/// [`SimDns`], replay the panel registrations through it, advance to the
/// era end, and resolve a sample of names through the caching recursive
/// resolver; every name must be NXDOMAIN by then (the panel has expired and
/// the rest never existed).
fn verify_consistency(
    rng: &mut StdRng,
    config: &EraConfig,
    db: &PassiveDb,
    registry: &Registry,
    telemetry: &Telemetry,
) -> (usize, usize) {
    use nxd_dns_sim::{Resolver, ResolverConfig, SimDns};
    use nxd_dns_wire::RType;

    let rows = db.row_count();
    if rows == 0 || config.resolver_checks == 0 {
        return (0, 0);
    }
    let mut passed = 0;
    let mut total = 0;

    // Layer 1: row-level rcode vs registration spans.
    let sample = config.resolver_checks.min(rows);
    for _ in 0..sample {
        total += 1;
        let obs = db.row(rng.gen_range(0..rows));
        let name_str = db.interner().resolve(obs.name).to_string();
        let name: Name = name_str.parse().expect("stored names are valid");
        let day_time = SimTime(obs.day as u64 * 86_400);
        let expect_nx = obs.rcode == RCode::NxDomain.to_u8();
        let was_registered = registry.events().iter().any(|e| {
            e.domain == name
                && matches!(e.kind, nxd_dns_sim::EventKind::Registered { expires, .. }
                    if e.at <= day_time && day_time < expires)
        });
        if was_registered != expect_nx {
            passed += 1;
        }
    }

    // Layer 2: end-to-end through hierarchy + resolver.
    let tlds: Vec<&str> = TLD_MIX.iter().map(|&(t, _)| t).collect();
    let mut dns = SimDns::new(&tlds, SimTime(0));
    let mut regs: Vec<(SimTime, Name)> = registry
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            nxd_dns_sim::EventKind::Registered { .. } => Some((e.at, e.domain.clone())),
            _ => None,
        })
        .collect();
    regs.sort();
    for (at, name) in regs {
        dns.tick(at);
        let _ = dns.register_domain(
            &name,
            "owner",
            "registrar",
            1,
            std::net::Ipv4Addr::new(198, 51, 100, 1),
        );
    }
    dns.tick(SimTime::ERA_END);
    let mut resolver = Resolver::new(ResolverConfig::default());
    resolver.attach_metrics(&telemetry.registry);
    for _ in 0..config.resolver_checks.min(rows) {
        total += 1;
        let obs = db.row(rng.gen_range(0..rows));
        let name: Name = db.interner().resolve(obs.name).parse().expect("valid");
        // Unknown TLDs (kept by DGA family conventions outside the top-20
        // mix) also produce NXDOMAIN at the root — still the expected state.
        let res = resolver.resolve(&dns, &name, RType::A, SimTime::ERA_END);
        if res.is_nxdomain() {
            passed += 1;
        }
    }
    (passed, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nxd_passive_dns::query;

    fn small_world() -> EraWorld {
        generate(EraConfig {
            nx_names: 4_000,
            expired_panel: 200,
            resolver_checks: 100,
            ..Default::default()
        })
    }

    #[test]
    fn world_populates_database() {
        let w = small_world();
        assert!(w.db.row_count() > 10_000, "rows: {}", w.db.row_count());
        assert!(query::distinct_nx_names(&w.db) > 2_000);
        assert!(query::total_nx_responses(&w.db) > 10_000);
    }

    #[test]
    fn whois_covers_exactly_the_panel() {
        let w = small_world();
        assert_eq!(w.whois.distinct_domains(), w.expiry_days.len());
        for &id in w.expiry_days.keys() {
            let name = w.db.interner().resolve(id);
            assert!(w.whois.has_history(name), "{name}");
        }
    }

    #[test]
    fn consistency_subsample_passes() {
        let w = small_world();
        let (passed, total) = w.consistency;
        assert_eq!(passed, total, "resolver/registry disagreement");
        assert!(total >= 50);
    }

    #[test]
    fn fig3_shape_monotone_rise_then_jump() {
        let w = small_world();
        let yearly = query::yearly_avg_monthly_nx(&w.db);
        let get = |y: i32| {
            yearly
                .iter()
                .find(|&&(yy, _)| yy == y)
                .map(|&(_, v)| v)
                .unwrap_or(0.0)
        };
        assert!(
            get(2014) < get(2016),
            "2014 {} !< 2016 {}",
            get(2014),
            get(2016)
        );
        assert!(get(2021) > get(2020) * 1.1, "2021 jump missing");
        assert!(get(2022) > get(2021) * 0.95, "2022 should stay high");
    }

    #[test]
    fn fig4_com_leads_tlds() {
        let w = small_world();
        let dist = query::tld_distribution(&w.db);
        assert_eq!(dist[0].tld, "com");
        let top5: Vec<&str> = dist.iter().take(5).map(|t| t.tld.as_str()).collect();
        for tld in ["net", "ru"] {
            assert!(top5.contains(&tld), "{tld} not in top5: {top5:?}");
        }
    }

    #[test]
    fn fig5_decay_in_first_ten_days() {
        let w = small_world();
        let hist = query::lifespan_histogram(&w.db, 60);
        assert!(hist[0].names > 0);
        assert!(
            (hist[10].names as f64) < hist[0].names as f64 * 0.6,
            "day10 {} vs day0 {}",
            hist[10].names,
            hist[0].names
        );
        assert!(hist[40].names <= hist[5].names);
    }

    #[test]
    fn fig6_spike_and_decline() {
        let w = small_world();
        let series = query::expiry_aligned_series(&w.db, &w.expiry_days, 60, 120);
        let at = |o: i32| series.iter().find(|&&(x, _)| x == o).unwrap().1;
        let pre: f64 = (-30..-5).map(at).sum::<f64>() / 25.0;
        let spike: f64 = (27..=33).map(at).sum::<f64>() / 7.0;
        let late: f64 = (90..115).map(at).sum::<f64>() / 25.0;
        assert!(spike > pre, "spike {spike} should exceed pre-expiry {pre}");
        assert!(late < pre, "late {late} should fall below pre-expiry {pre}");
    }

    #[test]
    fn long_lived_tail_exists() {
        let w = small_world();
        let (names, queries) = query::long_lived_nx(&w.db, 365);
        assert!(names > 0, "some names must stay queried for over a year");
        assert!(queries > 0);
    }

    #[test]
    fn deterministic() {
        let a = generate(EraConfig {
            nx_names: 500,
            expired_panel: 30,
            ..Default::default()
        });
        let b = generate(EraConfig {
            nx_names: 500,
            expired_panel: 30,
            ..Default::default()
        });
        assert_eq!(a.db.row_count(), b.db.row_count());
        assert_eq!(
            query::total_nx_responses(&a.db),
            query::total_nx_responses(&b.db)
        );
    }

    #[test]
    fn instrumented_generation_reports_stages() {
        let telemetry = Telemetry::wall();
        let w = generate_with(
            EraConfig {
                nx_names: 500,
                expired_panel: 30,
                resolver_checks: 50,
                ..Default::default()
            },
            &telemetry,
        );
        let snap = telemetry.snapshot();
        assert_eq!(
            snap.counter_total("passive_rows_ingested_total"),
            w.db.row_count() as u64
        );
        assert_eq!(snap.counter_total("traffic_era_names_total"), 530);
        // The emit-progress gauge ends at the full spec count, and the
        // stage transitions landed in the flight recorder.
        assert_eq!(snap.gauge_value("traffic_era_specs_emitted"), Some(530));
        let messages: Vec<String> = telemetry
            .journal
            .snapshot()
            .iter()
            .map(|e| e.message.clone())
            .collect();
        for expected in [
            "name specs built",
            "expired panel registered",
            "emit complete",
            "consistency checked",
        ] {
            assert!(
                messages.contains(&expected.to_string()),
                "missing journal event {expected:?} in {messages:?}"
            );
        }
        // The consistency subsample runs through an attached resolver.
        assert!(snap.counter_total("resolver_queries_total") >= 50);
        let names: Vec<String> = telemetry
            .tracer
            .spans()
            .iter()
            .map(|s| s.name.clone())
            .collect();
        for stage in ["era.specs", "era.registry", "era.emit", "era.consistency"] {
            assert!(names.contains(&stage.to_string()), "missing span {stage}");
        }
    }

    #[test]
    fn replay_specs_are_deterministic_and_cover_the_panel() {
        let config = EraConfig {
            nx_names: 300,
            expired_panel: 20,
            resolver_checks: 0,
            ..Default::default()
        };
        let specs = replay_specs(&config);
        assert_eq!(specs, replay_specs(&config), "same seed, same universe");
        assert_eq!(specs.len(), 320);
        assert_eq!(specs.iter().filter(|s| s.expired).count(), 20);
        // Every spec must be servable: a valid wire name with a TLD.
        for s in &specs {
            let name: Name = s.name.parse().expect("replay names are valid");
            assert!(name.tld().is_some(), "{}", s.name);
        }
    }

    #[test]
    fn paper_proportions_ratio() {
        let c = EraConfig::paper_proportions(100_000);
        assert_eq!(c.expired_panel, 63); // 0.0625% of 100k, rounded
    }
}
