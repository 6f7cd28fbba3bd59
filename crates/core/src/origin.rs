//! §5 — the origin analyses: the WHOIS history join (§5.1), DGA detection,
//! squat classification (Fig. 7), and the rate-limited blocklist
//! cross-reference (Fig. 8).
//!
//! The four functions here are the *serial reference*: one pass each over
//! the population. [`pipeline`] fuses all four legs into a single sharded
//! parallel scan with bit-identical results.
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap
    )
)]

pub mod pipeline;

use std::collections::{BTreeMap, HashMap};

use nxd_blocklist::{Blocklist, ThreatCategory};
use nxd_dga::DgaDetector;
use nxd_passive_dns::{query, NameId, PassiveDb};
use nxd_squat::{SquatClassifier, SquatKind};
use nxd_whois::HistoricWhoisDb;

/// §5.1 join result (paper: 91,545,561 of 146,363,745,785 = 0.0625%).
#[derive(Debug, Clone, PartialEq)]
pub struct WhoisJoin {
    pub with_history: u64,
    pub without_history: u64,
    pub expired_fraction: f64,
}

/// Joins every NXDomain in the passive database against historic WHOIS.
pub fn whois_join(db: &PassiveDb, whois: &HistoricWhoisDb) -> WhoisJoin {
    let (with, without) = whois.join_counts(db.nx_names().map(|(id, _)| db.interner().resolve(id)));
    let total = with + without;
    WhoisJoin {
        with_history: with,
        without_history: without,
        expired_fraction: if total == 0 {
            0.0
        } else {
            with as f64 / total as f64
        },
    }
}

/// DGA scan over an expired-domain population (paper: 2,770,650 of 91 M,
/// 3%). Returns `(flagged_count, fraction)`.
pub fn dga_scan<'a, I>(domains: I, detector: &DgaDetector) -> (u64, f64)
where
    I: IntoIterator<Item = &'a str>,
{
    let mut flagged = 0u64;
    let mut total = 0u64;
    for d in domains {
        total += 1;
        if detector.is_dga(d) {
            flagged += 1;
        }
    }
    (
        flagged,
        if total == 0 {
            0.0
        } else {
            flagged as f64 / total as f64
        },
    )
}

/// Fig. 7: squat classification over an expired-domain population.
///
/// Returns a `BTreeMap` so tallies iterate in kind order — the fused
/// pipeline's merged report compares `==` against this without any
/// order-sensitivity.
pub fn squat_scan<'a, I>(domains: I, classifier: &SquatClassifier) -> BTreeMap<SquatKind, u64>
where
    I: IntoIterator<Item = &'a str>,
{
    let mut counts = BTreeMap::new();
    for d in domains {
        if let Some(m) = classifier.classify(d) {
            *counts.entry(m.kind).or_insert(0) += 1;
        }
    }
    counts
}

/// Fig. 8 result: per-category blocklist hits plus how much of the sample
/// the rate limit allowed through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlocklistXref {
    pub hits: HashMap<ThreatCategory, u64>,
    pub queried: u64,
    pub rate_limited_rejections: u64,
}

/// Cross-references a deterministic sample of `sample_size` domains against
/// a rate-limited blocklist view, spacing queries so the token bucket
/// refills (the §5.2 constraint that forced the paper down to a 20 M
/// sample). `domains` must be the full population; sampling is by stable
/// hash, mirroring §4.2. Takes borrowed `&str`s so callers feed it straight
/// from the intern tables without materializing a `Vec<String>`.
pub fn blocklist_xref<'a, I>(
    domains: I,
    blocklist: &Blocklist,
    sample_size: usize,
    burst: u64,
    refill_per_sec: u64,
) -> BlocklistXref
where
    I: IntoIterator<Item = &'a str>,
{
    // Deterministic sample: order by salted hash, take the first k.
    let mut keyed: Vec<(u64, &str)> = domains
        .into_iter()
        .map(|d| (fnv(d.as_bytes()), d))
        .collect();
    keyed.sort_unstable();
    keyed.truncate(sample_size);
    xref_sample(
        keyed.iter().map(|&(_, d)| d),
        blocklist,
        burst,
        refill_per_sec,
    )
}

/// The rate-limited lookup loop over an already-sampled, already-ordered
/// domain sequence — shared by [`blocklist_xref`] and the fused pipeline
/// (which builds the identical sample from per-shard top-k merges). The
/// token bucket is stateful, so this stage is inherently serial.
pub(crate) fn xref_sample<'a, I>(
    sample: I,
    blocklist: &Blocklist,
    burst: u64,
    refill_per_sec: u64,
) -> BlocklistXref
where
    I: IntoIterator<Item = &'a str>,
{
    let mut view = blocklist.rate_limited(burst, refill_per_sec);
    let mut hits: HashMap<ThreatCategory, u64> = HashMap::new();
    let mut queried = 0u64;
    let mut rejections = 0u64;
    let mut now = 0u64;
    for domain in sample {
        loop {
            match view.lookup(domain, now) {
                Ok(result) => {
                    queried += 1;
                    if let Some(cat) = result {
                        *hits.entry(cat).or_insert(0) += 1;
                    }
                    break;
                }
                Err(_) => {
                    // Back off one second and retry, as the paper's batch
                    // jobs would.
                    rejections += 1;
                    now += 1;
                }
            }
        }
    }
    BlocklistXref {
        hits,
        queried,
        rate_limited_rejections: rejections,
    }
}

/// The §4.2-style deterministic sampling of NXDomain names from the passive
/// database (1/`n` by stable hash), as interned ids — resolve them lazily
/// through the store's interner instead of eagerly rendering strings.
pub fn sample_names(db: &PassiveDb, n: u64, salt: u64) -> Vec<NameId> {
    query::sample_nx_names(db, n, salt)
}

/// Lazily resolves sampled ids to borrowed name strings.
#[cfg(test)]
fn resolve_names<'a>(db: &'a PassiveDb, ids: &'a [NameId]) -> impl Iterator<Item = &'a str> {
    ids.iter().map(|&id| db.interner().resolve(id))
}

pub(crate) fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use nxd_dns_wire::RCode;
    use nxd_whois::{SpanEnd, WhoisRecord};

    #[test]
    fn whois_join_ratio() {
        let mut db = PassiveDb::new();
        db.record_str("expired.com", 17_000, 0, RCode::NxDomain, 1);
        db.record_str("never1.com", 17_000, 0, RCode::NxDomain, 1);
        db.record_str("never2.com", 17_000, 0, RCode::NxDomain, 1);
        db.record_str("never3.com", 17_000, 0, RCode::NxDomain, 1);
        let mut whois = HistoricWhoisDb::new();
        whois.add(WhoisRecord {
            domain: "expired.com".into(),
            registered: 1,
            expires: 2,
            registrar: "r".into(),
            registrant: "a".into(),
            nameservers: vec![],
            end: SpanEnd::Expired,
        });
        let j = whois_join(&db, &whois);
        assert_eq!(j.with_history, 1);
        assert_eq!(j.without_history, 3);
        assert!((j.expired_fraction - 0.25).abs() < 1e-12);
    }

    #[test]
    fn dga_scan_counts() {
        let detector = DgaDetector::default();
        let names = ["google.com", "xkqzjvwpyh.com", "facebook.com"];
        let (flagged, fraction) = dga_scan(names.iter().copied(), &detector);
        assert_eq!(flagged, 1);
        assert!((fraction - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn squat_scan_finds_kinds() {
        let classifier = SquatClassifier::default();
        let names = [
            "gogle.com",
            "paypal-login.com",
            "wwwfacebook.com",
            "neutral-name.com",
        ];
        let counts = squat_scan(names.iter().copied(), &classifier);
        assert_eq!(counts[&SquatKind::Typo], 1);
        assert_eq!(counts[&SquatKind::Combo], 1);
        assert_eq!(counts[&SquatKind::Dot], 1);
        assert_eq!(counts.values().sum::<u64>(), 3);
    }

    #[test]
    fn blocklist_xref_respects_sample_and_limit() {
        let mut bl = Blocklist::new();
        let domains: Vec<String> = (0..100).map(|i| format!("d{i}.com")).collect();
        for d in domains.iter().take(50) {
            bl.insert(d, ThreatCategory::Malware);
        }
        let x = blocklist_xref(domains.iter().map(String::as_str), &bl, 40, 5, 5);
        assert_eq!(x.queried, 40);
        assert!(
            x.rate_limited_rejections > 0,
            "rate limit should have engaged"
        );
        let total_hits: u64 = x.hits.values().sum();
        assert!(total_hits <= 40);
        assert!(total_hits > 0);
    }

    #[test]
    fn sampling_from_db() {
        let mut db = PassiveDb::new();
        for i in 0..2_000 {
            db.record_str(&format!("x{i}.com"), 17_000, 0, RCode::NxDomain, 1);
        }
        let s = sample_names(&db, 10, 99);
        assert!((100..350).contains(&s.len()), "got {}", s.len());
        assert_eq!(s, sample_names(&db, 10, 99));
        // Lazy resolution yields real names from the population.
        for name in resolve_names(&db, &s) {
            assert!(name.starts_with('x') && name.ends_with(".com"));
        }
    }
}
