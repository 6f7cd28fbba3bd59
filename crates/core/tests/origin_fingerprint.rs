//! Byte-stability of the §5 origin decisions.
//!
//! The origin leg labels every expired NXDomain three ways — DGA score,
//! squat kind (Fig. 7) and blocklist category (Fig. 8) — and the serial
//! reference report sums those labels. A change that only means to
//! simplify or speed up a detector kernel must leave every one of these
//! decisions untouched. Each test below digests them over a seeded origin
//! world (seeds 1, 2 and 3) and compares the digest with the one recorded
//! before the detectors lost their hand-optimised twin paths: a DGA score
//! that moves by one ulp, a squat match against a different target or a
//! lookup that answers differently shows up as a mismatch.
//!
//! The digest is FNV-1a ([`nxd_passive_dns::hash::fnv1a`]) chained over
//! the output's fields, built like `nxd-traffic`'s `tests/fingerprint.rs`:
//! each field is hashed with the running digest as its salt, and strings
//! are followed by a 0 byte so adjacent fields cannot run together.

use nxd_blocklist::{Blocklist, ThreatCategory};
use nxd_core::{OriginPipeline, OriginReport, XrefParams};
use nxd_dga::DgaDetector;
use nxd_dns_wire::RCode;
use nxd_passive_dns::hash::fnv1a;
use nxd_passive_dns::PassiveDb;
use nxd_squat::{SquatClassifier, SquatKind};
use nxd_traffic::origin::{self, OriginConfig, OriginWorld};

#[derive(Default)]
struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(bytes, self.0);
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0]);
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

const SEEDS: [u64; 3] = [1, 2, 3];

fn squat_code(kind: SquatKind) -> u64 {
    match kind {
        SquatKind::Typo => 1,
        SquatKind::Combo => 2,
        SquatKind::Dot => 3,
        SquatKind::Bit => 4,
        SquatKind::Homo => 5,
    }
}

fn category_code(category: Option<ThreatCategory>) -> u64 {
    match category {
        None => 0,
        Some(ThreatCategory::Malware) => 1,
        Some(ThreatCategory::Grayware) => 2,
        Some(ThreatCategory::Phishing) => 3,
        Some(ThreatCategory::CommandAndControl) => 4,
    }
}

/// One name's three detector decisions. The blocklist is probed as given
/// and uppercased, so both of `lookup`'s casing paths are pinned.
fn digest_name(
    d: &mut Digest,
    name: &str,
    detector: &DgaDetector,
    classifier: &SquatClassifier,
    blocklist: &Blocklist,
) {
    d.str(name);
    d.u64(detector.score(name).to_bits());
    match classifier.classify(name) {
        Some(m) => {
            d.u64(squat_code(m.kind));
            d.str(&m.target);
        }
        None => d.u64(0),
    }
    d.u64(category_code(blocklist.lookup(name)));
    d.u64(category_code(blocklist.lookup(&name.to_ascii_uppercase())));
}

fn digest_report(d: &mut Digest, r: &OriginReport) {
    d.u64(r.names_scanned);
    d.u64(r.whois.with_history);
    d.u64(r.whois.without_history);
    d.u64(r.whois.expired_fraction.to_bits());
    d.u64(r.dga_flagged);
    d.u64(r.dga_fraction.to_bits());
    for kind in SquatKind::ALL {
        d.u64(r.squat.get(&kind).copied().unwrap_or(0));
    }
    for cat in ThreatCategory::ALL {
        d.u64(r.xref.hits.get(&cat).copied().unwrap_or(0));
    }
    d.u64(r.xref.queried);
    d.u64(r.xref.rate_limited_rejections);
}

/// The world's population as an all-NXDomain passive database, laid out
/// the way `repro origin-parallel` lays it out.
fn db_of(world: &OriginWorld) -> PassiveDb {
    let mut db = PassiveDb::new();
    for (i, dom) in world.domains.iter().enumerate() {
        db.record_str(
            &dom.name,
            17_000 + (i % 365) as u32,
            (i % 8) as u16,
            RCode::NxDomain,
            1 + (i % 7) as u32,
        );
    }
    db
}

fn origin_digest(seed: u64) -> u64 {
    // Ten times the default squat counts, so the classifier's match paths
    // run many times over and not only its misses.
    let world = origin::generate(OriginConfig {
        seed,
        expired_total: 20_000,
        squat_counts: (450, 390, 60, 20, 20),
    });
    let detector = DgaDetector::default();
    let classifier = SquatClassifier::default();
    let mut d = Digest::default();
    d.u64(world.domains.len() as u64);
    for dom in &world.domains {
        digest_name(&mut d, &dom.name, &detector, &classifier, &world.blocklist);
    }
    let db = db_of(&world);
    let pipeline = OriginPipeline {
        whois: &world.whois,
        detector: &detector,
        classifier: &classifier,
        blocklist: &world.blocklist,
        xref: XrefParams {
            sample_size: db.distinct_names() * 20 / 91,
            burst: 500,
            refill_per_sec: 200,
        },
    };
    digest_report(&mut d, &pipeline.run_serial(&db));
    d.0
}

#[test]
fn origin_decisions_are_pinned() {
    let got = SEEDS.map(origin_digest);
    assert_eq!(
        got,
        [0x32a1f8918d3023e6, 0xcad726203534b4c8, 0x225e02eb65652089],
        "origin decisions for seeds {SEEDS:?} moved; got {}",
        got.map(|h| format!("{h:#018x}")).join(", ")
    );
}

/// Shapes the seeded worlds never draw: mixed case, digits, separators,
/// empty and one-letter labels, and non-ASCII labels whose char and byte
/// indices differ.
#[test]
fn edge_shape_decisions_are_pinned() {
    let detector = DgaDetector::default();
    let classifier = SquatClassifier::default();
    let mut blocklist = Blocklist::new();
    blocklist.insert("PayPal-Login.com", ThreatCategory::Phishing);
    blocklist.insert("b\u{fc}cherwelt.de", ThreatCategory::Grayware);
    blocklist.insert("xkqzjvwpyh.com", ThreatCategory::Malware);
    let mut d = Digest::default();
    for name in [
        "",
        "a",
        ".",
        "google.com",
        "Google.COM",
        "gogle.com",
        "paypal-login.com",
        "p\u{430}ypal.com",
        "b\u{fc}cherwelt.de",
        "caf\u{e9}dragon.com",
        "\u{e9}silverdragon.net",
        "xkqzjvwpyh.com",
        "MIXED-Case99.net",
        "digits123.org",
        "a-b-c.io",
        "secureloginportal.com",
        "wordwordword.biz",
    ] {
        digest_name(&mut d, name, &detector, &classifier, &blocklist);
    }
    assert_eq!(
        d.0, 0x82aa2350d2d912ea,
        "edge-shape decisions moved; got {:#018x}",
        d.0
    );
}
