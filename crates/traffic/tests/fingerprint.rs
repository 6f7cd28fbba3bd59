//! Byte-stability of the seeded worlds.
//!
//! Every benchmark, parity suite and paper-claim test builds its inputs
//! from these generators, so a change that only means to make them faster
//! must leave their output untouched. Each test below digests one
//! generator's full output for seeds 1, 2 and 3 and compares it with the
//! digest recorded before the squat candidate table was introduced: any
//! reordered `rng` draw, changed bound or different candidate list shows
//! up as a mismatch.
//!
//! The digest is FNV-1a ([`nxd_passive_dns::hash::fnv1a`]) chained over
//! the output's fields: each field is hashed with the running digest as
//! its salt, and strings are followed by a 0 byte so adjacent fields
//! cannot run together.

use nxd_passive_dns::hash::fnv1a;
use nxd_squat::SquatKind;
use nxd_traffic::era::{self, EraConfig};
use nxd_traffic::origin::{self, OriginConfig, OriginTruth};
use nxd_traffic::replay_specs;

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

fn replay_digest(seed: u64, expired_panel: usize) -> u64 {
    let specs = replay_specs(&EraConfig {
        seed,
        nx_names: 20_000,
        expired_panel,
        resolver_checks: 0,
    });
    let mut d = Digest::default();
    d.u64(specs.len() as u64);
    for s in &specs {
        d.str(&s.name);
        d.u64(s.expired as u64);
    }
    d.0
}

fn era_digest(seed: u64) -> u64 {
    let world = era::generate(EraConfig {
        seed,
        nx_names: 15_000,
        expired_panel: 500,
        resolver_checks: 0,
    });
    let mut d = Digest::default();
    d.u64(world.db.row_count() as u64);
    for o in world.db.rows() {
        d.str(world.db.interner().resolve(o.name));
        d.u64(o.day as u64);
        d.u64(o.sensor as u64);
        d.u64(o.rcode as u64);
        d.u64(o.count as u64);
    }
    d.0
}

fn truth_code(truth: OriginTruth) -> u64 {
    match truth {
        OriginTruth::Benign => 0,
        OriginTruth::Dga => 1,
        OriginTruth::Squat(SquatKind::Typo) => 2,
        OriginTruth::Squat(SquatKind::Combo) => 3,
        OriginTruth::Squat(SquatKind::Dot) => 4,
        OriginTruth::Squat(SquatKind::Bit) => 5,
        OriginTruth::Squat(SquatKind::Homo) => 6,
    }
}

fn origin_digest(config: OriginConfig) -> u64 {
    let world = origin::generate(config);
    let mut d = Digest::default();
    d.u64(world.domains.len() as u64);
    for dom in &world.domains {
        d.str(&dom.name);
        d.u64(truth_code(dom.truth));
    }
    d.0
}

fn check(what: &str, got: [u64; 3], want: [u64; 3]) {
    assert_eq!(
        got,
        want,
        "{what}: digests for seeds {SEEDS:?} moved; got {}",
        got.map(|h| format!("{h:#018x}")).join(", ")
    );
}

#[test]
fn replay_specs_serve_tcp_world_is_pinned() {
    check(
        "replay_specs 20k + 120",
        SEEDS.map(|s| replay_digest(s, 120)),
        [0x429a73865a55224d, 0x68b0159a8af9e49d, 0x6d4877b0831fd017],
    );
}

#[test]
fn replay_specs_serve_udp_world_is_pinned() {
    check(
        "replay_specs 20k + 2000",
        SEEDS.map(|s| replay_digest(s, 2_000)),
        [0x9c58f494165cefa3, 0xd4964e6975a74d9f, 0x90d1215ed3bbbfd3],
    );
}

#[test]
fn era_rows_are_pinned() {
    check(
        "era 15k + 500",
        SEEDS.map(era_digest),
        [0xef3a876d539737ec, 0x4a3d9e4943c938d0, 0xc5779c000040818b],
    );
}

#[test]
fn origin_population_is_pinned() {
    check(
        "origin 5k",
        SEEDS.map(|seed| {
            origin_digest(OriginConfig {
                seed,
                expired_total: 5_000,
                ..OriginConfig::default()
            })
        }),
        [0xdc446ab6384563f3, 0x6b6a9900adde0806, 0x82dc77a98017dc22],
    );
}

#[test]
fn origin_population_with_many_squats_is_pinned() {
    // Ten times the default squat counts, so every generator's candidate
    // lists are drawn from many times over.
    check(
        "origin 20k, 10x squats",
        SEEDS.map(|seed| {
            origin_digest(OriginConfig {
                seed,
                expired_total: 20_000,
                squat_counts: (450, 390, 60, 20, 20),
            })
        }),
        [0xb4121b84a725beec, 0x9931b095ea1bb68d, 0xdef151dcf36a3787],
    );
}
