//! # nxd-bench
//!
//! Benchmarks and the `repro` binary.
//!
//! * `cargo run -p nxd-bench --bin repro --release -- all` regenerates every
//!   table and figure of the paper (scaled) and prints paper-vs-measured
//!   rows — the source of EXPERIMENTS.md.
//! * `cargo bench -p nxd-bench` runs the criterion benches: one per
//!   table/figure plus the ablations called out in DESIGN.md (negative
//!   cache, sampling ratio, filter stages, DGA detector features,
//!   interning).
//!
//! This library crate only hosts shared experiment drivers so the bin and
//! the benches stay in sync.

use nxd_core::XrefParams;
use nxd_dns_wire::RCode;
use nxd_passive_dns::PassiveDb;
use nxd_telemetry::Telemetry;
use nxd_traffic::{era, honeypot_era, origin, EraConfig, HoneypotConfig, OriginConfig};

/// The standard reproduction-scale era world. The embedded sensor database
/// and consistency-check resolver attach to `telemetry`, and each
/// generation stage records a span.
pub fn era_world_with(telemetry: &Telemetry) -> era::EraWorld {
    era::generate_with(EraConfig::default(), telemetry)
}

/// A smaller era world for quick benches.
pub fn era_world_small() -> era::EraWorld {
    era::generate(EraConfig {
        nx_names: 8_000,
        expired_panel: 400,
        resolver_checks: 0,
        ..Default::default()
    })
}

/// Standard reproduction-scale origin world.
pub fn origin_world() -> origin::OriginWorld {
    origin::generate(OriginConfig::default())
}

/// A smaller origin world for quick benches.
pub fn origin_world_small() -> origin::OriginWorld {
    origin::generate(OriginConfig {
        expired_total: 8_000,
        ..Default::default()
    })
}

/// The standard reproduction-scale honeypot world (Table 1 / 100).
/// Per-phase packet counters and per-stage spans land in `telemetry`.
pub fn honeypot_world_with(telemetry: &Telemetry) -> honeypot_era::HoneypotWorld {
    honeypot_era::generate_with(HoneypotConfig::default(), telemetry)
}

/// A smaller honeypot world for quick benches.
pub fn honeypot_world_small() -> honeypot_era::HoneypotWorld {
    honeypot_era::generate(HoneypotConfig {
        scale: 1_000,
        ..Default::default()
    })
}

/// Interns an origin world's expired population into a passive database —
/// every row NXDomain, days/sensors/counts cycling deterministically — so
/// the fused §5 engine (and its benches) can scan it shard-parallel.
pub fn origin_db(world: &origin::OriginWorld) -> PassiveDb {
    let mut db = PassiveDb::new();
    for (i, d) in world.domains.iter().enumerate() {
        db.record_str(
            &d.name,
            17_000 + (i % 365) as u32,
            (i % 8) as u16,
            RCode::NxDomain,
            1 + (i % 7) as u32,
        );
    }
    db
}

/// The §5.2 cross-reference parameters shared by `repro origin-parallel`
/// and the origin-pipeline bench: the paper's 20 M-of-91 M sampling ratio
/// with the Fig. 8 token bucket.
pub fn origin_xref_params(population: usize) -> XrefParams {
    XrefParams {
        sample_size: population * 20 / 91,
        burst: 500,
        refill_per_sec: 200,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_worlds_build() {
        let era = era_world_small();
        assert!(era.db.row_count() > 0);
        let origin = origin_world_small();
        assert_eq!(origin.domains.len(), 8_000);
        let honeypot = honeypot_world_small();
        assert_eq!(honeypot.captures.len(), 19);
    }

    #[test]
    fn origin_db_interns_full_population() {
        let world = origin_world_small();
        let db = origin_db(&world);
        assert_eq!(db.distinct_names(), world.domains.len());
        assert_eq!(db.nx_names().count(), world.domains.len());
        let params = origin_xref_params(db.distinct_names());
        assert_eq!(params.sample_size, world.domains.len() * 20 / 91);
    }
}
