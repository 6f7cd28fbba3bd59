//! Property-based cross-crate invariants: the registry lifecycle state
//! machine, resolver cache correctness against ground truth, and the
//! passive-store aggregate index.

use std::net::Ipv4Addr;

use nxdomain::passive::PassiveDb;
use nxdomain::sim::{Phase, Registry, Resolver, ResolverConfig, SimDns, SimDuration, SimTime};
use nxdomain::wire::{Name, RCode, RType};
use proptest::prelude::*;

fn name_strategy() -> impl Strategy<Value = Name> {
    "[a-z]{3,12}".prop_map(|label| format!("{label}.com").parse::<Name>().unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever sequence of ticks/renews happens, a domain's phase follows
    /// the legal ERRP order and resolution is exactly `phase == Registered`.
    #[test]
    fn registry_phase_machine_is_sound(
        name in name_strategy(),
        renew_at_days in proptest::collection::vec(1u64..800, 0..4),
        step_days in 1u64..37,
    ) {
        let start = SimTime::ERA_START;
        let mut registry = Registry::new(start);
        registry.register(&name, "owner", "registrar", 1).unwrap();

        let mut renewals = renew_at_days.clone();
        renewals.sort();
        let mut day = 0u64;
        let mut prev_phase = Phase::Registered;
        while day < 900 {
            day += step_days;
            registry.tick(start + SimDuration::days(day));
            while let Some(&r) = renewals.first() {
                if r <= day {
                    // Renewals are only legal in Registered/AutoRenewGrace.
                    let res = registry.renew(&name, 1);
                    let phase = registry.phase(&name);
                    if matches!(phase, Phase::Registered) {
                        prop_assert!(res.is_ok() || res.is_err());
                    }
                    renewals.remove(0);
                } else {
                    break;
                }
            }
            let phase = registry.phase(&name);
            // Legal transitions only (no skipping backwards except via
            // renew/restore to Registered or release to Available).
            let legal = matches!(
                (prev_phase, phase),
                (a, b) if a == b
                    || matches!((a, b),
                        (Phase::Registered, Phase::AutoRenewGrace)
                        | (Phase::AutoRenewGrace, Phase::RedemptionGrace)
                        | (Phase::AutoRenewGrace, Phase::Registered)
                        | (Phase::RedemptionGrace, Phase::PendingDelete)
                        | (Phase::RedemptionGrace, Phase::Registered)
                        | (Phase::PendingDelete, Phase::Available)
                        | (Phase::Available, Phase::Registered)
                        | (Phase::Registered, Phase::RedemptionGrace) // big step jump
                        | (Phase::Registered, Phase::PendingDelete)
                        | (Phase::Registered, Phase::Available)
                        | (Phase::AutoRenewGrace, Phase::PendingDelete)
                        | (Phase::AutoRenewGrace, Phase::Available)
                        | (Phase::RedemptionGrace, Phase::Available))
            );
            prop_assert!(legal, "illegal transition {:?} -> {:?}", prev_phase, phase);
            prop_assert_eq!(registry.resolves(&name), phase == Phase::Registered);
            prev_phase = phase;
        }
    }

    /// The resolver's cached answers always match a fresh uncached resolve
    /// at the same instant.
    #[test]
    fn resolver_cache_transparent(
        names in proptest::collection::vec(name_strategy(), 1..6),
        queries in proptest::collection::vec((0usize..6, 0u64..7200), 1..40),
    ) {
        let start = SimTime::ERA_START;
        let mut dns = SimDns::new(&["com"], start);
        // Register every other name.
        for (i, n) in names.iter().enumerate() {
            if i % 2 == 0 {
                let _ = dns.register_domain(n, "o", "r", 1, Ipv4Addr::new(192, 0, 2, 1));
            }
        }
        let mut cached = Resolver::new(ResolverConfig::default());
        let mut uncached = Resolver::new(ResolverConfig {
            positive_cache: false,
            negative_cache: false,
            ..Default::default()
        });
        for (idx, offset) in queries {
            let qname = &names[idx % names.len()];
            let t = start + SimDuration::seconds(offset);
            let a = cached.resolve(&dns, qname, RType::A, t);
            let b = uncached.resolve(&dns, qname, RType::A, t);
            prop_assert_eq!(a.rcode, b.rcode, "cache changed the answer for {}", qname);
            prop_assert_eq!(a.answers, b.answers);
        }
    }

    /// The passive store's per-name aggregates always equal a full scan.
    #[test]
    fn passive_aggregates_match_scan(
        rows in proptest::collection::vec(
            ("[a-c]{1,2}", 0u32..100, 0u8..2, 1u32..50),
            1..60
        ),
    ) {
        let mut db = PassiveDb::new();
        for (label, day, rc, count) in &rows {
            let rcode = if *rc == 0 { RCode::NxDomain } else { RCode::NoError };
            db.record_str(&format!("{label}.com"), *day, 0, rcode, *count);
        }
        for (id, agg) in db.nx_names() {
            let mut nx = 0u64;
            let mut total = 0u64;
            let mut first = u32::MAX;
            let mut last = 0u32;
            for obs in db.rows().filter(|o| o.name == id) {
                total += obs.count as u64;
                if obs.rcode == RCode::NxDomain.to_u8() {
                    nx += obs.count as u64;
                    first = first.min(obs.day);
                    last = last.max(obs.day);
                }
            }
            prop_assert_eq!(agg.nx_queries, nx);
            prop_assert_eq!(agg.total_queries, total);
            prop_assert_eq!(agg.first_nx_day, first);
            prop_assert_eq!(agg.last_nx_day, last);
        }
    }
}
