//! Property tests for zone lookup semantics: names that were added answer,
//! unrelated names are NXDOMAIN, lookups never panic, and existence after
//! any add/remove sequence matches a scan of the remaining records.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use nxd_dns_sim::{Zone, ZoneAnswer};
use nxd_dns_wire::{Name, RData, RType, Record};
use proptest::prelude::*;

fn arb_label() -> impl Strategy<Value = String> {
    "[a-z]{1,10}"
}

/// One zone edit: add an A or MX record at `labels` below the apex, or
/// remove every record there. Three labels at depths 1–3 make shared
/// ancestors, empty non-terminals and re-adds after removal common.
#[derive(Debug, Clone)]
struct Edit {
    add: bool,
    mx: bool,
    labels: Vec<&'static str>,
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    (
        0u8..3,
        any::<bool>(),
        proptest::collection::vec(proptest::sample::select(vec!["a", "b", "c"]), 1..4),
    )
        .prop_map(|(kind, mx, labels)| Edit {
            add: kind < 2,
            mx,
            labels,
        })
}

fn below(apex: &Name, labels: &[&str]) -> Name {
    labels
        .iter()
        .rev()
        .fold(apex.clone(), |name, label| name.child(label).unwrap())
}

/// The answer RFC 1034 §4.3.2 asks for, rebuilt from the zone's remaining
/// records alone: a name exists iff some record's owner is at or below it.
/// (No NS or CNAME is ever added below the apex, so there are no cuts.)
fn oracle(zone: &Zone, qname: &Name, qtype: RType) -> ZoneAnswer {
    let rrset: Vec<Record> = zone
        .iter()
        .filter(|r| r.name == *qname && r.rtype() == qtype)
        .cloned()
        .collect();
    if !rrset.is_empty() {
        ZoneAnswer::Answer(rrset)
    } else if zone.iter().any(|r| r.name.is_subdomain_of(qname)) {
        ZoneAnswer::NoData(zone.soa_record())
    } else {
        ZoneAnswer::NxDomain(zone.soa_record())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn added_names_answer_and_missing_are_negative(
        hosts in proptest::collection::hash_set(arb_label(), 1..8),
        probes in proptest::collection::vec(arb_label(), 1..8),
    ) {
        let apex: Name = "zone-test.com".parse().unwrap();
        let mut zone = Zone::new(apex.clone(), Zone::default_soa(&apex, 300), 3600);
        for host in &hosts {
            let owner = apex.child(host).unwrap();
            zone.add(Record::new(owner, 60, RData::A(Ipv4Addr::new(192, 0, 2, 1))));
        }
        for host in &hosts {
            let owner = apex.child(host).unwrap();
            match zone.lookup(&owner, RType::A) {
                ZoneAnswer::Answer(records) => prop_assert!(!records.is_empty()),
                other => prop_assert!(false, "{owner}: {other:?}"),
            }
            // Wrong type at an existing name: NODATA, not NXDOMAIN.
            prop_assert!(matches!(zone.lookup(&owner, RType::Mx), ZoneAnswer::NoData(_)));
        }
        for probe in &probes {
            if hosts.contains(probe) {
                continue;
            }
            let owner = apex.child(probe).unwrap();
            prop_assert!(
                matches!(zone.lookup(&owner, RType::A), ZoneAnswer::NxDomain(_)),
                "{owner} should be NXDOMAIN"
            );
        }
    }

    #[test]
    fn out_of_zone_is_detected(label in arb_label()) {
        let apex: Name = "zone-test.com".parse().unwrap();
        let zone = Zone::new(apex, Zone::default_soa(&"zone-test.com".parse().unwrap(), 300), 3600);
        let foreign: Name = format!("{label}.org").parse().unwrap();
        prop_assert_eq!(zone.lookup(&foreign, RType::A), ZoneAnswer::OutOfZone);
    }

    #[test]
    fn deep_names_under_added_hosts_are_negative_not_panic(
        host in arb_label(),
        sub in arb_label(),
    ) {
        let apex: Name = "zone-test.com".parse().unwrap();
        let mut zone = Zone::new(apex.clone(), Zone::default_soa(&apex, 300), 3600);
        zone.add(Record::new(apex.child(&host).unwrap(), 60, RData::A(Ipv4Addr::LOCALHOST)));
        let deep: Name = format!("{sub}.{host}.zone-test.com").parse().unwrap();
        // No delegation below: deep names are NXDOMAIN.
        prop_assert!(matches!(zone.lookup(&deep, RType::A), ZoneAnswer::NxDomain(_)));
    }

    #[test]
    fn existence_matches_a_scan_of_remaining_records(
        edits in proptest::collection::vec(arb_edit(), 1..40),
    ) {
        let apex: Name = "zone-test.com".parse().unwrap();
        let mut zone = Zone::new(apex.clone(), Zone::default_soa(&apex, 300), 3600);
        // Every name ever touched plus its ancestors, and fresh names
        // beside and below them that no edit can create ("d" is outside
        // the alphabet).
        let mut probes: BTreeSet<Name> = BTreeSet::from([apex.child("d").unwrap()]);
        for (step, edit) in edits.iter().enumerate() {
            let owner = below(&apex, &edit.labels);
            if edit.add {
                let rdata = if edit.mx {
                    RData::Mx { preference: 10, exchange: apex.child("mail").unwrap() }
                } else {
                    RData::A(Ipv4Addr::new(192, 0, 2, 1))
                };
                zone.add(Record::new(owner.clone(), 60, rdata));
            } else {
                let held = zone.iter().filter(|r| r.name == owner).count();
                prop_assert_eq!(zone.remove_name(&owner), held);
            }
            for depth in 1..=edit.labels.len() {
                probes.insert(below(&apex, &edit.labels[edit.labels.len() - depth..]));
            }
            probes.insert(owner.child("d").unwrap());
            for qname in std::iter::once(&apex).chain(&probes) {
                for qtype in [RType::A, RType::Mx] {
                    prop_assert_eq!(
                        zone.lookup(qname, qtype),
                        oracle(&zone, qname, qtype),
                        "step {}: {} {:?}", step, qname, qtype
                    );
                }
            }
        }
    }
}
