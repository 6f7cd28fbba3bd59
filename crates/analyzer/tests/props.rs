//! Property-based tests: the analyzer is total (never panics) over
//! arbitrary wire input, and conformant responder output round-trips to a
//! clean report.

use std::net::Ipv4Addr;

use nxd_analyzer::Analyzer;
use nxd_dns_sim::{ServerRef, SimDns, SimTime};
use nxd_dns_wire::{Message, Name, RCode, RData, RType, Record, Soa};
use proptest::prelude::*;

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9]([a-z0-9-]{0,14}[a-z0-9])?").unwrap()
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 1..6)
        .prop_filter_map("name too long", |labels| Name::from_labels(&labels).ok())
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(Ipv4Addr::from(o))),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Cname),
        (any::<u16>(), arb_name()).prop_map(|(preference, exchange)| RData::Mx {
            preference,
            exchange
        }),
        proptest::collection::vec("[ -~]{0,20}", 0..2).prop_map(RData::Txt),
        (arb_name(), arb_name(), any::<u32>(), any::<u32>()).prop_map(
            |(mname, rname, serial, minimum)| {
                RData::Soa(Soa {
                    mname,
                    rname,
                    serial,
                    refresh: 7200,
                    retry: 900,
                    expire: 86_400,
                    minimum,
                })
            }
        ),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    (arb_name(), any::<u32>(), arb_rdata()).prop_map(|(n, ttl, rd)| Record::new(n, ttl, rd))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Totality over raw bytes: whatever `Message::decode` accepts, every
    /// rule must process without panicking.
    #[test]
    fn analyze_bytes_never_panics(buf in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Analyzer::new().analyze_bytes(&buf);
    }

    /// Totality over structured messages: arbitrary header bits, rcodes,
    /// and record soups are all in-domain for the wire rules.
    #[test]
    fn analyze_message_never_panics(
        id in any::<u16>(),
        qname in arb_name(),
        qr in any::<bool>(),
        aa in any::<bool>(),
        ra in any::<bool>(),
        rcode in 0u8..16,
        answers in proptest::collection::vec(arb_record(), 0..4),
        authorities in proptest::collection::vec(arb_record(), 0..4),
    ) {
        let q = Message::query(id, qname, RType::A);
        let mut msg = Message::response(&q, RCode::from_u8(rcode));
        msg.header.qr = qr;
        msg.header.aa = aa;
        msg.header.ra = ra;
        msg.answers = answers;
        msg.authorities = authorities;
        let report = Analyzer::new().analyze_message(&msg);
        // The report itself must render in both formats without panicking.
        let _ = report.to_text();
        let _ = report.to_json();
    }

    /// Zone-rule totality over arbitrary record soups.
    #[test]
    fn analyze_records_never_panics(
        apex in arb_name(),
        records in proptest::collection::vec(arb_record(), 0..8),
    ) {
        let _ = Analyzer::new().analyze_records(&apex, &records);
    }

    /// Conformance closure: a response produced by the (fixed) simulated
    /// authoritative hierarchy, round-tripped through the wire, is always
    /// diagnostic-free — for hits, NXDOMAIN, and NODATA alike.
    #[test]
    fn conformant_responder_roundtrip_is_clean(
        host in arb_label(),
        registered in any::<bool>(),
        mx in any::<bool>(),
    ) {
        let start = SimTime::ERA_START;
        let mut dns = SimDns::new(&["com"], start);
        let apex: Name = "anchor.com".parse().unwrap();
        dns.register_domain(&apex, "owner", "registrar", 1, Ipv4Addr::new(192, 0, 2, 80)).unwrap();

        let qname = if registered {
            if host == "www" { apex.child("www").unwrap() } else { apex.clone() }
        } else {
            match apex.child(&host) {
                Ok(n) => n,
                Err(_) => apex.clone(),
            }
        };
        let qtype = if mx { RType::Mx } else { RType::A };
        let query = Message::query(9, qname, qtype).encode().unwrap();
        let wire = dns.respond(&ServerRef::Auth(apex), &query).unwrap();
        let report = Analyzer::new().analyze_bytes(&wire).unwrap();
        prop_assert!(report.is_clean(), "{}", report.to_text());
    }
}
