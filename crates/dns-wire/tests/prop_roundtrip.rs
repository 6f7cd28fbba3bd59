//! Property-based tests for name and message wire round-trips, and for
//! the UDP size policy ([`fit_udp`]) over them.

use nxd_dns_wire::{
    fit_udp, Edns, EdnsMessage, Message, Name, OpCode, RCode, RData, RType, Record, Soa,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

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
        any::<[u8; 16]>().prop_map(|o| RData::Aaaa(o.into())),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ptr),
        (any::<u16>(), arb_name()).prop_map(|(preference, exchange)| RData::Mx {
            preference,
            exchange
        }),
        proptest::collection::vec("[ -~]{0,40}", 0..3).prop_map(RData::Txt),
        (
            arb_name(),
            arb_name(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(mname, rname, serial, refresh, retry, expire, minimum)| {
                RData::Soa(Soa {
                    mname,
                    rname,
                    serial,
                    refresh,
                    retry,
                    expire,
                    minimum,
                })
            }),
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(|raw| RData::Unknown(4660, raw)),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    (arb_name(), any::<u32>(), arb_rdata()).prop_map(|(n, ttl, rd)| Record::new(n, ttl, rd))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn name_parse_display_roundtrip(name in arb_name()) {
        let text = name.to_string();
        let back: Name = text.parse().unwrap();
        prop_assert_eq!(back, name);
    }

    #[test]
    fn name_suffix_is_subdomain(name in arb_name(), k in 0usize..6) {
        let k = k.min(name.label_count());
        let suffix = name.suffix(k);
        prop_assert!(name.is_subdomain_of(&suffix));
    }

    #[test]
    fn message_roundtrip(
        id in any::<u16>(),
        qname in arb_name(),
        answers in proptest::collection::vec(arb_record(), 0..5),
        authorities in proptest::collection::vec(arb_record(), 0..3),
        rcode in 0u8..16,
    ) {
        let q = Message::query(id, qname, RType::A);
        let mut resp = Message::response(&q, RCode::from_u8(rcode));
        resp.answers = answers;
        resp.authorities = authorities;
        let wire = resp.encode().unwrap();
        let back = Message::decode(&wire).unwrap();
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn compressed_never_larger(
        qname in arb_name(),
        answers in proptest::collection::vec(arb_record(), 0..6),
    ) {
        let q = Message::query(1, qname, RType::A);
        let mut resp = Message::response(&q, RCode::NoError);
        resp.answers = answers;
        let compressed = resp.encode().unwrap().len();
        let plain = resp.encode_uncompressed().unwrap().len();
        prop_assert!(compressed <= plain);
    }

    #[test]
    fn fit_udp_fits_or_sends_the_minimal_tc_stub(
        id in any::<u16>(),
        opcode in (0u8..16).prop_map(|v| OpCode::from_u8(v).unwrap()),
        rcode in 0u8..16,
        qname in arb_name(),
        txt in proptest::collection::vec("[ -~]{0,250}", 0..13),
        opt in (any::<bool>(), any::<u16>()).prop_map(|(on, size)| on.then_some(size)),
        limit in 512usize..=4096,
    ) {
        let mut q = Message::query(id, qname.clone(), RType::Txt);
        q.header.opcode = opcode;
        let mut resp = Message::response(&q, RCode::from_u8(rcode));
        resp.answers = txt
            .into_iter()
            .map(|t| Record::new(qname.clone(), 300, RData::Txt(vec![t])))
            .collect();
        if let Some(udp_payload) = opt {
            resp.set_edns(Edns { udp_payload, ..Edns::default() });
        }
        let wire = resp.encode().unwrap();
        let fits = wire.len() <= limit;
        let out = fit_udp(&wire, limit).unwrap();

        // Whole if it fits, else the minimal TC response: header (TC=1),
        // question, OPT — which these short names always fit in 512 octets.
        let mut minimal = Message::response(&q, resp.header.rcode);
        minimal.header.tc = true;
        minimal.additionals = resp.additionals.clone();
        let expected = if fits { wire.clone() } else { minimal.encode().unwrap() };
        prop_assert_eq!(&out[..], &expected[..]);
        prop_assert!(out.len() <= limit);

        let back = Message::decode(&out).unwrap();
        prop_assert_eq!(back.header.id, id);
        prop_assert_eq!(back.header.opcode, opcode);
        prop_assert_eq!(back.header.rcode, resp.header.rcode);
        prop_assert_eq!(&back.questions, &q.questions);
        prop_assert_eq!(back.header.tc, !fits);
        prop_assert_eq!(back.edns(), resp.edns());
    }

    #[test]
    fn decode_arbitrary_bytes_never_panics(buf in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = Message::decode(&buf);
    }
}
