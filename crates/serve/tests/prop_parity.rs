//! Property tests for the two serving contracts.
//!
//! * **Byte parity** — for ANY question (era names, random labels, odd
//!   rtypes, any id, with or without an EDNS OPT) the served answer path
//!   returns exactly
//!   `SimDns::respond`'s bytes for the routed server.
//! * **Ingest parity** — for ANY replay schedule over real UDP sockets —
//!   duplicate names, colliding query ids, retransmission-shaped repeats —
//!   the served database equals the offline ingest of the distinct
//!   (query id, name) multiset, with exact counts.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use nxd_dns_wire::{Edns, EdnsMessage, Message, Name, RType};
use nxd_passive_dns::PassiveDb;
use nxd_serve::{
    answer, build_world, ingest_parity, route, stamp_id, DnsServer, ServeConfig, ServeWorld,
    StubResolver, WorldConfig,
};
use nxd_telemetry::Telemetry;
use proptest::prelude::*;

fn world() -> &'static ServeWorld {
    static WORLD: OnceLock<ServeWorld> = OnceLock::new();
    WORLD.get_or_init(|| {
        build_world(&WorldConfig {
            nx_names: 60,
            registered: 10,
            queries: 48,
            ..WorldConfig::default()
        })
    })
}

const LABELS: [&str; 6] = ["alpha", "www", "ns1", "ghost", "x", "very-long-label-here"];
const TLDS: [&str; 5] = ["com", "ru", "top", "unknowntld", "io"];

fn arb_name() -> impl Strategy<Value = Name> {
    (
        0usize..LABELS.len(),
        0usize..LABELS.len(),
        0usize..TLDS.len(),
        any::<bool>(),
    )
        .prop_map(|(a, b, tld, deep)| {
            let name = if deep {
                format!("{}.{}.{}", LABELS[a], LABELS[b], TLDS[tld])
            } else {
                format!("{}.{}", LABELS[a], TLDS[tld])
            };
            name.parse().expect("generated names are valid")
        })
}

fn arb_rtype() -> impl Strategy<Value = RType> {
    prop_oneof![
        Just(RType::A),
        Just(RType::Aaaa),
        Just(RType::Mx),
        Just(RType::Txt),
        Just(RType::Ns),
        Just(RType::Soa),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Served answers are byte-identical to offline `SimDns::respond`,
    /// with or without an EDNS OPT on the query.
    #[test]
    fn answer_equals_respond(
        name in arb_name(),
        rtype in arb_rtype(),
        id in 0u16..=u16::MAX,
        edns in (any::<bool>(), any::<u16>()).prop_map(|(on, size)| on.then_some(size)),
    ) {
        let world = world();
        let mut query = Message::query(id, name, rtype);
        if let Some(udp_payload) = edns {
            query.set_edns(Edns { udp_payload, ..Edns::default() });
        }
        let wire = query.encode().expect("encodes");
        let decoded = Message::decode(&wire).expect("round-trips");
        let offline = world
            .dns
            .respond(&route(&world.dns, &decoded), &wire)
            .expect("respond");
        let served = answer(&world.dns, &wire).expect("answered");
        prop_assert_eq!(served.wire, offline);
        prop_assert_eq!(served.question.map(|(qid, _)| qid), Some(id));
        prop_assert_eq!(served.udp_limit, query.udp_limit());
    }
}

proptest! {
    // Each case boots a real server; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A served replay's database equals the offline ingest of the same
    /// schedule — duplicates (same id + name = retransmission) dedup to
    /// one row on both sides.
    #[test]
    fn served_ingest_equals_offline_ingest(
        schedule in proptest::collection::vec((0usize..48, 0u16..6), 1..40)
    ) {
        let world = world();
        let telemetry = Arc::new(Telemetry::wall());
        let server = DnsServer::bind(
            "127.0.0.1:0",
            world.dns.clone(),
            telemetry.clone(),
            ServeConfig { day: world.day, ..ServeConfig::default() },
        )
        .expect("bind");
        let stub = StubResolver::connect(server.local_addr(), Duration::from_secs(2), 3)
            .expect("stub");

        // Offline: ingest each *distinct* (id, name) once, like the sink.
        let mut offline = PassiveDb::new();
        let mut seen: BTreeMap<(u16, String), ()> = BTreeMap::new();
        for &(index, id) in &schedule {
            let mut wire = world.queries.get(index).expect("index in range").clone();
            stamp_id(&mut wire, id);
            let exchange = stub.exchange(&wire).expect("answered");
            prop_assert!(!exchange.response.is_empty());
            let answered = answer(&world.dns, &wire).expect("decodes");
            let (qid, qname) = answered.question.clone().expect("has a question");
            if seen.insert((qid, qname.clone()), ()).is_none() {
                offline.record_str(&qname, world.day, 0, answered.rcode, 1);
            }
        }

        let served = server.shutdown();
        prop_assert_eq!(served.row_count(), seen.len());
        if let Err(err) = ingest_parity(&served, &offline) {
            return Err(err.to_string());
        }
    }
}
