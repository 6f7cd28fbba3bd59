//! End-to-end smoke over real sockets: boot the front-end on
//! `127.0.0.1:0` (UDP+TCP on the same port), drive a mixed query set —
//! NOERROR answers, NODATA, authoritative NXDOMAIN, TLD/root NXDOMAIN —
//! with the crate-native client fleet, and assert the three contracts: per
//! rcode counts, byte parity with offline `SimDns::respond`, and exact
//! served≡offline ingest parity. This is the CI `serve-smoke` job; no
//! external tools.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use nxd_dns_wire::{Message, RCode};
use nxd_serve::{
    answer, build_world, ingest_parity, loadgen, offline_reference, route, tcp_exchange, DnsServer,
    LoadConfig, ServeConfig, ServeWorld, StubResolver, WorldConfig, MAX_TCP_MESSAGE,
};
use nxd_telemetry::Telemetry;

fn boot(config: &WorldConfig) -> (DnsServer, ServeWorld, Arc<Telemetry>) {
    let world = build_world(config);
    let telemetry = Arc::new(Telemetry::wall());
    let server = DnsServer::bind(
        "127.0.0.1:0",
        world.dns.clone(),
        telemetry.clone(),
        ServeConfig {
            day: world.day,
            ..ServeConfig::default()
        },
    )
    .expect("bind on loopback");
    (server, world, telemetry)
}

#[test]
fn mixed_load_matches_offline_rcodes_and_ingest() {
    let config = WorldConfig {
        nx_names: 150,
        registered: 20,
        queries: 1_200,
        ..WorldConfig::default()
    };
    let (server, world, telemetry) = boot(&config);
    let load = LoadConfig {
        clients: 8,
        tcp_permille: 250,
    };
    let report = loadgen::run(server.local_addr(), &world, &load, &telemetry).expect("fleet runs");

    assert_eq!(
        report.failures, 0,
        "every query must be answered: {report:?}"
    );
    assert_eq!(report.queries, 1_200);
    assert!(report.udp_queries > 0, "no UDP coverage");
    assert!(report.tcp_queries > 0, "no TCP coverage");

    // Observed rcode counts must equal the offline answers, query by query.
    let mut expected: BTreeMap<u8, u64> = BTreeMap::new();
    for wire in &world.queries {
        let answered = answer(&world.dns, wire).expect("world queries decode");
        *expected.entry(answered.rcode.to_u8()).or_insert(0) += 1;
    }
    assert_eq!(report.rcodes, expected);
    let nx = expected.get(&RCode::NxDomain.to_u8()).copied().unwrap_or(0);
    let noerror = expected.get(&RCode::NoError.to_u8()).copied().unwrap_or(0);
    assert!(nx > 0, "the mix must include NXDOMAINs");
    assert!(noerror > 0, "the mix must include NOERRORs");

    // Served-ingest ≡ offline-ingest, exactly.
    let served = server.shutdown();
    assert_eq!(served.row_count(), world.queries.len());
    let offline = offline_reference(&world, world.day, 0);
    ingest_parity(&served, &offline).expect("served ingest must equal offline ingest");

    // The front-end reported itself: qps inputs, rcode mix, latency.
    let snap = telemetry.snapshot();
    assert_eq!(
        snap.counter_total("serve_tcp_queries_total"),
        report.tcp_queries
    );
    assert!(snap.counter_total("serve_udp_queries_total") >= report.udp_queries);
    // Every query was answered at least once; a retransmitted query may
    // have been answered once per arriving copy.
    let responses = snap.counter_total("serve_responses_total");
    assert!(responses >= report.queries);
    assert!(responses <= report.queries + report.retransmits);
    assert!(snap.histogram_total("serve_request_latency_ns").count() > 0);
    assert_eq!(snap.counter_total("serve_handler_panics_total"), 0);
    // The era world's answers all fit 512 octets: nothing is truncated.
    assert_eq!(snap.counter_total("serve_udp_truncated_total"), 0);
}

#[test]
fn served_bytes_equal_offline_respond_over_udp() {
    let (server, world, _telemetry) = boot(&WorldConfig {
        nx_names: 60,
        registered: 10,
        queries: 64,
        ..WorldConfig::default()
    });
    let stub =
        StubResolver::connect(server.local_addr(), Duration::from_secs(2), 3).expect("stub binds");
    for wire in &world.queries {
        let exchange = stub.exchange(wire).expect("answered");
        let decoded = Message::decode(wire).expect("world queries decode");
        let offline = world
            .dns
            .respond(&route(&world.dns, &decoded), wire)
            .expect("offline respond");
        assert_eq!(
            exchange.response, offline,
            "served bytes differ from SimDns::respond"
        );
    }
    drop(server.shutdown());
}

#[test]
fn served_bytes_equal_offline_respond_over_tcp() {
    let (server, world, _telemetry) = boot(&WorldConfig {
        nx_names: 60,
        registered: 10,
        queries: 32,
        ..WorldConfig::default()
    });
    let responses = tcp_exchange(
        server.local_addr(),
        &world.queries,
        Duration::from_secs(2),
        MAX_TCP_MESSAGE,
    )
    .expect("pipelined exchange");
    assert_eq!(responses.len(), world.queries.len());
    for (wire, response) in world.queries.iter().zip(&responses) {
        let served = answer(&world.dns, wire).expect("decodes");
        assert_eq!(response, &served.wire);
    }
    drop(server.shutdown());
}

#[test]
fn udp_retransmissions_do_not_inflate_the_served_database() {
    let (server, world, telemetry) = boot(&WorldConfig {
        nx_names: 40,
        registered: 5,
        queries: 16,
        ..WorldConfig::default()
    });
    let stub =
        StubResolver::connect(server.local_addr(), Duration::from_secs(2), 3).expect("stub binds");
    // Send the same stamped query three times by hand (a lost-response
    // client would do exactly this), then a fresh id for the same name.
    let wire = world.queries.first().expect("non-empty world").clone();
    for _ in 0..3 {
        let exchange = stub.exchange(&wire).expect("answered");
        assert!(!exchange.response.is_empty());
    }
    let mut fresh = wire.clone();
    nxd_serve::stamp_id(&mut fresh, 0x7777);
    stub.exchange(&fresh).expect("answered");

    let served = server.shutdown();
    // 3 sends of one (peer, id, name) dedup to 1 row; the fresh id adds 1.
    assert_eq!(served.row_count(), 2);
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter_total("serve_sink_duplicates_total"), 2);
}
