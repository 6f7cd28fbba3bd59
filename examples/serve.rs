//! Live-serving walkthrough: boot the UDP+TCP DNS front-end on an
//! ephemeral loopback port, ask it real wire questions with the crate's
//! own stub resolver (UDP) and pipelined TCP client, replay a full
//! era-derived mix with the load generator, and show that the passive-DNS
//! database the live sensor channel built is exactly what the offline
//! pipeline would have ingested.
//!
//! ```text
//! cargo run --example serve
//! ```

use std::sync::Arc;
use std::time::Duration;

use nxdomain::serve::{
    answer, build_world, ingest_parity, loadgen, offline_reference, tcp_exchange, DnsServer,
    LoadConfig, ServeConfig, StubResolver, WorldConfig, MAX_TCP_MESSAGE,
};
use nxdomain::telemetry::Telemetry;
use nxdomain::wire::Message;

fn main() {
    // --- stage 1: a world and a live front-end ---------------------------
    let world = build_world(&WorldConfig {
        nx_names: 120,
        registered: 20,
        queries: 2_000,
        ..WorldConfig::default()
    });
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
    println!("front-end on {} (udp+tcp, same port)", server.local_addr());

    // --- stage 2: one question over UDP, a pipeline over TCP -------------
    let stub = StubResolver::connect(server.local_addr(), Duration::from_secs(2), 3)
        .expect("stub resolver");
    let first = world.queries.first().expect("non-empty world");
    let udp = stub.exchange(first).expect("udp answer");
    let decoded = Message::decode(&udp.response).expect("decodes");
    println!(
        "udp: {} → {:?} ({} bytes)",
        decoded
            .questions
            .first()
            .map(|q| q.qname.to_string())
            .unwrap_or_default(),
        decoded.header.rcode,
        udp.response.len()
    );
    let batch: Vec<Vec<u8>> = world.queries.iter().take(8).cloned().collect();
    let tcp = tcp_exchange(
        server.local_addr(),
        &batch,
        Duration::from_secs(2),
        MAX_TCP_MESSAGE,
    )
    .expect("tcp pipeline");
    println!("tcp: {} pipelined answers on one connection", tcp.len());

    // --- stage 3: the full mix through the load generator ----------------
    let report = loadgen::run(
        server.local_addr(),
        &world,
        &LoadConfig {
            clients: 8,
            tcp_permille: 200,
        },
        &telemetry,
    )
    .expect("load fleet");
    println!(
        "loadgen: {} queries at {:.0} qps ({} failures, {} retransmits)",
        report.queries,
        report.qps(),
        report.failures,
        report.retransmits
    );

    // --- stage 4: the live sensor fed the same database as offline -------
    let served = server.shutdown();
    // The offline reference covers the loadgen replay; the stage-2 demo
    // exchanges landed in the sensor too, so ingest them the same way.
    let mut offline = offline_reference(&world, world.day, 0);
    for wire in std::iter::once(first).chain(batch.iter()) {
        let answered = answer(&world.dns, wire).expect("world queries decode");
        if let Some((_, qname)) = answered.question {
            offline.record_str(&qname, world.day, 0, answered.rcode, 1);
        }
    }
    ingest_parity(&served, &offline).expect("served ≡ offline");
    println!(
        "sensor channel ingested {} rows — byte-for-byte what the offline pipeline ingests",
        served.row_count()
    );
    let snapshot = telemetry.snapshot();
    println!(
        "telemetry: {} responses served, 99th-percentile latency {}ns",
        snapshot.counter_total("serve_responses_total"),
        snapshot
            .histogram_total("serve_request_latency_ns")
            .quantile(0.99)
            .unwrap_or(0)
    );
}
