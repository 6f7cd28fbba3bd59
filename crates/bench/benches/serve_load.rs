//! Live DNS front-end load bench — the numbers behind the CI `BENCH_7`
//! gate.
//!
//! Boots `nxd-serve` on an ephemeral loopback port (UDP+TCP on the same
//! port number), replays an era-derived query mix through the crate's own
//! stub-resolver fleet, and reports throughput and tail latency as
//! pseudo-bench lines the gate script parses:
//!
//! ```text
//! bench serve-load/qps <queries per second> ns/iter
//! bench serve-load/p99-latency-ns <99th percentile latency> ns/iter
//! bench serve-load/queries <queries answered> ns/iter
//! ```
//!
//! (`ns/iter` is the parser's line shape, not the unit of the first two —
//! same convention as `bigworld`'s byte counters.)
//!
//! The run itself is also a correctness gate: it aborts unless every query
//! is answered and the served-ingest database exactly equals the offline
//! ingest of the same mix. CI runs this quick (`NXD_BENCH_QUICK=1`) and
//! gates with:
//!
//! ```text
//! scripts/bench_gate.py --input bench.txt --baseline BENCH_7.json \
//!     --metrics-only \
//!     --min-metric serve-load/qps=1500 \
//!     --max-metric serve-load/p99-latency-ns=50000000
//! ```

use std::sync::Arc;

use nxd_serve::{
    build_world, ingest_parity, loadgen, offline_reference, DnsServer, LoadConfig, ServeConfig,
    WorldConfig,
};
use nxd_telemetry::Telemetry;

fn main() {
    let quick = std::env::var_os("NXD_BENCH_QUICK").is_some();
    let world_config = if quick {
        WorldConfig {
            nx_names: 200,
            registered: 30,
            queries: 6_000,
            ..WorldConfig::default()
        }
    } else {
        WorldConfig {
            nx_names: 600,
            registered: 60,
            queries: 30_000,
            ..WorldConfig::default()
        }
    };
    eprintln!(
        "serve-load: {} queries over loopback ({} mode)",
        world_config.queries,
        if quick { "quick" } else { "full" }
    );

    let world = build_world(&world_config);
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
    eprintln!("serve-load: front-end on {}", server.local_addr());

    let load = LoadConfig {
        clients: if quick { 8 } else { 16 },
        tcp_permille: 150,
    };
    let report = loadgen::run(server.local_addr(), &world, &load, &telemetry)
        .expect("load fleet runs to completion");
    assert_eq!(
        report.failures, 0,
        "unanswered queries invalidate the bench: {report:?}"
    );

    // Correctness half of the gate: the live sink must have ingested
    // exactly what the offline pipeline would.
    let served = server.shutdown();
    let offline = offline_reference(&world, world.day, 0);
    ingest_parity(&served, &offline).expect("served ingest must equal offline ingest");

    let qps = report.qps().round() as u64;
    let p99 = report.latency.quantile(0.99).unwrap_or(0);
    eprintln!(
        "serve-load: {} udp + {} tcp queries, {} retransmits, {:.0} qps",
        report.udp_queries,
        report.tcp_queries,
        report.retransmits,
        report.qps()
    );
    println!("bench serve-load/qps {qps} ns/iter");
    println!("bench serve-load/p99-latency-ns {p99} ns/iter");
    println!("bench serve-load/queries {} ns/iter", report.queries);
}
