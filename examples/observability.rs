//! Observability walkthrough: attach one telemetry bundle to a recursive
//! resolver and a passive-DNS sensor database, run a small workload, and
//! dump what the instrumentation saw — the same registry/tracer/journal
//! machinery the `repro` binary exposes via `--metrics` / `--trace-out` /
//! `--serve`. The final stage starts the live HTTP plane (`nxd-obs`) on an
//! ephemeral port and scrapes itself with the crate's own client.
//!
//! ```text
//! cargo run --example observability
//! ```

use std::net::Ipv4Addr;
use std::sync::Arc;

use nxdomain::obs::{client, ObsServer};
use nxdomain::passive::{query, PassiveDb};
use nxdomain::sim::{Resolver, ResolverConfig, SimDns, SimDuration, SimTime};
use nxdomain::telemetry::Telemetry;
use nxdomain::wire::{Name, RCode, RType};

fn main() {
    let telemetry = Arc::new(Telemetry::wall());
    telemetry.registry.describe(
        "passive_rows_ingested_total",
        "Sensor rows appended to the passive-DNS store",
    );

    // --- stage 1: a resolver answering live and NXDOMAIN queries ---------
    let span = telemetry.span("example.resolve");
    let start = SimTime::from_ymd(2021, 1, 1);
    let mut dns = SimDns::with_popular_tlds(start);
    let alive: Name = "alive-shop.com".parse().unwrap();
    dns.register_domain(&alive, "alice", "godaddy", 1, Ipv4Addr::new(192, 0, 2, 80))
        .expect("registration succeeds");

    let mut resolver = Resolver::new(ResolverConfig::default());
    resolver.attach_metrics(&telemetry.registry);

    let ghost: Name = "no-such-shop.com".parse().unwrap();
    for i in 0..8u64 {
        let at = start + SimDuration::seconds(i * 5);
        resolver.resolve(&dns, &alive, RType::A, at);
        // Repeats inside the negative TTL land in the RFC 2308 cache.
        resolver.resolve(&dns, &ghost, RType::A, at);
    }
    drop(span);

    // --- stage 2: sensor rows flowing into the passive-DNS store --------
    let span = telemetry.span("example.ingest");
    let mut db = PassiveDb::new();
    db.attach_metrics(&telemetry.registry);
    db.attach_journal(telemetry.journal.clone());
    telemetry
        .journal
        .info("example", "ingest starting", &[("days", "30")]);
    for day in 0..30u32 {
        db.record_str("expired-shop.com", 16_071 + day, 0, RCode::NxDomain, 12);
        db.record_str("alive-shop.com", 16_071 + day, 1, RCode::NoError, 40);
    }
    drop(span);

    // --- stage 3: the paper's queries over the store ---------------------
    let span = telemetry.span("example.query");
    let nx_names = query::distinct_nx_names(&db);
    let series = query::monthly_nx_series(&db);
    drop(span);
    println!(
        "workload done: {} distinct NXDomains over {} months\n",
        nx_names,
        series.len()
    );

    // --- what the telemetry saw ------------------------------------------
    let snapshot = telemetry.snapshot();
    println!("=== text table ===");
    print!("{}", snapshot.to_text_table());

    println!("\n=== Prometheus exposition ===");
    print!("{}", snapshot.to_prometheus());

    println!("\n=== spans ===");
    for s in telemetry.tracer.spans() {
        println!(
            "{:indent$}{} — {} µs",
            "",
            s.name,
            s.dur_us,
            indent = s.depth as usize * 2
        );
    }
    println!("\n=== journal (flight recorder) ===");
    print!("{}", telemetry.journal.to_jsonl());

    // --- stage 4: the live HTTP plane, scraping itself -------------------
    let server = ObsServer::bind("127.0.0.1:0", telemetry.clone()).expect("bind ephemeral port");
    server.set_ready();
    let addr = server.local_addr().to_string();
    println!("\n=== live scrape of http://{addr}/metrics ===");
    let scrape = client::http_get(&addr, "/metrics").expect("self-scrape");
    print!("{}", scrape.body);
    let tail = client::http_get(&addr, "/journal?since=1").expect("journal tail");
    println!(
        "=== /journal?since=1 returned {} newer events ===",
        tail.body.lines().count()
    );
    server.shutdown();
    println!("\n(`repro --serve 127.0.0.1:9090 scalars` exposes the same plane mid-run;");
    println!(" `repro --trace-out t.json` writes the same spans as Chrome trace JSON)");
}
