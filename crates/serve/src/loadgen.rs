//! The load driver: replays a [`ServeWorld`]'s query list as many
//! concurrent stub resolvers over real sockets — a mixed UDP/TCP fleet in
//! a vendored-crossbeam scope, so a panicking client surfaces as a typed
//! error instead of a hung run.
//!
//! Queries are striped across clients (client `c` sends indices
//! `c, c+clients, …`) and every client stamps a fresh per-socket query id,
//! which is what lets the sensor sink deduplicate UDP retransmissions
//! exactly. Per-query latency lands in the caller's telemetry registry
//! (`loadgen_latency_ns`) as well as in the returned report.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::Duration;

use nxd_telemetry::{Histogram, HistogramSnapshot, Stopwatch, Telemetry};

use crate::client::{stamp_id, tcp_exchange, wire_rcode, StubResolver};
use crate::frame::MAX_TCP_MESSAGE;
use crate::world::ServeWorld;

/// Queries pipelined per TCP connection.
const PIPELINE: usize = 8;
/// Per-attempt response timeout.
const TIMEOUT: Duration = Duration::from_secs(2);
/// UDP retransmissions after a timeout.
const RETRIES: u32 = 3;

/// Fleet shape.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent stub resolvers.
    pub clients: usize,
    /// Per mille of clients that speak TCP (the rest are UDP stubs).
    pub tcp_permille: u32,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            clients: 16,
            tcp_permille: 150,
        }
    }
}

/// What the fleet measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Queries attempted (== the world's query count).
    pub queries: u64,
    pub udp_queries: u64,
    pub tcp_queries: u64,
    /// Queries with no response after every retry (0 on a healthy run —
    /// parity is only meaningful when this is 0).
    pub failures: u64,
    /// UDP retransmissions across the fleet.
    pub retransmits: u64,
    /// Wall time for the whole fleet, stub setup included.
    pub elapsed_ns: u64,
    /// Responses by 4-bit rcode.
    pub rcodes: BTreeMap<u8, u64>,
    /// Per-query latency (TCP batches amortized per query).
    pub latency: HistogramSnapshot,
}

impl LoadReport {
    /// Sustained answered-queries/second over the whole run.
    pub fn qps(&self) -> f64 {
        let answered = self.queries.saturating_sub(self.failures);
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        answered as f64 * 1e9 / self.elapsed_ns as f64
    }
}

#[derive(Debug, Default)]
struct ClientReport {
    queries: u64,
    udp_queries: u64,
    tcp_queries: u64,
    failures: u64,
    retransmits: u64,
    rcodes: BTreeMap<u8, u64>,
}

/// Runs the fleet against `server`. Blocks until every client finishes;
/// a panicking client aborts the run with an error.
pub fn run(
    server: SocketAddr,
    world: &ServeWorld,
    config: &LoadConfig,
    telemetry: &Telemetry,
) -> io::Result<LoadReport> {
    let clients = config.clients.max(1);
    let tcp_clients = (clients * config.tcp_permille as usize) / 1000;
    let latency = telemetry.registry.histogram("loadgen_latency_ns");
    let (tx, rx) = mpsc::channel::<ClientReport>();
    let watch = Stopwatch::start();
    let scope_result = crossbeam::thread::scope(|scope| {
        for client in 0..clients {
            let tx = tx.clone();
            let latency = &latency;
            let queries = &world.queries;
            scope.spawn(move |_| {
                let mine: Vec<&[u8]> = queries
                    .iter()
                    .skip(client)
                    .step_by(clients)
                    .map(Vec::as_slice)
                    .collect();
                let report = if client < tcp_clients {
                    run_tcp_client(server, &mine, latency)
                } else {
                    run_udp_client(server, &mine, latency)
                };
                let _ = tx.send(report);
            });
        }
    });
    drop(tx);
    if scope_result.is_err() {
        return Err(io::Error::other("a load client panicked"));
    }
    let elapsed_ns = watch.elapsed_nanos();

    let mut total = LoadReport {
        queries: 0,
        udp_queries: 0,
        tcp_queries: 0,
        failures: 0,
        retransmits: 0,
        elapsed_ns,
        rcodes: BTreeMap::new(),
        latency: latency.snapshot(),
    };
    while let Ok(report) = rx.recv() {
        total.queries += report.queries;
        total.udp_queries += report.udp_queries;
        total.tcp_queries += report.tcp_queries;
        total.failures += report.failures;
        total.retransmits += report.retransmits;
        for (rcode, count) in report.rcodes {
            *total.rcodes.entry(rcode).or_insert(0) += count;
        }
    }
    Ok(total)
}

fn count_response(report: &mut ClientReport, response: &[u8]) {
    let rcode = wire_rcode(response).unwrap_or(0xFF);
    *report.rcodes.entry(rcode).or_insert(0) += 1;
}

fn run_udp_client(server: SocketAddr, queries: &[&[u8]], latency: &Histogram) -> ClientReport {
    let mut report = ClientReport {
        queries: queries.len() as u64,
        ..ClientReport::default()
    };
    let Ok(resolver) = StubResolver::connect(server, TIMEOUT, RETRIES) else {
        report.failures = report.queries;
        return report;
    };
    let mut seq: u16 = 0;
    for query in queries {
        let mut wire = query.to_vec();
        stamp_id(&mut wire, seq);
        seq = seq.wrapping_add(1);
        let watch = Stopwatch::start();
        match resolver.exchange(&wire) {
            Ok(exchange) => {
                latency.record(watch.elapsed_nanos());
                report.udp_queries += 1;
                report.retransmits += u64::from(exchange.retransmits);
                count_response(&mut report, &exchange.response);
            }
            Err(_) => report.failures += 1,
        }
    }
    report
}

fn run_tcp_client(server: SocketAddr, queries: &[&[u8]], latency: &Histogram) -> ClientReport {
    let mut report = ClientReport {
        queries: queries.len() as u64,
        ..ClientReport::default()
    };
    let mut seq: u16 = 0;
    for chunk in queries.chunks(PIPELINE) {
        let batch: Vec<Vec<u8>> = chunk
            .iter()
            .map(|query| {
                let mut wire = query.to_vec();
                stamp_id(&mut wire, seq);
                seq = seq.wrapping_add(1);
                wire
            })
            .collect();
        let watch = Stopwatch::start();
        match tcp_exchange(server, &batch, TIMEOUT, MAX_TCP_MESSAGE) {
            Ok(responses) => {
                // Amortize the batch over its queries so the histogram
                // stays per-query.
                let per_query = watch.elapsed_nanos() / batch.len().max(1) as u64;
                for response in &responses {
                    latency.record(per_query);
                    report.tcp_queries += 1;
                    count_response(&mut report, response);
                }
            }
            Err(_) => report.failures += batch.len() as u64,
        }
    }
    report
}
