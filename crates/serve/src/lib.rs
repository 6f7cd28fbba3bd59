//! # nxd-serve
//!
//! The live DNS front-end: real UDP and TCP sockets answering real wire
//! packets from the simulated authoritative hierarchy, turning the repo's
//! offline batch legs (generate → ingest → analyze) into one continuously
//! running system.
//!
//! | module | role |
//! |---|---|
//! | [`frame`] | RFC 1035 §4.2.2 TCP length-prefix framing |
//! | [`server`] | [`DnsServer`]: UDP readers answering in place + a TCP worker pool, on nxd-obs's `Service` |
//! | [`sink`] | passive-DNS sensor channel: served responses → [`PassiveDb`](nxd_passive_dns::PassiveDb) |
//! | [`client`] | crate-native stub resolver (UDP retry loop, TCP pipelining) |
//! | [`world`] | a servable world from nxd-traffic era specs, plus ingest parity |
//! | [`loadgen`] | concurrent stub-resolver load driver over real sockets |
//!
//! ## Contracts
//!
//! * **Byte parity** — for every decodable query the served response
//!   (over TCP, and over UDP when it fits the query's advertised limit) is
//!   byte-identical to offline [`SimDns::respond`](nxd_dns_sim::SimDns::respond)
//!   for the same question against the same server (the one
//!   [`route`](server::route) picks). An oversized UDP answer goes out as a
//!   TC=1 stub ([`fit_udp`](nxd_dns_wire::fit_udp)) and the client retries
//!   over TCP. Undecodable-but-headed packets get a
//!   minimal FORMERR echoing the query id; headerless ones are dropped
//!   (UDP) or end the connection (TCP).
//! * **Ingest parity** — every answered query streams one
//!   [`SensorEvent`](sink::SensorEvent) into the sensor channel. UDP events
//!   are deduplicated on (peer, query id, qname) so client retransmissions
//!   cannot inflate the served database, making a served load run's
//!   aggregates *exactly* equal to the offline batch ingest of the same
//!   query list ([`world::ingest_parity`]).
//! * **Observability** — qps, rcode mix, per-request latency, frame errors,
//!   and handler panics land in nxd-telemetry, so `repro --serve` exposes
//!   the front-end live on `/metrics`.
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod client;
pub mod frame;
pub mod loadgen;
pub mod server;
pub mod sink;
pub mod world;

pub use client::{stamp_id, tcp_exchange, wire_id, wire_rcode, StubResolver, UdpExchange};
pub use frame::{read_frame, write_frame, MAX_TCP_MESSAGE};
pub use loadgen::{LoadConfig, LoadReport};
pub use server::{answer, route, Answered, DnsServer, ServeConfig};
pub use sink::{SensorEvent, SensorTransport};
pub use world::{
    build_world, ingest_parity, offline_reference, ParityError, ServeWorld, WorldConfig,
};
