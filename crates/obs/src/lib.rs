//! # nxd-obs
//!
//! The live observability plane: a minimal, zero-dependency HTTP/1.1
//! server that exposes a running pipeline's [`nxd_telemetry`] state —
//! Prometheus exposition, JSON snapshots, the flight-recorder journal,
//! and Chrome trace spans — while the run is still in flight.
//!
//! The paper's pipelines operate at Farsight scale (1.07 T responses),
//! where operators watch systems live rather than reading post-hoc dumps.
//! Batch experiments gain that visibility through `repro --serve <addr>`.
//! The live `nxd-serve` DNS front-end runs on this crate's
//! [`Service`] thread skeleton, the same acceptor,
//! worker pool and shutdown protocol as [`ObsServer`].
//!
//! | Endpoint | Content | Semantics |
//! |---|---|---|
//! | `GET /metrics` | Prometheus text | live [`Registry`] snapshot |
//! | `GET /healthz` | `ok` | liveness: the server answers |
//! | `GET /readyz` | `ready`/`starting` | 503 until the first phase completes |
//! | `GET /snapshot.json` | JSON | the same snapshot, structured |
//! | `GET /journal?since=N` | JSON lines | journal events with `seq > N` |
//! | `GET /spans` | Chrome trace JSON | finished tracer spans |
//!
//! [`Registry`]: nxd_telemetry::Registry
//!
//! ```
//! use std::sync::Arc;
//! use nxd_obs::{client, ObsServer};
//! use nxd_telemetry::Telemetry;
//!
//! let telemetry = Arc::new(Telemetry::wall());
//! telemetry.registry.counter("demo_total").inc();
//! let server = ObsServer::bind("127.0.0.1:0", telemetry).unwrap();
//! let addr = server.local_addr().to_string();
//! let scrape = client::http_get(&addr, "/metrics").unwrap();
//! assert_eq!(scrape.status, 200);
//! assert!(scrape.body.contains("demo_total 1"));
//! server.shutdown();
//! ```
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod client;
pub mod http;
pub mod server;
pub mod service;

pub use client::{http_get, ScrapeResult};
pub use http::{Request, Response};
pub use server::ObsServer;
pub use service::Service;
