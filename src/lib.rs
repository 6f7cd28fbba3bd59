//! # nxdomain
//!
//! A full reproduction of *"Dial "N" for NXDomain: The Scale, Origin, and
//! Security Implications of DNS Queries to Non-Existent Domains"*
//! (IMC 2023) as a Rust workspace, with every proprietary substrate the
//! paper relies on (Farsight passive DNS, WhoisXML, commercial DGA/squat
//! detectors, the Palo Alto blocklist, and the 19-domain honeypot
//! deployment) rebuilt as a deterministic simulation.
//!
//! This facade crate re-exports the workspace members:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`telemetry`] | `nxd-telemetry` | metrics registry + span tracer + event journal |
//! | [`obs`] | `nxd-obs` | live HTTP metrics/admin plane |
//! | [`wire`] | `nxd-dns-wire` | RFC 1035 protocol |
//! | [`sim`] | `nxd-dns-sim` | registry lifecycle, hierarchy, resolver |
//! | [`analyzer`] | `nxd-analyzer` | RFC-conformance rule engine |
//! | [`passive`] | `nxd-passive-dns` | Farsight-substitute database |
//! | [`whois`] | `nxd-whois` | historic WHOIS |
//! | [`dga`] | `nxd-dga` | DGA families + detector |
//! | [`squat`] | `nxd-squat` | squat generators + classifier |
//! | [`blocklist`] | `nxd-blocklist` | categorized blocklist |
//! | [`http`] | `nxd-httpsim` | HTTP model + UA classification |
//! | [`honeypot`] | `nxd-honeypot` | NXD-Honeypot pipeline |
//! | [`traffic`] | `nxd-traffic` | workload generators |
//! | [`serve`] | `nxd-serve` | live UDP+TCP DNS front-end + load driver |
//! | [`study`] | `nxd-core` | the paper's analyses |
//!
//! See the `examples/` directory for runnable entry points and
//! `crates/bench` for the `repro` binary regenerating every table and
//! figure.
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub use nxd_analyzer as analyzer;
pub use nxd_blocklist as blocklist;
pub use nxd_core as study;
pub use nxd_dga as dga;
pub use nxd_dns_sim as sim;
pub use nxd_dns_wire as wire;
pub use nxd_honeypot as honeypot;
pub use nxd_httpsim as http;
pub use nxd_obs as obs;
pub use nxd_passive_dns as passive;
pub use nxd_serve as serve;
pub use nxd_squat as squat;
pub use nxd_telemetry as telemetry;
pub use nxd_traffic as traffic;
pub use nxd_whois as whois;
