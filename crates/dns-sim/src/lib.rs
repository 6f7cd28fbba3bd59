//! # nxd-dns-sim
//!
//! A deterministic, event-driven simulation of the DNS ecosystem the paper
//! measures: the registry (with ICANN's full expiration lifecycle), the
//! root/TLD/authoritative hierarchy, a caching recursive resolver with
//! RFC 2308 negative caching, reverse DNS, and an ISP NXDOMAIN-hijack fault
//! model.
//!
//! Nothing here touches the OS network or clock; time advances only through
//! explicit [`SimDns::tick`] / [`Registry::tick`] calls, making every
//! experiment reproducible from a seed.
//!
//! ```
//! use nxd_dns_sim::{SimDns, Resolver, ResolverConfig, SimTime, SimDuration};
//! use nxd_dns_wire::{RType, RCode};
//! use std::net::Ipv4Addr;
//!
//! let start = SimTime::ERA_START;
//! let mut dns = SimDns::with_popular_tlds(start);
//! let domain = "paper-demo.com".parse().unwrap();
//! dns.register_domain(&domain, "alice", "godaddy", 1, Ipv4Addr::new(192, 0, 2, 80)).unwrap();
//!
//! let mut resolver = Resolver::new(ResolverConfig::default());
//! assert_eq!(resolver.resolve(&dns, &domain, RType::A, start).rcode, RCode::NoError);
//!
//! // A year and a day later the registration has lapsed: NXDOMAIN.
//! let later = start + SimDuration::days(366);
//! dns.tick(later);
//! assert!(resolver.resolve(&dns, &domain, RType::A, later).is_nxdomain());
//! ```
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod hierarchy;
pub mod hijack;
pub mod registry;
pub mod resolver;
pub mod reverse;
pub mod sinkhole;
pub mod time;
pub mod zone;
pub mod zonefile;

pub use hierarchy::{ServerRef, SimDns, DEFAULT_NEGATIVE_TTL, DEFAULT_POSITIVE_TTL};
pub use hijack::HijackPolicy;
pub use registry::{Event, EventKind, Phase, Registry, RegistryError};
pub use resolver::{
    clamp_negative_soa, Resolution, ResolveEvent, Resolver, ResolverConfig, ResolverStats,
};
pub use reverse::ReverseDns;
pub use sinkhole::{Sinkhole, SinkholeEvent};
pub use time::{SimDuration, SimTime, SECONDS_PER_DAY};
pub use zone::{Zone, ZoneAnswer};
pub use zonefile::{parse_records, parse_zone, ZoneFileError};
