//! # nxd-dns-wire
//!
//! DNS wire protocol (RFC 1035, with RFC 2308 negative-caching fields and an
//! opaque RFC 6891 OPT record) for the `nxdomain` reproduction of
//! *"Dial "N" for NXDomain"* (IMC 2023).
//!
//! This crate is self-contained and deterministic: no I/O, no clocks. It
//! provides:
//!
//! * [`Name`] — normalized domain names with structural queries (TLD,
//!   registrable domain, subdomain relation);
//! * [`Message`] / [`Record`] / [`Question`] — full message model with
//!   compression-aware encode/decode;
//! * [`RCode`] — response codes, notably [`RCode::NxDomain`];
//! * [`RData`] — typed payloads (A, AAAA, NS, CNAME, SOA, PTR, MX, TXT, OPT).
//!
//! ```
//! use nxd_dns_wire::{Message, Name, RCode, RType};
//!
//! let qname: Name = "does-not-exist.example".parse().unwrap();
//! let query = Message::query(0x29A, qname, RType::A);
//! let wire = query.encode().unwrap();
//! let parsed = Message::decode(&wire).unwrap();
//! assert_eq!(parsed, query);
//!
//! let response = Message::response(&query, RCode::NxDomain);
//! assert!(response.is_nxdomain());
//! ```
#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::string_slice,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

pub mod codec;
pub mod edns;
pub mod error;
pub mod message;
pub mod name;
pub mod rdata;
pub mod types;

pub use codec::{WireReader, WireWriter};
pub use edns::{Edns, EdnsMessage, EdnsOption, CLASSIC_UDP_LIMIT, DEFAULT_EDNS_PAYLOAD};
pub use error::WireError;
pub use message::{Header, Message, Question, Record};
pub use name::Name;
pub use rdata::{RData, Soa};
pub use types::{OpCode, RClass, RCode, RType};
