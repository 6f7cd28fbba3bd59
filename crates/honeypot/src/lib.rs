//! # nxd-honeypot
//!
//! NXD-Honeypot (§3.4, §6): the traffic recorder, the two-step noise filter
//! of Fig. 9 (no-hosting baseline + control group), the sensitive-URI
//! vulnerability table, the FortiGuard-style referrer filter, the Fig. 11
//! traffic categorizer producing Table 1's ten columns, and the ethics
//! landing page.
//!
//! ```
//! use nxd_honeypot::{Categorizer, Packet, TrafficCategory, WebFilter};
//! use nxd_dns_sim::ReverseDns;
//! use nxd_httpsim::HttpRequest;
//!
//! let categorizer = Categorizer::new("resheba.online", WebFilter::new(), ReverseDns::new());
//! let probe = Packet::http(
//!     HttpRequest::get("/wp-login.php").with_header("User-Agent", "python-requests/2.28"),
//! );
//! let tally = categorizer.tally(&[probe]);
//! assert_eq!(tally[&TrafficCategory::MaliciousRequest], 1);
//! ```
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod categorize;
pub mod filter;
pub mod landing;
pub mod packet;
pub mod pcap;
pub mod recorder;
pub mod responder;
pub mod vulndb;
pub mod webfilter;

pub use categorize::{Categorizer, TrafficCategory};
pub use filter::{ControlGroupProfile, FilterStats, NoHostingBaseline, NoiseFilter};
pub use packet::{port_service, Packet, Payload, Transport};
pub use pcap::{parse_pcap, PcapRecord, PcapWriter};
pub use recorder::TrafficRecorder;
pub use responder::{Interaction, InteractionStats, InteractiveResponder};
pub use vulndb::{is_sensitive, severity, Severity};
pub use webfilter::{ReferralKind, WebFilter};
