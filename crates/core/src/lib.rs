//! # nxd-core
//!
//! The study pipeline of *"Dial "N" for NXDomain"* (IMC 2023): every
//! analysis the paper runs, wired against the simulated substrates.
//!
//! * [`scale`] — §4: headline scalars, Figs. 3–6, and the §7 hijack
//!   sensitivity experiment.
//! * [`origin`] — §5: WHOIS join, DGA scan, squat classification (Fig. 7),
//!   rate-limited blocklist cross-reference (Fig. 8).
//! * [`selection`] — §3.3: the two-criteria honeypot domain selection.
//! * [`security`] — §6: filter → categorize → Table 1, port histograms
//!   (Fig. 10), in-app mix (Fig. 13), and the gpclick botnet analysis
//!   (Figs. 12, 14, 15).
//! * [`report`] — fixed-width rendering for the `repro` binary and
//!   EXPERIMENTS.md.
//!
//! ```
//! use nxd_core::{scale, origin};
//! use nxd_passive_dns::PassiveDb;
//! use nxd_whois::HistoricWhoisDb;
//! use nxd_dns_wire::RCode;
//!
//! let mut db = PassiveDb::new();
//! db.record_str("ghost.com", 17_000, 0, RCode::NxDomain, 12);
//! let headline = scale::headline(&db);
//! assert_eq!(headline.total_nx_responses, 12);
//!
//! let join = origin::whois_join(&db, &HistoricWhoisDb::new());
//! assert_eq!(join.without_history, 1);
//! ```
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod exposure;
pub mod extensions;
pub mod market;
pub mod origin;
pub mod report;
pub mod scale;
pub mod security;
pub mod selection;

pub use exposure::{exposure_report, DomainExposure};
pub use extensions::{federation_report, sinkhole_takedown, SinkholeReport};
pub use market::{reregistration_market, MarketReport};
pub use origin::pipeline::{OriginPipeline, OriginReport, XrefParams};
pub use scale::ScaleReport;
pub use security::{BotnetReport, DomainTally, SecurityReport};
pub use selection::{Candidate, SelectionCriteria};
