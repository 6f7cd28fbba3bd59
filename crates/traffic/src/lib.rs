//! # nxd-traffic
//!
//! The workload generators — the "simulated Internet" that replaces the
//! paper's proprietary data feeds:
//!
//! * [`era`] — the 2014–2022 passive-DNS era: DGA storms, typo traffic,
//!   junk queries, and an expired-domain panel, producing the Farsight-
//!   substitute database for the §4 scale analyses (Figs. 3–6).
//! * [`origin`] — the expired-domain population at the paper's own 1/1,000
//!   sampling ratio, with planted DGA/squat/blocklist ground truth for the
//!   §5 origin analyses (Figs. 7–8).
//! * [`honeypot_era`] — six months of per-domain actor traffic calibrated
//!   to Table 1, plus the baseline/control noise the §6.1 filter removes.
//! * [`botnet`] — the gpclick.com botnet actor (Figs. 12, 14, 15).
//! * [`actors`] / [`table1`] — shared IP pools, User-Agent inventories, and
//!   the transcribed Table 1 calibration targets.
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod actors;
#[cfg(feature = "bigworld")]
pub mod bigworld;
pub mod botnet;
pub mod era;
pub mod honeypot_era;
pub mod origin;
pub mod table1;

pub use era::{replay_specs, EraConfig, EraWorld, ReplaySpec};
pub use honeypot_era::{DomainCapture, HoneypotConfig, HoneypotWorld};
pub use nxd_telemetry::Telemetry;
pub use origin::{ExpiredDomain, OriginConfig, OriginTruth, OriginWorld};
pub use table1::{DomainSpec, IN_APP_MIX, PAPER_GRAND_TOTAL, PAPER_TOTALS, TABLE1};
