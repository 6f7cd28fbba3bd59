//! # nxd-dga
//!
//! Domain Generation Algorithms and their detection, for the origin analysis
//! of §5.2 ("DGA-based NXDomains", Fig. 7's sibling statistic of 2,770,650
//! detected DGA domains) and the botnet actors of the honeypot era.
//!
//! * [`families`] — eight deterministic generator families modeled on
//!   documented malware DGAs (LCG/Conficker, xorshift/Kraken, date-hash/
//!   Locky, dictionary/Suppobox, hex/Bamital, pronounceable/Markov,
//!   long-tail/Qakbot, multi-TLD/Necurs).
//! * [`detector`] — a feature-based classifier replacing the commercial
//!   Palo Alto identifier, with published precision/recall instead of an
//!   oracle assumption.
//!
//! ```
//! use nxd_dga::{all_families, DgaDetector};
//!
//! let detector = DgaDetector::default();
//! let family = &all_families()[0];
//! let candidates = family.generate(0xBEEF, (2021, 11, 2), 10);
//! let detected = candidates.iter().filter(|d| detector.is_dga(d)).count();
//! assert!(detected >= 8, "LCG domains are easy to spot");
//! assert!(!detector.is_dga("wikipedia.org"));
//! ```
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod corpus;
pub mod detector;
pub mod families;
pub mod stream;

pub use detector::{DgaDetector, Evaluation, Features, Weights};
pub use families::{all_families, Date, DgaFamily};
pub use stream::{ClientVerdict, StreamDetector};
