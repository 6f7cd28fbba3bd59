//! # nxd-squat
//!
//! Domain-squatting generation and classification for the origin analysis of
//! §5.2 and Fig. 7: typosquatting, combosquatting, dotsquatting,
//! bitsquatting, and homosquatting, implemented from the literature the
//! paper cites (Agten NDSS'15, Kintis CCS'17, Wang SRUTI'06, Nikiforakis
//! WWW'13).
//!
//! ```
//! use nxd_squat::{SquatClassifier, SquatKind, generate};
//!
//! let classifier = SquatClassifier::default();
//! let m = classifier.classify("gogle.com").unwrap();
//! assert_eq!(m.kind, SquatKind::Typo);
//! assert_eq!(m.target, "google.com");
//!
//! // Generators enumerate what an attacker would register:
//! assert!(generate::combosquats("paypal.com").contains(&"paypal-login.com".to_string()));
//! ```
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod classify;
pub mod edit;
pub mod generate;
pub mod idn;
pub mod tables;

pub use classify::{SquatClassifier, SquatKind, SquatMatch, SquatScratch};
pub use edit::{
    bit_hamming, damerau_levenshtein, damerau_levenshtein_bounded, within_one_edit, EditScratch,
};
pub use idn::{
    ascii_projection, classify_idn, idn_homosquats, punycode_decode, punycode_encode, to_ascii,
    to_unicode,
};
