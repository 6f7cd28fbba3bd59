//! # nxd-httpsim
//!
//! A compact HTTP/1.x model for the honeypot pipeline: request/response
//! structures with wire parsing, origin-form URI parsing with query-string
//! decoding, and the User-Agent classifier behind the paper's traffic
//! categorization (§6.2).
//!
//! ```
//! use nxd_httpsim::{HttpRequest, classify_user_agent, UaClass};
//!
//! let raw = b"GET /getTask.php?country=us HTTP/1.1\r\nHost: gpclick.com\r\nUser-Agent: Apache-HttpClient/UNAVAILABLE (java 1.4)\r\n\r\n";
//! let req = HttpRequest::parse(raw).unwrap();
//! assert_eq!(req.uri.query_value("country"), Some("us"));
//! assert!(matches!(
//!     classify_user_agent(req.user_agent().unwrap()),
//!     UaClass::ScriptTool { .. }
//! ));
//! ```
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod request;
pub mod ua;
pub mod uri;

pub use request::{HttpParseError, HttpRequest, HttpResponse, Method};
pub use ua::{classify_user_agent, Device, UaClass};
pub use uri::Uri;
