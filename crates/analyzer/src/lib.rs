//! # nxd-analyzer
//!
//! A multi-pass, rule-based static analysis engine for the simulated DNS
//! ecosystem: it checks wire messages, authoritative zones, and resolver
//! traces against the RFC invariants the paper's NXDOMAIN measurements
//! assume (RFC 1034/1035 zone semantics, RFC 2308 negative caching,
//! RFC 2181 TTL rules, RFC 8020 subtree denial).
//!
//! Three pass families share one [`Diagnostic`] vocabulary:
//!
//! * **wire** — rules `NXD001`–`NXD008` over a decoded [`Message`];
//! * **zone** — rules `NXD009`–`NXD014` over a zone's records (live
//!   [`Zone`]s or parsed zone files);
//! * **trace** — rules `NXD015`–`NXD017` over a resolver's
//!   [`ResolveEvent`] stream.
//!
//! Each family is one `static` table of [`Rule`] entries in rule-ID order
//! ([`wire::WIRE_RULES`], [`zone::ZONE_RULES`], [`trace::TRACE_RULES`]):
//! an entry pairs the rule's [`RuleInfo`] with a plain check function, and
//! [`Analyzer`] runs a table's checks in order over one artifact.
//!
//! Every diagnostic carries a stable rule ID, a severity, the violated RFC
//! section, a location in the artifact, and a suggested fix; reports render
//! as text or JSON. `Report::assert_no_high` is the strict-mode gate used by
//! the responder conformance tests.
//!
//! ```
//! use nxd_analyzer::Analyzer;
//! use nxd_dns_wire::{Message, RCode, RType};
//!
//! let query = Message::query(7, "ghost.example".parse().unwrap(), RType::A);
//! let bare = Message::response(&query, RCode::NxDomain); // no SOA!
//! let report = Analyzer::new().analyze_message(&bare);
//! assert_eq!(report.high_count(), 1); // NXD001: missing SOA
//! assert!(report.to_text().contains("RFC 2308"));
//! ```
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod diagnostic;
pub mod rules;
pub mod trace;
pub mod wire;
pub mod zone;

use nxd_dns_sim::resolver::ResolveEvent;
use nxd_dns_sim::Zone;
use nxd_dns_wire::{Message, Name, Record, WireError};

pub use diagnostic::{Diagnostic, Location, Report, RuleInfo, Section, Severity};
pub use rules::{catalog, Rule};
pub use trace::TraceCtx;
pub use wire::WireCtx;
pub use zone::ZoneCtx;

/// The analysis engine: runs each pass family's rule table over one
/// artifact.
#[derive(Default)]
pub struct Analyzer;

impl Analyzer {
    /// An analyzer running every rule in the catalog.
    pub fn new() -> Self {
        Analyzer
    }

    /// Runs the wire passes over a decoded message.
    pub fn analyze_message(&self, msg: &Message) -> Report {
        self.run_wire(&WireCtx::new(msg))
    }

    /// Decodes `buf` and runs the wire passes with the true wire length
    /// (needed for the oversize rule, NXD008).
    pub fn analyze_bytes(&self, buf: &[u8]) -> Result<Report, WireError> {
        let msg = Message::decode(buf)?;
        Ok(self.run_wire(&WireCtx::with_wire_len(&msg, buf.len())))
    }

    fn run_wire(&self, ctx: &WireCtx<'_>) -> Report {
        let mut out = Vec::new();
        for rule in &wire::WIRE_RULES {
            (rule.check)(ctx, &mut out);
        }
        Report::new(out)
    }

    /// Runs the zone passes over a live zone.
    pub fn analyze_zone(&self, zone: &Zone) -> Report {
        let records: Vec<Record> = zone.iter().cloned().collect();
        self.analyze_records(zone.apex(), &records)
    }

    /// Runs the zone passes over a flat record list (e.g. a parsed zone
    /// file) rooted at `apex`.
    pub fn analyze_records(&self, apex: &Name, records: &[Record]) -> Report {
        let ctx = ZoneCtx::new(apex, records);
        let mut out = Vec::new();
        for rule in &zone::ZONE_RULES {
            (rule.check)(&ctx, &mut out);
        }
        Report::new(out)
    }

    /// Runs the trace passes over a resolver event stream.
    pub fn analyze_trace(&self, events: &[ResolveEvent]) -> Report {
        let ctx = TraceCtx::new(events);
        let mut out = Vec::new();
        for rule in &trace::TRACE_RULES {
            (rule.check)(&ctx, &mut out);
        }
        Report::new(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nxd_dns_wire::{RCode, RData, RType};
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn analyze_bytes_uses_wire_length() {
        let q = Message::query(1, n("a.example.com"), RType::A);
        let wire = q.encode().unwrap();
        let report = Analyzer::new().analyze_bytes(&wire).unwrap();
        assert!(report.is_clean(), "{}", report.to_text());
    }

    #[test]
    fn analyze_bytes_propagates_decode_errors() {
        assert!(Analyzer::new().analyze_bytes(&[0xC0]).is_err());
    }

    #[test]
    fn bare_nxdomain_yields_missing_soa_high() {
        let q = Message::query(7, n("ghost.example"), RType::A);
        let resp = Message::response(&q, RCode::NxDomain);
        let report = Analyzer::new().analyze_message(&resp);
        assert_eq!(report.high_count(), 1);
        assert_eq!(report.diagnostics[0].rule.id, "NXD001");
    }

    #[test]
    fn zone_analysis_accepts_live_zone() {
        let apex = n("example.com");
        let mut zone = Zone::new(apex.clone(), Zone::default_soa(&apex, 900), 3600);
        zone.add(Record::new(
            apex.clone(),
            3600,
            RData::Ns(n("ns1.example.com")),
        ));
        zone.add(Record::new(
            n("ns1.example.com"),
            3600,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        let report = Analyzer::new().analyze_zone(&zone);
        assert!(report.is_clean(), "{}", report.to_text());
    }

    #[test]
    fn reports_merge_across_passes() {
        let q = Message::query(7, n("ghost.example"), RType::A);
        let resp = Message::response(&q, RCode::NxDomain);
        let mut combined = Analyzer::new().analyze_message(&resp);
        combined.merge(Analyzer::new().analyze_trace(&[]));
        assert_eq!(combined.high_count(), 1);
    }
}
