//! Trace passes: rules over a resolver's [`ResolveEvent`] stream
//! (NXD015–NXD017).
//!
//! These rules check the dynamic negative-caching invariants the paper's
//! scale analysis rests on: once a resolver has a fresh NXDOMAIN for a name,
//! repeat queries inside the negative-TTL window must be absorbed by the
//! cache (RFC 2308 §5), and — for an RFC 8020-aware resolver — so must
//! queries for anything beneath the nonexistent name.

use std::collections::HashMap;

use nxd_dns_sim::resolver::ResolveEvent;
use nxd_dns_wire::{Name, RCode};

use crate::diagnostic::{Diagnostic, Location, RuleInfo, Severity};
use crate::rules::Rule;

fn loc(index: usize, ev: &ResolveEvent) -> Location {
    Location::Trace { index, at: ev.at.0 }
}

/// The negative window opened by a fresh (non-cached) NXDOMAIN: it runs from
/// the answering event until `at + negative_ttl`. `source` is the index of
/// the event that opened it, so rules can avoid matching an event against
/// the window it opened itself.
#[derive(Debug, Clone, Copy)]
struct NegWindow {
    source: usize,
    opened_at: u64,
    expires: u64,
}

/// Fresh-NXDOMAIN windows per qname, built once and shared by the rules.
fn negative_windows(events: &[ResolveEvent]) -> HashMap<&Name, Vec<NegWindow>> {
    let mut windows: HashMap<&Name, Vec<NegWindow>> = HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        if ev.rcode == RCode::NxDomain && !ev.from_cache {
            if let Some(ttl) = ev.negative_ttl {
                windows.entry(&ev.qname).or_default().push(NegWindow {
                    source: i,
                    opened_at: ev.at.0,
                    expires: ev.at.0 + ttl as u64,
                });
            }
        }
    }
    windows
}

/// NXD015: a query for a name whose NXDOMAIN is still within its negative
/// TTL must not reach upstream servers.
pub static NXD015: RuleInfo = RuleInfo {
    id: "NXD015",
    name: "requery-inside-negative-ttl",
    severity: Severity::High,
    rfc: "RFC 2308 §5",
    summary: "upstream re-query for a name inside its negative-TTL window",
};

fn requery_inside_negative_ttl(events: &[ResolveEvent], out: &mut Vec<Diagnostic>) {
    let windows = negative_windows(events);
    for (i, ev) in events.iter().enumerate() {
        if ev.from_cache || ev.upstream_queries == 0 {
            continue;
        }
        let covering = windows.get(&ev.qname).and_then(|per_name| {
            per_name
                .iter()
                .find(|w| w.source != i && w.opened_at <= ev.at.0 && ev.at.0 < w.expires)
        });
        if let Some(w) = covering {
            out.push(Diagnostic::new(
                &NXD015,
                loc(i, ev),
                format!(
                    "{} went upstream at t={} although its NXDOMAIN (cached at t={}) is valid until t={}",
                    ev.qname, ev.at.0, w.opened_at, w.expires
                ),
                "serve the denial from the negative cache until the window expires",
            ));
        }
    }
}

/// NXD016: a cached negative answer must not outlive its TTL.
pub static NXD016: RuleInfo = RuleInfo {
    id: "NXD016",
    name: "stale-negative-serve",
    severity: Severity::Medium,
    rfc: "RFC 2308 §5",
    summary: "negative answer served from cache after its TTL expired",
};

fn stale_negative_serve(events: &[ResolveEvent], out: &mut Vec<Diagnostic>) {
    let windows = negative_windows(events);
    for (i, ev) in events.iter().enumerate() {
        if !(ev.from_cache && ev.rcode == RCode::NxDomain) {
            continue;
        }
        let Some(per_name) = windows.get(&ev.qname) else {
            continue;
        };
        let live = per_name
            .iter()
            .any(|w| w.opened_at <= ev.at.0 && ev.at.0 < w.expires);
        if !live {
            let last = per_name.iter().map(|w| w.expires).max().unwrap_or(0);
            out.push(Diagnostic::new(
                &NXD016,
                loc(i, ev),
                format!(
                    "cached NXDOMAIN for {} served at t={} but every negative window ended by t={}",
                    ev.qname, ev.at.0, last
                ),
                "evict negative-cache entries at expiry and re-query upstream",
            ));
        }
    }
}

/// NXD017: NXDOMAIN means nothing exists beneath the name either (RFC 8020),
/// so an upstream query for a subordinate name inside the window shows the
/// resolver is not cutting off the denied subtree.
pub static NXD017: RuleInfo = RuleInfo {
    id: "NXD017",
    name: "subtree-query-after-nxdomain",
    severity: Severity::Medium,
    rfc: "RFC 8020 §2",
    summary: "upstream query for a name below a domain known not to exist",
};

fn subtree_query_after_nxdomain(events: &[ResolveEvent], out: &mut Vec<Diagnostic>) {
    let windows = negative_windows(events);
    for (i, ev) in events.iter().enumerate() {
        if ev.from_cache || ev.upstream_queries == 0 {
            continue;
        }
        // Strict ancestors only: the exact name is NXD015's business.
        for (ancestor, per_name) in &windows {
            if **ancestor == ev.qname || !ev.qname.is_subdomain_of(ancestor) {
                continue;
            }
            if let Some(w) = per_name
                .iter()
                .find(|w| w.opened_at < ev.at.0 && ev.at.0 < w.expires)
            {
                out.push(Diagnostic::new(
                    &NXD017,
                    loc(i, ev),
                    format!(
                        "{} went upstream at t={} although ancestor {} was NXDOMAIN until t={}",
                        ev.qname, ev.at.0, ancestor, w.expires
                    ),
                    "apply RFC 8020 subtree semantics to the negative cache (deny descendants too)",
                ));
            }
        }
    }
}

/// A trace rule's check: appends one diagnostic per violation in a trace.
pub type TraceCheck = fn(&[ResolveEvent], &mut Vec<Diagnostic>);

/// The trace pass, in rule-ID order.
pub static TRACE_RULES: [Rule<TraceCheck>; 3] = [
    Rule::new(&NXD015, requery_inside_negative_ttl),
    Rule::new(&NXD016, stale_negative_serve),
    Rule::new(&NXD017, subtree_query_after_nxdomain),
];

#[cfg(test)]
mod tests {
    use super::*;
    use nxd_dns_sim::SimTime;
    use nxd_dns_wire::RType;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn ev(
        at: u64,
        qname: &str,
        rcode: RCode,
        from_cache: bool,
        upstream: u32,
        neg_ttl: Option<u32>,
    ) -> ResolveEvent {
        ResolveEvent {
            at: SimTime(at),
            qname: n(qname),
            qtype: RType::A,
            rcode,
            from_cache,
            upstream_queries: upstream,
            negative_ttl: neg_ttl,
        }
    }

    /// Runs the trace table's entry for rule `id` alone.
    fn run(id: &str, events: &[ResolveEvent]) -> Vec<Diagnostic> {
        let rule = TRACE_RULES.iter().find(|r| r.info.id == id).unwrap();
        let mut out = Vec::new();
        (rule.check)(events, &mut out);
        out
    }

    /// A well-behaved trace: fresh NXDOMAIN, cache hit inside the window,
    /// fresh re-query after expiry.
    fn clean_trace() -> Vec<ResolveEvent> {
        vec![
            ev(100, "ghost.com", RCode::NxDomain, false, 2, Some(900)),
            ev(200, "ghost.com", RCode::NxDomain, true, 0, None),
            ev(1100, "ghost.com", RCode::NxDomain, false, 2, Some(900)),
        ]
    }

    #[test]
    fn clean_trace_passes_every_rule() {
        for rule in &TRACE_RULES {
            assert!(
                run(rule.info.id, &clean_trace()).is_empty(),
                "{} fired on a clean trace",
                rule.info.id
            );
        }
    }

    #[test]
    fn nxd015_flags_upstream_requery_in_window() {
        let events = vec![
            ev(100, "ghost.com", RCode::NxDomain, false, 2, Some(900)),
            // Negative cache ignored: the same name goes upstream again.
            ev(400, "ghost.com", RCode::NxDomain, false, 2, Some(900)),
        ];
        let diags = run("NXD015", &events);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule.id, "NXD015");
        assert_eq!(diags[0].rule.severity, Severity::High);
    }

    #[test]
    fn nxd015_clean_after_window_expiry() {
        assert!(run("NXD015", &clean_trace()).is_empty());
    }

    #[test]
    fn nxd016_flags_stale_cache_serve() {
        let events = vec![
            ev(100, "ghost.com", RCode::NxDomain, false, 2, Some(900)),
            // Served from cache long after t=1000 expiry.
            ev(5000, "ghost.com", RCode::NxDomain, true, 0, None),
        ];
        let diags = run("NXD016", &events);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule.id, "NXD016");
    }

    #[test]
    fn nxd016_clean_inside_window() {
        assert!(run("NXD016", &clean_trace()).is_empty());
    }

    #[test]
    fn nxd017_flags_subtree_query_in_window() {
        let events = vec![
            ev(100, "ghost.com", RCode::NxDomain, false, 2, Some(900)),
            ev(300, "www.ghost.com", RCode::NxDomain, false, 2, Some(900)),
        ];
        let diags = run("NXD017", &events);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule.id, "NXD017");
        assert!(diags[0].message.contains("ghost.com"));
    }

    #[test]
    fn nxd017_clean_outside_window_or_unrelated() {
        let events = vec![
            ev(100, "ghost.com", RCode::NxDomain, false, 2, Some(900)),
            // After expiry: allowed.
            ev(1200, "www.ghost.com", RCode::NxDomain, false, 2, Some(900)),
            // Unrelated name: allowed.
            ev(300, "other.com", RCode::NoError, false, 3, None),
        ];
        assert!(run("NXD017", &events).is_empty());
    }
}
