//! Recursive resolver with positive and RFC 2308 negative caching.
//!
//! The resolver walks the simulated hierarchy iteratively (root → TLD →
//! authoritative), exactly as Figure 1 of the paper describes, and caches
//! both answers and NXDOMAIN/NODATA results. Negative caching matters for
//! the reproduction: it determines how many upstream NXDOMAIN responses a
//! stream of repeated queries to a dead domain actually generates, which is
//! what a passive-DNS sensor below the resolver observes.

use std::collections::HashMap;

use nxd_dns_wire::{Message, Name, RCode, RData, RType, Record};
use nxd_telemetry::{Counter, Registry};

use crate::hierarchy::{echo_edns, ServerRef, SimDns};
use crate::time::SimTime;
use crate::zone::ZoneAnswer;

/// Outcome of one resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution {
    pub rcode: RCode,
    pub answers: Vec<Record>,
    /// Authority-section records for the wire response. Negative results
    /// carry the denying zone's SOA here (RFC 2308 §2.1), with its TTL
    /// already capped at the SOA MINIMUM.
    pub authorities: Vec<Record>,
    /// True if served entirely from cache.
    pub from_cache: bool,
    /// Number of server queries performed (0 when cached).
    pub upstream_queries: u32,
}

impl Resolution {
    pub fn is_nxdomain(&self) -> bool {
        self.rcode == RCode::NxDomain
    }
}

/// One entry of the resolver's event trace (enabled by
/// [`ResolverConfig::record_trace`]): the per-query facts the trace passes
/// of `nxd-analyzer` check RFC 2308/8020 cache behaviour against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolveEvent {
    pub at: SimTime,
    pub qname: Name,
    pub qtype: RType,
    pub rcode: RCode,
    pub from_cache: bool,
    pub upstream_queries: u32,
    /// Remaining seconds of the negative-cache window for this name/type,
    /// when the result is negative and cached (fresh entries report the
    /// full window).
    pub negative_ttl: Option<u32>,
}

/// Caps a negative-response SOA record's TTL at its MINIMUM field, the
/// effective negative TTL of RFC 2308 §5.
pub fn clamp_negative_soa(soa: &Record) -> Record {
    let mut capped = soa.clone();
    if let RData::Soa(s) = &capped.rdata {
        capped.ttl = capped.ttl.min(s.minimum);
    }
    capped
}

/// Resolver metrics, cumulative since construction (or since
/// [`Resolver::attach_metrics`], a point-in-time copy of the shared
/// registry counters).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResolverStats {
    pub queries: u64,
    pub cache_hits: u64,
    pub negative_cache_hits: u64,
    pub upstream_queries: u64,
    pub nxdomain_responses: u64,
    pub servfail_responses: u64,
}

impl ResolverStats {
    /// Counter consistency inherent in the resolve paths:
    ///
    /// * every negative cache hit is also a cache hit (the NXDOMAIN and
    ///   NODATA hit paths increment both; the positive hit path increments
    ///   only `cache_hits`);
    /// * a cache hit never reaches upstream, so hits are bounded by queries;
    /// * each query yields at most one NXDOMAIN or SERVFAIL response, and
    ///   the two outcomes are disjoint.
    fn check_invariants(&self) -> Result<(), String> {
        if self.negative_cache_hits > self.cache_hits {
            return Err(format!(
                "negative_cache_hits {} > cache_hits {}",
                self.negative_cache_hits, self.cache_hits
            ));
        }
        if self.cache_hits > self.queries {
            return Err(format!(
                "cache_hits {} > queries {}",
                self.cache_hits, self.queries
            ));
        }
        if self.nxdomain_responses + self.servfail_responses > self.queries {
            return Err(format!(
                "nxdomain {} + servfail {} > queries {}",
                self.nxdomain_responses, self.servfail_responses, self.queries
            ));
        }
        Ok(())
    }
}

/// The resolver's counters as telemetry handles. Detached by default (a
/// private set of cells, so per-instance stats behave exactly as before);
/// [`Resolver::attach_metrics`] swaps in registry-backed handles so the
/// resolver shows up in shared snapshots.
#[derive(Debug, Clone)]
struct ResolverMetrics {
    queries: Counter,
    cache_hits: Counter,
    negative_cache_hits: Counter,
    upstream_queries: Counter,
    nxdomain_responses: Counter,
    servfail_responses: Counter,
}

impl ResolverMetrics {
    fn detached() -> Self {
        ResolverMetrics {
            queries: Counter::new(),
            cache_hits: Counter::new(),
            negative_cache_hits: Counter::new(),
            upstream_queries: Counter::new(),
            nxdomain_responses: Counter::new(),
            servfail_responses: Counter::new(),
        }
    }

    fn registered(registry: &Registry) -> Self {
        ResolverMetrics {
            queries: registry.counter("resolver_queries_total"),
            cache_hits: registry.counter("resolver_cache_hits_total"),
            negative_cache_hits: registry.counter("resolver_negative_cache_hits_total"),
            upstream_queries: registry.counter("resolver_upstream_queries_total"),
            nxdomain_responses: registry.counter("resolver_nxdomain_responses_total"),
            servfail_responses: registry.counter("resolver_servfail_responses_total"),
        }
    }
}

#[derive(Debug, Clone)]
struct PositiveEntry {
    expires: SimTime,
    answers: Vec<Record>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NegKind {
    NxDomain,
    NoData,
}

#[derive(Debug, Clone)]
struct NegativeEntry {
    expires: SimTime,
    kind: NegKind,
    /// The denying zone's SOA (TTL already capped), replayed in the
    /// authority section of cached negative answers.
    soa: Record,
}

/// Hard cap applied to cached TTLs (positive and negative), seconds: one
/// day, whatever the record says.
const MAX_TTL: u32 = 86_400;
/// Iteration guard against delegation loops.
const MAX_STEPS: u32 = 16;

/// Resolver configuration.
#[derive(Debug, Clone)]
pub struct ResolverConfig {
    /// Disable the negative cache entirely (ablation knob for the
    /// query-amplification bench).
    pub negative_cache: bool,
    /// Disable the positive cache (ablation knob).
    pub positive_cache: bool,
    /// Record a [`ResolveEvent`] per query for trace analysis.
    pub record_trace: bool,
}

impl Default for ResolverConfig {
    fn default() -> Self {
        ResolverConfig {
            negative_cache: true,
            positive_cache: true,
            record_trace: false,
        }
    }
}

/// A caching recursive resolver over a [`SimDns`] hierarchy.
pub struct Resolver {
    config: ResolverConfig,
    positive: HashMap<(Name, u16), PositiveEntry>,
    /// NXDOMAIN entries cover every type at the name; NODATA entries are
    /// per-(name, type) with type stored in the key's second slot.
    nxdomain: HashMap<Name, NegativeEntry>,
    nodata: HashMap<(Name, u16), NegativeEntry>,
    metrics: ResolverMetrics,
    trace: Vec<ResolveEvent>,
}

impl Resolver {
    pub fn new(config: ResolverConfig) -> Self {
        Resolver {
            config,
            positive: HashMap::new(),
            nxdomain: HashMap::new(),
            nodata: HashMap::new(),
            metrics: ResolverMetrics::detached(),
            trace: Vec::new(),
        }
    }

    /// Point-in-time copy of the resolver's counters. With metrics attached
    /// to a shared registry this reads the registry cells, so resolvers
    /// sharing one registry report aggregated stats.
    pub fn stats(&self) -> ResolverStats {
        let stats = ResolverStats {
            queries: self.metrics.queries.get(),
            cache_hits: self.metrics.cache_hits.get(),
            negative_cache_hits: self.metrics.negative_cache_hits.get(),
            upstream_queries: self.metrics.upstream_queries.get(),
            nxdomain_responses: self.metrics.nxdomain_responses.get(),
            servfail_responses: self.metrics.servfail_responses.get(),
        };
        debug_assert!(stats.check_invariants().is_ok(), "{stats:?}");
        stats
    }

    /// Re-homes the resolver's counters onto `registry` (as
    /// `resolver_*_total`), carrying current values over. Registry handles
    /// aggregate: two resolvers attached to the same registry add into the
    /// same cells.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        let next = ResolverMetrics::registered(registry);
        next.queries.add(self.metrics.queries.get());
        next.cache_hits.add(self.metrics.cache_hits.get());
        next.negative_cache_hits
            .add(self.metrics.negative_cache_hits.get());
        next.upstream_queries
            .add(self.metrics.upstream_queries.get());
        next.nxdomain_responses
            .add(self.metrics.nxdomain_responses.get());
        next.servfail_responses
            .add(self.metrics.servfail_responses.get());
        self.metrics = next;
    }

    /// The recorded event trace (empty unless `record_trace` is set).
    pub fn trace(&self) -> &[ResolveEvent] {
        &self.trace
    }

    /// Drains the recorded trace for batch analysis.
    pub fn take_trace(&mut self) -> Vec<ResolveEvent> {
        std::mem::take(&mut self.trace)
    }

    /// Entries currently cached (positive, nxdomain, nodata).
    #[cfg(test)]
    fn cache_sizes(&self) -> (usize, usize, usize) {
        (self.positive.len(), self.nxdomain.len(), self.nodata.len())
    }

    /// Drops every cached entry.
    pub fn flush(&mut self) {
        self.positive.clear();
        self.nxdomain.clear();
        self.nodata.clear();
    }

    /// Resolves `qname`/`qtype` at simulated instant `now`.
    pub fn resolve(
        &mut self,
        dns: &SimDns,
        qname: &Name,
        qtype: RType,
        now: SimTime,
    ) -> Resolution {
        let resolution = self.resolve_inner(dns, qname, qtype, now);
        if self.config.record_trace {
            // Remaining negative window, read back from the cache (fresh
            // entries were just inserted, so this reports the full TTL).
            let negative_ttl = match resolution.rcode {
                RCode::NxDomain => self
                    .nxdomain
                    .get(qname)
                    .map(|e| e.expires.0.saturating_sub(now.0) as u32),
                RCode::NoError if resolution.answers.is_empty() => self
                    .nodata
                    .get(&(qname.clone(), qtype.to_u16()))
                    .map(|e| e.expires.0.saturating_sub(now.0) as u32),
                _ => None,
            };
            self.trace.push(ResolveEvent {
                at: now,
                qname: qname.clone(),
                qtype,
                rcode: resolution.rcode,
                from_cache: resolution.from_cache,
                upstream_queries: resolution.upstream_queries,
                negative_ttl,
            });
        }
        resolution
    }

    fn resolve_inner(
        &mut self,
        dns: &SimDns,
        qname: &Name,
        qtype: RType,
        now: SimTime,
    ) -> Resolution {
        self.metrics.queries.inc();

        // Cache lookups.
        if self.config.negative_cache {
            if let Some(e) = self.nxdomain.get(qname) {
                if e.expires > now {
                    self.metrics.cache_hits.inc();
                    self.metrics.negative_cache_hits.inc();
                    self.metrics.nxdomain_responses.inc();
                    return Resolution {
                        rcode: RCode::NxDomain,
                        answers: Vec::new(),
                        authorities: vec![e.soa.clone()],
                        from_cache: true,
                        upstream_queries: 0,
                    };
                }
            }
            if let Some(e) = self.nodata.get(&(qname.clone(), qtype.to_u16())) {
                if e.expires > now && e.kind == NegKind::NoData {
                    self.metrics.cache_hits.inc();
                    self.metrics.negative_cache_hits.inc();
                    return Resolution {
                        rcode: RCode::NoError,
                        answers: Vec::new(),
                        authorities: vec![e.soa.clone()],
                        from_cache: true,
                        upstream_queries: 0,
                    };
                }
            }
        }
        if self.config.positive_cache {
            if let Some(e) = self.positive.get(&(qname.clone(), qtype.to_u16())) {
                if e.expires > now {
                    self.metrics.cache_hits.inc();
                    return Resolution {
                        rcode: RCode::NoError,
                        answers: e.answers.clone(),
                        authorities: Vec::new(),
                        from_cache: true,
                        upstream_queries: 0,
                    };
                }
            }
        }

        // Iterative resolution from the root.
        let mut server = ServerRef::Root;
        let mut upstream = 0u32;
        for _ in 0..MAX_STEPS {
            upstream += 1;
            match dns.query_server(&server, qname, qtype) {
                ZoneAnswer::Answer(answers) => {
                    self.metrics.upstream_queries.add(upstream as u64);
                    self.cache_positive(qname, qtype, &answers, now);
                    return Resolution {
                        rcode: RCode::NoError,
                        answers,
                        authorities: Vec::new(),
                        from_cache: false,
                        upstream_queries: upstream,
                    };
                }
                ZoneAnswer::NxDomain(soa) => {
                    self.metrics.upstream_queries.add(upstream as u64);
                    self.metrics.nxdomain_responses.inc();
                    let soa = clamp_negative_soa(&soa);
                    self.cache_negative(qname, qtype, &soa, NegKind::NxDomain, now);
                    return Resolution {
                        rcode: RCode::NxDomain,
                        answers: Vec::new(),
                        authorities: vec![soa],
                        from_cache: false,
                        upstream_queries: upstream,
                    };
                }
                ZoneAnswer::NoData(soa) => {
                    self.metrics.upstream_queries.add(upstream as u64);
                    let soa = clamp_negative_soa(&soa);
                    self.cache_negative(qname, qtype, &soa, NegKind::NoData, now);
                    return Resolution {
                        rcode: RCode::NoError,
                        answers: Vec::new(),
                        authorities: vec![soa],
                        from_cache: false,
                        upstream_queries: upstream,
                    };
                }
                ZoneAnswer::Delegation(ns) => {
                    let owner = match ns.first() {
                        Some(rec) => &rec.name,
                        None => break,
                    };
                    match dns.server_for_delegation(owner) {
                        Some(next) if next != server => server = next,
                        // Lame delegation: the child zone no longer exists
                        // (e.g. expired while the parent kept the cut).
                        _ => break,
                    }
                }
                ZoneAnswer::OutOfZone => break,
            }
        }
        // Lame delegation / loop: SERVFAIL, uncached.
        self.metrics.upstream_queries.add(upstream as u64);
        self.metrics.servfail_responses.inc();
        Resolution {
            rcode: RCode::ServFail,
            answers: Vec::new(),
            authorities: Vec::new(),
            from_cache: false,
            upstream_queries: upstream,
        }
    }

    /// Wire-level entry point: decodes a query message, resolves it, and
    /// encodes the response (exercising the full codec path). A query that
    /// carried an OPT gets one back, as from the authoritative servers.
    pub fn resolve_message(
        &mut self,
        dns: &SimDns,
        query_wire: &[u8],
        now: SimTime,
    ) -> Result<Vec<u8>, nxd_dns_wire::WireError> {
        let query = Message::decode(query_wire)?;
        let mut resp = match query.questions.first() {
            Some(q) => {
                let resolution = self.resolve(dns, &q.qname, q.qtype, now);
                let mut resp = Message::response(&query, resolution.rcode);
                resp.answers = resolution.answers;
                resp.authorities = resolution.authorities;
                resp
            }
            None => Message::response(&query, RCode::FormErr),
        };
        echo_edns(&query, &mut resp);
        resp.encode()
    }

    fn cache_positive(&mut self, qname: &Name, qtype: RType, answers: &[Record], now: SimTime) {
        if !self.config.positive_cache {
            return;
        }
        let ttl = answers
            .iter()
            .map(|r| r.ttl)
            .min()
            .unwrap_or(0)
            .min(MAX_TTL);
        if ttl == 0 {
            return;
        }
        self.positive.insert(
            (qname.clone(), qtype.to_u16()),
            PositiveEntry {
                expires: SimTime(now.0 + ttl as u64),
                answers: answers.to_vec(),
            },
        );
    }

    /// Caches a negative result. `soa` must already be TTL-capped (see
    /// [`clamp_negative_soa`]), so the capped record is also what cached
    /// answers replay in their authority section.
    fn cache_negative(
        &mut self,
        qname: &Name,
        qtype: RType,
        soa: &Record,
        kind: NegKind,
        now: SimTime,
    ) {
        if !self.config.negative_cache {
            return;
        }
        // RFC 2308: negative TTL = min(SOA.minimum, SOA record TTL).
        let ttl = match &soa.rdata {
            RData::Soa(s) => s.minimum.min(soa.ttl),
            _ => soa.ttl,
        }
        .min(MAX_TTL);
        if ttl == 0 {
            return;
        }
        let entry = NegativeEntry {
            expires: SimTime(now.0 + ttl as u64),
            kind,
            soa: soa.clone(),
        };
        match kind {
            NegKind::NxDomain => {
                self.nxdomain.insert(qname.clone(), entry);
            }
            NegKind::NoData => {
                self.nodata.insert((qname.clone(), qtype.to_u16()), entry);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::DEFAULT_NEGATIVE_TTL;
    use crate::time::SimDuration;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn world() -> (SimDns, Resolver) {
        let mut d = SimDns::new(&["com"], SimTime::ERA_START);
        d.register_domain(
            &n("example.com"),
            "alice",
            "godaddy",
            1,
            Ipv4Addr::new(192, 0, 2, 80),
        )
        .unwrap();
        (d, Resolver::new(ResolverConfig::default()))
    }

    #[test]
    fn resolves_registered_domain() {
        let (dns, mut r) = world();
        let res = r.resolve(&dns, &n("www.example.com"), RType::A, SimTime::ERA_START);
        assert_eq!(res.rcode, RCode::NoError);
        assert_eq!(res.answers.len(), 1);
        assert!(!res.from_cache);
        // root (delegation) -> tld (delegation) -> auth (answer)
        assert_eq!(res.upstream_queries, 3);
    }

    #[test]
    fn nxdomain_for_unregistered() {
        let (dns, mut r) = world();
        let res = r.resolve(&dns, &n("nope.com"), RType::A, SimTime::ERA_START);
        assert!(res.is_nxdomain());
        assert_eq!(r.stats().nxdomain_responses, 1);
    }

    #[test]
    fn positive_cache_hit() {
        let (dns, mut r) = world();
        let t = SimTime::ERA_START;
        r.resolve(&dns, &n("www.example.com"), RType::A, t);
        let res = r.resolve(
            &dns,
            &n("www.example.com"),
            RType::A,
            t + SimDuration::seconds(10),
        );
        assert!(res.from_cache);
        assert_eq!(res.upstream_queries, 0);
        assert_eq!(r.stats().cache_hits, 1);
    }

    #[test]
    fn positive_cache_expires_with_ttl() {
        let (dns, mut r) = world();
        let t = SimTime::ERA_START;
        r.resolve(&dns, &n("www.example.com"), RType::A, t);
        // Positive TTL is 3600 in the simulated zones.
        let res = r.resolve(
            &dns,
            &n("www.example.com"),
            RType::A,
            t + SimDuration::seconds(3601),
        );
        assert!(!res.from_cache);
    }

    #[test]
    fn negative_cache_suppresses_upstream_nxdomain() {
        let (dns, mut r) = world();
        let t = SimTime::ERA_START;
        let first = r.resolve(&dns, &n("ghost.com"), RType::A, t);
        assert!(!first.from_cache);
        let second = r.resolve(&dns, &n("ghost.com"), RType::A, t + SimDuration::seconds(1));
        assert!(second.from_cache);
        assert!(second.is_nxdomain());
        assert_eq!(r.stats().negative_cache_hits, 1);
        // After the negative TTL the query goes upstream again.
        let third = r.resolve(
            &dns,
            &n("ghost.com"),
            RType::A,
            t + SimDuration::seconds(DEFAULT_NEGATIVE_TTL as u64 + 1),
        );
        assert!(!third.from_cache);
    }

    #[test]
    fn nxdomain_cache_covers_all_types() {
        let (dns, mut r) = world();
        let t = SimTime::ERA_START;
        r.resolve(&dns, &n("ghost.com"), RType::A, t);
        let res = r.resolve(
            &dns,
            &n("ghost.com"),
            RType::Aaaa,
            t + SimDuration::seconds(5),
        );
        assert!(res.from_cache, "NXDOMAIN is name-wide, not per-type");
    }

    #[test]
    fn nodata_cached_per_type() {
        let (dns, mut r) = world();
        let t = SimTime::ERA_START;
        // www.example.com exists with A only; MX is NODATA.
        let res = r.resolve(&dns, &n("www.example.com"), RType::Mx, t);
        assert_eq!(res.rcode, RCode::NoError);
        assert!(res.answers.is_empty());
        let cached = r.resolve(
            &dns,
            &n("www.example.com"),
            RType::Mx,
            t + SimDuration::seconds(1),
        );
        assert!(cached.from_cache);
        // A different type still goes upstream.
        let a = r.resolve(
            &dns,
            &n("www.example.com"),
            RType::A,
            t + SimDuration::seconds(2),
        );
        assert!(!a.from_cache);
    }

    #[test]
    fn negative_cache_disabled_ablation() {
        let (dns, _) = world();
        let mut r = Resolver::new(ResolverConfig {
            negative_cache: false,
            ..Default::default()
        });
        let t = SimTime::ERA_START;
        r.resolve(&dns, &n("ghost.com"), RType::A, t);
        let res = r.resolve(&dns, &n("ghost.com"), RType::A, t + SimDuration::seconds(1));
        assert!(!res.from_cache);
        assert_eq!(r.stats().nxdomain_responses, 2);
    }

    #[test]
    fn expired_domain_becomes_nxdomain_then_cached() {
        let (mut dns, mut r) = world();
        let t = SimTime::ERA_START + SimDuration::days(366);
        dns.tick(t);
        let res = r.resolve(&dns, &n("www.example.com"), RType::A, t);
        assert!(res.is_nxdomain());
        let cached = r.resolve(
            &dns,
            &n("www.example.com"),
            RType::A,
            t + SimDuration::seconds(1),
        );
        assert!(cached.from_cache && cached.is_nxdomain());
    }

    #[test]
    fn unknown_tld_nxdomain_from_root() {
        let (dns, mut r) = world();
        let res = r.resolve(&dns, &n("example.zz"), RType::A, SimTime::ERA_START);
        assert!(res.is_nxdomain());
        assert_eq!(res.upstream_queries, 1);
    }

    #[test]
    fn wire_level_roundtrip() {
        let (dns, mut r) = world();
        let q = Message::query(0x55AA, n("ghost.com"), RType::A);
        let resp_wire = r
            .resolve_message(&dns, &q.encode().unwrap(), SimTime::ERA_START)
            .unwrap();
        let resp = Message::decode(&resp_wire).unwrap();
        assert_eq!(resp.header.id, 0x55AA);
        assert!(resp.is_nxdomain());
    }

    #[test]
    fn wire_level_echoes_opt_to_edns_queries() {
        use nxd_dns_wire::{Edns, EdnsMessage};
        let (dns, mut r) = world();
        let mut q = Message::query(0x0E0E, n("nope.com"), RType::A);
        let classic = r
            .resolve_message(&dns, &q.encode().unwrap(), SimTime::ERA_START)
            .unwrap();
        assert_eq!(Message::decode(&classic).unwrap().edns(), None);
        q.set_edns(Edns::default());
        let resp_wire = r
            .resolve_message(&dns, &q.encode().unwrap(), SimTime::ERA_START)
            .unwrap();
        let resp = Message::decode(&resp_wire).unwrap();
        assert!(resp.is_nxdomain());
        assert_eq!(resp.edns(), Some(Edns::default()));
    }

    #[test]
    fn wire_level_formerr_on_empty_question() {
        let (dns, mut r) = world();
        let q = Message {
            header: nxd_dns_wire::Header::query(9),
            questions: vec![],
            answers: vec![],
            authorities: vec![],
            additionals: vec![],
        };
        let resp_wire = r
            .resolve_message(&dns, &q.encode().unwrap(), SimTime::ERA_START)
            .unwrap();
        let resp = Message::decode(&resp_wire).unwrap();
        assert_eq!(resp.header.rcode, RCode::FormErr);
    }

    #[test]
    fn stats_invariants_across_cache_hit_paths() {
        let (dns, mut r) = world();
        let t = SimTime::ERA_START;
        // Exercise all three cache-hit paths: NXDOMAIN hit, NODATA hit,
        // positive hit — plus a fresh SERVFAIL (unknown TLD stays at the
        // root, answered NXDOMAIN there, so force SERVFAIL via loop cap).
        r.resolve(&dns, &n("ghost.com"), RType::A, t); // fresh NXDOMAIN
        r.resolve(&dns, &n("ghost.com"), RType::A, t + SimDuration::seconds(1)); // nxd hit
        r.resolve(&dns, &n("www.example.com"), RType::Mx, t); // fresh NODATA
        r.resolve(
            &dns,
            &n("www.example.com"),
            RType::Mx,
            t + SimDuration::seconds(1),
        ); // nodata hit
        r.resolve(&dns, &n("www.example.com"), RType::A, t); // fresh answer
        r.resolve(
            &dns,
            &n("www.example.com"),
            RType::A,
            t + SimDuration::seconds(1),
        ); // positive hit
        let s = r.stats();
        s.check_invariants().unwrap();
        assert_eq!(s.queries, 6);
        assert_eq!(s.cache_hits, 3);
        // Positive hits are cache hits but not negative ones.
        assert_eq!(s.negative_cache_hits, 2);
        // One fresh + one cached NXDOMAIN response.
        assert_eq!(s.nxdomain_responses, 2);
        assert_eq!(s.servfail_responses, 0);
    }

    #[test]
    fn stats_invariants_catch_drift() {
        let bad = ResolverStats {
            queries: 1,
            cache_hits: 1,
            negative_cache_hits: 2,
            ..Default::default()
        };
        assert!(bad.check_invariants().is_err());
        let bad = ResolverStats {
            queries: 1,
            nxdomain_responses: 1,
            servfail_responses: 1,
            ..Default::default()
        };
        assert!(bad.check_invariants().is_err());
    }

    #[test]
    fn attach_metrics_carries_values_and_aggregates() {
        use nxd_telemetry::Registry;
        let (dns, mut r) = world();
        let t = SimTime::ERA_START;
        r.resolve(&dns, &n("ghost.com"), RType::A, t);
        let registry = Registry::new();
        r.attach_metrics(&registry);
        // Pre-attach counts carried onto the registry.
        assert_eq!(
            registry.snapshot().counter_total("resolver_queries_total"),
            1
        );
        r.resolve(&dns, &n("ghost.com"), RType::A, t + SimDuration::seconds(1));
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("resolver_queries_total"), 2);
        assert_eq!(snap.counter_total("resolver_negative_cache_hits_total"), 1);
        assert_eq!(snap.counter_total("resolver_nxdomain_responses_total"), 2);
        // A second resolver on the same registry aggregates into the cells.
        let mut r2 = Resolver::new(ResolverConfig::default());
        r2.attach_metrics(&registry);
        r2.resolve(&dns, &n("other.com"), RType::A, t);
        assert_eq!(
            registry.snapshot().counter_total("resolver_queries_total"),
            3
        );
        r.stats().check_invariants().unwrap();
    }

    #[test]
    fn flush_clears_caches() {
        let (dns, mut r) = world();
        let t = SimTime::ERA_START;
        r.resolve(&dns, &n("www.example.com"), RType::A, t);
        r.resolve(&dns, &n("ghost.com"), RType::A, t);
        r.resolve(&dns, &n("www.example.com"), RType::Mx, t);
        assert_eq!(r.cache_sizes(), (1, 1, 1));
        r.flush();
        assert_eq!(r.cache_sizes(), (0, 0, 0));
    }

    #[test]
    fn cached_ttl_is_capped_at_one_day() {
        let (mut dns, mut r) = world();
        let name = n("long.example.com");
        let record = Record::new(
            name.clone(),
            172_800,
            RData::A(Ipv4Addr::new(192, 0, 2, 82)),
        );
        assert!(dns.add_record(&n("example.com"), record));
        let t = SimTime::ERA_START;
        let first = r.resolve(&dns, &name, RType::A, t);
        assert_eq!(first.answers[0].ttl, 172_800);
        assert!(!first.from_cache);
        let before = r.resolve(&dns, &name, RType::A, t + SimDuration::seconds(86_399));
        assert!(before.from_cache, "served from cache inside the cap");
        let after = r.resolve(&dns, &name, RType::A, t + SimDuration::seconds(86_401));
        assert!(!after.from_cache, "refetched past the one-day cap");
        assert_eq!(after.upstream_queries, 3);
    }
}
