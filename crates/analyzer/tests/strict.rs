//! Strict-mode conformance gate: every responder in the simulated DNS
//! ecosystem must produce zero high-severity diagnostics — the violations
//! are fixed at the source (SOA attachment, AA/RA bits, TTL capping, glue),
//! not suppressed here.

use std::net::Ipv4Addr;

use nxd_analyzer::Analyzer;
use nxd_dns_sim::{
    HijackPolicy, Resolver, ResolverConfig, ServerRef, SimDns, SimDuration, SimTime, Sinkhole,
};
use nxd_dns_wire::{Edns, EdnsMessage, Message, Name, RCode, RType};

fn n(s: &str) -> Name {
    s.parse().unwrap()
}

fn world() -> SimDns {
    let mut dns = SimDns::new(&["com", "net"], SimTime::ERA_START);
    dns.register_domain(
        &n("example.com"),
        "alice",
        "godaddy",
        1,
        Ipv4Addr::new(192, 0, 2, 80),
    )
    .unwrap();
    dns.register_domain(
        &n("victim.net"),
        "bob",
        "namecheap",
        2,
        Ipv4Addr::new(192, 0, 2, 81),
    )
    .unwrap();
    dns
}

/// Sends `qname`/`qtype` to `server` over the wire — with an EDNS OPT if
/// `edns` — and returns the analyzer report for the raw response bytes. An
/// EDNS query must get an OPT back (RFC 6891 §7).
fn analyze_authoritative(
    dns: &SimDns,
    server: &ServerRef,
    qname: &str,
    qtype: RType,
    edns: bool,
) -> nxd_analyzer::Report {
    let mut query = Message::query(0x4242, n(qname), qtype);
    if edns {
        query.set_edns(Edns::default());
    }
    let wire = dns.respond(server, &query.encode().unwrap()).unwrap();
    let echoed = Message::decode(&wire).unwrap().edns();
    assert_eq!(echoed.is_some(), edns, "{server:?} {qname}: OPT echo");
    Analyzer::new().analyze_bytes(&wire).unwrap()
}

#[test]
fn authoritative_nxdomain_responses_are_strictly_clean() {
    let dns = world();
    let cases = [
        (ServerRef::Root, "nosuch.zz", RType::A),
        (ServerRef::Tld("com".into()), "unregistered.com", RType::A),
        (
            ServerRef::Auth(n("example.com")),
            "ghost.example.com",
            RType::A,
        ),
    ];
    for ((server, qname, qtype), edns) in cases
        .into_iter()
        .flat_map(|c| [(c.clone(), false), (c, true)])
    {
        let report = analyze_authoritative(&dns, &server, qname, qtype, edns);
        report.assert_no_high(&format!("{server:?} NXDOMAIN for {qname}"));
        // The simulated authorities should in fact be fully conformant.
        assert!(
            report.is_clean(),
            "{server:?} {qname}: {}",
            report.to_text()
        );
    }
}

#[test]
fn authoritative_nodata_and_answers_are_strictly_clean() {
    let dns = world();
    let cases = [
        (
            ServerRef::Auth(n("example.com")),
            "www.example.com",
            RType::Mx,
        ), // NODATA
        (
            ServerRef::Auth(n("example.com")),
            "www.example.com",
            RType::A,
        ), // answer
        (ServerRef::Auth(n("example.com")), "example.com", RType::Ns), // apex NS
        (ServerRef::Tld("com".into()), "www.example.com", RType::A),   // referral
    ];
    for ((server, qname, qtype), edns) in cases
        .into_iter()
        .flat_map(|c| [(c.clone(), false), (c, true)])
    {
        let report = analyze_authoritative(&dns, &server, qname, qtype, edns);
        assert!(
            report.is_clean(),
            "{server:?} {qname}: {}",
            report.to_text()
        );
    }
}

#[test]
fn authoritative_nxdomain_sets_aa_and_carries_capped_soa() {
    let dns = world();
    let query = Message::query(7, n("ghost.example.com"), RType::A);
    let wire = dns
        .respond(&ServerRef::Auth(n("example.com")), &query.encode().unwrap())
        .unwrap();
    let resp = Message::decode(&wire).unwrap();
    assert!(resp.is_nxdomain());
    assert!(resp.header.aa, "authoritative denial must set AA");
    assert!(!resp.header.ra, "authoritative servers offer no recursion");
    assert_eq!(resp.authorities.len(), 1);
    assert_eq!(resp.authorities[0].rtype(), RType::Soa);
    assert!(
        resp.authorities[0].ttl <= 900,
        "SOA TTL must be capped at MINIMUM"
    );
}

/// Resolves `qname`/`qtype` recursively over the wire at `now` — with an
/// EDNS OPT if `edns` — and returns the raw response. An EDNS query must
/// get an OPT back, as from the authoritative servers.
fn resolve_wire(
    dns: &SimDns,
    resolver: &mut Resolver,
    qname: &str,
    qtype: RType,
    now: SimTime,
    edns: bool,
) -> Vec<u8> {
    let mut query = Message::query(0x55AA, n(qname), qtype);
    if edns {
        query.set_edns(Edns::default());
    }
    let wire = resolver
        .resolve_message(dns, &query.encode().unwrap(), now)
        .unwrap();
    let echoed = Message::decode(&wire).unwrap().edns();
    assert_eq!(echoed.is_some(), edns, "recursive {qname}: OPT echo");
    wire
}

#[test]
fn recursive_nxdomain_responses_are_strictly_clean() {
    let dns = world();
    let analyzer = Analyzer::new();
    let t = SimTime::ERA_START;

    // Fresh NXDOMAIN, then the cached replay one second later, with and
    // without EDNS: all must carry the SOA and pass strict mode.
    for edns in [false, true] {
        let mut resolver = Resolver::new(ResolverConfig::default());
        for dt in [0, 1] {
            let now = t + SimDuration::seconds(dt);
            let wire = resolve_wire(&dns, &mut resolver, "nope.com", RType::A, now, edns);
            let report = analyzer.analyze_bytes(&wire).unwrap();
            assert!(
                report.is_clean(),
                "recursive NXDOMAIN (dt={dt}, edns={edns}): {}",
                report.to_text()
            );
            let resp = Message::decode(&wire).unwrap();
            assert!(resp.is_nxdomain());
            assert!(resp.header.ra, "recursive responses advertise recursion");
            assert_eq!(
                resp.authorities
                    .iter()
                    .filter(|r| r.rtype() == RType::Soa)
                    .count(),
                1
            );
        }
    }
}

#[test]
fn recursive_positive_and_nodata_responses_are_strictly_clean() {
    let dns = world();
    let mut resolver = Resolver::new(ResolverConfig::default());
    let analyzer = Analyzer::new();
    for (qname, qtype) in [
        ("www.example.com", RType::A),
        ("www.example.com", RType::Mx),
    ] {
        for edns in [false, true] {
            let now = SimTime::ERA_START;
            let wire = resolve_wire(&dns, &mut resolver, qname, qtype, now, edns);
            let report = analyzer.analyze_bytes(&wire).unwrap();
            assert!(
                report.is_clean(),
                "{qname}/{qtype} edns={edns}: {}",
                report.to_text()
            );
        }
    }
}

#[test]
fn every_simulated_zone_passes_the_zone_rules() {
    let dns = world();
    let analyzer = Analyzer::new();
    let mut checked = 0;
    for zone in dns.zones() {
        let report = analyzer.analyze_zone(zone);
        assert!(
            report.is_clean(),
            "zone {}: {}",
            zone.apex(),
            report.to_text()
        );
        checked += 1;
    }
    assert_eq!(checked, 5, "root + 2 TLDs + 2 auth zones");
}

#[test]
fn zones_stay_clean_across_lifecycle_transitions() {
    let mut dns = world();
    dns.tick(SimTime::ERA_START + SimDuration::days(366)); // example.com expires
    let analyzer = Analyzer::new();
    for zone in dns.zones() {
        let report = analyzer.analyze_zone(zone);
        assert!(
            report.is_clean(),
            "zone {}: {}",
            zone.apex(),
            report.to_text()
        );
    }
}

#[test]
fn resolver_trace_passes_strict_mode() {
    let dns = world();
    let mut resolver = Resolver::new(ResolverConfig {
        record_trace: true,
        ..Default::default()
    });
    let t = SimTime::ERA_START;
    // A workload with repeats inside and beyond the negative window.
    for (dt, qname) in [
        (0u64, "www.example.com"),
        (1, "dead.com"),
        (5, "dead.com"),
        (10, "www.example.com"),
        (901, "dead.com"),
        (950, "other-dead.net"),
        (960, "other-dead.net"),
    ] {
        resolver.resolve(&dns, &n(qname), RType::A, t + SimDuration::seconds(dt));
    }
    let trace = resolver.take_trace();
    assert_eq!(trace.len(), 7);
    let report = Analyzer::new().analyze_trace(&trace);
    report.assert_no_high("RFC 2308-conformant resolver trace");
    assert!(report.is_clean(), "{}", report.to_text());
}

#[test]
fn negative_cache_ablation_is_caught_by_trace_rules() {
    // The ablation knob (negative_cache: false) models exactly the paper's
    // amplification pathology; the trace pass must flag it.
    let dns = world();
    let mut resolver = Resolver::new(ResolverConfig {
        negative_cache: false,
        record_trace: true,
        ..Default::default()
    });
    let t = SimTime::ERA_START;
    resolver.resolve(&dns, &n("dead.com"), RType::A, t);
    resolver.resolve(&dns, &n("dead.com"), RType::A, t + SimDuration::seconds(5));
    let mut trace = resolver.take_trace();
    // The window is never cached, so negative_ttl is None; reconstruct what
    // the zone advertised (the analyzer sees sensor-side data in practice).
    for ev in &mut trace {
        if ev.rcode == RCode::NxDomain && !ev.from_cache {
            ev.negative_ttl = Some(900);
        }
    }
    let report = Analyzer::new().analyze_trace(&trace);
    assert_eq!(report.high_count(), 1, "{}", report.to_text());
    assert_eq!(report.diagnostics[0].rule.id, "NXD015");
}

#[test]
fn sinkhole_and_hijack_rewrites_pass_wire_strict_mode() {
    let dns = world();
    let mut resolver = Resolver::new(ResolverConfig::default());
    let analyzer = Analyzer::new();
    let t = SimTime::ERA_START;

    let mut sinkhole = Sinkhole::new(Ipv4Addr::new(198, 51, 100, 53));
    sinkhole.watch(n("dga-name.com"));
    let hijack = HijackPolicy {
        rate_permille: 1000,
        ad_server: Ipv4Addr::new(203, 0, 113, 80),
        salt: 1,
    };

    for qname in ["dga-name.com", "typo-name.com"] {
        let resolution = resolver.resolve(&dns, &n(qname), RType::A, t);
        let rewritten = sinkhole.apply(9, &n(qname), resolution, t);
        let rewritten = hijack.apply(&n(qname), rewritten);
        // Render the rewrite the way the resolver's wire path would.
        let query = Message::query(3, n(qname), RType::A);
        let mut resp = Message::response(&query, rewritten.rcode);
        resp.answers = rewritten.answers;
        resp.authorities = rewritten.authorities;
        let report = analyzer.analyze_message(&resp);
        report.assert_no_high(&format!("rewritten response for {qname}"));
        assert!(report.is_clean(), "{qname}: {}", report.to_text());
    }
}
