//! Wire passes: rules over a decoded [`Message`] (NXD001–NXD008).
//!
//! These rules police the negative-response conformance the paper's
//! measurements depend on — a resolver can only negative-cache an NXDOMAIN
//! (RFC 2308) if the authority section carries the zone SOA, and the
//! amplification the paper measures is exactly what happens when that
//! machinery is broken.

use nxd_dns_wire::{Message, RCode, RData, RType, Record};

use crate::diagnostic::{Diagnostic, Location, RuleInfo, Section, Severity};
use crate::rules::Rule;

/// Everything a wire rule can see: the decoded message plus, when the caller
/// has it, the raw wire length (needed for the truncation rule; computed by
/// re-encoding otherwise).
pub struct WireCtx<'a> {
    pub msg: &'a Message,
    /// Length of the original wire encoding, if the message came off a wire.
    pub wire_len: Option<usize>,
}

impl<'a> WireCtx<'a> {
    pub fn new(msg: &'a Message) -> Self {
        WireCtx {
            msg,
            wire_len: None,
        }
    }

    pub fn with_wire_len(msg: &'a Message, wire_len: usize) -> Self {
        WireCtx {
            msg,
            wire_len: Some(wire_len),
        }
    }

    fn is_response(&self) -> bool {
        self.msg.header.qr
    }

    fn soa_authorities(&self) -> impl Iterator<Item = (usize, &Record)> {
        self.msg
            .authorities
            .iter()
            .enumerate()
            .filter(|(_, r)| r.rtype() == RType::Soa)
    }

    /// NXDOMAIN, or NODATA (NOERROR with no answers but an SOA asserting the
    /// denial) — the two negative-response forms of RFC 2308.
    fn is_negative(&self) -> bool {
        self.is_response()
            && (self.msg.header.rcode == RCode::NxDomain
                || (self.msg.header.rcode == RCode::NoError
                    && self.msg.answers.is_empty()
                    && self.soa_authorities().next().is_some()))
    }
}

fn at(section: Section, index: Option<usize>) -> Location {
    Location::Message { section, index }
}

/// NXD001: an NXDOMAIN response must carry the zone SOA in its authority
/// section, otherwise resolvers cannot negative-cache it.
pub static NXD001: RuleInfo = RuleInfo {
    id: "NXD001",
    name: "nxdomain-missing-soa",
    severity: Severity::High,
    rfc: "RFC 2308 §2.1",
    summary: "NXDOMAIN response carries no SOA record in the authority section",
};

fn nxdomain_missing_soa(ctx: &WireCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.is_response()
        && ctx.msg.header.rcode == RCode::NxDomain
        && ctx.soa_authorities().next().is_none()
    {
        out.push(Diagnostic::new(
            &NXD001,
            at(Section::Authority, None),
            "NXDOMAIN response has no SOA record in the authority section",
            "attach the enclosing zone's SOA so resolvers can negative-cache the denial",
        ));
    }
}

/// NXD002: an NXDOMAIN response asserts the name has no records, so the
/// answer section must not carry data for it (CNAME chain members excepted).
pub static NXD002: RuleInfo = RuleInfo {
    id: "NXD002",
    name: "nxdomain-with-answers",
    severity: Severity::High,
    rfc: "RFC 2308 §2.1",
    summary: "NXDOMAIN response carries non-CNAME answer records",
};

fn nxdomain_with_answers(ctx: &WireCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.is_response() || ctx.msg.header.rcode != RCode::NxDomain {
        return;
    }
    for (i, rec) in ctx.msg.answers.iter().enumerate() {
        if rec.rtype() != RType::Cname {
            out.push(Diagnostic::new(
                &NXD002,
                at(Section::Answer, Some(i)),
                format!(
                    "NXDOMAIN response carries a {} answer for {} — denial and data contradict",
                    rec.rtype(),
                    rec.name
                ),
                "drop the answer records (or return NOERROR if the name exists)",
            ));
        }
    }
}

/// NXD003: a denial of existence must be vouched for by someone — either the
/// authority itself (AA) or a recursive resolver relaying it (RA).
pub static NXD003: RuleInfo = RuleInfo {
    id: "NXD003",
    name: "denial-unattributed",
    severity: Severity::Medium,
    rfc: "RFC 1035 §4.1.1",
    summary: "NXDOMAIN response sets neither AA nor RA",
};

fn denial_without_authority(ctx: &WireCtx<'_>, out: &mut Vec<Diagnostic>) {
    let h = &ctx.msg.header;
    if ctx.is_response() && h.rcode == RCode::NxDomain && !h.aa && !h.ra {
        out.push(Diagnostic::new(
            &NXD003,
            at(Section::Header, None),
            "denial of existence with AA=0 and RA=0 — neither authoritative nor recursive",
            "set AA on authoritative denials, RA on responses from a recursive resolver",
        ));
    }
}

/// NXD004: the effective negative TTL is min(SOA TTL, SOA MINIMUM); an SOA
/// TTL above MINIMUM advertises a window the resolver must not honor.
pub static NXD004: RuleInfo = RuleInfo {
    id: "NXD004",
    name: "negative-ttl-above-minimum",
    severity: Severity::Medium,
    rfc: "RFC 2308 §5",
    summary: "SOA record TTL in a negative response exceeds the SOA MINIMUM field",
};

fn negative_ttl_above_minimum(ctx: &WireCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.is_negative() {
        return;
    }
    for (i, rec) in ctx.soa_authorities() {
        if let RData::Soa(soa) = &rec.rdata {
            if rec.ttl > soa.minimum {
                out.push(Diagnostic::new(
                    &NXD004,
                    at(Section::Authority, Some(i)),
                    format!(
                        "SOA record TTL {} exceeds SOA MINIMUM {}; the negative TTL is their minimum",
                        rec.ttl, soa.minimum
                    ),
                    "cap the SOA record TTL at the MINIMUM field when answering negatively",
                ));
            }
        }
    }
}

/// NXD005: responses echo the question so clients can match them up.
pub static NXD005: RuleInfo = RuleInfo {
    id: "NXD005",
    name: "response-missing-question",
    severity: Severity::Medium,
    rfc: "RFC 1035 §4.1.1",
    summary: "response does not echo the question section",
};

fn response_missing_question(ctx: &WireCtx<'_>, out: &mut Vec<Diagnostic>) {
    let h = &ctx.msg.header;
    if ctx.is_response()
        && matches!(h.rcode, RCode::NoError | RCode::NxDomain)
        && ctx.msg.questions.is_empty()
    {
        out.push(Diagnostic::new(
            &NXD005,
            at(Section::Question, None),
            format!("{} response has an empty question section", h.rcode),
            "echo the query's question so the client can associate the response",
        ));
    }
}

/// NXD006: the SOA in a negative response names the zone that authoritatively
/// denies the name, so its owner must be the qname or an ancestor of it.
pub static NXD006: RuleInfo = RuleInfo {
    id: "NXD006",
    name: "soa-owner-not-ancestor",
    severity: Severity::Medium,
    rfc: "RFC 2308 §2.1",
    summary: "SOA owner in a negative response does not enclose the queried name",
};

fn soa_owner_not_ancestor(ctx: &WireCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.is_negative() {
        return;
    }
    let Some(q) = ctx.msg.questions.first() else {
        return;
    };
    for (i, rec) in ctx.soa_authorities() {
        if !q.qname.is_subdomain_of(&rec.name) {
            out.push(Diagnostic::new(
                &NXD006,
                at(Section::Authority, Some(i)),
                format!(
                    "SOA owner {} is not an ancestor of the queried name {}",
                    rec.name, q.qname
                ),
                "return the SOA of the zone actually containing (or denying) the qname",
            ));
        }
    }
}

/// NXD007: TTLs are 31-bit; a set high bit must be treated as 0, so emitting
/// one advertises a TTL the peer will ignore.
pub static NXD007: RuleInfo = RuleInfo {
    id: "NXD007",
    name: "ttl-high-bit",
    severity: Severity::Low,
    rfc: "RFC 2181 §8",
    summary: "record TTL has the high bit set (interpreted as 0 by receivers)",
};

fn ttl_high_bit_set(ctx: &WireCtx<'_>, out: &mut Vec<Diagnostic>) {
    let sections = [
        (Section::Answer, &ctx.msg.answers),
        (Section::Authority, &ctx.msg.authorities),
        (Section::Additional, &ctx.msg.additionals),
    ];
    for (section, records) in sections {
        for (i, rec) in records.iter().enumerate() {
            // OPT records overload the TTL field (RFC 6891 §6.1.3).
            if rec.rtype() == RType::Opt {
                continue;
            }
            if rec.ttl > i32::MAX as u32 {
                out.push(Diagnostic::new(
                    &NXD007,
                    at(section, Some(i)),
                    format!("TTL {} on {} has the high bit set", rec.ttl, rec.name),
                    "use a TTL of at most 2^31-1; receivers treat larger values as 0",
                ));
            }
        }
    }
}

/// NXD008: a plain-DNS message longer than 512 octets must either be
/// truncated (TC) or negotiated via EDNS0 (an OPT record).
pub static NXD008: RuleInfo = RuleInfo {
    id: "NXD008",
    name: "oversize-without-edns",
    severity: Severity::High,
    rfc: "RFC 1035 §4.2.1, RFC 6891 §6.2.5",
    summary: "message exceeds 512 octets without TC or an EDNS0 OPT record",
};

fn oversize_without_edns(ctx: &WireCtx<'_>, out: &mut Vec<Diagnostic>) {
    let len = match ctx.wire_len {
        Some(len) => len,
        // Not off a wire: measure what the compressed encoding would be.
        None => match ctx.msg.encode() {
            Ok(buf) => buf.len(),
            Err(_) => return,
        },
    };
    let has_opt = ctx.msg.additionals.iter().any(|r| r.rtype() == RType::Opt);
    if len > 512 && !ctx.msg.header.tc && !has_opt {
        out.push(Diagnostic::new(
            &NXD008,
            at(Section::Header, None),
            format!(
                "message is {len} octets, beyond the 512-octet UDP limit, with TC=0 and no OPT"
            ),
            "set TC so the client retries over TCP, or negotiate a larger size with EDNS0",
        ));
    }
}

/// A wire rule's check: appends one diagnostic per violation in a message.
pub type WireCheck = fn(&WireCtx<'_>, &mut Vec<Diagnostic>);

/// The wire pass, in rule-ID order.
pub static WIRE_RULES: [Rule<WireCheck>; 8] = [
    Rule::new(&NXD001, nxdomain_missing_soa),
    Rule::new(&NXD002, nxdomain_with_answers),
    Rule::new(&NXD003, denial_without_authority),
    Rule::new(&NXD004, negative_ttl_above_minimum),
    Rule::new(&NXD005, response_missing_question),
    Rule::new(&NXD006, soa_owner_not_ancestor),
    Rule::new(&NXD007, ttl_high_bit_set),
    Rule::new(&NXD008, oversize_without_edns),
];

#[cfg(test)]
mod tests {
    use super::*;
    use nxd_dns_wire::{Name, Soa};
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn soa_record(owner: &str, ttl: u32, minimum: u32) -> Record {
        Record::new(
            n(owner),
            ttl,
            RData::Soa(Soa {
                mname: n(&format!("ns1.{owner}")),
                rname: n(&format!("hostmaster.{owner}")),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1_209_600,
                minimum,
            }),
        )
    }

    /// A conformant NXDOMAIN response: SOA in authority, RA set, TTL capped.
    fn clean_nxdomain() -> Message {
        let q = Message::query(1, n("ghost.example.com"), RType::A);
        let mut resp = Message::response(&q, RCode::NxDomain);
        resp.authorities.push(soa_record("example.com", 900, 900));
        resp
    }

    /// Runs the wire table's entry for rule `id` alone.
    fn run(id: &str, msg: &Message) -> Vec<Diagnostic> {
        let rule = WIRE_RULES.iter().find(|r| r.info.id == id).unwrap();
        let mut out = Vec::new();
        (rule.check)(&WireCtx::new(msg), &mut out);
        out
    }

    #[test]
    fn nxd001_flags_missing_soa() {
        let mut msg = clean_nxdomain();
        msg.authorities.clear();
        let diags = run("NXD001", &msg);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule.id, "NXD001");
        assert_eq!(diags[0].rule.severity, Severity::High);
    }

    #[test]
    fn nxd001_clean_on_conformant_response() {
        assert!(run("NXD001", &clean_nxdomain()).is_empty());
        // Queries and positive responses are out of scope.
        let q = Message::query(1, n("a.com"), RType::A);
        assert!(run("NXD001", &q).is_empty());
    }

    #[test]
    fn nxd002_flags_answers_in_nxdomain() {
        let mut msg = clean_nxdomain();
        msg.answers.push(Record::new(
            n("ghost.example.com"),
            60,
            RData::A(Ipv4Addr::LOCALHOST),
        ));
        let diags = run("NXD002", &msg);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule.id, "NXD002");
    }

    #[test]
    fn nxd002_allows_cname_chain_members() {
        let mut msg = clean_nxdomain();
        msg.answers.push(Record::new(
            n("ghost.example.com"),
            60,
            RData::Cname(n("gone.example.com")),
        ));
        assert!(run("NXD002", &msg).is_empty());
    }

    #[test]
    fn nxd003_flags_unattributed_denial() {
        let mut msg = clean_nxdomain();
        msg.header.aa = false;
        msg.header.ra = false;
        let diags = run("NXD003", &msg);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule.id, "NXD003");
    }

    #[test]
    fn nxd003_clean_when_aa_or_ra() {
        let mut msg = clean_nxdomain();
        msg.header.ra = false;
        msg.header.aa = true;
        assert!(run("NXD003", &msg).is_empty());
        assert!(run("NXD003", &clean_nxdomain()).is_empty());
    }

    #[test]
    fn nxd004_flags_soa_ttl_above_minimum() {
        let mut msg = clean_nxdomain();
        msg.authorities[0] = soa_record("example.com", 86_400, 900);
        let diags = run("NXD004", &msg);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule.id, "NXD004");
        assert!(diags[0].message.contains("86400"));
    }

    #[test]
    fn nxd004_clean_when_capped() {
        assert!(run("NXD004", &clean_nxdomain()).is_empty());
    }

    #[test]
    fn nxd005_flags_missing_question() {
        let mut msg = clean_nxdomain();
        msg.questions.clear();
        let diags = run("NXD005", &msg);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule.id, "NXD005");
    }

    #[test]
    fn nxd005_clean_with_question() {
        assert!(run("NXD005", &clean_nxdomain()).is_empty());
    }

    #[test]
    fn nxd006_flags_unrelated_soa_owner() {
        let mut msg = clean_nxdomain();
        msg.authorities[0] = soa_record("other.net", 900, 900);
        let diags = run("NXD006", &msg);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule.id, "NXD006");
    }

    #[test]
    fn nxd006_clean_for_enclosing_zone() {
        assert!(run("NXD006", &clean_nxdomain()).is_empty());
    }

    #[test]
    fn nxd007_flags_high_bit_ttl() {
        let mut msg = clean_nxdomain();
        msg.authorities.push(Record::new(
            n("x.example.com"),
            0x8000_0001,
            RData::A(Ipv4Addr::LOCALHOST),
        ));
        let diags = run("NXD007", &msg);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule.id, "NXD007");
        assert_eq!(diags[0].rule.severity, Severity::Low);
    }

    #[test]
    fn nxd007_clean_on_sane_ttls() {
        assert!(run("NXD007", &clean_nxdomain()).is_empty());
    }

    #[test]
    fn nxd008_flags_oversize_without_edns() {
        let q = Message::query(1, n("big.example.com"), RType::Txt);
        let mut msg = Message::response(&q, RCode::NoError);
        msg.answers.push(Record::new(
            n("big.example.com"),
            60,
            RData::Txt(vec!["x".repeat(200), "y".repeat(200), "z".repeat(200)]),
        ));
        let diags = run("NXD008", &msg);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule.id, "NXD008");
    }

    #[test]
    fn nxd008_clean_with_tc_or_opt_or_small() {
        assert!(run("NXD008", &clean_nxdomain()).is_empty());
        let q = Message::query(1, n("big.example.com"), RType::Txt);
        let mut msg = Message::response(&q, RCode::NoError);
        msg.answers.push(Record::new(
            n("big.example.com"),
            60,
            RData::Txt(vec!["x".repeat(200), "y".repeat(200), "z".repeat(200)]),
        ));
        let mut with_tc = msg.clone();
        with_tc.header.tc = true;
        assert!(run("NXD008", &with_tc).is_empty());
        let mut with_opt = msg;
        with_opt
            .additionals
            .push(Record::new(Name::root(), 0, RData::Opt(Vec::new())));
        assert!(run("NXD008", &with_opt).is_empty());
    }
}
