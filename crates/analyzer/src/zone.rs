//! Zone passes: rules over an authoritative zone's records (NXD009–NXD014).
//!
//! The input is the zone apex plus a flat record list — either a live
//! [`nxd_dns_sim::Zone`] (via [`crate::Analyzer::analyze_zone`]) or the
//! output of the RFC 1035 §5 master-file parser, so zone files can be
//! linted before they are ever served.

use std::collections::{BTreeMap, BTreeSet};

use nxd_dns_wire::{Name, RData, RType, Record};

use crate::diagnostic::{Diagnostic, Location, RuleInfo, Severity};
use crate::rules::Rule;

/// Everything a zone rule can see: the apex and the zone's records, plus
/// owner/cut indexes shared by the rules so each pass stays linear.
pub struct ZoneCtx<'a> {
    pub apex: &'a Name,
    pub records: &'a [Record],
    /// Every owner name that holds at least one record.
    owners: BTreeSet<Name>,
    /// Delegation cuts: owners strictly below the apex holding NS records.
    cuts: Vec<Name>,
}

impl<'a> ZoneCtx<'a> {
    pub fn new(apex: &'a Name, records: &'a [Record]) -> Self {
        let owners: BTreeSet<Name> = records.iter().map(|r| r.name.clone()).collect();
        let cuts: Vec<Name> = owners
            .iter()
            .filter(|o| {
                *o != apex
                    && records
                        .iter()
                        .any(|r| r.name == **o && r.rtype() == RType::Ns)
            })
            .cloned()
            .collect();
        ZoneCtx {
            apex,
            records,
            owners,
            cuts,
        }
    }

    /// Whether any record exists at `name` or beneath it.
    fn node_exists(&self, name: &Name) -> bool {
        self.owners.iter().any(|o| o.is_subdomain_of(name))
    }

    /// Whether `name` sits at or below a delegation cut (authority for it
    /// belongs to a child zone, so absence here proves nothing).
    fn below_cut(&self, name: &Name) -> bool {
        self.cuts.iter().any(|cut| name.is_subdomain_of(cut))
    }

    fn loc(&self, owner: &Name) -> Location {
        Location::Zone {
            apex: self.apex.to_string(),
            owner: owner.to_string(),
        }
    }
}

/// NXD009: a CNAME must be the only record at its owner name.
pub static NXD009: RuleInfo = RuleInfo {
    id: "NXD009",
    name: "cname-and-other-data",
    severity: Severity::High,
    rfc: "RFC 1034 §3.6.2",
    summary: "owner name holds a CNAME alongside other records",
};

fn cname_and_other_data(ctx: &ZoneCtx<'_>, out: &mut Vec<Diagnostic>) {
    let mut by_owner: BTreeMap<&Name, (usize, usize)> = BTreeMap::new();
    for rec in ctx.records {
        let entry = by_owner.entry(&rec.name).or_insert((0, 0));
        if rec.rtype() == RType::Cname {
            entry.0 += 1;
        } else {
            entry.1 += 1;
        }
    }
    for (owner, (cnames, others)) in by_owner {
        if cnames > 0 && (others > 0 || cnames > 1) {
            out.push(Diagnostic::new(
                &NXD009,
                ctx.loc(owner),
                format!("{owner} holds {cnames} CNAME record(s) and {others} other record(s)"),
                "an alias node must hold exactly one CNAME and nothing else",
            ));
        }
    }
}

/// NXD010: an in-zone CNAME pointing at a nonexistent node guarantees an
/// NXDOMAIN for every query through the alias.
pub static NXD010: RuleInfo = RuleInfo {
    id: "NXD010",
    name: "dangling-cname",
    severity: Severity::Medium,
    rfc: "RFC 1034 §3.6.2",
    summary: "CNAME targets an in-zone name that does not exist",
};

fn dangling_cname(ctx: &ZoneCtx<'_>, out: &mut Vec<Diagnostic>) {
    for rec in ctx.records {
        let RData::Cname(target) = &rec.rdata else {
            continue;
        };
        if !target.is_subdomain_of(ctx.apex) || ctx.below_cut(target) {
            continue; // authority for the target lies elsewhere
        }
        if !ctx.node_exists(target) {
            out.push(Diagnostic::new(
                &NXD010,
                ctx.loc(&rec.name),
                format!(
                    "CNAME {} points at {}, which has no records in this zone",
                    rec.name, target
                ),
                "repoint or remove the alias; every query through it now yields NXDOMAIN",
            ));
        }
    }
}

/// NXD011: a delegation whose nameserver lives inside the delegated subtree
/// needs glue in the parent zone, or the child zone is unreachable.
pub static NXD011: RuleInfo = RuleInfo {
    id: "NXD011",
    name: "delegation-missing-glue",
    severity: Severity::Medium,
    rfc: "RFC 1034 §4.2.1",
    summary: "in-bailiwick delegation NS has no glue address record",
};

fn delegation_without_glue(ctx: &ZoneCtx<'_>, out: &mut Vec<Diagnostic>) {
    for rec in ctx.records {
        if rec.name == *ctx.apex {
            continue; // apex NS is the zone's own server set, not a cut
        }
        let RData::Ns(nsdname) = &rec.rdata else {
            continue;
        };
        if !nsdname.is_subdomain_of(&rec.name) {
            continue; // out-of-bailiwick: resolved via its own zone
        }
        let has_glue = ctx
            .records
            .iter()
            .any(|r| r.name == *nsdname && matches!(r.rtype(), RType::A | RType::Aaaa));
        if !has_glue {
            out.push(Diagnostic::new(
                &NXD011,
                ctx.loc(&rec.name),
                format!(
                    "delegation {} NS {} is in-bailiwick but the zone carries no A/AAAA glue for it",
                    rec.name, nsdname
                ),
                "add a glue address record for the nameserver below the cut",
            ));
        }
    }
}

/// NXD012: every record of an RRset shares one TTL; mixed TTLs make caching
/// behaviour undefined.
pub static NXD012: RuleInfo = RuleInfo {
    id: "NXD012",
    name: "rrset-ttl-mismatch",
    severity: Severity::Medium,
    rfc: "RFC 2181 §5.2",
    summary: "records of one RRset carry different TTLs",
};

fn rrset_ttl_mismatch(ctx: &ZoneCtx<'_>, out: &mut Vec<Diagnostic>) {
    let mut ttls: BTreeMap<(&Name, u16), BTreeSet<u32>> = BTreeMap::new();
    for rec in ctx.records {
        ttls.entry((&rec.name, rec.rtype().to_u16()))
            .or_default()
            .insert(rec.ttl);
    }
    for ((owner, rtype), set) in ttls {
        if set.len() > 1 {
            let listed: Vec<String> = set.iter().map(u32::to_string).collect();
            out.push(Diagnostic::new(
                &NXD012,
                ctx.loc(owner),
                format!(
                    "RRset {owner}/{} mixes TTLs {{{}}}",
                    RType::from_u16(rtype),
                    listed.join(", ")
                ),
                "give every record of the RRset the same TTL",
            ));
        }
    }
}

/// NXD013: zero TTLs are legal but defeat caching entirely; in a zone's
/// standing data they are almost always a mistake.
pub static NXD013: RuleInfo = RuleInfo {
    id: "NXD013",
    name: "zero-ttl",
    severity: Severity::Low,
    rfc: "RFC 1035 §3.2.1",
    summary: "standing zone record has TTL 0",
};

fn zero_ttl(ctx: &ZoneCtx<'_>, out: &mut Vec<Diagnostic>) {
    for rec in ctx.records {
        if rec.ttl == 0 && rec.rtype() != RType::Soa {
            out.push(Diagnostic::new(
                &NXD013,
                ctx.loc(&rec.name),
                format!(
                    "{}/{} has TTL 0 — every query goes upstream",
                    rec.name,
                    rec.rtype()
                ),
                "use a short positive TTL instead of 0 unless the data truly changes per query",
            ));
        }
    }
}

/// NXD014: the SOA MINIMUM is the zone's negative TTL; 0 disables negative
/// caching and very large values pin denials long after re-registration.
pub static NXD014: RuleInfo = RuleInfo {
    id: "NXD014",
    name: "negative-ttl-anomaly",
    severity: Severity::Low,
    rfc: "RFC 2308 §5",
    summary: "SOA MINIMUM (negative TTL) is 0 or above one day",
};

fn negative_ttl_anomaly(ctx: &ZoneCtx<'_>, out: &mut Vec<Diagnostic>) {
    const ONE_DAY: u32 = 86_400;
    for rec in ctx.records {
        let RData::Soa(soa) = &rec.rdata else {
            continue;
        };
        if soa.minimum == 0 {
            out.push(Diagnostic::new(
                &NXD014,
                ctx.loc(&rec.name),
                "SOA MINIMUM is 0 — NXDOMAIN responses will never be cached".to_string(),
                "set MINIMUM to a short window (minutes to hours) to bound repeat queries",
            ));
        } else if soa.minimum > ONE_DAY {
            out.push(Diagnostic::new(
                &NXD014,
                ctx.loc(&rec.name),
                format!("SOA MINIMUM {} exceeds one day", soa.minimum),
                "keep the negative TTL at one day or below so re-registrations propagate",
            ));
        }
    }
}

/// A zone rule's check: appends one diagnostic per violation in a zone.
pub type ZoneCheck = fn(&ZoneCtx<'_>, &mut Vec<Diagnostic>);

/// The zone pass, in rule-ID order.
pub static ZONE_RULES: [Rule<ZoneCheck>; 6] = [
    Rule::new(&NXD009, cname_and_other_data),
    Rule::new(&NXD010, dangling_cname),
    Rule::new(&NXD011, delegation_without_glue),
    Rule::new(&NXD012, rrset_ttl_mismatch),
    Rule::new(&NXD013, zero_ttl),
    Rule::new(&NXD014, negative_ttl_anomaly),
];

#[cfg(test)]
mod tests {
    use super::*;
    use nxd_dns_wire::Soa;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn soa_record(owner: &str, minimum: u32) -> Record {
        Record::new(
            n(owner),
            minimum,
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

    /// A conformant small zone.
    fn clean_records() -> Vec<Record> {
        vec![
            soa_record("example.com", 900),
            Record::new(n("example.com"), 3600, RData::Ns(n("ns1.example.com"))),
            Record::new(
                n("ns1.example.com"),
                3600,
                RData::A(Ipv4Addr::new(192, 0, 2, 1)),
            ),
            Record::new(
                n("www.example.com"),
                300,
                RData::A(Ipv4Addr::new(192, 0, 2, 80)),
            ),
            Record::new(
                n("alias.example.com"),
                300,
                RData::Cname(n("www.example.com")),
            ),
        ]
    }

    /// Runs the zone table's entry for rule `id` alone.
    fn run(id: &str, records: &[Record]) -> Vec<Diagnostic> {
        let rule = ZONE_RULES.iter().find(|r| r.info.id == id).unwrap();
        let apex = n("example.com");
        let ctx = ZoneCtx::new(&apex, records);
        let mut out = Vec::new();
        (rule.check)(&ctx, &mut out);
        out
    }

    #[test]
    fn clean_zone_passes_every_rule() {
        let records = clean_records();
        for rule in &ZONE_RULES {
            let apex = n("example.com");
            let ctx = ZoneCtx::new(&apex, &records);
            let mut out = Vec::new();
            (rule.check)(&ctx, &mut out);
            assert!(
                out.is_empty(),
                "{} fired on a clean zone: {out:?}",
                rule.info.id
            );
        }
    }

    #[test]
    fn nxd009_flags_cname_with_other_data() {
        let mut records = clean_records();
        records.push(Record::new(
            n("alias.example.com"),
            300,
            RData::A(Ipv4Addr::LOCALHOST),
        ));
        let diags = run("NXD009", &records);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule.id, "NXD009");
        assert_eq!(diags[0].rule.severity, Severity::High);
    }

    #[test]
    fn nxd009_flags_duplicate_cnames() {
        let mut records = clean_records();
        records.push(Record::new(
            n("alias.example.com"),
            300,
            RData::Cname(n("ns1.example.com")),
        ));
        assert_eq!(run("NXD009", &records).len(), 1);
    }

    #[test]
    fn nxd010_flags_dangling_in_zone_target() {
        let mut records = clean_records();
        records.push(Record::new(
            n("old.example.com"),
            300,
            RData::Cname(n("gone.example.com")),
        ));
        let diags = run("NXD010", &records);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule.id, "NXD010");
    }

    #[test]
    fn nxd010_ignores_out_of_zone_and_delegated_targets() {
        let mut records = clean_records();
        // Out-of-zone target: not ours to judge.
        records.push(Record::new(
            n("ext.example.com"),
            300,
            RData::Cname(n("cdn.example.net")),
        ));
        // Target below a delegation cut: the child zone answers for it.
        records.push(Record::new(
            n("sub.example.com"),
            3600,
            RData::Ns(n("ns1.sub.example.com")),
        ));
        records.push(Record::new(
            n("ns1.sub.example.com"),
            3600,
            RData::A(Ipv4Addr::new(192, 0, 2, 5)),
        ));
        records.push(Record::new(
            n("into.example.com"),
            300,
            RData::Cname(n("deep.sub.example.com")),
        ));
        assert!(run("NXD010", &records).is_empty());
    }

    #[test]
    fn nxd011_flags_glueless_delegation() {
        let mut records = clean_records();
        records.push(Record::new(
            n("sub.example.com"),
            3600,
            RData::Ns(n("ns1.sub.example.com")),
        ));
        let diags = run("NXD011", &records);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule.id, "NXD011");
    }

    #[test]
    fn nxd011_clean_with_glue_or_out_of_bailiwick_ns() {
        let mut records = clean_records();
        records.push(Record::new(
            n("sub.example.com"),
            3600,
            RData::Ns(n("ns1.sub.example.com")),
        ));
        records.push(Record::new(
            n("ns1.sub.example.com"),
            3600,
            RData::A(Ipv4Addr::new(192, 0, 2, 5)),
        ));
        records.push(Record::new(
            n("other.example.com"),
            3600,
            RData::Ns(n("ns.hoster.net")),
        ));
        assert!(run("NXD011", &records).is_empty());
    }

    #[test]
    fn nxd012_flags_mixed_rrset_ttls() {
        let mut records = clean_records();
        records.push(Record::new(
            n("www.example.com"),
            600,
            RData::A(Ipv4Addr::new(192, 0, 2, 81)),
        ));
        let diags = run("NXD012", &records);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule.id, "NXD012");
        assert!(diags[0].message.contains("300") && diags[0].message.contains("600"));
    }

    #[test]
    fn nxd012_clean_on_uniform_rrsets() {
        let mut records = clean_records();
        records.push(Record::new(
            n("www.example.com"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 81)),
        ));
        assert!(run("NXD012", &records).is_empty());
    }

    #[test]
    fn nxd013_flags_zero_ttl() {
        let mut records = clean_records();
        records.push(Record::new(
            n("hot.example.com"),
            0,
            RData::A(Ipv4Addr::LOCALHOST),
        ));
        let diags = run("NXD013", &records);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule.id, "NXD013");
    }

    #[test]
    fn nxd014_flags_zero_and_huge_minimum() {
        let mut records = vec![soa_record("example.com", 0)];
        assert_eq!(run("NXD014", &records).len(), 1);
        records = vec![soa_record("example.com", 172_800)];
        let diags = run("NXD014", &records);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule.id, "NXD014");
    }

    #[test]
    fn nxd014_clean_on_paper_default() {
        assert!(run("NXD014", &clean_records()).is_empty());
    }
}
