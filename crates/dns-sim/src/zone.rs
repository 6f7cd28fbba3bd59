//! Authoritative zones: record storage and RFC 1034 lookup semantics.

use std::collections::BTreeMap;

use nxd_dns_wire::{Name, RData, RType, Record, Soa};

/// Outcome of a lookup inside a single zone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneAnswer {
    /// Records of the requested type exist at the name.
    Answer(Vec<Record>),
    /// The name exists (or is empty-non-terminal) but has no records of the
    /// requested type. Carries the zone SOA for negative caching.
    NoData(Record),
    /// The name does not exist in the zone. Carries the zone SOA for
    /// RFC 2308 negative caching.
    NxDomain(Record),
    /// The name is below a delegation cut; carries the NS records of the
    /// child zone.
    Delegation(Vec<Record>),
    /// The name is not within this zone at all.
    OutOfZone,
}

/// An authoritative zone rooted at `apex`.
///
/// Stores RRsets keyed by `(owner name, type)`. Delegations are NS RRsets at
/// names strictly below the apex; lookups below a cut return
/// [`ZoneAnswer::Delegation`] rather than descending.
#[derive(Debug, Clone)]
pub struct Zone {
    apex: Name,
    soa: Soa,
    soa_ttl: u32,
    records: BTreeMap<(Name, u16), Vec<Record>>,
    /// For every name that exists, the number of records at or below it.
    /// A name exists (RFC 1034 §4.3.2) iff it holds records or is an
    /// ancestor of one that does, so NODATA vs NXDOMAIN is one key probe;
    /// a name leaves the map when its count reaches zero.
    existing: BTreeMap<Name, usize>,
}

impl Zone {
    /// Creates a zone with the given apex and SOA.
    pub fn new(apex: Name, soa: Soa, soa_ttl: u32) -> Self {
        let mut zone = Zone {
            apex: apex.clone(),
            soa: soa.clone(),
            soa_ttl,
            records: BTreeMap::new(),
            existing: BTreeMap::new(),
        };
        zone.add(Record::new(apex, soa_ttl, RData::Soa(soa)));
        zone
    }

    /// A conventional SOA for simulated zones; `minimum` is the negative TTL.
    pub fn default_soa(apex: &Name, negative_ttl: u32) -> Soa {
        let ns = apex.child("ns1").unwrap_or_else(|_| apex.clone());
        let rname = apex.child("hostmaster").unwrap_or_else(|_| apex.clone());
        Soa {
            mname: ns,
            rname,
            serial: 1,
            refresh: 7200,
            retry: 3600,
            expire: 1_209_600,
            minimum: negative_ttl,
        }
    }

    pub fn apex(&self) -> &Name {
        &self.apex
    }

    pub fn soa(&self) -> &Soa {
        &self.soa
    }

    /// The SOA record used in negative responses.
    pub fn soa_record(&self) -> Record {
        Record::new(
            self.apex.clone(),
            self.soa_ttl,
            RData::Soa(self.soa.clone()),
        )
    }

    /// Number of RRsets (including the apex SOA).
    #[cfg(test)]
    fn rrset_count(&self) -> usize {
        self.records.len()
    }

    /// Adds one record. The owner must be at or below the apex.
    ///
    /// # Panics
    /// Panics if the owner is outside the zone (a configuration bug in the
    /// simulation, not a runtime input).
    pub fn add(&mut self, record: Record) {
        assert!(
            record.name.is_subdomain_of(&self.apex),
            "record owner {} outside zone {}",
            record.name,
            self.apex
        );
        for name in owner_and_ancestors(&record.name, &self.apex) {
            *self.existing.entry(name).or_default() += 1;
        }
        let key = (record.name.clone(), record.rtype().to_u16());
        self.records.entry(key).or_default().push(record);
    }

    /// Removes all records at `name` (all types). Returns how many were
    /// removed. The owner and each ancestor lose that many records from
    /// their counts, so an ancestor left with nothing at or below it stops
    /// existing and answers NXDOMAIN again.
    pub fn remove_name(&mut self, name: &Name) -> usize {
        let keys: Vec<_> = self
            .records
            .range((name.clone(), 0)..=(name.clone(), u16::MAX))
            .map(|(k, _)| k.clone())
            .collect();
        let mut removed = 0;
        for k in keys {
            if let Some(v) = self.records.remove(&k) {
                removed += v.len();
            }
        }
        if removed > 0 {
            for owner in owner_and_ancestors(name, &self.apex) {
                if let Some(count) = self.existing.get_mut(&owner) {
                    *count -= removed;
                    if *count == 0 {
                        self.existing.remove(&owner);
                    }
                }
            }
        }
        removed
    }

    /// Looks up `qname`/`qtype` with full RFC 1034 semantics (delegation,
    /// CNAME is returned as the answer without chasing, NODATA vs NXDOMAIN).
    pub fn lookup(&self, qname: &Name, qtype: RType) -> ZoneAnswer {
        if !qname.is_subdomain_of(&self.apex) {
            return ZoneAnswer::OutOfZone;
        }

        // Walk from just below the apex down to the qname looking for a
        // delegation cut (an NS RRset below the apex). If the qname equals
        // the cut and asks for NS, answer from the parent side as a
        // referral anyway (matches real-world parents).
        for labels in self.apex.label_count() + 1..=qname.label_count() {
            let candidate = qname.suffix(labels);
            if let Some(ns) = self.records.get(&(candidate, RType::Ns.to_u16())) {
                return ZoneAnswer::Delegation(ns.clone());
            }
        }

        if let Some(rrset) = self.records.get(&(qname.clone(), qtype.to_u16())) {
            return ZoneAnswer::Answer(rrset.clone());
        }
        // CNAME at the name answers any type (except the CNAME itself case
        // handled above).
        if let Some(cname) = self.records.get(&(qname.clone(), RType::Cname.to_u16())) {
            return ZoneAnswer::Answer(cname.clone());
        }
        // Holding records or being an empty non-terminal both count.
        if self.existing.contains_key(qname) {
            return ZoneAnswer::NoData(self.soa_record());
        }
        ZoneAnswer::NxDomain(self.soa_record())
    }

    /// Iterates all records in the zone.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.records.values().flatten()
    }
}

/// `name` and each of its ancestors down to and including `apex`.
fn owner_and_ancestors<'a>(name: &'a Name, apex: &Name) -> impl Iterator<Item = Name> + 'a {
    (apex.label_count()..=name.label_count()).map(|labels| name.suffix(labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn example_zone() -> Zone {
        let apex = n("example.com");
        let soa = Zone::default_soa(&apex, 900);
        let mut z = Zone::new(apex.clone(), soa, 3600);
        z.add(Record::new(
            n("example.com"),
            3600,
            RData::Ns(n("ns1.example.com")),
        ));
        z.add(Record::new(
            n("ns1.example.com"),
            3600,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        z.add(Record::new(
            n("www.example.com"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 80)),
        ));
        z.add(Record::new(
            n("alias.example.com"),
            300,
            RData::Cname(n("www.example.com")),
        ));
        // Delegated child zone.
        z.add(Record::new(
            n("sub.example.com"),
            3600,
            RData::Ns(n("ns1.sub.example.com")),
        ));
        z
    }

    #[test]
    fn answer_on_exact_match() {
        let z = example_zone();
        match z.lookup(&n("www.example.com"), RType::A) {
            ZoneAnswer::Answer(recs) => {
                assert_eq!(recs.len(), 1);
                assert_eq!(recs[0].rdata, RData::A(Ipv4Addr::new(192, 0, 2, 80)));
            }
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn nxdomain_for_missing_name() {
        let z = example_zone();
        match z.lookup(&n("missing.example.com"), RType::A) {
            ZoneAnswer::NxDomain(soa) => match soa.rdata {
                RData::Soa(s) => assert_eq!(s.minimum, 900),
                other => panic!("expected SOA, got {other}"),
            },
            other => panic!("expected NXDOMAIN, got {other:?}"),
        }
    }

    #[test]
    fn nodata_for_existing_name_wrong_type() {
        let z = example_zone();
        assert!(matches!(
            z.lookup(&n("www.example.com"), RType::Mx),
            ZoneAnswer::NoData(_)
        ));
    }

    #[test]
    fn nodata_for_empty_non_terminal() {
        let mut z = example_zone();
        z.add(Record::new(
            n("a.b.example.com"),
            60,
            RData::A(Ipv4Addr::new(192, 0, 2, 9)),
        ));
        // "b.example.com" holds no records but has a descendant.
        assert!(matches!(
            z.lookup(&n("b.example.com"), RType::A),
            ZoneAnswer::NoData(_)
        ));
    }

    #[test]
    fn cname_answers_other_types() {
        let z = example_zone();
        match z.lookup(&n("alias.example.com"), RType::A) {
            ZoneAnswer::Answer(recs) => {
                assert_eq!(recs[0].rtype(), RType::Cname);
            }
            other => panic!("expected CNAME answer, got {other:?}"),
        }
    }

    #[test]
    fn delegation_below_cut() {
        let z = example_zone();
        for q in [
            "sub.example.com",
            "deep.sub.example.com",
            "a.b.sub.example.com",
        ] {
            match z.lookup(&n(q), RType::A) {
                ZoneAnswer::Delegation(ns) => {
                    assert_eq!(ns[0].rdata, RData::Ns(n("ns1.sub.example.com")));
                }
                other => panic!("expected delegation for {q}, got {other:?}"),
            }
        }
    }

    #[test]
    fn out_of_zone() {
        let z = example_zone();
        assert_eq!(z.lookup(&n("example.org"), RType::A), ZoneAnswer::OutOfZone);
        assert_eq!(z.lookup(&n("com"), RType::A), ZoneAnswer::OutOfZone);
    }

    #[test]
    fn apex_ns_is_authoritative_answer() {
        let z = example_zone();
        assert!(matches!(
            z.lookup(&n("example.com"), RType::Ns),
            ZoneAnswer::Answer(_)
        ));
    }

    #[test]
    fn soa_lookup_at_apex() {
        let z = example_zone();
        match z.lookup(&n("example.com"), RType::Soa) {
            ZoneAnswer::Answer(recs) => assert_eq!(recs[0].rtype(), RType::Soa),
            other => panic!("expected SOA answer, got {other:?}"),
        }
    }

    #[test]
    fn remove_name_produces_nxdomain() {
        let mut z = example_zone();
        assert_eq!(z.remove_name(&n("www.example.com")), 1);
        assert!(matches!(
            z.lookup(&n("www.example.com"), RType::A),
            ZoneAnswer::NxDomain(_)
        ));
        assert_eq!(z.remove_name(&n("www.example.com")), 0);
    }

    #[test]
    fn removing_the_only_descendant_prunes_empty_non_terminals() {
        let mut z = example_zone();
        z.add(Record::new(
            n("a.b.example.com"),
            60,
            RData::A(Ipv4Addr::new(192, 0, 2, 9)),
        ));
        assert_eq!(z.remove_name(&n("a.b.example.com")), 1);
        // RFC 1034 §4.3.2: with nothing left below it, "b" no longer exists.
        for q in ["b.example.com", "a.b.example.com"] {
            assert!(
                matches!(z.lookup(&n(q), RType::A), ZoneAnswer::NxDomain(_)),
                "{q} should be NXDOMAIN"
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside zone")]
    fn adding_out_of_zone_record_panics() {
        let mut z = example_zone();
        z.add(Record::new(
            n("other.org"),
            60,
            RData::A(Ipv4Addr::LOCALHOST),
        ));
    }

    #[test]
    fn rrset_count_includes_soa() {
        let z = example_zone();
        assert_eq!(z.rrset_count(), 6); // SOA, apex NS, ns1 A, www A, alias CNAME, sub NS
    }
}
