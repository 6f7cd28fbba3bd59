//! The simulated DNS hierarchy: root, TLD, and authoritative servers wired
//! to the registry so that registrations and expirations change what
//! resolves — the mechanism that turns expired domains into NXDomains.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use nxd_dns_wire::{Edns, EdnsMessage, Message, Name, RCode, RData, RType, Record, WireError};

use crate::registry::{EventKind, Phase, Registry, RegistryError};
use crate::resolver::clamp_negative_soa;
use crate::time::SimTime;
use crate::zone::{Zone, ZoneAnswer};

/// The simulation's one EDNS rule (RFC 6891 §6.1.1), shared by the
/// authoritative servers and the recursive resolver: a response to a query
/// that carried an OPT carries one back (version 0, payload
/// [`nxd_dns_wire::DEFAULT_EDNS_PAYLOAD`]); a query without one gets none.
pub(crate) fn echo_edns(query: &Message, response: &mut Message) {
    if query.edns().is_some() {
        response.set_edns(Edns::default());
    }
}

/// Which server a query is sent to.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ServerRef {
    Root,
    Tld(String),
    Auth(Name),
}

/// Default negative-caching TTL (SOA minimum) used by simulated zones.
pub const DEFAULT_NEGATIVE_TTL: u32 = 900;
/// Default TTL for positive records in simulated zones.
pub const DEFAULT_POSITIVE_TTL: u32 = 3600;

/// The assembled hierarchy. Owns the [`Registry`]; driving time through
/// [`SimDns::tick`] keeps zones consistent with the lifecycle state.
pub struct SimDns {
    root: Zone,
    tlds: HashMap<String, Zone>,
    auth: HashMap<Name, Zone>,
    registry: Registry,
    /// IPs assigned to registered domains (apex A record).
    hosting: HashMap<Name, Ipv4Addr>,
}

impl SimDns {
    /// Builds a hierarchy serving the given TLDs.
    pub fn new(tlds: &[&str], start: SimTime) -> Self {
        let root_apex = Name::root();
        let soa = Zone::default_soa(
            &Name::from_labels(["root-servers"]).unwrap(),
            DEFAULT_NEGATIVE_TTL,
        );
        let mut root = Zone::new(root_apex, soa, DEFAULT_POSITIVE_TTL);
        let mut tld_zones = HashMap::new();
        for tld in tlds {
            let apex: Name = tld.parse().expect("valid TLD label");
            assert_eq!(apex.label_count(), 1, "TLDs are single labels");
            let ns = apex.child("ns").unwrap();
            root.add(Record::new(apex.clone(), 172_800, RData::Ns(ns.clone())));
            // In-bailiwick delegation: the root carries glue for the TLD's
            // nameserver (RFC 1034 §4.2.1).
            root.add(Record::new(
                ns,
                172_800,
                RData::A(Ipv4Addr::new(192, 0, 2, 53)),
            ));
            let soa = Zone::default_soa(&apex, DEFAULT_NEGATIVE_TTL);
            tld_zones.insert(tld.to_string(), Zone::new(apex, soa, DEFAULT_POSITIVE_TTL));
        }
        SimDns {
            root,
            tlds: tld_zones,
            auth: HashMap::new(),
            registry: Registry::new(start),
            hosting: HashMap::new(),
        }
    }

    /// A hierarchy with the paper's top-20 NXDomain TLDs (§4.3) preloaded.
    pub fn with_popular_tlds(start: SimTime) -> Self {
        SimDns::new(
            &[
                "com", "net", "cn", "ru", "org", "de", "uk", "info", "top", "xyz", "nl", "br",
                "io", "fr", "eu", "online", "jp", "biz", "it", "au",
                // plus a few used by the honeypot domain set
                "moda", "work", "gq", "name",
            ],
            start,
        )
    }

    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    #[cfg(test)]
    fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    pub fn now(&self) -> SimTime {
        self.registry.now()
    }

    /// Every zone the hierarchy currently serves (root, TLDs, authoritative),
    /// e.g. for sweeping them through the `nxd-analyzer` zone passes.
    pub fn zones(&self) -> impl Iterator<Item = &Zone> {
        std::iter::once(&self.root)
            .chain(self.tlds.values())
            .chain(self.auth.values())
    }

    /// Registers a domain and provisions its authoritative zone (apex A,
    /// `www` A, apex NS) plus the TLD delegation.
    pub fn register_domain(
        &mut self,
        name: &Name,
        owner: &str,
        registrar: &str,
        years: u32,
        ip: Ipv4Addr,
    ) -> Result<SimTime, RegistryError> {
        let tld = name.tld().ok_or(RegistryError::NotRegistrable)?.to_string();
        if !self.tlds.contains_key(&tld) {
            return Err(RegistryError::NotRegistrable);
        }
        let expires = self.registry.register(name, owner, registrar, years)?;
        self.hosting.insert(name.clone(), ip);
        self.provision(name, ip);
        Ok(expires)
    }

    fn provision(&mut self, name: &Name, ip: Ipv4Addr) {
        let tld = name.tld().expect("registered names have a TLD").to_string();
        let ns_name = name.child("ns1").expect("short label");
        if let Some(tld_zone) = self.tlds.get_mut(&tld) {
            tld_zone.add(Record::new(
                name.clone(),
                172_800,
                RData::Ns(ns_name.clone()),
            ));
            // Glue for the in-bailiwick nameserver below the cut.
            tld_zone.add(Record::new(ns_name.clone(), 172_800, RData::A(ip)));
        }
        let soa = Zone::default_soa(name, DEFAULT_NEGATIVE_TTL);
        let mut zone = Zone::new(name.clone(), soa, DEFAULT_POSITIVE_TTL);
        zone.add(Record::new(
            name.clone(),
            DEFAULT_POSITIVE_TTL,
            RData::Ns(ns_name.clone()),
        ));
        zone.add(Record::new(ns_name, DEFAULT_POSITIVE_TTL, RData::A(ip)));
        zone.add(Record::new(
            name.clone(),
            DEFAULT_POSITIVE_TTL,
            RData::A(ip),
        ));
        zone.add(Record::new(
            name.child("www").expect("short label"),
            DEFAULT_POSITIVE_TTL,
            RData::A(ip),
        ));
        self.auth.insert(name.clone(), zone);
    }

    fn deprovision(&mut self, name: &Name) {
        if let Some(tld) = name.tld() {
            let tld = tld.to_string();
            if let Some(tld_zone) = self.tlds.get_mut(&tld) {
                tld_zone.remove_name(name);
                if let Ok(ns_name) = name.child("ns1") {
                    tld_zone.remove_name(&ns_name);
                }
            }
        }
        self.auth.remove(name);
    }

    /// Adds an extra record to a registered domain's authoritative zone.
    pub fn add_record(&mut self, apex: &Name, record: Record) -> bool {
        match self.auth.get_mut(apex) {
            Some(zone) => {
                zone.add(record);
                true
            }
            None => false,
        }
    }

    /// Advances time; lifecycle transitions update delegations, making
    /// expired domains return NXDOMAIN from their TLD.
    pub fn tick(&mut self, to: SimTime) {
        self.registry.tick(to);
        let events = self.registry.drain_events();
        for ev in &events {
            match &ev.kind {
                EventKind::Expired => self.deprovision(&ev.domain),
                EventKind::Renewed { .. } | EventKind::Restored { .. }
                    if !self.auth.contains_key(&ev.domain) =>
                {
                    let ip = self
                        .hosting
                        .get(&ev.domain)
                        .copied()
                        .unwrap_or(Ipv4Addr::new(198, 51, 100, 1));
                    self.provision(&ev.domain, ip);
                }
                EventKind::DropCaught { .. } => {
                    let ip = Ipv4Addr::new(203, 0, 113, 7); // parking page
                    self.hosting.insert(ev.domain.clone(), ip);
                    self.provision(&ev.domain, ip);
                }
                _ => {}
            }
        }
    }

    /// Sends a query to one server in the hierarchy.
    pub fn query_server(&self, server: &ServerRef, qname: &Name, qtype: RType) -> ZoneAnswer {
        match server {
            ServerRef::Root => {
                // The root zone delegates each TLD; lookups inside root for
                // names under a TLD yield the delegation.
                self.root.lookup(qname, qtype)
            }
            ServerRef::Tld(tld) => match self.tlds.get(tld) {
                Some(zone) => zone.lookup(qname, qtype),
                None => ZoneAnswer::OutOfZone,
            },
            ServerRef::Auth(apex) => match self.auth.get(apex) {
                Some(zone) => zone.lookup(qname, qtype),
                None => ZoneAnswer::OutOfZone,
            },
        }
    }

    /// Wire-level authoritative responder: decodes a query, answers it from
    /// one server's zone, and encodes the response with conformant header
    /// bits — AA set on authoritative data and denials (RFC 1035 §4.1.1),
    /// RA clear (authoritative servers offer no recursion), and the zone
    /// SOA (TTL capped at the SOA MINIMUM) in the authority section of
    /// negative answers (RFC 2308 §2.1), and an OPT record (version 0,
    /// [`DEFAULT_EDNS_PAYLOAD`](nxd_dns_wire::DEFAULT_EDNS_PAYLOAD)) when
    /// the query carried one (RFC 6891 §7).
    pub fn respond(&self, server: &ServerRef, query_wire: &[u8]) -> Result<Vec<u8>, WireError> {
        self.respond_to(server, &Message::decode(query_wire)?)
    }

    /// [`SimDns::respond`] for a query the caller has already decoded;
    /// the only error left is an un-encodable response.
    pub fn respond_to(&self, server: &ServerRef, query: &Message) -> Result<Vec<u8>, WireError> {
        let mut resp = match query.questions.first() {
            Some(q) => match self.query_server(server, &q.qname, q.qtype) {
                ZoneAnswer::Answer(answers) => {
                    let mut resp = Message::response(query, RCode::NoError);
                    resp.header.aa = true;
                    resp.answers = answers;
                    resp
                }
                ZoneAnswer::NoData(soa) => {
                    let mut resp = Message::response(query, RCode::NoError);
                    resp.header.aa = true;
                    resp.authorities = vec![clamp_negative_soa(&soa)];
                    resp
                }
                ZoneAnswer::NxDomain(soa) => {
                    let mut resp = Message::response(query, RCode::NxDomain);
                    resp.header.aa = true;
                    resp.authorities = vec![clamp_negative_soa(&soa)];
                    resp
                }
                ZoneAnswer::Delegation(ns) => {
                    // Referral: not authoritative for the child zone.
                    let mut resp = Message::response(query, RCode::NoError);
                    resp.authorities = ns;
                    resp
                }
                ZoneAnswer::OutOfZone => Message::response(query, RCode::Refused),
            },
            None => Message::response(query, RCode::FormErr),
        };
        resp.header.ra = false;
        echo_edns(query, &mut resp);
        resp.encode()
    }

    /// Resolves a referral: the server responsible for the zone whose apex
    /// is the owner name of the delegation NS records.
    pub fn server_for_delegation(&self, delegation_owner: &Name) -> Option<ServerRef> {
        if delegation_owner.label_count() == 1 {
            let tld = delegation_owner.label(0);
            if self.tlds.contains_key(tld) {
                return Some(ServerRef::Tld(tld.to_string()));
            }
            return None;
        }
        if self.auth.contains_key(delegation_owner) {
            return Some(ServerRef::Auth(delegation_owner.clone()));
        }
        None
    }

    /// Which server ultimately answers for a name (used as a shortcut by
    /// tests; the resolver follows delegations instead).
    pub fn next_server(&self, qname: &Name) -> Option<ServerRef> {
        if let Some(reg) = qname.registrable() {
            if self.auth.contains_key(&reg) {
                return Some(ServerRef::Auth(reg));
            }
        }
        if let Some(tld) = qname.tld() {
            if self.tlds.contains_key(tld) {
                return Some(ServerRef::Tld(tld.to_string()));
            }
        }
        None
    }

    /// Phase of a registrable name (convenience passthrough).
    pub fn phase(&self, name: &Name) -> Phase {
        self.registry.phase(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn dns() -> SimDns {
        let mut d = SimDns::new(&["com", "net"], SimTime::ERA_START);
        d.register_domain(
            &n("example.com"),
            "alice",
            "godaddy",
            1,
            Ipv4Addr::new(192, 0, 2, 80),
        )
        .unwrap();
        d
    }

    #[test]
    fn root_delegates_tlds() {
        let d = dns();
        match d.query_server(&ServerRef::Root, &n("example.com"), RType::A) {
            ZoneAnswer::Delegation(ns) => assert_eq!(ns[0].name, n("com")),
            other => panic!("expected delegation, got {other:?}"),
        }
    }

    #[test]
    fn unknown_tld_is_nxdomain_at_root() {
        let d = dns();
        assert!(matches!(
            d.query_server(&ServerRef::Root, &n("example.zz"), RType::A),
            ZoneAnswer::NxDomain(_)
        ));
    }

    #[test]
    fn tld_delegates_registered_domain() {
        let d = dns();
        match d.query_server(
            &ServerRef::Tld("com".into()),
            &n("www.example.com"),
            RType::A,
        ) {
            ZoneAnswer::Delegation(ns) => assert_eq!(ns[0].name, n("example.com")),
            other => panic!("expected delegation, got {other:?}"),
        }
    }

    #[test]
    fn tld_nxdomain_for_unregistered() {
        let d = dns();
        assert!(matches!(
            d.query_server(
                &ServerRef::Tld("com".into()),
                &n("unregistered.com"),
                RType::A
            ),
            ZoneAnswer::NxDomain(_)
        ));
    }

    #[test]
    fn auth_answers_a_queries() {
        let d = dns();
        match d.query_server(
            &ServerRef::Auth(n("example.com")),
            &n("www.example.com"),
            RType::A,
        ) {
            ZoneAnswer::Answer(recs) => {
                assert_eq!(recs[0].rdata, RData::A(Ipv4Addr::new(192, 0, 2, 80)));
            }
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn expiry_removes_delegation() {
        let mut d = dns();
        d.tick(SimTime::ERA_START + SimDuration::days(366));
        assert!(matches!(
            d.query_server(&ServerRef::Tld("com".into()), &n("example.com"), RType::A),
            ZoneAnswer::NxDomain(_)
        ));
        assert!(d.next_server(&n("www.example.com")).is_some());
        assert_eq!(d.phase(&n("example.com")), Phase::AutoRenewGrace);
    }

    #[test]
    fn renewal_restores_delegation() {
        let mut d = dns();
        d.tick(SimTime::ERA_START + SimDuration::days(366));
        d.registry_mut().renew(&n("example.com"), 1).unwrap();
        d.tick(SimTime::ERA_START + SimDuration::days(367));
        assert!(matches!(
            d.query_server(&ServerRef::Tld("com".into()), &n("example.com"), RType::A),
            ZoneAnswer::Delegation(_)
        ));
    }

    #[test]
    fn expiry_renewal_and_reexpiry_round_trip_the_tld_zone() {
        let mut d = dns();
        let tld = ServerRef::Tld("com".into());
        let answers = |d: &SimDns| {
            ["example.com", "ns1.example.com"].map(|q| d.query_server(&tld, &n(q), RType::A))
        };
        d.tick(SimTime::ERA_START + SimDuration::days(366));
        for answer in answers(&d) {
            assert!(matches!(answer, ZoneAnswer::NxDomain(_)), "{answer:?}");
        }
        let expires = d.registry_mut().renew(&n("example.com"), 1).unwrap();
        d.tick(SimTime::ERA_START + SimDuration::days(367));
        for answer in answers(&d) {
            assert!(matches!(answer, ZoneAnswer::Delegation(_)), "{answer:?}");
        }
        d.tick(expires + SimDuration::days(1));
        for answer in answers(&d) {
            assert!(matches!(answer, ZoneAnswer::NxDomain(_)), "{answer:?}");
        }
    }

    #[test]
    fn drop_catch_reprovisions() {
        let mut d = dns();
        d.registry_mut().drop_catch(&n("example.com"), "speculator");
        d.tick(SimTime::ERA_START + SimDuration::days(446));
        assert!(matches!(
            d.query_server(
                &ServerRef::Auth(n("example.com")),
                &n("example.com"),
                RType::A
            ),
            ZoneAnswer::Answer(_)
        ));
    }

    #[test]
    fn next_server_routing() {
        let d = dns();
        assert_eq!(
            d.next_server(&n("www.example.com")),
            Some(ServerRef::Auth(n("example.com")))
        );
        assert_eq!(
            d.next_server(&n("other.com")),
            Some(ServerRef::Tld("com".into()))
        );
        assert_eq!(d.next_server(&n("x.zz")), None);
    }

    #[test]
    fn add_record_to_live_zone() {
        let mut d = dns();
        let ok = d.add_record(
            &n("example.com"),
            Record::new(
                n("api.example.com"),
                60,
                RData::A(Ipv4Addr::new(192, 0, 2, 81)),
            ),
        );
        assert!(ok);
        assert!(matches!(
            d.query_server(
                &ServerRef::Auth(n("example.com")),
                &n("api.example.com"),
                RType::A
            ),
            ZoneAnswer::Answer(_)
        ));
        assert!(!d.add_record(
            &n("ghost.com"),
            Record::new(n("ghost.com"), 60, RData::A(Ipv4Addr::LOCALHOST))
        ));
    }
}
