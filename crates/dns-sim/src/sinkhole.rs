//! DNS sinkholing — the paper's §7 plan: "We attempt to sinkhole NXDomain
//! traffic to dedicated analysis servers, so we can identify security
//! problems directly based on DNS traffic analysis."
//!
//! A [`Sinkhole`] sits at the resolver's edge (the same interposition point
//! as [`crate::hijack::HijackPolicy`], but defensive): NXDOMAIN responses
//! for names on its watchlist are rewritten to point at an analysis server,
//! and every redirected query is logged with its client so downstream
//! stream analysis (e.g. `nxd-dga`'s `StreamDetector`) can identify
//! infected hosts.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use nxd_dns_wire::{Name, RCode, RData, Record};

use crate::resolver::Resolution;
use crate::time::SimTime;

/// One redirected query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkholeEvent {
    pub at: SimTime,
    /// Opaque client identity (source address hash, subscriber id, …).
    pub client: u64,
    pub qname: Name,
}

/// A defensive NXDOMAIN sinkhole with a watchlist and a query log.
#[derive(Debug, Clone)]
pub struct Sinkhole {
    watchlist: HashSet<Name>,
    /// The analysis server's address returned in rewritten answers.
    pub server: Ipv4Addr,
    /// TTL of the forged record (kept short so takedowns propagate).
    pub ttl: u32,
    log: Vec<SinkholeEvent>,
}

impl Sinkhole {
    pub fn new(server: Ipv4Addr) -> Self {
        Sinkhole {
            watchlist: HashSet::new(),
            server,
            ttl: 60,
            log: Vec::new(),
        }
    }

    /// Adds one name to the watchlist.
    pub fn watch(&mut self, name: Name) {
        self.watchlist.insert(name);
    }

    /// Adds every name of an iterator (e.g. a day's DGA candidates).
    pub fn watch_all<I: IntoIterator<Item = Name>>(&mut self, names: I) {
        self.watchlist.extend(names);
    }

    pub fn watchlist_len(&self) -> usize {
        self.watchlist.len()
    }

    #[cfg(test)]
    fn is_watched(&self, name: &Name) -> bool {
        self.watchlist.contains(name)
    }

    /// Applies the sinkhole to a resolution for `client`: watched NXDOMAINs
    /// are rewritten to the analysis server and logged; everything else
    /// passes through untouched.
    pub fn apply(
        &mut self,
        client: u64,
        qname: &Name,
        resolution: Resolution,
        now: SimTime,
    ) -> Resolution {
        if resolution.rcode == RCode::NxDomain && self.watchlist.contains(qname) {
            self.log.push(SinkholeEvent {
                at: now,
                client,
                qname: qname.clone(),
            });
            Resolution {
                rcode: RCode::NoError,
                answers: vec![Record::new(qname.clone(), self.ttl, RData::A(self.server))],
                authorities: Vec::new(),
                from_cache: resolution.from_cache,
                upstream_queries: resolution.upstream_queries,
            }
        } else {
            resolution
        }
    }

    /// The accumulated query log.
    pub fn log(&self) -> &[SinkholeEvent] {
        &self.log
    }

    /// Drains the log (for periodic analysis batches).
    #[cfg(test)]
    fn drain_log(&mut self) -> Vec<SinkholeEvent> {
        std::mem::take(&mut self.log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nx() -> Resolution {
        Resolution {
            rcode: RCode::NxDomain,
            answers: vec![],
            authorities: vec![],
            from_cache: false,
            upstream_queries: 2,
        }
    }

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn sinkhole() -> Sinkhole {
        let mut s = Sinkhole::new(Ipv4Addr::new(198, 51, 100, 53));
        s.watch(n("dga-candidate.com"));
        s
    }

    #[test]
    fn watched_nxdomain_is_redirected_and_logged() {
        let mut s = sinkhole();
        let res = s.apply(42, &n("dga-candidate.com"), nx(), SimTime(1_000));
        assert_eq!(res.rcode, RCode::NoError);
        assert_eq!(res.answers.len(), 1);
        assert_eq!(
            res.answers[0].rdata,
            RData::A(Ipv4Addr::new(198, 51, 100, 53))
        );
        assert_eq!(res.answers[0].ttl, 60);
        assert_eq!(s.log().len(), 1);
        assert_eq!(s.log()[0].client, 42);
    }

    #[test]
    fn unwatched_nxdomain_passes_through() {
        let mut s = sinkhole();
        let res = s.apply(1, &n("other.com"), nx(), SimTime(0));
        assert_eq!(res.rcode, RCode::NxDomain);
        assert!(s.log().is_empty());
    }

    #[test]
    fn noerror_never_rewritten() {
        let mut s = sinkhole();
        let ok = Resolution {
            rcode: RCode::NoError,
            answers: vec![],
            authorities: vec![],
            from_cache: true,
            upstream_queries: 0,
        };
        let res = s.apply(1, &n("dga-candidate.com"), ok.clone(), SimTime(0));
        assert_eq!(res, ok);
        assert!(s.log().is_empty());
    }

    #[test]
    fn watch_all_and_drain() {
        let mut s = sinkhole();
        s.watch_all(vec![n("a.com"), n("b.com")]);
        assert_eq!(s.watchlist_len(), 3);
        assert!(s.is_watched(&n("a.com")));
        s.apply(7, &n("a.com"), nx(), SimTime(5));
        s.apply(8, &n("b.com"), nx(), SimTime(6));
        let drained = s.drain_log();
        assert_eq!(drained.len(), 2);
        assert!(s.log().is_empty());
    }
}
