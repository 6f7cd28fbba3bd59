//! Reverse DNS (PTR) for the honeypot's source-IP legitimacy checks.
//!
//! The paper's §6.2 categorizer performs reverse IP lookups to decide whether
//! a request comes from a recognizable service ("If the reverse IP lookup
//! results in a hostname that belongs to a popular service, such as Google or
//! Yahoo crawler, we could have high certainty that such requests are
//! benign"). The honeypot-era actors live in well-known address ranges; this
//! module resolves those ranges to hostnames, including the `google-proxy`
//! hosts that dominate Figure 15.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use nxd_dns_wire::Name;

/// Template for hostnames in a range: `{ip}` expands to the dash-separated
/// quad (`66-249-66-1`), mirroring real provider PTR conventions.
#[derive(Debug, Clone)]
struct RangeEntry {
    network: u32,
    prefix_len: u8,
    template: String,
}

/// A reverse-DNS view: exact entries plus CIDR range templates.
#[derive(Debug, Default, Clone)]
pub struct ReverseDns {
    exact: HashMap<Ipv4Addr, Name>,
    ranges: Vec<RangeEntry>,
}

impl ReverseDns {
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps one address to a hostname.
    pub fn insert(&mut self, ip: Ipv4Addr, hostname: Name) {
        self.exact.insert(ip, hostname);
    }

    /// Maps a CIDR range to a hostname template (longest prefix wins).
    ///
    /// # Panics
    /// Panics if `prefix_len > 32` or the template does not parse into a
    /// valid name after `{ip}` substitution of a sample address.
    pub fn insert_range(&mut self, network: Ipv4Addr, prefix_len: u8, template: &str) {
        assert!(prefix_len <= 32, "bad prefix length");
        let sample = template.replace("{ip}", "192-0-2-1");
        sample
            .parse::<Name>()
            .expect("template must expand to a valid name");
        let mask = prefix_mask(prefix_len);
        self.ranges.push(RangeEntry {
            network: u32::from(network) & mask,
            prefix_len,
            template: template.to_string(),
        });
        // Keep longest-prefix-first so the first match wins.
        self.ranges.sort_by_key(|r| std::cmp::Reverse(r.prefix_len));
    }

    /// The PTR owner name for an address (`1.2.0.192.in-addr.arpa`).
    #[cfg(test)]
    fn ptr_name(ip: Ipv4Addr) -> Name {
        let o = ip.octets();
        format!("{}.{}.{}.{}.in-addr.arpa", o[3], o[2], o[1], o[0])
            .parse()
            .expect("valid")
    }

    /// Resolves an address to its hostname, if any mapping covers it.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<Name> {
        if let Some(name) = self.exact.get(&ip) {
            return Some(name.clone());
        }
        let addr = u32::from(ip);
        for range in &self.ranges {
            let mask = prefix_mask(range.prefix_len);
            if addr & mask == range.network {
                let quad = ip.octets().map(|o| o.to_string()).join("-");
                let host = range.template.replace("{ip}", &quad);
                return host.parse().ok();
            }
        }
        None
    }

    /// The provider label of an address: the registrable domain of its PTR
    /// hostname (`google-proxy-66-249-81-1.google.com` → `google.com`).
    pub fn provider(&self, ip: Ipv4Addr) -> Option<Name> {
        self.lookup(ip).and_then(|h| h.registrable())
    }
}

fn prefix_mask(prefix_len: u8) -> u32 {
    if prefix_len == 0 {
        0
    } else {
        u32::MAX << (32 - prefix_len as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn exact_beats_range() {
        let mut r = ReverseDns::new();
        r.insert_range(ip("10.0.0.0"), 8, "host-{ip}.cloud.example");
        r.insert(ip("10.1.2.3"), "special.example.com".parse().unwrap());
        assert_eq!(
            r.lookup(ip("10.1.2.3")).unwrap().to_string(),
            "special.example.com"
        );
        assert_eq!(
            r.lookup(ip("10.1.2.4")).unwrap().to_string(),
            "host-10-1-2-4.cloud.example"
        );
    }

    #[test]
    fn longest_prefix_wins() {
        let mut r = ReverseDns::new();
        r.insert_range(ip("10.0.0.0"), 8, "wide-{ip}.a.example");
        r.insert_range(ip("10.99.0.0"), 16, "narrow-{ip}.b.example");
        assert!(r
            .lookup(ip("10.99.5.5"))
            .unwrap()
            .to_string()
            .starts_with("narrow"));
        assert!(r
            .lookup(ip("10.5.5.5"))
            .unwrap()
            .to_string()
            .starts_with("wide"));
    }

    #[test]
    fn unknown_ip_unresolved() {
        let r = ReverseDns::new();
        assert_eq!(r.lookup(ip("8.8.8.8")), None);
    }

    #[test]
    fn ptr_name_format() {
        assert_eq!(
            ReverseDns::ptr_name(ip("93.184.216.34")).to_string(),
            "34.216.184.93.in-addr.arpa"
        );
    }

    #[test]
    fn provider_extracts_registrable() {
        let mut r = ReverseDns::new();
        r.insert_range(ip("66.249.80.0"), 20, "google-proxy-{ip}.google.com");
        assert_eq!(
            r.provider(ip("66.249.81.7")).unwrap().to_string(),
            "google.com"
        );
    }

    #[test]
    fn zero_prefix_matches_everything() {
        let mut r = ReverseDns::new();
        r.insert_range(ip("0.0.0.0"), 0, "any-{ip}.default.example");
        assert!(r.lookup(ip("200.201.202.203")).is_some());
    }
}
