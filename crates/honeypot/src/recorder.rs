//! The traffic recorder: accepts every inbound packet and answers the
//! port-distribution and stream-repetition questions the analysis needs.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use nxd_telemetry::{Counter, Registry};

use crate::packet::Packet;

/// Recorder attached to one hosting server (optionally serving a domain).
#[derive(Debug, Default)]
pub struct TrafficRecorder {
    /// Domain hosted on this server; `None` for the no-hosting baseline run.
    pub domain: Option<String>,
    packets: Vec<Packet>,
    packets_total: Counter,
}

impl TrafficRecorder {
    /// A recorder for a server hosting `domain`.
    #[cfg(test)]
    fn for_domain(domain: &str) -> Self {
        TrafficRecorder {
            domain: Some(domain.to_string()),
            packets: Vec::new(),
            packets_total: Counter::new(),
        }
    }

    /// A recorder for a bare cloud instance (§6.1's no-hosting phase).
    #[cfg(test)]
    fn no_hosting() -> Self {
        TrafficRecorder::default()
    }

    /// Counts recorded packets on `registry` as
    /// `honeypot_recorded_packets_total{phase=...}` (phase: the hosted
    /// domain, or `no-hosting`), carrying the current count over.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        let phase = self.domain.as_deref().unwrap_or("no-hosting");
        let next = registry.counter_with("honeypot_recorded_packets_total", &[("phase", phase)]);
        next.add(self.packets_total.get());
        self.packets_total = next;
    }

    /// Records one packet.
    pub fn record(&mut self, packet: Packet) {
        self.packets_total.inc();
        self.packets.push(packet);
    }

    pub fn packets(&self) -> &[Packet] {
        &self.packets
    }

    pub fn len(&self) -> usize {
        self.packets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Distinct source addresses seen (the no-hosting exclusion list).
    #[cfg(test)]
    fn source_ips(&self) -> std::collections::HashSet<Ipv4Addr> {
        self.packets.iter().map(|p| p.src_ip).collect()
    }

    /// Packets per destination port, descending (Fig. 10).
    #[cfg(test)]
    fn port_histogram(&self) -> Vec<(u16, u64)> {
        let mut counts: HashMap<u16, u64> = HashMap::new();
        for p in &self.packets {
            *counts.entry(p.dst_port).or_insert(0) += 1;
        }
        let mut out: Vec<_> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// `(src_ip, path) → request count` over HTTP packets — the stream
    /// detector behind "the same URI is requested multiple times by the same
    /// IP address" (§6.3).
    pub fn stream_counts(&self) -> HashMap<(Ipv4Addr, String), u64> {
        let mut counts = HashMap::new();
        for p in &self.packets {
            if let Some(req) = p.http_request() {
                *counts.entry((p.src_ip, req.uri.path.clone())).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Drains recorded packets (used when feeding the filter pipeline).
    #[cfg(test)]
    fn take_packets(&mut self) -> Vec<Packet> {
        std::mem::take(&mut self.packets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Transport;
    use nxd_httpsim::HttpRequest;

    fn ip(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(203, 0, 113, n)
    }

    #[test]
    fn records_and_counts() {
        let mut r = TrafficRecorder::for_domain("resheba.online");
        r.record(Packet::http(
            HttpRequest::get("/a").with_src(ip(1)).with_port(80),
        ));
        r.record(Packet::http(
            HttpRequest::get("/a").with_src(ip(1)).with_port(80),
        ));
        r.record(Packet::raw(ip(2), 22, Transport::Tcp, 0, b"probe"));
        assert_eq!(r.len(), 3);
        assert_eq!(r.source_ips().len(), 2);
    }

    #[test]
    fn port_histogram_sorted() {
        let mut r = TrafficRecorder::no_hosting();
        for _ in 0..3 {
            r.record(Packet::raw(ip(1), 52_646, Transport::Tcp, 0, b""));
        }
        r.record(Packet::raw(ip(1), 22, Transport::Tcp, 0, b""));
        let hist = r.port_histogram();
        assert_eq!(hist[0], (52_646, 3));
        assert_eq!(hist[1], (22, 1));
    }

    #[test]
    fn stream_counts_group_by_ip_and_path() {
        let mut r = TrafficRecorder::for_domain("1x-sport-bk7.com");
        for _ in 0..5 {
            r.record(Packet::http(
                HttpRequest::get("/status.json").with_src(ip(7)),
            ));
        }
        r.record(Packet::http(
            HttpRequest::get("/status.json").with_src(ip(8)),
        ));
        let streams = r.stream_counts();
        assert_eq!(streams[&(ip(7), "/status.json".to_string())], 5);
        assert_eq!(streams[&(ip(8), "/status.json".to_string())], 1);
    }

    #[test]
    fn take_packets_drains() {
        let mut r = TrafficRecorder::no_hosting();
        r.record(Packet::raw(ip(1), 80, Transport::Tcp, 0, b""));
        let taken = r.take_packets();
        assert_eq!(taken.len(), 1);
        assert!(r.is_empty());
    }
}
