//! Classic libpcap export of recorded captures.
//!
//! The smoltcp guide's examples all offer `--pcap` dumps "containing a view
//! of every packet"; NXD-Honeypot does the same so a capture can be opened
//! in Wireshark. Recorded [`Packet`]s are re-framed as Ethernet II → IPv4 →
//! TCP/UDP with correct checksums; HTTP payloads carry the serialized
//! request head.

use std::net::Ipv4Addr;

use crate::packet::{Packet, Payload, Transport};

/// Classic pcap magic (microsecond timestamps, big-endian writer).
const PCAP_MAGIC: u32 = 0xA1B2_C3D4;
const LINKTYPE_ETHERNET: u32 = 1;

/// Fixed MACs for the synthetic Ethernet framing.
const SRC_MAC: [u8; 6] = [0x02, 0x00, 0x00, 0x00, 0x00, 0x02];
const DST_MAC: [u8; 6] = [0x02, 0x00, 0x00, 0x00, 0x00, 0x01];

/// Serializes packets into a classic pcap byte stream.
pub struct PcapWriter {
    buf: Vec<u8>,
    /// Destination (server) address stamped into every frame.
    pub server_ip: Ipv4Addr,
    packets: u32,
}

impl PcapWriter {
    /// Creates a writer; `server_ip` is the honeypot host every recorded
    /// packet was sent to.
    pub fn new(server_ip: Ipv4Addr) -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&PCAP_MAGIC.to_be_bytes());
        buf.extend_from_slice(&2u16.to_be_bytes()); // version major
        buf.extend_from_slice(&4u16.to_be_bytes()); // version minor
        buf.extend_from_slice(&0u32.to_be_bytes()); // thiszone
        buf.extend_from_slice(&0u32.to_be_bytes()); // sigfigs
        buf.extend_from_slice(&65_535u32.to_be_bytes()); // snaplen
        buf.extend_from_slice(&LINKTYPE_ETHERNET.to_be_bytes());
        PcapWriter {
            buf,
            server_ip,
            packets: 0,
        }
    }

    /// Number of packets written so far.
    #[cfg(test)]
    fn packet_count(&self) -> u32 {
        self.packets
    }

    /// Appends one recorded packet.
    pub fn write_packet(&mut self, packet: &Packet) {
        let payload: Vec<u8> = match &packet.payload {
            Payload::Http(req) => req.to_bytes(),
            Payload::Raw(bytes) => bytes.clone(),
        };
        let frame = build_frame(packet, self.server_ip, &payload);
        self.buf
            .extend_from_slice(&(packet.timestamp as u32).to_be_bytes()); // ts_sec
        self.buf.extend_from_slice(&0u32.to_be_bytes()); // ts_usec
        self.buf
            .extend_from_slice(&(frame.len() as u32).to_be_bytes()); // incl_len
        self.buf
            .extend_from_slice(&(frame.len() as u32).to_be_bytes()); // orig_len
        self.buf.extend_from_slice(&frame);
        self.packets += 1;
    }

    /// Appends every packet of a capture.
    pub fn write_all<'a, I: IntoIterator<Item = &'a Packet>>(&mut self, packets: I) {
        for p in packets {
            self.write_packet(p);
        }
    }

    /// Finishes and returns the pcap bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

fn build_frame(packet: &Packet, dst_ip: Ipv4Addr, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(54 + payload.len());
    // Ethernet II.
    frame.extend_from_slice(&DST_MAC);
    frame.extend_from_slice(&SRC_MAC);
    frame.extend_from_slice(&0x0800u16.to_be_bytes()); // IPv4

    let (proto, l4): (u8, Vec<u8>) = match packet.transport {
        Transport::Tcp => (6, build_tcp(packet, dst_ip, payload)),
        Transport::Udp => (17, build_udp(packet, dst_ip, payload)),
    };

    // IPv4 header (no options).
    let total_len = 20 + l4.len();
    let mut ip = Vec::with_capacity(20);
    ip.push(0x45); // version 4, IHL 5
    ip.push(0); // DSCP/ECN
    ip.extend_from_slice(&(total_len as u16).to_be_bytes());
    ip.extend_from_slice(&(packet.timestamp as u16).to_be_bytes()); // identification (arbitrary, stable)
    ip.extend_from_slice(&0x4000u16.to_be_bytes()); // don't fragment
    ip.push(64); // TTL
    ip.push(proto);
    ip.extend_from_slice(&0u16.to_be_bytes()); // checksum placeholder
    ip.extend_from_slice(&packet.src_ip.octets());
    ip.extend_from_slice(&dst_ip.octets());
    let csum = ones_complement_sum(&ip);
    ip[10] = (csum >> 8) as u8;
    ip[11] = (csum & 0xFF) as u8;

    frame.extend_from_slice(&ip);
    frame.extend_from_slice(&l4);
    frame
}

fn build_tcp(packet: &Packet, dst_ip: Ipv4Addr, payload: &[u8]) -> Vec<u8> {
    let mut tcp = Vec::with_capacity(20 + payload.len());
    tcp.extend_from_slice(&packet.src_port.to_be_bytes());
    tcp.extend_from_slice(&packet.dst_port.to_be_bytes());
    tcp.extend_from_slice(&1u32.to_be_bytes()); // seq
    tcp.extend_from_slice(&1u32.to_be_bytes()); // ack
    tcp.push(0x50); // data offset 5
    tcp.push(0x18); // PSH|ACK
    tcp.extend_from_slice(&0xFFFFu16.to_be_bytes()); // window
    tcp.extend_from_slice(&0u16.to_be_bytes()); // checksum placeholder
    tcp.extend_from_slice(&0u16.to_be_bytes()); // urgent
    tcp.extend_from_slice(payload);
    let csum = l4_checksum(packet.src_ip, dst_ip, 6, &tcp);
    tcp[16] = (csum >> 8) as u8;
    tcp[17] = (csum & 0xFF) as u8;
    tcp
}

fn build_udp(packet: &Packet, dst_ip: Ipv4Addr, payload: &[u8]) -> Vec<u8> {
    let mut udp = Vec::with_capacity(8 + payload.len());
    udp.extend_from_slice(&packet.src_port.to_be_bytes());
    udp.extend_from_slice(&packet.dst_port.to_be_bytes());
    udp.extend_from_slice(&(8 + payload.len() as u16).to_be_bytes());
    udp.extend_from_slice(&0u16.to_be_bytes()); // checksum placeholder
    udp.extend_from_slice(payload);
    let csum = l4_checksum(packet.src_ip, dst_ip, 17, &udp);
    udp[6] = (csum >> 8) as u8;
    udp[7] = (csum & 0xFF) as u8;
    udp
}

/// RFC 1071 checksum over a header (with its checksum field zeroed).
fn ones_complement_sum(data: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u16::from_be_bytes([c[0], c[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        sum += (*last as u32) << 8;
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// TCP/UDP checksum including the IPv4 pseudo-header.
fn l4_checksum(src: Ipv4Addr, dst: Ipv4Addr, proto: u8, segment: &[u8]) -> u16 {
    let mut pseudo = Vec::with_capacity(12 + segment.len());
    pseudo.extend_from_slice(&src.octets());
    pseudo.extend_from_slice(&dst.octets());
    pseudo.push(0);
    pseudo.push(proto);
    pseudo.extend_from_slice(&(segment.len() as u16).to_be_bytes());
    pseudo.extend_from_slice(segment);
    ones_complement_sum(&pseudo)
}

/// A decoded pcap record (for round-trip verification and tooling).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapRecord {
    pub ts_sec: u32,
    pub src_ip: Ipv4Addr,
    pub dst_ip: Ipv4Addr,
    pub src_port: u16,
    pub dst_port: u16,
    pub transport: Transport,
    pub payload: Vec<u8>,
}

/// Parses a pcap stream produced by [`PcapWriter`] (or any classic
/// big-endian Ethernet pcap with plain IPv4 TCP/UDP).
pub fn parse_pcap(data: &[u8]) -> Result<Vec<PcapRecord>, String> {
    if data.len() < 24 {
        return Err("short global header".into());
    }
    let magic = u32::from_be_bytes([data[0], data[1], data[2], data[3]]);
    if magic != PCAP_MAGIC {
        return Err(format!("bad magic {magic:#x}"));
    }
    let mut out = Vec::new();
    let mut i = 24;
    while i + 16 <= data.len() {
        let ts_sec = u32::from_be_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
        let incl =
            u32::from_be_bytes([data[i + 8], data[i + 9], data[i + 10], data[i + 11]]) as usize;
        i += 16;
        if i + incl > data.len() {
            return Err("truncated record".into());
        }
        let frame = &data[i..i + incl];
        i += incl;
        if frame.len() < 14 + 20 {
            return Err("short frame".into());
        }
        let ip = &frame[14..];
        let ihl = (ip[0] & 0x0F) as usize * 4;
        let proto = ip[9];
        let src_ip = Ipv4Addr::new(ip[12], ip[13], ip[14], ip[15]);
        let dst_ip = Ipv4Addr::new(ip[16], ip[17], ip[18], ip[19]);
        let l4 = &ip[ihl..];
        let (transport, header_len) = match proto {
            6 => (Transport::Tcp, ((l4[12] >> 4) as usize) * 4),
            17 => (Transport::Udp, 8),
            other => return Err(format!("unexpected protocol {other}")),
        };
        let src_port = u16::from_be_bytes([l4[0], l4[1]]);
        let dst_port = u16::from_be_bytes([l4[2], l4[3]]);
        out.push(PcapRecord {
            ts_sec,
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            transport,
            payload: l4[header_len..].to_vec(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nxd_httpsim::HttpRequest;

    fn server() -> Ipv4Addr {
        Ipv4Addr::new(192, 0, 2, 80)
    }

    fn http_packet() -> Packet {
        Packet::http(
            HttpRequest::get("/status.json")
                .with_header("Host", "1x-sport-bk7.com")
                .with_src(Ipv4Addr::new(203, 0, 113, 9))
                .with_port(80)
                .with_time(1_650_000_000),
        )
    }

    #[test]
    fn roundtrip_http_packet() {
        let mut w = PcapWriter::new(server());
        let pkt = http_packet();
        w.write_packet(&pkt);
        assert_eq!(w.packet_count(), 1);
        let records = parse_pcap(&w.finish()).unwrap();
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.src_ip, pkt.src_ip);
        assert_eq!(r.dst_ip, server());
        assert_eq!(r.dst_port, 80);
        assert_eq!(r.transport, Transport::Tcp);
        assert_eq!(r.ts_sec, 1_650_000_000);
        let parsed = HttpRequest::parse(&r.payload).unwrap();
        assert_eq!(parsed.uri.path, "/status.json");
    }

    #[test]
    fn roundtrip_udp_raw_packet() {
        let mut w = PcapWriter::new(server());
        let pkt = Packet::raw(
            Ipv4Addr::new(171, 25, 1, 2),
            53,
            Transport::Udp,
            7,
            b"probe-bytes",
        );
        w.write_packet(&pkt);
        let records = parse_pcap(&w.finish()).unwrap();
        assert_eq!(records[0].transport, Transport::Udp);
        assert_eq!(records[0].payload, b"probe-bytes");
        assert_eq!(records[0].dst_port, 53);
    }

    #[test]
    fn ip_header_checksum_validates() {
        let mut w = PcapWriter::new(server());
        w.write_packet(&http_packet());
        let bytes = w.finish();
        // Re-sum the IPv4 header including its checksum: must fold to 0.
        let ip = &bytes[24 + 16 + 14..24 + 16 + 14 + 20];
        let mut sum = 0u32;
        for c in ip.chunks_exact(2) {
            sum += u16::from_be_bytes([c[0], c[1]]) as u32;
        }
        while sum > 0xFFFF {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        assert_eq!(sum as u16, 0xFFFF, "checksum must verify");
    }

    #[test]
    fn write_all_and_counts() {
        let mut w = PcapWriter::new(server());
        let packets = vec![http_packet(), http_packet(), http_packet()];
        w.write_all(&packets);
        assert_eq!(w.packet_count(), 3);
        assert_eq!(parse_pcap(&w.finish()).unwrap().len(), 3);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_pcap(b"short").is_err());
        assert!(parse_pcap(&[0u8; 24]).is_err()); // wrong magic
    }

    #[test]
    fn empty_capture_is_valid() {
        let w = PcapWriter::new(server());
        let records = parse_pcap(&w.finish()).unwrap();
        assert!(records.is_empty());
    }
}
