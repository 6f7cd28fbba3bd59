//! The live UDP size policy over real sockets. `big.com` carries eight
//! 200-byte TXT records, a ~1.7 kB answer: a classic 512-octet client gets
//! a TC=1 stub over UDP and the whole answer over TCP, an EDNS client that
//! advertises room for it gets it whole with an OPT echoed, and one that
//! advertises too little gets a TC=1 stub that still carries the OPT.
//! `serve_udp_truncated_total` counts exactly the stubs received, and the
//! sensor records only the answers: a stub followed by its TCP retry is
//! one passive-DNS row.

use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

use nxd_analyzer::{Analyzer, Report};
use nxd_dns_sim::{RegistryConfig, SimDns, SimTime};
use nxd_dns_wire::{Edns, EdnsMessage, Message, Name, RData, RType, Record};
use nxd_serve::{route, tcp_exchange, DnsServer, ServeConfig, StubResolver, MAX_TCP_MESSAGE};
use nxd_telemetry::Telemetry;

fn n(s: &str) -> Name {
    s.parse().unwrap()
}

/// A world where `big.com` has a TXT RRset far larger than 512 bytes.
fn world() -> Arc<SimDns> {
    let mut dns = SimDns::new(&["com"], RegistryConfig::default(), SimTime::ERA_START);
    dns.register_domain(&n("big.com"), "o", "r", 1, Ipv4Addr::new(192, 0, 2, 1))
        .unwrap();
    for i in 0..8 {
        dns.add_record(
            &n("big.com"),
            Record::new(
                n("big.com"),
                300,
                RData::Txt(vec![format!("{i}-{}", "x".repeat(200))]),
            ),
        );
    }
    Arc::new(dns)
}

/// A front-end serving [`world`] on an ephemeral loopback port.
struct Live {
    dns: Arc<SimDns>,
    telemetry: Arc<Telemetry>,
    server: DnsServer,
}

impl Live {
    fn boot() -> Live {
        let dns = world();
        let telemetry = Arc::new(Telemetry::wall());
        let server = DnsServer::bind(
            "127.0.0.1:0",
            dns.clone(),
            telemetry.clone(),
            ServeConfig::default(),
        )
        .expect("bind on loopback");
        Live {
            dns,
            telemetry,
            server,
        }
    }

    /// One UDP exchange, without retransmissions, so every response the
    /// server sent is one the test received.
    fn udp(&self, query: &[u8]) -> Vec<u8> {
        StubResolver::connect(self.server.local_addr(), Duration::from_secs(5), 0)
            .expect("stub binds")
            .exchange(query)
            .expect("answered")
            .response
    }

    fn truncated(&self) -> u64 {
        self.telemetry
            .snapshot()
            .counter_total("serve_udp_truncated_total")
    }
}

/// `big.com TXT`, advertising `edns` as the UDP payload size if given.
fn big_txt(edns: Option<u16>) -> Vec<u8> {
    let mut query = Message::query(0x0B16, n("big.com"), RType::Txt);
    if let Some(udp_payload) = edns {
        query.set_edns(Edns {
            udp_payload,
            ..Edns::default()
        });
    }
    query.encode().unwrap()
}

fn report(wire: &[u8]) -> Report {
    Analyzer::new()
        .analyze_bytes(wire)
        .expect("response decodes")
}

fn fires_nxd008(report: &Report) -> bool {
    report.diagnostics.iter().any(|d| d.rule.id == "NXD008")
}

#[test]
fn classic_udp_answer_is_a_tc_stub_within_512_octets() {
    let live = Live::boot();
    let wire = live.udp(&big_txt(None));
    let resp = Message::decode(&wire).unwrap();
    assert!(wire.len() <= 512, "{} octets over UDP", wire.len());
    assert!(resp.header.tc, "oversized answer must set TC");
    assert!(resp.answers.is_empty());
    assert_eq!(resp.questions.len(), 1);
    assert_eq!(resp.edns(), None, "no OPT for a query without one");
    let report = report(&wire);
    assert!(!fires_nxd008(&report), "{}", report.to_text());
    assert_eq!(live.truncated(), 1);
}

#[test]
fn classic_client_falls_back_to_tcp_for_the_whole_answer() {
    let live = Live::boot();
    let query = big_txt(None);
    let stub = Message::decode(&live.udp(&query)).unwrap();
    assert!(stub.header.tc);
    let responses = tcp_exchange(
        live.server.local_addr(),
        std::slice::from_ref(&query),
        Duration::from_secs(5),
        MAX_TCP_MESSAGE,
    )
    .expect("TCP fallback");
    let decoded = Message::decode(&query).unwrap();
    let offline = live
        .dns
        .respond(&route(&live.dns, &decoded), &query)
        .unwrap();
    assert_eq!(
        responses,
        vec![offline],
        "TCP must carry the offline answer"
    );
    let full = Message::decode(&responses[0]).unwrap();
    assert!(!full.header.tc);
    assert_eq!(full.answers.len(), 8, "TCP fallback delivers everything");
    assert_eq!(live.truncated(), 1, "TCP answers are never truncated");
    // The sensor saw one answer: the TCP one. The TC stub is not a row.
    let Live {
        telemetry, server, ..
    } = live;
    let served = server.shutdown();
    assert_eq!(served.row_count(), 1, "one question, one passive-DNS row");
    assert_eq!(
        telemetry
            .snapshot()
            .counter_total("serve_sink_recorded_total"),
        1
    );
}

#[test]
fn edns_4096_client_gets_the_whole_answer_with_opt() {
    let live = Live::boot();
    let wire = live.udp(&big_txt(Some(4096)));
    let resp = Message::decode(&wire).unwrap();
    assert!(wire.len() > 512);
    assert!(!resp.header.tc);
    assert_eq!(resp.answers.len(), 8);
    assert!(resp.edns().is_some(), "EDNS query must get an OPT back");
    let report = report(&wire);
    assert!(report.is_clean(), "{}", report.to_text());
    assert_eq!(live.truncated(), 0);
}

#[test]
fn edns_1232_client_gets_a_tc_stub_with_opt() {
    let live = Live::boot();
    let wire = live.udp(&big_txt(Some(1232)));
    let resp = Message::decode(&wire).unwrap();
    assert!(wire.len() <= 1232, "{} octets over UDP", wire.len());
    assert!(resp.header.tc);
    assert!(resp.answers.is_empty());
    assert!(resp.edns().is_some(), "the TC stub keeps the OPT");
    let report = report(&wire);
    assert!(!fires_nxd008(&report), "{}", report.to_text());
    assert_eq!(live.truncated(), 1);
}
