//! Hostile TCP framing against a live server: split prefixes, zero and
//! oversize lengths, mid-message disconnects, and pipelining. The server
//! must never panic (the no-panic parse lints at the socket boundary) — after
//! every attack the same server keeps answering clean queries.

use std::io::{Read, Write};
use std::net::{TcpStream, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

use nxd_dns_sim::{SimDns, SimTime};
use nxd_dns_wire::{Message, RCode, RType};
use nxd_serve::{read_frame, tcp_exchange, write_frame, DnsServer, ServeConfig, MAX_TCP_MESSAGE};
use nxd_telemetry::Telemetry;

fn boot() -> (DnsServer, Arc<Telemetry>) {
    let dns = Arc::new(SimDns::with_popular_tlds(SimTime::ERA_START));
    let telemetry = Arc::new(Telemetry::wall());
    let server = DnsServer::bind(
        "127.0.0.1:0",
        dns,
        telemetry.clone(),
        ServeConfig::default(),
    )
    .expect("bind");
    (server, telemetry)
}

fn nx_query(id: u16) -> Vec<u8> {
    Message::query(
        id,
        "definitely-not-registered.com".parse().unwrap(),
        RType::A,
    )
    .encode()
    .unwrap()
}

/// The server still answers a clean query — the liveness probe after each
/// hostile connection.
fn assert_alive(server: &DnsServer, id: u16) {
    let responses = tcp_exchange(
        server.local_addr(),
        &[nx_query(id)],
        Duration::from_secs(2),
        MAX_TCP_MESSAGE,
    )
    .expect("server must survive hostile framing");
    let msg = Message::decode(responses.first().expect("one response")).expect("decodes");
    assert_eq!(msg.header.rcode, RCode::NxDomain);
}

fn connect(server: &DnsServer) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    stream
}

#[test]
fn split_length_prefix_across_writes_still_answers() {
    let (server, _t) = boot();
    let query = nx_query(1);
    let mut framed = Vec::new();
    write_frame(&mut framed, &query).unwrap();
    let mut stream = connect(&server);
    // One byte at a time, with pauses inside the prefix and the body.
    for byte in &framed {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let response = read_frame(&mut stream, MAX_TCP_MESSAGE)
        .expect("framed response")
        .expect("not EOF");
    assert_eq!(Message::decode(&response).unwrap().header.id, 1);
    drop(stream);
    assert_alive(&server, 2);
    drop(server.shutdown());
}

#[test]
fn zero_length_message_closes_the_connection_not_the_server() {
    let (server, telemetry) = boot();
    let mut stream = connect(&server);
    stream.write_all(&[0u8, 0u8]).unwrap();
    // The server drops the connection: read returns EOF, not a frame.
    let mut buf = [0u8; 16];
    assert_eq!(stream.read(&mut buf).unwrap_or(0), 0);
    assert_alive(&server, 3);
    drop(server.shutdown());
    assert_eq!(
        telemetry
            .snapshot()
            .counter_total("serve_tcp_frame_errors_total"),
        1
    );
    assert_eq!(
        telemetry
            .snapshot()
            .counter_total("serve_handler_panics_total"),
        0
    );
}

#[test]
fn oversize_length_is_rejected_without_allocation_or_panic() {
    let (server, telemetry) = boot();
    let mut stream = connect(&server);
    stream.write_all(&[0xFFu8, 0xFF]).unwrap(); // claims 65535 bytes
    stream.write_all(&[0u8; 64]).unwrap(); // never delivers them
    let mut buf = [0u8; 16];
    assert_eq!(stream.read(&mut buf).unwrap_or(0), 0);
    assert_alive(&server, 4);
    drop(server.shutdown());
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter_total("serve_tcp_frame_errors_total"), 1);
    assert_eq!(snap.counter_total("serve_handler_panics_total"), 0);
}

#[test]
fn mid_message_disconnect_is_survivable() {
    let (server, telemetry) = boot();
    let query = nx_query(5);
    let mut framed = Vec::new();
    write_frame(&mut framed, &query).unwrap();
    framed.truncate(framed.len() / 2);
    let mut stream = connect(&server);
    stream.write_all(&framed).unwrap();
    drop(stream); // hang up mid-message
    assert_alive(&server, 6);
    drop(server.shutdown());
    assert_eq!(
        telemetry
            .snapshot()
            .counter_total("serve_handler_panics_total"),
        0
    );
}

#[test]
fn headerless_garbage_in_a_valid_frame_drops_the_connection() {
    let (server, telemetry) = boot();
    let mut stream = connect(&server);
    write_frame(&mut stream, &[0xDE, 0xAD, 0xBE]).unwrap(); // 3 bytes: no DNS header
    let mut buf = [0u8; 16];
    assert_eq!(stream.read(&mut buf).unwrap_or(0), 0);
    assert_alive(&server, 7);
    drop(server.shutdown());
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter_total("serve_dropped_queries_total"), 1);
    assert_eq!(snap.counter_total("serve_handler_panics_total"), 0);
}

#[test]
fn pipelined_queries_on_one_connection_all_answer_in_order() {
    let (server, _t) = boot();
    let queries: Vec<Vec<u8>> = (10u16..26).map(nx_query).collect();
    let responses = tcp_exchange(
        server.local_addr(),
        &queries,
        Duration::from_secs(2),
        MAX_TCP_MESSAGE,
    )
    .expect("pipelined");
    assert_eq!(responses.len(), 16);
    for (i, response) in responses.iter().enumerate() {
        let msg = Message::decode(response).expect("decodes");
        assert_eq!(usize::from(msg.header.id), 10 + i);
        assert_eq!(msg.header.rcode, RCode::NxDomain);
    }
    drop(server.shutdown());
}

#[test]
fn malformed_header_gets_formerr_on_tcp() {
    let (server, _t) = boot();
    let mut stream = connect(&server);
    // Full 12-byte header claiming a question it does not carry.
    let bogus = [0x12u8, 0x34, 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0, 0];
    write_frame(&mut stream, &bogus).unwrap();
    let response = read_frame(&mut stream, MAX_TCP_MESSAGE)
        .expect("frame")
        .expect("not EOF");
    assert_eq!(&response[..2], &[0x12, 0x34], "query id echoed");
    assert_eq!(response[3] & 0x0F, RCode::FormErr.to_u8());
    drop(server.shutdown());
}

#[test]
fn idle_tcp_connections_do_not_starve_udp() {
    let (server, _t) = boot();
    // More idle peers than the TCP pool has workers: each one pins a
    // worker until its read times out.
    let idle: Vec<TcpStream> = (0..8).map(|_| connect(&server)).collect();
    // Let the acceptor hand them to the workers before the datagram lands.
    std::thread::sleep(Duration::from_millis(100));
    let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    socket.send_to(&nx_query(42), server.local_addr()).unwrap();
    let mut buf = [0u8; 512];
    let (len, _) = socket
        .recv_from(&mut buf)
        .expect("UDP answered while TCP peers sit idle");
    let msg = Message::decode(&buf[..len]).expect("decodes");
    assert_eq!(msg.header.id, 42);
    assert_eq!(msg.header.rcode, RCode::NxDomain);
    drop(idle);
    drop(server.shutdown());
}
