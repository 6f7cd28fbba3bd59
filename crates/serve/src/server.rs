//! The live DNS front-end: UDP readers that answer the datagrams they
//! read, and a TCP worker pool, all on one nxd-obs [`Service`] — the same
//! thread skeleton and graceful shutdown (stop flag + connect-to-self
//! wakeup + join every thread) as the observability plane.
//!
//! Threading model: `UDP_READERS` threads block on `recv_from` on the
//! shared socket with a short poll timeout (so they observe the stop flag)
//! and answer each datagram in place from a reused buffer; the kernel
//! receive buffer is UDP's only queue. TCP connections go to
//! `TCP_WORKERS` pool workers, so idle TCP peers can never starve UDP.
//! Every datagram and every connection is handled under `catch_unwind` — a
//! panicking request becomes a counter increment and a journal error
//! event, never a dead thread.
//!
//! Byte parity: [`answer`] routes a decodable query with
//! [`SimDns::next_server`] (falling back to the root for unknown TLDs,
//! exactly where a resolver with an empty cache would start) and returns
//! [`SimDns::respond_to`]'s bytes untouched. The UDP path never truncates:
//! the simulated hierarchy's responses fit classic 512-byte datagrams by
//! construction, and datagram-size policy stays in the offline
//! [`WireChannel`](nxd_dns_sim::WireChannel) transport model.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs, UdpSocket};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nxd_dns_sim::{ServerRef, SimDns, SimTime};
use nxd_dns_wire::{Message, RCode};
use nxd_obs::Service;
use nxd_passive_dns::{PassiveDb, StreamEngine};
use nxd_telemetry::{Counter, Histogram, Registry, Stopwatch, Telemetry};

use crate::frame::{read_frame, write_frame, MAX_TCP_MESSAGE};
use crate::sink::{SensorChannel, SensorEvent, SensorTransport};

/// UDP reader threads, each answering the datagrams it reads.
const UDP_READERS: usize = 4;

/// TCP worker threads, each serving one connection at a time.
const TCP_WORKERS: usize = 4;

/// How often blocked UDP readers wake to observe the stop flag.
const UDP_POLL: Duration = Duration::from_millis(50);

/// Per-connection socket timeouts so a stalled TCP peer cannot pin a
/// worker past shutdown.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(5);

/// Front-end configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Day number served rows land on in the sensor database.
    pub day: u32,
    /// Sensor id of this front-end in the federation model.
    pub sensor: u16,
    /// Optional live streaming engine: recorded sensor rows are offered
    /// as they arrive, so §4 aggregates update mid-run on `/metrics` and
    /// `/snapshot.json` instead of only after shutdown.
    pub stream: Option<StreamEngine>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            day: SimTime::ERA_START.day_number() as u32,
            sensor: 0,
            stream: None,
        }
    }
}

/// Hot-path metric handles, resolved once instead of per request.
struct ServeMetrics {
    udp_queries: Counter,
    tcp_connections: Counter,
    tcp_queries: Counter,
    tcp_frame_errors: Counter,
    dropped: Counter,
    panics: Counter,
    latency: Histogram,
    rcode_noerror: Counter,
    rcode_formerr: Counter,
    rcode_nxdomain: Counter,
    rcode_refused: Counter,
    rcode_other: Counter,
}

impl ServeMetrics {
    fn new(registry: &Registry) -> Self {
        registry.describe(
            "serve_responses_total",
            "DNS responses sent by the live front-end, by rcode",
        );
        registry.describe(
            "serve_request_latency_ns",
            "decode→respond→send latency per served request",
        );
        let rcode = |label| registry.counter_with("serve_responses_total", &[("rcode", label)]);
        ServeMetrics {
            udp_queries: registry.counter("serve_udp_queries_total"),
            tcp_connections: registry.counter("serve_tcp_connections_total"),
            tcp_queries: registry.counter("serve_tcp_queries_total"),
            tcp_frame_errors: registry.counter("serve_tcp_frame_errors_total"),
            dropped: registry.counter("serve_dropped_queries_total"),
            panics: registry.counter("serve_handler_panics_total"),
            latency: registry.histogram("serve_request_latency_ns"),
            rcode_noerror: rcode("noerror"),
            rcode_formerr: rcode("formerr"),
            rcode_nxdomain: rcode("nxdomain"),
            rcode_refused: rcode("refused"),
            rcode_other: rcode("other"),
        }
    }

    fn record_rcode(&self, rcode: RCode) {
        match rcode {
            RCode::NoError => self.rcode_noerror.inc(),
            RCode::FormErr => self.rcode_formerr.inc(),
            RCode::NxDomain => self.rcode_nxdomain.inc(),
            RCode::Refused => self.rcode_refused.inc(),
            _ => self.rcode_other.inc(),
        }
    }
}

/// Everything a UDP reader or TCP worker needs, shared by both protocols.
struct Ctx {
    dns: Arc<SimDns>,
    udp: UdpSocket,
    telemetry: Arc<Telemetry>,
    metrics: ServeMetrics,
    sink_tx: Option<crossbeam::channel::Sender<SensorEvent>>,
}

impl Ctx {
    fn handler_panicked(&self, thread: &str) {
        self.metrics.panics.inc();
        self.telemetry
            .journal
            .error("serve", "request handler panicked", &[("thread", thread)]);
    }
}

/// A running DNS front-end. [`DnsServer::shutdown`] returns the served
/// passive-DNS database; dropping the handle shuts down and discards it.
pub struct DnsServer {
    addr: SocketAddr,
    telemetry: Arc<Telemetry>,
    service: Service,
    sink: Option<SensorChannel>,
}

impl DnsServer {
    /// Binds UDP and TCP on the same address (port 0 picks an ephemeral
    /// port where *both* sockets agree) and starts the readers and the
    /// TCP pool.
    pub fn bind(
        addr: impl ToSocketAddrs,
        dns: Arc<SimDns>,
        telemetry: Arc<Telemetry>,
        config: ServeConfig,
    ) -> io::Result<DnsServer> {
        let requested = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no socket address"))?;
        let (udp, listener) = bind_pair(requested)?;
        let local = udp.local_addr()?;
        udp.set_read_timeout(Some(UDP_POLL))?;
        let sink = SensorChannel::spawn_with_stream(
            config.day,
            config.sensor,
            telemetry.clone(),
            config.stream,
        );
        let ctx = Arc::new(Ctx {
            dns,
            udp,
            telemetry: telemetry.clone(),
            metrics: ServeMetrics::new(&telemetry.registry),
            sink_tx: sink.sender(),
        });

        let mut service = Service::default();
        let (tcp_ctx, panic_ctx) = (ctx.clone(), ctx.clone());
        service.accept(
            listener,
            TCP_WORKERS,
            move |stream, stop| handle_tcp(&tcp_ctx, stream, stop),
            move |worker| panic_ctx.handler_panicked(&format!("tcp-{worker}")),
        )?;
        for reader in 0..UDP_READERS {
            let ctx = ctx.clone();
            service.spawn(move |stop| udp_reader_loop(&ctx, reader, stop));
        }

        telemetry.journal.info(
            "serve",
            "dns front-end listening",
            &[
                ("addr", &local.to_string()),
                ("udp_readers", &UDP_READERS.to_string()),
                ("tcp_workers", &TCP_WORKERS.to_string()),
            ],
        );
        Ok(DnsServer {
            addr: local,
            telemetry,
            service,
            sink: Some(sink),
        })
    }

    /// The bound address — with port 0 binds, the port the OS picked
    /// (identical for UDP and TCP).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop and join every reader and worker
    /// (in-flight requests complete), then collect the served passive-DNS
    /// database from the sensor channel.
    pub fn shutdown(mut self) -> PassiveDb {
        self.stop()
            .map_or_else(PassiveDb::default, SensorChannel::finish)
    }

    /// Stops the service and hands out the sensor channel, once. Every
    /// thread holding a sensor sender has been joined by then, so
    /// `finish` cannot block on a live sender.
    fn stop(&mut self) -> Option<SensorChannel> {
        if self.service.shutdown() {
            self.telemetry
                .journal
                .info("serve", "dns front-end stopped", &[]);
        }
        self.sink.take()
    }
}

impl Drop for DnsServer {
    fn drop(&mut self) {
        if let Some(sink) = self.stop() {
            // Drop must not panic: a collector panic re-raised by finish()
            // is discarded together with the database nobody will read.
            let _ = catch_unwind(AssertUnwindSafe(|| sink.finish()));
        }
    }
}

impl std::fmt::Debug for DnsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DnsServer")
            .field("addr", &self.addr)
            .field("service", &self.service)
            .finish_non_exhaustive()
    }
}

/// Binds the UDP socket and TCP listener on the same port. The two port
/// spaces are independent, so an ephemeral (port 0) bind retries with
/// fresh UDP ports until TCP agrees.
fn bind_pair(requested: SocketAddr) -> io::Result<(UdpSocket, TcpListener)> {
    if requested.port() != 0 {
        return Ok((UdpSocket::bind(requested)?, TcpListener::bind(requested)?));
    }
    let mut last_err = None;
    for _ in 0..16 {
        let udp = UdpSocket::bind(requested)?;
        let actual = udp.local_addr()?;
        match TcpListener::bind(actual) {
            Ok(listener) => return Ok((udp, listener)),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| {
        io::Error::new(io::ErrorKind::AddrInUse, "no agreeing UDP/TCP port pair")
    }))
}

fn udp_reader_loop(ctx: &Ctx, reader: usize, stop: &AtomicBool) {
    let mut buf = vec![0u8; 65_535];
    while !stop.load(Ordering::SeqCst) {
        // A poll timeout (WouldBlock/TimedOut depending on platform) or a
        // transient error just loops back to the stop check.
        let Ok((len, peer)) = ctx.udp.recv_from(&mut buf) else {
            continue;
        };
        let query = buf.get(..len).unwrap_or_default();
        if catch_unwind(AssertUnwindSafe(|| handle_udp(ctx, query, peer))).is_err() {
            ctx.handler_panicked(&format!("udp-{reader}"));
        }
    }
}

fn handle_udp(ctx: &Ctx, data: &[u8], peer: SocketAddr) {
    ctx.metrics.udp_queries.inc();
    let watch = Stopwatch::start();
    let Some(answered) = answer(&ctx.dns, data) else {
        // Headerless garbage: RFC-sane servers stay silent on UDP.
        ctx.metrics.dropped.inc();
        return;
    };
    let _ = ctx.udp.send_to(&answered.wire, peer);
    ctx.metrics.record_rcode(answered.rcode);
    ctx.metrics.latency.record(watch.elapsed_nanos());
    observe(ctx, peer, &answered, SensorTransport::Udp);
}

fn handle_tcp(ctx: &Ctx, mut stream: TcpStream, stop: &AtomicBool) {
    ctx.metrics.tcp_connections.inc();
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let Ok(peer) = stream.peer_addr() else { return };
    while !stop.load(Ordering::SeqCst) {
        let data = match read_frame(&mut stream, MAX_TCP_MESSAGE) {
            Ok(Some(data)) => data,
            Ok(None) => break,
            Err(_) => {
                ctx.metrics.tcp_frame_errors.inc();
                break;
            }
        };
        ctx.metrics.tcp_queries.inc();
        let watch = Stopwatch::start();
        let Some(answered) = answer(&ctx.dns, &data) else {
            // Headerless garbage inside a well-formed frame: drop the
            // connection, there is no id to echo.
            ctx.metrics.dropped.inc();
            break;
        };
        if write_frame(&mut stream, &answered.wire).is_err() {
            break;
        }
        ctx.metrics.record_rcode(answered.rcode);
        ctx.metrics.latency.record(watch.elapsed_nanos());
        observe(ctx, peer, &answered, SensorTransport::Tcp);
    }
}

fn observe(ctx: &Ctx, peer: SocketAddr, answered: &Answered, transport: SensorTransport) {
    let (Some(tx), Some((query_id, name))) = (&ctx.sink_tx, &answered.question) else {
        return;
    };
    let _ = tx.send(SensorEvent {
        peer,
        query_id: *query_id,
        name: name.clone(),
        rcode: answered.rcode,
        transport,
    });
}

/// The authoritative answer for one query packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answered {
    /// Response bytes — for decodable queries, exactly what offline
    /// [`SimDns::respond`] produces for the routed server.
    pub wire: Vec<u8>,
    /// `(query id, question name)` when the query decoded.
    pub question: Option<(u16, String)>,
    pub rcode: RCode,
}

/// Which server answers `query`: the authoritative zone if the registrable
/// name is provisioned, else the TLD if known, else the root — exactly
/// where a resolver with an empty cache would land.
pub fn route(dns: &SimDns, query: &Message) -> ServerRef {
    query
        .questions
        .first()
        .and_then(|q| dns.next_server(&q.qname))
        .unwrap_or(ServerRef::Root)
}

/// Answers one query packet. `None` means the packet has no echoable DNS
/// header (fewer than 12 bytes) and must be dropped.
pub fn answer(dns: &SimDns, query_wire: &[u8]) -> Option<Answered> {
    match Message::decode(query_wire) {
        Ok(query) => {
            let wire = match dns.respond_to(&route(dns, &query), &query) {
                Ok(wire) => wire,
                // The query decoded, so only encoding the response can
                // have failed: degrade to FORMERR rather than going silent.
                Err(_) => formerr_reply(query_wire)?,
            };
            let rcode = wire
                .get(3)
                .map(|b| RCode::from_u8(b & 0x0F))
                .unwrap_or(RCode::ServFail);
            let question = query
                .questions
                .first()
                .map(|q| (query.header.id, q.qname.to_string()));
            Some(Answered {
                wire,
                question,
                rcode,
            })
        }
        Err(_) => Some(Answered {
            wire: formerr_reply(query_wire)?,
            question: None,
            rcode: RCode::FormErr,
        }),
    }
}

/// A minimal FORMERR: echo the query id, set QR, copy opcode + RD, clear
/// AA/TC/RA, zero every section count. `None` if there is no full header
/// to echo.
fn formerr_reply(query_wire: &[u8]) -> Option<Vec<u8>> {
    if query_wire.len() < 12 {
        return None;
    }
    let id_hi = query_wire.first().copied()?;
    let id_lo = query_wire.get(1).copied()?;
    let flags = query_wire.get(2).copied()?;
    let byte2 = 0x80 | (flags & 0x79);
    let byte3 = RCode::FormErr.to_u8();
    Some(vec![id_hi, id_lo, byte2, byte3, 0, 0, 0, 0, 0, 0, 0, 0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use nxd_dns_wire::{Name, RType};
    use std::net::Ipv4Addr;

    fn world() -> Arc<SimDns> {
        let mut dns = SimDns::with_popular_tlds(SimTime::ERA_START);
        let apex: Name = "served.com".parse().unwrap();
        dns.register_domain(
            &apex,
            "owner",
            "registrar",
            2,
            Ipv4Addr::new(198, 51, 100, 9),
        )
        .unwrap();
        Arc::new(dns)
    }

    fn query(id: u16, name: &str, rtype: RType) -> Vec<u8> {
        Message::query(id, name.parse().unwrap(), rtype)
            .encode()
            .unwrap()
    }

    #[test]
    fn answer_is_byte_identical_to_offline_respond() {
        let dns = world();
        for (name, rtype) in [
            ("served.com", RType::A),
            ("www.served.com", RType::A),
            ("served.com", RType::Mx),
            ("ghost.served.com", RType::A),
            ("never.com", RType::A),
            ("nope.unknowntld", RType::A),
        ] {
            let wire = query(77, name, rtype);
            let decoded = Message::decode(&wire).unwrap();
            let offline = dns.respond(&route(&dns, &decoded), &wire).unwrap();
            let served = answer(&dns, &wire).unwrap();
            assert_eq!(served.wire, offline, "{name} {rtype:?}");
        }
    }

    #[test]
    fn answer_reports_the_question_and_rcode() {
        let dns = world();
        let a = answer(&dns, &query(9, "missing.com", RType::A)).unwrap();
        assert_eq!(a.rcode, RCode::NxDomain);
        assert_eq!(a.question, Some((9, "missing.com".to_string())));
        let a = answer(&dns, &query(10, "served.com", RType::A)).unwrap();
        assert_eq!(a.rcode, RCode::NoError);
    }

    #[test]
    fn undecodable_with_header_gets_formerr_echoing_id() {
        let dns = world();
        // A full header claiming one question but carrying none.
        let mut wire = vec![0xAB, 0xCD, 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0, 0];
        wire.truncate(12);
        let a = answer(&dns, &wire).unwrap();
        assert_eq!(a.rcode, RCode::FormErr);
        assert_eq!(a.question, None);
        assert_eq!(&a.wire[..2], &[0xAB, 0xCD]);
        // QR set, RD copied, counts zeroed.
        assert_eq!(a.wire[2], 0x81);
        assert_eq!(a.wire.len(), 12);
    }

    #[test]
    fn headerless_garbage_is_dropped() {
        let dns = world();
        assert!(answer(&dns, &[1, 2, 3]).is_none());
        assert!(answer(&dns, &[]).is_none());
    }

    #[test]
    fn bind_pairs_udp_and_tcp_on_one_ephemeral_port() {
        let telemetry = Arc::new(Telemetry::wall());
        let server = DnsServer::bind(
            "127.0.0.1:0",
            world(),
            telemetry.clone(),
            ServeConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr();
        assert_ne!(addr.port(), 0);
        // Both protocols answer on the same port.
        let probe = TcpStream::connect(addr);
        assert!(probe.is_ok());
        drop(probe);
        drop(server.shutdown());
        let events = telemetry.journal.snapshot();
        assert!(events
            .iter()
            .any(|e| e.message == "dns front-end listening"));
        assert!(events.iter().any(|e| e.message == "dns front-end stopped"));
        // The ports are free again.
        assert!(TcpListener::bind(addr).is_ok());
        assert!(UdpSocket::bind(addr).is_ok());
    }
}
