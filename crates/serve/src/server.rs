//! The live DNS front-end: a UDP reader pool and a TCP acceptor feeding a
//! bounded worker pool, answering wire packets from the authoritative
//! [`SimDns`] hierarchy with graceful shutdown in the nxd-obs style
//! (shutdown flag + connect-to-self wakeup + join every thread).
//!
//! Threading model: `udp_readers` threads block on `recv_from` with a
//! short poll timeout (so they observe the shutdown flag); one acceptor
//! thread blocks on `accept` (woken by a throwaway connection at
//! shutdown); both push [`Job`]s into a bounded `mpsc` channel drained by
//! `workers` threads. Each job is handled under `catch_unwind` — a
//! panicking request becomes a counter increment and a journal error
//! event, never a dead worker.
//!
//! Byte parity: [`answer`] routes a decodable query with
//! [`SimDns::next_server`] (falling back to the root for unknown TLDs,
//! exactly where a resolver with an empty cache would start) and returns
//! [`SimDns::respond`]'s bytes untouched. The UDP path never truncates:
//! the simulated hierarchy's responses fit classic 512-byte datagrams by
//! construction, and datagram-size policy stays in the offline
//! [`WireChannel`](nxd_dns_sim::WireChannel) transport model.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs, UdpSocket};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use nxd_dns_sim::{ServerRef, SimDns, SimTime};
use nxd_dns_wire::{Message, RCode};
use nxd_passive_dns::{PassiveDb, StreamEngine};
use nxd_telemetry::{Counter, Histogram, Registry, Stopwatch, Telemetry};

use crate::frame::{read_frame, write_frame, MAX_TCP_MESSAGE};
use crate::sink::{SensorChannel, SensorEvent, SensorTransport};

/// How often blocked UDP readers wake to observe the shutdown flag.
const UDP_POLL: Duration = Duration::from_millis(50);

/// Per-connection socket timeouts so a stalled TCP peer cannot pin a
/// worker past shutdown.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(5);

/// Front-end configuration. The defaults suit tests and the `repro`
/// binary; the load bench scales `workers` up.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// UDP reader threads pulling datagrams off the shared socket.
    pub udp_readers: usize,
    /// Worker threads answering queries (UDP datagrams and whole TCP
    /// connections alike).
    pub workers: usize,
    /// Jobs buffered before readers/acceptor block (backpressure bound).
    pub pending_jobs: usize,
    /// Largest accepted TCP message.
    pub max_tcp_message: usize,
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
            udp_readers: 2,
            workers: 4,
            pending_jobs: 256,
            max_tcp_message: MAX_TCP_MESSAGE,
            day: SimTime::ERA_START.day_number() as u32,
            sensor: 0,
            stream: None,
        }
    }
}

/// One unit of work for the pool.
enum Job {
    Udp { data: Vec<u8>, peer: SocketAddr },
    Tcp { stream: TcpStream },
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

/// State shared by readers, the acceptor, the workers, and the handle.
struct Shared {
    telemetry: Arc<Telemetry>,
    shutdown: AtomicBool,
}

/// Everything one worker needs.
struct WorkerCtx {
    rx: Arc<Mutex<Receiver<Job>>>,
    dns: Arc<SimDns>,
    udp: Arc<UdpSocket>,
    shared: Arc<Shared>,
    metrics: Arc<ServeMetrics>,
    sink_tx: Option<crossbeam::channel::Sender<SensorEvent>>,
    max_tcp_message: usize,
}

/// A running DNS front-end. [`DnsServer::shutdown`] returns the served
/// passive-DNS database; dropping the handle shuts down and discards it.
pub struct DnsServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    readers: Vec<JoinHandle<()>>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    sink: Option<SensorChannel>,
}

impl DnsServer {
    /// Binds UDP and TCP on the same address (port 0 picks an ephemeral
    /// port where *both* sockets agree) and starts the pool.
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
        let udp = Arc::new(udp);
        let shared = Arc::new(Shared {
            telemetry: telemetry.clone(),
            shutdown: AtomicBool::new(false),
        });
        let metrics = Arc::new(ServeMetrics::new(&telemetry.registry));
        let sink = SensorChannel::spawn_with_stream(
            config.day,
            config.sensor,
            telemetry.clone(),
            config.stream.clone(),
        );

        let (tx, rx) = mpsc::sync_channel::<Job>(config.pending_jobs.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let worker_count = config.workers.clamp(1, 64);
        let mut workers = Vec::with_capacity(worker_count);
        for index in 0..worker_count {
            let ctx = WorkerCtx {
                rx: rx.clone(),
                dns: dns.clone(),
                udp: udp.clone(),
                shared: shared.clone(),
                metrics: metrics.clone(),
                sink_tx: sink.sender(),
                max_tcp_message: config.max_tcp_message,
            };
            workers.push(spawn_detached(move || worker_loop(index, &ctx)));
        }

        let reader_count = config.udp_readers.clamp(1, 16);
        let mut readers = Vec::with_capacity(reader_count);
        for _ in 0..reader_count {
            let udp = udp.clone();
            let tx = tx.clone();
            let shared = shared.clone();
            readers.push(spawn_detached(move || udp_reader_loop(&udp, &tx, &shared)));
        }
        let acceptor_shared = shared.clone();
        let acceptor = spawn_detached(move || accept_loop(&listener, &tx, &acceptor_shared));

        telemetry.journal.info(
            "serve",
            "dns front-end listening",
            &[
                ("addr", &local.to_string()),
                ("workers", &worker_count.to_string()),
                ("udp_readers", &reader_count.to_string()),
            ],
        );
        Ok(DnsServer {
            addr: local,
            shared,
            readers,
            acceptor: Some(acceptor),
            workers,
            sink: Some(sink),
        })
    }

    /// The bound address — with port 0 binds, the port the OS picked
    /// (identical for UDP and TCP).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: raise the flag, wake the acceptor, join readers,
    /// acceptor, and workers (in-flight requests complete), then collect
    /// the served passive-DNS database from the sensor channel.
    pub fn shutdown(mut self) -> PassiveDb {
        self.shutdown_inner();
        match self.sink.take() {
            Some(sink) => sink.finish(),
            None => PassiveDb::default(),
        }
    }

    fn shutdown_inner(&mut self) {
        if self.acceptor.is_none() {
            return;
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // accept() has no timeout; a throwaway connection unblocks it so
        // it can observe the flag. UDP readers wake on their poll timeout.
        if let Ok(stream) = TcpStream::connect(self.addr) {
            drop(stream);
        }
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        for handle in self.readers.drain(..) {
            let _ = handle.join();
        }
        // All job senders are now dropped: workers drain the queue, exit,
        // and release their sensor senders.
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.shared
            .telemetry
            .journal
            .info("serve", "dns front-end stopped", &[]);
    }
}

impl Drop for DnsServer {
    fn drop(&mut self) {
        self.shutdown_inner();
        if let Some(sink) = self.sink.take() {
            // Drop must not panic: a collector panic re-raised by finish()
            // is discarded together with the database nobody will read.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sink.finish()));
        }
    }
}

impl std::fmt::Debug for DnsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DnsServer")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .field("udp_readers", &self.readers.len())
            .finish_non_exhaustive()
    }
}

/// The front-end's sanctioned detached-spawn site, mirroring nxd-obs:
/// server threads must outlive `bind` (a crossbeam scope would join before
/// it returned), every handle is joined in shutdown, and request panics
/// are caught per job and surfaced as metrics + journal error events — the
/// invariant the `thread::spawn` ban protects holds by other means.
#[expect(
    clippy::disallowed_methods,
    reason = "server threads outlive bind(); all handles joined in shutdown(); per-request panics are caught and recorded as serve_handler_panics_total + journal error events"
)]
fn spawn_detached(f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::spawn(f)
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

fn udp_reader_loop(udp: &UdpSocket, tx: &SyncSender<Job>, shared: &Shared) {
    let mut buf = vec![0u8; 65_535];
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match udp.recv_from(&mut buf) {
            Ok((len, peer)) => {
                let data = buf.get(..len).map(<[u8]>::to_vec).unwrap_or_default();
                if tx.send(Job::Udp { data, peer }).is_err() {
                    break;
                }
            }
            // The poll timeout (WouldBlock/TimedOut depending on platform)
            // just loops back to the shutdown check.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
}

fn accept_loop(listener: &TcpListener, tx: &SyncSender<Job>, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // The wakeup connection itself; nothing to serve.
            break;
        }
        if tx.send(Job::Tcp { stream }).is_err() {
            break;
        }
    }
}

fn worker_loop(index: usize, ctx: &WorkerCtx) {
    loop {
        // Lock only around recv: dequeueing is serialized, handling is
        // concurrent across workers.
        let job = {
            let Ok(guard) = ctx.rx.lock() else { break };
            match guard.recv() {
                Ok(job) => job,
                Err(_) => break,
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| match job {
            Job::Udp { data, peer } => handle_udp(ctx, &data, peer),
            Job::Tcp { stream } => handle_tcp(ctx, stream),
        }));
        if outcome.is_err() {
            ctx.metrics.panics.inc();
            ctx.shared.telemetry.journal.error(
                "serve",
                "request handler panicked",
                &[("worker", &index.to_string())],
            );
        }
    }
}

fn handle_udp(ctx: &WorkerCtx, data: &[u8], peer: SocketAddr) {
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

fn handle_tcp(ctx: &WorkerCtx, mut stream: TcpStream) {
    ctx.metrics.tcp_connections.inc();
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let Ok(peer) = stream.peer_addr() else { return };
    loop {
        if ctx.shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let data = match read_frame(&mut stream, ctx.max_tcp_message) {
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

fn observe(ctx: &WorkerCtx, peer: SocketAddr, answered: &Answered, transport: SensorTransport) {
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
            let server = route(dns, &query);
            let wire = match dns.respond(&server, query_wire) {
                Ok(wire) => wire,
                // Decoded but unanswerable (e.g. un-encodable response):
                // degrade to FORMERR rather than going silent.
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
