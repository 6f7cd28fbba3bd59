//! The observability HTTP server: a bounded worker pool over
//! `std::net::TcpListener` serving the endpoint table in the crate docs,
//! with graceful shutdown (shutdown flag + connect-to-self wakeup, then
//! join every thread).
//!
//! Threading model: one acceptor thread pushes accepted connections into a
//! bounded channel; N worker threads pull and answer them. The invariant
//! behind the workspace's `thread::spawn` ban (worker panics must surface
//! as typed data, not die silently) is preserved differently than in the
//! compute pipelines: server threads must outlive the function that binds
//! them, so instead of a crossbeam scope each connection is handled under
//! `catch_unwind` and a panic becomes an
//! [`EventLevel::Error`](nxd_telemetry::EventLevel) journal event —
//! observable on the very plane this crate serves.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use nxd_telemetry::Telemetry;

use crate::http::{read_request, Request, Response, JSONL_CONTENT_TYPE, PROMETHEUS_CONTENT_TYPE};

/// Default worker-pool size: an admin plane is scraped by one Prometheus
/// and the odd operator curl, not by production traffic.
pub const DEFAULT_WORKERS: usize = 4;

/// Accepted-but-unserved connections the acceptor will queue before
/// exerting backpressure (further accepts block in `send`).
const PENDING_CONNECTIONS: usize = 64;

/// Per-connection socket timeouts so a stalled peer cannot pin a worker.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(5);

/// State shared by the acceptor, the workers, and the owning handle.
struct Shared {
    telemetry: Arc<Telemetry>,
    ready: AtomicBool,
    shutdown: AtomicBool,
}

/// A running observability server. Dropping the handle shuts it down;
/// call [`ObsServer::shutdown`] to do so explicitly.
pub struct ObsServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ObsServer {
    /// Binds on `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor plus [`DEFAULT_WORKERS`] workers. The server answers
    /// `/healthz` immediately; `/readyz` stays 503 until
    /// [`ObsServer::set_ready`].
    pub fn bind(addr: impl ToSocketAddrs, telemetry: Arc<Telemetry>) -> std::io::Result<Self> {
        Self::bind_with(addr, telemetry, DEFAULT_WORKERS)
    }

    /// [`ObsServer::bind`] with an explicit worker count (clamped to 1..=16).
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        telemetry: Arc<Telemetry>,
        workers: usize,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            telemetry,
            ready: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let worker_count = workers.clamp(1, 16);
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(PENDING_CONNECTIONS);
        let rx = Arc::new(Mutex::new(rx));
        let mut worker_handles = Vec::with_capacity(worker_count);
        for index in 0..worker_count {
            let rx = rx.clone();
            let shared = shared.clone();
            worker_handles.push(spawn_detached(move || worker_loop(index, &rx, &shared)));
        }
        let acceptor_shared = shared.clone();
        let acceptor = spawn_detached(move || accept_loop(&listener, &tx, &acceptor_shared));
        shared.telemetry.journal.info(
            "obs",
            "server listening",
            &[
                ("addr", &local.to_string()),
                ("workers", &worker_count.to_string()),
            ],
        );
        Ok(ObsServer {
            addr: local,
            shared,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }

    /// The bound address — with port 0 binds, the port the OS picked.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Flips `/readyz` from 503 to 200. Idempotent; the first flip is
    /// recorded in the journal. Call when the pipeline's first phase
    /// completes, per the readiness contract in the crate docs.
    pub fn set_ready(&self) {
        if !self.shared.ready.swap(true, Ordering::SeqCst) {
            self.shared
                .telemetry
                .journal
                .info("obs", "readiness flipped", &[]);
        }
    }

    /// Current `/readyz` state.
    pub fn is_ready(&self) -> bool {
        self.shared.ready.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: raises the shutdown flag, wakes the acceptor
    /// with a connect-to-self, and joins every thread. In-flight
    /// responses complete; queued connections are answered before the
    /// workers observe the closed channel and exit.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.acceptor.is_none() {
            return;
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // accept() has no timeout; a throwaway connection unblocks it so
        // it can observe the flag.
        if let Ok(stream) = TcpStream::connect(self.addr) {
            drop(stream);
        }
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.shared
            .telemetry
            .journal
            .info("obs", "server stopped", &[]);
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for ObsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsServer")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .field("ready", &self.is_ready())
            .finish_non_exhaustive()
    }
}

/// The workspace's one sanctioned detached-spawn site. Server threads must
/// outlive the function that binds them (a crossbeam scope would join
/// before `bind` returned), every handle is joined in shutdown, and worker
/// panics are caught per-connection and journaled — the invariant the
/// `thread::spawn` ban protects (panics surface as typed data) holds by
/// other means.
#[expect(
    clippy::disallowed_methods,
    reason = "server threads outlive bind(); all handles joined in shutdown(); per-connection panics are caught and recorded as journal error events"
)]
fn spawn_detached(f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::spawn(f)
}

fn accept_loop(listener: &TcpListener, tx: &SyncSender<TcpStream>, shared: &Arc<Shared>) {
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
        if tx.send(stream).is_err() {
            break;
        }
    }
    // Dropping tx here closes the channel; workers drain it and exit.
}

fn worker_loop(index: usize, rx: &Arc<Mutex<Receiver<TcpStream>>>, shared: &Arc<Shared>) {
    loop {
        // Lock only around recv: dequeueing is serialized, handling is
        // concurrent across workers.
        let stream = {
            let Ok(guard) = rx.lock() else { break };
            match guard.recv() {
                Ok(stream) => stream,
                Err(_) => break,
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| handle_connection(stream, shared)));
        if outcome.is_err() {
            shared.telemetry.journal.error(
                "obs",
                "connection handler panicked",
                &[("worker", &index.to_string())],
            );
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let mut reader = BufReader::new(stream);
    let response = match read_request(&mut reader) {
        Ok(request) => route(&request, shared),
        Err(_) => Response::bad_request(),
    };
    let mut stream = reader.into_inner();
    let _ = response.write_to(&mut stream);
}

fn route(request: &Request, shared: &Shared) -> Response {
    if request.method != "GET" {
        return Response::method_not_allowed();
    }
    let response = match request.path.as_str() {
        "/" => Response::text(
            "nxd-obs: /metrics /healthz /readyz /snapshot.json /journal?since=<seq> /spans\n",
        ),
        "/metrics" => Response::ok(
            PROMETHEUS_CONTENT_TYPE,
            shared.telemetry.registry.snapshot().to_prometheus(),
        ),
        "/healthz" => Response::text("ok\n"),
        "/readyz" => {
            if shared.ready.load(Ordering::SeqCst) {
                Response::text("ready\n")
            } else {
                Response::service_unavailable("starting\n")
            }
        }
        "/snapshot.json" => Response::json(shared.telemetry.registry.snapshot().to_json()),
        "/journal" => {
            let since = request
                .query_param("since")
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            Response::ok(
                JSONL_CONTENT_TYPE,
                nxd_telemetry::journal::jsonl(&shared.telemetry.journal.since(since)),
            )
        }
        "/spans" => Response::json(shared.telemetry.tracer.to_chrome_trace()),
        _ => Response::not_found(),
    };
    // Route-label cardinality stays bounded: unknown paths count as one
    // "other" series rather than echoing attacker-controlled strings.
    let label = if response.status == 404 {
        "other"
    } else {
        request.path.as_str()
    };
    shared
        .telemetry
        .registry
        .counter_with("obs_http_requests_total", &[("path", label)])
        .inc();
    response
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::http_get;

    fn server() -> (ObsServer, String) {
        let telemetry = Arc::new(Telemetry::wall());
        telemetry.registry.counter("seed_total").add(5);
        telemetry.journal.info("test", "seeded", &[("k", "v")]);
        let server = ObsServer::bind("127.0.0.1:0", telemetry).unwrap();
        let addr = server.local_addr().to_string();
        (server, addr)
    }

    #[test]
    fn serves_metrics_health_and_snapshot() {
        let (server, addr) = server();
        let metrics = http_get(&addr, "/metrics").unwrap();
        assert_eq!(metrics.status, 200);
        assert!(metrics.body.contains("seed_total 5"));

        let health = http_get(&addr, "/healthz").unwrap();
        assert_eq!((health.status, health.body.as_str()), (200, "ok\n"));

        let snapshot = http_get(&addr, "/snapshot.json").unwrap();
        assert_eq!(snapshot.status, 200);
        assert!(snapshot.body.contains("\"name\":\"seed_total\""));

        let spans = http_get(&addr, "/spans").unwrap();
        assert!(spans.body.starts_with("{\"traceEvents\":["));
        server.shutdown();
    }

    #[test]
    fn readiness_flips_once() {
        let (server, addr) = server();
        assert_eq!(http_get(&addr, "/readyz").unwrap().status, 503);
        assert!(!server.is_ready());
        server.set_ready();
        server.set_ready();
        assert_eq!(http_get(&addr, "/readyz").unwrap().status, 200);
        assert!(server.is_ready());
        server.shutdown();
    }

    #[test]
    fn journal_since_is_a_cursor() {
        let (server, addr) = server();
        let full = http_get(&addr, "/journal").unwrap();
        assert!(full.body.contains("\"message\":\"seeded\""));
        // The highest seq seen so far filters everything out...
        let empty = http_get(&addr, "/journal?since=1000000").unwrap();
        assert_eq!(empty.body, "");
        // ...and garbage cursors fall back to the full tail.
        let fallback = http_get(&addr, "/journal?since=bogus").unwrap();
        assert_eq!(fallback.body, full.body);
        server.shutdown();
    }

    #[test]
    fn unknown_paths_and_methods_are_rejected() {
        let (server, addr) = server();
        assert_eq!(http_get(&addr, "/nope").unwrap().status, 404);
        // Requests counter groups 404s under "other".
        let metrics = http_get(&addr, "/metrics").unwrap();
        assert!(metrics
            .body
            .contains("obs_http_requests_total{path=\"other\"} 1"));
        server.shutdown();
    }

    #[test]
    fn shutdown_frees_the_port_and_joins() {
        let telemetry = Arc::new(Telemetry::wall());
        let server = ObsServer::bind_with("127.0.0.1:0", telemetry.clone(), 2).unwrap();
        let addr = server.local_addr();
        server.shutdown();
        // The port is free again and the journal recorded the lifecycle.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "port still held after shutdown");
        let events = telemetry.journal.snapshot();
        assert!(events.iter().any(|e| e.message == "server listening"));
        assert!(events.iter().any(|e| e.message == "server stopped"));
    }
}
