//! The observability HTTP server: the endpoint table in the crate docs,
//! served by a [`Service`] pool over `std::net::TcpListener`. A
//! per-connection panic becomes an
//! [`EventLevel::Error`](nxd_telemetry::EventLevel) journal event —
//! observable on the very plane this crate serves.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nxd_telemetry::Telemetry;

use crate::http::{read_request, Request, Response, JSONL_CONTENT_TYPE, PROMETHEUS_CONTENT_TYPE};
use crate::service::Service;

/// Worker-pool size: an admin plane is scraped by one Prometheus and the
/// odd operator curl, not by production traffic.
const WORKERS: usize = 4;

/// Per-connection socket timeouts so a stalled peer cannot pin a worker.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(5);

/// State shared by the workers and the owning handle.
struct Shared {
    telemetry: Arc<Telemetry>,
    ready: AtomicBool,
}

/// A running observability server. Dropping the handle shuts it down;
/// call [`ObsServer::shutdown`] to do so explicitly.
pub struct ObsServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    service: Service,
}

impl ObsServer {
    /// Binds on `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor and its workers. The server answers `/healthz`
    /// immediately; `/readyz` stays 503 until [`ObsServer::set_ready`].
    pub fn bind(addr: impl ToSocketAddrs, telemetry: Arc<Telemetry>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            telemetry,
            ready: AtomicBool::new(false),
        });
        let mut service = Service::default();
        let (handler_shared, journal) = (shared.clone(), shared.telemetry.journal.clone());
        service.accept(
            listener,
            WORKERS,
            move |stream, _stop| handle_connection(stream, &handler_shared),
            move |worker| {
                journal.error(
                    "obs",
                    "connection handler panicked",
                    &[("worker", &worker.to_string())],
                );
            },
        )?;
        shared.telemetry.journal.info(
            "obs",
            "server listening",
            &[
                ("addr", &local.to_string()),
                ("workers", &WORKERS.to_string()),
            ],
        );
        Ok(ObsServer {
            addr: local,
            shared,
            service,
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
    fn is_ready(&self) -> bool {
        self.shared.ready.load(Ordering::SeqCst)
    }

    /// Graceful shutdown via [`Service::shutdown`]: in-flight responses
    /// complete and queued connections are answered before the workers
    /// exit.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.service.shutdown() {
            self.shared
                .telemetry
                .journal
                .info("obs", "server stopped", &[]);
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for ObsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsServer")
            .field("addr", &self.addr)
            .field("ready", &self.is_ready())
            .finish_non_exhaustive()
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
        let server = ObsServer::bind("127.0.0.1:0", telemetry.clone()).unwrap();
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
