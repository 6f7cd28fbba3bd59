//! The shared server-thread skeleton: a panicking connection handler is
//! reported once and costs no worker, and shutdown is idempotent.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nxd_obs::Service;

/// Sends `request`, half-closes, and returns whatever the server wrote
/// back before closing its side.
fn exchange(addr: SocketAddr, request: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    stream.write_all(request).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    reply
}

#[test]
fn a_panicking_handler_is_reported_and_the_worker_survives() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let panics = Arc::new(AtomicUsize::new(0));
    let counted = panics.clone();
    let mut service = Service::default();
    service
        .accept(
            listener,
            1,
            |mut stream, _stop| {
                let mut request = Vec::new();
                let _ = stream.read_to_end(&mut request);
                assert!(request != b"poison", "poisoned request");
                let _ = stream.write_all(b"ok");
            },
            move |worker| {
                assert_eq!(worker, 0);
                counted.fetch_add(1, Ordering::SeqCst);
            },
        )
        .unwrap();

    assert_eq!(exchange(addr, b"poison"), b"");
    // One worker: this connection is served only after the panic above
    // was caught and reported.
    assert_eq!(exchange(addr, b"clean"), b"ok");
    assert_eq!(panics.load(Ordering::SeqCst), 1);

    assert!(service.shutdown());
    assert!(!service.shutdown());
    assert!(
        TcpListener::bind(addr).is_ok(),
        "port still held after shutdown"
    );
}
