//! The server-thread skeleton shared by every live plane: a TCP acceptor
//! feeding a bounded worker pool, extra long-running loops, and one
//! graceful shutdown (flag → connect-to-self wakeup → join every thread).
//!
//! This is the workspace's one sanctioned detached-spawn site. Server
//! threads must outlive the function that binds them (a crossbeam scope
//! would join before `bind` returned), so the invariant behind the §8
//! `thread::spawn` ban — a panic surfaces as data, never as a silent
//! death — holds by other means: every handle is joined in
//! [`Service::shutdown`], and each accepted connection runs under
//! `catch_unwind`, a panic reaching the caller's `on_panic` hook.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Accepted-but-unserved connections an acceptor queues before exerting
/// backpressure (further accepts block in `send`).
const PENDING_CONNECTIONS: usize = 64;

/// The threads of one running server. Dropping it shuts it down.
#[derive(Debug, Default)]
pub struct Service {
    stop: Arc<AtomicBool>,
    /// Listener addresses to wake with a throwaway connection at shutdown.
    listeners: Vec<SocketAddr>,
    threads: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts an acceptor on `listener` plus `workers` threads (at least
    /// one) answering its connections. Each connection is handed to
    /// `handle` with the stop flag, which long-lived handlers poll; a
    /// panicking `handle` is caught and reported to `on_panic` with the
    /// worker's index, and the worker moves on to the next connection.
    pub fn accept<H, P>(
        &mut self,
        listener: TcpListener,
        workers: usize,
        handle: H,
        on_panic: P,
    ) -> io::Result<()>
    where
        H: Fn(TcpStream, &AtomicBool) + Send + Sync + 'static,
        P: Fn(usize) + Send + Sync + 'static,
    {
        self.listeners.push(listener.local_addr()?);
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(PENDING_CONNECTIONS);
        let rx = Arc::new(Mutex::new(rx));
        let handle = Arc::new(handle);
        let on_panic = Arc::new(on_panic);
        for index in 0..workers.max(1) {
            let (rx, handle, on_panic) = (rx.clone(), handle.clone(), on_panic.clone());
            self.spawn(move |stop| worker_loop(index, &rx, stop, &*handle, &*on_panic));
        }
        // The acceptor owns the only sender: its exit closes the queue, so
        // the workers drain it and then exit.
        self.spawn(move |stop| accept_loop(&listener, &tx, stop));
        Ok(())
    }

    /// Runs `body` on its own thread until it returns; `body` polls the
    /// stop flag and must return soon after it is raised.
    pub fn spawn(&mut self, body: impl FnOnce(&AtomicBool) + Send + 'static) {
        let stop = self.stop.clone();
        self.threads.push(spawn_detached(move || body(&stop)));
    }

    /// Raises the stop flag, wakes every acceptor with a connect-to-self,
    /// and joins every thread: in-flight and queued connections complete
    /// first. Returns `true` only on the call that actually stopped the
    /// service, so callers journal "stopped" exactly once.
    pub fn shutdown(&mut self) -> bool {
        if self.stop.swap(true, Ordering::SeqCst) {
            return false;
        }
        // accept() has no timeout; a throwaway connection unblocks it so
        // it can observe the flag.
        for addr in &self.listeners {
            drop(TcpStream::connect(addr));
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        true
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "server threads outlive bind(); all handles joined in Service::shutdown(); per-connection panics are caught and handed to on_panic"
)]
fn spawn_detached(f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::spawn(f)
}

fn accept_loop(listener: &TcpListener, tx: &SyncSender<TcpStream>, stop: &AtomicBool) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            // Most likely the wakeup connection itself; nothing to serve.
            break;
        }
        if let Ok((stream, _peer)) = accepted {
            if tx.send(stream).is_err() {
                break;
            }
        }
    }
}

fn worker_loop(
    index: usize,
    rx: &Mutex<Receiver<TcpStream>>,
    stop: &AtomicBool,
    handle: &dyn Fn(TcpStream, &AtomicBool),
    on_panic: &dyn Fn(usize),
) {
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
        if catch_unwind(AssertUnwindSafe(|| handle(stream, stop))).is_err() {
            on_panic(index);
        }
    }
}
