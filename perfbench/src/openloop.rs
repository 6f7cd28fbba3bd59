//! Open-loop UDP load: one socket, one sender on an absolute schedule and
//! one receiver, no retransmits.
//!
//! Query `i` is due at `start + i / rate`. The sender sleeps until each due
//! time (never "catching up" by re-basing the schedule), and every latency
//! is measured from the due time, not from the moment the packet left: a
//! stall in the sender or the server therefore shows in the latency of
//! every query it delayed. How late the sender itself ran is reported
//! separately.

use std::io;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use nxd_serve::stamp_id;

/// Schedule of one open-loop run.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub rate_per_s: u64,
    pub queries: usize,
    /// How long the receiver waits for stragglers after the last send.
    pub drain: Duration,
}

impl Schedule {
    fn due(&self, i: usize) -> Duration {
        Duration::from_nanos((i as u128 * 1_000_000_000 / u128::from(self.rate_per_s)) as u64)
    }
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Due-time-to-response latency of each correctly answered query, µs.
    pub latency_us: Vec<f64>,
    /// Due time of each `latency_us` sample, seconds since the start.
    pub due_s: Vec<f64>,
    /// How late the sender sent each query against its due time, µs.
    pub lateness_us: Vec<f64>,
    pub sent: usize,
    pub ok: usize,
    /// Responses whose bytes (id aside) differ from the expected answer,
    /// or that match no outstanding query.
    pub mismatched: usize,
    /// Queries with no response by the end of the drain.
    pub timed_out: usize,
    /// From the schedule's start to the last response received.
    pub elapsed: Duration,
}

/// Response `got` equals `want` except for the 16-bit id.
pub fn same_answer(got: &[u8], want: &[u8]) -> bool {
    got.len() == want.len() && got.get(2..) == want.get(2..)
}

/// Runs the schedule over a socket already connected to the server.
/// Query `i` is `queries[i % len]` stamped with id `i mod 65536`; its
/// response must equal `expected[i % len]` apart from the id.
/// `before_send(i)` runs after the sender wakes for query `i` and before it
/// sends; tests use it to inject a stall.
pub fn run(
    socket: &UdpSocket,
    queries: &[Vec<u8>],
    expected: &[Vec<u8>],
    schedule: Schedule,
    before_send: impl FnMut(usize) + Send,
) -> io::Result<Outcome> {
    assert_eq!(
        queries.len(),
        expected.len(),
        "one expected answer per query"
    );
    assert!(!queries.is_empty() && schedule.rate_per_s > 0);
    socket.set_read_timeout(Some(Duration::from_millis(20)))?;
    // `published` is raised before each send, so a response can only ever
    // belong to an index below it.
    let published = AtomicUsize::new(0);
    let send_done = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            send_all(
                socket,
                queries,
                schedule,
                start,
                &published,
                &send_done,
                before_send,
            )
        });
        let mut outcome = receive_all(socket, expected, schedule, start, &published, &send_done);
        let (sent, lateness) = sender.join().expect("open-loop sender panicked")?;
        outcome.sent = sent;
        outcome.lateness_us = lateness;
        Ok(outcome)
    })
}

fn send_all(
    socket: &UdpSocket,
    queries: &[Vec<u8>],
    schedule: Schedule,
    start: Instant,
    published: &AtomicUsize,
    send_done: &AtomicBool,
    mut before_send: impl FnMut(usize),
) -> io::Result<(usize, Vec<f64>)> {
    let mut lateness = Vec::with_capacity(schedule.queries);
    let mut wire = Vec::new();
    let result = (|| {
        for i in 0..schedule.queries {
            let due = start + schedule.due(i);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            before_send(i);
            wire.clear();
            wire.extend_from_slice(&queries[i % queries.len()]);
            stamp_id(&mut wire, i as u16);
            published.store(i + 1, Ordering::SeqCst);
            let sent_at = Instant::now();
            socket.send(&wire)?;
            lateness.push(sent_at.saturating_duration_since(due).as_secs_f64() * 1e6);
        }
        Ok(())
    })();
    send_done.store(true, Ordering::SeqCst);
    result.map(|()| (lateness.len(), lateness))
}

fn receive_all(
    socket: &UdpSocket,
    expected: &[Vec<u8>],
    schedule: Schedule,
    start: Instant,
    published: &AtomicUsize,
    send_done: &AtomicBool,
) -> Outcome {
    let mut outcome = Outcome {
        latency_us: Vec::with_capacity(schedule.queries),
        due_s: Vec::with_capacity(schedule.queries),
        ..Outcome::default()
    };
    // Any response at all, right or wrong, per query index.
    let mut seen = vec![false; schedule.queries];
    let mut buf = vec![0u8; 65_535];
    let mut drain_deadline: Option<Instant> = None;
    loop {
        match socket.recv(&mut buf) {
            Ok(len) => {
                let now = Instant::now();
                let response = &buf[..len];
                let sent = published.load(Ordering::SeqCst);
                let Some(i) = nxd_serve::wire_id(response).and_then(|id| owner(id, sent)) else {
                    outcome.mismatched += 1;
                    continue;
                };
                let duplicate = std::mem::replace(&mut seen[i], true);
                if duplicate || !same_answer(response, &expected[i % expected.len()]) {
                    outcome.mismatched += 1;
                    continue;
                }
                outcome.ok += 1;
                outcome.elapsed = now - start;
                let due = schedule.due(i);
                outcome.due_s.push(due.as_secs_f64());
                outcome
                    .latency_us
                    .push(now.saturating_duration_since(start + due).as_secs_f64() * 1e6);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            // A connected UDP socket reports ICMP errors (e.g. the server
            // went away) on recv; the affected queries time out.
            Err(_) => {}
        }
        if send_done.load(Ordering::SeqCst) {
            let sent = published.load(Ordering::SeqCst);
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + schedule.drain);
            if seen[..sent].iter().all(|&s| s) || Instant::now() >= deadline {
                outcome.timed_out = seen[..sent].iter().filter(|&&s| !s).count();
                break;
            }
        }
    }
    outcome
}

/// The most recent published index carrying `id`. Ids repeat every 65,536
/// queries, but only a handful are ever in flight, so the latest sent
/// index with that id is the one answered.
fn owner(id: u16, published: usize) -> Option<usize> {
    let last = published.checked_sub(1)?;
    let back = usize::from((last as u16).wrapping_sub(id));
    last.checked_sub(back)
}
