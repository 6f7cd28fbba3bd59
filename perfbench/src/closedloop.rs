//! Closed-loop TCP load: a fixed number of connections in flight, each
//! batch opening a connection, pipelining its queries, reading every
//! response and closing, as `nxd_serve::tcp_exchange` does.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use nxd_serve::{read_frame, stamp_id, write_frame, MAX_TCP_MESSAGE};

use crate::openloop::same_answer;

/// Shape of one closed-loop run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Stream index of the run's first query.
    pub first: usize,
    pub connections: usize,
    pub pipeline: usize,
    pub duration: Duration,
    pub timeout: Duration,
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Batch-write-to-response-read latency per correctly answered query, µs.
    pub latency_us: Vec<f64>,
    /// Write-to-last-read time of each completed batch, µs.
    pub batch_us: Vec<f64>,
    pub attempted: usize,
    pub ok: usize,
    /// Responses whose bytes (id aside) or id differ from the expected ones.
    pub mismatched: usize,
    /// From the first batch to the last one's completion.
    pub elapsed: Duration,
}

/// Runs batches on `shape.connections` threads until `shape.duration` has
/// passed, taking queries from the stream in order from `shape.first`.
/// Query `j` of the stream is `queries[j % len]` with id
/// `j mod 65536`; its response must equal `expected[j % len]` apart from
/// the id.
pub fn run(server: SocketAddr, queries: &[Vec<u8>], expected: &[Vec<u8>], shape: Shape) -> Outcome {
    assert_eq!(
        queries.len(),
        expected.len(),
        "one expected answer per query"
    );
    let next = AtomicUsize::new(shape.first);
    let total = Mutex::new(Outcome::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..shape.connections.max(1) {
            scope.spawn(|| {
                let mine = client(server, queries, expected, shape, start, &next);
                let mut total = total.lock().expect("closed-loop tally poisoned");
                total.latency_us.extend(mine.latency_us);
                total.batch_us.extend(mine.batch_us);
                total.attempted += mine.attempted;
                total.ok += mine.ok;
                total.mismatched += mine.mismatched;
                total.elapsed = total.elapsed.max(mine.elapsed);
            });
        }
    });
    total.into_inner().expect("closed-loop tally poisoned")
}

fn client(
    server: SocketAddr,
    queries: &[Vec<u8>],
    expected: &[Vec<u8>],
    shape: Shape,
    start: Instant,
    next: &AtomicUsize,
) -> Outcome {
    let mut out = Outcome::default();
    let pipeline = shape.pipeline.max(1);
    while start.elapsed() < shape.duration {
        let first = next.fetch_add(pipeline, Ordering::Relaxed);
        let batch: Vec<Vec<u8>> = (first..first + pipeline)
            .map(|j| {
                let mut wire = queries[j % queries.len()].clone();
                stamp_id(&mut wire, j as u16);
                wire
            })
            .collect();
        out.attempted += pipeline;
        let answered = match exchange(server, &batch, shape.timeout) {
            Ok(answered) => answered,
            // A failed connect, write or read leaves the batch's
            // unanswered queries counted as attempted but not ok.
            Err(_) => continue,
        };
        for (k, (response, at)) in answered.iter().enumerate() {
            let j = first + k;
            if same_answer(response, &expected[j % expected.len()])
                && nxd_serve::wire_id(response) == Some(j as u16)
            {
                out.ok += 1;
                out.latency_us.push(at.as_secs_f64() * 1e6);
            } else {
                out.mismatched += 1;
            }
        }
        if let Some((_, last)) = answered.last() {
            if answered.len() == pipeline {
                out.batch_us.push(last.as_secs_f64() * 1e6);
            }
        }
        out.elapsed = start.elapsed();
    }
    out
}

/// One batch: connect, write every frame, read the responses in order.
/// Each response comes back with its time since the first write. A read
/// failure mid-batch returns the responses read so far.
fn exchange(
    server: SocketAddr,
    batch: &[Vec<u8>],
    timeout: Duration,
) -> io::Result<Vec<(Vec<u8>, Duration)>> {
    let mut stream = TcpStream::connect_timeout(&server, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    let written = Instant::now();
    for query in batch {
        write_frame(&mut stream, query)?;
    }
    stream.flush()?;
    let mut answered = Vec::with_capacity(batch.len());
    for _ in batch {
        match read_frame(&mut stream, MAX_TCP_MESSAGE) {
            Ok(Some(response)) => answered.push((response, written.elapsed())),
            Ok(None) | Err(_) => break,
        }
    }
    Ok(answered)
}
