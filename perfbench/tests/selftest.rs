//! Self-tests of the benchmark's own measuring code.

use std::net::UdpSocket;
use std::time::Duration;

use nxd_perfbench::openloop::{self, Schedule};
use nxd_perfbench::stats::{self, MIN_BEYOND};

/// A UDP echo server on an ephemeral port; answers every datagram with
/// its own bytes until `count` datagrams have been echoed.
fn echo(count: usize) -> (std::thread::JoinHandle<()>, std::net::SocketAddr) {
    let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    let addr = socket.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let mut buf = [0u8; 512];
        for _ in 0..count {
            let (len, peer) = socket.recv_from(&mut buf).unwrap();
            socket.send_to(&buf[..len], peer).unwrap();
        }
    });
    (handle, addr)
}

fn queries() -> Vec<Vec<u8>> {
    (0..16u8)
        .map(|i| vec![0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, i])
        .collect()
}

#[test]
fn open_loop_latency_includes_an_injected_sender_stall() {
    const QUERIES: usize = 1_000;
    const STALL_AT: usize = 200;
    const STALL: Duration = Duration::from_millis(60);
    let (server, addr) = echo(QUERIES);
    let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    socket.connect(addr).unwrap();
    let queries = queries();
    let schedule = Schedule {
        rate_per_s: 2_000,
        queries: QUERIES,
        drain: Duration::from_secs(2),
    };
    let out = openloop::run(&socket, &queries, &queries, schedule, |i| {
        if i == STALL_AT {
            std::thread::sleep(STALL);
        }
    })
    .unwrap();
    server.join().unwrap();

    assert_eq!(
        (out.sent, out.ok, out.mismatched, out.timed_out),
        (QUERIES, QUERIES, 0, 0)
    );
    // The stalled query was due at 100 ms and left 60 ms late; the
    // following 119 queries were due during the stall. Timing from the due
    // time charges every one of them with the wait.
    let stall_us = STALL.as_secs_f64() * 1e6;
    let worst = out.latency_us.iter().copied().fold(0.0, f64::max);
    assert!(worst >= stall_us, "worst latency {worst}us hides the stall");
    let delayed = out
        .latency_us
        .iter()
        .filter(|&&us| us >= stall_us / 2.0)
        .count();
    assert!(delayed >= 50, "only {delayed} queries carry the stall");
    let p95 = stats::tail(&out.latency_us, 95.0).unwrap();
    assert!(
        p95.value >= stall_us / 4.0,
        "p95 {}us hides the stall",
        p95.value
    );
    let late = stats::tail(&out.lateness_us, 99.0).unwrap();
    assert!(
        late.value >= stall_us / 2.0,
        "sender lateness {}us hides the stall",
        late.value
    );
}

#[test]
fn open_loop_counts_wrong_and_missing_answers() {
    const QUERIES: usize = 50;
    let (server, addr) = echo(QUERIES - 1);
    let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    socket.connect(addr).unwrap();
    let queries = queries();
    let mut expected = queries.clone();
    expected[3][12] ^= 0xFF;
    let schedule = Schedule {
        rate_per_s: 5_000,
        queries: QUERIES,
        drain: Duration::from_millis(300),
    };
    let out = openloop::run(&socket, &queries, &expected, schedule, |_| {}).unwrap();
    server.join().unwrap();
    // Queries 3, 19 and 35 get a wrong answer; the last is never echoed.
    assert_eq!(out.mismatched, 3);
    assert_eq!(out.timed_out, 1);
    assert_eq!(out.ok, QUERIES - 4);
    assert_eq!(out.latency_us.len(), out.ok);
}

#[test]
fn tail_reads_the_highest_percentile_with_ten_samples_beyond() {
    let samples: Vec<f64> = (1..=500).map(f64::from).collect();
    // p99 of 500 samples would leave only 5 beyond; p98 leaves exactly 10.
    let p = stats::tail(&samples, 99.0).unwrap();
    assert_eq!(p.samples, 500);
    assert!((p.percentile - 98.0).abs() < 1e-9);
    assert_eq!(p.value, 490.0);
    assert_eq!(samples.iter().filter(|&&s| s > p.value).count(), MIN_BEYOND);

    // With enough samples the requested percentile stands.
    let samples: Vec<f64> = (1..=2_000).rev().map(f64::from).collect();
    let p = stats::tail(&samples, 99.0).unwrap();
    assert_eq!((p.samples, p.percentile, p.value), (2_000, 99.0, 1_980.0));
    assert_eq!(samples.iter().filter(|&&s| s > p.value).count(), 20);

    let p50 = stats::tail(&samples, 50.0).unwrap();
    assert_eq!((p50.percentile, p50.value), (50.0, 1_000.0));

    // Ten samples or fewer support no percentile at all.
    assert_eq!(stats::tail(&[1.0; 10], 50.0), None);
    let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
    let p = stats::tail(&eleven, 99.0).unwrap();
    assert_eq!((p.samples, p.value), (11, 1.0));
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(stats::median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(stats::median(&[]), None);
}

#[test]
fn summary_takes_the_median_over_windows() {
    let window = |scale: f64| stats::Window {
        ops: 100.0,
        seconds: 2.0,
        cpu_s: 0.01 * scale,
        latency_us: (1..=1_000).map(|v| f64::from(v) * scale).collect(),
    };
    // One window ten times slower than the other two moves no median; CPU
    // per operation is the whole phase's: 0.12 s over 300 operations.
    let summary = stats::summarize(&[window(1.0), window(10.0), window(1.0)]).unwrap();
    assert_eq!(summary.windows, 3);
    assert_eq!(summary.ops_per_s, 50.0);
    assert!((summary.cpu_us_per_op - 400.0).abs() < 1e-9);
    assert_eq!(
        (summary.p50_us, summary.p95_us, summary.p99_us),
        (500.0, 950.0, 990.0)
    );
    assert_eq!(
        (summary.min_samples, summary.tail_percentile),
        (1_000, 99.0)
    );
}
