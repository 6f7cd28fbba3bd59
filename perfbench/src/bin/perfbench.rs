//! The benchmark runner: generates the load of one workload, checks every
//! answer, and prints its metrics.
//!
//! ```text
//! perfbench --workload <serve-udp|serve-tcp|ingest-analyze> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object carrying every
//! end-to-end metric; with `--trace 1` it carries every per-layer metric
//! instead, and a Chrome trace of the layer replay is written under the
//! build directory. Lines before it, each starting with `#`, give sample
//! counts, the percentile actually read, and the host's own counters.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use nxd_perfbench::host::{fields, number, Host};
use nxd_perfbench::layers::{self, Metrics};
use nxd_perfbench::openloop::{self, same_answer};
use nxd_perfbench::{closedloop, ingest, procfs, serve, stats};
use nxd_serve::sink::SensorTransport;
use nxd_serve::{read_frame, stamp_id, write_frame, MAX_TCP_MESSAGE};
use nxd_telemetry::Tracer;

/// Host launches per run, each a fresh process; `setup_s` is the median
/// of their set-up times. One launch runs the timed phase; the others are
/// spread around and through it, so the set-ups sample the machine across
/// the whole run.
const SETUPS: usize = 9;
/// Seconds per window of the `serve-udp` timed phase; latency figures are
/// medians over windows.
const WINDOW_S: u64 = 2;
/// A `serve-tcp` batch slower than this counts as stalled.
const STALL: Duration = Duration::from_millis(10);

/// Every end-to-end metric. Latency is not among them: on a small shared
/// host its run-to-run spread follows the neighbours' load and is wider
/// than any useful bound, so it is printed on every run and reported in
/// the traced run (`latency.*`) without a bound.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MiB"),
    ("success_ratio", "ratio"),
];

/// Every per-layer metric. A layer the workload never calls reads 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("dns-wire.decode_ns", "ns"),
    ("dns-wire.encode_ns", "ns"),
    ("dns-sim.route_ns", "ns"),
    ("dns-sim.lookup_ns", "ns"),
    ("dns-sim.respond_ns", "ns"),
    ("serve.answer_ns", "ns"),
    ("serve.outside_answer_us", "us"),
    ("serve.frame_ns", "ns"),
    ("serve.connect_us", "us"),
    ("serve.tcp_stalled_batches_ratio", "ratio"),
    ("serve.sink_events_per_s", "1/s"),
    ("serve.sink_recorded_ratio", "ratio"),
    ("serve.sink_duplicates", "count"),
    ("passive-dns.record_ns", "ns"),
    ("passive-dns.record_max_us", "us"),
    ("passive-dns.submit_wait_us", "us"),
    ("passive-dns.ingest_s", "s"),
    ("passive-dns.stream.offer_ns", "ns"),
    ("passive-dns.stream.snapshot_us", "us"),
    ("passive-dns.stream.admitted_rows", "count"),
    ("passive-dns.stream.late_rows", "count"),
    ("passive-dns.scan_ms", "ms"),
    ("passive-dns.compressed_ratio", "ratio"),
    ("passive-dns.stream.sketch_bytes", "bytes"),
    ("core.origin_ms", "ms"),
    ("core.origin_serial_ms", "ms"),
    ("whois.has_history_ns", "ns"),
    ("dga.is_dga_ns", "ns"),
    ("squat.classify_ns", "ns"),
    ("blocklist.xref_ms", "ms"),
    ("latency.p50_us", "us"),
    ("latency.p95_us", "us"),
    ("latency.p99_us", "us"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.cpu_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse() -> io::Result<Args> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let value = |name: &str| {
            args.iter()
                .position(|a| a == name)
                .and_then(|i| args.get(i + 1))
                .cloned()
                .ok_or_else(|| invalid(format!("{name} is required")))
        };
        let int = |name: &str| {
            value(name)?
                .parse::<u64>()
                .map_err(|_| invalid(format!("{name} takes a whole number")))
        };
        let trace = match value("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err(invalid("--trace takes 0 or 1")),
        };
        Ok(Args {
            workload: value("--workload")?,
            seed: int("--seed")?,
            seconds: int("--seconds")?.max(1),
            trace,
        })
    }
}

/// One run's verdict and measurements.
struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: Metrics,
    per_layer: Metrics,
}

fn main() -> ExitCode {
    let result = Args::parse().and_then(|args| {
        println!(
            "# workload={} seed={} seconds={} trace={}",
            args.workload, args.seed, args.seconds, args.trace as u8
        );
        let run = match args.workload.as_str() {
            "serve-udp" => serve_workload(&args, true)?,
            "serve-tcp" => serve_workload(&args, false)?,
            "ingest-analyze" => ingest_workload(&args)?,
            other => return Err(invalid(format!("unknown workload {other:?}"))),
        };
        Ok((args, run))
    });
    match result {
        Ok((args, run)) => {
            let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
            let values = if args.trace {
                &run.per_layer
            } else {
                &run.end_to_end
            };
            match report(&run, table, values) {
                Ok(line) => {
                    println!("{line}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The result line: every metric of `table`, a missing per-layer one as 0.
fn report(run: &Run, table: &[(&str, &str)], values: &Metrics) -> io::Result<String> {
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match values.get(name) {
            Some(&v) => v,
            None if table.len() == PER_LAYER.len() => 0.0,
            None => return Err(invalid(format!("{name} was not measured"))),
        };
        if !value.is_finite() {
            return Err(invalid(format!("{name} is not a finite number")));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.correct,
        run.attempted,
        run.failed,
        metrics.join(", ")
    ))
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, message.into())
}

/// The window medians of a timed phase, with the window count, the fewest
/// samples in a window and the tail percentile actually read printed
/// alongside.
fn summarize(windows: &[stats::Window]) -> io::Result<stats::Summary> {
    let summary = stats::summarize(windows)
        .ok_or_else(|| io::Error::other("no window held enough latency samples"))?;
    println!(
        "# windows: {} of {} latency samples or more; p99 read at p{}",
        summary.windows, summary.min_samples, summary.tail_percentile
    );
    let per_window = |pct: f64| -> Vec<String> {
        windows
            .iter()
            .filter_map(|w| stats::tail(&w.latency_us, pct))
            .map(|p| format!("{:.0}", p.value))
            .collect()
    };
    println!("# window p50_us: {}", per_window(50.0).join(" "));
    println!("# window p95_us: {}", per_window(95.0).join(" "));
    println!("# window p99_us: {}", per_window(99.0).join(" "));

    Ok(summary)
}

fn end_to_end(
    setup_s: &[f64],
    ops_per_s: f64,
    summary: &stats::Summary,
    peak_rss_mb: f64,
    success_ratio: f64,
) -> io::Result<Metrics> {
    let times: Vec<String> = setup_s.iter().map(|s| format!("{s:.3}")).collect();
    println!("# set-ups: {} s", times.join(" "));
    Ok(Metrics::from([
        ("setup_s", median(setup_s, "setup")?),
        ("ops_per_s", ops_per_s),
        ("cpu_us_per_op", summary.cpu_us_per_op),
        ("peak_rss_mb", peak_rss_mb),
        ("success_ratio", success_ratio),
    ]))
}

/// The latency median and tail, printed on every run and reported in the
/// traced one.
fn unbounded(summary: &stats::Summary) -> Metrics {
    let metrics = Metrics::from([
        ("latency.p50_us", summary.p50_us),
        ("latency.p95_us", summary.p95_us),
        ("latency.p99_us", summary.p99_us),
    ]);
    let line: Vec<String> = metrics.iter().map(|(k, v)| format!("{k}={v:.1}")).collect();
    println!("# {}", line.join(" "));
    metrics
}

/// What the load generator measured, for either transport.
#[derive(Default)]
struct Load {
    /// The timed phase's windows, each with the host's CPU over it.
    windows: Vec<stats::Window>,
    latency_us: Vec<f64>,
    /// Open loop only: the sender's lateness against its schedule.
    lateness_us: Vec<f64>,
    /// Closed loop only: completed batch times.
    batch_us: Vec<f64>,
    attempted: usize,
    ok: usize,
    /// Responses received, right or wrong.
    received: usize,
    /// Load time: from the start of the load to the last response (open
    /// loop), or summed over windows (closed loop).
    elapsed: Duration,
    /// Wall time and the generator's own CPU time over the windows.
    wall_s: f64,
    own_cpu_s: f64,
}

fn serve_workload(args: &Args, udp: bool) -> io::Result<Run> {
    let registered = if udp {
        serve::UDP_REGISTERED
    } else {
        serve::TCP_REGISTERED
    };
    let inputs = serve::Inputs::build(&serve::world_config(args.seed, registered));
    let host_args: Vec<String> = ["serve", "--seed", &args.seed.to_string()]
        .into_iter()
        .map(String::from)
        .chain(["--registered".to_string(), registered.to_string()])
        .collect();

    // Set-up: host launch to first answered probe.
    let launch = || -> io::Result<(f64, Host, SocketAddr)> {
        let started = Instant::now();
        let mut host = Host::spawn(&host_args)?;
        let addr: SocketAddr = host
            .expect("listen")?
            .trim()
            .parse()
            .map_err(|_| invalid("host printed a bad address"))?;
        probe(addr, udp, &inputs)?;
        Ok((started.elapsed().as_secs_f64(), host, addr))
    };
    let setup_only = || -> io::Result<f64> {
        let (seconds, host, _) = launch()?;
        host.stop()?;
        Ok(seconds)
    };
    let mut setup_s = Vec::with_capacity(SETUPS);
    // The open loop runs without a break, so its other set-ups come half
    // before and half after it; the closed loop pauses for one after each
    // window.
    if udp {
        for _ in 0..SETUPS / 2 {
            setup_s.push(setup_only()?);
        }
    }
    let (seconds, host, addr) = launch()?;
    setup_s.push(seconds);
    let pid = host.pid();
    let load = if udp {
        udp_load(addr, &inputs, args.seconds, pid)?
    } else {
        tcp_load(addr, &inputs, args.seconds, pid, &mut || {
            setup_s.push(setup_only()?);
            Ok(())
        })?
    };
    let peak_rss_mb = procfs::peak_rss_mb(pid)?;
    let tracer = Tracer::wall();
    let connect_us = if args.trace && !udp {
        connects(addr, &tracer)?
    } else {
        0.0
    };
    let server = host.stop()?;
    println!("# server: {}", format_fields(&server));
    while setup_s.len() < SETUPS {
        setup_s.push(setup_only()?);
    }

    // The sink accounting identities, and every response the generator
    // received (plus the set-up probe) accounted for by the host.
    let count = |key: &str| number(&server, key);
    let (responses, recorded, duplicates) = (
        count("responses")?,
        count("recorded")?,
        count("duplicates")?,
    );
    let mut correct = load.received == load.ok;
    correct &= recorded + duplicates == responses;
    correct &= count("served_rows")? == recorded;
    correct &= count("admitted")? + count("late")? == recorded;
    if load.ok == load.attempted {
        correct &= responses == (load.received + 1) as f64;
    }
    if !correct {
        eprintln!("perfbench: a served response or a host count failed its check");
    }

    let summary = summarize(&load.windows)?;
    let sender_late_p99 = stats::tail(&load.lateness_us, 99.0).map_or(0.0, |p| p.value);
    if udp {
        println!("# sender lateness: p99={sender_late_p99:.1}us");
    }
    let end_to_end = end_to_end(
        &setup_s,
        load.ok as f64 / load.elapsed.as_secs_f64(),
        &summary,
        peak_rss_mb,
        load.ok as f64 / load.attempted as f64,
    )?;
    let unbounded = unbounded(&summary);

    let mut per_layer = Metrics::new();
    if args.trace {
        let transport = if udp {
            SensorTransport::Udp
        } else {
            SensorTransport::Tcp
        };
        per_layer = layers::traced(&tracer, |rec| {
            layers::serve_replay(rec, &inputs, load.attempted, transport)
        });
        if udp {
            let answer_us = per_layer.get("serve.answer_ns").copied().unwrap_or(0.0) / 1e3;
            per_layer.insert("serve.outside_answer_us", summary.p50_us - answer_us);
            per_layer.insert("loadgen.late_p99_us", sender_late_p99);
        } else {
            let stalled = load
                .batch_us
                .iter()
                .filter(|&&us| us > STALL.as_secs_f64() * 1e6)
                .count();
            per_layer.insert(
                "serve.tcp_stalled_batches_ratio",
                stalled as f64 / load.batch_us.len().max(1) as f64,
            );
            per_layer.insert("serve.connect_us", connect_us);
        }
        per_layer.extend(unbounded);
        per_layer.insert("serve.sink_recorded_ratio", recorded / responses);
        per_layer.insert("serve.sink_duplicates", duplicates);
        per_layer.insert("loadgen.cpu_share", load.own_cpu_s / load.wall_s);
        write_trace(args, &tracer)?;
    }
    Ok(Run {
        correct,
        attempted: load.attempted as u64,
        failed: (load.attempted - load.ok) as u64,
        end_to_end,
        per_layer,
    })
}

/// One query, answered correctly, over the workload's transport.
fn probe(addr: SocketAddr, udp: bool, inputs: &serve::Inputs) -> io::Result<()> {
    let timeout = Duration::from_secs(5);
    let mut wire = inputs.world.queries[0].clone();
    stamp_id(&mut wire, u16::MAX);
    let response = if udp {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        socket.connect(addr)?;
        socket.set_read_timeout(Some(timeout))?;
        socket.send(&wire)?;
        let mut buf = vec![0u8; 65_535];
        let len = socket.recv(&mut buf)?;
        buf.truncate(len);
        buf
    } else {
        let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        write_frame(&mut stream, &wire)?;
        stream.flush()?;
        let response = read_frame(&mut stream, MAX_TCP_MESSAGE)?;
        // Wait for the server to close its side, so the probe is fully
        // served before the load starts.
        stream.shutdown(std::net::Shutdown::Write)?;
        let _ = stream.read(&mut [0u8; 1]);
        response.unwrap_or_default()
    };
    if same_answer(&response, &inputs.expected[0]) {
        Ok(())
    } else {
        Err(io::Error::other("the set-up probe got a wrong answer"))
    }
}

/// Cuts a timed phase into windows: sample `i` falls in the window its
/// `at_s` lies in, and window `k` used `cpu[k + 1] - cpu[k]` host CPU.
fn cut(at_s: &[f64], latency_us: &[f64], cpu: &[f64], width_s: f64) -> Vec<stats::Window> {
    let mut windows: Vec<stats::Window> = cpu
        .windows(2)
        .map(|pair| stats::Window {
            seconds: width_s,
            cpu_s: pair[1] - pair[0],
            ..stats::Window::default()
        })
        .collect();
    let last = windows.len() - 1;
    for (&at, &latency) in at_s.iter().zip(latency_us) {
        let window = &mut windows[((at / width_s) as usize).min(last)];
        window.ops += 1.0;
        window.latency_us.push(latency);
    }
    windows
}

/// The process's CPU seconds at `start + k·width` for k below `count`.
fn cpu_at_boundaries(pid: u32, start: Instant, width_s: f64, count: usize) -> io::Result<Vec<f64>> {
    let mut readings = Vec::with_capacity(count + 1);
    for k in 0..count {
        let at = start + Duration::from_secs_f64(width_s * k as f64);
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        readings.push(procfs::cpu_seconds(pid)?);
    }
    Ok(readings)
}

/// The open loop, cut into windows of about `WINDOW_S`; the host's CPU is
/// read at each window boundary.
fn udp_load(addr: SocketAddr, inputs: &serve::Inputs, seconds: u64, pid: u32) -> io::Result<Load> {
    let socket = UdpSocket::bind("127.0.0.1:0")?;
    socket.connect(addr)?;
    let schedule = openloop::Schedule {
        rate_per_s: serve::UDP_RATE,
        queries: (serve::UDP_RATE * seconds) as usize,
        drain: Duration::from_secs(2),
    };
    let window_count = (seconds / WINDOW_S).max(1) as usize;
    let window_s = seconds as f64 / window_count as f64;
    let own_cpu = procfs::cpu_seconds(std::process::id())?;
    let started = Instant::now();
    let (out, host_cpu) = std::thread::scope(|scope| {
        let sampler = scope.spawn(move || cpu_at_boundaries(pid, started, window_s, window_count));
        let out = openloop::run(
            &socket,
            &inputs.world.queries,
            &inputs.expected,
            schedule,
            |_| {},
        );
        (out, sampler.join().expect("CPU sampler panicked"))
    });
    let out = out?;
    let mut host_cpu = host_cpu?;
    host_cpu.push(procfs::cpu_seconds(pid)?);
    Ok(Load {
        windows: cut(&out.due_s, &out.latency_us, &host_cpu, window_s),
        wall_s: started.elapsed().as_secs_f64(),
        own_cpu_s: procfs::cpu_seconds(std::process::id())? - own_cpu,
        latency_us: out.latency_us,
        lateness_us: out.lateness_us,
        batch_us: Vec::new(),
        attempted: schedule.queries,
        ok: out.ok,
        received: out.ok + out.mismatched,
        elapsed: out.elapsed,
    })
}

/// The closed loop in `SETUPS - 1` windows, each followed by `between`
/// while the host waits; the host's CPU is read around each window.
fn tcp_load(
    addr: SocketAddr,
    inputs: &serve::Inputs,
    seconds: u64,
    pid: u32,
    between: &mut dyn FnMut() -> io::Result<()>,
) -> io::Result<Load> {
    let window_count = SETUPS - 1;
    let mut load = Load::default();
    for _ in 0..window_count {
        let own_cpu = procfs::cpu_seconds(std::process::id())?;
        let host_cpu = procfs::cpu_seconds(pid)?;
        let started = Instant::now();
        let out = closedloop::run(
            addr,
            &inputs.world.queries,
            &inputs.expected,
            closedloop::Shape {
                first: load.attempted,
                connections: serve::TCP_CONNECTIONS,
                pipeline: serve::TCP_PIPELINE,
                duration: Duration::from_secs(seconds) / window_count as u32,
                timeout: Duration::from_secs(2),
            },
        );
        load.windows.push(stats::Window {
            ops: out.ok as f64,
            seconds: out.elapsed.as_secs_f64(),
            cpu_s: procfs::cpu_seconds(pid)? - host_cpu,
            latency_us: out.latency_us.clone(),
        });
        load.wall_s += started.elapsed().as_secs_f64();
        load.own_cpu_s += procfs::cpu_seconds(std::process::id())? - own_cpu;
        load.latency_us.extend(out.latency_us);
        load.batch_us.extend(out.batch_us);
        load.attempted += out.attempted;
        load.ok += out.ok;
        load.received += out.ok + out.mismatched;
        load.elapsed += out.elapsed;
        between()?;
    }
    Ok(load)
}

/// Median µs of a bare TCP `connect()` to the host, each in its own span.
fn connects(addr: SocketAddr, tracer: &Tracer) -> io::Result<f64> {
    let mut times = Vec::new();
    for _ in 0..200 {
        let started = Instant::now();
        let stream = {
            let _span = tracer.span("serve.connect");
            TcpStream::connect(addr)?
        };
        times.push(started.elapsed().as_secs_f64() * 1e6);
        drop(stream);
    }
    median(&times, "connect")
}

fn ingest_workload(args: &Args) -> io::Result<Run> {
    let host_args: Vec<String> = ["ingest", "--seed", &args.seed.to_string()]
        .into_iter()
        .map(String::from)
        .collect();

    // Set-up: the inputs built in a fresh host; a host whose stdin closes
    // before any window exits after it.
    let launch = || -> io::Result<(f64, Host, BTreeMap<String, String>)> {
        let mut host = Host::spawn(&host_args)?;
        let ready = fields(&host.expect("ready")?);
        Ok((number(&ready, "setup_s")?, host, ready))
    };
    let (seconds, mut host, ready) = launch()?;
    let mut setup_s = vec![seconds];
    println!("# stream: {}", format_fields(&ready));

    // The timed phase: one window per remaining set-up, each followed by
    // that set-up while the timed host waits. The host's CPU is read
    // around each window.
    let window_count = SETUPS - 1;
    let window_ms = (args.seconds * 1000 / window_count as u64).max(1);
    let (mut wall, mut own_cpu) = (0.0, 0.0);
    let mut windows = Vec::with_capacity(window_count);
    let mut reader_lateness = Vec::new();
    for _ in 0..window_count {
        let started = Instant::now();
        let own_mark = procfs::cpu_seconds(std::process::id())?;
        let cpu_mark = procfs::cpu_seconds(host.pid())?;
        host.send(&format!("window {window_ms}"))?;
        let mut window = stats::Window::default();
        while let Some(pass) = host.expect_any(&["pass", "timed"])? {
            let pass = fields(&pass);
            window.ops += number(&pass, "rows")?;
            window.seconds += number(&pass, "elapsed_s")?;
            window.latency_us.extend(list(&pass, "fresh_us")?);
            reader_lateness.extend(list(&pass, "reader_late_us")?);
        }
        window.cpu_s = procfs::cpu_seconds(host.pid())? - cpu_mark;
        windows.push(window);
        wall += started.elapsed().as_secs_f64();
        own_cpu += procfs::cpu_seconds(std::process::id())? - own_mark;

        let (seconds, mut other, _) = launch()?;
        setup_s.push(seconds);
        other.finish()?;
    }
    let peak_rss_mb = procfs::peak_rss_mb(host.pid())?;
    host.send("verify")?;
    let result = fields(&host.expect("result")?);
    host.finish()?;
    println!("# job: {}", format_fields(&result));

    let rows = number(&result, "rows")?;
    let passes = number(&result, "passes")?;
    let diverged = number(&result, "diverged_rows")?;
    let checks_failed = number(&result, "checks_failed")?;
    // A failed oracle check fails the last pass's rows.
    let failed = diverged
        + if checks_failed > 0.0 {
            rows / passes
        } else {
            0.0
        };
    let summary = summarize(&windows)?;
    let end_to_end = end_to_end(
        &setup_s,
        summary.ops_per_s,
        &summary,
        peak_rss_mb,
        (rows - failed) / rows,
    )?;
    let unbounded = unbounded(&summary);

    let mut per_layer = Metrics::new();
    if args.trace {
        let tracer = Tracer::wall();
        let inputs = ingest::Inputs::build(args.seed);
        per_layer = layers::traced(&tracer, |rec| layers::ingest_replay(rec, &inputs));
        let late = stats::tail(&reader_lateness, 99.0).map_or(0.0, |p| p.value);
        per_layer.insert("loadgen.late_p99_us", late);
        per_layer.insert("loadgen.cpu_share", own_cpu / wall);
        per_layer.extend(unbounded);
        write_trace(args, &tracer)?;
    }
    Ok(Run {
        correct: failed == 0.0,
        attempted: rows as u64,
        failed: failed as u64,
        end_to_end,
        per_layer,
    })
}

/// A comma-separated list of numbers.
fn list(fields: &BTreeMap<String, String>, key: &str) -> io::Result<Vec<f64>> {
    fields
        .get(key)
        .map(String::as_str)
        .unwrap_or("")
        .split(',')
        .filter(|v| !v.is_empty())
        .map(|v| {
            v.parse()
                .map_err(|_| invalid(format!("bad number in `{key}`")))
        })
        .collect()
}

fn median(values: &[f64], what: &str) -> io::Result<f64> {
    stats::median(values).ok_or_else(|| io::Error::other(format!("no {what} samples")))
}

fn format_fields(fields: &BTreeMap<String, String>) -> String {
    fields
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Writes the replay's spans as Chrome trace JSON under the build
/// directory (`$CARGO_TARGET_DIR`, else `.bench_build`).
fn write_trace(args: &Args, tracer: &Tracer) -> io::Result<()> {
    let dir = PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or(".bench_build".into()))
        .join("perfbench");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, tracer.to_chrome_trace())?;
    println!("# chrome trace: {}", path.display());
    Ok(())
}
