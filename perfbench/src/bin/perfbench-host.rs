//! The system under test, in a process of its own so the runner can read
//! its CPU time and peak memory from `/proc/<pid>`.
//!
//! ```text
//! perfbench-host serve  --seed <n> --registered <n>
//! perfbench-host ingest --seed <n>
//! ```
//!
//! `serve` builds the seeded world and serves it on an ephemeral
//! 127.0.0.1 port (UDP and TCP) with the `repro --serve-dns`
//! configuration: `ServeConfig::default()` plus an attached
//! `StreamEngine`. It prints `listen <addr>`, serves until stdin says
//! `stop` (or closes), then prints the served-row, sink and stream counts
//! on a `summary` line.
//!
//! `ingest` builds the `ingest-analyze` inputs once and prints `ready`
//! with the set-up time. On `window <ms>` it runs passes of the job for
//! that long (at least one), printing a `pass` line with each pass's
//! timings, then `timed`; on `verify` it runs the oracle checks on the last
//! pass, prints the `result` line and exits. It also exits when stdin
//! closes.

use std::io::{self, BufRead};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nxd_passive_dns::StreamEngine;
use nxd_perfbench::{ingest, serve};
use nxd_serve::{build_world, DnsServer, ServeConfig};
use nxd_telemetry::Telemetry;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => run_serve(&args[1..]),
        Some("ingest") => run_ingest(&args[1..]),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "usage: perfbench-host serve|ingest [options]",
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-host: {e}");
            ExitCode::FAILURE
        }
    }
}

fn flag(args: &[String], name: &str) -> io::Result<u64> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, format!("{name} <n> required")))
}

/// Blocks until stdin carries `command` or closes.
fn wait_for(command: &str) -> io::Result<()> {
    for line in io::stdin().lock().lines() {
        if line?.trim() == command {
            return Ok(());
        }
    }
    Ok(())
}

fn run_serve(args: &[String]) -> io::Result<()> {
    let seed = flag(args, "--seed")?;
    let registered = flag(args, "--registered")? as usize;
    let world = build_world(&serve::world_config(seed, registered));
    let telemetry = Arc::new(Telemetry::wall());
    let engine = StreamEngine::default();
    engine.attach_metrics(&telemetry.registry);
    engine.attach_journal(telemetry.journal.clone());
    let server = DnsServer::bind(
        "127.0.0.1:0",
        world.dns.clone(),
        telemetry.clone(),
        ServeConfig {
            day: world.day,
            stream: Some(engine.clone()),
            ..ServeConfig::default()
        },
    )?;
    println!("listen {}", server.local_addr());
    wait_for("stop")?;
    let served = server.shutdown();
    let counters = telemetry.snapshot();
    let snapshot = engine.snapshot();
    println!(
        "summary served_rows={} responses={} recorded={} duplicates={} dropped={} \
         admitted={} late={}",
        served.row_count(),
        counters.counter_total("serve_responses_total"),
        counters.counter_total("serve_sink_recorded_total"),
        counters.counter_total("serve_sink_duplicates_total"),
        counters.counter_total("serve_dropped_queries_total"),
        snapshot.admitted_rows,
        snapshot.late.rows,
    );
    Ok(())
}

fn run_ingest(args: &[String]) -> io::Result<()> {
    let seed = flag(args, "--seed")?;

    let started = Instant::now();
    let inputs = ingest::Inputs::build(seed);
    println!(
        "ready setup_s={:.6} rows={} batches={}",
        started.elapsed().as_secs_f64(),
        inputs.rows.len(),
        inputs.batches()
    );

    let mut passes = 0usize;
    let mut diverged_rows = 0usize;
    let mut first = None;
    let mut last = None;
    for line in io::stdin().lock().lines() {
        let line = line?;
        if line.trim() == "verify" {
            break;
        }
        let budget = line
            .strip_prefix("window ")
            .and_then(|ms| ms.trim().parse().ok())
            .map(Duration::from_millis)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unknown command"))?;
        let started = Instant::now();
        let mut ran = false;
        while !ran || started.elapsed() < budget {
            let pass = ingest::run_pass(&inputs).map_err(io::Error::other)?;
            println!(
                "pass rows={} elapsed_s={} fresh_us={} reader_late_us={}",
                pass.rows,
                pass.elapsed.as_secs_f64(),
                joined(&pass.freshness_us),
                joined(&pass.reader_lateness_us),
            );
            passes += 1;
            ran = true;
            // Every pass replays the same stream with one producer, so
            // every result must repeat exactly.
            let fingerprint = (
                pass.scale.clone(),
                pass.origin.clone(),
                pass.snapshot.clone(),
            );
            match &first {
                None => first = Some(fingerprint),
                Some(f) if *f != fingerprint => diverged_rows += pass.rows,
                Some(_) => {}
            }
            last = Some(pass);
        }
        println!("timed");
    }
    let Some(last) = last else {
        // A set-up-only launch: stdin closed before any window.
        return Ok(());
    };

    let failures = ingest::verify(&inputs, &last);
    for failure in &failures {
        eprintln!("perfbench-host: check failed: {failure}");
    }
    println!(
        "result passes={passes} rows={} diverged_rows={diverged_rows} checks_failed={} \
         admitted={} late={} sketch_bytes={}",
        passes * last.rows,
        failures.len(),
        last.snapshot.admitted_rows,
        last.snapshot.late.rows,
        last.snapshot.approx_heap_bytes,
    );
    Ok(())
}

fn joined(values: &[f64]) -> String {
    let parts: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    parts.join(",")
}
