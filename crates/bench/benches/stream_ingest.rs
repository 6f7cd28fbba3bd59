//! Streaming ingest bench — the numbers behind the CI `BENCH_8` gate.
//!
//! Replays an era-derived observation stream through `collect_stream` at
//! 1/2/4/8 producers, with the full streaming engine attached (exact
//! incremental aggregates + top-k + distinct sketch), and reports as
//! pseudo-bench lines the gate script parses:
//!
//! ```text
//! bench stream-ingest/rows-per-sec <best rows/s across fan-outs> ns/iter
//! bench stream-ingest/rows-per-sec-1p <rows/s, single producer> ns/iter
//! bench stream-ingest/sketch-bytes <approximate-plane heap bytes> ns/iter
//! bench stream-ingest/batch-query-ns <batch collect+query wall> ns/iter
//! bench stream-ingest/stream-query-ns <streaming equivalent wall> ns/iter
//! ```
//!
//! (`ns/iter` is the parser's line shape, not the unit of the first
//! three — same convention as `bigworld`'s byte counters.)
//!
//! The run is also a correctness gate: every fan-out aborts unless the
//! streaming snapshot is bit-identical to the batch `query` oracle over
//! the admitted store. CI runs this quick (`NXD_BENCH_QUICK=1`) and gates
//! with:
//!
//! ```text
//! scripts/bench_gate.py --input bench.txt --baseline BENCH_8.json \
//!     --metrics-only \
//!     --min-metric stream-ingest/rows-per-sec=150000 \
//!     --max-metric stream-ingest/sketch-bytes=262144
//! ```
//!
//! The `rows-per-sec` floor guards throughput; the `sketch-bytes` ceiling
//! pins the approximate plane's O(k + 2^p) memory contract — a sketch
//! that silently grew with the stream would trip it.

use std::time::Instant;

use nxd_bench::era_world_small;
use nxd_dns_wire::RCode;
use nxd_passive_dns::stream::WindowConfig;
use nxd_passive_dns::{
    collect_sharded, collect_stream, query, PassiveDb, SieProducer, StreamConfig, StreamEngine,
};

type Row = (String, u32, u16, u8, u32);

/// Event-time-ordered observation stream, replicated `factor` times with
/// distinct name suffixes so the full mode has real volume.
fn corpus(factor: usize) -> Vec<Row> {
    let world = era_world_small();
    let mut rows: Vec<Row> = Vec::new();
    for rep in 0..factor {
        rows.extend(world.db.rows().map(|o| {
            let base = world.db.interner().resolve(o.name);
            let name = if rep == 0 {
                base.to_string()
            } else {
                format!("r{rep}-{base}")
            };
            (name, o.day, o.sensor, o.rcode, o.count)
        }));
    }
    rows.sort_by_key(|&(_, day, _, _, _)| day);
    rows
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        window: WindowConfig {
            window_days: 30,
            allowed_lateness_days: 365,
        },
        ..StreamConfig::default()
    }
}

fn producers_for(rows: &[Row], producer_count: usize) -> Vec<Box<dyn FnOnce(SieProducer) + Send>> {
    (0..producer_count)
        .map(|p| {
            let mine: Vec<Row> = rows
                .iter()
                .skip(p)
                .step_by(producer_count)
                .cloned()
                .collect();
            Box::new(move |producer: SieProducer| {
                for chunk in mine.chunks(512) {
                    let mut shard = PassiveDb::new();
                    for (name, day, sensor, rcode, count) in chunk {
                        shard.record_str(name, *day, *sensor, RCode::from_u8(*rcode), *count);
                    }
                    producer.submit(shard);
                }
            }) as Box<dyn FnOnce(SieProducer) + Send>
        })
        .collect()
}

/// One timed streaming run; asserts snapshot ≡ oracle before returning.
#[expect(
    clippy::disallowed_methods,
    reason = "the benchmark's measured quantity is wall-clock time"
)]
fn run_stream(rows: &[Row], producer_count: usize) -> (f64, u64, usize) {
    let engine = StreamEngine::new(stream_config());
    let producers = producers_for(rows, producer_count);
    let t0 = Instant::now();
    let outcome = collect_stream(producers, 2, 4, &engine).expect("stream collect");
    let elapsed = t0.elapsed();
    let snap = engine.snapshot();

    assert_eq!(
        outcome.store.row_count() + outcome.late.row_count(),
        rows.len(),
        "stream dropped rows at {producer_count} producers"
    );
    let admitted = outcome.store.to_serial();
    assert_eq!(snap.rcode_breakdown, query::rcode_breakdown(&admitted));
    assert_eq!(
        snap.total_nx_responses,
        query::total_nx_responses(&admitted)
    );
    assert_eq!(snap.distinct_nx_names, query::distinct_nx_names(&admitted));
    assert_eq!(snap.monthly_nx, query::monthly_nx_series(&admitted));
    assert_eq!(snap.nx_by_sensor, query::nx_by_sensor(&admitted));
    assert_eq!(snap.tld_distribution, query::tld_distribution(&admitted));

    let rate = rows.len() as f64 / elapsed.as_secs_f64().max(1e-9);
    (rate, elapsed.as_nanos() as u64, snap.approx_heap_bytes)
}

#[expect(
    clippy::disallowed_methods,
    reason = "the benchmark's measured quantity is wall-clock time"
)]
fn main() {
    let quick = std::env::var_os("NXD_BENCH_QUICK").is_some();
    let rows = corpus(if quick { 1 } else { 8 });
    eprintln!(
        "stream-ingest: {} rows ({} mode)",
        rows.len(),
        if quick { "quick" } else { "full" }
    );

    // Batch reference: collect everything, then query once at the end —
    // the latency the streaming plane removes.
    let t0 = Instant::now();
    let batch_producers = producers_for(&rows, 4);
    let store = collect_sharded(batch_producers, 2, 4).expect("batch collect");
    let batch_db = store.to_serial();
    let batch = (
        query::rcode_breakdown(&batch_db),
        query::total_nx_responses(&batch_db),
        query::monthly_nx_series(&batch_db),
        query::tld_distribution(&batch_db),
    );
    let batch_ns = t0.elapsed().as_nanos() as u64;
    assert!(batch.1 > 0, "era corpus must contain NXDOMAINs");

    let mut best_rate = 0.0f64;
    let mut one_producer_rate = 0.0f64;
    let mut stream_ns = 0u64;
    let mut sketch_bytes = 0usize;
    for producer_count in [1usize, 2, 4, 8] {
        let (rate, elapsed_ns, bytes) = run_stream(&rows, producer_count);
        eprintln!("stream-ingest: {producer_count} producers → {rate:.0} rows/s");
        if producer_count == 1 {
            one_producer_rate = rate;
        }
        if rate > best_rate {
            best_rate = rate;
            stream_ns = elapsed_ns;
        }
        sketch_bytes = bytes;
    }

    println!(
        "bench stream-ingest/rows-per-sec {} ns/iter",
        best_rate as u64
    );
    println!(
        "bench stream-ingest/rows-per-sec-1p {} ns/iter",
        one_producer_rate as u64
    );
    println!("bench stream-ingest/sketch-bytes {sketch_bytes} ns/iter");
    println!("bench stream-ingest/batch-query-ns {batch_ns} ns/iter");
    println!("bench stream-ingest/stream-query-ns {stream_ns} ns/iter");
}
