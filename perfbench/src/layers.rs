//! The traced replay: the same seeded inputs pushed in-process through each
//! layer's public function, with an nxd-telemetry span around every batch
//! of calls. Per-call costs are read back from the spans.
//!
//! A replay runs twice, once without spans and once with them, so the
//! tracing overhead is measured rather than assumed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nxd_dns_sim::ServerRef;
use nxd_dns_wire::{Message, RCode};
use nxd_passive_dns::{collect_stream, PassiveDb, SieProducer, StreamEngine};
use nxd_serve::sink::{SensorChannel, SensorEvent, SensorTransport};
use nxd_serve::{answer, read_frame, route, write_frame, MAX_TCP_MESSAGE};
use nxd_telemetry::{SpanGuard, Telemetry, Tracer};

use crate::ingest::{self, ScaleAnswers, BATCH_ROWS, CHANNEL_CAPACITY};
use crate::serve;
use crate::stats;

/// Calls per span for the per-call layers.
const BATCH: usize = 256;
/// Snapshots timed per replay.
const SNAPSHOTS: usize = 32;

/// Opens spans when tracing and logs how many calls each span covered.
pub struct Recorder<'t> {
    tracer: Option<&'t Tracer>,
    calls: Vec<(String, usize)>,
}

impl<'t> Recorder<'t> {
    pub fn new(tracer: Option<&'t Tracer>) -> Self {
        Recorder {
            tracer,
            calls: Vec::new(),
        }
    }

    fn span(&mut self, name: &str, calls: usize) -> Option<SpanGuard<'t>> {
        let tracer = self.tracer?;
        self.calls.push((name.to_string(), calls));
        Some(tracer.span(name))
    }

    /// Runs `f` once per item in spans of [`BATCH`] calls.
    fn each<T>(&mut self, name: &str, items: &[T], mut f: impl FnMut(&T)) {
        for chunk in items.chunks(BATCH) {
            let _span = self.span(name, chunk.len());
            chunk.iter().for_each(&mut f);
        }
    }

    /// Per layer: the median over its spans of µs per call.
    fn per_call_us(&self) -> BTreeMap<String, f64> {
        let Some(tracer) = self.tracer else {
            return BTreeMap::new();
        };
        let mut per_call: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut pending: BTreeMap<&str, std::collections::VecDeque<usize>> = BTreeMap::new();
        for (name, calls) in &self.calls {
            pending.entry(name).or_default().push_back(*calls);
        }
        for span in tracer.spans() {
            let Some(calls) = pending
                .get_mut(span.name.as_str())
                .and_then(|q| q.pop_front())
            else {
                continue;
            };
            per_call
                .entry(span.name)
                .or_default()
                .push(span.dur_us as f64 / calls.max(1) as f64);
        }
        per_call
            .into_iter()
            .filter_map(|(name, v)| stats::median(&v).map(|m| (name, m)))
            .collect()
    }

    /// Total µs of every span named `name`.
    fn total_us(&self, name: &str) -> f64 {
        self.tracer
            .map(|t| {
                t.spans()
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.dur_us as f64)
                    .sum()
            })
            .unwrap_or(0.0)
    }
}

/// Per-layer metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Runs `replay` once to warm up, once untraced and once traced into
/// `tracer`; returns the traced replay's metrics with
/// `trace.overhead_ratio` (traced ÷ untraced wall time) added.
pub fn traced<F>(tracer: &Tracer, mut replay: F) -> Metrics
where
    F: FnMut(&mut Recorder) -> Metrics,
{
    black_box(replay(&mut Recorder::new(None)));
    let started = Instant::now();
    black_box(replay(&mut Recorder::new(None)));
    let untraced = started.elapsed();
    let started = Instant::now();
    let mut metrics = replay(&mut Recorder::new(Some(tracer)));
    let traced = started.elapsed();
    metrics.insert(
        "trace.overhead_ratio",
        traced.as_secs_f64() / untraced.as_secs_f64(),
    );
    metrics
}

/// Replays a serve workload's stream of `stream_len` queries: wire decode
/// and encode, routing, zone lookup, the offline responder, `answer`, TCP
/// framing, the sensor sink, the store's `record_str`, and the stream
/// engine.
pub fn serve_replay(
    rec: &mut Recorder,
    inputs: &serve::Inputs,
    stream_len: usize,
    transport: SensorTransport,
) -> Metrics {
    let dns = &inputs.world.dns;
    let queries = &inputs.world.queries;
    let decoded: Vec<Message> = queries
        .iter()
        .map(|w| Message::decode(w).expect("world queries decode"))
        .collect();
    let responses: Vec<Message> = inputs
        .expected
        .iter()
        .map(|w| Message::decode(w).expect("offline answers decode"))
        .collect();
    let routed: Vec<(ServerRef, &Message, &Vec<u8>)> = decoded
        .iter()
        .zip(queries)
        .map(|(q, w)| (route(dns, q), q, w))
        .collect();

    rec.each("dns-wire.decode", queries, |w| {
        black_box(Message::decode(w).ok());
    });
    rec.each("dns-wire.encode", &responses, |m| {
        black_box(m.encode().ok());
    });
    rec.each("dns-sim.route", &decoded, |q| {
        black_box(dns.next_server(&q.questions[0].qname));
    });
    rec.each("dns-sim.lookup", &routed, |(server, q, _)| {
        let question = &q.questions[0];
        black_box(dns.query_server(server, &question.qname, question.qtype));
    });
    rec.each("dns-sim.respond", &routed, |(server, _, w)| {
        black_box(dns.respond(server, w).ok());
    });
    rec.each("serve.answer", queries, |w| {
        black_box(answer(dns, w));
    });
    rec.each("serve.frame", &inputs.expected, |w| {
        let mut buf = Vec::with_capacity(w.len() + 2);
        write_frame(&mut buf, w).expect("answers fit a frame");
        black_box(read_frame(&mut Cursor::new(buf), MAX_TCP_MESSAGE).ok());
    });

    let stream: Vec<(u16, &str, RCode)> = (0..stream_len)
        .map(|j| {
            let (name, rcode) = &inputs.rows[j % inputs.rows.len()];
            (j as u16, name.as_str(), *rcode)
        })
        .collect();
    let events_per_s = sink(rec, &stream, inputs.world.day, transport);
    let day = inputs.world.day;
    let rows: Vec<RowRef> = stream
        .iter()
        .map(|&(_, name, rcode)| (name, day, 0, rcode, 1))
        .collect();
    let (record_ns, record_max_us) = record(rec, &rows);
    let engine = StreamEngine::default();
    offer(rec, &engine, &rows);
    let snapshot_us = snapshots(rec, &engine);

    let per_call = rec.per_call_us();
    let ns = |name: &str| per_call.get(name).copied().unwrap_or(0.0) * 1e3;
    let mut m = Metrics::new();
    m.insert("dns-wire.decode_ns", ns("dns-wire.decode"));
    m.insert("dns-wire.encode_ns", ns("dns-wire.encode"));
    m.insert("dns-sim.route_ns", ns("dns-sim.route"));
    m.insert("dns-sim.lookup_ns", ns("dns-sim.lookup"));
    m.insert("dns-sim.respond_ns", ns("dns-sim.respond"));
    m.insert("serve.answer_ns", ns("serve.answer"));
    m.insert("serve.frame_ns", ns("serve.frame"));
    m.insert("serve.sink_events_per_s", events_per_s);
    m.insert("passive-dns.record_ns", record_ns);
    m.insert("passive-dns.record_max_us", record_max_us);
    m.insert(
        "passive-dns.stream.offer_ns",
        ns("passive-dns.stream.offer"),
    );
    m.insert("passive-dns.stream.snapshot_us", snapshot_us);
    m
}

/// Feeds the stream through a sensor channel with a live stream engine
/// attached, as the server's workers do; returns events per second from
/// the first send to the collected database.
fn sink(
    rec: &mut Recorder,
    stream: &[(u16, &str, RCode)],
    day: u32,
    transport: SensorTransport,
) -> f64 {
    let peer: SocketAddr = "127.0.0.1:53000".parse().expect("literal address");
    let telemetry = Arc::new(Telemetry::wall());
    let started = Instant::now();
    let db = {
        let _span = rec.span("serve.sink", stream.len());
        let channel =
            SensorChannel::spawn_with_stream(day, 0, telemetry, Some(StreamEngine::default()));
        let tx = channel.sender().expect("a fresh channel has a sender");
        for &(query_id, name, rcode) in stream {
            let event = SensorEvent {
                peer,
                query_id,
                name: name.to_string(),
                rcode,
                transport,
            };
            if tx.send(event).is_err() {
                break;
            }
        }
        drop(tx);
        channel.finish()
    };
    black_box(db.row_count());
    stream.len() as f64 / started.elapsed().as_secs_f64()
}

/// One observation row, borrowed: (name, day, sensor, rcode, count).
type RowRef<'a> = (&'a str, u32, u16, RCode, u32);

/// `PassiveDb::record_str` over `rows`: the median per-call cost in ns
/// from the spans, then, in a second untraced pass timing each call, the
/// slowest single call (a 64 Ki-row block seal) in µs.
fn record(rec: &mut Recorder, rows: &[RowRef]) -> (f64, f64) {
    let mut db = PassiveDb::new();
    rec.each(
        "passive-dns.record",
        rows,
        |&(name, day, sensor, rcode, count)| {
            db.record_str(name, day, sensor, rcode, count);
        },
    );
    black_box(db.row_count());
    let mut db = PassiveDb::new();
    let mut slowest = Duration::ZERO;
    for &(name, day, sensor, rcode, count) in rows {
        let call = Instant::now();
        db.record_str(name, day, sensor, rcode, count);
        slowest = slowest.max(call.elapsed());
    }
    black_box(db.row_count());
    let per_call_ns = rec
        .per_call_us()
        .get("passive-dns.record")
        .copied()
        .unwrap_or(0.0)
        * 1e3;
    (per_call_ns, slowest.as_secs_f64() * 1e6)
}

/// `StreamEngine::offer_row` over `rows`.
fn offer(rec: &mut Recorder, engine: &StreamEngine, rows: &[RowRef]) {
    rec.each(
        "passive-dns.stream.offer",
        rows,
        |&(name, day, sensor, rcode, count)| {
            black_box(engine.offer_row(name, day, sensor, rcode, count));
        },
    );
}

/// Median µs of one `StreamEngine::snapshot`.
fn snapshots(rec: &mut Recorder, engine: &StreamEngine) -> f64 {
    let mut times = Vec::with_capacity(SNAPSHOTS);
    for _ in 0..SNAPSHOTS {
        let _span = rec.span("passive-dns.stream.snapshot", 1);
        let started = Instant::now();
        black_box(engine.snapshot());
        times.push(started.elapsed().as_secs_f64() * 1e6);
    }
    stats::median(&times).unwrap_or(0.0)
}

/// Replays the `ingest-analyze` job layer by layer: `record_str`, the
/// stream engine, one `collect_stream` with submit blocking timed, the §4
/// query set, the fused and serial origin pipelines, and each per-name
/// §5 detector.
pub fn ingest_replay(rec: &mut Recorder, inputs: &ingest::Inputs) -> Metrics {
    let rows: Vec<RowRef> = inputs
        .rows
        .iter()
        .map(|(name, day, sensor, rcode, count)| {
            (name.as_str(), *day, *sensor, RCode::from_u8(*rcode), *count)
        })
        .collect();
    let mut m = Metrics::new();
    let (record_ns, record_max_us) = record(rec, &rows);
    m.insert("passive-dns.record_ns", record_ns);
    m.insert("passive-dns.record_max_us", record_max_us);
    offer(rec, &StreamEngine::new(ingest::stream_config()), &rows);

    // One pass through the SIE channel, timing how long submit blocks.
    let engine = StreamEngine::new(ingest::stream_config());
    let stream_rows = inputs.rows.clone();
    let (wait_tx, wait_rx) = std::sync::mpsc::channel();
    let producer = move |producer: SieProducer| {
        let mut waited = Duration::ZERO;
        let mut batches = 0u32;
        for chunk in stream_rows.chunks(BATCH_ROWS) {
            let shard = ingest::batch_db(chunk);
            let started = Instant::now();
            producer.submit(shard);
            waited += started.elapsed();
            batches += 1;
        }
        let _ = wait_tx.send(waited.as_secs_f64() * 1e6 / f64::from(batches.max(1)));
    };
    let outcome = {
        let _span = rec.span("passive-dns.ingest", 1);
        collect_stream(vec![producer], CHANNEL_CAPACITY, inputs.shards, &engine)
            .expect("the stream producer does not panic")
    };
    m.insert(
        "passive-dns.ingest_s",
        rec.total_us("passive-dns.ingest") / 1e6,
    );
    m.insert("passive-dns.submit_wait_us", wait_rx.recv().unwrap_or(0.0));
    let snapshot_us = snapshots(rec, &engine);
    let snapshot = engine.snapshot();
    m.insert("passive-dns.stream.snapshot_us", snapshot_us);
    m.insert(
        "passive-dns.stream.admitted_rows",
        snapshot.admitted_rows as f64,
    );
    m.insert("passive-dns.stream.late_rows", snapshot.late.rows as f64);
    m.insert(
        "passive-dns.stream.sketch_bytes",
        snapshot.approx_heap_bytes as f64,
    );
    let store = outcome.store;
    m.insert(
        "passive-dns.compressed_ratio",
        store.compressed_bytes() as f64 / store.row_bytes() as f64,
    );

    {
        let _span = rec.span("passive-dns.scan", 1);
        black_box(ScaleAnswers::compute(&store));
    }
    let pipeline = inputs.pipeline();
    {
        let _span = rec.span("core.origin", 1);
        black_box(pipeline.run(&store));
    }
    let serial = store.to_serial();
    {
        let _span = rec.span("core.origin_serial", 1);
        black_box(pipeline.run_serial(&serial));
    }

    let names: Vec<&str> = serial
        .nx_names()
        .map(|(id, _)| serial.interner().resolve(id))
        .collect();
    rec.each("whois.has_history", &names, |n| {
        black_box(inputs.origin.whois.has_history(n));
    });
    rec.each("dga.is_dga", &names, |n| {
        black_box(inputs.detector.is_dga(n));
    });
    rec.each("squat.classify", &names, |n| {
        black_box(inputs.classifier.classify(n));
    });
    {
        let _span = rec.span("blocklist.xref", 1);
        black_box(nxd_core::origin::blocklist_xref(
            names.iter().copied(),
            &inputs.origin.blocklist,
            inputs.xref.sample_size,
            inputs.xref.burst,
            inputs.xref.refill_per_sec,
        ));
    }

    let per_call = rec.per_call_us();
    let ns = |name: &str| per_call.get(name).copied().unwrap_or(0.0) * 1e3;
    m.insert(
        "passive-dns.stream.offer_ns",
        ns("passive-dns.stream.offer"),
    );
    m.insert(
        "passive-dns.scan_ms",
        rec.total_us("passive-dns.scan") / 1e3,
    );
    m.insert("core.origin_ms", rec.total_us("core.origin") / 1e3);
    m.insert(
        "core.origin_serial_ms",
        rec.total_us("core.origin_serial") / 1e3,
    );
    m.insert("whois.has_history_ns", ns("whois.has_history"));
    m.insert("dga.is_dga_ns", ns("dga.is_dga"));
    m.insert("squat.classify_ns", ns("squat.classify"));
    m.insert("blocklist.xref_ms", rec.total_us("blocklist.xref") / 1e3);
    m
}
