//! The `ingest-analyze` job: a seeded, day-sorted observation stream fed
//! by one producer through the SIE channel into a sharded store and a
//! streaming engine while a reader polls live snapshots, followed by the
//! §4 query set on the store and the fused §5 origin pipeline.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nxd_core::{OriginPipeline, OriginReport, XrefParams};
use nxd_dga::DgaDetector;
use nxd_dns_wire::RCode;
use nxd_passive_dns::query::{self, LifespanBucket, TldStat};
use nxd_passive_dns::stream::WindowConfig;
use nxd_passive_dns::{
    auto_shard_count_here, collect_stream, PassiveDb, ShardedStore, SieError, SieProducer,
    StreamConfig, StreamEngine, StreamSnapshot,
};
use nxd_squat::SquatClassifier;
use nxd_traffic::origin::OriginWorld;
use nxd_traffic::{EraConfig, OriginConfig};

/// Never-registered era names in the stream.
pub const ERA_NX_NAMES: usize = 15_000;
/// Expired-panel era names in the stream.
pub const ERA_PANEL: usize = 500;
/// Origin-world expired names appended to the stream.
pub const ORIGIN_NAMES: usize = 5_000;
/// Rows per submitted SIE batch.
pub const BATCH_ROWS: usize = 512;
/// Batches the SIE channel buffers before the producer blocks.
pub const CHANNEL_CAPACITY: usize = 2;
/// How often the live reader takes a stream snapshot.
pub const SNAPSHOT_CADENCE: Duration = Duration::from_millis(1);

/// One observation: (name, day, sensor, rcode, count).
pub type Row = (String, u32, u16, u8, u32);

/// Everything the job needs, built from the seed.
pub struct Inputs {
    /// Era rows plus one row per origin name, sorted by day.
    pub rows: Arc<Vec<Row>>,
    pub origin: OriginWorld,
    pub detector: DgaDetector,
    pub classifier: SquatClassifier,
    pub xref: XrefParams,
    /// Hash partitions of the sharded store: the repository's automatic
    /// choice for this many rows on this machine.
    pub shards: usize,
}

impl Inputs {
    /// Generates the stream and constructs the detectors and models.
    pub fn build(seed: u64) -> Inputs {
        let era = nxd_traffic::era::generate(EraConfig {
            seed,
            nx_names: ERA_NX_NAMES,
            expired_panel: ERA_PANEL,
            resolver_checks: 0,
        });
        let origin = nxd_traffic::origin::generate(OriginConfig {
            seed,
            expired_total: ORIGIN_NAMES,
            ..OriginConfig::default()
        });
        let mut rows: Vec<Row> = era
            .db
            .rows()
            .map(|o| {
                let name = era.db.interner().resolve(o.name).to_string();
                (name, o.day, o.sensor, o.rcode, o.count)
            })
            .collect();
        // The origin population as the §5 benches intern it: every row
        // NXDOMAIN, days/sensors/counts cycling deterministically.
        rows.extend(origin.domains.iter().enumerate().map(|(i, d)| {
            (
                d.name.clone(),
                17_000 + (i % 365) as u32,
                (i % 8) as u16,
                RCode::NxDomain.to_u8(),
                1 + (i % 7) as u32,
            )
        }));
        rows.sort_by_key(|row| row.1);
        let population = era.db.distinct_names() + origin.domains.len();
        Inputs {
            shards: auto_shard_count_here(rows.len()),
            rows: Arc::new(rows),
            origin,
            detector: DgaDetector::default(),
            classifier: SquatClassifier::default(),
            // The paper's 20 M-of-91 M sample with the Fig. 8 token bucket.
            xref: XrefParams {
                sample_size: population * 20 / 91,
                burst: 500,
                refill_per_sec: 200,
            },
        }
    }

    pub fn pipeline(&self) -> OriginPipeline<'_> {
        OriginPipeline {
            whois: &self.origin.whois,
            detector: &self.detector,
            classifier: &self.classifier,
            blocklist: &self.origin.blocklist,
            xref: self.xref,
        }
    }

    pub fn batches(&self) -> usize {
        self.rows.len().div_ceil(BATCH_ROWS)
    }
}

/// Monthly windows with a year of lateness tolerance, as `repro stream`.
pub fn stream_config() -> StreamConfig {
    StreamConfig {
        window: WindowConfig {
            window_days: 30,
            allowed_lateness_days: 365,
        },
        ..StreamConfig::default()
    }
}

/// One 512-row batch as the producer builds it.
pub fn batch_db(rows: &[Row]) -> PassiveDb {
    let mut shard = PassiveDb::new();
    for (name, day, sensor, rcode, count) in rows {
        shard.record_str(name, *day, *sensor, RCode::from_u8(*rcode), *count);
    }
    shard
}

/// The §4 query set, as answered by the sharded store.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleAnswers {
    pub total_nx: u64,
    pub distinct_nx: u64,
    pub long_lived: (u64, u64),
    pub monthly: Vec<(i64, u64)>,
    pub tld: Vec<TldStat>,
    pub lifespan: Vec<LifespanBucket>,
    pub rcode: Vec<(u8, u64)>,
    pub sample: Vec<String>,
}

impl ScaleAnswers {
    /// Headline, monthly, TLD, lifespan, rcode and sample queries.
    pub fn compute(store: &ShardedStore) -> ScaleAnswers {
        ScaleAnswers {
            total_nx: store.total_nx_responses(),
            distinct_nx: store.distinct_nx_names(),
            long_lived: store.long_lived_nx(5 * 365),
            monthly: store.monthly_nx_series(),
            tld: store.tld_distribution(),
            lifespan: store.lifespan_histogram(60),
            rcode: store.rcode_breakdown(),
            sample: store.sample_nx_names(1_000, 0),
        }
    }
}

/// One pass of the job.
pub struct Pass {
    pub rows: usize,
    /// From the first submit to the complete §4 + §5 result.
    pub elapsed: Duration,
    /// Per batch: submit to the first snapshot that counts it, µs.
    pub freshness_us: Vec<f64>,
    /// Per snapshot tick: how late the reader started against its
    /// schedule, µs.
    pub reader_lateness_us: Vec<f64>,
    pub store: ShardedStore,
    pub late: PassiveDb,
    pub snapshot: StreamSnapshot,
    pub scale: ScaleAnswers,
    pub origin: OriginReport,
}

/// Runs one pass over `inputs`.
pub fn run_pass(inputs: &Inputs) -> Result<Pass, SieError> {
    let engine = StreamEngine::new(stream_config());
    let batches = inputs.batches();
    let submitted = Arc::new(Mutex::new(Vec::with_capacity(batches)));
    let rows = inputs.rows.clone();
    let producer_log = submitted.clone();
    let producer = move |producer: SieProducer| {
        for chunk in rows.chunks(BATCH_ROWS) {
            let shard = batch_db(chunk);
            producer_log
                .lock()
                .expect("submit log poisoned")
                .push(Instant::now());
            producer.submit(shard);
        }
    };

    let stop = AtomicBool::new(false);
    let (outcome, seen, reader_lateness_us) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| watch(&engine, &stop));
        let outcome = collect_stream(vec![producer], CHANNEL_CAPACITY, inputs.shards, &engine);
        stop.store(true, Ordering::SeqCst);
        let (seen, lateness) = reader.join().expect("snapshot reader panicked");
        (outcome, seen, lateness)
    });
    let outcome = outcome?;
    let scale = ScaleAnswers::compute(&outcome.store);
    let origin = inputs.pipeline().run(&outcome.store);
    let submitted = std::mem::take(&mut *submitted.lock().expect("submit log poisoned"));
    let first_submit = *submitted
        .first()
        .expect("the stream has at least one batch");
    let elapsed = first_submit.elapsed();

    let mut freshness_us = Vec::with_capacity(submitted.len());
    let mut cursor = 0;
    for (k, at) in submitted.iter().enumerate() {
        let counted = ((k + 1) * BATCH_ROWS).min(inputs.rows.len()) as u64;
        while cursor < seen.len() && seen[cursor].1 < counted {
            cursor += 1;
        }
        if let Some((when, _)) = seen.get(cursor) {
            freshness_us.push(when.saturating_duration_since(*at).as_secs_f64() * 1e6);
        }
    }
    Ok(Pass {
        rows: inputs.rows.len(),
        elapsed,
        freshness_us,
        reader_lateness_us,
        snapshot: engine.snapshot(),
        store: outcome.store,
        late: outcome.late,
        scale,
        origin,
    })
}

/// The live reader: snapshots on an absolute cadence until `stop`, then
/// once more so every batch is counted by some snapshot. Returns each
/// snapshot's completion time with the rows it counted (offered, since a
/// late row is counted too), and the reader's lateness per tick.
fn watch(engine: &StreamEngine, stop: &AtomicBool) -> (Vec<(Instant, u64)>, Vec<f64>) {
    let mut seen = Vec::new();
    let mut lateness = Vec::new();
    let start = Instant::now();
    for tick in 1u32.. {
        let due = start + SNAPSHOT_CADENCE * tick;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let stopping = stop.load(Ordering::SeqCst);
        lateness.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
        let snapshot = engine.snapshot();
        seen.push((Instant::now(), snapshot.offered_rows));
        if stopping {
            break;
        }
    }
    (seen, lateness)
}

/// The oracle checks on one pass: every row accounted for, the live
/// snapshot equal to the row-at-a-time `query` engine over the admitted
/// rows, and the fused origin pipeline equal to the serial one. Returns
/// one message per failed check.
pub fn verify(inputs: &Inputs, pass: &Pass) -> Vec<String> {
    let mut failures = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            failures.push(what.to_string());
        }
    };
    let stored = pass.store.row_count() + pass.late.row_count();
    check(stored == pass.rows, "store + late rows != rows submitted");
    let snap = &pass.snapshot;
    let admitted = pass.store.to_serial();
    check(
        snap.admitted_rows == pass.store.row_count() as u64,
        "snapshot admitted rows != stored rows",
    );
    check(
        snap.rcode_breakdown == query::rcode_breakdown(&admitted),
        "snapshot rcode breakdown != query oracle",
    );
    check(
        snap.total_nx_responses == query::total_nx_responses(&admitted),
        "snapshot NX total != query oracle",
    );
    check(
        snap.distinct_nx_names == query::distinct_nx_names(&admitted),
        "snapshot distinct NX != query oracle",
    );
    check(
        snap.monthly_nx == query::monthly_nx_series(&admitted),
        "snapshot monthly NX != query oracle",
    );
    check(
        snap.nx_by_sensor == query::nx_by_sensor(&admitted),
        "snapshot NX by sensor != query oracle",
    );
    check(
        snap.tld_distribution == query::tld_distribution(&admitted),
        "snapshot TLD distribution != query oracle",
    );
    check(
        pass.origin == inputs.pipeline().run_serial(&admitted),
        "OriginPipeline::run != run_serial",
    );
    failures
}
