//! The streaming core: one row in, every plane updated, snapshot out.
//!
//! [`StreamCore`] owns the three planes — watermarked windows
//! ([`super::window`]), the exact [`ScaleSummary`] with its distinct-name
//! and sample sets, and the bounded approximate companions
//! ([`super::sketch`]) — and folds each offered row into all of them under
//! a single lock acquisition.
//! [`StreamEngine`] is the shareable handle: a `Clone`-able
//! `Arc<Mutex<StreamCore>>` the SIE collector threads, the nxd-serve
//! sensor sink, and the snapshot scraper all hold simultaneously.
//!
//! Telemetry: [`StreamEngine::attach_metrics`] registers the
//! `stream_queue_depth` / `stream_watermark_lag_days` gauges and the
//! `stream_late_rows_total` / `stream_windows_closed_total` counters on a
//! shared registry (carrying over any pre-attach state, like
//! `PassiveDb::attach_metrics`), and every window close heartbeats the
//! flight-recorder journal with the closed window's tally.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use nxd_dns_wire::RCode;
use nxd_telemetry::{Counter, Gauge, Journal, Registry};

use super::sketch::{DistinctSketch, SpaceSaving, TopEntry};
use super::window::{ClosedWindow, LateTally, WindowConfig, WindowState};
use crate::hash::in_sample;
use crate::intern::NameTable;
use crate::query::TldStat;
use crate::store::PassiveDb;
use crate::summary::{tld_of, ScaleSummary};

/// What happened to an offered row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Folded into the exact and approximate planes.
    Admitted,
    /// Beyond the watermark: tallied into the late side, not aggregated.
    Late,
}

/// Space-saving capacity k (error bound N/k on the TLD table).
const TOP_K: usize = 64;
/// Distinct-sketch precision p (2^p registers).
const SKETCH_PRECISION: u32 = 12;
/// Salt for the distinct sketch's hashing.
const SKETCH_SALT: u64 = 0x5EE_D15C;
/// Salt for sampling membership: 0, the salt every batch-side §4.2 sample
/// uses, so the streamed sample equals `query::sample_nx_name_strings(db,
/// sample_n, 0)`.
const SAMPLE_SALT: u64 = 0;

/// Streaming engine parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    pub window: WindowConfig,
    /// §4.2 sampling ratio (1-in-n) for the exact name sample.
    pub sample_n: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            window: WindowConfig::default(),
            sample_n: 1_000,
        }
    }
}

/// Live gauge/counter handles. Until [`StreamEngine::attach_metrics`] runs
/// they are free-floating (updates go nowhere visible but stay counted,
/// then carry over on attach).
#[derive(Debug, Clone, Default)]
struct StreamMetrics {
    queue_depth: Gauge,
    watermark_lag_days: Gauge,
    late_rows: Counter,
    windows_closed: Counter,
}

impl StreamMetrics {
    fn registered(registry: &Registry) -> Self {
        registry.describe(
            "stream_queue_depth",
            "Batches waiting in the bounded ingest queue",
        );
        registry.describe(
            "stream_watermark_lag_days",
            "Days the event-time watermark trails the freshest row",
        );
        registry.describe(
            "stream_late_rows_total",
            "Rows beyond the watermark, tallied to the late side",
        );
        registry.describe(
            "stream_windows_closed_total",
            "Event-time windows finalized by watermark advance",
        );
        StreamMetrics {
            queue_depth: registry.gauge("stream_queue_depth"),
            watermark_lag_days: registry.gauge("stream_watermark_lag_days"),
            late_rows: registry.counter("stream_late_rows_total"),
            windows_closed: registry.counter("stream_windows_closed_total"),
        }
    }
}

/// A point-in-time view of every plane. Exact fields are bit-identical to
/// the batch query engine over the admitted rows (`tests/prop_stream.rs`
/// pins this); approximate fields carry their error bounds alongside.
#[derive(Debug, Clone, PartialEq)]
#[expect(
    clippy::disallowed_types,
    reason = "reported fractions and the sketch's standard error are computed once at snapshot time, never accumulated"
)]
pub struct StreamSnapshot {
    /// Rows offered = admitted + late.
    pub offered_rows: u64,
    pub admitted_rows: u64,
    /// The late side: exact accounting of everything beyond the watermark.
    pub late: LateTally,
    pub max_day: Option<u32>,
    pub watermark: Option<u32>,
    pub windows_open: u64,
    pub windows_closed: u64,
    // Exact plane (≡ crate::query over the admitted rows).
    pub rcode_breakdown: Vec<(u8, u64)>,
    pub total_nx_responses: u64,
    pub distinct_nx_names: u64,
    pub monthly_nx: Vec<(i64, u64)>,
    pub yearly_avg_monthly_nx: Vec<(i32, f64)>,
    pub nx_by_sensor: BTreeMap<u16, u64>,
    pub tld_distribution: Vec<TldStat>,
    pub sample_nx_names: Vec<String>,
    // Approximate plane (bounded memory, bounded error).
    pub top_tlds: Vec<TopEntry>,
    /// Worst-case over-count on any `top_tlds` entry: N/k.
    pub topk_error_bound: u64,
    pub distinct_nx_estimate: u64,
    /// Theoretical relative standard error of the distinct estimate.
    pub distinct_standard_error: f64,
    /// Current heap footprint of the approximate plane — O(k + 2^p).
    pub approx_heap_bytes: usize,
}

/// The single-threaded core behind [`StreamEngine`].
#[derive(Debug)]
pub struct StreamCore {
    config: StreamConfig,
    windows: WindowState,
    late: LateTally,
    /// Exact §4 tallies over the admitted rows.
    summary: ScaleSummary,
    /// Admitted names with a non-zero NXDOMAIN count, so each is counted
    /// into `summary` once: one hashed lookup per NX row.
    nx_seen: NameTable,
    /// The §4.2 deterministic 1-in-`sample_n` sample of `nx_seen`.
    sample: BTreeSet<String>,
    top_tlds: SpaceSaving,
    distinct: DistinctSketch,
    metrics: StreamMetrics,
    journal: Option<Journal>,
    offered: u64,
    admitted: u64,
    /// Scratch for window closes (avoids an alloc per offered row).
    closed_scratch: Vec<ClosedWindow>,
}

impl StreamCore {
    /// # Panics
    /// Panics if `config.sample_n` is zero.
    pub fn new(config: StreamConfig) -> Self {
        assert!(config.sample_n > 0, "sampling ratio must be positive");
        StreamCore {
            config,
            windows: WindowState::new(config.window),
            late: LateTally::default(),
            summary: ScaleSummary::default(),
            nx_seen: NameTable::default(),
            sample: BTreeSet::new(),
            top_tlds: SpaceSaving::new(TOP_K),
            distinct: DistinctSketch::new(SKETCH_PRECISION, SKETCH_SALT),
            metrics: StreamMetrics::default(),
            journal: None,
            offered: 0,
            admitted: 0,
            closed_scratch: Vec::new(),
        }
    }

    fn offer(&mut self, name: &str, day: u32, sensor: u16, rcode: u8, count: u64) -> Admission {
        self.offered += 1;
        let nx = rcode == RCode::NxDomain.to_u8();
        self.closed_scratch.clear();
        if !self.windows.offer(day, nx, count, &mut self.closed_scratch) {
            self.late.rows += 1;
            self.late.responses += count;
            if nx {
                self.late.nx_responses += count;
            }
            *self.late.by_rcode.entry(rcode).or_insert(0) += count;
            self.metrics.late_rows.inc();
            return Admission::Late;
        }
        self.admitted += 1;
        let tld = tld_of(name);
        self.summary.observe_row(tld, day, sensor, rcode, count);
        if nx {
            if count > 0 && self.nx_seen.insert(name).1 {
                self.summary.observe_nx_name(tld);
                if in_sample(name, self.config.sample_n, SAMPLE_SALT) {
                    self.sample.insert(name.to_owned());
                }
            }
            self.top_tlds.offer(tld, count);
            self.distinct.insert(name);
        }
        self.metrics
            .watermark_lag_days
            .set(i64::try_from(self.windows.watermark_lag_days()).unwrap_or(i64::MAX));
        for w in &self.closed_scratch {
            self.metrics.windows_closed.inc();
            if let Some(journal) = &self.journal {
                journal.info(
                    "stream",
                    "window closed",
                    &[
                        ("start_day", &w.start_day.to_string()),
                        ("end_day", &w.end_day.to_string()),
                        ("rows", &w.tally.rows.to_string()),
                        ("nx_responses", &w.tally.nx_responses.to_string()),
                        (
                            "watermark",
                            &self.windows.watermark().unwrap_or(0).to_string(),
                        ),
                    ],
                );
            }
        }
        Admission::Admitted
    }

    fn snapshot(&self) -> StreamSnapshot {
        StreamSnapshot {
            offered_rows: self.offered,
            admitted_rows: self.admitted,
            late: self.late.clone(),
            max_day: self.windows.max_day(),
            watermark: self.windows.watermark(),
            windows_open: self.windows.open_windows().count() as u64,
            windows_closed: self.windows.closed_count(),
            rcode_breakdown: self.summary.rcode_breakdown(),
            total_nx_responses: self.summary.total_nx_responses(),
            distinct_nx_names: self.summary.distinct_nx_names(),
            monthly_nx: self.summary.monthly_nx_series(),
            yearly_avg_monthly_nx: self.summary.yearly_avg_monthly_nx(),
            nx_by_sensor: self.summary.nx_by_sensor(),
            tld_distribution: self.summary.tld_distribution(),
            sample_nx_names: self.sample.iter().cloned().collect(),
            top_tlds: self.top_tlds.top(TOP_K),
            topk_error_bound: self.top_tlds.error_bound(),
            distinct_nx_estimate: self.distinct.estimate(),
            distinct_standard_error: self.distinct.standard_error(),
            approx_heap_bytes: self.top_tlds.heap_bytes() + self.distinct.heap_bytes(),
        }
    }
}

/// Shareable streaming-engine handle (clones share one core).
#[derive(Debug, Clone)]
pub struct StreamEngine {
    core: Arc<Mutex<StreamCore>>,
}

impl Default for StreamEngine {
    fn default() -> Self {
        StreamEngine::new(StreamConfig::default())
    }
}

impl StreamEngine {
    pub fn new(config: StreamConfig) -> Self {
        StreamEngine {
            core: Arc::new(Mutex::new(StreamCore::new(config))),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StreamCore> {
        self.core.lock().expect("stream engine lock poisoned")
    }

    pub fn config(&self) -> StreamConfig {
        self.lock().config
    }

    /// Offers one observation row.
    pub fn offer_row(
        &self,
        name: &str,
        day: u32,
        sensor: u16,
        rcode: RCode,
        count: u32,
    ) -> Admission {
        self.lock()
            .offer(name, day, sensor, rcode.to_u8(), u64::from(count))
    }

    /// Folds a whole batch (e.g. one SIE [`crate::sie::ShardBatch`]) in
    /// under a single lock acquisition and returns the per-row admission
    /// verdicts in row order, so a caller can route late rows to a side
    /// store while admitted rows proceed to the main one.
    pub fn offer_db_admissions(&self, db: &PassiveDb) -> Vec<Admission> {
        let mut core = self.lock();
        db.rows()
            .map(|obs| {
                let name = db.interner().resolve(obs.name);
                core.offer(name, obs.day, obs.sensor, obs.rcode, u64::from(obs.count))
            })
            .collect()
    }

    /// Reports the ingest queue's current depth on `stream_queue_depth`.
    pub fn set_queue_depth(&self, depth: usize) {
        self.lock()
            .metrics
            .queue_depth
            .set(i64::try_from(depth).unwrap_or(i64::MAX));
    }

    /// Point-in-time view of every plane.
    pub fn snapshot(&self) -> StreamSnapshot {
        self.lock().snapshot()
    }

    /// Registers the stream gauges/counters on `registry`, carrying over
    /// state accumulated before attachment.
    pub fn attach_metrics(&self, registry: &Registry) {
        let mut core = self.lock();
        let next = StreamMetrics::registered(registry);
        next.late_rows.add(core.metrics.late_rows.get());
        next.windows_closed.add(core.metrics.windows_closed.get());
        next.queue_depth.set(core.metrics.queue_depth.get());
        next.watermark_lag_days
            .set(core.metrics.watermark_lag_days.get());
        core.metrics = next;
    }

    /// Attaches the flight recorder: every window close emits one
    /// `stream` heartbeat event.
    pub fn attach_journal(&self, journal: Journal) {
        self.lock().journal = Some(journal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query;
    use nxd_telemetry::Telemetry;

    fn engine(lateness: u32) -> StreamEngine {
        StreamEngine::new(StreamConfig {
            window: WindowConfig {
                window_days: 10,
                allowed_lateness_days: lateness,
            },
            ..Default::default()
        })
    }

    #[test]
    fn admitted_rows_match_the_batch_oracle() {
        let e = engine(1_000_000); // nothing late
        let mut db = PassiveDb::new();
        let rows = [
            ("dead.com", 10u32, 0u16, RCode::NxDomain, 3u32),
            ("gone.ru", 11, 1, RCode::NxDomain, 7),
            ("alive.com", 12, 0, RCode::NoError, 5),
            ("dead.com", 40, 1, RCode::NxDomain, 2),
            // A zero-count NX row makes no name NXDOMAIN, as in the oracle.
            ("zero.org", 41, 0, RCode::NxDomain, 0),
        ];
        for (name, day, sensor, rcode, count) in rows {
            assert_eq!(
                e.offer_row(name, day, sensor, rcode, count),
                Admission::Admitted
            );
            db.record_str(name, day, sensor, rcode, count);
        }
        let snap = e.snapshot();
        assert_eq!(snap.offered_rows, 5);
        assert_eq!(snap.admitted_rows, 5);
        assert_eq!(snap.late.rows, 0);
        assert_eq!(snap.total_nx_responses, query::total_nx_responses(&db));
        assert_eq!(snap.distinct_nx_names, query::distinct_nx_names(&db));
        assert_eq!(snap.rcode_breakdown, query::rcode_breakdown(&db));
        assert_eq!(snap.monthly_nx, query::monthly_nx_series(&db));
        assert_eq!(snap.nx_by_sensor, query::nx_by_sensor(&db));
        assert_eq!(snap.tld_distribution, query::tld_distribution(&db));
    }

    #[test]
    fn late_rows_are_tallied_not_aggregated() {
        let e = engine(0);
        assert_eq!(
            e.offer_row("a.com", 100, 0, RCode::NxDomain, 4),
            Admission::Admitted
        );
        let mut batch = PassiveDb::new();
        batch.record_str("b.com", 5, 0, RCode::NxDomain, 6);
        batch.record_str("c.com", 5, 0, RCode::NoError, 1);
        assert_eq!(
            e.offer_db_admissions(&batch),
            vec![Admission::Late, Admission::Late]
        );
        let snap = e.snapshot();
        assert_eq!(snap.admitted_rows, 1);
        assert_eq!(snap.late.rows, 2);
        assert_eq!(snap.late.responses, 7);
        assert_eq!(snap.late.nx_responses, 6);
        assert_eq!(snap.late.by_rcode[&RCode::NxDomain.to_u8()], 6);
        // The aggregates saw only the admitted row.
        assert_eq!(snap.total_nx_responses, 4);
        assert_eq!(snap.distinct_nx_names, 1);
        assert_eq!(snap.offered_rows, snap.admitted_rows + snap.late.rows);
    }

    #[test]
    fn offer_db_resolves_names_through_the_interner() {
        let e = engine(1_000_000);
        let mut db = PassiveDb::new();
        db.record_str("x.com", 1, 0, RCode::NxDomain, 2);
        db.record_str("y.net", 2, 1, RCode::NoError, 3);
        assert_eq!(
            e.offer_db_admissions(&db),
            vec![Admission::Admitted, Admission::Admitted]
        );
        let snap = e.snapshot();
        assert_eq!(snap.total_nx_responses, 2);
        assert_eq!(snap.tld_distribution[0].tld, "com");
    }

    #[test]
    fn sample_respects_ratio_and_salt() {
        let e = StreamEngine::new(StreamConfig {
            sample_n: 100,
            ..Default::default()
        });
        let mut db = PassiveDb::new();
        for i in 0..5_000 {
            let name = format!("d{i}.com");
            e.offer_row(&name, 16_000, 0, RCode::NxDomain, 1);
            db.record_str(&name, 16_000, 0, RCode::NxDomain, 1);
        }
        let streamed = e.snapshot().sample_nx_names;
        assert_eq!(
            streamed,
            query::sample_nx_name_strings(&db, 100, SAMPLE_SALT)
        );
        assert!(!streamed.is_empty());
        assert!(streamed.len() < 500);
    }

    #[test]
    #[should_panic(expected = "sampling ratio must be positive")]
    fn zero_sample_ratio_rejected() {
        let _ = StreamEngine::new(StreamConfig {
            sample_n: 0,
            ..Default::default()
        });
    }

    #[test]
    fn metrics_attach_carries_state_and_tracks_live() {
        let telemetry = Telemetry::wall();
        let e = engine(0);
        // Pre-attach late row…
        e.offer_row("a.com", 100, 0, RCode::NxDomain, 1);
        e.offer_row("b.com", 1, 0, RCode::NxDomain, 1);
        e.attach_metrics(&telemetry.registry);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter_total("stream_late_rows_total"), 1);
        // …and post-attach ones land on the registry directly.
        e.offer_row("c.com", 2, 0, RCode::NxDomain, 1);
        e.set_queue_depth(17);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter_total("stream_late_rows_total"), 2);
        assert_eq!(snap.gauge_value("stream_queue_depth"), Some(17));
        assert_eq!(snap.gauge_value("stream_watermark_lag_days"), Some(0));
    }

    #[test]
    fn window_close_heartbeats_the_journal() {
        let telemetry = Telemetry::wall();
        let e = engine(0);
        e.attach_metrics(&telemetry.registry);
        e.attach_journal(telemetry.journal.clone());
        e.offer_row("a.com", 5, 0, RCode::NxDomain, 1);
        assert!(telemetry.journal.is_empty());
        // Day 25 closes [0,10); day 45 closes [20,30). Never-opened
        // windows ([10,20), [30,40)) have nothing to close.
        e.offer_row("b.com", 25, 0, RCode::NxDomain, 1);
        e.offer_row("c.com", 45, 0, RCode::NxDomain, 1);
        let events = telemetry.journal.snapshot();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|ev| ev.component == "stream"));
        assert!(events[0]
            .fields
            .iter()
            .any(|(k, v)| k == "start_day" && v == "0"));
        assert_eq!(
            telemetry
                .snapshot()
                .counter_total("stream_windows_closed_total"),
            2
        );
        assert_eq!(e.snapshot().windows_closed, 2);
    }

    #[test]
    fn approx_plane_memory_is_bounded() {
        let e = StreamEngine::new(StreamConfig::default());
        for i in 0..20_000u32 {
            e.offer_row(&format!("n{i}.tld{}", i % 97), 100, 0, RCode::NxDomain, 1);
        }
        let snap = e.snapshot();
        // 2^12 registers + at most 64 short TLD counters, although the
        // stream spans 97 TLDs.
        assert!(
            snap.approx_heap_bytes < (1 << SKETCH_PRECISION) + TOP_K * 256,
            "approx plane grew: {} bytes",
            snap.approx_heap_bytes
        );
        assert_eq!(snap.distinct_nx_names, 20_000);
        let est = snap.distinct_nx_estimate as f64;
        assert!((est - 20_000.0).abs() / 20_000.0 <= 4.0 * snap.distinct_standard_error);
    }
}
