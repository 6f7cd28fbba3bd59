//! The fused, sharded, parallel origin-classification engine (§5 at scale).
//!
//! The serial §5 analyses each walk the expired-NXDomain population once:
//! WHOIS join, DGA scan, squat scan, blocklist cross-reference — four passes,
//! four rounds of name resolution, and (formerly) a materialized
//! `Vec<String>` per pass. [`OriginPipeline`] runs ONE pass: it splits each
//! [`ShardedStore`] shard's per-name slice into contiguous `NameId` ranges,
//! fans the ranges out through [`nxd_passive_dns::fan_out`] (the first on
//! the calling thread), classifies every name for all four legs while it is
//! hot in cache, and merges the per-range tallies by work-item index with
//! deterministic, order-independent reductions. A shard splits into as
//! many ranges as the machine has cores per shard (at least one, and none
//! smaller than `MIN_NAMES_PER_RANGE` names), so the work items across all
//! shards stay within the larger of the shard and core counts, and a
//! one-shard store still uses every core. Results are bit-identical to the
//! four serial functions for any shard and range count:
//!
//! * WHOIS / DGA / squat tallies are integer counters — they merge by
//!   addition, and the report's fractions are computed once from the summed
//!   integers (the same single division the serial code performs);
//! * the deterministic xref sample merges by sorted union of per-range
//!   bottom-k lists, which equals the global sort-and-take-k because every
//!   name lives in exactly one range of one shard and the `(fnv, name)`
//!   key is a total order over distinct names;
//! * the rate-limited lookup loop itself is inherently serial (a stateful
//!   token bucket) and runs once over the merged sample, exactly as
//!   [`origin::blocklist_xref`] would.
//!
//! Equivalence across 1/2/4/8 shards is property-tested in
//! `tests/prop_origin_pipeline.rs`, and across 1/2/3/7 ranges per shard by
//! this module's unit tests; throughput is tracked by
//! `benches/origin_pipeline.rs` and the CI bench gate (`BENCH_5.json`).
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::float_arithmetic))]

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use nxd_blocklist::Blocklist;
use nxd_dga::DgaDetector;
use nxd_passive_dns::hash::fnv1a;
use nxd_passive_dns::{fan_out, PassiveDb, ShardedStore};
use nxd_squat::{SquatClassifier, SquatKind, SquatScratch};
use nxd_telemetry::{Counter, Histogram, Journal, Stopwatch, Telemetry};
use nxd_whois::HistoricWhoisDb;

use crate::origin::{self, BlocklistXref, WhoisJoin};

/// Parameters of the rate-limited blocklist cross-reference leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XrefParams {
    /// Deterministic-sample size (the paper's 20 M-of-91 M constraint).
    pub sample_size: usize,
    /// Token-bucket burst capacity.
    pub burst: u64,
    /// Token-bucket refill rate per (logical) second.
    pub refill_per_sec: u64,
}

/// The fused §5 engine: one configured pass over a sharded store.
#[derive(Debug, Clone, Copy)]
pub struct OriginPipeline<'a> {
    pub whois: &'a HistoricWhoisDb,
    pub detector: &'a DgaDetector,
    pub classifier: &'a SquatClassifier,
    pub blocklist: &'a Blocklist,
    pub xref: XrefParams,
}

/// Everything the four §5 legs report, from a single pass.
#[derive(Debug, Clone, PartialEq)]
#[expect(
    clippy::disallowed_types,
    reason = "dga_fraction is computed once from the merged integer totals"
)]
pub struct OriginReport {
    /// Distinct NXDomain names scanned (the population size).
    pub names_scanned: u64,
    /// §5.1 WHOIS join.
    pub whois: WhoisJoin,
    /// §5.2 DGA scan: flagged count and fraction of the population.
    pub dga_flagged: u64,
    pub dga_fraction: f64,
    /// Fig. 7 squat tallies (kinds with at least one match). A `BTreeMap`
    /// so iteration (and therefore any downstream rendering or export) is
    /// deterministic regardless of merge order.
    pub squat: BTreeMap<SquatKind, u64>,
    /// Fig. 8 rate-limited blocklist cross-reference.
    pub xref: BlocklistXref,
}

/// Names below which a further split of a shard's id range stops paying
/// for its thread: a name costs a few µs across the detectors, so a range
/// of this size runs for milliseconds against a spawn of tens of µs.
const MIN_NAMES_PER_RANGE: usize = 1_024;

/// Per-range partial tallies; `sample` borrows the shard's intern table.
struct RangeTally<'s> {
    total: u64,
    with_history: u64,
    dga_flagged: u64,
    squat: [u64; 5],
    sample: Vec<(u64, &'s str)>,
}

/// Latency histograms for the three per-name detectors, recorded only when
/// telemetry is attached (the bare [`OriginPipeline::run`] path carries
/// zero instrumentation cost).
struct DetectorHists {
    whois: Histogram,
    dga: Histogram,
    squat: Histogram,
}

/// Live-progress plumbing for the parallel scan, present only when
/// telemetry is attached: a shards-completed counter that advances while
/// the fan-out is in flight (so `/metrics` moves mid-scan) and per-shard
/// flight-recorder events. A shard completes when the last of its ranges
/// does.
struct ShardProgress {
    shards_completed: Counter,
    journal: Journal,
    /// Per shard: ranges still scanning, and names scanned so far.
    shards: Vec<(AtomicUsize, AtomicU64)>,
}

impl ShardProgress {
    /// Records one finished range of `shard`; the shard's last range ticks
    /// the counter and journals the shard's name total.
    fn range_done(&self, shard: usize, names: u64) {
        let (remaining, scanned) = &self.shards[shard];
        scanned.fetch_add(names, Ordering::Relaxed);
        // Each range's release decrement follows its add, and the last
        // range's acquire decrement pairs with all of them, so its load
        // below sees every range's names.
        if remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        self.shards_completed.inc();
        self.journal.debug(
            "origin",
            "shard scanned",
            &[
                ("names", &scanned.load(Ordering::Relaxed).to_string()),
                ("shards_done", &self.shards_completed.get().to_string()),
            ],
        );
    }
}

/// The contiguous id ranges a shard of `names` ids splits into.
fn split_ids(names: usize, ranges: usize) -> impl Iterator<Item = Range<usize>> {
    let ranges = ranges.max(1);
    (0..ranges).map(move |i| names * i / ranges..names * (i + 1) / ranges)
}

fn kind_slot(kind: SquatKind) -> usize {
    match kind {
        SquatKind::Typo => 0,
        SquatKind::Combo => 1,
        SquatKind::Dot => 2,
        SquatKind::Bit => 3,
        SquatKind::Homo => 4,
    }
}

const KIND_BY_SLOT: [SquatKind; 5] = [
    SquatKind::Typo,
    SquatKind::Combo,
    SquatKind::Dot,
    SquatKind::Bit,
    SquatKind::Homo,
];

/// Keeps the `k` smallest entries of `sample`, in no particular order.
fn keep_smallest(sample: &mut Vec<(u64, &str)>, k: usize) {
    if sample.len() > k {
        sample.select_nth_unstable(k);
        sample.truncate(k);
    }
}

/// Runs `f`, recording its latency into `hist` when instrumentation is on.
fn timed<T>(hist: Option<&Histogram>, f: impl FnOnce() -> T) -> T {
    match hist {
        Some(h) => {
            let watch = Stopwatch::start();
            let out = f();
            h.record(watch.elapsed_nanos());
            out
        }
        None => f(),
    }
}

impl OriginPipeline<'_> {
    /// The fused parallel pass, uninstrumented (the bench path).
    pub fn run(&self, store: &ShardedStore) -> OriginReport {
        self.run_inner(store, None)
    }

    /// The fused parallel pass with per-detector counters, latency
    /// histograms, and phase spans (`origin.scan` / `origin.merge` /
    /// `origin.xref`) recorded into `telemetry`.
    pub fn run_with(&self, store: &ShardedStore, telemetry: &Telemetry) -> OriginReport {
        self.run_inner(store, Some(telemetry))
    }

    /// The serial four-pass composite over the same population — the
    /// reference the fused pass is property-tested against, and the bench
    /// baseline.
    pub fn run_serial(&self, db: &PassiveDb) -> OriginReport {
        let whois = origin::whois_join(db, self.whois);
        let names = || db.nx_names().map(|(id, _)| db.interner().resolve(id));
        let (dga_flagged, dga_fraction) = origin::dga_scan(names(), self.detector);
        let squat = origin::squat_scan(names(), self.classifier);
        let xref = origin::blocklist_xref(
            names(),
            self.blocklist,
            self.xref.sample_size,
            self.xref.burst,
            self.xref.refill_per_sec,
        );
        OriginReport {
            names_scanned: whois.with_history + whois.without_history,
            whois,
            dga_flagged,
            dga_fraction,
            squat,
            xref,
        }
    }

    /// The fused pass with every shard split by [`split_ids`] into as many
    /// ranges as there are cores per shard, fewer for a shard too small to
    /// fill them with `MIN_NAMES_PER_RANGE` names each.
    fn run_inner(&self, store: &ShardedStore, telemetry: Option<&Telemetry>) -> OriginReport {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let per_shard = (cores / store.shard_count()).max(1);
        self.run_split(store, telemetry, |names| {
            per_shard.min(names / MIN_NAMES_PER_RANGE).max(1)
        })
    }

    /// The fused pass over `ranges(names)` id ranges of each shard of
    /// `names` names. The report does not depend on the split.
    #[expect(
        clippy::disallowed_types,
        clippy::float_arithmetic,
        reason = "a fraction computed once from summed integer totals; nothing accumulates in float"
    )]
    fn run_split(
        &self,
        store: &ShardedStore,
        telemetry: Option<&Telemetry>,
        ranges: impl Fn(usize) -> usize,
    ) -> OriginReport {
        let hists = telemetry.map(|t| DetectorHists {
            whois: t
                .registry
                .histogram_with("origin_detector_latency_ns", &[("detector", "whois")]),
            dga: t
                .registry
                .histogram_with("origin_detector_latency_ns", &[("detector", "dga")]),
            squat: t
                .registry
                .histogram_with("origin_detector_latency_ns", &[("detector", "squat")]),
        });
        let shards = store.shards();
        let mut items: Vec<(usize, Range<usize>)> = Vec::new();
        for (idx, db) in shards.iter().enumerate() {
            let names = db.distinct_names();
            items.extend(split_ids(names, ranges(names)).map(|ids| (idx, ids)));
        }
        let progress = telemetry.map(|t| ShardProgress {
            shards_completed: t.registry.counter("origin_shards_completed_total"),
            journal: t.journal.clone(),
            shards: (0..shards.len())
                .map(|idx| {
                    let count = items.iter().filter(|(shard, _)| *shard == idx).count();
                    (AtomicUsize::new(count), AtomicU64::new(0))
                })
                .collect(),
        });
        let k = self.xref.sample_size;

        // Phase 1: one fused scan per range, in parallel.
        let scan_span = telemetry.map(|t| t.span("origin.scan"));
        // Every range's sample buffer is allocated here, on the calling
        // thread, so the bulk of a range's memory never lands in the
        // allocator arena that a short-lived worker happens to draw.
        let buffers: Vec<Mutex<Vec<(u64, &str)>>> = items
            .iter()
            .map(|(_, ids)| Mutex::new(Vec::with_capacity(ids.len())))
            .collect();
        let tallies = fan_out(items.len(), |item| {
            let (shard, ids) = &items[item];
            let sample =
                std::mem::take(&mut *buffers[item].lock().expect("sample buffer poisoned"));
            let tally = self.scan_range(&shards[*shard], ids.clone(), sample, k, hists.as_ref());
            if let Some(p) = progress.as_ref() {
                p.range_done(*shard, tally.total);
            }
            tally
        });
        drop(scan_span);

        // Phase 2: deterministic merge of the partials, in item order.
        let merge_span = telemetry.map(|t| t.span("origin.merge"));
        let mut total = 0u64;
        let mut with_history = 0u64;
        let mut dga_flagged = 0u64;
        let mut squat_slots = [0u64; 5];
        let mut sample: Vec<(u64, &str)> = Vec::new();
        for tally in &tallies {
            total += tally.total;
            with_history += tally.with_history;
            dga_flagged += tally.dga_flagged;
            for (slot, n) in squat_slots.iter_mut().zip(tally.squat) {
                *slot += n;
            }
            sample.extend(tally.sample.iter().copied());
        }
        // Union of per-range bottom-k lists ≡ global bottom-k: a name in
        // the global bottom-k is necessarily in its own range's.
        keep_smallest(&mut sample, k);
        sample.sort_unstable();
        let squat: BTreeMap<SquatKind, u64> = squat_slots
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(slot, &n)| (KIND_BY_SLOT[slot], n))
            .collect();
        drop(merge_span);
        if let Some(t) = telemetry {
            t.journal.info(
                "origin",
                "scan merged",
                &[
                    ("names", &total.to_string()),
                    ("shards", &shards.len().to_string()),
                    ("ranges", &tallies.len().to_string()),
                ],
            );
        }

        // Phase 3: the serial rate-limited xref over the merged sample.
        let xref_span = telemetry.map(|t| t.span("origin.xref"));
        let xref = origin::xref_sample(
            sample.iter().map(|&(_, d)| d),
            self.blocklist,
            self.xref.burst,
            self.xref.refill_per_sec,
        );
        drop(xref_span);

        let without_history = total - with_history;
        let report = OriginReport {
            names_scanned: total,
            whois: WhoisJoin {
                with_history,
                without_history,
                expired_fraction: if total == 0 {
                    0.0
                } else {
                    with_history as f64 / total as f64
                },
            },
            dga_flagged,
            dga_fraction: if total == 0 {
                0.0
            } else {
                dga_flagged as f64 / total as f64
            },
            squat,
            xref,
        };
        if let Some(t) = telemetry {
            self.record_counters(t, &report);
        }
        report
    }

    /// The fused scan of one id range of a shard: every NXDomain name is
    /// resolved once and pushed through all four detectors while hot.
    /// Reductions are order-free, so the visiting order does not matter.
    fn scan_range<'s>(
        &self,
        db: &'s PassiveDb,
        ids: Range<usize>,
        sample: Vec<(u64, &'s str)>,
        k: usize,
        hists: Option<&DetectorHists>,
    ) -> RangeTally<'s> {
        let mut tally = RangeTally {
            total: 0,
            with_history: 0,
            dga_flagged: 0,
            squat: [0; 5],
            sample,
        };
        let mut scratch = SquatScratch::default();
        let interner = db.interner();
        for (id, _) in db.nx_names_in(ids) {
            let name = interner.resolve(id);
            tally.total += 1;
            if timed(hists.map(|h| &h.whois), || self.whois.has_history(name)) {
                tally.with_history += 1;
            }
            if timed(hists.map(|h| &h.dga), || self.detector.is_dga(name)) {
                tally.dga_flagged += 1;
            }
            if let Some(m) = timed(hists.map(|h| &h.squat), || {
                self.classifier.classify_with(name, &mut scratch)
            }) {
                tally.squat[kind_slot(m.kind)] += 1;
            }
            tally.sample.push((fnv1a(name.as_bytes(), 0), name));
        }
        // Per-range bottom-k keeps the merge buffer at `ranges × k` entries.
        keep_smallest(&mut tally.sample, k);
        tally
    }

    fn record_counters(&self, telemetry: &Telemetry, report: &OriginReport) {
        let reg = &telemetry.registry;
        reg.counter("origin_names_scanned_total")
            .add(report.names_scanned);
        reg.counter("origin_whois_with_history_total")
            .add(report.whois.with_history);
        reg.counter("origin_whois_without_history_total")
            .add(report.whois.without_history);
        reg.counter("origin_dga_flagged_total")
            .add(report.dga_flagged);
        for (&kind, &n) in &report.squat {
            reg.counter_with("origin_squat_matches_total", &[("kind", kind.label())])
                .add(n);
        }
        reg.counter("origin_xref_queried_total")
            .add(report.xref.queried);
        reg.counter("origin_xref_rate_limited_total")
            .add(report.xref.rate_limited_rejections);
        for (&cat, &n) in &report.xref.hits {
            reg.counter_with("origin_blocklist_hits_total", &[("category", cat.label())])
                .add(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nxd_blocklist::ThreatCategory;
    use nxd_dns_wire::RCode;
    use nxd_whois::{SpanEnd, WhoisRecord};

    fn fixture() -> (HistoricWhoisDb, Blocklist, PassiveDb) {
        let mut db = PassiveDb::new();
        let names = [
            "gogle.com",        // typo squat
            "paypal-login.com", // combo squat
            "wwwfacebook.com",  // dot squat
            "xkqzjvwpyh.com",   // DGA-ish
            "expired.com",
            "neutral-name.com",
            "phish.com",
        ];
        for (i, name) in names.iter().enumerate() {
            db.record_str(name, 17_000 + i as u32, 0, RCode::NxDomain, 1 + i as u32);
        }
        db.record_str("alive.com", 17_000, 0, RCode::NoError, 5);
        let mut whois = HistoricWhoisDb::new();
        whois.add(WhoisRecord {
            domain: "expired.com".into(),
            registered: 1,
            expires: 2,
            registrar: "r".into(),
            registrant: "a".into(),
            nameservers: vec![],
            end: SpanEnd::Expired,
        });
        let mut blocklist = Blocklist::new();
        blocklist.insert("phish.com", ThreatCategory::Phishing);
        blocklist.insert("xkqzjvwpyh.com", ThreatCategory::Malware);
        (whois, blocklist, db)
    }

    fn pipeline<'a>(
        whois: &'a HistoricWhoisDb,
        blocklist: &'a Blocklist,
        detector: &'a DgaDetector,
        classifier: &'a SquatClassifier,
    ) -> OriginPipeline<'a> {
        OriginPipeline {
            whois,
            detector,
            classifier,
            blocklist,
            xref: XrefParams {
                sample_size: 5,
                burst: 3,
                refill_per_sec: 2,
            },
        }
    }

    #[test]
    fn fused_matches_serial_across_shard_counts() {
        let (whois, blocklist, db) = fixture();
        let detector = DgaDetector::default();
        let classifier = SquatClassifier::default();
        let p = pipeline(&whois, &blocklist, &detector, &classifier);
        let serial = p.run_serial(&db);
        assert_eq!(serial.names_scanned, 7);
        assert_eq!(serial.whois.with_history, 1);
        for shards in [1, 2, 4, 8] {
            let store = ShardedStore::from_db(&db, shards);
            assert_eq!(p.run(&store), serial, "{shards} shards");
        }
    }

    #[test]
    fn empty_store_yields_empty_report() {
        let whois = HistoricWhoisDb::new();
        let blocklist = Blocklist::new();
        let detector = DgaDetector::default();
        let classifier = SquatClassifier::default();
        let p = pipeline(&whois, &blocklist, &detector, &classifier);
        let store = ShardedStore::new(4);
        let report = p.run(&store);
        assert_eq!(report.names_scanned, 0);
        assert_eq!(report.whois.expired_fraction, 0.0);
        assert_eq!(report.dga_fraction, 0.0);
        assert!(report.squat.is_empty());
        assert_eq!(report.xref.queried, 0);
        assert_eq!(report, p.run_serial(&PassiveDb::new()));
    }

    #[test]
    fn telemetry_records_counters_histograms_and_spans() {
        let (whois, blocklist, db) = fixture();
        let detector = DgaDetector::default();
        let classifier = SquatClassifier::default();
        let p = pipeline(&whois, &blocklist, &detector, &classifier);
        let store = ShardedStore::from_db(&db, 4);
        let telemetry = Telemetry::wall();
        let report = p.run_with(&store, &telemetry);
        assert_eq!(
            report,
            p.run(&store),
            "instrumentation must not change results"
        );

        let snap = telemetry.registry.snapshot();
        assert_eq!(snap.counter_total("origin_names_scanned_total"), 7);
        assert_eq!(
            snap.counter_total("origin_whois_with_history_total")
                + snap.counter_total("origin_whois_without_history_total"),
            7
        );
        assert_eq!(
            snap.counter_total("origin_squat_matches_total"),
            report.squat.values().sum::<u64>()
        );
        assert_eq!(snap.counter_total("origin_xref_queried_total"), 5);
        assert_eq!(
            snap.counter_total("origin_blocklist_hits_total"),
            report.xref.hits.values().sum::<u64>()
        );
        // One latency sample per name per detector.
        let latency = snap.histogram_total("origin_detector_latency_ns");
        assert_eq!(latency.count(), 3 * 7);

        let spans = telemetry.tracer.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        for phase in ["origin.scan", "origin.merge", "origin.xref"] {
            assert!(names.contains(&phase), "missing span {phase}: {names:?}");
        }

        // Live progress: one shard-completed tick per shard and the
        // per-shard + merge events in the flight recorder.
        assert_eq!(snap.counter_total("origin_shards_completed_total"), 4);
        let events = telemetry.journal.snapshot();
        assert_eq!(
            events
                .iter()
                .filter(|e| e.message == "shard scanned")
                .count(),
            4
        );
        assert!(events.iter().any(|e| e.message == "scan merged"));
    }

    #[test]
    fn sample_merge_equals_global_top_k() {
        // A population large enough that every shard contributes to the
        // sample, so the top-k merge path is actually exercised.
        let mut db = PassiveDb::new();
        for i in 0..500 {
            db.record_str(&format!("name-{i}.com"), 17_000, 0, RCode::NxDomain, 1);
        }
        let whois = HistoricWhoisDb::new();
        let mut blocklist = Blocklist::new();
        for i in 0..500 {
            if i % 7 == 0 {
                blocklist.insert(&format!("name-{i}.com"), ThreatCategory::Malware);
            }
        }
        let detector = DgaDetector::default();
        let classifier = SquatClassifier::default();
        let p = OriginPipeline {
            whois: &whois,
            detector: &detector,
            classifier: &classifier,
            blocklist: &blocklist,
            xref: XrefParams {
                sample_size: 100,
                burst: 1_000,
                refill_per_sec: 1_000,
            },
        };
        let serial = p.run_serial(&db);
        for shards in [2, 8] {
            let store = ShardedStore::from_db(&db, shards);
            assert_eq!(p.run(&store).xref, serial.xref, "{shards} shards");
        }
    }

    #[test]
    fn range_split_matches_serial_and_repeats_exactly() {
        let mut db = PassiveDb::new();
        for i in 0..300 {
            let rcode = if i % 5 == 0 {
                RCode::NoError
            } else {
                RCode::NxDomain
            };
            db.record_str(&format!("name-{i}.com"), 17_000, 0, rcode, 1);
        }
        for name in ["gogle.com", "paypal-login.com", "xkqzjvwpyh.com"] {
            db.record_str(name, 17_001, 1, RCode::NxDomain, 2);
        }
        let whois = HistoricWhoisDb::new();
        let mut blocklist = Blocklist::new();
        blocklist.insert("name-7.com", ThreatCategory::Phishing);
        blocklist.insert("xkqzjvwpyh.com", ThreatCategory::Malware);
        let detector = DgaDetector::default();
        let classifier = SquatClassifier::default();
        let mut p = pipeline(&whois, &blocklist, &detector, &classifier);
        p.xref.sample_size = 40;
        let serial = p.run_serial(&db);
        for shards in [1, 2] {
            let store = ShardedStore::from_db(&db, shards);
            for ranges in [1, 2, 3, 7] {
                let first = p.run_split(&store, None, |_| ranges);
                assert_eq!(first, serial, "{shards} shards x {ranges} ranges");
                for _ in 0..20 {
                    assert_eq!(p.run_split(&store, None, |_| ranges), first);
                }
            }
        }
    }

    #[test]
    fn split_ids_covers_every_id_once() {
        for names in [0, 1, 5, 300] {
            for ranges in [1, 2, 3, 7] {
                let parts: Vec<Range<usize>> = split_ids(names, ranges).collect();
                assert_eq!(parts.len(), ranges);
                assert_eq!(parts.first().map(|r| r.start), Some(0));
                assert_eq!(parts.last().map(|r| r.end), Some(names));
                assert!(parts.windows(2).all(|w| w[0].end == w[1].start));
            }
        }
    }

    #[test]
    fn shard_progress_ticks_once_per_shard_across_ranges() {
        let (whois, blocklist, db) = fixture();
        let detector = DgaDetector::default();
        let classifier = SquatClassifier::default();
        let p = pipeline(&whois, &blocklist, &detector, &classifier);
        let store = ShardedStore::from_db(&db, 2);
        let telemetry = Telemetry::wall();
        assert_eq!(p.run_split(&store, Some(&telemetry), |_| 3), p.run(&store));
        let snap = telemetry.registry.snapshot();
        assert_eq!(snap.counter_total("origin_shards_completed_total"), 2);
        let scanned: Vec<u64> = telemetry
            .journal
            .snapshot()
            .iter()
            .filter(|e| e.message == "shard scanned")
            .map(|e| {
                let names = e.fields.iter().find(|(k, _)| k == "names").unwrap();
                names.1.parse().unwrap()
            })
            .collect();
        assert_eq!(scanned.len(), 2);
        assert_eq!(scanned.iter().sum::<u64>(), 7);
    }
}
