//! # nxd-telemetry
//!
//! The observability layer of the reproduction: a zero-dependency metrics
//! registry plus a hierarchical span tracer, cheap enough for the hot paths
//! the paper's pipeline runs at scale (sensor ingest, resolver cache
//! lookups, honeypot categorization).
//!
//! The paper's measurement chain — workload generation → sensor ingest →
//! column store → scale/origin analyses → honeypot filter/categorizer — can
//! only be trusted end to end when every stage reports what it actually
//! processed; the B-Root query-composition and DNS-abuse measurement
//! literature both lean on exactly this kind of per-stage accounting.
//!
//! Three building blocks:
//!
//! * [`Registry`] — labeled [`Counter`]s, [`Gauge`]s, and log-bucketed
//!   [`Histogram`]s behind lock-free atomic handles. Increments are a
//!   single relaxed `fetch_add` (single-digit nanoseconds; the
//!   `telemetry` bench in `nxd-bench` checks the claim). Snapshots are
//!   point-in-time copies with [`Snapshot::delta`] support, so the `repro`
//!   binary can print per-experiment deltas from one shared registry.
//! * [`Tracer`] — hierarchical spans driven by a pluggable [`TimeSource`]:
//!   sim-clock components stay deterministic by driving a [`ManualClock`],
//!   while the `repro` binary records wall-clock stage timings with
//!   [`WallClock`]. Finished spans export as Chrome trace-event JSON
//!   (`chrome://tracing` / Perfetto loadable).
//! * Exporters — human text table, JSON, and Prometheus text format on
//!   [`Snapshot`]; Chrome trace-event JSON on [`Tracer`].
//!
//! ```
//! use nxd_telemetry::{Registry, Telemetry};
//!
//! let telemetry = Telemetry::wall();
//! let queries = telemetry.registry.counter("resolver_queries_total");
//! {
//!     let _span = telemetry.tracer.span("resolve");
//!     queries.inc();
//! }
//! let snapshot = telemetry.registry.snapshot();
//! assert_eq!(snapshot.counter_total("resolver_queries_total"), 1);
//! assert!(snapshot.to_prometheus().contains("resolver_queries_total 1"));
//! ```
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod export;
pub mod histogram;
pub mod journal;
pub mod metrics;
pub mod span;

pub use histogram::{Histogram, HistogramSnapshot, BUCKET_COUNT};
pub use journal::{EventLevel, Journal, JournalEvent, DEFAULT_JOURNAL_CAPACITY};
pub use metrics::{Counter, Gauge, MetricId, Registry, Snapshot};
pub use span::{ManualClock, SpanGuard, SpanRecord, Stopwatch, TimeSource, Tracer, WallClock};

use std::sync::Arc;

/// A registry, a tracer, and a flight-recorder journal sharing one time
/// source — the bundle the pipeline components accept.
pub struct Telemetry {
    pub registry: Registry,
    pub tracer: Tracer,
    pub journal: Journal,
}

impl Telemetry {
    /// Wall-clock telemetry for real binaries (`repro`).
    pub fn wall() -> Self {
        Telemetry::with_time(Arc::new(WallClock::new()))
    }

    /// Telemetry over an explicit time source (e.g. a [`ManualClock`]
    /// advanced in lockstep with a simulated clock). The tracer and the
    /// journal share the source, so span timings and event timestamps stay
    /// on one axis.
    pub fn with_time(time: Arc<dyn TimeSource>) -> Self {
        Telemetry {
            registry: Registry::new(),
            tracer: Tracer::new(time.clone()),
            journal: Journal::with_time(DEFAULT_JOURNAL_CAPACITY, time),
        }
    }

    /// Shorthand for [`Tracer::span`].
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        self.tracer.span(name)
    }

    /// Shorthand for [`Registry::snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::wall()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_roundtrip() {
        let clock = Arc::new(ManualClock::new());
        let t = Telemetry::with_time(clock.clone());
        let c = t.registry.counter("pipeline_items_total");
        {
            let _outer = t.span("stage");
            clock.advance_micros(250);
            c.add(3);
        }
        assert_eq!(t.snapshot().counter_total("pipeline_items_total"), 3);
        let spans = t.tracer.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].dur_us, 250);
    }

    #[test]
    fn journal_shares_the_bundle_clock() {
        let clock = Arc::new(ManualClock::new());
        let t = Telemetry::with_time(clock.clone());
        clock.set_micros(77);
        t.journal.info("stage", "checkpoint", &[]);
        let events = t.journal.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].t_us, 77);
        assert_eq!(events[0].seq, 1);
    }
}
