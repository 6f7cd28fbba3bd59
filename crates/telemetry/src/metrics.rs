//! The labeled metrics registry: atomic counters, gauges, and histograms
//! behind cloneable handles, plus point-in-time snapshots with delta
//! support.
//!
//! The registry itself is only touched at registration and snapshot time;
//! every hot-path operation goes through a handle holding an `Arc` to the
//! atomic cell, so instrumented components pay one relaxed atomic op per
//! event regardless of how many metrics the registry holds.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::float_arithmetic))]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::{Histogram, HistogramSnapshot};

/// A metric's identity: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricId {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricId {
    pub fn new(name: &str) -> Self {
        MetricId {
            name: name.to_string(),
            labels: Vec::new(),
        }
    }

    /// Adds a label, keeping pairs sorted so equal label sets compare equal
    /// regardless of insertion order.
    fn with_label(mut self, key: &str, value: &str) -> Self {
        let pair = (key.to_string(), value.to_string());
        let at = self.labels.partition_point(|p| *p < pair);
        self.labels.insert(at, pair);
        self
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn labels(&self) -> &[(String, String)] {
        &self.labels
    }
}

impl fmt::Display for MetricId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if !self.labels.is_empty() {
            write!(f, "{{")?;
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{k}=\"{v}\"")?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

/// A monotonically increasing counter. Clones share the same cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge. Clones share the same cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<MetricId, Counter>,
    gauges: BTreeMap<MetricId, Gauge>,
    histograms: BTreeMap<MetricId, Histogram>,
    /// Optional per-name descriptions, exported as `# HELP` lines.
    help: BTreeMap<String, String>,
}

/// The labeled metrics registry. Get-or-create semantics: asking twice for
/// the same id returns handles to the same cell, so independent components
/// naming the same metric aggregate into it.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// A counter with no labels.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// A counter with labels.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let id = id_of(name, labels);
        self.inner
            .lock()
            .expect("registry poisoned")
            .counters
            .entry(id)
            .or_default()
            .clone()
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let id = id_of(name, labels);
        self.inner
            .lock()
            .expect("registry poisoned")
            .gauges
            .entry(id)
            .or_default()
            .clone()
    }

    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let id = id_of(name, labels);
        self.inner
            .lock()
            .expect("registry poisoned")
            .histograms
            .entry(id)
            .or_default()
            .clone()
    }

    /// Registers a description for a metric *name* (across all label
    /// sets), exported as a Prometheus `# HELP` line. Describing a name
    /// twice keeps the latest text; names without a description export
    /// byte-identically to a registry that never called `describe`.
    pub fn describe(&self, name: &str, help: &str) {
        self.inner
            .lock()
            .expect("registry poisoned")
            .help
            .insert(name.to_string(), help.to_string());
    }

    /// Point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("registry poisoned");
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(id, c)| (id.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(id, g)| (id.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(id, h)| (id.clone(), h.snapshot()))
                .collect(),
            help: inner
                .help
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }
}

fn id_of(name: &str, labels: &[(&str, &str)]) -> MetricId {
    let mut id = MetricId::new(name);
    for (k, v) in labels {
        id = id.with_label(k, v);
    }
    id
}

/// A point-in-time copy of a registry's metrics, sorted by id.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "a snapshot is a pure copy; dropping it unread observes nothing"]
pub struct Snapshot {
    pub counters: Vec<(MetricId, u64)>,
    pub gauges: Vec<(MetricId, i64)>,
    pub histograms: Vec<(MetricId, HistogramSnapshot)>,
    /// Per-name `# HELP` descriptions ([`Registry::describe`]), sorted.
    pub help: Vec<(String, String)>,
}

impl Snapshot {
    /// A snapshot with no metrics at all.
    pub fn empty() -> Self {
        Snapshot {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            help: Vec::new(),
        }
    }

    /// The registered description for a metric name, if any.
    pub fn help_for(&self, name: &str) -> Option<&str> {
        self.help
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.help[i].1.as_str())
    }

    /// True when no metric is registered OR every registered metric is
    /// still at zero (nothing was observed).
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&(_, v)| v == 0)
            && self.gauges.iter().all(|&(_, v)| v == 0)
            && self.histograms.iter().all(|(_, h)| h.is_empty())
    }

    /// Sum of every counter sharing `name`, across label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(id, _)| id.name() == name)
            .map(|&(_, v)| v)
            .sum()
    }

    /// The value of a gauge by name (first label set wins).
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        self.gauges
            .iter()
            .find(|(id, _)| id.name() == name)
            .map(|&(_, v)| v)
    }

    /// The histogram snapshot for a name (first label set wins).
    pub fn histogram_named(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(id, _)| id.name() == name)
            .map(|(_, h)| h)
    }

    /// The merge of every histogram sharing `name`, across label sets —
    /// the rollup view of per-shard (or otherwise labeled) series. Empty
    /// if no histogram carries the name.
    pub fn histogram_total(&self, name: &str) -> HistogramSnapshot {
        self.histograms
            .iter()
            .filter(|(id, _)| id.name() == name)
            .fold(HistogramSnapshot::empty(), |acc, (_, h)| acc.merge(h))
    }

    /// Pointwise union of two snapshots, matching series by full metric id:
    /// counters and histogram buckets add, gauges add (levels of disjoint
    /// components sum to the whole — e.g. per-shard intern sizes). With
    /// [`Snapshot::empty`] as identity this makes snapshots a commutative
    /// monoid, mirroring [`HistogramSnapshot::merge`] one level up.
    pub fn merge(&self, other: &Snapshot) -> Snapshot {
        let mut counters: BTreeMap<MetricId, u64> = self.counters.iter().cloned().collect();
        for (id, v) in &other.counters {
            *counters.entry(id.clone()).or_insert(0) += v;
        }
        let mut gauges: BTreeMap<MetricId, i64> = self.gauges.iter().cloned().collect();
        for (id, v) in &other.gauges {
            *gauges.entry(id.clone()).or_insert(0) += v;
        }
        let mut histograms: BTreeMap<MetricId, HistogramSnapshot> =
            self.histograms.iter().cloned().collect();
        for (id, h) in &other.histograms {
            let entry = histograms
                .entry(id.clone())
                .or_insert_with(HistogramSnapshot::empty);
            *entry = entry.merge(h);
        }
        let mut help: BTreeMap<String, String> = self.help.iter().cloned().collect();
        for (name, text) in &other.help {
            help.entry(name.clone()).or_insert_with(|| text.clone());
        }
        Snapshot {
            counters: counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            histograms: histograms.into_iter().collect(),
            help: help.into_iter().collect(),
        }
    }

    /// What happened between `earlier` and `self` (both from the same
    /// registry): counter and histogram differences; gauges keep their
    /// current value (they are levels, not flows). Metrics registered
    /// after `earlier` were taken appear with their full value.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let was_counter: BTreeMap<&MetricId, u64> =
            earlier.counters.iter().map(|(id, v)| (id, *v)).collect();
        let was_hist: BTreeMap<&MetricId, &HistogramSnapshot> =
            earlier.histograms.iter().map(|(id, h)| (id, h)).collect();
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(id, v)| {
                    (
                        id.clone(),
                        v.saturating_sub(was_counter.get(id).copied().unwrap_or(0)),
                    )
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(id, h)| {
                    let d = match was_hist.get(id) {
                        Some(was) => h.delta(was),
                        None => h.clone(),
                    };
                    (id.clone(), d)
                })
                .collect(),
            help: self.help.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_shares_cells() {
        let r = Registry::new();
        let a = r.counter("x_total");
        let b = r.counter("x_total");
        a.inc();
        b.add(2);
        assert_eq!(r.snapshot().counter_total("x_total"), 3);
    }

    #[test]
    fn labels_distinguish_and_sort() {
        let r = Registry::new();
        r.counter_with("hits_total", &[("b", "2"), ("a", "1")])
            .inc();
        r.counter_with("hits_total", &[("a", "1"), ("b", "2")])
            .inc();
        r.counter_with("hits_total", &[("a", "other")]).add(5);
        let s = r.snapshot();
        assert_eq!(s.counters.len(), 2);
        assert_eq!(s.counter_total("hits_total"), 7);
        let id = MetricId::new("hits_total")
            .with_label("b", "2")
            .with_label("a", "1");
        assert_eq!(id.to_string(), "hits_total{a=\"1\",b=\"2\"}");
    }

    #[test]
    fn gauge_set_and_add() {
        let r = Registry::new();
        let g = r.gauge("depth");
        g.set(10);
        g.add(-3);
        assert_eq!(r.snapshot().gauge_value("depth"), Some(7));
    }

    #[test]
    fn snapshot_delta_counters_and_histograms() {
        let r = Registry::new();
        let c = r.counter("events_total");
        let h = r.histogram("latency_us");
        c.add(4);
        h.record(100);
        let before = r.snapshot();
        c.add(6);
        h.record(200);
        h.record(300);
        let after = r.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.counter_total("events_total"), 6);
        assert_eq!(d.histogram_named("latency_us").unwrap().count(), 2);
        assert_eq!(d.histogram_named("latency_us").unwrap().sum, 500);
    }

    #[test]
    fn empty_detection() {
        let r = Registry::new();
        assert!(r.snapshot().is_empty());
        r.counter("a_total"); // registered but never incremented
        assert!(r.snapshot().is_empty());
        r.counter("a_total").inc();
        assert!(!r.snapshot().is_empty());
    }

    #[test]
    fn histogram_total_merges_label_sets() {
        let r = Registry::new();
        r.histogram_with("latency_us", &[("shard", "0")]).record(10);
        r.histogram_with("latency_us", &[("shard", "1")]).record(20);
        r.histogram_with("latency_us", &[("shard", "1")]).record(30);
        let s = r.snapshot();
        let total = s.histogram_total("latency_us");
        assert_eq!(total.count(), 3);
        assert_eq!(total.sum, 60);
        // First-label-set accessor still sees only one series.
        assert_eq!(s.histogram_named("latency_us").unwrap().count(), 1);
        assert!(s.histogram_total("absent_us").is_empty());
    }

    #[test]
    fn snapshot_merge_is_a_commutative_monoid() {
        let build = |shard: &str, c: u64, g: i64, h: u64| {
            let r = Registry::new();
            r.counter_with("rows_total", &[("shard", shard)]).add(c);
            r.gauge_with("names", &[("shard", shard)]).set(g);
            r.histogram_with("lat_us", &[("shard", shard)]).record(h);
            r.snapshot()
        };
        let a = build("0", 3, 10, 100);
        let b = build("1", 5, 7, 200);
        let ab = a.merge(&b);
        assert_eq!(ab.counter_total("rows_total"), 8);
        assert_eq!(ab.histogram_total("lat_us").count(), 2);
        assert_eq!(ab, b.merge(&a));
        assert_eq!(a.merge(&Snapshot::empty()), a);
        assert_eq!(Snapshot::empty().merge(&a), a);
        // Same id on both sides: values add instead of duplicating series.
        let twice = a.merge(&a);
        assert_eq!(twice.counters.len(), a.counters.len());
        assert_eq!(twice.counter_total("rows_total"), 6);
        assert_eq!(twice.gauge_value("names"), Some(20));
    }

    #[test]
    fn delta_with_late_registration() {
        let r = Registry::new();
        let before = r.snapshot();
        r.counter("late_total").add(9);
        let d = r.snapshot().delta(&before);
        assert_eq!(d.counter_total("late_total"), 9);
    }
}
