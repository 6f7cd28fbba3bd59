//! The flight-recorder event journal: a fixed-capacity ring buffer of
//! structured events that live observers (the `nxd-obs` HTTP plane's
//! `/journal` endpoint, `nxdctl obs journal`) can tail incrementally.
//!
//! Metrics answer *how much*; the journal answers *what just happened*.
//! A stuck shard, a degraded detector, or a phase transition shows up here
//! as a timestamped event with key/value fields while the run is still in
//! flight — the paper's pipelines run at Farsight scale (1.07 T responses),
//! where operators watch systems live rather than reading post-hoc dumps.
//!
//! Design points:
//!
//! * **Bounded**: at most `capacity` events are retained; the oldest are
//!   evicted FIFO and counted in [`Journal::evicted`]. Recording is O(1)
//!   and never allocates beyond the event itself.
//! * **Strictly monotonic `seq`** starting at 1, so `/journal?since=<seq>`
//!   polling never re-reads or misses an un-evicted event:
//!   [`Journal::since`] returns exactly the events newer than the cursor.
//! * **Time via [`TimeSource`]**: wall clock in binaries,
//!   [`ManualClock`](crate::ManualClock) in tests — journal timestamps are
//!   as replayable as span timings.
//!
//! ```
//! use nxd_telemetry::{EventLevel, Journal};
//!
//! let journal = Journal::with_capacity(128);
//! journal.info("ingest", "shard complete", &[("shard", "3"), ("rows", "1024")]);
//! let cursor = journal.last_seq();
//! journal.warn("ingest", "sensor gap", &[("sensor", "7")]);
//! let newer = journal.since(cursor);
//! assert_eq!(newer.len(), 1);
//! assert_eq!(newer[0].message, "sensor gap");
//! ```
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::float_arithmetic))]

use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::export::json_string;
use crate::span::{TimeSource, WallClock};

/// Default ring capacity for [`Journal::new`] and the [`crate::Telemetry`]
/// bundle: generous enough to hold a full repro run's phase events, small
/// enough to be snapshot-cheap.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// Event severity, ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventLevel {
    Debug,
    Info,
    Warn,
    Error,
}

impl EventLevel {
    /// Lowercase wire label (`"debug"`, `"info"`, `"warn"`, `"error"`).
    pub fn label(self) -> &'static str {
        match self {
            EventLevel::Debug => "debug",
            EventLevel::Info => "info",
            EventLevel::Warn => "warn",
            EventLevel::Error => "error",
        }
    }
}

impl fmt::Display for EventLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEvent {
    /// Strictly monotonic sequence number, starting at 1.
    pub seq: u64,
    /// [`TimeSource`] reading (microseconds) when the event was recorded.
    pub t_us: u64,
    pub level: EventLevel,
    /// Which stage emitted the event (`"obs"`, `"traffic.era"`, ...).
    pub component: String,
    pub message: String,
    /// Free-form key/value context (`("shard", "3")`).
    pub fields: Vec<(String, String)>,
}

impl JournalEvent {
    /// One JSON object (one JSONL line, without the trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.message.len());
        let _ = write!(
            out,
            "{{\"seq\":{},\"t_us\":{},\"level\":\"{}\",\"component\":{},\"message\":{},\"fields\":{{",
            self.seq,
            self.t_us,
            self.level.label(),
            json_string(&self.component),
            json_string(&self.message),
        );
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(k), json_string(v));
        }
        out.push_str("}}");
        out
    }
}

#[derive(Debug, Default)]
struct JournalState {
    events: VecDeque<JournalEvent>,
    /// Sequence number the next event will get (first event gets 1).
    next_seq: u64,
    evicted: u64,
}

struct JournalInner {
    time: Arc<dyn TimeSource>,
    capacity: usize,
    state: Mutex<JournalState>,
}

/// The flight recorder. Clones share the same ring, like metric handles, so
/// a component can hold its own handle while the HTTP plane snapshots the
/// same buffer.
#[derive(Clone)]
pub struct Journal {
    inner: Arc<JournalInner>,
}

impl Journal {
    /// A wall-clock journal with [`DEFAULT_JOURNAL_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// A wall-clock journal holding at most `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_time(capacity, Arc::new(WallClock::new()))
    }

    /// A journal over an explicit time source — tests drive a
    /// [`crate::ManualClock`] for deterministic timestamps.
    pub fn with_time(capacity: usize, time: Arc<dyn TimeSource>) -> Self {
        Journal {
            inner: Arc::new(JournalInner {
                time,
                capacity: capacity.max(1),
                state: Mutex::new(JournalState {
                    events: VecDeque::new(),
                    next_seq: 1,
                    evicted: 0,
                }),
            }),
        }
    }

    /// Records one event; returns its sequence number. The oldest event is
    /// evicted when the ring is full.
    pub fn record(
        &self,
        level: EventLevel,
        component: &str,
        message: &str,
        fields: &[(&str, &str)],
    ) -> u64 {
        let t_us = self.inner.time.now_micros();
        let mut state = self.inner.state.lock().expect("journal poisoned");
        let seq = state.next_seq;
        state.next_seq += 1;
        if state.events.len() == self.inner.capacity {
            state.events.pop_front();
            state.evicted += 1;
        }
        state.events.push_back(JournalEvent {
            seq,
            t_us,
            level,
            component: component.to_string(),
            message: message.to_string(),
            fields: fields
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        });
        seq
    }

    /// [`Journal::record`] at [`EventLevel::Debug`].
    pub fn debug(&self, component: &str, message: &str, fields: &[(&str, &str)]) -> u64 {
        self.record(EventLevel::Debug, component, message, fields)
    }

    /// [`Journal::record`] at [`EventLevel::Info`].
    pub fn info(&self, component: &str, message: &str, fields: &[(&str, &str)]) -> u64 {
        self.record(EventLevel::Info, component, message, fields)
    }

    /// [`Journal::record`] at [`EventLevel::Warn`].
    pub fn warn(&self, component: &str, message: &str, fields: &[(&str, &str)]) -> u64 {
        self.record(EventLevel::Warn, component, message, fields)
    }

    /// [`Journal::record`] at [`EventLevel::Error`].
    pub fn error(&self, component: &str, message: &str, fields: &[(&str, &str)]) -> u64 {
        self.record(EventLevel::Error, component, message, fields)
    }

    /// Copies of every retained event, oldest first.
    pub fn snapshot(&self) -> Vec<JournalEvent> {
        let state = self.inner.state.lock().expect("journal poisoned");
        state.events.iter().cloned().collect()
    }

    /// Retained events with `seq > cursor`, oldest first — the incremental
    /// tail behind `/journal?since=<seq>`. `since(0)` is the full snapshot.
    pub fn since(&self, cursor: u64) -> Vec<JournalEvent> {
        let state = self.inner.state.lock().expect("journal poisoned");
        state
            .events
            .iter()
            .filter(|e| e.seq > cursor)
            .cloned()
            .collect()
    }

    /// Number of events currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.inner
            .state
            .lock()
            .expect("journal poisoned")
            .events
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Events evicted FIFO since construction.
    pub fn evicted(&self) -> u64 {
        self.inner.state.lock().expect("journal poisoned").evicted
    }

    /// Sequence number of the newest recorded event (0 if none was ever
    /// recorded) — the cursor to pass to [`Journal::since`].
    pub fn last_seq(&self) -> u64 {
        self.inner.state.lock().expect("journal poisoned").next_seq - 1
    }

    /// Every retained event as JSON lines (one object per line, trailing
    /// newline when non-empty) — the `/journal` wire format.
    pub fn to_jsonl(&self) -> String {
        jsonl(&self.snapshot())
    }
}

impl Default for Journal {
    fn default() -> Self {
        Journal::new()
    }
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("capacity", &self.inner.capacity)
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

/// Renders events as JSON lines (shared by [`Journal::to_jsonl`] and the
/// `/journal?since=` endpoint, which filters before rendering).
pub fn jsonl(events: &[JournalEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::ManualClock;

    fn manual() -> (Arc<ManualClock>, Journal) {
        let clock = Arc::new(ManualClock::new());
        let journal = Journal::with_time(4, clock.clone());
        (clock, journal)
    }

    #[test]
    fn seq_and_timestamps() {
        let (clock, j) = manual();
        clock.set_micros(10);
        assert_eq!(j.info("a", "first", &[]), 1);
        clock.advance_micros(5);
        assert_eq!(j.warn("a", "second", &[("k", "v")]), 2);
        let events = j.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].t_us, 10);
        assert_eq!(events[1].t_us, 15);
        assert_eq!(events[1].level, EventLevel::Warn);
        assert_eq!(events[1].fields, vec![("k".to_string(), "v".to_string())]);
        assert_eq!(j.last_seq(), 2);
    }

    #[test]
    fn ring_evicts_fifo() {
        let (_, j) = manual();
        for i in 0..6u64 {
            j.info("c", &format!("event-{i}"), &[]);
        }
        assert_eq!(j.len(), 4);
        assert_eq!(j.capacity(), 4);
        assert_eq!(j.evicted(), 2);
        let seqs: Vec<u64> = j.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5, 6]);
    }

    #[test]
    fn since_is_an_exact_cursor() {
        let (_, j) = manual();
        j.info("c", "one", &[]);
        let cursor = j.info("c", "two", &[]);
        j.info("c", "three", &[]);
        let newer = j.since(cursor);
        assert_eq!(newer.len(), 1);
        assert_eq!(newer[0].message, "three");
        assert_eq!(j.since(j.last_seq()), vec![]);
        assert_eq!(j.since(0).len(), 3);
    }

    #[test]
    fn jsonl_shape() {
        let (clock, j) = manual();
        clock.set_micros(42);
        j.error("obs", "worker \"panicked\"", &[("thread", "obs-worker-0")]);
        let line = j.to_jsonl();
        assert!(line.ends_with('\n'));
        let body = line.trim_end();
        assert!(body.starts_with("{\"seq\":1,\"t_us\":42,\"level\":\"error\""));
        assert!(body.contains("\"component\":\"obs\""));
        assert!(body.contains("\\\"panicked\\\""));
        assert!(body.contains("\"thread\":\"obs-worker-0\""));
        assert_eq!(body.matches('{').count(), body.matches('}').count());
    }

    #[test]
    fn clones_share_the_ring() {
        let (_, j) = manual();
        let handle = j.clone();
        handle.info("x", "via clone", &[]);
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let j = Journal::with_capacity(0);
        j.info("c", "a", &[]);
        j.info("c", "b", &[]);
        assert_eq!(j.capacity(), 1);
        assert_eq!(j.len(), 1);
        assert_eq!(j.snapshot()[0].message, "b");
    }
}
