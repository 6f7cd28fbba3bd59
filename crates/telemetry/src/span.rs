//! Hierarchical spans over a pluggable time source.
//!
//! The pipeline mixes two notions of time: simulated components step a
//! [`crate::ManualClock`] (deterministic, reproducible traces), while the
//! `repro` binary measures real stage cost with [`WallClock`]. The tracer
//! itself never reads the OS clock directly — whoever constructs it decides.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where "now" comes from, in microseconds since an arbitrary origin.
pub trait TimeSource: Send + Sync {
    fn now_micros(&self) -> u64;

    /// Nanosecond reading; sources without sub-µs resolution inherit this
    /// µs-derived default.
    fn now_nanos(&self) -> u64 {
        self.now_micros().saturating_mul(1_000)
    }
}

/// Monotonic wall clock anchored at construction.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    #[expect(
        clippy::disallowed_methods,
        reason = "WallClock is the TimeSource every sanctioned wall-clock read goes through"
    )]
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeSource for WallClock {
    fn now_micros(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A clock advanced explicitly — the deterministic option for sim-clock
/// components (step it alongside `SimTime`).
#[derive(Debug, Default)]
pub struct ManualClock {
    micros: AtomicU64,
}

impl ManualClock {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set_micros(&self, micros: u64) {
        self.micros.store(micros, Ordering::Relaxed);
    }

    pub fn advance_micros(&self, by: u64) {
        self.micros.fetch_add(by, Ordering::Relaxed);
    }
}

impl TimeSource for ManualClock {
    fn now_micros(&self) -> u64 {
        self.micros.load(Ordering::Relaxed)
    }
}

/// A started measurement over a [`TimeSource`] — the sanctioned way to
/// time an operation outside a [`Tracer`].
///
/// Library code must not call `Instant::now()` directly (it is on the
/// `clippy::disallowed_methods` list in `clippy.toml`): a raw clock read
/// can't be replayed. A `Stopwatch` defaults to a wall clock but accepts
/// any `TimeSource`, so tests drive it with a [`ManualClock`].
#[derive(Clone)]
pub struct Stopwatch {
    time: Arc<dyn TimeSource>,
    start_ns: u64,
}

impl Stopwatch {
    /// Starts a wall-clock stopwatch.
    pub fn start() -> Self {
        Stopwatch::with_source(Arc::new(WallClock::new()))
    }

    /// Starts a stopwatch over an explicit time source.
    fn with_source(time: Arc<dyn TimeSource>) -> Self {
        let start_ns = time.now_nanos();
        Stopwatch { time, start_ns }
    }

    /// Nanoseconds since the stopwatch started (µs resolution on sources
    /// that don't override [`TimeSource::now_nanos`]).
    #[must_use]
    pub fn elapsed_nanos(&self) -> u64 {
        self.time.now_nanos().saturating_sub(self.start_ns)
    }

    /// Microseconds since the stopwatch started.
    #[must_use]
    pub fn elapsed_micros(&self) -> u64 {
        self.elapsed_nanos() / 1_000
    }

    /// Elapsed time as a `Duration`.
    #[must_use]
    pub fn elapsed(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.elapsed_nanos())
    }

    /// Restarts the measurement from the source's current reading.
    #[cfg(test)]
    fn restart(&mut self) {
        self.start_ns = self.time.now_nanos();
    }
}

impl std::fmt::Debug for Stopwatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stopwatch")
            .field("start_ns", &self.start_ns)
            .finish_non_exhaustive()
    }
}

/// One finished (or still-open, `dur_us == 0`) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub name: String,
    /// Start instant, microseconds on the tracer's time source.
    pub start_us: u64,
    /// Duration in microseconds (0 while the span is open).
    pub dur_us: u64,
    /// Nesting depth at open time (0 = top level).
    pub depth: u32,
}

#[derive(Debug, Default)]
struct TracerInner {
    spans: Vec<SpanRecord>,
    /// Indices of currently open spans, innermost last.
    stack: Vec<usize>,
}

/// Records hierarchical spans; export with [`Tracer::to_chrome_trace`].
pub struct Tracer {
    time: Arc<dyn TimeSource>,
    inner: Mutex<TracerInner>,
}

impl Tracer {
    pub fn new(time: Arc<dyn TimeSource>) -> Self {
        Tracer {
            time,
            inner: Mutex::new(TracerInner::default()),
        }
    }

    /// A tracer over a fresh wall clock.
    pub fn wall() -> Self {
        Tracer::new(Arc::new(WallClock::new()))
    }

    /// Opens a span; it closes (and records its duration) when the guard
    /// drops. Nest guards lexically — innermost guard drops first.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        let start_us = self.time.now_micros();
        let mut inner = self.inner.lock().expect("tracer poisoned");
        let depth = inner.stack.len() as u32;
        let index = inner.spans.len();
        inner.spans.push(SpanRecord {
            name: name.to_string(),
            start_us,
            dur_us: 0,
            depth,
        });
        inner.stack.push(index);
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// Copies of every recorded span, in open order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.lock().expect("tracer poisoned").spans.clone()
    }

    pub fn len(&self) -> usize {
        self.inner.lock().expect("tracer poisoned").spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn close(&self, index: usize) {
        let end = self.time.now_micros();
        let mut inner = self.inner.lock().expect("tracer poisoned");
        if let Some(rec) = inner.spans.get_mut(index) {
            rec.dur_us = end.saturating_sub(rec.start_us);
        }
        if let Some(pos) = inner.stack.iter().rposition(|&i| i == index) {
            inner.stack.remove(pos);
        }
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.close(self.index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_depths() {
        let clock = Arc::new(ManualClock::new());
        let t = Tracer::new(clock.clone());
        {
            let _a = t.span("outer");
            clock.advance_micros(10);
            {
                let _b = t.span("inner");
                clock.advance_micros(5);
            }
            clock.advance_micros(1);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[0].dur_us, 16);
        assert_eq!(spans[1].name, "inner");
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[1].dur_us, 5);
        assert_eq!(spans[1].start_us, 10);
    }

    #[test]
    fn sibling_spans_share_depth() {
        let t = Tracer::new(Arc::new(ManualClock::new()));
        {
            let _a = t.span("first");
        }
        {
            let _b = t.span("second");
        }
        let spans = t.spans();
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].depth, 0);
    }

    #[test]
    fn stopwatch_over_manual_clock() {
        let clock = Arc::new(ManualClock::new());
        let mut sw = Stopwatch::with_source(clock.clone());
        assert_eq!(sw.elapsed_micros(), 0);
        clock.advance_micros(250);
        assert_eq!(sw.elapsed_micros(), 250);
        assert_eq!(sw.elapsed(), std::time::Duration::from_micros(250));
        sw.restart();
        assert_eq!(sw.elapsed_micros(), 0);
        clock.advance_micros(7);
        assert_eq!(sw.elapsed_micros(), 7);
    }

    #[test]
    fn stopwatch_wall_default_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_micros();
        let b = sw.elapsed_micros();
        assert!(b >= a);
    }

    #[test]
    fn wall_clock_moves_forward() {
        let t = Tracer::wall();
        let _ = t.span("tick");
        assert_eq!(t.len(), 1);
    }
}
