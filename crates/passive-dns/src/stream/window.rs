//! Event-time windows, watermarks, and the late-row side tally.
//!
//! The streaming engine processes rows in *arrival* order but reasons in
//! *event* time (the observation's `day`). A watermark trails the maximum
//! event day seen by a configurable out-of-order tolerance: rows at or
//! above the watermark are admitted, rows strictly below it are **late**
//! — counted into a [`LateTally`] and routed to a side store by the
//! caller, never silently dropped. Tumbling event-time windows close as
//! the watermark passes their end, which is the engine's heartbeat: each
//! close increments `stream_windows_closed_total` and emits a journal
//! event.
//!
//! Invariant linking admission and window close: an admitted row's day is
//! `>= watermark`, and a window only closes once its (exclusive) end is
//! `<= watermark` — so admitted rows never land in a closed window, and a
//! closed window's tally is final.

use std::collections::BTreeMap;

/// Event-time windowing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Width of one tumbling event-time window, in days (clamped to >= 1).
    pub window_days: u32,
    /// Out-of-order tolerance: the watermark is
    /// `max_event_day - allowed_lateness_days`.
    pub allowed_lateness_days: u32,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            // One calendar-ish month per window, one week of disorder —
            // the shape of the paper's monthly Fig. 3 series over a
            // sensor federation with stragglers.
            window_days: 30,
            allowed_lateness_days: 7,
        }
    }
}

/// Integral per-window tallies (floats are derived by callers, once).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowTally {
    /// Rows admitted into the window.
    pub rows: u64,
    /// Count-weighted responses (all rcodes).
    pub responses: u64,
    /// Count-weighted NXDOMAIN responses.
    pub nx_responses: u64,
}

impl WindowTally {
    fn admit(&mut self, count: u64, nx: bool) {
        self.rows += 1;
        self.responses += count;
        if nx {
            self.nx_responses += count;
        }
    }
}

/// One window the watermark has passed; final and immutable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosedWindow {
    /// First day inside the window.
    pub start_day: u32,
    /// First day *after* the window (exclusive end).
    pub end_day: u32,
    pub tally: WindowTally,
}

/// Rows that arrived beyond the watermark: counted exactly, never
/// silently dropped. `admitted + late == offered` at every moment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LateTally {
    /// Late rows.
    pub rows: u64,
    /// Count-weighted responses on late rows (all rcodes).
    pub responses: u64,
    /// Count-weighted NXDOMAIN responses on late rows.
    pub nx_responses: u64,
    /// Count-weighted responses on late rows, by rcode.
    pub by_rcode: BTreeMap<u8, u64>,
}

/// Watermark state plus open-window tallies; a closed window is handed
/// to the caller once and only counted here.
#[derive(Debug)]
pub struct WindowState {
    config: WindowConfig,
    /// Maximum event day seen so far (watermark basis).
    max_day: Option<u32>,
    /// Open tumbling windows, keyed by start day.
    open: BTreeMap<u32, WindowTally>,
    closed_count: u64,
}

impl WindowState {
    pub fn new(config: WindowConfig) -> Self {
        let config = WindowConfig {
            window_days: config.window_days.max(1),
            allowed_lateness_days: config.allowed_lateness_days,
        };
        WindowState {
            config,
            max_day: None,
            open: BTreeMap::new(),
            closed_count: 0,
        }
    }

    pub fn config(&self) -> WindowConfig {
        self.config
    }

    /// Maximum event day observed so far.
    pub fn max_day(&self) -> Option<u32> {
        self.max_day
    }

    /// The current watermark: event days strictly below it are late.
    /// `None` until the first row arrives (nothing can be late yet).
    pub fn watermark(&self) -> Option<u32> {
        self.max_day
            .map(|d| d.saturating_sub(self.config.allowed_lateness_days))
    }

    /// Days the watermark trails the freshest event seen.
    pub fn watermark_lag_days(&self) -> u64 {
        match (self.max_day, self.watermark()) {
            (Some(max), Some(wm)) => u64::from(max - wm),
            _ => 0,
        }
    }

    /// Whether a row with event day `day` would be late right now.
    fn is_late(&self, day: u32) -> bool {
        matches!(self.watermark(), Some(wm) if day < wm)
    }

    /// Offers one row. Returns `false` if the row is late (the caller
    /// tallies it into a [`LateTally`]); otherwise admits the row into
    /// its tumbling window, advances the watermark, and appends every
    /// window the new watermark closed onto `closed_out`.
    pub fn offer(
        &mut self,
        day: u32,
        nx: bool,
        count: u64,
        closed_out: &mut Vec<ClosedWindow>,
    ) -> bool {
        if self.is_late(day) {
            return false;
        }
        let start = day - day % self.config.window_days;
        self.open.entry(start).or_default().admit(count, nx);
        self.max_day = Some(self.max_day.map_or(day, |d| d.max(day)));
        if let Some(wm) = self.watermark() {
            // Close every open window whose exclusive end the watermark
            // has passed. Admitted rows have day >= watermark, so closed
            // tallies are final.
            while let Some((&start, &tally)) = self.open.first_key_value() {
                let end = start.saturating_add(self.config.window_days);
                if end > wm {
                    break;
                }
                self.open.remove(&start);
                self.closed_count += 1;
                closed_out.push(ClosedWindow {
                    start_day: start,
                    end_day: end,
                    tally,
                });
            }
        }
        true
    }

    /// Open windows in start-day order.
    pub fn open_windows(&self) -> impl Iterator<Item = (u32, WindowTally)> + '_ {
        self.open.iter().map(|(&s, &t)| (s, t))
    }

    /// Total windows closed so far.
    pub fn closed_count(&self) -> u64 {
        self.closed_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(window: u32, lateness: u32) -> WindowState {
        WindowState::new(WindowConfig {
            window_days: window,
            allowed_lateness_days: lateness,
        })
    }

    #[test]
    fn nothing_is_late_before_the_first_row() {
        let s = state(10, 0);
        assert!(!s.is_late(0));
        assert_eq!(s.watermark(), None);
        assert_eq!(s.watermark_lag_days(), 0);
    }

    #[test]
    fn watermark_trails_max_day_by_the_tolerance() {
        let mut s = state(10, 3);
        let mut closed = Vec::new();
        assert!(s.offer(20, true, 1, &mut closed));
        assert_eq!(s.max_day(), Some(20));
        assert_eq!(s.watermark(), Some(17));
        assert_eq!(s.watermark_lag_days(), 3);
        // Out-of-order but within tolerance: admitted.
        assert!(s.offer(18, true, 1, &mut closed));
        // Beyond the watermark: late, and max_day is untouched.
        assert!(!s.offer(16, true, 1, &mut closed));
        assert_eq!(s.max_day(), Some(20));
    }

    #[test]
    fn windows_close_as_the_watermark_passes_their_end() {
        let mut s = state(10, 0);
        let mut closed = Vec::new();
        assert!(s.offer(5, true, 2, &mut closed));
        assert!(s.offer(9, false, 1, &mut closed));
        assert!(closed.is_empty());
        // Day 10 starts window [10,20) and closes [0,10) exactly.
        assert!(s.offer(10, true, 4, &mut closed));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].start_day, 0);
        assert_eq!(closed[0].end_day, 10);
        assert_eq!(
            closed[0].tally,
            WindowTally {
                rows: 2,
                responses: 3,
                nx_responses: 2,
            }
        );
        assert_eq!(s.closed_count(), 1);
        assert_eq!(s.open_windows().count(), 1);
    }

    #[test]
    fn a_jump_closes_every_passed_window() {
        let mut s = state(10, 5);
        let mut closed = Vec::new();
        assert!(s.offer(0, true, 1, &mut closed));
        assert!(s.offer(12, true, 1, &mut closed));
        assert!(s.offer(47, true, 1, &mut closed));
        // Watermark 42: closes [0,10), [10,20); [40,50) stays open.
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].start_day, 0);
        assert_eq!(closed[1].start_day, 10);
        assert_eq!(s.closed_count(), 2);
        let open: Vec<u32> = s.open_windows().map(|(d, _)| d).collect();
        assert_eq!(open, vec![40]);
    }

    #[test]
    fn admitted_rows_never_touch_closed_windows() {
        let mut s = state(10, 2);
        let mut closed = Vec::new();
        assert!(s.offer(25, true, 1, &mut closed));
        // Watermark 23: [0,10) and [10,20) would be closed had they been
        // open; any admitted day is >= 23, inside open/future windows.
        for day in 0..23 {
            assert!(s.is_late(day), "day {day} should be late");
        }
        assert!(!s.is_late(23));
    }

    #[test]
    fn zero_width_window_is_clamped() {
        let s = state(0, 0);
        assert_eq!(s.config().window_days, 1);
    }
}
