//! Simulated time: a deterministic clock with calendar helpers.
//!
//! All timestamps in the simulation are [`SimTime`] values — Unix seconds
//! stored in a `u64`. Library code never reads the wall clock; experiments
//! pick their own epochs. The paper's passive-DNS era spans 2014-01-01 to
//! 2022-12-31, exposed here as [`SimTime::ERA_START`] / [`SimTime::ERA_END`].

use std::fmt;
use std::ops::{Add, Sub};

/// Seconds in a civil day.
pub const SECONDS_PER_DAY: u64 = 86_400;

/// A point in simulated time (Unix seconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(pub u64);

/// A span of simulated time (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(pub u64);

impl SimDuration {
    pub const fn seconds(s: u64) -> Self {
        SimDuration(s)
    }
    pub const fn minutes(m: u64) -> Self {
        SimDuration(m * 60)
    }
    pub const fn hours(h: u64) -> Self {
        SimDuration(h * 3600)
    }
    pub const fn days(d: u64) -> Self {
        SimDuration(d * SECONDS_PER_DAY)
    }
    #[cfg(test)]
    fn as_days(self) -> u64 {
        self.0 / SECONDS_PER_DAY
    }
    pub fn as_seconds(self) -> u64 {
        self.0
    }
}

impl SimTime {
    /// 2014-01-01T00:00:00Z — start of the paper's Farsight era.
    pub const ERA_START: SimTime = SimTime(1_388_534_400);
    /// 2023-01-01T00:00:00Z — exclusive end of the era (covers 2014–2022).
    pub const ERA_END: SimTime = SimTime(1_672_531_200);

    /// Builds a timestamp from a UTC civil date at midnight.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Self {
        let days = days_from_civil(year, month, day);
        assert!(days >= 0, "dates before 1970 are not representable");
        SimTime(days as u64 * SECONDS_PER_DAY)
    }

    /// The UTC civil date `(year, month, day)` containing this instant.
    fn to_ymd(self) -> (i32, u32, u32) {
        civil_from_days((self.0 / SECONDS_PER_DAY) as i64)
    }

    /// Days since the Unix epoch.
    pub fn day_number(self) -> u64 {
        self.0 / SECONDS_PER_DAY
    }

    /// Months since January 2014 (can be negative for earlier instants).
    pub fn month_index(self) -> i64 {
        let (y, m, _) = self.to_ymd();
        (y as i64 - 2014) * 12 + (m as i64 - 1)
    }

    /// The year of this instant.
    pub fn year(self) -> i32 {
        self.to_ymd().0
    }

    /// Start of the civil day containing this instant.
    #[cfg(test)]
    fn floor_day(self) -> SimTime {
        SimTime(self.0 / SECONDS_PER_DAY * SECONDS_PER_DAY)
    }

    /// Whole days from `earlier` to `self` (saturating at zero).
    #[cfg(test)]
    fn days_since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0) / SECONDS_PER_DAY
    }

    pub fn as_secs(self) -> u64 {
        self.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.to_ymd();
        let rem = self.0 % SECONDS_PER_DAY;
        let (hh, mm, ss) = (rem / 3600, rem % 3600 / 60, rem % 60);
        write!(f, "{y:04}-{m:02}-{d:02}T{hh:02}:{mm:02}:{ss:02}Z")
    }
}

/// Days since 1970-01-01 for a civil date (Howard Hinnant's algorithm).
fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    assert!((1..=12).contains(&m), "month out of range");
    assert!((1..=31).contains(&d), "day out of range");
    let y = y as i64 - if m <= 2 { 1 } else { 0 };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (m as i64 + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Civil date for days since 1970-01-01 (inverse of [`days_from_civil`]).
fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    ((y + if m <= 2 { 1 } else { 0 }) as i32, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn era_constants() {
        assert_eq!(SimTime::ERA_START.to_ymd(), (2014, 1, 1));
        assert_eq!(SimTime::ERA_END.to_ymd(), (2023, 1, 1));
    }

    #[test]
    fn ymd_roundtrip_across_era() {
        let mut t = SimTime::from_ymd(2013, 12, 28);
        while t < SimTime::from_ymd(2023, 1, 5) {
            let (y, m, d) = t.to_ymd();
            assert_eq!(SimTime::from_ymd(y, m, d), t);
            t = t + SimDuration::days(1);
        }
    }

    #[test]
    fn leap_years_handled() {
        assert_eq!(SimTime::from_ymd(2016, 2, 29).to_ymd(), (2016, 2, 29));
        let feb28 = SimTime::from_ymd(2016, 2, 28);
        assert_eq!((feb28 + SimDuration::days(1)).to_ymd(), (2016, 2, 29));
        assert_eq!((feb28 + SimDuration::days(2)).to_ymd(), (2016, 3, 1));
        // 2100 is not a leap year in the Gregorian calendar.
        let feb28_2100 = SimTime::from_ymd(2100, 2, 28);
        assert_eq!((feb28_2100 + SimDuration::days(1)).to_ymd(), (2100, 3, 1));
    }

    #[test]
    fn month_index_buckets() {
        assert_eq!(SimTime::from_ymd(2014, 1, 15).month_index(), 0);
        assert_eq!(SimTime::from_ymd(2014, 12, 31).month_index(), 11);
        assert_eq!(SimTime::from_ymd(2022, 12, 31).month_index(), 107);
        assert_eq!(SimTime::from_ymd(2013, 12, 31).month_index(), -1);
    }

    #[test]
    fn day_arithmetic() {
        let a = SimTime::from_ymd(2020, 1, 1);
        let b = SimTime::from_ymd(2020, 3, 1);
        assert_eq!(b.days_since(a), 60); // 2020 is a leap year
        assert_eq!(a.days_since(b), 0); // saturates
        assert_eq!((b - a).as_days(), 60);
    }

    #[test]
    fn display_format() {
        let t = SimTime::from_ymd(2021, 7, 4) + SimDuration::hours(13) + SimDuration::minutes(5);
        assert_eq!(t.to_string(), "2021-07-04T13:05:00Z");
    }

    #[test]
    fn floor_day_truncates() {
        let t = SimTime::from_ymd(2019, 5, 9) + SimDuration::hours(23);
        assert_eq!(t.floor_day(), SimTime::from_ymd(2019, 5, 9));
    }

    #[test]
    fn duration_constructors() {
        assert_eq!(SimDuration::days(2).as_seconds(), 172_800);
        assert_eq!(SimDuration::hours(2).as_seconds(), 7_200);
        assert_eq!(SimDuration::minutes(2).as_seconds(), 120);
        assert_eq!(SimDuration::days(3).as_days(), 3);
    }
}
