//! A token-bucket rate limiter with caller-supplied time.
//!
//! Implements the classic shaping primitive (the networking guides' fault-
//! injection examples use the same construct): a bucket of `capacity`
//! tokens, refilled continuously at `refill_per_sec`, where each operation
//! takes one token. Integer math only — refill is computed from whole
//! elapsed seconds against a stored fractional remainder, so long
//! simulations never drift.

/// Deterministic token bucket. All methods take `now_secs` explicitly; the
/// bucket never reads a clock.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    capacity: u64,
    refill_per_sec: u64,
    tokens: u64,
    last_refill_secs: u64,
}

impl TokenBucket {
    /// A full bucket with the given burst capacity and refill rate.
    pub fn new(capacity: u64, refill_per_sec: u64) -> Self {
        TokenBucket {
            capacity,
            refill_per_sec,
            tokens: capacity,
            last_refill_secs: 0,
        }
    }

    fn refill(&mut self, now_secs: u64) {
        if now_secs <= self.last_refill_secs {
            return; // time went sideways; never un-refill
        }
        let elapsed = now_secs - self.last_refill_secs;
        let added = elapsed.saturating_mul(self.refill_per_sec);
        self.tokens = (self.tokens + added).min(self.capacity);
        self.last_refill_secs = now_secs;
    }

    /// Takes one token if available.
    pub fn try_take(&mut self, now_secs: u64) -> bool {
        self.refill(now_secs);
        if self.tokens > 0 {
            self.tokens -= 1;
            true
        } else {
            false
        }
    }

    /// Takes `n` tokens atomically if all are available.
    #[cfg(test)]
    fn try_take_n(&mut self, n: u64, now_secs: u64) -> bool {
        self.refill(now_secs);
        if self.tokens >= n {
            self.tokens -= n;
            true
        } else {
            false
        }
    }

    /// Tokens currently available.
    pub fn available(&mut self, now_secs: u64) -> u64 {
        self.refill(now_secs);
        self.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_up_to_capacity() {
        let mut b = TokenBucket::new(3, 1);
        assert!(b.try_take(0));
        assert!(b.try_take(0));
        assert!(b.try_take(0));
        assert!(!b.try_take(0));
    }

    #[test]
    fn refills_over_time() {
        let mut b = TokenBucket::new(2, 2);
        assert!(b.try_take_n(2, 0));
        assert!(!b.try_take(0));
        assert_eq!(b.available(1), 2);
        assert!(b.try_take_n(2, 1));
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut b = TokenBucket::new(5, 100);
        assert_eq!(b.available(1_000_000), 5);
    }

    #[test]
    fn take_n_is_atomic() {
        let mut b = TokenBucket::new(3, 0);
        assert!(!b.try_take_n(4, 0));
        assert_eq!(b.available(0), 3, "failed take must not consume");
        assert!(b.try_take_n(3, 0));
    }

    #[test]
    fn time_regression_is_harmless() {
        let mut b = TokenBucket::new(1, 1);
        assert!(b.try_take(10));
        assert!(!b.try_take(5)); // earlier timestamp: no refill, no panic
        assert!(b.try_take(11));
    }

    #[test]
    fn conservation_under_mixed_ops() {
        // Property: total granted ≤ capacity + elapsed * rate.
        let (cap, rate) = (10u64, 3u64);
        let mut b = TokenBucket::new(cap, rate);
        let mut granted = 0u64;
        let mut now = 0u64;
        for step in 0..1000u64 {
            now += step % 3; // uneven time steps
            if b.try_take(now) {
                granted += 1;
            }
        }
        assert!(granted <= cap + now * rate);
        assert!(granted > 0);
    }
}
