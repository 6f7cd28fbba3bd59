//! # nxd-blocklist
//!
//! A categorized domain blocklist standing in for the Palo Alto Networks
//! URL-filtering list the paper cross-references (§5.2, Fig. 8: 382,135
//! malware / 42,050 grayware / 39,834 phishing / 19,868 C&C hits in a
//! 20 M-domain sample).
//!
//! The real database is rate-limited — the reason the paper samples 20 M of
//! 91 M expired domains instead of querying all of them. [`RateLimitedView`]
//! reproduces that constraint with a token bucket, so experiments must adopt
//! the same sampling strategy.
#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::string_slice,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

pub mod bloom;
pub mod bucket;

use std::collections::HashMap;

pub use bloom::BloomFilter;
pub use bucket::TokenBucket;

/// Threat categories tracked by the blocklist (Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ThreatCategory {
    Malware,
    Grayware,
    Phishing,
    CommandAndControl,
}

impl ThreatCategory {
    pub const ALL: [ThreatCategory; 4] = [
        ThreatCategory::Malware,
        ThreatCategory::Grayware,
        ThreatCategory::Phishing,
        ThreatCategory::CommandAndControl,
    ];

    pub fn label(self) -> &'static str {
        match self {
            ThreatCategory::Malware => "Malware",
            ThreatCategory::Grayware => "Grayware",
            ThreatCategory::Phishing => "Phishing",
            ThreatCategory::CommandAndControl => "C&C",
        }
    }
}

/// The blocklist database: a category map fronted by a Bloom filter so
/// the overwhelmingly-miss cross-reference workload (§5.2) answers "not
/// listed" from a few cache lines without probing the map.
#[derive(Debug, Default, Clone)]
pub struct Blocklist {
    entries: HashMap<String, ThreatCategory>,
    filter: BloomFilter,
}

impl Blocklist {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds or updates an entry (normalized to lowercase). Keeps the Bloom
    /// prefilter in sync, rebuilding it at a larger size when the list
    /// outgrows its bits-per-key budget.
    pub fn insert(&mut self, domain: &str, category: ThreatCategory) {
        let key = domain.to_ascii_lowercase();
        self.filter.insert(&key);
        self.entries.insert(key, category);
        if self.filter.wants_rebuild(self.entries.len()) {
            let mut rebuilt = BloomFilter::with_capacity(self.entries.len() * 2);
            for existing in self.entries.keys() {
                rebuilt.insert(existing);
            }
            self.filter = rebuilt;
        }
    }

    /// Looks up a domain. Already-lowercase inputs (the common case — the
    /// passive store normalizes qnames) probe directly; only mixed-case
    /// queries pay for a lowercased copy. The Bloom prefilter short-circuits
    /// definite misses before the map is touched; it never produces false
    /// negatives, so listed domains are always found.
    pub fn lookup(&self, domain: &str) -> Option<ThreatCategory> {
        if domain.bytes().any(|b| b.is_ascii_uppercase()) {
            let key = domain.to_ascii_lowercase();
            if !self.filter.may_contain(&key) {
                return None;
            }
            self.entries.get(&key).copied()
        } else {
            if !self.filter.may_contain(domain) {
                return None;
            }
            self.entries.get(domain).copied()
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counts entries per category across the whole list.
    pub fn category_counts(&self) -> HashMap<ThreatCategory, u64> {
        let mut out = HashMap::new();
        for cat in self.entries.values() {
            *out.entry(*cat).or_insert(0) += 1;
        }
        out
    }

    /// Cross-references an iterator of domains, returning per-category hit
    /// counts — the Fig. 8 query.
    pub fn cross_reference<'a, I>(&self, domains: I) -> HashMap<ThreatCategory, u64>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut out = HashMap::new();
        for d in domains {
            if let Some(cat) = self.lookup(d) {
                *out.entry(cat).or_insert(0) += 1;
            }
        }
        out
    }

    /// Wraps the list in a rate-limited view with `capacity` burst tokens
    /// refilled at `refill_per_sec`.
    pub fn rate_limited(&self, capacity: u64, refill_per_sec: u64) -> RateLimitedView<'_> {
        RateLimitedView {
            list: self,
            bucket: TokenBucket::new(capacity, refill_per_sec),
        }
    }
}

/// Error returned when the query rate limit is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimited;

/// A rate-limited handle to a [`Blocklist`] (the commercial API constraint).
/// Time is supplied by the caller in seconds, matching the simulated clock.
#[derive(Debug)]
pub struct RateLimitedView<'a> {
    list: &'a Blocklist,
    bucket: TokenBucket,
}

impl RateLimitedView<'_> {
    /// Performs one lookup at time `now_secs`, consuming a token.
    pub fn lookup(
        &mut self,
        domain: &str,
        now_secs: u64,
    ) -> Result<Option<ThreatCategory>, RateLimited> {
        if self.bucket.try_take(now_secs) {
            Ok(self.list.lookup(domain))
        } else {
            Err(RateLimited)
        }
    }

    /// Remaining burst capacity at `now_secs`.
    pub fn tokens(&mut self, now_secs: u64) -> u64 {
        self.bucket.available(now_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Blocklist {
        let mut b = Blocklist::new();
        b.insert("malware1.com", ThreatCategory::Malware);
        b.insert("malware2.com", ThreatCategory::Malware);
        b.insert("gray.com", ThreatCategory::Grayware);
        b.insert("phish.com", ThreatCategory::Phishing);
        b.insert("cnc.ru", ThreatCategory::CommandAndControl);
        b
    }

    #[test]
    fn insert_and_lookup() {
        let b = sample();
        assert_eq!(b.lookup("malware1.com"), Some(ThreatCategory::Malware));
        assert_eq!(b.lookup("MALWARE1.COM"), Some(ThreatCategory::Malware));
        assert_eq!(b.lookup("clean.com"), None);
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn category_counts() {
        let counts = sample().category_counts();
        assert_eq!(counts[&ThreatCategory::Malware], 2);
        assert_eq!(counts[&ThreatCategory::Grayware], 1);
    }

    #[test]
    fn cross_reference_counts_hits_only() {
        let b = sample();
        let hits = b.cross_reference(["malware1.com", "clean.com", "phish.com", "also-clean.org"]);
        assert_eq!(hits.get(&ThreatCategory::Malware), Some(&1));
        assert_eq!(hits.get(&ThreatCategory::Phishing), Some(&1));
        assert_eq!(hits.get(&ThreatCategory::Grayware), None);
    }

    #[test]
    fn rate_limit_enforced() {
        let b = sample();
        let mut view = b.rate_limited(2, 1);
        assert!(view.lookup("malware1.com", 0).is_ok());
        assert!(view.lookup("malware2.com", 0).is_ok());
        assert_eq!(view.lookup("gray.com", 0), Err(RateLimited));
        // One second later a token has refilled.
        assert_eq!(
            view.lookup("gray.com", 1),
            Ok(Some(ThreatCategory::Grayware))
        );
    }

    #[test]
    fn category_labels() {
        assert_eq!(ThreatCategory::CommandAndControl.label(), "C&C");
        assert_eq!(ThreatCategory::ALL.len(), 4);
    }

    #[test]
    fn update_overwrites_category() {
        let mut b = sample();
        b.insert("gray.com", ThreatCategory::Malware);
        assert_eq!(b.lookup("gray.com"), Some(ThreatCategory::Malware));
        assert_eq!(b.len(), 5);
    }
}
