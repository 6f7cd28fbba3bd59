//! # nxd-whois
//!
//! Historic WHOIS storage — the stand-in for the WhoisXML database (15.6 B
//! records) and the WHOISIQ mirror the paper cross-checks against (§3.2,
//! §6.1). A domain has zero or more [`WhoisRecord`]s, one per registration
//! span; the paper's key join is "which NXDomains have *any* historic
//! record" (expired domains) versus none (never-registered names).
//!
//! Timestamps are plain Unix seconds so this crate stays dependency-light;
//! callers convert from their simulated clock.
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

use std::collections::HashMap;

/// Why a registration span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanEnd {
    /// Lapsed and was released.
    Expired,
    /// Still registered as of the database snapshot.
    Active,
    /// Taken down by authorities or the registrar.
    TakenDown,
}

/// One registration span of a domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WhoisRecord {
    /// Registrable domain, normalized lowercase without trailing dot.
    pub domain: String,
    /// Unix seconds of registration.
    pub registered: u64,
    /// Unix seconds of expiration (end of the span; meaningful for
    /// `Expired`/`TakenDown`, projected for `Active`).
    pub expires: u64,
    pub registrar: String,
    /// Registrant identity (anonymized in the simulation).
    pub registrant: String,
    pub nameservers: Vec<String>,
    pub end: SpanEnd,
}

/// A historic WHOIS database: every registration span ever recorded.
#[derive(Debug, Default, Clone)]
pub struct HistoricWhoisDb {
    records: HashMap<String, Vec<WhoisRecord>>,
    total: u64,
}

impl HistoricWhoisDb {
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a span, keeping each domain's spans sorted by registration
    /// time.
    pub fn add(&mut self, record: WhoisRecord) {
        let spans = self.records.entry(record.domain.clone()).or_default();
        spans.push(record);
        spans.sort_by_key(|r| r.registered);
        self.total += 1;
    }

    /// All spans for a domain, oldest first.
    pub fn history(&self, domain: &str) -> &[WhoisRecord] {
        self.records
            .get(domain)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// The most recent span, if any.
    pub fn latest(&self, domain: &str) -> Option<&WhoisRecord> {
        self.records.get(domain).and_then(|v| v.last())
    }

    /// Whether the domain was ever registered.
    pub fn has_history(&self, domain: &str) -> bool {
        self.records.contains_key(domain)
    }

    /// Total spans stored (the "15.6 billion historic WHOIS records" axis).
    #[cfg(test)]
    fn total_records(&self) -> u64 {
        self.total
    }

    /// Number of distinct domains with at least one span.
    pub fn distinct_domains(&self) -> usize {
        self.records.len()
    }

    /// Splits `names` into (with history, without history) — the §5.1 join
    /// that found 91,545,561 of 146 B NXDomains (0.06%) had records.
    pub fn join<'a, I>(&self, names: I) -> (Vec<&'a str>, Vec<&'a str>)
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut with = Vec::new();
        let mut without = Vec::new();
        for name in names {
            if self.has_history(name) {
                with.push(name);
            } else {
                without.push(name);
            }
        }
        (with, without)
    }

    /// Counts `names` with and without history — the allocation-free twin
    /// of [`HistoricWhoisDb::join`] for scans that only need the §5.1
    /// tallies, not the split name lists.
    pub fn join_counts<'a, I>(&self, names: I) -> (u64, u64)
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut with = 0u64;
        let mut without = 0u64;
        for name in names {
            if self.has_history(name) {
                with += 1;
            } else {
                without += 1;
            }
        }
        (with, without)
    }

    /// Domains whose latest span expired at least `min_gap_secs` before
    /// `now` — the §3.3 criterion "in non-existent status for at least six
    /// months".
    #[cfg(test)]
    fn expired_before(&self, now: u64, min_gap_secs: u64) -> Vec<&WhoisRecord> {
        self.records
            .values()
            .filter_map(|spans| spans.last())
            .filter(|r| r.end == SpanEnd::Expired && r.expires + min_gap_secs <= now)
            .collect()
    }
}

/// Primary + secondary WHOIS sources checked together, as the paper does
/// with WhoisXML and WHOISIQ when selecting the control-group domains
/// ("we ensure that these domains do not hold any historical registration
/// records by checking two WHOIS databases").
#[derive(Debug, Default, Clone)]
pub struct CrossCheckedWhois {
    pub primary: HistoricWhoisDb,
    pub secondary: HistoricWhoisDb,
}

impl CrossCheckedWhois {
    pub fn new(primary: HistoricWhoisDb, secondary: HistoricWhoisDb) -> Self {
        CrossCheckedWhois { primary, secondary }
    }

    /// True only if *neither* database has ever seen the domain.
    #[cfg(test)]
    fn never_registered(&self, domain: &str) -> bool {
        !self.primary.has_history(domain) && !self.secondary.has_history(domain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(domain: &str, registered: u64, expires: u64, end: SpanEnd) -> WhoisRecord {
        WhoisRecord {
            domain: domain.into(),
            registered,
            expires,
            registrar: "godaddy".into(),
            registrant: "anon-1".into(),
            nameservers: vec![format!("ns1.{domain}")],
            end,
        }
    }

    #[test]
    fn add_and_history() {
        let mut db = HistoricWhoisDb::new();
        db.add(rec("a.com", 200, 300, SpanEnd::Expired));
        db.add(rec("a.com", 100, 150, SpanEnd::Expired));
        let h = db.history("a.com");
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].registered, 100, "spans sorted oldest first");
        assert_eq!(db.latest("a.com").unwrap().registered, 200);
        assert_eq!(db.total_records(), 2);
        assert_eq!(db.distinct_domains(), 1);
    }

    #[test]
    fn missing_domain() {
        let db = HistoricWhoisDb::new();
        assert!(db.history("nope.com").is_empty());
        assert!(db.latest("nope.com").is_none());
        assert!(!db.has_history("nope.com"));
    }

    #[test]
    fn join_splits() {
        let mut db = HistoricWhoisDb::new();
        db.add(rec("seen.com", 1, 2, SpanEnd::Expired));
        let names = vec!["seen.com", "never1.com", "never2.com"];
        let (with, without) = db.join(names);
        assert_eq!(with, vec!["seen.com"]);
        assert_eq!(without.len(), 2);
    }

    #[test]
    fn join_counts_matches_join() {
        let mut db = HistoricWhoisDb::new();
        db.add(rec("seen.com", 1, 2, SpanEnd::Expired));
        let names = ["seen.com", "never1.com", "never2.com"];
        let (with, without) = db.join_counts(names);
        let (with_v, without_v) = db.join(names);
        assert_eq!(with, with_v.len() as u64);
        assert_eq!(without, without_v.len() as u64);
        assert_eq!((with, without), (1, 2));
    }

    #[test]
    fn expired_before_honours_gap() {
        let mut db = HistoricWhoisDb::new();
        let half_year = 182 * 86_400;
        db.add(rec("old.com", 0, 1_000, SpanEnd::Expired));
        db.add(rec("fresh.com", 0, 100_000_000, SpanEnd::Expired));
        db.add(rec("active.com", 0, 1_000, SpanEnd::Active));
        let now = 1_000 + half_year;
        let hits = db.expired_before(now, half_year);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].domain, "old.com");
    }

    #[test]
    fn active_span_not_counted_as_expired() {
        let mut db = HistoricWhoisDb::new();
        db.add(rec("takedown.com", 0, 10, SpanEnd::TakenDown));
        assert!(db.expired_before(u64::MAX, 0).is_empty());
    }

    #[test]
    fn cross_check_requires_both_empty() {
        let mut primary = HistoricWhoisDb::new();
        primary.add(rec("p.com", 1, 2, SpanEnd::Expired));
        let mut secondary = HistoricWhoisDb::new();
        secondary.add(rec("s.com", 1, 2, SpanEnd::Expired));
        let x = CrossCheckedWhois::new(primary, secondary);
        assert!(!x.never_registered("p.com"));
        assert!(!x.never_registered("s.com"));
        assert!(x.never_registered("clean.com"));
    }
}
