//! Property tests for the blocklist: every inserted domain must remain
//! findable, and lookups and cross-references must be observationally
//! identical to a plain lowercase map for any key set, query set, and
//! casing.

use std::collections::HashMap;

use nxd_blocklist::{Blocklist, ThreatCategory};
use proptest::prelude::*;

const TLDS: [&str; 4] = ["com", "net", "ru", "org"];

fn arb_domain() -> impl Strategy<Value = String> {
    ("[a-zA-Z0-9-]{1,12}", 0usize..TLDS.len())
        .prop_map(|(stem, tld)| format!("{stem}.{}", TLDS[tld]))
}

fn arb_entries() -> impl Strategy<Value = Vec<(String, usize)>> {
    proptest::collection::vec((arb_domain(), 0usize..4), 0..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The blocklist behaves exactly like a plain map: listed domains (any
    /// casing) resolve to their category, unlisted domains to None, across
    /// incremental inserts and category updates.
    #[test]
    fn prefiltered_lookup_matches_plain_map(
        entries in arb_entries(),
        probes in proptest::collection::vec(arb_domain(), 0..100)
    ) {
        let mut list = Blocklist::new();
        let mut reference: HashMap<String, ThreatCategory> = HashMap::new();
        for (domain, cat_idx) in &entries {
            let cat = ThreatCategory::ALL[*cat_idx];
            list.insert(domain, cat);
            reference.insert(domain.to_ascii_lowercase(), cat);
        }
        prop_assert_eq!(list.len(), reference.len());
        // Inserted keys are always found, including on the mixed-case
        // lookup path.
        for (domain, _) in &entries {
            let want = reference.get(&domain.to_ascii_lowercase()).copied();
            prop_assert_eq!(list.lookup(domain), want);
            prop_assert_eq!(list.lookup(&domain.to_ascii_uppercase()), want);
        }
        // Arbitrary probes agree with the reference map.
        for probe in &probes {
            prop_assert_eq!(
                list.lookup(probe),
                reference.get(&probe.to_ascii_lowercase()).copied()
            );
        }
    }

    /// Cross-reference counts match the reference map's.
    #[test]
    fn cross_reference_matches_reference_counts(
        entries in arb_entries(),
        probes in proptest::collection::vec(arb_domain(), 0..100)
    ) {
        let mut list = Blocklist::new();
        let mut reference: HashMap<String, ThreatCategory> = HashMap::new();
        for (domain, cat_idx) in &entries {
            let cat = ThreatCategory::ALL[*cat_idx];
            list.insert(domain, cat);
            reference.insert(domain.to_ascii_lowercase(), cat);
        }
        let mut expect: HashMap<ThreatCategory, u64> = HashMap::new();
        for probe in &probes {
            if let Some(cat) = reference.get(&probe.to_ascii_lowercase()) {
                *expect.entry(*cat).or_insert(0) += 1;
            }
        }
        prop_assert_eq!(
            list.cross_reference(probes.iter().map(String::as_str)),
            expect
        );
    }
}
