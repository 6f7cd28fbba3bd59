//! The [`Rule`] table entry and the full rule catalog.
//!
//! Each pass family keeps its rules in one `static` table in rule-ID order
//! ([`WIRE_RULES`], [`ZONE_RULES`], [`TRACE_RULES`]); an entry pairs the
//! rule's [`RuleInfo`] with the plain function that checks it, so adding a
//! rule is one `static NXDnnn`, one function and one table line.
//!
//! Rule IDs live in the stable `NXDnnn` namespace: an ID is never reused or
//! renumbered once released, so downstream tooling can suppress or track
//! findings by ID across versions.

use crate::diagnostic::RuleInfo;
use crate::trace::TRACE_RULES;
use crate::wire::WIRE_RULES;
use crate::zone::ZONE_RULES;

/// One rule: its static metadata and its check. `F` is the pass family's
/// check signature ([`crate::wire::WireCheck`], [`crate::zone::ZoneCheck`]
/// or [`crate::trace::TraceCheck`]).
pub struct Rule<F> {
    pub info: &'static RuleInfo,
    pub check: F,
}

impl<F> Rule<F> {
    pub const fn new(info: &'static RuleInfo, check: F) -> Self {
        Rule { info, check }
    }
}

/// Every rule's metadata, in rule-ID order — the machine-readable catalog
/// backing `nxd-analyze rules` and the README table.
pub fn catalog() -> Vec<&'static RuleInfo> {
    let wire = WIRE_RULES.iter().map(|r| r.info);
    let zone = ZONE_RULES.iter().map(|r| r.info);
    let trace = TRACE_RULES.iter().map(|r| r.info);
    wire.chain(zone).chain(trace).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalog_has_at_least_ten_rules_across_three_families() {
        let infos = catalog();
        assert!(infos.len() >= 10, "only {} rules", infos.len());
        assert_eq!(WIRE_RULES.len(), 8);
        assert_eq!(ZONE_RULES.len(), 6);
        assert_eq!(TRACE_RULES.len(), 3);
    }

    #[test]
    fn rule_ids_are_unique_well_formed_and_ordered() {
        let infos = catalog();
        let ids: Vec<&str> = infos.iter().map(|i| i.id).collect();
        let unique: HashSet<&&str> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len(), "duplicate rule IDs: {ids:?}");
        for (n, info) in infos.iter().enumerate() {
            assert_eq!(
                info.id,
                format!("NXD{:03}", n + 1),
                "IDs must be dense and ordered"
            );
            assert!(info.rfc.starts_with("RFC "), "{} cites no RFC", info.id);
            assert!(!info.summary.is_empty());
            assert!(info
                .name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'));
        }
    }

    #[test]
    fn readme_catalog_table_matches_the_catalog() {
        let rows: Vec<Vec<&str>> = include_str!("../README.md")
            .lines()
            .filter(|l| l.starts_with("| NXD"))
            .map(|l| l.split('|').map(str::trim).collect())
            .collect();
        let infos = catalog();
        assert_eq!(rows.len(), infos.len(), "README rows vs catalog rules");
        for (row, info) in rows.iter().zip(&infos) {
            let expected = [info.id, info.severity.as_str(), info.name, info.rfc];
            assert_eq!(row[1..5], expected, "README row for {}", info.id);
        }
    }
}
