//! The squat classifier — the stand-in for the commercial identification
//! algorithm behind Fig. 7 (45,175 typo / 38,900 combo / 6,090 dot /
//! 313 bit / 126 homo squats among 91 M expired NXDomains).
//!
//! Classification is checked in a fixed precedence order chosen so that each
//! generator's output maps back to its own category (see the round-trip
//! tests): bit before homo before typo (a bit-flip and some glyph swaps are
//! also edit-distance-1), and dot/combo last because their shapes are
//! unambiguous at larger edit distances.
//!
//! The hot path is [`SquatClassifier::classify_with`]: targets are indexed
//! by TLD with precomputed byte/char lengths so each check screens targets
//! by length and first byte before running an edit distance, the
//! Damerau–Levenshtein call is the scratch-reusing distance-≤1 test
//! [`within_one_edit`], and every rewrite comparison (homoglyph,
//! dot, combo) works on borrowed slices instead of building candidate
//! strings. A [`SquatScratch`] per worker thread makes a whole-population
//! scan allocation-free except for the rare positive match.

use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

use crate::edit::{bit_hamming, within_one_edit, EditScratch};
use crate::tables::{CHAR_GLYPHS, COMBO_KEYWORDS, DIGRAPH_GLYPHS, POPULAR_TARGETS};

/// The five squat categories of Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SquatKind {
    Typo,
    Combo,
    Dot,
    Bit,
    Homo,
}

impl SquatKind {
    pub const ALL: [SquatKind; 5] = [
        SquatKind::Typo,
        SquatKind::Combo,
        SquatKind::Dot,
        SquatKind::Bit,
        SquatKind::Homo,
    ];

    pub fn label(self) -> &'static str {
        match self {
            SquatKind::Typo => "typosquatting",
            SquatKind::Combo => "combosquatting",
            SquatKind::Dot => "dotsquatting",
            SquatKind::Bit => "bitsquatting",
            SquatKind::Homo => "homosquatting",
        }
    }
}

/// A positive classification: which kind, against which target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SquatMatch {
    pub kind: SquatKind,
    pub target: String,
}

/// One indexed target: the parsed brand/TLD plus precomputed lengths and
/// the rendered `brand.tld` handed out in matches.
#[derive(Debug, Clone)]
struct Target {
    brand: String,
    tld: String,
    full: String,
    brand_chars: usize,
    tld_chars: usize,
}

/// Reusable per-thread buffers for [`SquatClassifier::classify_with`].
#[derive(Debug, Default, Clone)]
pub struct SquatScratch {
    edit: EditScratch,
    buf: String,
}

/// Classifier over a set of popular target domains.
#[derive(Debug, Clone)]
pub struct SquatClassifier {
    /// All targets in insertion order — the order ties break in.
    targets: Vec<Target>,
    /// Target indices grouped by TLD (insertion order preserved within a
    /// group), for the checks that require the TLDs to match exactly.
    by_tld: HashMap<String, Vec<usize>>,
}

impl Default for SquatClassifier {
    fn default() -> Self {
        Self::new(POPULAR_TARGETS.iter().copied())
    }
}

fn combo_keyword_set() -> &'static HashSet<&'static str> {
    static SET: OnceLock<HashSet<&'static str>> = OnceLock::new();
    SET.get_or_init(|| COMBO_KEYWORDS.iter().copied().collect())
}

/// Whether `(x, y)` is a confusable pair in either orientation.
fn char_glyph_pair(x: char, y: char) -> bool {
    CHAR_GLYPHS
        .iter()
        .any(|&(a, b)| (x == a && y == b) || (x == b && y == a))
}

/// Whether rewriting one occurrence of `f` in `label` to `t` yields `brand`,
/// without materializing the rewrite (pure slice comparisons).
fn digraph_rewrite_matches(label: &str, brand: &str, f: &str, t: &str) -> bool {
    if label.len() + t.len() != brand.len() + f.len() {
        return false;
    }
    let (lb, bb, tb) = (label.as_bytes(), brand.as_bytes(), t.as_bytes());
    let mut start = 0;
    while let Some(pos) = label[start..].find(f) {
        let at = start + pos;
        if bb[..at] == lb[..at]
            && bb[at..at + t.len()] == *tb
            && bb[at + t.len()..] == lb[at + f.len()..]
        {
            return true;
        }
        start = at + 1;
    }
    false
}

impl SquatClassifier {
    /// Builds a classifier for the given targets (each `brand.tld`).
    pub fn new<'a, I: IntoIterator<Item = &'a str>>(targets: I) -> Self {
        let targets: Vec<Target> = targets
            .into_iter()
            .filter_map(|t| {
                let mut it = t.split('.');
                match (it.next(), it.next(), it.next()) {
                    (Some(b), Some(tld), None) if !b.is_empty() && !tld.is_empty() => {
                        Some(Target {
                            brand: b.to_string(),
                            tld: tld.to_string(),
                            full: format!("{b}.{tld}"),
                            brand_chars: b.chars().count(),
                            tld_chars: tld.chars().count(),
                        })
                    }
                    _ => None,
                }
            })
            .collect();
        let mut by_tld: HashMap<String, Vec<usize>> = HashMap::new();
        for (idx, t) in targets.iter().enumerate() {
            by_tld.entry(t.tld.clone()).or_default().push(idx);
        }
        SquatClassifier { targets, by_tld }
    }

    /// Classifies a registrable domain. Returns `None` for exact targets and
    /// non-squats. Allocation-per-call convenience wrapper over
    /// [`SquatClassifier::classify_with`].
    pub fn classify(&self, domain: &str) -> Option<SquatMatch> {
        self.classify_with(domain, &mut SquatScratch::default())
    }

    /// Classifies a registrable domain, reusing `scratch` across calls —
    /// the hot path of the fused origin pipeline.
    pub fn classify_with(&self, domain: &str, scratch: &mut SquatScratch) -> Option<SquatMatch> {
        let (label, tld) = {
            let mut it = domain.split('.');
            let l = it.next()?;
            let t = it.next()?;
            if it.next().is_some() {
                return None;
            }
            (l, t)
        };
        let same_tld = self.by_tld.get(tld).map(Vec::as_slice).unwrap_or(&[]);
        // Exact target → not a squat.
        if same_tld.iter().any(|&i| self.targets[i].brand == label) {
            return None;
        }
        let label_chars = label.chars().count();
        let tld_chars = tld.chars().count();

        // Precedence: bit, homo, typo, dot, combo.
        if let Some(m) = self.check_bit(label, same_tld) {
            return Some(m);
        }
        if let Some(m) = self.check_homo(label, label_chars, same_tld) {
            return Some(m);
        }
        if let Some(m) = self.check_typo(label, label_chars, tld, tld_chars, scratch) {
            return Some(m);
        }
        if let Some(m) = self.check_dot(label, same_tld) {
            return Some(m);
        }
        self.check_combo(label, same_tld, scratch)
    }

    fn found(&self, kind: SquatKind, idx: usize) -> Option<SquatMatch> {
        Some(SquatMatch {
            kind,
            target: self.targets[idx].full.clone(),
        })
    }

    fn check_bit(&self, label: &str, same_tld: &[usize]) -> Option<SquatMatch> {
        let lb = label.as_bytes();
        for &idx in same_tld {
            let brand = &self.targets[idx].brand;
            // One flipped bit leaves the length intact and the first bytes
            // within one bit of each other — both screens are free.
            if lb.len() == brand.len()
                && !lb.is_empty()
                && (lb[0] ^ brand.as_bytes()[0]).count_ones() <= 1
                && bit_hamming(label, brand) == Some(1)
            {
                return self.found(SquatKind::Bit, idx);
            }
        }
        None
    }

    fn check_homo(
        &self,
        label: &str,
        label_chars: usize,
        same_tld: &[usize],
    ) -> Option<SquatMatch> {
        for &idx in same_tld {
            let target = &self.targets[idx];
            // Single-char glyphs: the label must match the brand everywhere
            // except exactly one position holding a confusable pair.
            if label_chars == target.brand_chars {
                let mut diffs = 0u32;
                let mut pair = None;
                for (lc, bc) in label.chars().zip(target.brand.chars()) {
                    if lc != bc {
                        diffs += 1;
                        if diffs > 1 {
                            break;
                        }
                        pair = Some((lc, bc));
                    }
                }
                if diffs == 1 {
                    let (lc, bc) = pair.expect("one diff recorded");
                    if char_glyph_pair(lc, bc) {
                        return self.found(SquatKind::Homo, idx);
                    }
                }
            }
            // Digraph glyphs, both directions.
            for &(from, to) in DIGRAPH_GLYPHS {
                for (f, t) in [(from, to), (to, from)] {
                    if digraph_rewrite_matches(label, &target.brand, f, t) {
                        return self.found(SquatKind::Homo, idx);
                    }
                }
            }
        }
        None
    }

    fn check_typo(
        &self,
        label: &str,
        label_chars: usize,
        tld: &str,
        tld_chars: usize,
        scratch: &mut SquatScratch,
    ) -> Option<SquatMatch> {
        // Iterates the full target list (not the TLD group): the cross-TLD
        // arm competes with the same-TLD arm of *later* targets, and ties
        // must keep breaking in insertion order.
        for (idx, target) in self.targets.iter().enumerate() {
            // Same TLD, one edit in the label (omission/duplication/
            // substitution/insertion/transposition)...
            if target.tld == tld
                && label_chars.abs_diff(target.brand_chars) <= 1
                && within_one_edit(label, &target.brand, &mut scratch.edit) == Some(1)
            {
                return self.found(SquatKind::Typo, idx);
            }
            // ...or same label with a one-edit TLD (`google.co`).
            if label == target.brand
                && tld_chars.abs_diff(target.tld_chars) <= 1
                && within_one_edit(tld, &target.tld, &mut scratch.edit) == Some(1)
            {
                return self.found(SquatKind::Typo, idx);
            }
        }
        None
    }

    fn check_dot(&self, label: &str, same_tld: &[usize]) -> Option<SquatMatch> {
        for &idx in same_tld {
            let brand = self.targets[idx].brand.as_str();
            // Fused or hyphenated www prefix.
            if (label.len() == brand.len() + 3 && label.starts_with("www") && &label[3..] == brand)
                || (label.len() == brand.len() + 4
                    && label.starts_with("www-")
                    && &label[4..] == brand)
            {
                return self.found(SquatKind::Dot, idx);
            }
            // Dot-shift: the label is a proper suffix of the brand (≥ 3
            // chars, shorter than the brand).
            if label.len() >= 3 && label.len() < brand.len() && brand.ends_with(label) {
                return self.found(SquatKind::Dot, idx);
            }
        }
        None
    }

    fn check_combo(
        &self,
        label: &str,
        same_tld: &[usize],
        scratch: &mut SquatScratch,
    ) -> Option<SquatMatch> {
        let keywords = combo_keyword_set();
        for &idx in same_tld {
            let brand = self.targets[idx].brand.as_str();
            if label.len() <= brand.len() {
                continue;
            }
            // Try removing *each* occurrence of the brand (a brand can also
            // appear inside a keyword: brand "ecur" in "secure-ecur"); the
            // remainder minus separators must be a known combo keyword.
            for (at, _) in label.match_indices(brand) {
                scratch.buf.clear();
                scratch.buf.push_str(&label[..at]);
                scratch.buf.push_str(&label[at + brand.len()..]);
                let rest = scratch.buf.trim_matches('-');
                if !rest.is_empty() && keywords.contains(rest) {
                    return self.found(SquatKind::Combo, idx);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    fn classifier() -> SquatClassifier {
        SquatClassifier::default()
    }

    #[test]
    fn exact_target_is_not_a_squat() {
        assert_eq!(classifier().classify("google.com"), None);
    }

    #[test]
    fn unrelated_domain_is_not_a_squat() {
        let c = classifier();
        assert_eq!(c.classify("completely-unrelated-business.com"), None);
        assert_eq!(c.classify("kxqzjwv.com"), None);
    }

    #[test]
    fn paper_example_twitter_sup0rt() {
        // The honeypot set contains twitter-sup0rt.com; with the homoglyph
        // 0→o it reads "twitter-support", a combosquat of twitter.com. Our
        // classifier sees the combo pattern only after glyph repair, which it
        // does not chain — but the pure combo twitter-support.com must hit.
        let c = classifier();
        let m = c.classify("twitter-support.com").unwrap();
        assert_eq!(m.kind, SquatKind::Combo);
        assert_eq!(m.target, "twitter.com");
    }

    #[test]
    fn tld_typo_detected() {
        let c = classifier();
        let m = c.classify("google.co").unwrap();
        assert_eq!(m.kind, SquatKind::Typo);
    }

    #[test]
    fn generated_typos_classify_as_typo() {
        let c = classifier();
        for s in generate::typosquats("google.com") {
            let m = c.classify(&s).unwrap_or_else(|| panic!("unclassified {s}"));
            // A few QWERTY substitutions are also single bit flips or
            // homoglyph pairs (o→0 is both a neighbour key and a glyph);
            // precedence sends those to Bit/Homo.
            assert!(
                matches!(m.kind, SquatKind::Typo | SquatKind::Bit | SquatKind::Homo),
                "{s} classified {:?}",
                m.kind
            );
        }
    }

    #[test]
    fn generated_combos_classify_as_combo() {
        let c = classifier();
        for s in generate::combosquats("paypal.com") {
            let m = c.classify(&s).unwrap_or_else(|| panic!("unclassified {s}"));
            assert_eq!(m.kind, SquatKind::Combo, "{s}");
            assert_eq!(m.target, "paypal.com");
        }
    }

    #[test]
    fn generated_dots_classify_as_dot() {
        let c = classifier();
        for s in generate::dotsquats("facebook.com") {
            let m = c.classify(&s).unwrap_or_else(|| panic!("unclassified {s}"));
            // Dropping only the first character ("acebook.com") is equally a
            // one-edit typo, which has precedence.
            assert!(
                m.kind == SquatKind::Dot || m.kind == SquatKind::Typo,
                "{s} classified {:?}",
                m.kind
            );
        }
    }

    #[test]
    fn generated_bits_classify_as_bit() {
        let c = classifier();
        for s in generate::bitsquats("apple.com") {
            let m = c.classify(&s).unwrap_or_else(|| panic!("unclassified {s}"));
            assert_eq!(m.kind, SquatKind::Bit, "{s}");
        }
    }

    #[test]
    fn generated_homos_classify_as_homo_or_stronger() {
        let c = classifier();
        for s in generate::homosquats("google.com") {
            let m = c.classify(&s).unwrap_or_else(|| panic!("unclassified {s}"));
            // Bit takes precedence when a glyph swap happens to be one bit.
            assert!(
                m.kind == SquatKind::Homo || m.kind == SquatKind::Bit,
                "{s} classified {:?}",
                m.kind
            );
        }
    }

    #[test]
    fn digraph_homoglyph_detected() {
        // "modern" with m→rn: "rnodern.com".
        let c = SquatClassifier::new(["modern.com"]);
        let m = c.classify("rnodern.com").unwrap();
        assert_eq!(m.kind, SquatKind::Homo);
    }

    #[test]
    fn subdomains_rejected() {
        assert_eq!(classifier().classify("www.google.com"), None);
    }

    #[test]
    fn scratch_reuse_is_equivalent() {
        let c = classifier();
        let mut scratch = SquatScratch::default();
        for domain in [
            "gogle.com",
            "paypal-login.com",
            "wwwfacebook.com",
            "rnail.ru",
            "appl4.com",
            "unrelated.net",
            "google.co",
            "twitter-support.com",
        ] {
            assert_eq!(
                c.classify_with(domain, &mut scratch),
                c.classify(domain),
                "{domain}"
            );
        }
    }

    #[test]
    fn kind_labels() {
        assert_eq!(SquatKind::Typo.label(), "typosquatting");
        assert_eq!(SquatKind::ALL.len(), 5);
    }
}
