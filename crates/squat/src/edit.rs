//! Edit distances used by squat classification.
//!
//! The classifier only ever asks "is the distance ≤ 1?", so the workhorse is
//! [`damerau_levenshtein_bounded`]: a banded OSA computation that early-exits
//! on length mismatch, clamps cells above the bound, and reuses caller-owned
//! row buffers ([`EditScratch`]) so the per-name hot loop of the fused origin
//! pipeline performs no allocation. The classic unbounded
//! [`damerau_levenshtein`] is a thin wrapper with the bound set to the longer
//! input, kept for callers that need the exact distance.

/// Reusable row buffers for [`damerau_levenshtein_bounded`]. One instance
/// per worker thread amortizes every allocation across a whole scan.
#[derive(Debug, Default, Clone)]
pub struct EditScratch {
    a_chars: Vec<char>,
    b_chars: Vec<char>,
    prev2: Vec<usize>,
    prev: Vec<usize>,
    cur: Vec<usize>,
}

/// Damerau–Levenshtein distance (optimal string alignment variant) if it is
/// at most `max_dist`, else `None`.
///
/// Exits before touching the matrix when `|len(a) - len(b)| > max_dist`,
/// computes only the diagonal band of width `2 * max_dist + 1` (cells
/// outside the band cannot be ≤ `max_dist`), and abandons the scan as soon
/// as an entire row exceeds the bound. Equivalent to comparing
/// [`damerau_levenshtein`] against `max_dist` — property-tested in
/// `tests/prop_squat.rs`.
pub fn damerau_levenshtein_bounded(
    a: &str,
    b: &str,
    max_dist: usize,
    scratch: &mut EditScratch,
) -> Option<usize> {
    scratch.a_chars.clear();
    scratch.a_chars.extend(a.chars());
    scratch.b_chars.clear();
    scratch.b_chars.extend(b.chars());
    let (n, m) = (scratch.a_chars.len(), scratch.b_chars.len());
    if n.abs_diff(m) > max_dist {
        return None;
    }
    if n == 0 {
        return Some(m); // m ≤ max_dist by the length check above
    }
    if m == 0 {
        return Some(n);
    }
    // Everything ≥ `inf` means "already beyond the bound"; cells are clamped
    // there so sentinel arithmetic cannot overflow and the band stays tight.
    let inf = max_dist + 1;
    scratch.prev2.clear();
    scratch.prev2.resize(m + 1, inf);
    scratch.prev.clear();
    scratch.prev.extend(0..=m);
    scratch.cur.clear();
    scratch.cur.resize(m + 1, inf);
    let EditScratch {
        a_chars,
        b_chars,
        prev2,
        prev,
        cur,
    } = scratch;
    for i in 1..=n {
        let lo = i.saturating_sub(max_dist).max(1);
        let hi = (i + max_dist).min(m);
        cur[lo - 1] = if lo == 1 { i.min(inf) } else { inf };
        let mut row_min = cur[lo - 1];
        for j in lo..=hi {
            let cost = usize::from(a_chars[i - 1] != b_chars[j - 1]);
            let mut v = (prev[j] + 1).min(cur[j - 1] + 1).min(prev[j - 1] + cost);
            if i > 1
                && j > 1
                && a_chars[i - 1] == b_chars[j - 2]
                && a_chars[i - 2] == b_chars[j - 1]
            {
                v = v.min(prev2[j - 2] + 1);
            }
            let v = v.min(inf);
            cur[j] = v;
            row_min = row_min.min(v);
        }
        if row_min >= inf {
            return None; // every path through this row already exceeds the bound
        }
        std::mem::swap(prev2, prev);
        std::mem::swap(prev, cur);
    }
    let d = prev[m];
    (d <= max_dist).then_some(d)
}

/// Is the optimal-string-alignment distance between `a` and `b` at most 1?
/// Returns the distance (`Some(0)` / `Some(1)`) or `None`, exactly like
/// `damerau_levenshtein_bounded(a, b, 1, ..)` — property-tested equivalent
/// in `tests/prop_squat.rs`.
///
/// This is the question the typo-squat scan asks for every (label, brand)
/// pair, and at bound 1 the full band is overkill: a distance-≤1 pair is
/// either equal, one substitution, one adjacent transposition, or one
/// indel — all decidable from the longest common prefix and suffix.
/// ASCII-only fast path (byte positions are char positions); anything
/// else falls back to the banded matrix.
pub fn within_one_edit(a: &str, b: &str, scratch: &mut EditScratch) -> Option<usize> {
    let (x, y) = (a.as_bytes(), b.as_bytes());
    if !x.is_ascii() || !y.is_ascii() {
        return damerau_levenshtein_bounded(a, b, 1, scratch);
    }
    // Orient so x is the longer side.
    let (x, y) = if x.len() >= y.len() { (x, y) } else { (y, x) };
    let (n, m) = (x.len(), y.len());
    if n - m > 1 {
        return None;
    }
    if x == y {
        return Some(0);
    }
    let p = x.iter().zip(y).take_while(|(c, d)| c == d).count();
    let s = x
        .iter()
        .rev()
        .zip(y.iter().rev())
        .take_while(|(c, d)| c == d)
        .count();
    if n == m {
        // One substitution: a single mismatching position, i.e. the prefix
        // and suffix (which cannot overlap across the mismatch) cover all
        // but one byte.
        if p + s >= n - 1 {
            return Some(1);
        }
        // One adjacent transposition: exactly two mismatching positions,
        // adjacent and crosswise equal.
        if p + s == n - 2 && x[p] == y[p + 1] && x[p + 1] == y[p] {
            return Some(1);
        }
        return None;
    }
    // Lengths differ by one: a single indel iff prefix + suffix cover the
    // whole shorter string.
    (p + s >= m).then_some(1)
}

/// Damerau–Levenshtein distance (optimal string alignment variant):
/// insertions, deletions, substitutions, and adjacent transpositions.
pub fn damerau_levenshtein(a: &str, b: &str) -> usize {
    let mut scratch = EditScratch::default();
    // With the bound set to the longer input the band covers the whole
    // matrix and the result always exists (d ≤ max(n, m)).
    let bound = a.chars().count().max(b.chars().count());
    damerau_levenshtein_bounded(a, b, bound, &mut scratch).unwrap_or(bound)
}

/// Hamming distance in bits between two equal-length ASCII strings; `None`
/// if lengths differ.
pub fn bit_hamming(a: &str, b: &str) -> Option<u32> {
    if a.len() != b.len() {
        return None;
    }
    Some(
        a.bytes()
            .zip(b.bytes())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_strings() {
        assert_eq!(damerau_levenshtein("example", "example"), 0);
    }

    #[test]
    fn single_edits() {
        assert_eq!(damerau_levenshtein("example", "exmple"), 1); // deletion
        assert_eq!(damerau_levenshtein("example", "exxample"), 1); // insertion
        assert_eq!(damerau_levenshtein("example", "ezample"), 1); // substitution
        assert_eq!(damerau_levenshtein("example", "examlpe"), 1); // transposition
    }

    #[test]
    fn empty_cases() {
        assert_eq!(damerau_levenshtein("", "abc"), 3);
        assert_eq!(damerau_levenshtein("abc", ""), 3);
        assert_eq!(damerau_levenshtein("", ""), 0);
    }

    #[test]
    fn multi_edit() {
        assert_eq!(damerau_levenshtein("kitten", "sitting"), 3);
    }

    #[test]
    fn transposition_counts_once() {
        assert_eq!(damerau_levenshtein("ab", "ba"), 1);
        assert_eq!(damerau_levenshtein("google", "goolge"), 1);
    }

    #[test]
    fn bounded_agrees_with_exact() {
        let mut scratch = EditScratch::default();
        for (a, b) in [
            ("example", "exmple"),
            ("kitten", "sitting"),
            ("google", "goolge"),
            ("", "abc"),
            ("paypal", "paypal"),
            ("short", "muchlongerstring"),
        ] {
            let exact = damerau_levenshtein(a, b);
            for max_dist in 0..6 {
                let got = damerau_levenshtein_bounded(a, b, max_dist, &mut scratch);
                let want = (exact <= max_dist).then_some(exact);
                assert_eq!(got, want, "{a:?} vs {b:?} bound {max_dist}");
            }
        }
    }

    #[test]
    fn bounded_length_early_exit() {
        let mut scratch = EditScratch::default();
        assert_eq!(
            damerau_levenshtein_bounded("ab", "abcdef", 1, &mut scratch),
            None
        );
        // Scratch is reusable across calls of different sizes.
        assert_eq!(
            damerau_levenshtein_bounded("abc", "abd", 1, &mut scratch),
            Some(1)
        );
    }

    #[test]
    fn bounded_handles_multibyte() {
        let mut scratch = EditScratch::default();
        // One char substitution even though the byte lengths differ by 1.
        assert_eq!(
            damerau_levenshtein_bounded("caf\u{e9}", "cafe", 1, &mut scratch),
            Some(1)
        );
    }

    #[test]
    fn bit_hamming_basics() {
        assert_eq!(bit_hamming("a", "a"), Some(0));
        // 'a' = 0x61, 'c' = 0x63: one bit differs.
        assert_eq!(bit_hamming("a", "c"), Some(1));
        assert_eq!(bit_hamming("ab", "a"), None);
    }
}
