//! Squatting-domain generators: given a popular target, enumerate the
//! look-alike registrations an attacker would file. Used by the workload
//! generator to seed squat registrations and by tests as the ground truth
//! for the classifier.
//!
//! Every generator is a pure function of its target: the same target always
//! yields the same list in the same (sorted) order. That is what lets
//! [`CandidateTable`] build each popular target's list once and hand it
//! out for every later draw, with no effect on what a seeded world contains.

use std::collections::BTreeSet;

use crate::tables::{
    qwerty_neighbors, CHAR_GLYPHS, COMBO_KEYWORDS, DIGRAPH_GLYPHS, POPULAR_TARGETS,
};

/// One generator's candidate lists for every entry of [`POPULAR_TARGETS`],
/// each generated on first use and kept for the table's lifetime.
///
/// The workload generators draw thousands of squat names from the same 40
/// targets; regenerating a target's whole list to keep one entry dominated
/// their cost.
pub struct CandidateTable {
    gen: fn(&str) -> Vec<String>,
    lists: Vec<Option<Vec<String>>>,
}

impl CandidateTable {
    /// An empty table for `gen`.
    pub fn new(gen: fn(&str) -> Vec<String>) -> Self {
        CandidateTable {
            gen,
            lists: vec![None; POPULAR_TARGETS.len()],
        }
    }

    /// `gen(POPULAR_TARGETS[target])`, generated on the first call for
    /// `target`. Panics if `target` is not an index into [`POPULAR_TARGETS`].
    pub fn get(&mut self, target: usize) -> &[String] {
        self.lists[target].get_or_insert_with(|| (self.gen)(POPULAR_TARGETS[target]))
    }
}

/// Splits `brand.tld`; returns `None` for anything that is not a two-label
/// registrable name.
fn split(target: &str) -> Option<(&str, &str)> {
    let mut parts = target.split('.');
    let brand = parts.next()?;
    let tld = parts.next()?;
    if parts.next().is_some() || brand.is_empty() || tld.is_empty() {
        return None;
    }
    Some((brand, tld))
}

fn valid_label(label: &str) -> bool {
    !label.is_empty()
        && !label.starts_with('-')
        && !label.ends_with('-')
        && label.len() <= 63
        && label
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
}

/// Classic typosquats (Agten et al., NDSS'15 models): character omission,
/// duplication, adjacent transposition, QWERTY-adjacent substitution and
/// insertion.
pub fn typosquats(target: &str) -> Vec<String> {
    let Some((brand, tld)) = split(target) else {
        return Vec::new();
    };
    let chars: Vec<char> = brand.chars().collect();
    let mut out = BTreeSet::new();
    // Omission.
    for i in 0..chars.len() {
        let mut c = chars.clone();
        c.remove(i);
        out.insert(c.iter().collect::<String>());
    }
    // Duplication.
    for i in 0..chars.len() {
        let mut c = chars.clone();
        c.insert(i, chars[i]);
        out.insert(c.iter().collect::<String>());
    }
    // Adjacent transposition.
    for i in 0..chars.len().saturating_sub(1) {
        let mut c = chars.clone();
        c.swap(i, i + 1);
        out.insert(c.iter().collect::<String>());
    }
    // QWERTY-adjacent substitution and insertion.
    for i in 0..chars.len() {
        for &n in qwerty_neighbors(chars[i]) {
            let mut sub = chars.clone();
            sub[i] = n;
            out.insert(sub.iter().collect::<String>());
            let mut ins = chars.clone();
            ins.insert(i, n);
            out.insert(ins.iter().collect::<String>());
        }
    }
    out.remove(brand);
    out.into_iter()
        .filter(|l| valid_label(l))
        .map(|l| format!("{l}.{tld}"))
        .collect()
}

/// Combosquats (Kintis et al., CCS'17): brand combined with a trust keyword,
/// hyphenated or fused, on either side.
pub fn combosquats(target: &str) -> Vec<String> {
    let Some((brand, tld)) = split(target) else {
        return Vec::new();
    };
    let mut out = BTreeSet::new();
    for kw in COMBO_KEYWORDS {
        out.insert(format!("{brand}-{kw}.{tld}"));
        out.insert(format!("{kw}-{brand}.{tld}"));
        out.insert(format!("{brand}{kw}.{tld}"));
        out.insert(format!("{kw}{brand}.{tld}"));
    }
    out.into_iter().collect()
}

/// Dotsquats (Wang et al., SRUTI'06): the `www` prefix fused onto the brand
/// (`wwwgoogle.com`), and dot-shift registrables — when a user types
/// `goo.gle.com`, the squatter owning `gle.com` receives the traffic, so the
/// generator emits every proper suffix of the brand (length ≥ 3) as a
/// registrable.
pub fn dotsquats(target: &str) -> Vec<String> {
    let Some((brand, tld)) = split(target) else {
        return Vec::new();
    };
    let mut out = BTreeSet::new();
    out.insert(format!("www{brand}.{tld}"));
    out.insert(format!("www-{brand}.{tld}"));
    let chars: Vec<char> = brand.chars().collect();
    for i in 1..chars.len().saturating_sub(2) {
        let suffix: String = chars[i..].iter().collect();
        if valid_label(&suffix) && suffix != brand {
            out.insert(format!("{suffix}.{tld}"));
        }
    }
    out.into_iter().collect()
}

/// Bitsquats (Nikiforakis et al., WWW'13): every single-bit flip of every
/// byte of the brand that still yields a valid LDH label.
pub fn bitsquats(target: &str) -> Vec<String> {
    let Some((brand, tld)) = split(target) else {
        return Vec::new();
    };
    let bytes = brand.as_bytes();
    let mut out = BTreeSet::new();
    for i in 0..bytes.len() {
        for bit in 0..8u8 {
            let flipped = bytes[i] ^ (1 << bit);
            if !(flipped.is_ascii_lowercase() || flipped.is_ascii_digit() || flipped == b'-') {
                continue;
            }
            let mut label = bytes.to_vec();
            label[i] = flipped;
            let label = String::from_utf8(label).expect("ascii");
            if valid_label(&label) && label != brand {
                out.insert(format!("{label}.{tld}"));
            }
        }
    }
    out.into_iter().collect()
}

/// Homosquats (IDN-free homoglyphs): visually confusable substitutions that
/// stay inside the LDH alphabet (`0↔o`, `1↔l`, `rn→m`, `vv→w`, …).
pub fn homosquats(target: &str) -> Vec<String> {
    let Some((brand, tld)) = split(target) else {
        return Vec::new();
    };
    let mut out = BTreeSet::new();
    // Single-char confusions, each position, both directions.
    let chars: Vec<char> = brand.chars().collect();
    for i in 0..chars.len() {
        for &(a, b) in CHAR_GLYPHS {
            for (from, to) in [(a, b), (b, a)] {
                if chars[i] == from {
                    let mut c = chars.clone();
                    c[i] = to;
                    out.insert(c.iter().collect::<String>());
                }
            }
        }
    }
    // Digraph confusions, both directions.
    for &(from, to) in DIGRAPH_GLYPHS {
        for (f, t) in [
            (from.to_string(), to.to_string()),
            (to.to_string(), from.to_string()),
        ] {
            let mut start = 0;
            while let Some(pos) = brand[start..].find(&f) {
                let at = start + pos;
                let mut s = String::with_capacity(brand.len());
                s.push_str(&brand[..at]);
                s.push_str(&t);
                s.push_str(&brand[at + f.len()..]);
                out.insert(s);
                start = at + 1;
            }
        }
    }
    out.remove(brand);
    out.into_iter()
        .filter(|l| valid_label(l))
        .map(|l| format!("{l}.{tld}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typos_of_google() {
        let squats = typosquats("google.com");
        assert!(squats.contains(&"gogle.com".to_string())); // omission
        assert!(squats.contains(&"ggoogle.com".to_string())); // duplication
        assert!(squats.contains(&"goolge.com".to_string())); // transposition
        assert!(squats.contains(&"hoogle.com".to_string())); // adjacent sub (g->h)
        assert!(!squats.contains(&"google.com".to_string()));
        assert!(squats.len() > 50);
    }

    #[test]
    fn combos_of_paypal() {
        let squats = combosquats("paypal.com");
        assert!(squats.contains(&"paypal-login.com".to_string()));
        assert!(squats.contains(&"securepaypal.com".to_string()));
        assert_eq!(squats.len(), COMBO_KEYWORDS.len() * 4);
    }

    #[test]
    fn dots_of_example() {
        let squats = dotsquats("example.com");
        assert!(squats.contains(&"wwwexample.com".to_string()));
        assert!(squats.contains(&"xample.com".to_string())); // e.xample.com
        assert!(squats.contains(&"ample.com".to_string())); // ex.ample.com
        assert!(!squats.contains(&"example.com".to_string()));
    }

    #[test]
    fn bits_of_apple() {
        let squats = bitsquats("apple.com");
        // 'a' ^ 0x02 = 'c' -> "cpple.com"
        assert!(squats.contains(&"cpple.com".to_string()));
        for s in &squats {
            let label = s.split('.').next().unwrap();
            assert_eq!(label.len(), 5);
            assert_eq!(crate::edit::bit_hamming(label, "apple"), Some(1), "{s}");
        }
    }

    #[test]
    fn homos_of_google_and_modern() {
        let squats = homosquats("google.com");
        assert!(squats.contains(&"g0ogle.com".to_string()));
        assert!(squats.contains(&"go0gle.com".to_string()));
        let squats = homosquats("modern.com");
        assert!(squats.contains(&"rnodern.com".to_string())); // m -> rn
        let squats = homosquats("wave.com");
        assert!(squats.contains(&"vvave.com".to_string())); // w -> vv
    }

    #[test]
    fn generators_never_emit_target_or_invalid() {
        for target in ["google.com", "twitter.com", "mail.ru", "a.io"] {
            for gen in [typosquats, combosquats, dotsquats, bitsquats, homosquats] {
                for s in gen(target) {
                    assert_ne!(s, target);
                    let name: nxd_dns_wire::Name = s.parse().expect("valid name");
                    assert_eq!(name.label_count(), 2, "{s}");
                    assert!(name.is_ldh(), "{s}");
                }
            }
        }
    }

    #[test]
    fn candidate_table_generates_each_target_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        static CALLS: AtomicUsize = AtomicUsize::new(0);
        fn counting(target: &str) -> Vec<String> {
            CALLS.fetch_add(1, Ordering::Relaxed);
            typosquats(target)
        }

        let mut table = CandidateTable::new(counting);
        // A fixed LCG walk: 10,000 draws spread over all the targets.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let target = (x >> 33) as usize % POPULAR_TARGETS.len();
            assert!(!table.get(target).is_empty());
        }
        assert!(CALLS.load(Ordering::Relaxed) <= POPULAR_TARGETS.len());
        for (i, target) in POPULAR_TARGETS.iter().enumerate() {
            assert_eq!(table.get(i), typosquats(target), "{target}");
        }
        assert_eq!(CALLS.load(Ordering::Relaxed), POPULAR_TARGETS.len());
    }

    #[test]
    fn non_registrable_targets_yield_nothing() {
        assert!(typosquats("www.google.com").is_empty());
        assert!(combosquats("com").is_empty());
        assert!(bitsquats("").is_empty());
    }
}
