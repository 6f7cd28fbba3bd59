//! Property tests: every generator output classifies as *some* squat of its
//! target, the target itself never classifies, and the edit-distance metric
//! behaves like a metric on the axes the classifier relies on.

use nxd_squat::{
    damerau_levenshtein, damerau_levenshtein_bounded, generate, within_one_edit, EditScratch,
    SquatClassifier, SquatScratch,
};
use proptest::prelude::*;

fn arb_brand() -> impl Strategy<Value = String> {
    "[a-z]{4,10}"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_squats_always_classify(brand in arb_brand()) {
        let target = format!("{brand}.com");
        let classifier = SquatClassifier::new([target.as_str()]);
        for gen in [
            generate::typosquats,
            generate::combosquats,
            generate::dotsquats,
            generate::bitsquats,
            generate::homosquats,
        ] {
            for squat in gen(&target) {
                let verdict = classifier.classify(&squat);
                prop_assert!(verdict.is_some(), "{squat} (target {target}) unclassified");
                prop_assert_eq!(&verdict.unwrap().target, &target);
            }
        }
    }

    #[test]
    fn target_never_classifies_as_its_own_squat(brand in arb_brand()) {
        let target = format!("{brand}.com");
        let classifier = SquatClassifier::new([target.as_str()]);
        prop_assert_eq!(classifier.classify(&target), None);
    }

    #[test]
    fn edit_distance_identity_and_symmetry(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
        prop_assert_eq!(damerau_levenshtein(&a, &a), 0);
        prop_assert_eq!(damerau_levenshtein(&a, &b), damerau_levenshtein(&b, &a));
        // Distance bounded by the longer string's length.
        prop_assert!(damerau_levenshtein(&a, &b) <= a.len().max(b.len()));
    }

    #[test]
    fn bounded_distance_agrees_with_exact(a in "[a-z0-9-]{0,12}", b in "[a-z0-9-]{0,12}", max_dist in 0usize..6) {
        let exact = damerau_levenshtein(&a, &b);
        let mut scratch = EditScratch::default();
        let bounded = damerau_levenshtein_bounded(&a, &b, max_dist, &mut scratch);
        prop_assert_eq!(bounded, (exact <= max_dist).then_some(exact), "{} vs {}", a, b);
        // The scratch survives reuse on swapped operands.
        let swapped = damerau_levenshtein_bounded(&b, &a, max_dist, &mut scratch);
        prop_assert_eq!(swapped, bounded);
    }

    #[test]
    fn classify_with_scratch_matches_classify(label in "[a-z0-9-]{1,16}", tld_pick in 0usize..5) {
        let tld = ["com", "co", "net", "org", "tv"][tld_pick];
        let domain = format!("{label}.{tld}");
        let classifier = SquatClassifier::default();
        let mut scratch = SquatScratch::default();
        prop_assert_eq!(
            classifier.classify_with(&domain, &mut scratch),
            classifier.classify(&domain),
            "{}", domain
        );
    }

    #[test]
    fn single_random_substitution_is_distance_one(brand in "[a-z]{4,10}", pos in 0usize..10, c in proptest::char::range('a', 'z')) {
        let chars: Vec<char> = brand.chars().collect();
        let pos = pos % chars.len();
        if chars[pos] != c {
            let mut mutated = chars.clone();
            mutated[pos] = c;
            let mutated: String = mutated.into_iter().collect();
            prop_assert_eq!(damerau_levenshtein(&brand, &mutated), 1);
        }
    }

    /// The prefix/suffix decision procedure is exactly the banded
    /// matrix at bound 1, for arbitrary ASCII pairs.
    #[test]
    fn within_one_edit_matches_banded_matrix(a in "[a-z0-9-]{0,12}", b in "[a-z0-9-]{0,12}") {
        let mut scratch = EditScratch::default();
        let want = damerau_levenshtein_bounded(&a, &b, 1, &mut scratch);
        prop_assert_eq!(within_one_edit(&a, &b, &mut scratch), want, "{} vs {}", a, b);
        prop_assert_eq!(within_one_edit(&b, &a, &mut scratch), want);
    }

    /// Same equivalence on non-ASCII inputs (the fallback path), where byte
    /// positions and char positions diverge.
    #[test]
    fn within_one_edit_matches_on_multibyte(a in "[a-z\u{e0}-\u{e9}]{0,8}", b in "[a-z\u{e0}-\u{e9}]{0,8}") {
        let mut scratch = EditScratch::default();
        let want = damerau_levenshtein_bounded(&a, &b, 1, &mut scratch);
        prop_assert_eq!(within_one_edit(&a, &b, &mut scratch), want, "{} vs {}", a, b);
    }

    /// Constructive single edits: substitution, indel, and adjacent
    /// transposition on a shared stem are all reported as distance 1.
    #[test]
    fn within_one_edit_accepts_constructed_edits(stem in "[a-z]{4,10}", pos in 0usize..10, c in proptest::char::range('a', 'z')) {
        let mut scratch = EditScratch::default();
        let chars: Vec<char> = stem.chars().collect();
        let pos = pos % chars.len();
        // Substitution.
        if chars[pos] != c {
            let mut m = chars.clone();
            m[pos] = c;
            let m: String = m.iter().collect();
            prop_assert_eq!(within_one_edit(&stem, &m, &mut scratch), Some(1), "sub {}", m);
        }
        // Deletion / insertion.
        let mut del = chars.clone();
        del.remove(pos);
        let del: String = del.iter().collect();
        prop_assert_eq!(within_one_edit(&stem, &del, &mut scratch), Some(1), "del {}", del);
        let mut ins = chars.clone();
        ins.insert(pos, c);
        let ins: String = ins.iter().collect();
        prop_assert_eq!(within_one_edit(&stem, &ins, &mut scratch), Some(1), "ins {}", ins);
        // Adjacent transposition.
        if pos + 1 < chars.len() && chars[pos] != chars[pos + 1] {
            let mut tr = chars.clone();
            tr.swap(pos, pos + 1);
            let tr: String = tr.iter().collect();
            prop_assert_eq!(within_one_edit(&stem, &tr, &mut scratch), Some(1), "tr {}", tr);
        }
        // Identity.
        prop_assert_eq!(within_one_edit(&stem, &stem, &mut scratch), Some(0));
    }
}
