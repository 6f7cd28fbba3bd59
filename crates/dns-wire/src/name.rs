//! Domain names: parsing, normalization, and structural queries.
//!
//! A [`Name`] is a sequence of labels, stored lowercase (DNS is
//! case-insensitive per RFC 1035 §2.3.3; we normalize at construction so that
//! equality, hashing, and ordering are cheap byte comparisons). The root name
//! is the empty label sequence and displays as `"."`.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use crate::error::WireError;

/// Maximum length of a single label, per RFC 1035 §2.3.4.
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of an entire encoded name, per RFC 1035 §2.3.4.
pub const MAX_NAME_LEN: usize = 255;

/// A fully-qualified DNS domain name.
///
/// Internally stored as the lowercase presentation form without a trailing
/// dot, plus label boundaries. The root is represented by an empty string.
///
/// ```
/// use nxd_dns_wire::Name;
/// let n: Name = "WWW.Example.COM".parse().unwrap();
/// assert_eq!(n.to_string(), "www.example.com");
/// assert_eq!(n.label_count(), 3);
/// assert_eq!(n.tld(), Some("com"));
/// assert_eq!(n.registrable(), Some("example.com".parse().unwrap()));
/// ```
#[derive(Clone, Eq, PartialOrd, Ord)]
pub struct Name {
    /// Lowercase labels joined by '.', no trailing dot; empty for root.
    repr: String,
    /// Byte offsets in `repr` where each label starts.
    label_starts: Vec<u16>,
}

impl Name {
    /// The DNS root (zero labels).
    pub fn root() -> Self {
        Name {
            repr: String::new(),
            label_starts: Vec::new(),
        }
    }

    /// Whether this is the root name.
    pub fn is_root(&self) -> bool {
        self.label_starts.is_empty()
    }

    /// Builds a name from pre-validated lowercase labels.
    ///
    /// Returns an error if any label is empty, too long, contains `.`, or the
    /// total encoded length would exceed [`MAX_NAME_LEN`].
    pub fn from_labels<I, S>(labels: I) -> Result<Self, WireError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut repr = String::new();
        let mut starts = Vec::new();
        for label in labels {
            let label = label.as_ref();
            validate_label(label)?;
            if !repr.is_empty() {
                repr.push('.');
            }
            starts.push(repr.len() as u16);
            for ch in label.chars() {
                repr.extend(ch.to_lowercase());
            }
        }
        let name = Name {
            repr,
            label_starts: starts,
        };
        if name.encoded_len() > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(name.encoded_len()));
        }
        Ok(name)
    }

    /// Number of labels (the root has zero).
    pub fn label_count(&self) -> usize {
        self.label_starts.len()
    }

    /// Iterates over labels from the leftmost (host) to rightmost (TLD).
    pub fn labels(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.label_starts.len()).map(move |i| self.label(i))
    }

    /// Returns the i-th label from the left.
    ///
    /// # Panics
    /// Panics if `i >= label_count()`.
    #[expect(
        clippy::indexing_slicing,
        clippy::string_slice,
        reason = "documented panic contract: i < label_count(); not a wire-decode path; start/end are label_starts offsets into repr, a construction-time invariant"
    )]
    pub fn label(&self, i: usize) -> &str {
        let start = self.label_starts[i] as usize;
        let end = self
            .label_starts
            .get(i + 1)
            .map(|&s| s as usize - 1)
            .unwrap_or(self.repr.len());
        &self.repr[start..end]
    }

    /// The top-level domain label, if any (`com` for `www.example.com`).
    pub fn tld(&self) -> Option<&str> {
        if self.is_root() {
            None
        } else {
            Some(self.label(self.label_count() - 1))
        }
    }

    /// The registrable ("effective second-level") domain: the final two
    /// labels. Returns `None` for the root and bare TLDs.
    ///
    /// The simulation's registry operates purely on two-label registrable
    /// names, so no public-suffix list is required.
    pub fn registrable(&self) -> Option<Name> {
        if self.label_count() < 2 {
            return None;
        }
        Some(self.suffix(2))
    }

    /// The suffix consisting of the last `n` labels.
    ///
    /// # Panics
    /// Panics if `n > label_count()`.
    #[expect(
        clippy::indexing_slicing,
        clippy::string_slice,
        reason = "guarded by the assert above: first < label_count(); documented panic contract; start is a label boundary inside repr by construction; first < label_starts.len() is guarded by the assert above"
    )]
    pub fn suffix(&self, n: usize) -> Name {
        assert!(n <= self.label_count(), "suffix longer than name");
        if n == 0 {
            return Name::root();
        }
        let first = self.label_count() - n;
        let start = self.label_starts[first] as usize;
        let repr = self.repr[start..].to_string();
        let label_starts = self.label_starts[first..]
            .iter()
            .map(|&s| s - start as u16)
            .collect();
        Name { repr, label_starts }
    }

    /// The name with the leftmost label removed; `None` at the root.
    pub fn parent(&self) -> Option<Name> {
        if self.is_root() {
            None
        } else {
            Some(self.suffix(self.label_count() - 1))
        }
    }

    /// Whether `self` equals `other` or is underneath it in the tree.
    /// Every name is a subdomain of the root.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        if other.is_root() {
            return true;
        }
        if other.label_count() > self.label_count() {
            return false;
        }
        self.suffix(other.label_count()) == *other
    }

    /// Prepends `label` to this name (`child("www")` on `example.com` gives
    /// `www.example.com`).
    pub fn child(&self, label: &str) -> Result<Name, WireError> {
        let mut labels: Vec<&str> = vec![label];
        labels.extend(self.labels());
        Name::from_labels(labels)
    }

    /// Length of the RFC 1035 wire encoding (length-prefixed labels plus the
    /// terminating zero octet), without compression.
    fn encoded_len(&self) -> usize {
        if self.is_root() {
            1
        } else {
            // one length octet per label + label bytes + root octet
            self.label_count() + self.repr.len() - (self.label_count() - 1) + 1
        }
    }

    /// The lowercase presentation form without a trailing dot (empty string
    /// for the root). Useful as a map key.
    pub fn as_str(&self) -> &str {
        &self.repr
    }

    /// True if every label matches classic hostname rules (LDH: letters,
    /// digits, hyphens; no leading/trailing hyphen).
    pub fn is_ldh(&self) -> bool {
        self.labels().all(|l| {
            !l.starts_with('-')
                && !l.ends_with('-')
                && l.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-')
        })
    }
}

fn validate_label(label: &str) -> Result<(), WireError> {
    if label.is_empty() {
        return Err(WireError::EmptyLabel);
    }
    if label.len() > MAX_LABEL_LEN {
        return Err(WireError::LabelTooLong(label.len()));
    }
    if label.contains('.') {
        return Err(WireError::InvalidLabelChar('.'));
    }
    for ch in label.chars() {
        if !ch.is_ascii_graphic() {
            return Err(WireError::InvalidLabelChar(ch));
        }
    }
    Ok(())
}

impl FromStr for Name {
    type Err = WireError;

    /// Parses presentation form. A single `"."` (or empty string) is the
    /// root; a trailing dot is accepted and ignored.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Name::root());
        }
        Name::from_labels(s.split('.'))
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            f.write_str(".")
        } else {
            f.write_str(&self.repr)
        }
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.repr == other.repr
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.repr.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn parses_and_normalizes_case() {
        let name = n("WwW.ExAmPlE.CoM");
        assert_eq!(name.to_string(), "www.example.com");
        assert_eq!(name, n("www.example.com"));
    }

    #[test]
    fn root_forms() {
        assert!(n(".").is_root());
        assert!(n("").is_root());
        assert_eq!(n(".").to_string(), ".");
        assert_eq!(Name::root().label_count(), 0);
        assert_eq!(Name::root().encoded_len(), 1);
    }

    #[test]
    fn trailing_dot_ignored() {
        assert_eq!(n("example.com."), n("example.com"));
    }

    #[test]
    fn labels_iterate_left_to_right() {
        let name = n("a.b.c");
        let labels: Vec<_> = name.labels().collect();
        assert_eq!(labels, vec!["a", "b", "c"]);
        assert_eq!(name.label(0), "a");
        assert_eq!(name.label(2), "c");
    }

    #[test]
    fn tld_and_registrable() {
        assert_eq!(n("www.example.com").tld(), Some("com"));
        assert_eq!(n("www.example.com").registrable(), Some(n("example.com")));
        assert_eq!(n("com").registrable(), None);
        assert_eq!(Name::root().tld(), None);
    }

    #[test]
    fn suffix_and_parent() {
        let name = n("a.b.c.d");
        assert_eq!(name.suffix(2), n("c.d"));
        assert_eq!(name.suffix(0), Name::root());
        assert_eq!(name.parent(), Some(n("b.c.d")));
        assert_eq!(n("d").parent(), Some(Name::root()));
        assert_eq!(Name::root().parent(), None);
    }

    #[test]
    fn subdomain_relation() {
        assert!(n("www.example.com").is_subdomain_of(&n("example.com")));
        assert!(n("example.com").is_subdomain_of(&n("example.com")));
        assert!(n("example.com").is_subdomain_of(&n("com")));
        assert!(!n("example.com").is_subdomain_of(&n("example.org")));
        assert!(!n("badexample.com").is_subdomain_of(&n("example.com")));
        assert!(n("anything.at.all").is_subdomain_of(&Name::root()));
    }

    #[test]
    fn child_prepends() {
        assert_eq!(n("example.com").child("www").unwrap(), n("www.example.com"));
        assert_eq!(Name::root().child("com").unwrap(), n("com"));
    }

    #[test]
    fn rejects_bad_labels() {
        assert!("a..b".parse::<Name>().is_err());
        assert!(Name::from_labels(["ok", ""]).is_err());
        let long = "x".repeat(64);
        assert!(Name::from_labels([long.as_str()]).is_err());
        let ok63 = "x".repeat(63);
        assert!(Name::from_labels([ok63.as_str()]).is_ok());
    }

    #[test]
    fn rejects_overlong_name() {
        // 4 labels of 63 bytes = 4*64 + 1 = 257 encoded bytes > 255.
        let l = "y".repeat(63);
        let labels = vec![l.clone(), l.clone(), l.clone(), l.clone()];
        assert!(Name::from_labels(&labels).is_err());
        // 3 labels of 63 plus one of 61: 3*64 + 62 + 1 = 255 — exactly legal.
        let small = "y".repeat(61);
        let labels = vec![l.clone(), l.clone(), l, small];
        let name = Name::from_labels(&labels).unwrap();
        assert_eq!(name.encoded_len(), 255);
    }

    #[test]
    fn encoded_len_matches_definition() {
        assert_eq!(n("example.com").encoded_len(), 1 + 7 + 1 + 3 + 1);
        assert_eq!(n("a").encoded_len(), 3);
    }

    #[test]
    fn ldh_check() {
        assert!(n("ex-ample1.com").is_ldh());
        assert!(!n("ex_ample.com").is_ldh());
        assert!(!n("-bad.com").is_ldh());
        assert!(!n("bad-.com").is_ldh());
    }

    #[test]
    fn ordering_is_bytewise_on_normalized_form() {
        let mut v = vec![n("b.com"), n("a.com"), n("A.ORG")];
        v.sort();
        assert_eq!(v, vec![n("a.com"), n("a.org"), n("b.com")]);
    }
}
