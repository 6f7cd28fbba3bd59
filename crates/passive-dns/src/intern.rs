//! Domain-name interning for the columnar store.
//!
//! The passive database holds hundreds of thousands of distinct names, each
//! referenced by many rows. Interning collapses every occurrence to a `u32`
//! id and keeps one canonical string, cutting row width and making group-bys
//! integer comparisons. The ablation bench `interning` quantifies the win.

use std::collections::HashMap;

use nxd_dns_wire::Name;

/// Identifier of an interned name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(pub u32);

/// An append-only name interner.
///
/// Also memoizes each name's TLD as an interned id of its own, so TLD
/// group-bys never re-parse strings.
#[derive(Debug, Default)]
pub struct Interner {
    lookup: HashMap<Box<str>, NameId>,
    names: Vec<Box<str>>,
    /// Parallel to `names`: index into `tlds`.
    tld_of: Vec<u32>,
    tlds: Vec<Box<str>>,
    tld_lookup: HashMap<Box<str>, u32>,
}

impl Interner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a [`Name`] (normalized already).
    pub fn intern(&mut self, name: &Name) -> NameId {
        self.intern_str(name.as_str())
    }

    /// Interns a pre-normalized (lowercase, no trailing dot) name string.
    pub fn intern_str(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.lookup.get(name) {
            return id;
        }
        let id = NameId(self.names.len() as u32);
        let boxed: Box<str> = name.into();
        self.lookup.insert(boxed.clone(), id);
        self.names.push(boxed);
        let tld = crate::summary::tld_of(name);
        let tld_id = match self.tld_lookup.get(tld) {
            Some(&t) => t,
            None => {
                let t = self.tlds.len() as u32;
                let b: Box<str> = tld.into();
                self.tld_lookup.insert(b.clone(), t);
                self.tlds.push(b);
                t
            }
        };
        self.tld_of.push(tld_id);
        id
    }

    /// Returns the id of an already-interned name, if present.
    pub fn get(&self, name: &str) -> Option<NameId> {
        self.lookup.get(name).copied()
    }

    /// The string for an id.
    ///
    /// # Panics
    /// Panics on an id not produced by this interner.
    pub fn resolve(&self, id: NameId) -> &str {
        &self.names[id.0 as usize]
    }

    /// The TLD id of an interned name.
    pub fn tld_id(&self, id: NameId) -> u32 {
        self.tld_of[id.0 as usize]
    }

    /// The TLD string for a TLD id.
    pub fn resolve_tld(&self, tld_id: u32) -> &str {
        &self.tlds[tld_id as usize]
    }

    /// Number of distinct names interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Number of distinct TLDs seen.
    pub fn tld_count(&self) -> usize {
        self.tlds.len()
    }

    /// Iterates `(id, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (NameId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, s)| (NameId(i as u32), s.as_ref()))
    }

    /// Approximate heap footprint in bytes (for the interning ablation).
    pub fn heap_bytes(&self) -> usize {
        self.names
            .iter()
            .map(|s| s.len() + std::mem::size_of::<Box<str>>())
            .sum::<usize>()
            + self.tld_of.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern_str("example.com");
        let b = i.intern_str("example.com");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_names_distinct_ids() {
        let mut i = Interner::new();
        let a = i.intern_str("a.com");
        let b = i.intern_str("b.com");
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "a.com");
        assert_eq!(i.resolve(b), "b.com");
    }

    #[test]
    fn tlds_are_shared() {
        let mut i = Interner::new();
        let a = i.intern_str("a.com");
        let b = i.intern_str("b.com");
        let c = i.intern_str("c.ru");
        assert_eq!(i.tld_id(a), i.tld_id(b));
        assert_ne!(i.tld_id(a), i.tld_id(c));
        assert_eq!(i.resolve_tld(i.tld_id(c)), "ru");
        assert_eq!(i.tld_count(), 2);
    }

    #[test]
    fn get_without_interning() {
        let mut i = Interner::new();
        assert_eq!(i.get("x.com"), None);
        let id = i.intern_str("x.com");
        assert_eq!(i.get("x.com"), Some(id));
    }

    #[test]
    fn intern_name_type() {
        let mut i = Interner::new();
        let n: Name = "MiXeD.CoM".parse().unwrap();
        let id = i.intern(&n);
        assert_eq!(i.resolve(id), "mixed.com");
    }

    #[test]
    fn iter_in_order() {
        let mut i = Interner::new();
        i.intern_str("one.com");
        i.intern_str("two.com");
        let all: Vec<_> = i.iter().map(|(_, s)| s.to_string()).collect();
        assert_eq!(all, vec!["one.com", "two.com"]);
    }
}
