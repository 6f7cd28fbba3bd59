//! Domain-name interning for the columnar store.
//!
//! The passive database holds hundreds of thousands of distinct names, each
//! referenced by many rows. Interning collapses every occurrence to a `u32`
//! id and keeps one canonical string, cutting row width and making group-bys
//! integer comparisons. The ablation bench `interning` quantifies the win.
//! The strings sit back to back in one buffer, and the lookup table holds
//! only ids and hash tags, so a name costs its bytes plus a few words.

use std::hash::{BuildHasher, RandomState};

use nxd_dns_wire::Name;

/// Identifier of an interned name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(pub u32);

/// The high half of a slot: the top 32 bits of its string's hash.
const TAG: u64 = 0xFFFF_FFFF_0000_0000;

/// Strings numbered densely in insertion order, each stored once in one
/// shared buffer, with lookup by one probe sequence in an open-addressing
/// table. The interner's name and TLD tables, and the stream engine's
/// exact NX-name set (its `stream` module keeps hash collections out of
/// its own code, so the set lives here).
#[derive(Debug)]
pub(crate) struct NameTable {
    /// Every string's bytes, back to back.
    text: String,
    /// String `i` is `text[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<usize>,
    /// Linear-probing slots, a power of two long and at most half full.
    /// A slot holds the top 32 bits of its string's hash above `id + 1`;
    /// 0 marks an empty slot. Probing starts at the tag's low bits, so
    /// growing never rehashes a string.
    slots: Vec<u64>,
    /// Per-table random keys, so crafted names cannot force collisions.
    hasher: RandomState,
}

impl Default for NameTable {
    fn default() -> Self {
        NameTable {
            text: String::new(),
            bounds: vec![0],
            slots: Vec::new(),
            hasher: RandomState::new(),
        }
    }
}

impl NameTable {
    /// Number of strings.
    pub(crate) fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// String `id`.
    ///
    /// # Panics
    /// Panics on an id not issued by this table.
    pub(crate) fn get(&self, id: u32) -> &str {
        let i = id as usize;
        &self.text[self.bounds[i]..self.bounds[i + 1]]
    }

    /// The id of `s`, if present.
    pub(crate) fn find(&self, s: &str) -> Option<u32> {
        self.probe(s, self.hasher.hash_one(s)).ok()
    }

    /// The id of `s`, adding it first if absent; `true` when it was added.
    pub(crate) fn insert(&mut self, s: &str) -> (u32, bool) {
        let hash = self.hasher.hash_one(s);
        let mut at = match self.probe(s, hash) {
            Ok(id) => return (id, false),
            Err(at) => at,
        };
        if (self.len() + 1) * 2 > self.slots.len() {
            self.grow();
            at = self
                .probe(s, hash)
                .expect_err("a string absent before growing is absent after");
        }
        let id = u32::try_from(self.len())
            .ok()
            .filter(|&id| id < u32::MAX)
            .expect("at most u32::MAX - 1 strings per table");
        self.text.push_str(s);
        self.bounds.push(self.text.len());
        self.slots[at] = (hash & TAG) | u64::from(id + 1);
        (id, true)
    }

    /// `Ok(id)` of `s`, or `Err(slot)`: the empty slot it would take (any
    /// index while the table has no slots yet).
    fn probe(&self, s: &str, hash: u64) -> Result<u32, usize> {
        let mask = self.slots.len().wrapping_sub(1);
        let mut at = (hash >> 32) as usize & mask;
        loop {
            let slot = *self.slots.get(at).ok_or(at)?;
            if slot == 0 {
                return Err(at);
            }
            // The low half is `id + 1`, never 0 in an occupied slot.
            let id = (slot & !TAG) as u32 - 1;
            if slot & TAG == hash & TAG && self.get(id) == s {
                return Ok(id);
            }
            at = (at + 1) & mask;
        }
    }

    /// Doubles the slot table (16 slots at first) and re-places every
    /// slot by its tag.
    fn grow(&mut self) {
        let size = (self.slots.len() * 2).max(16);
        let mask = size - 1;
        let mut slots = vec![0u64; size];
        for &slot in self.slots.iter().filter(|&&slot| slot != 0) {
            let mut at = (slot >> 32) as usize & mask;
            while slots[at] != 0 {
                at = (at + 1) & mask;
            }
            slots[at] = slot;
        }
        self.slots = slots;
    }

    /// Heap bytes in use: string bytes, bounds and slots.
    fn heap_bytes(&self) -> usize {
        self.text.len()
            + self.bounds.len() * std::mem::size_of::<usize>()
            + self.slots.len() * std::mem::size_of::<u64>()
    }
}

/// An append-only name interner.
///
/// Also memoizes each name's TLD as an interned id of its own, so TLD
/// group-bys never re-parse strings.
#[derive(Debug, Default)]
pub struct Interner {
    names: NameTable,
    /// Parallel to `names`: the id of each name's TLD in `tlds`.
    tld_of: Vec<u32>,
    tlds: NameTable,
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
        let (id, added) = self.names.insert(name);
        if added {
            let (tld, _) = self.tlds.insert(crate::summary::tld_of(name));
            self.tld_of.push(tld);
        }
        NameId(id)
    }

    /// Returns the id of an already-interned name, if present.
    pub fn get(&self, name: &str) -> Option<NameId> {
        self.names.find(name).map(NameId)
    }

    /// The string for an id.
    ///
    /// # Panics
    /// Panics on an id not produced by this interner.
    pub fn resolve(&self, id: NameId) -> &str {
        self.names.get(id.0)
    }

    /// The TLD id of an interned name.
    pub fn tld_id(&self, id: NameId) -> u32 {
        self.tld_of[id.0 as usize]
    }

    /// The TLD string for a TLD id.
    pub fn resolve_tld(&self, tld_id: u32) -> &str {
        self.tlds.get(tld_id)
    }

    /// Number of distinct names interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct TLDs seen.
    pub fn tld_count(&self) -> usize {
        self.tlds.len()
    }

    /// Iterates `(id, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (NameId, &str)> {
        (0..self.names.len()).map(|i| {
            let id = i as u32;
            (NameId(id), self.names.get(id))
        })
    }

    /// Approximate heap footprint in bytes (for the interning ablation).
    pub fn heap_bytes(&self) -> usize {
        self.names.heap_bytes() + self.tld_of.len() * 4
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
    fn name_table_numbers_strings_once_across_growth() {
        let mut table = NameTable::default();
        assert_eq!(table.find("x"), None);
        assert_eq!(table.insert(""), (0, true));
        for i in 1..5_000u32 {
            assert_eq!(table.insert(&format!("n{i}.com")), (i, true));
        }
        assert_eq!(table.insert(""), (0, false));
        assert_eq!(table.len(), 5_000);
        for i in 1..5_000u32 {
            let name = format!("n{i}.com");
            assert_eq!(table.insert(&name), (i, false));
            assert_eq!(table.find(&name), Some(i));
            assert_eq!(table.get(i), name);
        }
        assert_eq!(table.get(0), "");
        assert_eq!(table.find("n5000.com"), None);
        assert!(table.slots.len() >= 2 * table.len());
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
