//! A split-probe Bloom filter fronting the blocklist map.
//!
//! The Fig. 8 cross-reference probes the blocklist once per sampled
//! NXDomain, and almost every probe misses (the paper finds ~2.4% of its
//! 20 M-domain sample listed). A Bloom filter answers the overwhelming
//! miss case from a few cache lines without touching the map: zero false
//! negatives by construction (property-tested in `tests/prop_bloom.rs`),
//! and a false-positive rate kept low by resizing at a fixed
//! bits-per-key budget as the list grows.

/// Target filter density: 12 bits/key with 4 probes ≈ 0.3% false
/// positives — small enough that the map is effectively touched only on
/// real hits.
const BITS_PER_KEY: usize = 12;

/// Probes per key (double hashing: `h1 + i*h2`).
const PROBES: u64 = 4;

/// FNV-1a, the same mixing the passive store's sampler uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A fixed-size Bloom filter over string keys. Grown by rebuilding from
/// the backing map (the filter itself cannot enumerate its keys).
#[derive(Debug, Clone)]
pub struct BloomFilter {
    /// Bit array, length a power of two (in bits).
    words: Vec<u64>,
    /// `bit_len - 1`; valid because `bit_len` is a power of two.
    mask: u64,
}

impl Default for BloomFilter {
    fn default() -> Self {
        Self::with_capacity(64)
    }
}

impl BloomFilter {
    /// A filter sized for `keys` entries at `BITS_PER_KEY` density.
    pub fn with_capacity(keys: usize) -> Self {
        let bits = (keys.max(1) * BITS_PER_KEY).next_power_of_two().max(1024);
        BloomFilter {
            words: vec![0u64; bits / 64],
            mask: (bits - 1) as u64,
        }
    }

    /// Total bits in the filter.
    fn bit_len(&self) -> usize {
        self.words.len() * 64
    }

    /// Whether the filter is over-budget for `keys` entries and should be
    /// rebuilt larger.
    pub fn wants_rebuild(&self, keys: usize) -> bool {
        keys * BITS_PER_KEY > self.bit_len()
    }

    /// Marks `key` present.
    pub fn insert(&mut self, key: &str) {
        for (word, bit) in probes(self.mask, key) {
            if let Some(w) = self.words.get_mut(word) {
                *w |= bit;
            }
        }
    }

    /// `false` means definitely absent; `true` means probably present.
    /// Never returns `false` for an inserted key.
    pub fn may_contain(&self, key: &str) -> bool {
        probes(self.mask, key).all(|(word, bit)| self.words.get(word).is_some_and(|w| w & bit != 0))
    }
}

/// The `(word index, bit mask)` probe sequence for `key` in a filter of
/// `mask + 1` bits (double hashing with an odd step, so probes cycle the
/// whole power-of-two bit space).
fn probes(mask: u64, key: &str) -> impl Iterator<Item = (usize, u64)> {
    let h1 = fnv1a(key.as_bytes());
    let h2 = (h1 >> 33) | 1;
    (0..PROBES).map(move |i| {
        let bit = h1.wrapping_add(i.wrapping_mul(h2)) & mask;
        ((bit / 64) as usize, 1u64 << (bit % 64))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserted_keys_are_always_found() {
        let mut f = BloomFilter::with_capacity(100);
        for i in 0..100 {
            f.insert(&format!("domain-{i}.com"));
        }
        for i in 0..100 {
            assert!(f.may_contain(&format!("domain-{i}.com")));
        }
    }

    #[test]
    fn misses_are_mostly_filtered() {
        let mut f = BloomFilter::with_capacity(1000);
        for i in 0..1000 {
            f.insert(&format!("listed-{i}.com"));
        }
        let false_positives = (0..10_000)
            .filter(|i| f.may_contain(&format!("clean-{i}.org")))
            .count();
        // 12 bits/key, 4 probes: expect ~0.3%; allow 10x slack.
        assert!(false_positives < 300, "{false_positives} false positives");
    }

    #[test]
    fn rebuild_threshold_tracks_bits_per_key() {
        let f = BloomFilter::with_capacity(64);
        assert!(!f.wants_rebuild(64));
        assert!(f.wants_rebuild(f.bit_len() / BITS_PER_KEY + 1));
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = BloomFilter::default();
        assert!(!f.may_contain("anything.com"));
    }
}
