//! Deterministic name hashing shared by the sampling query and the sharded
//! engine. Unsalted, [`fnv1a`] is also the key `nxd-core` orders the §5
//! blocklist sample by and the honeypot world's referral thread seed.
//!
//! Both consumers need the same property: a pure function of the name's
//! bytes, stable across runs, platforms, and shard counts, so that sampling
//! membership (§4.2) and shard placement never depend on interning order or
//! process state.

/// FNV-1a over `bytes`, with `salt` folded into the offset basis.
pub fn fnv1a(bytes: &[u8], salt: u64) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ salt;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Whether `name` is in the deterministic 1-in-`n` sample (§4.2) under
/// `salt`: the one membership predicate of the batch query and the stream.
pub fn in_sample(name: &str, n: u64, salt: u64) -> bool {
    fnv1a(name.as_bytes(), salt).is_multiple_of(n)
}

/// Salt reserved for shard placement so it can never collide with a
/// user-chosen sampling salt.
const SHARD_SALT: u64 = 0x5AAD_0000_0000_0001;

/// The shard a qname belongs to among `shards` partitions.
///
/// This is *the* invariant the sharded engine is built on: every row for a
/// given name lands in exactly one shard, so per-name aggregates
/// (first/last NX day, lifespans, per-name query totals) are complete
/// within their shard and never need cross-shard reconciliation.
pub fn shard_of(name: &str, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard count must be positive");
    (fnv1a(name.as_bytes(), SHARD_SALT) % shards.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_stable() {
        // Known-answer: hashing must never change across refactors, or
        // sampling membership and shard placement silently shift.
        assert_eq!(fnv1a(b"", 0), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"example.com", 0), fnv1a(b"example.com", 0));
        assert_ne!(fnv1a(b"example.com", 0), fnv1a(b"example.com", 1));
    }

    #[test]
    fn shard_of_is_in_range_and_deterministic() {
        for shards in [1usize, 2, 4, 8, 16] {
            for name in ["a.com", "b.net", "very-long-name.example.org", ""] {
                let s = shard_of(name, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(name, shards));
            }
        }
    }

    #[test]
    fn single_shard_takes_everything() {
        for name in ["a.com", "b.net", "c.ru"] {
            assert_eq!(shard_of(name, 1), 0);
        }
    }

    #[test]
    fn shards_spread_names() {
        // 1000 distinct names over 8 shards: every shard gets something.
        let mut seen = [false; 8];
        for i in 0..1000 {
            seen[shard_of(&format!("name-{i}.com"), 8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "a shard received no names");
    }
}
