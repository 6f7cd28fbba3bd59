//! # nxd-swar
//!
//! SWAR (SIMD-within-a-register) byte-classification kernels for the DNS
//! label hot loops: the DGA feature extractor, the squat edit-distance
//! band, blocklist lookups, and the passive-DNS ingest path all spend
//! their time asking tiny questions about short ASCII strings ("is this
//! all lowercase?", "how many digits?", "where do these two labels
//! diverge?"). Answering them one byte at a time costs a branch per byte;
//! these kernels answer eight bytes per iteration with plain `u64`
//! arithmetic — std-only, no nightly `std::simd`, no `unsafe`.
//!
//! Every kernel has a scalar twin in [`scalar`] with the obvious
//! byte-at-a-time implementation; property tests in `tests/props.rs` pin
//! kernel ≡ scalar on arbitrary inputs, including non-ASCII bytes.
//!
//! ## The tricks
//!
//! All kernels work on 8-byte little-endian lanes (`u64::from_le_bytes`)
//! and keep one boolean per byte in that byte's **high bit** (mask
//! `0x80…80`, `HI` below):
//!
//! * *range check* `x' ≥ L` for 7-bit `x'`: `x' + (0x80 - L)` overflows
//!   into bit 7 exactly when `x' ≥ L`, and the per-byte sum never carries
//!   into the neighbouring lane because both operands fit in 7 bits + 1.
//! * *equality* `x == c`: XOR makes matching bytes zero, then
//!   `!((y | HI) - 0x01…01) & !y & HI` has bit 7 set exactly on zero
//!   bytes (the `| HI` keeps the per-byte subtraction borrow-free, the
//!   `& !y` rejects `y == 0x80`).
//! * *divergence*: XOR two lanes; `trailing_zeros / 8` (or
//!   `leading_zeros / 8` from the string tail) is the number of equal
//!   bytes before the first mismatch.
//!
//! Non-ASCII bytes (high bit already set) are masked out of every
//! classification so the kernels agree with the scalar `u8::is_ascii_*`
//! helpers on arbitrary byte strings, not just clean hostnames.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_types,
        clippy::float_arithmetic,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

/// One `0x01` per byte lane.
const LO: u64 = 0x0101_0101_0101_0101;
/// One `0x80` per byte lane — the per-byte boolean bit.
const HI: u64 = 0x8080_8080_8080_8080;

/// Load an 8-byte chunk as a little-endian lane.
#[inline]
fn lane(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8-byte chunks"))
}

/// Per-byte mask (in bit 7) of bytes `>= bound` — valid only for lanes
/// whose high bits have been cleared (`low7 = lane & !HI`).
#[inline]
fn ge_mask(low7: u64, bound: u8) -> u64 {
    low7.wrapping_add(u64::from(0x80 - bound) * LO) & HI
}

/// True if every byte is ASCII (`< 0x80`).
#[inline]
pub fn is_ascii(bytes: &[u8]) -> bool {
    let mut chunks = bytes.chunks_exact(8);
    let mut acc = 0u64;
    for c in chunks.by_ref() {
        acc |= lane(c);
    }
    acc & HI == 0 && chunks.remainder().iter().all(|b| b.is_ascii())
}

/// True if every byte is an ASCII lowercase letter (`a-z`).
///
/// Empty input is `true`, matching `iter().all(..)`.
#[inline]
pub fn all_ascii_lowercase(bytes: &[u8]) -> bool {
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        let x = lane(c);
        if x & HI != 0 {
            return false; // non-ASCII byte in this lane
        }
        // All bytes >= 'a' and none > 'z'.
        if ge_mask(x, b'a') != HI || ge_mask(x, b'z' + 1) != 0 {
            return false;
        }
    }
    chunks.remainder().iter().all(|b| b.is_ascii_lowercase())
}

/// True if any byte is an ASCII uppercase letter (`A-Z`).
#[inline]
pub fn has_ascii_uppercase(bytes: &[u8]) -> bool {
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        if upper_mask(lane(c)) != 0 {
            return true;
        }
    }
    chunks.remainder().iter().any(|b| b.is_ascii_uppercase())
}

/// Per-byte mask (bit 7) of ASCII uppercase bytes in a lane.
#[inline]
fn upper_mask(x: u64) -> u64 {
    let low7 = x & !HI;
    // >= 'A', not > 'Z', and not a non-ASCII byte.
    ge_mask(low7, b'A') & !ge_mask(low7, b'Z' + 1) & !x & HI
}

/// ASCII-lowercase `src` into `buf` without allocating; returns the
/// lowercased prefix of `buf` as `&str`, or `None` if `buf` is too small.
///
/// Byte-for-byte equivalent to `str::to_ascii_lowercase`: only `A-Z`
/// change, so UTF-8 validity is preserved.
#[inline]
pub fn lowercase_into<'a>(src: &str, buf: &'a mut [u8]) -> Option<&'a str> {
    let bytes = src.as_bytes();
    if buf.len() < bytes.len() {
        return None;
    }
    let mut chunks = bytes.chunks_exact(8);
    let mut written = 0usize;
    for c in chunks.by_ref() {
        let x = lane(c);
        // 0x80 marker >> 2 = 0x20, the case bit.
        let lowered = x | (upper_mask(x) >> 2);
        buf[written..written + 8].copy_from_slice(&lowered.to_le_bytes());
        written += 8;
    }
    for &b in chunks.remainder() {
        buf[written] = b.to_ascii_lowercase();
        written += 1;
    }
    // A-Z → a-z only touches single-byte code points, so this never fails.
    std::str::from_utf8(&buf[..written]).ok()
}

/// Count of ASCII digit bytes (`0-9`).
#[inline]
pub fn count_digits(bytes: &[u8]) -> usize {
    let mut chunks = bytes.chunks_exact(8);
    let mut n = 0usize;
    for c in chunks.by_ref() {
        let x = lane(c);
        let low7 = x & !HI;
        let digit = ge_mask(low7, b'0') & !ge_mask(low7, b'9' + 1) & !x & HI;
        n += digit.count_ones() as usize;
    }
    n + chunks
        .remainder()
        .iter()
        .filter(|b| b.is_ascii_digit())
        .count()
}

/// Per-byte mask (bit 7) of bytes equal to `c` (`c` must be ASCII).
#[inline]
fn eq_mask(x: u64, c: u8) -> u64 {
    let y = x ^ (u64::from(c) * LO);
    !((y | HI).wrapping_sub(LO)) & !y & HI
}

/// Count of ASCII vowel bytes (`a e i o u`, lowercase).
#[inline]
pub fn count_vowels(bytes: &[u8]) -> usize {
    let mut chunks = bytes.chunks_exact(8);
    let mut n = 0usize;
    for c in chunks.by_ref() {
        let x = lane(c);
        let m = eq_mask(x, b'a')
            | eq_mask(x, b'e')
            | eq_mask(x, b'i')
            | eq_mask(x, b'o')
            | eq_mask(x, b'u');
        n += m.count_ones() as usize;
    }
    n + chunks
        .remainder()
        .iter()
        .filter(|b| matches!(**b, b'a' | b'e' | b'i' | b'o' | b'u'))
        .count()
}

/// Length of the longest common prefix of `a` and `b`, in bytes.
#[inline]
pub fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0usize;
    while i + 8 <= n {
        let x = lane(&a[i..i + 8]) ^ lane(&b[i..i + 8]);
        if x != 0 {
            return i + x.trailing_zeros() as usize / 8;
        }
        i += 8;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Length of the longest common suffix of `a` and `b`, in bytes.
#[inline]
pub fn common_suffix_len(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0usize; // matched suffix bytes so far
    while i + 8 <= n {
        let ax = lane(&a[a.len() - i - 8..a.len() - i]);
        let bx = lane(&b[b.len() - i - 8..b.len() - i]);
        let x = ax ^ bx;
        if x != 0 {
            // The chunk's last byte is the lane's most significant byte,
            // so matching suffix bytes show up as leading zero bytes.
            return i + x.leading_zeros() as usize / 8;
        }
        i += 8;
    }
    while i < n && a[a.len() - i - 1] == b[b.len() - i - 1] {
        i += 1;
    }
    i
}

/// Byte-at-a-time reference implementations, used by the equivalence
/// property tests and kept `pub` so callers can spot-check in debug builds.
pub mod scalar {
    /// Reference for [`super::is_ascii`].
    pub fn is_ascii(bytes: &[u8]) -> bool {
        bytes.iter().all(|b| b.is_ascii())
    }

    /// Reference for [`super::all_ascii_lowercase`].
    pub fn all_ascii_lowercase(bytes: &[u8]) -> bool {
        bytes.iter().all(|b| b.is_ascii_lowercase())
    }

    /// Reference for [`super::has_ascii_uppercase`].
    pub fn has_ascii_uppercase(bytes: &[u8]) -> bool {
        bytes.iter().any(|b| b.is_ascii_uppercase())
    }

    /// Reference for [`super::lowercase_into`].
    pub fn lowercase(src: &str) -> String {
        src.to_ascii_lowercase()
    }

    /// Reference for [`super::count_digits`].
    pub fn count_digits(bytes: &[u8]) -> usize {
        bytes.iter().filter(|b| b.is_ascii_digit()).count()
    }

    /// Reference for [`super::count_vowels`].
    pub fn count_vowels(bytes: &[u8]) -> usize {
        bytes
            .iter()
            .filter(|b| matches!(**b, b'a' | b'e' | b'i' | b'o' | b'u'))
            .count()
    }

    /// Reference for [`super::common_prefix_len`].
    pub fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
        a.iter().zip(b).take_while(|(x, y)| x == y).count()
    }

    /// Reference for [`super::common_suffix_len`].
    pub fn common_suffix_len(a: &[u8], b: &[u8]) -> usize {
        a.iter()
            .rev()
            .zip(b.iter().rev())
            .take_while(|(x, y)| x == y)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_boundaries() {
        assert!(is_ascii(b"abcdefgh0123"));
        assert!(is_ascii(b""));
        assert!(!is_ascii("héllo-world".as_bytes()));
        assert!(!is_ascii(&[0x7F, 0x80]));
    }

    #[test]
    fn lowercase_detection_boundaries() {
        assert!(all_ascii_lowercase(b"abcdefghijklmnop"));
        assert!(all_ascii_lowercase(b""));
        // One past each end of a-z, in every lane position.
        for (i, bad) in [(0, b'`'), (7, b'{'), (8, b'A'), (3, b'0')] {
            let mut s = *b"abcdefghijklmnop";
            s[i] = bad;
            assert!(!all_ascii_lowercase(&s), "byte {bad:#x} at {i}");
        }
        assert!(!all_ascii_lowercase("abcdéfgh".as_bytes()));
    }

    #[test]
    fn uppercase_detection() {
        assert!(!has_ascii_uppercase(b"example.com-0123"));
        assert!(has_ascii_uppercase(b"exampleZ.com0123"));
        assert!(has_ascii_uppercase(b"Zz"));
        // 0xC1 = 'A' | 0x80 must not register as uppercase.
        assert!(!has_ascii_uppercase(&[0xC1; 16]));
    }

    #[test]
    fn lowercase_into_roundtrip() {
        let mut buf = [0u8; 64];
        assert_eq!(
            lowercase_into("ExAmPlE.COM-0123", &mut buf),
            Some("example.com-0123")
        );
        assert_eq!(lowercase_into("", &mut buf), Some(""));
        let mut tiny = [0u8; 4];
        assert_eq!(lowercase_into("toolong", &mut tiny), None);
    }

    #[test]
    fn counting_kernels() {
        assert_eq!(count_digits(b"a1b2c3d4e5f6g7h8i9"), 9);
        assert_eq!(count_digits(&[b'0' - 1, b'9' + 1, 0x80 | b'5']), 0);
        assert_eq!(count_vowels(b"the-quick-brown-fox-jumps"), 6);
        // 0xE1 = 'a' | 0x80 must not count as a vowel.
        assert_eq!(count_vowels(&[0xE1; 16]), 0);
    }

    #[test]
    fn prefix_suffix_lengths() {
        assert_eq!(common_prefix_len(b"exampleaa", b"examplebb"), 7);
        assert_eq!(common_prefix_len(b"same-string!", b"same-string!"), 12);
        assert_eq!(common_prefix_len(b"", b"x"), 0);
        assert_eq!(common_suffix_len(b"aaexample.com", b"bbexample.com"), 11);
        assert_eq!(common_suffix_len(b"abc", b"xyz"), 0);
        assert_eq!(common_suffix_len(b"longer-tail-shared", b"tail-shared"), 11);
    }
}
