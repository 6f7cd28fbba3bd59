//! Low-level wire reader/writer with RFC 1035 name compression.
//!
//! The writer maintains a table of previously emitted name suffixes so that
//! later occurrences are encoded as two-octet compression pointers. The
//! reader chases pointer chains with a strict "pointers only point backwards"
//! rule and a hop budget, making decoding loop-proof on adversarial input.

use std::collections::HashMap;

use crate::error::WireError;
use crate::name::Name;

/// Upper bound on pointer hops while decoding one name. A legal message can
/// never need more than the number of labels, and 128 comfortably exceeds
/// the 127-label maximum.
const MAX_POINTER_HOPS: usize = 128;

/// Compression pointers can only encode offsets below 2^14.
const MAX_POINTER_TARGET: usize = 0x3FFF;

/// Serializer for DNS messages.
pub struct WireWriter {
    buf: Vec<u8>,
    /// Suffix (as normalized presentation string) -> offset of its encoding.
    compress: HashMap<String, u16>,
    /// Whether to emit compression pointers at all.
    compression_enabled: bool,
}

impl WireWriter {
    pub fn new() -> Self {
        WireWriter {
            buf: Vec::with_capacity(512),
            compress: HashMap::new(),
            compression_enabled: true,
        }
    }

    /// A writer that never emits compression pointers (for measuring the
    /// size benefit of compression, and for testing the reader's
    /// uncompressed path).
    pub fn without_compression() -> Self {
        let mut w = Self::new();
        w.compression_enabled = false;
        w
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }

    /// Writes a name, emitting a compression pointer for the longest suffix
    /// already present in the message.
    pub fn put_name(&mut self, name: &Name) -> Result<(), WireError> {
        let count = name.label_count();
        for i in 0..count {
            let suffix = name.suffix(count - i);
            let key = suffix.as_str().to_string();
            if self.compression_enabled {
                if let Some(&off) = self.compress.get(&key) {
                    self.put_u16(0xC000 | off);
                    return Ok(());
                }
            }
            // Record this suffix's offset for future pointers (only if the
            // offset is representable in 14 bits).
            if self.compression_enabled && self.buf.len() <= MAX_POINTER_TARGET {
                self.compress.insert(key, self.buf.len() as u16);
            }
            let label = name.label(i);
            // `Name` validates labels on construction, but a silent `as u8`
            // truncation here would corrupt the wire format — fail instead.
            if label.len() > 63 {
                return Err(WireError::LabelTooLong(label.len()));
            }
            self.put_u8(label.len() as u8);
            self.put_slice(label.as_bytes());
        }
        self.put_u8(0); // root terminator
        Ok(())
    }

    /// Finishes the message.
    pub fn finish(self) -> Result<Vec<u8>, WireError> {
        if self.buf.len() > u16::MAX as usize {
            return Err(WireError::MessageTooLong(self.buf.len()));
        }
        // An exact-size copy: callers keep encoded messages (e.g. a load
        // generator's replay list), and the buffer starts at 512 bytes.
        Ok(self.buf.to_vec())
    }

    /// Patches a previously written 16-bit field (used for RDLENGTH).
    /// Errs if `at..at + 2` is not inside the written buffer.
    pub fn patch_u16(&mut self, at: usize, v: u16) -> Result<(), WireError> {
        let len = self.buf.len();
        let slot = at
            .checked_add(2)
            .and_then(|end| self.buf.get_mut(at..end))
            .ok_or(WireError::Truncated {
                needed: 2,
                available: len.saturating_sub(at),
            })?;
        slot.copy_from_slice(&v.to_be_bytes());
        Ok(())
    }
}

impl Default for WireWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Deserializer over a full message buffer. Tracks a cursor; name decoding
/// may jump backwards through compression pointers without moving the cursor
/// past the pointer itself.
pub struct WireReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        WireReader { data, pos: 0 }
    }

    pub fn position(&self) -> usize {
        self.pos
    }

    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Takes the next `n` bytes, advancing the cursor. The single bounds
    /// check every primitive read goes through — `.get()` instead of
    /// indexing, so no input can panic the reader.
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let s = self
            .pos
            .checked_add(n)
            .and_then(|end| self.data.get(self.pos..end))
            .ok_or(WireError::Truncated {
                needed: n,
                available: self.remaining(),
            })?;
        self.pos += n;
        Ok(s)
    }

    pub fn read_u8(&mut self) -> Result<u8, WireError> {
        match *self.take(1)? {
            [v] => Ok(v),
            _ => Err(WireError::Truncated {
                needed: 1,
                available: 0,
            }),
        }
    }

    pub fn read_u16(&mut self) -> Result<u16, WireError> {
        match *self.take(2)? {
            [a, b] => Ok(u16::from_be_bytes([a, b])),
            _ => Err(WireError::Truncated {
                needed: 2,
                available: 0,
            }),
        }
    }

    pub fn read_u32(&mut self) -> Result<u32, WireError> {
        match *self.take(4)? {
            [a, b, c, d] => Ok(u32::from_be_bytes([a, b, c, d])),
            _ => Err(WireError::Truncated {
                needed: 4,
                available: 0,
            }),
        }
    }

    pub fn read_slice(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Decodes a possibly-compressed name starting at the cursor.
    pub fn read_name(&mut self) -> Result<Name, WireError> {
        let mut labels: Vec<String> = Vec::new();
        let mut at = self.pos;
        let mut cursor_after: Option<usize> = None;
        let mut hops = 0usize;

        loop {
            let Some(&len) = self.data.get(at) else {
                return Err(WireError::Truncated {
                    needed: 1,
                    available: 0,
                });
            };
            match len & 0xC0 {
                0x00 => {
                    if len == 0 {
                        // Root terminator.
                        if cursor_after.is_none() {
                            cursor_after = Some(at + 1);
                        }
                        break;
                    }
                    let start = at + 1;
                    let end = start + len as usize;
                    let Some(raw) = self.data.get(start..end) else {
                        return Err(WireError::Truncated {
                            needed: len as usize,
                            available: self.data.len().saturating_sub(start),
                        });
                    };
                    let label: String = raw
                        .iter()
                        .map(|&b| (b as char).to_ascii_lowercase())
                        .collect();
                    labels.push(label);
                    at = end;
                }
                0xC0 => {
                    let Some(&low) = self.data.get(at + 1) else {
                        return Err(WireError::Truncated {
                            needed: 2,
                            available: 1,
                        });
                    };
                    let target = (((len & 0x3F) as usize) << 8) | low as usize;
                    if cursor_after.is_none() {
                        cursor_after = Some(at + 2);
                    }
                    // Pointers must strictly decrease to guarantee progress.
                    if target >= at {
                        return Err(WireError::BadPointer(at));
                    }
                    hops += 1;
                    if hops > MAX_POINTER_HOPS {
                        return Err(WireError::BadPointer(at));
                    }
                    at = target;
                }
                other => return Err(WireError::BadLabelType(other)),
            }
        }

        // The loop always sets `cursor_after` before breaking, but a decoder
        // must never panic on wire input — degrade to an error if that
        // invariant is ever broken by a future edit.
        self.pos = cursor_after.ok_or(WireError::BadPointer(self.pos))?;
        if labels.is_empty() {
            Ok(Name::root())
        } else {
            Name::from_labels(labels)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn roundtrip_simple_name() {
        let mut w = WireWriter::new();
        w.put_name(&name("www.example.com")).unwrap();
        let buf = w.finish().unwrap();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.read_name().unwrap(), name("www.example.com"));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn roundtrip_root() {
        let mut w = WireWriter::new();
        w.put_name(&Name::root()).unwrap();
        let buf = w.finish().unwrap();
        assert_eq!(buf, vec![0]);
        let mut r = WireReader::new(&buf);
        assert!(r.read_name().unwrap().is_root());
    }

    #[test]
    fn compression_reuses_suffix() {
        let mut w = WireWriter::new();
        w.put_name(&name("www.example.com")).unwrap();
        let first = w.len();
        w.put_name(&name("mail.example.com")).unwrap();
        let buf = w.finish().unwrap();
        // Second name: 1+4 for "mail" label + 2 pointer octets.
        assert_eq!(buf.len() - first, 1 + 4 + 2);

        let mut r = WireReader::new(&buf);
        assert_eq!(r.read_name().unwrap(), name("www.example.com"));
        assert_eq!(r.read_name().unwrap(), name("mail.example.com"));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn identical_name_becomes_pure_pointer() {
        let mut w = WireWriter::new();
        w.put_name(&name("example.com")).unwrap();
        let first = w.len();
        w.put_name(&name("example.com")).unwrap();
        let buf = w.finish().unwrap();
        assert_eq!(buf.len() - first, 2);
        let mut r = WireReader::new(&buf);
        r.read_name().unwrap();
        assert_eq!(r.read_name().unwrap(), name("example.com"));
    }

    #[test]
    fn compression_disabled_writes_full_names() {
        let mut w = WireWriter::without_compression();
        w.put_name(&name("example.com")).unwrap();
        let first = w.len();
        w.put_name(&name("example.com")).unwrap();
        let buf = w.finish().unwrap();
        assert_eq!(buf.len() - first, first);
        let mut r = WireReader::new(&buf);
        r.read_name().unwrap();
        assert_eq!(r.read_name().unwrap(), name("example.com"));
    }

    #[test]
    fn forward_pointer_rejected() {
        // Pointer at offset 0 pointing to offset 2 (forward) must fail.
        let buf = [0xC0, 0x02, 0x01, b'a', 0x00];
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.read_name(), Err(WireError::BadPointer(_))));
    }

    #[test]
    fn self_pointer_rejected() {
        let buf = [0xC0, 0x00];
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.read_name(), Err(WireError::BadPointer(_))));
    }

    #[test]
    fn truncated_label_rejected() {
        let buf = [0x05, b'a', b'b'];
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.read_name(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn truncated_pointer_rejected() {
        let buf = [0xC0];
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.read_name(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn bad_label_type_rejected() {
        let buf = [0x80, 0x01];
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.read_name(), Err(WireError::BadLabelType(_))));
    }

    #[test]
    fn reader_primitives() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEADBEEF);
        w.put_slice(b"xyz");
        let buf = w.finish().unwrap();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.read_u8().unwrap(), 7);
        assert_eq!(r.read_u16().unwrap(), 0xBEEF);
        assert_eq!(r.read_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.read_slice(3).unwrap(), b"xyz");
        assert!(r.read_u8().is_err());
    }

    #[test]
    fn patch_u16_overwrites() {
        let mut w = WireWriter::new();
        w.put_u16(0);
        w.put_u8(9);
        w.patch_u16(0, 0x1234).unwrap();
        let buf = w.finish().unwrap();
        assert_eq!(buf, vec![0x12, 0x34, 9]);
    }

    #[test]
    fn patch_u16_out_of_range_is_an_error() {
        let mut w = WireWriter::new();
        w.put_u8(9);
        assert!(w.patch_u16(0, 1).is_err());
        assert!(w.patch_u16(usize::MAX, 1).is_err());
    }

    #[test]
    fn decoded_names_are_case_normalized() {
        // Hand-encode "WWW.CoM".
        let buf = [3, b'W', b'W', b'W', 3, b'C', b'o', b'M', 0];
        let mut r = WireReader::new(&buf);
        assert_eq!(r.read_name().unwrap(), name("www.com"));
    }
}
