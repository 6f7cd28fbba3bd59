//! RFC 1035 §4.2.2 TCP framing: every DNS message on a TCP connection is
//! preceded by a two-byte big-endian length. This module denies
//! `clippy::indexing_slicing`, `unwrap_used`, `panic` and kin — hostile
//! framing (split prefixes, zero or oversize lengths, mid-message
//! disconnects) must surface as `io::Error`, never as a panic.
#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::string_slice,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::io::{self, Read, Write};

/// Upper bound on one framed message. The simulated hierarchy's largest
/// responses are far below this; anything bigger on the wire is hostile or
/// corrupt and is rejected before allocation.
pub const MAX_TCP_MESSAGE: usize = 4096;

/// Reads one byte, retrying on `Interrupted`. `Ok(None)` is clean EOF.
fn read_byte(stream: &mut impl Read) -> io::Result<Option<u8>> {
    let mut one = [0u8; 1];
    loop {
        match stream.read(&mut one) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(one.first().copied()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Reads one length-prefixed message.
///
/// * `Ok(Some(bytes))` — a complete message of 1..=`max_len` bytes;
/// * `Ok(None)` — clean EOF *before* the prefix (the peer is done);
/// * `Err(UnexpectedEof)` — the peer disconnected inside the prefix or the
///   message body;
/// * `Err(InvalidData)` — zero-length or oversize prefix.
///
/// The prefix may arrive split across arbitrarily small reads.
pub fn read_frame(stream: &mut impl Read, max_len: usize) -> io::Result<Option<Vec<u8>>> {
    let hi = match read_byte(stream)? {
        Some(b) => b,
        None => return Ok(None),
    };
    let lo = read_byte(stream)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed inside the TCP length prefix",
        )
    })?;
    let len = usize::from(hi) << 8 | usize::from(lo);
    if len == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "zero-length TCP DNS message",
        ));
    }
    if len > max_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("TCP DNS message of {len} bytes exceeds the {max_len}-byte limit"),
        ));
    }
    let mut buf = vec![0u8; len];
    stream.read_exact(&mut buf)?;
    Ok(Some(buf))
}

/// Writes one message with its two-byte big-endian length prefix.
/// Zero-length and >u16::MAX messages are `InvalidInput`.
pub fn write_frame(stream: &mut impl Write, message: &[u8]) -> io::Result<()> {
    if message.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "refusing to frame a zero-length DNS message",
        ));
    }
    let len = u16::try_from(message.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "DNS message exceeds the 16-bit TCP length prefix",
        )
    })?;
    stream.write_all(&len.to_be_bytes())?;
    stream.write_all(message)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A reader that hands out one byte per `read` call, to exercise
    /// split-prefix and split-body paths.
    struct OneByte(Cursor<Vec<u8>>);

    impl Read for OneByte {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let mut one = [0u8; 1];
            let n = self.0.read(&mut one)?;
            if n == 1 {
                buf[0] = one[0];
            }
            Ok(n)
        }
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn round_trip() {
        let wire = framed(b"hello");
        assert_eq!(wire, [0, 5, b'h', b'e', b'l', b'l', b'o']);
        let mut cursor = Cursor::new(wire);
        assert_eq!(
            read_frame(&mut cursor, MAX_TCP_MESSAGE).unwrap(),
            Some(b"hello".to_vec())
        );
        assert_eq!(read_frame(&mut cursor, MAX_TCP_MESSAGE).unwrap(), None);
    }

    #[test]
    fn split_prefix_across_reads() {
        let mut reader = OneByte(Cursor::new(framed(&[7u8; 300])));
        assert_eq!(
            read_frame(&mut reader, MAX_TCP_MESSAGE).unwrap(),
            Some(vec![7u8; 300])
        );
    }

    #[test]
    fn zero_length_message_is_invalid_data() {
        let mut cursor = Cursor::new(vec![0u8, 0u8]);
        let err = read_frame(&mut cursor, MAX_TCP_MESSAGE).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversize_length_is_rejected_before_allocation() {
        let mut cursor = Cursor::new(vec![0xFFu8, 0xFF]);
        let err = read_frame(&mut cursor, 4096).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("65535"));
    }

    #[test]
    fn eof_inside_prefix_is_unexpected_eof() {
        let mut cursor = Cursor::new(vec![0u8]);
        let err = read_frame(&mut cursor, MAX_TCP_MESSAGE).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn mid_message_disconnect_is_unexpected_eof() {
        let mut wire = framed(b"abcdef");
        wire.truncate(5); // prefix + 3 of 6 body bytes
        let mut cursor = Cursor::new(wire);
        let err = read_frame(&mut cursor, MAX_TCP_MESSAGE).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn pipelined_frames_decode_in_order() {
        let mut wire = framed(b"first");
        wire.extend_from_slice(&framed(b"second"));
        wire.extend_from_slice(&framed(b"third"));
        let mut cursor = Cursor::new(wire);
        for expect in [b"first".as_slice(), b"second", b"third"] {
            assert_eq!(
                read_frame(&mut cursor, MAX_TCP_MESSAGE).unwrap(),
                Some(expect.to_vec())
            );
        }
        assert_eq!(read_frame(&mut cursor, MAX_TCP_MESSAGE).unwrap(), None);
    }

    #[test]
    fn write_frame_refuses_empty_and_oversize() {
        let mut out = Vec::new();
        assert_eq!(
            write_frame(&mut out, &[]).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        let big = vec![0u8; usize::from(u16::MAX) + 1];
        assert_eq!(
            write_frame(&mut out, &big).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        assert!(out.is_empty());
    }
}
