//! The crate-native stub resolver: enough client to smoke-test and
//! load-drive the front-end without external tools. UDP exchanges follow
//! the classic stub loop (send, wait, retransmit on timeout, match the
//! response id); TCP sends pipelined length-prefixed queries on one
//! connection. This module denies `clippy::indexing_slicing`,
//! `unwrap_used`, `panic` and kin — responses come off a real network and
//! must never panic the client.
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

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::time::Duration;

use crate::frame::{read_frame, write_frame};

/// Stale datagrams (mismatched ids) tolerated per attempt before the
/// attempt is abandoned — bounds the read loop without a wall clock.
const MAX_STALE_RESPONSES: u32 = 64;

/// The query id in a wire message, if the header is present.
pub fn wire_id(wire: &[u8]) -> Option<u16> {
    let hi = wire.first().copied()?;
    let lo = wire.get(1).copied()?;
    Some(u16::from(hi) << 8 | u16::from(lo))
}

/// The 4-bit response code in a wire message, if the header is present.
pub fn wire_rcode(wire: &[u8]) -> Option<u8> {
    wire.get(3).map(|b| b & 0x0F)
}

/// Overwrites the query id in place. `false` if the buffer has no header.
pub fn stamp_id(wire: &mut [u8], id: u16) -> bool {
    match wire.get_mut(0..2) {
        Some(slot) => {
            slot.copy_from_slice(&id.to_be_bytes());
            true
        }
        None => false,
    }
}

/// One successful UDP exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpExchange {
    pub response: Vec<u8>,
    /// Retransmissions this exchange needed (0 on the happy path).
    pub retransmits: u32,
}

/// A UDP stub resolver bound to one server.
#[derive(Debug)]
pub struct StubResolver {
    socket: UdpSocket,
    retries: u32,
}

impl StubResolver {
    /// Binds an ephemeral local socket connected to `server`. `timeout`
    /// is the per-attempt response wait; `retries` is how many times a
    /// timed-out query is retransmitted.
    pub fn connect(
        server: SocketAddr,
        timeout: Duration,
        retries: u32,
    ) -> io::Result<StubResolver> {
        let local = if server.is_ipv4() {
            "0.0.0.0:0"
        } else {
            "[::]:0"
        };
        let socket = UdpSocket::bind(local)?;
        socket.connect(server)?;
        socket.set_read_timeout(Some(timeout))?;
        Ok(StubResolver { socket, retries })
    }

    /// The client-side address (the "peer" the server and its sensor see).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Sends `query` and waits for the response whose id matches,
    /// retransmitting on timeout and skipping stale datagrams from earlier
    /// attempts. `TimedOut` after the final retry.
    pub fn exchange(&self, query: &[u8]) -> io::Result<UdpExchange> {
        let id = wire_id(query).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "query has no DNS header")
        })?;
        let mut buf = vec![0u8; 65_535];
        for attempt in 0..=self.retries {
            self.socket.send(query)?;
            let mut stale = 0u32;
            loop {
                match self.socket.recv(&mut buf) {
                    Ok(len) => {
                        let response = buf.get(..len).unwrap_or_default();
                        if wire_id(response) == Some(id) {
                            return Ok(UdpExchange {
                                response: response.to_vec(),
                                retransmits: attempt,
                            });
                        }
                        stale += 1;
                        if stale > MAX_STALE_RESPONSES {
                            break;
                        }
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                    {
                        break;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "no response after retransmissions",
        ))
    }
}

/// Opens one TCP connection, pipelines every query (RFC 1035 §4.2.2
/// framing), and collects the responses in order. The front-end handles a
/// connection's queries sequentially, so response order matches send
/// order; each response id is verified against its query anyway.
pub fn tcp_exchange(
    server: SocketAddr,
    queries: &[Vec<u8>],
    timeout: Duration,
    max_message: usize,
) -> io::Result<Vec<Vec<u8>>> {
    let mut stream = TcpStream::connect(server)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    for query in queries {
        write_frame(&mut stream, query)?;
    }
    stream.flush()?;
    let mut responses = Vec::with_capacity(queries.len());
    for query in queries {
        let response = read_frame(&mut stream, max_message)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before answering every pipelined query",
            )
        })?;
        if wire_id(&response) != wire_id(query) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "pipelined response out of order",
            ));
        }
        responses.push(response);
    }
    Ok(responses)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_helpers_survive_short_buffers() {
        assert_eq!(wire_id(&[]), None);
        assert_eq!(wire_id(&[1]), None);
        assert_eq!(wire_id(&[0x12, 0x34]), Some(0x1234));
        assert_eq!(wire_rcode(&[0, 0, 0]), None);
        assert_eq!(wire_rcode(&[0, 0, 0x80, 0x83]), Some(3));
        let mut short = [0u8; 1];
        assert!(!stamp_id(&mut short, 7));
        let mut ok = [0u8; 12];
        assert!(stamp_id(&mut ok, 0xBEEF));
        assert_eq!(wire_id(&ok), Some(0xBEEF));
    }
}
