//! A tiny blocking HTTP/1.1 GET client — enough to scrape the plane from
//! `nxdctl obs scrape`, the integration tests, and the example, without a
//! curl dependency. Hostile responses surface as `Err`, never panics.
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
use std::net::TcpStream;
use std::time::Duration;

/// How long a scrape will wait on connect-adjacent socket operations.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(10);

/// One scraped response: status code and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrapeResult {
    pub status: u16,
    pub body: String,
}

/// Blocking `GET {path}` against `addr` (`host:port`). The connection is
/// `Connection: close`, so the body is everything after the header block.
pub fn http_get(addr: &str, path: &str) -> io::Result<ScrapeResult> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(SCRAPE_TIMEOUT))?;
    stream.set_write_timeout(Some(SCRAPE_TIMEOUT))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    parse_response(&raw)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response"))
}

/// Splits a raw `Connection: close` response into status and body.
fn parse_response(raw: &str) -> Option<ScrapeResult> {
    let (head, body) = raw.split_once("\r\n\r\n")?;
    let status_line = head.lines().next()?;
    let mut parts = status_line.split_whitespace();
    let version = parts.next()?;
    if !version.starts_with("HTTP/") {
        return None;
    }
    let status = parts.next()?.parse::<u16>().ok()?;
    Some(ScrapeResult {
        status,
        body: body.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_well_formed_response() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nhello\n";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "hello\n");
    }

    #[test]
    fn body_may_contain_blank_lines() {
        let raw = "HTTP/1.1 200 OK\r\n\r\nline1\r\n\r\nline2";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.body, "line1\r\n\r\nline2");
    }

    #[test]
    fn hostile_responses_are_none() {
        for bad in ["", "garbage", "HTTP/1.1\r\n\r\n", "STATUS 200\r\n\r\nx"] {
            assert!(parse_response(bad).is_none(), "accepted {bad:?}");
        }
    }
}
