//! Minimal HTTP/1.1 request parsing and response writing — just enough
//! wire handling for the GET-only observability plane, written to the
//! workspace's hostile-input lints (`clippy::indexing_slicing`,
//! `unwrap_used`, `panic` and kin: malformed requests surface as `Err`).
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

use std::io::{self, BufRead, Write};

/// Upper bound on the request head (request line + headers) this server
/// will buffer; longer heads are rejected rather than accumulated.
pub const MAX_HEAD_BYTES: u64 = 16 * 1024;

/// One parsed request line: method, decoded path, and query pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    /// The path component of the target, without the query string.
    pub path: String,
    /// Query pairs in target order; a key without `=` maps to `""`.
    pub query: Vec<(String, String)>,
}

impl Request {
    /// The first query value for `key`, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one request head from `reader` (bounded by [`MAX_HEAD_BYTES`]),
/// parses the request line, and discards the headers — the plane is
/// GET-only, so no body follows. Malformed or oversized heads are
/// [`io::ErrorKind::InvalidData`] errors, never panics.
pub fn read_request<R: BufRead>(reader: R) -> io::Result<Request> {
    let mut head = reader.take(MAX_HEAD_BYTES);
    let mut line = String::new();
    head.read_line(&mut line)?;
    let request = parse_request_line(&line)?;
    // Drain headers up to the blank line so the response is not written
    // into the middle of an unread request on keep-alive-ish clients.
    loop {
        let mut header = String::new();
        let n = head.read_line(&mut header)?;
        if n == 0 || header.trim_end_matches(['\r', '\n']).is_empty() {
            break;
        }
    }
    Ok(request)
}

/// Parses `"GET /journal?since=42 HTTP/1.1"` into a [`Request`].
fn parse_request_line(line: &str) -> io::Result<Request> {
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| bad("empty request line"))?;
    let target = parts
        .next()
        .ok_or_else(|| bad("request line has no target"))?;
    let version = parts.next().unwrap_or("HTTP/1.0");
    if !version.starts_with("HTTP/") {
        return Err(bad("request line has no HTTP version"));
    }
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect();
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        query,
    })
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Prometheus text exposition content type.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";
/// Plain text content type for `/healthz`-style endpoints.
pub const TEXT_CONTENT_TYPE: &str = "text/plain; charset=utf-8";
/// JSON content type for `/snapshot.json` and `/spans`.
pub const JSON_CONTENT_TYPE: &str = "application/json";
/// JSON-lines content type for `/journal`.
pub const JSONL_CONTENT_TYPE: &str = "application/x-ndjson";

/// One complete response: status, content type, body. Always
/// `Connection: close` — the plane trades keep-alive for simplicity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: String,
}

impl Response {
    /// 200 with an arbitrary content type.
    pub fn ok(content_type: &'static str, body: String) -> Self {
        Response {
            status: 200,
            content_type,
            body,
        }
    }

    /// 200 `text/plain`.
    pub fn text(body: &str) -> Self {
        Response::ok(TEXT_CONTENT_TYPE, body.to_string())
    }

    /// 200 `application/json`.
    pub fn json(body: String) -> Self {
        Response::ok(JSON_CONTENT_TYPE, body)
    }

    /// 400 for unparsable requests.
    pub fn bad_request() -> Self {
        Response {
            status: 400,
            content_type: TEXT_CONTENT_TYPE,
            body: "bad request\n".into(),
        }
    }

    /// 404 for unknown paths.
    pub fn not_found() -> Self {
        Response {
            status: 404,
            content_type: TEXT_CONTENT_TYPE,
            body: "not found\n".into(),
        }
    }

    /// 405 for anything that is not a GET.
    pub fn method_not_allowed() -> Self {
        Response {
            status: 405,
            content_type: TEXT_CONTENT_TYPE,
            body: "only GET is supported\n".into(),
        }
    }

    /// 503 while the pipeline has not completed its first phase.
    pub fn service_unavailable(body: &str) -> Self {
        Response {
            status: 503,
            content_type: TEXT_CONTENT_TYPE,
            body: body.to_string(),
        }
    }

    /// The standard reason phrase for this status.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serializes status line, headers, and body to `w` and flushes.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
        )?;
        w.write_all(self.body.as_bytes())?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_plain_target() {
        let req = parse_request_line("GET /metrics HTTP/1.1\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert!(req.query.is_empty());
        assert_eq!(req.query_param("since"), None);
    }

    #[test]
    fn parses_query_pairs() {
        let req = parse_request_line("GET /journal?since=42&flat&k=v HTTP/1.1\r\n").unwrap();
        assert_eq!(req.path, "/journal");
        assert_eq!(req.query_param("since"), Some("42"));
        assert_eq!(req.query_param("flat"), Some(""));
        assert_eq!(req.query_param("k"), Some("v"));
    }

    #[test]
    fn hostile_request_lines_are_errors_not_panics() {
        for bad in ["", "\r\n", "GET", "GET /x FTP/9", "?? ?? ??\r\n"] {
            assert!(parse_request_line(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn read_request_drains_headers() {
        let raw = b"GET /healthz HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n";
        let req = read_request(BufReader::new(&raw[..])).unwrap();
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn oversized_head_is_bounded() {
        let mut raw = b"GET /ok HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 2 * MAX_HEAD_BYTES as usize));
        // The parse either succeeds (request line fit) without buffering
        // the rest, or errors — it must not run away; Take caps it.
        let _ = read_request(BufReader::new(&raw[..]));
    }

    #[test]
    fn response_wire_shape() {
        let mut out = Vec::new();
        Response::text("ok\n").write_to(&mut out).unwrap();
        let raw = String::from_utf8(out).unwrap();
        assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(raw.contains("Content-Length: 3\r\n"));
        assert!(raw.contains("Connection: close\r\n"));
        assert!(raw.ends_with("\r\n\r\nok\n"));
    }

    #[test]
    fn reason_phrases() {
        assert_eq!(Response::not_found().reason(), "Not Found");
        assert_eq!(Response::method_not_allowed().status, 405);
        assert_eq!(Response::bad_request().status, 400);
        assert_eq!(Response::service_unavailable("starting\n").status, 503);
    }
}
