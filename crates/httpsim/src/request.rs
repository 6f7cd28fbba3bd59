//! HTTP request model and HTTP/1.x wire parsing.
//!
//! The honeypot records raw inbound bytes; this module turns them into
//! structured [`HttpRequest`]s (and back), with case-insensitive header
//! access for the categorizer's Referer/User-Agent/Host reads.

use std::fmt;
use std::net::Ipv4Addr;

use crate::uri::Uri;

/// HTTP methods the honeypot sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    Get,
    Head,
    Post,
    Put,
    Delete,
    Options,
    Other,
}

impl Method {
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Head => "HEAD",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Options => "OPTIONS",
            Method::Other => "OTHER",
        }
    }

    pub fn parse(s: &str) -> Method {
        match s {
            "GET" => Method::Get,
            "HEAD" => Method::Head,
            "POST" => Method::Post,
            "PUT" => Method::Put,
            "DELETE" => Method::Delete,
            "OPTIONS" => Method::Options,
            _ => Method::Other,
        }
    }
}

/// Parse errors for the wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpParseError {
    /// No complete request line.
    BadRequestLine,
    /// A header line without a colon.
    BadHeader(String),
    /// Input was not valid UTF-8 in the head section.
    NotUtf8,
    /// Head section never terminated with an empty line.
    Truncated,
}

impl fmt::Display for HttpParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpParseError::BadRequestLine => write!(f, "malformed request line"),
            HttpParseError::BadHeader(h) => write!(f, "malformed header {h:?}"),
            HttpParseError::NotUtf8 => write!(f, "request head is not UTF-8"),
            HttpParseError::Truncated => write!(f, "request head not terminated"),
        }
    }
}

impl std::error::Error for HttpParseError {}

/// A structured HTTP request as the honeypot records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    pub method: Method,
    pub uri: Uri,
    /// `"HTTP/1.1"` etc.
    pub version: String,
    /// Headers in arrival order (names kept verbatim).
    pub headers: Vec<(String, String)>,
    /// Connection metadata stamped by the recorder (not on the wire).
    pub src_ip: Ipv4Addr,
    pub dst_port: u16,
    /// Unix seconds at arrival (simulated clock).
    pub timestamp: u64,
}

impl HttpRequest {
    /// A GET request builder used by the traffic actors.
    pub fn get(uri: &str) -> HttpRequest {
        HttpRequest {
            method: Method::Get,
            uri: Uri::parse(uri),
            version: "HTTP/1.1".to_string(),
            headers: Vec::new(),
            src_ip: Ipv4Addr::UNSPECIFIED,
            dst_port: 80,
            timestamp: 0,
        }
    }

    /// Adds a header (builder style).
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    pub fn with_src(mut self, ip: Ipv4Addr) -> Self {
        self.src_ip = ip;
        self
    }

    pub fn with_port(mut self, port: u16) -> Self {
        self.dst_port = port;
        self
    }

    pub fn with_time(mut self, unix_secs: u64) -> Self {
        self.timestamp = unix_secs;
        self
    }

    /// First value of a header, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    pub fn user_agent(&self) -> Option<&str> {
        self.header("user-agent")
    }

    pub fn referer(&self) -> Option<&str> {
        self.header("referer")
    }

    pub fn host(&self) -> Option<&str> {
        self.header("host")
    }

    /// Whether this arrived on a TLS port (the recorder model treats 443 as
    /// HTTPS after termination).
    #[cfg(test)]
    fn is_https(&self) -> bool {
        self.dst_port == 443
    }

    /// Serializes the head section to wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(self.method.as_str().as_bytes());
        buf.push(b' ');
        buf.extend_from_slice(self.uri.to_string().as_bytes());
        buf.push(b' ');
        buf.extend_from_slice(self.version.as_bytes());
        buf.extend_from_slice(b"\r\n");
        for (name, value) in &self.headers {
            buf.extend_from_slice(name.as_bytes());
            buf.extend_from_slice(b": ");
            buf.extend_from_slice(value.as_bytes());
            buf.extend_from_slice(b"\r\n");
        }
        buf.extend_from_slice(b"\r\n");
        buf
    }

    /// Parses a request head from wire bytes (ignores any body).
    pub fn parse(raw: &[u8]) -> Result<HttpRequest, HttpParseError> {
        // Find the end of the head.
        let head_end = find_head_end(raw).ok_or(HttpParseError::Truncated)?;
        let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| HttpParseError::NotUtf8)?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().ok_or(HttpParseError::BadRequestLine)?;
        let mut parts = request_line.split(' ');
        let (method, target, version) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(t), Some(v), None) if !m.is_empty() && v.starts_with("HTTP/") => {
                    (Method::parse(m), t, v)
                }
                _ => return Err(HttpParseError::BadRequestLine),
            };
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| HttpParseError::BadHeader(line.to_string()))?;
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }
        Ok(HttpRequest {
            method,
            uri: Uri::parse(target),
            version: version.to_string(),
            headers,
            src_ip: Ipv4Addr::UNSPECIFIED,
            dst_port: 80,
            timestamp: 0,
        })
    }
}

fn find_head_end(raw: &[u8]) -> Option<usize> {
    raw.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A minimal HTTP response for the honeypot's landing page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    pub status: u16,
    pub reason: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl HttpResponse {
    pub fn new(status: u16, reason: &str) -> Self {
        HttpResponse {
            status,
            reason: reason.to_string(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    pub fn with_body(mut self, content_type: &str, body: &[u8]) -> Self {
        self.headers
            .push(("Content-Type".into(), content_type.into()));
        self.headers
            .push(("Content-Length".into(), body.len().to_string()));
        self.body = body.to_vec();
        self
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(128 + self.body.len());
        buf.extend_from_slice(format!("HTTP/1.1 {} {}\r\n", self.status, self.reason).as_bytes());
        for (n, v) in &self.headers {
            buf.extend_from_slice(format!("{n}: {v}\r\n").as_bytes());
        }
        buf.extend_from_slice(b"\r\n");
        buf.extend_from_slice(&self.body);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let req = HttpRequest::get("/status.json")
            .with_header("Host", "1x-sport-bk7.com")
            .with_header("User-Agent", "curl/8.0")
            .with_src(Ipv4Addr::new(198, 51, 100, 9))
            .with_port(443)
            .with_time(1_600_000_000);
        assert_eq!(req.host(), Some("1x-sport-bk7.com"));
        assert_eq!(req.user_agent(), Some("curl/8.0"));
        assert_eq!(req.referer(), None);
        assert!(req.is_https());
        assert_eq!(req.header("HOST"), Some("1x-sport-bk7.com"));
    }

    #[test]
    fn wire_roundtrip() {
        let req = HttpRequest::get("/getTask.php?imei=1&country=us")
            .with_header("Host", "gpclick.com")
            .with_header("User-Agent", "Apache-HttpClient/UNAVAILABLE (java 1.4)");
        let wire = req.to_bytes();
        let parsed = HttpRequest::parse(&wire).unwrap();
        assert_eq!(parsed.method, Method::Get);
        assert_eq!(parsed.uri, req.uri);
        assert_eq!(parsed.headers, req.headers);
    }

    #[test]
    fn parse_real_world_shape() {
        let raw = b"GET /wp-login.php HTTP/1.1\r\nHost: example.com\r\nUser-Agent: python-requests/2.28\r\nAccept: */*\r\n\r\n";
        let req = HttpRequest::parse(raw).unwrap();
        assert_eq!(req.uri.path, "/wp-login.php");
        assert_eq!(req.version, "HTTP/1.1");
        assert_eq!(req.headers.len(), 3);
    }

    #[test]
    fn parse_ignores_body() {
        let raw = b"POST /submit HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let req = HttpRequest::parse(raw).unwrap();
        assert_eq!(req.method, Method::Post);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(
            HttpRequest::parse(b"\r\n\r\n"),
            Err(HttpParseError::BadRequestLine)
        );
        assert_eq!(
            HttpRequest::parse(b"GET /\r\n\r\n"),
            Err(HttpParseError::BadRequestLine)
        );
        assert_eq!(
            HttpRequest::parse(b"GET / HTTP/1.1"),
            Err(HttpParseError::Truncated)
        );
        assert!(matches!(
            HttpRequest::parse(b"GET / HTTP/1.1\r\nbroken header line\r\n\r\n"),
            Err(HttpParseError::BadHeader(_))
        ));
        assert_eq!(
            HttpRequest::parse(b"GET / HTTP/1.1 extra\r\n\r\n"),
            Err(HttpParseError::BadRequestLine)
        );
    }

    #[test]
    fn parse_rejects_non_utf8_head() {
        let raw = b"GET /\xFF\xFE HTTP/1.1\r\n\r\n";
        assert_eq!(HttpRequest::parse(raw), Err(HttpParseError::NotUtf8));
    }

    #[test]
    fn response_bytes() {
        let resp = HttpResponse::new(200, "OK").with_body("text/html", b"<html>study</html>");
        let wire = resp.to_bytes();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 18"));
        assert!(text.ends_with("<html>study</html>"));
    }

    #[test]
    fn method_parse_fallback() {
        assert_eq!(Method::parse("PATCH"), Method::Other);
        assert_eq!(Method::parse("GET"), Method::Get);
    }
}
