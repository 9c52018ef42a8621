//! A minimal, *bounded* HTTP/1.1 reader/writer over std TCP streams.
//!
//! This is not a general HTTP implementation; it is the smallest
//! dependency-free subset the serving layer needs, built defensively:
//!
//! * the request head is read into a buffer hard-capped at
//!   [`MAX_HEAD_BYTES`] — an attacker streaming an endless header
//!   costs the server 8 KiB, then a `431` and a closed socket;
//! * bodies are admitted only up to [`MAX_BODY_BYTES`], checked
//!   against `Content-Length` *before* any body byte is read — a
//!   declared 10 GiB body allocates nothing and earns a `413`;
//! * `Transfer-Encoding: chunked` (unbounded by construction) is
//!   refused with `501`;
//! * socket read/write timeouts are the caller's job (the server arms
//!   them per connection); timeouts surface here as [`ReadError::Io`].

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Hard cap on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Hard cap on an admitted request body.
pub const MAX_BODY_BYTES: usize = 64 * 1024;
/// Hard cap on the number of header lines.
pub const MAX_HEADERS: usize = 64;

/// A parsed request: method, split target, lowercased header names,
/// and the (bounded) body.
#[derive(Debug)]
pub struct Request {
    /// Request method, uppercase as received (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the target, without the query string.
    pub path: String,
    /// Decoded `key=value` pairs of the query string (no
    /// percent-decoding — the API's parameters are plain numbers).
    pub query: Vec<(String, String)>,
    /// Headers as `(lowercased-name, value)` pairs.
    pub headers: Vec<(String, String)>,
    /// The request body (at most [`MAX_BODY_BYTES`]).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// First value of query parameter `name`, if present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Whether the client asked for the connection to close.
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why [`read_request`] failed.
#[derive(Debug)]
pub enum ReadError {
    /// Clean EOF before the first byte of a request: the client closed
    /// an idle keep-alive connection. Not an error; just stop.
    Closed,
    /// Socket-level failure (including read timeouts: `WouldBlock` /
    /// `TimedOut` from the armed socket timeout — the slow-loris
    /// case).
    Io(io::Error),
    /// Protocol violation; contains the response to send before
    /// closing the connection (`400`/`413`/`431`/`501`).
    Bad(Response),
}

/// Reads one request from the stream, enforcing all bounds.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, ReadError> {
    // Head: read until CRLFCRLF, never past MAX_HEAD_BYTES.
    let mut head = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let (head_end, mut leftover) = loop {
        if let Some(pos) = find_head_end(&head) {
            let leftover = head.split_off(pos + 4);
            break (pos, leftover);
        }
        if head.len() >= MAX_HEAD_BYTES {
            return Err(ReadError::Bad(Response::text(431, "request head exceeds 8 KiB").close()));
        }
        let budget = (MAX_HEAD_BYTES + 4 - head.len()).min(chunk.len());
        let n = stream.read(&mut chunk[..budget]).map_err(ReadError::Io)?;
        if n == 0 {
            if head.is_empty() {
                return Err(ReadError::Closed);
            }
            return Err(ReadError::Bad(Response::text(400, "truncated request head").close()));
        }
        head.extend_from_slice(&chunk[..n]);
    };
    head.truncate(head_end);
    let head = String::from_utf8(head)
        .map_err(|_| ReadError::Bad(Response::text(400, "request head is not UTF-8").close()))?;

    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && t.starts_with('/') => (m, t, v),
        _ => {
            return Err(ReadError::Bad(Response::text(400, "malformed request line").close()));
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ReadError::Bad(Response::text(400, "unsupported HTTP version").close()));
    }

    let mut headers = Vec::new();
    for line in lines {
        if headers.len() >= MAX_HEADERS {
            return Err(ReadError::Bad(Response::text(431, "too many header lines").close()));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Bad(Response::text(400, "malformed header line").close()));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };
    let mut req = Request { method: method.to_string(), path, query, headers, body: Vec::new() };

    // Body: bounded by Content-Length, checked before reading.
    if req.header("transfer-encoding").is_some() {
        return Err(ReadError::Bad(Response::text(501, "chunked bodies not supported").close()));
    }
    let content_length = match req.header("content-length") {
        None => 0usize,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| ReadError::Bad(Response::text(400, "malformed Content-Length").close()))?,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::Bad(Response::text(413, "request body exceeds 64 KiB").close()));
    }
    leftover.truncate(content_length);
    let mut body = leftover;
    body.reserve_exact(content_length - body.len());
    while body.len() < content_length {
        let want = (content_length - body.len()).min(chunk.len());
        let n = stream.read(&mut chunk[..want]).map_err(ReadError::Io)?;
        if n == 0 {
            return Err(ReadError::Bad(Response::text(400, "truncated request body").close()));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    req.body = body;
    Ok(req)
}

/// Position of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect()
}

/// Bytes of a binary raster body encoded per write (the head rides in
/// the first write). A 512 KiB tile takes four writes; with 32 KiB
/// chunks, `http_mixed`'s median op took ~6% longer (2-core VM).
const CHUNK_BYTES: usize = 128 * 1024;

/// A response body.
#[derive(Debug)]
pub enum Body {
    /// Bytes, written as they are.
    Bytes(Vec<u8>),
    /// A binary raster: `f64` values, written little-endian in bounded
    /// chunks straight from the values, never encoded whole.
    F64Le(Vec<f64>),
}

impl Body {
    /// Size on the wire.
    fn len(&self) -> usize {
        match self {
            Body::Bytes(bytes) => bytes.len(),
            Body::F64Le(values) => values.len() * 8,
        }
    }
}

/// An HTTP response under construction.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (`Content-Length` and `Connection` are written
    /// automatically).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Body,
    /// Whether the connection must close after this response.
    pub close: bool,
}

impl Response {
    /// An empty response with `status`.
    pub fn new(status: u16) -> Response {
        Response { status, headers: Vec::new(), body: Body::Bytes(Vec::new()), close: false }
    }

    /// A `text/plain` response (a trailing newline is appended).
    pub fn text(status: u16, body: &str) -> Response {
        let mut body = body.to_string();
        body.push('\n');
        Response::new(status)
            .header("Content-Type", "text/plain; charset=utf-8")
            .with_body(Body::Bytes(body.into_bytes()))
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: String) -> Response {
        Response::new(status)
            .header("Content-Type", "application/json")
            .with_body(Body::Bytes(body.into_bytes()))
    }

    /// Adds a header.
    pub fn header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Sets the body.
    pub fn with_body(mut self, body: Body) -> Response {
        self.body = body;
        self
    }

    /// Marks the connection for closing after this response.
    pub fn close(mut self) -> Response {
        self.close = true;
        self
    }

    /// Serializes the full wire form (head + body).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = self.head();
        match &self.body {
            Body::Bytes(body) => bytes.extend_from_slice(body),
            Body::F64Le(values) => bytes.extend(values.iter().flat_map(|v| v.to_le_bytes())),
        }
        bytes
    }

    /// The status line and headers, through the blank line.
    fn head(&self) -> Vec<u8> {
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status, reason(self.status));
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        head.push_str(if self.close {
            "Connection: close\r\n"
        } else {
            "Connection: keep-alive\r\n"
        });
        head.push_str("\r\n");
        head.into_bytes()
    }

    /// Writes the response; `truncate_to` keeps only the first N wire
    /// bytes (the fault-injection torn-write point). A raster body is
    /// encoded 128 KiB at a time, so writing it holds one chunk beside
    /// the values, not a second copy of the body.
    pub fn write_to<W: Write>(&self, out: &mut W, truncate_to: Option<usize>) -> io::Result<()> {
        match (&self.body, truncate_to) {
            (Body::F64Le(values), None) => {
                let mut chunk = self.head();
                chunk.reserve_exact(CHUNK_BYTES);
                for part in values.chunks(CHUNK_BYTES / 8) {
                    for v in part {
                        chunk.extend_from_slice(&v.to_le_bytes());
                    }
                    out.write_all(&chunk)?;
                    chunk.clear();
                }
                // The head alone, when there are no values.
                out.write_all(&chunk)?;
            }
            _ => {
                let mut bytes = self.to_bytes();
                bytes.truncate(truncate_to.unwrap_or(bytes.len()));
                out.write_all(&bytes)?;
            }
        }
        out.flush()
    }
}

/// The standard reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        422 => "Unprocessable Content",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_parsing_splits_pairs() {
        let q = parse_query("x0=0.5&x1=1&flag&y=");
        assert_eq!(q[0], ("x0".into(), "0.5".into()));
        assert_eq!(q[1], ("x1".into(), "1".into()));
        assert_eq!(q[2], ("flag".into(), String::new()));
        assert_eq!(q[3], ("y".into(), String::new()));
    }

    #[test]
    fn response_wire_form_has_length_and_connection() {
        let r = Response::text(200, "hi");
        let s = String::from_utf8(r.to_bytes()).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"), "{s}");
        assert!(s.contains("Content-Length: 3\r\n"));
        assert!(s.contains("Connection: keep-alive\r\n"));
        assert!(s.ends_with("\r\n\r\nhi\n"));
        let c = Response::new(204).close();
        assert!(String::from_utf8(c.to_bytes()).unwrap().contains("Connection: close"));
    }

    #[test]
    fn raster_bodies_stream_the_same_bytes() {
        // Two and a bit chunks: not a multiple of the chunk size.
        let n = CHUNK_BYTES / 8 * 2 + 1001;
        let values: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
        let r = Response::new(200).header("X-Grid", "1 1").with_body(Body::F64Le(values));
        let whole = r.to_bytes();
        let Body::F64Le(values) = &r.body else { unreachable!() };
        let body: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert!(whole.ends_with(&body));
        assert!(String::from_utf8_lossy(&whole).contains(&format!("Content-Length: {}\r\n", n * 8)));
        let mut streamed = Vec::new();
        r.write_to(&mut streamed, None).unwrap();
        assert_eq!(streamed, whole);
        for keep in [10, CHUNK_BYTES + 3, whole.len() + 1] {
            let mut torn = Vec::new();
            r.write_to(&mut torn, Some(keep)).unwrap();
            assert_eq!(torn, whole[..keep.min(whole.len())]);
        }
        let empty = Response::new(200).with_body(Body::F64Le(Vec::new()));
        let mut streamed = Vec::new();
        empty.write_to(&mut streamed, None).unwrap();
        assert_eq!(streamed, empty.to_bytes());
    }
}
