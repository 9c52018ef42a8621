//! A minimal keep-alive HTTP/1.1 client for the server's wire format
//! (every response carries `Content-Length`).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response: status, lowercased headers and body.
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// `(lowercased name, value)` pairs.
    pub headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Reply {
    /// First value of header `name` (lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// The snapshot fingerprint an exact response's `ETag` names.
    pub fn etag_fingerprint(&self) -> Option<u64> {
        let tag = self.header("etag")?.trim_matches('"');
        u64::from_str_radix(tag, 16).ok()
    }

    /// Whether the request counts as served: 2xx or 304, and not a
    /// deadline-degraded viewport.
    pub fn ok(&self) -> bool {
        ((200..300).contains(&self.status) || self.status == 304)
            && self.header("x-degraded").is_none()
    }

    /// The body as UTF-8 text.
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// One keep-alive connection; reconnects if the server closed it.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    /// A connection to `addr` (opened on first use).
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, stream: None, buf: Vec::with_capacity(1 << 16) }
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.stream = Some(s);
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// Sends `method target` and reads the whole reply.
    pub fn request(&mut self, method: &str, target: &str) -> io::Result<Reply> {
        let head =
            format!("{method} {target} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: 0\r\n\r\n");
        let reply = self.exchange(head.as_bytes());
        if reply.is_err() {
            self.stream = None;
        }
        let reply = reply?;
        if reply.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close")) {
            self.stream = None;
        }
        Ok(reply)
    }

    fn exchange(&mut self, head: &[u8]) -> io::Result<Reply> {
        self.stream()?.write_all(head)?;
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        let mut chunk = [0u8; 64 * 1024];
        let head_end = loop {
            if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            let n = self.stream()?.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed mid-reply"));
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let text = std::str::from_utf8(&buf[..head_end])
            .map_err(|_| io::Error::other("reply head is not UTF-8"))?;
        let mut lines = text.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::other("malformed status line"))?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        let len: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| io::Error::other("reply without Content-Length"))?;
        let mut body = Vec::with_capacity(len);
        body.extend_from_slice(&buf[head_end..]);
        while body.len() < len {
            let want = (len - body.len()).min(chunk.len());
            let n = self.stream()?.read(&mut chunk[..want])?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed mid-body"));
            }
            body.extend_from_slice(&chunk[..n]);
        }
        self.buf = buf;
        Ok(Reply { status, headers, body })
    }
}
