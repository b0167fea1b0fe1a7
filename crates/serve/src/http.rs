//! Minimal HTTP/1.1 framing over a [`TcpStream`].
//!
//! Just enough of RFC 9112 for a loopback inference service: one request
//! per connection (`Connection: close` on every response), request line +
//! headers + optional `Content-Length` body in, status + JSON body out.
//! No chunked encoding, no keep-alive, no TLS — the server sits behind
//! whatever the deployment puts in front of it.
//!
//! Limits are hard errors, not truncations: headers over
//! [`MAX_HEAD_BYTES`] or bodies over [`MAX_BODY_BYTES`] reject the
//! request before any allocation proportional to the claimed size.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request line + headers.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Upper bound on a request body (attribute texts are short).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request: method, path (query string included, never split —
/// the API is POST-based), and raw body bytes.
pub struct Request {
    /// Uppercase method token as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Request target, e.g. `/v1/align`.
    pub path: String,
    /// Raw body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// Why a request could not be parsed; [`status`](ParseError::status) maps
/// each to the response code the caller should send.
#[derive(Debug)]
pub enum ParseError {
    /// Malformed request line or headers.
    Bad(String),
    /// Head or body exceeded a size limit.
    TooLarge(String),
    /// A read waited past the stream's read timeout: the client went
    /// silent before sending the whole request.
    Timeout,
    /// Socket error or premature close mid-request.
    Io(io::Error),
}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ParseError::Timeout,
            _ => ParseError::Io(e),
        }
    }
}

impl ParseError {
    /// The HTTP status code this parse failure should produce.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::Bad(_) => 400,
            ParseError::TooLarge(_) => 413,
            ParseError::Timeout => 408,
            ParseError::Io(_) => 400,
        }
    }

    /// Human-readable reason, used in the JSON error body.
    pub fn message(&self) -> String {
        match self {
            ParseError::Bad(m) | ParseError::TooLarge(m) => m.clone(),
            ParseError::Timeout => "request not received within the read timeout".into(),
            ParseError::Io(e) => format!("i/o error: {e}"),
        }
    }
}

/// Reads one request from `stream`. A read that outlasts the stream's
/// read timeout fails with [`ParseError::Timeout`].
pub fn read_request(stream: &mut TcpStream) -> Result<Request, ParseError> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    // Byte-at-a-time until CRLFCRLF: head is tiny and bounded, and this
    // avoids buffering past the body boundary.
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() >= MAX_HEAD_BYTES {
            return Err(ParseError::TooLarge(format!("headers exceed {MAX_HEAD_BYTES} bytes")));
        }
        match stream.read(&mut byte) {
            Ok(0) => return Err(ParseError::Bad("connection closed mid-headers".into())),
            Ok(_) => head.push(byte[0]),
            Err(e) => return Err(e.into()),
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(ParseError::Bad(format!("malformed request line {request_line:?}")));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Bad(format!("unsupported protocol {version:?}")));
    }
    let mut content_length = 0usize;
    for line in lines.filter(|l| !l.is_empty()) {
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Bad(format!("malformed header {line:?}")));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| ParseError::Bad(format!("bad Content-Length {value:?}")))?;
        }
    }
    if content_length > MAX_BODY_BYTES {
        // Read and discard the declared body (bounded) before rejecting,
        // so the 413 isn't lost to a TCP reset while the peer is still
        // writing.
        let mut remaining = content_length.min(8 * MAX_BODY_BYTES);
        let mut chunk = [0u8; 4096];
        while remaining > 0 {
            let want = remaining.min(chunk.len());
            match stream.read(&mut chunk[..want]) {
                Ok(0) | Err(_) => break,
                Ok(n) => remaining -= n,
            }
        }
        return Err(ParseError::TooLarge(format!("body exceeds {MAX_BODY_BYTES} bytes")));
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body)?;
    Ok(Request { method: method.to_string(), path: path.to_string(), body })
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes one JSON response and flushes. Errors are swallowed: the peer
/// hanging up mid-response is its problem, not the server's.
pub fn write_response(stream: &mut TcpStream, status: u16, body: &str) {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_text(status),
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Sends one request to `addr` and returns `(status, body)` — the
/// workspace's own client, so smoke tests and the load generator need no
/// external tooling.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    // Body-write errors are tolerated: a server that already rejected the
    // request may respond without reading the body, and the response is
    // what decides the outcome.
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let (head, response_body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "response missing header end"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    Ok((status, response_body.to_string()))
}
