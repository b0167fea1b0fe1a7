//! The load generator's HTTP client: one `POST /v1/align` per connection,
//! with connect, read and write deadlines so a stalled server turns into
//! a counted failure instead of a hung benchmark.

use sdea_obs::json::Json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Deadline for connecting, and for each read or write on the socket.
const DEADLINE: Duration = Duration::from_secs(10);

/// The request body for one query.
pub fn align_body(text: &str, k: usize) -> String {
    Json::obj(vec![("text", Json::str(text)), ("k", Json::Num(k as f64))]).encode()
}

/// Sends one align request; `Ok` holds the `(row, score)` candidates of a
/// 200 response, `Err` says why the request failed.
pub fn align(addr: &SocketAddr, body: &str) -> Result<Vec<(usize, f32)>, String> {
    let mut stream =
        TcpStream::connect_timeout(addr, DEADLINE).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(DEADLINE)).map_err(|e| e.to_string())?;
    stream.set_write_timeout(Some(DEADLINE)).map_err(|e| e.to_string())?;
    let head = format!(
        "POST /v1/align HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(|e| format!("write: {e}"))?;
    stream.write_all(body.as_bytes()).map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("read: {e}"))?;
    parse_response(&raw)
}

/// Parses a raw HTTP response into the candidate list of a 200 answer.
fn parse_response(raw: &[u8]) -> Result<Vec<(usize, f32)>, String> {
    let text = std::str::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or("response has no header end")?;
    let status = head.split_whitespace().nth(1).ok_or("response has no status")?;
    if status != "200" {
        return Err(format!("status {status}: {body}"));
    }
    let json = Json::parse(body).map_err(|e| format!("bad JSON: {e}"))?;
    let candidates = json
        .get("candidates")
        .and_then(Json::as_array)
        .ok_or("response has no candidates array")?;
    candidates
        .iter()
        .map(|c| {
            let index = c.get("index").and_then(Json::as_f64).ok_or("candidate has no index")?;
            let score = c.get("score").and_then(Json::as_f64).ok_or("candidate has no score")?;
            // Scores are f32 on the server and encode as the shortest f64
            // text, so the cast back recovers the exact bits.
            Ok((index as usize, score as f32))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_candidates_and_refuses_errors() {
        let ok = b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{\"candidates\":[{\"index\":3,\"name\":\"x\",\"score\":0.25}]}";
        assert_eq!(parse_response(ok), Ok(vec![(3, 0.25)]));
        let busy = b"HTTP/1.1 503 Service Unavailable\r\n\r\n{\"error\":\"queue full\"}";
        assert!(parse_response(busy).unwrap_err().starts_with("status 503"));
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\n{}").is_err());
        assert!(parse_response(b"garbage").is_err());
    }

    #[test]
    fn f32_scores_survive_the_wire_bitwise() {
        for bits in [0x3f80_0001u32, 0x3e4c_cccd, 0xbf7f_ffff] {
            let s = f32::from_bits(bits);
            let json = Json::Num(s as f64).encode();
            let back = Json::parse(&json).unwrap().as_f64().unwrap() as f32;
            assert_eq!(back.to_bits(), bits);
        }
    }
}
