//! A std-only HTTP/1.1 client, one request per connection (the server
//! answers `Connection: close`). Written here rather than reusing
//! `qsmt::serve::http`, so a change to the server cannot alter the
//! measuring side.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// Longer than the 10 s job limit, so a slow answer is never cut short.
const IO_TIMEOUT: Duration = Duration::from_secs(15);

#[derive(Debug, PartialEq)]
pub struct Response {
    pub status: u16,
    /// Names lowercased, in wire order.
    pub headers: Vec<(String, String)>,
    pub body: String,
}

/// Sends one request and reads the whole response.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Response, String> {
    let mut stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| format!("configure socket: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("send {method} {path}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read {method} {path}: {e}"))?;
    parse_response(&raw)
}

/// Parses a complete `Connection: close` response. The body is cut at
/// `Content-Length` when one is sent.
pub fn parse_response(raw: &[u8]) -> Result<Response, String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.split_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code
            .parse::<u16>()
            .map_err(|_| format!("bad status line {status_line:?}"))?,
        _ => return Err(format!("bad status line {status_line:?}")),
    };
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let mut body = &raw[split + 4..];
    if let Some((_, len)) = headers.iter().find(|(k, _)| k == "content-length") {
        let len: usize = len.parse().map_err(|_| "bad content-length")?;
        if body.len() < len {
            return Err(format!("body truncated: {} of {len} bytes", body.len()));
        }
        body = &body[..len];
    }
    let body = String::from_utf8(body.to_vec()).map_err(|_| "response body is not UTF-8")?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_headers_and_body() {
        let raw = b"HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\nContent-Length: 13\r\nConnection: close\r\n\r\n{\"id\": \"j1\"}\nEXTRA";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 202);
        assert_eq!(r.body, "{\"id\": \"j1\"}\n");
        assert_eq!(
            r.headers[0],
            ("content-type".into(), "application/json".into())
        );
        let retry =
            parse_response(b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 3\r\n\r\n{}").unwrap();
        assert_eq!(retry.status, 429);
        assert_eq!(retry.headers[0], ("retry-after".into(), "3".into()));
        assert_eq!(retry.body, "{}");
    }

    #[test]
    fn rejects_malformed_responses() {
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n").is_err());
        assert!(parse_response(b"garbage\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 abc OK\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort").is_err());
    }
}
