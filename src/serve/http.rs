//! Minimal HTTP/1.1 plumbing for the solve service — still no framework,
//! no dependencies. One request per connection (`Connection: close`),
//! which keeps the server a plain accept-loop and the client a
//! read-to-end.
//!
//! The parser accepts exactly what the service needs: a request line
//! (`METHOD /path?query HTTP/1.1`), headers (only `Content-Length` is
//! interpreted), and an optional body. Everything else 400s.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Largest request head (request line + headers) the server will buffer.
const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Largest request body the server will buffer (SMT-LIB scripts are
/// small; anything bigger is abuse, not a workload).
const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// How long the scrape/submit client waits for a TCP connect.
pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// How long either side waits on a single read before giving up.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercased as sent (`GET`, `POST`, …).
    pub method: String,
    /// Path with the query string stripped (`/solve`).
    pub path: String,
    /// Decoded `key=value` query pairs, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: String,
}

impl Request {
    /// Last value of a query parameter, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parses a request target (`/solve?seed=7`) into path + query pairs.
fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    let (path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = raw_query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect();
    (path.to_string(), query)
}

/// Reads and parses one HTTP request from an accepted connection.
/// Returns `None` for anything unparseable or oversized — the caller
/// answers 400 and closes.
pub fn read_request(stream: &mut TcpStream) -> Option<Request> {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_blank_line(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return None;
        }
        let n = stream.read(&mut chunk).ok()?;
        if n == 0 {
            return None;
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.lines();
    let mut parts = lines.next()?.split_whitespace();
    let method = parts.next()?.to_string();
    let target = parts.next()?;
    let content_length = lines
        .filter_map(|line| line.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return None;
    }

    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).ok()?;
        if n == 0 {
            break;
        }
        body.extend_from_slice(&chunk[..n]);
    }
    if body.len() < content_length {
        return None;
    }
    body.truncate(content_length);

    let (path, query) = parse_target(target);
    Some(Request {
        method,
        path,
        query,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

/// One HTTP response, status line plus body.
pub fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    respond_with(stream, status, content_type, &[], body);
}

/// One HTTP response with extra headers (`Retry-After` on 429s).
pub fn respond_with(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) {
    let mut response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        response.push_str(name);
        response.push_str(": ");
        response.push_str(value);
        response.push_str("\r\n");
    }
    response.push_str("Connection: close\r\n\r\n");
    response.push_str(body);
    // A client that hangs up mid-response is its own problem.
    let _ = stream.write_all(response.as_bytes());
}

/// One-shot HTTP client used by `qsmt watch` and `qsmt submit`: sends
/// `method path` (plus an optional body) to `addr` and returns the
/// numeric status with the response body.
///
/// Both connect and read carry timeouts so an unreachable or black-holed
/// endpoint fails fast with a clear error instead of hanging the probe —
/// a hung health check is indistinguishable from a passing one to most
/// supervisors.
///
/// # Errors
/// Returns an error when the address does not resolve, the endpoint is
/// unreachable, a timeout fires, or the response is malformed.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    http_request_with_headers(addr, method, path, body)
        .map(|(status, _headers, body)| (status, body))
}

/// Parsed one-shot response: status code, headers (names lowercased,
/// values trimmed, in wire order), and body.
pub type HttpResponse = (u16, Vec<(String, String)>, String);

/// [`http_request`] that also returns the response headers — the
/// variant `qsmt submit` uses to honor `Retry-After` on a 429.
///
/// # Errors
/// Same failure modes as [`http_request`].
pub fn http_request_with_headers(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<HttpResponse, String> {
    let addr = addr.trim_start_matches("http://");
    let sockets = addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?;
    let mut stream = connect_any(addr, sockets)?;
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(READ_TIMEOUT));
    let payload = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("cannot send request to {addr}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("cannot read response from {addr} within {READ_TIMEOUT:?}: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed HTTP response from {addr}"))?;
    let status_line = head.lines().next().unwrap_or_default();
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed HTTP status line from {addr}: {status_line:?}"))?;
    let headers = head
        .lines()
        .skip(1)
        .filter_map(|line| line.split_once(':'))
        .map(|(name, value)| (name.trim().to_ascii_lowercase(), value.trim().to_string()))
        .collect();
    Ok((status, headers, body.to_string()))
}

/// Connects to the first of `sockets` (the resolutions of `addr`) that
/// accepts within [`CONNECT_TIMEOUT`], in resolver order, as
/// `TcpStream::connect` does. A name such as `localhost` may resolve to
/// `::1` before `127.0.0.1`; a server bound to the IPv4 address alone
/// must still be reachable through it.
fn connect_any(
    addr: &str,
    sockets: impl IntoIterator<Item = SocketAddr>,
) -> Result<TcpStream, String> {
    let mut last = format!("cannot resolve {addr}: no addresses");
    for socket in sockets {
        match TcpStream::connect_timeout(&socket, CONNECT_TIMEOUT) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                last =
                    format!("cannot connect to {addr} ({socket}) within {CONNECT_TIMEOUT:?}: {e}");
            }
        }
    }
    Err(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    #[test]
    fn parse_target_splits_path_and_query() {
        let (path, query) = parse_target("/solve?seed=7&timeout_ms=250&flag");
        assert_eq!(path, "/solve");
        assert_eq!(
            query,
            vec![
                ("seed".into(), "7".into()),
                ("timeout_ms".into(), "250".into()),
                ("flag".into(), String::new()),
            ]
        );
        let (bare, none) = parse_target("/metrics");
        assert_eq!(bare, "/metrics");
        assert!(none.is_empty());
    }

    #[test]
    fn read_request_round_trips_a_post_with_body() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).expect("request parses");
            respond(&mut stream, "200 OK", "text/plain", &req.body);
            req
        });
        let body = "(set-logic QF_S)\n(check-sat)\n";
        let (status, echoed) =
            http_request(&addr.to_string(), "POST", "/solve?seed=3", Some(body)).unwrap();
        let req = server.join().unwrap();
        assert_eq!(status, 200);
        assert_eq!(echoed, body);
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/solve");
        assert_eq!(req.query_param("seed"), Some("3"));
        assert_eq!(req.body, body);
    }

    #[test]
    fn unreachable_endpoint_fails_fast_with_context() {
        // Port 1 is essentially never listening; connect_timeout bounds
        // even a black-holed route.
        let err = http_request("127.0.0.1:1", "GET", "/metrics", None).unwrap_err();
        assert!(err.contains("127.0.0.1:1"), "error lacks address: {err}");
    }

    #[test]
    fn connect_tries_every_resolved_address_in_order() {
        // A host that lists `::1 localhost` first resolves to IPv6
        // before IPv4; nothing listens on the IPv6 port here.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let v4 = listener.local_addr().unwrap();
        let v6: SocketAddr = format!("[::1]:{}", v4.port()).parse().unwrap();
        let stream = connect_any("localhost", [v6, v4]).expect("falls through to IPv4");
        assert_eq!(stream.peer_addr().unwrap(), v4);
        let err = connect_any("localhost", [v6]).unwrap_err();
        assert!(
            err.contains("localhost ([::1]:"),
            "error lacks address: {err}"
        );
    }

    #[test]
    fn query_param_takes_the_last_duplicate() {
        let req = Request {
            method: "GET".into(),
            path: "/".into(),
            query: vec![("a".into(), "1".into()), ("a".into(), "2".into())],
            body: String::new(),
        };
        assert_eq!(req.query_param("a"), Some("2"));
        assert_eq!(req.query_param("b"), None);
    }
}
