//! A minimal blocking HTTP/1.1 client for `srs loadgen` and the server's
//! own tests: keep-alive connection reuse, bodyless GET/POST, one
//! transparent reconnect when a pooled connection has gone stale.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One decoded response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// Trace ID echoed by the server (`x-srs-trace-id` header), if any.
    pub trace_id: Option<u64>,
}

impl Response {
    /// The body as UTF-8 (lossy — diagnostics only).
    pub fn body_str(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }
}

/// A persistent connection to one server address.
pub struct HttpClient {
    addr: String,
    stream: Option<BufReader<TcpStream>>,
    read_timeout: Option<Duration>,
}

impl HttpClient {
    /// Connects to `addr` (e.g. `127.0.0.1:7171`).
    pub fn connect(addr: impl Into<String>) -> io::Result<Self> {
        let mut client =
            HttpClient { addr: addr.into(), stream: None, read_timeout: Some(Duration::from_secs(60)) };
        client.ensure_connected()?;
        Ok(client)
    }

    /// Sets the per-read timeout applied to (re)connected sockets.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) {
        self.read_timeout = timeout;
    }

    fn ensure_connected(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        let stream = match self.stream.take() {
            Some(stream) => stream,
            None => {
                let stream = TcpStream::connect(&self.addr)?;
                stream.set_read_timeout(self.read_timeout)?;
                stream.set_nodelay(true)?;
                BufReader::new(stream)
            }
        };
        Ok(self.stream.insert(stream))
    }

    /// Bodyless GET.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.request("GET", path)
    }

    /// Bodyless GET carrying a client-assigned trace ID, so the caller
    /// can later look the request up in the server's `/debug/trace`.
    pub fn get_traced(&mut self, path: &str, trace_id: u64) -> io::Result<Response> {
        let id = srs_obs::format_trace_id(trace_id);
        self.request_with_headers("GET", path, &[("x-srs-trace-id", &id)])
    }

    /// Bodyless POST.
    pub fn post(&mut self, path: &str) -> io::Result<Response> {
        self.request("POST", path)
    }

    /// POST carrying a request body (e.g. an edit batch for
    /// `/admin/ingest`). Same one-retry semantics as the bodyless forms.
    pub fn post_body(&mut self, path: &str, body: &[u8]) -> io::Result<Response> {
        match self.request_once("POST", path, &[], body) {
            Ok(resp) => Ok(resp),
            Err(_) => {
                self.stream = None;
                self.request_once("POST", path, &[], body)
            }
        }
    }

    /// Sends one bodyless request and reads the response. A transport
    /// error drops the pooled connection and retries once on a fresh one
    /// (a stale keep-alive socket looks exactly like that).
    pub fn request(&mut self, method: &str, path: &str) -> io::Result<Response> {
        self.request_with_headers(method, path, &[])
    }

    /// [`HttpClient::request`] with extra request headers.
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
    ) -> io::Result<Response> {
        match self.request_once(method, path, headers, &[]) {
            Ok(resp) => Ok(resp),
            Err(_) => {
                self.stream = None;
                self.request_once(method, path, headers, &[])
            }
        }
    }

    fn request_once(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<Response> {
        let reader = self.ensure_connected()?;
        let mut msg = format!("{method} {path} HTTP/1.1\r\nHost: srs\r\nContent-Length: {}\r\n", body.len());
        for (name, value) in headers {
            msg.push_str(&format!("{name}: {value}\r\n"));
        }
        msg.push_str("\r\n");
        let mut wire = msg.into_bytes();
        wire.extend_from_slice(body);
        if let Err(e) = reader.get_mut().write_all(&wire) {
            self.stream = None;
            return Err(e);
        }
        match read_response(reader) {
            Ok((resp, keep_alive)) => {
                if !keep_alive {
                    self.stream = None;
                }
                Ok(resp)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

fn bad_data(why: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why.to_string())
}

/// Reads one response off the wire; the flag reports whether the server
/// will keep the connection open.
fn read_response(r: &mut impl BufRead) -> io::Result<(Response, bool)> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection"));
    }
    let mut parts = line.trim_end().splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    let status: u16 =
        parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| bad_data("malformed status line"))?;
    let mut keep_alive = !version.ends_with("/1.0");
    let mut content_length = 0usize;
    let mut trace_id = None;
    loop {
        let mut header = String::new();
        if r.read_line(&mut header)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated response headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().map_err(|_| bad_data("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if name.eq_ignore_ascii_case("x-srs-trace-id") {
                trace_id = srs_obs::parse_trace_id(value);
            }
        }
    }
    let body = crate::http::read_body(r, content_length)?;
    Ok((Response { status, body, trace_id }, keep_alive))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn decodes_a_response() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 4\r\nConnection: keep-alive\r\n\r\n{\"\"}";
        let (resp, keep) = read_response(&mut Cursor::new(raw.as_bytes().to_vec())).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"{\"\"}");
        assert_eq!(resp.body_str(), "{\"\"}");
        assert!(keep);
        assert_eq!(resp.trace_id, None);
    }

    #[test]
    fn trace_id_echo_is_decoded() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Length: 0\r\nx-srs-trace-id: 00000000000000ab\r\n\r\n";
        let (resp, _) = read_response(&mut Cursor::new(raw.as_bytes().to_vec())).unwrap();
        assert_eq!(resp.trace_id, Some(0xab));
    }

    #[test]
    fn connection_close_is_reported() {
        let raw = "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
        let (resp, keep) = read_response(&mut Cursor::new(raw.as_bytes().to_vec())).unwrap();
        assert_eq!(resp.status, 503);
        assert!(!keep);
    }

    #[test]
    fn truncated_body_is_a_typed_eof() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Length: 1048576\r\n\r\nhello";
        let err = read_response(&mut Cursor::new(raw.as_bytes().to_vec())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    }

    #[test]
    fn garbage_status_line_errors() {
        let raw = "NOPE\r\n\r\n";
        assert!(read_response(&mut Cursor::new(raw.as_bytes().to_vec())).is_err());
        assert!(read_response(&mut Cursor::new(Vec::new())).is_err());
    }
}
