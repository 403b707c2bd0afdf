//! Minimal HTTP/1.1 framing over any `BufRead`/`Write` pair.
//!
//! Just enough of RFC 9112 for a JSON query API: one request line, a
//! handful of headers (`Content-Length` and `Connection` are the only two
//! the server interprets), an optional body, and keep-alive by default.
//! Chunked transfer encoding, trailers, and continuation lines are out of
//! scope — a request using them parses as malformed and the connection
//! answers 400 and closes, which is the server's blanket response to
//! anything it does not understand. All limits are hard caps, so a
//! misbehaving peer can never make the parser allocate without bound.

use std::io::{self, BufRead, Read, Write};

/// Longest accepted request or header line, in bytes.
pub const MAX_LINE: usize = 8192;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 100;
/// Largest accepted request body, in bytes.
pub const MAX_BODY: usize = 1 << 20;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, verbatim (`GET`, `POST`, ...).
    pub method: String,
    /// Percent-decoded path component of the target (`/query`).
    pub path: String,
    /// Percent-decoded query parameters, in target order.
    pub params: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default, overridden by a `Connection` header).
    pub keep_alive: bool,
    /// Client-supplied trace ID (`x-srs-trace-id: <hex>` header), so a
    /// caller can pre-assign the ID it will search `/debug/trace` for.
    /// `None` when absent or unparseable (a bad ID is ignored, not a
    /// 400 — tracing must never fail a query).
    pub trace_id: Option<u64>,
    /// Whether the `Accept` header asks for the OpenMetrics text
    /// exposition (`application/openmetrics-text`). `/metrics` serves
    /// the legacy Prometheus format unless the scraper opts in —
    /// exemplars are only legal in OpenMetrics.
    pub wants_openmetrics: bool,
}

/// Why a request failed to parse. The connection answers 400 (when the
/// failure is the peer's framing) and closes either way.
#[derive(Debug)]
pub enum ParseError {
    /// Transport error mid-request.
    Io(io::Error),
    /// Malformed framing, with a human-readable reason.
    Malformed(&'static str),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
            ParseError::Malformed(why) => write!(f, "malformed request: {why}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Reads one `\n`-terminated line (CR stripped) into `out`, enforcing
/// [`MAX_LINE`]. `Ok(false)` means clean EOF before any byte — the peer
/// closed between requests; EOF mid-line is malformed.
fn read_line_limited(r: &mut impl BufRead, out: &mut Vec<u8>) -> Result<bool, ParseError> {
    out.clear();
    loop {
        let buf = r.fill_buf().map_err(ParseError::Io)?;
        if buf.is_empty() {
            return if out.is_empty() { Ok(false) } else { Err(ParseError::Malformed("truncated line")) };
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(i) => {
                out.extend_from_slice(&buf[..i]);
                r.consume(i + 1);
                if out.last() == Some(&b'\r') {
                    out.pop();
                }
                if out.len() > MAX_LINE {
                    return Err(ParseError::Malformed("line too long"));
                }
                return Ok(true);
            }
            None => {
                let n = buf.len();
                out.extend_from_slice(buf);
                r.consume(n);
                if out.len() > MAX_LINE {
                    return Err(ParseError::Malformed("line too long"));
                }
            }
        }
    }
}

/// Reads and parses one request. `Ok(None)` is a clean connection close
/// before any request byte (the keep-alive loop's exit).
pub fn read_request(r: &mut impl BufRead) -> Result<Option<Request>, ParseError> {
    let mut line = Vec::new();
    if !read_line_limited(r, &mut line)? {
        return Ok(None);
    }
    let start = std::str::from_utf8(&line).map_err(|_| ParseError::Malformed("request line not UTF-8"))?;
    let mut parts = start.split(' ');
    let method = match parts.next() {
        Some(m) if !m.is_empty() => m.to_string(),
        _ => return Err(ParseError::Malformed("missing method")),
    };
    let target = parts.next().ok_or(ParseError::Malformed("missing target"))?.to_string();
    let version = parts.next().ok_or(ParseError::Malformed("missing HTTP version"))?;
    if parts.next().is_some() {
        return Err(ParseError::Malformed("extra tokens in request line"));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed("unsupported HTTP version"));
    }
    let mut keep_alive = version != "HTTP/1.0";
    let mut content_length = 0usize;
    let mut headers = 0usize;
    let mut trace_id = None;
    let mut wants_openmetrics = false;
    loop {
        if !read_line_limited(r, &mut line)? {
            return Err(ParseError::Malformed("truncated headers"));
        }
        if line.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(ParseError::Malformed("too many headers"));
        }
        let header = std::str::from_utf8(&line).map_err(|_| ParseError::Malformed("header not UTF-8"))?;
        let (name, value) = header.split_once(':').ok_or(ParseError::Malformed("header without colon"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length =
                value.parse::<usize>().map_err(|_| ParseError::Malformed("bad content-length"))?;
            if content_length > MAX_BODY {
                return Err(ParseError::Malformed("body too large"));
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(ParseError::Malformed("chunked bodies are not supported"));
        } else if name.eq_ignore_ascii_case("connection") {
            // The value is an RFC 7230 token list ("keep-alive, Upgrade");
            // compare per token, and let `close` win over `keep-alive` if
            // a confused peer sends both.
            let tokens = value.split(',').map(str::trim);
            if tokens.clone().any(|t| t.eq_ignore_ascii_case("close")) {
                keep_alive = false;
            } else if tokens.clone().any(|t| t.eq_ignore_ascii_case("keep-alive")) {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("x-srs-trace-id") {
            trace_id = srs_obs::parse_trace_id(value);
        } else if name.eq_ignore_ascii_case("accept") {
            wants_openmetrics = value.to_ascii_lowercase().contains("application/openmetrics-text");
        }
    }
    let body = read_body(r, content_length).map_err(ParseError::Io)?;
    let (path, params) = parse_target(&target)?;
    Ok(Some(Request { method, path, params, body, keep_alive, trace_id, wants_openmetrics }))
}

/// Reads a body of exactly `len` bytes (requests and responses alike).
/// The buffer grows with the bytes that actually arrive, never to `len`
/// up front, so a peer that announces a large body and sends none pins
/// no memory. A short body is an [`io::ErrorKind::UnexpectedEof`] error.
pub fn read_body(r: &mut impl Read, len: usize) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    r.take(len as u64).read_to_end(&mut body)?;
    if body.len() != len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("body ends after {} of {len} bytes", body.len()),
        ));
    }
    Ok(body)
}

/// Splits a request target into its decoded path and query parameters.
fn parse_target(target: &str) -> Result<(String, Vec<(String, String)>), ParseError> {
    let (raw_path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    if !raw_path.starts_with('/') {
        return Err(ParseError::Malformed("target must be an absolute path"));
    }
    let path = percent_decode(raw_path, false)?;
    let mut params = Vec::new();
    if let Some(q) = query {
        for pair in q.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            params.push((percent_decode(k, true)?, percent_decode(v, true)?));
        }
    }
    Ok((path, params))
}

/// Decodes `%XX` escapes. `plus_is_space` additionally turns `+` into a
/// space — that rule belongs to `x-www-form-urlencoded` query strings
/// only; in a path component `+` is a literal plus (RFC 3986).
pub fn percent_decode(s: &str, plus_is_space: bool) -> Result<String, ParseError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).ok_or(ParseError::Malformed("truncated % escape"))?;
                let hi = hex_value(hex[0]).ok_or(ParseError::Malformed("bad % escape"))?;
                let lo = hex_value(hex[1]).ok_or(ParseError::Malformed("bad % escape"))?;
                out.push(hi * 16 + lo);
                i += 3;
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| ParseError::Malformed("escape decodes to invalid UTF-8"))
}

fn hex_value(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Reason phrase for the status codes this server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one complete response (status line, the three headers the
/// protocol needs, body) and flushes.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    write_response_ext(w, status, content_type, body, keep_alive, &[])
}

/// [`write_response`] with extra response headers (the query path uses
/// this to echo `x-srs-trace-id`). Header values must be pre-sanitized
/// (no CR/LF) — callers only pass fixed-format values like hex IDs.
pub fn write_response_ext(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        status_text(status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    )?;
    for (name, value) in extra_headers {
        write!(w, "{name}: {value}\r\n")?;
    }
    w.write_all(b"\r\n")?;
    w.write_all(body)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<Option<Request>, ParseError> {
        read_request(&mut Cursor::new(raw.as_bytes().to_vec()))
    }

    #[test]
    fn parses_get_with_query_params() {
        let req = parse("GET /query?u=42&k=5 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/query");
        assert_eq!(req.params, vec![("u".into(), "42".into()), ("k".into(), "5".into())]);
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(req.body.is_empty());
    }

    #[test]
    fn connection_header_controls_keep_alive() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");
        let req = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap().unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn connection_header_is_a_token_list() {
        let req = parse("GET / HTTP/1.0\r\nConnection: keep-alive, Upgrade\r\n\r\n").unwrap().unwrap();
        assert!(req.keep_alive, "keep-alive inside a list must count");
        let req = parse("GET / HTTP/1.1\r\nConnection: Upgrade, Close\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive, "close inside a list must count");
        let req = parse("GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive, "close wins when both appear");
    }

    #[test]
    fn reads_body_by_content_length() {
        let req = parse("POST /admin/reload HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap().unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn truncated_body_is_a_typed_eof() {
        let err = parse("POST /admin/ingest HTTP/1.1\r\nContent-Length: 1048576\r\n\r\nhello").unwrap_err();
        match err {
            ParseError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "{e}"),
            other => panic!("expected an EOF error, got {other}"),
        }
    }

    #[test]
    fn percent_decoding_in_params() {
        let req = parse("GET /query?u=1%32&note=a+b%21 HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.params, vec![("u".into(), "12".into()), ("note".into(), "a b!".into())]);
        assert!(percent_decode("%zz", true).is_err());
        assert!(percent_decode("%f", true).is_err());
    }

    #[test]
    fn plus_is_space_only_in_query_params() {
        // RFC 3986: '+' in a path component is a literal plus; the
        // plus-as-space rule is a form-encoding convention for queries.
        let req = parse("GET /a+b?x=c+d HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.path, "/a+b");
        assert_eq!(req.params, vec![("x".into(), "c d".into())]);
    }

    #[test]
    fn clean_eof_is_none_truncation_is_error() {
        assert!(parse("").unwrap().is_none());
        assert!(matches!(parse("GET / HTTP/1.1\r\nHost: x"), Err(ParseError::Malformed(_))));
        assert!(matches!(parse("GET / HTTP/1.1\r\n"), Err(ParseError::Malformed(_))));
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for raw in [
            "GARBAGE\r\n\r\n",
            "GET /query HTTP/2\r\n\r\n",
            "GET /query HTTP/1.1 extra\r\n\r\n",
            " /query HTTP/1.1\r\n\r\n",
            "GET query HTTP/1.1\r\n\r\n",
            "GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            "GET / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
            "GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            "GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
        ] {
            assert!(matches!(parse(raw), Err(ParseError::Malformed(_))), "{raw:?}");
        }
    }

    #[test]
    fn line_limit_is_enforced() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE + 10));
        assert!(matches!(parse(&raw), Err(ParseError::Malformed("line too long"))));
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", b"{}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        let mut out = Vec::new();
        write_response(&mut out, 503, "text/plain", b"busy", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }

    #[test]
    fn trace_id_header_is_parsed_leniently() {
        let req =
            parse("GET /query?u=1 HTTP/1.1\r\nx-srs-trace-id: 00ffee0012345678\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.trace_id, Some(0x00ff_ee00_1234_5678));
        let req = parse("GET / HTTP/1.1\r\nX-SRS-Trace-Id: 0xABC\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.trace_id, Some(0xabc), "case-insensitive name, 0x prefix ok");
        let req = parse("GET / HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.trace_id, None);
        // A malformed ID is dropped, never a parse error.
        let req = parse("GET / HTTP/1.1\r\nx-srs-trace-id: not-hex\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.trace_id, None);
    }

    #[test]
    fn accept_header_negotiates_openmetrics() {
        let raw = "GET /metrics HTTP/1.1\r\nAccept: application/openmetrics-text; version=1.0.0\r\n\r\n";
        assert!(parse(raw).unwrap().unwrap().wants_openmetrics);
        let raw = "GET /metrics HTTP/1.1\r\naccept: text/plain, APPLICATION/OpenMetrics-Text\r\n\r\n";
        assert!(parse(raw).unwrap().unwrap().wants_openmetrics, "case-insensitive, list-valued");
        let req = parse("GET /metrics HTTP/1.1\r\nAccept: text/plain\r\n\r\n").unwrap().unwrap();
        assert!(!req.wants_openmetrics);
        let req = parse("GET /metrics HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert!(!req.wants_openmetrics, "no Accept header defaults to the legacy format");
    }

    #[test]
    fn extra_headers_are_emitted() {
        let mut out = Vec::new();
        write_response_ext(&mut out, 200, "application/json", b"{}", true, &[("x-srs-trace-id", "00ab")])
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("x-srs-trace-id: 00ab\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn keep_alive_stream_yields_successive_requests() {
        let raw = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let mut cur = Cursor::new(raw.as_bytes().to_vec());
        assert_eq!(read_request(&mut cur).unwrap().unwrap().path, "/a");
        assert_eq!(read_request(&mut cur).unwrap().unwrap().path, "/b");
        assert!(read_request(&mut cur).unwrap().is_none());
    }
}
