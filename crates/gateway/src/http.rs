//! A minimal vendored HTTP/1.1 shim — exactly the subset the gateway
//! speaks, nothing more.
//!
//! Supported: request line + headers, `Content-Length` bodies, keep-alive
//! (HTTP/1.1 default, `Connection: close` honored, HTTP/1.0 opt-in via
//! `Connection: keep-alive`). Deliberately unsupported: chunked transfer
//! encoding, trailers, upgrades, continuation lines — a request using any
//! of them is answered `400` and the connection closed. Every dimension of
//! a request is capped (start-line bytes, header bytes, header count, body
//! bytes) so a hostile client cannot balloon gateway memory; the caps
//! reuse the byte-capped line reader the JSONL daemon hardened
//! ([`ccs_serve::server::read_line_capped`]).

use ccs_serve::server::{read_line_capped, LineRead};
use std::io::{BufRead, Write};

/// Cap on the request line and on each header line.
pub const MAX_START_LINE_BYTES: usize = 8 << 10;

/// Cap on the number of headers in one request.
pub const MAX_HEADERS: usize = 64;

/// One parsed request.
pub struct HttpRequest {
    /// Uppercase method token as sent (`GET`, `POST`, …).
    pub method: String,
    /// The request target, query string included, undecoded.
    pub path: String,
    /// Headers in arrival order; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The body (empty without `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the request was HTTP/1.1 (drives the keep-alive default).
    pub http11: bool,
}

impl HttpRequest {
    /// The first value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after the response.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// Outcome of reading one request off a connection.
pub enum ReadOutcome {
    /// A complete, well-formed request.
    Request(HttpRequest),
    /// Clean EOF before any request bytes — the client hung up.
    Closed,
    /// A protocol violation; the message is for the `400` body. The
    /// stream cannot be resynchronized, so the caller must close it.
    Bad(String),
}

fn header_line<R: BufRead>(reader: &mut R) -> std::io::Result<Result<Option<String>, String>> {
    Ok(match read_line_capped(reader, MAX_START_LINE_BYTES)? {
        LineRead::Eof => Err("connection closed mid-request".to_string()),
        LineRead::TooLong(bytes) => Err(format!(
            "header line of {bytes} bytes exceeds the {MAX_START_LINE_BYTES}-byte cap"
        )),
        LineRead::Line(line) => {
            let line = line.strip_suffix('\r').map(str::to_string).unwrap_or(line);
            if line.is_empty() {
                Ok(None)
            } else {
                Ok(Some(line))
            }
        }
    })
}

/// Reads and parses one request, enforcing every cap. Bodies larger than
/// `max_body_bytes` are refused without being read.
///
/// # Errors
///
/// Transport-level io errors only (timeouts included); protocol
/// violations come back as [`ReadOutcome::Bad`].
pub fn read_request<R: BufRead>(
    reader: &mut R,
    max_body_bytes: usize,
) -> std::io::Result<ReadOutcome> {
    // Request line. EOF here (and only here) is a clean close.
    let start = match read_line_capped(reader, MAX_START_LINE_BYTES)? {
        LineRead::Eof => return Ok(ReadOutcome::Closed),
        LineRead::TooLong(bytes) => {
            return Ok(ReadOutcome::Bad(format!(
                "request line of {bytes} bytes exceeds the {MAX_START_LINE_BYTES}-byte cap"
            )))
        }
        LineRead::Line(line) => {
            let trimmed = line.strip_suffix('\r').map(str::to_string).unwrap_or(line);
            if trimmed.is_empty() {
                return Ok(ReadOutcome::Closed);
            }
            trimmed
        }
    };
    let mut parts = start.split_whitespace();
    let (Some(method), Some(path), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Ok(ReadOutcome::Bad(format!(
            "malformed request line: {start:?}"
        )));
    };
    if !version.starts_with("HTTP/1.") {
        return Ok(ReadOutcome::Bad(format!("unsupported version {version:?}")));
    }
    let http11 = version == "HTTP/1.1";

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        match header_line(reader)? {
            Err(msg) => return Ok(ReadOutcome::Bad(msg)),
            Ok(None) => break,
            Ok(Some(line)) => {
                if headers.len() >= MAX_HEADERS {
                    return Ok(ReadOutcome::Bad(format!("more than {MAX_HEADERS} headers")));
                }
                let Some((name, value)) = line.split_once(':') else {
                    return Ok(ReadOutcome::Bad(format!("malformed header: {line:?}")));
                };
                // RFC 9112 §5.1: whitespace before the colon, or a line
                // folded onto the previous one, is a 400.
                if name.is_empty() || !name.bytes().all(is_tchar) {
                    return Ok(ReadOutcome::Bad(format!("malformed header name: {name:?}")));
                }
                headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
            }
        }
    }

    let mut request = HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body: Vec::new(),
        http11,
    };
    if request.header("transfer-encoding").is_some() {
        return Ok(ReadOutcome::Bad(
            "transfer-encoding is not supported; send content-length".to_string(),
        ));
    }
    // RFC 9112 §6.3: a repeated or malformed `Content-Length` makes the
    // framing unrecoverable. The grammar is `1*DIGIT`, which
    // `usize::from_str` widens by a leading `+`.
    let mut lengths = request
        .headers
        .iter()
        .filter(|(n, _)| n == "content-length");
    if let Some((_, raw)) = lengths.next() {
        if lengths.next().is_some() {
            return Ok(ReadOutcome::Bad("repeated content-length".to_string()));
        }
        let length = match raw.parse::<usize>() {
            Ok(length) if raw.bytes().all(|b| b.is_ascii_digit()) => length,
            _ => return Ok(ReadOutcome::Bad(format!("invalid content-length {raw:?}"))),
        };
        if length > max_body_bytes {
            return Ok(ReadOutcome::Bad(format!(
                "body of {length} bytes exceeds the {max_body_bytes}-byte cap"
            )));
        }
        let mut body = vec![0u8; length];
        if let Err(e) = reader.read_exact(&mut body) {
            return Ok(if e.kind() == std::io::ErrorKind::UnexpectedEof {
                ReadOutcome::Bad(format!(
                    "content-length mismatch: declared {length} bytes, stream ended early"
                ))
            } else {
                return Err(e);
            });
        }
        request.body = body;
    }
    Ok(ReadOutcome::Request(request))
}

/// Whether `b` may appear in a header name, an RFC 9110 §5.6.2 `token`.
fn is_tchar(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    }
}

/// Writes one JSON response, with explicit framing so keep-alive works.
///
/// # Errors
///
/// Io errors writing to the stream (the caller drops the connection).
pub fn write_response(
    out: &mut impl Write,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{}",
        status,
        reason(status),
        body.len(),
        connection,
        body
    )?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read(raw: &str) -> ReadOutcome {
        read_request(&mut Cursor::new(raw.as_bytes().to_vec()), 1 << 20).unwrap()
    }

    #[test]
    fn parses_a_post_with_body_and_keep_alive() {
        let raw =
            "POST /v1/plan HTTP/1.1\r\nHost: x\r\nX-Tenant: acme\r\nContent-Length: 4\r\n\r\nabcd";
        let ReadOutcome::Request(req) = read(raw) else {
            panic!("expected a request");
        };
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/plan");
        assert_eq!(req.header("x-tenant"), Some("acme"));
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let ReadOutcome::Request(req) = read("GET / HTTP/1.1\r\nConnection: close\r\n\r\n") else {
            panic!("expected a request");
        };
        assert!(!req.keep_alive());
        let ReadOutcome::Request(req) = read("GET / HTTP/1.0\r\n\r\n") else {
            panic!("expected a request");
        };
        assert!(!req.keep_alive(), "HTTP/1.0 defaults to close");
    }

    #[test]
    fn malformed_inputs_are_bad_not_errors() {
        for raw in [
            "GARBAGE\r\n\r\n",
            "GET / SPDY/3\r\n\r\n",
            "GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "GET / HTTP/1.1\r\nContent-Length: wat\r\n\r\n",
            "GET / HTTP/1.1\r\nContent-Length: +0\r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
            "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            assert!(matches!(read(raw), ReadOutcome::Bad(_)), "raw {raw:?}");
        }
    }

    #[test]
    fn short_body_is_a_content_length_mismatch() {
        let ReadOutcome::Bad(msg) = read("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc") else {
            panic!("expected Bad");
        };
        assert!(msg.contains("content-length mismatch"), "{msg}");
    }

    #[test]
    fn oversized_body_is_refused_without_reading_it() {
        let raw = "POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
        let ReadOutcome::Bad(msg) =
            read_request(&mut Cursor::new(raw.as_bytes().to_vec()), 1024).unwrap()
        else {
            panic!("expected Bad");
        };
        assert!(msg.contains("exceeds the 1024-byte cap"), "{msg}");
    }

    #[test]
    fn clean_eof_is_closed() {
        assert!(matches!(read(""), ReadOutcome::Closed));
    }

    #[test]
    fn responses_frame_with_content_length() {
        let mut out = Vec::new();
        write_response(&mut out, 200, r#"{"ok":true}"#, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"), "{text}");
    }
}
