//! Hostile bytes for the HTTP framing: `read_request` over generated
//! well-formed requests, arbitrary byte streams and conflicting
//! `Content-Length` headers, delivered in arbitrary chunk sizes.

use ccs_gateway::{read_request, ReadOutcome};
use proptest::prelude::*;
use std::io::{BufRead, Read};

/// The body cap every read here runs under.
const MAX_BODY: usize = 256;

/// A `BufRead` that hands out `bytes` in the chunk sizes `sizes` (cycled),
/// as a socket delivers split writes.
struct Chunked {
    bytes: Vec<u8>,
    sizes: Vec<usize>,
    pos: usize,
    /// End of the chunk being handed out.
    limit: usize,
    turn: usize,
}

impl Chunked {
    fn new(bytes: Vec<u8>, sizes: Vec<usize>) -> Self {
        Chunked {
            bytes,
            sizes,
            pos: 0,
            limit: 0,
            turn: 0,
        }
    }
}

impl Read for Chunked {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let chunk = self.fill_buf()?;
        let n = chunk.len().min(out.len());
        out[..n].copy_from_slice(&chunk[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Chunked {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos == self.limit {
            let size = self.sizes[self.turn % self.sizes.len()];
            self.turn += 1;
            self.limit = (self.pos + size).min(self.bytes.len());
        }
        Ok(&self.bytes[self.pos..self.limit])
    }

    fn consume(&mut self, n: usize) {
        assert!(self.pos + n <= self.limit, "consumed past the chunk");
        self.pos += n;
    }
}

/// What `read_request` must report for one generated request.
#[derive(Debug, PartialEq)]
struct Parsed {
    method: String,
    path: String,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    http11: bool,
}

const METHODS: [&str; 4] = ["GET", "POST", "PUT", "DELETE"];
const NAMES: [&str; 6] = [
    "Host",
    "X-Tenant",
    "Authorization",
    "Accept",
    "Connection",
    "X-Trace-Id",
];

/// One generated request: `(method, path bytes, HTTP/1.1?, headers, body)`,
/// each header `(name, value bytes, uppercase name?)`.
type Spec = (u8, Vec<u8>, bool, Vec<(u8, Vec<u8>, bool)>, Vec<u8>);

fn arb_request() -> impl Strategy<Value = Spec> {
    (
        0u8..4,
        proptest::collection::vec(any::<u8>(), 0..12),
        any::<bool>(),
        proptest::collection::vec(
            (
                0u8..6,
                proptest::collection::vec(any::<u8>(), 0..16),
                any::<bool>(),
            ),
            0..5,
        ),
        proptest::collection::vec(any::<u8>(), 0..64),
    )
}

/// The wire bytes of `spec` and what they must parse to. Header values are
/// printable ASCII with interior spaces; the parser trims the ends.
fn render(spec: &Spec) -> (Vec<u8>, Parsed) {
    let (method, path, http11, headers, body) = spec;
    let method = METHODS[*method as usize].to_string();
    let path: String = std::iter::once('/')
        .chain(path.iter().map(|&b| {
            let alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789/-_.";
            alphabet[b as usize % alphabet.len()] as char
        }))
        .collect();
    let version = if *http11 { "HTTP/1.1" } else { "HTTP/1.0" };
    let mut wire = format!("{method} {path} {version}\r\n");
    let mut expected = Vec::new();
    for (name, value, upper) in headers {
        let name = NAMES[*name as usize];
        let value: String = value
            .iter()
            .map(|&b| {
                if b % 8 == 0 {
                    ' '
                } else {
                    (b'!' + b % 94) as char
                }
            })
            .collect();
        let sent = if *upper {
            name.to_ascii_uppercase()
        } else {
            name.to_string()
        };
        wire.push_str(&format!("{sent}: {value}\r\n"));
        expected.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    if !body.is_empty() || method == "POST" {
        wire.push_str(&format!("Content-Length: {}\r\n", body.len()));
        expected.push(("content-length".to_string(), body.len().to_string()));
    }
    wire.push_str("\r\n");
    let mut bytes = wire.into_bytes();
    bytes.extend_from_slice(body);
    let parsed = Parsed {
        method,
        path,
        headers: expected,
        body: body.clone(),
        http11: *http11,
    };
    (bytes, parsed)
}

/// Expands `(kind, byte, len)` pieces into a byte stream of HTTP-shaped
/// fragments: request lines, header lines (`Content-Length` among them, with
/// valid, signed and out-of-range values), line ends, runs of one byte and
/// raw bytes.
fn stream(pieces: &[(u8, u8, usize)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for &(kind, byte, len) in pieces {
        match kind {
            0 => bytes.extend_from_slice(b"\r\n"),
            1 => bytes.extend_from_slice(b"POST /v1/plan HTTP/1.1\r\n"),
            2 => bytes.extend_from_slice(format!("Content-Length: {len}\r\n").as_bytes()),
            3 => bytes.extend_from_slice(format!("Content-Length: +{len}\r\n").as_bytes()),
            4 => bytes.extend_from_slice(b"Content-Length: 99999999999999999999999\r\n"),
            5 => bytes.extend_from_slice(b"X-Tenant: a\r\n"),
            6 => bytes.extend(std::iter::repeat_n(byte, len)),
            _ => bytes.push(byte),
        }
    }
    bytes
}

/// Header names are RFC 9110 tokens: a tab before the colon would frame
/// a bodiless request and smuggle its body bytes into the next one, and a
/// tab-led continuation line would become a header named `\tfolded`.
#[test]
fn header_names_that_are_not_tokens_are_bad() {
    for raw in [
        "POST /v1/plan HTTP/1.1\r\nContent-Length\t: 5\r\n\r\nhelloGET /healthz HTTP/1.1\r\n\r\n",
        "GET /healthz HTTP/1.1\r\nX-Tenant: a\r\n\tfolded: b\r\n\r\n",
        "GET /healthz HTTP/1.1\r\nX-Ten(ant): a\r\n\r\n",
        "GET /healthz HTTP/1.1\r\nX-Ten\u{e9}: a\r\n\r\n",
    ] {
        let mut reader = Chunked::new(raw.as_bytes().to_vec(), vec![7]);
        let outcome = read_request(&mut reader, MAX_BODY).expect("in-memory reads cannot fail");
        assert!(
            matches!(outcome, ReadOutcome::Bad(_)),
            "{raw:?} was accepted"
        );
    }
    // Every tchar is accepted in a name.
    let raw = "GET /healthz HTTP/1.1\r\n!#$%&'*+-.^_`|~09azAZ: a\r\n\r\n";
    let mut reader = Chunked::new(raw.as_bytes().to_vec(), vec![7]);
    match read_request(&mut reader, MAX_BODY).expect("in-memory reads cannot fail") {
        ReadOutcome::Request(req) => {
            assert_eq!(req.header("!#$%&'*+-.^_`|~09azaz"), Some("a"));
        }
        _ => panic!("a token name was refused"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn well_formed_requests_round_trip_under_any_split(
        specs in proptest::collection::vec(arb_request(), 1..4),
        sizes in proptest::collection::vec(1usize..=17, 1..6),
    ) {
        let mut bytes = Vec::new();
        let mut expected = Vec::new();
        for spec in &specs {
            let (wire, parsed) = render(spec);
            bytes.extend(wire);
            expected.push(parsed);
        }
        let mut reader = Chunked::new(bytes, sizes);
        for want in expected {
            match read_request(&mut reader, MAX_BODY).expect("in-memory reads cannot fail") {
                ReadOutcome::Request(req) => {
                    let got = Parsed {
                        method: req.method,
                        path: req.path,
                        headers: req.headers,
                        body: req.body,
                        http11: req.http11,
                    };
                    prop_assert_eq!(got, want);
                }
                ReadOutcome::Closed => prop_assert!(false, "closed before {want:?}"),
                ReadOutcome::Bad(msg) => prop_assert!(false, "{msg} for {want:?}"),
            }
        }
        prop_assert!(matches!(read_request(&mut reader, MAX_BODY), Ok(ReadOutcome::Closed)));
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_every_read_returns(
        pieces in proptest::collection::vec((0u8..8, any::<u8>(), 0usize..=40), 0..24),
        sizes in proptest::collection::vec(1usize..=17, 1..6),
    ) {
        let bytes = stream(&pieces);
        let total = bytes.len();
        let mut reader = Chunked::new(bytes, sizes);
        let mut calls = 0;
        loop {
            calls += 1;
            // Every request consumes at least its request line, so a
            // stream of `total` bytes ends within `total + 1` reads.
            prop_assert!(calls <= total + 1, "more reads than bytes");
            match read_request(&mut reader, MAX_BODY).expect("in-memory reads cannot fail") {
                ReadOutcome::Request(req) => prop_assert!(req.body.len() <= MAX_BODY),
                ReadOutcome::Closed | ReadOutcome::Bad(_) => break,
            }
        }
    }

    #[test]
    fn repeated_or_signed_content_length_is_bad(
        length in 0usize..40,
        other in 0usize..40,
        kind in 0u8..5,
        upper in any::<bool>(),
        sizes in proptest::collection::vec(1usize..=17, 1..6),
    ) {
        let name = if upper { "CONTENT-LENGTH" } else { "content-length" };
        let framing = match kind {
            0 => format!("{name}: +{length}\r\n"),
            1 => format!("{name}: -{length}\r\n"),
            2 => format!("{name}: {length}\r\nX-Tenant: a\r\n{name}: {other}\r\n"),
            3 => format!("{name}: {length}\r\n{name}: {length}\r\n"),
            _ => format!("{name}: {length}, {length}\r\n"),
        };
        // A body of the first declared length follows, so a parser that
        // took the first value would frame a request.
        let mut bytes = format!("POST /v1/plan HTTP/1.1\r\nHost: x\r\n{framing}\r\n").into_bytes();
        bytes.extend(std::iter::repeat_n(b'x', length));
        bytes.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
        let mut reader = Chunked::new(bytes, sizes);
        let outcome = read_request(&mut reader, MAX_BODY).expect("in-memory reads cannot fail");
        prop_assert!(matches!(outcome, ReadOutcome::Bad(_)), "{framing:?} was accepted");
    }
}
