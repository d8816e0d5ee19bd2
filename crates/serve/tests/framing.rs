//! Hostile bytes for the JSONL framing: `read_line_capped` against a
//! reference split on `\n`, over arbitrary byte streams delivered in
//! arbitrary chunk sizes.

use ccs_serve::server::{read_line_capped, LineRead};
use proptest::prelude::*;
use std::io::{BufRead, Read};

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

/// One line's read result, comparable.
#[derive(Debug, PartialEq)]
enum Framed {
    Line(String),
    TooLong(usize),
}

/// What the framing must report: one entry per `\n`-terminated line, plus
/// the unterminated tail if it is not empty.
fn reference(bytes: &[u8], cap: usize) -> Vec<Framed> {
    let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    let tail = lines.pop().expect("split yields at least one piece");
    if !tail.is_empty() {
        lines.push(tail);
    }
    lines
        .into_iter()
        .map(|line| {
            if line.len() <= cap {
                Framed::Line(String::from_utf8_lossy(line).into_owned())
            } else {
                Framed::TooLong(line.len())
            }
        })
        .collect()
}

/// Expands `(kind, byte, len)` pieces into a byte stream: newlines, runs of
/// one printable byte (up to twice the largest cap, so runs outrun the
/// cap), invalid UTF-8 and a valid two-byte character.
fn stream(pieces: &[(u8, u8, usize)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for &(kind, byte, len) in pieces {
        match kind {
            0 => bytes.push(b'\n'),
            1 => bytes.extend(std::iter::repeat_n(b'a' + byte % 26, len)),
            2 => bytes.extend_from_slice(&[0xFF, 0xC3, 0x28, 0x80][..1 + usize::from(byte % 4)]),
            _ => bytes.extend_from_slice("é".as_bytes()),
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn capped_reads_match_a_plain_split(
        pieces in proptest::collection::vec((0u8..4, any::<u8>(), 0usize..=128), 0..24),
        sizes in proptest::collection::vec(1usize..=17, 1..6),
        cap in 1usize..=64,
    ) {
        let bytes = stream(&pieces);
        let mut reader = Chunked { bytes: bytes.clone(), sizes, pos: 0, limit: 0, turn: 0 };
        let mut got = Vec::new();
        loop {
            match read_line_capped(&mut reader, cap).expect("in-memory reads cannot fail") {
                LineRead::Line(line) => got.push(Framed::Line(line)),
                LineRead::TooLong(n) => got.push(Framed::TooLong(n)),
                LineRead::Eof => break,
            }
            prop_assert!(got.len() <= bytes.len() + 1, "more reads than bytes");
        }
        prop_assert_eq!(got, reference(&bytes, cap));
        // End of stream stays the end of stream.
        prop_assert!(matches!(read_line_capped(&mut reader, cap), Ok(LineRead::Eof)));
    }
}
