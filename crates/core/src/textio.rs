//! A line-oriented text format for request sequences, so workloads can be
//! saved, shared and replayed reproducibly (`realloc-cli` consumes it).
//!
//! Format — one request per line, `#` comments and blank lines ignored:
//!
//! ```text
//! # id arrival deadline
//! + 17 4 12      # INSERTJOB  j17, window [4, 12)
//! - 17           # DELETEJOB  j17
//! ```

use crate::job::JobId;
use crate::request::{Request, RequestSeq};
use crate::window::Window;
use std::fmt::Write as _;

/// A parse failure, with the offending line number (1-based).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The shared line discipline of every text format in this workspace:
/// the content of one raw line with any `#` comment stripped and
/// surrounding whitespace trimmed (empty ⇒ the line carries nothing).
pub fn line_content(raw: &str) -> &str {
    raw.split('#').next().unwrap_or("").trim()
}

/// Serializes a request sequence to the text format.
pub fn to_text(seq: &RequestSeq) -> String {
    let mut out = String::with_capacity(seq.len() * 16);
    out.push_str("# realloc-sched request sequence: '+ id arrival deadline' / '- id'\n");
    for r in seq.iter() {
        match *r {
            Request::Insert { id, window } => {
                writeln!(out, "+ {} {} {}", id.0, window.start(), window.end()).unwrap();
            }
            Request::Delete { id } => {
                writeln!(out, "- {}", id.0).unwrap();
            }
        }
    }
    out
}

/// Parses the text format back into a request sequence.
pub fn from_text(text: &str) -> Result<RequestSeq, ParseError> {
    let mut seq = RequestSeq::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let content = line_content(raw);
        if content.is_empty() {
            continue;
        }
        let mut parts = content.split_whitespace();
        let op = parts.next().expect("non-empty line has a token");
        let err = |message: String| ParseError { line, message };
        let mut num = |what: &str| -> Result<u64, ParseError> {
            parts
                .next()
                .ok_or_else(|| err(format!("missing {what}")))?
                .parse::<u64>()
                .map_err(|e| err(format!("bad {what}: {e}")))
        };
        match op {
            "+" => {
                let id = num("id")?;
                let arrival = num("arrival")?;
                let deadline = num("deadline")?;
                if deadline <= arrival {
                    return Err(err(format!(
                        "deadline {deadline} must exceed arrival {arrival}"
                    )));
                }
                seq.push(Request::Insert {
                    id: JobId(id),
                    window: Window::new(arrival, deadline),
                });
            }
            "-" => {
                let id = num("id")?;
                seq.push(Request::Delete { id: JobId(id) });
            }
            other => {
                return Err(err(format!("unknown op '{other}' (expected '+' or '-')")));
            }
        }
        // Trailing garbage is an error — silently ignoring it hides typos.
        if let Some(extra) = parts.next() {
            return Err(ParseError {
                line,
                message: format!("unexpected trailing token '{extra}'"),
            });
        }
    }
    Ok(seq)
}

/// Writes one length-prefixed frame — a `u32` big-endian byte count
/// followed by the payload bytes — to `w`. The framing primitive of the
/// cluster layer's TCP transport: the text protocols in this workspace
/// are line-oriented, and a length prefix lets a stream reader recover
/// whole documents (multi-line frames, embedded snapshots) without
/// in-band escaping.
pub fn write_frame<W: std::io::Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "frame payload of {} bytes exceeds the u32 length prefix",
                payload.len()
            ),
        )
    })?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)
}

/// Reads one length-prefixed frame written by [`write_frame`]. Returns
/// `Ok(None)` on a clean end-of-stream (EOF at a frame boundary); EOF
/// anywhere inside a frame, length prefix included, or a declared
/// length above `max_len` (a corrupted or hostile prefix would otherwise
/// drive an unbounded allocation), is an error.
pub fn read_frame<R: std::io::Read>(r: &mut R, max_len: u32) -> std::io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    match r.read_exact(&mut prefix[..1]) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    r.read_exact(&mut prefix[1..])?;
    let mut payload = vec![0u8; frame_len(prefix, max_len)?];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// The payload length `prefix` declares, refused above `max_len`: the
/// cap check of [`read_frame`] and [`crate::net::FrameConn`].
pub(crate) fn frame_len(prefix: [u8; 4], max_len: u32) -> std::io::Result<usize> {
    let len = u32::from_be_bytes(prefix);
    if len > max_len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_len}-byte cap"),
        ));
    }
    Ok(len as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_io_round_trips_and_rejects_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"world, multi\nline").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, 1 << 20).unwrap().as_deref(),
            Some(&b"hello"[..])
        );
        assert_eq!(
            read_frame(&mut r, 1 << 20).unwrap().as_deref(),
            Some(&b""[..])
        );
        assert_eq!(
            read_frame(&mut r, 1 << 20).unwrap().as_deref(),
            Some(&b"world, multi\nline"[..])
        );
        assert_eq!(read_frame(&mut r, 1 << 20).unwrap(), None);

        // Oversized declared length is an error, not an allocation.
        let mut r = &[0xFFu8, 0xFF, 0xFF, 0xFF, 0][..];
        assert!(read_frame(&mut r, 1 << 20).is_err());
        // EOF mid-frame is an error, not a silent truncation.
        let mut partial = Vec::new();
        write_frame(&mut partial, b"full payload").unwrap();
        partial.truncate(7);
        let mut r = &partial[..];
        assert!(read_frame(&mut r, 1 << 20).is_err());
        // So is EOF inside the length prefix.
        let mut r = &[0u8, 0][..];
        let err = read_frame(&mut r, 1 << 20).expect_err("a truncated prefix");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn round_trip() {
        let mut seq = RequestSeq::new();
        seq.insert(1, Window::new(0, 8))
            .insert(2, Window::new(3, 5))
            .delete(1)
            .insert(3, Window::new(100, 1 << 40));
        let text = to_text(&seq);
        let back = from_text(&text).unwrap();
        assert_eq!(back.requests(), seq.requests());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "\n# header\n+ 1 0 4  # inline comment\n\n- 1\n";
        let seq = from_text(text).unwrap();
        assert_eq!(seq.len(), 2);
        seq.validate().unwrap();
    }

    #[test]
    fn bad_lines_are_located() {
        for (text, line) in [
            ("+ 1 0", 1),
            ("\n* 1 0 4", 2),
            ("+ 1 4 4", 1),
            ("+ 1 0 4 9", 1),
            ("- x", 1),
        ] {
            let e = from_text(text).unwrap_err();
            assert_eq!(e.line, line, "input {text:?}");
        }
    }

    #[test]
    fn empty_input_is_empty_sequence() {
        assert!(from_text("").unwrap().is_empty());
        assert!(from_text("# only comments\n").unwrap().is_empty());
    }
}
