//! On-disk framing: file naming and the CRC32+length record format.
//!
//! # Files
//!
//! A store directory holds two kinds of files:
//!
//! * `seg-NNNNNN.log` — one per journal segment, records appended as
//!   the engine flushes. Segment `0` is genesis; segment `N >= 1` is
//!   anchored by checkpoint `N`.
//! * `ckpt-NNNNNN.ckpt` — the checkpoint anchoring segment `N`, a
//!   single record written via temp-file + `fsync` + atomic rename.
//!
//! `*.tmp` files are in-flight checkpoint writes; recovery ignores
//! them (an interrupted checkpoint was never acknowledged).
//!
//! # Records
//!
//! Every file is a sequence of length-framed, checksummed records:
//!
//! ```text
//! ┌──────────────┬──────────────────┬───────────────┐
//! │ u32 BE: len  │ u32 BE: crc32    │ len payload   │
//! │  of payload  │  of the payload  │ bytes (UTF-8) │
//! └──────────────┴──────────────────┴───────────────┘
//! ```
//!
//! The CRC is [`realloc_core::crc::crc32`] (IEEE, zlib-compatible). A
//! record whose header is short, whose length exceeds
//! [`MAX_RECORD_BYTES`], whose payload is cut off, or whose checksum
//! mismatches is *invalid*; [`RecordReader`] reports the byte offset of
//! the first invalid record so recovery can decide between torn-tail
//! truncation (last segment) and a hard corruption error (anywhere
//! else).

use realloc_core::crc::crc32;

/// Cap on one record's payload. Checkpoint snapshots dominate record
/// size; 256 MiB is far above any honest snapshot and small enough to
/// reject a corrupt length prefix before allocating.
pub const MAX_RECORD_BYTES: u32 = 256 * 1024 * 1024;

/// Canonical segment file name (`seg-000042.log`).
pub fn segment_file_name(index: u64) -> String {
    format!("seg-{index:06}.log")
}

/// Canonical checkpoint file name (`ckpt-000042.ckpt`).
pub fn checkpoint_file_name(index: u64) -> String {
    format!("ckpt-{index:06}.ckpt")
}

/// What a directory entry is, per the canonical naming scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// `seg-NNNNNN.log`
    Segment(u64),
    /// `ckpt-NNNNNN.ckpt`
    Checkpoint(u64),
    /// `*.tmp` — an interrupted checkpoint write; ignored.
    Temp,
    /// Anything else — recovery refuses to guess.
    Unknown,
}

/// Classifies a file name. Only *canonical* names count (zero-padded to
/// six digits): `seg-1.log` and `seg-000001.log` naming the same index
/// from two files would be undetectable corruption, so non-canonical
/// spellings are [`FileKind::Unknown`].
pub fn classify(name: &str) -> FileKind {
    if name.ends_with(".tmp") {
        return FileKind::Temp;
    }
    let parse = |prefix: &str, suffix: &str| -> Option<u64> {
        let digits = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
        if digits.len() < 6 || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        digits.parse().ok()
    };
    // Canonical spelling is enforced by re-deriving the name: a
    // non-canonical spelling (`seg-0000017.log`) parses to an index
    // whose canonical name differs, and is rejected.
    if let Some(i) = parse("seg-", ".log") {
        if segment_file_name(i) == name {
            return FileKind::Segment(i);
        }
    }
    if let Some(i) = parse("ckpt-", ".ckpt") {
        if checkpoint_file_name(i) == name {
            return FileKind::Checkpoint(i);
        }
    }
    FileKind::Unknown
}

/// The 8-byte header that frames `payload`: length, then CRC.
fn header_of(payload: &[u8]) -> [u8; 8] {
    assert!(
        payload.len() <= MAX_RECORD_BYTES as usize,
        "record payload exceeds MAX_RECORD_BYTES"
    );
    let mut header = [0; 8];
    header[..4].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_be_bytes());
    header
}

/// Appends one framed record to `buf`.
pub fn append_record(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&header_of(payload));
    buf.extend_from_slice(payload);
}

/// One framed record built in place, in a buffer that outlives it: the
/// payload text is written straight behind an 8-byte header placeholder
/// and the length and CRC are patched in once it is complete — the bytes
/// [`append_record`] would produce, without a payload `String` and a
/// frame `Vec` per record. The store frames every chunk it appends
/// through one of these (the append runs under the engine lock).
#[derive(Debug, Default)]
pub struct RecordBuf {
    bytes: Vec<u8>,
}

impl RecordBuf {
    /// Frames the text `write` produces as one record and returns the
    /// framed bytes, valid until the next call. The buffer's capacity is
    /// kept from call to call.
    pub fn frame(&mut self, write: impl FnOnce(&mut String)) -> &[u8] {
        self.bytes.clear();
        let mut text =
            String::from_utf8(std::mem::take(&mut self.bytes)).expect("an empty buffer is UTF-8");
        text.push_str("\0\0\0\0\0\0\0\0");
        write(&mut text);
        self.bytes = text.into_bytes();
        let (header, payload) = self.bytes.split_at_mut(8);
        header.copy_from_slice(&header_of(payload));
        &self.bytes
    }
}

/// Why a record failed to decode (the reader stops at the first).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordFault {
    /// Fewer than 8 header bytes remain.
    ShortHeader,
    /// The length prefix exceeds [`MAX_RECORD_BYTES`].
    OversizedLength(u32),
    /// The payload runs past the end of the file.
    ShortPayload {
        /// Bytes the length prefix promised.
        want: u32,
        /// Bytes actually present.
        have: usize,
    },
    /// Checksum mismatch.
    BadCrc {
        /// CRC the header recorded.
        want: u32,
        /// CRC of the payload as read.
        got: u32,
    },
}

impl std::fmt::Display for RecordFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordFault::ShortHeader => write!(f, "short record header"),
            RecordFault::OversizedLength(n) => {
                write!(f, "record length {n} exceeds the {MAX_RECORD_BYTES} cap")
            }
            RecordFault::ShortPayload { want, have } => {
                write!(f, "record payload cut off: {have} of {want} bytes")
            }
            RecordFault::BadCrc { want, got } => {
                write!(
                    f,
                    "record checksum mismatch: header {want:#010x}, payload {got:#010x}"
                )
            }
        }
    }
}

/// Sequential reader over a file's framed records.
#[derive(Debug)]
pub struct RecordReader<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> RecordReader<'a> {
    /// Reads `bytes` from the start.
    pub fn new(bytes: &'a [u8]) -> RecordReader<'a> {
        RecordReader { bytes, offset: 0 }
    }

    /// Byte offset of the next (unread) record — after the final `Ok`
    /// this is the file's valid length; after an `Err` it is the offset
    /// of the first invalid record (the torn-tail truncation point).
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The next record's payload, `Ok(None)` at a clean end of file,
    /// or the fault that stops decoding (`offset()` then points at the
    /// faulty record's first byte).
    pub fn next_record(&mut self) -> Result<Option<&'a [u8]>, RecordFault> {
        let rest = &self.bytes[self.offset..];
        if rest.is_empty() {
            return Ok(None);
        }
        if rest.len() < 8 {
            return Err(RecordFault::ShortHeader);
        }
        let len = u32::from_be_bytes(rest[0..4].try_into().expect("4 bytes"));
        let want_crc = u32::from_be_bytes(rest[4..8].try_into().expect("4 bytes"));
        if len > MAX_RECORD_BYTES {
            return Err(RecordFault::OversizedLength(len));
        }
        let body = &rest[8..];
        if body.len() < len as usize {
            return Err(RecordFault::ShortPayload {
                want: len,
                have: body.len(),
            });
        }
        let payload = &body[..len as usize];
        let got = crc32(payload);
        if got != want_crc {
            return Err(RecordFault::BadCrc {
                want: want_crc,
                got,
            });
        }
        self.offset += 8 + len as usize;
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_offsets() {
        let mut buf = Vec::new();
        append_record(&mut buf, b"alpha");
        append_record(&mut buf, b"");
        append_record(&mut buf, b"beta beta");
        let mut r = RecordReader::new(&buf);
        assert_eq!(r.next_record().unwrap(), Some(&b"alpha"[..]));
        assert_eq!(r.next_record().unwrap(), Some(&b""[..]));
        assert_eq!(r.next_record().unwrap(), Some(&b"beta beta"[..]));
        assert_eq!(r.next_record().unwrap(), None);
        assert_eq!(r.offset(), buf.len());
    }

    #[test]
    fn a_record_built_in_place_is_the_appended_record_byte_for_byte() {
        let mut buf = RecordBuf::default();
        // Longest first: the reused buffer must not leak an old tail.
        for payload in ["b 7\n+ 0 1 2 3 ok 0 0\n- 1 9 ok 2 1\n", "E 1 2\n", ""] {
            let mut want = Vec::new();
            append_record(&mut want, payload.as_bytes());
            assert_eq!(buf.frame(|text| text.push_str(payload)), want);
        }
    }

    #[test]
    fn truncation_at_every_byte_yields_a_valid_prefix_boundary() {
        let mut buf = Vec::new();
        append_record(&mut buf, b"first");
        append_record(&mut buf, b"second record");
        let boundaries = [0, 8 + 5, 8 + 5 + 8 + 13];
        for cut in 0..buf.len() {
            let mut r = RecordReader::new(&buf[..cut]);
            let mut valid = 0;
            while let Ok(Some(_)) = r.next_record() {
                valid = r.offset();
            }
            assert!(
                boundaries.contains(&valid),
                "cut {cut} recovered non-boundary {valid}"
            );
            assert!(valid <= cut);
        }
    }

    #[test]
    fn bad_crc_is_detected() {
        let mut buf = Vec::new();
        append_record(&mut buf, b"payload");
        buf[10] ^= 0x40; // flip a payload bit
        let mut r = RecordReader::new(&buf);
        assert!(matches!(r.next_record(), Err(RecordFault::BadCrc { .. })));
        assert_eq!(r.offset(), 0);
    }

    #[test]
    fn file_names_are_canonical() {
        assert_eq!(classify("seg-000000.log"), FileKind::Segment(0));
        assert_eq!(classify("ckpt-000017.ckpt"), FileKind::Checkpoint(17));
        assert_eq!(classify("ckpt-000017.ckpt.tmp"), FileKind::Temp);
        assert_eq!(classify("seg-17.log"), FileKind::Unknown);
        assert_eq!(classify("seg-0000017.log"), FileKind::Unknown);
        assert_eq!(classify("notes.txt"), FileKind::Unknown);
        assert_eq!(
            classify(&segment_file_name(1234567)),
            FileKind::Segment(1234567)
        );
    }
}
