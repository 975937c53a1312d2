//! The replication frame: the unit of the primary → replica stream.
//!
//! Every frame carries a **fencing term** and a **sequence number**, then
//! one of four payloads:
//!
//! * `snapshot` — a full engine snapshot (`realloc_core::snapshot` v1
//!   framing, embedded verbatim). Bootstraps or re-bootstraps a replica;
//!   its `seq` anchors where the stream resumes (`seq + 1` is the next
//!   expected stream frame).
//! * `events` — one recorded flush: every journal event of a single
//!   batch, in service order, with the recorded outcomes.
//! * `epoch` — an elastic resize/rebalance: the complete new routing
//!   table, applied at this exact stream position.
//! * `check` — a checkpoint marker: the primary's since-genesis event
//!   count and state digest, so replicas verify non-divergence with 8
//!   bytes instead of a shipped snapshot (and checkpoint their own
//!   journals for O(tail) local recovery).
//!
//! # Text encoding
//!
//! One header line `R <term> <seq> <kind> …`, then the payload lines.
//! The format extends the journal's line discipline; a length-prefixed
//! byte frame (see `realloc_core::textio::write_frame`) carries it over
//! byte streams:
//!
//! ```text
//! R 1 0 snapshot 0 6812       # term 1, seq 0, 0 events applied,
//! # realloc snapshot v1       #   6812 verbatim snapshot lines follow
//! !begin engine
//! …
//! !end
//! R 1 1 events 3              # term 1, seq 1, 3 events of one batch
//! + 7 0 17 4 12 ok 1 0        # batch 7, shard 0: insert j17 → 1 realloc
//! + 7 2 21 4 12 ok 0 0
//! - 7 2 9 err unknown
//! R 1 2 epoch 1 6 7 5         # epoch 1: 6 shards, tenant 7 → shard 5
//! R 1 3 check 4 0x1badd00d    # 4 events since genesis, state digest
//! ```
//!
//! Every malformed-input class — truncated snapshot bodies, bad counts,
//! garbage kinds, invalid routing tables — parses to a located
//! [`ParseError`], never a panic: frames arrive over the network.

use realloc_core::snapshot::{embed, take_embedded};
use realloc_core::textio::{line_content as strip, ParseError};
use realloc_engine::{EpochRecord, JournalEvent};
use realloc_telemetry::TraceCtx;

/// Hard cap on one wire frame's byte length (shared by both ends of the
/// TCP transport). A snapshot frame's size is dominated by the embedded
/// engine snapshot, which is linear in active jobs; 256 MiB of text is
/// far beyond any deployment this engine serves, so a larger declared
/// length is treated as a corrupt or hostile prefix.
pub const MAX_FRAME_BYTES: u32 = 256 << 20;

/// What one frame carries; see the module docs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// Full engine snapshot; bootstraps or re-bootstraps a replica.
    Snapshot {
        /// Events since genesis covered by this snapshot.
        events_applied: u64,
        /// The snapshot document (`Restorable::snapshot_text`).
        text: String,
    },
    /// One recorded flush (all events share a batch number).
    Events(Vec<JournalEvent>),
    /// A routing-table change at this stream position.
    Epoch(EpochRecord),
    /// Checkpoint marker: verify state, anchor O(tail) catch-up.
    Check {
        /// Events since genesis at the marker.
        events_applied: u64,
        /// The primary's [`realloc_engine::Engine::state_digest`].
        digest: u64,
    },
}

/// One replication frame; see the module docs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Fencing term of the primary that emitted the frame. Replicas
    /// reject frames whose term is behind the highest they have seen,
    /// which is what makes failover safe: a deposed primary can keep
    /// streaming, but nothing accepts its frames.
    pub term: u64,
    /// Stream sequence number. Stream frames (`events`/`epoch`/`check`)
    /// are numbered contiguously; a `snapshot` frame carries the seq of
    /// the last stream frame its state covers.
    pub seq: u64,
    /// The payload.
    pub payload: Payload,
    /// Out-of-band causal trace annotation: the sampled request whose
    /// batch this frame ships. Encoded as a `# trace <id> <origin>`
    /// comment line after the payload — `line_content` strips comments,
    /// so the annotation is invisible to the payload grammar, never
    /// enters digested journal text, and its presence or absence cannot
    /// change replica state or digests. Replicas use it to record an
    /// `apply` event under the same trace id as the primary's spans.
    pub trace: Option<TraceCtx>,
}

impl Frame {
    /// Serializes to the text encoding (module docs).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(64);
        match &self.payload {
            Payload::Snapshot {
                events_applied,
                text,
            } => {
                let nlines = text.lines().count();
                writeln!(
                    out,
                    "R {} {} snapshot {events_applied} {nlines}",
                    self.term, self.seq
                )
                .unwrap();
                embed(&mut out, text);
            }
            Payload::Events(events) => {
                writeln!(out, "R {} {} events {}", self.term, self.seq, events.len()).unwrap();
                for e in events {
                    write!(out, "{} {} ", e.op(), e.batch).unwrap();
                    e.write_tail(&mut out);
                }
            }
            Payload::Epoch(rec) => {
                write!(out, "R {} {} epoch ", self.term, self.seq).unwrap();
                rec.write_tail(&mut out);
            }
            Payload::Check {
                events_applied,
                digest,
            } => {
                writeln!(
                    out,
                    "R {} {} check {events_applied} {digest:#x}",
                    self.term, self.seq
                )
                .unwrap();
            }
        }
        if let Some(tc) = &self.trace {
            // A comment line: stripped by the line discipline, so the
            // digested payload is byte-identical with or without it.
            writeln!(out, "# trace {} {}", tc.id, tc.origin_nanos).unwrap();
        }
        out
    }

    /// Parses one frame from its text encoding. Graceful [`ParseError`]s
    /// on every malformed-input class (module docs); trailing content
    /// after the payload is an error, not silently ignored.
    pub fn parse(text: &str) -> Result<Frame, ParseError> {
        let mut lines = text.lines().enumerate();
        let (header_idx, header) = lines
            .by_ref()
            .find(|(_, raw)| !strip(raw).is_empty())
            .ok_or(ParseError {
                line: 0,
                message: "empty frame".to_string(),
            })?;
        let line = header_idx + 1;
        let err = |message: String| ParseError { line, message };
        let content = strip(header);
        let mut parts = content.split_whitespace();
        if parts.next() != Some("R") {
            return Err(err(format!("frame must start with 'R', got '{content}'")));
        }
        let num = |tok: Option<&str>, what: &str| -> Result<u64, ParseError> {
            tok.ok_or_else(|| err(format!("missing {what}")))?
                .parse::<u64>()
                .map_err(|e| err(format!("bad {what}: {e}")))
        };
        let term = num(parts.next(), "term")?;
        let seq = num(parts.next(), "seq")?;
        if term == 0 {
            return Err(err("term 0 is reserved (terms start at 1)".to_string()));
        }
        let kind = parts
            .next()
            .ok_or_else(|| err("missing frame kind".to_string()))?;
        let payload = match kind {
            "snapshot" => {
                let events_applied = num(parts.next(), "events-applied count")?;
                let nlines = num(parts.next(), "snapshot line count")? as usize;
                finish(&mut parts, line)?;
                let mut body = lines.by_ref().map(|(_, raw)| raw);
                let text = take_embedded(&mut body, nlines)
                    .map_err(|why| err(format!("snapshot frame: {why}")))?;
                Payload::Snapshot {
                    events_applied,
                    text,
                }
            }
            "events" => {
                let n = num(parts.next(), "event count")? as usize;
                finish(&mut parts, line)?;
                if n == 0 {
                    return Err(err("events frame declares zero events".to_string()));
                }
                // The declared count is wire input: pre-size only up to
                // a small bound so a hostile count cannot drive a huge
                // (or overflowing) allocation before the payload lines
                // fail to materialize.
                let mut events = Vec::with_capacity(n.min(4096));
                let mut batch: Option<u64> = None;
                while events.len() < n {
                    let Some((i, raw)) = lines.next() else {
                        return Err(err(format!(
                            "events frame truncated: {} of {n} events present",
                            events.len()
                        )));
                    };
                    let content = strip(raw);
                    if content.is_empty() {
                        continue;
                    }
                    let event = parse_event(i + 1, content)?;
                    if *batch.get_or_insert(event.batch) != event.batch {
                        return Err(ParseError {
                            line: i + 1,
                            message: format!(
                                "events frame mixes batches {} and {}",
                                batch.expect("just inserted"),
                                event.batch
                            ),
                        });
                    }
                    events.push(event);
                }
                Payload::Events(events)
            }
            "epoch" => Payload::Epoch(EpochRecord::parse_tail(&mut parts, line)?),
            "check" => {
                let events_applied = num(parts.next(), "events-applied count")?;
                let digest_tok = parts
                    .next()
                    .ok_or_else(|| err("missing digest".to_string()))?;
                let digest = digest_tok
                    .strip_prefix("0x")
                    .ok_or_else(|| err(format!("digest '{digest_tok}' must be 0x-hex")))
                    .and_then(|hex| {
                        u64::from_str_radix(hex, 16)
                            .map_err(|e| err(format!("bad digest '{digest_tok}': {e}")))
                    })?;
                finish(&mut parts, line)?;
                Payload::Check {
                    events_applied,
                    digest,
                }
            }
            other => return Err(err(format!("unknown frame kind '{other}'"))),
        };
        // Comments after the payload may carry the out-of-band trace
        // annotation; anything non-comment is still trailing garbage.
        let mut trace = None;
        for (i, raw) in lines {
            if !strip(raw).is_empty() {
                return Err(ParseError {
                    line: i + 1,
                    message: format!("trailing content after the frame payload: '{}'", strip(raw)),
                });
            }
            if trace.is_none() {
                trace = parse_trace_comment(raw);
            }
        }
        Ok(Frame {
            term,
            seq,
            payload,
            trace,
        })
    }
}

/// Recognizes a `# trace <id> <origin>` annotation comment. Lenient by
/// design: a comment that isn't exactly this shape (or carries id 0,
/// the "untraced" sentinel) is an ordinary comment, never an error —
/// old peers must keep interoperating with annotated streams and vice
/// versa.
fn parse_trace_comment(raw: &str) -> Option<TraceCtx> {
    let comment = raw.trim_start().strip_prefix('#')?;
    let mut parts = comment.split_whitespace();
    if parts.next() != Some("trace") {
        return None;
    }
    let id = parts.next()?.parse::<u64>().ok().filter(|&id| id != 0)?;
    let origin_nanos = parts.next()?.parse::<u64>().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some(TraceCtx { id, origin_nanos })
}

fn finish(parts: &mut std::str::SplitWhitespace<'_>, line: usize) -> Result<(), ParseError> {
    match parts.next() {
        None => Ok(()),
        Some(extra) => Err(ParseError {
            line,
            message: format!("unexpected trailing token '{extra}'"),
        }),
    }
}

/// Parses one `events` payload line — the journal's event line with the
/// batch number framed in after the op:
/// `+ <batch> <shard> <id> <start> <end> <outcome>` /
/// `- <batch> <shard> <id> <outcome>`.
fn parse_event(line: usize, content: &str) -> Result<JournalEvent, ParseError> {
    let err = |message: String| ParseError { line, message };
    let mut parts = content.split_whitespace();
    let op = parts.next().expect("non-empty line has a token");
    let batch = parts
        .next()
        .ok_or_else(|| err("missing batch".to_string()))?
        .parse::<u64>()
        .map_err(|e| err(format!("bad batch: {e}")))?;
    JournalEvent::parse_tail(op, batch, &mut parts, line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use realloc_core::snapshot::SNAPSHOT_HEADER;
    use realloc_core::{JobId, Request, Window};
    use realloc_engine::journal::{Costs, ErrCode};

    fn round_trip(frame: Frame) {
        let text = frame.to_text();
        let back = Frame::parse(&text).unwrap_or_else(|e| panic!("parse {text:?}: {e}"));
        assert_eq!(back, frame);
    }

    #[test]
    fn frames_round_trip() {
        round_trip(Frame {
            term: 1,
            seq: 0,
            payload: Payload::Snapshot {
                events_applied: 42,
                text: format!("{SNAPSHOT_HEADER}\n!begin engine\nc 1 1 naive 0 1 4 0\n!end\n"),
            },
            trace: None,
        });
        round_trip(Frame {
            term: 3,
            seq: 17,
            payload: Payload::Events(vec![
                JournalEvent {
                    batch: 9,
                    shard: 2,
                    request: Request::Insert {
                        id: JobId(7),
                        window: Window::new(4, 12),
                    },
                    result: Ok(Costs {
                        reallocations: 1,
                        migrations: 0,
                    }),
                },
                JournalEvent {
                    batch: 9,
                    shard: 0,
                    request: Request::Delete { id: JobId(5) },
                    result: Err(ErrCode::Unknown),
                },
            ]),
            trace: None,
        });
        round_trip(Frame {
            term: 2,
            seq: 18,
            payload: Payload::Epoch(EpochRecord {
                epoch: 4,
                shards: 6,
                pins: vec![(7, 5)],
            }),
            trace: None,
        });
        round_trip(Frame {
            term: 2,
            seq: 19,
            payload: Payload::Check {
                events_applied: 12345,
                digest: 0xdead_beef_cafe_f00d,
            },
            trace: None,
        });
    }

    /// The out-of-band trace annotation round-trips on every payload
    /// kind — and, because it is a comment, its presence never changes
    /// the digested payload text.
    #[test]
    fn trace_annotation_round_trips_and_stays_out_of_band() {
        let tc = TraceCtx {
            id: 0xfeed_beef,
            origin_nanos: 123_456,
        };
        let events = Payload::Events(vec![JournalEvent {
            batch: 9,
            shard: 2,
            request: Request::Insert {
                id: JobId(7),
                window: Window::new(4, 12),
            },
            result: Ok(Costs {
                reallocations: 1,
                migrations: 0,
            }),
        }]);
        for payload in [
            events,
            Payload::Epoch(EpochRecord {
                epoch: 4,
                shards: 6,
                pins: vec![(7, 5)],
            }),
            Payload::Check {
                events_applied: 12,
                digest: 0xabc,
            },
            Payload::Snapshot {
                events_applied: 42,
                text: format!("{SNAPSHOT_HEADER}\n!begin engine\nc 1 1 naive 0 1 4 0\n!end\n"),
            },
        ] {
            let traced = Frame {
                term: 3,
                seq: 17,
                payload: payload.clone(),
                trace: Some(tc),
            };
            round_trip(traced.clone());
            let plain = Frame {
                trace: None,
                ..traced.clone()
            };
            // Annotated text = plain text + one comment line; stripping
            // comment lines recovers the plain encoding byte-for-byte.
            let annotated = traced.to_text();
            assert_eq!(
                annotated,
                format!("{}# trace {} {}\n", plain.to_text(), tc.id, tc.origin_nanos)
            );
            let stripped: String = annotated
                .lines()
                .filter(|l| !strip(l).is_empty() || payload_owns_line(&plain, l))
                .map(|l| format!("{l}\n"))
                .collect();
            assert_eq!(stripped, plain.to_text());
        }
    }

    /// Snapshot bodies keep comment lines verbatim; the filter above
    /// must not drop them when comparing encodings.
    fn payload_owns_line(frame: &Frame, line: &str) -> bool {
        match &frame.payload {
            Payload::Snapshot { text, .. } => text.lines().any(|l| l == line),
            _ => false,
        }
    }

    /// Malformed or unrelated comments are plain comments — never an
    /// error, never a bogus trace context (old and new peers mix).
    #[test]
    fn odd_comments_parse_as_untraced() {
        for text in [
            "R 1 2 check 0 0x0\n# just a comment\n",
            "R 1 2 check 0 0x0\n# trace\n",
            "R 1 2 check 0 0x0\n# trace banana 5\n",
            "R 1 2 check 0 0x0\n# trace 0 5\n",
            "R 1 2 check 0 0x0\n# trace 7 5 extra\n",
        ] {
            let frame = Frame::parse(text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
            assert_eq!(frame.trace, None, "{text:?}");
        }
        // The first well-formed annotation wins.
        let frame = Frame::parse("R 1 2 check 0 0x0\n# trace 7 5\n# trace 8 6\n").unwrap();
        assert_eq!(
            frame.trace,
            Some(TraceCtx {
                id: 7,
                origin_nanos: 5
            })
        );
    }

    #[test]
    fn malformed_frames_error_gracefully() {
        for (what, text) in [
            ("empty", ""),
            ("not a frame", "hello world\n"),
            ("term zero", "R 0 1 check 0 0x0\n"),
            ("bad term", "R x 1 check 0 0x0\n"),
            ("missing kind", "R 1 2\n"),
            ("unknown kind", "R 1 2 gossip 4\n"),
            ("events zero", "R 1 2 events 0\n"),
            (
                "events hostile count",
                "R 1 2 events 18446744073709551615\n+ 0 0 1 0 4 ok 0 0\n",
            ),
            ("events truncated", "R 1 2 events 2\n+ 0 0 1 0 4 ok 0 0\n"),
            (
                "events mixed batches",
                "R 1 2 events 2\n+ 0 0 1 0 4 ok 0 0\n+ 1 0 2 0 4 ok 0 0\n",
            ),
            ("event bad op", "R 1 2 events 1\n* 0 0 1 0 4 ok 0 0\n"),
            ("event bad window", "R 1 2 events 1\n+ 0 0 1 4 4 ok 0 0\n"),
            ("event bad outcome", "R 1 2 events 1\n+ 0 0 1 0 4 maybe\n"),
            ("event bad code", "R 1 2 events 1\n- 0 0 1 err nope\n"),
            ("event trailing", "R 1 2 events 1\n- 0 0 1 err unknown 9\n"),
            (
                "snapshot truncated",
                "R 1 0 snapshot 0 5\n# realloc snapshot v1\n",
            ),
            (
                "snapshot bad header",
                "R 1 0 snapshot 0 1\nnot a snapshot\n",
            ),
            ("epoch zero shards", "R 1 2 epoch 1 0\n"),
            ("epoch pins cover all", "R 1 2 epoch 1 1 7 0\n"),
            ("epoch pin out of range", "R 1 2 epoch 1 2 7 9\n"),
            ("epoch pin truncated", "R 1 2 epoch 1 4 7\n"),
            ("epoch pin duplicated", "R 1 2 epoch 1 4 7 1 7 2\n"),
            ("epoch pin tenant out of range", "R 1 2 epoch 1 4 70000 1\n"),
            ("check bad digest", "R 1 2 check 0 g00d\n"),
            ("check decimal digest", "R 1 2 check 0 123\n"),
            ("header trailing", "R 1 2 check 0 0x0 extra\n"),
            ("payload trailing", "R 1 2 check 0 0x0\nstray line\n"),
        ] {
            let e = Frame::parse(text);
            assert!(e.is_err(), "{what}: parsed {text:?} as {e:?}");
        }
    }
}
