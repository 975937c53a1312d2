//! [`FrameStream`]: the one producer of the replication frame stream.
//!
//! A stream is a position in a journaled engine's journal plus the
//! bookkeeping that turns the records past it into sequence-numbered,
//! term-fenced [`Frame`]s. Which events make a batch is the journal's
//! call: [`realloc_engine::Journal::records_since`] walks whole batches
//! and epoch records, and each becomes one frame as it stands (the
//! event and epoch text inside a frame comes from the journal's line
//! writers too). What the stream owns is the stamp — term, the next
//! sequence number, the batch's trace annotation — a bounded history of
//! recent frames for lagging-replica catch-up, and the anchor of the
//! latest `check` marker. It never owns the engine — every method that
//! reads one takes it by reference — so the two public wrappers differ
//! only in how they hold theirs: [`crate::Primary`] owns it,
//! [`crate::JournalRelay`] locks a shared one.

use crate::frame::{Frame, Payload};
use crate::tele::PrimaryTele;
use crate::ClusterError;
use realloc_engine::{Engine, JournalCursor, JournalRecord};
use realloc_telemetry::{Severity, Telemetry};
use std::collections::VecDeque;

/// See the module docs.
#[derive(Debug)]
pub(crate) struct FrameStream {
    term: u64,
    /// Sequence number the next stream frame will carry.
    next_seq: u64,
    /// Journal position already turned into frames.
    cursor: JournalCursor,
    /// Recent stream frames, oldest first (bounded by `history_cap`).
    history: VecDeque<Frame>,
    history_cap: usize,
    /// `(seq, events_before)` of the latest `check` marker frame, if any
    /// — the anchor for checkpoint-based (O(tail)) replica bootstrap.
    last_check: Option<(u64, u64)>,
    /// Streaming-side instruments ([`FrameStream::attach_telemetry`]).
    tele: Option<Box<PrimaryTele>>,
}

fn journal_of(engine: &Engine) -> &realloc_engine::Journal {
    engine.journal().expect("stream engines are journaled")
}

impl FrameStream {
    /// A stream at `term` whose next frame carries `next_seq`, starting
    /// at the end of `engine`'s journal: history already recorded is
    /// covered by the bootstrap snapshot, not re-shipped.
    pub(crate) fn new(
        engine: &Engine,
        term: u64,
        next_seq: u64,
    ) -> Result<FrameStream, ClusterError> {
        if term == 0 {
            return Err(ClusterError::BadTerm);
        }
        let Some(journal) = engine.journal() else {
            return Err(ClusterError::JournalDisabled);
        };
        Ok(FrameStream {
            term,
            next_seq,
            cursor: JournalCursor::at_end_of(journal),
            history: VecDeque::new(),
            history_cap: crate::primary::DEFAULT_HISTORY_FRAMES,
            last_check: None,
            tele: None,
        })
    }

    /// Re-anchors a fresh stream at the journal's latest checkpoint, if
    /// it has one; see [`crate::Primary::from_recovered`].
    pub(crate) fn anchor_at_checkpoint(&mut self, engine: &Engine) {
        let journal = journal_of(engine);
        let (Some(cursor), Some(cp)) = (journal.checkpoint_cursor(), journal.latest_checkpoint())
        else {
            return;
        };
        self.cursor = cursor;
        // The tail frames are NOT broadcast (there is no one attached
        // yet); they exist so `frames_since(0)` can serve them behind
        // the anchor. A tail longer than the history cap evicts its
        // head, in which case bootstrap falls back to a full snapshot —
        // correct, just not O(tail).
        let _tail = self.poll(engine);
        self.last_check = Some((0, cp.events_before));
    }

    pub(crate) fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.tele = PrimaryTele::build(telemetry);
        if let Some(tele) = &self.tele {
            tele.term.set(self.term);
            tele.next_seq.set(self.next_seq);
        }
    }

    pub(crate) fn set_history_cap(&mut self, cap: usize) {
        self.history_cap = cap;
        self.trim_history();
    }

    pub(crate) fn term(&self) -> u64 {
        self.term
    }

    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The attached registry's clock (0 without one), for a timing that
    /// starts in a wrapper ([`FrameStream::check_marker`]).
    pub(crate) fn now_nanos(&self) -> u64 {
        self.tele.as_ref().map_or(0, |t| t.t.now_nanos())
    }

    /// Turns every journal record past the stream cursor into frames:
    /// one `events` frame per recorded batch, one `epoch` frame per
    /// resize. A cursor whose history a checkpoint truncated away
    /// re-anchors every replica — the latest checkpoint as a stamped
    /// snapshot frame, then the post-checkpoint tail. That snapshot holds
    /// no pending queues (`Engine::checkpoint` flushes before it cuts),
    /// so the recovery needs no flush of its own.
    pub(crate) fn poll(&mut self, engine: &Engine) -> Vec<Frame> {
        let journal = journal_of(engine);
        let mut cursor = self.cursor;
        let mut payloads: Vec<Payload> = Vec::new();
        if journal.records_since(cursor).is_none() {
            // A snapshot stamped with `total_events()` but carrying
            // checkpoint-time text would silently diverge every
            // replica; pair the checkpoint snapshot with the event count
            // it covers and stream the tail recorded after it.
            match (journal.latest_checkpoint(), journal.checkpoint_cursor()) {
                (Some(cp), Some(at)) => {
                    payloads.push(Payload::Snapshot {
                        events_applied: cp.events_before,
                        text: cp.snapshot.clone(),
                    });
                    cursor = at;
                }
                // Truncation only happens through a checkpoint cut, so
                // landing here means the cursor never belonged to this
                // journal. A live snapshot is consistent with the
                // engine's own event count by construction.
                _ => {
                    payloads.push(self.snapshot_frame(engine).payload);
                    cursor = JournalCursor::at_end_of(journal);
                }
            }
        }
        if let Some(records) = journal.records_since(cursor) {
            for record in records {
                cursor.advance(&record);
                payloads.push(match record {
                    JournalRecord::Batch(events) => Payload::Events(events.to_vec()),
                    JournalRecord::Epoch(rec) => Payload::Epoch(rec.clone()),
                });
            }
        }
        self.cursor = cursor;
        payloads
            .into_iter()
            .map(|p| self.stamp(engine, p))
            .collect()
    }

    /// What a **new** replica needs ([`crate::Primary::bootstrap`]): the
    /// frames still owed to the existing stream, the joiner's snapshot
    /// frame, and the stream frames to apply after it (empty unless the
    /// snapshot is a checkpoint's).
    ///
    /// The engine must have nothing queued: a snapshot cut over pending
    /// queues hands them to the joiner, and the events frame of the
    /// flush that services them would then be rejected ("locally queued
    /// requests would be swept into the recorded batch"). Each wrapper
    /// guarantees that its own way before calling.
    pub(crate) fn bootstrap(&mut self, engine: &Engine) -> (Vec<Frame>, Frame, Vec<Frame>) {
        debug_assert_eq!(engine.queued(), 0);
        let t0 = self.now_nanos();
        let owed = self.poll(engine);
        let (snapshot, tail) = self
            .checkpoint_bootstrap(engine)
            .unwrap_or_else(|| (self.snapshot_frame(engine), Vec::new()));
        if let Some(tele) = &self.tele {
            let took = tele.t.now_nanos().saturating_sub(t0);
            tele.bootstrap_nanos.record(took);
            // Joiner bootstrap snapshots bypass `stamp` (they are not
            // stream frames); count the shipment here.
            tele.frames_snapshot.inc();
            tele.t
                .point(Severity::Info, "bootstrap", 1 + tail.len() as u64, took);
        }
        (owed, snapshot, tail)
    }

    /// The O(tail) bootstrap. Guarded by the recorded event count so a
    /// checkpoint cut behind the stream's back can never mis-anchor a
    /// joiner.
    fn checkpoint_bootstrap(&self, engine: &Engine) -> Option<(Frame, Vec<Frame>)> {
        let (check_seq, check_events) = self.last_check?;
        let tail = self.frames_since(check_seq)?;
        let cp = journal_of(engine).latest_checkpoint()?;
        (cp.events_before == check_events).then(|| {
            let snapshot = Frame {
                term: self.term,
                seq: check_seq,
                payload: Payload::Snapshot {
                    events_applied: cp.events_before,
                    text: cp.snapshot.clone(),
                },
                trace: None,
            };
            (snapshot, tail)
        })
    }

    /// Current-state snapshot frame anchored at the last shipped seq.
    pub(crate) fn snapshot_frame(&self, engine: &Engine) -> Frame {
        Frame {
            term: self.term,
            seq: self.next_seq - 1,
            payload: Payload::Snapshot {
                events_applied: journal_of(engine).total_events(),
                text: realloc_core::snapshot::Restorable::snapshot_text(engine),
            },
            trace: None,
        }
    }

    /// Stamps the `check` marker for the checkpoint `engine` just cut
    /// and makes it the O(tail) bootstrap anchor. `started` is the
    /// [`FrameStream::now_nanos`] the caller read before it began.
    pub(crate) fn check_marker(&mut self, engine: &Engine, started: u64) -> Frame {
        let journal = journal_of(engine);
        let events_applied = journal.total_events();
        // The checkpoint just serialized the full engine snapshot into
        // the journal, and nothing has mutated digested state since —
        // hash that text instead of serializing a second identical copy.
        let digest = realloc_core::snapshot::digest64(
            &journal
                .latest_checkpoint()
                .expect("Engine::checkpoint just recorded one")
                .snapshot,
        );
        debug_assert_eq!(digest, engine.state_digest());
        let marker = self.stamp(
            engine,
            Payload::Check {
                events_applied,
                digest,
            },
        );
        self.last_check = Some((marker.seq, events_applied));
        if let Some(tele) = &self.tele {
            let took = tele.t.now_nanos().saturating_sub(started);
            tele.checkpoint_nanos.record(took);
            tele.t
                .point(Severity::Info, "ship_checkpoint", marker.seq, took);
        }
        marker
    }

    /// See [`crate::Primary::frames_since`].
    pub(crate) fn frames_since(&self, last_seq: u64) -> Option<Vec<Frame>> {
        if last_seq + 1 == self.next_seq {
            return Some(Vec::new()); // already caught up
        }
        if last_seq + 1 > self.next_seq {
            return None; // ahead of this lineage: re-bootstrap
        }
        let oldest = self.history.front()?.seq;
        if last_seq + 1 < oldest {
            return None; // evicted
        }
        Some(
            self.history
                .iter()
                .filter(|f| f.seq > last_seq)
                .cloned()
                .collect(),
        )
    }

    /// Stamps a stream payload with this term and the next sequence
    /// number, retaining it in the catch-up history. An `events` payload
    /// whose batch was traced ([`Engine::arm_trace`]) gets the
    /// batch's context as the frame's out-of-band annotation, so the
    /// replica's `apply` event lands in the same trace.
    fn stamp(&mut self, engine: &Engine, payload: Payload) -> Frame {
        if let Some(tele) = &self.tele {
            match &payload {
                Payload::Events(_) => tele.frames_events.inc(),
                Payload::Epoch(_) => tele.frames_epoch.inc(),
                Payload::Check { .. } => tele.frames_check.inc(),
                Payload::Snapshot { .. } => tele.frames_snapshot.inc(),
            }
            tele.next_seq.set(self.next_seq + 1);
            tele.term.set(self.term);
        }
        let trace = match &payload {
            Payload::Events(events) => events.first().and_then(|e| engine.trace_of_batch(e.batch)),
            _ => None,
        };
        let frame = Frame {
            term: self.term,
            seq: self.next_seq,
            payload,
            trace,
        };
        self.next_seq += 1;
        self.history.push_back(frame.clone());
        self.trim_history();
        frame
    }

    fn trim_history(&mut self) {
        while self.history.len() > self.history_cap {
            self.history.pop_front();
        }
    }
}
