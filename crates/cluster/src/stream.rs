//! [`FrameStream`]: the one producer of the replication frame stream.
//!
//! A stream is a position in a journaled engine's journal plus the
//! bookkeeping that turns the records past it into sequence-numbered,
//! term-fenced [`Frame`]s. Which events make a batch is the journal's
//! call: [`realloc_engine::Journal::records_since`] walks whole batches
//! and epoch records, and each becomes one frame as it stands (the
//! event and epoch text inside a frame comes from the journal's line
//! writers too). The journal's checkpoints are in the stream as well:
//! where the walk reaches a checkpoint the stream has not covered yet,
//! it stamps a `check` marker carrying that checkpoint's digest, and
//! the marker becomes the anchor of O(tail) replica bootstrap. What the
//! stream owns is the stamp — term, the next sequence number, the
//! batch's trace annotation — a bounded history of recent frames for
//! lagging-replica catch-up, and that anchor. It never owns the engine
//! — every method that reads one takes it by reference, and
//! [`crate::JournalRelay`] hands it the engine it locks.

use crate::frame::{Frame, Payload};
use crate::tele::PrimaryTele;
use crate::ClusterError;
use realloc_engine::{Engine, Journal, JournalCursor, JournalRecord};
use realloc_telemetry::{Severity, Telemetry};
use std::collections::VecDeque;

/// Frames of replicated history a stream retains for lagging-replica
/// catch-up before falling back to a snapshot bootstrap.
pub const DEFAULT_HISTORY_FRAMES: usize = 4096;

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
    /// [`Journal::checkpoint_number`] of the latest checkpoint the
    /// stream has covered: one it stamped a `check` for, shipped as a
    /// re-anchoring snapshot, or started behind. A newer one is due a
    /// `check` where the walk reaches it.
    covered: Option<u64>,
    /// `(seq, checkpoint number)` of the latest `check` anchor — the
    /// checkpoint a joiner can restore before the frames past `seq`.
    anchor: Option<(u64, u64)>,
    /// Streaming-side instruments ([`FrameStream::attach_telemetry`]).
    tele: Option<Box<PrimaryTele>>,
}

fn journal_of(engine: &Engine) -> &Journal {
    engine.journal().expect("stream engines are journaled")
}

impl FrameStream {
    /// A stream at `term` whose next frame carries `next_seq`, starting
    /// at the end of `engine`'s journal: history already recorded, its
    /// checkpoints included, is covered by the bootstrap snapshot, not
    /// re-shipped.
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
            history_cap: DEFAULT_HISTORY_FRAMES,
            covered: journal.checkpoint_number(),
            anchor: None,
            tele: None,
        })
    }

    /// Re-anchors a fresh stream at the journal's latest checkpoint, if
    /// it has one; see [`crate::JournalRelay::from_recovered`].
    pub(crate) fn anchor_at_checkpoint(&mut self, engine: &Engine) {
        let journal = journal_of(engine);
        let (Some(cursor), Some(number)) =
            (journal.checkpoint_cursor(), journal.checkpoint_number())
        else {
            return;
        };
        self.cursor = cursor;
        // The tail frames are NOT broadcast (there is no one attached
        // yet); they exist so `frames_since(0)` can serve them behind
        // the anchor. A tail longer than the history cap evicts its
        // head, in which case bootstrap falls back to a full snapshot —
        // correct, just not O(tail). The checkpoint is covered since
        // `new`, so the walk stamps no marker for it.
        let _tail = self.poll(engine);
        self.anchor = Some((0, number));
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

    /// Turns every journal record past the stream cursor into frames:
    /// one `events` frame per recorded batch, one `epoch` frame per
    /// resize, and one `check` marker at the latest checkpoint when the
    /// stream has not covered it yet. A cursor whose history a
    /// checkpoint truncated away re-anchors every replica — the latest
    /// checkpoint as a stamped snapshot frame (which covers it: no
    /// marker), then the post-checkpoint tail. That snapshot holds no
    /// pending queues (`Engine::checkpoint` flushes before it cuts), so
    /// the recovery needs no flush of its own.
    pub(crate) fn poll(&mut self, engine: &Engine) -> Vec<Frame> {
        let journal = journal_of(engine);
        let latest = journal.checkpoint_number();
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
            self.covered = latest;
        }
        // A checkpoint cut since the last poll lies at or past the
        // cursor; its marker goes where the walk reaches it — after the
        // records cut before it (epochs recorded at its position
        // included), before any recorded after it.
        let mut check_at = (latest != self.covered)
            .then(|| journal.checkpoint_cursor())
            .flatten();
        self.covered = latest;
        let mut records = journal.records_since(cursor).into_iter().flatten();
        loop {
            let record = records.next();
            if let Some(at) = check_at {
                let before_it =
                    matches!(record, Some(JournalRecord::Epoch(r)) if r.epoch <= at.last_epoch);
                if cursor.events_seen == at.events_seen && !before_it {
                    payloads.push(check_of(journal));
                    check_at = None;
                }
            }
            let Some(record) = record else { break };
            cursor.advance(&record);
            payloads.push(match record {
                JournalRecord::Batch(events) => Payload::Events(events.to_vec()),
                JournalRecord::Epoch(rec) => Payload::Epoch(rec.clone()),
            });
        }
        self.cursor = cursor;
        payloads
            .into_iter()
            .map(|p| self.stamp(engine, p))
            .collect()
    }

    /// What a **new** replica needs ([`crate::JournalRelay::bootstrap`]):
    /// the frames still owed to the existing stream, then the joiner's
    /// snapshot frame. When a `check` anchor is still served by the
    /// history, the snapshot is that checkpoint's, stamped at the
    /// marker's seq, and the joiner catches up with
    /// [`FrameStream::frames_since`]`(snapshot.seq)` — O(tail).
    /// Otherwise it is a fresh snapshot at the last shipped seq.
    ///
    /// The engine must have nothing queued: a snapshot cut over pending
    /// queues hands them to the joiner, and the events frame of the
    /// flush that services them would then be rejected ("locally queued
    /// requests would be swept into the recorded batch").
    pub(crate) fn bootstrap(&mut self, engine: &Engine) -> (Vec<Frame>, Frame) {
        debug_assert_eq!(engine.queued(), 0);
        let t0 = self.tele.as_ref().map_or(0, |t| t.t.now_nanos());
        let owed = self.poll(engine);
        let snapshot = self
            .checkpoint_bootstrap(engine)
            .unwrap_or_else(|| self.snapshot_frame(engine));
        if let Some(tele) = &self.tele {
            let took = tele.t.now_nanos().saturating_sub(t0);
            tele.bootstrap_nanos.record(took);
            // Joiner bootstrap snapshots bypass `stamp` (they are not
            // stream frames); count the shipment here.
            tele.frames_snapshot.inc();
            let frames = self.next_seq - snapshot.seq;
            tele.t.point(Severity::Info, "bootstrap", frames, took);
        }
        (owed, snapshot)
    }

    /// The O(tail) bootstrap snapshot. Guarded by the checkpoint number
    /// so a checkpoint the stream covered without a marker (a
    /// re-anchoring snapshot) can never mis-anchor a joiner.
    fn checkpoint_bootstrap(&self, engine: &Engine) -> Option<Frame> {
        let (seq, number) = self.anchor?;
        self.frames_since(seq)?;
        let journal = journal_of(engine);
        let cp = journal.latest_checkpoint()?;
        (journal.checkpoint_number() == Some(number)).then(|| Frame {
            term: self.term,
            seq,
            payload: Payload::Snapshot {
                events_applied: cp.events_before,
                text: cp.snapshot.clone(),
            },
            trace: None,
        })
    }

    /// Current-state snapshot frame anchored at the last shipped seq.
    fn snapshot_frame(&self, engine: &Engine) -> Frame {
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

    /// See [`crate::JournalRelay::frames_since`].
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
    /// replica's `apply` event lands in the same trace. A `check`
    /// marker becomes the bootstrap anchor.
    fn stamp(&mut self, engine: &Engine, payload: Payload) -> Frame {
        let seq = self.next_seq;
        if let Some(tele) = &self.tele {
            match &payload {
                Payload::Events(_) => tele.frames_events.inc(),
                Payload::Epoch(_) => tele.frames_epoch.inc(),
                Payload::Check { .. } => {
                    tele.frames_check.inc();
                    tele.t.point(Severity::Info, "ship_checkpoint", seq, 0);
                }
                Payload::Snapshot { .. } => tele.frames_snapshot.inc(),
            }
            tele.next_seq.set(seq + 1);
            tele.term.set(self.term);
        }
        let trace = match &payload {
            Payload::Events(events) => events.first().and_then(|e| engine.trace_of_batch(e.batch)),
            _ => None,
        };
        if let Payload::Check { .. } = payload {
            // Only the latest checkpoint is ever due a marker.
            self.anchor = self.covered.map(|number| (seq, number));
        }
        let frame = Frame {
            term: self.term,
            seq,
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

/// The `check` marker for `journal`'s latest checkpoint: the events it
/// covers and the digest of the snapshot text it recorded — the
/// engine's state digest at the cut, without serializing it again.
fn check_of(journal: &Journal) -> Payload {
    let cp = journal
        .latest_checkpoint()
        .expect("a check is due only at a checkpoint");
    Payload::Check {
        events_applied: cp.events_before,
        digest: realloc_core::snapshot::digest64(&cp.snapshot),
    }
}
