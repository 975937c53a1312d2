//! The replication primary: a serving [`Engine`] that tails its own
//! journal into a sequence-numbered, term-fenced frame stream.
//!
//! The primary does not own a transport — it *produces* frames
//! ([`Primary::flush`], [`Primary::poll`], [`Primary::checkpoint`],
//! [`Primary::bootstrap`]) and the embedder pushes them into whatever
//! [`crate::transport::FrameSink`]s its replicas sit behind. That keeps
//! the replication logic a pure function of engine + journal state, so
//! the differential tests can drive it deterministically.
//!
//! The frames themselves come from the crate's one producer,
//! `FrameStream` (`stream.rs`). What `Primary` adds is *ownership* of
//! the engine, and with it the right to mutate: it flushes, resizes,
//! rebalances and checkpoints, then hands the engine to the stream to
//! turn what the journal recorded into frames. Owning the write path is
//! also why its [`Primary::bootstrap`] and [`Primary::checkpoint`] can
//! act as **flush barriers** — they flush a non-empty queue themselves,
//! where [`crate::JournalRelay`], which only borrows a serving tier's
//! engine, has to refuse with `ClusterError::QueuedRequests`.

use crate::frame::Frame;
use crate::stream::FrameStream;
use crate::ClusterError;
use realloc_core::Request;
use realloc_engine::{BatchReport, Engine, ResizeError, ResizeReport};
use realloc_telemetry::Telemetry;

/// Frames of replicated history a stream retains for lagging-replica
/// catch-up before falling back to a snapshot bootstrap.
pub const DEFAULT_HISTORY_FRAMES: usize = 4096;

/// The streaming side of a replicated engine; see the module docs.
#[derive(Debug)]
pub struct Primary {
    engine: Engine,
    stream: FrameStream,
}

impl Primary {
    /// Wraps a journaled engine as the replication primary at `term`
    /// (terms start at 1; a promoted replica picks its observed term
    /// plus one). The stream starts at the engine's *current* state —
    /// history already in the journal is covered by the bootstrap
    /// snapshot, not re-shipped.
    pub fn new(engine: Engine, term: u64) -> Result<Primary, ClusterError> {
        let stream = FrameStream::new(&engine, term, 1)?;
        Ok(Primary { engine, stream })
    }

    /// Wraps an engine **recovered from durable storage**
    /// (`Engine::recover_from_dir` via `realloc_store`, or any
    /// journal-replay restart) as a fresh primary at `term`, pre-seeding
    /// the stream so replicas bootstrap from the recovered checkpoint.
    ///
    /// Where [`Primary::new`] starts the stream at the journal's end
    /// (all history folded into future full-snapshot bootstraps), this
    /// constructor anchors it at the journal's **latest checkpoint**:
    /// the post-checkpoint tail is stamped as stream frames `1..` and a
    /// synthetic `(seq 0, events_before)` check anchor is installed, so
    /// [`Primary::bootstrap`] ships the (already durable, typically
    /// much smaller) checkpoint snapshot plus the tail — the O(tail)
    /// path — instead of serializing a fresh full snapshot of the
    /// recovered state. A journal with no checkpoint yet degrades to
    /// exactly [`Primary::new`] semantics.
    pub fn from_recovered(engine: Engine, term: u64) -> Result<Primary, ClusterError> {
        let mut primary = Self::new(engine, term)?;
        primary.stream.anchor_at_checkpoint(&primary.engine);
        Ok(primary)
    }

    /// Attaches a telemetry registry: the wrapped engine gets its full
    /// instrument set ([`Engine::attach_telemetry`]) and the streaming
    /// side adds `cluster_term` / `cluster_next_seq` gauges, per-payload
    /// frame counters, and checkpoint/bootstrap production timings. A
    /// disabled handle detaches both layers.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.engine.attach_telemetry(telemetry);
        self.stream.attach_telemetry(telemetry);
    }

    /// Promotion constructor: resumes the stream of a replica's engine
    /// at `next_seq` under a bumped term. The cursor starts at the end
    /// of the engine's journal — everything in it was applied from the
    /// old stream and must not be re-shipped.
    pub(crate) fn resume(engine: Engine, term: u64, next_seq: u64) -> Primary {
        let stream = FrameStream::new(&engine, term, next_seq)
            .expect("replica engines are journaled and a bumped term is nonzero");
        Primary { engine, stream }
    }

    /// Sets the catch-up history cap (frames retained for
    /// [`Primary::frames_since`]).
    pub fn with_history_cap(mut self, cap: usize) -> Primary {
        self.stream.set_history_cap(cap);
        self
    }

    /// The wrapped engine (reads: metrics, placements, validation).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable engine access for operations this wrapper does not
    /// mirror. Anything that lands in the journal (flushes, resizes) is
    /// picked up by the next [`Primary::poll`]; do **not** checkpoint
    /// the engine directly — journal truncation can outrun the stream
    /// cursor and force a full re-bootstrap of every replica (use
    /// [`Primary::checkpoint`], which polls first).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Consumes the primary, handing back the engine (demotion).
    pub fn into_engine(self) -> Engine {
        self.engine
    }

    /// This primary's fencing term.
    pub fn term(&self) -> u64 {
        self.stream.term()
    }

    /// Sequence number the next stream frame will carry.
    pub fn next_seq(&self) -> u64 {
        self.stream.next_seq()
    }

    /// Enqueues a request (raw id space, as [`Engine::submit`]).
    pub fn submit(&mut self, request: Request) {
        self.engine.submit(request);
    }

    /// Flushes the engine and returns the batch report together with the
    /// replication frames the flush produced (broadcast them to every
    /// attached replica, in order).
    ///
    /// An idle tick (nothing queued) is a **no-op** returning an empty
    /// report: an empty engine flush would bump the flush counter —
    /// state that is part of the digested snapshot — while producing no
    /// frame to ship, silently desyncing every replica's digest.
    pub fn flush(&mut self) -> (BatchReport, Vec<Frame>) {
        if self.engine.queued() == 0 {
            return (BatchReport::default(), Vec::new());
        }
        let report = self.engine.flush();
        (report, self.poll())
    }

    /// Resizes the engine online and returns the frames carrying the
    /// epoch change (plus any events still unshipped before it).
    pub fn resize(&mut self, shards: usize) -> Result<(ResizeReport, Vec<Frame>), ResizeError> {
        let report = self.engine.resize(shards)?;
        Ok((report, self.poll()))
    }

    /// Rebalances (tenant isolation) and returns the frames, when the
    /// engine decided to act.
    pub fn rebalance(&mut self) -> Result<Option<(ResizeReport, Vec<Frame>)>, ResizeError> {
        Ok(self.engine.rebalance()?.map(|report| (report, self.poll())))
    }

    /// Checkpoints the engine (snapshot into the journal, truncate old
    /// segments) and returns the frames to broadcast: any still-unshipped
    /// events, then a `check` marker carrying the state digest. Replicas
    /// verify the digest and cut their own local checkpoints at the
    /// marker.
    pub fn checkpoint(&mut self) -> Vec<Frame> {
        let started = self.stream.now_nanos();
        // Ship everything recorded so far *before* truncation can drop
        // it, including the flush `Engine::checkpoint` performs on a
        // non-empty queue.
        if self.engine.queued() > 0 {
            self.engine.flush();
        }
        let mut frames = self.poll();
        self.engine.checkpoint();
        frames.extend(self.poll());
        frames.push(self.stream.check_marker(&self.engine, started));
        frames
    }

    /// Turns every journal record past the stream cursor into frames
    /// (one `events` frame per recorded batch, one `epoch` frame per
    /// resize). Normally empty-handed only right after a flush has been
    /// polled; called internally by [`Primary::flush`] and friends.
    ///
    /// If the cursor's history was truncated out from under the stream
    /// (an [`Engine::checkpoint`] issued directly on
    /// [`Primary::engine_mut`]), the stream re-anchors every replica: a
    /// stamped snapshot frame carrying the latest checkpoint, then the
    /// post-checkpoint tail as ordinary frames.
    pub fn poll(&mut self) -> Vec<Frame> {
        self.stream.poll(&self.engine)
    }

    /// A snapshot frame bootstrapping a **new** replica, preceded by any
    /// frames still owed to the existing stream (broadcast those to the
    /// already-attached replicas first — the snapshot covers them, so
    /// the joiner must not see them again).
    ///
    /// When the journal's latest checkpoint is still fully covered by
    /// the retained frame history, the bootstrap ships that *checkpoint*
    /// snapshot plus the history tail instead of a fresh full snapshot —
    /// the new replica catches up from the checkpoint in O(tail),
    /// exercising exactly the engine's recovery path.
    pub fn bootstrap(&mut self) -> (Vec<Frame>, Vec<Frame>) {
        // The flush barrier: a snapshot must not be cut over pending
        // queues (see `FrameStream::bootstrap`). Its frames ship to the
        // existing stream with the rest of what is owed.
        if self.engine.queued() > 0 {
            self.engine.flush();
        }
        let (owed, snapshot, tail) = self.stream.bootstrap(&self.engine);
        let mut frames = vec![snapshot];
        frames.extend(tail);
        (owed, frames)
    }

    /// Retained stream frames with sequence numbers past `last_seq`, for
    /// catching up a lagging but already-bootstrapped replica. `None`
    /// when this primary cannot serve the position — the history no
    /// longer reaches back that far, **or** `last_seq` is *ahead* of
    /// this primary's stream (the replica followed a lineage this
    /// primary never saw; only a re-bootstrap can reconcile it) — fall
    /// back to [`Primary::bootstrap`].
    pub fn frames_since(&self, last_seq: u64) -> Option<Vec<Frame>> {
        self.stream.frames_since(last_seq)
    }
}
