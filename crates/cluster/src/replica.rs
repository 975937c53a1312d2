//! The replication replica: applies the primary's frame stream through
//! the engine's replay machinery, serves read-only queries, and can be
//! promoted to primary under a bumped fencing term.
//!
//! # Fencing
//!
//! A replica tracks the highest term it has seen. Frames whose term is
//! *behind* it are rejected ([`ApplyError::StaleTerm`]) — that is the
//! whole failover-safety argument: promotion bumps the term, replicas
//! adopt it on first contact, and the deposed primary's frames bounce
//! off everything from then on. Frames at a *higher* term are adopted
//! (a legitimately promoted peer took over).
//!
//! # Exactness
//!
//! Frames are applied through [`Engine::apply_recorded_batch`] /
//! [`Engine::apply_epoch_record`] — the same verified-replay path the
//! journal uses — so every recorded routing decision and outcome is
//! checked on the way in, and a replica that has applied the stream
//! through sequence `s` is **byte-identical** (snapshot text and
//! digest) to the primary as of `s`. Checkpoint markers re-verify that
//! continuously with an 8-byte digest, and cut a local journal
//! checkpoint so a replica's own crash recovery stays O(tail).

use crate::frame::{Frame, Payload};
use crate::relay::JournalRelay;
use crate::tele::ReplicaTele;
use crate::ClusterError;
use realloc_core::{JobId, Window};
use realloc_engine::{Engine, Metrics, ReplayError};
use realloc_telemetry::{Severity, Telemetry};

/// Why a frame was not applied. Everything here is a graceful rejection
/// — the replica never panics on wire input and stays consistent (a
/// rejected frame changes nothing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ApplyError {
    /// The frame's term is behind the replica's: a deposed primary.
    StaleTerm {
        /// Term the frame carried.
        frame: u64,
        /// Highest term the replica has seen.
        current: u64,
    },
    /// Sequence discontinuity: the stream lost or reordered frames. The
    /// replica needs `JournalRelay::frames_since(expected - 1)` or a fresh
    /// bootstrap.
    SequenceGap {
        /// Sequence the replica expected next.
        expected: u64,
        /// Sequence the frame carried.
        got: u64,
    },
    /// A stream frame arrived before any bootstrap snapshot.
    NotBootstrapped,
    /// This replica was promoted (or retired); it no longer applies.
    Retired,
    /// The payload was structurally unusable (corrupt snapshot text,
    /// invalid epoch table, malformed batch).
    Corrupt(String),
    /// Applying the payload produced a different outcome than the
    /// primary recorded — replica and primary have diverged.
    Diverged(String),
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::StaleTerm { frame, current } => write!(
                f,
                "fenced: frame term {frame} is behind the current term {current}"
            ),
            ApplyError::SequenceGap { expected, got } => {
                write!(f, "sequence gap: expected frame {expected}, got {got}")
            }
            ApplyError::NotBootstrapped => {
                write!(f, "stream frame before any bootstrap snapshot")
            }
            ApplyError::Retired => write!(f, "replica was promoted/retired"),
            ApplyError::Corrupt(m) => write!(f, "corrupt frame: {m}"),
            ApplyError::Diverged(m) => write!(f, "replica diverged from primary: {m}"),
        }
    }
}

impl std::error::Error for ApplyError {}

impl From<ReplayError> for ApplyError {
    fn from(e: ReplayError) -> Self {
        match e {
            ReplayError::Corrupt(p) => ApplyError::Corrupt(p.to_string()),
            ReplayError::Divergence(d) => ApplyError::Diverged(d.to_string()),
        }
    }
}

/// The applying side of a replicated engine; see the module docs.
#[derive(Debug, Default)]
pub struct Replica {
    /// `None` until the bootstrap snapshot lands (or after promotion).
    engine: Option<Engine>,
    /// Highest term seen (0: none yet).
    term: u64,
    /// Seq of the last applied frame.
    last_seq: u64,
    /// Events applied since genesis (mirrors the primary's count).
    events_applied: u64,
    /// Promotion/retirement latch.
    retired: bool,
    /// Applying-side instruments ([`Replica::attach_telemetry`]).
    tele: Option<Box<ReplicaTele>>,
}

impl Replica {
    /// An empty replica awaiting its bootstrap snapshot.
    pub fn new() -> Replica {
        Replica::default()
    }

    /// Attaches a telemetry registry: per-frame apply timing and
    /// applied/rejected counters, fencing-term gauges and change counts,
    /// digest-check and bootstrap durations — and, once a bootstrap
    /// snapshot restores an engine, that engine gets the registry too
    /// ([`Engine::attach_telemetry`], re-applied after every bootstrap).
    /// A disabled handle detaches.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.tele = ReplicaTele::build(telemetry);
        if let Some(engine) = self.engine.as_mut() {
            engine.attach_telemetry(telemetry);
        }
        if let Some(tele) = &self.tele {
            tele.term.set(self.term);
            tele.last_seq.set(self.last_seq);
            tele.events_applied.set(self.events_applied);
        }
    }

    /// Applies one frame. On error the replicated *state* is unchanged,
    /// with two deliberate exceptions: a higher **term** is adopted even
    /// from a rejected frame (observing a newer primary must fence the
    /// deposed one immediately), and after [`ApplyError::Diverged`] the
    /// replica must be re-bootstrapped — a half-applied divergent batch
    /// is not rolled back.
    pub fn apply(&mut self, frame: &Frame) -> Result<(), ApplyError> {
        // Take the instruments out so the apply body can borrow `self`;
        // the uninstrumented path is a single Option check.
        let Some(tele) = self.tele.take() else {
            return self.apply_inner(frame);
        };
        let t0 = tele.t.now_nanos();
        let prev_term = self.term;
        let result = self.apply_inner(frame);
        let took = tele.t.now_nanos().saturating_sub(t0);
        tele.apply_nanos.record(took);
        match (&frame.payload, &result) {
            (Payload::Check { .. }, Ok(())) => tele.digest_check_nanos.record(took),
            (Payload::Snapshot { .. }, Ok(())) => {
                tele.bootstrap_nanos.record(took);
                // The restored engine is brand new — instrument it.
                if let Some(engine) = self.engine.as_mut() {
                    engine.attach_telemetry(&tele.t);
                }
            }
            _ => {}
        }
        match &result {
            Ok(()) => {
                tele.frames_applied.inc();
                // The frame's out-of-band annotation joins this apply to
                // the originating request's trace: same id here as in
                // the primary's receipt/flush/fsync/ship events.
                if let Some(tc) = frame.trace {
                    tele.t
                        .point_in(tc, Severity::Debug, "apply", frame.seq, took);
                }
            }
            Err(e) => {
                tele.frames_rejected.inc();
                tele.t
                    .point(Severity::Warn, "frame_rejected", frame.term, frame.seq);
                // Divergence is the one non-recoverable rejection.
                if matches!(e, ApplyError::Diverged(_)) {
                    tele.t
                        .point(Severity::Warn, "diverged", frame.term, frame.seq);
                }
            }
        }
        if self.term != prev_term {
            tele.term_changes.inc();
            tele.t
                .point(Severity::Info, "term_adopted", self.term, frame.seq);
        }
        tele.term.set(self.term);
        tele.last_seq.set(self.last_seq);
        tele.events_applied.set(self.events_applied);
        self.tele = Some(tele);
        result
    }

    fn apply_inner(&mut self, frame: &Frame) -> Result<(), ApplyError> {
        if self.retired {
            return Err(ApplyError::Retired);
        }
        if frame.term < self.term {
            return Err(ApplyError::StaleTerm {
                frame: frame.term,
                current: self.term,
            });
        }
        // Adopt a higher term the moment it is OBSERVED, even when the
        // frame itself is then rejected (sequence gap, corrupt payload):
        // hearing from a newer primary must fence the deposed one
        // immediately, or a lagging replica stuck behind a gap would
        // keep accepting the dead lineage's contiguous frames —
        // split-brain reads. (Same rule as Raft's term adoption.)
        self.term = frame.term;
        match &frame.payload {
            Payload::Snapshot {
                events_applied,
                text,
            } => {
                // A snapshot re-anchors the stream wholesale; no seq
                // continuity to check (its seq IS the new position).
                let engine = Engine::restore_snapshot(text)
                    .map_err(|e| ApplyError::Corrupt(e.to_string()))?;
                if engine.journal().is_none() {
                    return Err(ApplyError::Corrupt(
                        "bootstrap snapshot has journaling disabled; replicas must journal"
                            .to_string(),
                    ));
                }
                self.engine = Some(engine);
                self.last_seq = frame.seq;
                self.events_applied = *events_applied;
                Ok(())
            }
            payload => {
                let Some(engine) = self.engine.as_mut() else {
                    return Err(ApplyError::NotBootstrapped);
                };
                let expected = self.last_seq + 1;
                if frame.seq != expected {
                    return Err(ApplyError::SequenceGap {
                        expected,
                        got: frame.seq,
                    });
                }
                match payload {
                    Payload::Events(events) => {
                        engine.apply_recorded_batch(events)?;
                        self.events_applied += events.len() as u64;
                    }
                    Payload::Epoch(rec) => engine.apply_epoch_record(rec)?,
                    Payload::Check {
                        events_applied,
                        digest,
                    } => {
                        if *events_applied != self.events_applied {
                            return Err(ApplyError::Diverged(format!(
                                "checkpoint marker covers {events_applied} events but the \
                                 replica applied {}",
                                self.events_applied
                            )));
                        }
                        // Cut the local checkpoint that keeps this
                        // replica's own recovery O(tail), then verify
                        // the snapshot text it recorded: one
                        // serialization, not two. A mismatch leaves the
                        // cut behind, but a diverged replica is
                        // re-bootstrapped anyway.
                        engine.checkpoint();
                        let local = realloc_core::snapshot::digest64(
                            &engine
                                .journal()
                                .and_then(|j| j.latest_checkpoint())
                                .expect("replica engines are journaled")
                                .snapshot,
                        );
                        if local != *digest {
                            return Err(ApplyError::Diverged(format!(
                                "state digest mismatch at seq {}: primary {digest:#x}, \
                                 replica {local:#x}",
                                frame.seq
                            )));
                        }
                    }
                    Payload::Snapshot { .. } => unreachable!("matched above"),
                }
                self.last_seq = frame.seq;
                Ok(())
            }
        }
    }

    /// Promotes this replica to primary under a bumped fencing term: a
    /// [`JournalRelay`] over the replicated engine (now shared, see
    /// [`JournalRelay::engine`]) that resumes the stream where the old
    /// primary's left off. The replica itself is retired: further
    /// [`Replica::apply`] calls — including late frames from the
    /// deposed primary — are rejected.
    pub fn promote(&mut self) -> Result<JournalRelay, ClusterError> {
        if self.retired {
            return Err(ClusterError::Retired);
        }
        let engine = self.engine.take().ok_or(ClusterError::NotBootstrapped)?;
        self.retired = true;
        Ok(JournalRelay::resume(
            engine,
            self.term + 1,
            self.last_seq + 1,
        ))
    }

    /// Whether the bootstrap snapshot has been applied.
    pub fn is_bootstrapped(&self) -> bool {
        self.engine.is_some()
    }

    /// Highest fencing term seen.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Sequence of the last applied frame.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Events applied since genesis.
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// The replicated engine, once bootstrapped (full read access).
    pub fn engine(&self) -> Option<&Engine> {
        self.engine.as_ref()
    }

    // ------------------------------------------------------------------
    // Read scaling: the query surface a replica serves.
    // ------------------------------------------------------------------

    /// Original window of an active job (read-only routing lookup).
    pub fn window_of(&self, id: JobId) -> Option<Window> {
        self.engine.as_ref()?.window_of(id)
    }

    /// Point-in-time telemetry snapshot, when bootstrapped.
    pub fn metrics(&self) -> Option<Metrics> {
        self.engine.as_ref().map(|e| e.metrics())
    }

    /// Jobs currently scheduled.
    pub fn active_count(&self) -> usize {
        self.engine.as_ref().map_or(0, |e| e.active_count())
    }

    /// Full engine invariant check ([`Engine::validate`]).
    pub fn validate(&self) -> Result<(), String> {
        match &self.engine {
            Some(e) => e.validate(),
            None => Err("replica not bootstrapped".to_string()),
        }
    }

    /// Stable digest of the replicated state ([`Engine::state_digest`]);
    /// `None` until bootstrapped.
    pub fn state_digest(&self) -> Option<u64> {
        self.engine.as_ref().map(|e| e.state_digest())
    }
}
