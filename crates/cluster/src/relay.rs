//! [`JournalRelay`]: the replication primary — the frame stream of an
//! engine *shared* with a serving tier.
//!
//! A serving tier (`realloc_service::ServiceServer`) owns the engine
//! behind an `Arc<Mutex<_>>` so socket handlers can flush it
//! concurrently. The relay tails that shared engine's journal through
//! the crate's one producer, `FrameStream` (`stream.rs`), into the
//! sequence-numbered, term-fenced [`Frame`] stream: call
//! [`JournalRelay::poll`] after (or on a cadence around) flushes and
//! push the frames into any [`crate::transport::FrameSink`]. A
//! [`crate::ReplicationGroup`] does exactly that for N links, and
//! [`crate::Replica::promote`] hands back a relay over the promoted
//! engine.
//!
//! What the relay adds over the stream is the *lock*: every call takes
//! the engine mutex for its own duration and hands the guard's engine to
//! the stream. It never writes: whoever holds the engine flushes,
//! resizes and checkpoints it, and the next poll ships what the journal
//! recorded — a checkpoint as a `check` marker that replicas verify and
//! cut their own checkpoint at, and that anchors O(tail) bootstrap.
//! Because it never flushes, [`JournalRelay::bootstrap`] refuses with
//! [`ClusterError::QueuedRequests`] while requests sit queued.
//!
//! Because the journal is the stream, nothing is lost between polls:
//! whatever batches the service tier flushed since the last poll come
//! out as `events` frames in order, each carrying its batch's
//! out-of-band trace annotation when the flush was traced
//! ([`realloc_engine::Engine::arm_trace`]) — the causal chain
//! minted at the service edge survives the relay untouched.

use crate::frame::Frame;
use crate::stream::FrameStream;
use crate::ClusterError;
use realloc_engine::Engine;
use realloc_telemetry::Telemetry;
use std::sync::{Arc, Mutex, MutexGuard};

/// Tails a shared engine's journal into the replication frame stream;
/// see the module docs.
#[derive(Debug)]
pub struct JournalRelay {
    engine: Arc<Mutex<Engine>>,
    stream: FrameStream,
}

impl JournalRelay {
    /// Wraps a shared journaled engine as the stream source at `term`
    /// (terms start at 1; a promoted replica picks its observed term
    /// plus one). The stream starts at the engine's *current* journal
    /// position — prior history is covered by the bootstrap snapshot,
    /// not re-shipped.
    pub fn new(engine: Arc<Mutex<Engine>>, term: u64) -> Result<JournalRelay, ClusterError> {
        let stream = FrameStream::new(&lock(&engine), term, 1)?;
        Ok(JournalRelay { engine, stream })
    }

    /// Wraps an engine **recovered from durable storage**
    /// (`Engine::recover_from_dir` via `realloc_store`, or any
    /// journal-replay restart) at `term`, anchoring the stream at the
    /// journal's latest checkpoint: the post-checkpoint tail is stamped
    /// as stream frames `1..` behind a `(seq 0, checkpoint)` anchor, so
    /// [`JournalRelay::bootstrap`] ships the (already durable, typically
    /// much smaller) checkpoint snapshot and the joiner catches up with
    /// [`JournalRelay::frames_since`]`(0)` — O(tail) — instead of a
    /// fresh full snapshot of the recovered state. A journal with no
    /// checkpoint yet degrades to exactly [`JournalRelay::new`].
    pub fn from_recovered(
        engine: Arc<Mutex<Engine>>,
        term: u64,
    ) -> Result<JournalRelay, ClusterError> {
        let mut relay = Self::new(engine, term)?;
        relay.stream.anchor_at_checkpoint(&lock(&relay.engine));
        Ok(relay)
    }

    /// Promotion constructor: resumes the stream of a replica's engine
    /// at `next_seq` under a bumped term. The cursor starts at the end
    /// of the engine's journal — everything in it was applied from the
    /// old stream and must not be re-shipped.
    pub(crate) fn resume(engine: Engine, term: u64, next_seq: u64) -> JournalRelay {
        let stream = FrameStream::new(&engine, term, next_seq)
            .expect("replica engines are journaled and a bumped term is nonzero");
        JournalRelay {
            engine: Arc::new(Mutex::new(engine)),
            stream,
        }
    }

    /// The shared engine the relay tails: lock it to submit, flush,
    /// resize or checkpoint, then [`JournalRelay::poll`] the frames.
    pub fn engine(&self) -> &Arc<Mutex<Engine>> {
        &self.engine
    }

    /// Attaches the streaming-side instruments (`cluster_term`,
    /// `cluster_next_seq`, per-payload frame counters, bootstrap
    /// timing). The *engine's* instruments are the serving tier's to
    /// attach — the relay never re-wires a shared engine's telemetry.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.stream.attach_telemetry(telemetry);
    }

    /// Sets the catch-up history cap (frames retained for
    /// [`JournalRelay::frames_since`]).
    pub fn with_history_cap(mut self, cap: usize) -> JournalRelay {
        self.stream.set_history_cap(cap);
        self
    }

    /// This relay's fencing term.
    pub fn term(&self) -> u64 {
        self.stream.term()
    }

    /// Sequence number the next stream frame will carry.
    pub fn next_seq(&self) -> u64 {
        self.stream.next_seq()
    }

    /// Turns every journal record past the stream cursor into frames
    /// (broadcast them to every attached replica, in order): one
    /// `events` frame per flushed batch, one `epoch` frame per resize,
    /// and a `check` marker where the walk reaches a checkpoint cut
    /// since the last poll. A cursor that a checkpoint cut truncated
    /// away gets the latest checkpoint as a snapshot frame (stamped with
    /// the event count it covers), then the post-checkpoint tail, so
    /// replicas re-bootstrap without losing what was recorded after the
    /// cut.
    pub fn poll(&mut self) -> Vec<Frame> {
        let guard = lock(&self.engine);
        self.stream.poll(&guard)
    }

    /// A snapshot frame bootstrapping a **new** replica, preceded by any
    /// frames still owed to the existing stream (broadcast those to
    /// already-attached replicas first — the snapshot covers them, so
    /// the joiner must not see them again). After the snapshot the
    /// joiner needs [`JournalRelay::frames_since`]`(snapshot.seq)`:
    /// empty for a fresh snapshot, the tail behind it when the snapshot
    /// is the checkpoint a `check` marker anchors (O(tail)). A joiner
    /// that skips the tail fails its next frame with a typed
    /// `SequenceGap`, never silently.
    ///
    /// The relay never flushes the shared engine itself, and a snapshot
    /// cut while requests sit queued would hand the joiner those pending
    /// queues — the events frame of the flush that later services them
    /// would then be rejected. So bootstrap refuses with
    /// [`ClusterError::QueuedRequests`] when the engine has queued
    /// requests: flush (and poll the resulting frames) first.
    pub fn bootstrap(&mut self) -> Result<(Vec<Frame>, Frame), ClusterError> {
        let guard = lock(&self.engine);
        if guard.queued() > 0 {
            return Err(ClusterError::QueuedRequests);
        }
        Ok(self.stream.bootstrap(&guard))
    }

    /// Retained stream frames with sequence numbers past `last_seq`, for
    /// catching up a lagging but already-bootstrapped replica (or a
    /// joiner behind its bootstrap snapshot). `None` when the history no
    /// longer reaches back that far or `last_seq` is ahead of this
    /// stream (the replica followed a lineage this relay never saw) —
    /// fall back to [`JournalRelay::bootstrap`].
    pub fn frames_since(&self, last_seq: u64) -> Option<Vec<Frame>> {
        self.stream.frames_since(last_seq)
    }
}

fn lock(engine: &Mutex<Engine>) -> MutexGuard<'_, Engine> {
    engine.lock().expect("engine mutex poisoned")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Payload;
    use realloc_core::{JobId, Request, Window};
    use realloc_engine::{Engine, EngineConfig};

    fn shared_engine() -> Arc<Mutex<Engine>> {
        Arc::new(Mutex::new(Engine::new(EngineConfig {
            shards: 2,
            journal: true,
            ..EngineConfig::default()
        })))
    }

    #[test]
    fn relay_streams_flushes_into_replica() {
        let engine = shared_engine();
        let mut relay = JournalRelay::new(Arc::clone(&engine), 1).unwrap();
        let mut replica = crate::Replica::new();
        let (owed, boot) = relay.bootstrap().unwrap();
        assert!(owed.is_empty());
        replica.apply(&boot).unwrap();

        {
            let mut eng = engine.lock().unwrap();
            for i in 0..16u64 {
                eng.submit(Request::Insert {
                    id: JobId(i),
                    window: Window::new(0, 256),
                });
            }
            eng.flush();
        }
        let frames = relay.poll();
        assert!(!frames.is_empty());
        for f in &frames {
            replica.apply(f).unwrap();
        }
        assert_eq!(replica.active_count(), 16);
        assert_eq!(
            replica.state_digest(),
            Some(engine.lock().unwrap().state_digest())
        );
    }

    #[test]
    fn traced_flush_stamps_the_events_frame() {
        let engine = shared_engine();
        let mut relay = JournalRelay::new(Arc::clone(&engine), 1).unwrap();
        let tc = realloc_telemetry::TraceCtx::mint(42, 7);
        {
            let mut eng = engine.lock().unwrap();
            eng.submit(Request::Insert {
                id: JobId(1),
                window: Window::new(0, 64),
            });
            eng.arm_trace(tc);
            eng.flush();
        }
        let frames = relay.poll();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].trace, Some(tc));
        // The annotation stays out of band: stripping the comment line
        // yields the untraced frame text byte for byte.
        let mut plain = frames[0].clone();
        plain.trace = None;
        let annotated = frames[0].to_text();
        assert_eq!(
            annotated,
            format!("{}# trace {} {}\n", plain.to_text(), tc.id, tc.origin_nanos)
        );
    }

    #[test]
    fn bad_term_and_unjournaled_engines_are_rejected() {
        assert!(matches!(
            JournalRelay::new(shared_engine(), 0),
            Err(ClusterError::BadTerm)
        ));
        let unjournaled = Arc::new(Mutex::new(Engine::new(EngineConfig {
            shards: 2,
            journal: false,
            ..EngineConfig::default()
        })));
        assert!(matches!(
            JournalRelay::new(unjournaled, 1),
            Err(ClusterError::JournalDisabled)
        ));
    }

    #[test]
    fn bootstrap_refuses_queued_requests() {
        let engine = shared_engine();
        let mut relay = JournalRelay::new(Arc::clone(&engine), 1).unwrap();
        engine.lock().unwrap().submit(Request::Insert {
            id: JobId(1),
            window: Window::new(0, 64),
        });
        assert!(matches!(
            relay.bootstrap(),
            Err(ClusterError::QueuedRequests)
        ));
        // The serving tier flushes; bootstrap proceeds and the flushed
        // batch ships as an owed frame ahead of the snapshot.
        engine.lock().unwrap().flush();
        let (owed, boot) = relay.bootstrap().unwrap();
        assert_eq!(owed.len(), 1);
        let mut replica = crate::Replica::new();
        replica.apply(&boot).unwrap();
        assert_eq!(replica.active_count(), 1);
        assert_eq!(
            replica.state_digest(),
            Some(engine.lock().unwrap().state_digest())
        );
    }

    #[test]
    fn truncated_cursor_recovers_via_checkpoint_plus_tail() {
        let engine = Arc::new(Mutex::new(Engine::new(EngineConfig {
            shards: 2,
            journal: true,
            retained_segments: 1,
            ..EngineConfig::default()
        })));
        let mut relay = JournalRelay::new(Arc::clone(&engine), 1).unwrap();
        let mut replica = crate::Replica::new();
        let (owed, boot) = relay.bootstrap().unwrap();
        assert!(owed.is_empty());
        replica.apply(&boot).unwrap();

        // Unshipped history, a checkpoint cut that truncates it out from
        // under the relay cursor, then MORE flushes after the cut — the
        // post-checkpoint tail the old recovery silently dropped.
        {
            let mut eng = engine.lock().unwrap();
            for i in 0..4u64 {
                eng.submit(Request::Insert {
                    id: JobId(i),
                    window: Window::new(0, 128),
                });
                eng.flush();
            }
            eng.checkpoint();
            eng.checkpoint(); // second cut drops the pre-checkpoint segment
            for i in 4..7u64 {
                eng.submit(Request::Insert {
                    id: JobId(i),
                    window: Window::new(0, 128),
                });
                eng.flush();
            }
            assert!(
                eng.journal().unwrap().dropped_events() > 0,
                "test must actually truncate the relay's cursor"
            );
        }

        let frames = relay.poll();
        assert!(
            matches!(
                frames[0].payload,
                Payload::Snapshot {
                    events_applied: 4,
                    ..
                }
            ),
            "recovery leads with a re-bootstrap snapshot, stamped with \
             what the checkpoint covers"
        );
        assert_eq!(
            frames.len(),
            4,
            "the three post-checkpoint batches ship behind the snapshot \
             (and the checkpoint it covers gets no check): {frames:?}"
        );
        // The snapshot's stamp matches the state it carries: applying
        // snapshot + tail converges the replica on the live engine.
        for f in &frames {
            replica.apply(f).unwrap();
        }
        let eng = engine.lock().unwrap();
        assert_eq!(replica.active_count(), 7);
        assert_eq!(replica.state_digest(), Some(eng.state_digest()));
        assert_eq!(
            replica.events_applied(),
            eng.journal().unwrap().total_events()
        );
    }

    #[test]
    fn checks_land_at_their_checkpoint_once_each() {
        let engine = shared_engine();
        let mut relay = JournalRelay::new(Arc::clone(&engine), 1).unwrap();
        let insert = |eng: &mut Engine, id: u64| {
            eng.submit(Request::Insert {
                id: JobId(id),
                window: Window::new(0, 256),
            });
            eng.flush();
        };
        {
            let mut eng = engine.lock().unwrap();
            insert(&mut eng, 1);
            eng.resize(3).unwrap(); // recorded just before the cut
            eng.checkpoint();
            eng.resize(4).unwrap(); // recorded just after it
            insert(&mut eng, 2);
        }
        let kinds = |frames: &[Frame]| -> Vec<&'static str> {
            frames
                .iter()
                .map(|f| match f.payload {
                    Payload::Events(_) => "events",
                    Payload::Epoch(_) => "epoch",
                    Payload::Check { .. } => "check",
                    Payload::Snapshot { .. } => "snapshot",
                })
                .collect()
        };
        let frames = relay.poll();
        assert_eq!(
            kinds(&frames),
            ["events", "epoch", "check", "epoch", "events"]
        );
        let Payload::Check {
            events_applied,
            digest,
        } = frames[2].payload
        else {
            unreachable!()
        };
        assert_eq!(events_applied, 1);
        assert!(relay.poll().is_empty(), "a covered checkpoint stays quiet");

        // Back-to-back checkpoints cover the same events and state, yet
        // each is its own checkpoint and gets its own marker.
        let mut markers = Vec::new();
        for _ in 0..2 {
            engine.lock().unwrap().checkpoint();
            let frames = relay.poll();
            assert_eq!(kinds(&frames), ["check"]);
            markers.push(frames[0].clone());
        }
        assert_eq!(markers[0].payload, markers[1].payload);
        assert_eq!(markers[1].seq, markers[0].seq + 1);
        assert_ne!(markers[0].payload, frames[2].payload);
        assert_ne!(digest, engine.lock().unwrap().state_digest());
    }

    #[test]
    fn frames_since_serves_retained_history() {
        let engine = shared_engine();
        let mut relay = JournalRelay::new(Arc::clone(&engine), 1).unwrap();
        for i in 0..3u64 {
            let mut eng = engine.lock().unwrap();
            eng.submit(Request::Insert {
                id: JobId(i),
                window: Window::new(0, 64),
            });
            eng.flush();
            drop(eng);
            relay.poll();
        }
        assert_eq!(relay.next_seq(), 4);
        let tail = relay.frames_since(1).unwrap();
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].seq, 2);
        assert!(relay.frames_since(9).is_none());
        assert_eq!(relay.frames_since(3).unwrap().len(), 0);
    }
}
