//! [`JournalRelay`]: the replication stream for an engine that is
//! *shared* with a serving tier.
//!
//! [`crate::Primary`] consumes its [`Engine`] by value — the right shape
//! when replication owns the write path. A serving tier
//! (`realloc_service::ServiceServer`) instead owns the engine behind an
//! `Arc<Mutex<_>>` so socket handlers can flush it concurrently. The
//! relay tails that shared engine's journal through the crate's one
//! producer, `FrameStream` (`stream.rs`), so it emits exactly the
//! sequence-numbered, term-fenced [`Frame`] stream a `Primary` would:
//! call [`JournalRelay::poll`] after (or on a cadence around) service
//! flushes and push the frames into any
//! [`crate::transport::FrameSink`].
//!
//! What the relay adds over the stream is the *lock*: every call takes
//! the engine mutex for its own duration and hands the guard's engine to
//! the stream. What it lacks is the write path — it never flushes,
//! resizes or checkpoints, so it stamps no `check` markers (its joiners
//! always get a full snapshot) and where `Primary::bootstrap` flushes a
//! non-empty queue, [`JournalRelay::bootstrap`] refuses with
//! [`ClusterError::QueuedRequests`].
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
use std::sync::{Arc, Mutex};

/// Tails a shared engine's journal into the replication frame stream;
/// see the module docs.
#[derive(Debug)]
pub struct JournalRelay {
    engine: Arc<Mutex<Engine>>,
    stream: FrameStream,
}

impl JournalRelay {
    /// Wraps a shared journaled engine as the stream source at `term`.
    /// The stream starts at the engine's *current* journal position —
    /// prior history is covered by the bootstrap snapshot, not
    /// re-shipped.
    pub fn new(engine: Arc<Mutex<Engine>>, term: u64) -> Result<JournalRelay, ClusterError> {
        let stream = FrameStream::new(&engine.lock().expect("engine mutex poisoned"), term, 1)?;
        Ok(JournalRelay { engine, stream })
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

    /// Turns every journal record past the stream cursor into frames,
    /// exactly as [`crate::Primary::poll`] would — including its answer
    /// to a cursor that a checkpoint cut on the shared engine truncated
    /// away: the latest checkpoint as a snapshot frame (stamped with the
    /// event count it covers), then the post-checkpoint tail, so
    /// replicas re-bootstrap without losing what was recorded after the
    /// cut.
    pub fn poll(&mut self) -> Vec<Frame> {
        let guard = self.engine.lock().expect("engine mutex poisoned");
        self.stream.poll(&guard)
    }

    /// A snapshot frame bootstrapping a **new** replica, preceded by any
    /// frames still owed to the existing stream (broadcast those to
    /// already-attached replicas first — the snapshot covers them, so
    /// the joiner must not see them again).
    ///
    /// The relay never flushes the shared engine itself, and a snapshot
    /// cut while requests sit queued would hand the joiner those pending
    /// queues — the events frame of the flush that later services them
    /// would then be rejected (the same hazard `Primary::bootstrap`
    /// flushes to avoid). So bootstrap refuses with
    /// [`ClusterError::QueuedRequests`] when the engine has queued
    /// requests: the serving tier must flush (and the relay poll the
    /// resulting frames) before a joiner can be cut a snapshot.
    pub fn bootstrap(&mut self) -> Result<(Vec<Frame>, Frame), ClusterError> {
        let guard = self.engine.lock().expect("engine mutex poisoned");
        if guard.queued() > 0 {
            return Err(ClusterError::QueuedRequests);
        }
        let (owed, snapshot, tail) = self.stream.bootstrap(&guard);
        debug_assert!(tail.is_empty(), "a relay stream has no check anchor");
        Ok((owed, snapshot))
    }

    /// Retained stream frames with sequence numbers past `last_seq`, for
    /// catching up a lagging but already-bootstrapped replica. `None`
    /// when the history no longer reaches back that far or `last_seq` is
    /// ahead of this stream — fall back to [`JournalRelay::bootstrap`].
    pub fn frames_since(&self, last_seq: u64) -> Option<Vec<Frame>> {
        self.stream.frames_since(last_seq)
    }
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
            matches!(frames[0].payload, Payload::Snapshot { .. }),
            "recovery leads with a re-bootstrap snapshot"
        );
        assert!(
            frames.len() > 1,
            "post-checkpoint tail must ship, not vanish: {frames:?}"
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
