//! Replication differential proofs.
//!
//! The contract under test: a replica that has acknowledged the
//! primary's frame stream through any position is **byte-identical**
//! (snapshot text and state digest) to the primary at that position;
//! promotion at any frame boundary loses no acknowledged event; and a
//! deposed primary's frames are fenced by the bumped term.
//!
//! * `tcp_differential_failover_proof` is the acceptance drill: ≥10k
//!   churn requests over the loopback TCP transport, spanning ≥2 online
//!   resizes, with a mid-stream primary "crash", a partitioned second
//!   replica re-bootstrapped by the promoted node, and a fencing check
//!   against the deposed term — ending byte-identical to an
//!   uninterrupted reference engine.
//! * the proptest drives arbitrary churn **with interleaved resizes**
//!   and a failover at an arbitrary frame position, asserting the
//!   promoted lineage converges to the reference byte-for-byte.
//! * the corpus tests pin graceful (never panicking) rejection of
//!   stale terms, sequence gaps, regressing batches, tampered
//!   outcomes, and divergent checkpoint markers.

use proptest::prelude::*;
use realloc_cluster::tcp::{PrimaryLink, ReplicaServer};
use realloc_cluster::transport::{FrameSink, TransportError};
use realloc_cluster::{ApplyError, Frame, JournalRelay, Payload, Primary, Replica};
use realloc_core::snapshot::Restorable as _;
use realloc_core::RequestSeq;
use realloc_engine::{BackendKind, Engine, EngineConfig, JournalEvent};
use realloc_sim::harness::churn_seq;
use std::sync::{Arc, Mutex};

fn journaled_config(shards: usize) -> EngineConfig {
    EngineConfig {
        shards,
        machines_per_shard: 1,
        backend: BackendKind::TheoremOne { gamma: 8 },
        parallel: false,
        journal: true,
        retained_segments: 2,
    }
}

/// Drives `engine` over `seq` in `batch`-sized chunks, resizing to
/// `resizes[i].1` shards just before flushing chunk `resizes[i].0` —
/// the uninterrupted reference every replicated lineage must match.
fn reference_run(
    shards: usize,
    seq: &RequestSeq,
    batch: usize,
    resizes: &[(usize, usize)],
) -> Engine {
    let mut engine = Engine::new(journaled_config(shards));
    for (i, chunk) in seq.requests().chunks(batch).enumerate() {
        for &(at, to) in resizes {
            if at == i {
                engine.resize(to).expect("reference resize");
            }
        }
        for &r in chunk {
            engine.submit(r);
        }
        engine.flush();
    }
    engine
}

#[test]
fn tcp_differential_failover_proof() {
    const REQUESTS: usize = 10_000;
    const BATCH: usize = 100;
    const CRASH_AT: usize = 85; // chunk index the primary dies before
    const PARTITION_FROM: usize = 80; // replica 2 stops hearing here
                                      // One-machine-dense stream so every resize in the plan is feasible.
    let seq = churn_seq(1, 8, 300, 1 << 14, false, REQUESTS, 7);
    assert!(seq.len() >= 10_000, "acceptance floor");
    let resizes = [(30usize, 3usize), (60, 4), (90, 5)];

    // Uninterrupted reference lineage.
    let reference = reference_run(2, &seq, BATCH, &resizes);

    // Replicated lineage: primary + two TCP replicas on loopback.
    let mut primary = Primary::new(Engine::new(journaled_config(2)), 1).unwrap();
    let server1 = ReplicaServer::bind("127.0.0.1:0", Replica::new()).unwrap();
    let server2 = ReplicaServer::bind("127.0.0.1:0", Replica::new()).unwrap();
    let mut link1 = PrimaryLink::connect(server1.addr()).unwrap();
    let mut link2 = PrimaryLink::connect(server2.addr()).unwrap();

    let (owed, boot) = primary.bootstrap();
    assert!(owed.is_empty(), "nothing flushed yet");
    for f in &boot {
        link1.send(f).unwrap();
        link2.send(f).unwrap();
    }

    let chunks: Vec<&[realloc_core::Request]> = seq.requests().chunks(BATCH).collect();
    for (i, chunk) in chunks.iter().enumerate().take(CRASH_AT) {
        let mut frames = Vec::new();
        for &(at, to) in &resizes {
            if at == i {
                let (_, f) = primary.resize(to).expect("primary resize");
                frames.extend(f);
            }
        }
        for &r in *chunk {
            primary.submit(r);
        }
        let (_, f) = primary.flush();
        frames.extend(f);
        if (i + 1) % 20 == 0 {
            frames.extend(primary.checkpoint());
        }
        for f in &frames {
            link1.send(f).unwrap(); // every frame ACKNOWLEDGED by replica 1
            if i < PARTITION_FROM {
                link2.send(f).unwrap();
            }
        }
    }

    // Commit barrier: the pipelined link may still have a window of
    // frames in flight — drain so "every frame ACKNOWLEDGED by
    // replica 1" is literally true before the crash.
    link1.drain().unwrap();

    // "Crash": the primary process is gone. Everything replica 1
    // acknowledged must survive; replica 2 is partitioned and stale.
    let deposed_term = primary.term();
    drop(link1);

    // Fenced failover: promote replica 1 (term 2), then re-bootstrap
    // the stale replica 2 from the promoted node.
    let replica1 = server1.replica();
    let mut promoted = replica1
        .lock()
        .expect("replica mutex")
        .promote()
        .expect("bootstrapped replica promotes");
    assert_eq!(promoted.term(), deposed_term + 1);
    let (owed, boot) = promoted.bootstrap();
    assert!(owed.is_empty());
    let mut new_link2 = PrimaryLink::connect(server2.addr()).unwrap();
    for f in &boot {
        new_link2.send(f).unwrap();
    }
    // Barrier: replica 2 must have adopted the bumped term before the
    // deposed primary's frames can bounce off it.
    new_link2.drain().unwrap();

    // The deposed primary wakes up and keeps streaming: every frame it
    // emits now bounces off the bumped term.
    for &r in chunks[CRASH_AT] {
        primary.submit(r);
    }
    let (_, stale_frames) = primary.flush();
    assert!(!stale_frames.is_empty());
    // Pipelined sends return before the ack: the rejection surfaces on
    // the drain (or on the send's own ack pump, if the err raced in).
    match link2.send(&stale_frames[0]).and_then(|()| link2.drain()) {
        Err(TransportError::Rejected(detail)) => {
            assert!(detail.contains("fenced"), "unexpected rejection: {detail}")
        }
        other => panic!("deposed primary's frame was not fenced: {other:?}"),
    }
    drop(primary);
    drop(link2);

    // The promoted primary keeps serving the remaining stream (the
    // crashed node's unshipped chunk was never acknowledged anywhere,
    // so the new lineage re-drives it).
    for (i, chunk) in chunks.iter().enumerate().skip(CRASH_AT) {
        let mut frames = Vec::new();
        for &(at, to) in &resizes {
            if at == i {
                let (_, f) = promoted.resize(to).expect("promoted resize");
                frames.extend(f);
            }
        }
        for &r in *chunk {
            promoted.submit(r);
        }
        let (_, f) = promoted.flush();
        frames.extend(f);
        for f in &frames {
            new_link2.send(f).unwrap();
        }
    }
    new_link2.drain().unwrap();

    // End-to-end differential proof: promoted lineage == uninterrupted
    // reference, byte for byte, and the TCP-fed replica matches both.
    assert_eq!(promoted.engine().epoch(), reference.epoch());
    assert_eq!(
        promoted.engine().snapshot_text(),
        reference.snapshot_text(),
        "promoted lineage diverged from the uninterrupted reference"
    );
    assert_eq!(promoted.engine().state_digest(), reference.state_digest());
    {
        let replica2 = server2.replica();
        let r2 = replica2.lock().expect("replica mutex");
        assert_eq!(r2.term(), promoted.term());
        assert_eq!(
            r2.engine().expect("bootstrapped").snapshot_text(),
            reference.snapshot_text(),
            "TCP replica diverged from the reference"
        );
        assert_eq!(r2.state_digest(), Some(reference.state_digest()));
        assert!(r2.validate().is_ok());
    }
}

#[test]
fn checkpoint_bootstrap_catches_up_in_o_tail() {
    // A late joiner is bootstrapped from the latest checkpoint plus the
    // retained frame tail — the snapshot it restores is the CHECKPOINT
    // snapshot (strictly older than the live state), and the tail frames
    // bring it to byte-identical live state.
    let seq = churn_seq(1, 8, 120, 1 << 12, false, 1200, 23);
    let mut primary = Primary::new(Engine::new(journaled_config(2)), 1).unwrap();
    let mut shipped: Vec<Frame> = Vec::new();
    for (i, chunk) in seq.requests().chunks(64).enumerate() {
        for &r in chunk {
            primary.submit(r);
        }
        let (_, f) = primary.flush();
        shipped.extend(f);
        if (i + 1) % 6 == 0 {
            shipped.extend(primary.checkpoint());
        }
    }
    let (_, boot) = primary.bootstrap();
    let Payload::Snapshot { events_applied, .. } = &boot[0].payload else {
        panic!("bootstrap must lead with a snapshot, got {:?}", boot[0]);
    };
    let total = primary.engine().journal().unwrap().total_events();
    assert!(
        *events_applied < total,
        "checkpoint-anchored bootstrap ships the older checkpoint snapshot \
         ({events_applied} events) plus the tail, not a fresh full snapshot ({total} events)"
    );
    assert!(boot.len() > 1, "tail frames follow the checkpoint snapshot");

    let mut joiner = Replica::new();
    for f in &boot {
        joiner.apply(f).unwrap();
    }
    assert_eq!(joiner.events_applied(), total);
    assert_eq!(
        joiner.engine().unwrap().snapshot_text(),
        primary.engine().snapshot_text()
    );

    // And the joiner keeps following the live stream seamlessly.
    let some_active = primary.engine().placements()[0].0;
    primary.submit(realloc_core::Request::Delete { id: some_active });
    let (_, frames) = primary.flush();
    for f in &frames {
        joiner.apply(f).unwrap();
    }
    assert_eq!(joiner.state_digest(), Some(primary.engine().state_digest()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arbitrary churn with interleaved resizes, failover at an
    /// arbitrary frame position: the promoted lineage (and a second
    /// follower that survives the handoff) converges byte-identically
    /// to an uninterrupted reference engine, and the deposed term is
    /// fenced.
    #[test]
    fn failover_at_any_frame_is_lossless(
        seed in 0u64..1000,
        shards in 2usize..4,
        len in 200usize..600,
        batch in 16usize..64,
        grow1 in 1usize..3,
        grow2 in 1usize..3,
        cut_salt in 0usize..10_000,
    ) {
        let seq = churn_seq(1, 8, 60, 1 << 12, false, len, seed);
        let n_chunks = seq.requests().chunks(batch).len();
        let resizes = [
            (n_chunks / 3, shards + grow1),
            (2 * n_chunks / 3, shards + grow1 + grow2),
        ];
        let reference = reference_run(shards, &seq, batch, &resizes);

        // Stream the whole run, remembering each frame and, per frame,
        // how many chunks and resizes were fully covered when it was
        // acknowledged.
        let mut primary = Primary::new(Engine::new(journaled_config(shards)), 1).unwrap();
        let (_, boot) = primary.bootstrap();
        let mut frames: Vec<Frame> = Vec::new();
        // (chunks_done, resizes_done) after applying frames[..=i].
        let mut coverage: Vec<(usize, usize)> = Vec::new();
        let mut resizes_done = 0usize;
        for (i, chunk) in seq.requests().chunks(batch).enumerate() {
            for &(at, to) in &resizes {
                if at == i {
                    let (_, f) = primary.resize(to).unwrap();
                    resizes_done += 1;
                    for fr in f {
                        frames.push(fr);
                        coverage.push((i, resizes_done));
                    }
                }
            }
            for &r in chunk {
                primary.submit(r);
            }
            let (_, f) = primary.flush();
            for fr in f {
                frames.push(fr);
                coverage.push((i + 1, resizes_done));
            }
        }

        // Failover position: any acknowledged frame boundary.
        let cut = 1 + cut_salt % frames.len();
        let mut replica1 = Replica::new();
        let mut replica2 = Replica::new();
        for f in &boot {
            replica1.apply(f).unwrap();
            replica2.apply(f).unwrap();
        }
        for f in &frames[..cut] {
            replica1.apply(f).unwrap();
            replica2.apply(f).unwrap();
        }
        let (chunks_done, eps_done) = coverage[cut - 1];

        let mut promoted = replica1.promote().unwrap();
        prop_assert_eq!(promoted.term(), 2);

        // The deposed term is fenced as soon as the follower hears the
        // new one; the frames it acknowledged before that are kept.
        let follow = |replica2: &mut Replica, fs: &[Frame]| -> Result<(), ApplyError> {
            for f in fs {
                replica2.apply(f)?;
            }
            Ok(())
        };

        // Re-drive everything not yet acknowledged on the new lineage,
        // streaming to the surviving follower.
        let mut resizes_seen = 0usize;
        for (i, chunk) in seq.requests().chunks(batch).enumerate() {
            for &(at, to) in &resizes {
                if at == i {
                    resizes_seen += 1;
                    if resizes_seen > eps_done {
                        let (_, f) = promoted.resize(to).unwrap();
                        follow(&mut replica2, &f).unwrap();
                    }
                }
            }
            if i < chunks_done {
                continue; // acknowledged before the crash
            }
            for &r in chunk {
                promoted.submit(r);
            }
            let (_, f) = promoted.flush();
            follow(&mut replica2, &f).unwrap();
        }

        // Stale-term frames bounce off both survivors.
        if cut < frames.len() {
            let stale = replica2.apply(&frames[cut]);
            prop_assert_eq!(
                stale,
                Err(ApplyError::StaleTerm { frame: 1, current: 2 })
            );
        }

        // Byte-identical convergence, zero acknowledged events lost.
        prop_assert_eq!(
            promoted.engine().snapshot_text(),
            reference.snapshot_text()
        );
        prop_assert_eq!(
            replica2.engine().unwrap().snapshot_text(),
            reference.snapshot_text()
        );
        prop_assert_eq!(replica2.state_digest(), Some(reference.state_digest()));
        prop_assert!(replica2.validate().is_ok());
    }
}

// ---------------------------------------------------------------------
// One producer: `Primary` and `JournalRelay` are the same frame stream.
// ---------------------------------------------------------------------

/// A checkpoint cut directly on `engine_mut()` truncates the journal out
/// from under the primary's stream cursor. The stream re-anchors every
/// replica on the latest checkpoint snapshot, stamped with the event
/// count that checkpoint covers, and ships the post-checkpoint tail
/// behind it — the mirror of the relay's
/// `truncated_cursor_recovers_via_checkpoint_plus_tail`.
#[test]
fn primary_truncated_cursor_recovers_via_checkpoint_plus_tail() {
    let insert = |id: u64| realloc_core::Request::Insert {
        id: realloc_core::JobId(id),
        window: realloc_core::Window::new(0, 128),
    };
    let mut primary = Primary::new(
        Engine::new(EngineConfig {
            retained_segments: 1,
            ..journaled_config(2)
        }),
        1,
    )
    .unwrap();
    let mut replica = Replica::new();
    let (_, boot) = primary.bootstrap();
    for f in &boot {
        replica.apply(f).unwrap();
    }

    // Unshipped history, two cuts (the second drops the pre-checkpoint
    // segment), then more flushes after the cut — all behind the
    // wrapper's back, none of it polled.
    let engine = primary.engine_mut();
    for id in 0..4 {
        engine.submit(insert(id));
        engine.flush();
    }
    engine.checkpoint();
    engine.checkpoint();
    for id in 4..7 {
        engine.submit(insert(id));
        engine.flush();
    }
    assert!(
        engine.journal().unwrap().dropped_events() > 0,
        "test must actually truncate the primary's cursor"
    );

    let frames = primary.poll();
    let Payload::Snapshot { events_applied, .. } = &frames[0].payload else {
        panic!("recovery leads with a snapshot, got {:?}", frames[0]);
    };
    assert_eq!(
        *events_applied, 4,
        "stamped with what the checkpoint covers"
    );
    assert_eq!(
        frames.len(),
        4,
        "the three post-checkpoint batches ship behind the snapshot: {frames:?}"
    );
    for f in &frames {
        replica.apply(f).unwrap();
    }
    assert_eq!(replica.active_count(), 7);
    assert_eq!(
        replica.state_digest(),
        Some(primary.engine().state_digest())
    );
    assert_eq!(
        replica.events_applied(),
        primary.engine().journal().unwrap().total_events()
    );
}

/// The frame texts of a stream, for byte-for-byte comparison.
fn texts(frames: &[Frame]) -> Vec<String> {
    frames.iter().map(Frame::to_text).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same script of submits, flushes, resizes and engine-side
    /// checkpoints, driven through a `Primary` and through a
    /// `JournalRelay` over an identical engine, yields byte-identical
    /// frame text at every poll and identical `frames_since` answers at
    /// every position. Polls are part of the script, so checkpoints
    /// regularly outrun the cursor (one retained segment) and history
    /// regularly evicts (a small cap).
    #[test]
    fn primary_and_relay_produce_byte_identical_streams(
        seed in 0u64..1000,
        script in prop::collection::vec(0u8..10, 20..70),
        history_cap in 2usize..10,
    ) {
        let config = EngineConfig { retained_segments: 1, ..journaled_config(2) };
        let mut primary = Primary::new(Engine::new(config.clone()), 1)
            .unwrap()
            .with_history_cap(history_cap);
        let shared = Arc::new(Mutex::new(Engine::new(config)));
        let mut relay = JournalRelay::new(Arc::clone(&shared), 1)
            .unwrap()
            .with_history_cap(history_cap);

        let (p_owed, p_boot) = primary.bootstrap();
        let (r_owed, r_boot) = relay.bootstrap().unwrap();
        prop_assert!(p_owed.is_empty() && r_owed.is_empty());
        prop_assert_eq!(texts(&p_boot), vec![r_boot.to_text()]);
        let mut replica = Replica::new();
        replica.apply(&r_boot).unwrap();

        let seq = churn_seq(1, 8, 40, 1 << 10, false, 5 * (script.len() + 1), seed);
        let mut requests = seq.requests().iter().copied();
        // Every script ends on a poll (op 9), so nothing goes uncompared.
        for (step, &op) in script.iter().chain([&9]).enumerate() {
            // One engine-side step, applied to both engines alike.
            let submits = if op <= 4 { 1 + op as usize } else { 0 };
            let batch: Vec<_> = requests.by_ref().take(submits).collect();
            let drive = |engine: &mut Engine| match op {
                0..=4 => {
                    for &r in &batch {
                        engine.submit(r);
                    }
                    if op < 4 {
                        engine.flush(); // op 4 leaves its requests queued
                    }
                }
                5 => drop(engine.resize(2 + step % 3)),
                6 | 7 => {
                    engine.checkpoint();
                }
                _ => {}
            };
            drive(primary.engine_mut());
            drive(&mut shared.lock().unwrap());
            if op < 8 {
                continue;
            }
            // Ops 8 and 9 poll both producers and compare.
            let frames = primary.poll();
            prop_assert_eq!(texts(&frames), texts(&relay.poll()));
            prop_assert_eq!(primary.next_seq(), relay.next_seq());
            for k in 0..=primary.next_seq() {
                prop_assert_eq!(
                    primary.frames_since(k).as_deref().map(texts),
                    relay.frames_since(k).as_deref().map(texts),
                    "frames_since({})", k
                );
            }
            for f in &frames {
                replica.apply(f).unwrap();
            }
        }
        // Everything flushed has shipped: the follower holds the state
        // both engines hold, give or take what op 4 left queued.
        for f in &primary.flush().1 {
            replica.apply(f).unwrap();
        }
        prop_assert_eq!(replica.state_digest(), Some(primary.engine().state_digest()));
    }
}

// ---------------------------------------------------------------------
// Malformed / hostile stream corpus: graceful rejection, never panics.
// ---------------------------------------------------------------------

/// A tiny bootstrapped primary/replica pair plus one streamed frame.
fn small_pair() -> (Primary, Replica, Vec<Frame>) {
    let mut primary = Primary::new(Engine::new(journaled_config(2)), 1).unwrap();
    let mut replica = Replica::new();
    let (_, boot) = primary.bootstrap();
    for f in &boot {
        replica.apply(f).unwrap();
    }
    for i in 0..8u64 {
        primary.submit(realloc_core::Request::Insert {
            id: realloc_core::JobId(i),
            window: realloc_core::Window::new(0, 64),
        });
    }
    let (_, frames) = primary.flush();
    (primary, replica, frames)
}

#[test]
fn stream_frames_before_bootstrap_are_rejected() {
    let (_primary, _replica, frames) = small_pair();
    let mut fresh = Replica::new();
    assert_eq!(fresh.apply(&frames[0]), Err(ApplyError::NotBootstrapped));
}

#[test]
fn sequence_gaps_and_regressions_are_rejected() {
    let (mut primary, mut replica, frames) = small_pair();
    // Skip ahead: gap.
    let mut ahead = frames[0].clone();
    ahead.seq += 5;
    assert_eq!(
        replica.apply(&ahead),
        Err(ApplyError::SequenceGap {
            expected: 1,
            got: 6
        })
    );
    // Apply, then regress (duplicate delivery).
    replica.apply(&frames[0]).unwrap();
    assert_eq!(
        replica.apply(&frames[0]),
        Err(ApplyError::SequenceGap {
            expected: 2,
            got: 1
        })
    );
    // The stream continues fine afterwards: rejected frames change nothing.
    for i in 0..4u64 {
        primary.submit(realloc_core::Request::Delete {
            id: realloc_core::JobId(i),
        });
    }
    let (_, more) = primary.flush();
    for f in &more {
        replica.apply(f).unwrap();
    }
    assert_eq!(
        replica.state_digest(),
        Some(primary.engine().state_digest())
    );
}

#[test]
fn idle_flushes_do_not_desync_the_digest() {
    // An idle tick (flush with nothing queued) must not advance state
    // the replicas can never hear about: the flush counter is part of
    // the digested snapshot, so the next check marker would otherwise
    // report divergence.
    let (mut primary, mut replica, frames) = small_pair();
    for f in &frames {
        replica.apply(f).unwrap();
    }
    let (report, idle) = primary.flush();
    assert_eq!(report.processed(), 0);
    assert!(idle.is_empty());
    for f in primary.checkpoint() {
        replica
            .apply(&f)
            .expect("digest still matches after idle ticks");
    }
    assert_eq!(
        replica.state_digest(),
        Some(primary.engine().state_digest())
    );
}

#[test]
fn bootstrap_amid_queued_requests_does_not_wedge_the_stream() {
    // Attaching a replica to a busy primary (requests queued, not yet
    // flushed) must not hand the joiner pending queues that the next
    // events frame then trips over.
    let mut primary = Primary::new(Engine::new(journaled_config(2)), 1).unwrap();
    for i in 0..6u64 {
        primary.submit(realloc_core::Request::Insert {
            id: realloc_core::JobId(i),
            window: realloc_core::Window::new(0, 64),
        });
    }
    let (owed, boot) = primary.bootstrap();
    assert!(
        !owed.is_empty(),
        "the pre-bootstrap flush ships to the stream"
    );
    let mut joiner = Replica::new();
    for f in &boot {
        joiner.apply(f).unwrap();
    }
    // The joiner follows the next flush without tripping on restored
    // queues.
    primary.submit(realloc_core::Request::Delete {
        id: realloc_core::JobId(0),
    });
    let (_, frames) = primary.flush();
    for f in &frames {
        joiner.apply(f).unwrap();
    }
    assert_eq!(joiner.state_digest(), Some(primary.engine().state_digest()));
}

#[test]
fn observed_higher_terms_fence_even_when_the_frame_is_rejected() {
    // A lagging replica that merely HEARS a newer term — via a frame it
    // must reject for a sequence gap — adopts it, so the deposed
    // primary's otherwise-contiguous frames bounce from then on. (The
    // alternative is split-brain reads: the replica keeps following the
    // dead lineage it is contiguous with.)
    let (_primary, mut replica, frames) = small_pair();
    let mut future = frames[0].clone();
    future.term = 3;
    future.seq += 10;
    assert!(matches!(
        replica.apply(&future),
        Err(ApplyError::SequenceGap { .. })
    ));
    assert_eq!(replica.term(), 3, "the observed term sticks");
    assert_eq!(
        replica.apply(&frames[0]),
        Err(ApplyError::StaleTerm {
            frame: 1,
            current: 3
        }),
        "the old lineage is fenced despite being contiguous"
    );
}

#[test]
fn frames_since_refuses_positions_ahead_of_the_stream() {
    let (primary, _replica, frames) = small_pair();
    let last = frames.last().unwrap().seq;
    assert_eq!(
        primary.frames_since(last).as_deref(),
        Some(&[][..]),
        "exactly caught up"
    );
    assert_eq!(
        primary.frames_since(last + 1),
        None,
        "a replica ahead of this lineage needs a re-bootstrap, not an empty catch-up"
    );
}

#[test]
fn tampered_outcomes_and_batches_are_rejected() {
    let (_primary, replica0, frames) = small_pair();

    // Tampered outcome: recorded cost altered → divergence.
    let mut replica = replica_clone(&replica0);
    let mut tampered = frames[0].clone();
    if let Payload::Events(events) = &mut tampered.payload {
        if let Ok(c) = &mut events[0].result {
            c.reallocations += 7;
        }
    }
    match replica.apply(&tampered) {
        Err(ApplyError::Diverged(_)) => {}
        other => panic!("tampered outcome not caught: {other:?}"),
    }

    // Regressing batch number → corrupt, after a legitimate apply.
    let mut replica = replica_clone(&replica0);
    replica.apply(&frames[0]).unwrap();
    let mut regressed = frames[0].clone();
    regressed.seq += 1;
    if let Payload::Events(events) = &mut regressed.payload {
        for e in events.iter_mut() {
            e.batch = 0; // already consumed by the first apply
        }
    }
    match replica.apply(&regressed) {
        Err(ApplyError::Corrupt(m)) => assert!(m.contains("regresses"), "{m}"),
        other => panic!("regressing batch not caught: {other:?}"),
    }

    // Checkpoint marker with a wrong digest → divergence.
    let mut replica = replica_clone(&replica0);
    replica.apply(&frames[0]).unwrap();
    let bad_check = Frame {
        term: 1,
        seq: frames[0].seq + 1,
        payload: Payload::Check {
            events_applied: replica.events_applied(),
            digest: 0xbad,
        },
        trace: None,
    };
    match replica.apply(&bad_check) {
        Err(ApplyError::Diverged(m)) => assert!(m.contains("digest"), "{m}"),
        other => panic!("digest mismatch not caught: {other:?}"),
    }
}

#[test]
fn corrupt_bootstrap_snapshots_are_rejected() {
    let mut replica = Replica::new();
    let frame = Frame {
        term: 1,
        seq: 0,
        payload: Payload::Snapshot {
            events_applied: 0,
            text: "# realloc snapshot v1\n!begin engine\ntruncated".to_string(),
        },
        trace: None,
    };
    match replica.apply(&frame) {
        Err(ApplyError::Corrupt(_)) => {}
        other => panic!("corrupt snapshot not caught: {other:?}"),
    }
    assert!(!replica.is_bootstrapped());
}

#[test]
fn promotion_retires_the_replica() {
    let (_primary, mut replica, frames) = small_pair();
    replica.apply(&frames[0]).unwrap();
    let promoted = replica.promote().unwrap();
    assert_eq!(promoted.term(), 2);
    assert_eq!(replica.apply(&frames[0]), Err(ApplyError::Retired));
    assert!(matches!(
        replica.promote(),
        Err(realloc_cluster::ClusterError::Retired)
    ));
}

/// Replicas are deliberately not `Clone` (they own an engine); rebuild
/// an equivalent one through a fresh bootstrap for corpus tests.
fn replica_clone(replica: &Replica) -> Replica {
    let engine = replica.engine().expect("bootstrapped");
    let mut out = Replica::new();
    out.apply(&Frame {
        term: replica.term(),
        seq: replica.last_seq(),
        payload: Payload::Snapshot {
            events_applied: replica.events_applied(),
            text: engine.snapshot_text(),
        },
        trace: None,
    })
    .expect("snapshot round-trip");
    out
}

/// `JournalEvent` is `Copy`; silence the unused-import lint path by
/// touching the type in a trivial assertion.
#[test]
fn events_frames_group_single_batches() {
    let (_primary, _replica, frames) = small_pair();
    for f in &frames {
        if let Payload::Events(events) = &f.payload {
            let batch = events[0].batch;
            assert!(events.iter().all(|e: &JournalEvent| e.batch == batch));
        }
    }
}
