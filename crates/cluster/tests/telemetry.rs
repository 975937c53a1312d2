//! Replication observability proofs.
//!
//! Registries on both ends of a replicated pair are driven by the same
//! deterministic frame stream, so their counters and gauges are exact:
//! the primary's per-payload frame counters match the frames it actually
//! stamped, the replica's gauges mirror its public accessors after every
//! apply, and the **replication lag** a poller computes from the two
//! registries — primary `cluster_next_seq − 1` minus replica
//! `cluster_replica_last_seq` — is exactly the number of stream frames
//! withheld from the replica. Manual clocks pin every duration sample to
//! zero, making the whole registry a pure function of the event stream.
//!
//! The TCP test exercises the per-link instruments (`cluster_link_*`,
//! labeled `replica="<addr>"`): bytes shipped, ack RTT sample counts,
//! the acked-seq gauge, and the send-error counter across a server
//! shutdown.

use realloc_cluster::tcp::{PrimaryLink, ReplicaServer};
use realloc_cluster::transport::{FrameSink, LocalLink};
use realloc_cluster::{Frame, JournalRelay, Replica, ReplicationGroup};
use realloc_core::{JobId, Request, Window};
use realloc_engine::{BackendKind, Engine, EngineConfig};
use realloc_telemetry::{labeled, Clock, Severity, Telemetry, TraceCtx};
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

/// A relay at term 1 over a fresh shared engine.
fn relay(shards: usize) -> JournalRelay {
    JournalRelay::new(
        Arc::new(Mutex::new(Engine::new(journaled_config(shards)))),
        1,
    )
    .unwrap()
}

/// Runs `op` on the relay's engine, then polls what it recorded.
fn drive(relay: &mut JournalRelay, op: impl FnOnce(&mut Engine)) -> Vec<Frame> {
    op(&mut relay.engine().lock().unwrap());
    relay.poll()
}

/// Submits inserts of `ids` into `[0, 256)` and flushes.
fn insert_all(engine: &mut Engine, ids: std::ops::Range<u64>) {
    for i in ids {
        engine.submit(Request::Insert {
            id: JobId(i),
            window: Window::new(0, 256),
        });
    }
    engine.flush();
}

fn counter(t: &Telemetry, name: &str) -> u64 {
    t.counter_value(name).unwrap_or(0)
}

fn gauge(t: &Telemetry, name: &str) -> u64 {
    t.gauge_value(name).unwrap_or(0)
}

/// Streams a bootstrapped workload with a resize and a checkpoint and
/// checks every cluster-level counter/gauge against the public
/// accessors on both roles — including the cross-registry lag formula.
#[test]
fn replication_registry_tracks_stream() {
    let pt = Telemetry::with_clock(Clock::manual(), 64);
    let rt = Telemetry::with_clock(Clock::manual(), 64);
    let mut primary = relay(2);
    primary.attach_telemetry(&pt);
    let mut replica = Replica::new();
    replica.attach_telemetry(&rt);

    let (owed, boot) = primary.bootstrap().unwrap();
    assert!(owed.is_empty());
    replica.apply(&boot).unwrap();
    assert!(replica.is_bootstrapped());

    let mut stream: Vec<Frame> = Vec::new();
    let mut events_frames = 0u64;
    for batch in 0..6u64 {
        let frames = drive(&mut primary, |e| {
            for i in 0..24u64 {
                e.submit(Request::Insert {
                    id: JobId(batch * 24 + i),
                    window: Window::new(0, 1 << 12),
                });
            }
            e.flush();
        });
        events_frames += frames.len() as u64;
        stream.extend(frames);
        if batch == 2 {
            stream.extend(drive(&mut primary, |e| {
                e.resize(3).unwrap();
            }));
        }
    }
    stream.extend(drive(&mut primary, |e| {
        e.checkpoint();
    }));

    // Primary side: per-payload counters count exactly what was stamped.
    assert_eq!(counter(&pt, "cluster_frames_events_total"), events_frames);
    assert_eq!(counter(&pt, "cluster_frames_epoch_total"), 1);
    assert_eq!(counter(&pt, "cluster_frames_check_total"), 1);
    // One snapshot: the joiner bootstrap.
    assert_eq!(counter(&pt, "cluster_frames_snapshot_total"), 1);
    assert_eq!(gauge(&pt, "cluster_next_seq"), primary.next_seq());
    assert_eq!(gauge(&pt, "cluster_term"), primary.term());
    let checks: Vec<_> = pt
        .trace_events()
        .into_iter()
        .filter(|e| e.key == "ship_checkpoint")
        .map(|e| (e.a, e.b))
        .collect();
    assert_eq!(checks, vec![(primary.next_seq() - 1, 0)]);
    assert_eq!(
        pt.histogram_snapshot("cluster_bootstrap_nanos")
            .map(|h| h.count()),
        Some(1)
    );

    // Withhold the tail: the cross-registry lag formula must report
    // exactly the withheld frame count.
    let withheld = 3usize.min(stream.len());
    for f in &stream[..stream.len() - withheld] {
        replica.apply(f).unwrap();
    }
    let lag = gauge(&pt, "cluster_next_seq") - 1 - gauge(&rt, "cluster_replica_last_seq");
    assert_eq!(lag as usize, withheld);

    // Catch up: lag collapses to zero and every replica gauge mirrors
    // its accessor.
    for f in &stream[stream.len() - withheld..] {
        replica.apply(f).unwrap();
    }
    assert_eq!(
        gauge(&pt, "cluster_next_seq") - 1,
        gauge(&rt, "cluster_replica_last_seq")
    );
    assert_eq!(gauge(&rt, "cluster_replica_last_seq"), replica.last_seq());
    assert_eq!(gauge(&rt, "cluster_replica_term"), replica.term());
    assert_eq!(
        gauge(&rt, "cluster_replica_events_applied"),
        replica.events_applied()
    );
    assert_eq!(
        counter(&rt, "cluster_replica_frames_applied_total"),
        1 + stream.len() as u64
    );
    assert_eq!(counter(&rt, "cluster_replica_frames_rejected_total"), 0);
    // Digest checks: one per `check` marker.
    assert_eq!(
        rt.histogram_snapshot("cluster_replica_digest_check_nanos")
            .map(|h| h.count()),
        Some(1)
    );
    assert_eq!(
        rt.histogram_snapshot("cluster_replica_bootstrap_nanos")
            .map(|h| h.count()),
        Some(1)
    );
    // The two lineages really are identical — the registries observed a
    // faithful stream, not a coincidentally matching one.
    assert_eq!(
        replica.state_digest(),
        Some(primary.engine().lock().unwrap().state_digest())
    );
}

/// A joiner's bootstrap is observed the same way whether the relay
/// ships a fresh snapshot or a `check`-anchored checkpoint: the
/// snapshot shipment is counted, its production is timed, and the
/// `bootstrap` point lands in the trace ring carrying the frames the
/// joiner needs (the snapshot plus its tail).
#[test]
fn relay_bootstrap_is_timed_and_traced_like_a_primarys() {
    let bootstrap_registry = |attach_and_bootstrap: &dyn Fn(&Telemetry)| {
        let t = Telemetry::with_clock(Clock::manual(), 64);
        attach_and_bootstrap(&t);
        let points: Vec<(u64, u64)> = t
            .trace_events()
            .iter()
            .filter(|e| e.key == "bootstrap" && e.severity == Severity::Info)
            .map(|e| (e.a, e.b))
            .collect();
        (
            counter(&t, "cluster_frames_snapshot_total"),
            t.histogram_snapshot("cluster_bootstrap_nanos")
                .map(|h| h.count()),
            points,
        )
    };
    let fresh = bootstrap_registry(&|t| {
        let mut relay = relay(2);
        relay.attach_telemetry(t);
        relay.bootstrap().unwrap();
    });
    // One snapshot frame shipped, timed once, one point carrying the
    // joiner's frame count and the (manual-clock: zero) duration.
    assert_eq!(fresh, (1, Some(1), vec![(1, 0)]));
    let anchored = bootstrap_registry(&|t| {
        let mut relay = relay(2);
        relay.attach_telemetry(t);
        drive(&mut relay, |e| {
            insert_all(e, 0..4);
            e.checkpoint();
            insert_all(e, 4..8);
            insert_all(e, 8..12);
        });
        let (_, snapshot) = relay.bootstrap().unwrap();
        assert_eq!(relay.frames_since(snapshot.seq).unwrap().len(), 2);
    });
    assert_eq!(anchored, (1, Some(1), vec![(3, 0)]));
}

/// Rejections and fencing-term adoptions land in the counters and the
/// trace ring with the expected severities.
#[test]
fn rejections_and_term_changes_are_counted() {
    let rt = Telemetry::with_clock(Clock::manual(), 64);
    let mut primary = relay(1);
    let mut replica = Replica::new();
    replica.attach_telemetry(&rt);

    let (_, boot) = primary.bootstrap().unwrap();
    replica.apply(&boot).unwrap();
    // Bootstrapping adopted term 1 from term 0.
    assert_eq!(counter(&rt, "cluster_replica_term_changes_total"), 1);

    let frames = drive(&mut primary, |e| insert_all(e, 1..2));
    let good = frames.into_iter().next().unwrap();

    // A sequence gap at a *higher* term: rejected, but the term is
    // adopted (fencing) — both must be visible.
    let gap = Frame {
        term: 7,
        seq: good.seq + 5,
        payload: good.payload.clone(),
        trace: None,
    };
    assert!(replica.apply(&gap).is_err());
    assert_eq!(counter(&rt, "cluster_replica_frames_rejected_total"), 1);
    assert_eq!(counter(&rt, "cluster_replica_term_changes_total"), 2);
    assert_eq!(gauge(&rt, "cluster_replica_term"), 7);

    // The original frame is now fenced: stale term.
    assert!(replica.apply(&good).is_err());
    assert_eq!(counter(&rt, "cluster_replica_frames_rejected_total"), 2);

    let events = rt.trace_events();
    assert!(events
        .iter()
        .any(|e| e.key == "frame_rejected" && e.severity == Severity::Warn));
    assert!(events
        .iter()
        .any(|e| e.key == "term_adopted" && e.severity == Severity::Info));
    assert!(!events.iter().any(|e| e.key == "diverged"));
}

/// One traced request's causal chain closes at the group-commit point:
/// the armed trace rides the flush into the shipped frame, the replica's
/// `apply` records under the same id, and the successful quorum commit
/// emits the `quorum_ack` point — all under ONE trace id, with the
/// replicated state still digest-identical to an untraced run.
#[test]
fn traced_batch_reaches_quorum_ack_under_one_trace_id() {
    let pt = Telemetry::with_clock(Clock::manual(), 64);
    let rt = Telemetry::with_clock(Clock::manual(), 64);
    let mut group = ReplicationGroup::new(relay(2), 1).unwrap();
    group.attach_telemetry(&pt);
    group.engine().lock().unwrap().attach_telemetry(&pt);

    let mut replica = Replica::new();
    replica.attach_telemetry(&rt);
    let replica = Arc::new(Mutex::new(replica));
    group
        .add_replica(Box::new(LocalLink::new(Arc::clone(&replica))))
        .unwrap();

    // An untraced warm-up batch: its spans must stay out of the trace.
    insert_all(&mut group.engine().lock().unwrap(), 0..1);
    group.ship();
    group.commit().unwrap();

    let tc = TraceCtx::mint(1_234, 7);
    {
        let mut engine = group.engine().lock().unwrap();
        engine.arm_trace(tc);
        insert_all(&mut engine, 1..9);
        assert_eq!(engine.active_count(), 9);
    }
    let shipped = group.ship();
    let committed = group.commit().unwrap();
    assert!(committed >= shipped);

    // Primary's ring: flush span end + quorum_ack point under the id.
    let p_events = pt.trace_events();
    for key in ["flush", "quorum_ack"] {
        assert!(
            p_events.iter().any(|e| e.key == key && e.trace == tc.id),
            "primary ring missing traced '{key}': {p_events:?}"
        );
    }
    // Replica's ring: the apply landed under the SAME id (it crossed
    // the frame boundary as the out-of-band annotation).
    let r_events = rt.trace_events();
    assert!(
        r_events
            .iter()
            .any(|e| e.key == "apply" && e.trace == tc.id),
        "replica ring missing traced apply: {r_events:?}"
    );
    // The warm-up batch stayed untraced.
    assert!(p_events.iter().any(|e| e.key == "flush" && e.trace == 0));
    // And tracing never touched digested state.
    assert_eq!(
        replica.lock().unwrap().state_digest(),
        Some(group.engine().lock().unwrap().state_digest())
    );
}

/// Per-link instruments over the real TCP transport: bytes shipped and
/// RTT samples per acknowledged frame, the acked-seq high-water gauge,
/// and send errors once the server is gone.
#[test]
fn tcp_link_metrics_label_the_peer() {
    let t = Telemetry::new();
    let mut primary = relay(1);
    let mut server = ReplicaServer::bind("127.0.0.1:0", Replica::new()).unwrap();
    let mut link = PrimaryLink::connect(server.addr()).unwrap();
    link.attach_telemetry(&t);
    let label = link.peer().to_string();

    let (_, boot) = primary.bootstrap().unwrap();
    let mut shipped = boot.to_text().len() as u64;
    link.send(&boot).unwrap();
    let mut sent = 1u64;
    let mut last_seq = boot.seq;
    let frames = drive(&mut primary, |e| insert_all(e, 0..16));
    for f in &frames {
        shipped += f.to_text().len() as u64;
        link.send(f).unwrap();
        sent += 1;
        last_seq = f.seq;
    }

    // Commit barrier: acks (and their RTT samples) are pipelined — the
    // drain forces every in-flight frame to resolve before reading the
    // instruments.
    assert_eq!(link.drain().unwrap(), Some(last_seq));

    let bytes = labeled("cluster_link_bytes_shipped_total", "replica", &label);
    let rtt = labeled("cluster_link_ack_rtt_nanos", "replica", &label);
    let acked = labeled("cluster_link_acked_seq", "replica", &label);
    let inflight = labeled("cluster_link_window_inflight", "replica", &label);
    let batches = labeled("cluster_ack_batch_size", "replica", &label);
    let errors = labeled("cluster_link_send_errors_total", "replica", &label);
    assert_eq!(counter(&t, &bytes), shipped);
    assert_eq!(t.histogram_snapshot(&rtt).map(|h| h.count()), Some(sent));
    assert_eq!(gauge(&t, &acked), last_seq);
    assert_eq!(gauge(&t, &inflight), 0, "drained: nothing in flight");
    let batch_samples = t
        .histogram_snapshot(&batches)
        .map(|h| h.count())
        .unwrap_or(0);
    assert!(
        (1..=sent).contains(&batch_samples),
        "cumulative acks arrive batched: {batch_samples} acks for {sent} frames"
    );
    assert_eq!(counter(&t, &errors), 0);

    // Kill the server: the accept loop is gone but the connected
    // handler lives on, so re-sending an already-acked frame is
    // rejected (sequence regression). The rejection surfaces on the
    // commit barrier, moves the error counter — and the optimistic
    // pipelined write still ships bytes before the `err` comes back.
    server.shutdown();
    drop(server);
    shipped += frames[0].to_text().len() as u64;
    let failed = link
        .send(&frames[0])
        .and_then(|()| link.drain().map(|_| ()));
    assert!(failed.is_err(), "resending an acked frame must be rejected");
    assert_eq!(counter(&t, &errors), 1);
    assert_eq!(
        counter(&t, &bytes),
        shipped,
        "the optimistic write is counted"
    );
}
