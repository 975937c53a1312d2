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
use realloc_cluster::{Frame, JournalRelay, Primary, Replica, ReplicationGroup};
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
    let mut primary = Primary::new(Engine::new(journaled_config(2)), 1).unwrap();
    primary.attach_telemetry(&pt);
    let mut replica = Replica::new();
    replica.attach_telemetry(&rt);

    let (owed, boot) = primary.bootstrap();
    assert!(owed.is_empty());
    for f in &boot {
        replica.apply(f).unwrap();
    }
    assert!(replica.is_bootstrapped());

    let mut stream: Vec<Frame> = Vec::new();
    let mut events_frames = 0u64;
    for batch in 0..6u64 {
        for i in 0..24u64 {
            primary.submit(Request::Insert {
                id: JobId(batch * 24 + i),
                window: Window::new(0, 1 << 12),
            });
        }
        let (_, frames) = primary.flush();
        events_frames += frames.len() as u64;
        stream.extend(frames);
        if batch == 2 {
            let (_, frames) = primary.resize(3).unwrap();
            stream.extend(frames);
        }
    }
    stream.extend(primary.checkpoint());

    // Primary side: per-payload counters count exactly what was stamped.
    assert_eq!(counter(&pt, "cluster_frames_events_total"), events_frames);
    assert_eq!(counter(&pt, "cluster_frames_epoch_total"), 1);
    assert_eq!(counter(&pt, "cluster_frames_check_total"), 1);
    // One snapshot: the joiner bootstrap.
    assert_eq!(counter(&pt, "cluster_frames_snapshot_total"), 1);
    assert_eq!(gauge(&pt, "cluster_next_seq"), primary.next_seq());
    assert_eq!(gauge(&pt, "cluster_term"), primary.term());
    assert_eq!(
        pt.histogram_snapshot("cluster_checkpoint_nanos")
            .map(|h| h.count()),
        Some(1)
    );
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
        boot.len() as u64 + stream.len() as u64
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
        Some(primary.engine().state_digest())
    );
}

/// The relay's joiner bootstrap is observed exactly like a primary's —
/// both come out of the one frame-stream producer: the snapshot
/// shipment is counted, its production is timed, and the `bootstrap`
/// point lands in the trace ring.
#[test]
fn relay_bootstrap_is_timed_and_traced_like_a_primarys() {
    let bootstrap_registry = |attach_and_bootstrap: &dyn Fn(&Telemetry)| {
        let t = Telemetry::with_clock(Clock::manual(), 16);
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
    let via_primary = bootstrap_registry(&|t| {
        let mut primary = Primary::new(Engine::new(journaled_config(2)), 1).unwrap();
        primary.attach_telemetry(t);
        primary.bootstrap();
    });
    let via_relay = bootstrap_registry(&|t| {
        let engine = Arc::new(Mutex::new(Engine::new(journaled_config(2))));
        let mut relay = JournalRelay::new(engine, 1).unwrap();
        relay.attach_telemetry(t);
        relay.bootstrap().unwrap();
    });
    // One snapshot frame shipped, timed once, one point carrying the
    // joiner's frame count and the (manual-clock: zero) duration.
    assert_eq!(via_primary, (1, Some(1), vec![(1, 0)]));
    assert_eq!(via_relay, via_primary);
}

/// Rejections and fencing-term adoptions land in the counters and the
/// trace ring with the expected severities.
#[test]
fn rejections_and_term_changes_are_counted() {
    let rt = Telemetry::with_clock(Clock::manual(), 64);
    let mut primary = Primary::new(Engine::new(journaled_config(1)), 1).unwrap();
    let mut replica = Replica::new();
    replica.attach_telemetry(&rt);

    let (_, boot) = primary.bootstrap();
    for f in &boot {
        replica.apply(f).unwrap();
    }
    // Bootstrapping adopted term 1 from term 0.
    assert_eq!(counter(&rt, "cluster_replica_term_changes_total"), 1);

    primary.submit(Request::Insert {
        id: JobId(1),
        window: Window::new(0, 64),
    });
    let (_, frames) = primary.flush();
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
    let primary = Primary::new(Engine::new(journaled_config(2)), 1).unwrap();
    let mut group = ReplicationGroup::new(primary, 1).unwrap();
    group.attach_telemetry(&pt);

    let mut replica = Replica::new();
    replica.attach_telemetry(&rt);
    let replica = Arc::new(Mutex::new(replica));
    group
        .add_replica(Box::new(LocalLink::new(Arc::clone(&replica))))
        .unwrap();

    // An untraced warm-up batch: its spans must stay out of the trace.
    group.submit(Request::Insert {
        id: JobId(0),
        window: Window::new(0, 256),
    });
    group.flush();
    group.commit().unwrap();

    let tc = TraceCtx::mint(1_234, 7);
    for i in 1..9u64 {
        group.submit(Request::Insert {
            id: JobId(i),
            window: Window::new(0, 256),
        });
    }
    group.primary_mut().engine_mut().arm_trace(tc);
    let (report, shipped) = group.flush();
    assert_eq!(report.processed(), 8);
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
        Some(group.primary().engine().state_digest())
    );
}

/// Per-link instruments over the real TCP transport: bytes shipped and
/// RTT samples per acknowledged frame, the acked-seq high-water gauge,
/// and send errors once the server is gone.
#[test]
fn tcp_link_metrics_label_the_peer() {
    let t = Telemetry::new();
    let mut primary = Primary::new(Engine::new(journaled_config(1)), 1).unwrap();
    let mut server = ReplicaServer::bind("127.0.0.1:0", Replica::new()).unwrap();
    let mut link = PrimaryLink::connect(server.addr()).unwrap();
    link.attach_telemetry(&t);
    let label = link.peer().to_string();

    let (_, boot) = primary.bootstrap();
    let mut shipped = 0u64;
    let mut sent = 0u64;
    let mut last_seq = 0u64;
    for f in &boot {
        shipped += f.to_text().len() as u64;
        link.send(f).unwrap();
        sent += 1;
        last_seq = f.seq;
    }
    for i in 0..16u64 {
        primary.submit(Request::Insert {
            id: JobId(i),
            window: Window::new(0, 256),
        });
    }
    let (_, frames) = primary.flush();
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
