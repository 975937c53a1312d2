//! Pipelined-link and quorum group-commit proofs.
//!
//! * the cumulative-ack machinery: a stalled replica turns a window of
//!   pipelined frames into **one** cumulative ack, backpressure on a
//!   full window is explicit (`try_send` refuses, `send` stalls and
//!   counts it), and the total drain wait is bounded and typed;
//! * the hostile-ack corpus: a peer that acks out of protocol —
//!   regressing, above the shipped window, unacked sequences, garbage,
//!   non-UTF-8, oversized frames — produces a located
//!   [`TransportError::Protocol`], never a panic, and never moves the
//!   link's honest `acked_seq`;
//! * the proptest: cutting the link with a **full window of unacked
//!   frames in flight** at an arbitrary stream position and promoting
//!   the replica loses zero acknowledged events and converges
//!   byte-identically with an uninterrupted reference;
//! * quorum group commit: commit acks once ≥ quorum replicas applied,
//!   a stalled replica neither blocks a met quorum nor sneaks into the
//!   committed floor, a lost quorum is typed with how close it got, and
//!   repair brings a dropped link back without duplicating state;
//! * idle ticks on the primary: an empty flush ships nothing and burns
//!   no batch number.

use proptest::prelude::*;
use realloc_cluster::tcp::{LinkConfig, PrimaryLink, ReplicaServer};
use realloc_cluster::transport::{channel, FrameSink, TransportError};
use realloc_cluster::{Frame, GroupError, Primary, Replica, ReplicationGroup};
use realloc_core::snapshot::Restorable as _;
use realloc_core::textio::{read_frame, write_frame};
use realloc_core::{JobId, Request, Window};
use realloc_engine::{BackendKind, Engine, EngineConfig};
use realloc_sim::harness::churn_seq;
use realloc_telemetry::{labeled, Telemetry};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// Short timeouts so failure paths resolve in test time.
fn fast_config(window: usize) -> LinkConfig {
    LinkConfig {
        connect_timeout: Duration::from_secs(1),
        read_timeout: Duration::from_millis(50),
        write_timeout: Duration::from_secs(1),
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(20),
        reconnect_attempts: 2,
        window,
        drain_timeout: Duration::from_millis(400),
    }
}

/// A primary with its bootstrap and `n` single-insert flush frames.
fn seeded_primary(n: u64) -> (Primary, Vec<Frame>, Vec<Frame>) {
    let mut primary = Primary::new(Engine::new(journaled_config(2)), 1).unwrap();
    let (owed, boot) = primary.bootstrap();
    assert!(owed.is_empty());
    for i in 1..=n {
        primary.submit(Request::Insert {
            id: JobId(i),
            window: Window::new(i % 20, i % 20 + 3),
        });
        primary.flush();
    }
    let frames = primary.frames_since(0).expect("retained history");
    assert_eq!(frames.len() as u64, n);
    (primary, boot, frames)
}

fn counter(t: &Telemetry, name: &str) -> u64 {
    t.counter_value(name).unwrap_or(0)
}

fn gauge(t: &Telemetry, name: &str) -> u64 {
    t.gauge_value(name).unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Pipelining: batched cumulative acks, backpressure, bounded drain.
// ---------------------------------------------------------------------------

/// A replica stalled under its lock turns a window of pipelined frames
/// into a single cumulative ack once released — observable in the
/// `cluster_ack_batch_size` histogram and the in-flight gauge.
#[test]
fn a_stalled_replica_batches_the_window_into_one_cumulative_ack() {
    let t = Telemetry::new();
    let (_primary, boot, frames) = seeded_primary(5);
    let server = ReplicaServer::bind("127.0.0.1:0", Replica::new()).unwrap();
    let mut link = PrimaryLink::connect_with(server.addr(), fast_config(8)).unwrap();
    link.attach_telemetry(&t);
    let label = link.peer().to_string();

    for f in &boot {
        link.send(f).unwrap();
    }
    assert_eq!(link.drain().unwrap(), Some(boot[0].seq));

    // Hold the replica lock: the handler blocks before applying frame
    // 1, so all five frames are on the wire when it gets to work — one
    // batch, one `ok 5`.
    let cell = server.replica();
    let guard = cell.lock().unwrap();
    for f in &frames {
        link.send(f).unwrap();
    }
    assert_eq!(link.in_flight(), 5);
    let inflight = labeled("cluster_link_window_inflight", "replica", &label);
    assert_eq!(gauge(&t, &inflight), 5);
    drop(guard);

    let last = frames.last().unwrap().seq;
    assert_eq!(link.drain().unwrap(), Some(last));
    assert_eq!(link.acked_seq(), Some(last));
    assert_eq!(link.in_flight(), 0);
    assert_eq!(gauge(&t, &inflight), 0);
    assert_eq!(
        gauge(&t, &labeled("cluster_link_acked_seq", "replica", &label)),
        last
    );
    // Two ack arrivals total: the bootstrap's, then one covering all 5.
    let batch = labeled("cluster_ack_batch_size", "replica", &label);
    assert_eq!(t.histogram_snapshot(&batch).map(|h| h.count()), Some(2));
    // Every retired frame got an RTT sample even though acks batched.
    let rtt = labeled("cluster_link_ack_rtt_nanos", "replica", &label);
    assert_eq!(t.histogram_snapshot(&rtt).map(|h| h.count()), Some(6));
}

/// With the window exhausted, `try_send` refuses with the typed
/// `WindowFull` (leaving the link healthy) while `send` stalls until an
/// ack frees a slot — and the stall is counted.
#[test]
fn a_full_window_refuses_try_send_and_stalls_send() {
    let t = Telemetry::new();
    let (_primary, boot, frames) = seeded_primary(4);
    let server = ReplicaServer::bind("127.0.0.1:0", Replica::new()).unwrap();
    let config = LinkConfig {
        window: 2,
        ..LinkConfig::default()
    };
    let mut link = PrimaryLink::connect_with(server.addr(), config).unwrap();
    link.attach_telemetry(&t);
    let label = link.peer().to_string();
    for f in &boot {
        link.send(f).unwrap();
    }
    link.drain().unwrap();

    // Stall the replica from another thread, releasing after a delay.
    let cell = server.replica();
    let (locked_tx, locked_rx) = mpsc::channel();
    let holder = std::thread::spawn(move || {
        let guard = cell.lock().unwrap();
        locked_tx.send(()).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        drop(guard);
    });
    locked_rx.recv().unwrap();

    link.send(&frames[0]).unwrap();
    link.send(&frames[1]).unwrap();
    assert_eq!(link.in_flight(), 2);
    match link.try_send(&frames[2]) {
        Err(TransportError::WindowFull { window }) => assert_eq!(window, 2),
        other => panic!("full window must refuse try_send, got {other:?}"),
    }
    assert!(
        link.is_connected(),
        "WindowFull is not a connection failure"
    );

    // The blocking variant waits out the stall instead.
    link.send(&frames[2]).unwrap();
    link.send(&frames[3]).unwrap();
    assert_eq!(link.drain().unwrap(), Some(frames[3].seq));
    let stalls = labeled("cluster_link_backpressure_stalls_total", "replica", &label);
    assert!(counter(&t, &stalls) >= 1, "the stall is counted");
    holder.join().unwrap();
}

/// The drain timeout bounds the *total* pipeline wait and is typed and
/// counted — a peer that reads frames but never acks cannot wedge the
/// primary one read-timeout at a time.
#[test]
fn a_mute_peer_fails_the_drain_within_the_total_bound() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mute: JoinHandle<()> = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = std::io::BufReader::new(stream);
        // Read frames forever, never ack.
        while let Ok(Some(_)) = read_frame(&mut reader, 1 << 20) {}
    });

    let t = Telemetry::new();
    let (_primary, _boot, frames) = seeded_primary(3);
    let mut link = PrimaryLink::connect_with(addr, fast_config(4)).unwrap();
    link.attach_telemetry(&t);
    let label = link.peer().to_string();
    for f in &frames {
        link.send(f).unwrap();
    }
    let started = Instant::now();
    match link.drain() {
        Err(TransportError::DrainTimeout { waited, in_flight }) => {
            assert_eq!(waited, Duration::from_millis(400));
            assert_eq!(in_flight, 3);
        }
        other => panic!("mute peer must time the drain out, got {other:?}"),
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed >= Duration::from_millis(300) && elapsed < Duration::from_secs(4),
        "total-bounded drain took {elapsed:?}"
    );
    assert!(!link.is_connected());
    let timeouts = labeled("cluster_link_drain_timeouts_total", "replica", &label);
    assert_eq!(counter(&t, &timeouts), 1);
    drop(link); // closes the socket; the mute peer sees EOF
    mute.join().unwrap();
}

// ---------------------------------------------------------------------------
// Hostile acks: located errors, no panics, honest window state.
// ---------------------------------------------------------------------------

/// A fake replica that reads `expect_frames` frames, writes the
/// scripted ack payloads (length-prefixed), then optionally dumps raw
/// bytes, and finally holds the connection open until the peer leaves.
fn scripted_acker(
    expect_frames: usize,
    acks: Vec<Vec<u8>>,
    raw_tail: Vec<u8>,
) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut write_half = stream.try_clone().unwrap();
        let mut reader = std::io::BufReader::new(stream);
        for _ in 0..expect_frames {
            let _ = read_frame(&mut reader, 1 << 20);
        }
        for ack in &acks {
            let _ = write_frame(&mut write_half, ack);
        }
        let _ = write_half.write_all(&raw_tail);
        let _ = write_half.flush();
        // Stay connected until the primary hangs up.
        while let Ok(Some(_)) = read_frame(&mut reader, 1 << 20) {}
    });
    (addr, handle)
}

/// Ships two frames at a peer that answers with `acks` (+ `raw_tail`
/// bytes) and returns the drain error plus the link's post-mortem
/// `acked_seq`.
fn hostile_drain(acks: Vec<Vec<u8>>, raw_tail: Vec<u8>) -> (TransportError, Option<u64>) {
    let (addr, server) = scripted_acker(2, acks, raw_tail);
    let (_primary, _boot, frames) = seeded_primary(2);
    // A generous drain bound: these tests assert on the *located
    // error*, and a starved acker thread (the suite runs many-way
    // parallel, possibly on one core, alongside the CPU-heavy proptest)
    // must delay the verdict, not turn it into a timeout.
    let config = LinkConfig {
        drain_timeout: Duration::from_secs(60),
        ..fast_config(4)
    };
    let mut link = PrimaryLink::connect_with(addr, config).unwrap();
    // A pipelined error surfaces on whichever call touches the link
    // next: the second send's opportunistic pump may already see the
    // hostile ack, or it may wait for the drain. Either way it must be
    // the same located error.
    let err = link
        .send(&frames[0])
        .and_then(|()| link.send(&frames[1]))
        .and_then(|()| link.drain().map(|_| ()))
        .expect_err("hostile acks must fail the link");
    assert!(!link.is_connected(), "a protocol violation drops the conn");
    let acked = link.acked_seq();
    drop(link);
    server.join().unwrap();
    (err, acked)
}

fn assert_protocol(err: TransportError, needle: &str) {
    match err {
        TransportError::Protocol(detail) => assert!(
            detail.contains(needle),
            "located error should mention '{needle}': {detail}"
        ),
        other => panic!("expected a Protocol error about '{needle}', got {other:?}"),
    }
}

#[test]
fn a_regressing_cumulative_ack_is_rejected_after_the_honest_prefix() {
    // `ok 1` retires frame 1; a second `ok 1` moves the cumulative ack
    // backwards — rejected, but the honest ack survives the drop.
    let (err, acked) = hostile_drain(vec![b"ok 1".to_vec(), b"ok 1".to_vec()], vec![]);
    assert_protocol(err, "regressing ack 1");
    assert_eq!(acked, Some(1), "the honest prefix is kept");
}

#[test]
fn an_ack_above_the_shipped_window_is_rejected() {
    let (err, acked) = hostile_drain(vec![b"ok 9".to_vec()], vec![]);
    assert_protocol(err, "above the shipped window");
    assert_eq!(acked, None, "a lying ack never moves acked_seq");
}

#[test]
fn an_ack_for_an_unshipped_sequence_is_rejected() {
    // 0 is below everything in flight yet matches no shipped frame.
    let (err, acked) = hostile_drain(vec![b"ok 0".to_vec()], vec![]);
    assert_protocol(err, "matches no shipped frame");
    assert_eq!(acked, None);
}

#[test]
fn a_garbage_ack_line_is_rejected_without_panicking() {
    let (err, acked) = hostile_drain(vec![b"yeah whatever".to_vec()], vec![]);
    assert_protocol(err, "malformed ack line");
    assert_eq!(acked, None);
}

#[test]
fn an_unparsable_ack_sequence_is_rejected() {
    let (err, acked) = hostile_drain(vec![b"ok banana".to_vec()], vec![]);
    assert_protocol(err, "malformed ack sequence");
    assert_eq!(acked, None);
}

#[test]
fn a_non_utf8_ack_is_rejected() {
    let (err, acked) = hostile_drain(vec![vec![0xff, 0xfe, 0x80]], vec![]);
    assert_protocol(err, "not UTF-8");
    assert_eq!(acked, None);
}

#[test]
fn an_oversized_ack_frame_is_rejected_before_it_is_read() {
    // A raw header claiming a 1 MiB ack: the cap rejects it from the
    // length prefix alone — the body never needs to arrive.
    let mut tail = (1u32 << 20).to_be_bytes().to_vec();
    tail.extend_from_slice(b"oops");
    let (err, acked) = hostile_drain(vec![], tail);
    assert_protocol(err, "exceeds the 4096-byte cap");
    assert_eq!(acked, None);
}

/// A hostile ack that lands while `send` is *stalled on a full window*
/// must surface as the typed `Protocol` error from that very call —
/// never a panic. Regression guard for the `expect("live connection")`
/// that used to sit on the post-stall write path in `send_impl`: the
/// stall loop hands the link to ack processing, which on hostile input
/// drops the connection, and the subsequent write must observe that as
/// a typed failure rather than an invariant.
#[test]
fn a_hostile_ack_during_a_window_stall_fails_typed_not_panicking() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut write_half = stream.try_clone().unwrap();
        let mut reader = std::io::BufReader::new(stream);
        for _ in 0..2 {
            let _ = read_frame(&mut reader, 1 << 20);
        }
        // Let the primary enter the backpressure stall before lying.
        std::thread::sleep(Duration::from_millis(150));
        let _ = write_frame(&mut write_half, b"ok 9");
        let _ = write_half.flush();
        while let Ok(Some(_)) = read_frame(&mut reader, 1 << 20) {}
    });

    let (_primary, _boot, frames) = seeded_primary(3);
    let config = LinkConfig {
        drain_timeout: Duration::from_secs(30),
        ..fast_config(2)
    };
    let mut link = PrimaryLink::connect_with(addr, config).unwrap();
    link.send(&frames[0]).unwrap();
    link.send(&frames[1]).unwrap();
    assert_eq!(link.in_flight(), 2, "the window is full");
    // Blocking send stalls for an ack slot; the ack that arrives is
    // hostile. The call must fail typed, with the honest state intact.
    let err = link
        .send(&frames[2])
        .expect_err("a hostile ack must fail the stalled send");
    assert_protocol(err, "above the shipped window");
    assert!(!link.is_connected(), "the poisoned connection is dropped");
    assert_eq!(link.acked_seq(), None, "a lying ack never moves acked_seq");
    drop(link);
    server.join().unwrap();
}

/// An honest ack dribbled one byte per read-timeout window (length
/// prefix and payload split across many TCP segments) must still be
/// reassembled and processed: a timeout mid-frame parks the partial
/// bytes in the link's staging buffer instead of stranding them in the
/// reader. Regression test — a split ack used to wedge the drain until
/// its full timeout.
#[test]
fn an_ack_split_across_reads_is_reassembled() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        stream.set_nodelay(true).unwrap();
        let mut write_half = stream.try_clone().unwrap();
        let mut reader = std::io::BufReader::new(stream);
        for _ in 0..2 {
            let _ = read_frame(&mut reader, 1 << 20);
        }
        let payload = b"ok 2";
        let mut framed = (payload.len() as u32).to_be_bytes().to_vec();
        framed.extend_from_slice(payload);
        for b in framed {
            write_half.write_all(&[b]).unwrap();
            write_half.flush().unwrap();
            std::thread::sleep(Duration::from_millis(60));
        }
        while let Ok(Some(_)) = read_frame(&mut reader, 1 << 20) {}
    });
    let (_primary, _boot, frames) = seeded_primary(2);
    let config = LinkConfig {
        read_timeout: Duration::from_millis(50),
        drain_timeout: Duration::from_secs(30),
        window: 4,
        ..LinkConfig::default()
    };
    let mut link = PrimaryLink::connect_with(addr, config).unwrap();
    link.send(&frames[0]).unwrap();
    link.send(&frames[1]).unwrap();
    assert_eq!(link.drain().unwrap(), Some(frames[1].seq));
    assert_eq!(link.in_flight(), 0);
    drop(link);
    server.join().unwrap();
}

// ---------------------------------------------------------------------------
// Failover with a full window in flight (proptest).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cut the TCP link at an arbitrary stream position with up to a
    /// full window of unacknowledged frames in flight, promote the
    /// replica at that instant: every acknowledged event survives,
    /// nothing unacknowledged leaks in, and re-driving the unacked
    /// suffix converges byte-identically with an uninterrupted
    /// reference engine.
    #[test]
    fn failover_with_a_full_window_in_flight_loses_no_acked_event(
        seed in 0u64..1000,
        len in 120usize..300,
        cut_salt in 0usize..10_000,
        inflight in 1usize..=8,
    ) {
        const BATCH: usize = 8;
        const WINDOW: usize = 8;
        let seq = churn_seq(1, 8, 60, 1 << 12, false, len, seed);
        let chunks: Vec<&[realloc_core::Request]> =
            seq.requests().chunks(BATCH).collect();

        let mut primary = Primary::new(Engine::new(journaled_config(2)), 1).unwrap();
        let server = ReplicaServer::bind("127.0.0.1:0", Replica::new()).unwrap();
        let mut link = PrimaryLink::connect_with(
            server.addr(),
            LinkConfig { window: WINDOW, ..LinkConfig::default() },
        ).unwrap();
        let (_, boot) = primary.bootstrap();
        for f in &boot {
            link.send(f).unwrap();
        }

        // Generate the full frame stream up front; coverage[i] = chunks
        // fully applied once frames[..=i] landed.
        let mut frames: Vec<Frame> = Vec::new();
        let mut coverage: Vec<usize> = Vec::new();
        for (i, chunk) in chunks.iter().enumerate() {
            for &r in *chunk {
                primary.submit(r);
            }
            let (_, f) = primary.flush();
            for fr in f {
                frames.push(fr);
                coverage.push(i + 1);
            }
        }

        // frames[..cut] are shipped and *drained* (acknowledged);
        // frames[cut..cut+k] are shipped but stuck behind the replica's
        // lock when the primary dies.
        let cut = 1 + cut_salt % frames.len();
        let k = inflight.min(WINDOW).min(frames.len() - cut);
        for f in &frames[..cut] {
            link.send(f).unwrap();
        }
        link.drain().unwrap();
        prop_assert_eq!(link.acked_seq(), Some(frames[cut - 1].seq));

        let cell = server.replica();
        let mut guard = cell.lock().unwrap();
        for f in &frames[cut..cut + k] {
            // Within the window: accepted for delivery without blocking.
            link.try_send(f).unwrap();
        }
        prop_assert_eq!(link.in_flight(), k);
        let acked = link.acked_seq().unwrap();
        drop(link); // the primary dies with the pipe full

        // Promote under the same lock the handler is blocked on: the
        // in-flight tail races the crash and loses, exactly as specified.
        let mut promoted = guard.promote().unwrap();
        drop(guard);
        prop_assert_eq!(promoted.term(), 2);
        prop_assert_eq!(
            promoted.next_seq(),
            acked + 1,
            "promoted state is exactly the acknowledged prefix"
        );

        // Re-drive everything not yet acknowledged on the new lineage.
        for chunk in chunks.iter().skip(coverage[cut - 1]) {
            for &r in *chunk {
                promoted.submit(r);
            }
            promoted.flush();
        }

        let mut reference = Engine::new(journaled_config(2));
        for chunk in &chunks {
            for &r in *chunk {
                reference.submit(r);
            }
            reference.flush();
        }
        prop_assert_eq!(
            promoted.engine().snapshot_text(),
            reference.snapshot_text()
        );
    }
}

// ---------------------------------------------------------------------------
// Quorum group commit.
// ---------------------------------------------------------------------------

fn tcp_group(
    quorum: usize,
    replicas: usize,
    config: LinkConfig,
    t: &Telemetry,
) -> (ReplicationGroup, Vec<ReplicaServer>) {
    let primary = Primary::new(Engine::new(journaled_config(2)), 1).unwrap();
    let mut group = ReplicationGroup::new(primary, quorum).unwrap();
    group.attach_telemetry(t);
    let mut servers = Vec::new();
    for _ in 0..replicas {
        let server = ReplicaServer::bind("127.0.0.1:0", Replica::new()).unwrap();
        let mut link = PrimaryLink::connect_with(server.addr(), config.clone()).unwrap();
        link.attach_telemetry(t);
        group.add_replica(Box::new(link)).unwrap();
        servers.push(server);
    }
    (group, servers)
}

fn submit_batch(group: &mut ReplicationGroup, ids: std::ops::Range<u64>) {
    for i in ids {
        group.submit(Request::Insert {
            id: JobId(i),
            window: Window::new(i % 20, i % 20 + 3),
        });
    }
}

/// Quorum-of-2 over two TCP replicas: every commit lands both replicas
/// at the shipped position, byte-identical to the primary, and the
/// group instruments track it.
#[test]
fn quorum_commit_acks_once_both_replicas_applied() {
    let t = Telemetry::new();
    let (mut group, servers) = tcp_group(2, 2, LinkConfig::default(), &t);
    for round in 0..5u64 {
        submit_batch(&mut group, round * 8..round * 8 + 8);
        let (report, shipped) = group.flush();
        assert_eq!(report.processed(), 8);
        let committed = group.commit().expect("both replicas are healthy");
        assert_eq!(committed, shipped);
        assert_eq!(group.committed_seq(), shipped);
    }
    assert_eq!(counter(&t, "cluster_group_commits_total"), 5);
    assert_eq!(counter(&t, "cluster_group_quorum_failures_total"), 0);
    assert_eq!(
        gauge(&t, "cluster_group_committed_seq"),
        group.shipped_seq()
    );
    let digest = group.primary().engine().state_digest();
    for server in &servers {
        let cell = server.replica();
        let replica = cell.lock().unwrap();
        assert_eq!(replica.state_digest(), Some(digest));
        replica.validate().expect("replica valid");
    }
}

/// With quorum 1 of 2, a replica stalled under its lock neither blocks
/// the commit nor inflates the committed floor; once released, the
/// laggard drains back to parity.
#[test]
fn a_stalled_replica_does_not_block_a_met_quorum() {
    let t = Telemetry::new();
    let (mut group, servers) = tcp_group(1, 2, LinkConfig::default(), &t);
    // Prime both replicas so the stall happens mid-stream.
    submit_batch(&mut group, 0..4);
    let (_, shipped) = group.flush();
    assert_eq!(group.commit().unwrap(), shipped);

    let cell = servers[1].replica();
    let guard = cell.lock().unwrap();
    submit_batch(&mut group, 4..8);
    let (_, shipped) = group.flush();
    let started = Instant::now();
    let committed = group.commit().expect("replica 1 alone meets quorum 1");
    assert_eq!(committed, shipped);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "a met quorum never waits on the laggard"
    );
    drop(guard);

    // The stalled replica's frames were pipelined all along: draining
    // its link directly brings it to parity without a resend.
    let (primary, mut links) = group.into_parts();
    assert_eq!(links[1].drain().unwrap(), Some(shipped));
    let digest = primary.engine().state_digest();
    for server in &servers {
        let cell = server.replica();
        assert_eq!(cell.lock().unwrap().state_digest(), Some(digest));
    }
}

/// A missed quorum is a typed report, not a hang: commit fails within
/// the drain bound carrying how many replicas made it, and the next
/// commit repairs the dropped link back to parity.
#[test]
fn quorum_lost_is_typed_and_the_next_commit_repairs() {
    let t = Telemetry::new();
    let (mut group, servers) = tcp_group(2, 2, fast_config(8), &t);
    submit_batch(&mut group, 0..4);
    let (_, shipped) = group.flush();
    assert_eq!(group.commit().unwrap(), shipped);

    // Stall replica 2 past the drain timeout: quorum 2 cannot be met,
    // and the stalled link's connection is dropped by its bounded drain.
    let cell = servers[1].replica();
    let guard = cell.lock().unwrap();
    submit_batch(&mut group, 4..8);
    let (_, shipped) = group.flush();
    match group.commit() {
        Err(GroupError::QuorumLost {
            needed,
            acked,
            last_error,
        }) => {
            assert_eq!(needed, 2);
            assert_eq!(acked, 1, "the healthy replica did reach the target");
            assert!(last_error.is_some(), "the laggard's failure is reported");
        }
        other => panic!("a stalled quorum member must lose the quorum: {other:?}"),
    }
    assert_eq!(counter(&t, "cluster_group_quorum_failures_total"), 1);
    drop(guard);

    // Release and retry: commit's repair pass re-ships from the last
    // cumulative ack (or re-bootstraps if the replica slid forward) and
    // the quorum is met again.
    let committed = group.commit().expect("repair restores the quorum");
    assert_eq!(committed, shipped);
    let digest = group.primary().engine().state_digest();
    for server in &servers {
        let cell = server.replica();
        assert_eq!(cell.lock().unwrap().state_digest(), Some(digest));
    }
}

/// A sink that accepts frames but never acknowledges (the fire-and-
/// forget channel) can ride along in a group but never satisfies a
/// quorum — and never poisons the committed floor.
#[test]
fn a_never_acking_sink_cannot_satisfy_a_quorum() {
    let t = Telemetry::new();
    let (mut group, _servers) = tcp_group(2, 1, LinkConfig::default(), &t);
    let (sink, source) = channel();
    group.add_replica(Box::new(sink)).unwrap();
    submit_batch(&mut group, 0..4);
    let (_, shipped) = group.flush();
    match group.commit() {
        Err(GroupError::QuorumLost { needed, acked, .. }) => {
            assert_eq!((needed, acked), (2, 1));
        }
        other => panic!("a never-acking sink must not count: {other:?}"),
    }
    // The floor only counts acknowledged replicas: quorum-th highest of
    // [shipped, 0] is 0.
    assert_eq!(group.committed_seq(), 0);
    assert!(shipped > 0);
    drop(source);
}

// ---------------------------------------------------------------------------
// Idle ticks on the primary.
// ---------------------------------------------------------------------------

/// An empty engine flush would bump the batch counter — digested state
/// — with no frame to carry it to the replicas, so an idle
/// `Primary::flush` must not reach the engine at all.
#[test]
fn idle_flush_ships_nothing_and_burns_no_batch_number() {
    let mut primary = Primary::new(Engine::new(journaled_config(2)), 1).unwrap();
    primary.submit(Request::Insert {
        id: JobId(1),
        window: Window::new(10, 14),
    });
    let (r, f) = primary.flush();
    assert_eq!((r.processed(), f.len()), (1, 1));

    let (batches, digest) = (primary.engine().batches(), primary.engine().state_digest());
    let (r, f) = primary.flush();
    assert_eq!((r.processed(), r.failed(), f.len()), (0, 0, 0));
    assert_eq!(primary.engine().batches(), batches);
    assert_eq!(primary.engine().state_digest(), digest);
}
