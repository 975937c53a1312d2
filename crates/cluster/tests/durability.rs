//! Durability-aware replication: a primary recovered from the on-disk
//! store bootstraps replicas from its recovered checkpoint, links
//! survive dead peers with bounded timeouts and backoff, and a poisoned
//! replica lock degrades a connection instead of panicking the server.

use realloc_cluster::tcp::{LinkConfig, PrimaryLink, ReplicaServer};
use realloc_cluster::transport::{FrameSink, TransportError};
use realloc_cluster::{Frame, JournalRelay, Payload, Replica};
use realloc_core::{JobId, Request, Window};
use realloc_engine::{BackendKind, Engine, EngineConfig};
use realloc_store::{CrashMode, DurableStore, MemIo, RecoverFromDir, StoreIo};
use std::io::Write as _;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn config() -> EngineConfig {
    EngineConfig {
        shards: 2,
        machines_per_shard: 2,
        backend: BackendKind::TheoremOne { gamma: 8 },
        parallel: false,
        journal: true,
        retained_segments: 2,
    }
}

/// A relay over a fresh shared engine.
fn relay() -> JournalRelay {
    JournalRelay::new(Arc::new(Mutex::new(Engine::new(config()))), 1).expect("relay")
}

/// Inserts job `id`, flushes the relay's engine, and polls the frames.
fn insert(relay: &mut JournalRelay, id: u64, window: Window) -> Vec<Frame> {
    {
        let mut engine = relay.engine().lock().unwrap();
        engine.submit(Request::Insert {
            id: JobId(id),
            window,
        });
        engine.flush();
    }
    relay.poll()
}

/// A durable engine with `pre` flushed batches, a checkpoint, then
/// `post` more flushed batches (the recovered tail).
fn durable_history(io: &Arc<MemIo>, dir: &Path, pre: usize, post: usize) -> Engine {
    let mut engine = Engine::new(config());
    let store = DurableStore::create(
        Arc::clone(io) as Arc<dyn StoreIo>,
        dir,
        engine.journal().expect("journaled").config(),
    )
    .expect("create store");
    engine.attach_durability(Box::new(store)).expect("attach");
    for i in 0..pre + post {
        if i == pre {
            assert!(engine.checkpoint());
            assert!(engine.durability_error().is_none());
        }
        let id = i as u64 + 1;
        engine.submit(Request::Insert {
            id: JobId(id),
            window: Window::new(id % 25, id % 25 + 2),
        });
        engine.flush_durable().expect("durable flush");
    }
    engine
}

#[test]
fn recovered_primary_bootstraps_replicas_from_the_on_disk_checkpoint() {
    let io = Arc::new(MemIo::new());
    let dir = PathBuf::from("/store");
    let engine = durable_history(&io, &dir, 6, 3);
    let live_digest = engine.state_digest();
    drop(engine); // power loss
    io.crash(CrashMode::SyncedOnly);

    let recovered = Engine::recover_from_store(&*io, &dir).expect("recovery");
    assert_eq!(recovered.state_digest(), live_digest, "no acked batch lost");
    let checkpoint_events = recovered
        .journal()
        .expect("journaled")
        .latest_checkpoint()
        .expect("checkpointed history")
        .events_before;

    let mut primary = JournalRelay::from_recovered(Arc::new(Mutex::new(recovered)), 1)
        .expect("recovered primary");
    let (owed, snapshot) = primary.bootstrap().expect("nothing queued");
    assert!(
        owed.is_empty(),
        "nothing unshipped before any replica attaches"
    );
    // The O(tail) path: the *checkpoint* snapshot (strictly fewer events
    // than the recovered total) anchors the stream at seq 0, and the
    // recovered post-checkpoint tail follows as ordinary frames — the
    // full-state snapshot a plain `JournalRelay::new` would ship never
    // gets serialized.
    match &snapshot.payload {
        Payload::Snapshot { events_applied, .. } => {
            assert_eq!(*events_applied, checkpoint_events);
            let total = primary
                .engine()
                .lock()
                .unwrap()
                .journal()
                .unwrap()
                .total_events();
            assert!(
                *events_applied < total,
                "bootstrap anchored at the checkpoint, not the full state"
            );
        }
        other => panic!("bootstrap must lead with a snapshot, got {other:?}"),
    }
    assert_eq!(snapshot.seq, 0);
    let tail = primary.frames_since(snapshot.seq).expect("tail retained");
    assert!(!tail.is_empty(), "recovered tail rides behind the snapshot");

    let mut replica = Replica::new();
    for frame in std::iter::once(&snapshot).chain(&tail) {
        replica.apply(frame).expect("bootstrap frames apply");
    }
    assert_eq!(replica.state_digest(), Some(live_digest));
    replica.validate().expect("replica valid");

    // The recovered lineage keeps streaming: new work reaches the
    // replica through the ordinary frame path.
    for frame in &insert(&mut primary, 500, Window::new(3, 9)) {
        replica.apply(frame).expect("post-recovery stream applies");
    }
    assert_eq!(
        replica.state_digest(),
        Some(primary.engine().lock().unwrap().state_digest())
    );
}

#[test]
fn recovered_primary_without_a_checkpoint_ships_a_full_snapshot() {
    let io = Arc::new(MemIo::new());
    let dir = PathBuf::from("/store");
    let engine = durable_history(&io, &dir, 0, 0);
    drop(engine);
    io.crash(CrashMode::SyncedOnly);
    let recovered = Engine::recover_from_store(&*io, &dir).expect("recovery");
    let mut primary =
        JournalRelay::from_recovered(Arc::new(Mutex::new(recovered)), 1).expect("primary");
    let (_owed, snapshot) = primary.bootstrap().expect("nothing queued");
    assert_eq!(
        primary.frames_since(snapshot.seq).as_deref(),
        Some(&[][..]),
        "no checkpoint, no tail: one full snapshot"
    );
    let mut replica = Replica::new();
    replica.apply(&snapshot).expect("snapshot applies");
    assert_eq!(
        replica.state_digest(),
        Some(primary.engine().lock().unwrap().state_digest())
    );
}

/// A link policy tight enough to keep failure tests fast while still
/// exercising the backoff ladder.
fn fast_config() -> LinkConfig {
    LinkConfig {
        connect_timeout: Duration::from_millis(250),
        read_timeout: Duration::from_millis(250),
        write_timeout: Duration::from_millis(250),
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(8),
        reconnect_attempts: 3,
        window: 4,
        drain_timeout: Duration::from_millis(400),
    }
}

#[test]
fn connecting_to_a_dead_address_fails_bounded_not_forever() {
    // Bind-then-drop guarantees an unused port.
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr")
    };
    let start = std::time::Instant::now();
    let err = PrimaryLink::connect_with(addr, fast_config()).expect_err("nothing listens");
    let _ = err.to_string();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "bounded attempts, bounded backoff"
    );
}

#[test]
fn unacked_pipeline_drain_times_out_bounded_and_typed() {
    // A peer that accepts but never acks: the pipelined send succeeds
    // (the frame is in flight), and it is the *drain* — bounded by
    // `drain_timeout` in total, not per ack read — that must fail with
    // the typed error instead of wedging the primary.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let hold = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        // Swallow the frame, send no ack, keep the socket open.
        let _ = std::io::copy(&mut stream, &mut std::io::sink());
    });
    let mut link = PrimaryLink::connect_with(addr, fast_config()).expect("connect");
    assert!(link.is_connected());
    let frames = insert(&mut relay(), 1, Window::new(0, 4));
    link.send(&frames[0])
        .expect("pipelined send accepts the frame without an ack");
    assert_eq!(link.in_flight(), 1);
    let start = std::time::Instant::now();
    let err = link.drain().expect_err("no ack ever comes");
    let waited = start.elapsed();
    assert!(
        matches!(err, TransportError::DrainTimeout { in_flight: 1, .. }),
        "typed timeout: {err}"
    );
    // Total bound: well past drain_timeout (400ms) would mean the old
    // per-read accumulation; well under would mean no wait at all.
    assert!(waited >= Duration::from_millis(300), "waited {waited:?}");
    assert!(waited < Duration::from_secs(4), "bounded total: {waited:?}");
    assert!(!link.is_connected(), "failed drain drops the connection");
    drop(link);
    hold.join().expect("holder exits once the link closes");
}

#[test]
fn window_full_send_blocks_and_try_send_reports_window_full() {
    // Same never-acking peer, window 4: four sends fill the pipeline,
    // try_send refuses without blocking, and a blocking send stalls
    // until the drain bound expires.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let hold = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let _ = std::io::copy(&mut stream, &mut std::io::sink());
    });
    let mut link = PrimaryLink::connect_with(addr, fast_config()).expect("connect");
    let mut primary = relay();
    for i in 0..5u64 {
        insert(&mut primary, i + 1, Window::new(0, 4));
    }
    let frames = primary.frames_since(0).expect("retained");
    assert_eq!(frames.len(), 5);
    for frame in &frames[..4] {
        link.send(frame).expect("within the window");
    }
    assert_eq!(link.in_flight(), 4, "window full");
    let err = link.try_send(&frames[4]).expect_err("window exhausted");
    assert!(
        matches!(err, TransportError::WindowFull { window: 4 }),
        "typed, non-blocking: {err}"
    );
    assert!(link.is_connected(), "try_send refusal is not a failure");
    let start = std::time::Instant::now();
    let err = link.send(&frames[4]).expect_err("stall never resolves");
    assert!(
        matches!(err, TransportError::DrainTimeout { .. }),
        "blocked send hits the drain bound: {err}"
    );
    assert!(start.elapsed() < Duration::from_secs(4));
    drop(link);
    hold.join().expect("holder exits once the link closes");
}

#[test]
fn poisoned_replica_lock_degrades_the_connection_and_recovers_on_clear() {
    let server = ReplicaServer::bind("127.0.0.1:0", Replica::new()).expect("bind");
    let mut link = PrimaryLink::connect_with(server.addr(), fast_config()).expect("connect");
    let mut primary = relay();
    let (owed, boot) = primary.bootstrap().expect("nothing queued");
    assert!(owed.is_empty());
    link.send(&boot).expect("bootstrap ships");
    link.drain().expect("bootstrap acked");
    let frames = insert(&mut primary, 1, Window::new(0, 4));

    // Panic while holding the replica lock: every subsequent handler
    // sees a poisoned mutex.
    let shared = server.replica();
    let poisoner = std::thread::spawn(move || {
        let _guard = shared.lock().expect("first locker");
        panic!("injected panic while holding the replica lock");
    });
    assert!(poisoner.join().is_err(), "the panic is the point");

    // The handler drops the connection without acking. The pipelined
    // error surfaces on whichever call touches the link once the drop
    // lands — the send's own opportunistic ack pump or the drain — and
    // is graceful either way (Closed or Io — never a server panic,
    // never an ack).
    let err = link
        .send(&frames[0])
        .err()
        .or_else(|| link.drain().map(|_| ()).err())
        .expect("poisoned lock degrades");
    assert!(
        matches!(
            err,
            TransportError::Closed | TransportError::Io(_) | TransportError::DrainTimeout { .. }
        ),
        "got {err}"
    );
    assert!(!link.is_connected());
    assert_eq!(
        link.acked_seq(),
        Some(boot.seq),
        "the lost frame was never acked; the cumulative ack stays at the bootstrap anchor"
    );
    // Poll briefly: the handler thread records the drop asynchronously.
    let mut waited = 0;
    while server.handlers_poisoned() == 0 && waited < 200 {
        std::thread::sleep(Duration::from_millis(5));
        waited += 1;
    }
    assert_eq!(server.handlers_poisoned(), 1, "the drop is observable");

    // An operator clears the poison (or swaps in a re-bootstrapped
    // replica); the next send lazily redials the still-alive accept
    // loop and replication resumes where it left off.
    server.replica().clear_poison();
    link.send(&frames[0]).expect("redial + resend succeeds");
    assert_eq!(
        link.drain().expect("resend acked"),
        Some(frames[0].seq),
        "cumulative ack resumes at the resent frame"
    );
    assert!(link.is_connected());
    let replica = server.replica();
    let guard = replica.lock().expect("clean lock");
    assert_eq!(
        guard.state_digest(),
        Some(primary.engine().lock().unwrap().state_digest())
    );
}

#[test]
fn server_survives_a_torrent_of_garbage_frames() {
    // Raw garbage on the wire gets `err` acks or a dropped connection —
    // the server thread never panics and keeps serving honest links.
    let server = ReplicaServer::bind("127.0.0.1:0", Replica::new()).expect("bind");
    {
        let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
        // A plausible length prefix followed by junk, then a hard cut.
        let _ = stream.write_all(&[0, 0, 0, 8, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4]);
        let _ = stream.write_all(&[0xff; 3]);
    }
    let mut link = PrimaryLink::connect_with(server.addr(), fast_config()).expect("connect");
    let (_owed, boot) = relay().bootstrap().expect("nothing queued");
    link.send(&boot).expect("honest link unaffected");
    assert_eq!(link.drain().expect("honest link acked"), Some(boot.seq));
    assert_eq!(server.handlers_poisoned(), 0);
}
