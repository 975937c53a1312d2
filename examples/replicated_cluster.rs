//! A replicated cluster on loopback TCP, end to end:
//!
//! 1. a journaled primary — a shared engine tailed by a
//!    [`JournalRelay`] — streams churn to **two** TCP replicas
//!    (snapshot bootstrap, then per-flush event frames, an online
//!    resize's epoch frame, and a checkpoint marker per checkpoint);
//! 2. the replicas serve reads the whole time (window lookups, metrics,
//!    digests) — that is the read-scaling story;
//! 3. the primary "crashes"; replica 1 is **promoted** under a bumped
//!    fencing term, re-bootstraps the lagging replica 2, and keeps
//!    serving the stream;
//! 4. the deposed primary wakes up and tries to stream — its frames are
//!    fenced (rejected by term) everywhere;
//! 5. final states are byte-identical across the promoted node, the
//!    surviving replica, and an uninterrupted reference engine: **no
//!    acknowledged event was lost**.
//!
//! Every node also carries a live telemetry registry exposed over its
//! own [`ObsServer`] port; the example polls all three **over TCP**
//! mid-stream — like a scrape loop would — and prints per-replica
//! replication lag (primary `cluster_next_seq − 1` minus each replica's
//! `cluster_replica_last_seq`) and the primary's flush-phase latency
//! quantiles.
//!
//! ```sh
//! cargo run --release --example replicated_cluster
//! ```

use realloc_sched::cluster::tcp::{PrimaryLink, ReplicaServer};
use realloc_sched::cluster::transport::{FrameSink, TransportError};
use realloc_sched::workloads::{ChurnConfig, ChurnGenerator};
use realloc_sched::{
    fetch_metrics, parse_sample, BackendKind, Engine, EngineConfig, Frame, JournalRelay, ObsServer,
    Replica, Telemetry,
};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

/// What a joiner needs from `relay`: the bootstrap snapshot, then the
/// stream frames behind it.
fn joiner_frames(relay: &mut JournalRelay) -> Vec<Frame> {
    let (owed, snapshot) = relay.bootstrap().expect("nothing queued");
    assert!(owed.is_empty(), "every flush was polled and shipped");
    let tail = relay.frames_since(snapshot.seq).expect("anchor retained");
    [vec![snapshot], tail].concat()
}

/// Flushes `chunk` on the relay's engine and polls the frames.
fn flush(relay: &mut JournalRelay, chunk: &[realloc_sched::Request]) -> Vec<Frame> {
    {
        let mut engine = relay.engine().lock().unwrap();
        for &r in chunk {
            engine.submit(r);
        }
        engine.flush();
    }
    relay.poll()
}

/// Scrapes all three nodes over TCP and prints the poller's view:
/// per-replica lag from the two registries, plus the primary's
/// flush-phase latency quantiles. Returns the lags for assertions.
fn scrape(label: &str, primary_obs: SocketAddr, replica_obs: [SocketAddr; 2]) -> Vec<u64> {
    let p = fetch_metrics(primary_obs).expect("primary metrics endpoint");
    let shipped = parse_sample(&p, "cluster_next_seq").unwrap_or(1) - 1;
    let mut lags = Vec::new();
    for addr in replica_obs {
        let r = fetch_metrics(addr).expect("replica metrics endpoint");
        let applied = parse_sample(&r, "cluster_replica_last_seq").unwrap_or(0);
        lags.push(shipped - applied);
    }
    let q = |name: &str| parse_sample(&p, name).unwrap_or(0);
    println!(
        "[scrape {label}] {} frames shipped; replica lags {:?}; flush p50/p95/p99 = {}/{}/{} ns",
        shipped,
        lags,
        q("engine_flush_total_nanos{quantile=\"0.5\"}"),
        q("engine_flush_total_nanos{quantile=\"0.95\"}"),
        q("engine_flush_total_nanos{quantile=\"0.99\"}"),
    );
    lags
}

fn main() {
    let config = EngineConfig {
        shards: 2,
        machines_per_shard: 1,
        backend: BackendKind::TheoremOne { gamma: 8 },
        parallel: false,
        journal: true, // primaries must journal: the journal IS the stream
        retained_segments: 2,
    };
    let mut gen = ChurnGenerator::new(
        ChurnConfig {
            machines: 1,
            gamma: 8,
            horizon: 1 << 14,
            spans: vec![4, 16, 64],
            target_active: 200,
            insert_bias: 0.6,
            unaligned: false,
        },
        42,
    );
    let seq = gen.generate(6_000);
    let chunks: Vec<_> = seq.requests().chunks(64).collect();

    // The uninterrupted reference lineage (same stream, same resize).
    let mut reference = Engine::new(config.clone());

    // Primary + two replicas behind TCP servers on loopback. Every node
    // gets its own registry and a TCP metrics endpoint.
    let primary_tel = Telemetry::new();
    let replica1_tel = Telemetry::new();
    let replica2_tel = Telemetry::new();
    let engine = Arc::new(Mutex::new(Engine::new(config)));
    engine.lock().unwrap().attach_telemetry(&primary_tel);
    let mut primary = JournalRelay::new(engine, 1).expect("journaled engine");
    primary.attach_telemetry(&primary_tel);
    let server1 = ReplicaServer::bind("127.0.0.1:0", Replica::new()).unwrap();
    let server2 = ReplicaServer::bind("127.0.0.1:0", Replica::new()).unwrap();
    server1
        .replica()
        .lock()
        .unwrap()
        .attach_telemetry(&replica1_tel);
    server2
        .replica()
        .lock()
        .unwrap()
        .attach_telemetry(&replica2_tel);
    let mut link1 = PrimaryLink::connect(server1.addr()).unwrap();
    let mut link2 = PrimaryLink::connect(server2.addr()).unwrap();
    link1.attach_telemetry(&primary_tel);
    link2.attach_telemetry(&primary_tel);
    let primary_obs = ObsServer::bind("127.0.0.1:0", primary_tel.clone()).unwrap();
    let replica1_obs = ObsServer::bind("127.0.0.1:0", replica1_tel.clone()).unwrap();
    let replica2_obs = ObsServer::bind("127.0.0.1:0", replica2_tel.clone()).unwrap();
    let obs = [replica1_obs.addr(), replica2_obs.addr()];
    println!(
        "primary (term 1) streaming to replicas at {} and {}",
        server1.addr(),
        server2.addr()
    );
    println!(
        "metrics endpoints: primary {}, replica 1 {}, replica 2 {}",
        primary_obs.addr(),
        replica1_obs.addr(),
        replica2_obs.addr()
    );

    for f in &joiner_frames(&mut primary) {
        link1.send(f).unwrap();
        link2.send(f).unwrap();
    }

    // Phase 1: serve traffic; resize online at chunk 30; checkpoint
    // every 16 chunks; replica 2 is partitioned from chunk 70 on.
    const RESIZE_AT: usize = 30;
    const PARTITION_FROM: usize = 70;
    const CRASH_AT: usize = 80;
    for (i, chunk) in chunks.iter().enumerate().take(CRASH_AT) {
        let mut frames = Vec::new();
        if i == RESIZE_AT {
            let report = primary.engine().lock().unwrap().resize(3);
            let report = report.expect("grow 2 -> 3");
            println!(
                "online resize at chunk {i}: {} -> {} shards, {} jobs re-homed",
                report.from_shards, report.to_shards, report.jobs_moved
            );
            reference.resize(3).expect("reference resize");
        }
        for &r in *chunk {
            reference.submit(r);
        }
        frames.extend(flush(&mut primary, chunk));
        reference.flush();
        if (i + 1) % 16 == 0 {
            primary.engine().lock().unwrap().checkpoint();
            frames.extend(primary.poll());
        }
        for f in &frames {
            link1.send(f).expect("replica 1 acknowledges");
            if i < PARTITION_FROM {
                link2.send(f).expect("replica 2 acknowledges");
            }
        }
        if i + 1 == PARTITION_FROM / 2 {
            // Mid-stream scrape. Sends are pipelined (up to a window of
            // frames in flight), so drain both links first — the drain
            // is the commit barrier that makes "zero lag" meaningful.
            link1.drain().expect("replica 1 drains");
            link2.drain().expect("replica 2 drains");
            let lags = scrape("healthy", primary_obs.addr(), obs);
            assert_eq!(lags, [0, 0], "drained replicas show zero lag");
        }
    }

    // The partition is visible from the outside, through the registries
    // alone: replica 2 stopped acknowledging at the partition point.
    link1.drain().expect("replica 1 drains");
    let lags = scrape("partitioned", primary_obs.addr(), obs);
    assert_eq!(lags[0], 0, "replica 1 still acknowledges everything");
    assert!(lags[1] > 0, "partitioned replica 2 must show positive lag");
    {
        let p = fetch_metrics(primary_obs.addr()).unwrap();
        for (i, server) in [&server1, &server2].into_iter().enumerate() {
            let name = realloc_sched::labeled(
                "cluster_link_bytes_shipped_total",
                "replica",
                server.addr(),
            );
            println!(
                "link to replica {}: {} bytes shipped",
                i + 1,
                parse_sample(&p, &name).unwrap_or(0)
            );
        }
    }

    // Reads scale out: replicas answer queries while the stream runs.
    {
        let cell = server1.replica();
        let replica = cell.lock().unwrap();
        let m = replica.metrics().expect("bootstrapped");
        println!(
            "replica 1 serving reads: {} active jobs, {} requests seen, digest {:#x}",
            replica.active_count(),
            m.requests,
            replica.state_digest().unwrap()
        );
        assert!(replica.validate().is_ok());
    }

    // Phase 2: the primary crashes. Promote replica 1 under term 2 and
    // re-bootstrap the stale replica 2 from it.
    println!("primary crashes at chunk {CRASH_AT}; promoting replica 1");
    link1
        .drain()
        .expect("replica 1 acknowledged everything shipped");
    drop(link1);
    let mut promoted = server1
        .replica()
        .lock()
        .unwrap()
        .promote()
        .expect("bootstrapped replica promotes");
    println!(
        "promoted: term {}, resuming at seq {}",
        promoted.term(),
        promoted.next_seq()
    );
    // The promoted node keeps its registry: the engine instruments came
    // over from its replica days, and the streaming side attaches now.
    promoted.attach_telemetry(&replica1_tel);
    let mut new_link2 = PrimaryLink::connect(server2.addr()).unwrap();
    new_link2.attach_telemetry(&replica1_tel);
    for f in &joiner_frames(&mut promoted) {
        new_link2.send(f).expect("replica 2 re-bootstraps");
    }
    // Barrier: replica 2 must have *applied* the new lineage's snapshot
    // (and adopted term 2) before the deposed primary knocks.
    new_link2.drain().expect("replica 2 adopts term 2");

    // Phase 3: the deposed primary wakes up and streams — fenced.
    let stale = flush(&mut primary, chunks[CRASH_AT]);
    // Pipelined sends return before the replica answers; the rejection
    // surfaces on the commit barrier.
    match link2
        .send(&stale[0])
        .and_then(|()| link2.drain().map(|_| ()))
    {
        Err(TransportError::Rejected(detail)) => {
            println!("deposed primary fenced: {detail}");
        }
        other => panic!("stale frame accepted?! {other:?}"),
    }
    drop(primary);
    drop(link2);

    // Phase 4: the promoted primary keeps serving (the crashed node's
    // unshipped work was never acknowledged, so the new lineage
    // re-drives it).
    for chunk in chunks.iter().skip(CRASH_AT) {
        for &r in *chunk {
            reference.submit(r);
        }
        let frames = flush(&mut promoted, chunk);
        reference.flush();
        for f in &frames {
            new_link2.send(f).expect("replica 2 acknowledges");
        }
    }

    // After failover the new lineage's registry (the promoted node's)
    // shows replica 2 fully caught up again.
    new_link2.drain().expect("replica 2 drains");
    {
        let p = fetch_metrics(replica1_obs.addr()).expect("promoted metrics endpoint");
        let shipped = parse_sample(&p, "cluster_next_seq").unwrap_or(1) - 1;
        let r = fetch_metrics(replica2_obs.addr()).expect("replica 2 metrics endpoint");
        let applied = parse_sample(&r, "cluster_replica_last_seq").unwrap_or(0);
        println!(
            "[scrape failed-over] promoted node shipped through seq {shipped}; \
             replica 2 lag {}",
            shipped - applied
        );
        assert_eq!(shipped, applied, "re-bootstrapped replica 2 caught up");
        let rejected = parse_sample(&r, "cluster_replica_frames_rejected_total").unwrap_or(0);
        assert!(rejected >= 1, "the deposed primary's fenced frame counts");
    }

    // Phase 5: byte-identical convergence, zero acknowledged events lost.
    use realloc_sched::Restorable as _;
    assert_eq!(
        promoted.engine().lock().unwrap().snapshot_text(),
        reference.snapshot_text()
    );
    let cell = server2.replica();
    let replica2 = cell.lock().unwrap();
    assert_eq!(
        replica2.engine().unwrap().snapshot_text(),
        reference.snapshot_text()
    );
    assert_eq!(replica2.term(), promoted.term());
    println!(
        "served {} requests across a crash + failover: promoted node, surviving \
         replica, and uninterrupted reference all byte-identical (digest {:#x})",
        seq.len(),
        reference.state_digest()
    );
}
