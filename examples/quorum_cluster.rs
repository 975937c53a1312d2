//! Quorum group commit over three TCP replicas, end to end:
//!
//! 1. a journaled primary fans its frame stream out to **three** TCP
//!    replicas through a [`ReplicationGroup`] with **quorum 2**, using
//!    the pipelined group-commit pattern — ship batch *i*, then commit
//!    through batch *i − 1* while the replicas apply it;
//! 2. one replica stalls mid-stream; commits keep succeeding through
//!    the other two, and the laggard's pipelined frames land the moment
//!    it wakes — no resend, no blocking;
//! 3. **two** replicas stall: the quorum is lost, and the failure is a
//!    typed [`GroupError::QuorumLost`] that reports how close it got,
//!    returned within the links' bounded drain timeout instead of
//!    wedging; the next commit repairs both laggards back to parity;
//! 4. the primary "crashes"; failover promotes the **most-caught-up**
//!    replica, which must be at or past the group's committed floor —
//!    that is the quorum guarantee — and the new lineage re-bootstraps
//!    the others and re-drives the uncommitted suffix;
//! 5. the promoted node, both surviving replicas, and an uninterrupted
//!    reference engine end **byte-identical**: zero committed events
//!    lost.
//!
//! ```sh
//! cargo run --release --example quorum_cluster
//! ```

use realloc_sched::cluster::tcp::{LinkConfig, PrimaryLink, ReplicaServer};
use realloc_sched::workloads::{ChurnConfig, ChurnGenerator};
use realloc_sched::{
    BackendKind, Engine, EngineConfig, GroupError, Primary, Replica, ReplicationGroup, Telemetry,
};
use std::time::{Duration, Instant};

/// Builds a quorum-2 group of fresh TCP replicas around `primary`.
fn build_group(
    primary: Primary,
    replicas: usize,
    link_config: &LinkConfig,
    telemetry: &Telemetry,
) -> (ReplicationGroup, Vec<ReplicaServer>) {
    let mut group = ReplicationGroup::new(primary, 2).expect("quorum of 2");
    group.attach_telemetry(telemetry);
    let mut servers = Vec::new();
    for _ in 0..replicas {
        let server = ReplicaServer::bind("127.0.0.1:0", Replica::new()).unwrap();
        let mut link = PrimaryLink::connect_with(server.addr(), link_config.clone()).unwrap();
        link.attach_telemetry(telemetry);
        group.add_replica(Box::new(link)).expect("replica joins");
        servers.push(server);
    }
    (group, servers)
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
        7,
    );
    let seq = gen.generate(4_000);
    let chunks: Vec<_> = seq.requests().chunks(50).collect();

    // The uninterrupted reference lineage.
    let mut reference = Engine::new(config.clone());

    let telemetry = Telemetry::new();
    let link_config = LinkConfig {
        // Short enough that a lost quorum reports in example time; the
        // bound covers the *whole* pipeline drain, not one ack.
        drain_timeout: Duration::from_millis(750),
        ..LinkConfig::default()
    };
    let primary = Primary::new(Engine::new(config), 1).expect("journaled engine");
    let (mut group, servers) = build_group(primary, 3, &link_config, &telemetry);
    println!(
        "quorum-2 group (term 1) over replicas at {}, {}, {}",
        servers[0].addr(),
        servers[1].addr(),
        servers[2].addr()
    );

    const STALL_ONE_AT: usize = 20;
    const WAKE_ONE_AT: usize = 40;
    const CRASH_AT: usize = 60;
    let stalled_cell = servers[2].replica();
    let mut stall_guard = None;

    // Pipelined group commit: ship chunk i, commit through chunk i − 1
    // — the replicas apply one batch while the primary produces the
    // next. coverage[i] is the highest sequence shipped after chunk i.
    let mut coverage: Vec<u64> = Vec::new();
    let mut previous_shipped = 0u64;
    for (i, chunk) in chunks.iter().enumerate().take(CRASH_AT) {
        if i == STALL_ONE_AT {
            println!("chunk {i}: replica 3 stalls — quorum 2 of 3 keeps committing");
            stall_guard = Some(stalled_cell.lock().unwrap());
        }
        if i == WAKE_ONE_AT {
            drop(stall_guard.take());
            group.commit().expect("commit after the laggard wakes");
            println!(
                "chunk {i}: replica 3 wakes; its pipelined backlog lands without a resend \
                 (committed floor {})",
                group.committed_seq()
            );
        }
        for &r in *chunk {
            group.submit(r);
            reference.submit(r);
        }
        let (_, shipped) = group.flush();
        reference.flush();
        group
            .commit_through(previous_shipped)
            .expect("quorum 2 holds while one replica stalls");
        previous_shipped = shipped;
        coverage.push(shipped);
    }
    group.commit().expect("final pre-crash barrier");
    println!(
        "streamed {} chunks: committed floor {}, {} quorum commits, 0 failures so far",
        CRASH_AT,
        group.committed_seq(),
        telemetry
            .counter_value("cluster_group_commits_total")
            .unwrap_or(0),
    );

    // Two replicas stall at once: quorum 2 is unreachable. The failure
    // is typed, reports its progress, and arrives within the bounded
    // drain — the primary is never wedged.
    {
        let cell2 = servers[1].replica();
        let guard2 = cell2.lock().unwrap();
        let guard3 = stalled_cell.lock().unwrap();
        for &r in chunks[CRASH_AT] {
            group.submit(r);
            reference.submit(r);
        }
        group.flush();
        reference.flush();
        let started = Instant::now();
        match group.commit() {
            Err(GroupError::QuorumLost { needed, acked, .. }) => println!(
                "two replicas stalled: quorum lost ({acked}/{needed} at commit point) \
                 after {:?} — typed, bounded, reported",
                started.elapsed()
            ),
            other => panic!("quorum must be lost with 2 of 3 stalled: {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the lost quorum reports within the bounded drain"
        );
        drop(guard2);
        drop(guard3);
    }
    let committed = group.commit().expect("repair restores the quorum");
    coverage.push(committed);
    println!("both replicas woke: repair restored the quorum (floor {committed})");

    // The primary crashes. The quorum guarantee: every committed event
    // is on at least 2 replicas, so the most-caught-up replica is at or
    // past the committed floor — promote it.
    let floor = group.committed_seq();
    drop(group);
    let applied: Vec<u64> = servers
        .iter()
        .map(|s| s.replica().lock().unwrap().last_seq())
        .collect();
    let winner = (0..servers.len())
        .max_by_key(|&i| applied[i])
        .expect("three candidates");
    println!(
        "primary crashes: replicas applied through {applied:?}; \
         promoting replica {} (committed floor was {floor})",
        winner + 1
    );
    assert!(
        applied[winner] >= floor,
        "the most-caught-up replica covers every committed event"
    );
    let promoted = servers[winner]
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

    // The new lineage re-bootstraps the survivors and re-drives the
    // uncommitted suffix (chunks not fully covered by the promoted
    // node's applied prefix).
    let promoted_last = promoted.next_seq() - 1;
    let chunks_done = coverage.iter().filter(|&&s| s <= promoted_last).count();
    let mut group2 = ReplicationGroup::new(promoted, 2).expect("quorum of 2");
    for (i, server) in servers.iter().enumerate() {
        if i == winner {
            continue;
        }
        let link = PrimaryLink::connect_with(server.addr(), link_config.clone()).unwrap();
        group2
            .add_replica(Box::new(link))
            .expect("survivor rejoins");
    }
    for chunk in chunks.iter().skip(chunks_done) {
        for &r in *chunk {
            group2.submit(r);
        }
        group2.flush();
        group2.commit().expect("new lineage commits");
    }
    // (The reference already consumed chunks[CRASH_AT] above.)
    for chunk in chunks.iter().skip(CRASH_AT + 1) {
        for &r in *chunk {
            reference.submit(r);
        }
        reference.flush();
    }

    // Byte-identical convergence: promoted node, both surviving
    // replicas, and the uninterrupted reference.
    use realloc_sched::Restorable as _;
    assert_eq!(
        group2.primary().engine().snapshot_text(),
        reference.snapshot_text()
    );
    let digest = group2.primary().engine().state_digest();
    for (i, server) in servers.iter().enumerate() {
        if i == winner {
            continue;
        }
        let cell = server.replica();
        let replica = cell.lock().unwrap();
        assert_eq!(replica.state_digest(), Some(digest));
        assert_eq!(replica.term(), 2);
    }
    println!(
        "served {} requests across a stall, a lost quorum, and a failover: \
         promoted node, survivors, and reference all byte-identical (digest {:#x})",
        seq.len(),
        reference.state_digest()
    );
}
