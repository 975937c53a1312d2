//! The cluster observability plane, end to end: a service tier and its
//! journal relay feed two TCP replicas while a [`Collector`] polls every
//! node's [`ObsServer`] and renders one fleet dashboard per poll.
//!
//! The lifecycle it demonstrates:
//!
//! 1. **healthy** — traffic flows, both replicas apply, lag 0, quorum
//!    headroom positive, every health probe green;
//! 2. **stalled** — frames to replica 2 are withheld while the primary
//!    keeps shipping; the collector's differential stall detector
//!    (shipped advancing, applied flat) flags the node within two
//!    polls, in the text dashboard *and* the JSON line;
//! 3. **recovered** — the backlog is delivered, applied catches up, and
//!    the stall flag clears on the next poll.
//!
//! As a finale, one traced request's causal spans — service receipt to
//! replica apply under a single trace id — are scraped back from both
//! nodes' rings, exactly as an operator chasing a slow request would.
//!
//! ```sh
//! cargo run --release --example cluster_dashboard
//! ```

use realloc_sched::cluster::tcp::{PrimaryLink, ReplicaServer};
use realloc_sched::cluster::transport::FrameSink as _;
use realloc_sched::cluster::Frame;
use realloc_sched::engine::FlushMode;
use realloc_sched::service::{Command, QosClient, QosConfig, Reply};
use realloc_sched::{
    BackendKind, Collector, CollectorConfig, Engine, EngineConfig, FleetSnapshot, JobId,
    JournalRelay, NodeRole, NodeSpec, ObsServer, Replica, ServiceConfig, ServiceServer, Telemetry,
    TenantId, Window,
};
use std::sync::Arc;
use std::time::Duration;

/// Sends `n` placements through the serving tier and returns any trace
/// ids the replies carried.
fn drive_traffic(client: &mut QosClient, next_job: &mut u64, n: u64) -> Vec<u64> {
    let mut traces = Vec::new();
    for _ in 0..n {
        let id = *next_job;
        *next_job += 1;
        let place = Command::Place {
            tenant: TenantId(1),
            id: JobId(id),
            window: Window::new(0, 4096),
        };
        client.send(&[place]).unwrap();
        let (response, trace) = client.recv_traced().unwrap();
        assert!(
            matches!(response, Reply::Placed(_)),
            "placement rejected: {response:?}"
        );
        traces.extend(trace);
    }
    traces
}

/// Ships every pending relay frame to the given links; links passed as
/// `None` are "down" this round and accumulate backlog at the caller.
fn ship(frames: &[Frame], links: &mut [Option<&mut PrimaryLink>]) {
    for link in links.iter_mut().flatten() {
        for f in frames {
            link.send(f).unwrap();
        }
        link.drain().unwrap();
    }
}

fn print_poll(snapshot: &FleetSnapshot) {
    print!("{}", snapshot.render_dashboard());
    println!("json: {}", snapshot.to_json_line());
}

fn main() {
    // --- the primary node: engine + serving tier + relay + obs ---
    let pt = Telemetry::new();
    let config = EngineConfig {
        shards: 2,
        machines_per_shard: 1,
        backend: BackendKind::TheoremOne { gamma: 8 },
        parallel: false,
        journal: true, // the journal IS the replication stream
        retained_segments: 4,
    };
    let mut engine = Engine::new(config);
    engine.attach_telemetry(&pt);
    let server = ServiceServer::bind(
        "127.0.0.1:0",
        engine,
        ServiceConfig {
            qos: QosConfig::default(),
            read_timeout: Some(Duration::from_secs(5)),
            max_batch: 16,
            flush: FlushMode::Immediate,
            trace_sample_every: 4, // every 4th batch is traced end to end
        },
        &pt,
    )
    .unwrap();
    // The health probe runs the engine's full invariant check.
    let probe_engine = server.engine();
    let health = Arc::new(move || match probe_engine.lock().unwrap().validate() {
        Ok(()) => "ok engine invariants hold".to_string(),
        Err(why) => format!("err {why}"),
    });
    let p_obs = ObsServer::bind_full(
        "127.0.0.1:0",
        pt.clone(),
        realloc_sched::telemetry::ObsConfig::default(),
        Some(health),
    )
    .unwrap();

    // --- two replica nodes, each with its own registry + obs plane ---
    let mut replica_servers = Vec::new();
    let mut replica_obs = Vec::new();
    for i in 0..2 {
        let rt = Telemetry::new();
        let mut replica = Replica::new();
        replica.attach_telemetry(&rt);
        let r_server = ReplicaServer::bind("127.0.0.1:0", replica).unwrap();
        let cell = r_server.replica();
        let health: realloc_sched::HealthCheck =
            Arc::new(move || format!("ok applied through {}", cell.lock().unwrap().last_seq()));
        let r_obs = ObsServer::bind_full(
            "127.0.0.1:0",
            rt,
            realloc_sched::telemetry::ObsConfig::default(),
            Some(health),
        )
        .unwrap();
        println!(
            "replica {} at {} (obs {})",
            i + 1,
            r_server.addr(),
            r_obs.addr()
        );
        replica_servers.push(r_server);
        replica_obs.push(r_obs);
    }

    // The relay tails the service tier's shared engine into the frame
    // stream; both links bootstrap from the same snapshot.
    let mut relay = JournalRelay::new(server.engine(), 1).unwrap();
    relay.attach_telemetry(&pt);
    let mut link1 = PrimaryLink::connect(replica_servers[0].addr()).unwrap();
    let mut link2 = PrimaryLink::connect(replica_servers[1].addr()).unwrap();
    link1.attach_telemetry(&pt);
    let (owed, boot) = relay.bootstrap().expect("fresh engine has no queue");
    assert!(owed.is_empty(), "fresh engine owes no frames");
    for link in [&mut link1, &mut link2] {
        link.send(&boot).unwrap();
        link.drain().unwrap();
    }

    // --- the collector: one spec per node, two share the primary's
    // registry (the serving tier and the relay co-reside) ---
    let collector_nodes = vec![
        NodeSpec::new("edge", p_obs.addr().to_string(), NodeRole::Service),
        NodeSpec::new("primary", p_obs.addr().to_string(), NodeRole::Primary),
        NodeSpec::new(
            "replica-1",
            replica_obs[0].addr().to_string(),
            NodeRole::Replica,
        ),
        NodeSpec::new(
            "replica-2",
            replica_obs[1].addr().to_string(),
            NodeRole::Replica,
        ),
    ];
    let mut collector = Collector::new(
        collector_nodes,
        CollectorConfig {
            read_timeout: Some(Duration::from_secs(2)),
            quorum: 1,
            slo_p99_nanos: 50_000_000,
        },
    );

    let mut client = QosClient::connect(server.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut next_job = 1u64;
    let mut traced = Vec::new();

    // --- phase 1: healthy ---
    println!("\n== phase 1: healthy ==");
    for _ in 0..2 {
        traced.extend(drive_traffic(&mut client, &mut next_job, 8));
        let frames = relay.poll();
        ship(&frames, &mut [Some(&mut link1), Some(&mut link2)]);
        print_poll(&collector.poll());
    }
    let healthy = collector.poll();
    assert!(healthy.all_reachable(), "every node answers while healthy");
    assert!(!healthy.any_stalled(), "no stall while frames flow");
    assert!(
        healthy.nodes.iter().all(|n| !n.unhealthy()),
        "every health probe is green"
    );

    // --- phase 2: replica 2 stalls (frames withheld, primary keeps
    // shipping) — the collector must flag it within two polls ---
    println!("\n== phase 2: replica 2 stalls ==");
    let mut backlog: Vec<Frame> = Vec::new();
    let mut detected_at = None;
    for round in 1..=2 {
        traced.extend(drive_traffic(&mut client, &mut next_job, 8));
        let frames = relay.poll();
        ship(&frames, &mut [Some(&mut link1), None]);
        backlog.extend(frames);
        let snapshot = collector.poll();
        print_poll(&snapshot);
        if snapshot.any_stalled() {
            detected_at = Some((round, snapshot));
            break;
        }
    }
    let (round, snapshot) = detected_at.expect("stall detected within two polls");
    println!("stall detected on poll {round} of the stalled phase");
    let stalled: Vec<&str> = snapshot
        .nodes
        .iter()
        .filter(|n| n.stalled)
        .map(|n| n.name.as_str())
        .collect();
    assert_eq!(stalled, ["replica-2"], "exactly the starved replica");
    assert!(
        snapshot.render_dashboard().contains("STALL: replica-2"),
        "the text dashboard names the stalled node"
    );
    assert!(
        snapshot.to_json_line().contains("\"stalled\":true"),
        "the JSON line carries the stall flag"
    );

    // --- phase 3: deliver the backlog; the stall clears ---
    println!("\n== phase 3: recovered ==");
    ship(&backlog, &mut [None, Some(&mut link2)]);
    traced.extend(drive_traffic(&mut client, &mut next_job, 8));
    let frames = relay.poll();
    ship(&frames, &mut [Some(&mut link1), Some(&mut link2)]);
    let recovered = collector.poll();
    print_poll(&recovered);
    assert!(!recovered.any_stalled(), "applied advanced: stall cleared");
    assert!(
        recovered
            .nodes
            .iter()
            .all(|n| n.lag.is_none_or(|lag| lag == 0)),
        "both replicas back at the primary's tip"
    );

    // --- finale: follow one traced request across both nodes ---
    let tid = *traced.last().expect("sampled traffic produced traces");
    let spans_under = |dump: &str| -> Vec<String> {
        let want = tid.to_string();
        dump.lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                (f.len() == 7 && f[6] == want).then(|| f[3].to_string())
            })
            .collect()
    };
    let p_spans = spans_under(&realloc_sched::fetch_trace(p_obs.addr()).unwrap());
    let r_spans = spans_under(&realloc_sched::fetch_trace(replica_obs[1].addr()).unwrap());
    println!(
        "\ntrace {tid:#018x}: primary spans {:?}, replica-2 spans {:?}",
        p_spans, r_spans
    );
    assert!(p_spans.iter().any(|k| k == "receipt"));
    assert!(p_spans.iter().any(|k| k == "flush"));
    assert!(p_spans.iter().any(|k| k == "ship"));
    assert!(r_spans.iter().any(|k| k == "apply"));

    println!(
        "\nserved {} placements across healthy -> stalled -> recovered; \
         stall flagged within two polls and cleared after catch-up",
        next_job - 1
    );
    for mut s in replica_servers {
        s.shutdown();
    }
}
