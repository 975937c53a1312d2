//! End-to-end causal tracing across the full stack, over real TCP.
//!
//! One traced client request must leave correlated spans — all carrying
//! the SAME trace id — in the rings of every node it touched:
//!
//! * the serving tier's receipt and admission points,
//! * the engine's queue-wait point and flush span,
//! * the durable store's group-commit fsync span,
//! * the replication link's ship point (primary side),
//! * and the replica's apply point (scraped from the *replica's* own
//!   registry over its ObsServer).
//!
//! The id travels three different ways — batch metadata through the
//! engine, an out-of-band comment on the replication frame, a ` trace`
//! suffix on the client reply — and none of them may perturb digested
//! state: the replica must end byte-identical to the primary.

use realloc_sched::cluster::tcp::{PrimaryLink, ReplicaServer};
use realloc_sched::cluster::transport::FrameSink as _;
use realloc_sched::engine::FlushMode;
use realloc_sched::service::{Command, QosClient, QosConfig, Reply};
use realloc_sched::{
    BackendKind, DurableStore, Engine, EngineConfig, JobId, JournalRelay, MemIo, ObsServer,
    Replica, ServiceConfig, ServiceServer, StoreIo, Telemetry, TenantId, Window,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

fn engine_config() -> EngineConfig {
    EngineConfig {
        shards: 2,
        machines_per_shard: 1,
        backend: BackendKind::TheoremOne { gamma: 8 },
        parallel: false,
        journal: true,
        retained_segments: 4,
    }
}

/// Trace-ring lines (7th column = trace id) under `id`, keyed.
fn traced_keys(dump: &str, id: u64) -> Vec<String> {
    let want = id.to_string();
    dump.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() == 7 && f[6] == want).then(|| f[3].to_string())
        })
        .collect()
}

#[test]
fn one_trace_id_spans_service_flush_fsync_ship_and_replica_apply() {
    // Primary node: telemetry + durable engine + serving tier + obs.
    let pt = Telemetry::new();
    let io: Arc<dyn StoreIo> = Arc::new(MemIo::new());
    let config = engine_config();
    let store = DurableStore::create(Arc::clone(&io), Path::new("/primary"), &config).unwrap();
    let mut engine = Engine::new(config);
    engine.attach_telemetry(&pt);
    engine.attach_durability(Box::new(store)).unwrap();
    let server = ServiceServer::bind(
        "127.0.0.1:0",
        engine,
        ServiceConfig {
            qos: QosConfig::default(),
            read_timeout: Some(Duration::from_secs(5)),
            max_batch: 16,
            flush: FlushMode::Durable,
            trace_sample_every: 1, // trace every batch
        },
        &pt,
    )
    .unwrap();
    let p_obs = ObsServer::bind("127.0.0.1:0", pt.clone()).unwrap();

    // Replica node: own registry, own obs plane, real TCP apply path.
    let rt = Telemetry::new();
    let mut replica = Replica::new();
    replica.attach_telemetry(&rt);
    let mut r_server = ReplicaServer::bind("127.0.0.1:0", replica).unwrap();
    let r_obs = ObsServer::bind("127.0.0.1:0", rt.clone()).unwrap();

    // The relay tails the service tier's shared engine into the stream.
    let mut relay = JournalRelay::new(server.engine(), 1).unwrap();
    relay.attach_telemetry(&pt);
    let mut link = PrimaryLink::connect(r_server.addr()).unwrap();
    link.attach_telemetry(&pt);
    let (owed, boot) = relay.bootstrap().expect("fresh engine has no queue");
    assert!(owed.is_empty());
    link.send(&boot).unwrap();
    link.drain().unwrap();

    // One traced request through the serving tier.
    let mut client = QosClient::connect(server.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    client
        .send(&[Command::Place {
            tenant: TenantId(1),
            id: JobId(7),
            window: Window::new(0, 256),
        }])
        .unwrap();
    let (response, trace) = client.recv_traced().unwrap();
    assert!(
        matches!(response, Reply::Placed(_)),
        "unexpected reply: {response:?}"
    );
    let tid = trace.expect("trace_sample_every=1 annotates every admitted reply");
    assert_ne!(tid, 0);

    // Ship the traced batch to the replica and wait for its ack.
    let frames = relay.poll();
    assert!(!frames.is_empty());
    assert!(
        frames.iter().any(|f| f.trace.map(|tc| tc.id) == Some(tid)),
        "the shipped frame must carry the client's trace id"
    );
    for f in &frames {
        link.send(f).unwrap();
    }
    link.drain().unwrap();

    // Scrape BOTH nodes' rings over TCP, exactly as an operator would.
    let p_dump = realloc_sched::fetch_trace(p_obs.addr()).unwrap();
    let p_keys = traced_keys(&p_dump, tid);
    for key in ["receipt", "admit", "queue", "flush", "fsync", "ship"] {
        assert!(
            p_keys.iter().any(|k| k == key),
            "primary ring missing '{key}' under trace {tid}: {p_dump}"
        );
    }
    let r_dump = realloc_sched::fetch_trace(r_obs.addr()).unwrap();
    assert!(
        traced_keys(&r_dump, tid).iter().any(|k| k == "apply"),
        "replica ring missing 'apply' under trace {tid}: {r_dump}"
    );

    // Tracing stayed out of digested state: byte-identical lineages.
    let primary_digest = server.engine().lock().unwrap().state_digest();
    let replica_digest = r_server
        .replica()
        .lock()
        .unwrap()
        .state_digest()
        .expect("bootstrapped");
    assert_eq!(primary_digest, replica_digest);

    r_server.shutdown();
}
