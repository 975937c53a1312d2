//! The `layers` section: single-threaded, in-process measurements that
//! feed the workload's own request stream straight into each layer's
//! public functions. They price a layer alone; the traced run's budget
//! says what share of a live round trip it gets.

use crate::probe::{IoTallies, TimedIo};
use crate::report::Metrics;
use crate::stats::{log_star_bound, percentile};
use crate::stream::{churn_config, TenantStream, GAMMA, MACHINES, SPANS};
use crate::system::{engine_config, Failure};
use crate::workload::{Plan, Workload, TENANTS};
use realloc_sched::core::textio::{read_frame, write_frame};
use realloc_sched::service::{Command, Qos, Reply};
use realloc_sched::workloads::ChurnGenerator;
use realloc_sched::{
    Clock, DurableStore, Engine, Frame, FsIo, JournalRelay, MemIo, Payload, QosConfig, Reallocator,
    RecoverFromDir, Replica, Request, ReservationScheduler, SingleMachineReallocator, StoreIo,
    Telemetry, TenantId, TheoremOneScheduler,
};
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Requests per engine flush in the batched measurements.
const INGEST_BATCH: usize = 64;
/// Requests per replication frame: a pipelined service flush carries a
/// handful, not a full `INGEST_BATCH`.
const FRAME_BATCH: usize = 8;

fn ns_per(t0: Instant, n: usize) -> f64 {
    t0.elapsed().as_nanos() as f64 / n.max(1) as f64
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64 / 1e6
}

/// Counts scaled by the plan, never below a floor that keeps a median
/// meaningful in selftest's miniature.
fn scaled(plan: &Plan, nominal: usize) -> usize {
    ((nominal as f64 * plan.scale) as usize).max(64)
}

/// `reservation.*`: the bare §4 scheduler on one machine, fed an
/// aligned stream of the same span ladder at one machine's share of the
/// workload's active set.
fn reservation(workload: &Workload, plan: &Plan, seed: u64, out: &mut Metrics) {
    let machines_total = engine_config().shards * MACHINES;
    let target = (plan.target_active(workload) * TENANTS as usize / machines_total).max(16);
    let mut gen = ChurnGenerator::new(churn_config(target, 1, false), seed);
    let prefill = gen.generate(target * 5);
    let measured = gen.generate(scaled(plan, 100_000));
    let mut sched = ReservationScheduler::new();
    let mut apply = |r: &Request| match *r {
        Request::Insert { id, window } => sched.insert(id, window),
        Request::Delete { id } => sched.delete(id),
    };
    for r in prefill.requests() {
        apply(r).expect("density-certified stream");
    }
    let (mut reallocs, mut max) = (0u64, 0u64);
    let t0 = Instant::now();
    for r in measured.requests() {
        let moves = apply(r).expect("density-certified stream");
        let cost = moves.iter().filter(|m| m.is_reallocation()).count() as u64;
        reallocs += cost;
        max = max.max(cost);
    }
    let n = measured.len();
    out.push("reservation.ns_per_req", ns_per(t0, n));
    out.push("reservation.reallocs_per_req", reallocs as f64 / n as f64);
    out.push("reservation.realloc_max", max as f64);
}

/// `multi.*`: the Theorem 1 scheduler one shard runs, fed the
/// workload's unaligned stream at one shard's share of the active set.
fn multi(workload: &Workload, plan: &Plan, seed: u64, out: &mut Metrics) {
    let target = plan.target_active(workload) * TENANTS as usize / engine_config().shards;
    let mut gen = ChurnGenerator::new(churn_config(target, MACHINES, true), seed);
    let prefill = gen.generate(target * 5);
    let measured = gen.generate(scaled(plan, 100_000));
    let mut sched = TheoremOneScheduler::theorem_one(MACHINES, GAMMA);
    for &r in prefill.requests() {
        sched.request(r).expect("density-certified stream");
    }
    let (mut reallocs, mut migrations, mut max, mut peak) = (0u64, 0u64, 0u64, 0usize);
    let t0 = Instant::now();
    for &r in measured.requests() {
        let outcome = sched.request(r).expect("density-certified stream");
        reallocs += outcome.reallocation_cost();
        migrations += outcome.migration_cost();
        max = max.max(outcome.reallocation_cost());
        peak = peak.max(sched.active_count());
    }
    let n = measured.len() as f64;
    out.push("multi.ns_per_req", ns_per(t0, measured.len()));
    out.push("multi.reallocs_per_req", reallocs as f64 / n);
    out.push("multi.migrations_per_req", migrations as f64 / n);
    out.push("multi.realloc_max", max as f64);
    let delta = *SPANS.last().expect("span ladder");
    out.push(
        "multi.bound_log_star",
        f64::from(log_star_bound(peak as u64, delta)),
    );
}

/// Where each tenant's request list has been consumed up to.
struct Feed(Vec<usize>);

impl Feed {
    /// The next `count` requests: both tenants' lists interleaved in
    /// half-batches, as the engine sees them from two connections.
    /// Fewer when the lists run dry.
    fn next(&mut self, streams: &[TenantStream], count: usize) -> Vec<(TenantId, Request)> {
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let before = out.len();
            for (t, stream) in streams.iter().enumerate() {
                let take = (INGEST_BATCH / 2).min(count - out.len());
                let end = (self.0[t] + take).min(stream.requests.len());
                out.extend(
                    stream.requests[self.0[t]..end]
                        .iter()
                        .map(|&r| (TenantId(t as u16 + 1), r)),
                );
                self.0[t] = end;
            }
            if out.len() == before {
                break;
            }
        }
        out
    }
}

/// A deployed-configuration engine with both tenants' prefill applied.
/// Returns it with each tenant's position in its request list.
fn prefilled_engine(streams: &[TenantStream], prefill_requests: &[usize]) -> (Engine, Feed) {
    let mut engine = Engine::new(engine_config());
    engine.attach_telemetry(&Telemetry::new());
    for (t, stream) in streams.iter().enumerate() {
        for chunk in stream.requests[..prefill_requests[t]].chunks(INGEST_BATCH) {
            for &r in chunk {
                engine
                    .submit_for(TenantId(t as u16 + 1), r)
                    .expect("tenant ids are in range");
            }
            assert_eq!(engine.flush().failed(), 0, "density-certified stream");
        }
    }
    (engine, Feed(prefill_requests.to_vec()))
}

fn submit_all(engine: &mut Engine, batch: &[(TenantId, Request)]) {
    for &(tenant, r) in batch {
        engine
            .submit_for(tenant, r)
            .expect("tenant ids are in range");
    }
}

/// `engine.*`: `submit_for` + `flush` in batches of 64 and of 1, the
/// journal's bytes per request, and a checkpoint with no store.
fn engine(streams: &[TenantStream], prefill_requests: &[usize], plan: &Plan, out: &mut Metrics) {
    let (mut engine, mut feed) = prefilled_engine(streams, prefill_requests);
    let batched = feed.next(streams, scaled(plan, 100_000));
    let single = feed.next(streams, scaled(plan, 20_000));

    let t0 = Instant::now();
    for chunk in batched.chunks(INGEST_BATCH) {
        submit_all(&mut engine, chunk);
        black_box(engine.flush());
    }
    out.push("engine.ingest_ns_per_req", ns_per(t0, batched.len()));

    let mut flush1_us = Vec::with_capacity(single.len());
    for one in single.chunks(1) {
        let t0 = Instant::now();
        submit_all(&mut engine, one);
        black_box(engine.flush());
        flush1_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    out.push("engine.flush1_p50_us", percentile(&mut flush1_us, 0.5));

    let journal = engine.journal().expect("journal enabled");
    out.push(
        "engine.journal_bytes_per_req",
        journal.to_text().len() as f64 / journal.total_events().max(1) as f64,
    );
    let t0 = Instant::now();
    engine.checkpoint();
    out.push("engine.checkpoint_ms", ms(t0));
    engine.validate().expect("engine valid after the layer run");
}

/// One request per durable flush over `io`; returns the p50 in µs, the
/// engine and where its feed stands.
fn durable_flushes(
    streams: &[TenantStream],
    prefill_requests: &[usize],
    io: Arc<dyn StoreIo>,
    dir: &Path,
    count: usize,
) -> Result<(f64, Engine, Feed), Failure> {
    let (mut engine, mut feed) = prefilled_engine(streams, prefill_requests);
    let store = DurableStore::create(io, dir, engine.journal().expect("journal enabled").config())
        .map_err(|e| format!("layer store: {e}"))?;
    engine.attach_durability(Box::new(store))?;
    // The store saw none of the prefill: anchor it with a checkpoint.
    engine.checkpoint();
    let mut us = Vec::with_capacity(count);
    for one in feed.next(streams, count).chunks(1) {
        let t0 = Instant::now();
        submit_all(&mut engine, one);
        engine.flush_durable()?;
        us.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok((percentile(&mut us, 0.5), engine, feed))
}

/// `store.*` measured alone: a durable flush over `FsIo` against the
/// same flush over `MemIo`, a checkpoint through the store, and
/// recovery from the directory.
fn store(
    streams: &[TenantStream],
    prefill_requests: &[usize],
    plan: &Plan,
    dir: &Path,
    out: &mut Metrics,
) -> Result<(), Failure> {
    let count = scaled(plan, 3_000);
    let tallies = Arc::new(IoTallies::default());
    let fs: Arc<dyn StoreIo> = Arc::new(TimedIo::new(Arc::new(FsIo), Arc::clone(&tallies)));
    let fs_dir = dir.join("layer-store");
    let (fs_p50, mut engine, mut feed) =
        durable_flushes(streams, prefill_requests, fs, &fs_dir, count)?;
    let (mem_p50, _, _) = durable_flushes(
        streams,
        prefill_requests,
        Arc::new(MemIo::new()),
        Path::new("/layer-store"),
        count,
    )?;
    out.push("store.flush_durable_p50_us", fs_p50);
    out.push("store.flush_mem_p50_us", mem_p50);

    let t0 = Instant::now();
    engine.checkpoint();
    out.push("store.checkpoint_ms", ms(t0));
    if let Some(e) = engine.durability_error() {
        return Err(format!("layer checkpoint did not persist: {e}"));
    }
    // A tail behind the checkpoint, so recovery replays something.
    for chunk in feed.next(streams, count).chunks(INGEST_BATCH) {
        submit_all(&mut engine, chunk);
        engine.flush_durable()?;
    }
    let digest = engine.state_digest();
    drop(engine);
    let t0 = Instant::now();
    let recovered = Engine::recover_from_dir(&fs_dir).map_err(|e| format!("layer recover: {e}"))?;
    out.push("store.recover_ms", ms(t0));
    if recovered.state_digest() != digest {
        return Err("layer recovery changed the state digest".to_string());
    }
    Ok(())
}

/// `cluster.*` measured alone: tail the journal into frames, encode,
/// parse, and re-execute them on a replica, per event.
fn cluster(
    streams: &[TenantStream],
    prefill_requests: &[usize],
    plan: &Plan,
    out: &mut Metrics,
) -> Result<(), Failure> {
    let (engine, mut feed) = prefilled_engine(streams, prefill_requests);
    let engine = Arc::new(Mutex::new(engine));
    let mut relay = JournalRelay::new(Arc::clone(&engine), 1).map_err(|e| e.to_string())?;
    let (_, boot) = relay.bootstrap().map_err(|e| e.to_string())?;
    let mut replica = Replica::new();
    replica.apply(&boot).map_err(|e| e.to_string())?;

    let requests = feed.next(streams, scaled(plan, 50_000));
    {
        let mut engine = engine.lock().expect("layer engine lock");
        for chunk in requests.chunks(FRAME_BATCH) {
            submit_all(&mut engine, chunk);
            black_box(engine.flush());
        }
    }
    let t0 = Instant::now();
    let frames = relay.poll();
    let poll_ns = t0.elapsed().as_nanos() as f64;
    let events: usize = frames
        .iter()
        .map(|f| match &f.payload {
            Payload::Events(e) => e.len(),
            _ => 0,
        })
        .sum();
    let per_event = |total_ns: f64| total_ns / events.max(1) as f64;

    let t0 = Instant::now();
    let texts: Vec<String> = frames.iter().map(Frame::to_text).collect();
    let encode_ns = t0.elapsed().as_nanos() as f64;
    let bytes: usize = texts.iter().map(String::len).sum();

    let t0 = Instant::now();
    let parsed: Vec<Frame> = texts
        .iter()
        .map(|t| Frame::parse(t))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("frame parse: {e}"))?;
    let parse_ns = t0.elapsed().as_nanos() as f64;

    let t0 = Instant::now();
    for frame in &parsed {
        replica.apply(frame).map_err(|e| e.to_string())?;
    }
    let apply_ns = t0.elapsed().as_nanos() as f64;
    if replica.state_digest() != Some(engine.lock().expect("layer engine lock").state_digest()) {
        return Err("layer replica diverged from its primary".to_string());
    }
    out.push("cluster.poll_ns_per_event", per_event(poll_ns));
    out.push("cluster.encode_ns_per_event", per_event(encode_ns));
    out.push("cluster.bytes_per_event", per_event(bytes as f64));
    out.push("cluster.parse_ns_per_event", per_event(parse_ns));
    out.push("cluster.apply_ns_per_event", per_event(apply_ns));
    Ok(())
}

/// `service.parse_ns`, `service.admit_ns`, `core.frame_ns`: the fixed
/// per-request costs of the front door, without a socket.
fn front_door(streams: &[TenantStream], plan: &Plan, out: &mut Metrics) {
    let commands = &streams[0].commands;
    let n = scaled(plan, 200_000).min(commands.len());

    let t0 = Instant::now();
    for i in 0..n {
        let command =
            Command::parse(black_box(commands.text(i))).expect("generated commands parse");
        let reply = match command {
            Command::Place { id, .. } => Reply::Placed(id),
            Command::Remove { id, .. } => Reply::Removed(id),
            Command::Window { .. } | Command::Metrics => Reply::WindowNone,
        };
        black_box(reply.to_text());
    }
    out.push("service.parse_ns", ns_per(t0, n));

    let qos = Qos::new(QosConfig::default(), Clock::monotonic());
    let t0 = Instant::now();
    for _ in 0..n {
        black_box(qos.try_admit(black_box(1)).expect("unmetered tenant"));
    }
    out.push("service.admit_ns", ns_per(t0, n));

    let mut wire = Vec::with_capacity(64);
    let t0 = Instant::now();
    for i in 0..n {
        wire.clear();
        write_frame(&mut wire, black_box(commands.text(i)).as_bytes()).expect("memory write");
        black_box(read_frame(&mut wire.as_slice(), 4096).expect("memory read"));
    }
    out.push("core.frame_ns", ns_per(t0, n));
}

/// Runs every isolated measurement that applies to `workload`; layers
/// the workload does not deploy report 0.
pub fn run(
    workload: &Workload,
    plan: &Plan,
    seed: u64,
    streams: &[TenantStream],
    prefill_requests: &[usize],
    dir: &Path,
    out: &mut Metrics,
) -> Result<(), Failure> {
    reservation(workload, plan, seed, out);
    multi(workload, plan, seed, out);
    engine(streams, prefill_requests, plan, out);
    if workload.durable {
        store(streams, prefill_requests, plan, dir, out)?;
    } else {
        for name in [
            "store.flush_durable_p50_us",
            "store.flush_mem_p50_us",
            "store.checkpoint_ms",
            "store.recover_ms",
        ] {
            out.push_absent(name);
        }
    }
    if workload.replicas > 0 {
        cluster(streams, prefill_requests, plan, out)?;
    } else {
        for name in [
            "cluster.poll_ns_per_event",
            "cluster.encode_ns_per_event",
            "cluster.bytes_per_event",
            "cluster.parse_ns_per_event",
            "cluster.apply_ns_per_event",
        ] {
            out.push_absent(name);
        }
    }
    front_door(streams, plan, out);
    Ok(())
}
