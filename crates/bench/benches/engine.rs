//! E13 bench — batched engine ingestion across shard counts, plus
//! online-resize latency.
//!
//! One fixed churn workload (unaligned windows, γ = 8) is replayed
//! through the engine at 1–16 shards, sequential and parallel flush, to
//! seed the serving-layer perf trajectory. Ingest runs **with a live
//! telemetry registry attached** — the recorded numbers are the
//! instrumented serving configuration, as deployed (the uninstrumented
//! delta is measured separately by the `telemetry_overhead` group).
//! Results land in `BENCH_engine_ingest.json` and
//! `BENCH_engine_resize.json` (see the criterion shim's `BENCH_OUT_DIR`).
//! Batch-size, recovery and replication timings are `servebench`'s
//! (`service.reqs_per_flush`, `store.recover_ms`, `cluster.*`), where
//! they sit under a regression gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use realloc_engine::{BackendKind, Engine, EngineConfig};
use realloc_sim::harness::{churn_seq, engine_config};
use realloc_store::{DurableStore, MemIo, StoreIo};
use realloc_telemetry::Telemetry;
use std::path::Path;
use std::sync::Arc;

const REQUESTS: usize = 20_000;
const BATCH: usize = 256;

/// A fresh engine with a [`DurableStore`] over `MemIo` attached. The
/// in-memory backing isolates the store's own cost (framing, CRC,
/// group-commit bookkeeping, checkpoint/retention churn) from device
/// fsync latency, which varies by orders of magnitude across hardware —
/// the device-bound number is what `examples/crash_recovery.rs` shows
/// against the real filesystem.
fn durable_engine(mut cfg: EngineConfig) -> Engine {
    cfg.journal = true;
    let mut engine = Engine::new(cfg);
    let io = Arc::new(MemIo::new()) as Arc<dyn StoreIo>;
    let store = DurableStore::create(io, Path::new("/bench"), engine.journal().unwrap().config())
        .expect("create store");
    engine.attach_durability(Box::new(store)).expect("attach");
    engine
}

fn bench_engine_ingest(c: &mut Criterion) {
    let backend = realloc_engine::BackendKind::TheoremOne { gamma: 8 };
    let seq = churn_seq(16, 8, 1024, 1 << 12, true, REQUESTS, 13);
    let tel = Telemetry::new();
    let mut group = c.benchmark_group("engine_ingest");
    group.throughput(Throughput::Elements(seq.len() as u64));
    for &shards in &[1usize, 2, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::new("sequential", shards), &seq, |b, seq| {
            b.iter(|| {
                let mut e = Engine::new(engine_config(shards, 1, backend, false));
                e.attach_telemetry(&tel);
                e.ingest(seq, BATCH)
            })
        });
    }
    for &shards in &[4usize, 16] {
        group.bench_with_input(BenchmarkId::new("parallel", shards), &seq, |b, seq| {
            b.iter(|| {
                let mut e = Engine::new(engine_config(shards, 1, backend, true));
                e.attach_telemetry(&tel);
                e.ingest(seq, BATCH)
            })
        });
    }
    // Durability on vs. off at the 4-shard reference point: `journaled`
    // pays in-memory journaling only; `durable` adds the on-disk store
    // tee with one group commit per batch.
    group.bench_with_input(BenchmarkId::new("journaled", 4), &seq, |b, seq| {
        b.iter(|| {
            let mut cfg = engine_config(4, 1, backend, false);
            cfg.journal = true;
            let mut e = Engine::new(cfg);
            e.attach_telemetry(&tel);
            e.ingest(seq, BATCH)
        })
    });
    group.bench_with_input(BenchmarkId::new("durable", 4), &seq, |b, seq| {
        b.iter(|| {
            let mut e = durable_engine(engine_config(4, 1, backend, false));
            e.attach_telemetry(&tel);
            for chunk in seq.requests().chunks(BATCH) {
                for &r in chunk {
                    e.submit(r);
                }
                e.flush_durable().expect("group commit");
            }
            e
        })
    });
    group.finish();
}

fn bench_resize(c: &mut Criterion) {
    // Elastic resharding latency as a function of jobs per shard: build
    // a loaded 4-shard engine, then measure *online* resizes — each
    // iteration flips the live engine between 4 and 8 shards, i.e. one
    // full snapshot-ship of every active job onto the rerouted shard
    // set (alternating grow and shrink, so the reported time is the
    // mean of the two). The stream is one-machine dense, so any split
    // of it fits any shard count and every resize succeeds. Results
    // land in `BENCH_engine_resize.json`; the parameter is active jobs
    // per shard at the 4-shard end.
    let backend = BackendKind::TheoremOne { gamma: 8 };
    let mut group = c.benchmark_group("engine_resize");
    for &target_active in &[256usize, 1024, 4096] {
        let seq = churn_seq(1, 8, target_active, 1 << 14, false, target_active * 3, 71);
        let mut cfg = engine_config(4, 1, backend, false);
        cfg.journal = false;
        let mut engine = Engine::new(cfg);
        engine.ingest(&seq, 512);
        let jobs = engine.active_count();
        assert!(jobs > target_active / 2, "workload too shallow: {jobs}");
        group.throughput(Throughput::Elements(jobs as u64));
        group.bench_function(BenchmarkId::new("flip_4_8", jobs / 4), |b| {
            b.iter(|| {
                let to = if engine.config().shards == 4 { 8 } else { 4 };
                engine.resize(to).expect("dense stream resize")
            })
        });
        assert!(engine.validate().is_ok(), "bench left an invalid engine");
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_engine_ingest, bench_resize
}
criterion_main!(benches);
