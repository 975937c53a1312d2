//! E13 bench — batched engine ingestion across shard counts, plus
//! online-resize latency.
//!
//! One fixed churn workload (unaligned windows, γ = 8) is replayed
//! through the engine at 1–16 shards, to seed the serving-layer perf
//! trajectory. Ingest runs **with a live
//! telemetry registry attached** — the recorded numbers are the
//! instrumented serving configuration, as deployed (the uninstrumented
//! delta is measured separately by the `telemetry_overhead` group).
//! Results land in `BENCH_engine_ingest.json` and
//! `BENCH_engine_resize.json` (see the criterion shim's `BENCH_OUT_DIR`).
//! Journaled and durable ingest, batch-size, recovery and replication
//! timings are `servebench`'s (`engine.ingest_ns_per_req`,
//! `store.flush_mem_p50_us`, `service.reqs_per_flush`,
//! `store.recover_ms`, `cluster.*`), where they sit under a regression
//! gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use realloc_engine::{BackendKind, Engine};
use realloc_sim::harness::{churn_seq, engine_config};
use realloc_telemetry::Telemetry;

const REQUESTS: usize = 20_000;
const BATCH: usize = 256;

fn bench_engine_ingest(c: &mut Criterion) {
    let backend = realloc_engine::BackendKind::TheoremOne { gamma: 8 };
    let seq = churn_seq(16, 8, 1024, 1 << 12, true, REQUESTS, 13);
    let tel = Telemetry::new();
    let mut group = c.benchmark_group("engine_ingest");
    group.throughput(Throughput::Elements(seq.len() as u64));
    for &shards in &[1usize, 2, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::new("sequential", shards), &seq, |b, seq| {
            b.iter(|| {
                let mut e = Engine::new(engine_config(shards, 1, backend));
                e.attach_telemetry(&tel);
                e.ingest(seq, BATCH)
            })
        });
    }
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
        let mut cfg = engine_config(4, 1, backend);
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
