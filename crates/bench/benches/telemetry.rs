//! `telemetry_overhead` — what observing the engine costs:
//!
//! * **ingest A/B** — the same churn ingest with a live registry
//!   attached vs. a disabled handle (the number the CI overhead guard
//!   polices: the instrumented run must stay within 2%);
//! * **raw instrument ops** — batched costs of the individual hot-path
//!   primitives (counter add, histogram record, trace point, span
//!   begin/end), per 1024 operations so the shim's timer resolution
//!   doesn't swamp them;
//! * **exposition** — `render_text` over a populated registry (the
//!   per-scrape cost an [`realloc_telemetry::ObsServer`] pays).
//!
//! Results land in `BENCH_telemetry_overhead.json` (see the criterion
//! shim's `BENCH_OUT_DIR`). What causal request tracing costs a served
//! request is `servebench`'s `telemetry.trace_overhead_ratio`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use realloc_engine::{BackendKind, Engine};
use realloc_sim::harness::{churn_seq, engine_config};
use realloc_telemetry::{Severity, Telemetry};

const REQUESTS: usize = 20_000;
const BATCH: usize = 256;
const OPS: u64 = 1024;

fn bench_telemetry(c: &mut Criterion) {
    let backend = BackendKind::TheoremOne { gamma: 8 };
    let seq = churn_seq(4, 8, 256, 1 << 12, true, REQUESTS, 13);
    let mut group = c.benchmark_group("telemetry_overhead");

    group.throughput(Throughput::Elements(seq.len() as u64));
    let tel = Telemetry::new();
    group.bench_with_input(
        BenchmarkId::new("ingest", "instrumented"),
        &seq,
        |b, seq| {
            b.iter(|| {
                let mut e = Engine::new(engine_config(4, 1, backend));
                e.attach_telemetry(&tel);
                e.ingest(seq, BATCH)
            })
        },
    );
    let off = realloc_telemetry::disabled();
    group.bench_with_input(BenchmarkId::new("ingest", "disabled"), &seq, |b, seq| {
        b.iter(|| {
            let mut e = Engine::new(engine_config(4, 1, backend));
            e.attach_telemetry(&off);
            e.ingest(seq, BATCH)
        })
    });

    // Raw primitives, batched: per-iteration time is OPS operations.
    group.throughput(Throughput::Elements(OPS));
    let counter = tel.counter("bench_counter_total");
    group.bench_function(BenchmarkId::new("ops", "counter_add"), |b| {
        b.iter(|| {
            for i in 0..OPS {
                counter.add(i & 1);
            }
            counter.get()
        })
    });
    let hist = tel.histogram("bench_hist_nanos");
    group.bench_function(BenchmarkId::new("ops", "histogram_record"), |b| {
        b.iter(|| {
            for i in 0..OPS {
                hist.record(i * 97);
            }
        })
    });
    group.bench_function(BenchmarkId::new("ops", "trace_point"), |b| {
        b.iter(|| {
            for i in 0..OPS {
                tel.point(Severity::Info, "bench", i, i * 2);
            }
        })
    });
    group.bench_function(BenchmarkId::new("ops", "span"), |b| {
        b.iter(|| {
            for i in 0..OPS {
                drop(tel.span("bench_span", i));
            }
        })
    });

    // Exposition: one full scrape of the registry the ingest runs built.
    group.throughput(Throughput::Elements(1));
    group.bench_function(BenchmarkId::new("scrape", "render_text"), |b| {
        b.iter(|| tel.render_text().len())
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_telemetry
}
criterion_main!(benches);
