//! E12 — scheduler throughput (per-request latency) across policies,
//! active-set sizes, and machine counts.
//!
//! Measures the throughput comparison: the
//! reservation scheduler's per-request work stays flat as `n` grows, the
//! naive baseline is comparable on slack-heavy churn, and EDF re-planning
//! degrades linearly (it recomputes the whole schedule every request).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use realloc_baselines::{EdfRescheduler, NaivePeckingScheduler};
use realloc_core::{Reallocator, Request, RequestSeq, SingleMachineReallocator};
use realloc_multi::{ReallocatingScheduler, TheoremOneScheduler};
use realloc_reservation::ReservationScheduler;
use realloc_sim::harness::churn_seq;
use realloc_workloads::{ChurnConfig, ChurnGenerator};

fn replay<R: Reallocator>(sched: &mut R, seq: &RequestSeq) {
    for &r in seq.requests() {
        sched.request(r).expect("bench stream is serviceable");
    }
}

/// E14 — the **bare** §4 `ReservationScheduler`, no trimming and no
/// machine/alignment wrappers, so `BENCH_reservation_churn.json` tracks
/// the rebalance/PLACE hot path itself (dense interval records, FxHash
/// maps) without serving-layer overhead diluting it.
fn bench_reservation_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("reservation_churn");
    // Aligned single-machine churn, accepted verbatim by the bare
    // scheduler. Spans cover levels 0–2 of the paper tower.
    const SPANS: [u64; 7] = [1, 4, 16, 64, 256, 1024, 4096];
    let aligned = |horizon: u64, spans: &[u64], target: usize, len: usize, seed: u64| {
        let mut gen = ChurnGenerator::new(
            ChurnConfig {
                machines: 1,
                gamma: 8,
                horizon,
                spans: spans.to_vec(),
                target_active: target,
                insert_bias: 0.6,
                unaligned: false,
            },
            seed,
        );
        gen.generate(len)
    };
    let replay_bare = |seq: &RequestSeq| {
        let mut s = ReservationScheduler::new();
        for &r in seq.requests() {
            match r {
                Request::Insert { id, window } => s.insert(id, window).expect("aligned γ=8 churn"),
                Request::Delete { id } => s.delete(id).expect("active job"),
            };
        }
        s.active_count()
    };
    for &n in &[100usize, 400, 1600] {
        let seq = aligned(1 << 14, &SPANS[..6], n, 6 * n, 17);
        group.throughput(Throughput::Elements(seq.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("insert_delete", n),
            &seq,
            |b, seq: &RequestSeq| b.iter(|| replay_bare(seq)),
        );
    }
    // The stream the serving benchmark's `mem_dense` workload puts on one
    // machine (servebench/src/stream.rs: horizon 2^16, spans to 4096,
    // 2048 active jobs): five requests of prefill per target job, then
    // 20 000 at the steady state — the row an end-to-end claim about the
    // scheduler should move with.
    let dense = aligned(1 << 16, &SPANS, 2048, 2048 * 5 + 20_000, 7);
    group.throughput(Throughput::Elements(dense.len() as u64));
    group.bench_with_input(
        BenchmarkId::from_parameter("dense_2048"),
        &dense,
        |b, seq: &RequestSeq| b.iter(|| replay_bare(seq)),
    );
    // Delete-heavy phase: deletes trigger the eager rebalance path (quota
    // drops, sheds, MOVEs) that the scratch/occupancy work targets most.
    let build = aligned(1 << 14, &SPANS[..6], 800, 2400, 23);
    group.throughput(Throughput::Elements(build.len() as u64));
    group.bench_with_input(
        BenchmarkId::from_parameter("churn_drain"),
        &build,
        |b, seq: &RequestSeq| {
            b.iter(|| {
                let mut s = ReservationScheduler::new();
                let mut live: Vec<realloc_core::JobId> = Vec::new();
                for &r in seq.requests() {
                    match r {
                        Request::Insert { id, window } => {
                            s.insert(id, window).expect("aligned γ=8 churn");
                            live.push(id);
                        }
                        Request::Delete { id } => {
                            s.delete(id).expect("active job");
                            live.retain(|&j| j != id);
                        }
                    }
                }
                for id in live.drain(..) {
                    s.delete(id).expect("active job");
                }
                s.occupied_slots()
            })
        },
    );
    group.finish();
}

fn bench_vs_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("churn_vs_n");
    for &n in &[100usize, 400, 1600] {
        let seq = churn_seq(1, 8, n, 1 << 12, false, 4 * n, 9);
        group.throughput(Throughput::Elements(seq.len() as u64));
        group.bench_with_input(BenchmarkId::new("reservation", n), &seq, |b, seq| {
            b.iter(|| {
                let mut s = ReallocatingScheduler::from_factory(1, ReservationScheduler::new);
                replay(&mut s, seq);
            })
        });
        group.bench_with_input(BenchmarkId::new("reservation_trim", n), &seq, |b, seq| {
            b.iter(|| {
                let mut s = TheoremOneScheduler::theorem_one(1, 8);
                replay(&mut s, seq);
            })
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &seq, |b, seq| {
            b.iter(|| {
                let mut s = ReallocatingScheduler::from_factory(1, NaivePeckingScheduler::new);
                replay(&mut s, seq);
            })
        });
        // EDF recomputes everything per request: only bench small n.
        if n <= 400 {
            group.bench_with_input(BenchmarkId::new("edf", n), &seq, |b, seq| {
                b.iter(|| {
                    let mut s = EdfRescheduler::new(1);
                    replay(&mut s, seq);
                })
            });
        }
    }
    group.finish();
}

fn bench_vs_machines(c: &mut Criterion) {
    let mut group = c.benchmark_group("churn_vs_machines");
    for &m in &[1usize, 4, 16] {
        let seq = churn_seq(m, 16, 100 * m, 1 << 10, true, 3000, 14);
        group.throughput(Throughput::Elements(seq.len() as u64));
        group.bench_with_input(BenchmarkId::new("theorem_one", m), &seq, |b, seq| {
            b.iter(|| {
                let mut s = TheoremOneScheduler::theorem_one(m, 16);
                replay(&mut s, seq);
            })
        });
    }
    group.finish();
}

fn bench_vs_span(c: &mut Criterion) {
    let mut group = c.benchmark_group("churn_vs_span");
    for &exp in &[8u32, 14, 20] {
        let seq = churn_seq(1, 8, 400, 1 << exp, false, 3000, 27);
        group.throughput(Throughput::Elements(seq.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("reservation", format!("2^{exp}")),
            &seq,
            |b, seq| {
                b.iter(|| {
                    let mut s = ReallocatingScheduler::from_factory(1, ReservationScheduler::new);
                    replay(&mut s, seq);
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_reservation_churn, bench_vs_n, bench_vs_machines, bench_vs_span
}
criterion_main!(benches);
