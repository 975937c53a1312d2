//! Shared experiment plumbing: scheduler constructors and workload
//! shorthands used by the `exp_*` binaries.

use realloc_baselines::NaivePeckingScheduler;
use realloc_core::RequestSeq;
use realloc_engine::{BackendKind, EngineConfig};
use realloc_multi::{ReallocatingScheduler, TheoremOneScheduler};
use realloc_reservation::{ReservationScheduler, TrimmedScheduler};
use realloc_workloads::{ChurnConfig, ChurnGenerator};

/// The paper's Theorem 1 configuration (reservation + trim on every
/// machine).
pub fn theorem_one(machines: usize, gamma: u64) -> TheoremOneScheduler {
    TheoremOneScheduler::theorem_one(machines, gamma)
}

/// Reservation scheduler without trimming (pure `O(log* Δ)` variant).
pub fn reservation_multi(machines: usize) -> ReallocatingScheduler<ReservationScheduler> {
    ReallocatingScheduler::from_factory(machines, ReservationScheduler::new)
}

/// The Lemma 4 naive baseline lifted to `m` machines through the same
/// §3/§5 pipeline.
pub fn naive_multi(machines: usize) -> ReallocatingScheduler<NaivePeckingScheduler> {
    ReallocatingScheduler::from_factory(machines, NaivePeckingScheduler::new)
}

/// Trimmed single-machine backend (for per-machine experiments).
pub fn trimmed(gamma: u64) -> TrimmedScheduler {
    TrimmedScheduler::new(gamma)
}

/// Engine configuration for the serving-layer experiments
/// (`exp_engine_throughput`, engine benches).
pub fn engine_config(
    shards: usize,
    machines_per_shard: usize,
    backend: BackendKind,
) -> EngineConfig {
    EngineConfig {
        shards,
        machines_per_shard,
        backend,
        journal: false,
        ..EngineConfig::default()
    }
}

/// Churn sequence with `len` requests hovering around `target` active jobs
/// at density `gamma` on `machines` machines, spans up to `max_span`.
pub fn churn_seq(
    machines: usize,
    gamma: u64,
    target: usize,
    max_span: u64,
    unaligned: bool,
    len: usize,
    seed: u64,
) -> RequestSeq {
    let mut spans = vec![];
    let mut s = 1u64;
    while s <= max_span {
        spans.push(s);
        s *= 4;
    }
    let horizon = (max_span * 4)
        .max((target as u64 * gamma * 4).next_power_of_two())
        .next_power_of_two();
    let mut g = ChurnGenerator::new(
        ChurnConfig {
            machines,
            gamma,
            horizon,
            spans,
            target_active: target,
            insert_bias: 0.6,
            unaligned,
        },
        seed,
    );
    g.generate(len)
}
