//! The engine's instrument bundle: named handles into an attached
//! [`realloc_telemetry::Telemetry`] registry, resolved once at
//! [`crate::Engine::attach_telemetry`] time so the hot paths never touch
//! the registry's name map.
//!
//! # What gets measured
//!
//! * **Flush pipeline phases**, one histogram sample per flush:
//!   `engine_flush_queue_wait_nanos` (first enqueue → flush start),
//!   `engine_route_nanos` (batch route+enqueue time, recorded by
//!   `ingest`), `engine_flush_barrier_nanos` (all shards' drains),
//!   `engine_shard_drain_nanos` (per shard per flush, recorded by the
//!   shard itself),
//!   `engine_flush_journal_nanos` (append loop) and
//!   `engine_flush_total_nanos`.
//! * **Sampled service latency** — timing every request would cost two
//!   clock reads per request (~2.5% on the ingest benchmark, over the
//!   overhead budget), so shards time one request in
//!   [`SERVICE_SAMPLE_EVERY`] into `engine_service_sampled_nanos` and
//!   accumulate locally, merging into the shared histogram once per
//!   drain.
//! * **The exact cost distribution, published** — after every flush
//!   the p50/p95/p99/mean of the engine-lifetime [`CostHistogram`] (the
//!   union of the live shards' histograms and the resize carryover —
//!   exactly what [`crate::Engine::metrics`] reports) are set as the
//!   `engine_realloc_cost_{p50,p95,p99,mean_milli}` gauges. The gauges
//!   are a view of that one structure; nothing is counted twice.
//! * **Lifetime counters and gauges** — requests/failures/reallocations/
//!   migrations/flushes/checkpoints/resizes, active jobs, routing epoch,
//!   shard count. Counters add each flush's [`crate::BatchReport`]
//!   totals at the engine level, so they survive resizes by construction
//!   (the guarantee the exact metrics path gets from the resize
//!   carryover, a [`crate::metrics::Tally`]).
//!
//! None of this state enters the engine's [`realloc_core::Restorable`]
//! snapshot: replication digests must stay a pure function of the
//! replayed event stream, and wall-clock latencies are not. Embedders
//! that want telemetry to survive a process restart persist the registry
//! itself via [`realloc_telemetry::Telemetry::snapshot_text`].

use crate::metrics::CostHistogram;
use realloc_telemetry::{Counter, Gauge, Histo, Telemetry};

/// Shards time one request in this many (power of two: the modulo is a
/// mask) — amortizing the two clock reads a service-latency sample
/// costs down to noise.
pub(crate) const SERVICE_SAMPLE_EVERY: u64 = 8;

/// The instrument handles a shard carries into its drain loop (cloned
/// per shard; all handles are `Send + Sync` shims over the shared
/// registry).
#[derive(Clone, Debug)]
pub(crate) struct ShardTele {
    /// The owning telemetry (for the clock).
    pub t: Telemetry,
    /// One drain-duration sample per shard per flush.
    pub drain_nanos: Histo,
    /// Sampled per-request service latency (merged once per drain).
    pub service_nanos: Histo,
}

/// Engine-level instruments; `None` on engines without telemetry.
pub(crate) struct EngineTele {
    /// The attached telemetry handle (clock, trace ring, registry).
    pub t: Telemetry,
    pub requests_total: Counter,
    pub failed_total: Counter,
    pub reallocations_total: Counter,
    pub migrations_total: Counter,
    pub flushes_total: Counter,
    pub checkpoints_total: Counter,
    pub resizes_total: Counter,
    pub rebalance_pins_total: Counter,
    pub active_jobs: Gauge,
    pub epoch: Gauge,
    pub shards: Gauge,
    pub queue_wait: Histo,
    pub route: Histo,
    pub barrier: Histo,
    pub journal_append: Histo,
    pub flush_total: Histo,
    pub flush_events: Histo,
    pub checkpoint_nanos: Histo,
    /// The bundle every shard gets a clone of.
    pub shard: ShardTele,
    pub cost_p50: Gauge,
    pub cost_p95: Gauge,
    pub cost_p99: Gauge,
    pub cost_mean_milli: Gauge,
    /// Clock nanos of the first enqueue since the last flush — the
    /// queue-wait phase start.
    pub first_enqueue_at: Option<u64>,
}

impl EngineTele {
    /// Resolves every instrument against `t`; `None` when `t` is
    /// disabled (the engine then skips instrumentation entirely).
    pub fn build(t: &Telemetry) -> Option<Box<EngineTele>> {
        if !t.is_enabled() {
            return None;
        }
        Some(Box::new(EngineTele {
            requests_total: t.counter("engine_requests_total"),
            failed_total: t.counter("engine_failed_total"),
            reallocations_total: t.counter("engine_reallocations_total"),
            migrations_total: t.counter("engine_migrations_total"),
            flushes_total: t.counter("engine_flushes_total"),
            checkpoints_total: t.counter("engine_checkpoints_total"),
            resizes_total: t.counter("engine_resizes_total"),
            rebalance_pins_total: t.counter("engine_rebalance_pins_total"),
            active_jobs: t.gauge("engine_active_jobs"),
            epoch: t.gauge("engine_epoch"),
            shards: t.gauge("engine_shards"),
            queue_wait: t.histogram("engine_flush_queue_wait_nanos"),
            route: t.histogram("engine_route_nanos"),
            barrier: t.histogram("engine_flush_barrier_nanos"),
            journal_append: t.histogram("engine_flush_journal_nanos"),
            flush_total: t.histogram("engine_flush_total_nanos"),
            flush_events: t.histogram("engine_flush_events"),
            checkpoint_nanos: t.histogram("engine_checkpoint_nanos"),
            shard: ShardTele {
                t: t.clone(),
                drain_nanos: t.histogram("engine_shard_drain_nanos"),
                service_nanos: t.histogram("engine_service_sampled_nanos"),
            },
            cost_p50: t.gauge("engine_realloc_cost_p50"),
            cost_p95: t.gauge("engine_realloc_cost_p95"),
            cost_p99: t.gauge("engine_realloc_cost_p99"),
            cost_mean_milli: t.gauge("engine_realloc_cost_mean_milli"),
            first_enqueue_at: None,
            t: t.clone(),
        }))
    }

    /// Current clock nanos.
    pub fn now(&self) -> u64 {
        self.t.now_nanos()
    }

    /// Publishes the exact-cost gauges from `costs`, the engine-lifetime
    /// distribution (called once per flush and at attach).
    pub fn publish_cost_gauges(&self, costs: &CostHistogram) {
        self.cost_p50.set(costs.percentile(0.50));
        self.cost_p95.set(costs.percentile(0.95));
        self.cost_p99.set(costs.percentile(0.99));
        self.cost_mean_milli.set((costs.mean() * 1000.0) as u64);
    }
}
