//! The engine's instrument bundle: named handles into an attached
//! [`realloc_telemetry::Telemetry`] registry, resolved once at
//! [`crate::Engine::attach_telemetry`] time so the hot paths never touch
//! the registry's name map.
//!
//! # What gets measured
//!
//! * **Scheduling state, shown, not counted** — the engine owns these
//!   numbers and [`EngineTele::publish`] copies them in: the lifetime
//!   requests/failures/reallocations/migrations `_total`s and the
//!   `engine_realloc_cost_{p50,p95,p99,mean_milli}` gauges from the one
//!   lifetime [`crate::metrics::Tally`] (resize carryover plus every live
//!   shard — exactly what [`crate::Engine::metrics`] reports), and the
//!   active-jobs, epoch and shard-count gauges from the engine and its
//!   router. It runs at attach, after every flush and after every
//!   reshard, so a registry attached to a restored engine shows its
//!   history at once.
//! * **Events** — flushes, checkpoints, resizes and rebalance pins,
//!   counted where they happen.
//! * **Flush pipeline phases**, one histogram sample per flush:
//!   `engine_flush_queue_wait_nanos` (first enqueue → flush start),
//!   `engine_route_nanos` (batch route+enqueue time, recorded by
//!   `ingest`), `engine_flush_barrier_nanos` (all shards' drains),
//!   `engine_flush_journal_nanos` (append loop) and
//!   `engine_flush_total_nanos`; plus `engine_flush_events` and
//!   `engine_checkpoint_nanos`.
//!
//! None of this state enters the engine's [`realloc_core::Restorable`]
//! snapshot: replication digests must stay a pure function of the
//! replayed event stream, and wall-clock latencies are not. Across a
//! restart the scheduling numbers come back with the engine snapshot
//! (its `t`/`h`/`hb` and per-shard tally lines) and are shown again at
//! attach.

use crate::Engine;
use realloc_telemetry::{Counter, Gauge, Histo, Telemetry};

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

    /// Sets every scheduling-state instrument from `engine`: the four
    /// `_total`s are advanced to the lifetime tally (a counter never
    /// falls, so one that already reads more — a registry re-attached
    /// to an engine with less history — keeps its value), the gauges
    /// are set outright.
    pub fn publish(&self, engine: &Engine) {
        let lifetime = engine.lifetime();
        for (counter, value) in [
            (&self.requests_total, lifetime.requests),
            (&self.failed_total, lifetime.failed),
            (&self.reallocations_total, lifetime.reallocations),
            (&self.migrations_total, lifetime.migrations),
        ] {
            counter.add(value.saturating_sub(counter.get()));
        }
        self.active_jobs.set(engine.active_count() as u64);
        self.epoch.set(engine.epoch());
        self.shards.set(engine.router().shards() as u64);
        let costs = &lifetime.hist;
        self.cost_p50.set(costs.percentile(0.50));
        self.cost_p95.set(costs.percentile(0.95));
        self.cost_p99.set(costs.percentile(0.99));
        self.cost_mean_milli.set((costs.mean() * 1000.0) as u64);
    }
}
