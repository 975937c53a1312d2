//! Engine ↔ telemetry integration properties:
//!
//! * an attached registry counts exactly what the exact-metrics path
//!   reports, across resizes (engine-level counters never reset),
//! * instrumentation never perturbs scheduling outcomes (placements,
//!   costs, journal bytes, and the state digest are identical with and
//!   without telemetry),
//! * registry contents snapshot → restore → replay **byte-identically**
//!   under a deterministic manual clock: re-running the same workload on
//!   a fresh engine + registry reproduces the same snapshot text, and
//!   restoring a snapshot into a fresh registry reproduces it verbatim.

use proptest::prelude::*;
use realloc_core::{RequestSeq, Restorable};
use realloc_engine::{BackendKind, Engine, EngineConfig};
use realloc_telemetry::{parse_sample, Clock, Telemetry};
use realloc_workloads::{ChurnConfig, ChurnGenerator};

fn config(shards: usize) -> EngineConfig {
    EngineConfig {
        shards,
        machines_per_shard: 1,
        backend: BackendKind::TheoremOne { gamma: 8 },
        parallel: false,
        journal: true,
        ..EngineConfig::default()
    }
}

fn churn(seed: u64, shards: usize, len: usize) -> RequestSeq {
    let mut gen = ChurnGenerator::new(
        ChurnConfig {
            machines: shards,
            gamma: 8,
            horizon: 1 << 12,
            spans: vec![1, 4, 16, 64],
            target_active: 48 * shards,
            insert_bias: 0.6,
            unaligned: false,
        },
        seed,
    );
    gen.generate(len)
}

/// Drives one engine through ingest → resize → ingest with a fresh
/// manual-clock registry attached; returns the telemetry handle and the
/// engine. The manual clock never advances, so every duration sample is
/// exactly zero and the registry is a pure function of the event stream.
fn instrumented_run(seed: u64, shards: usize, len: usize) -> (Telemetry, Engine) {
    let tel = Telemetry::with_clock(Clock::manual(), 256);
    let mut engine = Engine::new(config(shards));
    engine.attach_telemetry(&tel);
    let seq = churn(seed, shards, len);
    engine.ingest(&seq, 64);
    engine
        .resize(shards + 2)
        .expect("growing is always feasible");
    let tail = churn(seed.wrapping_add(1), shards, len / 2);
    engine.ingest(&tail, 32);
    engine.checkpoint();
    (tel, engine)
}

#[test]
fn registry_matches_exact_metrics_across_resize() {
    let (tel, engine) = instrumented_run(7, 4, 400);
    let m = engine.metrics();
    assert_eq!(tel.counter_value("engine_requests_total"), Some(m.requests));
    assert_eq!(tel.counter_value("engine_failed_total"), Some(m.failed));
    assert_eq!(
        tel.counter_value("engine_reallocations_total"),
        Some(m.reallocations)
    );
    assert_eq!(
        tel.counter_value("engine_migrations_total"),
        Some(m.migrations)
    );
    assert_eq!(tel.counter_value("engine_resizes_total"), Some(1));
    assert_eq!(tel.counter_value("engine_checkpoints_total"), Some(1));
    assert_eq!(tel.gauge_value("engine_epoch"), Some(engine.epoch()));
    assert_eq!(tel.gauge_value("engine_shards"), Some(6));
    assert_eq!(
        tel.gauge_value("engine_active_jobs"),
        Some(engine.active_count() as u64)
    );
    // The adapted exact-cost gauges agree with the Metrics percentiles.
    assert_eq!(tel.gauge_value("engine_realloc_cost_p50"), Some(m.cost.p50));
    assert_eq!(tel.gauge_value("engine_realloc_cost_p99"), Some(m.cost.p99));
    // One flush-events sample per flush; their sum is every record.
    let events = tel
        .histogram_snapshot("engine_flush_events")
        .expect("flushes recorded");
    assert_eq!(events.count(), engine.batches());
    assert_eq!(events.sum(), m.requests + m.failed);
    // The rendered exposition carries the same numbers.
    let text = tel.render_text();
    assert_eq!(
        parse_sample(&text, "engine_requests_total"),
        Some(m.requests)
    );
    assert_eq!(
        parse_sample(&text, "engine_flush_events_count"),
        Some(engine.batches())
    );
    // The flush trace is populated (span begin/end pairs).
    let trace = tel.trace_events();
    assert!(trace.iter().any(|e| e.key == "flush"), "flush spans traced");
    assert!(trace.iter().any(|e| e.key == "epoch"), "resize traced");
    assert!(
        trace.iter().any(|e| e.key == "checkpoint"),
        "checkpoint traced"
    );
}

/// The cost gauges are a view of the engine's own lifetime histograms,
/// so a registry attached to a *restored* engine shows the restored
/// history at once — and keeps agreeing with `metrics()` as flushes add
/// to it — instead of a distribution that restarts at attach.
#[test]
fn cost_gauges_cover_history_restored_before_attach() {
    let mut original = Engine::new(config(4));
    original.ingest(&churn(3, 4, 600), 64);
    let mut engine = Engine::restore_snapshot(&original.snapshot_text()).unwrap();
    let history = engine.metrics();
    assert!(history.cost.mean > 0.0, "the script reallocates");

    let tel = Telemetry::new();
    engine.attach_telemetry(&tel);
    let check = |m: &realloc_engine::Metrics| {
        assert_eq!(tel.gauge_value("engine_realloc_cost_p50"), Some(m.cost.p50));
        assert_eq!(tel.gauge_value("engine_realloc_cost_p95"), Some(m.cost.p95));
        assert_eq!(tel.gauge_value("engine_realloc_cost_p99"), Some(m.cost.p99));
        assert_eq!(
            tel.gauge_value("engine_realloc_cost_mean_milli"),
            Some((m.cost.mean * 1000.0) as u64)
        );
    };
    check(&history);
    // A handful of zero-cost inserts after attach: a distribution that
    // started at attach would read all-zero here.
    for i in 0..8u64 {
        engine.submit(realloc_core::Request::Insert {
            id: realloc_core::JobId(1 << 40 | i),
            window: realloc_core::Window::new(0, 1 << 12),
        });
    }
    let report = engine.flush();
    assert_eq!((report.processed(), report.reallocations()), (8, 0));
    let now = engine.metrics();
    assert_eq!(now.requests, history.requests + 8);
    assert!(now.cost.mean > 0.0);
    check(&now);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Telemetry must be a pure observer: with and without it, the
    /// engine produces identical placements, costs, journal bytes, and
    /// state digest.
    #[test]
    fn instrumentation_never_perturbs_outcomes(seed in 0u64..200) {
        let shards = 3 + (seed as usize % 3);
        let seq = churn(seed, shards, 300);
        let run = |instrument: bool| {
            let tel = Telemetry::new();
            let mut e = Engine::new(config(shards));
            if instrument {
                e.attach_telemetry(&tel);
            }
            e.ingest(&seq, 48);
            e.resize(shards + 1).expect("grow");
            e.ingest(&churn(seed + 1, shards, 100), 48);
            e
        };
        let plain = run(false);
        let instrumented = run(true);
        prop_assert_eq!(plain.placements(), instrumented.placements());
        prop_assert_eq!(plain.total_costs(), instrumented.total_costs());
        prop_assert_eq!(plain.state_digest(), instrumented.state_digest());
        prop_assert_eq!(
            plain.journal().unwrap().to_text(),
            instrumented.journal().unwrap().to_text()
        );
    }

    /// Under a deterministic manual clock the registry is a pure
    /// function of the workload: snapshot → restore is byte-identical,
    /// and replaying the same workload (fresh engine, fresh registry,
    /// resize included) reproduces the same snapshot text.
    #[test]
    fn registry_snapshot_restore_replay_byte_identical(seed in 0u64..200) {
        let (tel_a, _engine_a) = instrumented_run(seed, 4, 240);
        let snapshot = tel_a.snapshot_text();

        // Restore into a fresh registry: byte-identical round trip.
        let tel_b = Telemetry::with_clock(Clock::manual(), 256);
        tel_b.restore_registry(&snapshot).expect("snapshot restores");
        prop_assert_eq!(tel_b.snapshot_text(), snapshot.clone());
        prop_assert_eq!(tel_b.render_text(), tel_a.render_text());

        // Replay the workload end-to-end: same registry bytes.
        let (tel_c, _engine_c) = instrumented_run(seed, 4, 240);
        prop_assert_eq!(tel_c.snapshot_text(), snapshot);
    }
}
