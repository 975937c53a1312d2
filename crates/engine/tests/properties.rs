//! Engine-level properties: routing determinism/stability, single-shard
//! equivalence with the bare §4 scheduler, journal round-trip + replay,
//! and one behaviour through every flush door — all over churn
//! workloads generated with the Lemma 2 density guarantee.

use proptest::prelude::*;
use realloc_baselines::NaivePeckingScheduler;
use realloc_core::{
    Error, JobId, Reallocator, Request, RequestOutcome, RequestSeq, SingleMachineReallocator,
    Window,
};
use realloc_engine::journal::{Costs, ErrCode, ReqResult};
use realloc_engine::{BackendKind, Engine, EngineConfig, FlushMode, Journal, TenantId};
use realloc_reservation::{DeamortizedScheduler, ReservationScheduler, TrimmedScheduler};
use realloc_store::{DurableStore, MemIo, StoreIo};
use realloc_telemetry::{Telemetry, TraceCtx};
use realloc_workloads::{ChurnConfig, ChurnGenerator};
use std::sync::Arc;

fn config(shards: usize, backend: BackendKind) -> EngineConfig {
    EngineConfig {
        shards,
        machines_per_shard: 1,
        backend,
        parallel: false,
        journal: true,
        ..EngineConfig::default()
    }
}

/// Aligned single-machine churn at γ = 8 — accepted verbatim by the bare
/// reservation scheduler, so engine and scheduler see identical streams.
fn aligned_churn(seed: u64, len: usize) -> RequestSeq {
    let mut gen = ChurnGenerator::new(
        ChurnConfig {
            machines: 1,
            gamma: 8,
            horizon: 1 << 12,
            spans: vec![1, 4, 16, 64, 256],
            target_active: 96,
            insert_bias: 0.6,
            unaligned: false,
        },
        seed,
    );
    gen.generate(len)
}

/// Multi-shard churn: the density budget is provisioned for `shards`
/// single-machine backends.
fn sharded_churn(seed: u64, shards: usize, len: usize) -> RequestSeq {
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

/// The three ways a caller reaches the one flush body.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Door {
    /// `flush()`.
    Shorthand,
    /// `flush_mode(Immediate)`.
    Immediate,
    /// `flush_mode(Durable)` over a `MemIo` store, every ticket waited.
    Durable,
}

/// Drives `seq` through `door` in `batch`-request ticks. `telemetry`
/// attaches a registry before the first request; `traced` arms a trace
/// context ahead of every tick.
fn through_door(
    door: Door,
    seq: &RequestSeq,
    batch: usize,
    telemetry: Option<&Telemetry>,
    traced: bool,
) -> Engine {
    let mut e = Engine::new(config(4, BackendKind::TheoremOne { gamma: 8 }));
    if let Some(t) = telemetry {
        e.attach_telemetry(t);
    }
    if door == Door::Durable {
        let store = DurableStore::create(
            Arc::new(MemIo::new()) as Arc<dyn StoreIo>,
            std::path::Path::new("/store"),
            e.journal().unwrap().config(),
        )
        .unwrap();
        e.attach_durability(Box::new(store)).unwrap();
    }
    for (i, chunk) in seq.requests().chunks(batch).enumerate() {
        for &r in chunk {
            e.submit(r);
        }
        if traced {
            e.arm_trace(TraceCtx::mint(i as u64, i as u64));
        }
        let (report, ticket) = match door {
            Door::Shorthand => (e.flush(), None),
            Door::Immediate => e.flush_mode(FlushMode::Immediate).unwrap(),
            Door::Durable => e.flush_mode(FlushMode::Durable).unwrap(),
        };
        assert_eq!(report.processed() + report.failed(), chunk.len());
        assert_eq!(e.queued(), 0, "{door:?} left requests unserviced");
        assert_eq!(ticket.is_some(), door == Door::Durable, "{door:?} ticket");
        if let Some(ticket) = ticket {
            ticket.wait().unwrap();
        }
    }
    assert_eq!(e.durability_error(), None);
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // ---------------- the flush door ----------------

    #[test]
    fn every_way_through_the_flush_door_is_one_behaviour(
        seed in 0u64..200,
        batch in 8usize..96,
    ) {
        let seq = sharded_churn(seed, 4, 360);
        let reference = through_door(Door::Shorthand, &seq, batch, None, false);
        let journal = reference.journal().unwrap().to_text();
        for door in [Door::Shorthand, Door::Immediate, Door::Durable] {
            for (instrumented, traced) in [(false, false), (false, true), (true, false), (true, true)] {
                let tel = Telemetry::new();
                let e = through_door(door, &seq, batch, instrumented.then_some(&tel), traced);
                let what = format!("{door:?} instrumented={instrumented} traced={traced}");
                prop_assert_eq!(e.journal().unwrap().to_text(), journal.clone(), "{}", what);
                prop_assert_eq!(e.state_digest(), reference.state_digest(), "{}", what);
                prop_assert_eq!(e.placements(), reference.placements(), "{}", what);
                let m = e.metrics();
                prop_assert_eq!(&m, &reference.metrics(), "{}", what);
                if instrumented {
                    // One count: the registry shows what the shards counted.
                    for (name, want) in [
                        ("engine_requests_total", m.requests),
                        ("engine_failed_total", m.failed),
                        ("engine_reallocations_total", m.reallocations),
                        ("engine_migrations_total", m.migrations),
                        ("engine_flushes_total", e.batches()),
                    ] {
                        prop_assert_eq!(tel.counter_value(name), Some(want), "{} {}", what, name);
                    }
                    for (name, want) in [
                        ("engine_realloc_cost_p50", m.cost.p50),
                        ("engine_realloc_cost_p95", m.cost.p95),
                        ("engine_realloc_cost_p99", m.cost.p99),
                        ("engine_realloc_cost_mean_milli", (m.cost.mean * 1000.0) as u64),
                    ] {
                        prop_assert_eq!(tel.gauge_value(name), Some(want), "{} {}", what, name);
                    }
                }
            }
        }
    }

    // ---------------- routing ----------------

    #[test]
    fn routing_is_deterministic_and_stable(
        ids in prop::collection::vec(0u64..1_000_000, 1..200),
        shards in 1usize..16,
    ) {
        let a = Engine::new(config(shards, BackendKind::Reservation));
        let mut b = Engine::new(config(shards, BackendKind::Reservation));
        // Give engine b a history before querying: routing must not
        // depend on traffic, only on the id and the shard count.
        for i in 0..50u64 {
            b.submit(Request::Insert {
                id: JobId(2_000_000 + i),
                window: Window::new(0, 1 << 10),
            });
        }
        b.flush();
        for &id in &ids {
            let shard = a.shard_of(JobId(id));
            prop_assert!(shard < shards);
            prop_assert_eq!(shard, b.shard_of(JobId(id)), "routing drifted");
            // Stable under repeated queries.
            prop_assert_eq!(shard, a.shard_of(JobId(id)));
        }
    }

    // ---------------- single-shard equivalence ----------------

    #[test]
    fn single_shard_engine_matches_every_bare_backend(seed in 0u64..500) {
        // The engine's shard and the §3 wrapper reuse one move buffer
        // each across requests. Two references get fresh buffers: the
        // backend `BackendKind::build(1)` makes, driven through the
        // provided `request` (the wrapper's buffer is still reused there),
        // and the one machine's scheduler alone, through its provided
        // `insert`/`delete` — on one machine the wrapper hands it every
        // request unchanged. Rejected requests sit between accepted ones,
        // so moves a rejection left behind would show in the next
        // request's cost: a duplicate insert and an unknown delete every
        // few requests, and first, far from the churn, an insert whose
        // cascade moves a job before it fails — `[o, o + 8)` is full when
        // `[o, o + 2)` arrives, and the naive backend's cascade bumps the
        // span-4 job before the span-8 one finds no room. Every backend
        // rejects the `injected` duplicates and unknown deletes. The
        // reservation and Theorem 1 backends accept the rest of the
        // stream, `aligned_churn` included, except the span-2 insert
        // into the full block. The deamortized backend rejects span-1
        // windows and the naive one may fail where these succeed, so
        // only the injected rejections are checked for those two.
        let o = 1u64 << 20;
        let far = |k: u64| JobId((1 << 41) + k);
        let mut requests = vec![
            Request::Insert { id: far(0), window: Window::new(o, o + 4) },
            Request::Insert { id: far(1), window: Window::new(o, o + 8) },
        ];
        for t in 2..8 {
            requests.push(Request::Insert { id: far(t), window: Window::new(o + t, o + t + 1) });
        }
        let far_rejected = requests.len();
        requests.push(Request::Insert { id: far(8), window: Window::new(o, o + 2) });
        let mut injected = Vec::new();
        for (i, &r) in aligned_churn(seed, 400).requests().iter().enumerate() {
            requests.push(r);
            if i % 7 == 3 {
                if let Request::Insert { id, window } = r {
                    injected.push(requests.len());
                    requests.push(Request::Insert { id, window });
                }
                injected.push(requests.len());
                requests.push(Request::Delete { id: JobId(1 << 40) });
            }
        }
        let seq = RequestSeq::from_vec(requests.clone());
        let costs = |result: Result<RequestOutcome, Error>| -> ReqResult {
            match result {
                Ok(outcome) => {
                    let (reallocations, migrations) = outcome.netted_costs();
                    Ok(Costs { reallocations, migrations })
                }
                Err(e) => Err(ErrCode::of(&e)),
            }
        };
        for kind in [
            BackendKind::Reservation,
            BackendKind::TheoremOne { gamma: 8 },
            BackendKind::Deamortized { gamma: 8 },
            BackendKind::Naive,
        ] {
            let mut engine = Engine::new(config(1, kind));
            engine.ingest(&seq, 64);
            let journaled: Vec<ReqResult> = engine
                .journal()
                .unwrap()
                .iter_events()
                .map(|e| e.result)
                .collect();

            let mut bare = kind.build(1);
            let mut machine: Box<dyn SingleMachineReallocator> = match kind {
                BackendKind::Reservation => Box::new(ReservationScheduler::new()),
                BackendKind::TheoremOne { gamma } => Box::new(TrimmedScheduler::new(gamma)),
                BackendKind::Deamortized { gamma } => Box::new(DeamortizedScheduler::new(gamma)),
                BackendKind::Naive => Box::new(NaivePeckingScheduler::new()),
            };
            prop_assert_eq!(journaled.len(), requests.len(), "{}", kind);
            for (i, (&r, journaled)) in requests.iter().zip(&journaled).enumerate() {
                let moves = match r {
                    Request::Insert { id, window } => machine.insert(id, window),
                    Request::Delete { id } => machine.delete(id),
                };
                let alone = costs(moves.map(|moves| RequestOutcome {
                    moves: moves.iter().map(|m| m.on_machine(0)).collect(),
                }));
                prop_assert_eq!(journaled, &costs(bare.request(r)), "{}: request {} ({:?})", kind, i, r);
                prop_assert_eq!(journaled, &alone, "{}: request {} ({:?}) alone", kind, i, r);
            }
            prop_assert!(injected.len() >= requests.len() / 8, "rejections interleaved");
            for &i in &injected {
                prop_assert!(journaled[i].is_err(), "{}: request {} ({:?}) accepted", kind, i, requests[i]);
            }
            let rejected: Vec<usize> = (0..journaled.len()).filter(|&i| journaled[i].is_err()).collect();
            if matches!(kind, BackendKind::Reservation | BackendKind::TheoremOne { .. }) {
                let expected: Vec<usize> = std::iter::once(far_rejected).chain(injected.iter().copied()).collect();
                prop_assert_eq!(&rejected, &expected, "{}: rejected beyond the injected requests", kind);
            }
            prop_assert_eq!(engine.metrics().failed, rejected.len() as u64, "{}", kind);

            // …and identical placements.
            let engine_placements: Vec<(JobId, u64)> = engine
                .placements()
                .into_iter()
                .map(|(id, shard, p)| {
                    assert_eq!((shard, p.machine), (0, 0));
                    (id, p.slot)
                })
                .collect();
            let bare_placements: Vec<(JobId, u64)> =
                bare.snapshot().iter().map(|(id, p)| (id, p.slot)).collect();
            prop_assert_eq!(&engine_placements, &bare_placements, "{}", kind);
            let mut alone_placements = machine.assignments();
            alone_placements.sort_unstable();
            prop_assert_eq!(&engine_placements, &alone_placements, "{} alone", kind);
        }
    }

    // ---------------- sharded conservation ----------------

    #[test]
    fn sharded_engine_conserves(
        seed in 0u64..300,
        shards in 2usize..9,
    ) {
        let seq = sharded_churn(seed, shards, 600);
        let inserts = seq.iter().filter(|r| r.is_insert()).count();
        let deletes = seq.len() - inserts;

        let mut engine = Engine::new(config(shards, BackendKind::Reservation));
        let (ok, failed) = engine.ingest(&seq, 128);
        prop_assert_eq!(failed, 0, "density-certified stream rejected");
        prop_assert_eq!(ok, seq.len());
        prop_assert_eq!(engine.active_count(), inserts - deletes);

        let m = engine.metrics();
        prop_assert_eq!(m.requests, seq.len() as u64);
        prop_assert_eq!(
            m.shards.iter().map(|s| s.active_jobs).sum::<u64>(),
            (inserts - deletes) as u64
        );
    }

    // ---------------- journal ----------------

    #[test]
    fn journal_text_round_trips_and_replays(seed in 0u64..300) {
        let seq = sharded_churn(seed, 4, 400);
        let mut engine = Engine::new(config(4, BackendKind::TheoremOne { gamma: 8 }));
        engine.ingest(&seq, 64);

        let journal = engine.journal().unwrap();
        prop_assert_eq!(journal.iter_events().count(), seq.len());

        // Text round trip preserves config and every event.
        let text = journal.to_text();
        let parsed = Journal::from_text(&text).unwrap();
        prop_assert_eq!(parsed.config().shards, 4);
        prop_assert_eq!(parsed.config().backend, BackendKind::TheoremOne { gamma: 8 });
        prop_assert!(parsed.iter_events().eq(journal.iter_events()));

        // Deterministic replay reproduces outcomes and final state.
        let replayed = parsed.replay().unwrap();
        prop_assert_eq!(replayed.placements(), engine.placements());
        prop_assert_eq!(replayed.total_costs(), engine.total_costs());
    }
}

#[test]
fn journal_records_failures_and_replay_detects_tampering() {
    let mut engine = Engine::new(config(2, BackendKind::Reservation));
    engine.submit(Request::Insert {
        id: JobId(1),
        window: Window::new(0, 8),
    });
    engine.submit(Request::Insert {
        id: JobId(1), // duplicate → rejected, but journaled
        window: Window::new(0, 8),
    });
    engine.flush();
    let text = engine.journal().unwrap().to_text();
    assert!(text.contains("err duplicate"), "journal: {text}");
    assert!(Journal::from_text(&text).unwrap().replay().is_ok());

    // Flip the recorded cost of the first insert: replay must diverge.
    let tampered = text.replace("ok 0 0", "ok 7 0");
    let error = Journal::from_text(&tampered)
        .unwrap()
        .replay()
        .expect_err("tampered journal must not replay cleanly");
    match error {
        realloc_engine::ReplayError::Divergence(d) => assert_eq!(d.index, 0),
        other => panic!("expected a divergence, got {other}"),
    }
}

#[test]
fn tenants_share_the_engine_without_collisions() {
    let mut engine = Engine::new(config(4, BackendKind::TheoremOne { gamma: 8 }));
    let mut feed = realloc_workloads::TenantFeed::new(
        (0u16..3)
            .map(|t| {
                (
                    t + 1,
                    ChurnGenerator::new(
                        ChurnConfig {
                            machines: 2,
                            gamma: 8,
                            horizon: 1 << 10,
                            spans: vec![1, 4, 16],
                            target_active: 32,
                            insert_bias: 0.6,
                            unaligned: false,
                        },
                        t as u64,
                    ),
                )
            })
            .collect(),
    );
    let mut submitted = 0usize;
    while let Some(batch) = feed.next_batch(16) {
        for (tenant, request) in &batch {
            engine.submit_for(TenantId(*tenant), *request).unwrap();
        }
        submitted += batch.len();
        engine.flush();
        if submitted >= 600 {
            break;
        }
    }
    let m = engine.metrics();
    assert_eq!(m.requests + m.failed, submitted as u64);
    assert_eq!(
        m.failed, 0,
        "tenant streams are density-certified per tenant"
    );
    // All three tenants' jobs are live simultaneously in disjoint id slices.
    let mut tenants_seen: Vec<u64> = engine
        .placements()
        .iter()
        .map(|(id, _, _)| id.0 >> 48)
        .collect();
    tenants_seen.sort_unstable();
    tenants_seen.dedup();
    assert_eq!(tenants_seen, vec![1, 2, 3]);
}
