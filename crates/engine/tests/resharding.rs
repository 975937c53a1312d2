//! Elastic resharding properties — the differential harness.
//!
//! The load-bearing comparisons, in order of strength:
//!
//! 1. **Differential vs. a fixed-size engine**: for any request stream
//!    with interleaved `resize` calls, the elastic engine ends with the
//!    same serviced/failed totals and the *same active job set on every
//!    shard* as a fixed-size engine (at the final size) fed the same
//!    stream, and both pass full placement-validity invariants. (Exact
//!    slot-for-slot equality is deliberately not asserted: placements
//!    are history-dependent — the paper's Observation 7 guarantees
//!    history independence of *fulfillment*, not of physical slots — so
//!    two engines with different resize histories legitimately differ
//!    in slots while serving identical sets.)
//! 2. **Self-consistency through the journal** (the acceptance bar): a
//!    journal recorded across ≥ 2 resizes replays — and recovers via
//!    checkpoint + tail — to byte-identical placements and metrics vs.
//!    the live engine.
//! 3. **No loss**: resizing a loaded engine preserves every queued
//!    request and every active job, and a refused resize leaves the
//!    engine untouched.

use proptest::prelude::*;
use realloc_core::{JobId, Request, RequestSeq, Restorable as _, Window};
use realloc_engine::{BackendKind, Engine, EngineConfig, Journal, ResizeError};
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

/// Churn whose density budget is provisioned for a SINGLE machine. Any
/// sub-multiset of a γ-dense set is γ-dense (removing jobs only lowers
/// window counts), so however the router partitions this stream — any
/// shard count, any pin table, any resize history — every shard sees a
/// stream its one-machine backend accepts. That makes "zero rejections"
/// an invariant of the *stream*, not of the sharding, which is what lets
/// the differential test compare engines with different resize
/// histories.
fn elastic_churn(seed: u64, len: usize) -> RequestSeq {
    let mut gen = ChurnGenerator::new(
        ChurnConfig {
            machines: 1,
            gamma: 8,
            horizon: 1 << 12,
            spans: vec![1, 4, 16, 64],
            target_active: 48,
            insert_bias: 0.65,
            unaligned: false,
        },
        seed,
    );
    gen.generate(len)
}

fn ingest(engine: &mut Engine, requests: &[Request], batch: usize) -> (usize, usize) {
    let (mut ok, mut failed) = (0usize, 0usize);
    for chunk in requests.chunks(batch) {
        for &r in chunk {
            engine.submit(r);
        }
        let report = engine.flush();
        ok += report.processed();
        failed += report.failed();
    }
    (ok, failed)
}

/// Sorted `(shard, id, window)` triples — the order-invariant view of
/// "which jobs live where" that must match across resize histories.
fn active_by_shard(engine: &Engine) -> Vec<(usize, JobId, Window)> {
    let mut out: Vec<(usize, JobId, Window)> = engine
        .placements()
        .into_iter()
        .map(|(id, shard, _)| {
            let window = engine
                .window_of(id)
                .expect("placed job has a recorded window");
            (shard, id, window)
        })
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 1: the differential comparison. A resize plan is a list
    /// of (batch index, new size) pairs; sizes walk 1..=6 in arbitrary
    /// order, ending wherever the plan ends — the fixed engine runs at
    /// that final size from genesis.
    #[test]
    fn elastic_engine_matches_fixed_size_engine(
        seed in 0u64..300,
        plan in prop::collection::vec((0usize..10, 1usize..7), 1..5),
    ) {
        let seq = elastic_churn(seed, 400);
        let batches: Vec<&[Request]> = seq.requests().chunks(40).collect();

        let mut elastic = Engine::new(config(3));
        let (mut ok, mut failed) = (0usize, 0usize);
        let mut final_size = 3usize;
        for (i, chunk) in batches.iter().enumerate() {
            for &(at, size) in &plan {
                if at == i {
                    match elastic.resize(size) {
                        Ok(report) => {
                            prop_assert_eq!(report.to_shards, size);
                            final_size = size;
                        }
                        Err(e) => prop_assert!(false, "resize refused on dense stream: {e}"),
                    }
                    prop_assert!(elastic.validate().is_ok(), "invariants after resize");
                }
            }
            for &r in *chunk {
                elastic.submit(r);
            }
            let report = elastic.flush();
            ok += report.processed();
            failed += report.failed();
        }

        let mut fixed = Engine::new(config(final_size));
        let (fixed_ok, fixed_failed) = ingest(&mut fixed, seq.requests(), 40);

        // Nothing lost, nothing rejected, on either side.
        prop_assert_eq!(failed, 0, "elastic rejected requests of a 1-machine-dense stream");
        prop_assert_eq!((ok, failed), (fixed_ok, fixed_failed));
        prop_assert_eq!(ok, seq.len());

        // Same jobs on the same shards (routing at the final epoch is
        // the same pure function for both engines).
        prop_assert_eq!(active_by_shard(&elastic), active_by_shard(&fixed));

        // Lifetime totals survived every reshard.
        let (em, fm) = (elastic.metrics(), fixed.metrics());
        prop_assert_eq!(em.requests, fm.requests);
        prop_assert_eq!(em.failed, fm.failed);
        prop_assert_eq!(em.active_jobs, fm.active_jobs);
        prop_assert_eq!(em.epoch, plan.iter().filter(|&&(at, _)| at < batches.len()).count() as u64);

        // Both engines are internally valid.
        prop_assert!(elastic.validate().is_ok());
        prop_assert!(fixed.validate().is_ok());
    }

    /// Property 2 — the acceptance bar: a journal recorded across >= 2
    /// resizes (and a checkpoint in between) replays AND recovers to
    /// byte-identical placements and metrics vs. the live engine, and
    /// the recovered engine's serialized journal is byte-identical to
    /// the original's.
    #[test]
    fn journal_across_resizes_replays_and_recovers_byte_identically(
        seed in 0u64..300,
        sizes in prop::collection::vec(1usize..7, 2..5),
    ) {
        let seq = elastic_churn(seed, 360);
        let batches: Vec<&[Request]> = seq.requests().chunks(30).collect();
        let mut cfg = config(2);
        cfg.retained_segments = usize::MAX; // keep genesis: full replay must work too
        let mut engine = Engine::new(cfg);

        // Spread the resizes evenly through the stream; checkpoint after
        // the first one so recovery crosses both a checkpoint and at
        // least one post-checkpoint epoch record.
        let stride = batches.len() / (sizes.len() + 1);
        for (i, chunk) in batches.iter().enumerate() {
            if stride > 0 && i % stride == stride - 1 {
                let k = i / stride;
                if k < sizes.len() {
                    engine.resize(sizes[k]).expect("dense stream resize");
                    if k == 0 {
                        assert!(engine.checkpoint());
                    }
                }
            }
            for &r in *chunk {
                engine.submit(r);
            }
            engine.flush();
        }
        prop_assert!(engine.epoch() >= 2, "plan must actually resize twice");
        let records = engine.journal().unwrap().epoch_records();
        prop_assert_eq!(records.len() as u64, engine.epoch(), "every resize journaled");
        prop_assert_eq!(records.last().unwrap().epoch, engine.epoch());
        let text = engine.journal().unwrap().to_text();

        // Full audit replay from genesis crosses every epoch record.
        let replayed = Journal::from_text(&text).unwrap().replay().unwrap();
        prop_assert_eq!(replayed.placements(), engine.placements());
        prop_assert_eq!(replayed.metrics(), engine.metrics());
        prop_assert_eq!(replayed.epoch(), engine.epoch());

        // Crash recovery: latest checkpoint + tail (which contains the
        // later epoch records).
        let recovered = Engine::recover(text.as_bytes()).unwrap();
        prop_assert_eq!(recovered.placements(), engine.placements());
        prop_assert_eq!(recovered.metrics(), engine.metrics());
        prop_assert_eq!(recovered.epoch(), engine.epoch());
        prop_assert_eq!(recovered.batches(), engine.batches());
        prop_assert_eq!(
            recovered.journal().unwrap().to_text(),
            engine.journal().unwrap().to_text()
        );
        prop_assert!(recovered.validate().is_ok());
    }

    /// Property 3: a resize with pending (unflushed) queues loses no
    /// queued request — everything still services, in per-job order.
    #[test]
    fn resize_preserves_pending_queues(seed in 0u64..300, new_size in 1usize..7) {
        let seq = elastic_churn(seed, 240);
        let (warm, pending) = seq.requests().split_at(160);
        let mut engine = Engine::new(config(4));
        ingest(&mut engine, warm, 40);

        for &r in pending {
            engine.submit(r);
        }
        let queued = engine.queued();
        prop_assert!(queued > 0);

        let report = engine.resize(new_size).expect("dense stream resize");
        prop_assert_eq!(report.queued_preserved, queued);
        prop_assert_eq!(engine.queued(), queued, "resize dropped queued requests");

        let flush = engine.flush();
        prop_assert_eq!(flush.processed(), queued, "failures: {:?}", flush.failures);
        prop_assert!(engine.validate().is_ok());

        // The journal (epoch record included) still replays cleanly.
        let text = engine.journal().unwrap().to_text();
        let replayed = Journal::from_text(&text).unwrap().replay().unwrap();
        prop_assert_eq!(replayed.placements(), engine.placements());
    }
}

#[test]
fn resize_carries_telemetry_and_reports_movement() {
    let mut engine = Engine::new(config(2));
    let seq = elastic_churn(7, 200);
    ingest(&mut engine, seq.requests(), 50);
    let before = engine.metrics();
    assert!(before.requests > 0);

    let report = engine.resize(5).unwrap();
    assert_eq!(report.from_shards, 2);
    assert_eq!(report.to_shards, 5);
    assert_eq!(report.epoch, 1);
    assert_eq!(report.jobs, engine.active_count());
    assert!(report.jobs_moved > 0, "growing 2→5 must re-home jobs");
    assert!(report.jobs_moved <= report.jobs);

    let after = engine.metrics();
    assert_eq!(after.requests, before.requests, "resize zeroed telemetry");
    assert_eq!(after.failed, before.failed);
    assert_eq!(after.reallocations, before.reallocations);
    assert_eq!(after.migrations, before.migrations);
    assert_eq!(after.cost, before.cost, "histograms must carry over");
    assert_eq!(after.active_jobs, before.active_jobs);
    assert_eq!(after.epoch, 1);
    assert_eq!(after.shards.len(), 5);
    let costs = engine.total_costs();
    assert_eq!(costs.reallocations, before.reallocations);
    assert_eq!(costs.migrations, before.migrations);
}

#[test]
fn tampered_carryover_is_rejected_at_restore() {
    // Untrusted-snapshot arithmetic must error at restore, not overflow
    // later in metrics()/total_costs() aggregation.
    let mut engine = Engine::new(config(2));
    let seq = elastic_churn(3, 160);
    ingest(&mut engine, seq.requests(), 40);
    engine.resize(3).unwrap(); // non-trivial carryover
    let text = engine.snapshot_text();
    assert!(Engine::restore_snapshot(&text).is_ok());

    let t_line = text
        .lines()
        .find(|l| l.starts_with("t "))
        .expect("snapshot has a carryover line")
        .to_string();
    let huge = format!("t {} 0 0 0", u64::MAX);
    for (what, bad) in [
        ("forged huge requests", text.replacen(&t_line, &huge, 1)),
        (
            "requests != histogram count",
            text.replacen(&t_line, "t 1 0 0 0", 1),
        ),
        (
            "orphan carryover totals",
            text.replacen(&format!("{t_line}\n"), "", 1),
        ),
    ] {
        assert_ne!(bad, text, "{what}: tamper missed");
        assert!(
            Engine::restore_snapshot(&bad).is_err(),
            "{what}: accepted a corrupt carryover"
        );
    }

    // Carryover lines and the router section are required, not
    // defaulted: a snapshot without them is incomplete.
    let engine_lines: Vec<&str> = text.lines().collect();
    let first_child = engine_lines
        .iter()
        .position(|l| l.starts_with("!begin router"))
        .expect("router section");
    let no_carry: String = engine_lines
        .iter()
        .enumerate()
        .filter(|(i, l)| {
            *i > first_child || !["t ", "h ", "hb "].iter().any(|op| l.starts_with(op))
        })
        .map(|(_, l)| format!("{l}\n"))
        .collect();
    let e = Engine::restore_snapshot(&no_carry).unwrap_err();
    assert!(e.message.contains("carryover needs both"), "got: {e}");
    let router_end = first_child
        + engine_lines[first_child..]
            .iter()
            .position(|l| *l == "!end")
            .expect("closed")
        + 1;
    let no_router: String = engine_lines[..first_child]
        .iter()
        .chain(&engine_lines[router_end..])
        .map(|l| format!("{l}\n"))
        .collect();
    let e = Engine::restore_snapshot(&no_router).unwrap_err();
    assert!(e.message.contains("no 'router' section"), "got: {e}");
}

#[test]
fn infeasible_shrink_is_all_or_nothing() {
    // Two unit-window jobs competing for the same slot can coexist only
    // on different shards; shrinking to one shard must be refused and
    // must leave the engine exactly as it was.
    let mut engine = Engine::new(config(4));
    let mut placed: Vec<JobId> = Vec::new();
    for id in 0..64u64 {
        if placed.len() == 2 {
            break;
        }
        let shard = engine.shard_of(JobId(id));
        if placed.iter().all(|&p| engine.shard_of(p) != shard) {
            engine.submit(Request::Insert {
                id: JobId(id),
                window: Window::new(0, 1),
            });
            placed.push(JobId(id));
        }
    }
    assert_eq!(placed.len(), 2, "need two ids on distinct shards");
    let report = engine.flush();
    assert_eq!(report.processed(), 2);

    let placements = engine.placements();
    let text_before = engine.journal().unwrap().to_text();
    match engine.resize(1) {
        Err(ResizeError::Infeasible { .. }) => {}
        other => panic!("expected infeasible shrink, got {other:?}"),
    }
    assert_eq!(engine.epoch(), 0, "failed resize must not bump the epoch");
    assert_eq!(
        engine.placements(),
        placements,
        "failed resize mutated state"
    );
    assert_eq!(
        engine.journal().unwrap().to_text(),
        text_before,
        "failed resize must not journal an epoch record"
    );
    assert_eq!(engine.config().shards, 4);

    // And the engine still serves.
    engine.submit(Request::Delete { id: placed[0] });
    assert_eq!(engine.flush().processed(), 1);
    engine.resize(1).expect("now it fits");
    assert_eq!(engine.config().shards, 1);
    assert!(engine.validate().is_ok());
}

#[test]
fn resize_to_same_size_is_an_epoch_bump_with_no_movement() {
    let mut engine = Engine::new(config(3));
    let seq = elastic_churn(11, 150);
    ingest(&mut engine, seq.requests(), 50);
    let before = active_by_shard_ids(&engine);
    let report = engine.resize(3).unwrap();
    assert_eq!(report.jobs_moved, 0, "same table, same homes");
    assert_eq!(engine.epoch(), 1);
    assert_eq!(active_by_shard_ids(&engine), before);
    assert!(engine.validate().is_ok());
}

#[test]
fn rebalance_isolates_the_whale_tenant() {
    use realloc_engine::TenantId;
    use realloc_workloads::{hotspot, HOTSPOT_WHALE};

    let mut engine = Engine::new(config(2));
    let mut feed = hotspot(3, 5);
    for _ in 0..30 {
        let Some(batch) = feed.next_batch(8) else {
            break;
        };
        for (tenant, request) in batch {
            engine.submit_for(TenantId(tenant), request).unwrap();
        }
        engine.flush();
    }
    // Balanced traffic earlier in life would have been a no-op; by now
    // the whale dominates and rebalance must fire.
    let report = engine
        .rebalance()
        .expect("whale stream fits one shard")
        .expect("dominant tenant must trigger a rebalance");
    assert_eq!(report.from_shards, 2);
    assert_eq!(report.to_shards, 3);
    assert_eq!(engine.epoch(), 1);
    assert_eq!(engine.router().pin_of(HOTSPOT_WHALE as u64), Some(2));
    assert!(engine.validate().is_ok());

    // Isolation is total: the whale's jobs all live on the dedicated
    // shard, and nobody else's do.
    for (id, shard, _) in engine.placements() {
        let tenant = id.0 >> realloc_engine::TENANT_SHIFT;
        if tenant == HOTSPOT_WHALE as u64 {
            assert_eq!(shard, 2, "whale job off its dedicated shard");
        } else {
            assert_ne!(shard, 2, "tenant {tenant} leaked onto the whale shard");
        }
    }

    // A second rebalance is a no-op (the whale is already pinned)…
    assert_eq!(engine.rebalance().unwrap(), None);

    // …serving continues across the pin, and the journal (with its
    // pinned-epoch record) replays to byte-identical placements.
    for _ in 0..10 {
        let Some(batch) = feed.next_batch(8) else {
            break;
        };
        for (tenant, request) in batch {
            engine.submit_for(TenantId(tenant), request).unwrap();
        }
        engine.flush();
    }
    assert!(engine.validate().is_ok());
    let text = engine.journal().unwrap().to_text();
    let replayed = Journal::from_text(&text).unwrap().replay().unwrap();
    assert_eq!(replayed.placements(), engine.placements());
    assert_eq!(replayed.metrics(), engine.metrics());
    let recovered = Engine::recover(text.as_bytes()).unwrap();
    assert_eq!(recovered.router().pin_of(HOTSPOT_WHALE as u64), Some(2));
    assert_eq!(recovered.placements(), engine.placements());
}

fn active_by_shard_ids(engine: &Engine) -> Vec<(usize, JobId)> {
    let mut out: Vec<(usize, JobId)> = engine
        .placements()
        .into_iter()
        .map(|(id, shard, _)| (shard, id))
        .collect();
    out.sort();
    out
}
