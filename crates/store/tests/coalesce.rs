//! The coalescing × durability seam.
//!
//! Flush coalescing defers *servicing*, not durability: a deferred
//! batch has produced no journal events yet, so nothing is owed to the
//! sink — but the moment a `checkpoint()` or `flush_durable()` barrier
//! lands, every request accepted before the barrier must be serviced,
//! journaled, teed, and recoverable. These are regression tests for the
//! seam: no event may fall between a deferral and the next durable
//! barrier, and the on-disk stream must stay byte-identical to the
//! in-memory journal.

use realloc_core::{JobId, Request, Window};
use realloc_engine::{BackendKind, BatchReport, CoalesceConfig, Engine, EngineConfig, FlushMode};
use realloc_store::{recover_journal_text, DurableStore, MemIo, RecoverFromDir, StoreIo};
use std::path::PathBuf;
use std::sync::Arc;

fn config() -> EngineConfig {
    EngineConfig {
        shards: 2,
        machines_per_shard: 2,
        backend: BackendKind::TheoremOne { gamma: 8 },
        parallel: false,
        journal: true,
        retained_segments: 4,
    }
}

/// A journaled engine with an attached MemIo-backed durable store and a
/// coalescing policy that defers anything under `min_batch` requests.
fn coalescing_engine(min_batch: usize, max_defer: u32) -> (Engine, Arc<MemIo>, PathBuf) {
    let io = Arc::new(MemIo::new());
    let dir = PathBuf::from("/store");
    let mut engine = Engine::new(config());
    let store = DurableStore::create(
        Arc::clone(&io) as Arc<dyn StoreIo>,
        &dir,
        engine.journal().expect("journaled").config(),
    )
    .expect("create store");
    engine.attach_durability(Box::new(store)).expect("attach");
    engine.set_flush_coalescing(Some(CoalesceConfig {
        min_batch,
        max_defer,
    }));
    (engine, io, dir)
}

/// One coalescing tick: `None` when the policy deferred it.
fn coalesced_tick(engine: &mut Engine) -> Option<BatchReport> {
    let (report, ticket) = engine
        .flush_mode(FlushMode::Coalesced)
        .expect("only durable flushes fail");
    assert!(ticket.is_none(), "only durable flushes stage a commit");
    report
}

fn insert(id: u64) -> Request {
    let start = (id * 7) % 40;
    Request::Insert {
        id: JobId(id),
        window: Window::new(start, start + 2 + id % 3),
    }
}

/// Requests deferred by a coalesced flush then group-committed by
/// `flush_durable` all land: the report covers every accepted request,
/// and the recovered on-disk journal is byte-identical to memory.
#[test]
fn deferred_batch_then_flush_durable_loses_nothing() {
    let (mut engine, io, dir) = coalescing_engine(64, 10);

    for id in 1..=5 {
        engine.submit(insert(id));
    }
    assert!(
        coalesced_tick(&mut engine).is_none(),
        "5 < min_batch 64 must defer"
    );
    assert_eq!(engine.queued(), 5, "deferred requests stay queued");
    assert_eq!(engine.active_count(), 0, "nothing serviced yet");

    // The durability barrier must pick up the whole deferred batch.
    let report = engine.flush_durable().expect("durable flush");
    assert_eq!(report.processed(), 5);
    assert!(report.failures.is_empty());
    assert_eq!(engine.active_count(), 5);
    assert_eq!(engine.queued(), 0);

    let mem = engine.journal().expect("journaled").to_text();
    let disk = recover_journal_text(io.as_ref(), &dir).expect("readable store");
    assert_eq!(mem, disk, "journal/disk byte parity after the barrier");
}

/// `checkpoint()` after a deferral services the deferred batch first —
/// a snapshot may never silently drop accepted-but-unserviced requests
/// — and full recovery from the store reproduces the live state.
#[test]
fn deferred_batch_then_checkpoint_services_first_and_recovers() {
    let (mut engine, io, dir) = coalescing_engine(64, 10);

    // An established prefix so the checkpoint is mid-stream.
    for id in 1..=4 {
        engine.submit(insert(id));
    }
    engine.flush_durable().expect("prefix flush");

    // Defer a follow-up batch, then checkpoint across the deferral.
    for id in 5..=7 {
        engine.submit(insert(id));
    }
    assert!(coalesced_tick(&mut engine).is_none(), "3 < 64 defers");
    assert!(engine.checkpoint(), "checkpoint proceeds");
    assert!(engine.durability_error().is_none(), "tee healthy");
    assert_eq!(
        engine.active_count(),
        7,
        "the checkpoint serviced the deferred batch"
    );

    let recovered = Engine::recover_from_store(io.as_ref(), &dir).expect("recovery");
    assert_eq!(recovered.state_digest(), engine.state_digest());
    assert_eq!(recovered.active_count(), 7);
    recovered.validate().expect("recovered engine valid");
}

/// The deferral counter does not leak across a barrier: after a
/// barrier consumed the queue, the policy starts fresh — `max_defer`
/// deferrals are again available before a forced flush, and the
/// post-barrier stream keeps parity.
#[test]
fn barrier_resets_the_deferral_budget_and_parity_holds() {
    let (mut engine, io, dir) = coalescing_engine(4, 2);

    // Burn one deferral, then barrier.
    engine.submit(insert(1));
    assert!(coalesced_tick(&mut engine).is_none(), "first deferral");
    engine.flush_durable().expect("barrier");

    // A fresh trickle gets the full budget again: two deferrals, then
    // the third coalesced flush is forced by max_defer.
    engine.submit(insert(2));
    assert!(
        coalesced_tick(&mut engine).is_none(),
        "budget reset: defer 1"
    );
    engine.submit(insert(3));
    assert!(
        coalesced_tick(&mut engine).is_none(),
        "budget reset: defer 2"
    );
    engine.submit(insert(4));
    let report = coalesced_tick(&mut engine).expect("max_defer forces the flush");
    assert_eq!(report.processed(), 3);

    // Coalesced output is teed like any flush; sync and compare.
    engine.flush_durable().expect("sync");
    let mem = engine.journal().expect("journaled").to_text();
    let disk = recover_journal_text(io.as_ref(), &dir).expect("readable store");
    assert_eq!(mem, disk);
}

/// The door drives the same seam in every mode: `Coalesced` defers,
/// `Durable` stages the deferred batch behind a ticket, `Immediate`
/// services without syncing.
#[test]
fn flush_batch_modes_cover_the_seam() {
    let (mut engine, io, dir) = coalescing_engine(64, 10);

    engine.submit(insert(1));
    engine.submit(insert(2));
    assert!(
        coalesced_tick(&mut engine).is_none(),
        "Coalesced defers under min_batch"
    );

    let (report, ticket) = engine.flush_mode(FlushMode::Durable).expect("durable");
    assert_eq!(report.expect("a durable flush reports").processed(), 2);
    ticket
        .expect("the store hands out a commit log")
        .wait()
        .expect("commit");

    engine.submit(insert(3));
    let (report, ticket) = engine.flush_mode(FlushMode::Immediate).expect("infallible");
    assert_eq!(report.expect("an immediate flush reports").processed(), 1);
    assert!(ticket.is_none());

    // Immediate mode does not sync — close the stream with a barrier
    // before comparing bytes.
    engine.flush_durable().expect("sync");
    let mem = engine.journal().expect("journaled").to_text();
    let disk = recover_journal_text(io.as_ref(), &dir).expect("readable store");
    assert_eq!(mem, disk);
}
