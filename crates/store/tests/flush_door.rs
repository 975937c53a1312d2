//! The flush door × durability seam.
//!
//! A submitted request has produced no journal events until a flush
//! services it, so nothing is owed to the sink — but the moment a flush
//! or a `checkpoint()` lands, every request accepted before it must be
//! serviced, journaled, teed, and recoverable, and the on-disk stream
//! must stay byte-identical to the in-memory journal whichever mode the
//! door was opened in.

use realloc_core::{JobId, Request, Window};
use realloc_engine::{BackendKind, Engine, EngineConfig, FlushMode};
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

/// A journaled engine with an attached MemIo-backed durable store.
fn durable_engine() -> (Engine, Arc<MemIo>, PathBuf) {
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
    (engine, io, dir)
}

fn insert(id: u64) -> Request {
    let start = (id * 7) % 40;
    Request::Insert {
        id: JobId(id),
        window: Window::new(start, start + 2 + id % 3),
    }
}

/// `checkpoint()` over a non-empty queue services it first — a
/// snapshot may never silently drop accepted-but-unserviced requests —
/// and full recovery from the store reproduces the live state.
#[test]
fn checkpoint_services_a_queued_batch_first_and_recovers() {
    let (mut engine, io, dir) = durable_engine();

    // An established prefix so the checkpoint is mid-stream.
    for id in 1..=4 {
        engine.submit(insert(id));
    }
    engine.flush_durable().expect("prefix flush");

    // Queue a follow-up batch, then checkpoint without flushing it.
    for id in 5..=7 {
        engine.submit(insert(id));
    }
    assert!(engine.checkpoint(), "checkpoint proceeds");
    assert!(engine.durability_error().is_none(), "tee healthy");
    assert_eq!(
        engine.active_count(),
        7,
        "the checkpoint serviced the queued batch"
    );

    let recovered = Engine::recover_from_store(io.as_ref(), &dir).expect("recovery");
    assert_eq!(recovered.state_digest(), engine.state_digest());
    assert_eq!(recovered.active_count(), 7);
    recovered.validate().expect("recovered engine valid");
}

/// The door drives the same seam in both modes: `Durable` stages the
/// batch behind a ticket, `Immediate` services without syncing.
#[test]
fn durable_stages_behind_a_ticket_and_immediate_does_not_sync() {
    let (mut engine, io, dir) = durable_engine();

    engine.submit(insert(1));
    engine.submit(insert(2));
    let (report, ticket) = engine.flush_mode(FlushMode::Durable).expect("durable");
    assert_eq!(report.processed(), 2);
    ticket
        .expect("the store hands out a commit log")
        .wait()
        .expect("commit");

    engine.submit(insert(3));
    let (report, ticket) = engine.flush_mode(FlushMode::Immediate).expect("infallible");
    assert_eq!(report.processed(), 1);
    assert!(ticket.is_none());

    // Immediate mode does not sync — close the stream with a barrier
    // before comparing bytes.
    engine.flush_durable().expect("sync");
    let mem = engine.journal().expect("journaled").to_text();
    let disk = recover_journal_text(io.as_ref(), &dir).expect("readable store");
    assert_eq!(mem, disk);
}
