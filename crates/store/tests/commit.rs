//! The staged commit protocol, deterministically: every test is
//! single-threaded on [`FaultIo`], whose mutating-op counter shows
//! exactly which waits touched the disk.
//!
//! * one fsync covers every batch staged before it began — the leader
//!   pays, the follower finds its ticket covered,
//! * a ticket taken before a segment roll is settled by the
//!   checkpoint's seal and never fsyncs the sealed (here: unlinked)
//!   file,
//! * a failed fsync is sticky in the store itself: every ticket it left
//!   uncovered fails, no ticket covered before it does, and later
//!   commits and checkpoints are refused without touching the disk,
//! * the kill-at-any-point matrix holds when acknowledgements come from
//!   staged commits interleaved from two submitters.

use realloc_core::{JobId, Request, Window};
use realloc_engine::{BackendKind, CommitLog, DurabilitySink, Engine, EngineConfig, FlushMode};
use realloc_store::{
    run_staged_crash_matrix, segment_file_name, CrashMatrixConfig, CrashMode, DurableStore,
    FaultIo, RecoverFromDir, StoreIo,
};
use realloc_telemetry::Telemetry;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn config(retained_segments: usize) -> EngineConfig {
    EngineConfig {
        shards: 2,
        machines_per_shard: 2,
        backend: BackendKind::TheoremOne { gamma: 8 },
        parallel: false,
        journal: true,
        retained_segments,
    }
}

/// An engine over a fresh store on `io`, plus the store's commit log.
fn durable_engine(
    io: &Arc<FaultIo>,
    dir: &Path,
    retained_segments: usize,
    telemetry: &Telemetry,
) -> (Engine, Arc<dyn CommitLog>) {
    let mut engine = Engine::new(config(retained_segments));
    let mut store = DurableStore::create(
        Arc::clone(io) as Arc<dyn StoreIo>,
        dir,
        engine.journal().expect("journaled").config(),
    )
    .expect("create");
    store.attach_telemetry(telemetry);
    let log = store
        .commit_log()
        .expect("the store shares its commit state");
    engine.attach_durability(Box::new(store)).expect("attach");
    (engine, log)
}

fn submit(engine: &mut Engine, id: u64) {
    engine.submit(Request::Insert {
        id: JobId(id),
        window: Window::new(id % 30, id % 30 + 2),
    });
}

#[test]
fn one_fsync_covers_both_staged_batches_and_the_follower_does_no_io() {
    let io = Arc::new(FaultIo::new());
    let dir = PathBuf::from("/store");
    let telemetry = Telemetry::new();
    let (mut engine, log) = durable_engine(&io, &dir, 2, &telemetry);

    submit(&mut engine, 1);
    let (_, a) = engine.flush_mode(FlushMode::Durable).expect("stage A");
    submit(&mut engine, 2);
    let (_, b) = engine.flush_mode(FlushMode::Durable).expect("stage B");
    let (a, b) = (a.expect("A is pending"), b.expect("B is pending"));
    assert!(a.upto() < b.upto(), "tickets are ordered");

    let before = io.ops();
    b.wait().expect("B leads");
    assert_eq!(io.ops() - before, 1, "exactly one mutating op: the fsync");
    assert_eq!(log.pending(), None, "both batches are stable");
    a.wait().expect("A is covered");
    assert_eq!(io.ops() - before, 1, "the follower touched nothing");
    assert_eq!(
        telemetry.counter_value("store_commits_covered_total"),
        Some(1)
    );
    let fsyncs = telemetry
        .histogram_snapshot("store_fsync_nanos")
        .expect("registered");
    assert_eq!(fsyncs.count(), 1, "one sample per real fsync");

    // Power loss right now keeps both.
    let live = engine.state_digest();
    io.inner().crash(CrashMode::SyncedOnly);
    let recovered = Engine::recover_from_store(&*io, &dir).expect("recovery");
    assert_eq!(recovered.state_digest(), live);
}

#[test]
fn a_ticket_from_before_the_roll_is_settled_by_the_seal() {
    let io = Arc::new(FaultIo::new());
    let dir = PathBuf::from("/store");
    // Retention 0: the checkpoint unlinks the segment the ticket was
    // taken in.
    let (mut engine, _log) = durable_engine(&io, &dir, 0, &Telemetry::new());
    submit(&mut engine, 1);
    let (_, ticket) = engine.flush_mode(FlushMode::Durable).expect("stage");
    let ticket = ticket.expect("pending");

    assert!(engine.checkpoint());
    assert_eq!(engine.durability_error(), None);
    assert_eq!(
        io.inner().file_len(&dir.join(segment_file_name(0))),
        None,
        "segment 0 is gone"
    );

    let before = io.ops();
    ticket.wait().expect("the seal covered it");
    assert_eq!(io.ops(), before, "no fsync of a sealed, unlinked file");

    // And the store keeps going in the new segment.
    submit(&mut engine, 2);
    engine
        .flush_durable()
        .expect("durable flush after the roll");
    assert_eq!(io.ops() - before, 2, "one append, one fsync");
}

#[test]
fn a_failed_fsync_is_sticky_in_the_store_and_spares_what_was_covered() {
    let io = Arc::new(FaultIo::new());
    let dir = PathBuf::from("/store");
    let (mut engine, log) = durable_engine(&io, &dir, 2, &Telemetry::new());

    submit(&mut engine, 1);
    let (_, a) = engine.flush_mode(FlushMode::Durable).expect("stage A");
    let a = a.expect("pending");
    let covered = a.upto();
    a.wait().expect("A is durable");
    let acked = engine.state_digest();

    submit(&mut engine, 2);
    let (_, b) = engine.flush_mode(FlushMode::Durable).expect("stage B");
    submit(&mut engine, 3);
    let (_, c) = engine.flush_mode(FlushMode::Durable).expect("stage C");
    // Store creation fsynced twice (file + dir), A's commit once.
    io.fail_fsync_at(2 + 1 + 1);
    let err = c.expect("pending").wait().expect_err("the fsync fails");
    assert!(err.contains("injected fsync failure"), "{err}");

    let before = io.ops();
    let again = b.expect("pending").wait().expect_err("B was not covered");
    assert_eq!(again, err, "the first failure, verbatim");
    log.commit(covered)
        .expect("covered before the failure: still durable");
    assert_eq!(io.ops(), before, "no retry ever reaches the disk");

    // The engine learns of an off-lock failure from its caller.
    assert_eq!(engine.durability_error(), None);
    engine.note_durability_failure(err.clone());
    assert_eq!(engine.durability_error(), Some(err.as_str()));
    assert_eq!(engine.flush_durable().expect_err("sticky"), err);

    // The store refuses on its own, too — not only behind the engine's
    // error: a second sync must not retry the fsync and report `Ok`
    // for pages the kernel may have dropped, nor may a checkpoint seal
    // over them.
    assert!(engine.checkpoint(), "the in-memory journal still cuts one");
    let mut sink = engine.detach_durability().expect("attached");
    assert_eq!(sink.sync().expect_err("refused"), err);
    let cp = engine
        .journal()
        .and_then(|j| j.latest_checkpoint())
        .expect("cut above");
    assert_eq!(sink.checkpoint(cp).expect_err("refused"), err);
    assert_eq!(io.ops(), before, "refusals touch nothing");

    // Power loss: exactly the acknowledged prefix comes back, and a
    // fresh store over the directory accepts durable writes again.
    io.inner().crash(CrashMode::SyncedOnly);
    let mut recovered = Engine::recover_from_store(&*io, &dir).expect("recovery");
    assert_eq!(recovered.state_digest(), acked);
    let (store, _) = DurableStore::open(Arc::clone(&io) as Arc<dyn StoreIo>, &dir).expect("open");
    recovered
        .attach_durability(Box::new(store))
        .expect("attach");
    submit(&mut recovered, 4);
    recovered.flush_durable().expect("a fresh store commits");
}

#[test]
fn a_failed_checkpoint_is_sticky_too() {
    let io = Arc::new(FaultIo::new());
    let dir = PathBuf::from("/store");
    let (mut engine, log) = durable_engine(&io, &dir, 2, &Telemetry::new());
    submit(&mut engine, 1);
    engine.flush_durable().expect("durable");
    let batch = engine.journal().expect("journaled").tail_events().to_vec();
    // Creation 2, the flush 1; the checkpoint's first fsync (its temp
    // file) is #4.
    io.fail_fsync_at(2 + 1 + 1);
    assert!(engine.checkpoint());
    let err = engine
        .durability_error()
        .expect("checkpoint failed")
        .to_string();
    assert!(err.contains("injected fsync failure"), "{err}");

    let mut sink = engine.detach_durability().expect("attached");
    sink.append_batch(&batch).expect("appends are not gated");
    let before = io.ops();
    let ticket = log.pending().expect("one chunk pending");
    assert_eq!(log.commit(ticket).expect_err("refused"), err);
    assert_eq!(sink.sync().expect_err("refused"), err);
    assert_eq!(io.ops(), before);
}

#[test]
fn staged_matrix_every_crash_point_every_mode() {
    let report =
        run_staged_crash_matrix(&CrashMatrixConfig::default()).expect("staged crash matrix holds");
    assert_eq!(
        report.runs,
        3 * report.crash_points,
        "all points, all modes"
    );
    assert_eq!(report.recovered + report.graceful_errors, report.runs);
    assert!(report.torn_tails_truncated > 0, "no torn tails exercised");
    assert!(
        report.segments_materialized > 0,
        "no orphan checkpoints exercised"
    );
    assert!(report.recovered > report.graceful_errors);
}
