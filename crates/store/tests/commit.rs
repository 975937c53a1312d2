//! The staged commit protocol, deterministically. The counting tests
//! are single-threaded on [`FaultIo`], whose mutating-op counter shows
//! exactly which waits touched the disk; the gathering tests run real
//! committer threads against a disk the test holds ([`HeldIo`]: an fsync
//! parks until the test lets it through, and takes as long as the test
//! says on the manual clock the store times everything on — its fsyncs
//! and its gathers' waits — so a gather's cap is seconds of a clock that
//! nothing moves while a leader gathers, and nothing here is decided by
//! how fast a thread runs). The gather policy's own properties are
//! checked as event sequences on virtual time by the store's unit tests.
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
//!   staged commits interleaved from two submitters,
//! * the leader gathers: two closed-loop committers share every fsync
//!   from the second on, where leading at once makes them alternate; a
//!   lone committer never waits; a peer that left costs one timeout and
//!   repeated timeouts back off; an inline `sync` and a checkpoint never
//!   wait, and a checkpoint ends a gather it finds in progress.

use realloc_core::clock::Clock;
use realloc_core::{JobId, Request, Window};
use realloc_engine::{
    BackendKind, CommitLog, CommitTicket, DurabilitySink, Engine, EngineConfig, FlushMode,
};
use realloc_store::{
    run_staged_crash_matrix, segment_file_name, CrashMatrixConfig, CrashMode, DurableStore,
    FaultIo, MemIo, RecoverFromDir, StoreIo,
};
use realloc_telemetry::Telemetry;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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
fn durable_engine<Io: StoreIo + 'static>(
    io: &Arc<Io>,
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

// ----------------------------------------------------------------------
// The gather
// ----------------------------------------------------------------------

/// What a test sees and sets of the held disk.
#[derive(Debug, Default)]
struct Disk {
    /// While set, a `sync_file` parks until it is given a permit.
    held: bool,
    permits: u64,
    /// `sync_file` calls parked right now.
    parked: usize,
    /// `sync_file` calls finished, ever.
    syncs: u64,
    /// Committer threads inside a ticket's wait right now.
    committing: usize,
    /// Committer threads that have finished their rounds.
    done: usize,
}

/// [`MemIo`] whose `sync_file` the test holds and times: it parks while
/// the disk is held, and advances the manual clock the store times its
/// fsyncs on by `sync_takes` — a disk as slow as the test needs, in no
/// real time.
#[derive(Debug)]
struct HeldIo {
    inner: MemIo,
    clock: Clock,
    sync_takes: Duration,
    disk: Mutex<Disk>,
    changed: Condvar,
}

impl HeldIo {
    fn new(clock: &Clock, sync_takes: Duration) -> Arc<HeldIo> {
        Arc::new(HeldIo {
            inner: MemIo::new(),
            clock: clock.clone(),
            sync_takes,
            disk: Mutex::default(),
            changed: Condvar::new(),
        })
    }

    fn set(&self, change: impl FnOnce(&mut Disk)) {
        change(&mut self.disk.lock().unwrap());
        self.changed.notify_all();
    }

    fn read<T>(&self, get: impl FnOnce(&Disk) -> T) -> T {
        get(&self.disk.lock().unwrap())
    }

    /// Blocks until `reached` holds (a minute at most: a hang is a
    /// failure, not a stuck CI job) and returns what it saw.
    fn wait_until<T>(&self, what: &str, reached: impl Fn(&Disk) -> Option<T>) -> T {
        let disk = self.disk.lock().unwrap();
        let (disk, timeout) = self
            .changed
            .wait_timeout_while(disk, Duration::from_secs(60), |d| reached(d).is_none())
            .unwrap();
        assert!(!timeout.timed_out(), "never happened: {what} ({disk:?})");
        reached(&disk).expect("checked under the lock")
    }
}

impl StoreIo for HeldIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list_dir(dir)
    }
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read_file(path)
    }
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.inner.append(path, data)
    }
    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let mut disk = self.disk.lock().unwrap();
        if disk.held {
            disk.parked += 1;
            self.changed.notify_all();
            disk = self.changed.wait_while(disk, |d| d.permits == 0).unwrap();
            disk.permits -= 1;
            disk.parked -= 1;
        }
        drop(disk);
        self.clock.advance(self.sync_takes.as_nanos() as u64);
        self.inner.sync_file(path)?;
        self.set(|d| d.syncs += 1);
        Ok(())
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.sync_dir(dir)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)
    }
}

/// Stages one batch (job `id`) under the engine lock, as a connection
/// handler does.
fn stage(engine: &Mutex<Engine>, id: u64) -> Option<CommitTicket> {
    let mut engine = engine.lock().unwrap();
    submit(&mut engine, id);
    engine.flush_mode(FlushMode::Durable).expect("stage").1
}

fn gathers(telemetry: &Telemetry) -> (u64, u64) {
    (
        telemetry.counter_value("store_gather_hits_total").unwrap(),
        telemetry
            .counter_value("store_gather_timeouts_total")
            .unwrap(),
    )
}

fn chunks_per_sync(telemetry: &Telemetry) -> (u64, u64) {
    let h = telemetry.histogram_snapshot("store_sync_chunks").unwrap();
    (h.count(), h.sum())
}

#[test]
fn two_closed_loop_committers_share_every_fsync_from_the_second_on() {
    const ROUNDS: u64 = 40;
    // Every fsync "takes" 20 s: a gather's cap is 10 s of the manual
    // clock, which nothing moves while a leader gathers, so a gather
    // that ends does so because its peer staged.
    let clock = Clock::manual();
    let telemetry = Telemetry::with_clock(clock.clone(), 16);
    let io = HeldIo::new(&clock, Duration::from_secs(20));
    let (engine, _log) = durable_engine(&io, Path::new("/store"), 2, &telemetry);
    let engine = Arc::new(Mutex::new(engine));
    let syncs_before = io.read(|d| d.syncs);
    io.set(|d| d.held = true);

    // A closed loop: the next batch is staged when the last is durable.
    let committer = |ids: std::ops::Range<u64>| {
        let (engine, io) = (Arc::clone(&engine), Arc::clone(&io));
        std::thread::spawn(move || {
            for id in ids {
                let ticket = stage(&engine, id);
                io.set(|d| d.committing += 1);
                if let Some(ticket) = ticket {
                    ticket.wait().expect("durable");
                }
                io.set(|d| d.committing -= 1);
            }
            io.set(|d| d.done += 1);
        })
    };
    // A goes first and alone; B (one round fewer, so nobody is left
    // gathering for a peer that has gone home) starts during A's first
    // fsync. From there the disk finishes an fsync only once both
    // committers wait on it — the phase lock, forced: leading at once, B
    // leads the moment A's fsync returns, A's next batch arrives during
    // B's fsync, and so on, one batch per fsync.
    let a = committer(0..ROUNDS);
    io.wait_until("A's first fsync parks", |d| (d.parked == 1).then_some(()));
    let b = committer(ROUNDS..2 * ROUNDS - 1);
    loop {
        let finished = io.wait_until("both wait on one fsync, or both are done", |d| {
            (d.done == 2 || (d.parked == 1 && d.committing == 2)).then_some(d.done == 2)
        });
        if finished {
            break;
        }
        let syncs = io.read(|d| d.syncs);
        io.set(|d| d.permits += 1);
        io.wait_until("the fsync finishes", |d| (d.syncs > syncs).then_some(()));
    }
    a.join().unwrap();
    b.join().unwrap();

    // A's first batch alone, then a pair per fsync (2·ROUNDS − 1 fsyncs
    // leading at once).
    let syncs = io.read(|d| d.syncs) - syncs_before;
    assert_eq!(syncs, ROUNDS, "one fsync per round, not per batch");
    assert_eq!(chunks_per_sync(&telemetry), (ROUNDS, 2 * ROUNDS - 1));
    assert_eq!(gathers(&telemetry).1, 0, "no gather ran into its cap");
    assert_eq!(engine.lock().unwrap().durability_error(), None);
}

#[test]
fn a_lone_committer_never_waits() {
    let io = Arc::new(FaultIo::new());
    let telemetry = Telemetry::new();
    let (engine, log) = durable_engine(&io, Path::new("/store"), 2, &telemetry);
    let engine = Mutex::new(engine);
    for id in 0..200 {
        let before = io.ops();
        stage(&engine, id)
            .expect("pending")
            .wait()
            .expect("durable");
        assert_eq!(io.ops() - before, 2, "one append, one fsync");
    }
    assert_eq!(log.pending(), None);
    assert_eq!(gathers(&telemetry), (0, 0), "depth 1 expects nobody");
    assert_eq!(chunks_per_sync(&telemetry), (200, 200));
}

/// Two batches under one fsync — the store now expects two committers —
/// and then one alone. Returns whether that lone commit gathered.
fn a_pair_then_a_loner(engine: &Mutex<Engine>, telemetry: &Telemetry, id: u64) -> bool {
    let first = stage(engine, id).expect("pending");
    stage(engine, id + 1)
        .expect("pending")
        .wait()
        .expect("durable");
    first.wait().expect("covered");
    let before = gathers(telemetry);
    stage(engine, id + 2)
        .expect("pending")
        .wait()
        .expect("durable");
    let after = gathers(telemetry);
    assert_eq!(after.0, before.0, "nobody is there to be gathered");
    after.1 > before.1
}

#[test]
fn a_peer_that_left_costs_one_timeout_and_repeated_timeouts_back_off() {
    // The in-memory disk syncs in no time, so a gather's cap is nothing
    // and a timeout costs nothing: what is counted is who waited at all.
    let io = Arc::new(FaultIo::new());
    let telemetry = Telemetry::new();
    let (engine, _log) = durable_engine(&io, Path::new("/store"), 2, &telemetry);
    let engine = Mutex::new(engine);
    let mut ids = (0..).step_by(3);
    let mut next = || a_pair_then_a_loner(&engine, &telemetry, ids.next().unwrap());

    assert!(next(), "the peer is expected once, in vain");
    for id in 1_000..1_010 {
        let before = gathers(&telemetry);
        stage(&engine, id)
            .expect("pending")
            .wait()
            .expect("durable");
        assert_eq!(gathers(&telemetry), before, "and not again");
    }
    // Timeouts in a row: the next 1, 2, 4 … gathers are skipped.
    let waited: Vec<bool> = (0..15).map(|_| next()).collect();
    let expected = [
        false, true, // one skipped
        false, false, true, // two
        false, false, false, false, true, // four
        false, false, false, false, false,
    ];
    assert_eq!(waited, expected);
    assert_eq!(gathers(&telemetry), (0, 4));
}

#[test]
fn an_fsync_that_fails_after_a_gather_fails_what_it_left_uncovered_and_sticks() {
    let io = Arc::new(FaultIo::new());
    let telemetry = Telemetry::new();
    let (engine, log) = durable_engine(&io, Path::new("/store"), 2, &telemetry);
    let engine = Mutex::new(engine);
    // Two batches under one fsync: the next leader gathers.
    let a = stage(&engine, 1).expect("pending");
    let covered = a.upto();
    stage(&engine, 2).expect("pending").wait().expect("durable");
    a.wait().expect("covered");

    let b = stage(&engine, 3).expect("pending");
    // Store creation fsynced twice (file + dir), the pair once.
    io.fail_fsync_at(2 + 1 + 1);
    let err = b.wait().expect_err("the fsync after the gather fails");
    assert!(err.contains("injected fsync failure"), "{err}");
    assert_eq!(gathers(&telemetry), (0, 1), "it did gather first");

    let c = stage(&engine, 4).expect("appends are not gated");
    let before = io.ops();
    assert_eq!(c.wait().expect_err("left uncovered"), err);
    log.commit(covered)
        .expect("covered before the failure: still durable");
    assert_eq!(
        io.ops(),
        before,
        "no retry, and no gather, reaches the disk"
    );
    assert_eq!(gathers(&telemetry), (0, 1), "a failed store never gathers");
}

#[test]
fn an_inline_sync_never_gathers() {
    let io = Arc::new(FaultIo::new());
    let telemetry = Telemetry::new();
    let (engine, log) = durable_engine(&io, Path::new("/store"), 2, &telemetry);
    let engine = Mutex::new(engine);
    let a = stage(&engine, 1).expect("pending");
    stage(&engine, 2).expect("pending").wait().expect("durable");
    a.wait().expect("covered");

    // One batch pending where two are expected: a ticket's wait would
    // gather. `sync` is called with the engine held — it must not.
    let _unwaited = stage(&engine, 3).expect("pending");
    let mut engine = engine.into_inner().unwrap();
    let mut sink = engine.detach_durability().expect("attached");
    let before = io.ops();
    sink.sync().expect("synced");
    assert_eq!(io.ops() - before, 1, "the fsync");
    assert_eq!(log.pending(), None);
    assert_eq!(gathers(&telemetry), (0, 0));
}

#[test]
fn a_checkpoint_does_not_wait_out_a_gather() {
    // Every fsync "takes" 40 s: a gather that is not cut short waits
    // until the manual clock passes its 20 s cap, which nothing here
    // moves, and then counts a timeout.
    let clock = Clock::manual();
    let telemetry = Telemetry::with_clock(clock.clone(), 16);
    let io = HeldIo::new(&clock, Duration::from_secs(40));
    // Retention 0: the checkpoint unlinks the segment the ticket was
    // taken in.
    let dir = PathBuf::from("/store");
    let (engine, log) = durable_engine(&io, &dir, 0, &telemetry);
    let engine = Mutex::new(engine);
    let a = stage(&engine, 1).expect("pending");
    stage(&engine, 2).expect("pending").wait().expect("durable");
    a.wait().expect("covered");

    let ticket = stage(&engine, 3).expect("pending");
    let started = Instant::now();
    std::thread::scope(|threads| {
        let (waiting, told) = std::sync::mpsc::channel();
        let leader = threads.spawn(move || {
            waiting.send(()).unwrap();
            ticket.wait()
        });
        told.recv().unwrap();
        // Whichever gets the gate first: the leader gathers and the
        // checkpoint ends the gather, or the seal covers the ticket.
        let mut engine = engine.lock().unwrap();
        assert!(engine.checkpoint());
        assert_eq!(engine.durability_error(), None);
        drop(engine);
        leader
            .join()
            .unwrap()
            .expect("settled by its own fsync or by the seal");
    });
    assert!(started.elapsed() < Duration::from_secs(10));
    assert_eq!(gathers(&telemetry), (0, 0), "nobody sat out a cap");
    assert_eq!(log.pending(), None);
    assert_eq!(
        io.inner.file_len(&dir.join(segment_file_name(0))),
        None,
        "segment 0 is gone, and nobody fsynced it after the roll"
    );
}
