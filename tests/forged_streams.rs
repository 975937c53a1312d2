//! One corpus of forged recorded streams through every entrance that
//! re-executes a recording: the journal (`Journal::recover_engine`, and
//! `Engine::recover` over its text), a replica fed the same records as
//! frames, and crash recovery from a store directory holding them. They
//! all fold one walk through one verified re-execution
//! (`Engine::apply_recorded_batch`), so they must agree on every stream —
//! accepted (to the same state), refused as corrupt, or diverged — and
//! none may panic.

use realloc_sched::engine::{Checkpoint, JournalEvent};
use realloc_sched::store::StoreError;
use realloc_sched::{
    ApplyError, BackendKind, DurabilitySink, DurableStore, Engine, EngineConfig, EpochRecord,
    Frame, JobId, Journal, MemIo, Payload, RecoverError, RecoverFromDir, ReplayError, Replica,
    Request, Restorable, StoreIo, Window,
};
use std::path::Path;
use std::sync::Arc;

/// One record of a recorded stream, as any of the entrances may be
/// handed it.
#[derive(Clone, Debug)]
enum Rec {
    /// One flush.
    Batch(Vec<JournalEvent>),
    Epoch(EpochRecord),
    /// A checkpoint cut here: the engine's snapshot and flush counter.
    Checkpoint {
        batches: u64,
        snapshot: String,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    /// Re-executed to a state with this digest.
    Accepted(u64),
    Corrupt,
    Diverged,
}

impl From<ReplayError> for Verdict {
    fn from(e: ReplayError) -> Verdict {
        match e {
            ReplayError::Corrupt(_) => Verdict::Corrupt,
            ReplayError::Divergence(_) => Verdict::Diverged,
        }
    }
}

fn config() -> EngineConfig {
    EngineConfig {
        shards: 2,
        machines_per_shard: 1,
        backend: BackendKind::TheoremOne { gamma: 8 },
        parallel: false,
        journal: true,
        retained_segments: 8,
    }
}

/// The honest recording every forgery starts from: batches 0 and 1, a
/// checkpoint, batch 2, a resize, batches 3 and 4 — so everything past
/// index 2 is the tail a recovery re-executes. Returns the records and
/// the digest of the engine that recorded them.
fn honest() -> (Vec<Rec>, u64) {
    let mut engine = Engine::new(config());
    let mut recs = Vec::new();
    let mut next_id = 0u64;
    for step in 0..5 {
        for _ in 0..8 {
            engine.submit(Request::Insert {
                id: JobId(next_id),
                window: Window::new(0, 1 << 10),
            });
            next_id += 1;
        }
        if step > 0 {
            engine.submit(Request::Delete {
                id: JobId(next_id - 12),
            });
        }
        let report = engine.flush();
        assert_eq!(report.failed(), 0);
        let tail = engine.journal().unwrap().tail_events();
        recs.push(Rec::Batch(tail[tail.len() - report.processed()..].to_vec()));
        if step == 1 {
            assert!(engine.checkpoint());
            recs.push(Rec::Checkpoint {
                batches: engine.batches(),
                snapshot: engine.snapshot_text(),
            });
        }
        if step == 2 {
            engine.resize(3).unwrap();
            recs.push(Rec::Epoch(EpochRecord::of(engine.router())));
        }
    }
    assert!(matches!(
        recs[..],
        [
            Rec::Batch(_),
            Rec::Batch(_),
            Rec::Checkpoint { .. },
            Rec::Batch(_),
            Rec::Epoch(_),
            Rec::Batch(_),
            Rec::Batch(_)
        ]
    ));
    (recs, engine.state_digest())
}

/// Batch `at`, cut in two.
fn halves(recs: &[Rec], at: usize) -> (Rec, Rec) {
    let events = batch(recs, at);
    let (a, b) = events.split_at(events.len() / 2);
    (Rec::Batch(a.to_vec()), Rec::Batch(b.to_vec()))
}

fn batch(recs: &[Rec], at: usize) -> Vec<JournalEvent> {
    match &recs[at] {
        Rec::Batch(events) => events.clone(),
        other => panic!("record {at} is not a batch: {other:?}"),
    }
}

/// The journal entrance, twice: the records appended to a `Journal` and
/// recovered as they stand, and the same journal through its text.
fn via_journal(recs: &[Rec]) -> Verdict {
    let mut journal = Journal::new(config());
    for rec in recs {
        match rec {
            Rec::Batch(events) => events.iter().for_each(|e| journal.append(*e)),
            Rec::Epoch(record) => journal.append_epoch(record.clone()),
            Rec::Checkpoint { batches, snapshot } => journal.checkpoint(snapshot.clone(), *batches),
        }
    }
    let text = journal.to_text();
    let direct = match journal.recover_engine() {
        Ok(engine) => Verdict::Accepted(engine.state_digest()),
        Err(e) => e.into(),
    };
    let through_text = match Engine::recover(text.as_bytes()) {
        Ok(engine) => Verdict::Accepted(engine.state_digest()),
        Err(RecoverError::Journal(_)) => Verdict::Corrupt,
        Err(RecoverError::Replay(e)) => e.into(),
        Err(RecoverError::Io(e)) => panic!("reading a byte slice failed: {e}"),
    };
    assert_eq!(direct, through_text, "a journal and its own text disagree");
    direct
}

/// The replica entrance: a genesis bootstrap, then each record as the
/// frame that ships it (a checkpoint re-anchors, as a snapshot frame).
fn via_replica(recs: &[Rec]) -> Verdict {
    let mut replica = Replica::new();
    let mut events_applied = 0u64;
    let mut seq = 0u64;
    let genesis = Payload::Snapshot {
        events_applied,
        text: Engine::new(config()).snapshot_text(),
    };
    let payloads = recs.iter().map(|rec| match rec {
        Rec::Batch(events) => {
            events_applied += events.len() as u64;
            Payload::Events(events.clone())
        }
        Rec::Epoch(record) => Payload::Epoch(record.clone()),
        Rec::Checkpoint { snapshot, .. } => Payload::Snapshot {
            events_applied,
            text: snapshot.clone(),
        },
    });
    for payload in std::iter::once(genesis).chain(payloads) {
        // A snapshot's sequence number is the position it re-anchors at.
        if !matches!(payload, Payload::Snapshot { .. }) {
            seq += 1;
        }
        let frame = Frame {
            term: 1,
            seq,
            payload,
            trace: None,
        };
        match replica.apply(&frame) {
            Ok(()) => {}
            Err(ApplyError::Corrupt(_)) => return Verdict::Corrupt,
            Err(ApplyError::Diverged(_)) => return Verdict::Diverged,
            Err(other) => panic!("the stream itself was well-formed: {other}"),
        }
    }
    Verdict::Accepted(replica.state_digest().expect("bootstrapped"))
}

/// The store entrance: the records teed into a store directory the way
/// an engine's flushes, resizes and checkpoints are, then crash recovery
/// over what is on "disk".
fn via_store(recs: &[Rec]) -> Verdict {
    let io = Arc::new(MemIo::new());
    let dir = Path::new("/store");
    let mut store =
        DurableStore::create(Arc::clone(&io) as Arc<dyn StoreIo>, dir, &config()).expect("create");
    let mut events_before = 0u64;
    for rec in recs {
        match rec {
            Rec::Batch(events) => {
                // A chunk is one flush; what claims two flush numbers
                // reaches the disk as two.
                for run in events.chunk_by(|a, b| a.batch == b.batch) {
                    store.append_batch(run).expect("append");
                }
                events_before += events.len() as u64;
            }
            Rec::Epoch(record) => store.append_epoch(record).expect("append"),
            Rec::Checkpoint { batches, snapshot } => store
                .checkpoint(&Checkpoint {
                    batches: *batches,
                    events_before,
                    snapshot: snapshot.clone(),
                })
                .expect("checkpoint"),
        }
    }
    store.sync().expect("sync");
    match Engine::recover_from_store(&*io, dir) {
        Ok(engine) => Verdict::Accepted(engine.state_digest()),
        Err(StoreError::Journal(_) | StoreError::Corrupt { .. }) => Verdict::Corrupt,
        Err(StoreError::Replay(e)) => e.into(),
        Err(other) => panic!("the directory itself was well-formed: {other}"),
    }
}

#[test]
fn every_entrance_gives_a_forged_stream_the_same_verdict() {
    let (honest, digest) = honest();

    // b 0, b 1, checkpoint, b 9, b 3, b 4: the flush counter goes back.
    let mut regressing = honest.clone();
    let mut renumbered = batch(&honest, 3);
    renumbered.iter_mut().for_each(|e| e.batch = 9);
    regressing[3] = Rec::Batch(renumbered);

    // Batch 3 with the events of batch 2 spliced in behind its own.
    let mut mixed = honest.clone();
    mixed[5] = Rec::Batch([batch(&honest, 5), batch(&honest, 3)].concat());

    // Batch 1 on both sides of the checkpoint that followed it.
    let (before, after) = halves(&honest, 1);
    let mut split_by_checkpoint = honest.clone();
    split_by_checkpoint[1] = before;
    split_by_checkpoint.insert(3, after);

    // Batch 2 on both sides of the resize that followed it.
    let (before, after) = halves(&honest, 3);
    let mut epoch_inside_batch = honest.clone();
    epoch_inside_batch[3] = before;
    epoch_inside_batch.insert(5, after);

    // The checkpoint's snapshot, cut off two thirds in.
    let mut truncated_snapshot = honest.clone();
    let Rec::Checkpoint { snapshot, .. } = &mut truncated_snapshot[2] else {
        panic!("record 2 is the checkpoint");
    };
    snapshot.truncate(snapshot.len() * 2 / 3);

    // Well-formed, but one recorded cost in the tail is a lie.
    let mut tampered_outcome = honest.clone();
    let Rec::Batch(events) = &mut tampered_outcome[6] else {
        panic!("record 6 is a batch");
    };
    let Ok(costs) = &mut events[0].result else {
        panic!("the honest recording has no failures");
    };
    costs.reallocations += 5;

    let corpus = [
        ("honest", honest, Verdict::Accepted(digest)),
        ("regressing batch", regressing, Verdict::Corrupt),
        ("mixed batch", mixed, Verdict::Corrupt),
        (
            "batch split by a checkpoint",
            split_by_checkpoint,
            Verdict::Corrupt,
        ),
        (
            "epoch record inside a batch",
            epoch_inside_batch,
            Verdict::Corrupt,
        ),
        (
            "truncated embedded snapshot",
            truncated_snapshot,
            Verdict::Corrupt,
        ),
        ("tampered outcome", tampered_outcome, Verdict::Diverged),
    ];
    for (what, recs, want) in &corpus {
        assert_eq!(via_journal(recs), *want, "{what}: journal");
        assert_eq!(via_replica(recs), *want, "{what}: replica");
        assert_eq!(via_store(recs), *want, "{what}: store");
    }
}
