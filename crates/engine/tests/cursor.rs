//! The one walk of a journal's recorded stream
//! ([`Journal::records_since`]: whole batches, epoch records between
//! them) and the engine state digest — the streaming primitives replay,
//! recovery and the cluster layer's replication are built on.

use realloc_core::snapshot::{digest64, Restorable as _};
use realloc_core::{JobId, Request, Window};
use realloc_engine::{BackendKind, Engine, EngineConfig, JournalCursor, JournalRecord};

fn journaled(shards: usize, retained_segments: usize) -> Engine {
    Engine::new(EngineConfig {
        shards,
        machines_per_shard: 1,
        backend: BackendKind::TheoremOne { gamma: 8 },
        parallel: false,
        journal: true,
        retained_segments,
    })
}

fn churn(engine: &mut Engine, ids: std::ops::Range<u64>) {
    for i in ids {
        engine.submit(Request::Insert {
            id: JobId(i),
            window: Window::new(0, 1 << 12),
        });
    }
    engine.flush();
}

#[test]
fn records_since_interleaves_events_and_epochs_in_order() {
    let mut e = journaled(2, usize::MAX);
    churn(&mut e, 0..10);
    e.resize(3).unwrap();
    churn(&mut e, 10..20);
    e.resize(4).unwrap();

    let journal = e.journal().unwrap();
    let records: Vec<_> = journal
        .records_since(JournalCursor::default())
        .expect("genesis cursor is always retained here")
        .collect();
    // Two flushes and two epoch records, in recording order: each flush
    // is one borrowed batch, each epoch sits at its exact position.
    assert_eq!(records.len(), 4);
    for (at, ids) in [(0, 0..10u64), (2, 10..20)] {
        let JournalRecord::Batch(events) = records[at] else {
            panic!("record {at} is a batch: {:?}", records[at]);
        };
        assert_eq!(events.len(), 10);
        assert!(events.iter().all(|e| e.batch == events[0].batch));
        let mut seen: Vec<u64> = events.iter().map(|e| e.request.job_id().0).collect();
        seen.sort_unstable();
        assert_eq!(seen, ids.collect::<Vec<_>>());
    }
    assert!(matches!(records[1], JournalRecord::Epoch(r) if r.epoch == 1));
    assert!(matches!(records[3], JournalRecord::Epoch(r) if r.epoch == 2));

    // The event projection matches the borrowing iterator.
    let via_cursor: Vec<_> = records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Batch(events) => Some(events.iter().copied()),
            JournalRecord::Epoch(_) => None,
        })
        .flatten()
        .collect();
    let via_iter: Vec<_> = journal.iter_events().copied().collect();
    assert_eq!(via_cursor, via_iter);
}

#[test]
fn cursor_resumes_mid_stream_without_recloning_history() {
    let mut e = journaled(2, usize::MAX);
    churn(&mut e, 0..8);
    let journal = e.journal().unwrap();
    let mut cursor = JournalCursor::default();
    for r in journal.records_since(cursor).unwrap() {
        cursor.advance(&r);
    }
    assert_eq!(cursor.events_seen, 8);
    assert_eq!(cursor, JournalCursor::at_end_of(journal));
    assert_eq!(journal.records_since(cursor).unwrap().count(), 0);

    // New traffic + a resize appear past the cursor, nothing earlier.
    e.resize(3).unwrap();
    churn(&mut e, 8..11);
    let journal = e.journal().unwrap();
    let fresh: Vec<_> = journal.records_since(cursor).unwrap().collect();
    assert_eq!(fresh.len(), 2); // 1 epoch + 1 batch of 3 events
    assert!(matches!(fresh[0], JournalRecord::Epoch(r) if r.epoch == 1));
    assert!(matches!(fresh[1], JournalRecord::Batch(events) if events.len() == 3));
    for r in &fresh {
        cursor.advance(r);
    }
    assert_eq!(cursor.events_seen, 11);
    assert_eq!(cursor.last_epoch, 1);
}

#[test]
fn truncated_history_invalidates_stale_cursors_only() {
    let mut e = journaled(2, 0); // keep only the latest checkpoint + tail
    churn(&mut e, 0..6);
    e.checkpoint();
    churn(&mut e, 6..12);
    let live = JournalCursor::at_end_of(e.journal().unwrap());
    e.checkpoint(); // seals + truncates the first segment's 6 events
    churn(&mut e, 12..15);

    let journal = e.journal().unwrap();
    assert_eq!(journal.total_events(), 15);
    assert!(journal.dropped_events() > 0);
    // A cursor from before the truncation horizon is refused, not
    // silently skipped past.
    assert!(journal.records_since(JournalCursor::default()).is_none());
    // A cursor still within retained history keeps streaming exactly.
    let tail: Vec<_> = journal.records_since(live).unwrap().collect();
    assert!(matches!(tail[..], [JournalRecord::Batch(events)] if events.len() == 3));
    // A cursor inside a batch (nothing hands one out, but the fields are
    // public) gets the rest of it.
    let inside = JournalCursor {
        events_seen: live.events_seen + 1,
        ..live
    };
    let rest: Vec<_> = journal.records_since(inside).unwrap().collect();
    assert!(matches!(rest[..], [JournalRecord::Batch(events)] if events.len() == 2));
    // A cursor beyond the end (from some other journal) is refused too.
    let bogus = JournalCursor {
        events_seen: 99,
        last_epoch: 0,
    };
    assert!(journal.records_since(bogus).is_none());
}

/// An epoch recorded after a segment's last event sits at the very
/// position a caught-up cursor stands at. When truncation drops that
/// segment, the cursor has not consumed the epoch and must be refused,
/// not walked on past a routing change it never saw.
#[test]
fn a_dropped_trailing_epoch_invalidates_the_cursor_that_missed_it() {
    let mut e = journaled(2, 1);
    churn(&mut e, 0..6);
    let before_resize = JournalCursor::at_end_of(e.journal().unwrap());
    e.resize(3).unwrap();
    e.checkpoint();
    churn(&mut e, 6..9);
    e.checkpoint(); // drops the segment holding the trailing epoch

    let journal = e.journal().unwrap();
    assert_eq!(journal.dropped_events(), before_resize.events_seen);
    assert!(journal.records_since(before_resize).is_none());
    // Cursors the journal hands out today have consumed it.
    let at_end = JournalCursor::at_end_of(journal);
    assert_eq!(at_end.last_epoch, 1);
    assert_eq!(journal.records_since(at_end).unwrap().count(), 0);
    let at_checkpoint = journal.checkpoint_cursor().unwrap();
    assert_eq!(at_checkpoint.last_epoch, 1);
    assert_eq!(journal.records_since(at_checkpoint).unwrap().count(), 0);
}

#[test]
fn state_digest_tracks_snapshot_text_exactly() {
    let mut a = journaled(2, 4);
    let mut b = journaled(2, 4);
    churn(&mut a, 0..32);
    churn(&mut b, 0..32);
    assert_eq!(a.state_digest(), b.state_digest());
    assert_eq!(a.state_digest(), digest64(&a.snapshot_text()));

    // Any divergence — even one extra serviced request — changes it.
    b.submit(Request::Delete { id: JobId(0) });
    b.flush();
    assert_ne!(a.state_digest(), b.state_digest());

    // Restore of the snapshot reproduces the digest (digest is a pure
    // function of state, not of history).
    let restored = Engine::restore_snapshot(&a.snapshot_text()).unwrap();
    assert_eq!(restored.state_digest(), a.state_digest());
}

#[test]
fn apply_recorded_batch_replicates_and_rejects_corruption() {
    // The replication apply path at the engine level: a follower fed
    // recorded batches is byte-identical; malformed slices are graceful
    // errors.
    let mut primary = journaled(2, usize::MAX);
    let mut follower = journaled(2, usize::MAX);
    churn(&mut primary, 0..16);
    primary.resize(3).unwrap();
    churn(&mut primary, 16..24);

    // The follower folds the primary's walk, as replay and replicas do.
    let journal = primary.journal().unwrap();
    let mut batches: Vec<&[realloc_engine::JournalEvent]> = Vec::new();
    for record in journal.records_since(JournalCursor::default()).unwrap() {
        match record {
            JournalRecord::Batch(events) => {
                follower.apply_recorded_batch(events).unwrap();
                batches.push(events);
            }
            JournalRecord::Epoch(rec) => follower.apply_epoch_record(rec).unwrap(),
        }
    }
    assert_eq!(follower.snapshot_text(), primary.snapshot_text());

    // Corruption classes: empty, mixed batches, regressing batch, and a
    // batch number that would overflow the flush counter.
    assert!(follower.apply_recorded_batch(&[]).is_err());
    let mixed = [batches[0], batches[1]].concat();
    assert!(follower.apply_recorded_batch(&mixed).is_err());
    assert!(
        follower.apply_recorded_batch(batches[0]).is_err(),
        "already-consumed batch number must be refused"
    );
    let mut hostile = batches[0].to_vec();
    for e in &mut hostile {
        e.batch = u64::MAX;
    }
    assert!(
        follower.apply_recorded_batch(&hostile).is_err(),
        "u64::MAX batch must be a graceful error, not a counter overflow"
    );
}
