//! Checkpoint / recovery properties: snapshot round-trip equivalence for
//! every backend, O(tail) recovery vs. full genesis replay, segment
//! truncation bounds, and graceful journal parsing on malformed input.

use proptest::prelude::*;
use realloc_core::{JobId, Request, RequestSeq, Restorable, Window};
use realloc_engine::{BackendKind, Engine, EngineConfig, Journal, RecoverError, ReplayError};
use realloc_workloads::{ChurnConfig, ChurnGenerator};
use std::collections::BTreeMap;

const ALL_BACKENDS: [BackendKind; 4] = [
    BackendKind::Reservation,
    BackendKind::TheoremOne { gamma: 8 },
    BackendKind::Deamortized { gamma: 8 },
    BackendKind::Naive,
];

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

/// Aligned churn with spans ≥ 4 so every backend (including deamortized,
/// which needs spans ≥ 2) accepts the stream shape.
fn churn(seed: u64, shards: usize, len: usize) -> RequestSeq {
    let mut gen = ChurnGenerator::new(
        ChurnConfig {
            machines: shards,
            gamma: 8,
            horizon: 1 << 12,
            spans: vec![4, 16, 64],
            target_active: 32 * shards,
            insert_bias: 0.6,
            unaligned: false,
        },
        seed,
    );
    gen.generate(len)
}

fn ingest(engine: &mut Engine, requests: &[Request], batch: usize) {
    for chunk in requests.chunks(batch) {
        for &r in chunk {
            engine.submit(r);
        }
        engine.flush();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole contract, per backend: `restore(snapshot(s))`
    /// followed by a churn suffix produces byte-identical journal
    /// records (and placements, and telemetry) vs. the uninterrupted
    /// engine.
    #[test]
    fn snapshot_restore_is_behaviorally_invisible(seed in 0u64..200) {
        for kind in ALL_BACKENDS {
            let seq = churn(seed, 4, 360);
            let (prefix, suffix) = seq.requests().split_at(180);

            let mut a = Engine::new(config(4, kind));
            ingest(&mut a, prefix, 64);
            let recorded_prefix = a.journal().unwrap().event_count();

            let text = a.snapshot_text();
            let mut b = Engine::restore_snapshot(&text)
                .unwrap_or_else(|e| panic!("{kind}: restore failed: {e}"));
            prop_assert_eq!(b.placements(), a.placements(), "{} prefix state", kind);
            prop_assert_eq!(b.metrics(), a.metrics(), "{} prefix metrics", kind);
            prop_assert_eq!(b.batches(), a.batches(), "{} batches", kind);

            ingest(&mut a, suffix, 64);
            ingest(&mut b, suffix, 64);

            // The restored engine's journal holds exactly the suffix; the
            // uninterrupted engine's journal ends with the same events —
            // batch numbers included, since the snapshot restores the
            // flush counter.
            let a_events: Vec<_> = a.journal().unwrap().iter_events().copied().collect();
            let b_events: Vec<_> = b.journal().unwrap().iter_events().copied().collect();
            prop_assert_eq!(
                &a_events[recorded_prefix..],
                &b_events[..],
                "{} suffix journal records", kind
            );
            prop_assert_eq!(b.placements(), a.placements(), "{} final state", kind);
            prop_assert_eq!(b.metrics(), a.metrics(), "{} final metrics", kind);
            prop_assert_eq!(b.total_costs(), a.total_costs(), "{} costs", kind);
        }
    }

    /// Recovery from checkpoint + tail is outcome-identical to the
    /// original engine and to a full replay of the retained journal.
    #[test]
    fn recover_matches_original_and_replay(seed in 0u64..200, shards in 1usize..5) {
        let seq = churn(seed, shards, 500);
        let mut cfg = config(shards, BackendKind::TheoremOne { gamma: 8 });
        cfg.retained_segments = 2;
        let mut original = Engine::new(cfg);
        for (i, chunk) in seq.requests().chunks(64).enumerate() {
            for &r in chunk {
                original.submit(r);
            }
            original.flush();
            if i % 3 == 2 {
                prop_assert!(original.checkpoint());
            }
        }
        let text = original.journal().unwrap().to_text();

        // Crash → recover from the serialized journal.
        let recovered = Engine::recover(text.as_bytes()).unwrap();
        prop_assert_eq!(recovered.placements(), original.placements());
        prop_assert_eq!(recovered.metrics(), original.metrics());
        prop_assert_eq!(recovered.batches(), original.batches());
        prop_assert_eq!(recovered.total_costs(), original.total_costs());

        // The audit path (replay from the earliest retained state)
        // reaches the same final state.
        let replayed = Journal::from_text(&text).unwrap().replay().unwrap();
        prop_assert_eq!(replayed.placements(), original.placements());

        // Recording continues seamlessly: the recovered engine's journal
        // is the original's, byte for byte.
        prop_assert_eq!(
            recovered.journal().unwrap().to_text(),
            original.journal().unwrap().to_text()
        );
    }
}

#[test]
fn checkpoints_bound_journal_memory() {
    let mut cfg = config(2, BackendKind::TheoremOne { gamma: 8 });
    cfg.retained_segments = 3;
    let mut engine = Engine::new(cfg);
    let seq = churn(11, 2, 800);
    let mut checkpoints = 0usize;
    for chunk in seq.requests().chunks(40) {
        for &r in chunk {
            engine.submit(r);
        }
        engine.flush();
        assert!(engine.checkpoint());
        checkpoints += 1;
        let journal = engine.journal().unwrap();
        assert!(
            journal.segment_count() <= 3 + 1,
            "retained {} segments with cap 3",
            journal.segment_count()
        );
    }
    let journal = engine.journal().unwrap();
    assert!(checkpoints > 4, "test must actually truncate");
    assert_eq!(journal.dropped_segments(), (checkpoints - 4) as u64 + 1);
    assert!(journal.dropped_events() > 0, "dropped segments held events");
    // The truncated journal still round-trips and recovers exactly.
    let text = journal.to_text();
    let parsed = Journal::from_text(&text).unwrap();
    assert!(parsed.iter_events().eq(journal.iter_events()));
    assert_eq!(parsed.dropped_segments(), journal.dropped_segments());
    assert_eq!(parsed.dropped_events(), journal.dropped_events());
    let recovered = Engine::recover(text.as_bytes()).unwrap();
    assert_eq!(recovered.placements(), engine.placements());
    assert_eq!(recovered.metrics(), engine.metrics());
}

#[test]
fn recovery_is_o_tail_not_o_history() {
    // Not a wall-clock benchmark (that's servebench's `store.recover_ms`) —
    // this pins the *structural* guarantee: recovery replays only the
    // events after the last checkpoint, however long history is.
    let mut cfg = config(2, BackendKind::TheoremOne { gamma: 8 });
    cfg.retained_segments = 64;
    let mut engine = Engine::new(cfg);
    let seq = churn(5, 2, 600);
    let (history, tail) = seq.requests().split_at(520);
    ingest(&mut engine, history, 64);
    engine.checkpoint();
    ingest(&mut engine, tail, 64);

    let journal = engine.journal().unwrap();
    let cp = journal.latest_checkpoint().expect("checkpointed");
    assert_eq!(cp.events_before, 520);
    let tail_len = journal.event_count() as u64 - cp.events_before;
    assert_eq!(tail_len, 80);
    // Full audit replay covers everything; recovery only the tail. Both
    // land on the same state.
    let recovered = journal.clone().recover_engine().unwrap();
    let replayed = journal.replay().unwrap();
    assert_eq!(recovered.placements(), engine.placements());
    assert_eq!(replayed.placements(), engine.placements());
}

#[test]
fn tampered_checkpoint_tail_is_detected() {
    let mut engine = Engine::new(config(2, BackendKind::Reservation));
    let seq = churn(3, 2, 200);
    ingest(&mut engine, &seq.requests()[..120], 40);
    engine.checkpoint();
    ingest(&mut engine, &seq.requests()[120..], 40);
    let text = engine.journal().unwrap().to_text();

    // Flip a recorded outcome in the tail: recovery must diverge.
    let tail_start = text.rfind("!end").expect("snapshot framing");
    let tail = &text[tail_start..];
    let tampered = if tail.contains(" ok 0 0") {
        format!(
            "{}{}",
            &text[..tail_start],
            tail.replacen(" ok 0 0", " ok 9 0", 1)
        )
    } else {
        format!(
            "{}{}",
            &text[..tail_start],
            tail.replacen(" ok 1 0", " ok 8 0", 1)
        )
    };
    assert_ne!(tampered, text, "tampering must hit a tail record");
    match Engine::recover(tampered.as_bytes()) {
        Err(RecoverError::Replay(ReplayError::Divergence(_))) => {}
        other => panic!("expected tail divergence, got {other:?}"),
    }
}

/// `EngineConfig::parallel` is accepted and ignored: the same script
/// leaves the same journal text, snapshot text and digest whichever way
/// it is set, and a restored engine reports `false`.
#[test]
fn state_digest_ignores_the_parallel_knob() {
    let script = |parallel: bool| {
        let mut cfg = config(4, BackendKind::TheoremOne { gamma: 8 });
        cfg.parallel = parallel;
        let mut e = Engine::new(cfg);
        ingest(&mut e, churn(17, 4, 64).requests(), 64);
        e
    };
    let (off, on) = (script(false), script(true));
    assert_eq!(
        on.journal().unwrap().to_text(),
        off.journal().unwrap().to_text()
    );
    assert_eq!(on.snapshot_text(), off.snapshot_text());
    assert_eq!(on.state_digest(), off.state_digest());
    let restored = Engine::restore_snapshot(&on.snapshot_text()).unwrap();
    assert_eq!(restored.state_digest(), off.state_digest());
    assert!(!restored.config().parallel);
}

#[test]
fn malformed_journals_error_gracefully() {
    let mut engine = Engine::new(config(2, BackendKind::TheoremOne { gamma: 8 }));
    let seq = churn(9, 2, 150);
    ingest(&mut engine, &seq.requests()[..100], 50);
    engine.checkpoint();
    ingest(&mut engine, &seq.requests()[100..], 50);
    let text = engine.journal().unwrap().to_text();

    // Sanity: the untampered journal parses and recovers.
    assert!(Journal::from_text(&text).is_ok());
    assert!(Engine::recover(text.as_bytes()).is_ok());

    // Truncated anywhere — including inside the embedded snapshot —
    // parse errors or parses a shorter-but-valid prefix; never panics.
    for cut in (0..text.len()).step_by(97) {
        let _ = Journal::from_text(&text[..cut]);
    }
    // Truncation inside the checkpoint body specifically is an error
    // (the record promises more lines than remain).
    let snap_start = text.find("\ns ").expect("has a checkpoint record");
    let cut = &text[..snap_start + 40];
    let e = Journal::from_text(cut).unwrap_err();
    assert!(e.message.contains("truncated"), "got: {e}");

    // Garbage op line.
    let garbage = text.replacen("b 0", "quantum 7", 1);
    assert!(Journal::from_text(&garbage).is_err());

    // Duplicate config header.
    let dup = text.replacen(
        "c 2 1 theorem1:8 4",
        "c 2 1 theorem1:8 4\nc 2 1 theorem1:8 4",
        1,
    );
    let e = Journal::from_text(&dup).unwrap_err();
    assert!(e.message.contains("duplicate 'c'"), "got: {e}");

    // The retention cap is a required header field, not a v1 default.
    let capless = text.replacen("c 2 1 theorem1:8 4", "c 2 1 theorem1:8", 1);
    let e = Journal::from_text(&capless).unwrap_err();
    assert!(
        e.message.contains("missing retained-segments cap"),
        "got: {e}"
    );

    // A backend the engine does not serve — the full-recompute EDF/LLF
    // baselines among them — is an unknown name on the `c` line that
    // carries it, in the journal header and in the snapshot alike.
    let snapshot = engine.snapshot_text();
    let c_line = |doc: &str| {
        1 + doc
            .lines()
            .position(|l| l.starts_with("c 2 1 theorem1:8 "))
            .expect("a c line")
    };
    for retired in ["edf", "llf"] {
        let header = text.replacen("c 2 1 theorem1:8 ", &format!("c 2 1 {retired} "), 1);
        let snap = snapshot.replacen("c 2 1 theorem1:8 ", &format!("c 2 1 {retired} "), 1);
        let journal_err = Journal::from_text(&header).unwrap_err();
        let snapshot_err = match Engine::restore_snapshot(&snap) {
            Err(e) => e,
            Ok(_) => panic!("restored a snapshot whose backend is {retired}"),
        };
        for (e, doc) in [(journal_err, &text), (snapshot_err, &snapshot)] {
            assert_eq!(e.line, c_line(doc), "{retired}: {e}");
            assert!(
                e.message.contains(&format!("unknown backend '{retired}'")),
                "got: {e}"
            );
        }
    }

    // A snapshot whose schedulers recorded another trim γ than the `c`
    // line selects is refused, naming the first machine that differs.
    let regamma = snapshot.replacen("c 2 1 theorem1:8 ", "c 2 1 theorem1:4 ", 1);
    match Engine::restore_snapshot(&regamma) {
        Err(e) => assert_eq!(
            e.message,
            "machine 0 recorded gamma 8 but the backend is theorem1:4"
        ),
        Ok(_) => panic!("restored a theorem1:8 snapshot as theorem1:4"),
    }

    // Degenerate configs are rejected up front instead of panicking in
    // Engine::new during replay.
    for bad in ["c 0 1 theorem1:8", "c 2 0 theorem1:8", "c 2 1 warp:3"] {
        let broken = text.replacen("c 2 1 theorem1:8", bad, 1);
        assert!(Journal::from_text(&broken).is_err(), "accepted {bad}");
    }

    // Bad outcome tag and bad error code.
    for (from, to) in [(" ok 0 0", " maybe 0 0"), (" ok 0 0", " err gremlins")] {
        if text.contains(from) {
            let broken = text.replacen(from, to, 1);
            assert!(Journal::from_text(&broken).is_err());
        }
    }

    // A corrupted checkpoint body is caught at recovery time with a
    // graceful error (the line count still matches, so it parses).
    let corrupted = text.replacen("!begin shard 0", "!begin shard 9", 1);
    match Engine::recover(corrupted.as_bytes()) {
        Err(RecoverError::Replay(ReplayError::Corrupt(_))) => {}
        other => panic!("expected corrupt-checkpoint error, got {other:?}"),
    }

    // A truncation marker with no checkpoint to recover from.
    let orphan_t =
        "# realloc-engine journal v3\nc 2 1 theorem1:8 4\nT 1 100\nb 0\n+ 0 1 0 8 ok 0 0\n";
    let e = Journal::from_text(orphan_t).unwrap_err();
    assert!(e.message.contains("truncated journal"), "got: {e}");
}

#[test]
fn multi_machine_shards_round_trip_with_migrations() {
    // machines_per_shard > 1 exercises the §3 delegation state in the
    // snapshot: order starts, per-machine membership, and the
    // deterministic mover choice must all survive restore — deletes
    // after the round trip drive real cross-machine migrations on both
    // sides and must match move for move.
    for kind in [
        BackendKind::Reservation,
        BackendKind::TheoremOne { gamma: 8 },
        BackendKind::Deamortized { gamma: 8 },
        BackendKind::Naive,
    ] {
        let mut cfg = config(2, kind);
        cfg.machines_per_shard = 3;
        // A crowded 256-slot horizon: of its twenty windows, several end
        // the prefix holding more jobs than a shard has machines.
        let seq = ChurnGenerator::new(
            ChurnConfig {
                machines: 6,
                gamma: 8,
                horizon: 1 << 8,
                spans: vec![16, 64],
                target_active: 128,
                insert_bias: 0.8,
                unaligned: false,
            },
            41,
        )
        .generate(400);
        let (prefix, suffix) = seq.requests().split_at(240);

        let mut a = Engine::new(cfg);
        ingest(&mut a, prefix, 64);
        let recorded_prefix = a.journal().unwrap().event_count();

        let mut b = Engine::restore_snapshot(&a.snapshot_text())
            .unwrap_or_else(|e| panic!("{kind} m=3: restore failed: {e}"));
        assert_eq!(b.placements(), a.placements(), "{kind} m=3 prefix");

        // Deletes aimed at §3's rebalance: in every window holding more
        // jobs than machines, the smallest id on a light machine (one
        // holding fewer of the window's jobs than the fullest). Each
        // must migrate a job off a fullest machine, which is where
        // restored per-machine state and mover determinism matter.
        let mut shares: BTreeMap<(usize, Window), Vec<Vec<JobId>>> = BTreeMap::new();
        for (id, shard, p) in a.placements() {
            let w = a.window_of(id).unwrap().aligned_subwindow();
            shares
                .entry((shard, w))
                .or_insert_with(|| vec![Vec::new(); 3])[p.machine]
                .push(id);
        }
        let deletes: Vec<Request> = shares
            .values()
            .filter(|held| held.iter().map(Vec::len).sum::<usize>() > 3)
            .filter_map(|held| {
                let most = held.iter().map(Vec::len).max()?;
                let light = held.iter().find(|ids| ids.len() < most)?;
                Some(Request::Delete { id: light[0] })
            })
            .collect();
        assert!(
            deletes.len() >= 4,
            "{kind} m=3: the prefix leaves few crowded windows ({})",
            deletes.len()
        );
        let migrating = a.journal().unwrap().event_count();
        ingest(&mut a, &deletes, 32);
        assert!(
            a.journal()
                .unwrap()
                .iter_events()
                .skip(migrating)
                .all(|e| matches!(e.result, Ok(c) if c.migrations == 1)),
            "{kind} m=3: every aimed delete migrates exactly one job"
        );
        ingest(&mut b, &deletes, 32);
        ingest(&mut a, suffix, 64);
        ingest(&mut b, suffix, 64);

        let a_events: Vec<_> = a.journal().unwrap().iter_events().copied().collect();
        let b_events: Vec<_> = b.journal().unwrap().iter_events().copied().collect();
        assert_eq!(
            &a_events[recorded_prefix..],
            &b_events[..],
            "{kind} m=3 suffix journal records (migration costs included)"
        );
        assert!(
            a_events[recorded_prefix..]
                .iter()
                .any(|e| matches!(e.result, Ok(c) if c.migrations > 0)),
            "{kind} m=3: suffix must exercise real migrations"
        );
        assert_eq!(b.placements(), a.placements(), "{kind} m=3 final");
        assert_eq!(b.metrics(), a.metrics(), "{kind} m=3 metrics");
    }
}

#[test]
fn snapshot_preserves_pending_queues() {
    // Migration may snapshot between submit() and flush(); the queued
    // requests must survive the ship.
    let mut a = Engine::new(config(3, BackendKind::TheoremOne { gamma: 8 }));
    let seq = churn(23, 3, 120);
    ingest(&mut a, &seq.requests()[..80], 40);
    for &r in &seq.requests()[80..] {
        a.submit(r);
    }
    assert!(a.queued() > 0);

    let mut b = Engine::restore_snapshot(&a.snapshot_text()).unwrap();
    assert_eq!(b.queued(), a.queued(), "pending queue shipped");
    let ra = a.flush();
    let rb = b.flush();
    assert_eq!(rb.processed(), ra.processed());
    assert_eq!(b.placements(), a.placements());
    assert_eq!(b.metrics(), a.metrics());
}

#[test]
fn empty_flushes_do_not_corrupt_post_recovery_batches() {
    // An empty flush before the crash leaves no events, so replay's
    // flush counter lags the recorded batch numbers; resuming recording
    // must not reuse a batch number that already has events (a later
    // audit replay would merge the two flushes and report a spurious
    // divergence).
    let mut engine = Engine::new(config(2, BackendKind::Reservation));
    let seq = churn(31, 2, 160);
    ingest(&mut engine, &seq.requests()[..60], 30);
    engine.checkpoint();
    engine.flush(); // empty: recorded nowhere
    ingest(&mut engine, &seq.requests()[60..120], 30);
    let text = engine.journal().unwrap().to_text();

    let mut recovered = Engine::recover(text.as_bytes()).unwrap();
    ingest(&mut recovered, &seq.requests()[120..], 30);
    // The continued journal must replay cleanly end to end.
    let continued = recovered.journal().unwrap().to_text();
    Journal::from_text(&continued)
        .unwrap()
        .replay()
        .expect("no spurious divergence from batch-number reuse");
}

#[test]
fn an_idle_flush_leaves_the_digest_alone() {
    // The flush counter is digested state; a flush that services
    // nothing records nothing, so it must not move the counter either
    // (a replica, which only hears recorded batches, would diverge).
    let mut engine = Engine::new(config(2, BackendKind::TheoremOne { gamma: 8 }));
    let seq = churn(41, 2, 60);
    ingest(&mut engine, seq.requests(), 20);
    let (batches, digest) = (engine.batches(), engine.state_digest());
    let report = engine.flush();
    assert_eq!((report.processed(), report.failed()), (0, 0));
    assert_eq!(engine.batches(), batches);
    assert_eq!(engine.state_digest(), digest);
}

#[test]
fn recovered_engine_keeps_its_retention_cap() {
    // The serialized 'c' header only carries shards/machines/backend;
    // the recovered engine must still truncate with the checkpointed
    // configuration's retained_segments, not the parser default.
    let mut cfg = config(2, BackendKind::TheoremOne { gamma: 8 });
    cfg.retained_segments = 1;
    let mut engine = Engine::new(cfg);
    let seq = churn(37, 2, 400);
    for chunk in seq.requests()[..200].chunks(40) {
        for &r in chunk {
            engine.submit(r);
        }
        engine.flush();
        engine.checkpoint();
    }
    let text = engine.journal().unwrap().to_text();
    let mut recovered = Engine::recover(text.as_bytes()).unwrap();
    assert_eq!(recovered.config().retained_segments, 1);

    // The cap survives even with no checkpoint to carry it (the journal
    // header records it).
    let mut fresh_cfg = config(2, BackendKind::TheoremOne { gamma: 8 });
    fresh_cfg.retained_segments = 1;
    let mut no_cp = Engine::new(fresh_cfg);
    ingest(&mut no_cp, &seq.requests()[..40], 40);
    let genesis_text = no_cp.journal().unwrap().to_text();
    let genesis_rec = Engine::recover(genesis_text.as_bytes()).unwrap();
    assert_eq!(genesis_rec.config().retained_segments, 1);
    for chunk in seq.requests()[200..].chunks(40) {
        for &r in chunk {
            recovered.submit(r);
        }
        recovered.flush();
        recovered.checkpoint();
        assert!(
            recovered.journal().unwrap().segment_count() <= 2,
            "post-recovery checkpoints must honor retained_segments = 1"
        );
    }
}

#[test]
fn malformed_epoch_records_error_gracefully() {
    // Build a journal that legitimately crosses two resizes (one with a
    // tenant pin), then hand-corrupt its epoch records every way the
    // wire can: each corpus entry must yield a graceful ParseError from
    // Journal::from_text — never a panic, never silent acceptance.
    use realloc_engine::TenantId;
    let mut engine = Engine::new(config(2, BackendKind::TheoremOne { gamma: 8 }));
    let seq = churn(51, 1, 240);
    ingest(&mut engine, &seq.requests()[..80], 40);
    engine.resize(3).unwrap();
    ingest(&mut engine, &seq.requests()[80..160], 40);
    engine
        .submit_for(
            TenantId(5),
            Request::Insert {
                id: realloc_core::JobId(1),
                window: realloc_core::Window::new(0, 64),
            },
        )
        .unwrap();
    engine.flush();
    engine.rebalance().unwrap(); // may or may not fire; resize again to be sure
    engine.resize(4).unwrap();
    ingest(&mut engine, &seq.requests()[160..], 40);

    let text = engine.journal().unwrap().to_text();
    assert!(
        text.contains("\nE 1 3\n"),
        "journal: missing first epoch record"
    );
    assert!(text.contains("\nE "), "journal must carry epoch records");
    // Sanity: the untampered journal parses, replays, and recovers.
    Journal::from_text(&text).unwrap().replay().unwrap();
    Engine::recover(text.as_bytes()).unwrap();

    let corpus: Vec<(&str, String)> = vec![
        (
            "duplicate epoch",
            text.replacen("\nE 1 3\n", "\nE 1 3\nE 1 3\n", 1),
        ),
        (
            "regressing epoch",
            // Second record rewound to epoch 1.
            {
                let first = text.find("\nE 1 3\n").unwrap();
                let rest = &text[first + 1..];
                let second = rest.find("\nE ").unwrap() + first + 1;
                let line_end = text[second + 1..].find('\n').unwrap() + second + 1;
                format!("{}\nE 1 9{}", &text[..second], &text[line_end..])
            },
        ),
        (
            "shard count zero",
            text.replacen("\nE 1 3\n", "\nE 1 0\n", 1),
        ),
        (
            "truncated router table (odd pin tokens)",
            text.replacen("\nE 1 3\n", "\nE 1 3 7\n", 1),
        ),
        (
            "pin out of range",
            text.replacen("\nE 1 3\n", "\nE 1 3 7 9\n", 1),
        ),
        (
            "tenant pinned twice",
            text.replacen("\nE 1 3\n", "\nE 1 3 7 0 7 1\n", 1),
        ),
        (
            "pins cover every shard",
            text.replacen("\nE 1 3\n", "\nE 1 3 7 0 8 1 9 2\n", 1),
        ),
        (
            "garbage epoch number",
            text.replacen("\nE 1 3\n", "\nE x 3\n", 1),
        ),
        (
            // Tenant ids are 16 bits; the replication frame parser
            // shares this rule (one `EpochRecord::parse_tail`).
            "pinned tenant outside the tenant id space",
            text.replacen("\nE 1 3\n", "\nE 1 3 70000 0\n", 1),
        ),
    ];
    for (what, bad) in &corpus {
        assert_ne!(
            bad, &text,
            "corpus entry '{what}' did not modify the journal"
        );
        match Journal::from_text(bad) {
            Err(_) => {}
            Ok(_) => panic!("corpus entry '{what}' parsed successfully"),
        }
    }

    // Epoch record mid-batch: splice an E record between two events of
    // the same batch (the engine only reshards between flushes, so this
    // can only be tampering).
    let mut lines: Vec<&str> = text.lines().collect();
    let mut spliced_at = None;
    for i in 0..lines.len() - 1 {
        let a = lines[i].starts_with("+ ") || lines[i].starts_with("- ");
        let b = lines[i + 1].starts_with("+ ") || lines[i + 1].starts_with("- ");
        if a && b {
            spliced_at = Some(i + 1);
            break;
        }
    }
    let at = spliced_at.expect("journal has a multi-event batch");
    lines.insert(at, "E 40 5");
    let mid_batch = lines.join("\n");
    let e = Journal::from_text(&mid_batch).unwrap_err();
    assert!(
        e.message.contains("middle of batch"),
        "mid-batch epoch record not caught: {e}"
    );

    // Deleting an epoch record altogether parses (the framing is
    // self-consistent) but replay detects the divergence: without the
    // resize, every later event routes differently.
    let missing = text.replacen("\nE 1 3\n", "\n", 1);
    let parsed = Journal::from_text(&missing).expect("framing still parses");
    assert!(
        parsed.replay().is_err(),
        "replay must diverge when a resize is excised from history"
    );
}

#[test]
fn shard_migration_via_snapshot_ship_restore() {
    // The migration recipe from the README: serialize a whole engine on
    // one "host", restore it on another, and keep serving — no journal
    // replay involved.
    let mut source = Engine::new(config(3, BackendKind::TheoremOne { gamma: 8 }));
    let seq = churn(17, 3, 300);
    ingest(&mut source, &seq.requests()[..200], 50);

    let shipped = source.snapshot_text();
    let mut target = Engine::restore_snapshot(&shipped).unwrap();
    assert_eq!(target.placements(), source.placements());

    // Both engines keep serving identically.
    ingest(&mut source, &seq.requests()[200..], 50);
    ingest(&mut target, &seq.requests()[200..], 50);
    assert_eq!(target.placements(), source.placements());
    assert_eq!(target.metrics(), source.metrics());
}

#[test]
fn rejected_insert_at_an_n_star_crossing_still_checkpoints_and_recovers() {
    // Eight jobs put the one machine at n* = 8; the ninth would double
    // n*, and its window [0, 4) is full, so the resize rebuild rejects
    // it. The rejection must commit nothing: the checkpoint taken next
    // has to restore, and recovery has to land on the same state.
    use realloc_core::{JobId, Window};
    let mut engine = Engine::new(config(1, BackendKind::TheoremOne { gamma: 1 }));
    let mut script: Vec<Request> = Vec::new();
    let mut place = |id: u64, start: u64, end: u64| {
        script.push(Request::Insert {
            id: JobId(id),
            window: Window::new(start, end),
        })
    };
    (0..=3).for_each(|id| place(id, 0, 4));
    (4..=6).for_each(|id| place(id, 8, 12));
    place(7, 0, 64);
    place(8, 0, 4);
    ingest(&mut engine, &script, 1);
    let m = engine.metrics();
    assert_eq!((m.requests, m.failed, m.active_jobs), (8, 1, 8));
    engine.validate().unwrap();

    assert!(engine.checkpoint());
    let text = engine.journal().unwrap().to_text();
    let recovered = Engine::recover(text.as_bytes())
        .unwrap_or_else(|e| panic!("checkpoint after a rejected crossing must recover: {e:?}"));
    assert_eq!(recovered.state_digest(), engine.state_digest());
    assert_eq!(recovered.placements(), engine.placements());
}

#[test]
fn forged_shard_active_lines_error_gracefully() {
    // The shard section's `a <id> <start> <end>` lines are derived from
    // the backend on write and checked against it on read: id *and*
    // window, every job exactly once. Each forgery is a graceful
    // ParseError, never a panic and never a silently wrong `window_of`.
    use realloc_core::{JobId, Window};
    let mut engine = Engine::new(config(1, BackendKind::TheoremOne { gamma: 8 }));
    for (id, start, end) in [(5u64, 0u64, 8u64), (6, 3, 17), (7, 64, 128)] {
        engine.submit(Request::Insert {
            id: JobId(id),
            window: Window::new(start, end),
        });
    }
    engine.flush();
    let text = engine.snapshot_text();
    assert!(text.contains("\na 5 0 8\n") && text.contains("\na 6 3 17\n"));
    let restored = Engine::restore_snapshot(&text).expect("the honest snapshot restores");
    assert_eq!(restored.window_of(JobId(6)), Some(Window::new(3, 17)));

    let corpus = [
        // A window the job was not scheduled under.
        ("forged window", text.replacen("a 5 0 8\n", "a 5 0 16\n", 1)),
        ("forged start", text.replacen("a 6 3 17\n", "a 6 4 17\n", 1)),
        // An active job with no line.
        ("missing line", text.replacen("a 7 64 128\n", "", 1)),
        // A line for a job the backend does not hold.
        (
            "extra line",
            text.replacen("a 7 64 128\n", "a 7 64 128\na 8 0 8\n", 1),
        ),
        // One job listed twice — alone, and with the count kept right
        // by dropping another job's line.
        (
            "duplicate line",
            text.replacen("a 5 0 8\n", "a 5 0 8\na 5 0 8\n", 1),
        ),
        (
            "duplicate in place of another",
            text.replacen("a 6 3 17\n", "a 5 0 8\n", 1),
        ),
        // A line naming a job of the right count but the wrong id.
        (
            "renamed job",
            text.replacen("a 7 64 128\n", "a 9 64 128\n", 1),
        ),
        ("empty window", text.replacen("a 5 0 8\n", "a 5 8 8\n", 1)),
    ];
    for (what, forged) in corpus {
        assert_ne!(forged, text, "{what}: the edit must apply");
        let err = Engine::restore_snapshot(&forged)
            .err()
            .unwrap_or_else(|| panic!("{what}: forged snapshot restored"));
        assert!(!err.message.is_empty(), "{what}");
    }
}
