//! The docs-drift gate for the store's slice of README "Observability":
//! its instrument table names exactly what an attached `DurableStore`
//! registers — label sets stripped, none missing, none extra.
//! `store_injected_faults_total` is `FaultIo`'s, not the store's, and
//! the README says so outside the table. It also checks that a repair
//! `DurableStore::open` makes shows in the registry it is attached to,
//! and that every instrument in the table moves when its event happens.

use realloc_core::clock::Clock;
use realloc_core::{JobId, Request, Window};
use realloc_engine::{BackendKind, CommitTicket, Engine, EngineConfig, FlushMode};
use realloc_store::{segment_file_name, CrashMode, DurableStore, MemIo, StoreIo};
use realloc_telemetry::Telemetry;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

#[test]
fn readme_lists_every_store_instrument() {
    let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"));
    // Table rows only: a row's first cell is the backticked name alone
    // (`| `store_sync_chunks` p50 | …` in a results table is not one).
    let mut documented: Vec<&str> = readme
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|rest| {
            let end = rest.find('`').expect("closing backtick");
            rest[end..].starts_with("` |").then(|| &rest[..end])
        })
        .filter(|name| name.starts_with("store_"))
        .collect();
    documented.sort_unstable();

    let t = Telemetry::new();
    let mut store = DurableStore::create(
        Arc::new(MemIo::new()) as Arc<dyn StoreIo>,
        Path::new("/store"),
        &EngineConfig::default(),
    )
    .unwrap();
    store.attach_telemetry(&t);
    let (counters, gauges, hists) = t.registry_contents();
    let mut registered: Vec<String> = counters
        .into_iter()
        .chain(gauges)
        .map(|(name, _)| name)
        .chain(hists.into_iter().map(|(name, _)| name))
        .map(|name| name.split('{').next().expect("a name").to_string())
        .collect();
    registered.sort_unstable();
    registered.dedup();
    assert_eq!(
        documented, registered,
        "README table vs an attached store's registry (label sets dropped)"
    );
    assert_eq!(registered.len(), 10);
}

#[test]
fn a_torn_tail_truncated_at_open_is_counted_once() {
    let io = Arc::new(MemIo::new());
    let dir = Path::new("/store");
    drop(
        DurableStore::create(
            Arc::clone(&io) as Arc<dyn StoreIo>,
            dir,
            &EngineConfig::default(),
        )
        .unwrap(),
    );
    // An unsynced suffix, half of which lands: a record torn mid-write.
    io.append(&dir.join(segment_file_name(0)), &[0xff; 22])
        .unwrap();
    io.crash(CrashMode::TornTail);
    let (mut store, report) = DurableStore::open(io as Arc<dyn StoreIo>, dir).unwrap();
    assert_eq!(report.torn_bytes_truncated, 11);

    let t = Telemetry::new();
    store.attach_telemetry(&t);
    assert_eq!(
        t.counter_value("store_torn_tail_truncations_total"),
        Some(1)
    );
    store.attach_telemetry(&t);
    assert_eq!(
        t.counter_value("store_torn_tail_truncations_total"),
        Some(1),
        "one repair, counted once however often a registry is attached"
    );
}

/// An fsync of the manual clock the store times it on: [`MemIo`] whose
/// `sync_file` advances `clock` by `SYNC`, so a gather's cap is half of
/// that and runs out only when the test moves the clock.
#[derive(Debug)]
struct ClockedIo {
    inner: MemIo,
    clock: Clock,
}

const SYNC: u64 = 2_000_000;

impl StoreIo for ClockedIo {
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
        self.clock.advance(SYNC);
        self.inner.sync_file(path)
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

/// A counter's value, or a histogram's sample count.
fn reading(t: &Telemetry, name: &str) -> u64 {
    t.counter_value(name)
        .or_else(|| t.histogram_snapshot(name).map(|h| h.count()))
        .unwrap_or_else(|| panic!("{name} is not registered"))
}

/// Runs `event` and asserts that it moved every one of `names`.
fn moves(
    t: &Telemetry,
    moved: &mut Vec<&'static str>,
    names: &[&'static str],
    event: impl FnOnce(),
) {
    let before: Vec<u64> = names.iter().map(|name| reading(t, name)).collect();
    event();
    for (name, before) in names.iter().zip(before) {
        assert_ne!(reading(t, name), before, "{name} did not move");
    }
    moved.extend(names);
}

/// Stages one batch (job `id`) under the engine lock, as a connection
/// handler does.
fn stage(engine: &Mutex<Engine>, id: u64) -> CommitTicket {
    let mut engine = engine.lock().unwrap();
    engine.submit(Request::Insert {
        id: JobId(id),
        window: Window::new(id % 30, id % 30 + 2),
    });
    let (_, ticket) = engine.flush_mode(FlushMode::Durable).expect("stage");
    ticket.expect("pending")
}

/// The drift gate above checks names; this checks that each name in the
/// table counts its event — driven once each, on one registry — so an
/// instrument nothing bumps (as the torn-tail counter once was) fails.
/// The gather's two run on a manual clock: a hit needs a peer that
/// stages while the leader gathers (a try whose peer came first leads at
/// once and is tried again), a timeout needs the clock moved past the
/// cap.
#[test]
fn every_store_instrument_moves() {
    let clock = Clock::manual();
    let t = Telemetry::with_clock(clock.clone(), 16);
    let io = Arc::new(ClockedIo {
        inner: MemIo::new(),
        clock: clock.clone(),
    });
    let dir = Path::new("/store");
    let mut engine = Engine::new(EngineConfig {
        shards: 2,
        machines_per_shard: 2,
        backend: BackendKind::TheoremOne { gamma: 8 },
        parallel: false,
        journal: true,
        retained_segments: 0,
    });
    let mut store = DurableStore::create(
        Arc::clone(&io) as Arc<dyn StoreIo>,
        dir,
        engine.journal().expect("journaled").config(),
    )
    .unwrap();
    store.attach_telemetry(&t);
    engine.attach_durability(Box::new(store)).unwrap();
    let engine = Mutex::new(engine);
    let mut moved = Vec::new();
    let mut ids = 0..;
    let mut id = || ids.next().unwrap();

    let mut a = None;
    moves(
        &t,
        &mut moved,
        &["store_bytes_written_total", "store_records_total"],
        || {
            a = Some(stage(&engine, id()));
        },
    );
    let b = stage(&engine, id());
    moves(
        &t,
        &mut moved,
        &["store_fsync_nanos", "store_sync_chunks"],
        || {
            b.wait().expect("B leads: one fsync for A and B");
        },
    );
    moves(&t, &mut moved, &["store_commits_covered_total"], || {
        a.take().unwrap().wait().expect("A is covered");
    });

    // Two were pending under the last fsync: the next leader gathers.
    moves(&t, &mut moved, &["store_gather_hits_total"], || {
        for attempt in 1..=50 {
            let hits = reading(&t, "store_gather_hits_total");
            let leader = stage(&engine, id());
            std::thread::scope(|threads| {
                let gathering = threads.spawn(|| leader.wait());
                std::thread::sleep(Duration::from_millis(attempt));
                stage(&engine, id()).wait().expect("durable");
                gathering.join().unwrap().expect("durable");
            });
            if reading(&t, "store_gather_hits_total") > hits {
                return;
            }
        }
    });
    moves(&t, &mut moved, &["store_gather_timeouts_total"], || {
        let leader = stage(&engine, id());
        std::thread::scope(|threads| {
            let gathering = threads.spawn(|| leader.wait());
            while !gathering.is_finished() {
                clock.advance(SYNC);
                std::thread::sleep(Duration::from_millis(1));
            }
            gathering.join().unwrap().expect("durable");
        });
    });

    let mut engine = engine.into_inner().unwrap();
    moves(
        &t,
        &mut moved,
        &["store_checkpoints_total", "store_segments_unlinked_total"],
        || {
            assert!(engine.checkpoint(), "retention 0: segment 0 goes");
        },
    );
    // A batch appended and never committed, half of it on the platter.
    let _never_waited = stage(&Mutex::new(engine), id());
    io.inner.crash(CrashMode::TornTail);
    moves(
        &t,
        &mut moved,
        &["store_torn_tail_truncations_total"],
        || {
            let (mut store, report) =
                DurableStore::open(Arc::clone(&io) as Arc<dyn StoreIo>, dir).unwrap();
            assert!(report.torn_bytes_truncated > 0);
            store.attach_telemetry(&t);
        },
    );

    let (counters, _, hists) = t.registry_contents();
    let mut registered: Vec<String> = counters
        .into_iter()
        .map(|(name, _)| name)
        .chain(hists.into_iter().map(|(name, _)| name))
        .filter(|name| name.starts_with("store_"))
        .collect();
    registered.sort_unstable();
    moved.sort_unstable();
    assert_eq!(moved, registered, "one event for every store instrument");
}
