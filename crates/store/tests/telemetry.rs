//! The docs-drift gate for the store's slice of README "Observability":
//! its instrument table names exactly what an attached `DurableStore`
//! registers — label sets stripped, none missing, none extra.
//! `store_injected_faults_total` is `FaultIo`'s, not the store's, and
//! the README says so outside the table. It also checks that a repair
//! `DurableStore::open` makes shows in the registry it is attached to.

use realloc_engine::EngineConfig;
use realloc_store::{segment_file_name, CrashMode, DurableStore, MemIo, StoreIo};
use realloc_telemetry::Telemetry;
use std::path::Path;
use std::sync::Arc;

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
