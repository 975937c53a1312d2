//! The client-facing serving tier end-to-end over loopback TCP: a
//! mixed-tenant hotspot (three small tenants plus one **whale**) driven
//! through the text protocol with per-tenant rate limits in force, an
//! online `rebalance()` isolating the whale onto its own shard while
//! the traffic flows, and per-tenant p99 service times polled live over
//! the observability endpoint the whole time.
//!
//! Then a short **durable** phase answers "is group commit grouping?"
//! from the store's own instruments: the same tier under
//! `FlushMode::Durable` on the real file system, behind a disk held to a
//! 500 µs fsync (on a tmpfs an fsync takes no time, and a store that
//! sizes its waits by the fsyncs it measures would, rightly, never
//! wait). Two pipelining connections must share their fsyncs; one
//! connection at depth 1 must never be made to wait for anybody. The run
//! fails if either does not hold.
//!
//! ```sh
//! cargo run --release --example qos_server
//! ```

use realloc_sched::engine::FlushMode;
use realloc_sched::service::{
    drive_feed, Command, QosClient, QosConfig, RateLimit, Reply, ServiceConfig, ServiceServer,
};
use realloc_sched::workloads::{hotspot, HOTSPOT_WHALE};
use realloc_sched::{
    BackendKind, DurableStore, Engine, EngineConfig, FsIo, JobId, ObsClient, ObsServer, StoreIo,
    Telemetry, TenantId, Window,
};
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn main() {
    hotspot_phase();
    durable_phases();
}

/// The hotspot drive: each batch draws this many requests per tenant…
const PER_TENANT: usize = 8;
/// …for this many batches.
const BATCHES: usize = 60;
/// Everything one tenant sends in the hotspot phase.
const SENT_PER_TENANT: u64 = (PER_TENANT * BATCHES) as u64;

fn hotspot_phase() {
    let telemetry = Telemetry::new();

    // The engine behind the front door: 4 journaled shards.
    let engine = Engine::new(EngineConfig {
        shards: 4,
        machines_per_shard: 4,
        backend: BackendKind::TheoremOne { gamma: 8 },
        parallel: false,
        journal: true,
        ..EngineConfig::default()
    });

    // Every tenant is metered; the whale gets a bigger allowance. Each
    // bucket holds at least the tenant's whole feed, so no drive is fast
    // enough to shed — the limits are a guard rail, not a throttle.
    let server = ServiceServer::bind(
        "127.0.0.1:0",
        engine,
        ServiceConfig {
            qos: QosConfig {
                default_limit: Some(RateLimit {
                    rate_per_sec: 20_000,
                    burst: SENT_PER_TENANT,
                }),
                tenant_limits: vec![(
                    HOTSPOT_WHALE,
                    Some(RateLimit {
                        rate_per_sec: 50_000,
                        burst: SENT_PER_TENANT.max(1024),
                    }),
                )],
                ..QosConfig::default()
            },
            ..ServiceConfig::default()
        },
        &telemetry,
    )
    .expect("bind service");
    let obs = ObsServer::bind("127.0.0.1:0", telemetry.clone()).expect("bind obs");
    println!("serving on {}, metrics on {}", server.addr(), obs.addr());

    // Drive the hotspot feed from a client thread: 3 dwarfs + the
    // whale, pipelined 16 deep over one connection.
    let addr = server.addr();
    let driver = std::thread::spawn(move || {
        let mut feed = hotspot(3, 7);
        let batches = std::iter::from_fn(|| feed.next_batch(PER_TENANT)).take(BATCHES);
        drive_feed(addr, batches, 16).expect("drive feed")
    });

    // While the traffic flows, poll per-tenant p99s over the obs
    // endpoint and wait for the whale to dominate enough for the
    // rebalance to act.
    let mut poller = ObsClient::connect(obs.addr()).expect("connect obs");
    let p99_of = |text: &str, tenant: u16| {
        realloc_sched::parse_sample(
            text,
            &format!("service_request_nanos{{tenant=\"{tenant}\",quantile=\"0.99\"}}"),
        )
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    let report = loop {
        std::thread::sleep(Duration::from_millis(10));
        let text = poller.metrics().expect("poll metrics");
        if let Some(p99) = p99_of(&text, HOTSPOT_WHALE) {
            println!("live: whale p99 {} ns", p99);
        }
        let acted = {
            let engine = server.engine();
            let mut engine = engine.lock().expect("engine lock");
            engine.rebalance().expect("rebalance under load")
        };
        if let Some(report) = acted {
            break report;
        }
        assert!(
            Instant::now() < deadline,
            "the whale never dominated — feed misconfigured?"
        );
    };
    println!(
        "rebalanced mid-run: {} -> {} shards, {} jobs re-placed ({} moved), {} queued preserved",
        report.from_shards,
        report.to_shards,
        report.jobs,
        report.jobs_moved,
        report.queued_preserved
    );

    let stats = driver.join().expect("driver thread");
    for (tenant, s) in &stats {
        let who = if *tenant == HOTSPOT_WHALE {
            "whale"
        } else {
            "dwarf"
        };
        println!(
            "tenant {tenant} ({who}): {} sent, {} admitted, {} shed, {} refused",
            s.sent, s.admitted, s.shed, s.refused
        );
        assert_eq!(
            (s.admitted, s.shed, s.refused),
            (s.sent, 0, 0),
            "rate limits sized above the load must not shed, and no \
             admitted request may be lost across the rebalance"
        );
    }

    // The final scrape: every tenant's quantiles are live.
    let text = poller.metrics().expect("final scrape");
    for tenant in stats.keys() {
        let p99 = p99_of(&text, *tenant).expect("per-tenant p99 scrapeable");
        println!("tenant {tenant}: final p99 {p99} ns");
    }

    // The engine behind it all came through consistent, whale isolated.
    let engine = server.engine();
    let engine = engine.lock().expect("engine lock");
    engine.validate().expect("engine valid after the run");
    let whale_active = engine.active_count_for(TenantId(HOTSPOT_WHALE));
    println!(
        "engine valid: {} whale jobs active across {} shards after isolation",
        whale_active,
        engine.metrics().shards.len()
    );
}

/// How long an fsync of the durable phase takes at least.
const SYNC_FLOOR: Duration = Duration::from_micros(500);

/// [`FsIo`] whose `sync_file` returns no sooner than [`SYNC_FLOOR`]
/// after it was called (it sleeps the rest): a disk that costs the same
/// on every machine this runs on.
#[derive(Debug)]
struct FloorIo(FsIo);

impl StoreIo for FloorIo {
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        self.0.create_dir_all(dir)
    }
    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        self.0.list_dir(dir)
    }
    fn read_file(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.0.read_file(path)
    }
    fn append(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
        self.0.append(path, data)
    }
    fn sync_file(&self, path: &Path) -> std::io::Result<()> {
        let called = Instant::now();
        self.0.sync_file(path)?;
        std::thread::sleep((called + SYNC_FLOOR).saturating_duration_since(Instant::now()));
        Ok(())
    }
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        self.0.sync_dir(dir)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.0.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.0.remove_file(path)
    }
    fn truncate(&self, path: &Path, len: u64) -> std::io::Result<()> {
        self.0.truncate(path, len)
    }
}

/// What the store's instruments counted: real fsyncs, the chunks they
/// made stable, commits that rode someone else's fsync, and how the
/// leaders' waits for their peers ended.
#[derive(Clone, Copy, Debug, Default)]
struct StoreCounts {
    fsyncs: u64,
    chunks: u64,
    covered: u64,
    hits: u64,
    timeouts: u64,
}

impl StoreCounts {
    fn read(telemetry: &Telemetry) -> StoreCounts {
        let sizes = telemetry.histogram_snapshot("store_sync_chunks");
        let count = |name| telemetry.counter_value(name).unwrap_or(0);
        StoreCounts {
            fsyncs: sizes.as_ref().map_or(0, |h| h.count()),
            chunks: sizes.as_ref().map_or(0, |h| h.sum()),
            covered: count("store_commits_covered_total"),
            hits: count("store_gather_hits_total"),
            timeouts: count("store_gather_timeouts_total"),
        }
    }

    fn since(self, earlier: StoreCounts) -> StoreCounts {
        StoreCounts {
            fsyncs: self.fsyncs - earlier.fsyncs,
            chunks: self.chunks - earlier.chunks,
            covered: self.covered - earlier.covered,
            hits: self.hits - earlier.hits,
            timeouts: self.timeouts - earlier.timeouts,
        }
    }
}

/// Windows each client sends before the durable counts start.
const WARM_UP: u64 = 10;

/// Tenant `tenant` places job `id` in `[start, end)`, or removes it.
fn place(tenant: u16, id: u64, start: u64, end: u64) -> Command {
    Command::Place {
        tenant: TenantId(tenant),
        id: JobId(id),
        window: Window::new(start, end),
    }
}

fn remove(tenant: u16, id: u64) -> Command {
    Command::Remove {
        tenant: TenantId(tenant),
        id: JobId(id),
    }
}

/// A window of `depth` commands: pairs that place a job and remove it,
/// fresh jobs in every window.
fn spread_window(tenant: u16, window: u64, depth: u64) -> Vec<Command> {
    (0..depth)
        .map(|k| {
            let id = window * depth + k / 2;
            match k % 2 {
                0 => place(tenant, id, 8 * k, 8 * k + 16),
                _ => remove(tenant, id),
            }
        })
        .collect()
}

/// A window of `depth` commands that place one job and remove it, over
/// and over: frames so short that four full batches (7 936 bytes) fit
/// the server's 8 KiB read buffer and arrive in one read.
fn compact_window(tenant: u16, _window: u64, depth: u64) -> Vec<Command> {
    (0..depth)
        .map(|k| match k % 2 {
            0 => place(tenant, 1, 0, 8),
            _ => remove(tenant, 1),
        })
        .collect()
}

/// One durable tier on a fresh store directory, `clients` closed-loop
/// connections sending `windows` windows of `depth` commands each, made
/// by `window_of(tenant, window, depth)`. Returns the store's counts
/// after every client's first [`WARM_UP`] windows.
fn durable_phase(
    name: &str,
    clients: u16,
    depth: u64,
    windows: u64,
    window_of: fn(u16, u64, u64) -> Vec<Command>,
) -> StoreCounts {
    let dir =
        std::env::temp_dir().join(format!("realloc-qos-server-{}-{name}", std::process::id()));
    let telemetry = Telemetry::new();
    let mut engine = Engine::new(EngineConfig {
        shards: 4,
        machines_per_shard: 4,
        backend: BackendKind::TheoremOne { gamma: 8 },
        parallel: false,
        journal: true,
        ..EngineConfig::default()
    });
    let mut store = DurableStore::create(
        Arc::new(FloorIo(FsIo)) as Arc<dyn StoreIo>,
        &dir,
        engine.journal().expect("journaled").config(),
    )
    .expect("create store directory");
    store.attach_telemetry(&telemetry);
    engine.attach_durability(Box::new(store)).expect("attach");
    let config = ServiceConfig {
        flush: FlushMode::Durable,
        ..ServiceConfig::default()
    };
    let server = ServiceServer::bind("127.0.0.1:0", engine, config, &telemetry).expect("bind");

    // Everyone stops after the warm-up for the counts to be read.
    let warm = Barrier::new(clients as usize + 1);
    let warmed = std::thread::scope(|threads| {
        for tenant in 1..=clients {
            let mut client = QosClient::connect(server.addr()).expect("connect");
            let warm = &warm;
            threads.spawn(move || {
                for window in 0..windows {
                    if window == WARM_UP {
                        warm.wait();
                        warm.wait();
                    }
                    // A window is one write: the server sees it whole.
                    let commands = window_of(tenant, window, depth);
                    client.send(&commands).expect("send");
                    for _ in 0..depth {
                        let reply = client.recv().expect("reply");
                        assert!(
                            matches!(reply, Reply::Placed(_) | Reply::Removed(_)),
                            "durable phase refused: {reply:?}"
                        );
                    }
                }
            });
        }
        warm.wait();
        let warmed = StoreCounts::read(&telemetry);
        warm.wait();
        warmed
    });
    let counts = StoreCounts::read(&telemetry).since(warmed);

    let engine = server.engine();
    let engine = engine.lock().expect("engine lock");
    assert_eq!(engine.durability_error(), None);
    engine
        .validate()
        .expect("engine valid after the durable phase");
    std::fs::remove_dir_all(&dir).ok();

    let sizes = telemetry
        .histogram_snapshot("store_sync_chunks")
        .expect("registered by the store");
    println!(
        "durable, {name}: {:.2} fsyncs per window, {:.2} per chunk ({} for {}), \
         store_sync_chunks p50 {}, {:.0} % of commits covered by another's fsync, \
         gathers: {} hit, {} timed out",
        counts.fsyncs as f64 / (u64::from(clients) * (windows - WARM_UP)) as f64,
        counts.fsyncs as f64 / counts.chunks as f64,
        counts.fsyncs,
        counts.chunks,
        sizes.quantile(0.5),
        100.0 * counts.covered as f64 / (counts.covered + counts.fsyncs) as f64,
        counts.hits,
        counts.timeouts,
    );
    counts
}

/// Is group commit grouping? Two pipelining connections, then one
/// connection that waits for every reply, then one bulk-loading
/// connection whose every window is four full batches.
fn durable_phases() {
    const BULK_WINDOWS: u64 = 40;
    let busy = durable_phase("2 connections x 32 outstanding", 2, 32, 150, spread_window);
    let lone = durable_phase("1 connection at depth 1", 1, 1, 150, spread_window);
    let max_batch = ServiceConfig::default().max_batch as u64;
    let bulk = durable_phase(
        "1 connection x 4 full batches",
        1,
        4 * max_batch,
        BULK_WINDOWS,
        compact_window,
    );
    let mut failed = false;
    if (busy.chunks as f64) < 1.5 * busy.fsyncs as f64 {
        eprintln!(
            "group commit is not grouping: {} chunks in {} fsyncs with two busy connections",
            busy.chunks, busy.fsyncs
        );
        failed = true;
    }
    if lone.hits + lone.timeouts > 0 {
        eprintln!(
            "a lone connection at depth 1 was made to wait: {} hits, {} timeouts",
            lone.hits, lone.timeouts
        );
        failed = true;
    }
    // Each full batch stages its successor before it waits: one fsync
    // per two batches.
    let bulk_windows = BULK_WINDOWS - WARM_UP;
    if bulk.fsyncs > 2 * bulk_windows {
        eprintln!(
            "a bulk load is not double-buffered: {} fsyncs for {bulk_windows} windows \
             of four full batches, at most 2 each",
            bulk.fsyncs
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
