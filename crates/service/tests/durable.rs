//! `FlushMode::Durable` over real TCP, on a disk the test controls: a
//! [`StoreIo`] whose `sync_file` parks on a gate shows what the serving
//! tier does *while* an fsync is in flight.
//!
//! * the engine mutex is not held across the fsync: with connection A's
//!   commit parked in `sync_file`, an embedder takes the lock, another
//!   connection's read of durable state is answered, and a third
//!   connection's mutation is staged — appended to the store — without
//!   waiting for the fsync;
//! * no reply reflects state that is not yet durable: a read of the job
//!   A just placed is held back until A's commit returns;
//! * group commit groups across connections: the batch staged during
//!   A's fsync and the held-back read cost one further fsync between
//!   them;
//! * a failed commit refuses every admitted mutation of its batch, still
//!   answers the batch's reads, and sticks;
//! * a connection that pipelines two full batches stages the second
//!   before it waits on the first: both are appended while the first
//!   fsync is parked, and that one fsync answers both, in command order
//!   — also when it fails (both batches' mutations are refused, their
//!   reads answered), and a read in the second of a job the first placed
//!   is still held back until the commit returns.
//!
//! Interleavings are forced through the gate's condition variable, not
//! slept for; the only timed waits are the negative checks ("no reply
//! yet"), which can only pass early, never fail late.
//!
//! The last two tests are about rates, not interleavings, and run on a
//! disk that is merely slow (`sync_file` sleeps 2 ms):
//!
//! * two pipelining connections share their fsyncs — the store's commit
//!   leader waits for the connection the last fsync released instead of
//!   syncing a hair before its next window is staged;
//! * connections that send on a timer, whatever the replies do, are not
//!   made to pay for that wait.

use realloc_core::{JobId, Window};
use realloc_engine::{BackendKind, Engine, EngineConfig, FlushMode, TenantId};
use realloc_service::{Command, QosClient, Reply, ServiceConfig, ServiceServer};
use realloc_store::{DurableStore, MemIo, StoreIo};
use realloc_telemetry::{Counter, Telemetry};
use std::io::{self, ErrorKind};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What the test can see and set of the disk.
#[derive(Debug, Default)]
struct Disk {
    closed: bool,
    fail_next_sync: bool,
    /// `sync_file` calls currently parked on the closed gate.
    parked: usize,
    /// `sync_file` calls started, ever.
    syncs: u64,
    /// `append` calls completed, ever.
    appends: u64,
    /// `appends` and the store's gather count when the last `sync_file`
    /// started: what that fsync found, and whether its leader gathered.
    synced_appends: u64,
    gathers_seen: u64,
    /// Chunks covered by an fsync whose leader sat out a gather first.
    gathered_chunks: u64,
}

/// [`MemIo`] whose `sync_file` waits while the gate is closed, and once
/// through it fails if told to, or else takes `sync_sleeps`.
#[derive(Debug, Default)]
struct GateIo {
    inner: MemIo,
    disk: Mutex<Disk>,
    changed: Condvar,
    sync_sleeps: Duration,
    /// The store's gather outcomes (hits, timeouts), read at each
    /// `sync_file`: a leader counts its gather just before it fsyncs.
    gathers: [Counter; 2],
}

impl GateIo {
    fn set(&self, change: impl FnOnce(&mut Disk)) {
        change(&mut self.disk.lock().unwrap());
        self.changed.notify_all();
    }

    fn read<T>(&self, get: impl FnOnce(&Disk) -> T) -> T {
        get(&self.disk.lock().unwrap())
    }

    /// Blocks until `reached` holds (a minute at most: a hang is a
    /// failure, not a stuck CI job).
    fn wait_until(&self, what: &str, reached: impl Fn(&Disk) -> bool) {
        let disk = self.disk.lock().unwrap();
        let (_disk, timeout) = self
            .changed
            .wait_timeout_while(disk, Duration::from_secs(60), |d| !reached(d))
            .unwrap();
        assert!(!timeout.timed_out(), "never happened: {what}");
    }
}

impl StoreIo for GateIo {
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
        self.inner.append(path, data)?;
        self.set(|d| d.appends += 1);
        Ok(())
    }
    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let mut disk = self.disk.lock().unwrap();
        disk.syncs += 1;
        let gathers = self.gathers.iter().map(Counter::get).sum();
        if gathers > disk.gathers_seen {
            disk.gathered_chunks += disk.appends - disk.synced_appends;
        }
        (disk.gathers_seen, disk.synced_appends) = (gathers, disk.appends);
        if disk.closed {
            disk.parked += 1;
            self.changed.notify_all();
            disk = self.changed.wait_while(disk, |d| d.closed).unwrap();
            disk.parked -= 1;
        }
        if std::mem::take(&mut disk.fail_next_sync) {
            return Err(io::Error::other("gate: fsync failed"));
        }
        drop(disk);
        std::thread::sleep(self.sync_sleeps);
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

/// A durable serving tier over `io`.
fn serve(io: &Arc<GateIo>, telemetry: &Telemetry) -> ServiceServer {
    let mut engine = Engine::new(EngineConfig {
        shards: 2,
        machines_per_shard: 4,
        backend: BackendKind::TheoremOne { gamma: 8 },
        parallel: false,
        journal: true,
        retained_segments: 2,
    });
    let mut store = DurableStore::create(
        Arc::clone(io) as Arc<dyn StoreIo>,
        Path::new("/store"),
        engine.journal().expect("journaled").config(),
    )
    .expect("create store");
    store.attach_telemetry(telemetry);
    engine.attach_telemetry(telemetry);
    engine.attach_durability(Box::new(store)).expect("attach");
    let config = ServiceConfig {
        flush: FlushMode::Durable,
        read_timeout: Some(Duration::from_secs(60)),
        ..ServiceConfig::default()
    };
    ServiceServer::bind("127.0.0.1:0", engine, config, telemetry).expect("bind service")
}

/// The command a well-formed line parses to.
fn cmd(line: &str) -> Command {
    Command::parse(line).expect("a well-formed command")
}

/// Whether a reply admits a mutation.
fn admitted(reply: &Reply) -> bool {
    matches!(reply, Reply::Placed(_) | Reply::Removed(_))
}

fn connect(server: &ServiceServer) -> QosClient {
    let mut client = QosClient::connect(server.addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    client
}

/// Asserts that no reply reaches `client` within a short while.
fn assert_no_reply_yet(client: &mut QosClient, whose: &str) {
    client
        .set_read_timeout(Some(Duration::from_millis(60)))
        .unwrap();
    match client.recv() {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("{whose} was answered before its commit: {other:?}"),
    }
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
}

#[test]
fn the_commit_waits_for_the_disk_with_the_engine_unlocked() {
    let io = Arc::new(GateIo::default());
    let telemetry = Telemetry::new();
    let server = serve(&io, &telemetry);
    let (mut a, mut b, mut c) = (connect(&server), connect(&server), connect(&server));

    // Job 1 is placed and durable before the gate closes.
    assert!(matches!(
        a.call(cmd("place 1 1 0 8")).unwrap(),
        Reply::Placed(_)
    ));
    let syncs_before = io.read(|d| d.syncs);

    // A places job 2; its commit parks inside `sync_file`.
    io.set(|d| d.closed = true);
    a.send(&[cmd("place 1 2 16 24")]).unwrap();
    io.wait_until("A's fsync parks", |d| d.parked == 1);

    // The engine lock is free while that fsync is in flight: nobody
    // else is active, so an embedder gets it at the first attempt …
    let engine = server.engine();
    drop(
        engine
            .try_lock()
            .expect("the engine mutex is held across sync_file"),
    );
    // … and a read of durable state on another connection is answered.
    assert_eq!(
        b.call(cmd("window 1 1")).unwrap(),
        Reply::WindowIs(Window::new(0, 8))
    );

    // B's read of the job A just placed is evaluated, but held back.
    b.send(&[cmd("window 1 2")]).unwrap();
    // C's mutation is staged meanwhile: its append reaches the store
    // while A's fsync is still parked.
    let appends_before = io.read(|d| d.appends);
    c.send(&[cmd("place 1 3 32 40")]).unwrap();
    io.wait_until("C's batch is appended during A's fsync", |d| {
        d.appends == appends_before + 1
    });
    assert_eq!(io.read(|d| (d.closed, d.parked)), (true, 1));
    assert_no_reply_yet(&mut a, "A's placement");
    assert_no_reply_yet(&mut b, "B's read of A's undurable job");
    assert_no_reply_yet(&mut c, "C's placement");

    // The disk comes back: everyone is answered, and B's held-back read
    // and C's batch cost one further fsync between them.
    io.set(|d| d.closed = false);
    assert!(matches!(a.recv().unwrap(), Reply::Placed(_)));
    assert_eq!(b.recv().unwrap(), Reply::WindowIs(Window::new(16, 24)));
    assert!(matches!(c.recv().unwrap(), Reply::Placed(_)));
    assert_eq!(
        io.read(|d| d.syncs) - syncs_before,
        2,
        "A's fsync, then one for B and C together"
    );
    assert_eq!(
        telemetry.counter_value("store_commits_covered_total"),
        Some(1),
        "one of B and C rode the other's fsync"
    );
    let fsyncs = telemetry.histogram_snapshot("store_fsync_nanos").unwrap();
    assert_eq!(fsyncs.count(), 3, "job 1, A, and one for B and C");

    // Everything acknowledged is on the simulated platter.
    let engine = engine.lock().unwrap();
    assert_eq!(engine.durability_error(), None);
    assert_eq!(engine.active_count(), 3);
}

#[test]
fn a_failed_commit_refuses_the_batch_answers_its_reads_and_sticks() {
    let io = Arc::new(GateIo::default());
    let telemetry = Telemetry::new();
    let server = serve(&io, &telemetry);
    let mut client = connect(&server);
    assert!(matches!(
        client.call(cmd("place 1 1 0 8")).unwrap(),
        Reply::Placed(_)
    ));

    io.set(|d| d.fail_next_sync = true);
    for line in ["place 1 2 16 24", "place 1 3 32 40", "window 1 1"] {
        client.send(&[cmd(line)]).unwrap();
    }
    for _ in 0..2 {
        match client.recv().unwrap() {
            Reply::Err(detail) => {
                assert!(detail.starts_with("durability: "), "got: {detail}");
                assert!(detail.contains("gate: fsync failed"), "got: {detail}");
            }
            other => panic!("an undurable mutation must be refused: {other:?}"),
        }
    }
    assert_eq!(client.recv().unwrap(), Reply::WindowIs(Window::new(0, 8)));

    // The failure reached the engine (the handler re-locked it once to
    // record it) and sticks: later mutations are refused, with no
    // further fsync attempted; reads keep answering.
    assert!(server
        .engine()
        .lock()
        .unwrap()
        .durability_error()
        .is_some_and(|e| e.contains("gate: fsync failed")));
    let syncs = io.read(|d| d.syncs);
    match client.call(cmd("place 1 4 48 56")).unwrap() {
        Reply::Err(detail) => {
            assert!(detail.starts_with("durability: "), "got: {detail}")
        }
        other => panic!("mutations after a failed commit must be refused: {other:?}"),
    }
    assert_eq!(io.read(|d| d.syncs), syncs);
    assert_eq!(
        client.call(cmd("window 1 1")).unwrap(),
        Reply::WindowIs(Window::new(0, 8))
    );
    assert_eq!(
        telemetry.counter_value("store_commits_covered_total"),
        Some(0)
    );
}

/// Most commands one batch services, at the default config.
fn max_batch() -> u64 {
    ServiceConfig::default().max_batch as u64
}

/// Tenant 1's job `id` as the engine names it in a reply.
fn global(id: u64) -> JobId {
    Engine::global_id_of(TenantId(1), JobId(id)).unwrap()
}

/// Sends `commands` as one window with the gate closed and waits until
/// the first batch's fsync is parked; returns the store's appends and
/// fsyncs from before the send to that point.
fn send_behind_a_parked_fsync(
    io: &GateIo,
    client: &mut QosClient,
    commands: &[Command],
) -> (u64, u64) {
    let (appends, syncs) = io.read(|d| (d.appends, d.syncs));
    io.set(|d| d.closed = true);
    client.send(commands).unwrap();
    io.wait_until("the first batch's fsync parks", |d| d.parked == 1);
    io.read(|d| (d.appends - appends, d.syncs - syncs))
}

#[test]
fn a_full_batch_stages_the_next_before_it_waits() {
    let io = Arc::new(GateIo::default());
    let telemetry = Telemetry::new();
    let server = serve(&io, &telemetry);
    let mut client = connect(&server);
    let syncs = io.read(|d| d.syncs);

    // Two full batches in one write: job k/2 placed, then removed.
    let commands: Vec<Command> = (0..2 * max_batch())
        .map(|k| match k % 2 {
            0 => cmd(&format!("place 1 {} 0 8", k / 2)),
            _ => cmd(&format!("remove 1 {}", k / 2)),
        })
        .collect();
    assert_eq!(
        send_behind_a_parked_fsync(&io, &mut client, &commands),
        (2, 1),
        "both batches appended while the first one's fsync is parked"
    );
    assert_no_reply_yet(&mut client, "a batch behind the parked fsync");

    io.set(|d| d.closed = false);
    for k in 0..2 * max_batch() {
        let want = match k % 2 {
            0 => Reply::Placed(global(k / 2)),
            _ => Reply::Removed(global(k / 2)),
        };
        assert_eq!(client.recv().unwrap(), want, "reply {k}");
    }
    assert_eq!(
        io.read(|d| d.syncs) - syncs,
        1,
        "one fsync for both batches"
    );
    let sizes = telemetry.histogram_snapshot("store_sync_chunks").unwrap();
    assert_eq!((sizes.count(), sizes.sum()), (1, 2));
    assert_eq!(
        telemetry.counter_value("store_commits_covered_total"),
        Some(1),
        "the second batch's wait rode the first one's fsync"
    );
}

#[test]
fn a_failed_commit_refuses_both_staged_batches_and_answers_their_reads() {
    let io = Arc::new(GateIo::default());
    let telemetry = Telemetry::new();
    let server = serve(&io, &telemetry);
    let mut client = connect(&server);
    assert!(matches!(
        client.call(cmd("place 1 1 0 8")).unwrap(),
        Reply::Placed(_)
    ));
    let syncs = io.read(|d| d.syncs);

    // Each batch opens with a read of job 1; the rest place new jobs.
    let commands: Vec<Command> = (0..2 * max_batch())
        .map(|k| match k % max_batch() {
            0 => cmd("window 1 1"),
            _ => cmd(&format!("place 1 {} {} {}", 100 + k, 8 * k, 8 * k + 8)),
        })
        .collect();
    assert_eq!(
        send_behind_a_parked_fsync(&io, &mut client, &commands),
        (2, 1)
    );
    io.set(|d| {
        d.fail_next_sync = true;
        d.closed = false;
    });
    for k in 0..2 * max_batch() {
        match client.recv().unwrap() {
            Reply::WindowIs(w) if k % max_batch() == 0 && w == Window::new(0, 8) => {}
            Reply::Err(detail) if k % max_batch() != 0 => {
                assert!(detail.starts_with("durability: "), "reply {k}: {detail}");
                assert!(detail.contains("gate: fsync failed"), "reply {k}: {detail}");
            }
            other => panic!("reply {k}: {other:?}"),
        }
    }
    assert_eq!(io.read(|d| d.syncs) - syncs, 1, "one failed fsync for both");
    assert!(server
        .engine()
        .lock()
        .unwrap()
        .durability_error()
        .is_some_and(|e| e.contains("gate: fsync failed")));
}

#[test]
fn a_read_in_the_second_batch_of_a_job_the_first_placed_waits_for_its_commit() {
    let io = Arc::new(GateIo::default());
    let telemetry = Telemetry::new();
    let server = serve(&io, &telemetry);
    let mut client = connect(&server);
    let syncs = io.read(|d| d.syncs);

    // The first batch places jobs; the second only reads them back.
    let jobs = max_batch();
    let commands: Vec<Command> = (0..jobs)
        .map(|j| cmd(&format!("place 1 {j} {} {}", 8 * j, 8 * j + 8)))
        .chain((0..jobs).map(|j| cmd(&format!("window 1 {j}"))))
        .collect();
    assert_eq!(
        send_behind_a_parked_fsync(&io, &mut client, &commands),
        (1, 1),
        "a read-only batch appends nothing"
    );
    assert_no_reply_yet(&mut client, "a read of a job whose commit is parked");

    io.set(|d| d.closed = false);
    for j in 0..jobs {
        assert_eq!(client.recv().unwrap(), Reply::Placed(global(j)));
    }
    for j in 0..jobs {
        assert_eq!(
            client.recv().unwrap(),
            Reply::WindowIs(Window::new(8 * j, 8 * j + 8))
        );
    }
    assert_eq!(io.read(|d| d.syncs) - syncs, 1);
    assert_eq!(
        telemetry.counter_value("store_commits_covered_total"),
        Some(1),
        "the reads took a barrier on the placements' commit, before it ran"
    );
}

/// A disk whose every fsync takes 2 ms.
const SYNC: Duration = Duration::from_millis(2);

fn slow_disk(telemetry: &Telemetry) -> Arc<GateIo> {
    Arc::new(GateIo {
        sync_sleeps: SYNC,
        gathers: ["store_gather_hits_total", "store_gather_timeouts_total"]
            .map(|name| telemetry.counter(name)),
        ..GateIo::default()
    })
}

#[test]
fn two_pipelining_connections_share_their_fsyncs() {
    const WINDOWS: u64 = 40;
    const DEPTH: u64 = 8;
    let telemetry = Telemetry::new();
    let io = slow_disk(&telemetry);
    let server = serve(&io, &telemetry);
    let syncs_before = io.read(|d| d.syncs);
    std::thread::scope(|threads| {
        for tenant in 1..=2u64 {
            let mut client = connect(&server);
            threads.spawn(move || {
                // A closed loop: the next window goes out when the last
                // one is answered. Each is one write, so one batch.
                for window in 0..WINDOWS {
                    let commands: Vec<Command> = (0..DEPTH / 2)
                        .flat_map(|k| {
                            let id = window * DEPTH + k;
                            [
                                cmd(&format!("place {tenant} {id} {} {}", 8 * k, 8 * k + 8)),
                                cmd(&format!("remove {tenant} {id}")),
                            ]
                        })
                        .collect();
                    client.send(&commands).unwrap();
                    for _ in 0..DEPTH / 2 {
                        assert!(matches!(client.recv().unwrap(), Reply::Placed(_)));
                        assert!(matches!(client.recv().unwrap(), Reply::Removed(_)));
                    }
                }
            });
        }
    });
    // Leading at once, the two alternate and every window pays for its
    // own fsync; gathered, one fsync carries both connections' windows.
    let syncs = io.read(|d| d.syncs) - syncs_before;
    let windows = 2 * WINDOWS;
    assert!(
        syncs * 100 <= windows * 65,
        "{syncs} fsyncs for {windows} windows: group commit is not grouping"
    );
    let sizes = telemetry.histogram_snapshot("store_sync_chunks").unwrap();
    assert_eq!((sizes.count(), sizes.sum()), (syncs, windows));
}

#[test]
fn timer_driven_connections_do_not_pay_for_the_gather() {
    // Independent users: every connection sends one command per tick,
    // whatever became of the last, each on a phase of its own (in
    // hundredths of a tick; two pairs land inside one fsync of each
    // other on every tick, the rest find the disk idle). Were every
    // command to need an fsync of its own the disk could take one per
    // `SYNC`; this is half that rate.
    const PHASES: [u32; 8] = [0, 16, 22, 38, 51, 54, 72, 88];
    const TICKS: u32 = 30;
    let tick = 2 * PHASES.len() as u32 * SYNC;
    let telemetry = Telemetry::new();
    let io = slow_disk(&telemetry);
    let server = serve(&io, &telemetry);

    let (syncs_before, paid_before) = io.read(|d| (d.syncs, d.gathered_chunks));
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|threads| {
        for (tenant, phase) in (1..).zip(PHASES) {
            let mut client = connect(&server);
            threads.spawn(move || {
                for k in 0..TICKS {
                    let due = start + tick * phase / 100 + k * tick;
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    let command = if k % 2 == 0 {
                        format!("place {tenant} 1 0 8")
                    } else {
                        format!("remove {tenant} 1")
                    };
                    assert!(admitted(&client.call(cmd(&command)).unwrap()));
                }
            });
        }
    });
    let (syncs, paid) = io.read(|d| (d.syncs - syncs_before, d.gathered_chunks - paid_before));
    let commands = u64::from(TICKS) * PHASES.len() as u64;
    let timeouts = telemetry
        .counter_value("store_gather_timeouts_total")
        .expect("registered by the store");
    // The second of a pair queues behind the first's fsync and then
    // expects it back, in vain: the wait backs off instead of being paid
    // on every tick, and the median command, which found the disk idle,
    // never rides an fsync that waited for a gather. Counted, not timed:
    // a loaded host slows every command alike.
    assert!(
        paid * 2 < commands,
        "{paid} of {commands} commands rode an fsync whose leader gathered first"
    );
    assert!(
        timeouts * 10 <= syncs,
        "{timeouts} of {syncs} fsyncs sat out a gather"
    );
}
