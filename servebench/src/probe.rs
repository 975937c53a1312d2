//! Harness-side spans: timing decorators over the program's public
//! traits (`StoreIo`, `DurabilitySink`, `FrameSink`). Only the traced
//! run and the isolated layer measurements install them; the
//! end-to-end run has none. [`PacedIo`] is not a span but the disk every
//! deployed store writes to, in both runs.

use realloc_sched::cluster::transport::TransportError;
use realloc_sched::engine::{Checkpoint, JournalEvent};
use realloc_sched::{DurabilitySink, EpochRecord, Frame, FrameSink, StoreIo};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Calls, total time and per-call samples of one decorated call site.
#[derive(Debug, Default)]
pub struct Tally {
    calls: AtomicU64,
    nanos: AtomicU64,
    bytes: AtomicU64,
    samples_us: Mutex<Vec<f64>>,
}

impl Tally {
    /// Runs `f`, recording its duration as one call.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.record(t0.elapsed());
        out
    }

    /// Records one call that took `took`.
    pub fn record(&self, took: std::time::Duration) {
        let nanos = took.as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.samples_us
            .lock()
            .expect("tally samples poisoned")
            .push(nanos as f64 / 1e3);
    }

    fn add_bytes(&self, n: usize) {
        self.bytes.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// `(calls, nanos, bytes)` so far; subtract two readings for a phase.
    pub fn reading(&self) -> Reading {
        Reading {
            calls: self.calls.load(Ordering::Relaxed),
            nanos: self.nanos.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    /// Median call duration in microseconds over every call so far.
    pub fn p50_us(&self) -> f64 {
        let mut samples = self.samples_us.lock().expect("tally samples poisoned");
        crate::stats::percentile(&mut samples, 0.5)
    }
}

/// One reading of a [`Tally`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Reading {
    /// Calls made.
    pub calls: u64,
    /// Total time inside them.
    pub nanos: u64,
    /// Bytes they carried (where the call site has a size).
    pub bytes: u64,
}

impl Reading {
    /// What happened between `earlier` and `self`.
    pub fn since(self, earlier: Reading) -> Reading {
        Reading {
            calls: self.calls - earlier.calls,
            nanos: self.nanos - earlier.nanos,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Tallies of a [`TimedIo`].
#[derive(Debug, Default)]
pub struct IoTallies {
    /// `StoreIo::append`.
    pub append: Tally,
    /// `StoreIo::sync_file`.
    pub sync_file: Tally,
    /// `StoreIo::sync_dir`.
    pub sync_dir: Tally,
    /// What [`PacedIo`] waited on top of `sync_file`.
    pub pace: Tally,
}

/// `StoreIo` decorator timing the calls a flush makes.
#[derive(Debug)]
pub struct TimedIo {
    inner: Arc<dyn StoreIo>,
    tallies: Arc<IoTallies>,
}

impl TimedIo {
    /// Wraps `inner`, recording into `tallies`.
    pub fn new(inner: Arc<dyn StoreIo>, tallies: Arc<IoTallies>) -> TimedIo {
        TimedIo { inner, tallies }
    }
}

impl StoreIo for TimedIo {
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        self.inner.create_dir_all(dir)
    }
    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        self.inner.list_dir(dir)
    }
    fn read_file(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.inner.read_file(path)
    }
    fn append(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
        self.tallies.append.add_bytes(data.len());
        self.tallies.append.time(|| self.inner.append(path, data))
    }
    fn sync_file(&self, path: &Path) -> std::io::Result<()> {
        self.tallies.sync_file.time(|| self.inner.sync_file(path))
    }
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        self.tallies.sync_dir.time(|| self.inner.sync_dir(dir))
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove_file(path)
    }
    fn truncate(&self, path: &Path, len: u64) -> std::io::Result<()> {
        self.inner.truncate(path, len)
    }
}

/// How long a `sync_file` through [`PacedIo`] takes at least.
pub const SYNC_FLOOR: Duration = Duration::from_micros(500);

/// `StoreIo` decorator that is the benchmark's disk: `sync_file` does the
/// real `fsync` and then returns no sooner than [`SYNC_FLOOR`] after it
/// was called. It sleeps the rest, so the core is as free as it is during
/// the `fsync` itself.
///
/// The sandbox's `fsync` is a hypervisor's: its median wanders between
/// 170 and 350 µs from one minute to the next and a tenth of the calls
/// take over 450 µs, so a durable round trip, most of which is that one
/// call, read 196 or 298 µs on the same code an hour apart. Held to a
/// floor above nine tenths of the raw calls, the disk costs the same
/// from run to run (its per-second mean moves 5 % instead of 43 %), and
/// what is left to move the durable workloads is what the program does:
/// how many syncs a request costs and the processor time around them. A
/// faster raw `fsync` shows in `store.fsync_p50_us` and
/// `store.flush_durable_p50_us`, which are measured underneath.
#[derive(Debug)]
pub struct PacedIo {
    inner: Arc<dyn StoreIo>,
    tallies: Option<Arc<IoTallies>>,
}

impl PacedIo {
    /// Wraps `inner`; a traced run passes `tallies` to have the waits
    /// recorded as `pace`.
    pub fn new(inner: Arc<dyn StoreIo>, tallies: Option<Arc<IoTallies>>) -> PacedIo {
        PacedIo { inner, tallies }
    }
}

impl StoreIo for PacedIo {
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        self.inner.create_dir_all(dir)
    }
    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        self.inner.list_dir(dir)
    }
    fn read_file(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.inner.read_file(path)
    }
    fn append(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
        self.inner.append(path, data)
    }
    fn sync_file(&self, path: &Path) -> std::io::Result<()> {
        let called = Instant::now();
        self.inner.sync_file(path)?;
        let synced = Instant::now();
        std::thread::sleep((called + SYNC_FLOOR).saturating_duration_since(synced));
        if let Some(tallies) = &self.tallies {
            tallies.pace.record(synced.elapsed());
        }
        Ok(())
    }
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        self.inner.sync_dir(dir)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove_file(path)
    }
    fn truncate(&self, path: &Path, len: u64) -> std::io::Result<()> {
        self.inner.truncate(path, len)
    }
}

/// Tallies of a [`TimedSink`].
#[derive(Debug, Default)]
pub struct SinkTallies {
    /// `DurabilitySink::append_batch` (inside the engine's flush).
    pub append_batch: Tally,
    /// `DurabilitySink::sync` (the group commit, after the flush).
    pub sync: Tally,
}

/// `DurabilitySink` decorator around the store.
#[derive(Debug)]
pub struct TimedSink {
    inner: Box<dyn DurabilitySink>,
    tallies: Arc<SinkTallies>,
}

impl TimedSink {
    /// Wraps `inner`, recording into `tallies`.
    pub fn new(inner: Box<dyn DurabilitySink>, tallies: Arc<SinkTallies>) -> TimedSink {
        TimedSink { inner, tallies }
    }
}

impl DurabilitySink for TimedSink {
    fn append_batch(&mut self, events: &[JournalEvent]) -> Result<(), String> {
        let inner = &mut self.inner;
        self.tallies
            .append_batch
            .time(|| inner.append_batch(events))
    }
    fn append_epoch(&mut self, record: &EpochRecord) -> Result<(), String> {
        self.inner.append_epoch(record)
    }
    fn checkpoint(&mut self, checkpoint: &Checkpoint) -> Result<(), String> {
        self.inner.checkpoint(checkpoint)
    }
    fn sync(&mut self) -> Result<(), String> {
        let inner = &mut self.inner;
        self.tallies.sync.time(|| inner.sync())
    }
}

/// `FrameSink` decorator timing `send` (frame text + socket write +
/// any window stall).
#[derive(Debug)]
pub struct TimedLink<L> {
    inner: L,
    ship: Arc<Tally>,
}

impl<L: FrameSink> TimedLink<L> {
    /// Wraps `inner`, recording sends into `ship`.
    pub fn new(inner: L, ship: Arc<Tally>) -> TimedLink<L> {
        TimedLink { inner, ship }
    }
}

impl<L: FrameSink> FrameSink for TimedLink<L> {
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        let inner = &mut self.inner;
        self.ship.time(|| inner.send(frame))
    }
    fn drain(&mut self) -> Result<Option<u64>, TransportError> {
        self.inner.drain()
    }
    fn drain_to(&mut self, seq: u64) -> Result<Option<u64>, TransportError> {
        self.inner.drain_to(seq)
    }
    fn acked_seq(&self) -> Option<u64> {
        self.inner.acked_seq()
    }
    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }
}
