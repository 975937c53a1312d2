//! The store's file-system seam: every byte the durability tier reads
//! or writes goes through [`StoreIo`], so the same store code runs
//! against the real file system ([`FsIo`]), a crash-simulating
//! in-memory file system ([`MemIo`]), and a deterministic fault
//! injector ([`FaultIo`]) that the crash-matrix harness drives.
//!
//! # The durability model [`MemIo`] simulates
//!
//! POSIX durability is two-level: `write` makes bytes visible, `fsync`
//! makes them stable; creating/renaming/unlinking a file makes the
//! *directory entry* visible, and only an `fsync` of the directory
//! makes it stable. [`MemIo`] tracks both levels — per-file synced
//! length, per-directory durable name set — and [`MemIo::crash`]
//! discards everything volatile according to a [`CrashMode`]. A store
//! that survives every `MemIo` crash point has its write ordering
//! right, not just its happy path.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Abstract file I/O for the store; see the module docs. All methods
/// take `&self` (implementations use interior mutability) so one
/// `Arc<dyn StoreIo>` can be shared between a store and a harness.
pub trait StoreIo: Send + Sync + std::fmt::Debug {
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// File names (not paths) directly inside `dir`.
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// The entire contents of `path`.
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Appends `data` to `path`, creating it if absent. Visibility only
    /// — durability needs [`StoreIo::sync_file`].
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// `fsync(path)`: appended bytes are stable when this returns `Ok`.
    fn sync_file(&self, path: &Path) -> io::Result<()>;
    /// `fsync` of the directory: create/rename/unlink entries under
    /// `dir` are stable when this returns `Ok`.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Atomically renames `from` to `to` (same directory).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Unlinks `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Truncates `path` to `len` bytes (torn-tail repair).
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
}

// ----------------------------------------------------------------------
// Real file system
// ----------------------------------------------------------------------

/// [`StoreIo`] over `std::fs` — the production implementation.
#[derive(Debug, Default)]
pub struct FsIo;

impl FsIo {
    /// A real-fs handle.
    pub fn new() -> FsIo {
        FsIo
    }
}

impl StoreIo for FsIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            names.push(entry?.file_name().to_string_lossy().into_owned());
        }
        names.sort();
        Ok(names)
    }

    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(data)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Opening a directory read-only and fsyncing it is the portable
        // std-only way to persist its entries on Unix; on platforms
        // where directories cannot be fsynced this degrades to a no-op
        // error swallow (Windows has no dir-entry durability gap API).
        match std::fs::File::open(dir) {
            Ok(d) => d.sync_all().or(Ok(())),
            Err(e) => Err(e),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(len)
    }
}

// ----------------------------------------------------------------------
// Crash-simulating in-memory file system
// ----------------------------------------------------------------------

/// What survives a simulated crash; see [`MemIo::crash`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashMode {
    /// Only explicitly synced state survives: file contents revert to
    /// their last `sync_file` length, directory entries to their last
    /// `sync_dir` set. The strictest honest-disk model.
    SyncedOnly,
    /// Like [`CrashMode::SyncedOnly`], but half of each file's unsynced
    /// suffix also lands (rounded up) — the page-cache partial
    /// write-back that produces **torn records** mid-record.
    TornTail,
    /// Everything written survives, synced or not — an OS that flushed
    /// its caches before the process died. Recovery may legitimately
    /// see *more* than was acknowledged.
    AllWritten,
}

#[derive(Debug, Default, Clone)]
struct MemFile {
    data: Vec<u8>,
    synced: usize,
}

#[derive(Debug, Default)]
struct MemState {
    /// Live (visible) files.
    files: BTreeMap<PathBuf, MemFile>,
    /// Per-directory durable entry sets (names whose create/rename/
    /// unlink was covered by a `sync_dir`).
    durable_names: BTreeMap<PathBuf, BTreeSet<String>>,
    dirs: BTreeSet<PathBuf>,
}

/// In-memory [`StoreIo`] with POSIX-style two-level durability and a
/// deterministic [`MemIo::crash`]; see the module docs.
#[derive(Debug, Default)]
pub struct MemIo {
    state: Mutex<MemState>,
}

fn split(path: &Path) -> io::Result<(PathBuf, String)> {
    let parent = path.parent().unwrap_or_else(|| Path::new("")).to_path_buf();
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?
        .to_string_lossy()
        .into_owned();
    Ok((parent, name))
}

impl MemIo {
    /// An empty in-memory file system.
    pub fn new() -> MemIo {
        MemIo::default()
    }

    /// Simulates a machine crash: discards all volatile state per
    /// `mode`. Afterwards the surviving files are readable — point a
    /// recovery at this handle to test the crash.
    pub fn crash(&self, mode: CrashMode) {
        let mut s = self.state.lock().expect("memio state poisoned");
        if mode == CrashMode::AllWritten {
            for f in s.files.values_mut() {
                f.synced = f.data.len();
            }
            let names: Vec<(PathBuf, String)> =
                s.files.keys().filter_map(|p| split(p).ok()).collect();
            for (dir, name) in names {
                s.durable_names.entry(dir).or_default().insert(name);
            }
            return;
        }
        let mut survivors: BTreeMap<PathBuf, MemFile> = BTreeMap::new();
        let files = std::mem::take(&mut s.files);
        for (path, mut file) in files {
            let Ok((dir, name)) = split(&path) else {
                continue;
            };
            // A file survives only if its directory entry was durable.
            if !s
                .durable_names
                .get(&dir)
                .is_some_and(|set| set.contains(&name))
            {
                continue;
            }
            let keep = match mode {
                CrashMode::SyncedOnly => file.synced,
                CrashMode::TornTail => {
                    let unsynced = file.data.len() - file.synced;
                    file.synced + unsynced.div_ceil(2)
                }
                CrashMode::AllWritten => unreachable!("handled above"),
            };
            file.data.truncate(keep);
            file.synced = file.data.len().min(file.synced);
            survivors.insert(path, file);
        }
        s.files = survivors;
        // Durable names with no surviving file content vanish (the
        // entry pointed at an inode whose data never landed).
        let live: BTreeSet<PathBuf> = s.files.keys().cloned().collect();
        for (dir, set) in s.durable_names.iter_mut() {
            set.retain(|name| live.contains(&dir.join(name)));
        }
    }

    /// Flips one bit of a live file (fault injection). Errors when the
    /// file is absent or shorter than `byte`.
    pub fn flip_bit(&self, path: &Path, byte: usize, bit: u8) -> io::Result<()> {
        let mut s = self.state.lock().expect("memio state poisoned");
        let f = s
            .files
            .get_mut(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        if byte >= f.data.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "flip offset past end of file",
            ));
        }
        f.data[byte] ^= 1 << (bit % 8);
        Ok(())
    }

    /// Length of a live file, if present (test instrumentation).
    pub fn file_len(&self, path: &Path) -> Option<usize> {
        let s = self.state.lock().expect("memio state poisoned");
        s.files.get(path).map(|f| f.data.len())
    }
}

impl StoreIo for MemIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut s = self.state.lock().expect("memio state poisoned");
        s.dirs.insert(dir.to_path_buf());
        s.durable_names.entry(dir.to_path_buf()).or_default();
        Ok(())
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let s = self.state.lock().expect("memio state poisoned");
        if !s.dirs.contains(dir) && !s.durable_names.contains_key(dir) {
            return Err(io::Error::new(io::ErrorKind::NotFound, "no such directory"));
        }
        let mut names: Vec<String> = s
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect();
        names.sort();
        Ok(names)
    }

    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        let s = self.state.lock().expect("memio state poisoned");
        s.files
            .get(path)
            .map(|f| f.data.clone())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut s = self.state.lock().expect("memio state poisoned");
        s.files
            .entry(path.to_path_buf())
            .or_default()
            .data
            .extend_from_slice(data);
        Ok(())
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let mut s = self.state.lock().expect("memio state poisoned");
        let f = s
            .files
            .get_mut(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        f.synced = f.data.len();
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut s = self.state.lock().expect("memio state poisoned");
        let live: BTreeSet<String> = s
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect();
        s.durable_names.insert(dir.to_path_buf(), live);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut s = self.state.lock().expect("memio state poisoned");
        let f = s
            .files
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        s.files.insert(to.to_path_buf(), f);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut s = self.state.lock().expect("memio state poisoned");
        s.files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut s = self.state.lock().expect("memio state poisoned");
        let f = s
            .files
            .get_mut(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        f.data.truncate(len as usize);
        f.synced = f.synced.min(f.data.len());
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Deterministic fault injector
// ----------------------------------------------------------------------

#[derive(Debug, Default)]
struct FaultCtl {
    /// Crash after this many mutating ops have *started* (the op that
    /// reaches the count fails without applying).
    crash_at: Option<u64>,
    mode: Option<CrashMode>,
    crashed: bool,
    /// Fail (with an error) the nth `sync_file`/`sync_dir`, 1-based.
    fail_fsync_at: Option<u64>,
    fsyncs: u64,
    /// Report fsync success without actually syncing — the lying-disk
    /// fault. No-loss is explicitly NOT guaranteed under it; recovery
    /// must merely stay graceful.
    ignore_fsync: bool,
}

/// A [`StoreIo`] wrapper around [`MemIo`] that injects deterministic
/// faults: a crash at the N-th mutating operation (the crash-matrix
/// schedule), failed or silently ignored fsyncs, and bit flips. Counts
/// every injected fault, optionally into a
/// `store_injected_faults_total` telemetry counter.
#[derive(Debug, Default)]
pub struct FaultIo {
    inner: MemIo,
    ctl: Mutex<FaultCtl>,
    ops: AtomicU64,
    injected: AtomicU64,
    tele: Mutex<Option<realloc_telemetry::Counter>>,
}

impl FaultIo {
    /// A fault injector over a fresh in-memory file system.
    pub fn new() -> FaultIo {
        FaultIo::default()
    }

    /// The wrapped in-memory file system (for direct inspection and
    /// [`MemIo::flip_bit`]-style tampering).
    pub fn inner(&self) -> &MemIo {
        &self.inner
    }

    /// Mutating operations started so far (the crash-point space).
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Faults injected so far (crashes, failed/ignored fsyncs, flips).
    pub fn injected_faults(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Whether the scheduled crash has fired.
    pub fn crashed(&self) -> bool {
        self.ctl.lock().expect("fault ctl poisoned").crashed
    }

    /// Schedules a crash at mutating op `n` (1-based): that op and all
    /// later mutations fail, and the file system reverts per `mode`.
    /// Reads keep working — they serve the post-crash recovery view.
    pub fn crash_at(&self, n: u64, mode: CrashMode) {
        let mut ctl = self.ctl.lock().expect("fault ctl poisoned");
        ctl.crash_at = Some(n);
        ctl.mode = Some(mode);
    }

    /// Clears a fired (or pending) crash: mutating operations work
    /// again over whatever survived — "the machine came back up". The
    /// recovery harness revives before re-opening the store.
    pub fn revive(&self) {
        let mut ctl = self.ctl.lock().expect("fault ctl poisoned");
        ctl.crashed = false;
        ctl.crash_at = None;
        ctl.mode = None;
    }

    /// Makes the `n`-th fsync (file or dir, 1-based, counted together)
    /// return an error without crashing.
    pub fn fail_fsync_at(&self, n: u64) {
        self.ctl.lock().expect("fault ctl poisoned").fail_fsync_at = Some(n);
    }

    /// Turns every fsync into a silent no-op (the lying disk).
    pub fn ignore_fsyncs(&self, on: bool) {
        self.ctl.lock().expect("fault ctl poisoned").ignore_fsync = on;
    }

    /// Flips one bit of a stored file (counts as an injected fault).
    pub fn flip_bit(&self, path: &Path, byte: usize, bit: u8) -> io::Result<()> {
        self.inner.flip_bit(path, byte, bit)?;
        self.count_fault();
        Ok(())
    }

    /// Counts injected faults into `store_injected_faults_total` as
    /// well; a disabled handle detaches.
    pub fn attach_telemetry(&self, telemetry: &realloc_telemetry::Telemetry) {
        let counter = telemetry
            .is_enabled()
            .then(|| telemetry.counter("store_injected_faults_total"));
        *self.tele.lock().expect("fault tele poisoned") = counter;
    }

    fn count_fault(&self) {
        self.injected.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = self.tele.lock().expect("fault tele poisoned").as_ref() {
            c.inc();
        }
    }

    /// Gate for every mutating op: advances the op counter and fires
    /// the scheduled crash when the count is reached.
    fn mutating(&self) -> io::Result<()> {
        let n = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        let mut ctl = self.ctl.lock().expect("fault ctl poisoned");
        if ctl.crashed {
            return Err(io::Error::other("injected crash: store is down"));
        }
        if ctl.crash_at == Some(n) {
            ctl.crashed = true;
            let mode = ctl.mode.unwrap_or(CrashMode::SyncedOnly);
            drop(ctl);
            self.inner.crash(mode);
            self.count_fault();
            return Err(io::Error::other(format!("injected crash at op {n}")));
        }
        Ok(())
    }

    /// Additional gate for fsyncs: fail-at-N and ignore faults. Returns
    /// `Ok(true)` when the sync should actually be performed.
    fn fsync_gate(&self) -> io::Result<bool> {
        let mut ctl = self.ctl.lock().expect("fault ctl poisoned");
        ctl.fsyncs += 1;
        if ctl.fail_fsync_at == Some(ctl.fsyncs) {
            drop(ctl);
            self.count_fault();
            return Err(io::Error::other("injected fsync failure"));
        }
        if ctl.ignore_fsync {
            drop(ctl);
            self.count_fault();
            return Ok(false);
        }
        Ok(true)
    }
}

impl StoreIo for FaultIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.mutating()?;
        self.inner.create_dir_all(dir)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list_dir(dir)
    }

    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read_file(path)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.mutating()?;
        self.inner.append(path, data)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.mutating()?;
        if self.fsync_gate()? {
            self.inner.sync_file(path)?;
        }
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.mutating()?;
        if self.fsync_gate()? {
            self.inner.sync_dir(dir)?;
        }
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.mutating()?;
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.mutating()?;
        self.inner.remove_file(path)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.mutating()?;
        self.inner.truncate(path, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synced_only_crash_drops_unsynced_suffix_and_unsynced_entries() {
        let io = MemIo::new();
        let dir = Path::new("/s");
        io.create_dir_all(dir).unwrap();
        io.append(&dir.join("a"), b"hello").unwrap();
        io.sync_file(&dir.join("a")).unwrap();
        io.sync_dir(dir).unwrap();
        io.append(&dir.join("a"), b" world").unwrap(); // unsynced suffix
        io.append(&dir.join("b"), b"new").unwrap(); // unsynced entry
        io.crash(CrashMode::SyncedOnly);
        assert_eq!(io.read_file(&dir.join("a")).unwrap(), b"hello");
        assert!(io.read_file(&dir.join("b")).is_err());
        assert_eq!(io.list_dir(dir).unwrap(), vec!["a".to_string()]);
    }

    #[test]
    fn torn_tail_crash_keeps_half_the_unsynced_suffix() {
        let io = MemIo::new();
        let dir = Path::new("/s");
        io.create_dir_all(dir).unwrap();
        io.append(&dir.join("a"), b"0123").unwrap();
        io.sync_file(&dir.join("a")).unwrap();
        io.sync_dir(dir).unwrap();
        io.append(&dir.join("a"), b"abcdef").unwrap();
        io.crash(CrashMode::TornTail);
        assert_eq!(io.read_file(&dir.join("a")).unwrap(), b"0123abc");
    }

    #[test]
    fn rename_needs_dir_sync_to_survive() {
        let io = MemIo::new();
        let dir = Path::new("/s");
        io.create_dir_all(dir).unwrap();
        io.append(&dir.join("x.tmp"), b"payload").unwrap();
        io.sync_file(&dir.join("x.tmp")).unwrap();
        io.rename(&dir.join("x.tmp"), &dir.join("x")).unwrap();
        // No sync_dir: the new entry is volatile.
        io.crash(CrashMode::SyncedOnly);
        assert!(io.read_file(&dir.join("x")).is_err());
    }

    #[test]
    fn fault_io_crash_schedule_is_deterministic() {
        let run = |crash_at: Option<u64>| {
            let io = FaultIo::new();
            if let Some(n) = crash_at {
                io.crash_at(n, CrashMode::SyncedOnly);
            }
            let dir = Path::new("/s");
            let mut errs = 0;
            for op in [
                io.create_dir_all(dir),
                io.append(&dir.join("a"), b"x"),
                io.sync_file(&dir.join("a")),
                io.sync_dir(dir),
            ] {
                errs += op.is_err() as u32;
            }
            (io.ops(), errs)
        };
        assert_eq!(run(None), (4, 0));
        // Crash at op 2: op 2, 3, 4 all fail.
        assert_eq!(run(Some(2)), (4, 3));
    }
}
