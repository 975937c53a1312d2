//! The durable store: an fsync'd on-disk tee under the engine's
//! in-memory journal, and the directory scan that reconstructs a
//! journal from it after a crash.
//!
//! # Write path
//!
//! [`DurableStore`] implements [`realloc_engine::DurabilitySink`]:
//!
//! * every flushed batch and epoch record becomes one framed record
//!   appended to the open segment file (`seg-NNNNNN.log`) and bumps the
//!   store's *appended* count — no fsync,
//! * the **group commit** is a separate step on the store's shared
//!   commit state ([`realloc_engine::CommitLog`], handed out by
//!   [`DurabilitySink::commit_log`]), which needs no access to the store
//!   itself: a *ticket* is an appended count, and a commit returns once
//!   the *durable watermark* covers it. The first waiter with an
//!   uncovered ticket leads — one `fsync` of the open segment covers
//!   everything appended before it began — and waiters behind it find
//!   themselves covered. `Engine::flush_mode` takes the ticket and its
//!   caller waits wherever it likes; `Engine::flush_durable` and
//!   [`DurableStore::sync`] commit everything appended so far,
//! * the leader **gathers before it leads**: it first waits for the
//!   committers the previous fsync had pending (closed loops, which a
//!   leader that syncs at once leaves alternating, one window per
//!   fsync), for at most the break-even share of that fsync. One pure
//!   policy decides whether and until when, on the store's one
//!   [`Clock`]; its driver, `CommitState::gather`, only waits. Three
//!   things never gather: [`DurableStore::sync`] (its caller holds the
//!   engine, so the awaited append cannot happen), a checkpoint's seal
//!   and a failed store; a checkpoint or an inline sync that wants the
//!   lead ends a gather in progress at once,
//! * a failed fsync is sticky: that commit, every ticket it left
//!   uncovered, and every later commit and checkpoint fail without
//!   touching the disk again, until a fresh store is opened,
//! * a checkpoint seals the segment (fsyncs any unsynced tail), writes
//!   `ckpt-NNNNNN.ckpt` via temp-file + `fsync` + atomic rename +
//!   directory `fsync`, starts segment `N`, and then unlinks sealed
//!   segments beyond the retention cap — the on-disk analogue of
//!   `EngineConfig::retained_segments`, byte-for-byte aligned with the
//!   in-memory journal's truncation so a recovered journal serializes
//!   identically to the one that crashed. It holds the commit lead
//!   from the seal to the roll, and the seal advances the watermark: a
//!   ticket taken before the roll never fsyncs the sealed file.
//!
//! # Recovery
//!
//! [`scan`] reads the directory back into journal v3 text:
//!
//! * `*.tmp` files are ignored (interrupted checkpoint writes — never
//!   acknowledged),
//! * a trailing segment file whose checkpoint never became durable, or
//!   whose header record is torn, is dropped (its creation was not
//!   acknowledged),
//! * a trailing checkpoint whose segment file never appeared is adopted
//!   as an empty segment (the crash hit between rename and segment
//!   creation),
//! * a torn tail in the **last** segment is truncated at the last valid
//!   record — never fatal,
//! * segments below the retention horizon (stale files from an
//!   interrupted unlink pass) are ignored,
//! * everything else — index gaps, corrupt records in sealed segments
//!   or checkpoints, unknown file names, config mismatches — is a
//!   located [`StoreError`], never a panic.
//!
//! The reconstructed text goes through [`Journal::from_text`] and the
//! engine's O(tail) checkpoint+tail recovery, so the on-disk tier
//! reuses the exact grammar, validation, and divergence detection of
//! the in-memory path.
//!
//! # Who owns which line
//!
//! The store owns its *framing*: file names, the length+CRC record
//! format ([`crate::format`]), and the first line of a segment header
//! (`seg N`) and of a checkpoint record (`ckpt N <batches>
//! <events-before>`). Everything else in a file is journal grammar,
//! written and read by the journal's own line writers and parsers —
//! [`Journal::write_config_line`] / [`Journal::parse_config_line`] under
//! both headers, [`JournalEvent::write_batch`] and
//! [`EpochRecord::write_line`] for chunks, [`Journal::write_header`] and
//! [`Checkpoint::write_record`] when [`scan`] reassembles a directory —
//! so no format string for a journal line lives in this crate.

use crate::format::{
    checkpoint_file_name, classify, segment_file_name, FileKind, RecordBuf, RecordReader,
};
use crate::io::{FsIo, StoreIo};
use crate::tele::StoreTele;
use realloc_core::clock::Clock;
use realloc_core::textio::ParseError;
use realloc_engine::{
    Checkpoint, CommitLog, DurabilitySink, Engine, EngineConfig, EpochRecord, Journal,
    JournalEvent, ReplayError,
};
use realloc_telemetry::Telemetry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Why a store operation or recovery failed. Every variant names the
/// file (and where applicable the byte offset) it tripped over.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O operation failed.
    Io {
        /// File (or directory) the operation targeted.
        file: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A file's contents are invalid at a known offset.
    Corrupt {
        /// The offending file name.
        file: String,
        /// Byte offset of the first invalid record.
        offset: usize,
        /// What was wrong.
        message: String,
    },
    /// The directory's file set is unusable (gaps, unknown names,
    /// nothing to recover from).
    Layout(String),
    /// The reconstructed journal text failed to parse.
    Journal(ParseError),
    /// The checkpoint restore or tail replay failed.
    Replay(ReplayError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { file, source } => write!(f, "store I/O on '{file}': {source}"),
            StoreError::Corrupt {
                file,
                offset,
                message,
            } => {
                write!(f, "corrupt store file '{file}' at byte {offset}: {message}")
            }
            StoreError::Layout(m) => write!(f, "unusable store directory: {m}"),
            StoreError::Journal(e) => write!(f, "reconstructed journal failed to parse: {e}"),
            StoreError::Replay(e) => write!(f, "recovery replay failed: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<ParseError> for StoreError {
    fn from(e: ParseError) -> Self {
        StoreError::Journal(e)
    }
}

impl From<ReplayError> for StoreError {
    fn from(e: ReplayError) -> Self {
        StoreError::Replay(e)
    }
}

fn io_err(file: impl Into<String>) -> impl FnOnce(std::io::Error) -> StoreError {
    let file = file.into();
    move |source| StoreError::Io { file, source }
}

// ----------------------------------------------------------------------
// Directory scan
// ----------------------------------------------------------------------

/// One parsed checkpoint file.
#[derive(Debug)]
struct CkptData {
    config: EngineConfig,
    checkpoint: Checkpoint,
}

/// One parsed segment file.
#[derive(Debug)]
struct SegData {
    config: EngineConfig,
    /// Concatenated chunk payloads (journal grammar lines, verbatim).
    chunks: String,
    /// Total file length that decoded cleanly.
    valid_len: usize,
    /// Bytes past `valid_len` (non-empty only for a torn tail).
    torn_bytes: usize,
}

/// What a [`scan`] found; consumed by recovery and [`DurableStore::open`].
#[derive(Debug)]
pub struct Scan {
    /// Reconstructed journal v3 text (feed to [`Journal::from_text`]).
    pub text: String,
    /// Oldest retained segment index.
    pub lo: u64,
    /// Open (newest) segment index.
    pub hi: u64,
    /// The journal config the store was created under (every file is
    /// headed by its config line; its `retained_segments` is the
    /// retention cap).
    pub config: EngineConfig,
    /// Torn tail in the open segment: `(file name, valid byte length)`.
    pub torn: Option<(String, u64)>,
    /// Files that are not part of the recovered state (stale retention
    /// leftovers, dropped unacknowledged segments, `*.tmp`); `open`
    /// unlinks them.
    pub drop_files: Vec<String>,
    /// Whether the open segment exists only as a checkpoint (the crash
    /// hit between checkpoint rename and segment creation); `open`
    /// materializes the segment file.
    pub synthesized_hi: bool,
}

fn corrupt(file: &str, offset: usize, message: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        file: file.to_string(),
        offset,
        message: message.into(),
    }
}

/// Reads the journal config line that heads a store file.
fn parse_config(name: &str, line: &str) -> Result<EngineConfig, StoreError> {
    Journal::parse_config_line(line, 0)
        .map_err(|e| corrupt(name, 0, format!("bad config line '{line}': {}", e.message)))
}

/// Parses a segment file. `last` relaxes tail handling: a torn record
/// suffix is truncated instead of fatal. The header record (index and
/// config) is validated against `index`; a torn *header* is reported as
/// `Ok(None)` — the whole file is unusable, which for the last segment
/// means "drop it" rather than "fail".
fn parse_segment(
    name: &str,
    bytes: &[u8],
    index: u64,
    last: bool,
) -> Result<Option<SegData>, StoreError> {
    let mut reader = RecordReader::new(bytes);
    // Header record.
    let config = match reader.next_record() {
        Ok(Some(payload)) => {
            let text = std::str::from_utf8(payload)
                .map_err(|e| corrupt(name, 0, format!("header is not UTF-8: {e}")))?;
            let mut lines = text.lines();
            let head = lines.next().unwrap_or("");
            let expect = format!("seg {index}");
            if head != expect {
                return Err(corrupt(
                    name,
                    0,
                    format!("header says '{head}', file name says '{expect}'"),
                ));
            }
            let config = lines
                .next()
                .ok_or_else(|| corrupt(name, 0, "header has no config line"))?;
            if lines.next().is_some() {
                return Err(corrupt(name, 0, "trailing lines in segment header"));
            }
            parse_config(name, config)?
        }
        Ok(None) | Err(_) if last => return Ok(None), // torn/empty header: drop
        Ok(None) => return Err(corrupt(name, 0, "segment file is empty")),
        Err(fault) => return Err(corrupt(name, reader.offset(), fault.to_string())),
    };
    let mut out = SegData {
        config,
        chunks: String::new(),
        valid_len: reader.offset(),
        torn_bytes: 0,
    };
    // Chunk records.
    loop {
        match reader.next_record() {
            Ok(Some(payload)) => {
                let text = std::str::from_utf8(payload).map_err(|e| {
                    corrupt(name, out.valid_len, format!("chunk is not UTF-8: {e}"))
                })?;
                out.chunks.push_str(text);
                out.valid_len = reader.offset();
            }
            Ok(None) => break,
            Err(fault) => {
                if last {
                    out.torn_bytes = bytes.len() - out.valid_len;
                    break;
                }
                return Err(corrupt(name, reader.offset(), fault.to_string()));
            }
        }
    }
    Ok(Some(out))
}

/// Parses a checkpoint file (exactly one record).
fn parse_checkpoint(name: &str, bytes: &[u8], index: u64) -> Result<CkptData, StoreError> {
    let mut reader = RecordReader::new(bytes);
    let payload = match reader.next_record() {
        Ok(Some(p)) => p,
        Ok(None) => return Err(corrupt(name, 0, "checkpoint file is empty")),
        Err(fault) => return Err(corrupt(name, reader.offset(), fault.to_string())),
    };
    let after = reader.offset();
    match reader.next_record() {
        Ok(None) => {}
        Ok(Some(_)) => return Err(corrupt(name, after, "trailing record in checkpoint file")),
        Err(fault) => return Err(corrupt(name, after, fault.to_string())),
    }
    let text = std::str::from_utf8(payload)
        .map_err(|e| corrupt(name, 0, format!("checkpoint is not UTF-8: {e}")))?;
    let (head, rest) = text
        .split_once('\n')
        .ok_or_else(|| corrupt(name, 0, "checkpoint has no header line"))?;
    let mut parts = head.split_whitespace();
    let tag = parts.next().unwrap_or("");
    let parse_u64 = |tok: Option<&str>, what: &str| -> Result<u64, StoreError> {
        tok.ok_or_else(|| corrupt(name, 0, format!("checkpoint header missing {what}")))?
            .parse::<u64>()
            .map_err(|e| corrupt(name, 0, format!("bad checkpoint {what}: {e}")))
    };
    if tag != "ckpt" {
        return Err(corrupt(
            name,
            0,
            format!("bad checkpoint header tag '{tag}'"),
        ));
    }
    let idx = parse_u64(parts.next(), "index")?;
    if idx != index {
        return Err(corrupt(
            name,
            0,
            format!("header says index {idx}, file name says {index}"),
        ));
    }
    let batches = parse_u64(parts.next(), "batches")?;
    let events_before = parse_u64(parts.next(), "events-before")?;
    if parts.next().is_some() {
        return Err(corrupt(name, 0, "trailing tokens in checkpoint header"));
    }
    let (config_line, snapshot) = rest
        .split_once('\n')
        .ok_or_else(|| corrupt(name, 0, "checkpoint has no config line"))?;
    Ok(CkptData {
        config: parse_config(name, config_line)?,
        checkpoint: Checkpoint {
            batches,
            events_before,
            snapshot: snapshot.to_string(),
        },
    })
}

/// Scans a store directory into reconstructed journal text plus the
/// repair/bookkeeping facts `open` needs; see the module docs for the
/// tolerated and rejected shapes.
pub fn scan(io: &dyn StoreIo, dir: &Path) -> Result<Scan, StoreError> {
    let names = io
        .list_dir(dir)
        .map_err(io_err(dir.display().to_string()))?;
    let mut segs: BTreeSet<u64> = BTreeSet::new();
    let mut ckpts: BTreeSet<u64> = BTreeSet::new();
    let mut drop_files: Vec<String> = Vec::new();
    for name in &names {
        match classify(name) {
            FileKind::Segment(i) => {
                segs.insert(i);
            }
            FileKind::Checkpoint(i) => {
                ckpts.insert(i);
            }
            FileKind::Temp => drop_files.push(name.clone()),
            FileKind::Unknown => {
                return Err(StoreError::Layout(format!(
                    "unrecognized file '{name}' in store directory"
                )))
            }
        }
    }
    // Segment numbering must be contiguous: a hole means a whole
    // segment of history vanished, which no crash window produces.
    if let (Some(&first), Some(&last)) = (segs.iter().next(), segs.iter().next_back()) {
        for i in first..=last {
            if !segs.contains(&i) {
                return Err(StoreError::Layout(format!(
                    "gap in segment numbering: '{}' is missing (segments run {} to {})",
                    segment_file_name(i),
                    segment_file_name(first),
                    segment_file_name(last),
                )));
            }
        }
    }
    // Fix the open segment `hi`: drop unacknowledged trailing segment
    // files (no durable checkpoint, or a torn header record), and adopt
    // a trailing orphan checkpoint as an empty synthesized segment.
    let mut seg_data: BTreeMap<u64, SegData> = BTreeMap::new();
    let (hi, synthesized_hi) = loop {
        let smax = segs.iter().next_back().copied();
        let cmax = ckpts.iter().next_back().copied();
        let (hi, synthesized) = match (smax, cmax) {
            (None, None) => {
                return Err(StoreError::Layout(
                    "no segment or checkpoint files to recover from".to_string(),
                ))
            }
            (Some(s), Some(c)) if c == s + 1 => (c, true),
            (Some(s), Some(c)) if c > s + 1 => {
                return Err(StoreError::Layout(format!(
                    "checkpoint '{}' has no matching segment and does not extend '{}'",
                    checkpoint_file_name(c),
                    segment_file_name(s),
                )))
            }
            (Some(s), _) => (s, false),
            (None, Some(c)) => (c, true),
        };
        if !synthesized {
            if hi >= 1 && !ckpts.contains(&hi) {
                // The segment's anchoring checkpoint never became
                // durable: nothing in the file was acknowledged.
                drop_files.push(segment_file_name(hi));
                segs.remove(&hi);
                continue;
            }
            let name = segment_file_name(hi);
            let bytes = io.read_file(&dir.join(&name)).map_err(io_err(&name))?;
            match parse_segment(&name, &bytes, hi, true)? {
                Some(data) => {
                    seg_data.insert(hi, data);
                    break (hi, false);
                }
                None => {
                    // Torn header: the file was being created at the
                    // crash; drop it and re-evaluate (its checkpoint, if
                    // durable, becomes a synthesized segment).
                    drop_files.push(name);
                    segs.remove(&hi);
                    continue;
                }
            }
        }
        break (hi, synthesized);
    };
    // The config line comes from the newest anchor (checkpoint `hi`, or
    // the genesis segment header when no checkpoint exists yet).
    let mut ckpt_data: BTreeMap<u64, CkptData> = BTreeMap::new();
    let config = if hi >= 1 {
        let name = checkpoint_file_name(hi);
        let bytes = io.read_file(&dir.join(&name)).map_err(io_err(&name))?;
        let data = parse_checkpoint(&name, &bytes, hi)?;
        let config = data.config.clone();
        ckpt_data.insert(hi, data);
        config
    } else {
        seg_data[&hi].config.clone()
    };
    // Walk the retained range down from `hi`, then clamp to the
    // retention cap: segments past it are stale leftovers of an
    // interrupted unlink pass (or of a crash before the pass ran) and
    // recovering them would disagree with the in-memory journal's own
    // truncation arithmetic.
    let mut lo = hi;
    while lo >= 1 && segs.contains(&(lo - 1)) && (lo - 1 == 0 || ckpts.contains(&(lo - 1))) {
        lo -= 1;
    }
    lo = lo.max(hi.saturating_sub(config.retained_segments as u64));
    // Everything below `lo` is dead weight.
    for &i in segs.iter().filter(|&&i| i < lo) {
        drop_files.push(segment_file_name(i));
    }
    for &i in ckpts.iter().filter(|&&i| i < lo) {
        drop_files.push(checkpoint_file_name(i));
    }
    // Read the rest of the retained range.
    for i in lo..hi {
        if let std::collections::btree_map::Entry::Vacant(slot) = seg_data.entry(i) {
            let name = segment_file_name(i);
            let bytes = io.read_file(&dir.join(&name)).map_err(io_err(&name))?;
            let data = parse_segment(&name, &bytes, i, false)?
                .expect("non-last parse never drops the file");
            slot.insert(data);
        }
        if i >= 1 && !ckpt_data.contains_key(&i) {
            let name = checkpoint_file_name(i);
            let bytes = io.read_file(&dir.join(&name)).map_err(io_err(&name))?;
            ckpt_data.insert(i, parse_checkpoint(&name, &bytes, i)?);
        }
    }
    // One store, one config: every header must agree.
    let agrees = |name: String, found: &EngineConfig| match *found == config {
        true => Ok(()),
        false => Err(corrupt(
            &name,
            0,
            format!("config {found:?} disagrees with the store's {config:?}"),
        )),
    };
    for (i, data) in &seg_data {
        agrees(segment_file_name(*i), &data.config)?;
    }
    for (i, data) in &ckpt_data {
        agrees(checkpoint_file_name(*i), &data.config)?;
    }
    // Reassemble journal v3 text with the journal's own writers — the
    // exact shape `Journal::to_text` emits, so a recovered journal
    // serializes byte-identically. The chunks are journal text already.
    let mut text = String::new();
    let dropped_events = ckpt_data.get(&lo).map_or(0, |d| d.checkpoint.events_before);
    Journal::write_header(&mut text, &config, lo, dropped_events);
    for i in lo..=hi {
        if let Some(data) = ckpt_data.get(&i) {
            data.checkpoint.write_record(&mut text);
        }
        if let Some(data) = seg_data.get(&i) {
            text.push_str(&data.chunks);
        }
    }
    let torn = seg_data
        .get(&hi)
        .and_then(|d| (d.torn_bytes > 0).then(|| (segment_file_name(hi), d.valid_len as u64)));
    Ok(Scan {
        text,
        lo,
        hi,
        config,
        torn,
        drop_files,
        synthesized_hi,
    })
}

/// Reconstructs journal v3 text from a store directory without
/// mutating anything (the read-only half of recovery).
pub fn recover_journal_text(io: &dyn StoreIo, dir: &Path) -> Result<String, StoreError> {
    Ok(scan(io, dir)?.text)
}

/// Crash recovery from an on-disk store: implemented for
/// [`realloc_engine::Engine`]. (An extension trait because the engine
/// crate cannot depend on this one — the store *uses* the journal's
/// grammar and replay machinery.)
pub trait RecoverFromDir: Sized {
    /// Recovers from `dir` through `io` — scan, reconstruct the
    /// journal, restore the latest checkpoint, replay the tail.
    fn recover_from_store(io: &dyn StoreIo, dir: &Path) -> Result<Self, StoreError>;

    /// [`RecoverFromDir::recover_from_store`] over the real file system.
    fn recover_from_dir(dir: &Path) -> Result<Self, StoreError> {
        Self::recover_from_store(&FsIo, dir)
    }
}

impl RecoverFromDir for Engine {
    fn recover_from_store(io: &dyn StoreIo, dir: &Path) -> Result<Engine, StoreError> {
        let text = recover_journal_text(io, dir)?;
        let journal = Journal::from_text(&text)?;
        Ok(journal.recover_engine()?)
    }
}

// ----------------------------------------------------------------------
// The durable store
// ----------------------------------------------------------------------

/// What [`DurableStore::open`] found and repaired.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// Retained segments (including the open one).
    pub segments: usize,
    /// Bytes cut off the open segment's torn tail (0: clean shutdown).
    pub torn_bytes_truncated: u64,
    /// Stale/unacknowledged/temp files unlinked.
    pub files_removed: usize,
    /// Whether the open segment had to be materialized from an orphan
    /// checkpoint.
    pub segment_materialized: bool,
}

/// The on-disk durability tier; see the module docs. Attach to an
/// engine with [`realloc_engine::Engine::attach_durability`].
#[derive(Debug)]
pub struct DurableStore {
    io: Arc<dyn StoreIo>,
    dir: PathBuf,
    /// Open segment index (appends go to `seg-{seg}.log`).
    seg: u64,
    /// Oldest on-disk segment index.
    lo: u64,
    /// The journal config this store was created under: its config
    /// line heads every file, its `retained_segments` is the retention
    /// cap.
    config: EngineConfig,
    /// Which appended chunks are stable; shared with every outstanding
    /// commit ticket.
    commit: Arc<CommitState>,
    /// Every record this store writes is framed in here.
    record: RecordBuf,
    tele: Option<Arc<StoreTele>>,
    /// `open` truncated a torn tail that no attached registry has
    /// counted yet; the first [`DurableStore::attach_telemetry`] counts it.
    torn_uncounted: bool,
}

/// The store's commit protocol (module docs, "Write path"), shared
/// between the store, which appends under whatever lock guards the
/// engine, and the holders of commit tickets, which wait for the disk
/// with no lock but this one. `gate` is never held across a wait or an
/// fsync, and appends take it only to wake a gathering leader, so
/// nothing staged under the engine lock ever waits for the disk.
#[derive(Debug)]
struct CommitState {
    io: Arc<dyn StoreIo>,
    /// Chunks appended to segment files, ever (bumped once the bytes are
    /// written).
    appended: AtomicU64,
    /// How many of them are stable. Advanced only by whoever holds the
    /// lead; every chunk past it lies in the open segment.
    durable: AtomicU64,
    /// Whether the leader is parked in a gather: an append takes `gate`
    /// to wake it only then.
    gathering: AtomicBool,
    gate: Mutex<CommitGate>,
    /// Signalled when the lead is given up (followers re-read the
    /// watermark, one of the uncovered steps up) and, for a gathering
    /// leader, on every append and by whoever is in a hurry.
    changed: Condvar,
}

#[derive(Debug)]
struct CommitGate {
    /// Whether someone holds the lead (a [`Lead`] is alive): a committer
    /// gathering or inside its fsync, or a checkpoint between its seal
    /// and its roll.
    leading: bool,
    /// Someone who holds the lock appends are made under waits for the
    /// lead: nothing a gather waits for can come, so it ends at once.
    hurried: bool,
    /// The open segment file — what a commit fsyncs.
    open: Arc<Path>,
    /// `Err` from the first failed commit or checkpoint on. Sticky: the
    /// kernel may have dropped the pages a failed fsync covered, so a
    /// retry that reports `Ok` would vouch for bytes that are gone.
    health: Result<(), String>,
    tele: Option<Arc<StoreTele>>,
    /// The store's one clock, for the fsyncs and the gather's wait: the
    /// attached registry's once there is one (a manual one in tests).
    clock: Clock,
    policy: GatherPolicy,
}

/// Whether and until when a leader gathers, from events alone: no lock,
/// no I/O, no clock (times are [`Clock`] nanoseconds). Driven only by
/// [`CommitState::gather`].
///
/// Leading at once, closed loops alternate, one window per fsync: B
/// leads the moment A's fsync returns, a hair before A's next window is
/// staged. But the last fsync says who is coming: the `expect` chunks
/// pending while it ran. So the leader waits until that many are pending
/// again, or until the wait stops paying — the `pending` here each lose
/// it, the `need` still coming each save the rest of an fsync, which
/// breaks even at `last_sync · need / (pending + need)`, re-read at every
/// look. Expecting nobody else, it does not wait. A timeout skips the
/// next `2^backoff` gathers and raises `backoff`; a hit lowers it.
#[derive(Debug, Default)]
struct GatherPolicy {
    /// Measured on the last fsync: chunks pending at some point while
    /// it ran (covered or appended meanwhile), and how long it took.
    expect: u64,
    last_sync_nanos: u64,
    backoff: u32,
    skips_left: u32,
    /// The gather in progress: the appended count it waits for, its start.
    goal: u64,
    started: u64,
}

/// Where the back-off stops doubling: arrivals that stay open pay one
/// timed-out gather in 1024 fsyncs to notice closed loops coming back.
const MAX_BACKOFF: u32 = 10;

/// What a leader does next, as [`GatherPolicy`] decides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Gather {
    /// Lead at once: nobody else is expected, or this gather is skipped.
    Lead,
    /// Wait for an append or a hurry until this time at most.
    WaitUntil(u64),
    /// The expected chunks were appended.
    Hit,
    /// The break-even wait ran out first.
    TimedOut,
    /// A checkpoint or an inline sync asked for the lead.
    Hurried,
}

impl GatherPolicy {
    /// An fsync that took `took` ns ended; `pending` chunks were pending in it.
    fn synced(&mut self, pending: u64, took: u64) {
        (self.expect, self.last_sync_nanos) = (pending, took);
    }

    /// A leader arrives at `now`, `durable` of `appended` chunks stable.
    fn arrive(&mut self, durable: u64, appended: u64, now: u64) -> Gather {
        self.goal = durable + self.expect;
        if appended >= self.goal {
            return Gather::Lead;
        }
        if self.skips_left > 0 {
            self.skips_left -= 1;
            return Gather::Lead;
        }
        self.started = now;
        Gather::WaitUntil(self.deadline(appended))
    }

    /// The gatherer looks again at `now`, `appended` chunks in, hurried or not.
    fn look(&mut self, appended: u64, hurried: bool, now: u64) -> Gather {
        if appended >= self.goal {
            self.backoff = self.backoff.saturating_sub(1);
            return Gather::Hit;
        }
        if hurried {
            return Gather::Hurried;
        }
        let deadline = self.deadline(appended);
        if now < deadline {
            return Gather::WaitUntil(deadline);
        }
        self.skips_left = 1 << self.backoff;
        self.backoff = (self.backoff + 1).min(MAX_BACKOFF);
        Gather::TimedOut
    }

    /// The break-even deadline: `pending + need` is `expect` while the
    /// watermark stands still, and it does, for the gatherer leads.
    fn deadline(&self, appended: u64) -> u64 {
        let need = u128::from(self.goal - appended);
        let cap = u128::from(self.last_sync_nanos) * need / u128::from(self.expect);
        self.started + u64::try_from(cap).expect("a share of last_sync")
    }
}

/// The lead, held: `CommitGate::leading` is set until this drops.
#[derive(Debug)]
struct Lead<'a> {
    commit: &'a CommitState,
}

impl Drop for Lead<'_> {
    fn drop(&mut self) {
        let mut gate = self
            .commit
            .gate
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        gate.leading = false;
        if std::thread::panicking() && gate.health.is_ok() {
            // The I/O layer panicked under the leader: whoever waits for
            // the lead must find a failed store, not wait for ever.
            gate.health = Err("a store commit or checkpoint panicked".to_string());
        }
        drop(gate);
        self.commit.changed.notify_all();
    }
}

impl CommitState {
    fn new(io: Arc<dyn StoreIo>, open: PathBuf) -> Arc<CommitState> {
        Arc::new(CommitState {
            io,
            appended: AtomicU64::new(0),
            durable: AtomicU64::new(0),
            gathering: AtomicBool::new(false),
            gate: Mutex::new(CommitGate {
                leading: false,
                hurried: false,
                open: open.into(),
                health: Ok(()),
                tele: None,
                clock: Clock::monotonic(),
                policy: GatherPolicy::default(),
            }),
            changed: Condvar::new(),
        })
    }

    fn gate(&self) -> MutexGuard<'_, CommitGate> {
        self.gate
            .lock()
            .expect("a store commit or checkpoint panicked")
    }

    /// Waits until nobody leads or the watermark covers `ticket`. A
    /// caller that holds the lock appends are made under (a checkpoint,
    /// an inline sync) is in a `hurry`: a gather in its way is waiting
    /// for an append that cannot happen, and is told to lead now instead
    /// of sitting out its cap.
    fn await_turn(&self, ticket: u64, hurry: bool) -> MutexGuard<'_, CommitGate> {
        let mut gate = self.gate();
        if hurry {
            gate.hurried = true;
            self.changed.notify_all();
        }
        while gate.leading && self.durable.load(Ordering::SeqCst) < ticket {
            gate = self
                .changed
                .wait(gate)
                .expect("a store commit or checkpoint panicked");
        }
        if hurry {
            gate.hurried = false;
        }
        gate
    }

    /// Takes the lead; nobody else may hold it.
    fn lead(&self, gate: &mut CommitGate) -> Lead<'_> {
        assert!(!gate.leading, "one leader at a time");
        gate.leading = true;
        Lead { commit: self }
    }

    /// The lead, for a checkpoint (which holds the engine).
    fn lead_in_a_hurry(&self) -> Lead<'_> {
        self.lead(&mut self.await_turn(u64::MAX, true))
    }

    /// One more chunk is in the open segment. A gathering leader is woken
    /// to count it: the load below sees its `gathering` flag, or its first
    /// look, taken after raising the flag under `gate`, sees this chunk.
    fn note_append(&self) {
        self.appended.fetch_add(1, Ordering::SeqCst);
        if self.gathering.load(Ordering::SeqCst) {
            drop(self.gate());
            self.changed.notify_all();
        }
    }

    /// Settles `ticket`, from a caller that may wait for the committers
    /// it expects (`may_gather`: it holds no lock an append needs) or
    /// may not.
    fn settle(&self, ticket: u64, may_gather: bool) -> Result<(), String> {
        let mut gate = self.await_turn(ticket, !may_gather);
        if self.durable.load(Ordering::SeqCst) >= ticket {
            // A leader's fsync or a checkpoint's seal got there first —
            // also after a failure, which never lowers the watermark.
            if let Some(tele) = &gate.tele {
                tele.commits_covered.inc();
            }
            return Ok(());
        }
        gate.health.clone()?;
        let lead = self.lead(&mut gate);
        if may_gather {
            gate = self.gather(gate);
        }
        self.sync(&lead, gate)
    }

    /// The leader's first step, [`GatherPolicy`]'s one driver: waits on
    /// the store's clock for the committers the previous fsync released,
    /// so that this fsync carries their chunks too.
    fn gather<'a>(&'a self, mut gate: MutexGuard<'a, CommitGate>) -> MutexGuard<'a, CommitGate> {
        let (durable, now) = (self.durable.load(Ordering::SeqCst), gate.clock.now_nanos());
        let appended = self.appended.load(Ordering::SeqCst);
        if gate.policy.arrive(durable, appended, now) == Gather::Lead {
            return gate;
        }
        // Up before the first look, which counts an append that missed it.
        self.gathering.store(true, Ordering::SeqCst);
        let outcome = loop {
            let (now, appended) = (gate.clock.now_nanos(), self.appended.load(Ordering::SeqCst));
            let hurried = gate.hurried;
            match gate.policy.look(appended, hurried, now) {
                Gather::WaitUntil(deadline) => {
                    gate = self
                        .changed
                        .wait_timeout(gate, Duration::from_nanos(deadline - now))
                        .expect("a store commit or checkpoint panicked")
                        .0;
                }
                outcome => break outcome,
            }
        };
        self.gathering.store(false, Ordering::SeqCst);
        match (outcome, &gate.tele) {
            (Gather::Hit, Some(tele)) => tele.gather_hits.inc(),
            (Gather::TimedOut, Some(tele)) => tele.gather_timeouts.inc(),
            _ => {}
        }
        gate
    }

    /// The leader's step: one fsync of the open segment, with `gate`
    /// released, then the watermark moves to what had been appended when
    /// the fsync began.
    fn sync(&self, _lead: &Lead<'_>, gate: MutexGuard<'_, CommitGate>) -> Result<(), String> {
        let (open, clock) = (Arc::clone(&gate.open), gate.clock.clone());
        drop(gate);
        let target = self.appended.load(Ordering::SeqCst);
        let t0 = clock.now_nanos();
        let synced = self.io.sync_file(&open);
        let took = clock.now_nanos().saturating_sub(t0);
        let mut gate = self.gate();
        if let Err(e) = synced {
            let message = format!("fsync '{}': {e}", open.display());
            gate.health = Err(message.clone());
            return Err(message);
        }
        let was_durable = self.durable.swap(target, Ordering::SeqCst);
        gate.policy
            .synced(self.appended.load(Ordering::SeqCst) - was_durable, took);
        if let Some(tele) = &gate.tele {
            tele.fsync_nanos.record(took);
            tele.sync_chunks.record(target - was_durable);
        }
        Ok(())
    }
}

impl CommitLog for CommitState {
    fn pending(&self) -> Option<u64> {
        let appended = self.appended.load(Ordering::SeqCst);
        (self.durable.load(Ordering::SeqCst) < appended).then_some(appended)
    }

    fn commit(&self, ticket: u64) -> Result<(), String> {
        self.settle(ticket, true)
    }
}

impl DurableStore {
    /// Creates a fresh store in `dir` (created if missing, must not
    /// already hold store files) for an engine journaling under
    /// `config`. Pass the config of the engine's *journal*
    /// (`engine.journal().unwrap().config()`), which records the
    /// genesis shard count — after a resize the engine's live config
    /// differs.
    ///
    /// Attaching a store to an engine that already has history requires
    /// an immediate `Engine::checkpoint()` afterwards: the store only
    /// sees records from the attach onward, and the checkpoint anchors
    /// them with full state. A freshly built engine needs no checkpoint
    /// (its genesis segment replays from the config header).
    pub fn create(
        io: Arc<dyn StoreIo>,
        dir: &Path,
        config: &EngineConfig,
    ) -> Result<DurableStore, StoreError> {
        io.create_dir_all(dir)
            .map_err(io_err(dir.display().to_string()))?;
        let names = io
            .list_dir(dir)
            .map_err(io_err(dir.display().to_string()))?;
        for name in &names {
            if !matches!(classify(name), FileKind::Temp) {
                return Err(StoreError::Layout(format!(
                    "directory already holds '{name}' — use DurableStore::open to resume"
                )));
            }
        }
        let mut store = DurableStore {
            commit: CommitState::new(Arc::clone(&io), dir.join(segment_file_name(0))),
            io,
            dir: dir.to_path_buf(),
            seg: 0,
            lo: 0,
            config: config.clone(),
            record: RecordBuf::default(),
            tele: None,
            torn_uncounted: false,
        };
        store.write_segment_header(0).map_err(Self::from_io)?;
        Ok(store)
    }

    /// Opens an existing store after a crash or restart: scans, repairs
    /// (truncates the torn tail, unlinks stale and unacknowledged
    /// files, materializes a checkpoint-only open segment), and resumes
    /// appending where the durable state ends. Recover the engine first
    /// ([`RecoverFromDir`]) — it must see the same directory this open
    /// repairs — then attach the opened store to it.
    pub fn open(
        io: Arc<dyn StoreIo>,
        dir: &Path,
    ) -> Result<(DurableStore, OpenReport), StoreError> {
        let scan = scan(&*io, dir)?;
        let mut report = OpenReport {
            segments: (scan.hi - scan.lo + 1) as usize,
            ..OpenReport::default()
        };
        for name in &scan.drop_files {
            io.remove_file(&dir.join(name))
                .map_err(io_err(name.clone()))?;
            report.files_removed += 1;
        }
        if let Some((name, valid_len)) = &scan.torn {
            let path = dir.join(name);
            let total = io.read_file(&path).map_err(io_err(name.clone()))?.len() as u64;
            io.truncate(&path, *valid_len)
                .map_err(io_err(name.clone()))?;
            io.sync_file(&path).map_err(io_err(name.clone()))?;
            report.torn_bytes_truncated = total - valid_len;
        }
        let mut store = DurableStore {
            commit: CommitState::new(Arc::clone(&io), dir.join(segment_file_name(scan.hi))),
            io,
            dir: dir.to_path_buf(),
            seg: scan.hi,
            lo: scan.lo,
            config: scan.config,
            record: RecordBuf::default(),
            tele: None,
            torn_uncounted: report.torn_bytes_truncated > 0,
        };
        if scan.synthesized_hi {
            store.write_segment_header(scan.hi).map_err(Self::from_io)?;
            report.segment_materialized = true;
        } else if report.files_removed > 0 || report.torn_bytes_truncated > 0 {
            store
                .io
                .sync_dir(&store.dir)
                .map_err(io_err(dir.display().to_string()))?;
        }
        Ok((store, report))
    }

    /// Attaches a telemetry registry (fsync latency and chunks per
    /// fsync, gather outcomes, bytes/records written, checkpoints,
    /// retention unlinks, torn-tail truncations); fsyncs are timed on
    /// its clock from here on. A disabled handle detaches. The torn tail
    /// [`DurableStore::open`] truncated, if any, is counted in the first
    /// registry attached.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.tele = StoreTele::build(telemetry);
        if let Some(tele) = &self.tele {
            if std::mem::take(&mut self.torn_uncounted) {
                tele.torn_truncations.inc();
            }
        }
        let mut gate = self.commit.gate();
        gate.tele = self.tele.clone();
        if let Some(clock) = telemetry.clock() {
            gate.clock = clock;
        }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn seg_path(&self) -> PathBuf {
        self.dir.join(segment_file_name(self.seg))
    }

    fn from_io(e: (String, std::io::Error)) -> StoreError {
        StoreError::Io {
            file: e.0,
            source: e.1,
        }
    }

    /// Creates `seg-{index}.log` with its header record and makes it
    /// durable (file fsync + directory fsync).
    fn write_segment_header(&mut self, index: u64) -> Result<(), (String, std::io::Error)> {
        let name = segment_file_name(index);
        let path = self.dir.join(&name);
        let config = &self.config;
        let framed = self.record.frame(|text| {
            writeln!(text, "seg {index}").expect("string write");
            Journal::write_config_line(text, config);
        });
        self.io
            .append(&path, framed)
            .map_err(|e| (name.clone(), e))?;
        let written = framed.len();
        self.io.sync_file(&path).map_err(|e| (name.clone(), e))?;
        self.io
            .sync_dir(&self.dir)
            .map_err(|e| (self.dir.display().to_string(), e))?;
        self.count_write(written);
        Ok(())
    }

    /// Frames the journal text `write` produces as one chunk, appends it
    /// to the open segment (no fsync — that is the commit's job) and
    /// counts it as appended.
    fn append_chunk(&mut self, write: impl FnOnce(&mut String)) -> Result<(), String> {
        let path = self.seg_path();
        let framed = self.record.frame(write);
        self.io
            .append(&path, framed)
            .map_err(|e| format!("append to '{}': {e}", path.display()))?;
        let written = framed.len();
        self.commit.note_append();
        self.count_write(written);
        Ok(())
    }

    fn count_write(&self, bytes: usize) {
        if let Some(tele) = &self.tele {
            tele.bytes_written.add(bytes as u64);
            tele.records.inc();
        }
    }
}

impl DurabilitySink for DurableStore {
    fn append_batch(&mut self, events: &[JournalEvent]) -> Result<(), String> {
        if events.is_empty() {
            return Ok(());
        }
        self.append_chunk(|text| JournalEvent::write_batch(events, text))
    }

    fn append_epoch(&mut self, record: &EpochRecord) -> Result<(), String> {
        self.append_chunk(|text| record.write_line(text))
    }

    fn checkpoint(&mut self, checkpoint: &Checkpoint) -> Result<(), String> {
        // The lead is held from the seal to the roll: a commit never
        // sees the open segment change under its fsync, and a ticket
        // taken before the roll finds the watermark past it afterwards —
        // it never fsyncs a sealed (or already unlinked) file. The
        // caller holds the engine: a leader found gathering is waiting
        // for appends that cannot come, and is told to lead.
        let commit = Arc::clone(&self.commit);
        let lead = commit.lead_in_a_hurry();
        let rolled = self.checkpoint_leading(&commit, &lead, checkpoint);
        let mut gate = commit.gate();
        if gate.health.is_ok() {
            gate.health = rolled.clone();
        }
        rolled
    }

    fn sync(&mut self) -> Result<(), String> {
        // Called with the engine held (it has `&mut` to the sink): the
        // appends a gather waits for cannot happen, so this one leads at
        // once and ends any gather it finds in progress.
        match self.commit.pending() {
            Some(ticket) => self.commit.settle(ticket, false),
            None => Ok(()),
        }
    }

    fn commit_log(&self) -> Option<Arc<dyn CommitLog>> {
        Some(Arc::clone(&self.commit) as Arc<dyn CommitLog>)
    }
}

impl DurableStore {
    /// [`DurabilitySink::checkpoint`] with the commit lead held.
    fn checkpoint_leading(
        &mut self,
        commit: &CommitState,
        lead: &Lead<'_>,
        checkpoint: &Checkpoint,
    ) -> Result<(), String> {
        let fail = |file: &str, e: std::io::Error| format!("checkpoint I/O on '{file}': {e}");
        // Seal the open segment: its tail must be durable before the
        // checkpoint that supersedes it, or a recovered journal would
        // hold fewer events than the in-memory one that kept serving.
        let gate = commit.gate();
        gate.health.clone()?;
        if commit.pending().is_some() {
            commit.sync(lead, gate)?;
        } else {
            drop(gate);
        }
        let next = self.seg + 1;
        let name = checkpoint_file_name(next);
        let tmp_name = format!("{name}.tmp");
        let path = self.dir.join(&name);
        let tmp = self.dir.join(&tmp_name);
        // Framed in a buffer of its own: a snapshot is orders of
        // magnitude above a chunk, and the store's buffer keeps its
        // capacity.
        let mut record = RecordBuf::default();
        let framed = record.frame(|text| {
            writeln!(
                text,
                "ckpt {next} {} {}",
                checkpoint.batches, checkpoint.events_before
            )
            .expect("string write");
            Journal::write_config_line(text, &self.config);
            text.push_str(&checkpoint.snapshot);
        });
        // Temp + fsync + rename + dir fsync: the checkpoint appears
        // atomically and durably, or not at all.
        self.io
            .append(&tmp, framed)
            .map_err(|e| fail(&tmp_name, e))?;
        self.io.sync_file(&tmp).map_err(|e| fail(&tmp_name, e))?;
        self.io.rename(&tmp, &path).map_err(|e| fail(&name, e))?;
        let dir_name = self.dir.display().to_string();
        self.io
            .sync_dir(&self.dir)
            .map_err(|e| fail(&dir_name, e))?;
        self.count_write(framed.len());
        // Start the next segment (durable before anything is appended
        // to it), then unlink sealed segments beyond the cap — the same
        // arithmetic as the in-memory journal's truncation.
        self.write_segment_header(next)
            .map_err(|(f, e)| fail(&f, e))?;
        self.seg = next;
        commit.gate().open = self.seg_path().into();
        let mut unlinked = 0u64;
        while (self.seg - self.lo) as usize > self.config.retained_segments {
            let seg_name = segment_file_name(self.lo);
            self.io
                .remove_file(&self.dir.join(&seg_name))
                .map_err(|e| fail(&seg_name, e))?;
            if self.lo >= 1 {
                let ck_name = checkpoint_file_name(self.lo);
                self.io
                    .remove_file(&self.dir.join(&ck_name))
                    .map_err(|e| fail(&ck_name, e))?;
            }
            self.lo += 1;
            unlinked += 1;
        }
        if unlinked > 0 {
            self.io
                .sync_dir(&self.dir)
                .map_err(|e| fail(&dir_name, e))?;
        }
        if let Some(tele) = &self.tele {
            tele.checkpoints.inc();
            tele.segments_unlinked.add(unlinked);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemIo;

    /// A commit state over one in-memory file that expects two
    /// committers and believes an fsync takes a minute — so a gather
    /// that ends, ends because it was told to — with one chunk pending.
    fn one_of_two_pending() -> Arc<CommitState> {
        let io = Arc::new(MemIo::new());
        let open = PathBuf::from("/seg");
        io.append(&open, b"x").unwrap();
        let state = CommitState::new(io, open);
        {
            let mut gate = state.gate();
            gate.policy.expect = 2;
            gate.policy.last_sync_nanos = 60_000_000_000;
        }
        state.note_append();
        state
    }

    /// Runs `meanwhile` once the commit of ticket 1 is parked in its
    /// gather, and returns when that commit has.
    fn while_it_gathers(state: &Arc<CommitState>, meanwhile: impl FnOnce()) {
        std::thread::scope(|threads| {
            let leader = threads.spawn(|| state.commit(1));
            while !state.gathering.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            meanwhile();
            leader.join().unwrap().expect("durable");
        });
    }

    #[test]
    fn the_chunk_a_gather_waits_for_ends_it_and_lowers_the_back_off() {
        let state = one_of_two_pending();
        state.gate().policy.backoff = 3;
        while_it_gathers(&state, || state.note_append());
        assert_eq!(state.durable.load(Ordering::SeqCst), 2, "one fsync, both");
        let gate = state.gate();
        assert_eq!((gate.policy.backoff, gate.policy.skips_left), (2, 0));
        assert_eq!(gate.policy.expect, 2);
    }

    #[test]
    fn whoever_holds_the_engine_ends_a_gather_without_a_timeout() {
        let state = one_of_two_pending();
        while_it_gathers(&state, || drop(state.lead_in_a_hurry()));
        assert_eq!(state.durable.load(Ordering::SeqCst), 1);
        let gate = state.gate();
        assert_eq!(
            (gate.policy.backoff, gate.policy.skips_left),
            (0, 0),
            "not a timeout"
        );
        assert!(!gate.hurried && !gate.leading);
    }

    #[test]
    fn a_leader_that_panics_leaves_a_failed_store_not_a_held_lead() {
        let state = one_of_two_pending();
        let panicked = std::thread::scope(|threads| {
            threads
                .spawn(|| {
                    let _lead = state.lead(&mut state.gate());
                    panic!("the disk driver");
                })
                .join()
        });
        assert!(panicked.is_err());
        let err = state.commit(1).expect_err("refused, not waited for");
        assert!(err.contains("panicked"), "{err}");
    }

    // ------------------------------------------------------------------
    // The gather policy on virtual time
    // ------------------------------------------------------------------

    /// An fsync, in virtual nanoseconds: the 2 ms disk of the threaded
    /// service tests.
    const SYNC: u64 = 2_000_000;

    /// Who holds the lead in [`Sim`], and doing what.
    enum SimLead {
        Idle,
        Gathering {
            deadline: u64,
        },
        Syncing {
            until: u64,
            target: u64,
            gathered: Gather,
        },
    }

    /// The commit protocol around a [`GatherPolicy`], on virtual time:
    /// a committer stages one chunk and waits for it; the first waiter
    /// the watermark does not cover leads, gathers as the policy says
    /// and fsyncs for [`SYNC`], and everyone it covers is answered.
    struct Sim {
        policy: GatherPolicy,
        now: u64,
        appended: u64,
        durable: u64,
        /// Committers waiting for their commit: `(ticket, who)`.
        waiting: Vec<(u64, usize)>,
        lead: SimLead,
        /// Per fsync: the chunks it made stable, and how its leader's
        /// gather ended (`Lead`: it did not gather).
        fsyncs: Vec<(u64, Gather)>,
    }

    impl Sim {
        /// The first uncovered waiter takes the lead; like the driver,
        /// it looks once more as it starts to gather.
        fn arrive(&mut self) {
            match self.policy.arrive(self.durable, self.appended, self.now) {
                Gather::Lead => self.sync(Gather::Lead),
                _ => self.look(),
            }
        }

        fn look(&mut self) {
            match self.policy.look(self.appended, false, self.now) {
                Gather::WaitUntil(deadline) => self.lead = SimLead::Gathering { deadline },
                outcome => self.sync(outcome),
            }
        }

        fn sync(&mut self, gathered: Gather) {
            self.lead = SimLead::Syncing {
                until: self.now + SYNC,
                target: self.appended,
                gathered,
            };
        }
    }

    /// Runs `committers` through a [`Sim`] until all have gone home and
    /// returns its fsyncs. `plan(who, commits done, now)` says when a
    /// committer stages next — `now` is when its last commit returned —
    /// or `None` once it is done. On a tie the lead's event comes first:
    /// a chunk staged at a gather's deadline is too late.
    fn simulate(
        committers: usize,
        mut plan: impl FnMut(usize, u64, u64) -> Option<u64>,
    ) -> Vec<(u64, Gather)> {
        let mut sim = Sim {
            policy: GatherPolicy::default(),
            now: 0,
            appended: 0,
            durable: 0,
            waiting: Vec::new(),
            lead: SimLead::Idle,
            fsyncs: Vec::new(),
        };
        let mut done = vec![0; committers];
        let mut next: Vec<Option<u64>> = (0..committers).map(|who| plan(who, 0, 0)).collect();
        loop {
            let lead_at = match sim.lead {
                SimLead::Idle => None,
                SimLead::Gathering { deadline } => Some(deadline),
                SimLead::Syncing { until, .. } => Some(until),
            };
            let stage = (0..committers)
                .filter_map(|who| Some((next[who]?, who)))
                .min();
            match (lead_at, stage) {
                (None, None) => return sim.fsyncs,
                (Some(at), stage) if stage.is_none_or(|(staged, _)| at <= staged) => {
                    sim.now = at;
                    match sim.lead {
                        SimLead::Syncing {
                            target, gathered, ..
                        } => {
                            let was = std::mem::replace(&mut sim.durable, target);
                            sim.policy.synced(sim.appended - was, SYNC);
                            sim.fsyncs.push((target - was, gathered));
                            sim.lead = SimLead::Idle;
                            for &(_, who) in sim.waiting.iter().filter(|w| w.0 <= target) {
                                done[who] += 1;
                                next[who] = plan(who, done[who], at);
                            }
                            sim.waiting.retain(|w| w.0 > target);
                            if !sim.waiting.is_empty() {
                                sim.arrive();
                            }
                        }
                        _ => sim.look(),
                    }
                }
                (_, stage) => {
                    let (at, who) = stage.expect("the lead's event came first otherwise");
                    sim.now = at;
                    next[who] = None;
                    sim.appended += 1;
                    sim.waiting.push((sim.appended, who));
                    match sim.lead {
                        SimLead::Idle => sim.arrive(),
                        SimLead::Gathering { .. } => sim.look(),
                        SimLead::Syncing { .. } => {}
                    }
                }
            }
        }
    }

    fn count(fsyncs: &[(u64, Gather)], outcome: Gather) -> u64 {
        fsyncs.iter().filter(|f| f.1 == outcome).count() as u64
    }

    /// A seeded stream of numbers below `below` (a 64-bit LCG).
    fn seeded(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut x = seed;
        move |below| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) % below
        }
    }

    /// A closed-loop pair, as in the threaded test of the same name:
    /// A starts alone, B during A's first fsync and with one round
    /// fewer; each stages its next window a seeded time under half an
    /// fsync after its commit returns. `B` leaves after `b_rounds`.
    fn closed_loop_pair(seed: u64, a_rounds: u64, b_rounds: u64) -> Vec<(u64, Gather)> {
        let mut think = seeded(seed);
        simulate(2, |who, done, now| match (who, done) {
            (0, done) if done == a_rounds => None,
            (1, done) if done == b_rounds => None,
            (0, 0) => Some(0),
            (1, 0) => Some(SYNC / 2),
            _ => Some(now + think(SYNC / 2)),
        })
    }

    #[test]
    fn two_closed_loop_committers_share_every_fsync_from_the_second_on() {
        const ROUNDS: u64 = 40;
        for seed in 0..64 {
            let fsyncs = closed_loop_pair(seed, ROUNDS, ROUNDS - 1);
            let sizes: Vec<u64> = fsyncs.iter().map(|f| f.0).collect();
            let mut want = vec![2; ROUNDS as usize];
            want[0] = 1;
            assert_eq!(sizes, want, "seed {seed}: one fsync per round");
            assert_eq!(count(&fsyncs, Gather::Hit), ROUNDS - 1, "seed {seed}");
            assert_eq!(count(&fsyncs, Gather::TimedOut), 0, "seed {seed}");
        }
    }

    #[test]
    fn a_lone_committer_never_waits() {
        for think in [0, SYNC / 4, 3 * SYNC] {
            let fsyncs = simulate(1, |_, done, now| (done < 200).then_some(now + think));
            assert_eq!(
                fsyncs,
                vec![(1, Gather::Lead); 200],
                "depth 1, think {think}"
            );
        }
        // A pair breaks up: the one left expects its peer once, in vain,
        // and from then on leads at once.
        let fsyncs = closed_loop_pair(7, 120, 20);
        let gathers: Vec<(usize, Gather)> = (0..)
            .zip(fsyncs.iter().map(|f| f.1))
            .filter(|&(_, g)| g != Gather::Lead)
            .collect();
        assert_eq!(gathers.last(), Some(&(21, Gather::TimedOut)));
        assert_eq!(count(&fsyncs, Gather::TimedOut), 1);
        assert!(fsyncs[22..].iter().all(|&f| f == (1, Gather::Lead)));
    }

    #[test]
    fn timer_driven_committers_do_not_pay_for_the_gather() {
        // `durable.rs`'s eight phases in hundredths of a tick: two pairs
        // land inside one fsync of each other on every tick, the rest
        // find the disk idle.
        const PHASES: [u64; 8] = [0, 16, 22, 38, 51, 54, 72, 88];
        const TICKS: u64 = 30;
        let tick = 2 * PHASES.len() as u64 * SYNC;
        let fsyncs = simulate(PHASES.len(), |who, done, now| {
            (done < TICKS).then(|| (done * tick + tick * PHASES[who] / 100).max(now))
        });
        let commands = TICKS * PHASES.len() as u64;
        assert_eq!(fsyncs.iter().map(|f| f.0).sum::<u64>(), commands);
        let syncs = fsyncs.len() as u64;
        let timeouts = count(&fsyncs, Gather::TimedOut);
        let paid: u64 = fsyncs
            .iter()
            .filter(|f| matches!(f.1, Gather::Hit | Gather::TimedOut))
            .map(|f| f.0)
            .sum();
        assert!(timeouts > 0, "the second of a pair expects the first back");
        assert!(
            timeouts * 10 <= syncs,
            "{timeouts} of {syncs} fsyncs sat out a gather"
        );
        assert!(
            paid * 2 < commands,
            "{paid} of {commands} commands rode a gathered fsync"
        );
    }

    #[test]
    fn timeouts_in_a_row_skip_the_next_one_two_four_gathers() {
        // Two chunks under one fsync, then one alone that nobody joins,
        // over and over: count the loners skipped between two gathers.
        let mut policy = GatherPolicy::default();
        let (mut durable, mut now) = (0, 0);
        let mut skipped = Vec::new();
        let mut run = 0;
        for _ in 0..4_500 {
            policy.synced(2, SYNC);
            durable += 2;
            match policy.arrive(durable, durable + 1, now) {
                Gather::Lead => run += 1,
                Gather::WaitUntil(deadline) => {
                    assert_eq!(deadline, now + SYNC / 2, "the break-even cap");
                    let waiting = policy.look(durable + 1, false, deadline - 1);
                    assert_eq!(waiting, Gather::WaitUntil(deadline));
                    assert_eq!(policy.look(durable + 1, false, deadline), Gather::TimedOut);
                    skipped.push(std::mem::take(&mut run));
                }
                other => panic!("an arrival answers {other:?}"),
            }
            policy.synced(1, SYNC);
            durable += 1;
            now += 3 * SYNC;
        }
        let mut want = vec![0];
        want.extend((0..=MAX_BACKOFF).map(|b| 1 << b));
        want.extend([1 << MAX_BACKOFF; 2]);
        assert_eq!(skipped, want, "1, 2, 4 … up to 1024 skipped");
    }

    #[test]
    fn a_hurry_ends_a_gather_and_is_not_a_timeout() {
        let mut policy = GatherPolicy::default();
        policy.synced(2, SYNC);
        let Gather::WaitUntil(deadline) = policy.arrive(1, 2, 0) else {
            panic!("one of two pending: the leader gathers");
        };
        assert_eq!(policy.look(2, true, deadline - 1), Gather::Hurried);
        assert_eq!((policy.backoff, policy.skips_left), (0, 0));
        // So the next leader that expects a peer gathers again; a timeout
        // in the hurry's place makes the one after it skip.
        policy.synced(2, SYNC);
        let Gather::WaitUntil(deadline) = policy.arrive(2, 3, SYNC) else {
            panic!("not skipped");
        };
        assert_eq!(policy.look(3, false, deadline), Gather::TimedOut);
        policy.synced(2, SYNC);
        assert_eq!(policy.arrive(4, 5, 2 * SYNC), Gather::Lead, "skipped");
    }
}
