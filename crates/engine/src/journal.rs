//! Segmented event journal with checkpoint records, **epoch records**,
//! and O(tail) recovery.
//!
//! Every flushed request is recorded together with its (netted) cost
//! outcome. The text encoding extends the `realloc_core::textio` framing
//! — one record per line, `#` comments ignored — with a config header,
//! **checkpoint records**, **epoch records**, and an optional truncation
//! marker (v3 framing):
//!
//! ```text
//! # realloc-engine journal v3
//! c 4 1 theorem1:8 4        # GENESIS shards, machines/shard, backend,
//! T 2 13107                 #   retention; 2 truncated segments precede
//! s 40 13107 6812           # checkpoint: 40 batches, 13107 events before,
//! # realloc snapshot v1     #   followed by 6812 verbatim snapshot lines
//! !begin engine
//! …
//! !end
//! b 40                      # batch boundary
//! + 0 17 4 12 ok 1 0        # shard 0: insert j17 [4,12) → 1 realloc
//! - 2 9 err capacity        # shard 2: delete j9 rejected
//! E 1 6 7 5                 # epoch record: epoch 1, resize to 6 shards,
//! b 41                      #   tenant 7 pinned to shard 5
//! + 5 17 4 12 ok 0 0
//! ```
//!
//! # Epoch records
//!
//! An elastic resize/rebalance appends an **epoch record**
//! (`E <epoch> <shards> [<tenant> <shard>]…`) at its exact position in
//! the event stream, carrying the complete new routing table. The `c`
//! header's shard count is the *genesis* count; the current count after
//! replaying is whatever the last applied epoch record (or checkpoint)
//! says. Epoch records are validated at parse time — strictly increasing
//! epochs (a duplicate or regressing epoch is corruption), at least one
//! shard, a well-formed pin table, and never in the middle of a batch
//! (the engine only reshards between flushes) — each violation a
//! graceful [`ParseError`], never a panic.
//!
//! # Segments and checkpoints
//!
//! The journal is a sequence of *segments*. A segment starts either at
//! genesis or at a checkpoint — a full [`crate::Engine`] snapshot
//! (`realloc_core::snapshot` framing) taken between flushes by
//! [`crate::Engine::checkpoint`] — and holds the events recorded until
//! the next checkpoint seals it. Because a checkpoint makes every older
//! segment redundant for recovery, sealed segments beyond
//! [`crate::EngineConfig::retained_segments`] are dropped, which bounds
//! the journal's memory instead of growing without bound from genesis.
//!
//! # Replay vs. recovery
//!
//! * [`Journal::replay`] — the audit path: rebuilds an engine from the
//!   *earliest retained* state (genesis, or the oldest retained
//!   checkpoint after truncation) and re-services every retained event,
//!   verifying each recorded routing decision and outcome.
//! * [`Journal::recover_engine`] / [`crate::Engine::recover`] — the
//!   crash-recovery path: restores the *latest* checkpoint and replays
//!   only the tail, making recovery O(tail) instead of O(history) while
//!   preserving the same divergence detection on the events it replays.
//!
//! Shard migration falls out of the same machinery: snapshot, ship,
//! restore — no genesis replay.

use crate::backend::BackendKind;
use crate::{Engine, EngineConfig};
use realloc_core::router::{Router, TENANT_SHIFT};
use realloc_core::snapshot::{embed, take_embedded};
use realloc_core::textio::ParseError;
use realloc_core::{Error, JobId, Request, Window};
use std::collections::VecDeque;

/// Netted per-request costs, as recorded in the journal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Costs {
    /// Paper §2 reallocation cost of the request.
    pub reallocations: u64,
    /// Paper §2 migration cost of the request.
    pub migrations: u64,
}

/// Stable error codes (scheduler error *details* are free-form strings
/// and not replay-comparable; the code is).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrCode {
    /// Insert reused an active id.
    Duplicate,
    /// Delete of an inactive job.
    Unknown,
    /// Unaligned window hit an aligned-only backend.
    Unaligned,
    /// No capacity (underallocation precondition violated).
    Capacity,
    /// Request shape unsupported by the backend.
    Unsupported,
}

impl ErrCode {
    /// Classifies a scheduler error.
    pub fn of(e: &Error) -> ErrCode {
        match e {
            Error::DuplicateJob(_) => ErrCode::Duplicate,
            Error::UnknownJob(_) => ErrCode::Unknown,
            Error::UnalignedWindow(_) => ErrCode::Unaligned,
            Error::CapacityExhausted { .. } => ErrCode::Capacity,
            Error::UnsupportedJob { .. } => ErrCode::Unsupported,
        }
    }

    /// The stable wire token of this code (`Display` uses it; journal
    /// and replication-frame encodings share it).
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrCode::Duplicate => "duplicate",
            ErrCode::Unknown => "unknown",
            ErrCode::Unaligned => "unaligned",
            ErrCode::Capacity => "capacity",
            ErrCode::Unsupported => "unsupported",
        }
    }

    /// Parses a wire token produced by [`ErrCode::as_str`].
    pub fn parse(s: &str) -> Option<ErrCode> {
        Some(match s {
            "duplicate" => ErrCode::Duplicate,
            "unknown" => ErrCode::Unknown,
            "unaligned" => ErrCode::Unaligned,
            "capacity" => ErrCode::Capacity,
            "unsupported" => ErrCode::Unsupported,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Outcome of one journaled request.
pub type ReqResult = Result<Costs, ErrCode>;

/// One journaled request with its routing and outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalEvent {
    /// Flush number the request was serviced in.
    pub batch: u64,
    /// Shard that serviced it.
    pub shard: usize,
    /// The request itself (internal, tenant-resolved job id).
    pub request: Request,
    /// What happened.
    pub result: ReqResult,
}

/// The whitespace-split tokens of one record line.
pub type Tokens<'a> = std::str::SplitWhitespace<'a>;

/// Takes the next token of a record line as a `u64`.
fn num(parts: &mut Tokens<'_>, line: usize, what: &str) -> Result<u64, ParseError> {
    let err = |message| ParseError { line, message };
    parts
        .next()
        .ok_or_else(|| err(format!("missing {what}")))?
        .parse::<u64>()
        .map_err(|e| err(format!("bad {what}: {e}")))
}

impl JournalEvent {
    /// Appends this event's v3 journal line (`+`/`-` op, no trailing
    /// `b` batch marker — that is the caller's framing concern) to
    /// `out`. [`Journal::to_text`] and the on-disk store share this
    /// encoder, so a store segment file's event lines parse with the
    /// same grammar as an in-memory journal dump.
    pub fn write_line(&self, out: &mut String) {
        out.push(self.op());
        out.push(' ');
        self.write_tail(out);
    }

    /// The line's op token: `+` for an insert, `-` for a delete.
    pub fn op(&self) -> char {
        match self.request {
            Request::Insert { .. } => '+',
            Request::Delete { .. } => '-',
        }
    }

    /// Appends everything after the op (and whatever the caller frames
    /// between the two — replication frames put the batch number there):
    /// `<shard> <id> [<start> <end>] ok <reallocs> <migrations>` or
    /// `… err <code>`, newline-terminated. [`JournalEvent::parse_tail`]
    /// is the one parser of this grammar.
    pub fn write_tail(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self.request {
            Request::Insert { id, window } => write!(
                out,
                "{} {} {} {}",
                self.shard,
                id.0,
                window.start(),
                window.end()
            )
            .unwrap(),
            Request::Delete { id } => write!(out, "{} {}", self.shard, id.0).unwrap(),
        }
        match self.result {
            Ok(c) => writeln!(out, " ok {} {}", c.reallocations, c.migrations).unwrap(),
            Err(code) => writeln!(out, " err {code}").unwrap(),
        }
    }

    /// Parses what [`JournalEvent::write_tail`] wrote, to the end of the
    /// line: `parts` stands just past the op token `op` (`+` or `-`) and
    /// the caller's own framing, `batch` is the flush the event belongs
    /// to, `line` locates errors.
    pub fn parse_tail(
        op: &str,
        batch: u64,
        parts: &mut Tokens<'_>,
        line: usize,
    ) -> Result<JournalEvent, ParseError> {
        let err = |message| ParseError { line, message };
        let shard = num(parts, line, "shard")? as usize;
        let id = JobId(num(parts, line, "id")?);
        let request = match op {
            "+" => {
                let start = num(parts, line, "arrival")?;
                let end = num(parts, line, "deadline")?;
                if end <= start {
                    return Err(err(format!("deadline {end} must exceed arrival {start}")));
                }
                Request::Insert {
                    id,
                    window: Window::new(start, end),
                }
            }
            "-" => Request::Delete { id },
            other => return Err(err(format!("bad event op '{other}'"))),
        };
        let result = match parts.next() {
            Some("ok") => Ok(Costs {
                reallocations: num(parts, line, "reallocations")?,
                migrations: num(parts, line, "migrations")?,
            }),
            Some("err") => {
                let code = parts
                    .next()
                    .ok_or_else(|| err("missing error code".to_string()))?;
                Err(ErrCode::parse(code).ok_or_else(|| err(format!("bad error code '{code}'")))?)
            }
            Some(other) => return Err(err(format!("bad outcome tag '{other}'"))),
            None => return Err(err("missing outcome".to_string())),
        };
        if let Some(extra) = parts.next() {
            return Err(err(format!("unexpected trailing token '{extra}'")));
        }
        Ok(JournalEvent {
            batch,
            shard,
            request,
            result,
        })
    }
}

/// Where a replay first diverged from the recording.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayDivergence {
    /// Index into [`Journal::iter_events`] (retained events).
    pub index: usize,
    /// The recorded event.
    pub recorded: JournalEvent,
    /// What the replay produced instead (`None`: replay produced no
    /// event at this position).
    pub replayed: Option<JournalEvent>,
}

impl std::fmt::Display for ReplayDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replay diverged at event {}: recorded {:?}, replayed {:?}",
            self.index, self.recorded, self.replayed
        )
    }
}

/// Why a replay or recovery failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// A checkpoint snapshot failed to parse or validate.
    Corrupt(ParseError),
    /// Replay produced a different outcome than the recording.
    Divergence(Box<ReplayDivergence>),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Corrupt(e) => write!(f, "corrupt checkpoint snapshot: {e}"),
            ReplayError::Divergence(d) => d.fmt(f),
        }
    }
}

impl std::error::Error for ReplayError {}

/// An epoch record: the complete routing table adopted by one elastic
/// resize/rebalance, journaled at its exact position in the event stream
/// so replay re-applies the same resharding at the same point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochRecord {
    /// The routing epoch this record advances to.
    pub epoch: u64,
    /// Shard count of the new table.
    pub shards: usize,
    /// Tenant pins of the new table, ordered by tenant.
    pub pins: Vec<(u64, usize)>,
}

impl EpochRecord {
    /// Captures a router's table as a journal record.
    pub fn of(router: &Router) -> EpochRecord {
        EpochRecord {
            epoch: router.epoch(),
            shards: router.shards(),
            pins: router.pins().collect(),
        }
    }

    /// Appends this record's v3 journal line (`E <epoch> <shards>
    /// [<tenant> <shard>]…`) to `out`; shared by [`Journal::to_text`]
    /// and the on-disk store.
    pub fn write_line(&self, out: &mut String) {
        out.push_str("E ");
        self.write_tail(out);
    }

    /// Appends the table itself — `<epoch> <shards> [<tenant>
    /// <shard>]…`, newline-terminated — which replication frames put
    /// behind their own header. [`EpochRecord::parse_tail`] is the one
    /// parser of this grammar.
    pub fn write_tail(&self, out: &mut String) {
        use std::fmt::Write as _;
        write!(out, "{} {}", self.epoch, self.shards).unwrap();
        for &(tenant, shard) in &self.pins {
            write!(out, " {tenant} {shard}").unwrap();
        }
        out.push('\n');
    }

    /// Parses what [`EpochRecord::write_tail`] wrote, to the end of the
    /// line, and validates the table: pinned tenants inside the tenant
    /// id space, no tenant pinned twice, and the router's own rules
    /// (at least one shard, pins in range, an unpinned shard left).
    pub fn parse_tail(parts: &mut Tokens<'_>, line: usize) -> Result<EpochRecord, ParseError> {
        let err = |message| ParseError { line, message };
        let epoch = num(parts, line, "epoch")?;
        let shards = num(parts, line, "epoch shard count")? as usize;
        let mut pins: Vec<(u64, usize)> = Vec::new();
        while let Some(tok) = parts.next() {
            let tenant = tok
                .parse::<u64>()
                .map_err(|e| err(format!("bad pinned tenant: {e}")))?;
            let shard = num(parts, line, "pin shard (truncated router table)")? as usize;
            if tenant >> (64 - TENANT_SHIFT) != 0 {
                return Err(err(format!(
                    "pinned tenant {tenant} exceeds the tenant id space"
                )));
            }
            if pins.iter().any(|&(t, _)| t == tenant) {
                return Err(err(format!("tenant {tenant} pinned twice")));
            }
            pins.push((tenant, shard));
        }
        Router::from_parts(epoch, shards, pins.iter().copied())
            .map_err(|e| err(format!("invalid epoch record: {e}")))?;
        Ok(EpochRecord {
            epoch,
            shards,
            pins,
        })
    }
}

/// Position of an incremental reader in a journal's record stream (see
/// [`Journal::records_since`]). Events are counted in the since-genesis
/// sequence space ([`Journal::total_events`]), so checkpoint truncation
/// never renumbers a cursor; epochs are identified by their strictly
/// increasing epoch number. `JournalCursor::default()` is the genesis
/// position.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalCursor {
    /// Events consumed so far (since genesis).
    pub events_seen: u64,
    /// Highest epoch record consumed so far (`0`: none — recorded
    /// epochs are always `>= 1`).
    pub last_epoch: u64,
}

impl JournalCursor {
    /// The cursor covering everything `journal` currently holds — the
    /// starting position of a stream that must not re-ship history.
    pub fn at_end_of(journal: &Journal) -> JournalCursor {
        JournalCursor {
            events_seen: journal.total_events(),
            last_epoch: journal
                .segments
                .iter()
                .flat_map(|s| s.epochs.iter())
                .map(|(_, r)| r.epoch)
                .max()
                .unwrap_or(0),
        }
    }

    /// Advances past one consumed record.
    pub fn advance(&mut self, record: &JournalRecord<'_>) {
        match record {
            JournalRecord::Event(_) => self.events_seen += 1,
            JournalRecord::Epoch(r) => self.last_epoch = r.epoch,
        }
    }
}

/// One borrowed journal record, as yielded by [`Journal::records_since`]:
/// the journal's stream interleaves serviced events with the epoch
/// records of elastic reshards, in recording order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalRecord<'a> {
    /// A serviced request.
    Event(&'a JournalEvent),
    /// A routing-table change at this position.
    Epoch(&'a EpochRecord),
}

/// Borrowing iterator over a journal's records past a cursor; see
/// [`Journal::records_since`].
#[derive(Debug)]
pub struct Records<'a> {
    segments: std::collections::vec_deque::Iter<'a, Segment>,
    events: &'a [JournalEvent],
    epochs: &'a [(usize, EpochRecord)],
    ev_idx: usize,
    ep_idx: usize,
    /// Global (since-genesis) index of `events[ev_idx]`.
    next_global: u64,
    skip_events: u64,
    skip_epochs: u64,
}

impl<'a> Iterator for Records<'a> {
    type Item = JournalRecord<'a>;

    fn next(&mut self) -> Option<JournalRecord<'a>> {
        loop {
            // An epoch anchored at position `p` precedes event `p` (the
            // serialization in `Journal::to_text` uses the same rule).
            if self
                .epochs
                .get(self.ep_idx)
                .is_some_and(|&(pos, _)| pos <= self.ev_idx || self.ev_idx >= self.events.len())
            {
                let (_, rec) = &self.epochs[self.ep_idx];
                self.ep_idx += 1;
                if rec.epoch > self.skip_epochs {
                    return Some(JournalRecord::Epoch(rec));
                }
                continue;
            }
            if let Some(event) = self.events.get(self.ev_idx) {
                self.ev_idx += 1;
                let global = self.next_global;
                self.next_global += 1;
                if global >= self.skip_events {
                    return Some(JournalRecord::Event(event));
                }
                continue;
            }
            let seg = self.segments.next()?;
            self.events = &seg.events;
            self.epochs = &seg.epochs;
            self.ev_idx = 0;
            self.ep_idx = 0;
        }
    }
}

/// A checkpoint: a full engine snapshot anchoring the start of a
/// segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Completed flushes at the moment the snapshot was taken.
    pub batches: u64,
    /// Events recorded since genesis before this checkpoint (including
    /// events in segments that were since truncated).
    pub events_before: u64,
    /// The engine snapshot (`realloc_core::snapshot` v1 framing).
    pub snapshot: String,
}

/// One journal segment: an optional base checkpoint plus the events
/// recorded until the next checkpoint sealed it.
#[derive(Clone, Debug)]
struct Segment {
    /// The checkpoint this segment starts from; `None` for genesis.
    base: Option<Checkpoint>,
    events: Vec<JournalEvent>,
    /// Epoch records anchored at event offsets: `(pos, record)` means
    /// the table changed after `events[..pos]` and before `events[pos..]`
    /// (ascending `pos`, possibly `pos == events.len()` for a trailing
    /// record).
    epochs: Vec<(usize, EpochRecord)>,
}

impl Segment {
    fn empty(base: Option<Checkpoint>) -> Segment {
        Segment {
            base,
            events: Vec::new(),
            epochs: Vec::new(),
        }
    }
}

/// Segmented engine event log; see the module docs.
#[derive(Clone, Debug)]
pub struct Journal {
    config: EngineConfig,
    /// Retained segments, oldest first; the last one is open (receiving
    /// appends), all earlier ones are sealed.
    segments: VecDeque<Segment>,
    /// Sealed segments dropped by truncation.
    dropped_segments: u64,
    /// Events inside the dropped segments.
    dropped_events: u64,
}

impl Journal {
    /// Empty journal for an engine with `config`.
    pub fn new(config: EngineConfig) -> Self {
        let mut segments = VecDeque::new();
        segments.push_back(Segment::empty(None));
        Journal {
            config,
            segments,
            dropped_segments: 0,
            dropped_events: 0,
        }
    }

    /// The engine configuration the journal was recorded under.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Re-anchors the retention cap (recovery: truncation must follow
    /// the restored engine's configuration). The rest of the config —
    /// notably the *genesis* shard count, which an elastic engine's
    /// current count can have drifted from — stays as recorded.
    pub(crate) fn set_retention(&mut self, retained_segments: usize) {
        self.config.retained_segments = retained_segments;
    }

    /// Borrowing iterator over all retained events in service order
    /// (concatenated across segments, walked in place). Events in
    /// truncated segments are gone — see [`Journal::dropped_events`].
    pub fn iter_events(&self) -> impl Iterator<Item = &JournalEvent> + '_ {
        self.segments.iter().flat_map(|s| s.events.iter())
    }

    /// Events recorded since genesis, truncated segments included — the
    /// global sequence space [`Journal::records_since`] cursors count in.
    pub fn total_events(&self) -> u64 {
        self.dropped_events
            + self
                .segments
                .iter()
                .map(|s| s.events.len() as u64)
                .sum::<u64>()
    }

    /// Incremental cursor: every retained record — event or epoch — the
    /// journal holds *past* `cursor`, in recording order, borrowed (no
    /// re-serialization, no cloning). This is how the replication
    /// primary tails its own journal after each flush.
    ///
    /// Returns `None` when the cursor's position predates the retained
    /// history (checkpoint truncation dropped it) or lies beyond it (a
    /// cursor from some other journal): the caller must fall back to a
    /// snapshot bootstrap instead of silently skipping records.
    pub fn records_since(&self, cursor: JournalCursor) -> Option<Records<'_>> {
        if cursor.events_seen < self.dropped_events || cursor.events_seen > self.total_events() {
            return None;
        }
        let mut segments = self.segments.iter();
        let mut current = segments.next().expect("journal always has a segment");
        let mut next_global = self.dropped_events;
        // Hop whole segments the cursor has fully consumed (every event
        // behind it and no unconsumed epoch record — epochs strictly
        // increase, so checking the last one suffices). Without this a
        // cursor deep into a long segment history would re-skip every
        // consumed event on each call — O(history) per poll instead of
        // O(new records).
        loop {
            let seg_events = current.events.len() as u64;
            let behind = next_global + seg_events <= cursor.events_seen
                && current
                    .epochs
                    .last()
                    .is_none_or(|(_, r)| r.epoch <= cursor.last_epoch);
            if !behind {
                break;
            }
            let Some(next) = segments.next() else { break };
            next_global += seg_events;
            current = next;
        }
        // Arithmetic in-segment skip of consumed events; the per-record
        // guards in `Records::next` remain as the correctness backstop
        // (e.g. a segment pinned by an unconsumed trailing epoch).
        let consumed = cursor
            .events_seen
            .saturating_sub(next_global)
            .min(current.events.len() as u64);
        Some(Records {
            segments,
            events: &current.events,
            epochs: &current.epochs,
            ev_idx: consumed as usize,
            ep_idx: 0,
            next_global: next_global + consumed,
            skip_events: cursor.events_seen,
            skip_epochs: cursor.last_epoch,
        })
    }

    /// Retained events without concatenating (cheap).
    pub fn event_count(&self) -> usize {
        self.segments.iter().map(|s| s.events.len()).sum()
    }

    /// Events of the open (unsealed) segment — everything recorded since
    /// the latest checkpoint. Borrow-based so replay's per-batch
    /// verification stays allocation-free.
    pub fn tail_events(&self) -> &[JournalEvent] {
        &self
            .segments
            .back()
            .expect("journal always has an open segment")
            .events
    }

    /// Number of retained segments (sealed + the open tail).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Sealed segments dropped to honor the retention cap.
    pub fn dropped_segments(&self) -> u64 {
        self.dropped_segments
    }

    /// Events lost with the dropped segments (still counted in every
    /// checkpoint's `events_before`).
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// The latest checkpoint, when one exists.
    pub fn latest_checkpoint(&self) -> Option<&Checkpoint> {
        self.segments.iter().rev().find_map(|s| s.base.as_ref())
    }

    /// A [`JournalCursor`] positioned exactly at the latest checkpoint
    /// (`None` when no checkpoint exists): [`Journal::records_since`]
    /// from here yields precisely the records after the snapshot was
    /// cut. A recovered replication primary uses this to pre-stamp the
    /// post-checkpoint tail so bootstrap ships snapshot + tail instead
    /// of a fresh full snapshot.
    pub fn checkpoint_cursor(&self) -> Option<JournalCursor> {
        let latest = self.segments.iter().rposition(|s| s.base.is_some())?;
        let cp = self.segments[latest].base.as_ref().expect("rposition hit");
        // Epoch records recorded before the checkpoint live in earlier
        // segments; epochs strictly increase, so the max is the last
        // record of the last earlier segment holding one.
        let last_epoch = self
            .segments
            .iter()
            .take(latest)
            .flat_map(|s| s.epochs.iter())
            .map(|(_, r)| r.epoch)
            .max()
            .unwrap_or(0);
        Some(JournalCursor {
            events_seen: cp.events_before,
            last_epoch,
        })
    }

    /// Appends one event (called by the engine during flush).
    pub fn append(&mut self, event: JournalEvent) {
        self.segments
            .back_mut()
            .expect("journal always has an open segment")
            .events
            .push(event);
    }

    /// Appends an epoch record at the current position (called by the
    /// engine when a resize/rebalance adopts a new routing table).
    pub fn append_epoch(&mut self, record: EpochRecord) {
        let open = self
            .segments
            .back_mut()
            .expect("journal always has an open segment");
        let pos = open.events.len();
        open.epochs.push((pos, record));
    }

    /// Retained epoch records, in order (the resize history still
    /// covered by this journal; earlier epochs live inside checkpoint
    /// snapshots).
    pub fn epoch_records(&self) -> Vec<EpochRecord> {
        self.segments
            .iter()
            .flat_map(|s| s.epochs.iter().map(|(_, r)| r.clone()))
            .collect()
    }

    /// Seals the open segment and starts a new one anchored at the given
    /// engine snapshot, then drops sealed segments beyond the retention
    /// cap. Called by [`Engine::checkpoint`] between flushes.
    pub fn checkpoint(&mut self, snapshot: String, batches: u64) {
        let events_before = self.total_events();
        self.segments.push_back(Segment::empty(Some(Checkpoint {
            batches,
            events_before,
            snapshot,
        })));
        // Truncate: keep at most `retained_segments` sealed segments.
        // Dropping from the front is always recovery-safe here: the
        // segment that becomes the new front was created by a checkpoint
        // (only the genesis segment has no base, and it is the first to
        // go).
        let cap = self.config.retained_segments;
        while self.segments.len() > cap.saturating_add(1) {
            debug_assert!(
                self.segments[1].base.is_some(),
                "every non-genesis segment starts at a checkpoint"
            );
            let seg = self.segments.pop_front().expect("len checked");
            self.dropped_segments += 1;
            self.dropped_events += seg.events.len() as u64;
        }
    }

    /// Serializes to the v3 line format (see module docs).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.event_count() * 24 + 64);
        out.push_str("# realloc-engine journal v3\n");
        // The header deliberately omits `parallel`: recordings are
        // execution-strategy agnostic (a pool-drained engine's journal
        // is byte-identical to a sequential one, and the property tests
        // pin that). `retained_segments` IS recorded — it governs the
        // journal's own truncation, so recovery must restore it even
        // when no checkpoint exists yet.
        writeln!(
            out,
            "c {} {} {} {}",
            self.config.shards,
            self.config.machines_per_shard,
            self.config.backend,
            self.config.retained_segments
        )
        .unwrap();
        if self.dropped_segments > 0 {
            writeln!(out, "T {} {}", self.dropped_segments, self.dropped_events).unwrap();
        }
        for seg in &self.segments {
            if let Some(cp) = &seg.base {
                let lines = cp.snapshot.lines().count();
                writeln!(out, "s {} {} {lines}", cp.batches, cp.events_before).unwrap();
                embed(&mut out, &cp.snapshot);
            }
            let mut batch = None;
            let mut epochs = seg.epochs.iter().peekable();
            for (idx, e) in seg.events.iter().enumerate() {
                while epochs.peek().is_some_and(|&&(pos, _)| pos <= idx) {
                    let (_, rec) = epochs.next().expect("peeked");
                    rec.write_line(&mut out);
                }
                if batch != Some(e.batch) {
                    writeln!(out, "b {}", e.batch).unwrap();
                    batch = Some(e.batch);
                }
                e.write_line(&mut out);
            }
            for (_, rec) in epochs {
                rec.write_line(&mut out);
            }
        }
        out
    }

    /// Parses the line format back into a journal; every malformed-input
    /// class — truncated checkpoint bodies, garbage ops, duplicate or
    /// incomplete headers, invalid configs — yields a located
    /// [`ParseError`], never a panic.
    ///
    /// Note: *format* compatibility does not imply *replay*
    /// compatibility — replay re-services the stream with the current
    /// schedulers, and scheduler behavior can change across versions
    /// (e.g. this version's §3 migration victim is the smallest id on
    /// the tail machine, where older builds depended on hash iteration
    /// order). Replaying a recording made by an older build can
    /// legitimately report a divergence; divergence within one build is
    /// always real corruption or tampering.
    pub fn from_text(text: &str) -> Result<Journal, ParseError> {
        let mut config: Option<EngineConfig> = None;
        let mut dropped: Option<(u64, u64)> = None;
        let mut segments: VecDeque<Segment> = VecDeque::new();
        segments.push_back(Segment::empty(None));
        let mut batch = 0u64;
        // Epoch-record validation state: epochs must strictly increase
        // across the document, and a record may never split a batch (the
        // engine only reshards between flushes, so an in-batch record is
        // tampering). `barrier` holds the batch of the event immediately
        // preceding the latest epoch record; the next event must belong
        // to a different batch.
        let mut last_epoch: Option<u64> = None;
        let mut last_event_batch: Option<u64> = None;
        let mut barrier: Option<u64> = None;

        let mut lines = text.lines().enumerate().peekable();
        while let Some((i, raw)) = lines.next() {
            let line = i + 1;
            let err = |message: String| ParseError { line, message };
            let content = realloc_core::textio::line_content(raw);
            if content.is_empty() {
                continue;
            }
            let mut parts = content.split_whitespace();
            let op = parts.next().expect("non-empty line has a token");
            match op {
                "c" => {
                    if config.is_some() {
                        return Err(err("duplicate 'c' config header".to_string()));
                    }
                    let shards = num(&mut parts, line, "shards")? as usize;
                    let machines = num(&mut parts, line, "machines")? as usize;
                    if shards == 0 {
                        return Err(err("config needs at least one shard".to_string()));
                    }
                    if machines == 0 {
                        return Err(err(
                            "config needs at least one machine per shard".to_string()
                        ));
                    }
                    let backend_raw = parts
                        .next()
                        .ok_or_else(|| err("missing backend".to_string()))?;
                    let backend = BackendKind::parse(backend_raw).map_err(&err)?;
                    let retained_segments =
                        num(&mut parts, line, "retained-segments cap")? as usize;
                    config = Some(EngineConfig {
                        shards,
                        machines_per_shard: machines,
                        backend,
                        retained_segments,
                        ..EngineConfig::default()
                    });
                }
                "T" => {
                    if dropped.is_some() {
                        return Err(err("duplicate 'T' truncation marker".to_string()));
                    }
                    let segs = num(&mut parts, line, "dropped segments")?;
                    let events = num(&mut parts, line, "dropped events")?;
                    if segs == 0 {
                        return Err(err("'T' must name at least one dropped segment".to_string()));
                    }
                    dropped = Some((segs, events));
                }
                "s" => {
                    let batches = num(&mut parts, line, "checkpoint batches")?;
                    let events_before = num(&mut parts, line, "checkpoint events-before")?;
                    let nlines = num(&mut parts, line, "checkpoint line count")? as usize;
                    if let Some(extra) = parts.next() {
                        return Err(err(format!("unexpected trailing token '{extra}'")));
                    }
                    let mut body = lines.by_ref().map(|(_, raw)| raw);
                    let snapshot = take_embedded(&mut body, nlines)
                        .map_err(|why| err(format!("checkpoint: {why}")))?;
                    segments.push_back(Segment::empty(Some(Checkpoint {
                        batches,
                        events_before,
                        snapshot,
                    })));
                    // A checkpoint implies a flush boundary; no batch can
                    // span it.
                    last_event_batch = None;
                    barrier = None;
                }
                "E" => {
                    let record = EpochRecord::parse_tail(&mut parts, line)?;
                    if let Some(prev) = last_epoch.filter(|&prev| record.epoch <= prev) {
                        return Err(err(format!(
                            "epoch record {} does not advance past epoch {prev} \
                             (duplicate or regressing epoch)",
                            record.epoch
                        )));
                    }
                    last_epoch = Some(record.epoch);
                    barrier = last_event_batch;
                    let open = segments.back_mut().expect("open segment");
                    let pos = open.events.len();
                    open.epochs.push((pos, record));
                }
                "b" => batch = num(&mut parts, line, "batch")?,
                "+" | "-" => {
                    let event = JournalEvent::parse_tail(op, batch, &mut parts, line)?;
                    if let Some(b) = barrier {
                        if b == batch {
                            return Err(err(format!(
                                "epoch record in the middle of batch {batch} \
                                 (reshards only happen between flushes)"
                            )));
                        }
                        barrier = None;
                    }
                    last_event_batch = Some(batch);
                    segments
                        .back_mut()
                        .expect("genesis segment")
                        .events
                        .push(event);
                }
                other => return Err(err(format!("unknown op '{other}'"))),
            }
            if op != "s" {
                if let Some(extra) = parts.next() {
                    return Err(ParseError {
                        line,
                        message: format!("unexpected trailing token '{extra}'"),
                    });
                }
            }
        }
        let config = config.ok_or(ParseError {
            line: 0,
            message: "journal has no 'c' config header".to_string(),
        })?;
        let (dropped_segments, dropped_events) = dropped.unwrap_or((0, 0));
        if dropped_segments > 0 {
            // A truncated journal has no genesis: its first retained
            // segment must be a checkpoint, so the placeholder genesis
            // segment must have stayed empty.
            let genesis = &segments[0];
            if !genesis.events.is_empty() {
                return Err(ParseError {
                    line: 0,
                    message: "events precede the first checkpoint of a truncated journal"
                        .to_string(),
                });
            }
            if segments.len() == 1 {
                return Err(ParseError {
                    line: 0,
                    message: "truncated journal has no checkpoint to recover from".to_string(),
                });
            }
            segments.pop_front();
        }
        Ok(Journal {
            config,
            segments,
            dropped_segments,
            dropped_events,
        })
    }

    /// Rebuilds an engine from the earliest retained state — genesis, or
    /// the oldest retained checkpoint after truncation — re-servicing
    /// every retained event and verifying each recorded routing decision
    /// and outcome (the audit path). Returns the engine on success.
    pub fn replay(&self) -> Result<Engine, ReplayError> {
        self.replay_from(0)
    }

    /// The crash-recovery path: restores the **latest** checkpoint and
    /// replays only the journal tail (O(tail), not O(history)), with the
    /// same divergence detection on the replayed events. The returned
    /// engine carries this journal (retained history included), so it
    /// keeps recording where the recording left off. Consumes the
    /// journal so multi-megabyte checkpoint snapshots move instead of
    /// being copied; clone first to keep a caller-side copy.
    pub fn recover_engine(self) -> Result<Engine, ReplayError> {
        let latest = self
            .segments
            .iter()
            .rposition(|s| s.base.is_some())
            .unwrap_or(0);
        let mut engine = self.replay_from(latest)?;
        engine.attach_journal(self);
        Ok(engine)
    }

    /// Restores the state at the start of segment `start` (fresh engine
    /// for genesis, snapshot restore otherwise) and replays the events of
    /// segments `start..`, batch by batch, verifying outcomes.
    fn replay_from(&self, start: usize) -> Result<Engine, ReplayError> {
        let mut engine = match self.segments[start].base.as_ref() {
            None => {
                let mut cfg = self.config.clone();
                cfg.journal = true;
                Engine::new(cfg)
            }
            Some(cp) => {
                let engine =
                    Engine::restore_snapshot(&cp.snapshot).map_err(ReplayError::Corrupt)?;
                let cfg = engine.config();
                // The shard count is deliberately NOT cross-checked: the
                // header records the genesis count, and epoch records in
                // between can have resized the engine arbitrarily.
                if cfg.machines_per_shard != self.config.machines_per_shard
                    || cfg.backend != self.config.backend
                {
                    return Err(ReplayError::Corrupt(ParseError {
                        line: 0,
                        message: format!(
                            "checkpoint config ({} machines/shard, {}) does not match \
                             the journal header ({} machines/shard, {})",
                            cfg.machines_per_shard,
                            cfg.backend,
                            self.config.machines_per_shard,
                            self.config.backend
                        ),
                    }));
                }
                engine
            }
        };
        // Replay records into a fresh journal so replayed events can be
        // compared index-for-index with the tail.
        engine.reset_journal();
        let offset: usize = self
            .segments
            .iter()
            .take(start)
            .map(|s| s.events.len())
            .sum();
        let tail: Vec<JournalEvent> = self
            .segments
            .iter()
            .skip(start)
            .flat_map(|s| s.events.iter().copied())
            .collect();
        // Epoch records of the replayed segments, re-anchored at global
        // tail positions; each is applied exactly where the recorded
        // engine resharded.
        let mut epochs: Vec<(usize, &EpochRecord)> = Vec::new();
        let mut seg_offset = 0usize;
        for s in self.segments.iter().skip(start) {
            for (pos, rec) in &s.epochs {
                epochs.push((seg_offset + pos, rec));
            }
            seg_offset += s.events.len();
        }
        let mut next_epoch = 0usize;
        let apply = |engine: &mut Engine,
                     up_to: usize,
                     next_epoch: &mut usize|
         -> Result<(), ReplayError> {
            while *next_epoch < epochs.len() && epochs[*next_epoch].0 <= up_to {
                let (_, rec) = epochs[*next_epoch];
                engine.apply_epoch_record(rec)?;
                *next_epoch += 1;
            }
            Ok(())
        };
        let mut idx = 0usize;
        while idx < tail.len() {
            apply(&mut engine, idx, &mut next_epoch)?;
            let batch = tail[idx].batch;
            let mut end = idx;
            while end < tail.len() && tail[end].batch == batch {
                engine.submit(tail[end].request);
                end += 1;
            }
            engine.flush();
            // The replay engine never checkpoints, so its whole journal
            // is one open segment.
            let replayed = engine.journal().expect("journal enabled").tail_events();
            for (i, recorded) in tail.iter().enumerate().take(end).skip(idx) {
                let got = replayed.get(i).copied();
                // Batch numbering restarts in the replay engine; compare
                // everything else exactly.
                let matches = got.is_some_and(|g| {
                    g.shard == recorded.shard
                        && g.request == recorded.request
                        && g.result == recorded.result
                });
                if !matches {
                    return Err(ReplayError::Divergence(Box::new(ReplayDivergence {
                        index: offset + i,
                        recorded: *recorded,
                        replayed: got,
                    })));
                }
            }
            idx = end;
        }
        // Trailing epoch records (a resize after the last recorded
        // event) still apply — the recovered engine must serve at the
        // recorded epoch.
        apply(&mut engine, tail.len(), &mut next_epoch)?;
        // Replay re-numbers flushes by *eventful* batches only — empty
        // pre-crash flushes left no events, so the replayed counter can
        // lag the recorded batch numbers. Resuming recording with a
        // stale counter would reuse an already-recorded batch number and
        // merge two distinct flushes at the next replay; pin the counter
        // past every recorded batch.
        if let Some(last) = tail.last() {
            engine.bump_batches_past(last.batch);
        } else if let Some(cp) = self.segments[start].base.as_ref() {
            engine.bump_batches_past(cp.batches.saturating_sub(1));
        }
        Ok(engine)
    }
}
