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
//! says. Epoch records are validated at parse time — epochs strictly
//! increasing from 1 (a duplicate or regressing epoch is corruption), at least one
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
//! # One recorded stream
//!
//! What a recorded stream is, and how it is checked against a
//! re-execution, is decided in this module only:
//!
//! * **One grammar** — one writer and one reader per line kind:
//!   [`Journal::write_header`] (version line, `c`, `T`),
//!   [`Journal::write_config_line`] / [`Journal::parse_config_line`],
//!   [`Checkpoint::write_record`] (`s` and its body),
//!   [`JournalEvent::write_batch`] (`b` and a flush's events),
//!   [`EpochRecord::write_line`]. [`Journal::to_text`] / `from_text` are
//!   made of them, and so are the on-disk store's files, under the
//!   store's own record framing. Batch numbers only move forward,
//!   checkpoints in between or not: the parser refuses a `b` line that
//!   does not advance.
//! * **One walk** — [`Journal::records_since`]: whole batches (a
//!   borrowed slice each; a flush never spans a checkpoint) with epoch
//!   records at their exact positions. The text writer, replay and the
//!   replication frame stream consume it; none regroups events itself.
//! * **One verified re-execution** — replay restores a base and folds
//!   the walk through [`Engine::apply_recorded_batch`] /
//!   [`Engine::apply_epoch_record`], exactly as a replica applies the
//!   same records as frames, so a forged stream gets one verdict from
//!   replay, crash recovery and replication. [`Journal::replay`] (audit)
//!   starts from the *earliest* retained state; [`Journal::recover_engine`]
//!   / [`crate::Engine::recover`] from the *latest* checkpoint — O(tail),
//!   not O(history).
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

/// The line must end here.
fn no_more(parts: &mut Tokens<'_>, line: usize) -> Result<(), ParseError> {
    match parts.next() {
        None => Ok(()),
        Some(extra) => Err(ParseError {
            line,
            message: format!("unexpected trailing token '{extra}'"),
        }),
    }
}

impl JournalEvent {
    /// Appends one flush (`events`: one [`JournalRecord::Batch`]) as the
    /// journal frames it: a `b <batch>` line, then `<op> <tail>` per
    /// event. [`Journal::to_text`] and the on-disk store's chunks share
    /// this writer, so a segment file's chunks are journal text verbatim.
    pub fn write_batch(events: &[JournalEvent], out: &mut String) {
        use std::fmt::Write as _;
        let Some(first) = events.first() else { return };
        writeln!(out, "b {}", first.batch).unwrap();
        for e in events {
            out.push(e.op());
            out.push(' ');
            e.write_tail(out);
        }
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
        no_more(parts, line)?;
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
    /// The recording cannot be re-executed as it stands: a checkpoint
    /// snapshot failed to parse or validate, or a batch or epoch record
    /// broke a precondition of [`Engine::apply_recorded_batch`] /
    /// [`Engine::apply_epoch_record`].
    Corrupt(ParseError),
    /// Replay produced a different outcome than the recording.
    Divergence(Box<ReplayDivergence>),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Corrupt(e) => write!(f, "corrupt recording: {e}"),
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
            last_epoch: journal.last_epoch_in(journal.segments.len()),
        }
    }

    /// Advances past one consumed record.
    pub fn advance(&mut self, record: &JournalRecord<'_>) {
        match record {
            JournalRecord::Batch(events) => self.events_seen += events.len() as u64,
            JournalRecord::Epoch(r) => self.last_epoch = r.epoch,
        }
    }
}

/// One borrowed journal record, as yielded by [`Journal::records_since`]:
/// the recorded stream is a sequence of flushed batches with the epoch
/// records of elastic reshards between them, in recording order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalRecord<'a> {
    /// The events of one flush, in service order: a non-empty slice of
    /// one segment that shares one batch number (a flush never spans a
    /// checkpoint). A cursor that stands inside a batch gets its rest.
    Batch(&'a [JournalEvent]),
    /// A routing-table change at this position.
    Epoch(&'a EpochRecord),
}

/// The one walk of a journal's recorded stream — batch by batch, epoch
/// records at their exact positions — borrowed, nothing re-serialized or
/// cloned. [`Journal::records_since`] hands it out; replay, the text
/// writer and the replication frame stream all consume it.
#[derive(Debug)]
pub struct Records<'a> {
    segments: std::collections::vec_deque::Iter<'a, Segment>,
    events: &'a [JournalEvent],
    epochs: &'a [(usize, EpochRecord)],
    ev_idx: usize,
    ep_idx: usize,
    skip_epochs: u64,
}

impl<'a> Iterator for Records<'a> {
    type Item = JournalRecord<'a>;

    fn next(&mut self) -> Option<JournalRecord<'a>> {
        loop {
            // An epoch anchored at position `p` precedes event `p`.
            let next_epoch_at = match self.epochs.get(self.ep_idx) {
                Some((pos, rec)) if *pos <= self.ev_idx || self.ev_idx >= self.events.len() => {
                    self.ep_idx += 1;
                    if rec.epoch > self.skip_epochs {
                        return Some(JournalRecord::Epoch(rec));
                    }
                    continue;
                }
                Some((pos, _)) => *pos,
                None => self.events.len(),
            };
            if let Some(first) = self.events.get(self.ev_idx) {
                let rest = &self.events[self.ev_idx..next_epoch_at];
                let len = rest
                    .iter()
                    .position(|e| e.batch != first.batch)
                    .unwrap_or(rest.len());
                self.ev_idx += len;
                return Some(JournalRecord::Batch(&rest[..len]));
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

impl Checkpoint {
    /// Appends this checkpoint's journal record: the `s <batches>
    /// <events-before> <lines>` line, then the snapshot as that many
    /// verbatim lines. [`Journal::to_text`] and the store's reassembly of
    /// a directory share this writer.
    pub fn write_record(&self, out: &mut String) {
        use std::fmt::Write as _;
        let lines = self.snapshot.lines().count();
        writeln!(out, "s {} {} {lines}", self.batches, self.events_before).unwrap();
        embed(out, &self.snapshot);
    }

    /// Parses what [`Checkpoint::write_record`] wrote: `parts` stands
    /// past the `s` op of line `line`, `body` yields the lines after it.
    fn parse_record<'a>(
        parts: &mut Tokens<'_>,
        line: usize,
        body: &mut impl Iterator<Item = &'a str>,
    ) -> Result<Checkpoint, ParseError> {
        let batches = num(parts, line, "checkpoint batches")?;
        let events_before = num(parts, line, "checkpoint events-before")?;
        let nlines = num(parts, line, "checkpoint line count")? as usize;
        no_more(parts, line)?;
        let snapshot = take_embedded(body, nlines).map_err(|why| ParseError {
            line,
            message: format!("checkpoint: {why}"),
        })?;
        Ok(Checkpoint {
            batches,
            events_before,
            snapshot,
        })
    }
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

    /// The recorded stream past `cursor`: every retained batch and epoch
    /// record, in recording order (see [`Records`]). This is how the
    /// replication primary tails its own journal after each flush.
    ///
    /// Returns `None` when the cursor's position predates the retained
    /// history (checkpoint truncation dropped it) or lies beyond it (a
    /// cursor from some other journal): the caller must fall back to a
    /// snapshot bootstrap instead of silently skipping records.
    pub fn records_since(&self, cursor: JournalCursor) -> Option<Records<'_>> {
        if cursor.events_seen < self.dropped_events || cursor.events_seen > self.total_events() {
            return None;
        }
        // Hop whole segments the cursor has fully consumed (every event
        // behind it and no unconsumed epoch record — epochs strictly
        // increase, so checking the last one suffices): a poll costs
        // O(new records), not O(retained history).
        let mut start = 0;
        let mut before = self.dropped_events;
        for seg in self.segments.iter().take(self.segments.len() - 1) {
            let behind = before + seg.events.len() as u64 <= cursor.events_seen
                && seg
                    .epochs
                    .last()
                    .is_none_or(|(_, r)| r.epoch <= cursor.last_epoch);
            if !behind {
                break;
            }
            start += 1;
            before += seg.events.len() as u64;
        }
        // Later segments lie wholly past the cursor; epoch records it
        // has consumed in this one are skipped by number.
        let mut records = self.walk(start, self.segments.len());
        records.ev_idx =
            (cursor.events_seen.saturating_sub(before) as usize).min(records.events.len());
        records.skip_epochs = cursor.last_epoch;
        Some(records)
    }

    /// The walk over segments `from..to`, from the first one's start.
    fn walk(&self, from: usize, to: usize) -> Records<'_> {
        let mut segments = self.segments.range(from..to);
        let first = segments.next().expect("a walk covers a segment");
        Records {
            segments,
            events: &first.events,
            epochs: &first.epochs,
            ev_idx: 0,
            ep_idx: 0,
            skip_epochs: 0,
        }
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
        Some(JournalCursor {
            events_seen: cp.events_before,
            // Epoch records recorded before the checkpoint live in
            // earlier segments.
            last_epoch: self.last_epoch_in(latest),
        })
    }

    /// Highest epoch recorded in the first `n` retained segments (`0`:
    /// none).
    fn last_epoch_in(&self, n: usize) -> u64 {
        let epochs = self.segments.iter().take(n).flat_map(|s| &s.epochs);
        epochs.map(|(_, r)| r.epoch).max().unwrap_or(0)
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

    /// Appends the `c` config line: genesis shards, machines per shard,
    /// backend, retention cap. The inert `parallel` field is absent;
    /// `retained_segments` governs the journal's own truncation, so
    /// recovery must restore it even before the first checkpoint. The
    /// on-disk store heads each of its files with this line.
    pub fn write_config_line(out: &mut String, config: &EngineConfig) {
        use std::fmt::Write as _;
        writeln!(
            out,
            "c {} {} {} {}",
            config.shards, config.machines_per_shard, config.backend, config.retained_segments
        )
        .unwrap();
    }

    /// Parses what [`Journal::write_config_line`] wrote (`content`: the
    /// whole line); what a journal does not record stays at its default.
    pub fn parse_config_line(content: &str, line: usize) -> Result<EngineConfig, ParseError> {
        let err = |message: String| ParseError { line, message };
        let mut parts = content.split_whitespace();
        if parts.next() != Some("c") {
            return Err(err(format!("bad config line '{content}'")));
        }
        let shards = num(&mut parts, line, "shards")? as usize;
        let machines = num(&mut parts, line, "machines")? as usize;
        if shards == 0 || machines == 0 {
            return Err(err(
                "config needs at least one shard and one machine per shard".to_string(),
            ));
        }
        let backend_raw = parts
            .next()
            .ok_or_else(|| err("missing backend".to_string()))?;
        let backend = BackendKind::parse(backend_raw).map_err(&err)?;
        let retained_segments = num(&mut parts, line, "retained-segments cap")? as usize;
        no_more(&mut parts, line)?;
        Ok(EngineConfig {
            shards,
            machines_per_shard: machines,
            backend,
            retained_segments,
            ..EngineConfig::default()
        })
    }

    /// Appends what every journal document starts with: the version
    /// line, the `c` line and, when sealed segments were truncated away,
    /// the `T` marker counting them and their events.
    pub fn write_header(
        out: &mut String,
        config: &EngineConfig,
        dropped_segments: u64,
        dropped_events: u64,
    ) {
        use std::fmt::Write as _;
        out.push_str("# realloc-engine journal v3\n");
        Journal::write_config_line(out, config);
        if dropped_segments > 0 {
            writeln!(out, "T {dropped_segments} {dropped_events}").unwrap();
        }
    }

    /// Serializes to the v3 line format (see module docs).
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.event_count() * 24 + 64);
        Journal::write_header(
            &mut out,
            &self.config,
            self.dropped_segments,
            self.dropped_events,
        );
        for (i, seg) in self.segments.iter().enumerate() {
            if let Some(cp) = &seg.base {
                cp.write_record(&mut out);
            }
            for record in self.walk(i, i + 1) {
                match record {
                    JournalRecord::Batch(events) => JournalEvent::write_batch(events, &mut out),
                    JournalRecord::Epoch(rec) => rec.write_line(&mut out),
                }
            }
        }
        out
    }

    /// Parses the line format back into a journal; every malformed-input
    /// class — truncated checkpoint bodies, garbage ops, duplicate or
    /// incomplete headers, invalid configs, batch numbers that do not
    /// advance — yields a located [`ParseError`], never a panic.
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
        // Framing state. Epochs strictly increase across the document
        // (recorded epochs start at 1) and so do batch numbers — the
        // flush counter only moves forward, also across a checkpoint.
        // An event belongs to the open batch; a checkpoint or epoch
        // record that follows events of it ends it (the engine
        // checkpoints and reshards only between flushes), and `batch`
        // then holds what to tell an event that comes without a new `b`
        // line.
        let mut last_epoch = 0u64;
        let mut last_batch: Option<u64> = None;
        // `Ok((number, whether it has events yet))`.
        let mut batch: Result<(u64, bool), String> =
            Err("event before the first 'b' batch line".to_string());
        fn split(batch: &mut Result<(u64, bool), String>, by: &str) {
            if let Ok((b, true)) = *batch {
                *batch = Err(format!(
                    "{by} record in the middle of batch {b} \
                     (checkpoints and reshards only happen between flushes)"
                ));
            }
        }

        let mut lines = text.lines().enumerate();
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
                    config = Some(Journal::parse_config_line(content, line)?);
                }
                "T" => {
                    if dropped.is_some() {
                        return Err(err("duplicate 'T' truncation marker".to_string()));
                    }
                    let segs = num(&mut parts, line, "dropped segments")?;
                    let events = num(&mut parts, line, "dropped events")?;
                    no_more(&mut parts, line)?;
                    if segs == 0 {
                        return Err(err("'T' must name at least one dropped segment".to_string()));
                    }
                    dropped = Some((segs, events));
                }
                "s" => {
                    let mut body = lines.by_ref().map(|(_, raw)| raw);
                    let checkpoint = Checkpoint::parse_record(&mut parts, line, &mut body)?;
                    segments.push_back(Segment::empty(Some(checkpoint)));
                    split(&mut batch, "checkpoint");
                }
                "E" => {
                    let record = EpochRecord::parse_tail(&mut parts, line)?;
                    if record.epoch <= last_epoch {
                        return Err(err(format!(
                            "epoch record {} does not advance past epoch {last_epoch} \
                             (duplicate or regressing epoch)",
                            record.epoch
                        )));
                    }
                    last_epoch = record.epoch;
                    split(&mut batch, "epoch");
                    let open = segments.back_mut().expect("open segment");
                    let pos = open.events.len();
                    open.epochs.push((pos, record));
                }
                "b" => {
                    let n = num(&mut parts, line, "batch")?;
                    no_more(&mut parts, line)?;
                    if let Some(prev) = last_batch.filter(|&prev| n <= prev) {
                        return Err(err(format!(
                            "batch {n} does not advance past batch {prev} \
                             (the flush counter only moves forward)"
                        )));
                    }
                    last_batch = Some(n);
                    batch = Ok((n, false));
                }
                "+" | "-" => {
                    let n = match &mut batch {
                        Ok((n, has_events)) => {
                            *has_events = true;
                            *n
                        }
                        Err(why) => return Err(err(why.clone())),
                    };
                    let event = JournalEvent::parse_tail(op, n, &mut parts, line)?;
                    segments
                        .back_mut()
                        .expect("genesis segment")
                        .events
                        .push(event);
                }
                other => return Err(err(format!("unknown op '{other}'"))),
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
    /// for genesis, snapshot restore otherwise) and folds the walk over
    /// segments `start..` through the one verified re-execution —
    /// [`Engine::apply_recorded_batch`] at the recorded batch numbers,
    /// [`Engine::apply_epoch_record`] where the recorded engine
    /// resharded — exactly as a replica applies the same records.
    fn replay_from(&self, start: usize) -> Result<Engine, ReplayError> {
        let mut engine = match self.segments[start].base.as_ref() {
            None => {
                let mut cfg = self.config.clone();
                cfg.journal = true;
                Engine::new(cfg)
            }
            Some(cp) => {
                let corrupt = |at: ParseError| {
                    ReplayError::Corrupt(ParseError {
                        line: at.line,
                        message: format!("checkpoint snapshot: {}", at.message),
                    })
                };
                let engine = Engine::restore_snapshot(&cp.snapshot).map_err(corrupt)?;
                let cfg = engine.config();
                // The shard count is deliberately NOT cross-checked: the
                // header records the genesis count, and epoch records in
                // between can have resized the engine arbitrarily.
                if cfg.machines_per_shard != self.config.machines_per_shard
                    || cfg.backend != self.config.backend
                {
                    return Err(corrupt(ParseError {
                        line: 0,
                        message: format!(
                            "its config ({} machines/shard, {}) does not match \
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
        // Divergences are located in `iter_events` positions.
        let mut index: usize = self
            .segments
            .iter()
            .take(start)
            .map(|s| s.events.len())
            .sum();
        for record in self.walk(start, self.segments.len()) {
            match record {
                JournalRecord::Batch(events) => {
                    engine.apply_recorded_batch(events).map_err(|e| match e {
                        ReplayError::Divergence(mut at) => {
                            at.index += index;
                            ReplayError::Divergence(at)
                        }
                        other => other,
                    })?;
                    index += events.len();
                }
                JournalRecord::Epoch(record) => engine.apply_epoch_record(record)?,
            }
        }
        Ok(engine)
    }
}
