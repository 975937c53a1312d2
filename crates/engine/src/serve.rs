//! The serving path: enqueue, the one flush door, and the durable tee.

use crate::journal::{Checkpoint, EpochRecord, Journal, JournalEvent};
use crate::shard::Shard;
use crate::shard::ShardDrain;
use crate::{BatchReport, Engine, FlushMode, TenantId, FLUSH_TRACE_WINDOW, TENANT_SHIFT};
use realloc_core::{Error, JobId, Request, RequestSeq};
use realloc_telemetry::{Severity, Span, Telemetry, TraceCtx};
use std::sync::Arc;

/// A durable tee under the in-memory journal: everything the journal
/// records — batches of events, epoch records, checkpoints — is also
/// handed to the attached sink, and a durable flush makes it stable
/// before reporting `Ok`, so `Ok` means *on stable storage*, not just
/// *in memory*.
///
/// The durable flush is two steps. **Stage** ([`Engine::flush_mode`]
/// under [`FlushMode::Durable`], with `&mut Engine`): drain, journal,
/// [`DurabilitySink::append_batch`]. **Commit** (needs no engine
/// access): wait until the appended records are stable. A sink that
/// hands out a [`CommitLog`]
/// ([`DurabilitySink::commit_log`]) lets the commit run on a
/// [`CommitTicket`] after the caller has released whatever lock guards
/// the engine; a sink that does not is committed inline by
/// [`DurabilitySink::sync`] inside the stage. [`Engine::flush_durable`]
/// is stage + commit in one call.
///
/// The on-disk implementation lives in `realloc-store` (this crate
/// cannot depend on it — the store decodes through [`Journal`], so the
/// dependency points the other way). Error strings are sticky at the
/// engine level: after the first sink failure the engine stops teeing
/// and [`Engine::durability_error`] reports the cause, while in-memory
/// serving continues unaffected.
pub trait DurabilitySink: Send + std::fmt::Debug {
    /// Appends one flush's events (all share one batch number). Called
    /// once per non-empty flush; ordering across calls matches the
    /// journal's record order.
    fn append_batch(&mut self, events: &[JournalEvent]) -> Result<(), String>;

    /// Appends an epoch record at its position in the stream.
    fn append_epoch(&mut self, record: &EpochRecord) -> Result<(), String>;

    /// Persists a checkpoint and seals the current on-disk segment. The
    /// implementation must make this atomic and durable on its own
    /// (temp + fsync + rename) — the engine does not follow up with a
    /// [`DurabilitySink::sync`].
    fn checkpoint(&mut self, checkpoint: &Checkpoint) -> Result<(), String>;

    /// Group-commit barrier: everything appended so far must be on
    /// stable storage when this returns `Ok`.
    fn sync(&mut self) -> Result<(), String>;

    /// The sink's shared commit state, when it can make appended records
    /// stable without `&mut` access to the sink — what lets a durable
    /// flush wait for the disk after the engine has been unlocked. The
    /// default hands out none: such a sink (a decorator, a test double)
    /// is committed inline through [`DurabilitySink::sync`].
    fn commit_log(&self) -> Option<Arc<dyn CommitLog>> {
        None
    }
}

/// A sink's commit state, shared outside the engine: a count of records
/// appended, a watermark of how many are stable, and the one operation
/// that advances the watermark. Implementations must not make
/// [`CommitLog::pending`] wait for a commit in flight — it is called
/// with the engine locked.
pub trait CommitLog: Send + Sync + std::fmt::Debug {
    /// The count of records appended so far — the ticket that covers
    /// all of them — or `None` when every one is already stable.
    fn pending(&self) -> Option<u64>;

    /// Returns once the first `ticket` records are on stable storage
    /// (`Ok`), or can no longer be promised to get there (`Err`, sticky:
    /// every later uncovered ticket fails too).
    ///
    /// A commit may wait a bounded, self-measured time before it syncs —
    /// less than one sync, for other callers' appends to share it (the
    /// on-disk store's leader does, when the previous sync says
    /// committers are on their way back). What it waits for is appended
    /// under the lock that guards the engine, so call this with that
    /// lock released, as [`CommitTicket::wait`]'s contract already says;
    /// a caller that cannot ([`Engine::flush_durable`]) at worst sits
    /// out that bound.
    fn commit(&self, ticket: u64) -> Result<(), String>;
}

/// The commit half of a staged durable flush: holds no engine state, so
/// the caller drops the engine lock first and then [`CommitTicket::wait`]s.
/// Until the wait returns `Ok`, nothing the stage did — nor anything an
/// earlier stage appended — may be reported to anyone as done.
#[derive(Debug)]
#[must_use = "a staged flush is not durable until its ticket has been waited on"]
pub struct CommitTicket {
    log: Arc<dyn CommitLog>,
    upto: u64,
    /// Where the `fsync` span is recorded (a disabled handle when the
    /// engine is uninstrumented), under which batch and trace.
    tele: Telemetry,
    batch: u64,
    trace: Option<TraceCtx>,
}

impl CommitTicket {
    /// How many appended records this ticket covers. Tickets of one
    /// engine are ordered: a ticket that waited `Ok` vouches for every
    /// ticket with a count no larger.
    pub fn upto(&self) -> u64 {
        self.upto
    }

    /// Blocks until the covered records are stable. On `Err` the caller
    /// owes the engine an [`Engine::note_durability_failure`] — the
    /// ticket cannot reach the engine it came from.
    pub fn wait(self) -> Result<(), String> {
        let _span = span_of(&self.tele, self.trace, "fsync", self.batch);
        self.log.commit(self.upto)
    }
}

/// Opens the `key` trace span of `batch`, under the batch's causal
/// trace when it has one.
fn span_of(tele: &Telemetry, trace: Option<TraceCtx>, key: &'static str, batch: u64) -> Span {
    match trace {
        Some(tc) => tele.span_in(tc, key, batch),
        None => tele.span(key, batch),
    }
}

impl Engine {
    /// Enqueues a request for the next flush, addressing the **raw
    /// global id space** — including every tenant's slice.
    ///
    /// This is the privileged interface for trusted callers (embedders
    /// driving a single id space, harnesses, and [`Journal::replay`],
    /// which must restore tenant-namespaced ids verbatim). Code serving
    /// untrusted tenants must go through [`Engine::submit_for`], which
    /// confines each tenant to its own slice; handing tenants `submit`
    /// would let them address each other's jobs.
    pub fn submit(&mut self, request: Request) {
        if let Some(tele) = &mut self.tele {
            // Queue-wait phase start: one clock read per batch (the
            // branch below is the only per-request telemetry cost).
            if tele.first_enqueue_at.is_none() {
                tele.first_enqueue_at = Some(tele.now());
            }
        }
        let shard = self.shard_of(request.job_id());
        self.shards[shard].enqueue(request);
    }

    /// Enqueues every request of a sequence (raw id space; see
    /// [`Engine::submit`]).
    pub fn submit_seq(&mut self, seq: &RequestSeq) {
        for &r in seq.requests() {
            self.submit(r);
        }
    }

    /// Translates a tenant's external job id into its slice of the
    /// global id space — the pure half of [`Engine::submit_for`], also
    /// used by read-side entry points ([`Engine::window_of_for`]) and by
    /// serving front-ends that need the global id before deciding
    /// whether to submit at all.
    ///
    /// Fails if `tenant` is the reserved [`TenantId`]`(0)` or the
    /// external id does not fit the per-tenant id space (`2^48` ids per
    /// tenant).
    pub fn global_id_of(tenant: TenantId, external: JobId) -> Result<JobId, Error> {
        if tenant.0 == 0 {
            return Err(Error::UnsupportedJob {
                job: external,
                detail: "TenantId(0) is reserved (it aliases the direct submit() id space)"
                    .to_string(),
            });
        }
        if external.0 >> TENANT_SHIFT != 0 {
            return Err(Error::UnsupportedJob {
                job: external,
                detail: format!(
                    "external id {} exceeds the {}-bit per-tenant id space",
                    external.0, TENANT_SHIFT
                ),
            });
        }
        Ok(JobId(((tenant.0 as u64) << TENANT_SHIFT) | external.0))
    }

    /// Enqueues a request on behalf of `tenant`, translating its external
    /// job id into the tenant's slice of the global id space. Returns the
    /// global id (for correlating journal entries and placements).
    ///
    /// Fails under the [`Engine::global_id_of`] rules: the reserved
    /// [`TenantId`]`(0)`, or an external id outside the per-tenant space.
    pub fn submit_for(&mut self, tenant: TenantId, request: Request) -> Result<JobId, Error> {
        let global = Self::global_id_of(tenant, request.job_id())?;
        let namespaced = match request {
            Request::Insert { window, .. } => Request::Insert { id: global, window },
            Request::Delete { .. } => Request::Delete { id: global },
        };
        self.submit(namespaced);
        Ok(global)
    }

    /// The one flush door: services the queue the way `mode` asks (see
    /// [`FlushMode`] for what each mode returns) and is the only place a
    /// batch is drained, journaled, tee'd to the durable sink, and
    /// staged for its commit. [`Engine::flush`] and
    /// [`Engine::flush_durable`] are its two zero-argument shorthands.
    /// It runs when it is called, inline: shards drain in index order,
    /// each its own queue in FIFO order. A trace armed with
    /// [`Engine::arm_trace`] tags the batch. With nothing queued it
    /// records nothing, so it moves no digested state either: an empty
    /// report and no batch number (a replica, which only hears recorded
    /// batches, would otherwise diverge). A durable one still commits
    /// what other callers left pending.
    pub fn flush_mode(
        &mut self,
        mode: FlushMode,
    ) -> Result<(BatchReport, Option<CommitTicket>), String> {
        let report = if self.queued() == 0 {
            BatchReport::default()
        } else {
            self.service_queue()
        };
        let ticket = match mode {
            FlushMode::Durable => self.stage_commit(report.batch)?,
            FlushMode::Immediate => None,
        };
        Ok((report, ticket))
    }

    /// [`Engine::flush_mode`]`(`[`FlushMode::Immediate`]`)`: services
    /// every queued request now and returns the report.
    pub fn flush(&mut self) -> BatchReport {
        self.flush_mode(FlushMode::Immediate)
            .expect("only durable flushes fail")
            .0
    }

    /// [`Engine::flush_mode`]`(`[`FlushMode::Durable`]`)` followed by
    /// its ticket's wait, for callers with nothing to unlock in between:
    /// services everything queued, tees the batch to the attached sink,
    /// and group-commits (at most one fsync per flush, however many
    /// events it carried). `Ok` therefore means *this batch survives a
    /// crash*. Fails when no sink is attached, when a previous tee
    /// already failed (sticky), or when the commit itself fails; the
    /// in-memory flush still happened in every error case.
    pub fn flush_durable(&mut self) -> Result<BatchReport, String> {
        let (report, ticket) = self.flush_mode(FlushMode::Durable)?;
        if let Some(ticket) = ticket {
            if let Err(e) = ticket.wait() {
                self.note_durability_failure(e.clone());
                return Err(e);
            }
        }
        Ok(report)
    }

    /// The one flush body: drain every shard, journal and tee the
    /// batch, assemble the report. Telemetry, when attached, is four
    /// clock reads at the phase boundaries (queue wait → barrier →
    /// journal → total) plus one `EngineTele::publish` of what the
    /// shards counted — it only ever reads, so outcomes are identical
    /// with and without it.
    fn service_queue(&mut self) -> BatchReport {
        let batch = self.batches;
        self.batches += 1;
        let trace = self.pending_trace.take();
        if let Some(tc) = trace {
            self.remember_trace(batch, tc);
        }
        let timing = self.tele.as_mut().map(|tele| {
            let start = tele.now();
            let span = span_of(&tele.t, trace, "flush", batch);
            if let Some(at) = tele.first_enqueue_at.take() {
                let wait = start.saturating_sub(at);
                tele.queue_wait.record(wait);
                if let Some(tc) = trace {
                    tele.t.point_in(tc, Severity::Debug, "queue", batch, wait);
                }
            }
            (start, span)
        });
        let drains: Vec<ShardDrain> = self.shards.iter_mut().map(Shard::drain).collect();
        let drained = self.tele_now();
        self.append_drains(batch, &drains);
        let journaled = self.tele_now();
        let report = BatchReport::from_drains(batch, drains);
        if let (Some(tele), Some((start, _span))) = (&self.tele, timing) {
            tele.barrier.record(drained.saturating_sub(start));
            if self.journal.is_some() {
                tele.journal_append
                    .record(journaled.saturating_sub(drained));
            }
            tele.flushes_total.inc();
            tele.flush_events
                .record((report.processed() + report.failed()) as u64);
            tele.publish(self);
            tele.flush_total.record(tele.now().saturating_sub(start));
        }
        report
    }

    /// The journal-append step of a flush, with the durable tee: when a
    /// sink is attached (and healthy), the events the journal just
    /// appended are handed to it as one batch.
    fn append_drains(&mut self, batch: u64, drains: &[ShardDrain]) {
        let Some(journal) = &mut self.journal else {
            return;
        };
        let mut appended = 0usize;
        for (shard, drain) in drains.iter().enumerate() {
            for &(request, result) in &drain.records {
                journal.append(JournalEvent {
                    batch,
                    shard,
                    request,
                    result,
                });
            }
            appended += drain.records.len();
        }
        if appended > 0 {
            // A flush never spans a checkpoint, so the batch is the
            // last `appended` events of the open segment.
            self.tee(|sink, journal| {
                let tail = journal.tail_events();
                sink.append_batch(&tail[tail.len() - appended..])
            });
        }
    }

    /// The durable tee: hands `write` the sink (and the journal it
    /// mirrors) when one is attached and healthy, and latches the first
    /// failure ([`Engine::note_durability_failure`]). Batches, epoch
    /// records and checkpoints all reach the sink through here.
    pub(crate) fn tee(
        &mut self,
        write: impl FnOnce(&mut dyn DurabilitySink, &Journal) -> Result<(), String>,
    ) {
        if self.durability_error.is_some() {
            return;
        }
        let (Some(sink), Some(journal)) = (self.sink.as_mut(), self.journal.as_ref()) else {
            return;
        };
        if let Err(e) = write(sink.as_mut(), journal) {
            self.note_durability_failure(e);
        }
    }

    /// Records a sink failure; the first one sticks
    /// ([`Engine::durability_error`]): teeing stops (the on-disk stream
    /// must not continue past a hole), in-memory serving continues.
    /// Public for the one failure the engine cannot see for itself — a
    /// [`CommitTicket::wait`] that returned `Err` away from it.
    pub fn note_durability_failure(&mut self, message: String) {
        if let Some(tele) = &self.tele {
            // An incident, not a plain point: fires the registered
            // flight-recorder hook so the ring around the failure is
            // dumped before it scrolls away.
            tele.t.incident("durability_error", 0, 0);
        }
        if self.durability_error.is_none() {
            self.durability_error = Some(message);
        }
    }

    /// Remembers a serviced batch's trace context for later lookup,
    /// keeping only the newest [`FLUSH_TRACE_WINDOW`] entries.
    fn remember_trace(&mut self, batch: u64, tc: TraceCtx) {
        self.flush_traces.insert(batch, tc);
        while self.flush_traces.len() > FLUSH_TRACE_WINDOW {
            self.flush_traces.pop_first();
        }
    }

    /// The causal trace context recorded for `batch`, when that batch
    /// was traced and recent (the engine keeps the newest
    /// `FLUSH_TRACE_WINDOW` entries). Replication stamping uses this
    /// to annotate the frame that ships a traced batch.
    pub fn trace_of_batch(&self, batch: u64) -> Option<TraceCtx> {
        self.flush_traces.get(&batch).copied()
    }

    /// Arms a causal trace context for the next flush — the
    /// one way to attach a sampled request's trace to a batch. The
    /// flush's trace-ring spans (`queue`/`flush`/`fsync`) record under
    /// the trace id, and replication stamping annotates the frame that
    /// ships the batch. The context is runtime-only — it never enters
    /// journal text, snapshots, or digested state, so traced and
    /// untraced runs are byte-identical on the replication wire's
    /// digested content. A later arm before that flush replaces the
    /// earlier context.
    pub fn arm_trace(&mut self, trace: TraceCtx) {
        self.pending_trace = Some(trace);
    }

    /// Submits a whole sequence in `batch_size`-request batches, flushing
    /// between batches. Returns `(processed, failed)` totals.
    pub fn ingest(&mut self, seq: &RequestSeq, batch_size: usize) -> (usize, usize) {
        assert!(batch_size >= 1);
        let (mut ok, mut failed) = (0usize, 0usize);
        for chunk in seq.requests().chunks(batch_size) {
            let route_start = self.tele.as_ref().map(|t| t.now());
            for &r in chunk {
                self.submit(r);
            }
            if let Some(t0) = route_start {
                let tele = self.tele.as_mut().expect("stamped above");
                let took = tele.now().saturating_sub(t0);
                tele.route.record(took);
            }
            let report = self.flush();
            ok += report.processed();
            failed += report.failed();
        }
        (ok, failed)
    }

    // ------------------------------------------------------------------
    // Durable tee (see `DurabilitySink`)
    // ------------------------------------------------------------------

    /// Attaches a durable store under the journal: from now on every
    /// flushed batch, epoch record, and checkpoint is tee'd to `sink`,
    /// and [`Engine::flush_durable`] group-commits. Requires the
    /// in-memory journal ([`crate::EngineConfig::journal`]) — the sink mirrors
    /// its stream. Replaces any previous sink and clears a sticky
    /// durability error.
    pub fn attach_durability(&mut self, sink: Box<dyn DurabilitySink>) -> Result<(), String> {
        if self.journal.is_none() {
            return Err(
                "durable store requires the in-memory journal (EngineConfig::journal)".to_string(),
            );
        }
        self.sink = Some(sink);
        self.durability_error = None;
        Ok(())
    }

    /// Detaches and returns the durable sink (e.g. to inspect or close
    /// it); the engine reverts to in-memory-only journaling.
    pub fn detach_durability(&mut self) -> Option<Box<dyn DurabilitySink>> {
        self.sink.take()
    }

    /// Whether a durable sink is currently attached.
    pub fn has_durability(&self) -> bool {
        self.sink.is_some()
    }

    /// The first durable-sink failure, if any. Sticky: once set, teeing
    /// has stopped and [`Engine::flush_durable`] fails until a fresh
    /// sink is attached. In-memory serving is unaffected.
    pub fn durability_error(&self) -> Option<&str> {
        self.durability_error.as_deref()
    }

    /// The sync decision of a [`FlushMode::Durable`] flush, after
    /// `batch` was serviced and tee'd: a sink with a [`CommitLog`] gets
    /// a ticket for whatever is pending (committed later, off the
    /// engine); any other sink is committed inline, here.
    fn stage_commit(&mut self, batch: u64) -> Result<Option<CommitTicket>, String> {
        let Some(sink) = self.sink.as_mut() else {
            return Err("no durable store attached (Engine::attach_durability)".to_string());
        };
        if let Some(e) = &self.durability_error {
            return Err(e.clone());
        }
        if let Some(log) = sink.commit_log() {
            return Ok(self.ticket(log, self.telemetry(), batch));
        }
        let span = span_of(
            &self.telemetry(),
            self.trace_of_batch(batch),
            "fsync",
            batch,
        );
        let synced = self.sink.as_mut().expect("checked above").sync();
        drop(span);
        synced.inspect_err(|e| self.note_durability_failure(e.clone()))?;
        Ok(None)
    }

    /// A ticket covering everything the sink has appended that is not
    /// yet stable — what a reader takes, with the engine still locked,
    /// before it reports state that other callers' staged flushes may
    /// have produced. `None` when nothing is pending (or there is no
    /// healthy sink with a [`CommitLog`] to ask): everything visible is
    /// as durable as it will get. The wait records no `fsync` span — it
    /// belongs to no batch.
    pub fn commit_barrier(&self) -> Option<CommitTicket> {
        if self.durability_error.is_some() {
            return None;
        }
        let log = self.sink.as_ref()?.commit_log()?;
        self.ticket(log, Telemetry::default(), self.batches)
    }

    /// A ticket for whatever is pending in `log`, its `fsync` span
    /// recorded into `tele` under `batch` and that batch's trace.
    fn ticket(&self, log: Arc<dyn CommitLog>, tele: Telemetry, batch: u64) -> Option<CommitTicket> {
        log.pending().map(|upto| CommitTicket {
            log,
            upto,
            tele,
            batch,
            // The flush consumed `pending_trace`; look the batch's
            // context back up so the fsync lands in the same trace.
            trace: self.trace_of_batch(batch),
        })
    }

    /// The attached registry's clock (0 without one — only ever read
    /// back when a registry is attached).
    fn tele_now(&self) -> u64 {
        self.tele.as_ref().map_or(0, |t| t.now())
    }

    /// The attached registry, or a disabled handle.
    fn telemetry(&self) -> Telemetry {
        self.tele.as_ref().map(|t| t.t.clone()).unwrap_or_default()
    }
}
