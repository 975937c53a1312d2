//! A single engine shard: one backend, one ingress queue, one stats block.
//!
//! Shards are fully independent — no shared scheduling state — and the
//! engine holds them by value: [`crate::Engine::flush`] drains them one
//! after another. The queue is a [`VecDeque`] the router fills and the
//! drain empties; each request's entire lifetime stays on one shard.
//! Telemetry is O(1) per request and O(1) memory (see
//! [`crate::metrics`]).
//!
//! A shard holds **no id-keyed state of its own**: which jobs are active
//! and under which windows is the backend's fact
//! ([`Reallocator::window_of`], [`Reallocator::active_jobs`]), and every
//! read here — [`Shard::window_of`], [`Shard::active_jobs`], the
//! snapshot's `a` lines, reshard adoption — goes through it. The `a`
//! lines are still written (derived) and, on restore, checked id and
//! window against the restored backend, then dropped.

use crate::backend::{Backend, BackendKind};
use crate::batch::ShardBatchStats;
use crate::journal::{Costs, ErrCode, ReqResult};
use crate::metrics::{Tally, TallyLines};
use realloc_core::snapshot::{Fields, SnapshotNode, SnapshotWriter};
use realloc_core::textio::ParseError;
use realloc_core::{JobId, Reallocator, Request, Window};
use std::collections::VecDeque;

/// One independent scheduling shard.
pub struct Shard {
    id: usize,
    backend: Backend,
    queue: VecDeque<Request>,
    /// Everything serviced since construction.
    tally: Tally,
}

/// Everything one shard did during a single flush, in execution order.
#[derive(Clone, Debug, Default)]
pub struct ShardDrain {
    /// Per-request `(request, result)` records.
    pub records: Vec<(Request, ReqResult)>,
    /// The rejected requests among `records`, in the same order.
    pub failures: Vec<(Request, ErrCode)>,
    /// What this drain added to the shard's lifetime counters.
    pub stats: ShardBatchStats,
}

impl Shard {
    /// New shard `id` running `kind` on `machines` machines.
    pub fn new(id: usize, kind: BackendKind, machines: usize) -> Self {
        Shard {
            id,
            backend: kind.build(machines),
            queue: VecDeque::new(),
            tally: Tally::default(),
        }
    }

    /// Shard index within the engine.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Enqueues a request for the next flush.
    pub fn enqueue(&mut self, r: Request) {
        self.queue.push_back(r);
    }

    /// Requests waiting for the next flush.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Jobs currently scheduled on this shard.
    pub fn active_count(&self) -> usize {
        self.backend.active_count()
    }

    /// What this shard has serviced since construction: request and
    /// failure counts, total costs, and the per-request cost
    /// distribution.
    pub fn tally(&self) -> &Tally {
        &self.tally
    }

    /// Largest active window span on this shard (the paper's `Δ`,
    /// shard-local). Computed on demand from the active set.
    pub fn current_max_span(&self) -> u64 {
        let jobs = self.active_jobs();
        jobs.iter().map(|(_, w)| w.span()).max().unwrap_or(0)
    }

    /// The backend's current `(job, machine, slot)` assignments.
    pub fn snapshot(&self) -> realloc_core::ScheduleSnapshot {
        self.backend.snapshot()
    }

    /// Original window of an active job.
    pub fn window_of(&self, id: JobId) -> Option<Window> {
        self.backend.window_of(id)
    }

    /// Every active job with its original window, sorted by id.
    pub fn active_jobs(&self) -> Vec<(JobId, Window)> {
        self.backend.active_jobs()
    }

    /// Adopts an already-active job during a reshard rebuild: places it
    /// through the backend **without** touching the request counters,
    /// cost totals, or histogram — re-homing a job is not a serviced
    /// request. Any rebuild moves the backend performs are internal to
    /// the fresh shard and not metered.
    pub(crate) fn adopt(&mut self, id: JobId, window: Window) -> Result<(), realloc_core::Error> {
        self.backend.insert(id, window).map(drop)
    }

    /// Takes the pending (unflushed) queue, FIFO order preserved — the
    /// reshard path re-routes these onto the successor shards so a resize
    /// never drops a queued request.
    pub(crate) fn take_queue(&mut self) -> VecDeque<Request> {
        std::mem::take(&mut self.queue)
    }

    /// Services every queued request in FIFO order.
    ///
    /// Failures are recorded and skipped — a multi-tenant service must
    /// keep serving the remaining stream when one request is rejected
    /// (the caller sees each failure in the returned drain and in
    /// [`Shard::tally`]).
    pub fn drain(&mut self) -> ShardDrain {
        let Tally {
            requests,
            failed,
            reallocations,
            migrations,
            ..
        } = self.tally;
        let mut out = ShardDrain {
            records: Vec::with_capacity(self.queue.len()),
            ..ShardDrain::default()
        };
        while let Some(req) = self.queue.pop_front() {
            let result = self.service_one(req);
            if let Err(code) = result {
                out.failures.push((req, code));
            }
            out.records.push((req, result));
        }
        // `service_one` is the one place costs are counted; the batch's
        // share is what the lifetime counters moved by.
        out.stats = ShardBatchStats {
            shard: self.id,
            processed: (self.tally.requests - requests) as usize,
            failed: (self.tally.failed - failed) as usize,
            reallocations: self.tally.reallocations - reallocations,
            migrations: self.tally.migrations - migrations,
        };
        out
    }

    /// Services one request against the backend and counts its netted
    /// costs. Failures are recorded, never fatal.
    fn service_one(&mut self, req: Request) -> ReqResult {
        let result = match self.backend.request(req) {
            Ok(outcome) => {
                let (reallocations, migrations) = outcome.netted_costs();
                Ok(Costs {
                    reallocations,
                    migrations,
                })
            }
            Err(e) => Err(ErrCode::of(&e)),
        };
        self.tally.record(&result);
        result
    }

    // ------------------------------------------------------------------
    // Snapshot / restore (the engine checkpoint building block)
    // ------------------------------------------------------------------

    /// Writes the shard's full state — telemetry counters, cost
    /// histogram, active windows, pending (unflushed) queue entries in
    /// FIFO order, and the backend's complete scheduler state — as a
    /// `shard <id>` section. [`crate::Engine::checkpoint`] flushes
    /// before snapshotting, so checkpoint sections have empty queues;
    /// the migration path may snapshot mid-queue and restore resumes
    /// with the queue intact.
    pub(crate) fn write_state(&self, w: &mut SnapshotWriter) {
        w.begin_args("shard", format_args!("{}", self.id));
        for r in &self.queue {
            match *r {
                Request::Insert { id, window } => w.line(format_args!(
                    "q + {} {} {}",
                    id.0,
                    window.start(),
                    window.end()
                )),
                Request::Delete { id } => w.line(format_args!("q - {}", id.0)),
            }
        }
        self.tally.write_lines(w, ["s", "c", "cb"]);
        for (id, win) in self.active_jobs() {
            w.line(format_args!("a {} {} {}", id.0, win.start(), win.end()));
        }
        self.backend.write_state(w);
        w.end();
    }

    /// Rebuilds a shard from a `shard` section. The `a` lines are not
    /// trusted: each must name a job the restored backend holds, under
    /// the window the backend holds it with, and together they must
    /// cover the backend's active set; they are then dropped.
    pub(crate) fn read_state(
        kind: BackendKind,
        machines: usize,
        node: &SnapshotNode,
    ) -> Result<Shard, ParseError> {
        node.expect_kind("shard")?;
        let id: usize = node
            .args
            .first()
            .and_then(|a| a.parse().ok())
            .ok_or(ParseError {
                line: 0,
                message: "shard section needs a numeric id argument".to_string(),
            })?;
        let mut tally = TallyLines::default();
        let mut active: Vec<(usize, JobId, Window)> = Vec::new();
        let mut queue: VecDeque<Request> = VecDeque::new();
        for (line, content) in &node.lines {
            let mut f = Fields::of(*line, content);
            match f.token("op")? {
                "q" => {
                    let op = f.token("queued op")?;
                    let id = JobId(f.u64("job id")?);
                    let request = match op {
                        "+" => {
                            let start = f.u64("window start")?;
                            let end = f.u64("window end")?;
                            if end <= start {
                                return Err(
                                    f.err(format!("window end {end} must exceed start {start}"))
                                );
                            }
                            Request::Insert {
                                id,
                                window: Window::new(start, end),
                            }
                        }
                        "-" => Request::Delete { id },
                        other => return Err(f.err(format!("bad queued op '{other}'"))),
                    };
                    f.finish()?;
                    queue.push_back(request);
                }
                "s" => tally.totals(f)?,
                "c" => tally.hist(f)?,
                "cb" => tally.bucket(f)?,
                "a" => {
                    let id = JobId(f.u64("job id")?);
                    let start = f.u64("window start")?;
                    let end = f.u64("window end")?;
                    f.finish()?;
                    if end <= start {
                        return Err(f.err(format!("window end {end} must exceed start {start}")));
                    }
                    active.push((*line, id, Window::new(start, end)));
                }
                other => {
                    return Err(ParseError {
                        line: *line,
                        message: format!("unknown shard snapshot op '{other}'"),
                    })
                }
            }
        }
        let tally = tally.finish(&format!("shard {id}"))?;
        let backend = Backend::read_state(kind, machines, node)?;
        // The backend must hold exactly the recorded active set, each
        // job under the recorded window: as many lines as jobs, every
        // line matching a job, no job named twice.
        if backend.active_count() != active.len() {
            return Err(ParseError {
                line: 0,
                message: format!(
                    "shard {id}: backend holds {} jobs but {} are recorded active",
                    backend.active_count(),
                    active.len()
                ),
            });
        }
        active.sort_unstable_by_key(|&(line, job, _)| (job, line));
        for (i, &(line, job, window)) in active.iter().enumerate() {
            let err = |message| ParseError { line, message };
            if i > 0 && active[i - 1].1 == job {
                return Err(err(format!("duplicate active job {job}")));
            }
            match backend.window_of(job) {
                Some(held) if held == window => {}
                Some(held) => {
                    return Err(err(format!(
                        "shard {id}: job {job} is recorded under {window} but the backend \
                         holds it under {held}"
                    )))
                }
                None => {
                    return Err(err(format!(
                        "shard {id}: recorded active job {job} is not in the backend"
                    )))
                }
            }
        }
        Ok(Shard {
            id,
            backend,
            queue,
            tally,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_services_fifo_and_records_failures() {
        let mut s = Shard::new(0, BackendKind::Reservation, 1);
        s.enqueue(Request::Insert {
            id: JobId(1),
            window: Window::new(0, 8),
        });
        s.enqueue(Request::Insert {
            id: JobId(1), // duplicate: rejected
            window: Window::new(0, 8),
        });
        s.enqueue(Request::Delete { id: JobId(1) });
        let drain = s.drain();
        assert_eq!(drain.records.len(), 3);
        assert_eq!((drain.stats.processed, drain.stats.failed), (2, 1));
        assert_eq!(drain.failures.len(), 1);
        assert_eq!((s.tally().requests, s.tally().failed), (2, 1));
        assert_eq!(s.active_count(), 0);
        assert_eq!(s.queued(), 0);
        assert_eq!(s.tally().hist.count(), 2);
    }

    #[test]
    fn max_span_tracks_the_active_set() {
        let mut s = Shard::new(3, BackendKind::Reservation, 1);
        for (i, span) in [8u64, 64, 64].iter().enumerate() {
            s.enqueue(Request::Insert {
                id: JobId(i as u64),
                window: Window::with_span(0, *span),
            });
        }
        s.drain();
        assert_eq!(s.current_max_span(), 64);
        s.enqueue(Request::Delete { id: JobId(1) });
        s.enqueue(Request::Delete { id: JobId(2) });
        s.drain();
        assert_eq!(s.current_max_span(), 8);
        assert_eq!(s.window_of(JobId(0)), Some(Window::with_span(0, 8)));
    }
}
