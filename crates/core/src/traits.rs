//! Scheduler interfaces.
//!
//! Two layers, mirroring the paper's reduction structure:
//!
//! * [`SingleMachineReallocator`] — a single-machine scheduler for
//!   **aligned** windows (paper §4). Both the reservation scheduler and the
//!   naive Lemma 4 baseline implement this, so the §3/§5 wrappers and all
//!   harnesses are generic over the backend.
//! * [`Reallocator`] — a full `m`-machine scheduler for arbitrary windows
//!   (what Theorem 1 delivers, and what the EDF/LLF baselines emulate).
//!
//! Each trait has one door per operation, which *appends* the request's
//! moves (paper §2's cost record) to a buffer the caller owns and reuses,
//! clearing it before each request. A rejected request counts no cost:
//! what it appended is the caller's to discard. `insert`, `delete` and
//! `request` are provided fresh-buffer wrappers no implementor overrides.

use crate::cost::{RequestOutcome, SlotMove};
use crate::error::Error;
use crate::job::JobId;
use crate::request::Request;
use crate::schedule::ScheduleSnapshot;
use crate::window::Window;
use crate::Slot;

/// A single-machine scheduler for aligned windows.
///
/// Implementations must keep a feasible single-machine schedule of all
/// active jobs at all times and report every slot change they perform.
/// A backend may give each job a *handle*, which [`Self::insert_into`]
/// returns: an owner that keeps its own id-keyed record passes it back,
/// so the backend finds the job without an id lookup, and vouches by
/// doing so that it never inserts an active id. Once an owner has passed
/// a handle it vouches for its ids from then on: a backend may drop its
/// duplicate check at that point. Owners that only ever pass `None` get
/// the backend's duplicate and unknown-job checks.
pub trait SingleMachineReallocator {
    /// Inserts a job with an **aligned** window, appending every slot
    /// move (the new job's placement has `from = None`); returns its
    /// handle, if the backend has handles.
    fn insert_into(
        &mut self,
        id: JobId,
        window: Window,
        moves: &mut Vec<SlotMove>,
    ) -> Result<Option<u32>, Error>;

    /// Deletes an active job, appending every slot move (its removal has
    /// `to = None`).
    fn delete_into(
        &mut self,
        id: JobId,
        handle: Option<u32>,
        moves: &mut Vec<SlotMove>,
    ) -> Result<(), Error>;

    /// Current slot of an active job.
    fn slot_of(&self, id: JobId, handle: Option<u32>) -> Option<Slot>;

    /// Current `(job, slot)` assignments.
    fn assignments(&self) -> Vec<(JobId, Slot)>;

    /// Number of active jobs.
    fn active_count(&self) -> usize;

    /// Short human-readable name for reports.
    fn name(&self) -> &'static str {
        "single-machine"
    }

    /// The handle [`Self::insert_into`] returned for the active job `id`
    /// (an owner restored from a snapshot asks once).
    fn handle_of(&self, id: JobId) -> Option<u32> {
        let _ = id;
        None
    }

    /// [`Self::insert_into`] with a fresh buffer.
    fn insert(&mut self, id: JobId, window: Window) -> Result<Vec<SlotMove>, Error> {
        let mut moves = Vec::new();
        self.insert_into(id, window, &mut moves).map(|_| moves)
    }

    /// [`Self::delete_into`] by id with a fresh buffer.
    fn delete(&mut self, id: JobId) -> Result<Vec<SlotMove>, Error> {
        let mut moves = Vec::new();
        self.delete_into(id, None, &mut moves).map(|()| moves)
    }
}

/// A full reallocating scheduler: `m` machines, arbitrary windows.
pub trait Reallocator {
    /// Number of machines.
    fn machines(&self) -> usize;

    /// Services `⟨INSERTJOB, id, window⟩`, appending every placement
    /// change.
    fn insert_into(
        &mut self,
        id: JobId,
        window: Window,
        out: &mut RequestOutcome,
    ) -> Result<(), Error>;

    /// Services `⟨DELETEJOB, id⟩`, appending every placement change.
    fn delete_into(&mut self, id: JobId, out: &mut RequestOutcome) -> Result<(), Error>;

    /// Snapshot of the current schedule.
    fn snapshot(&self) -> ScheduleSnapshot;

    /// Number of active jobs.
    fn active_count(&self) -> usize;

    /// The window an active job was inserted with (before any alignment
    /// or trimming the scheduler applies internally). The scheduler is
    /// the one owner of this fact: layers above it ask, they do not keep
    /// a copy.
    fn window_of(&self, id: JobId) -> Option<Window>;

    /// Every active job with the window it was inserted with, sorted by
    /// id.
    fn active_jobs(&self) -> Vec<(JobId, Window)>;

    /// Short human-readable name for reports.
    fn name(&self) -> &'static str {
        "reallocator"
    }

    /// Services a request, appending every placement change.
    fn request_into(&mut self, r: Request, out: &mut RequestOutcome) -> Result<(), Error> {
        match r {
            Request::Insert { id, window } => self.insert_into(id, window, out),
            Request::Delete { id } => self.delete_into(id, out),
        }
    }

    /// [`Self::insert_into`] with a fresh outcome.
    fn insert(&mut self, id: JobId, window: Window) -> Result<RequestOutcome, Error> {
        let mut out = RequestOutcome::empty();
        self.insert_into(id, window, &mut out).map(|()| out)
    }

    /// [`Self::delete_into`] with a fresh outcome.
    fn delete(&mut self, id: JobId) -> Result<RequestOutcome, Error> {
        let mut out = RequestOutcome::empty();
        self.delete_into(id, &mut out).map(|()| out)
    }

    /// [`Self::request_into`] with a fresh outcome.
    fn request(&mut self, r: Request) -> Result<RequestOutcome, Error> {
        let mut out = RequestOutcome::empty();
        self.request_into(r, &mut out).map(|()| out)
    }
}
