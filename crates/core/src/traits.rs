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

use crate::cost::{RequestOutcome, SlotMove};
use crate::error::Error;
use crate::job::JobId;
use crate::schedule::ScheduleSnapshot;
use crate::window::Window;
use crate::Slot;

/// A single-machine scheduler for aligned windows.
///
/// Implementations must keep a feasible single-machine schedule of all
/// active jobs at all times and report every slot change they perform.
pub trait SingleMachineReallocator {
    /// Inserts a job with an **aligned** window, returning all slot moves
    /// performed (the new job's initial placement is a move with
    /// `from = None`).
    fn insert(&mut self, id: JobId, window: Window) -> Result<Vec<SlotMove>, Error>;

    /// Deletes an active job, returning all slot moves performed (the
    /// deleted job's removal is a move with `to = None`).
    fn delete(&mut self, id: JobId) -> Result<Vec<SlotMove>, Error>;

    /// Current slot of an active job.
    fn slot_of(&self, id: JobId) -> Option<Slot>;

    /// Current `(job, slot)` assignments.
    fn assignments(&self) -> Vec<(JobId, Slot)>;

    /// Number of active jobs.
    fn active_count(&self) -> usize;

    /// Short human-readable name for reports.
    fn name(&self) -> &'static str {
        "single-machine"
    }

    /// [`Self::insert`] for an owner that keeps its own id-keyed record
    /// of every job it placed here, and so vouches that `id` is not
    /// active on this machine. Besides the moves it returns the
    /// backend's *handle* for the job, if the backend has handles: the
    /// owner passes it back to [`Self::delete_tracked`] and
    /// [`Self::slot_tracked`], which then find the job without an id
    /// lookup. A handle stays valid while the job is active here.
    fn insert_tracked(
        &mut self,
        id: JobId,
        window: Window,
    ) -> Result<(Vec<SlotMove>, Option<u32>), Error> {
        self.insert(id, window).map(|moves| (moves, None))
    }

    /// [`Self::delete`] of a job placed by [`Self::insert_tracked`],
    /// which returned `handle`.
    fn delete_tracked(&mut self, id: JobId, handle: Option<u32>) -> Result<Vec<SlotMove>, Error> {
        let _ = handle;
        self.delete(id)
    }

    /// [`Self::slot_of`] of a job placed by [`Self::insert_tracked`],
    /// which returned `handle`.
    fn slot_tracked(&self, id: JobId, handle: Option<u32>) -> Option<Slot> {
        let _ = handle;
        self.slot_of(id)
    }

    /// The handle [`Self::insert_tracked`] would have returned for the
    /// active job `id` (an owner restored from a snapshot asks once).
    fn handle_of(&self, id: JobId) -> Option<u32> {
        let _ = id;
        None
    }
}

/// A full reallocating scheduler: `m` machines, arbitrary windows.
pub trait Reallocator {
    /// Number of machines.
    fn machines(&self) -> usize;

    /// Services `⟨INSERTJOB, id, window⟩`.
    fn insert(&mut self, id: JobId, window: Window) -> Result<RequestOutcome, Error>;

    /// Services `⟨DELETEJOB, id⟩`.
    fn delete(&mut self, id: JobId) -> Result<RequestOutcome, Error>;

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

    /// Services a request.
    fn request(&mut self, r: crate::request::Request) -> Result<RequestOutcome, Error> {
        match r {
            crate::request::Request::Insert { id, window } => self.insert(id, window),
            crate::request::Request::Delete { id } => self.delete(id),
        }
    }
}
