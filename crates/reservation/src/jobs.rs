//! The scheduler's jobs, addressed by handle.
//!
//! Each active job has one [`JobRec`] in a slab, at a *handle* that stays
//! fixed while the job is active ([`JobTable`]); which job sits on a slot
//! is a handle in a paged array over the axis ([`SlotTable`]). Inside a
//! request the scheduler passes handles, never ids, so it reads a job in
//! one index.
//!
//! Ids still name jobs everywhere outside: in moves, errors, snapshots
//! and every tie-break (a handle is an allocation accident and decides
//! nothing). Two kinds of owner address the scheduler:
//!
//! * by **id**, through [`realloc_core::SingleMachineReallocator`]'s
//!   `insert`/`delete`/`slot_of` — tests, experiments, the deamortized
//!   generations. They need an id → handle index, which the table keeps;
//! * by **handle**, through the `*_tracked` methods — the §3 wrapper,
//!   whose own id-keyed record carries the handle. Its requests never
//!   touch the index, so the first of them drops it, and the next
//!   id-addressed request rebuilds it from the slab.

use crate::paged::Paged;
use fxhash::FxHashMap;
use realloc_core::{JobId, Slot, Window};

/// Bookkeeping for one active job.
#[derive(Clone, Copy, Debug)]
pub struct JobRec {
    /// The (aligned, possibly trimmed) window the scheduler works with.
    pub window: Window,
    /// Cached level of `window.span()` in the tower.
    pub level: usize,
    /// Current physical slot.
    pub slot: Slot,
}

/// A job's index in its scheduler's [`JobTable`].
pub type Handle = u32;

/// One slab entry, packed to 32 bytes so that two share a cache line:
/// the window is its start and `log2` span.
#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    id: u64,
    start: Slot,
    slot: Slot,
    span_log2: u8,
    level: u8,
    /// `false` at a free handle.
    live: bool,
}

impl Entry {
    fn new(id: JobId, rec: JobRec) -> Self {
        Entry {
            id: id.0,
            start: rec.window.start(),
            slot: rec.slot,
            span_log2: rec.window.span().trailing_zeros() as u8,
            level: u8::try_from(rec.level).expect("tower levels fit u8"),
            live: true,
        }
    }

    fn rec(&self) -> JobRec {
        JobRec {
            window: Window::with_span(self.start, 1 << self.span_log2),
            level: usize::from(self.level),
            slot: self.slot,
        }
    }
}

/// Active jobs by handle, with free handles reused last-freed first.
/// Windows are aligned, so an entry keeps a window as its start and
/// `log2` span.
#[derive(Clone, Debug, Default)]
pub struct JobTable {
    /// One entry per handle, live or free.
    recs: Vec<Entry>,
    /// Free handles below `recs.len()`.
    free: Vec<Handle>,
    /// Number of live entries.
    live: usize,
    /// The id → handle index of id-addressed owners; `None` while the
    /// owner addresses jobs by handle (see the module docs).
    ids: Option<FxHashMap<JobId, Handle>>,
}

impl JobTable {
    /// The live entry at `handle`.
    #[inline]
    fn entry(&self, handle: Handle) -> &Entry {
        let entry = &self.recs[handle as usize];
        debug_assert!(entry.live, "handle {handle} names no active job");
        entry
    }

    /// The job at `handle`, if one is active there.
    #[inline]
    pub fn get(&self, handle: Handle) -> Option<(JobId, JobRec)> {
        let entry = self.recs.get(handle as usize)?;
        entry.live.then(|| (JobId(entry.id), entry.rec()))
    }

    /// The record of the active job at `handle`.
    #[inline]
    pub fn rec(&self, handle: Handle) -> JobRec {
        self.entry(handle).rec()
    }

    /// The id of the active job at `handle`.
    #[inline]
    pub fn id(&self, handle: Handle) -> JobId {
        JobId(self.entry(handle).id)
    }

    /// Moves the active job at `handle` to `slot`.
    #[inline]
    pub fn set_slot(&mut self, handle: Handle, slot: Slot) {
        debug_assert!(self.recs[handle as usize].live);
        self.recs[handle as usize].slot = slot;
    }

    /// Number of active jobs.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no job is active.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The free handle a new job takes: the last one freed, else the
    /// next past the end. It stays free until [`Self::put`] claims it, so
    /// a request rejected before placing its job leaves nothing to undo.
    pub fn next_handle(&self) -> Handle {
        self.free
            .last()
            .copied()
            .unwrap_or(self.recs.len() as Handle)
    }

    /// Makes `id` the job at `handle` with record `rec`: a new job at a
    /// free handle, or a new record for the job already there.
    pub fn put(&mut self, handle: Handle, id: JobId, rec: JobRec) {
        let at = handle as usize;
        if self.recs.len() <= at {
            // Past the end: the next handle, or a rebuild that keeps
            // handles and re-derives the free list afterwards.
            self.recs.resize(at + 1, Entry::default());
        }
        let entry = &self.recs[at];
        if entry.live {
            debug_assert_eq!(entry.id, id.0, "handle {handle} holds another job");
        } else {
            if self.free.last() == Some(&handle) {
                self.free.pop();
            }
            self.live += 1;
            if let Some(ids) = &mut self.ids {
                ids.insert(id, handle);
            }
        }
        self.recs[at] = Entry::new(id, rec);
    }

    /// Frees `handle`'s job.
    pub fn release(&mut self, handle: Handle) {
        let entry = &mut self.recs[handle as usize];
        assert!(entry.live, "released handle names an active job");
        entry.live = false;
        let id = JobId(entry.id);
        self.live -= 1;
        self.free.push(handle);
        if let Some(ids) = &mut self.ids {
            ids.remove(&id);
        }
    }

    /// Rebuilds the free list from the slab: for a table filled with
    /// [`Self::put`] at chosen handles.
    pub fn refill_free(&mut self) {
        self.free = (0..self.recs.len() as Handle)
            .rev()
            .filter(|&h| !self.recs[h as usize].live)
            .collect();
    }

    /// The handle of active job `id`: the index when there is one, a scan
    /// of the slab while the owner addresses jobs by handle.
    pub fn find(&self, id: JobId) -> Option<Handle> {
        match &self.ids {
            Some(ids) => ids.get(&id).copied(),
            None => self
                .iter()
                .find(|&(_, held, _)| held == id)
                .map(|(h, _, _)| h),
        }
    }

    /// The handle of active job `id`, building the id index first if the
    /// table has none (an id-addressed request).
    pub fn find_indexed(&mut self, id: JobId) -> Option<Handle> {
        let recs = &self.recs;
        self.ids
            .get_or_insert_with(|| {
                (recs.iter().enumerate())
                    .filter(|(_, e)| e.live)
                    .map(|(h, e)| (JobId(e.id), h as Handle))
                    .collect()
            })
            .get(&id)
            .copied()
    }

    /// `handle` if it names active job `id`, else `id`'s handle found by
    /// id: handles from a handle-addressed owner are checked, so a stale
    /// one costs a lookup, never a wrong job.
    pub fn resolve(&self, id: JobId, handle: Option<Handle>) -> Option<Handle> {
        match handle {
            Some(h) if self.get(h).is_some_and(|(held, _)| held == id) => Some(h),
            _ => self.find(id),
        }
    }

    /// Drops the id index: the owner addresses jobs by handle from now on.
    pub fn drop_index(&mut self) {
        self.ids = None;
    }

    /// Every active job as `(handle, id, record)`, by handle.
    pub fn iter(&self) -> impl Iterator<Item = (Handle, JobId, JobRec)> + '_ {
        (self.recs.iter().enumerate())
            .filter(|(_, e)| e.live)
            .map(|(h, e)| (h as Handle, JobId(e.id), e.rec()))
    }
}

/// Slot → handle of the job sitting on it, paged over the axis.
#[derive(Clone, Debug)]
pub struct SlotTable {
    /// Handle plus one; 0 for an empty slot.
    cells: Paged<u32>,
    /// Number of occupied slots.
    occupied: usize,
}

impl Default for SlotTable {
    fn default() -> Self {
        SlotTable {
            cells: Paged::over_slots(0, 1),
            occupied: 0,
        }
    }
}

impl SlotTable {
    /// The handle of the job on `slot`.
    #[inline]
    pub fn get(&self, slot: Slot) -> Option<Handle> {
        self.cells.get(slot).and_then(|cell| cell[0].checked_sub(1))
    }

    /// Puts `handle`'s job on `slot`, returning the one it replaced.
    #[inline]
    pub fn set(&mut self, slot: Slot, handle: Handle) -> Option<Handle> {
        let prev = self.cells.update(slot, |cell| {
            std::mem::replace(&mut cell[0], handle + 1).checked_sub(1)
        });
        if prev.is_none() {
            self.occupied += 1;
        }
        prev
    }

    /// Empties `slot`, returning the handle that sat there.
    #[inline]
    pub fn clear(&mut self, slot: Slot) -> Option<Handle> {
        let prev = self
            .cells
            .update(slot, |cell| std::mem::take(&mut cell[0]).checked_sub(1));
        if prev.is_some() {
            self.occupied -= 1;
        }
        prev
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// Whether no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Pages held and bytes reserved by the slot array.
    pub fn storage(&self) -> (usize, usize) {
        (self.cells.pages(), self.cells.bytes())
    }

    /// Checks the slot array's pages (see [`Paged::check`]).
    pub fn check_storage(&self) -> Result<(), String> {
        self.cells.check()
    }
}
