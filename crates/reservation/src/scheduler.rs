//! The reservation-based pecking-order scheduler of paper §4 (Figure 1).
//!
//! # Architecture
//!
//! The paper's Figure 1 describes RESERVE/MOVE/PLACE imperatively. We
//! implement the same algorithm around Observation 7 (fulfillment is
//! history independent):
//!
//! * the *fulfilled quota* of every window in every interval is a pure
//!   function of the per-window job counts and the interval's allowance
//!   ([`crate::quota`]);
//! * the scheduler's mutable state records only which concrete slots back
//!   the fulfilled reservations and where jobs physically sit
//!   ([`crate::state`]);
//! * the running invariant is **never over-assigned**: each window's
//!   assigned slots in an interval never exceed its quota there. Quota
//!   *drops* (a deletion's reservation removal, an allowance shrink) are
//!   rebalanced eagerly at the affected intervals — a drop on a slot that
//!   holds a job triggers the paper's MOVE. Quota *rises* are materialized
//!   lazily: PLACE first tries the already-backed slots, then *hunts*
//!   through the window's intervals in round-robin order, topping each up
//!   to quota until a free fulfilled slot appears (Lemma 8 guarantees one
//!   while the instance is sufficiently underallocated).
//!
//! Standing reservations (one per window per enclosed interval, Figure 1
//! line 1) exist for every window span up to the level's high-water mark —
//! see [`crate::state::Level`] for why this bounding is behaviour-safe.
//!
//! Mutations and their consequences are processed through a FIFO worklist,
//! mirroring Figure 1's order: reservations first, then placement, then
//! higher-level fallout. Displacements strictly increase in level, so the
//! cascade terminates after at most one PLACE per level — the
//! `O(min{log* n, log* Δ})` of Theorem 1.
//!
//! MOVE itself performs the paper's *swap trick* (lines 12–13 of Figure 1):
//! moving a level-ℓ job between two of its window's slots swaps the two
//! slots in every ancestor interval, so ancestor allowance sizes — and
//! therefore all quotas — are unchanged, and no rebalance is needed. At
//! most one higher-level job hops between the swapped slots.
//!
//! Spans `≤ L₁` (level 0) have no reservation machinery; they use the
//! constant-depth pecking-order cascade in [`crate::base`].
//!
//! # Hot-path engineering
//!
//! REBALANCE runs two to three times per request and usually finds
//! nothing to do, so what it costs to *look* decides the request's cost.
//! Everything it looks at in an interval — the allowance, physical
//! occupancy, and every chain window's fulfilled slots — is one dense
//! record of bit words found by index ([`crate::state::Record`]); the
//! chain windows contribute only their job counts, found by index too.
//! The three phases are word operations on that record:
//!
//! 0. `assigned[k] &= !lower`;
//! 1. shed `popcount(assigned[k]) − quota` slots, lowest empty bits
//!    first, then MOVE jobs off `held[k]` bits in ascending order;
//! 2. hand out `!(lower | phys | ⋃assigned)` lowest bit first in chain
//!    order, falling back to `phys & !(lower | ⋃assigned)`.
//!
//! Occupancy changes, allowance flips, MOVE's ancestor swap and finding
//! which window holds a slot are single bit flips or tests in the same
//! records, PLACE reads the window's short list of intervals holding an
//! empty fulfilled slot, and the level-0 cascade finds its free slot as
//! the lowest clear `phys` bit under the window's mask.
//!
//! Every tie-break of the algorithm is "leftmost slot first", which in
//! words is "lowest set bit first" — the layout changes what a step
//! costs, never which slot it picks; the frozen seed copy in
//! `tests/seed_equivalence.rs` pins that down move for move.
//!
//! A request reads a job through its *handle*, an index into the job
//! slab ([`crate::jobs`]), and a slot's occupant through a paged array:
//! no lookup on the request path hashes, except a page directory far
//! from the origin ([`crate::paged`]).
//!
//! The request path performs **no heap allocation** beyond the returned
//! move list and writes where a store holds nothing yet (its head's
//! first write, a page past the head): the quota buffer and the
//! worklist are reused across requests, one pair per thread, so they are
//! warm whichever scheduler on the thread serves the next request
//! (taken/restored around each use so the rare recursive hunt still
//! works).

use crate::jobs::{Handle, JobRec, JobTable, SlotTable};
use crate::quota::{fulfill, positions_gained, positions_lost, reservation_count};
use crate::state::{Field, Level};
use realloc_core::{
    sort_for_rebuild, Error, JobId, SingleMachineReallocator, Slot, SlotMove, Tower, Window,
};
use std::cell::Cell;
use std::collections::VecDeque;

/// Maximum admissible window end: keeping the axis inside `[0, 2^63)`
/// guarantees aligned-parent and interval arithmetic never overflows.
pub const MAX_TIME: u64 = 1 << 63;

/// Deferred consequences of a mutation, processed FIFO.
#[derive(Clone, Debug)]
pub(crate) enum Task {
    /// Re-establish `interval`'s assignments against recomputed quotas.
    Rebalance {
        /// Scheduler level of the interval.
        level: usize,
        /// Interval start slot.
        istart: Slot,
    },
    /// Re-place a displaced job (the paper's cascading `PLACE(h)`).
    Place {
        /// The displaced job.
        job: JobId,
        /// Its handle.
        handle: Handle,
        /// Its window.
        window: Window,
        /// Its level.
        level: usize,
        /// The slot it was displaced from (for move accounting).
        from: Option<Slot>,
    },
}

thread_local! {
    /// Chain windows with their fulfilled quotas (`quotas_into` output),
    /// reused by every rebalance on the thread.
    static TARGETS: Cell<Vec<(Window, u64)>> = const { Cell::new(Vec::new()) };
    /// The FIFO worklist, reused by every request on the thread.
    static WORK: Cell<VecDeque<Task>> = const { Cell::new(VecDeque::new()) };
}

/// Single-machine reservation scheduler for recursively aligned windows
/// (paper §4). Implements [`SingleMachineReallocator`].
///
/// Windows must be aligned and end before [`MAX_TIME`]; the §5 alignment
/// wrapper (`realloc-multi`) produces such windows from arbitrary ones.
#[derive(Clone, Debug)]
pub struct ReservationScheduler {
    pub(crate) tower: Tower,
    /// Active jobs, by handle.
    pub(crate) jobs: JobTable,
    /// Physical occupancy: slot → handle.
    pub(crate) slot_jobs: SlotTable,
    /// Per-level window/interval state; index = level.
    pub(crate) levels: Vec<Level>,
}

impl ReservationScheduler {
    /// New scheduler with the paper tower (`L₁ = 32, L₂ = 256`).
    pub fn new() -> Self {
        Self::with_tower(Tower::paper())
    }

    /// New scheduler with a custom level ladder (tests / ablations).
    pub fn with_tower(tower: Tower) -> Self {
        let n = tower.max_levels();
        ReservationScheduler {
            jobs: JobTable::default(),
            slot_jobs: SlotTable::default(),
            // Level 0 has no intervals; its `Level` only fills index 0.
            levels: (0..n)
                .map(|l| Level::new(if l == 0 { 1 } else { tower.interval_span(l) }))
                .collect(),
            tower,
        }
    }

    /// The tower in use.
    pub fn tower(&self) -> &Tower {
        &self.tower
    }

    // ------------------------------------------------------------------
    // Geometry helpers
    // ------------------------------------------------------------------

    /// Interval span `L_ℓ` of `level ≥ 1`.
    pub(crate) fn ispan(&self, level: usize) -> u64 {
        self.levels[level].ispan()
    }

    /// Number of level-`level` intervals in window `w` (the paper's `2^k`).
    pub(crate) fn num_intervals(&self, level: usize, w: Window) -> u64 {
        w.span() / self.ispan(level)
    }

    // ------------------------------------------------------------------
    // Quotas
    // ------------------------------------------------------------------

    /// The chain of windows containing the interval at `istart` (all spans
    /// up to the level's high-water mark), sorted by span ascending, with
    /// their fulfilled quotas in this interval. Pure (Observation 7).
    /// Writes into the caller's buffer — the hot path calls this once per
    /// rebalanced interval.
    pub(crate) fn quotas_into(&self, level: usize, istart: Slot, out: &mut Vec<(Window, u64)>) {
        let lvl = &self.levels[level];
        let allowance = lvl.ispan() - lvl.rec(istart).count(Field::Lower);
        let shift = lvl.shift();
        out.clear();
        out.extend(lvl.chain_spans().enumerate().map(|(k, span)| {
            let w = Window::aligned_enclosing(istart, span);
            let (ni, pos) = (span >> shift, (istart - w.start()) >> shift);
            (w, reservation_count(lvl.x_at(k, istart), ni, pos))
        }));
        fulfill(out.iter_mut().map(|(_, quota)| quota), allowance);
    }

    /// Allocating convenience wrapper over [`Self::quotas_into`]
    /// (invariant checks, probes — not the request path).
    pub(crate) fn quotas_at(&self, level: usize, istart: Slot) -> Vec<(Window, u64)> {
        let mut out = Vec::new();
        self.quotas_into(level, istart, &mut out);
        out
    }

    // ------------------------------------------------------------------
    // Occupancy index maintenance
    // ------------------------------------------------------------------

    /// Records that `slot` became physically occupied: its `phys` bit is
    /// set in its enclosing interval at every level.
    fn note_occupied(&mut self, slot: Slot) {
        for lvl in &mut self.levels[1..] {
            lvl.set_occupancy(Field::Phys, slot);
        }
    }

    /// Records that `slot` became physically free: its `phys` bit is
    /// cleared at every level (pruning interval records left all-zero).
    fn note_freed(&mut self, slot: Slot) {
        for lvl in &mut self.levels[1..] {
            lvl.clear_occupancy(Field::Phys, slot);
        }
    }

    // ------------------------------------------------------------------
    // Worklist processing
    // ------------------------------------------------------------------

    fn drain(&mut self, work: &mut VecDeque<Task>, moves: &mut Vec<SlotMove>) -> Result<(), Error> {
        while let Some(task) = work.pop_front() {
            match task {
                Task::Rebalance { level, istart } => {
                    self.rebalance(level, istart, moves)?;
                }
                Task::Place {
                    job,
                    handle,
                    window,
                    level,
                    from,
                } => {
                    self.place(job, handle, window, level, from, moves, work)?;
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Rebalance: re-establish one interval against its quotas
    // ------------------------------------------------------------------

    /// Brings the interval at `istart` back under quota and tops it up:
    ///
    /// 0. drop assignments on slots that fell out of the allowance,
    /// 1. shed over-quota assignments (MOVE jobs off slots being shed),
    /// 2. claim free allowance slots for under-quota windows.
    ///
    /// Step 2 makes the interval *exactly* quota-consistent; intervals that
    /// were never rebalanced simply hold no assignments yet (lazy rises).
    fn rebalance(
        &mut self,
        level: usize,
        istart: Slot,
        moves: &mut Vec<SlotMove>,
    ) -> Result<(), Error> {
        // Take the buffer so it can live across `&mut self` calls. A
        // recursive rebalance (MOVE → hunt) sees — and leaves behind — an
        // empty one; only the outermost frame keeps the warmed buffer.
        let mut targets = TARGETS.with(Cell::take);
        let result = self.rebalance_inner(level, istart, moves, &mut targets);
        TARGETS.with(|cell| cell.set(targets));
        result
    }

    fn rebalance_inner(
        &mut self,
        level: usize,
        istart: Slot,
        moves: &mut Vec<SlotMove>,
        targets: &mut Vec<(Window, u64)>,
    ) -> Result<(), Error> {
        self.quotas_into(level, istart, targets);

        // Phase 0 + 1, window by window in chain order: drop invalid
        // assignments and shed the excess — empty slots first, in words;
        // what remains sits under the window's own jobs, which MOVE off
        // left to right.
        let mut first = 0;
        while let Some((k, excess)) = self.levels[level].shed(istart, first, targets) {
            let w = targets[k].0;
            let mut from = 0;
            for _ in 0..excess {
                let Some(s) = self.levels[level].next_held(istart, k, from) else {
                    break;
                };
                let h = self.slot_jobs.get(s).expect("a held slot has a job");
                self.move_job(level, w, h, moves)?;
                // `move_job` vacated `s`; the assignment is now empty.
                self.levels[level].unassign(w, s);
                from = (s - istart) as usize + 1;
            }
            first = k + 1;
        }

        // Phase 2: claim free allowance slots for under-quota windows.
        self.levels[level].claim(istart, targets);
        Ok(())
    }

    // ------------------------------------------------------------------
    // MOVE (Figure 1, lines 10–14): relocate a job within its window,
    // swapping the two slots in all ancestor intervals.
    // ------------------------------------------------------------------

    fn move_job(
        &mut self,
        level: usize,
        w: Window,
        handle: Handle,
        moves: &mut Vec<SlotMove>,
    ) -> Result<(), Error> {
        let (job, s) = (self.jobs.id(handle), self.jobs.rec(handle).slot);
        // Target: an empty fulfilled slot of `w` (Lemma 8 guarantees one),
        // preferring a physically free slot over one under a higher job.
        let target = match self.pick_fulfilled_slot(level, w) {
            Some(t) => t,
            None => self.hunt_capacity(job, level, w, moves)?,
        };
        debug_assert_ne!(target, s);

        // Physical swap: job s -> target; hopper (if any) target -> s.
        let hopper = self.slot_jobs.set(target, handle);
        self.jobs.set_slot(handle, target);
        self.levels[level].vacate(w, s);
        self.levels[level].occupy(w, target);
        moves.push(SlotMove {
            job,
            from: Some(s),
            to: Some(target),
        });

        let htop = match hopper {
            Some(h) => {
                let hrec = self.jobs.rec(h);
                debug_assert!(
                    hrec.level > level,
                    "occupant of a fulfilled slot must be higher-level"
                );
                // h hops target -> s; its own fulfilled slot re-points.
                // Both slots stay occupied, so `phys` is untouched.
                self.slot_jobs.set(s, h);
                self.jobs.set_slot(h, s);
                let hlvl = &mut self.levels[hrec.level];
                hlvl.repoint(hlvl.chain_pos(hrec.window.span()), target, s, true);
                moves.push(SlotMove {
                    job: self.jobs.id(h),
                    from: Some(target),
                    to: Some(s),
                });
                hrec.level
            }
            None => {
                self.slot_jobs.clear(s);
                self.levels.len() - 1
            }
        };

        // Ancestor swap (Figure 1 lines 12–13): for levels in (level, htop],
        // `s` and `target` trade lower-occupancy and any assignment at
        // `target` re-points to `s` (at the hopper's own level that was
        // done above; here it is some other window's empty slot). Both
        // slots share one interval at every ancestor level, and allowance
        // sizes — hence quotas — are unchanged, so no rebalance is needed.
        for lvl2 in &mut self.levels[level + 1..=htop] {
            lvl2.clear_occupancy(Field::Lower, s);
            lvl2.set_occupancy(Field::Lower, target);
            if let Some(k) = lvl2.holder(target) {
                lvl2.repoint(k, target, s, false);
            }
        }

        // `phys`: with a hopper both slots stay occupied; without one the
        // job's move frees `s` and claims `target`.
        if hopper.is_none() {
            self.note_occupied(target);
            self.note_freed(s);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Occupy / vacate: physical placement + displacement + allowance flips
    // ------------------------------------------------------------------

    /// Places `job` (level `level`, at `handle`) physically into `slot`,
    /// displacing any higher-level occupant and updating ancestor
    /// allowances. Does *not* touch `job`'s own window state — the caller
    /// does.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn occupy_slot(
        &mut self,
        job: JobId,
        handle: Handle,
        window: Window,
        level: usize,
        slot: Slot,
        from: Option<Slot>,
        moves: &mut Vec<SlotMove>,
        work: &mut VecDeque<Task>,
    ) {
        let displaced = self.slot_jobs.set(slot, handle).map(|h| {
            let hrec = self.jobs.rec(h);
            debug_assert!(
                hrec.level > level,
                "pecking order: only higher-level jobs are displaced"
            );
            // h loses its slot; its stale (now empty) assignment at `slot`
            // is cleaned by the flip-triggered rebalance below.
            self.levels[hrec.level].vacate(hrec.window, slot);
            (h, hrec)
        });
        if displaced.is_none() {
            // Newly occupied (a displacement keeps the slot occupied).
            self.note_occupied(slot);
        }
        self.jobs.put(
            handle,
            job,
            JobRec {
                window,
                level,
                slot,
            },
        );
        moves.push(SlotMove {
            job,
            from,
            to: Some(slot),
        });

        // Allowance flips: `slot` becomes lower-occupied for levels in
        // (level, htop]; above a displaced occupant's level it already was.
        let htop = displaced
            .as_ref()
            .map(|(_, hrec)| hrec.level)
            .unwrap_or(self.levels.len() - 1);
        for lvl2 in (level + 1)..=htop {
            self.levels[lvl2].set_occupancy(Field::Lower, slot);
            work.push_back(Task::Rebalance {
                level: lvl2,
                istart: self.levels[lvl2].istart_of(slot),
            });
        }
        if let Some((h, hrec)) = displaced {
            work.push_back(Task::Place {
                job: self.jobs.id(h),
                handle: h,
                window: hrec.window,
                level: hrec.level,
                from: Some(slot),
            });
        }
    }

    /// Removes the job at `handle` from its slot physically (its record
    /// stays for the caller to release) and updates ancestor allowances
    /// (the slot re-enters the allowance of every ancestor interval; quota
    /// rises never move jobs, so no rebalances are queued — the new
    /// capacity is claimed lazily).
    pub(crate) fn vacate_physical(&mut self, handle: Handle, moves: &mut Vec<SlotMove>) {
        let (job, JobRec { level, slot, .. }) =
            self.jobs.get(handle).expect("vacated job is active");
        let prev = self.slot_jobs.clear(slot);
        debug_assert_eq!(prev, Some(handle));
        moves.push(SlotMove {
            job,
            from: Some(slot),
            to: None,
        });
        for lvl2 in &mut self.levels[level + 1..] {
            lvl2.clear_occupancy(Field::Lower, slot);
        }
        self.note_freed(slot);
    }

    // ------------------------------------------------------------------
    // PLACE (Figure 1, lines 15–23)
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn place(
        &mut self,
        job: JobId,
        handle: Handle,
        window: Window,
        level: usize,
        from: Option<Slot>,
        moves: &mut Vec<SlotMove>,
        work: &mut VecDeque<Task>,
    ) -> Result<(), Error> {
        debug_assert!(level >= 1, "level-0 jobs use the base cascade");
        let slot = match self.pick_fulfilled_slot(level, window) {
            Some(s) => s,
            None => self.hunt_capacity(job, level, window, moves)?,
        };
        self.occupy_slot(job, handle, window, level, slot, from, moves, work);
        self.levels[level].occupy(window, slot);
        Ok(())
    }

    /// An empty fulfilled slot of `window`, preferring physically free ones.
    fn pick_fulfilled_slot(&self, level: usize, window: Window) -> Option<Slot> {
        self.levels[level].pick_open_slot(window)
    }

    /// Materializes quota rises interval by interval (round-robin order —
    /// leftmost intervals hold the most reservations) until `window` gains
    /// an empty fulfilled slot. Lemma 8 guarantees total quota ≥ x+1, so
    /// the hunt succeeds whenever the instance is sufficiently
    /// underallocated.
    fn hunt_capacity(
        &mut self,
        job: JobId,
        level: usize,
        window: Window,
        moves: &mut Vec<SlotMove>,
    ) -> Result<Slot, Error> {
        let ispan = self.ispan(level);
        let ni = self.num_intervals(level, window);
        for pos in 0..ni {
            let istart = window.start() + pos * ispan;
            self.rebalance(level, istart, moves)?;
            if let Some(s) = self.pick_fulfilled_slot(level, window) {
                return Ok(s);
            }
        }
        Err(Error::CapacityExhausted {
            job,
            detail: format!(
                "PLACE: window {window} at level {level} has no fulfilled empty slot \
                 in any of its {ni} intervals (underallocation precondition violated)"
            ),
        })
    }

    // ------------------------------------------------------------------
    // Insert / delete at levels ≥ 1
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn insert_leveled(
        &mut self,
        job: JobId,
        handle: Handle,
        window: Window,
        level: usize,
        moves: &mut Vec<SlotMove>,
        work: &mut VecDeque<Task>,
    ) -> Result<(), Error> {
        let ispan = self.ispan(level);
        let ni = self.num_intervals(level, window);
        self.levels[level].raise_high_water(window.span());
        let x_old = self.levels[level].add_x(window, 1);

        // The two new reservations (Figure 1 step 1–2): quota rises at the
        // two leftmost lightest intervals; rebalancing them may steal a slot
        // from a longer window (≤ 1 MOVE each).
        for pos in positions_gained(x_old, ni) {
            work.push_back(Task::Rebalance {
                level,
                istart: window.start() + pos * ispan,
            });
        }

        // PLACE the new job (Figure 1 step 3) after the reservations settle.
        let attempt = self
            .drain(work, moves)
            .and_then(|()| self.place(job, handle, window, level, None, moves, work))
            .and_then(|()| self.drain(work, moves));
        match attempt {
            Ok(()) => Ok(()),
            Err(e) => {
                // Roll the reservation bump back so state stays valid. (If
                // the failure happened after the job was physically placed —
                // possible only when underallocation is violated mid-cascade
                // — the job is withdrawn again.)
                work.clear();
                let mut rollback = VecDeque::new();
                if let Some((_, rec)) = self.jobs.get(handle) {
                    self.levels[level].vacate(window, rec.slot);
                    self.vacate_physical(handle, moves);
                    self.jobs.release(handle);
                }
                self.levels[level].add_x(window, -1);
                for pos in positions_lost(x_old + 1, ni) {
                    rollback.push_back(Task::Rebalance {
                        level,
                        istart: window.start() + pos * ispan,
                    });
                }
                self.drain(&mut rollback, moves)?;
                Err(e)
            }
        }
    }

    fn delete_leveled(
        &mut self,
        handle: Handle,
        rec: JobRec,
        moves: &mut Vec<SlotMove>,
        work: &mut VecDeque<Task>,
    ) -> Result<(), Error> {
        let (window, level, slot) = (rec.window, rec.level, rec.slot);
        let ispan = self.ispan(level);
        let ni = self.num_intervals(level, window);

        // Physically remove the job; its fulfilled slot stays (for now).
        self.levels[level].vacate(window, slot);
        self.vacate_physical(handle, moves);
        self.jobs.release(handle);

        // Drop the two reservations: quota falls at the two rightmost
        // heaviest intervals (may shed fulfilled slots; a shed slot holding
        // a job triggers MOVE). Standing per-interval reservations remain
        // even at x = 0 (Figure 1 line 1).
        let x_old = self.levels[level].add_x(window, -1);
        for pos in positions_lost(x_old, ni) {
            work.push_back(Task::Rebalance {
                level,
                istart: window.start() + pos * ispan,
            });
        }
        self.drain(work, moves)
    }

    // ------------------------------------------------------------------
    // Aborted-cascade recovery
    // ------------------------------------------------------------------

    /// Restores `jobs`/`slot_jobs` consistency after an aborted
    /// displacement cascade.
    ///
    /// A request rejected *mid-cascade* (possible only when the
    /// underallocation precondition is violated) can leave one displaced
    /// job without a slot: its PLACE either failed or was still queued
    /// when the worklist was cleared. At most one PLACE is ever in flight
    /// or pending, so at most one job is orphaned per abort. The orphan
    /// is re-placed through the ordinary PLACE machinery — the withdrawn
    /// request released the capacity it had claimed — and if even that
    /// fails the schedule is rebuilt from scratch. A rejected request
    /// must never corrupt state: the engine keeps serving after
    /// rejections.
    ///
    /// O(1) when nothing is orphaned (one length probe), which is every
    /// path that matters.
    pub(crate) fn recover_orphans(&mut self, moves: &mut Vec<SlotMove>) {
        if self.jobs.len() == self.slot_jobs.len() {
            return;
        }
        let orphans: Vec<(Handle, JobId, JobRec)> = self
            .jobs
            .iter()
            .filter(|&(h, _, rec)| self.slot_jobs.get(rec.slot) != Some(h))
            .collect();
        for (h, id, rec) in orphans {
            debug_assert!(rec.level >= 1, "base-cascade rollback is exact");
            let mut work = VecDeque::new();
            let replaced = self
                .place(
                    id,
                    h,
                    rec.window,
                    rec.level,
                    Some(rec.slot),
                    moves,
                    &mut work,
                )
                .and_then(|()| self.drain(&mut work, moves));
            if replaced.is_err() {
                self.rebuild_from_active();
                return;
            }
        }
    }

    /// Last-resort consistency restore: rebuilds the whole schedule from
    /// the active set, in the one rebuild order ([`sort_for_rebuild`]).
    /// Only reachable when an orphan could not be re-placed — i.e. under
    /// a doubly violated underallocation precondition. Jobs the rebuild
    /// cannot place (the instance is over-packed beyond what the
    /// reservation machinery tolerates) are dropped rather than kept in
    /// an inconsistent schedule. Every job keeps its handle.
    fn rebuild_from_active(&mut self) {
        let mut jobs: Vec<(Handle, JobId, Window)> = self
            .jobs
            .iter()
            .map(|(h, id, rec)| (h, id, rec.window))
            .collect();
        sort_for_rebuild(&mut jobs, |&(_, id, window)| (id, window));
        let mut fresh = ReservationScheduler::with_tower(self.tower.clone());
        fresh.jobs = self.jobs.empty_like();
        for (level, lvl) in self.levels.iter().enumerate() {
            // Preserve high-water marks: standing-reservation reach only
            // ever grows, and keeping it avoids quota discontinuities.
            fresh.levels[level].raise_high_water(lvl.high_water());
        }
        let mut moves = Vec::new();
        for &(h, id, w) in &jobs {
            let _ = fresh.insert_at(h, id, w, &mut moves);
            moves.clear();
        }
        fresh.jobs.refill_free();
        *self = fresh;
    }

    /// Inserts `id` at the free handle `handle`, appending its moves to
    /// `moves`: the one insert body (a rebuild that keeps handles passes
    /// each job's old one).
    pub(crate) fn insert_at(
        &mut self,
        handle: Handle,
        id: JobId,
        window: Window,
        moves: &mut Vec<SlotMove>,
    ) -> Result<(), Error> {
        if !window.is_aligned() {
            return Err(Error::UnalignedWindow(window));
        }
        if window.end() > MAX_TIME {
            return Err(Error::UnsupportedJob {
                job: id,
                detail: format!("window end {} exceeds MAX_TIME 2^63", window.end()),
            });
        }
        let level = self.tower.level_of(window.span());
        // Reuse the pooled worklist (failed cascades may leave tasks
        // behind; clear before restoring).
        let mut work = WORK.with(Cell::take);
        debug_assert!(work.is_empty());
        let result = if level == 0 {
            self.insert_base(id, handle, window, moves, &mut work)
                .and_then(|()| self.drain(&mut work, moves))
        } else {
            self.insert_leveled(id, handle, window, level, moves, &mut work)
        };
        work.clear();
        WORK.with(|cell| cell.set(work));
        if result.is_err() {
            // A mid-cascade rejection may have orphaned one displaced
            // job; restore consistency before surfacing the error.
            self.recover_orphans(moves);
        }
        result
    }

    /// Deletes the active job at `handle`, appending its moves to `moves`.
    fn delete_at(&mut self, handle: Handle, moves: &mut Vec<SlotMove>) -> Result<(), Error> {
        let rec = self.jobs.rec(handle);
        let mut work = WORK.with(Cell::take);
        debug_assert!(work.is_empty());
        let result = if rec.level == 0 {
            self.delete_base(handle, moves);
            self.drain(&mut work, moves)
        } else {
            self.delete_leveled(handle, rec, moves, &mut work)
        };
        work.clear();
        WORK.with(|cell| cell.set(work));
        if result.is_err() {
            self.recover_orphans(moves);
        }
        result
    }

    /// Count of physically occupied slots (for tests).
    pub fn occupied_slots(&self) -> usize {
        self.slot_jobs.len()
    }

    /// Pages held and bytes reserved by the scheduler's paged stores —
    /// the slot array and every level's records and windows (for memory
    /// tests).
    pub fn storage(&self) -> (usize, usize) {
        (self.levels.iter().map(Level::storage))
            .fold(self.slot_jobs.storage(), |(p, b), (lp, lb)| {
                (p + lp, b + lb)
            })
    }

    /// Number of windows that keep state — a job or a standing
    /// reservation (for memory tests).
    pub fn window_states(&self) -> usize {
        self.levels.iter().map(|l| l.window_states().len()).sum()
    }

    /// Drops the state of every window with no jobs, releasing its
    /// standing-reservation slots.
    ///
    /// Safe because the running invariant only requires assignments to
    /// never *exceed* quotas: un-backing an empty window's standing
    /// reservations is a lazy rise waiting to be re-claimed (by a later
    /// rebalance or hunt), and the freed slots can only help other
    /// windows. Call this at quiet points; cost is `O(state size)`.
    pub fn compact(&mut self) {
        for level in &mut self.levels[1..] {
            level.compact();
        }
    }
}

impl Default for ReservationScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl SingleMachineReallocator for ReservationScheduler {
    fn insert_into(
        &mut self,
        id: JobId,
        window: Window,
        moves: &mut Vec<SlotMove>,
    ) -> Result<Option<Handle>, Error> {
        if self.jobs.duplicate(id) {
            return Err(Error::DuplicateJob(id));
        }
        let handle = self.jobs.next_handle();
        self.insert_at(handle, id, window, moves)?;
        Ok(Some(handle))
    }

    fn delete_into(
        &mut self,
        id: JobId,
        handle: Option<Handle>,
        moves: &mut Vec<SlotMove>,
    ) -> Result<(), Error> {
        let handle = self.jobs.locate(id, handle).ok_or(Error::UnknownJob(id))?;
        self.delete_at(handle, moves)
    }

    fn slot_of(&self, id: JobId, handle: Option<Handle>) -> Option<Slot> {
        self.jobs.resolve(id, handle).map(|h| self.jobs.rec(h).slot)
    }

    fn handle_of(&self, id: JobId) -> Option<Handle> {
        self.jobs.find(id)
    }

    fn assignments(&self) -> Vec<(JobId, Slot)> {
        self.jobs
            .iter()
            .map(|(_, id, rec)| (id, rec.slot))
            .collect()
    }

    fn active_count(&self) -> usize {
        self.jobs.len()
    }

    fn name(&self) -> &'static str {
        "reservation"
    }
}
