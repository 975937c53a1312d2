//! Level 0: the constant-depth pecking-order cascade for spans `≤ L₁`.
//!
//! The paper's recursion bottoms out here: windows of span at most
//! `L₁ = 32` have at most `lg L₁ + 1 = 6` distinct spans, so the naive
//! cascade of Lemma 4 — displace any strictly-longer-span job and reinsert
//! it — costs `O(lg L₁) = O(1)` reallocations, matching the constant
//! per-level budget of the `O(log* Δ)` analysis.
//!
//! Level 0 keeps no state of its own: whether a slot is empty, or under a
//! higher-level job, is read off the `phys` and `lower` bits of the
//! level-1 interval around the window ([`crate::state`]).
//!
//! Two properties keep the bookkeeping cheap:
//!
//! * an intermediate cascade step replaces one level-0 job by another in the
//!   same slot, so ancestor allowances are untouched;
//! * only the final step claims a new slot (empty, or under a higher-level
//!   job, which is then displaced into its own level's PLACE) — exactly one
//!   allowance flip per cascade.

use crate::jobs::{Handle, JobRec};
use crate::scheduler::{ReservationScheduler, Task};
use realloc_core::{Error, JobId, SlotMove, Window};
use std::collections::VecDeque;

impl ReservationScheduler {
    /// Inserts a level-0 job at the free handle `handle` via the
    /// pecking-order cascade.
    pub(crate) fn insert_base(
        &mut self,
        job: JobId,
        handle: Handle,
        window: Window,
        moves: &mut Vec<SlotMove>,
        work: &mut VecDeque<Task>,
    ) -> Result<(), Error> {
        let (mut cur_job, mut cur_handle) = (job, handle);
        let mut cur_window = window;
        let mut from = None;
        // The cascade's moves are `moves[start..]`; the handle of each
        // one's job, for the rollback.
        let start = moves.len();
        let mut movers: Vec<Handle> = Vec::new();
        loop {
            // The window (span ≤ L₁) lies inside one level-1 interval,
            // whose record answers the two cheap cases in words: the
            // leftmost empty slot is best, the leftmost slot under a
            // higher-level job (occupied, but not by level 0) next —
            // pecking order lets us displace it.
            let l1 = &self.levels[1];
            let claim = l1
                .leftmost_in(cur_window, |_, phys| !phys)
                .or_else(|| l1.leftmost_in(cur_window, |lower, phys| phys & !lower));
            if let Some(slot) = claim {
                // Final step: claim the slot (displacing a higher-level job
                // if present) and stop cascading.
                self.occupy_slot(cur_job, cur_handle, cur_window, 0, slot, from, moves, work);
                return Ok(());
            }
            // Full of level-0 jobs: the cascade victim is the leftmost
            // occupant with the smallest strictly-larger span.
            let mut victim: Option<(Handle, JobRec)> = None;
            for s in cur_window.slots() {
                let occ = self
                    .slot_jobs
                    .get(s)
                    .expect("a full window's slots are occupied");
                let rec = self.jobs.rec(occ);
                debug_assert_eq!(rec.level, 0);
                if rec.window.span() > cur_window.span()
                    && victim.is_none_or(|(_, v)| rec.window.span() < v.window.span())
                {
                    victim = Some((occ, rec));
                }
            }
            let Some((victim_handle, victim_rec)) = victim else {
                // Roll the partial cascade back so a rejected insert
                // leaves the scheduler exactly as it found it (the
                // engine keeps serving after a rejection, so a failed
                // request must not corrupt state). The chain structure
                // makes this exact: every slot a mover took is the next
                // victim's original slot, so restoring each mover to its
                // `from` in reverse order — and finally the in-flight
                // job to the slot it was displaced from — rewrites every
                // touched slot once. Intermediate swaps never touched
                // ancestor allowances, so nothing else needs undoing.
                for (mv, &h) in moves[start..].iter().zip(&movers).rev() {
                    match mv.from {
                        Some(f) => {
                            self.slot_jobs.set(f, h);
                            self.jobs.set_slot(h, f);
                        }
                        None => self.jobs.release(h),
                    }
                }
                if let Some(f) = from {
                    debug_assert_eq!(self.jobs.get(cur_handle).map(|(_, r)| r.slot), Some(f));
                    self.slot_jobs.set(f, cur_handle);
                }
                moves.truncate(start);
                return Err(Error::CapacityExhausted {
                    job: cur_job,
                    detail: format!(
                        "base cascade: window {cur_window} is full of level-0 jobs with \
                         no longer-span occupant to displace"
                    ),
                });
            };
            // Swap: the cascading job takes the victim's slot. Both jobs are
            // level 0, so no ancestor allowance changes.
            let slot = victim_rec.slot;
            self.slot_jobs.set(slot, cur_handle);
            self.jobs.put(
                cur_handle,
                cur_job,
                JobRec {
                    window: cur_window,
                    level: 0,
                    slot,
                },
            );
            moves.push(SlotMove {
                job: cur_job,
                from,
                to: Some(slot),
            });
            movers.push(cur_handle);
            (cur_job, cur_handle) = (self.jobs.id(victim_handle), victim_handle);
            cur_window = victim_rec.window;
            from = Some(slot);
        }
    }

    /// Deletes a level-0 job: free the slot and let ancestor allowances grow
    /// (the freed capacity is claimed lazily by later hunts).
    pub(crate) fn delete_base(&mut self, handle: Handle, moves: &mut Vec<SlotMove>) {
        debug_assert_eq!(self.jobs.rec(handle).level, 0);
        self.vacate_physical(handle, moves);
        self.jobs.release(handle);
    }
}
