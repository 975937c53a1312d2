//! Deamortized trimming via the even/odd-slot scheme (paper §4, end):
//!
//! > *"We use the even (or odd) time slots for the old schedule and the
//! > odd (or even) time slots for the new schedule. Instead of rebuilding
//! > the schedule all at once, every time one job is added or deleted, two
//! > jobs are moved from the old schedule to the new schedule."*
//!
//! Two inner [`ReservationScheduler`]s run on a half-speed time axis:
//! generation 0 owns the even real slots (`real = 2t`), generation 1 the
//! odd ones (`real = 2t + 1`), so the two schedules can never collide. An
//! aligned real window `[a, a + 2^i)` with `i ≥ 1` contains exactly the
//! half-axis window `[a/2, a/2 + 2^{i−1})` in either parity, which is
//! aligned again — so each generation is an ordinary aligned instance.
//!
//! When the `n*` estimate doubles or halves, instead of rebuilding at once
//! (the `O(n)` spike [`crate::trim::TrimmedScheduler`] pays at a crossing
//! whose new bound re-trims some window), the *active* generation flips
//! and every subsequent request additionally migrates two jobs from the
//! draining generation, keeping the worst-case per-request cost bounded.
//! It flips at every crossing, re-trimming or not. The paper notes the scheme needs the undoubled instance
//! to be `2γ`-underallocated — each generation effectively runs the
//! machine at half speed.
//!
//! **Limitation:** span-1 windows have a fixed slot parity and can never
//! change generations, so deamortized mode requires every window span
//! ≥ 2 (and the trim bound is always ≥ 16). The amortized
//! [`crate::trim::TrimmedScheduler`] has no such restriction; the two
//! share one trimming rule (`n*` floor, resize rule and bound, in
//! [`crate::trim`]).

use crate::scheduler::ReservationScheduler;
use crate::trim::{checked_trim_span, settled_n_star, MIN_N_STAR};
use realloc_core::{Error, JobId, SingleMachineReallocator, Slot, SlotMove, Tower, Window};
use std::collections::{HashMap, VecDeque};

/// How many old-generation jobs each request additionally migrates while a
/// drain is in progress (the paper's "two jobs").
const DRAIN_PER_REQUEST: usize = 2;

/// Deamortized trimmed reservation scheduler (even/odd-slot scheme).
///
/// Fields are `pub(crate)` so [`crate::snapshot`] can serialize the full
/// state, including the in-flight drain queue (its order is part of the
/// observable behavior: it decides which jobs migrate on each request).
#[derive(Clone, Debug)]
pub struct DeamortizedScheduler {
    /// `gens[p]` schedules the half-axis mapped to real slots `2t + p`.
    pub(crate) gens: [ReservationScheduler; 2],
    pub(crate) gamma: u64,
    pub(crate) n_star: u64,
    pub(crate) active: usize,
    /// Jobs of the draining (non-active) generation, in drain order
    /// (ascending job id from the flip that created the queue).
    pub(crate) draining: VecDeque<JobId>,
    /// Original aligned windows and current generation of each job.
    pub(crate) jobs: HashMap<JobId, (Window, usize)>,
    /// Completed generation flips (observability).
    pub(crate) flips: u64,
}

impl DeamortizedScheduler {
    /// New scheduler with the paper tower and trim factor `gamma`.
    pub fn new(gamma: u64) -> Self {
        Self::with_tower(Tower::paper(), gamma)
    }

    /// New scheduler with a custom tower.
    pub fn with_tower(tower: Tower, gamma: u64) -> Self {
        assert!(gamma >= 1);
        DeamortizedScheduler {
            gens: [
                ReservationScheduler::with_tower(tower.clone()),
                ReservationScheduler::with_tower(tower),
            ],
            gamma,
            n_star: MIN_N_STAR,
            active: 0,
            draining: VecDeque::new(),
            jobs: HashMap::new(),
            flips: 0,
        }
    }

    /// Current trim bound (power of two, ≥ 16).
    pub fn trim_span(&self) -> u64 {
        checked_trim_span(self.gamma, self.n_star).expect("trim bound 2γn* overflows the time axis")
    }

    /// Completed generation flips.
    pub fn flips(&self) -> u64 {
        self.flips
    }

    /// The trim factor γ this scheduler was built with.
    pub fn gamma(&self) -> u64 {
        self.gamma
    }

    /// Jobs still waiting to migrate out of the draining generation.
    pub fn draining_len(&self) -> usize {
        self.draining.len()
    }

    /// The two inner generations (for invariant checks in tests).
    pub fn generations(&self) -> (&ReservationScheduler, &ReservationScheduler) {
        (&self.gens[0], &self.gens[1])
    }

    /// Real window → half-axis window for either parity. Requires span ≥ 2.
    fn half_window(w: Window) -> Window {
        debug_assert!(w.is_aligned() && w.span() >= 2);
        Window::with_span(w.start() / 2, w.span() / 2)
    }

    /// Half-axis slot of generation `p` → real slot.
    fn real_slot(p: usize, t: Slot) -> Slot {
        2 * t + p as u64
    }

    fn lift_moves(p: usize, moves: Vec<SlotMove>) -> Vec<SlotMove> {
        moves
            .into_iter()
            .map(|m| SlotMove {
                job: m.job,
                from: m.from.map(|t| Self::real_slot(p, t)),
                to: m.to.map(|t| Self::real_slot(p, t)),
            })
            .collect()
    }

    fn insert_into(
        &mut self,
        gen: usize,
        id: JobId,
        window: Window,
    ) -> Result<Vec<SlotMove>, Error> {
        let trimmed = window.trim_to(self.trim_span());
        let moves = self.gens[gen].insert(id, Self::half_window(trimmed))?;
        self.jobs.insert(id, (window, gen));
        Ok(Self::lift_moves(gen, moves))
    }

    /// Migrates up to `k` jobs from the draining generation to the active
    /// one.
    fn drain_step(&mut self, k: usize, out: &mut Vec<SlotMove>) -> Result<(), Error> {
        for _ in 0..k {
            let Some(id) = self.draining.pop_front() else {
                return Ok(());
            };
            let (window, gen) = self.jobs[&id];
            debug_assert_ne!(gen, self.active);
            let del = self.gens[gen].delete(id)?;
            out.extend(Self::lift_moves(gen, del));
            let ins = self.insert_into(self.active, id, window)?;
            out.extend(ins);
        }
        Ok(())
    }

    fn maybe_flip(&mut self, out: &mut Vec<SlotMove>) -> Result<(), Error> {
        let n_star = settled_n_star(self.n_star, self.jobs.len() as u64);
        if n_star == self.n_star {
            return Ok(());
        }
        // Finish any drain in progress first (rare; bounded by the previous
        // generation's leftovers). Draining moves jobs between the
        // generations, never in or out, so `n*` stays settled.
        self.drain_step(usize::MAX, out)?;
        self.n_star = n_star;
        // Flip: the active generation starts draining into the other one.
        // The queue is sorted by job id so the drain order — which decides
        // which two jobs migrate on each subsequent request — is a pure
        // function of the active set, not of `jobs`'s hash iteration
        // order. Snapshot/restore and cross-instance replay depend on
        // this determinism.
        let old = self.active;
        self.active = 1 - old;
        self.flips += 1;
        let mut queue: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|(_, &(_, g))| g == old)
            .map(|(&id, _)| id)
            .collect();
        queue.sort_unstable();
        self.draining = queue.into();
        Ok(())
    }
}

impl SingleMachineReallocator for DeamortizedScheduler {
    fn insert(&mut self, id: JobId, window: Window) -> Result<Vec<SlotMove>, Error> {
        if self.jobs.contains_key(&id) {
            return Err(Error::DuplicateJob(id));
        }
        if !window.is_aligned() {
            return Err(Error::UnalignedWindow(window));
        }
        if window.span() < 2 {
            return Err(Error::UnsupportedJob {
                job: id,
                detail: "deamortized mode requires window span ≥ 2 (slot parity)".into(),
            });
        }
        let mut out = self.insert_into(self.active, id, window)?;
        self.drain_step(DRAIN_PER_REQUEST, &mut out)?;
        self.maybe_flip(&mut out)?;
        Ok(out)
    }

    fn delete(&mut self, id: JobId) -> Result<Vec<SlotMove>, Error> {
        let Some(&(_, gen)) = self.jobs.get(&id) else {
            return Err(Error::UnknownJob(id));
        };
        let moves = self.gens[gen].delete(id)?;
        let mut out = Self::lift_moves(gen, moves);
        self.jobs.remove(&id);
        if gen != self.active {
            self.draining.retain(|&j| j != id);
        }
        self.drain_step(DRAIN_PER_REQUEST, &mut out)?;
        self.maybe_flip(&mut out)?;
        Ok(out)
    }

    fn slot_of(&self, id: JobId) -> Option<Slot> {
        let &(_, gen) = self.jobs.get(&id)?;
        self.gens[gen].slot_of(id).map(|t| Self::real_slot(gen, t))
    }

    fn assignments(&self) -> Vec<(JobId, Slot)> {
        self.jobs
            .keys()
            .map(|&id| (id, self.slot_of(id).expect("active job scheduled")))
            .collect()
    }

    fn active_count(&self) -> usize {
        self.jobs.len()
    }

    fn name(&self) -> &'static str {
        "reservation+deamortized"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_separation() {
        let mut s = DeamortizedScheduler::new(4);
        for i in 0..16u64 {
            s.insert(JobId(i), Window::new(0, 64)).unwrap();
        }
        // All jobs in the active generation share its parity.
        let slots: Vec<Slot> = s.assignments().iter().map(|&(_, t)| t).collect();
        assert!(slots.iter().all(|&t| t < 64));
        let parities: std::collections::HashSet<u64> = slots.iter().map(|t| t % 2).collect();
        assert_eq!(parities.len(), 1, "no flip yet: single parity");
    }

    #[test]
    fn span_one_rejected() {
        let mut s = DeamortizedScheduler::new(4);
        assert!(matches!(
            s.insert(JobId(1), Window::new(3, 4)),
            Err(Error::UnsupportedJob { .. })
        ));
    }

    #[test]
    fn flip_drains_incrementally() {
        let mut s = DeamortizedScheduler::new(2);
        // Grow past n* = 8 to force a flip, then watch the drain finish
        // within the next few requests.
        for i in 0..9u64 {
            s.insert(JobId(i), Window::with_span(i * 64, 64)).unwrap();
        }
        assert_eq!(s.flips(), 1);
        assert!(s.draining_len() > 0);
        let before = s.draining_len();
        s.insert(JobId(100), Window::new(0, 64)).unwrap();
        assert!(s.draining_len() + 2 <= before + 1, "each request drains 2");
        // Keep churning until the drain finishes.
        let mut i = 101u64;
        while s.draining_len() > 0 {
            s.insert(JobId(i), Window::with_span((i % 16) * 64, 64))
                .unwrap();
            i += 1;
        }
        // Everyone still feasibly scheduled within their window.
        for (id, slot) in s.assignments() {
            let w = s.jobs[&id].0;
            assert!(w.contains_slot(slot), "{id} at {slot} outside {w}");
        }
        s.generations().0.check_invariants().unwrap();
        s.generations().1.check_invariants().unwrap();
    }

    #[test]
    fn bounded_per_request_moves() {
        // The deamortized point: no Θ(n) rebuild spikes.
        let mut s = DeamortizedScheduler::new(2);
        let mut max_moves = 0usize;
        for i in 0..512u64 {
            let m = s
                .insert(JobId(i), Window::with_span((i % 64) * 128, 128))
                .unwrap();
            max_moves = max_moves.max(m.len());
        }
        for i in 0..400u64 {
            let m = s.delete(JobId(i)).unwrap();
            max_moves = max_moves.max(m.len());
        }
        assert!(
            max_moves <= 16,
            "deamortized per-request moves must stay bounded, got {max_moves}"
        );
        assert!(s.flips() >= 2, "growth and shrink phases must flip");
    }

    #[test]
    fn delete_of_draining_job() {
        let mut s = DeamortizedScheduler::new(2);
        for i in 0..9u64 {
            s.insert(JobId(i), Window::with_span(i * 64, 64)).unwrap();
        }
        assert!(s.draining_len() > 0);
        // Delete a job that is queued for draining.
        let victim = {
            let mut found = None;
            for i in 0..9u64 {
                if s.jobs.get(&JobId(i)).map(|&(_, g)| g) != Some(s.active) {
                    found = Some(JobId(i));
                    break;
                }
            }
            found.expect("some job still in the old generation")
        };
        s.delete(victim).unwrap();
        assert!(s.slot_of(victim).is_none());
        assert!(!s.draining.contains(&victim));
    }
}
