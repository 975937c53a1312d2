//! Window trimming to `O(γ·n*)` (paper §4, "Trimming Windows to n and
//! Deamortization").
//!
//! The raw reservation scheduler's cost is `O(log* Δ)`. To also get the
//! `O(log* n)` half of Theorem 1's `O(min{log* n, log* Δ})`, the paper
//! maintains an estimate `n*` of the active job count (doubling when
//! exceeded, halving when the count drops below `n*/4`) and trims every
//! window to span at most `2γn*`: at most `n*` other jobs live inside the
//! trimmed window, so the instance stays `γ`-underallocated and the number
//! of populated levels is `O(log* n)`.
//!
//! [`TrimmedScheduler`] implements the *amortized* variant: when `n*`
//! changes and the new bound re-trims some active job's window, the
//! schedule is rebuilt from scratch (cost `O(n)`, amortized `O(1)` per
//! request since `Ω(n)` requests separate two crossings). A crossing whose
//! bound re-trims no window only adopts the new `n*` and moves nothing:
//! the inner scheduler does not read `n*`, and every inner window already
//! is its original trimmed to the new bound, so a rebuild would re-place
//! the same instance. The deamortized even/odd-slot variant is
//! [`crate::deamortized`].
//!
//! # Who owns what about a job
//!
//! The wrapped [`ReservationScheduler`] owns the job: its id-keyed record
//! holds the (trimmed) window and the slot, its count is the `n` the
//! resize rule reads, and its duplicate/unknown checks are the ones a
//! request meets. This wrapper adds **only what trimming destroyed** —
//! the pre-trim window of each job the current bound really cut
//! (`originals`, empty whenever every window fits
//! [`TrimmedScheduler::trim_span`]); every other job's original window
//! *is* its inner window. Snapshots still list every job's pre-trim window (`o` lines),
//! derived from the two. While no bound cuts anything, a request never
//! touches `originals` at all.
//!
//! Both doors pass straight through to the inner scheduler: its handles
//! are the ones an owner gets back and passes in, and its id index rule
//! (see [`crate::jobs`]) is the duplicate check a request meets. A
//! rebuild keeps both — the fresh schedule places every job at its old
//! handle and keeps an id index exactly when the old one did.

use crate::jobs::Handle;
use crate::scheduler::ReservationScheduler;
use fxhash::FxHashMap;
use realloc_core::{
    sort_for_rebuild, Error, JobId, SingleMachineReallocator, Slot, SlotMove, Tower, Window,
};

/// Smallest `n*` we bother tracking; below this trimming is a no-op in
/// practice and rebuild churn would dominate. Shared with
/// [`crate::deamortized`], like the two functions below: one trimming
/// rule, whichever scheduler rebuilds under it.
pub(crate) const MIN_N_STAR: u64 = 8;

/// The `n*` the paper's resize rule settles on for `n` active jobs,
/// starting from `n_star`: doubled while exceeded, halved while
/// `n < n*/4`, never below [`MIN_N_STAR`]. Equal to `n_star` exactly
/// when the estimate is consistent with `n`.
pub(crate) fn settled_n_star(mut n_star: u64, n: u64) -> u64 {
    while n > n_star {
        n_star *= 2;
    }
    while n_star > MIN_N_STAR && n < n_star / 4 {
        n_star /= 2;
    }
    n_star
}

/// The trim bound `2γn*`, rounded up to a power of two (trimming needs a
/// power-of-two target); `None` when it overflows the time axis — γ and
/// `n*` may come from untrusted snapshot text. With γ ≥ 1 and
/// `n* ≥ MIN_N_STAR` it is at least 16, so a trimmed window never drops
/// below the span 2 the even/odd-slot scheme needs.
pub(crate) fn checked_trim_span(gamma: u64, n_star: u64) -> Option<u64> {
    2u64.checked_mul(gamma)?
        .checked_mul(n_star)?
        .checked_next_power_of_two()
}

/// A [`ReservationScheduler`] wrapped with the paper's `n*` trimming rule
/// and amortized rebuilds.
///
/// Fields are `pub(crate)` so [`crate::snapshot`] can serialize and
/// rebuild the full trim bookkeeping (`n*`, originals, rebuild counter).
#[derive(Clone, Debug)]
pub struct TrimmedScheduler {
    pub(crate) inner: ReservationScheduler,
    /// The γ used in the trim bound `2γn*`.
    pub(crate) gamma: u64,
    pub(crate) n_star: u64,
    /// Pre-trim aligned windows of the jobs whose window the current
    /// bound cut (rebuilds re-trim from these); a job absent here has its
    /// inner window as its original. An entry whose job the inner
    /// scheduler no longer holds is never read and goes with the next
    /// rebuild.
    pub(crate) originals: FxHashMap<JobId, Window>,
    /// Number of full rebuilds performed (observability for experiments).
    pub(crate) rebuilds: u64,
}

impl TrimmedScheduler {
    /// New trimmed scheduler with the paper tower and trim factor `gamma`.
    pub fn new(gamma: u64) -> Self {
        Self::with_tower(Tower::paper(), gamma)
    }

    /// New trimmed scheduler with a custom tower.
    pub fn with_tower(tower: Tower, gamma: u64) -> Self {
        assert!(gamma >= 1);
        TrimmedScheduler {
            inner: ReservationScheduler::with_tower(tower),
            gamma,
            n_star: MIN_N_STAR,
            originals: FxHashMap::default(),
            rebuilds: 0,
        }
    }

    /// Current trim bound: windows are trimmed to span ≤ `2γn*`, rounded up
    /// to a power of two (trimming needs a power-of-two target).
    pub fn trim_span(&self) -> u64 {
        self.trim_span_at(self.n_star)
    }

    /// The trim bound under an estimate of `n_star`.
    fn trim_span_at(&self, n_star: u64) -> u64 {
        checked_trim_span(self.gamma, n_star).expect("trim bound 2γn* overflows the time axis")
    }

    /// Current `n*` estimate.
    pub fn n_star(&self) -> u64 {
        self.n_star
    }

    /// The trim factor γ this scheduler was built with.
    pub fn gamma(&self) -> u64 {
        self.gamma
    }

    /// Number of full rebuilds performed so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// The wrapped scheduler (for invariant checks in tests).
    pub fn inner(&self) -> &ReservationScheduler {
        &self.inner
    }

    /// The pre-trim window of the active job `id`, whose inner window is
    /// `inner_window`.
    pub(crate) fn original_of(&self, id: JobId, inner_window: Window) -> Window {
        if self.originals.is_empty() {
            return inner_window;
        }
        self.originals.get(&id).copied().unwrap_or(inner_window)
    }

    /// Whether the bound under `n_star` trims some active job's window
    /// differently from the current one — the only reason a crossing
    /// re-places the schedule. Runs only at a crossing, so the scan is
    /// amortized `O(1)` per request.
    fn retrims(&self, n_star: u64) -> bool {
        let trim_span = self.trim_span_at(n_star);
        self.inner
            .jobs
            .iter()
            .any(|(_, id, rec)| self.original_of(id, rec.window).trim_to(trim_span) != rec.window)
    }

    /// Rebuilds the schedule from scratch under a new `n*` — every active
    /// job plus the insert that triggered the resize, if one did —
    /// reporting every job whose slot changed. Every job keeps its handle,
    /// and the pending one takes the next; nothing is committed unless the
    /// whole rebuild succeeds: a rejection leaves `n*`, the schedule, the
    /// originals and the rebuild counter as they were. Returns the pending
    /// job's handle.
    fn rebuild(
        &mut self,
        n_star: u64,
        pending: Option<(JobId, Window)>,
        moves: &mut Vec<SlotMove>,
    ) -> Result<Handle, Error> {
        let trim_span = self.trim_span_at(n_star);
        let next = self.inner.jobs.next_handle();
        // `(handle, id, pre-trim window, re-trimmed window, current slot)`.
        let mut jobs: Vec<(Handle, JobId, Window, Window, Option<Slot>)> = self
            .inner
            .jobs
            .iter()
            .map(|(h, id, rec)| (h, id, self.original_of(id, rec.window), Some(rec.slot)))
            .chain(pending.map(|(id, window)| (next, id, window, None)))
            .map(|(h, id, original, from)| (h, id, original, original.trim_to(trim_span), from))
            .collect();
        sort_for_rebuild(&mut jobs, |&(_, id, _, trimmed, _)| (id, trimmed));
        let mut fresh = ReservationScheduler::with_tower(self.inner.tower.clone());
        fresh.jobs = self.inner.jobs.empty_like();
        // The fresh schedule's own moves are not the request's: it reports
        // each job's old slot against its new one below.
        let mut placed = Vec::new();
        for &(h, id, _, trimmed, _) in &jobs {
            fresh.insert_at(h, id, trimmed, &mut placed)?;
            placed.clear();
        }
        fresh.jobs.refill_free();
        let mut originals = FxHashMap::default();
        for (h, id, original, trimmed, from) in jobs {
            let to = Some(fresh.jobs.rec(h).slot);
            if from != to {
                moves.push(SlotMove { job: id, from, to });
            }
            if trimmed != original {
                originals.insert(id, original);
            }
        }
        self.inner = fresh;
        self.originals = originals;
        self.n_star = n_star;
        self.rebuilds += 1;
        Ok(next)
    }
}

impl SingleMachineReallocator for TrimmedScheduler {
    fn insert_into(
        &mut self,
        id: JobId,
        window: Window,
        moves: &mut Vec<SlotMove>,
    ) -> Result<Option<Handle>, Error> {
        if !window.is_aligned() {
            // Trimming needs an aligned window; a duplicate id is still
            // reported first, as the inner scheduler orders the two.
            return Err(if self.inner.jobs.duplicate(id) {
                Error::DuplicateJob(id)
            } else {
                Error::UnalignedWindow(window)
            });
        }
        // Resize first so the insert itself sees the right trim bound.
        let n_star = settled_n_star(self.n_star, self.inner.jobs.len() as u64 + 1);
        if n_star != self.n_star && self.retrims(n_star) {
            if self.inner.jobs.duplicate(id) {
                return Err(Error::DuplicateJob(id));
            }
            // The rebuild places the new job along with the others.
            return self.rebuild(n_star, Some((id, window)), moves).map(Some);
        }
        let trimmed = window.trim_to(self.trim_span_at(n_star));
        let handle = self.inner.insert_into(id, trimmed, moves)?;
        if trimmed != window {
            self.originals.insert(id, window);
        } else if !self.originals.is_empty() {
            // Clears an entry left by a job the inner scheduler dropped.
            self.originals.remove(&id);
        }
        // Only now: a rejected insert commits no crossing.
        self.n_star = n_star;
        Ok(handle)
    }

    /// Deletes the job, then settles `n*`, rebuilding if the new bound
    /// re-trims a window.
    fn delete_into(
        &mut self,
        id: JobId,
        handle: Option<Handle>,
        moves: &mut Vec<SlotMove>,
    ) -> Result<(), Error> {
        self.inner.delete_into(id, handle, moves)?;
        if !self.originals.is_empty() {
            self.originals.remove(&id);
        }
        let n_star = settled_n_star(self.n_star, self.inner.jobs.len() as u64);
        if n_star != self.n_star && self.retrims(n_star) {
            self.rebuild(n_star, None, moves)?;
        }
        self.n_star = n_star;
        Ok(())
    }

    fn slot_of(&self, id: JobId, handle: Option<Handle>) -> Option<Slot> {
        self.inner.slot_of(id, handle)
    }

    fn handle_of(&self, id: JobId) -> Option<Handle> {
        self.inner.handle_of(id)
    }

    fn assignments(&self) -> Vec<(JobId, Slot)> {
        self.inner.assignments()
    }

    fn active_count(&self) -> usize {
        self.inner.active_count()
    }

    fn name(&self) -> &'static str {
        "reservation+trim"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use realloc_core::snapshot::{Restorable, SnapshotWriter};
    use std::collections::BTreeMap;

    /// The snapshot a scheduler that kept *every* job's pre-trim window
    /// would write: `reference` is that full map, maintained outside.
    fn reference_snapshot(s: &TrimmedScheduler, reference: &BTreeMap<JobId, Window>) -> String {
        let mut w = SnapshotWriter::new();
        w.begin(TrimmedScheduler::SNAPSHOT_KIND);
        w.line(format_args!("g {} {} {}", s.gamma, s.n_star, s.rebuilds));
        for (id, win) in reference {
            w.line(format_args!("o {} {} {}", id.0, win.start(), win.end()));
        }
        w.child(&s.inner);
        w.end();
        w.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Sparse `originals` lose nothing: across inserts, deletes,
        /// rejections, doublings and halvings the snapshot is byte-for-byte
        /// the one a keep-everything reference writes, the map holds
        /// exactly the jobs the current bound cuts, and a restore lands on
        /// the same bytes.
        #[test]
        fn sparse_originals_snapshot_like_a_full_map(
            ops in prop::collection::vec((0u8..10, 0u64..24, 0u32..6, 0u64..1024), 1..160),
        ) {
            let mut s = TrimmedScheduler::new(1);
            let mut reference: BTreeMap<JobId, Window> = BTreeMap::new();
            let mut rebuilds_seen = 0;
            for (i, (op, id, k, at)) in ops.into_iter().enumerate() {
                let id = JobId(id);
                if op < 6 {
                    let span = 1u64 << (2 * k); // 1, 4, …, 1024
                    let window = Window::with_span(at % (1024 / span) * span, span);
                    if s.insert(id, window).is_ok() {
                        reference.insert(id, window);
                    }
                } else if s.delete(id).is_ok() {
                    reference.remove(&id);
                }
                let cut: BTreeMap<JobId, Window> = reference
                    .iter()
                    .filter(|(_, w)| w.span() > s.trim_span())
                    .map(|(&id, &w)| (id, w))
                    .collect();
                let held: BTreeMap<JobId, Window> =
                    s.originals.iter().map(|(&id, &w)| (id, w)).collect();
                prop_assert_eq!(held, cut, "after op {}", i);
                if s.rebuilds != rebuilds_seen || i % 16 == 0 {
                    rebuilds_seen = s.rebuilds;
                    let text = s.snapshot_text();
                    prop_assert_eq!(&text, &reference_snapshot(&s, &reference), "after op {}", i);
                    let restored = TrimmedScheduler::restore(&text).expect("own snapshot restores");
                    prop_assert_eq!(restored.snapshot_text(), text);
                }
            }
        }
    }

    #[test]
    fn originals_stay_empty_while_every_window_fits_the_bound() {
        // γ = 8: the bound never drops below 128, the spans stop at 64.
        let mut s = TrimmedScheduler::new(8);
        // `n*` values seen, in order: one more per crossing.
        let mut n_stars = vec![s.n_star()];
        let mut note = |s: &TrimmedScheduler| {
            if n_stars.last() != Some(&s.n_star()) {
                n_stars.push(s.n_star());
            }
        };
        for i in 0..600u64 {
            let span = [1u64, 4, 16, 64][(i % 4) as usize];
            let window = Window::with_span((i * 7919) % (4096 / span) * span, span);
            s.insert(JobId(i), window).unwrap();
            note(&s);
            if i % 3 == 0 {
                s.delete(JobId(i / 2)).unwrap_or_default();
                note(&s);
            }
            assert!(s.originals.is_empty(), "after request {i}");
        }
        // The snapshot still lists every job's pre-trim window.
        let listed = s
            .snapshot_text()
            .lines()
            .filter(|l| l.starts_with("o "))
            .count();
        assert_eq!(listed, s.active_count());
        for i in 0..600u64 {
            s.delete(JobId(i)).unwrap_or_default();
            note(&s);
            assert!(s.originals.is_empty());
        }
        assert!(
            n_stars.len() > 6,
            "n* doubled and halved on the way: {n_stars:?}"
        );
        assert_eq!(
            s.rebuilds(),
            0,
            "a bound that cuts nothing re-places nothing"
        );
    }

    /// The one trimming rule both schedulers and both snapshot checks
    /// use: `n*` settles by doubling and halving with a floor, and the
    /// bound overflows into `None` instead of a panic.
    #[test]
    fn one_trimming_rule() {
        for (n_star, n, settled) in [
            (8, 8, 8),
            (8, 9, 16),
            (8, 1000, 1024),
            (64, 16, 64),
            (64, 15, 32),
            (1024, 0, MIN_N_STAR),
        ] {
            assert_eq!(settled_n_star(n_star, n), settled, "n* {n_star}, n {n}");
        }
        assert_eq!(checked_trim_span(8, 8), Some(128));
        assert_eq!(checked_trim_span(3, MIN_N_STAR), Some(64));
        assert_eq!(checked_trim_span(1, 1 << 62), Some(1 << 63));
        assert_eq!(checked_trim_span(1, 1 << 63), None);
        assert_eq!(checked_trim_span(3, 1 << 61), None);
    }

    /// A rejected insert at an `n*` crossing used to leave `n*` doubled
    /// over a schedule still trimmed to the old bound — a state whose own
    /// snapshot failed to restore.
    #[test]
    fn rejected_insert_at_a_crossing_commits_nothing() {
        let mut s = TrimmedScheduler::new(1);
        for i in 0..=3u64 {
            s.insert(JobId(i), Window::new(0, 4)).unwrap();
        }
        for i in 4..=6u64 {
            s.insert(JobId(i), Window::new(8, 12)).unwrap();
        }
        s.insert(JobId(7), Window::new(0, 64)).unwrap();
        assert_eq!((s.n_star(), s.active_count()), (8, 8));
        let before = s.snapshot_text();
        // The ninth job would double n*, and [0, 4) is full.
        assert!(s.insert(JobId(8), Window::new(0, 4)).is_err());
        assert_eq!((s.n_star(), s.rebuilds()), (8, 0), "nothing was committed");
        assert_eq!(s.snapshot_text(), before);
        TrimmedScheduler::restore(&before).expect("the state a rejection leaves restores");
        // A ninth job that fits crosses as usual.
        s.insert(JobId(9), Window::new(16, 32)).unwrap();
        assert_eq!((s.n_star(), s.rebuilds()), (16, 1));
        TrimmedScheduler::restore(&s.snapshot_text()).expect("restores after the crossing");
    }
}
