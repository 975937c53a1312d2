//! Exhaustive structural invariant checking, used by tests and
//! property-based harnesses after every operation.
//!
//! Checks (numbers refer to the paper), made directly on the dense
//! interval records of [`crate::state`]:
//!
//! 1. job records ↔ physical occupancy are mutually consistent;
//! 2. every job sits inside its window (feasibility, §2);
//! 3. at levels ≥ 1: `x` equals the actual number of jobs per window,
//!    `held[k]` is exactly the slots under the chain window's own jobs
//!    (`held[k] ⊆ assigned[k] ∩ phys`: every job sits in a slot *assigned
//!    to its own window*), and each window's open-interval list is exactly
//!    the intervals where `assigned[k] & !held[k] ≠ 0`;
//! 4. `lower` and `phys` exactly reflect physical occupancy (allowance
//!    correctness);
//! 5. **never over-assigned** (Invariant 5 + Observation 7 with lazy
//!    rises): per interval, `popcount(assigned[k])` never exceeds the
//!    window's fulfilled quota, and the total never exceeds the allowance;
//! 6. `assigned[k] ∩ lower = ∅`, the chain's `assigned` fields are pairwise
//!    disjoint, every record has exactly the level's chain, and no field
//!    has a bit outside the interval;
//! 7. high-water marks cover every window with state at the level;
//! 8. every record's summary is exact: its `union` is the union of the
//!    `assigned` fields and its count of each chain position is
//!    `popcount(assigned[k])` — REBALANCE decides from them alone.

use crate::jobs::JobRec;
use crate::scheduler::ReservationScheduler;
use crate::state::Field;
use realloc_core::{JobId, Slot, Window};
use std::collections::HashMap;

/// A violated invariant, with human-readable context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation(pub String);

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invariant violated: {}", self.0)
    }
}

impl std::error::Error for InvariantViolation {}

macro_rules! ensure {
    ($cond:expr, $($arg:tt)*) => {
        if !$cond {
            return Err(InvariantViolation(format!($($arg)*)));
        }
    };
}

impl ReservationScheduler {
    /// Verifies every structural invariant; `Err` describes the first
    /// violation found. Intended for tests (cost is `O(state size)`).
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        // 0: the paged stores hold exactly their non-blank pages.
        let stores = std::iter::once(("slots".to_string(), self.slot_jobs.check_storage())).chain(
            (self.levels.iter().enumerate())
                .map(|(l, lvl)| (format!("level {l}"), lvl.check_storage())),
        );
        for (store, checked) in stores {
            if let Err(e) = checked {
                return Err(InvariantViolation(format!("{store} storage: {e}")));
            }
        }
        // 1 + 2: job records vs physical occupancy and windows.
        ensure!(
            self.jobs.len() == self.slot_jobs.len(),
            "job count {} != occupied slot count {}",
            self.jobs.len(),
            self.slot_jobs.len()
        );
        for (h, id, rec) in self.jobs.iter() {
            let on_slot = self.slot_jobs.get(rec.slot);
            ensure!(
                on_slot == Some(h),
                "job {id} claims slot {} but slot holds {:?}",
                rec.slot,
                on_slot.map(|other| self.jobs.id(other))
            );
            ensure!(
                rec.window.contains_slot(rec.slot),
                "job {id} at slot {} outside window {}",
                rec.slot,
                rec.window
            );
            ensure!(
                rec.level == self.tower.level_of(rec.window.span()),
                "job {id} cached level {} != tower level {}",
                rec.level,
                self.tower.level_of(rec.window.span())
            );
        }

        // Jobs per window (levels ≥ 1).
        let mut per_window: HashMap<(usize, Window), u64> = HashMap::new();
        for (_, _, rec) in self.jobs.iter().filter(|(_, _, rec)| rec.level >= 1) {
            *per_window.entry((rec.level, rec.window)).or_default() += 1;
        }

        for (level, lvl) in self.levels.iter().enumerate().skip(1) {
            let (ispan, nw) = (lvl.ispan(), lvl.nw());
            ensure!(
                ispan == self.tower.interval_span(level),
                "level {level}: interval span {ispan} != tower's {}",
                self.tower.interval_span(level)
            );
            let chain: Vec<u64> = lvl.chain_spans().collect();

            // 3 + 7: window states.
            for (w, x) in lvl.window_states() {
                ensure!(
                    w.span() <= lvl.high_water(),
                    "level {level}: window {w} above high-water {}",
                    lvl.high_water()
                );
                ensure!(
                    self.tower.level_of(w.span()) == level,
                    "level {level}: window {w} belongs to level {}",
                    self.tower.level_of(w.span())
                );
                let jobs_here = per_window.get(&(level, w)).copied().unwrap_or(0);
                ensure!(
                    x == jobs_here,
                    "level {level} window {w}: x={x} but {jobs_here} jobs present"
                );
                // The open set: ascending, inside the window, and naming
                // only intervals with an empty fulfilled slot of `w` (the
                // converse is checked per record below).
                let k = lvl.chain_pos(w.span());
                let open = lvl.open_intervals(w);
                ensure!(
                    open.windows(2).all(|p| p[0] < p[1]),
                    "level {level} window {w}: open set {open:?} not strictly ascending"
                );
                for &istart in &open {
                    ensure!(
                        w.contains_slot(istart) && lvl.istart_of(istart) == istart,
                        "level {level} window {w}: open set names {istart}, not one of its intervals"
                    );
                    ensure!(
                        lvl.rec(istart).is_open(k),
                        "level {level} window {w}: listed interval {istart} holds no empty \
                         fulfilled slot"
                    );
                }
            }
            // Every populated window counts its jobs.
            for (&(_, w), &jobs_here) in per_window.iter().filter(|((l, _), _)| *l == level) {
                let x = lvl.x(w);
                ensure!(
                    x == jobs_here,
                    "level {level} window {w}: x={x} but {jobs_here} jobs present"
                );
            }

            // 4: every occupied slot's record has its `phys` bit (the
            // records are checked slot by slot below).
            for (_, _, JobRec { slot, .. }) in self.jobs.iter() {
                let istart = lvl.istart_of(slot);
                ensure!(
                    lvl.rec(istart).test(Field::Phys, (slot - istart) as usize),
                    "level {level}: occupied slot {slot} has no phys bit"
                );
            }

            for (istart, rec) in lvl.records() {
                ensure!(
                    rec.chain_len() == chain.len(),
                    "level {level} interval {istart}: {} chain positions allocated, chain has {}",
                    rec.chain_len(),
                    chain.len()
                );
                let fields = [Field::Lower, Field::Union, Field::Phys]
                    .into_iter()
                    .chain((0..rec.chain_len()).flat_map(|k| [Field::Assigned(k), Field::Held(k)]));
                for field in fields {
                    ensure!(
                        ispan >= 64 || rec.word(field, 0) >> ispan == 0,
                        "level {level} interval {istart}: {field:?} has bits outside the interval"
                    );
                }

                // 4 + 3, slot by slot: occupancy bits against the job
                // maps, `held` against the occupant's own window.
                for bit in 0..ispan as usize {
                    let slot = istart + bit as Slot;
                    let occupant: Option<(JobId, _)> = self
                        .slot_jobs
                        .get(slot)
                        .map(|h| (self.jobs.id(h), self.jobs.rec(h)));
                    ensure!(
                        rec.test(Field::Phys, bit) == occupant.is_some(),
                        "level {level} interval {istart}: phys bit of slot {slot} disagrees \
                         with occupant {occupant:?}"
                    );
                    ensure!(
                        rec.test(Field::Lower, bit)
                            == occupant.is_some_and(|(_, job)| job.level < level),
                        "level {level} interval {istart}: lower bit of slot {slot} disagrees \
                         with occupant {occupant:?}"
                    );
                    let own = occupant
                        .filter(|(_, job)| job.level == level)
                        .map(|(_, job)| lvl.chain_pos(job.window.span()));
                    for k in 0..rec.chain_len() {
                        ensure!(
                            rec.test(Field::Held(k), bit) == (own == Some(k)),
                            "level {level} interval {istart}: held[{k}] bit of slot {slot} \
                             disagrees with occupant {occupant:?}"
                        );
                    }
                    ensure!(
                        own.is_none_or(|k| rec.test(Field::Assigned(k), bit)),
                        "level {level} interval {istart}: job {occupant:?} at slot {slot} not \
                         backed by a fulfilled reservation of its window"
                    );
                }

                // 5 + 6: per-window quota bounds and disjointness, in words.
                let quotas = self.quotas_at(level, istart);
                let mut union = vec![0u64; nw];
                let mut total_assigned = 0u64;
                for (k, &(w, quota)) in quotas.iter().enumerate() {
                    let have = rec.count(Field::Assigned(k));
                    ensure!(
                        have <= quota,
                        "level {level} interval {istart} window {w}: assigned {have} > quota {quota}"
                    );
                    ensure!(
                        rec.assigned(k) == have,
                        "level {level} interval {istart} window {w}: summary counts {} \
                         assigned slots, the field holds {have}",
                        rec.assigned(k)
                    );
                    total_assigned += have;
                    for (i, seen) in union.iter_mut().enumerate() {
                        let assigned = rec.word(Field::Assigned(k), i);
                        ensure!(
                            assigned & *seen == 0,
                            "level {level} interval {istart}: window {w} shares an assigned \
                             slot with a shorter window"
                        );
                        ensure!(
                            assigned & rec.word(Field::Lower, i) == 0,
                            "level {level} interval {istart}: window {w} is assigned a \
                             lower-occupied slot"
                        );
                        *seen |= assigned;
                    }
                    // The open set's converse.
                    let listed = lvl.open_intervals(w).binary_search(&istart).is_ok();
                    ensure!(
                        listed == rec.is_open(k),
                        "level {level} interval {istart}: window {w}'s open set disagrees \
                         with its empty fulfilled slots here"
                    );
                }
                for (i, &seen) in union.iter().enumerate() {
                    ensure!(
                        rec.word(Field::Union, i) == seen,
                        "level {level} interval {istart}: summary union word {i} is {:#x}, \
                         the assigned fields' union {seen:#x}",
                        rec.word(Field::Union, i)
                    );
                }
                let allowance = ispan - rec.count(Field::Lower);
                ensure!(
                    total_assigned <= allowance,
                    "level {level} interval {istart}: {total_assigned} assignments exceed \
                     allowance {allowance}"
                );
            }
        }
        Ok(())
    }

    /// Observation 7 probe: the full fulfillment profile — for every
    /// interval of every populated window, the `(level, interval start,
    /// window, fulfilled quota)` tuples, sorted. Two schedulers holding the
    /// same active job multiset must produce identical profiles regardless
    /// of the request order that built them (history independence).
    pub fn fulfillment_profile(&self) -> Vec<(usize, u64, Window, u64)> {
        let mut out = Vec::new();
        for (level, lvl) in self.levels.iter().enumerate().skip(1) {
            let ispan = self.tower.interval_span(level);
            let mut starts: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
            for (w, x) in lvl.window_states() {
                if x > 0 {
                    let ni = w.span() / ispan;
                    for pos in 0..ni {
                        starts.insert(w.start() + pos * ispan);
                    }
                }
            }
            for istart in starts {
                for (w, q) in self.quotas_at(level, istart) {
                    let populated = lvl.x(w) > 0;
                    if populated {
                        out.push((level, istart, w, q));
                    }
                }
            }
        }
        out.sort();
        out
    }

    /// Lemma 8 headroom probe: for every window with `x ≥ 1` jobs, the sum
    /// of fulfilled quotas over its intervals, minus `x`, is the number of
    /// spare fulfilled reservations. Returns the minimum spare across all
    /// populated windows (`None` when no leveled window has jobs). Under
    /// 8-underallocation the paper guarantees this is ≥ 1.
    pub fn min_lemma8_headroom(&self) -> Option<i64> {
        let mut min_spare: Option<i64> = None;
        for (level, lvl) in self.levels.iter().enumerate().skip(1) {
            let ispan = self.tower.interval_span(level);
            for (w, x) in lvl.window_states() {
                if x == 0 {
                    continue;
                }
                let mut total_quota = 0u64;
                let ni = w.span() / ispan;
                for pos in 0..ni {
                    let istart = w.start() + pos * ispan;
                    for (w2, q) in self.quotas_at(level, istart) {
                        if w2 == w {
                            total_quota += q;
                        }
                    }
                }
                let spare = total_quota as i64 - x as i64;
                min_spare = Some(min_spare.map_or(spare, |m| m.min(spare)));
            }
        }
        min_spare
    }
}
