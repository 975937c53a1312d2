//! Property-based tests for the reservation scheduler: arbitrary
//! (density-bounded) operation sequences preserve every structural
//! invariant and produce feasible schedules; fulfillment is history
//! independent; a span-sorted rebuild ignores the order inside a span;
//! the trimmed and deamortized wrappers agree with the raw scheduler on
//! feasibility; trimming that cuts nothing is invisible, and an `n*`
//! crossing re-places the schedule exactly when its bound re-trims a
//! window.

use proptest::prelude::*;
use realloc_core::feasibility::LaminarBudget;
use realloc_core::{
    sort_for_rebuild, JobId, Request, Restorable, SingleMachineReallocator, Tower, Window,
};
use realloc_reservation::{DeamortizedScheduler, ReservationScheduler, TrimmedScheduler};
use std::collections::HashMap;

/// An abstract op over a bounded universe of aligned windows.
#[derive(Clone, Debug)]
enum Op {
    Insert { span_idx: usize, pos: u64 },
    Delete { idx: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0usize..5, 0u64..64).prop_map(|(span_idx, pos)| Op::Insert { span_idx, pos }),
        2 => (0usize..64).prop_map(|idx| Op::Delete { idx }),
    ]
}

const SPANS: [u64; 5] = [2, 8, 32, 128, 512];
const HORIZON: u64 = 1 << 12;

/// Turns ops into requests under a density guard (γ = 8 over aligned
/// ancestors, one machine): an insert the budget refuses, and a delete
/// with nothing active, become no request.
struct Guarded {
    budget: LaminarBudget,
    /// The jobs live after the ops so far.
    active: Vec<(JobId, Window)>,
    next: u64,
}

impl Guarded {
    fn new() -> Guarded {
        Guarded {
            budget: LaminarBudget::new(1, 8, HORIZON),
            active: Vec::new(),
            next: 0,
        }
    }

    fn step(&mut self, op: &Op) -> Option<Request> {
        match *op {
            Op::Insert { span_idx, pos } => {
                let span = SPANS[span_idx];
                let window = Window::with_span((pos % (HORIZON / span)) * span, span);
                if !self.budget.try_add(window) {
                    return None;
                }
                let id = JobId(self.next);
                self.next += 1;
                self.active.push((id, window));
                Some(Request::Insert { id, window })
            }
            Op::Delete { idx } => {
                if self.active.is_empty() {
                    return None;
                }
                let (id, window) = self.active.swap_remove(idx % self.active.len());
                self.budget.remove(window);
                Some(Request::Delete { id })
            }
        }
    }
}

/// Applies ops under the [`Guarded`] density guard, checking invariants
/// and feasibility after every applied op.
fn apply_checked(sched: &mut ReservationScheduler, ops: &[Op]) -> usize {
    let mut guard = Guarded::new();
    let mut applied = 0usize;

    for op in ops {
        let Some(r) = guard.step(op) else { continue };
        apply(sched, r).unwrap_or_else(|e| panic!("density-bounded {r:?}: {e}"));
        applied += 1;
        sched.check_invariants().expect("invariants after every op");
        // Feasibility: in-window, collision-free.
        let mut seen = HashMap::new();
        for (id, slot) in sched.assignments() {
            let w = guard
                .active
                .iter()
                .find(|&&(j, _)| j == id)
                .map(|&(_, w)| w)
                .unwrap();
            assert!(w.contains_slot(slot));
            assert!(seen.insert(slot, id).is_none(), "slot collision");
        }
    }
    applied
}

/// The aligned window of span `max(8, |w|)` around `w`.
fn widened(w: Window) -> Window {
    Window::aligned_enclosing(w.start(), w.span().max(8))
}

/// A growth-then-drain stream over `[0, 2^16)`: `grow` inserts of aligned
/// windows with spans `2^0 … 2^max_k` (one delete per four inserts on the
/// way), then a delete of every job left, in random order. Density-guarded
/// (≤ max(1, span/8) jobs inside every aligned window), so every request
/// succeeds.
///
/// The guard is a γ = 8 [`LaminarBudget`] charged with each window widened
/// to span 8: a cap of 1 on that aligned ancestor is the cap of 1 on every
/// narrower window inside it.
fn grow_then_drain(seed: u64, grow: usize, max_k: u32) -> Vec<Request> {
    use rand::{Rng, SeedableRng};

    const WIDE: u64 = 1 << 16;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut budget = LaminarBudget::new(1, 8, WIDE);
    let mut active: Vec<(JobId, Window)> = Vec::new();
    let mut out = Vec::new();
    let delete = |budget: &mut LaminarBudget, (id, w): (JobId, Window)| {
        budget.remove(widened(w));
        Request::Delete { id }
    };
    let mut next = 0u64;
    while (next as usize) < grow {
        let span = 1u64 << rng.gen_range(0..=max_k);
        let window = Window::with_span(rng.gen_range(0..WIDE / span) * span, span);
        if !budget.try_add(widened(window)) {
            continue;
        }
        let id = JobId(next);
        next += 1;
        active.push((id, window));
        out.push(Request::Insert { id, window });
        if next.is_multiple_of(4) {
            let job = active.swap_remove(rng.gen_range(0..active.len()));
            out.push(delete(&mut budget, job));
        }
    }
    while !active.is_empty() {
        let job = active.swap_remove(rng.gen_range(0..active.len()));
        out.push(delete(&mut budget, job));
    }
    out
}

/// Services `r` on one machine.
fn apply<S: SingleMachineReallocator>(
    s: &mut S,
    r: Request,
) -> Result<Vec<realloc_core::SlotMove>, realloc_core::Error> {
    match r {
        Request::Insert { id, window } => s.insert(id, window),
        Request::Delete { id } => s.delete(id),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// γ = 8 puts the bound at 128 or more and the spans stop at 64, so it
    /// never cuts a window: through ≥ 6 doublings and ≥ 6 halvings of
    /// `n*`, the trimmed scheduler moves exactly the jobs a bare
    /// reservation scheduler fed the same requests moves, holds the same
    /// bytes, and never rebuilds.
    #[test]
    fn trimming_that_cuts_nothing_is_invisible(seed in 0u64..1000) {
        let mut trimmed = TrimmedScheduler::new(8);
        let mut bare = ReservationScheduler::new();
        let (mut doublings, mut halvings) = (0, 0);
        for (i, r) in grow_then_drain(seed, 900, 6).into_iter().enumerate() {
            let n_star = trimmed.n_star();
            let moves = apply(&mut trimmed, r).expect("density-guarded request succeeds");
            prop_assert_eq!(moves, apply(&mut bare, r).unwrap(), "request {}", i);
            if trimmed.n_star() != n_star {
                if trimmed.n_star() > n_star { doublings += 1 } else { halvings += 1 }
                prop_assert_eq!(trimmed.inner().snapshot_text(), bare.snapshot_text(), "request {}", i);
            }
        }
        prop_assert!(doublings >= 6 && halvings >= 6, "{} doublings, {} halvings", doublings, halvings);
        prop_assert_eq!(trimmed.inner().snapshot_text(), bare.snapshot_text());
        prop_assert_eq!(trimmed.rebuilds(), 0);
    }

    /// Spans up to 4 096 against γ ∈ {1, 2, 8}: some crossings re-trim a
    /// window (and rebuild; every one at γ = 1), others do not (and only
    /// adopt the new `n*`; every one from `n*` = 256 up at γ = 8).
    /// A crossing rebuilds exactly when some job live across it has an
    /// original window the two bounds trim differently, and after every
    /// crossing the snapshot restores to the same bytes.
    #[test]
    fn a_crossing_rebuilds_exactly_when_it_retrims(seed in 0u64..1000) {
        let (mut rebuilding, mut skipped) = (0, 0);
        for gamma in [1u64, 2, 8] {
            let mut s = TrimmedScheduler::new(gamma);
            let mut originals: HashMap<JobId, Window> = HashMap::new();
            for (i, r) in grow_then_drain(seed ^ gamma, 900, 12).into_iter().enumerate() {
                let (n_star, bound, rebuilds) = (s.n_star(), s.trim_span(), s.rebuilds());
                apply(&mut s, r).expect("density-guarded request succeeds");
                // The jobs live across the request: an insert's own window
                // is placed under the new bound whichever way it goes.
                let new_bound = s.trim_span();
                let retrims = originals
                    .iter()
                    .filter(|&(&id, _)| r != Request::Delete { id })
                    .any(|(_, w)| w.trim_to(bound) != w.trim_to(new_bound));
                match r {
                    Request::Insert { id, window } => originals.insert(id, window),
                    Request::Delete { id } => originals.remove(&id),
                };
                if s.n_star() == n_star {
                    prop_assert_eq!(s.rebuilds(), rebuilds, "request {}", i);
                    continue;
                }
                prop_assert_eq!(s.rebuilds(), rebuilds + u64::from(retrims), "γ {}, request {}", gamma, i);
                if retrims { rebuilding += 1 } else { skipped += 1 }
                let text = s.snapshot_text();
                let restored = TrimmedScheduler::restore(&text).expect("own snapshot restores");
                prop_assert_eq!(restored.snapshot_text(), text, "γ {}, request {}", gamma, i);
            }
        }
        prop_assert!(rebuilding > 0 && skipped > 0, "{} rebuilding, {} skipped crossings", rebuilding, skipped);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_ops_preserve_all_invariants(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut sched = ReservationScheduler::new();
        apply_checked(&mut sched, &ops);
    }

    #[test]
    fn random_ops_custom_tower(ops in prop::collection::vec(op_strategy(), 1..100)) {
        // A slower ladder exercises 4 populated levels with the same spans.
        let mut sched = ReservationScheduler::with_tower(Tower::custom(vec![4, 16, 256]));
        apply_checked(&mut sched, &ops);
    }

    #[test]
    fn fulfillment_history_independent(
        ops in prop::collection::vec(op_strategy(), 1..80),
        seed in 0u64..1000,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        // Apply ops; recover the surviving (id, window) set by replaying
        // the same density-guarded simulation; rebuild it in two other
        // orders; all fulfillment profiles must match.
        let mut sched = ReservationScheduler::new();
        apply_checked(&mut sched, &ops);
        let mut guard = Guarded::new();
        for op in &ops {
            guard.step(op);
        }
        let shadow = guard.active;
        let profile0 = sched.fulfillment_profile();

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..2 {
            let mut order = shadow.clone();
            order.shuffle(&mut rng);
            let mut fresh = ReservationScheduler::new();
            for &(id, w) in &order {
                fresh.insert(id, w).unwrap();
            }
            prop_assert_eq!(&fresh.fulfillment_profile(), &profile0,
                "fulfillment differs for a different insertion order");
        }
    }

    /// The property the one rebuild order rests on: equal-span aligned
    /// windows are equal or disjoint, and disjoint ones commute, so a
    /// span-sorted rebuild lands on the same bytes however the distinct
    /// windows of one span interleave — the trimmer's old `(span, id)`
    /// key included. Jobs of one *identical* window do not commute (they
    /// trade slots), so every order tried keeps them in id order, as
    /// both keys do.
    #[test]
    fn span_sorted_rebuild_ignores_order_within_a_span(
        picks in prop::collection::vec((0u32..13, 0u64..1 << 16), 1..400),
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};

        // Spans 1 … 4 096 over a 65 536-slot horizon, density-guarded
        // (≤ max(1, span/8) jobs inside every aligned window; see
        // `grow_then_drain`).
        const WIDE: u64 = 1 << 16;
        let mut budget = LaminarBudget::new(1, 8, WIDE);
        let mut jobs: Vec<(JobId, Window)> = Vec::new();
        for (i, (k, pos)) in picks.into_iter().enumerate() {
            let span = 1u64 << k;
            let window = Window::with_span(pos % (WIDE / span) * span, span);
            if budget.try_add(widened(window)) {
                jobs.push((JobId(i as u64), window));
            }
        }
        sort_for_rebuild(&mut jobs, |&job| job);
        let mut old_key = jobs.clone();
        old_key.sort_by_key(|&(id, w)| (w.span(), id));
        // A random merge, per span, of each window's id-ordered jobs.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut interleaved = Vec::with_capacity(jobs.len());
        for run in jobs.chunk_by(|a, b| a.1.span() == b.1.span()) {
            let mut windows: Vec<&[(JobId, Window)]> = run.chunk_by(|a, b| a.1 == b.1).collect();
            while !windows.is_empty() {
                let pick = rng.gen_range(0..windows.len());
                interleaved.push(windows[pick][0]);
                windows[pick] = &windows[pick][1..];
                if windows[pick].is_empty() {
                    windows.swap_remove(pick);
                }
            }
        }
        let texts: Vec<String> = [&jobs, &old_key, &interleaved]
            .into_iter()
            .map(|order| {
                let mut fresh = ReservationScheduler::new();
                for &(id, w) in order {
                    fresh.insert(id, w).expect("density-guarded rebuild insert succeeds");
                }
                fresh.snapshot_text()
            })
            .collect();
        prop_assert_eq!(&texts[0], &texts[1], "the old (span, id) key moved bytes");
        prop_assert_eq!(&texts[0], &texts[2], "interleaving a span's windows moved bytes");
    }

    #[test]
    fn trimmed_matches_raw_feasibility(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let mut trimmed = TrimmedScheduler::new(8);
        let mut guard = Guarded::new();
        for op in &ops {
            let Some(r) = guard.step(op) else { continue };
            apply(&mut trimmed, r).unwrap();
            trimmed.inner().check_invariants().unwrap();
            for (id, slot) in trimmed.assignments() {
                let w = guard.active.iter().find(|&&(j, _)| j == id).map(|&(_, w)| w).unwrap();
                prop_assert!(w.contains_slot(slot), "{} at {} outside {}", id, slot, w);
            }
        }
    }

    #[test]
    fn deamortized_feasible_and_bounded(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let mut sched = DeamortizedScheduler::new(4);
        let mut guard = Guarded::new();
        for op in &ops {
            let Some(r) = guard.step(op) else { continue };
            let moves = apply(&mut sched, r).unwrap();
            if let Request::Insert { .. } = r {
                prop_assert!(moves.len() <= 32, "unbounded request: {}", moves.len());
            }
            for (id, slot) in sched.assignments() {
                let w = guard.active.iter().find(|&&(j, _)| j == id).map(|&(_, w)| w).unwrap();
                prop_assert!(w.contains_slot(slot), "{} at {} outside {}", id, slot, w);
            }
        }
    }
}
