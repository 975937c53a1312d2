//! Randomized stress tests: churn against a density budget, verifying the
//! full structural invariants and schedule feasibility after every single
//! request.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use realloc_core::feasibility::LaminarBudget;
use realloc_core::{JobId, SingleMachineReallocator, Tower, Window};
use realloc_reservation::{ReservationScheduler, TrimmedScheduler};
use std::collections::{BTreeMap, HashMap};

/// Drives `ops` random inserts/deletes over aligned windows inside
/// `[0, horizon)`, keeping every aligned window's job count within
/// `|W|/gamma` (Lemma 2 density, a [`LaminarBudget`]), and checks
/// invariants + feasibility after every request. Returns the peak
/// per-request move count observed.
fn churn(
    sched: &mut ReservationScheduler,
    seed: u64,
    ops: usize,
    horizon: u64,
    gamma: u64,
    spans: &[u64],
) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    // Ordered, so that the job `nth` picks — and the run — depends on
    // the seed alone, not on the hash order of the process.
    let mut active: BTreeMap<JobId, Window> = BTreeMap::new();
    let mut budget = LaminarBudget::new(1, gamma, horizon);
    let mut next_id = 0u64;
    let mut peak = 0usize;

    for step in 0..ops {
        let do_insert = active.is_empty() || rng.gen_bool(0.6);
        if do_insert {
            // Rejection-sample a window that keeps the instance γ-dense.
            let mut placed = false;
            for _ in 0..40 {
                let span = spans[rng.gen_range(0..spans.len())];
                let start = rng.gen_range(0..(horizon / span)) * span;
                let w = Window::with_span(start, span);
                if !budget.try_add(w) {
                    continue;
                }
                let id = JobId(next_id);
                next_id += 1;
                let moves = sched
                    .insert(id, w)
                    .unwrap_or_else(|e| panic!("step {step}: insert {id} {w}: {e}"));
                peak = peak.max(moves.len());
                active.insert(id, w);
                placed = true;
                break;
            }
            if !placed {
                continue;
            }
        } else {
            let idx = rng.gen_range(0..active.len());
            let id = *active.keys().nth(idx).unwrap();
            let moves = sched
                .delete(id)
                .unwrap_or_else(|e| panic!("step {step}: delete {id}: {e}"));
            peak = peak.max(moves.len());
            budget.remove(active.remove(&id).unwrap());
        }

        sched
            .check_invariants()
            .unwrap_or_else(|e| panic!("step {step}: {e}"));
        // Feasibility: every job in-window, no slot collisions.
        let mut seen = HashMap::new();
        for (id, slot) in sched.assignments() {
            let w = active[&id];
            assert!(
                w.contains_slot(slot),
                "step {step}: {id} at {slot} outside {w}"
            );
            if let Some(prev) = seen.insert(slot, id) {
                panic!("step {step}: {id} and {prev} share slot {slot}");
            }
        }
        assert_eq!(sched.active_count(), active.len());
    }
    peak
}

#[test]
fn churn_paper_tower_small_spans() {
    for seed in 0..4 {
        let mut s = ReservationScheduler::new();
        churn(&mut s, seed, 400, 1 << 10, 8, &[1, 2, 4, 8, 16, 32]);
    }
}

#[test]
fn churn_paper_tower_two_levels() {
    for seed in 0..4 {
        let mut s = ReservationScheduler::new();
        churn(&mut s, 100 + seed, 400, 1 << 10, 8, &[4, 16, 64, 128, 256]);
    }
}

#[test]
fn churn_paper_tower_three_levels() {
    for seed in 0..4 {
        let mut s = ReservationScheduler::new();
        churn(
            &mut s,
            200 + seed,
            300,
            1 << 13,
            16,
            &[2, 8, 32, 64, 256, 512, 1024, 4096],
        );
    }
}

#[test]
fn churn_custom_tower_deep() {
    // Tower [4, 16, 64, 256] gives 5 levels with small spans — exercises
    // deep displacement cascades cheaply.
    for seed in 0..4 {
        let mut s = ReservationScheduler::with_tower(Tower::custom(vec![4, 16, 64, 256]));
        churn(
            &mut s,
            300 + seed,
            300,
            1 << 12,
            16,
            &[2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
        );
    }
}

#[test]
fn churn_bounded_reallocations() {
    // Theorem-1 shape check: per-request move count stays tiny even over
    // long executions at γ = 8.
    let mut s = ReservationScheduler::new();
    let peak = churn(&mut s, 42, 1500, 1 << 12, 8, &[1, 4, 16, 64, 256, 1024]);
    // log* of 2^12 is 3 levels; a generous constant bound:
    assert!(peak <= 24, "peak per-request moves {peak} too large");
}

#[test]
fn trimmed_churn_with_rebuilds() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut s = TrimmedScheduler::new(8);
    // Ordered, so that the job `nth` picks — and the run — depends on
    // the seed alone, not on the hash order of the process.
    let mut active: BTreeMap<JobId, Window> = BTreeMap::new();
    let mut budget = LaminarBudget::new(1, 8, 1 << 12);
    let mut next_id = 0u64;
    for step in 0..600 {
        if active.is_empty() || rng.gen_bool(0.55) {
            let span = [1u64, 4, 16, 64, 256][rng.gen_range(0..5usize)];
            let start = rng.gen_range(0..((1u64 << 12) / span)) * span;
            let w = Window::with_span(start, span);
            if !budget.try_add(w) {
                continue;
            }
            let id = JobId(next_id);
            next_id += 1;
            s.insert(id, w)
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
            active.insert(id, w);
        } else {
            let idx = rng.gen_range(0..active.len());
            let id = *active.keys().nth(idx).unwrap();
            s.delete(id).unwrap();
            budget.remove(active.remove(&id).unwrap());
        }
        s.inner().check_invariants().unwrap();
        for (id, slot) in s.assignments() {
            assert!(active[&id].contains_slot(slot));
        }
    }
    assert!(s.rebuilds() > 0, "churn this size must trigger rebuilds");
}
