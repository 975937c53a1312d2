//! E11 — trimming: amortized rebuilds vs the deamortized even/odd scheme
//! (paper §4, "Trimming Windows to n and Deamortization").
//!
//! A growth phase (insert-heavy) followed by a shrink phase (delete-heavy)
//! forces repeated `n*` changes. The amortized scheduler rebuilds at a
//! crossing whose new bound re-trims some window and pays a `Θ(n)` spike
//! there (large max); the deamortized scheduler moves two extra jobs per
//! request instead (bounded max) at a slightly higher mean. One span class
//! is the whole horizon, which every bound this stream reaches below its
//! top cuts, so every crossing re-trims; the run exits 1 if the amortized
//! scheduler never rebuilt, since then the table compares nothing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use realloc_core::feasibility::LaminarBudget;
use realloc_core::{JobId, SingleMachineReallocator, Window};
use realloc_reservation::{DeamortizedScheduler, TrimmedScheduler};
use realloc_sim::report::{f2, Table};
use realloc_sim::stats::Summary;

/// Nets a move list per job (a drain's delete+reinsert pair is one
/// reallocation of that job) and counts the reallocations.
fn netted_reallocations(moves: &[realloc_core::SlotMove]) -> u64 {
    let outcome = realloc_core::RequestOutcome {
        moves: moves.iter().map(|m| m.on_machine(0)).collect(),
    };
    outcome.netted().reallocation_cost()
}

/// Growth-then-shrink request pattern over aligned span-≥2 windows, kept
/// 4-dense by a [`LaminarBudget`], as the churn generator is. Returns each
/// request's netted cost and how many requests changed `bound`, the
/// scheduler's trim bound (it moves exactly when `n*` does).
fn drive<S: SingleMachineReallocator>(
    sched: &mut S,
    seed: u64,
    bound: impl Fn(&S) -> u64,
) -> (Vec<u64>, u64) {
    const GAMMA: u64 = 4;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut costs = Vec::new();
    let mut active: Vec<(JobId, Window)> = Vec::new();
    let horizon = 1u64 << 14;
    let mut budget = LaminarBudget::new(1, GAMMA, horizon);
    let mut next = 0u64;
    let op = |sched: &mut S,
              grow: bool,
              active: &mut Vec<(JobId, Window)>,
              budget: &mut LaminarBudget,
              rng: &mut StdRng,
              next: &mut u64|
     -> Option<u64> {
        if grow || active.is_empty() {
            for _ in 0..32 {
                let span = [8u64, 32, 128, 512, horizon][rng.gen_range(0..5usize)];
                let start = rng.gen_range(0..(horizon / span)) * span;
                let w = Window::with_span(start, span);
                if !budget.try_add(w) {
                    continue;
                }
                let id = JobId(*next);
                *next += 1;
                let moves = sched.insert(id, w).unwrap();
                active.push((id, w));
                return Some(netted_reallocations(&moves));
            }
            None
        } else {
            let idx = rng.gen_range(0..active.len());
            let (id, w) = active.swap_remove(idx);
            budget.remove(w);
            let moves = sched.delete(id).unwrap();
            Some(netted_reallocations(&moves))
        }
    };
    let mut crossings = 0;
    let mut step = |sched: &mut S, grow: bool, active: &mut Vec<(JobId, Window)>| {
        let before = bound(sched);
        let cost = op(sched, grow, active, &mut budget, &mut rng, &mut next)?;
        crossings += u64::from(bound(sched) != before);
        Some(cost)
    };
    // Grow to ~2000 jobs (many n* doublings), then shrink back (halvings).
    for _ in 0..2000 {
        costs.extend(step(sched, true, &mut active));
    }
    let shrink_to = 50;
    while active.len() > shrink_to {
        costs.extend(step(sched, false, &mut active));
    }
    (costs, crossings)
}

fn main() {
    let mut t = Table::new(
        "E11: amortized rebuilds vs deamortized even/odd drains (γ = 4)",
        &[
            "scheduler",
            "requests",
            "mean realloc",
            "p99",
            "max",
            "crossings",
            "events",
        ],
    );
    let mut amortized = TrimmedScheduler::new(4);
    let (costs, crossings) = drive(&mut amortized, 3, TrimmedScheduler::trim_span);
    let s = Summary::of(costs.iter().copied());
    t.row(vec![
        "amortized (rebuild)".into(),
        s.count.to_string(),
        f2(s.mean),
        s.p99.to_string(),
        s.max.to_string(),
        crossings.to_string(),
        format!("{} rebuilds", amortized.rebuilds()),
    ]);

    let mut deamortized = DeamortizedScheduler::new(4);
    let (costs, crossings) = drive(&mut deamortized, 3, DeamortizedScheduler::trim_span);
    let s = Summary::of(costs.iter().copied());
    t.row(vec![
        "deamortized (even/odd)".into(),
        s.count.to_string(),
        f2(s.mean),
        s.p99.to_string(),
        s.max.to_string(),
        crossings.to_string(),
        format!("{} flips", deamortized.flips()),
    ]);
    t.print();
    println!("(the paper's point: same asymptotic total, but the deamortized");
    println!(" scheme caps the worst single request — no Θ(n) rebuild spikes)");
    if amortized.rebuilds() == 0 {
        eprintln!("E11: the amortized scheduler never rebuilt, so no row shows a rebuild spike");
        std::process::exit(1);
    }
}
