//! Property-based tests for the core mathematics.

use proptest::prelude::*;
use realloc_core::feasibility::{
    aligned_density_max_gamma, edf_feasible, edf_schedule, gamma_feasible_preemptive,
    gamma_underallocated_blocked, LaminarBudget,
};
use realloc_core::schedule::validate;
use realloc_core::{log_star, Job, JobId, Window};
use std::collections::{BTreeMap, BTreeSet};

proptest! {
    // ---------------- windows & alignment ----------------

    #[test]
    fn aligned_subwindow_properties(start in 0u64..1_000_000, span in 1u64..100_000) {
        let w = Window::with_span(start, span);
        let a = w.aligned_subwindow();
        prop_assert!(a.is_aligned());
        prop_assert!(w.contains(&a));
        // Paper §5: |ALIGNED(W)| ≥ |W| / 4.
        prop_assert!(a.span() * 4 >= w.span());
        // Maximality: no aligned window of twice the span fits in W.
        let double = a.span() * 2;
        let first_fit = (w.start().div_ceil(double)) * double;
        prop_assert!(
            first_fit.checked_add(double).map(|e| e > w.end()).unwrap_or(true),
            "an aligned window of span {double} fits in {w} but ALIGNED chose {a}"
        );
    }

    #[test]
    fn aligned_parent_contains_child(start in 0u64..1_000_000, exp in 0u32..20) {
        let span = 1u64 << exp;
        let w = Window::aligned_enclosing(start, span);
        prop_assert!(w.is_aligned());
        prop_assert!(w.contains_slot(start));
        let p = w.aligned_parent().unwrap();
        prop_assert!(p.is_aligned());
        prop_assert!(p.contains(&w));
        prop_assert_eq!(p.span(), 2 * span);
    }

    #[test]
    fn trim_stays_inside(k in 0u64..1000, exp in 1u32..16, cut in 0u32..16) {
        let span = 1u64 << exp;
        let w = Window::with_span(k * span, span);
        let t = w.trim_to(1u64 << cut.min(exp));
        prop_assert!(w.contains(&t));
        prop_assert!(t.is_aligned());
    }

    // ---------------- log* ----------------

    #[test]
    fn log_star_shrinks_fast(n in 1u64..u64::MAX) {
        let v = log_star(n);
        prop_assert!(v <= 5);
        if n >= 2 {
            prop_assert!(v >= 1);
        }
    }

    // ---------------- EDF feasibility ----------------

    #[test]
    fn edf_schedules_are_valid(
        jobs in prop::collection::vec((0u64..64, 1u64..32), 1..40),
        machines in 1usize..4,
    ) {
        let jobs: Vec<Job> = jobs
            .into_iter()
            .enumerate()
            .map(|(i, (a, s))| Job::unit(i as u64, Window::with_span(a, s)))
            .collect();
        if let Some(snap) = edf_schedule(&jobs, machines) {
            let active: BTreeMap<JobId, Window> =
                jobs.iter().map(|j| (j.id, j.window)).collect();
            validate(&snap, &active, machines).unwrap();
        } else {
            // Infeasibility must be certified by a violated density: some
            // interval [a, d) contains more jobs than machines × slots.
            prop_assert!(
                !gamma_feasible_preemptive(&jobs, machines, 1),
                "EDF rejected a density-feasible unit instance"
            );
        }
    }

    #[test]
    fn edf_monotone_in_machines(
        jobs in prop::collection::vec((0u64..64, 1u64..16), 1..30),
    ) {
        let jobs: Vec<Job> = jobs
            .into_iter()
            .enumerate()
            .map(|(i, (a, s))| Job::unit(i as u64, Window::with_span(a, s)))
            .collect();
        // Feasibility is monotone in the machine count.
        let mut prev = false;
        for m in 1..=4usize {
            let now = edf_feasible(&jobs, m);
            prop_assert!(!prev || now, "feasible on {} machines but not {}", m - 1, m);
            prev = now;
        }
    }

    #[test]
    fn blocked_gamma_implies_preemptive_gamma(
        jobs in prop::collection::vec((0u64..32, 2u64..24), 1..20),
        gamma in 1u64..4,
    ) {
        let jobs: Vec<Job> = jobs
            .into_iter()
            .enumerate()
            .map(|(i, (a, s))| Job::unit(i as u64, Window::with_span(a, s)))
            .collect();
        // The blocked (sufficient) check implies the preemptive (necessary)
        // one — they sandwich true γ-underallocation.
        if gamma_underallocated_blocked(&jobs, 1, gamma) {
            prop_assert!(gamma_feasible_preemptive(&jobs, 1, gamma));
        }
    }

    #[test]
    fn density_gamma_monotone_under_insertion(
        jobs in prop::collection::vec((0u64..64u64, 0u32..6), 2..30),
    ) {
        // Adding a job can only lower (or keep) the max density γ.
        let windows: Vec<Window> = jobs
            .iter()
            .map(|&(start, exp)| {
                let span = 1u64 << exp;
                Window::aligned_enclosing(start, span)
            })
            .collect();
        let all = aligned_density_max_gamma(&windows, 1);
        let fewer = aligned_density_max_gamma(&windows[..windows.len() - 1], 1);
        prop_assert!(all <= fewer);
    }

    /// The incremental budget answers what the batch oracle answers, over
    /// random insert/delete histories. Spans stop at `2^top ≤ 2^10`, below
    /// the budget's `2^12` horizon: the oracle walks no higher than the
    /// widest window it is given, the budget up to its horizon, and the
    /// two must agree. A refused `try_add` changes nothing, a `remove`
    /// right after an admission restores the budget it found, and
    /// removing every window empties it.
    #[test]
    fn laminar_budget_agrees_with_the_batch_oracle(
        ops in prop::collection::vec((any::<bool>(), 0u32..11, 0u64..1 << 12), 1..120),
        which in (0usize..3, 0usize..3),
        top in 0u32..11,
    ) {
        const HORIZON: u64 = 1 << 12;
        let (machines, gamma) = ([1usize, 2, 4][which.0], [1u64, 2, 8][which.1]);
        let mut budget = LaminarBudget::new(machines, gamma, HORIZON);
        let mut active: Vec<Window> = Vec::new();
        for (insert, exp, pos) in ops {
            if !insert && !active.is_empty() {
                budget.remove(active.swap_remove(pos as usize % active.len()));
                continue;
            }
            let w = Window::aligned_enclosing(pos, 1 << (exp % (top + 1)));
            let mut with_w = active.clone();
            with_w.push(w);
            let want = aligned_density_max_gamma(&with_w, machines) >= gamma;
            let before = budget.clone();
            let admitted = budget.try_add(w);
            prop_assert_eq!(admitted, want, "{} over {:?}", w, active);
            if admitted {
                budget.remove(w);
                prop_assert_eq!(&budget, &before, "removing {} just after adding it", w);
                prop_assert!(budget.try_add(w));
                active.push(w);
            } else {
                prop_assert_eq!(&budget, &before, "refusing {}", w);
            }
        }
        for w in active {
            budget.remove(w);
        }
        prop_assert_eq!(budget, LaminarBudget::new(machines, gamma, HORIZON));
    }

    // ---------------- text round trip ----------------

    #[test]
    fn textio_round_trips(
        ops in prop::collection::vec((any::<bool>(), 0u64..50, 0u64..1000, 1u64..100), 0..60),
    ) {
        use realloc_core::request::Request;
        use realloc_core::textio::{from_text, to_text};
        // Build an arbitrary (not necessarily valid) request list; the
        // format must round-trip it verbatim either way.
        let seq: realloc_core::RequestSeq = ops
            .into_iter()
            .map(|(ins, id, a, s)| {
                if ins {
                    Request::Insert {
                        id: JobId(id),
                        window: Window::with_span(a, s),
                    }
                } else {
                    Request::Delete { id: JobId(id) }
                }
            })
            .collect();
        let text = to_text(&seq);
        let back = from_text(&text).unwrap();
        prop_assert_eq!(back.requests(), seq.requests());
    }

    // ---------------- cost netting ----------------

    /// Netting counts each job at most once, as one move from where the
    /// request found it to where it left it. That is never more than the
    /// raw count, except for a job whose moves pass through "nowhere": a
    /// §3 migration is recorded as a delete half (`from → None`) and an
    /// insert half (`None → to`), which the raw count sees as nothing
    /// and netting sees as the one reallocation (and migration) it is.
    #[test]
    fn netting_counts_each_job_once(
        // 0..90 moves: crosses netted()'s 32-move threshold, so both the
        // linear fast path and the hash-map path are exercised. A
        // placement is `None` one time in four, so lists hold removals,
        // inserts and split pairs as well as chains.
        raw in prop::collection::vec(
            (0u64..6, (0u8..4, 0usize..3, 0u64..20), (0u8..4, 0usize..3, 0u64..20)),
            0..90,
        ),
    ) {
        use realloc_core::{Move, Placement, RequestOutcome};
        let place = |none: u8, machine, slot| (none != 0).then_some(Placement { machine, slot });
        // Build chained move lists per job so from/to are consistent.
        let mut outcome = RequestOutcome::empty();
        let mut last: BTreeMap<u64, Option<Placement>> = BTreeMap::new();
        for (job, (n1, m1, s1), (n2, m2, s2)) in raw {
            let from = last.get(&job).copied().unwrap_or(place(n1, m1, s1));
            let to = place(n2, m2, s2);
            outcome.push(Move { job: JobId(job), from, to });
            last.insert(job, to);
        }
        let netted = outcome.netted();
        let jobs: BTreeSet<JobId> = outcome.moves.iter().map(|m| m.job).collect();
        for &job in &jobs {
            let moves: Vec<&Move> = outcome.moves.iter().filter(|m| m.job == job).collect();
            let count = |cost: fn(&Move) -> bool| moves.iter().filter(|m| cost(m)).count() as u64;
            let net = netted.moves.iter().filter(|m| m.job == job);
            let net_reallocations = net.clone().filter(|m| m.is_reallocation()).count() as u64;
            let net_migrations = net.filter(|m| m.is_migration()).count() as u64;
            prop_assert!(net_reallocations <= 1 && net_migrations <= net_reallocations);
            // A job counted by netting and not by the raw list went
            // through `None` between two placements: a split pair.
            let split = moves.iter().any(|m| m.to.is_none())
                && moves.first().is_some_and(|m| m.from.is_some())
                && moves.last().is_some_and(|m| m.to.is_some());
            prop_assert!(net_reallocations <= count(Move::is_reallocation) + u64::from(split));
            prop_assert!(net_migrations <= count(Move::is_migration) + u64::from(split));
        }
        prop_assert!(netted.reallocation_cost() <= jobs.len() as u64);
        // Netting is idempotent.
        prop_assert_eq!(netted.netted(), netted.clone());
        // Both implementations (linear fast path for short lists, hash
        // map above the threshold) must agree with the reference rule:
        // one net move per job at first appearance, first `from` + last
        // `to`, moves that cancel to (None, None) dropped.
        let mut ref_moves: Vec<Move> = Vec::new();
        for m in &outcome.moves {
            match ref_moves.iter_mut().find(|acc| acc.job == m.job) {
                None => ref_moves.push(*m),
                Some(acc) => acc.to = m.to,
            }
        }
        ref_moves.retain(|m| m.from.is_some() || m.to.is_some());
        prop_assert_eq!(netted.moves, ref_moves);
    }

    #[test]
    fn scanned_costs_equal_the_netted_list(
        // Arbitrary lists — inserts (`from` none), removals (`to` none),
        // round trips, repeated jobs — on both sides of the 32-move
        // threshold: the in-place scan must count what the netted list
        // counts.
        raw in prop::collection::vec(
            (0u64..8, (any::<bool>(), 0usize..3, 0u64..6), (any::<bool>(), 0usize..3, 0u64..6)),
            0..90,
        ),
    ) {
        use realloc_core::{Move, Placement, RequestOutcome};
        let place = |(some, machine, slot): (bool, usize, u64)| some.then_some(Placement { machine, slot });
        let outcome = RequestOutcome {
            moves: raw
                .into_iter()
                .map(|(job, from, to)| Move { job: JobId(job), from: place(from), to: place(to) })
                .collect(),
        };
        let netted = outcome.netted();
        prop_assert_eq!(
            outcome.netted_costs(),
            (netted.reallocation_cost(), netted.migration_cost())
        );
    }
}
