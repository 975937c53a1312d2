//! Property-based tests for the baseline schedulers.

use proptest::prelude::*;
use realloc_baselines::{EdfRescheduler, LlfRescheduler, NaivePeckingScheduler, SizedEdfScheduler};
use realloc_core::{Job, JobId, Reallocator, RequestOutcome, SingleMachineReallocator, Window};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// EDF and LLF accept exactly the same instances (unit jobs: identical
    /// feasibility) and both always hold feasible schedules.
    #[test]
    fn edf_llf_acceptance_agrees(
        jobs in prop::collection::vec((0u64..48, 1u64..16), 1..30),
    ) {
        let mut edf = EdfRescheduler::new(1);
        let mut llf = LlfRescheduler::new(1);
        for (i, &(a, s)) in jobs.iter().enumerate() {
            let id = JobId(i as u64);
            let w = Window::with_span(a, s);
            let e = edf.insert(id, w).is_ok();
            let l = llf.insert(id, w).is_ok();
            prop_assert_eq!(e, l, "EDF/LLF acceptance diverged on {} {}", id, w);
        }
        prop_assert_eq!(edf.active_count(), llf.active_count());
        // Both schedules feasible (collision-free, in-window).
        for sched in [&edf.snapshot(), &llf.snapshot()] {
            let mut seen = std::collections::HashSet::new();
            for (_, p) in sched.iter() {
                prop_assert!(seen.insert((p.machine, p.slot)));
            }
        }
    }

    /// The naive scheduler accepts whenever EDF does, on aligned instances
    /// inserted in any order (Lemma 4: it serves every feasible sequence of
    /// recursively aligned requests).
    #[test]
    fn naive_accepts_every_feasible_aligned_sequence(
        jobs in prop::collection::vec((0u64..64u64, 0u32..5), 1..40),
    ) {
        let mut naive = NaivePeckingScheduler::new();
        let mut oracle = EdfRescheduler::new(1);
        for (i, &(start, exp)) in jobs.iter().enumerate() {
            let id = JobId(i as u64);
            let span = 1u64 << exp;
            let w = Window::aligned_enclosing(start, span);
            let feasible = oracle.insert(id, w).is_ok();
            let accepted = naive.insert(id, w).is_ok();
            prop_assert_eq!(
                accepted, feasible,
                "naive {} a feasible={} aligned insert {} {}",
                if accepted { "accepted" } else { "rejected" }, feasible, id, w
            );
        }
        // Schedule feasible.
        let mut seen = std::collections::HashSet::new();
        for (_, slot) in naive.assignments() {
            prop_assert!(seen.insert(slot));
        }
    }

    /// Sized-EDF schedules never overlap and respect windows.
    #[test]
    fn sized_edf_schedules_are_valid(
        jobs in prop::collection::vec((0u64..32, 1u64..6, 1u64..4), 1..15),
        machines in 1usize..3,
    ) {
        let mut s = SizedEdfScheduler::new(machines);
        let mut sizes = std::collections::HashMap::new();
        let mut windows = std::collections::HashMap::new();
        for (i, &(a, extra, k)) in jobs.iter().enumerate() {
            let id = JobId(i as u64);
            let w = Window::new(a, a + k + extra);
            if s.insert_job(Job::sized(id.0, w, k), &mut RequestOutcome::empty()).is_ok() {
                sizes.insert(id, k);
                windows.insert(id, w);
            }
        }
        // Non-overlap per machine; runs within windows.
        let snap = s.snapshot();
        let mut runs: Vec<(usize, u64, u64)> = snap
            .iter()
            .map(|(id, p)| (p.machine, p.slot, p.slot + sizes[&id]))
            .collect();
        runs.sort();
        for pair in runs.windows(2) {
            let (m1, _, e1) = pair[0];
            let (m2, s2, _) = pair[1];
            prop_assert!(m1 != m2 || e1 <= s2, "overlapping runs");
        }
        for (id, p) in snap.iter() {
            let w = windows[&id];
            prop_assert!(p.slot >= w.start() && p.slot + sizes[&id] <= w.end());
        }
    }
}
