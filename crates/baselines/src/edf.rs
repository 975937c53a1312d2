//! Earliest-deadline-first with full recomputation — the classical policy
//! whose *brittleness* motivates the paper (§1: "this brittleness is
//! certainly inherent to earliest-deadline-first (EDF) and least-laxity-
//! first (LLF) scheduling policies").
//!
//! On every request the whole schedule is recomputed by greedy EDF (exact
//! for unit jobs) and the reallocation cost is the honest diff against the
//! previous schedule. On adversarial instances such as the Lemma 12 toggle
//! this costs `Θ(n)` reallocations per request even though EDF always finds
//! a feasible schedule when one exists.

use crate::recompute::{Policy, Recompute};
use realloc_core::feasibility::edf_schedule;
use realloc_core::{Job, JobId, ScheduleSnapshot, Window};
use std::collections::BTreeMap;

/// Greedy earliest-deadline-first, ties by id.
#[derive(Clone, Copy, Debug)]
pub struct Edf;

impl Policy for Edf {
    const LABEL: &'static str = "EDF";
    const NAME: &'static str = "edf-recompute";

    fn schedule(active: &BTreeMap<JobId, Window>, machines: usize) -> Option<ScheduleSnapshot> {
        let jobs: Vec<Job> = active.iter().map(|(&id, &w)| Job::unit(id.0, w)).collect();
        edf_schedule(&jobs, machines)
    }
}

/// Full-recompute EDF rescheduler on `m` machines, arbitrary windows.
pub type EdfRescheduler = Recompute<Edf>;

#[cfg(test)]
mod tests {
    use super::*;
    use realloc_core::schedule::validate;
    use realloc_core::{Error, Reallocator};

    #[test]
    fn maintains_feasible_schedules() {
        let mut s = EdfRescheduler::new(2);
        s.insert(JobId(1), Window::new(0, 2)).unwrap();
        s.insert(JobId(2), Window::new(0, 2)).unwrap();
        s.insert(JobId(3), Window::new(0, 2)).unwrap();
        s.insert(JobId(4), Window::new(1, 3)).unwrap();
        validate(&s.snapshot(), &s.active, 2).unwrap();
        s.delete(JobId(2)).unwrap();
        validate(&s.snapshot(), &s.active, 2).unwrap();
    }

    #[test]
    fn rejects_infeasible_insert_and_rolls_back() {
        let mut s = EdfRescheduler::new(1);
        s.insert(JobId(1), Window::new(0, 1)).unwrap();
        let before = s.snapshot();
        assert!(matches!(
            s.insert(JobId(2), Window::new(0, 1)),
            Err(Error::CapacityExhausted { .. })
        ));
        assert_eq!(s.active_count(), 1);
        assert_eq!(s.snapshot(), before);
    }

    #[test]
    fn toggle_instance_causes_linear_reallocation() {
        // The Lemma 12 shape: η jobs with windows [j, j+2); a unit-window
        // job at the front forces everyone right, deleting it and inserting
        // one at the back forces everyone left.
        let eta = 32u64;
        let mut s = EdfRescheduler::new(1);
        for j in 0..eta {
            s.insert(JobId(j), Window::new(j, j + 2)).unwrap();
        }
        let out = s.insert(JobId(1000), Window::new(0, 1)).unwrap();
        let first = out.netted().reallocation_cost();
        s.delete(JobId(1000)).unwrap();
        let out = s.insert(JobId(1001), Window::new(eta, eta + 1)).unwrap();
        let second = out.netted().reallocation_cost();
        // At least one of the two toggles must shift Ω(η) jobs.
        assert!(
            first + second >= eta / 2,
            "EDF should cascade on the toggle instance: {first} + {second}"
        );
    }

    #[test]
    fn outcome_reports_migrations() {
        let mut s = EdfRescheduler::new(2);
        for j in 0..4u64 {
            s.insert(JobId(j), Window::new(0, 2)).unwrap();
        }
        // Schedule is full on both machines; deleting one job and
        // reinserting with a tighter window reshuffles across machines.
        s.delete(JobId(0)).unwrap();
        let out = s.insert(JobId(9), Window::new(1, 2)).unwrap();
        assert!(out.migration_cost() <= out.reallocation_cost());
    }
}
