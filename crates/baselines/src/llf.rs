//! Least-laxity-first with full recomputation.
//!
//! At each slot `t`, among released unscheduled jobs the `m` with the least
//! *laxity* — `(d_j − 1) − t`, the slack before the job's last admissible
//! slot — are run. For unit jobs laxity ordering at a fixed `t` coincides
//! with deadline ordering, so LLF is EDF with a different tie-break (we
//! break laxity ties by *later arrival first*, the opposite of our EDF's
//! id order). The paper cites LLF alongside EDF as a classical policy whose
//! schedules are brittle under insertion/deletion; the toggle experiments
//! show the same `Θ(n)` cascades for both.

use crate::recompute::{Policy, Recompute};
use realloc_core::cost::Placement;
use realloc_core::{JobId, ScheduleSnapshot, Window};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Greedy least-laxity-first, laxity ties by later arrival first.
#[derive(Clone, Copy, Debug)]
pub struct Llf;

impl Policy for Llf {
    const LABEL: &'static str = "LLF";
    const NAME: &'static str = "llf-recompute";

    fn schedule(active: &BTreeMap<JobId, Window>, machines: usize) -> Option<ScheduleSnapshot> {
        let mut by_arrival: Vec<(JobId, Window)> = active.iter().map(|(&id, &w)| (id, w)).collect();
        by_arrival.sort_by_key(|&(id, w)| (w.start(), id));

        // Min-heap on (laxity ≡ deadline, Reverse(arrival), id).
        let mut ready: BinaryHeap<Reverse<(u64, Reverse<u64>, u64)>> = BinaryHeap::new();
        let mut next = 0usize;
        let mut snapshot = ScheduleSnapshot::new();
        let Some(&(_, first)) = by_arrival.first() else {
            return Some(snapshot);
        };
        let mut t = first.start();
        let total = by_arrival.len();
        let mut done = 0usize;
        while done < total {
            if ready.is_empty() && next < total {
                t = t.max(by_arrival[next].1.start());
            }
            while next < total && by_arrival[next].1.start() <= t {
                let (id, w) = by_arrival[next];
                ready.push(Reverse((w.end(), Reverse(w.start()), id.0)));
                next += 1;
            }
            for machine in 0..machines {
                let Some(Reverse((deadline, _, id))) = ready.pop() else {
                    break;
                };
                if t >= deadline {
                    return None;
                }
                snapshot.set(JobId(id), Placement { machine, slot: t });
                done += 1;
            }
            t += 1;
        }
        Some(snapshot)
    }
}

/// Full-recompute LLF rescheduler on `m` machines, arbitrary windows.
pub type LlfRescheduler = Recompute<Llf>;

#[cfg(test)]
mod tests {
    use super::*;
    use realloc_core::schedule::validate;
    use realloc_core::Reallocator;

    #[test]
    fn schedules_are_feasible() {
        let mut s = LlfRescheduler::new(2);
        for j in 0..6u64 {
            s.insert(JobId(j), Window::new(j / 2, j / 2 + 3)).unwrap();
        }
        validate(&s.snapshot(), &s.active, 2).unwrap();
        s.delete(JobId(3)).unwrap();
        validate(&s.snapshot(), &s.active, 2).unwrap();
    }

    #[test]
    fn equivalent_feasibility_to_edf() {
        // LLF (unit jobs) accepts exactly the feasible instances.
        let mut s = LlfRescheduler::new(1);
        s.insert(JobId(1), Window::new(0, 1)).unwrap();
        assert!(s.insert(JobId(2), Window::new(0, 1)).is_err());
        assert_eq!(s.active_count(), 1);
    }

    #[test]
    fn toggle_instance_cascades() {
        let eta = 16u64;
        let mut s = LlfRescheduler::new(1);
        for j in 0..eta {
            s.insert(JobId(j), Window::new(j, j + 2)).unwrap();
        }
        let a = s
            .insert(JobId(1000), Window::new(0, 1))
            .unwrap()
            .netted()
            .reallocation_cost();
        s.delete(JobId(1000)).unwrap();
        let b = s
            .insert(JobId(1001), Window::new(eta, eta + 1))
            .unwrap()
            .netted()
            .reallocation_cost();
        assert!(a + b >= eta / 2, "LLF should cascade: {a} + {b}");
    }
}
