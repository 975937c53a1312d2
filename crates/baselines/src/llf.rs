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

use realloc_core::cost::Placement;
use realloc_core::{Error, JobId, Reallocator, RequestOutcome, ScheduleSnapshot, Window};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Full-recompute LLF rescheduler on `m` machines, arbitrary windows.
#[derive(Clone, Debug)]
pub struct LlfRescheduler {
    machines: usize,
    active: BTreeMap<JobId, Window>,
    schedule: ScheduleSnapshot,
}

impl LlfRescheduler {
    /// New rescheduler on `machines ≥ 1` machines.
    pub fn new(machines: usize) -> Self {
        assert!(machines >= 1);
        LlfRescheduler {
            machines,
            active: BTreeMap::new(),
            schedule: ScheduleSnapshot::new(),
        }
    }

    /// Greedy LLF sweep; `None` if some job misses its deadline.
    fn llf_schedule(&self) -> Option<ScheduleSnapshot> {
        let mut by_arrival: Vec<(JobId, Window)> =
            self.active.iter().map(|(&id, &w)| (id, w)).collect();
        by_arrival.sort_by_key(|&(id, w)| (w.start(), id));

        // Min-heap on (laxity ≡ deadline, Reverse(arrival), id).
        let mut ready: BinaryHeap<Reverse<(u64, Reverse<u64>, u64)>> = BinaryHeap::new();
        let mut next = 0usize;
        let mut snapshot = ScheduleSnapshot::new();
        let mut t = by_arrival.first()?.1.start();
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
            for machine in 0..self.machines {
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

    fn recompute(&mut self, failing_job: JobId) -> Result<RequestOutcome, Error> {
        if self.active.is_empty() {
            let moves = self.schedule.diff(&ScheduleSnapshot::new());
            self.schedule = ScheduleSnapshot::new();
            return Ok(RequestOutcome { moves });
        }
        let fresh = self.llf_schedule().ok_or(Error::CapacityExhausted {
            job: failing_job,
            detail: "LLF: no feasible schedule for the active set".into(),
        })?;
        let moves = self.schedule.diff(&fresh);
        self.schedule = fresh;
        Ok(RequestOutcome { moves })
    }
}

impl Reallocator for LlfRescheduler {
    fn machines(&self) -> usize {
        self.machines
    }

    fn insert(&mut self, id: JobId, window: Window) -> Result<RequestOutcome, Error> {
        if self.active.contains_key(&id) {
            return Err(Error::DuplicateJob(id));
        }
        self.active.insert(id, window);
        match self.recompute(id) {
            Ok(out) => Ok(out),
            Err(e) => {
                self.active.remove(&id);
                Err(e)
            }
        }
    }

    fn delete(&mut self, id: JobId) -> Result<RequestOutcome, Error> {
        if self.active.remove(&id).is_none() {
            return Err(Error::UnknownJob(id));
        }
        self.recompute(id)
    }

    fn snapshot(&self) -> ScheduleSnapshot {
        self.schedule.clone()
    }

    fn active_count(&self) -> usize {
        self.active.len()
    }

    fn window_of(&self, id: JobId) -> Option<Window> {
        self.active.get(&id).copied()
    }

    fn active_jobs(&self) -> Vec<(JobId, Window)> {
        self.active.iter().map(|(&id, &w)| (id, w)).collect()
    }

    fn name(&self) -> &'static str {
        "llf-recompute"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realloc_core::schedule::validate;

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
