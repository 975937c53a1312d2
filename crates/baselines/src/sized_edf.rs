//! A rescheduler for jobs of integer size `k ≥ 1` — the substrate for the
//! Observation 13 experiment.
//!
//! The paper's reallocation scheduler is unit-size only; Observation 13
//! shows why: with sizes `{1, k}` *any* scheduler can be forced into
//! `Ω(kn)` aggregate reallocation cost by sliding a single size-`k` job
//! across a window shared with `k` unit jobs. This module provides an
//! honest size-aware scheduler to run that construction against: greedy
//! earliest-deadline-first over contiguous free runs, recomputed per
//! request, with costs measured as schedule diffs (a sized job's placement
//! is its start slot; moving any job counts once).
//!
//! Non-preemptive scheduling of sized jobs is NP-hard in general, so the
//! greedy may reject feasible instances; the Observation 13 instances are
//! deliberately easy (the greedy always finds the packing), which is all
//! the lower-bound experiment needs.

use realloc_core::cost::Placement;
use realloc_core::{Error, Job, JobId, RequestOutcome, ScheduleSnapshot, Window};
use std::collections::BTreeMap;

/// Greedy EDF rescheduler for sized jobs (non-preemptive, contiguous).
#[derive(Clone, Debug)]
pub struct SizedEdfScheduler {
    machines: usize,
    active: BTreeMap<JobId, (Window, u64)>,
    schedule: ScheduleSnapshot,
}

impl SizedEdfScheduler {
    /// New scheduler on `machines ≥ 1` machines.
    pub fn new(machines: usize) -> Self {
        assert!(machines >= 1);
        SizedEdfScheduler {
            machines,
            active: BTreeMap::new(),
            schedule: ScheduleSnapshot::new(),
        }
    }

    /// Greedy packing: jobs by (deadline, larger first), each placed at the
    /// earliest feasible start on the machine with the earliest fit.
    fn pack(&self) -> Option<ScheduleSnapshot> {
        let mut jobs: Vec<(JobId, Window, u64)> = self
            .active
            .iter()
            .map(|(&id, &(w, k))| (id, w, k))
            .collect();
        jobs.sort_by_key(|&(id, w, k)| (w.end(), std::cmp::Reverse(k), id));

        // Per machine: occupied runs as (start -> end), kept disjoint.
        let mut runs: Vec<BTreeMap<u64, u64>> = vec![BTreeMap::new(); self.machines];
        let mut snapshot = ScheduleSnapshot::new();
        for (id, w, k) in jobs {
            let mut best: Option<(u64, usize)> = None; // (start, machine)
            for (m, occ) in runs.iter().enumerate() {
                if let Some(start) = earliest_fit(occ, w, k) {
                    if best.is_none_or(|(bs, _)| start < bs) {
                        best = Some((start, m));
                    }
                }
            }
            let (start, m) = best?;
            insert_run(&mut runs[m], start, start + k);
            snapshot.set(
                id,
                Placement {
                    machine: m,
                    slot: start,
                },
            );
        }
        Some(snapshot)
    }

    fn recompute(&mut self, failing_job: JobId, out: &mut RequestOutcome) -> Result<(), Error> {
        let fresh = self.pack().ok_or(Error::CapacityExhausted {
            job: failing_job,
            detail: "sized-EDF: greedy packing failed".into(),
        })?;
        out.moves.extend(self.schedule.diff(&fresh));
        self.schedule = fresh;
        Ok(())
    }

    /// Inserts a sized job, appending every placement change to `out`.
    pub fn insert_job(&mut self, job: Job, out: &mut RequestOutcome) -> Result<(), Error> {
        if self.active.contains_key(&job.id) {
            return Err(Error::DuplicateJob(job.id));
        }
        if job.window.span() < job.size {
            return Err(Error::UnsupportedJob {
                job: job.id,
                detail: format!(
                    "size {} exceeds window span {}",
                    job.size,
                    job.window.span()
                ),
            });
        }
        self.active.insert(job.id, (job.window, job.size));
        self.recompute(job.id, out).inspect_err(|_| {
            self.active.remove(&job.id);
        })
    }

    /// Deletes a job, appending every placement change to `out`.
    pub fn delete_job(&mut self, id: JobId, out: &mut RequestOutcome) -> Result<(), Error> {
        if self.active.remove(&id).is_none() {
            return Err(Error::UnknownJob(id));
        }
        self.recompute(id, out)
    }

    /// The current schedule (placement = start slot of each job).
    pub fn snapshot(&self) -> ScheduleSnapshot {
        self.schedule.clone()
    }

    /// Number of active jobs.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }
}

/// Earliest start `≥ w.start()` with `k` contiguous free slots ending by
/// `w.end()`, given the machine's occupied runs.
fn earliest_fit(occ: &BTreeMap<u64, u64>, w: Window, k: u64) -> Option<u64> {
    let mut candidate = w.start();
    // Clamp the candidate past any run overlapping it, left to right.
    for (&start, &end) in occ.range(..w.end()) {
        if end <= candidate {
            continue;
        }
        if start >= candidate + k {
            break; // gap [candidate, start) is big enough
        }
        candidate = end;
    }
    (candidate + k <= w.end()).then_some(candidate)
}

/// Inserts the run `[start, end)`, coalescing with neighbours.
fn insert_run(occ: &mut BTreeMap<u64, u64>, mut start: u64, mut end: u64) {
    // Coalesce left.
    if let Some((&ls, &le)) = occ.range(..=start).next_back() {
        debug_assert!(le <= start, "overlapping runs");
        if le == start {
            occ.remove(&ls);
            start = ls;
        }
    }
    // Coalesce right.
    if let Some(&re) = occ.get(&end) {
        occ.remove(&end);
        end = re;
    }
    occ.insert(start, end);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn earliest_fit_respects_runs() {
        let mut occ = BTreeMap::new();
        insert_run(&mut occ, 2, 4);
        assert_eq!(earliest_fit(&occ, Window::new(0, 8), 2), Some(0));
        assert_eq!(earliest_fit(&occ, Window::new(0, 8), 3), Some(4));
        assert_eq!(earliest_fit(&occ, Window::new(2, 4), 1), None);
        assert_eq!(earliest_fit(&occ, Window::new(0, 4), 2), Some(0));
    }

    #[test]
    fn run_coalescing() {
        let mut occ = BTreeMap::new();
        insert_run(&mut occ, 0, 2);
        insert_run(&mut occ, 4, 6);
        insert_run(&mut occ, 2, 4);
        assert_eq!(occ.len(), 1);
        assert_eq!(occ[&0], 6);
    }

    #[test]
    fn schedules_mixed_sizes() {
        let mut s = SizedEdfScheduler::new(1);
        let mut out = RequestOutcome::empty();
        s.insert_job(Job::sized(1, Window::new(0, 8), 4), &mut out)
            .unwrap();
        s.insert_job(Job::sized(2, Window::new(0, 8), 2), &mut out)
            .unwrap();
        s.insert_job(Job::unit(3, Window::new(0, 8)), &mut out)
            .unwrap();
        assert_eq!(s.active_count(), 3);
        // All placed without overlap: total size 7 within 8 slots.
        let starts: Vec<_> = s.snapshot().iter().collect();
        assert_eq!(starts.len(), 3);
    }

    #[test]
    fn observation13_shape() {
        // m = 2γk slots, k unit jobs with window [0, m), one size-k job
        // sliding by k each toggle: each toggle forces ~k unit moves.
        let gamma = 2u64;
        let k = 8u64;
        let m = 2 * gamma * k;
        let mut s = SizedEdfScheduler::new(1);
        let mut out = RequestOutcome::empty();
        for i in 0..k {
            s.insert_job(Job::unit(i, Window::new(0, m)), &mut out)
                .unwrap();
        }
        let mut total = 0u64;
        let mut big = 1000u64;
        s.insert_job(Job::sized(big, Window::new(0, k), k), &mut out)
            .unwrap();
        for pos in 1..(m / k) {
            out.moves.clear();
            s.delete_job(JobId(big), &mut out).unwrap();
            total += out.netted().reallocation_cost();
            big += 1;
            out.moves.clear();
            s.insert_job(
                Job::sized(big, Window::new(pos * k, (pos + 1) * k), k),
                &mut out,
            )
            .unwrap();
            total += out.netted().reallocation_cost();
        }
        // 2γ−1 = 3 toggles; each should move on the order of k unit jobs.
        assert!(
            total >= k,
            "sliding big job should displace unit jobs: {total}"
        );
    }
}
