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

use realloc_core::feasibility::edf_schedule;
use realloc_core::snapshot::{Fields, Restorable, SnapshotNode, SnapshotWriter};
use realloc_core::textio::ParseError;
use realloc_core::{Error, Job, JobId, Reallocator, RequestOutcome, ScheduleSnapshot, Window};
use std::collections::BTreeMap;

/// Full-recompute EDF rescheduler on `m` machines, arbitrary windows.
#[derive(Clone, Debug)]
pub struct EdfRescheduler {
    machines: usize,
    active: BTreeMap<JobId, Window>,
    schedule: ScheduleSnapshot,
}

impl EdfRescheduler {
    /// New rescheduler on `machines ≥ 1` machines.
    pub fn new(machines: usize) -> Self {
        assert!(machines >= 1);
        EdfRescheduler {
            machines,
            active: BTreeMap::new(),
            schedule: ScheduleSnapshot::new(),
        }
    }

    fn recompute(&mut self, failing_job: JobId) -> Result<RequestOutcome, Error> {
        let jobs: Vec<Job> = self
            .active
            .iter()
            .map(|(&id, &w)| Job::unit(id.0, w))
            .collect();
        let fresh = edf_schedule(&jobs, self.machines).ok_or(Error::CapacityExhausted {
            job: failing_job,
            detail: "EDF: no feasible schedule for the active set".into(),
        })?;
        let moves = self.schedule.diff(&fresh);
        self.schedule = fresh;
        Ok(RequestOutcome { moves })
    }
}

impl Restorable for EdfRescheduler {
    const SNAPSHOT_KIND: &'static str = "edf";

    fn write_state(&self, w: &mut SnapshotWriter) {
        // The schedule is a pure function of the active set (every
        // mutation ends in a full recompute), so only machine count and
        // active windows need recording; restore re-derives the
        // schedule, and therefore all future diffs, exactly.
        w.line(format_args!("m {}", self.machines));
        for (&id, &win) in &self.active {
            w.line(format_args!("j {} {} {}", id.0, win.start(), win.end()));
        }
    }

    fn read_state(node: &SnapshotNode) -> Result<Self, ParseError> {
        node.expect_kind(Self::SNAPSHOT_KIND)?;
        let (machines, active) = read_recompute_state(node, "edf")?;
        let mut s = EdfRescheduler::new(machines);
        s.active = active;
        if !s.active.is_empty() {
            let jobs: Vec<Job> = s
                .active
                .iter()
                .map(|(&id, &w)| Job::unit(id.0, w))
                .collect();
            s.schedule = edf_schedule(&jobs, s.machines).ok_or(ParseError {
                line: 0,
                message: "edf snapshot's active set is infeasible".to_string(),
            })?;
        }
        Ok(s)
    }
}

/// Shared parser for the EDF/LLF full-recompute snapshots: one `m` line
/// plus `j` lines of active windows.
pub(crate) fn read_recompute_state(
    node: &SnapshotNode,
    what: &str,
) -> Result<(usize, BTreeMap<JobId, Window>), ParseError> {
    let mut machines: Option<usize> = None;
    let mut active: BTreeMap<JobId, Window> = BTreeMap::new();
    for (line, content) in &node.lines {
        let mut f = Fields::of(*line, content);
        match f.token("op")? {
            "m" => {
                if machines.is_some() {
                    return Err(f.err("duplicate 'm' line"));
                }
                let m = f.usize("machine count")?;
                f.finish()?;
                if m == 0 {
                    return Err(f.err("machine count must be >= 1"));
                }
                machines = Some(m);
            }
            "j" => {
                let id = JobId(f.u64("job id")?);
                let start = f.u64("window start")?;
                let end = f.u64("window end")?;
                f.finish()?;
                if end <= start {
                    return Err(f.err(format!("window end {end} must exceed start {start}")));
                }
                if active.insert(id, Window::new(start, end)).is_some() {
                    return Err(f.err(format!("duplicate job {id}")));
                }
            }
            other => {
                return Err(ParseError {
                    line: *line,
                    message: format!("unknown {what} snapshot op '{other}'"),
                })
            }
        }
    }
    let machines = machines.ok_or(ParseError {
        line: 0,
        message: format!("{what} snapshot has no 'm' machine-count line"),
    })?;
    Ok((machines, active))
}

impl Reallocator for EdfRescheduler {
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
        // Deleting never makes an instance infeasible.
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
        "edf-recompute"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realloc_core::schedule::validate;

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
