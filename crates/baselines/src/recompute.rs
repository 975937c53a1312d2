//! The full-recompute rescheduler EDF and LLF share: every request
//! recomputes the whole schedule with the policy's greedy sweep, and its
//! cost is the honest diff against the previous schedule.

use realloc_core::{Error, JobId, Reallocator, RequestOutcome, ScheduleSnapshot, Window};
use std::collections::BTreeMap;
use std::marker::PhantomData;

/// A greedy whole-schedule policy for unit jobs.
pub trait Policy {
    /// Short name for errors (`EDF`, `LLF`).
    const LABEL: &'static str;
    /// Report name.
    const NAME: &'static str;
    /// The policy's schedule of `active` on `machines` machines; `None`
    /// if some job misses its window.
    fn schedule(active: &BTreeMap<JobId, Window>, machines: usize) -> Option<ScheduleSnapshot>;
}

/// Full-recompute rescheduler on `m` machines, arbitrary windows, under
/// policy `P`.
#[derive(Clone, Debug)]
pub struct Recompute<P> {
    machines: usize,
    pub(crate) active: BTreeMap<JobId, Window>,
    schedule: ScheduleSnapshot,
    policy: PhantomData<P>,
}

impl<P: Policy> Recompute<P> {
    /// New rescheduler on `machines ≥ 1` machines.
    pub fn new(machines: usize) -> Self {
        assert!(machines >= 1);
        Recompute {
            machines,
            active: BTreeMap::new(),
            schedule: ScheduleSnapshot::new(),
            policy: PhantomData,
        }
    }

    fn recompute(&mut self, failing_job: JobId, out: &mut RequestOutcome) -> Result<(), Error> {
        let fresh =
            P::schedule(&self.active, self.machines).ok_or_else(|| Error::CapacityExhausted {
                job: failing_job,
                detail: format!("{}: no feasible schedule for the active set", P::LABEL),
            })?;
        out.moves.extend(self.schedule.diff(&fresh));
        self.schedule = fresh;
        Ok(())
    }
}

impl<P: Policy> Reallocator for Recompute<P> {
    fn machines(&self) -> usize {
        self.machines
    }

    fn insert_into(
        &mut self,
        id: JobId,
        window: Window,
        out: &mut RequestOutcome,
    ) -> Result<(), Error> {
        if self.active.contains_key(&id) {
            return Err(Error::DuplicateJob(id));
        }
        self.active.insert(id, window);
        self.recompute(id, out).inspect_err(|_| {
            self.active.remove(&id);
        })
    }

    fn delete_into(&mut self, id: JobId, out: &mut RequestOutcome) -> Result<(), Error> {
        if self.active.remove(&id).is_none() {
            return Err(Error::UnknownJob(id));
        }
        // Deleting never makes an instance infeasible.
        self.recompute(id, out)
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
        P::NAME
    }
}
