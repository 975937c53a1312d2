//! Schedule snapshots and validation.
//!
//! Paper §2: *"Before each scheduling request, the scheduler must output a
//! feasible schedule for all the active jobs. A feasible schedule is one in
//! which each job is properly scheduled on a particular machine for a time
//! in the job's available window, and no two jobs on the same machine are
//! scheduled for the same time."*
//!
//! [`validate`] checks exactly that, against the jobs' **original** windows
//! (so trimming/alignment inside a scheduler can never silently weaken the
//! contract).

use crate::cost::Placement;
use crate::job::JobId;
use crate::window::Window;
use fxhash::FxHashMap;
use std::collections::BTreeMap;

/// A flat snapshot of the current schedule: each active job's placement.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScheduleSnapshot {
    assignments: BTreeMap<JobId, Placement>,
}

impl ScheduleSnapshot {
    /// Empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records (or overwrites) a job's placement.
    pub fn set(&mut self, job: JobId, placement: Placement) {
        self.assignments.insert(job, placement);
    }

    /// Removes a job.
    pub fn remove(&mut self, job: JobId) -> Option<Placement> {
        self.assignments.remove(&job)
    }

    /// The placement of `job`, if scheduled.
    pub fn placement(&self, job: JobId) -> Option<Placement> {
        self.assignments.get(&job).copied()
    }

    /// Number of scheduled jobs.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Iterates over `(job, placement)` in job order.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, Placement)> + '_ {
        self.assignments.iter().map(|(&j, &p)| (j, p))
    }

    /// The set of placement changes between two snapshots of the same job
    /// population — used to charge full-recompute baselines (EDF/LLF) their
    /// honest reallocation cost.
    pub fn diff(&self, after: &ScheduleSnapshot) -> Vec<crate::cost::Move> {
        let mut moves = Vec::new();
        for (&job, &from) in &self.assignments {
            match after.assignments.get(&job) {
                Some(&to) if to != from => moves.push(crate::cost::Move {
                    job,
                    from: Some(from),
                    to: Some(to),
                }),
                Some(_) => {}
                None => moves.push(crate::cost::Move {
                    job,
                    from: Some(from),
                    to: None,
                }),
            }
        }
        for (&job, &to) in &after.assignments {
            if !self.assignments.contains_key(&job) {
                moves.push(crate::cost::Move {
                    job,
                    from: None,
                    to: Some(to),
                });
            }
        }
        moves
    }
}

/// Why a snapshot failed validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// An active job has no placement.
    MissingJob(JobId),
    /// A scheduled job is not active.
    GhostJob(JobId),
    /// A job sits outside its window.
    OutOfWindow {
        /// The offending job.
        job: JobId,
        /// Where it was placed.
        placement: Placement,
        /// Its admissible window.
        window: Window,
    },
    /// Two jobs share a `(machine, slot)`.
    Collision {
        /// First job.
        a: JobId,
        /// Second job.
        b: JobId,
        /// The shared placement.
        placement: Placement,
    },
    /// A machine index out of `0..m`.
    BadMachine {
        /// The offending job.
        job: JobId,
        /// The out-of-range machine index.
        machine: usize,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::MissingJob(j) => write!(f, "active job {j} is unscheduled"),
            ValidationError::GhostJob(j) => write!(f, "scheduled job {j} is not active"),
            ValidationError::OutOfWindow {
                job,
                placement,
                window,
            } => write!(
                f,
                "job {job} at machine {} slot {} outside window {window}",
                placement.machine, placement.slot
            ),
            ValidationError::Collision { a, b, placement } => write!(
                f,
                "jobs {a} and {b} collide at machine {} slot {}",
                placement.machine, placement.slot
            ),
            ValidationError::BadMachine { job, machine } => {
                write!(f, "job {job} on nonexistent machine {machine}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validates a snapshot against the active job set (ids → original windows)
/// and the machine count, per the paper's feasibility definition.
pub fn validate(
    snapshot: &ScheduleSnapshot,
    active: &BTreeMap<JobId, Window>,
    machines: usize,
) -> Result<(), ValidationError> {
    for &job in active.keys() {
        if snapshot.placement(job).is_none() {
            return Err(ValidationError::MissingJob(job));
        }
    }
    let mut occupied: FxHashMap<Placement, JobId> =
        FxHashMap::with_capacity_and_hasher(snapshot.len(), Default::default());
    for (job, placement) in snapshot.iter() {
        let window = match active.get(&job) {
            Some(w) => *w,
            None => return Err(ValidationError::GhostJob(job)),
        };
        if placement.machine >= machines {
            return Err(ValidationError::BadMachine {
                job,
                machine: placement.machine,
            });
        }
        if !window.contains_slot(placement.slot) {
            return Err(ValidationError::OutOfWindow {
                job,
                placement,
                window,
            });
        }
        if let Some(other) = occupied.insert(placement, job) {
            return Err(ValidationError::Collision {
                a: other,
                b: job,
                placement,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(machine: usize, slot: u64) -> Placement {
        Placement { machine, slot }
    }

    fn active(pairs: &[(u64, Window)]) -> BTreeMap<JobId, Window> {
        pairs.iter().map(|&(id, w)| (JobId(id), w)).collect()
    }

    #[test]
    fn valid_schedule_passes() {
        let a = active(&[(1, Window::new(0, 4)), (2, Window::new(0, 4))]);
        let mut s = ScheduleSnapshot::new();
        s.set(JobId(1), p(0, 0));
        s.set(JobId(2), p(0, 1));
        assert_eq!(validate(&s, &a, 1), Ok(()));
    }

    #[test]
    fn missing_job_detected() {
        let a = active(&[(1, Window::new(0, 4))]);
        let s = ScheduleSnapshot::new();
        assert_eq!(
            validate(&s, &a, 1),
            Err(ValidationError::MissingJob(JobId(1)))
        );
    }

    #[test]
    fn ghost_job_detected() {
        let a = active(&[]);
        let mut s = ScheduleSnapshot::new();
        s.set(JobId(5), p(0, 0));
        assert_eq!(
            validate(&s, &a, 1),
            Err(ValidationError::GhostJob(JobId(5)))
        );
    }

    #[test]
    fn out_of_window_detected() {
        let a = active(&[(1, Window::new(0, 4))]);
        let mut s = ScheduleSnapshot::new();
        s.set(JobId(1), p(0, 4));
        assert!(matches!(
            validate(&s, &a, 1),
            Err(ValidationError::OutOfWindow { .. })
        ));
    }

    #[test]
    fn collision_detected() {
        let a = active(&[(1, Window::new(0, 4)), (2, Window::new(0, 4))]);
        let mut s = ScheduleSnapshot::new();
        s.set(JobId(1), p(0, 2));
        s.set(JobId(2), p(0, 2));
        assert!(matches!(
            validate(&s, &a, 1),
            Err(ValidationError::Collision { .. })
        ));
    }

    #[test]
    fn same_slot_other_machine_ok() {
        let a = active(&[(1, Window::new(0, 4)), (2, Window::new(0, 4))]);
        let mut s = ScheduleSnapshot::new();
        s.set(JobId(1), p(0, 2));
        s.set(JobId(2), p(1, 2));
        assert_eq!(validate(&s, &a, 2), Ok(()));
    }

    #[test]
    fn bad_machine_detected() {
        let a = active(&[(1, Window::new(0, 4))]);
        let mut s = ScheduleSnapshot::new();
        s.set(JobId(1), p(3, 2));
        assert!(matches!(
            validate(&s, &a, 2),
            Err(ValidationError::BadMachine { .. })
        ));
    }

    #[test]
    fn diff_reports_changes() {
        let mut before = ScheduleSnapshot::new();
        before.set(JobId(1), p(0, 0));
        before.set(JobId(2), p(0, 1));
        let mut after = ScheduleSnapshot::new();
        after.set(JobId(1), p(0, 0)); // unchanged
        after.set(JobId(2), p(1, 1)); // migrated
        after.set(JobId(3), p(0, 2)); // new
        let moves = before.diff(&after);
        assert_eq!(moves.len(), 2);
        let outcome = crate::cost::RequestOutcome { moves };
        assert_eq!(outcome.reallocation_cost(), 1);
        assert_eq!(outcome.migration_cost(), 1);
    }
}
