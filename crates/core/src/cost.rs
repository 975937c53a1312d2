//! Reallocation and migration cost accounting (paper §2).
//!
//! > *"We define the migration cost of a request `rᵢ` to be the number of
//! > jobs whose machine changes when `rᵢ` is processed. We define the
//! > reallocation cost of a request `rᵢ` to be the number of jobs that must
//! > be rescheduled when `rᵢ` is processed."*
//!
//! Every scheduler operation returns the exact set of placement changes it
//! performed ([`RequestOutcome`]); the costs are *derived* from those moves
//! rather than self-reported, so a buggy scheduler cannot under-count.
//! The initial placement of a freshly inserted job and the removal of a
//! deleted job are recorded as moves but do **not** count as reallocations:
//! only previously scheduled jobs that end up elsewhere do.

use crate::job::JobId;
use crate::Slot;
use std::collections::hash_map::Entry;

/// A position in the global schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Placement {
    /// Machine index in `0..m`.
    pub machine: usize,
    /// Timeslot on that machine.
    pub slot: Slot,
}

/// A placement change of one job on the multi-machine schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Move {
    /// The job that moved.
    pub job: JobId,
    /// Previous placement; `None` when the job is freshly inserted.
    pub from: Option<Placement>,
    /// New placement; `None` when the job is being deleted.
    pub to: Option<Placement>,
}

impl Move {
    /// A *reallocation* in the paper's sense: an already-scheduled job whose
    /// placement changed (same-machine slot changes count too).
    pub fn is_reallocation(&self) -> bool {
        match (self.from, self.to) {
            (Some(f), Some(t)) => f != t,
            _ => false,
        }
    }

    /// A *migration*: an already-scheduled job whose machine changed.
    pub fn is_migration(&self) -> bool {
        match (self.from, self.to) {
            (Some(f), Some(t)) => f.machine != t.machine,
            _ => false,
        }
    }
}

/// A placement change on a single machine (used by the single-machine
/// scheduler layer, where there is no machine coordinate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotMove {
    /// The job that moved.
    pub job: JobId,
    /// Previous slot; `None` when freshly inserted.
    pub from: Option<Slot>,
    /// New slot; `None` when deleted.
    pub to: Option<Slot>,
}

impl SlotMove {
    /// An already-scheduled job whose slot changed.
    pub fn is_reallocation(&self) -> bool {
        matches!((self.from, self.to), (Some(f), Some(t)) if f != t)
    }

    /// Lifts the slot move onto machine `machine`.
    pub fn on_machine(self, machine: usize) -> Move {
        Move {
            job: self.job,
            from: self.from.map(|slot| Placement { machine, slot }),
            to: self.to.map(|slot| Placement { machine, slot }),
        }
    }
}

/// Longest move list [`RequestOutcome::netted_costs`] nets by linear
/// scans; longer ones (full recomputes, rebuilds) go through
/// [`RequestOutcome::netted`]'s hash map.
const NET_SCAN_MAX: usize = 32;

/// The full effect of servicing one request.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RequestOutcome {
    /// Every placement change performed, in execution order.
    pub moves: Vec<Move>,
}

impl RequestOutcome {
    /// Outcome with no moves.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Paper §2 reallocation cost of this request.
    pub fn reallocation_cost(&self) -> u64 {
        self.moves.iter().filter(|m| m.is_reallocation()).count() as u64
    }

    /// Paper §2 migration cost of this request.
    pub fn migration_cost(&self) -> u64 {
        self.moves.iter().filter(|m| m.is_migration()).count() as u64
    }

    /// Appends a move.
    pub fn push(&mut self, m: Move) {
        self.moves.push(m);
    }

    /// The netted `(reallocation, migration)` costs of this request:
    /// exactly `netted().reallocation_cost()` and
    /// `netted().migration_cost()`, counted by scanning the move list in
    /// place — per job, the first `from` against the last `to` — so the
    /// per-request accounting on the serving path builds no netted list.
    pub fn netted_costs(&self) -> (u64, u64) {
        if self.moves.len() > NET_SCAN_MAX {
            let net = self.netted();
            return (net.reallocation_cost(), net.migration_cost());
        }
        let (mut reallocations, mut migrations) = (0, 0);
        for (i, first) in self.moves.iter().enumerate() {
            if self.moves[..i].iter().any(|m| m.job == first.job) {
                continue;
            }
            let last = self.moves[i..]
                .iter()
                .rfind(|m| m.job == first.job)
                .expect("the move at i is one");
            let net = Move {
                job: first.job,
                from: first.from,
                to: last.to,
            };
            reallocations += u64::from(net.is_reallocation());
            migrations += u64::from(net.is_migration());
        }
        (reallocations, migrations)
    }

    /// Collapses repeated moves of the same job into one net move so that a
    /// job shuffled through several temporary slots is charged once, as the
    /// paper counts "the number of jobs that must be rescheduled".
    ///
    /// Moves are netted per job: the first `from` and the last `to` survive.
    pub fn netted(&self) -> RequestOutcome {
        // Each job's index in `net`, which keeps first-appearance order.
        let mut at: fxhash::FxHashMap<JobId, usize> = fxhash::FxHashMap::default();
        let mut net: Vec<Move> = Vec::new();
        for m in &self.moves {
            match at.entry(m.job) {
                Entry::Occupied(e) => net[*e.get()].to = m.to,
                Entry::Vacant(e) => {
                    e.insert(net.len());
                    net.push(*m);
                }
            }
        }
        net.retain(|m| m.from.is_some() || m.to.is_some());
        RequestOutcome { moves: net }
    }
}

/// Per-request cost record kept by [`CostMeter`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostSample {
    /// Reallocation cost of the request.
    pub reallocations: u64,
    /// Migration cost of the request.
    pub migrations: u64,
    /// Number of active jobs after the request (the paper's `nᵢ`).
    pub active_jobs: u64,
    /// Largest active window span after the request (the paper's `Δᵢ`).
    pub max_span: u64,
}

/// Accumulates per-request costs over an execution and summarizes them.
#[derive(Clone, Debug, Default)]
pub struct CostMeter {
    samples: Vec<CostSample>,
    total_reallocations: u64,
    total_migrations: u64,
}

impl CostMeter {
    /// New, empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the outcome of one request. The outcome is netted first.
    pub fn record(&mut self, outcome: &RequestOutcome, active_jobs: u64, max_span: u64) {
        let (reallocations, migrations) = outcome.netted_costs();
        let sample = CostSample {
            reallocations,
            migrations,
            active_jobs,
            max_span,
        };
        self.total_reallocations += sample.reallocations;
        self.total_migrations += sample.migrations;
        self.samples.push(sample);
    }

    /// All recorded samples.
    pub fn samples(&self) -> &[CostSample] {
        &self.samples
    }

    /// Total reallocations over all recorded requests.
    pub fn total_reallocations(&self) -> u64 {
        self.total_reallocations
    }

    /// Total migrations over all recorded requests.
    pub fn total_migrations(&self) -> u64 {
        self.total_migrations
    }

    /// Number of requests recorded.
    pub fn requests(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Mean reallocations per request.
    pub fn mean_reallocations(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.total_reallocations as f64 / self.samples.len() as f64
        }
    }

    /// Largest per-request reallocation cost.
    pub fn max_reallocations(&self) -> u64 {
        self.samples
            .iter()
            .map(|s| s.reallocations)
            .max()
            .unwrap_or(0)
    }

    /// Largest per-request migration cost.
    pub fn max_migrations(&self) -> u64 {
        self.samples.iter().map(|s| s.migrations).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(machine: usize, slot: Slot) -> Placement {
        Placement { machine, slot }
    }

    #[test]
    fn move_classification() {
        let fresh = Move {
            job: JobId(1),
            from: None,
            to: Some(p(0, 3)),
        };
        assert!(!fresh.is_reallocation());
        assert!(!fresh.is_migration());

        let slot_change = Move {
            job: JobId(1),
            from: Some(p(0, 3)),
            to: Some(p(0, 5)),
        };
        assert!(slot_change.is_reallocation());
        assert!(!slot_change.is_migration());

        let machine_change = Move {
            job: JobId(1),
            from: Some(p(0, 3)),
            to: Some(p(1, 3)),
        };
        assert!(machine_change.is_reallocation());
        assert!(machine_change.is_migration());

        let removal = Move {
            job: JobId(1),
            from: Some(p(0, 3)),
            to: None,
        };
        assert!(!removal.is_reallocation());
        assert!(!removal.is_migration());
    }

    #[test]
    fn outcome_costs() {
        let mut o = RequestOutcome::empty();
        o.push(Move {
            job: JobId(1),
            from: None,
            to: Some(p(0, 0)),
        });
        o.push(Move {
            job: JobId(2),
            from: Some(p(0, 0)),
            to: Some(p(0, 1)),
        });
        o.push(Move {
            job: JobId(3),
            from: Some(p(0, 1)),
            to: Some(p(1, 1)),
        });
        assert_eq!(o.reallocation_cost(), 2);
        assert_eq!(o.migration_cost(), 1);
    }

    #[test]
    fn netting_collapses_chains() {
        // Job 2 moves 0->1 then 1->2: counts once, net 0->2.
        let mut o = RequestOutcome::empty();
        o.push(Move {
            job: JobId(2),
            from: Some(p(0, 0)),
            to: Some(p(0, 1)),
        });
        o.push(Move {
            job: JobId(2),
            from: Some(p(0, 1)),
            to: Some(p(0, 2)),
        });
        let n = o.netted();
        assert_eq!(n.moves.len(), 1);
        assert_eq!(n.moves[0].from, Some(p(0, 0)));
        assert_eq!(n.moves[0].to, Some(p(0, 2)));
        assert_eq!(n.reallocation_cost(), 1);
    }

    #[test]
    fn netting_cancels_round_trips() {
        // A job moved away and back nets to no reallocation.
        let mut o = RequestOutcome::empty();
        o.push(Move {
            job: JobId(2),
            from: Some(p(0, 0)),
            to: Some(p(0, 1)),
        });
        o.push(Move {
            job: JobId(2),
            from: Some(p(0, 1)),
            to: Some(p(0, 0)),
        });
        assert_eq!(o.netted().reallocation_cost(), 0);
    }

    #[test]
    fn netting_joins_a_split_migration() {
        // A §3 migration is recorded as a delete half and an insert half.
        // Each half alone moves nothing already scheduled, so the raw
        // counts miss the migration; netting joins the halves.
        let mut o = RequestOutcome::empty();
        o.push(Move {
            job: JobId(4),
            from: Some(p(0, 3)),
            to: None,
        });
        o.push(Move {
            job: JobId(4),
            from: None,
            to: Some(p(1, 5)),
        });
        assert_eq!((o.reallocation_cost(), o.migration_cost()), (0, 0));
        assert_eq!(o.netted_costs(), (1, 1));
        assert_eq!(o.netted().moves.len(), 1);
    }

    #[test]
    fn meter_accumulates() {
        let mut meter = CostMeter::new();
        let mut o = RequestOutcome::empty();
        o.push(Move {
            job: JobId(2),
            from: Some(p(0, 0)),
            to: Some(p(1, 1)),
        });
        meter.record(&o, 5, 16);
        meter.record(&RequestOutcome::empty(), 6, 16);
        assert_eq!(meter.requests(), 2);
        assert_eq!(meter.total_reallocations(), 1);
        assert_eq!(meter.total_migrations(), 1);
        assert_eq!(meter.max_reallocations(), 1);
        assert!((meter.mean_reallocations() - 0.5).abs() < 1e-12);
    }
}
