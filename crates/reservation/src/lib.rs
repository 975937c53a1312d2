//! # realloc-reservation
//!
//! The reservation-based pecking-order scheduler of **"Reallocation
//! Problems in Scheduling"** (Bender, Farach-Colton, Fekete, Fineman,
//! Gilbert; SPAA 2013), §4 and Figure 1 — the paper's core contribution.
//!
//! Given a `γ`-underallocated on-line stream of unit jobs with *aligned*
//! windows on a single machine, [`ReservationScheduler`] maintains a
//! feasible schedule while rescheduling only `O(log* Δ)` jobs per
//! insert/delete ([`TrimmedScheduler`] adds the `n*` trimming rule for the
//! full `O(min{log* n, log* Δ})` of Lemma 9).
//!
//! The design walks the paper's structure:
//!
//! * [`quota`] — Invariant 5 reservation counts and the Observation 7
//!   history-independent fulfillment rule, as pure functions;
//! * [`state`] — the mutable residue, one dense record of bit words per
//!   interval: which slots back each window's fulfilled reservations,
//!   lower-level occupancy (the complement of `allowance(I)`), and
//!   physical occupancy;
//! * [`scheduler`] — insert/delete built from RESERVE (quota rises),
//!   MOVE (quota drops; ancestor slot-swap trick), and PLACE (with the
//!   cross-level displacement cascade);
//! * [`base`] — the constant-cost level-0 cascade for spans `≤ L₁`;
//! * [`trim`] — amortized `n*` trimming (Lemma 9);
//! * [`invariants`] — exhaustive structural checking for tests;
//! * [`snapshot`] — full-state snapshot/restore
//!   ([`realloc_core::Restorable`]) for checkpointing and migration.
//!
//! # Example
//!
//! ```
//! use realloc_core::{JobId, SingleMachineReallocator, Window};
//! use realloc_reservation::ReservationScheduler;
//!
//! let mut sched = ReservationScheduler::new();
//! sched.insert(JobId(1), Window::new(0, 64)).unwrap();
//! sched.insert(JobId(2), Window::new(0, 8)).unwrap();
//! let slot1 = sched.slot_of(JobId(1)).unwrap();
//! let slot2 = sched.slot_of(JobId(2)).unwrap();
//! assert!(slot1 < 64 && slot2 < 8 && slot1 != slot2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod base;
pub mod deamortized;
pub mod invariants;
pub mod quota;
pub mod scheduler;
pub mod snapshot;
pub mod state;
pub mod trim;

pub use deamortized::DeamortizedScheduler;
pub use invariants::InvariantViolation;
pub use scheduler::{ReservationScheduler, MAX_TIME};
pub use trim::TrimmedScheduler;

#[cfg(test)]
mod tests {
    use super::*;
    use realloc_core::{JobId, SingleMachineReallocator, Tower, Window};

    fn checked(s: &mut ReservationScheduler) {
        s.check_invariants().expect("invariants hold");
    }

    #[test]
    fn insert_base_level_jobs() {
        let mut s = ReservationScheduler::new();
        for i in 0..8u64 {
            s.insert(JobId(i), Window::new(0, 8)).unwrap();
            checked(&mut s);
        }
        // Window full: next insert must fail.
        let e = s.insert(JobId(9), Window::new(0, 8));
        assert!(matches!(
            e,
            Err(realloc_core::Error::CapacityExhausted { .. })
        ));
        checked(&mut s);
        // But deleting frees a slot.
        s.delete(JobId(0)).unwrap();
        checked(&mut s);
        s.insert(JobId(9), Window::new(0, 8)).unwrap();
        checked(&mut s);
    }

    #[test]
    fn base_cascade_displaces_longer_spans() {
        let mut s = ReservationScheduler::new();
        // Fill [0, 2) with span-2 jobs, then insert span-1 jobs that force
        // the span-2 jobs to cascade.
        s.insert(JobId(1), Window::new(0, 4)).unwrap();
        s.insert(JobId(2), Window::new(0, 4)).unwrap();
        s.insert(JobId(3), Window::new(0, 2)).unwrap();
        s.insert(JobId(4), Window::new(2, 4)).unwrap();
        checked(&mut s);
        let slots: std::collections::HashSet<u64> =
            s.assignments().into_iter().map(|(_, sl)| sl).collect();
        assert_eq!(slots.len(), 4);
        assert!(slots.iter().all(|&sl| sl < 4));
    }

    #[test]
    fn leveled_insert_and_delete() {
        let mut s = ReservationScheduler::new();
        // Span 64 -> level 1 under the paper tower.
        for i in 0..8u64 {
            s.insert(JobId(i), Window::new(0, 64)).unwrap();
            checked(&mut s);
        }
        assert_eq!(s.active_count(), 8);
        for i in 0..8u64 {
            s.delete(JobId(i)).unwrap();
            checked(&mut s);
        }
        assert_eq!(s.active_count(), 0);
        assert_eq!(s.occupied_slots(), 0);
    }

    #[test]
    fn cross_level_displacement() {
        let mut s = ReservationScheduler::new();
        // A level-1 job, then enough level-0 jobs to force it to move.
        s.insert(JobId(100), Window::new(0, 64)).unwrap();
        checked(&mut s);
        for i in 0..16u64 {
            s.insert(JobId(i), Window::new(0, 32)).unwrap();
            checked(&mut s);
        }
        // The level-1 job must still be scheduled somewhere in [0, 64).
        let slot = s.slot_of(JobId(100)).unwrap();
        assert!(slot < 64);
        assert_eq!(s.active_count(), 17);
    }

    #[test]
    fn three_level_stack() {
        let mut s = ReservationScheduler::new();
        // Levels 0 (span 8), 1 (span 64), 2 (span 512).
        s.insert(JobId(1), Window::new(0, 512)).unwrap();
        checked(&mut s);
        s.insert(JobId(2), Window::new(0, 64)).unwrap();
        checked(&mut s);
        s.insert(JobId(3), Window::new(0, 8)).unwrap();
        checked(&mut s);
        for id in [1u64, 2, 3] {
            assert!(s.slot_of(JobId(id)).is_some());
        }
        s.delete(JobId(2)).unwrap();
        checked(&mut s);
        s.delete(JobId(1)).unwrap();
        checked(&mut s);
        s.delete(JobId(3)).unwrap();
        checked(&mut s);
        assert_eq!(s.occupied_slots(), 0);
    }

    #[test]
    fn duplicate_and_unknown_rejected() {
        let mut s = ReservationScheduler::new();
        s.insert(JobId(1), Window::new(0, 8)).unwrap();
        assert!(matches!(
            s.insert(JobId(1), Window::new(0, 8)),
            Err(realloc_core::Error::DuplicateJob(_))
        ));
        assert!(matches!(
            s.delete(JobId(2)),
            Err(realloc_core::Error::UnknownJob(_))
        ));
    }

    #[test]
    fn unaligned_rejected() {
        let mut s = ReservationScheduler::new();
        assert!(matches!(
            s.insert(JobId(1), Window::new(1, 4)),
            Err(realloc_core::Error::UnalignedWindow(_))
        ));
    }

    #[test]
    fn moves_are_reported_faithfully() {
        let mut s = ReservationScheduler::new();
        let m = s.insert(JobId(1), Window::new(0, 64)).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].job, JobId(1));
        assert_eq!(m[0].from, None);
        let slot = m[0].to.unwrap();
        assert_eq!(s.slot_of(JobId(1)), Some(slot));
        let d = s.delete(JobId(1)).unwrap();
        assert!(d.iter().any(|mv| mv.job == JobId(1) && mv.to.is_none()));
    }

    #[test]
    fn custom_tower_many_levels() {
        let tower = Tower::custom(vec![4, 16, 64, 256]);
        let mut s = ReservationScheduler::with_tower(tower);
        // One job per level: spans 4, 8, 32, 128, 512.
        for (i, span) in [4u64, 8, 32, 128, 512].iter().enumerate() {
            s.insert(JobId(i as u64), Window::with_span(0, *span))
                .unwrap();
            checked(&mut s);
        }
        assert_eq!(s.active_count(), 5);
        for i in 0..5u64 {
            s.delete(JobId(i)).unwrap();
            checked(&mut s);
        }
    }

    #[test]
    fn compact_reclaims_window_states() {
        let mut s = ReservationScheduler::new();
        for i in 0..32u64 {
            s.insert(JobId(i), Window::with_span((i % 16) * 256, 256))
                .unwrap();
        }
        for i in 0..32u64 {
            s.delete(JobId(i)).unwrap();
        }
        // Standing reservations keep the states alive after the jobs left…
        assert!(s.window_states() > 0);
        s.compact();
        assert_eq!(s.window_states(), 0);
        checked(&mut s);
        // …and the scheduler still works after compaction.
        for i in 100..120u64 {
            s.insert(JobId(i), Window::with_span((i % 4) * 512, 512))
                .unwrap();
            checked(&mut s);
        }
    }

    #[test]
    fn trimmed_scheduler_round_trip() {
        let mut s = TrimmedScheduler::new(4);
        for i in 0..64u64 {
            s.insert(JobId(i), Window::with_span((i % 8) * 512, 512))
                .unwrap();
            s.inner().check_invariants().unwrap();
        }
        assert_eq!(s.active_count(), 64);
        assert!(s.n_star() >= 64);
        for i in 0..64u64 {
            s.delete(JobId(i)).unwrap();
            s.inner().check_invariants().unwrap();
        }
        assert_eq!(s.active_count(), 0);
        assert!(s.rebuilds() > 0);
    }
}
