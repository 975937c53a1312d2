//! # realloc-baselines
//!
//! Comparison schedulers for the reallocation experiments:
//!
//! * [`NaivePeckingScheduler`] — the paper's Lemma 4 baseline: greedy
//!   pecking-order with cascading displacement, `O(min{log n, log Δ})`
//!   reallocations per request on aligned instances (single machine);
//! * [`EdfRescheduler`] — classical earliest-deadline-first, recomputed
//!   from scratch on every request. Brittle: a single insert/delete can
//!   reshuffle `Θ(n)` jobs (paper §1, §4 and the Lemma 12 construction);
//! * [`LlfRescheduler`] — least-laxity-first recompute. For unit jobs at
//!   integer slots laxity ordering coincides with deadline ordering, so
//!   LLF differs from EDF only in tie-breaking — exactly the brittleness
//!   point the paper makes about both classical policies;
//! * [`offline`] — the offline optimum (greedy EDF is exact for unit
//!   jobs), used as the feasibility oracle in the harnesses;
//! * [`SizedEdfScheduler`] — a rescheduler for jobs of integer size
//!   `k ≥ 1`, used by the Observation 13 `Ω(kn)` lower-bound experiment
//!   (the paper's scheduler is unit-size only).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod edf;
pub mod llf;
pub mod naive;
pub mod offline;
pub mod recompute;
pub mod sized_edf;

pub use edf::EdfRescheduler;
pub use llf::LlfRescheduler;
pub use naive::NaivePeckingScheduler;
pub use sized_edf::SizedEdfScheduler;
