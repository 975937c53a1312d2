//! # realloc-multi
//!
//! The outer layers of Theorem 1 of **"Reallocation Problems in
//! Scheduling"** (Bender et al., SPAA 2013):
//!
//! * **§5 alignment**: every incoming window `W` is replaced by
//!   `ALIGNED(W)` — the leftmost largest aligned subwindow, of span
//!   `≥ |W|/4` — so the per-machine scheduler only ever sees recursively
//!   aligned instances (Lemma 10: a `4γ`-underallocated arbitrary instance
//!   stays `γ`-underallocated after alignment).
//!
//! * **§3 delegation**: per aligned window `W`, every machine holds
//!   `⌊n_W/m⌋` or `⌈n_W/m⌉` of the `W`-jobs (Lemma 3: each machine's
//!   sub-instance stays underallocated), and that balance is the whole
//!   rule. An insert goes to the first machine, in `W`'s order, holding
//!   the fewest `W`-jobs, so inserts never migrate (on an insert-only
//!   history this is the paper's round robin). A delete migrates only
//!   when the machine that lost a job would otherwise hold two fewer than
//!   the fullest, and then **exactly one** job — the smallest id on the
//!   first fullest machine — which is Theorem 1's migration bound.
//!
//! [`ReallocatingScheduler`] is generic over the per-machine backend, so
//! the same wrapper drives the paper's reservation scheduler
//! ([`TheoremOneScheduler`]) and the Lemma 4 naive baseline, making the
//! experiment comparisons apples-to-apples.
//!
//! One module, [`scheduler`], holds both layers. Over-packed input (the
//! gap between Theorem 1 and Lemmas 11/12) is served by the engine's
//! `BackendKind::Naive`: this same wrapper over the Lemma 4 baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scheduler;

pub use scheduler::{ReallocatingScheduler, TheoremOneScheduler};
