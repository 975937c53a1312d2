//! # realloc-core
//!
//! Core types and mathematics for *reallocation scheduling*, the framework of
//! Bender, Farach-Colton, Fekete, Fineman and Gilbert, **"Reallocation
//! Problems in Scheduling"**, SPAA 2013 (arXiv:1305.6555).
//!
//! The problem: unit-length jobs arrive and depart online; each job `j` has a
//! window `[a_j, d_j]` of timeslots in which it must be scheduled on one of
//! `m` machines, one job per `(machine, slot)`. Servicing a request may force
//! previously scheduled jobs to move. The *reallocation cost* of a request is
//! the number of jobs rescheduled; the *migration cost* is the number of jobs
//! whose machine changes (paper §2).
//!
//! This crate holds everything shared between the paper's scheduler
//! ([`realloc-reservation`]), the multi-machine/alignment wrappers
//! ([`realloc-multi`]), and the baselines ([`realloc-baselines`]):
//!
//! * [`window`] — windows, spans, the alignment predicate and `ALIGNED(W)`
//!   (paper §2 and §5),
//! * [`tower`] — the level thresholds `L₁ = 2⁵`, `L_{ℓ+1} = 2^{L_ℓ/4}`
//!   (paper §4, "Interval Decomposition") and `log*`,
//! * [`job`], [`request`] — the job model and on-line request sequences,
//! * [`cost`] — reallocation/migration cost accounting,
//! * [`schedule`] — schedule snapshots and feasibility validation,
//! * [`feasibility`] — offline feasibility (exact EDF for unit jobs) and
//!   `γ`-underallocation density checks (paper Lemma 2),
//! * [`traits`] — the `Reallocator` interfaces all schedulers implement,
//! * [`router`] — epoch-versioned shard routing tables (the serving
//!   layer's elastic-resharding primitive),
//! * [`textio`], [`net`] — the text formats and length-prefixed framing,
//!   and the one threaded socket-server skeleton every TCP server in
//!   the workspace is built on.
//!
//! [`realloc-reservation`]: ../realloc_reservation/index.html
//! [`realloc-multi`]: ../realloc_multi/index.html
//! [`realloc-baselines`]: ../realloc_baselines/index.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod cost;
pub mod crc;
pub mod error;
pub mod feasibility;
pub mod job;
pub mod net;
pub mod request;
pub mod router;
pub mod schedule;
pub mod snapshot;
pub mod textio;
pub mod tower;
pub mod traits;
pub mod window;

pub use clock::Clock;
pub use cost::{CostMeter, Move, Placement, RequestOutcome, SlotMove};
pub use error::Error;
pub use job::{Job, JobId};
pub use request::{Request, RequestSeq};
pub use router::{Router, RouterError, TENANT_SHIFT};
pub use schedule::{ScheduleSnapshot, ValidationError};
pub use snapshot::{Restorable, SnapshotNode, SnapshotWriter, SNAPSHOT_HEADER};
pub use tower::{log_star, Tower, MAX_THRESHOLD};
pub use traits::{Reallocator, SingleMachineReallocator};
pub use window::{sort_for_rebuild, Window};

/// A point on the discrete time axis. Slot `t` is the unit interval
/// `[t, t+1)`; a window `[a, d]` therefore contains the `d − a` slots
/// `a, a+1, …, d−1` ("the window W comprises |W| timeslots", paper §2).
pub type Time = u64;

/// A unit timeslot, identified by its left endpoint.
pub type Slot = u64;
