//! # realloc-sched
//!
//! A production-quality Rust implementation of **"Reallocation Problems in
//! Scheduling"** (Bender, Farach-Colton, Fekete, Fineman, Gilbert;
//! SPAA 2013, arXiv:1305.6555).
//!
//! Unit-length jobs with arrival/deadline windows are inserted and deleted
//! online; the scheduler maintains a feasible schedule on `m` machines
//! while rescheduling only `O(min{log* n, log* Δ})` already-placed jobs per
//! request and migrating **at most one** job across machines per request —
//! provided the instance keeps constant-factor slack
//! (`γ`-underallocation). The README's "Workspace map" lays out the
//! crates; each `exp_*` binary of `realloc-sim` prints the measured
//! table for one theorem, lemma or figure of the paper (its header
//! names which).
//!
//! # Quickstart
//!
//! ```
//! use realloc_sched::{JobId, Reallocator, TheoremOneScheduler, Window};
//!
//! // 4 machines, trim factor γ = 8.
//! let mut sched = TheoremOneScheduler::theorem_one(4, 8);
//!
//! // A patient wants an appointment somewhere in slots [10, 30).
//! let outcome = sched.insert(JobId(1), Window::new(10, 30)).unwrap();
//! // Costs are counted per job, netted over the request: nobody moved.
//! assert_eq!(outcome.netted_costs(), (0, 0));
//!
//! let placement = sched.snapshot().placement(JobId(1)).unwrap();
//! assert!((10..30).contains(&placement.slot));
//!
//! // Two more in the same window, then cancel one: a deletion migrates
//! // at most one other job (Lemma 3).
//! for id in [2, 3] {
//!     sched.insert(JobId(id), Window::new(10, 30)).unwrap();
//! }
//! let outcome = sched.delete(JobId(1)).unwrap();
//! let (reallocations, migrations) = outcome.netted_costs();
//! assert!(migrations <= 1 && migrations <= reallocations);
//! ```
//!
//! # Crate map
//!
//! | Crate | Paper section | Contents |
//! |---|---|---|
//! | [`core`] | §2 | windows, alignment, tower, costs, feasibility |
//! | [`reservation`] | §4, Fig. 1 | the reservation pecking-order scheduler |
//! | [`multi`] | §3, §5 | machine delegation + alignment wrappers |
//! | [`baselines`] | §1, §4, §6 | naive / EDF / LLF / offline / sized-EDF |
//! | [`workloads`] | §6, §7 | churn generators and lower-bound adversaries |
//! | [`telemetry`] | — | metrics registry, trace ring, TCP exposition |
//! | [`engine`] | — | sharded, batched, multi-tenant scheduling service |
//! | [`cluster`] | — | journal-shipping replication: primary/replica, fenced failover |
//! | [`service`] | — | client-facing TCP serving tier with per-tenant QoS |
//! | [`store`] | — | fsync'd on-disk journal/checkpoint store, fault injection, crash matrix |
//! | [`sim`] | — | harness, stats, experiment binaries |
//!
//! # Serving layer
//!
//! [`Engine`] shards requests across independent scheduler backends,
//! ingests them in batches, and aggregates per-shard cost telemetry:
//!
//! ```
//! use realloc_sched::{BackendKind, Engine, EngineConfig, JobId, Request, Window};
//!
//! let mut engine = Engine::new(EngineConfig {
//!     shards: 4,
//!     backend: BackendKind::TheoremOne { gamma: 8 },
//!     ..EngineConfig::default()
//! });
//! for i in 0..32u64 {
//!     engine.submit(Request::Insert { id: JobId(i), window: Window::new(0, 256) });
//! }
//! let report = engine.flush();
//! assert_eq!(report.processed(), 32);
//! assert_eq!(engine.metrics().active_jobs, 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Core types (re-export of `realloc-core`).
pub mod core {
    pub use realloc_core::*;
}
/// The §4 reservation scheduler (re-export of `realloc-reservation`).
pub mod reservation {
    pub use realloc_reservation::*;
}
/// The §3/§5 wrappers (re-export of `realloc-multi`).
pub mod multi {
    pub use realloc_multi::*;
}
/// Baseline schedulers (re-export of `realloc-baselines`).
pub mod baselines {
    pub use realloc_baselines::*;
}
/// Workload generators (re-export of `realloc-workloads`).
pub mod workloads {
    pub use realloc_workloads::*;
}
/// Metrics, tracing, and exposition (re-export of `realloc-telemetry`).
pub mod telemetry {
    pub use realloc_telemetry::*;
}
/// The sharded, batched scheduling service (re-export of `realloc-engine`).
pub mod engine {
    pub use realloc_engine::*;
}
/// Journal-shipping replication (re-export of `realloc-cluster`).
pub mod cluster {
    pub use realloc_cluster::*;
}
/// Client-facing serving tier with QoS (re-export of `realloc-service`).
pub mod service {
    pub use realloc_service::*;
}
/// Crash-durable on-disk store (re-export of `realloc-store`).
pub mod store {
    pub use realloc_store::*;
}
/// Simulation harness (re-export of `realloc-sim`).
pub mod sim {
    pub use realloc_sim::*;
}

pub use realloc_cluster::{
    ApplyError, ClusterError, Frame, FrameSink, GroupError, JournalRelay, Payload, Replica,
    ReplicationGroup, TransportError,
};
pub use realloc_core::router::Router;
pub use realloc_core::{
    log_star, CostMeter, Error, Job, JobId, Move, Placement, Reallocator, Request, RequestOutcome,
    RequestSeq, Restorable, ScheduleSnapshot, SingleMachineReallocator, SlotMove, Tower, Window,
};
pub use realloc_engine::{
    BackendKind, CommitLog, CommitTicket, DurabilitySink, Engine, EngineConfig, EpochRecord,
    Journal, JournalCursor, JournalRecord, Metrics, RecoverError, ReplayError, ResizeError,
    ResizeReport, TenantId,
};
pub use realloc_multi::{ReallocatingScheduler, TheoremOneScheduler};
pub use realloc_reservation::{DeamortizedScheduler, ReservationScheduler, TrimmedScheduler};
pub use realloc_service::{QosConfig, RateLimit, ServiceConfig, ServiceServer};
pub use realloc_store::{
    DurableStore, FaultIo, FlightRecorder, FsIo, MemIo, RecoverFromDir, StoreError, StoreIo,
};
pub use realloc_telemetry::{
    fetch_metrics, fetch_trace, labeled, parse_sample, Clock, Collector, CollectorConfig,
    FleetSnapshot, HealthCheck, NodeRole, NodeSpec, NodeStatus, ObsClient, ObsServer, Severity,
    Telemetry, TraceCtx,
};
