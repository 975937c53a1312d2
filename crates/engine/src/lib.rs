//! # realloc-engine
//!
//! A sharded, batched scheduling *service* over the SPAA'13 reallocation
//! schedulers — the serving layer that turns the algorithm crates into a
//! system:
//!
//! * **Sharding** — requests are routed across `S` independent shards by
//!   a stable hash of the (tenant-resolved) job id ([`Engine::shard_of`]).
//!   Each shard owns one full scheduler ([`backend`]): a machine group
//!   driven through the §3/§5 wrapper. Shards share no state; the engine
//!   holds them by value and a flush drains them one after another
//!   ([`shard`]).
//! * **Batching** — [`Engine::submit`] only enqueues (per-shard FIFO
//!   queues); [`Engine::flush`] services everything queued and returns a
//!   [`batch::BatchReport`]. Rejected requests are reported, never fatal:
//!   a multi-tenant service keeps serving the rest of the stream.
//! * **Multi-tenancy** — [`Engine::submit_for`] namespaces each tenant's
//!   job ids into disjoint ranges of the global id space, so tenants
//!   cannot collide (or address each other's jobs) as long as untrusted
//!   callers are only ever handed `submit_for`; the raw [`Engine::submit`]
//!   interface spans the whole id space and is for trusted embedders and
//!   journal replay.
//! * **Telemetry** — per-shard [`metrics::Tally`]s aggregate into a
//!   [`metrics::Metrics`] snapshot: totals, per-request
//!   reallocation-cost p50/p95/p99, and router balance.
//! * **Durability** — an optional segmented journal ([`journal::Journal`])
//!   records every request and its netted outcome; [`Engine::checkpoint`]
//!   snapshots the full engine state (every layer implements
//!   [`realloc_core::Restorable`]) into the journal and truncates sealed
//!   segments beyond [`EngineConfig::retained_segments`], so
//!   [`Engine::recover`] rebuilds the exact pre-crash engine from the
//!   latest checkpoint plus the journal *tail* — O(tail), not
//!   O(history) — while [`journal::Journal::replay`] keeps the full
//!   audit path with divergence detection. Shard/engine migration is
//!   "snapshot, ship, restore" ([`Engine::restore_snapshot`]).
//! * **Elasticity** — a hot engine grows and shrinks **online**:
//!   [`Engine::resize`] snapshot-ships every affected job onto a freshly
//!   routed shard set without dropping queued requests or zeroing
//!   telemetry, and [`Engine::rebalance`] isolates a dominant tenant
//!   onto a dedicated shard. The router is epoch-versioned
//!   ([`realloc_core::router::Router`]); every resize appends an epoch
//!   record to the journal (v3 framing), so replay and recovery
//!   re-apply the same routing changes at the same positions and land
//!   on byte-identical placements.
//!
//! # Quickstart
//!
//! ```
//! use realloc_engine::{BackendKind, Engine, EngineConfig};
//! use realloc_core::{JobId, Request, Window};
//!
//! let mut engine = Engine::new(EngineConfig {
//!     shards: 4,
//!     backend: BackendKind::TheoremOne { gamma: 8 },
//!     ..EngineConfig::default()
//! });
//!
//! for i in 0..64u64 {
//!     engine.submit(Request::Insert {
//!         id: JobId(i),
//!         window: Window::new(0, 1 << 10),
//!     });
//! }
//! let report = engine.flush();
//! assert_eq!(report.processed(), 64);
//! assert_eq!(engine.active_count(), 64);
//!
//! let m = engine.metrics();
//! assert_eq!(m.requests, 64);
//! assert!(m.shards.iter().all(|s| s.active_jobs > 0), "all shards used");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod batch;
pub mod journal;
pub mod metrics;
mod recover;
mod reshard;
mod serve;
pub mod shard;
mod tele;

pub use backend::{Backend, BackendKind};
pub use batch::BatchReport;
pub use journal::{
    Checkpoint, EpochRecord, Journal, JournalCursor, JournalEvent, JournalRecord, ReplayDivergence,
    ReplayError,
};
pub use metrics::{Metrics, Tally};
pub use realloc_core::router::Router as EngineRouter;
pub use recover::RecoverError;
pub use reshard::{ResizeError, ResizeReport};
pub use serve::{CommitLog, CommitTicket, DurabilitySink};

use crate::journal::Costs;
use crate::shard::Shard;
use crate::tele::EngineTele;
use realloc_core::cost::Placement;
use realloc_core::router::{tenant_of, Router};
use realloc_core::{Error, JobId, ValidationError, Window};
use realloc_telemetry::{Telemetry, TraceCtx};
use std::collections::BTreeMap;

/// A tenant namespace. Each tenant's external job ids live in a disjoint
/// slice of the global [`JobId`] space (see [`Engine::submit_for`]).
///
/// `TenantId(0)` is **reserved**: its slice coincides with the low ids of
/// the direct [`Engine::submit`] space, so handing it to `submit_for`
/// would let a "tenant" address direct submitters' jobs. `submit_for`
/// rejects it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u16);

/// Bits of the global job-id space reserved for the external id; the
/// tenant id occupies the bits above. (Defined in `realloc_core::router`
/// so routing tables can pin tenants without depending on this crate.)
pub use realloc_core::router::TENANT_SHIFT;

/// How a caller wants its queued requests serviced — the argument of
/// the one flush door, [`Engine::flush_mode`], so a front-end's policy
/// choice lives in configuration rather than in its call sites.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FlushMode {
    /// Drain now, report every outcome: never fails, never a ticket
    /// ([`Engine::flush`] is the shorthand).
    #[default]
    Immediate,
    /// Drain now and **stage** the batch in the attached durable sink —
    /// for callers that guard the engine with a lock they do not want
    /// held across the disk wait. The batch is tee'd to the sink and the
    /// commit comes back as a [`CommitTicket`] to wait on *after*
    /// unlocking; the batch is durable — and may be reported to anyone —
    /// only once that wait returned `Ok` (on `Err` the caller owes the
    /// engine an [`Engine::note_durability_failure`]). No ticket means
    /// nothing is left to wait for: nothing is pending in the sink's
    /// [`CommitLog`], or the sink has none and was committed inline
    /// ([`DurabilitySink::sync`]). The only mode that can fail: no sink
    /// attached, a sticky earlier failure, or an inline commit's own
    /// error — the in-memory flush still happened.
    /// [`Engine::flush_durable`] is stage + wait in one call.
    Durable,
}

/// Engine configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of independent shards (`>= 1`).
    pub shards: usize,
    /// Machines per shard backend.
    pub machines_per_shard: usize,
    /// Scheduler each shard runs.
    pub backend: BackendKind,
    /// Accepted and ignored: nothing reads it. Kept only until the
    /// benchmark's `EngineConfig` literal stops naming it.
    pub parallel: bool,
    /// Record every serviced request into an in-memory [`Journal`].
    pub journal: bool,
    /// How many **sealed** journal segments to retain after a
    /// checkpoint (the open tail is always kept). Each
    /// [`Engine::checkpoint`] seals the current segment; once a
    /// checkpoint exists, older segments are redundant for recovery, so
    /// anything beyond this cap is dropped — bounding the journal's
    /// memory instead of growing without bound from genesis. `0` keeps
    /// only the latest checkpoint plus the tail (minimum-footprint
    /// recovery); larger values keep audit/replay depth.
    pub retained_segments: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 4,
            machines_per_shard: 1,
            backend: BackendKind::TheoremOne { gamma: 8 },
            parallel: false,
            journal: false,
            retained_segments: 4,
        }
    }
}

/// The sharded, batched scheduling service. See the crate docs.
pub struct Engine {
    cfg: EngineConfig,
    /// Versioned routing table; `cfg.shards` always equals
    /// `router.shards()` (both track the *current* size after resizes).
    router: Router,
    shards: Vec<Shard>,
    /// Telemetry inherited from shards retired by resizes.
    carry: Tally,
    journal: Option<Journal>,
    batches: u64,
    /// Optional durable tee under the journal
    /// ([`Engine::attach_durability`]). Runtime-only, like telemetry:
    /// never part of snapshots.
    sink: Option<Box<dyn DurabilitySink>>,
    /// First sink failure, sticky: teeing stops, serving continues, and
    /// [`Engine::flush_durable`] keeps failing until a fresh sink is
    /// attached.
    durability_error: Option<String>,
    /// Resolved observability instruments, present iff
    /// [`Engine::attach_telemetry`] was given an enabled registry.
    /// Runtime-only: excluded from snapshots so replication digests stay
    /// a pure function of the replayed event stream.
    tele: Option<Box<EngineTele>>,
    /// Causal trace context for the *next* serviced flush (set by
    /// [`Engine::arm_trace`]). Runtime metadata only: it tags
    /// trace-ring events and replication-frame annotations, never
    /// journal text or digested state.
    pending_trace: Option<TraceCtx>,
    /// Trace contexts of recently serviced batches, by batch number
    /// (bounded to the newest [`FLUSH_TRACE_WINDOW`]): lets replication
    /// stamping and the durable-fsync span look a batch's trace back up
    /// after the flush consumed `pending_trace`.
    flush_traces: BTreeMap<u64, TraceCtx>,
}

/// `Engine: Send`, checked at compile time: the service tier shares one
/// engine as `Arc<Mutex<Engine>>`.
const _: fn() = || {
    fn is_send<T: Send>() {}
    is_send::<Engine>();
};

/// How many recent batches keep their trace context for lookup by
/// [`Engine::trace_of_batch`].
const FLUSH_TRACE_WINDOW: usize = 16;

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.cfg)
            .field("batches", &self.batches)
            .field("queued", &self.queued())
            .field("active", &self.active_count())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Builds an engine: `cfg.shards` shards, each running a fresh
    /// `cfg.backend` on `cfg.machines_per_shard` machines.
    pub fn new(cfg: EngineConfig) -> Self {
        assert!(cfg.shards >= 1, "engine needs at least one shard");
        assert!(
            cfg.machines_per_shard >= 1,
            "shards need at least one machine"
        );
        let shards = (0..cfg.shards)
            .map(|i| Shard::new(i, cfg.backend, cfg.machines_per_shard))
            .collect();
        let router = Router::new(cfg.shards);
        Self::assemble(cfg, router, shards, Tally::default(), 0)
    }

    /// Puts an engine together from its persistent parts — shared by
    /// [`Engine::new`] and snapshot restore, so runtime-only state (sink,
    /// telemetry, traces) starts out the same way on both. A journaled
    /// engine gets a fresh journal ([`Engine::fresh_journal`]).
    fn assemble(
        cfg: EngineConfig,
        router: Router,
        shards: Vec<Shard>,
        carry: Tally,
        batches: u64,
    ) -> Engine {
        Engine {
            journal: cfg.journal.then(|| Self::fresh_journal(&cfg, &router)),
            cfg,
            router,
            shards,
            carry,
            batches,
            sink: None,
            durability_error: None,
            tele: None,
            pending_trace: None,
            flush_traces: BTreeMap::new(),
        }
    }

    /// A fresh, empty journal for an engine at `router`. Past epoch 0 it
    /// is seeded with an epoch record at position zero, so the recording
    /// is self-describing: its replay starts at the journal header's
    /// shard count and immediately applies the live routing table (a
    /// no-op re-home of an empty genesis engine).
    fn fresh_journal(cfg: &EngineConfig, router: &Router) -> Journal {
        let mut journal = Journal::new(EngineConfig {
            journal: true,
            ..cfg.clone()
        });
        if !router.is_genesis() {
            journal.append_epoch(EpochRecord::of(router));
        }
        journal
    }

    /// Attaches a telemetry registry: resolves every engine instrument
    /// once (hot paths never touch the registry's name map again) and
    /// shows the engine's scheduling state in it at once — lifetime
    /// totals, cost percentiles, active jobs, epoch and shard count, the
    /// numbers [`Engine::metrics`] reports — so a registry attached to a
    /// restored or recovered engine shows its history. From then on the
    /// registry is refreshed after every flush and every resize.
    /// Attaching [`realloc_telemetry::disabled`] (or any disabled handle)
    /// detaches — the engine reverts to zero-overhead uninstrumented
    /// paths.
    ///
    /// Telemetry state is **not** part of engine snapshots — the
    /// scheduling numbers are (the [`Tally`] lines), so continuity across
    /// restarts comes from the snapshot and this call; restore/recovery
    /// paths start uninstrumented and embedders re-attach.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.tele = EngineTele::build(telemetry);
        if let Some(tele) = &self.tele {
            tele.publish(self);
        }
    }

    /// Everything the engine has serviced: the resize carryover plus
    /// every live shard's tally — the one union [`Engine::metrics`],
    /// [`Engine::total_costs`] and the registry read.
    fn lifetime(&self) -> Tally {
        let mut lifetime = self.carry.clone();
        for shard in &self.shards {
            lifetime.absorb(shard.tally());
        }
        lifetime
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The shard a job id routes to — a pure function of the id and the
    /// current routing table ([`Router`]: FNV-1a hash over the unpinned
    /// shards, tenant pins honored first), so routing is deterministic,
    /// stable across engine instances at the same epoch, and maps a
    /// job's delete to the shard that serviced its insert. Resizes swap
    /// the table ([`Engine::resize`]) and physically re-home every
    /// affected job, so the invariant holds across epochs too.
    pub fn shard_of(&self, id: JobId) -> usize {
        self.router.route(id)
    }

    /// The current routing table.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The current routing epoch (0 until the first resize/rebalance).
    pub fn epoch(&self) -> u64 {
        self.router.epoch()
    }

    /// Original window of a tenant's active job, addressed by its
    /// **external** id — the read-side companion of
    /// [`Engine::submit_for`], confined to the tenant's own slice of the
    /// id space exactly like the write path.
    pub fn window_of_for(
        &self,
        tenant: TenantId,
        external: JobId,
    ) -> Result<Option<Window>, Error> {
        let global = Self::global_id_of(tenant, external)?;
        Ok(self.window_of(global))
    }

    /// Jobs currently scheduled for one tenant, across all shards (the
    /// per-tenant slice of [`Engine::active_count`]; used by serving
    /// front-ends to report tenant occupancy).
    pub fn active_count_for(&self, tenant: TenantId) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.active_jobs()
                    .iter()
                    .filter(|(id, _)| tenant_of(*id) == tenant.0 as u64)
                    .count()
            })
            .sum()
    }

    /// Requests queued across all shards, waiting for the next flush.
    pub fn queued(&self) -> usize {
        self.shards.iter().map(Shard::queued).sum()
    }

    /// Jobs currently scheduled, across all shards.
    pub fn active_count(&self) -> usize {
        self.shards.iter().map(Shard::active_count).sum()
    }

    /// Original window of an active job (on whichever shard holds it).
    pub fn window_of(&self, id: JobId) -> Option<Window> {
        self.shards[self.router.route(id)].window_of(id)
    }

    /// Completed flushes.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Point-in-time telemetry snapshot. Lifetime totals include shards
    /// retired by resizes (the carryover); per-shard rows are live
    /// shards only.
    pub fn metrics(&self) -> Metrics {
        Metrics::collect(&self.shards, self.lifetime(), self.router.epoch())
    }

    /// The journal, when enabled in the config.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Every active job's `(shard, machine, slot)` placement, sorted by
    /// job id — the global schedule view used by equivalence tests and
    /// debugging tools.
    pub fn placements(&self) -> Vec<(JobId, usize, Placement)> {
        let mut out: Vec<(JobId, usize, Placement)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.snapshot()
                    .iter()
                    .map(|(id, p)| (id, s.id(), p))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_by_key(|&(id, _, _)| id);
        out
    }

    /// Total netted costs serviced across shards (journal-free view of
    /// the headline numbers), resize carryover included.
    pub fn total_costs(&self) -> Costs {
        let Tally {
            reallocations,
            migrations,
            ..
        } = self.lifetime();
        Costs {
            reallocations,
            migrations,
        }
    }

    /// Full engine invariant check: every shard's schedule validates
    /// against its active windows (placements in-window, no collisions,
    /// machines in range — [`realloc_core::schedule::validate`]) and
    /// every active job routes to the shard that holds it under the
    /// current table. The post-condition of every flush and every resize.
    pub fn validate(&self) -> Result<(), String> {
        for (i, shard) in self.shards.iter().enumerate() {
            let active: BTreeMap<JobId, Window> = shard.active_jobs().into_iter().collect();
            realloc_core::schedule::validate(
                &shard.snapshot(),
                &active,
                self.cfg.machines_per_shard,
            )
            .map_err(|e: ValidationError| format!("shard {i}: {e}"))?;
            for &id in active.keys() {
                let routed = self.router.route(id);
                if routed != i {
                    return Err(format!(
                        "job {id} lives on shard {i} but routes to {routed} at epoch {}",
                        self.router.epoch()
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realloc_core::{Request, Window};

    fn engine(shards: usize) -> Engine {
        Engine::new(EngineConfig {
            shards,
            journal: true,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn submit_routes_deletes_to_the_inserting_shard() {
        let mut e = engine(8);
        for i in 0..200u64 {
            e.submit(Request::Insert {
                id: JobId(i),
                window: Window::new(0, 1 << 12),
            });
        }
        assert_eq!(e.queued(), 200);
        let report = e.flush();
        assert_eq!(report.processed(), 200);
        assert_eq!(report.failed(), 0);
        for i in 0..200u64 {
            e.submit(Request::Delete { id: JobId(i) });
        }
        let report = e.flush();
        assert_eq!(report.processed(), 200, "failures: {:?}", report.failures);
        assert_eq!(e.active_count(), 0);
    }

    #[test]
    fn tenants_are_namespaced() {
        let mut e = engine(4);
        let w = Window::new(0, 64);
        let a = e
            .submit_for(
                TenantId(1),
                Request::Insert {
                    id: JobId(7),
                    window: w,
                },
            )
            .unwrap();
        let b = e
            .submit_for(
                TenantId(2),
                Request::Insert {
                    id: JobId(7),
                    window: w,
                },
            )
            .unwrap();
        assert_ne!(a, b, "same external id, different tenants");
        let report = e.flush();
        assert_eq!(report.processed(), 2);
        assert_eq!(e.active_count(), 2);
        // Oversized external ids are rejected up front.
        let big = JobId(1 << TENANT_SHIFT);
        assert!(e
            .submit_for(TenantId(1), Request::Delete { id: big })
            .is_err());
        // The reserved tenant 0 (aliasing the direct submit() space) too.
        assert!(e
            .submit_for(TenantId(0), Request::Delete { id: JobId(7) })
            .is_err());
    }

    #[test]
    fn metrics_aggregate_shard_rows() {
        let mut e = engine(4);
        for i in 0..128u64 {
            e.submit(Request::Insert {
                id: JobId(i),
                window: Window::new(0, 1 << 10),
            });
        }
        e.flush();
        let m = e.metrics();
        assert_eq!(m.requests, 128);
        assert_eq!(m.active_jobs, 128);
        assert_eq!(m.shards.len(), 4);
        assert_eq!(m.shards.iter().map(|s| s.requests).sum::<u64>(), 128);
        assert!(
            m.imbalance() < 2.0,
            "router is badly skewed: {}",
            m.imbalance()
        );
    }
}
