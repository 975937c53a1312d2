//! Elastic resharding: online resize, tenant-aware rebalancing, and the
//! epoch-record apply path replay and replicas share.

use crate::journal::{EpochRecord, ReplayError};
use crate::shard::Shard;
use crate::Engine;
use realloc_core::router::{tenant_of, Router, RouterError};
use realloc_core::textio::ParseError;
use realloc_core::{JobId, Window};
use realloc_telemetry::Severity;
use std::collections::BTreeMap;

impl Engine {
    /// Resizes the engine to `new_shards` shards **online**: every active
    /// job is snapshot-shipped into the shard the new routing table
    /// assigns it, pending (unflushed) queue entries are re-routed
    /// without loss, telemetry totals are carried over, and — when the
    /// journal is enabled — an epoch record is appended so replay and
    /// recovery re-apply the same resize at the same position.
    ///
    /// Tenant pins that still fit the new shard range are kept; pins to
    /// shards `>= new_shards` are dropped (those tenants fall back to
    /// hash routing).
    ///
    /// The rebuild is **all-or-nothing**: jobs are re-placed into a fresh
    /// shard set in a canonical order (ascending window span, then start,
    /// then id — the order with the strongest acceptance guarantee for
    /// the reservation schedulers), and if any job cannot be placed (a
    /// shrink can concentrate load beyond a shard's capacity) the engine
    /// is left exactly as it was and [`ResizeError::Infeasible`] is
    /// returned.
    pub fn resize(&mut self, new_shards: usize) -> Result<ResizeReport, ResizeError> {
        let table = self.router.retarget(new_shards)?;
        self.reshard(table)
    }

    /// Tenant-aware rebalancing: when one tenant dominates the active set
    /// (≥ [`Engine::REBALANCE_SHARE`] of all active jobs) and is not
    /// already pinned, grows the engine by one shard and pins that
    /// tenant to it. The whale's jobs stop consuming the density budgets
    /// of every hash shard (under hash routing a heavy tenant's jobs
    /// spread everywhere, crowding other tenants toward capacity
    /// rejections), and hash traffic keeps the old shards to itself.
    ///
    /// Returns `Ok(None)` when no tenant qualifies — rebalancing is a
    /// no-op on balanced traffic, so it is safe to call periodically.
    pub fn rebalance(&mut self) -> Result<Option<ResizeReport>, ResizeError> {
        let mut per_tenant: BTreeMap<u64, usize> = BTreeMap::new();
        let mut total = 0usize;
        for shard in &self.shards {
            for (id, _) in shard.active_jobs() {
                *per_tenant.entry(tenant_of(id)).or_insert(0) += 1;
                total += 1;
            }
        }
        // Largest tenant; ties broken toward the smallest id (BTreeMap
        // iteration order + strict `>`), so the choice is deterministic.
        let Some((&whale, &count)) = per_tenant
            .iter()
            .max_by(|a, b| (a.1, std::cmp::Reverse(a.0)).cmp(&(b.1, std::cmp::Reverse(b.0))))
        else {
            return Ok(None);
        };
        if (count as f64) < Self::REBALANCE_SHARE * total as f64 {
            return Ok(None);
        }
        if self.router.pin_of(whale).is_some() {
            return Ok(None); // already isolated
        }
        let dedicated = self.router.shards();
        let table = self
            .router
            .retarget(dedicated + 1)?
            .with_pin(whale, dedicated)?;
        let report = self.reshard(table)?;
        if let Some(tele) = &mut self.tele {
            tele.rebalance_pins_total.inc();
            // A whale pin is worth surfacing: it reshapes routing for
            // everyone else.
            tele.t
                .point(Severity::Warn, "rebalance_pin", whale, dedicated as u64);
        }
        Ok(Some(report))
    }

    /// Active-set share above which [`Engine::rebalance`] isolates a
    /// tenant onto a dedicated shard.
    pub const REBALANCE_SHARE: f64 = 0.5;

    /// Adopts `table` (epoch bumped past the current one) and physically
    /// re-homes all state. See [`Engine::resize`] for the contract; this
    /// is also the replay path for journal epoch records, which is why
    /// everything here must be a pure function of the engine state and
    /// the table.
    fn reshard(&mut self, mut table: Router) -> Result<ResizeReport, ResizeError> {
        table.commit(&self.router);
        self.reshard_at(table)
    }

    /// [`Engine::reshard`] with the epoch taken from `table` verbatim
    /// (journal replay re-applies recorded epochs rather than
    /// recounting).
    fn reshard_at(&mut self, table: Router) -> Result<ResizeReport, ResizeError> {
        // Gather every active job with its current home, then re-place
        // into a fresh shard set in canonical order. The old shards stay
        // untouched until the rebuild fully succeeds.
        let mut jobs: Vec<(JobId, Window, usize)> = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            for (id, w) in shard.active_jobs() {
                jobs.push((id, w, i));
            }
        }
        jobs.sort_by_key(|&(id, w, _)| (w.span(), w.start(), id));
        let mut fresh: Vec<Shard> = (0..table.shards())
            .map(|i| Shard::new(i, self.cfg.backend, self.cfg.machines_per_shard))
            .collect();
        let mut moved = 0usize;
        for &(id, window, old_home) in &jobs {
            let home = table.route(id);
            fresh[home]
                .adopt(id, window)
                .map_err(|source| ResizeError::Infeasible {
                    job: id,
                    shard: home,
                    detail: source.to_string(),
                })?;
            if home != old_home {
                moved += 1;
            }
        }
        // Re-route pending queue entries: old shards in index order, each
        // queue FIFO. Two requests for the same job were queued on the
        // same old shard (routing is per-id), so their relative order —
        // the only order that affects outcomes — survives.
        let mut queued = 0usize;
        for shard in &mut self.shards {
            for request in shard.take_queue() {
                fresh[table.route(request.job_id())].enqueue(request);
                queued += 1;
            }
        }
        // Point of no return: retire the old shards into the carryover
        // and swap in the new set and table.
        for shard in &self.shards {
            self.carry.absorb(shard.tally());
        }
        let report = ResizeReport {
            epoch: table.epoch(),
            from_shards: self.router.shards(),
            to_shards: table.shards(),
            jobs: jobs.len(),
            jobs_moved: moved,
            queued_preserved: queued,
        };
        self.shards = fresh;
        self.cfg.shards = table.shards();
        self.router = table;
        if let Some(journal) = &mut self.journal {
            let record = EpochRecord::of(&self.router);
            journal.append_epoch(record.clone());
            self.tee(|sink, _| sink.append_epoch(&record));
        }
        // Fresh shards start uninstrumented: re-install drain handles
        // and publish the resize before returning.
        self.apply_shard_tele();
        if let Some(tele) = &mut self.tele {
            tele.resizes_total.inc();
            tele.epoch.set(report.epoch);
            tele.shards.set(report.to_shards as u64);
            tele.active_jobs.set(report.jobs as u64);
            tele.t.point(
                Severity::Info,
                "epoch",
                report.epoch,
                report.to_shards as u64,
            );
        }
        Ok(report)
    }

    /// Applies a recorded epoch record: validates that the epoch
    /// advances, rebuilds the routing table, and reshards exactly as the
    /// engine that recorded it did. This is the replication/replay apply
    /// path — journal replay and cluster replicas both re-apply resizes
    /// through it, so a stream that crosses a resize lands on
    /// byte-identical placements.
    pub fn apply_epoch_record(&mut self, record: &EpochRecord) -> Result<(), ReplayError> {
        let corrupt = |message| ReplayError::Corrupt(ParseError { line: 0, message });
        if record.epoch <= self.router.epoch() {
            return Err(corrupt(format!(
                "epoch record {} does not advance the current epoch {}",
                record.epoch,
                self.router.epoch()
            )));
        }
        let table = Router::from_parts(record.epoch, record.shards, record.pins.iter().copied())
            .map_err(|e| corrupt(e.to_string()))?;
        self.reshard_at(table).map_err(|e| corrupt(e.to_string()))?;
        Ok(())
    }
}

/// What one [`Engine::resize`] / [`Engine::rebalance`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResizeReport {
    /// The routing epoch the engine now serves at.
    pub epoch: u64,
    /// Shard count before the resize.
    pub from_shards: usize,
    /// Shard count after.
    pub to_shards: usize,
    /// Active jobs re-placed during the rebuild.
    pub jobs: usize,
    /// Jobs whose home shard actually changed.
    pub jobs_moved: usize,
    /// Pending queue entries carried across (never dropped).
    pub queued_preserved: usize,
}

/// Why a resize was refused. The engine is left exactly as it was.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResizeError {
    /// The requested routing table was invalid (zero shards, pins out of
    /// range or covering every shard).
    Router(RouterError),
    /// A job could not be re-placed on its new shard (shrinking
    /// concentrated more load than the shard's backend can hold).
    Infeasible {
        /// The job that failed to place.
        job: JobId,
        /// The shard it routed to.
        shard: usize,
        /// The backend's rejection.
        detail: String,
    },
}

impl From<RouterError> for ResizeError {
    fn from(e: RouterError) -> Self {
        ResizeError::Router(e)
    }
}

impl std::fmt::Display for ResizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResizeError::Router(e) => write!(f, "resize rejected: {e}"),
            ResizeError::Infeasible { job, shard, detail } => write!(
                f,
                "resize infeasible: job {job} does not fit shard {shard} ({detail}); \
                 engine unchanged"
            ),
        }
    }
}

impl std::error::Error for ResizeError {}
