//! Batch ingestion reports.
//!
//! A *batch* is everything submitted between two [`crate::Engine::flush`]
//! calls. The flush drains every shard queue and returns one [`BatchReport`]
//! summarizing what each shard did, so callers can meter throughput and
//! spot rejected requests without walking the journal.

use crate::journal::ErrCode;
use crate::shard::ShardDrain;
use realloc_core::Request;

/// Per-shard slice of a [`BatchReport`].
#[derive(Clone, Debug, Default)]
pub struct ShardBatchStats {
    /// Shard index.
    pub shard: usize,
    /// Requests serviced successfully in this batch.
    pub processed: usize,
    /// Requests rejected in this batch.
    pub failed: usize,
    /// Reallocations performed in this batch.
    pub reallocations: u64,
    /// Migrations performed in this batch.
    pub migrations: u64,
}

/// What one [`crate::Engine::flush`] did.
#[derive(Clone, Debug, Default)]
pub struct BatchReport {
    /// Batch sequence number (0-based flush counter).
    pub batch: u64,
    /// Per-shard statistics, indexed by shard id.
    pub per_shard: Vec<ShardBatchStats>,
    /// Every rejected request with its shard and error code.
    pub failures: Vec<(usize, Request, ErrCode)>,
}

impl BatchReport {
    /// Assembles the report from the shards' own per-drain tallies (in
    /// shard order) — nothing is recounted here.
    pub(crate) fn from_drains(batch: u64, drains: Vec<ShardDrain>) -> BatchReport {
        let mut report = BatchReport {
            batch,
            per_shard: Vec::with_capacity(drains.len()),
            failures: Vec::new(),
        };
        for drain in drains {
            let shard = drain.stats.shard;
            report.per_shard.push(drain.stats);
            report
                .failures
                .extend(drain.failures.into_iter().map(|(r, c)| (shard, r, c)));
        }
        report
    }

    /// Requests serviced successfully across all shards.
    pub fn processed(&self) -> usize {
        self.per_shard.iter().map(|s| s.processed).sum()
    }

    /// Requests rejected across all shards.
    pub fn failed(&self) -> usize {
        self.per_shard.iter().map(|s| s.failed).sum()
    }

    /// Reallocations performed across all shards.
    pub fn reallocations(&self) -> u64 {
        self.per_shard.iter().map(|s| s.reallocations).sum()
    }

    /// Migrations performed across all shards.
    pub fn migrations(&self) -> u64 {
        self.per_shard.iter().map(|s| s.migrations).sum()
    }
}
