//! Store instrument bundle: resolved-once handles into an attached
//! [`realloc_telemetry::Telemetry`] registry.
//!
//! Naming follows the workspace scheme (`store_*`):
//!
//! * `store_fsync_nanos` — latency histogram of every `fsync` of the
//!   open segment: one sample per *real* `sync_file`, recorded by the
//!   commit's leader only (the durability tax a group of acknowledged
//!   flushes shares),
//! * `store_sync_chunks` — histogram of how many appended chunks each
//!   real `fsync` of the open segment made stable (one sample beside
//!   every `store_fsync_nanos` sample). Its median answers "is group
//!   commit grouping?": 1 means every batch pays for its own fsync,
//!   n that n busy connections share each one,
//! * `store_commits_covered_total` — commit tickets that found their
//!   records already stable when their turn came: another ticket's
//!   fsync, or a checkpoint's seal, covered them,
//! * `store_gather_hits_total` / `store_gather_timeouts_total` — how a
//!   commit leader's wait for the committers the previous fsync
//!   released ended: the chunks it expected arrived, or its cap ran out
//!   first. A leader that expects nobody (one connection, depth 1)
//!   counts in neither; a timeout share that does not fall means the
//!   arrivals are not the closed loops the wait is for,
//! * `store_bytes_written_total` / `store_records_total` — framed bytes
//!   and records appended (segments and checkpoints together),
//! * `store_checkpoints_total` — checkpoints persisted (temp + fsync +
//!   rename sequences completed),
//! * `store_segments_unlinked_total` — sealed segment files removed by
//!   retention,
//! * `store_torn_tail_truncations_total` — torn tails truncated when a
//!   store was opened over a crashed directory,
//! * `store_injected_faults_total` — counted by [`crate::FaultIo`]
//!   (test/ chaos runs only; absent in production).

use realloc_telemetry::{Counter, Histo, Telemetry};
use std::sync::Arc;

/// Write-path instruments; held by [`crate::DurableStore`] and shared
/// with its commit state.
#[derive(Debug)]
pub(crate) struct StoreTele {
    pub fsync_nanos: Histo,
    pub sync_chunks: Histo,
    pub commits_covered: Counter,
    pub gather_hits: Counter,
    pub gather_timeouts: Counter,
    pub bytes_written: Counter,
    pub records: Counter,
    pub checkpoints: Counter,
    pub segments_unlinked: Counter,
    pub torn_truncations: Counter,
}

impl StoreTele {
    /// Resolves the store's instruments; `None` for a disabled handle.
    pub fn build(t: &Telemetry) -> Option<Arc<StoreTele>> {
        if !t.is_enabled() {
            return None;
        }
        Some(Arc::new(StoreTele {
            fsync_nanos: t.histogram("store_fsync_nanos"),
            sync_chunks: t.histogram("store_sync_chunks"),
            commits_covered: t.counter("store_commits_covered_total"),
            gather_hits: t.counter("store_gather_hits_total"),
            gather_timeouts: t.counter("store_gather_timeouts_total"),
            bytes_written: t.counter("store_bytes_written_total"),
            records: t.counter("store_records_total"),
            checkpoints: t.counter("store_checkpoints_total"),
            segments_unlinked: t.counter("store_segments_unlinked_total"),
            torn_truncations: t.counter("store_torn_tail_truncations_total"),
        }))
    }
}
