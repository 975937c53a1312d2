//! Replication instrument bundles: resolved-once handles into an
//! attached [`realloc_telemetry::Telemetry`] registry for the primary,
//! the replica, and each primary→replica link.
//!
//! Naming follows the workspace scheme (`cluster_*` for the streaming
//! side, `cluster_replica_*` for the applying side, `cluster_link_*`
//! with a `replica="host:port"` label per link):
//!
//! * **Primary** — `cluster_term` / `cluster_next_seq` gauges, one
//!   `cluster_frames_<kind>_total` counter per shipped payload kind
//!   (`events`, `epoch`, `check`, `snapshot`), and the
//!   `cluster_bootstrap_nanos` duration of producing a joiner's
//!   bootstrap.
//! * **Replica** — `cluster_replica_term` / `cluster_replica_last_seq` /
//!   `cluster_replica_events_applied` gauges (the poller computes
//!   replication lag as the primary's `cluster_next_seq − 1` minus the
//!   replica's `cluster_replica_last_seq`),
//!   `cluster_replica_frames_{applied,rejected}_total` and
//!   `cluster_replica_term_changes_total` counters, and
//!   `cluster_replica_{apply,digest_check,bootstrap}_nanos` histograms.
//! * **Link** — `cluster_link_bytes_shipped_total`,
//!   `cluster_link_ack_rtt_nanos`, `cluster_link_acked_seq`, and
//!   `cluster_link_send_errors_total`, and
//!   `cluster_link_reconnects_total`, each labeled with the replica's
//!   address so one registry can watch a whole fan-out.
//! * **Server** — `replica_handler_poisoned_total`: connections dropped
//!   because the shared replica's lock was poisoned (a handler thread
//!   panicked mid-apply); the server degrades instead of cascading the
//!   panic.

use realloc_telemetry::{labeled, Counter, Gauge, Histo, Telemetry};

/// Streaming-side instruments; held by [`crate::JournalRelay`]'s
/// stream.
#[derive(Debug)]
pub(crate) struct PrimaryTele {
    /// The attached registry (clock + trace ring).
    pub t: Telemetry,
    pub term: Gauge,
    pub next_seq: Gauge,
    pub frames_events: Counter,
    pub frames_epoch: Counter,
    pub frames_check: Counter,
    pub frames_snapshot: Counter,
    pub bootstrap_nanos: Histo,
}

impl PrimaryTele {
    /// Resolves the primary's instruments; `None` for a disabled handle.
    pub fn build(t: &Telemetry) -> Option<Box<PrimaryTele>> {
        if !t.is_enabled() {
            return None;
        }
        Some(Box::new(PrimaryTele {
            term: t.gauge("cluster_term"),
            next_seq: t.gauge("cluster_next_seq"),
            frames_events: t.counter("cluster_frames_events_total"),
            frames_epoch: t.counter("cluster_frames_epoch_total"),
            frames_check: t.counter("cluster_frames_check_total"),
            frames_snapshot: t.counter("cluster_frames_snapshot_total"),
            bootstrap_nanos: t.histogram("cluster_bootstrap_nanos"),
            t: t.clone(),
        }))
    }
}

/// Applying-side instruments; held by [`crate::Replica`].
#[derive(Debug)]
pub(crate) struct ReplicaTele {
    /// The attached registry — also re-attached to the replicated engine
    /// after every bootstrap snapshot restore.
    pub t: Telemetry,
    pub term: Gauge,
    pub last_seq: Gauge,
    pub events_applied: Gauge,
    pub frames_applied: Counter,
    pub frames_rejected: Counter,
    pub term_changes: Counter,
    pub apply_nanos: Histo,
    pub digest_check_nanos: Histo,
    pub bootstrap_nanos: Histo,
}

impl ReplicaTele {
    /// Resolves the replica's instruments; `None` for a disabled handle.
    pub fn build(t: &Telemetry) -> Option<Box<ReplicaTele>> {
        if !t.is_enabled() {
            return None;
        }
        Some(Box::new(ReplicaTele {
            term: t.gauge("cluster_replica_term"),
            last_seq: t.gauge("cluster_replica_last_seq"),
            events_applied: t.gauge("cluster_replica_events_applied"),
            frames_applied: t.counter("cluster_replica_frames_applied_total"),
            frames_rejected: t.counter("cluster_replica_frames_rejected_total"),
            term_changes: t.counter("cluster_replica_term_changes_total"),
            apply_nanos: t.histogram("cluster_replica_apply_nanos"),
            digest_check_nanos: t.histogram("cluster_replica_digest_check_nanos"),
            bootstrap_nanos: t.histogram("cluster_replica_bootstrap_nanos"),
            t: t.clone(),
        }))
    }
}

/// Per-link instruments, labeled with the replica's address; held by
/// [`crate::tcp::PrimaryLink`]. The pipelined link adds the in-flight
/// window depth (`cluster_link_window_inflight`), the cumulative ack
/// batch size (`cluster_ack_batch_size` — frames retired per ack),
/// window-exhaustion stalls (`cluster_link_backpressure_stalls_total`),
/// and bounded-drain expiries (`cluster_link_drain_timeouts_total`).
#[derive(Debug)]
pub(crate) struct LinkTele {
    /// The attached registry (for ack RTT clock reads).
    pub t: Telemetry,
    pub bytes_shipped: Counter,
    pub ack_rtt_nanos: Histo,
    pub acked_seq: Gauge,
    pub window_inflight: Gauge,
    pub ack_batch_size: Histo,
    pub backpressure_stalls: Counter,
    pub drain_timeouts: Counter,
    pub send_errors: Counter,
    pub reconnects: Counter,
}

impl LinkTele {
    /// Resolves one link's instruments under a `replica="addr"` label;
    /// `None` for a disabled handle.
    pub fn build(t: &Telemetry, addr: &str) -> Option<Box<LinkTele>> {
        if !t.is_enabled() {
            return None;
        }
        Some(Box::new(LinkTele {
            bytes_shipped: t.counter(labeled("cluster_link_bytes_shipped_total", "replica", addr)),
            ack_rtt_nanos: t.histogram(labeled("cluster_link_ack_rtt_nanos", "replica", addr)),
            acked_seq: t.gauge(labeled("cluster_link_acked_seq", "replica", addr)),
            window_inflight: t.gauge(labeled("cluster_link_window_inflight", "replica", addr)),
            ack_batch_size: t.histogram(labeled("cluster_ack_batch_size", "replica", addr)),
            backpressure_stalls: t.counter(labeled(
                "cluster_link_backpressure_stalls_total",
                "replica",
                addr,
            )),
            drain_timeouts: t.counter(labeled(
                "cluster_link_drain_timeouts_total",
                "replica",
                addr,
            )),
            send_errors: t.counter(labeled("cluster_link_send_errors_total", "replica", addr)),
            reconnects: t.counter(labeled("cluster_link_reconnects_total", "replica", addr)),
            t: t.clone(),
        }))
    }
}

/// Group-commit instruments; held by [`crate::ReplicationGroup`].
#[derive(Debug)]
pub(crate) struct GroupTele {
    pub committed_seq: Gauge,
    pub commits: Counter,
    pub commit_wait_nanos: Histo,
    pub quorum_failures: Counter,
    /// The attached registry (for commit wait clock reads).
    pub t: Telemetry,
}

impl GroupTele {
    /// Resolves the group's instruments; `None` for a disabled handle.
    pub fn build(t: &Telemetry) -> Option<Box<GroupTele>> {
        if !t.is_enabled() {
            return None;
        }
        Some(Box::new(GroupTele {
            committed_seq: t.gauge("cluster_group_committed_seq"),
            commits: t.counter("cluster_group_commits_total"),
            commit_wait_nanos: t.histogram("cluster_group_commit_wait_nanos"),
            quorum_failures: t.counter("cluster_group_quorum_failures_total"),
            t: t.clone(),
        }))
    }
}
