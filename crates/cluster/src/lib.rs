//! # realloc-cluster
//!
//! Journal-shipping replication for the [`realloc_engine`] serving
//! layer: primary/replica streaming, snapshot-bootstrapped catch-up,
//! fenced failover, and read scaling — over pluggable transports,
//! including a std-only TCP transport.
//!
//! PRs 3–4 made the engine's journal replay and recovery **byte-identical
//! and content-pure**: replaying the same recorded stream lands on the
//! same placements, telemetry, and snapshot text, every time. That
//! determinism is the state-machine-replication contract, and this crate
//! cashes it in:
//!
//! * a [`Primary`] wraps a journaled [`Engine`](realloc_engine::Engine)
//!   and tails its own journal into a stream of sequence-numbered
//!   [`Frame`]s — a one-time snapshot bootstrap, then per-flush event
//!   frames, epoch (resize) frames at their exact positions, and
//!   periodic checkpoint markers carrying a state digest;
//! * a [`Replica`] applies frames through the engine's verified-replay
//!   machinery, serves read-only queries (`window_of`, `metrics`,
//!   `validate`) for read scaling, and bootstraps from the latest
//!   checkpoint in O(tail);
//! * **failover is fenced**: every frame carries the primary's term;
//!   [`Replica::promote`] bumps it, and a deposed primary's frames are
//!   rejected by everything that has heard from the new one — no
//!   acknowledged event is ever lost, no split-brain write stream;
//! * two transports: the in-process [`transport::LocalLink`] /
//!   [`transport::channel`] for tests and benches, and the
//!   length-prefixed TCP transport ([`tcp::ReplicaServer`] /
//!   [`tcp::PrimaryLink`]) with a threaded accept loop — `std::net`
//!   only, no external dependencies. The TCP link is **pipelined**: up
//!   to [`tcp::LinkConfig::window`] frames in flight, cumulative
//!   batched acks, explicit backpressure, and a bounded
//!   [`FrameSink::drain`] as the per-link commit barrier;
//! * **quorum group commit**: a [`ReplicationGroup`] fans the stream
//!   out to N links and acknowledges the client once ≥ quorum replicas
//!   have acked ([`ReplicationGroup::commit`]), with per-link repair
//!   and a committed-sequence durability floor.
//!
//! # Quickstart
//!
//! ```
//! use realloc_cluster::{Primary, Replica};
//! use realloc_core::{JobId, Request, Window};
//! use realloc_engine::{BackendKind, Engine, EngineConfig};
//!
//! let engine = Engine::new(EngineConfig {
//!     shards: 2,
//!     journal: true, // primaries must journal: the journal IS the stream
//!     ..EngineConfig::default()
//! });
//! let mut primary = Primary::new(engine, 1).unwrap();
//! let mut replica = Replica::new();
//!
//! // One-time bootstrap, then stream every flush.
//! let (_owed, boot) = primary.bootstrap();
//! for f in &boot {
//!     replica.apply(f).unwrap();
//! }
//! for i in 0..32u64 {
//!     primary.submit(Request::Insert { id: JobId(i), window: Window::new(0, 256) });
//! }
//! let (report, frames) = primary.flush();
//! assert_eq!(report.processed(), 32);
//! for f in &frames {
//!     replica.apply(f).unwrap();
//! }
//!
//! // The replica is byte-identical to the primary — reads scale out.
//! assert_eq!(replica.active_count(), 32);
//! assert_eq!(replica.state_digest(), Some(primary.engine().state_digest()));
//!
//! // Failover: promote the replica; the old primary's term is fenced.
//! let promoted = replica.promote().unwrap();
//! assert_eq!(promoted.term(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod group;
pub mod primary;
pub mod relay;
pub mod replica;
mod stream;
pub mod tcp;
mod tele;
pub mod transport;

pub use frame::{Frame, Payload, MAX_FRAME_BYTES};
pub use group::{GroupError, ReplicationGroup};
pub use primary::{Primary, DEFAULT_HISTORY_FRAMES};
pub use relay::JournalRelay;
pub use replica::{ApplyError, Replica};
pub use tcp::{LinkConfig, PrimaryLink, ReplicaServer};
pub use transport::{FrameSink, TransportError};

/// Why a cluster role could not be constructed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClusterError {
    /// Primaries must run journaled engines — the journal is the stream.
    JournalDisabled,
    /// Fencing terms start at 1.
    BadTerm,
    /// The replica has no state yet (no bootstrap snapshot applied).
    NotBootstrapped,
    /// The replica was already promoted or retired.
    Retired,
    /// A [`JournalRelay`] bootstrap was requested while the shared
    /// engine had unflushed queued requests. The relay never flushes a
    /// shared engine (the write path belongs to the serving tier), and a
    /// snapshot cut now would hand the joiner the pending queues — the
    /// events frame of the flush that later services them would be
    /// rejected. Flush, poll the relay, and bootstrap again.
    QueuedRequests,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::JournalDisabled => write!(
                f,
                "replication needs EngineConfig::journal — the journal is the stream"
            ),
            ClusterError::BadTerm => write!(f, "fencing terms start at 1"),
            ClusterError::NotBootstrapped => {
                write!(f, "replica holds no state (bootstrap it first)")
            }
            ClusterError::Retired => write!(f, "replica was already promoted/retired"),
            ClusterError::QueuedRequests => write!(
                f,
                "shared engine has queued requests — flush before bootstrapping a joiner"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}
