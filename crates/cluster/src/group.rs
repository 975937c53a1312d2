//! Quorum group commit: one [`JournalRelay`] fanned out over N
//! [`FrameSink`]s, acknowledged to the client once ≥ quorum replicas
//! have cumulatively acked.
//!
//! The group separates *shipping* from *committing*, riding the
//! pipelined links:
//!
//! * [`ReplicationGroup::ship`] polls the relay for what the shared
//!   engine ([`ReplicationGroup::engine`]) recorded since — flushes,
//!   resizes, checkpoint markers — and broadcasts the frames down every
//!   link **without waiting** — each
//!   link keeps its own window of unacked frames in flight, and a link
//!   that errors is simply left lagging (its failure is remembered for
//!   the next commit to weigh).
//! * [`ReplicationGroup::commit`] is the client acknowledgement point:
//!   it returns once at least `quorum` links have cumulatively acked
//!   everything shipped, draining laggards (each bounded by its own
//!   drain timeout) and attempting [`ReplicationGroup::repair`] on
//!   links whose connection dropped mid-stream. If fewer than `quorum`
//!   replicas can be brought to the commit point the typed
//!   [`GroupError::QuorumLost`] reports how close it got — the caller
//!   decides between retrying, shedding a replica, or failing over.
//! * [`ReplicationGroup::committed_seq`] is the group's durability
//!   floor: the `quorum`-th highest acked sequence — every frame at or
//!   below it is applied on at least `quorum` replicas, so a failover
//!   that promotes the most-caught-up replica never loses a committed
//!   event.
//!
//! Pipelined group commit: because shipping and committing are split,
//! an embedder can overlap the primary's next batch with the replicas'
//! application of the previous one — flush and ship batch *i*, then
//! commit through batch *i − 1* — turning the classic group-commit latency
//! trade into nearly free throughput (`examples/quorum_cluster.rs`
//! drives three TCP replicas this way).

use crate::frame::Frame;
use crate::relay::JournalRelay;
use crate::tele::GroupTele;
use crate::transport::{FrameSink, TransportError};
use crate::ClusterError;
use realloc_engine::Engine;
use realloc_telemetry::{Severity, Telemetry, TraceCtx};
use std::sync::{Arc, Mutex};

/// Why a quorum operation failed.
#[derive(Debug)]
pub enum GroupError {
    /// The group could not be constructed (zero quorum).
    BadQuorum,
    /// Fewer than `needed` replicas reached the commit point.
    QuorumLost {
        /// The configured quorum.
        needed: usize,
        /// Replicas that had acked through the commit sequence.
        acked: usize,
        /// The last per-link failure observed while trying, if any.
        last_error: Option<String>,
    },
    /// The relay could not cut a joiner its bootstrap (the shared
    /// engine has queued requests: flush and ship first).
    Bootstrap(ClusterError),
    /// A joiner's or a repaired link failed to take its frames.
    Transport(TransportError),
}

impl std::fmt::Display for GroupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroupError::BadQuorum => write!(f, "quorum must be at least 1"),
            GroupError::QuorumLost {
                needed,
                acked,
                last_error,
            } => {
                write!(f, "quorum lost: {acked}/{needed} replicas at commit point")?;
                if let Some(e) = last_error {
                    write!(f, " (last error: {e})")?;
                }
                Ok(())
            }
            GroupError::Bootstrap(e) => write!(f, "bootstrap failed: {e}"),
            GroupError::Transport(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for GroupError {}

impl From<ClusterError> for GroupError {
    fn from(e: ClusterError) -> Self {
        GroupError::Bootstrap(e)
    }
}

impl From<TransportError> for GroupError {
    fn from(e: TransportError) -> Self {
        GroupError::Transport(e)
    }
}

/// A [`JournalRelay`] replicating to N sinks with quorum group commit;
/// see the module docs.
#[derive(Debug)]
pub struct ReplicationGroup {
    relay: JournalRelay,
    links: Vec<Box<dyn FrameSink + Send>>,
    quorum: usize,
    /// Last failure per link (index-aligned), cleared on success —
    /// commit reports the freshest one when the quorum is missed.
    last_errors: Vec<Option<String>>,
    /// The newest traced frame shipped but not yet quorum-acked:
    /// `(seq, ctx)`. Commit emits a `quorum_ack` trace point once the
    /// committed floor covers it, closing the causal chain that started
    /// at the service tier. Runtime metadata only — never digested.
    pending_commit_trace: Option<(u64, TraceCtx)>,
    tele: Option<Box<GroupTele>>,
}

impl std::fmt::Debug for dyn FrameSink + Send {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FrameSink(acked={:?}, in_flight={})",
            self.acked_seq(),
            self.in_flight()
        )
    }
}

impl ReplicationGroup {
    /// Wraps `relay` with a quorum requirement (how many replicas
    /// must ack before [`ReplicationGroup::commit`] succeeds). A quorum
    /// of 0 is rejected — commit would mean nothing.
    pub fn new(relay: JournalRelay, quorum: usize) -> Result<ReplicationGroup, GroupError> {
        if quorum == 0 {
            return Err(GroupError::BadQuorum);
        }
        Ok(ReplicationGroup {
            relay,
            links: Vec::new(),
            quorum,
            last_errors: Vec::new(),
            pending_commit_trace: None,
            tele: None,
        })
    }

    /// The configured quorum.
    pub fn quorum(&self) -> usize {
        self.quorum
    }

    /// Attached replica links.
    pub fn replicas(&self) -> usize {
        self.links.len()
    }

    /// The shared engine: lock it to submit, flush, resize or
    /// checkpoint, then [`ReplicationGroup::ship`] what it recorded.
    pub fn engine(&self) -> &Arc<Mutex<Engine>> {
        self.relay.engine()
    }

    /// Consumes the group, handing back the relay and its links.
    #[allow(clippy::type_complexity)]
    pub fn into_parts(self) -> (JournalRelay, Vec<Box<dyn FrameSink + Send>>) {
        (self.relay, self.links)
    }

    /// Attaches group-commit instruments (`cluster_group_*`) and the
    /// relay's streaming set. The engine's own instruments are its
    /// owner's to attach ([`Engine::attach_telemetry`]); attach
    /// per-link telemetry on each [`crate::tcp::PrimaryLink`] *before*
    /// boxing it into the group.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.relay.attach_telemetry(telemetry);
        self.tele = GroupTele::build(telemetry);
    }

    /// Adds a replica behind `sink`: broadcasts anything the existing
    /// stream is still owed, then ships the joiner its bootstrap
    /// snapshot and the catch-up tail behind it. The joiner's frames
    /// are pipelined — the next [`ReplicationGroup::commit`] confirms
    /// arrival. Fails with [`GroupError::Bootstrap`] while the engine
    /// has queued requests.
    pub fn add_replica(&mut self, mut sink: Box<dyn FrameSink + Send>) -> Result<(), GroupError> {
        for frame in &self.bootstrap()? {
            sink.send(frame)?;
        }
        self.links.push(sink);
        self.last_errors.push(None);
        Ok(())
    }

    /// Polls the relay and broadcasts what the engine recorded since
    /// the last ship down every link without waiting for acks. Returns
    /// the highest sequence shipped so far — the commit target for
    /// [`ReplicationGroup::commit_through`].
    pub fn ship(&mut self) -> u64 {
        let frames = self.relay.poll();
        self.note_traced(&frames);
        self.broadcast(&frames);
        self.shipped_seq()
    }

    /// Remembers the newest traced frame in `frames` so the next
    /// successful commit can emit its `quorum_ack` span point.
    fn note_traced(&mut self, frames: &[Frame]) {
        if let Some(f) = frames.iter().rev().find(|f| f.trace.is_some()) {
            self.pending_commit_trace = f.trace.map(|tc| (f.seq, tc));
        }
    }

    /// The highest stream sequence shipped so far (0 before any frame).
    pub fn shipped_seq(&self) -> u64 {
        self.relay.next_seq() - 1
    }

    /// The group's durability floor: the `quorum`-th highest
    /// cumulatively acked sequence across the links (0 when fewer than
    /// `quorum` links have acked anything). Every frame at or below it
    /// is applied on at least `quorum` replicas.
    pub fn committed_seq(&self) -> u64 {
        let mut acked: Vec<u64> = self
            .links
            .iter()
            .map(|l| l.acked_seq().unwrap_or(0))
            .collect();
        if acked.len() < self.quorum {
            return 0;
        }
        acked.sort_unstable_by(|a, b| b.cmp(a));
        acked[self.quorum - 1]
    }

    /// The client acknowledgement point: returns once ≥ quorum links
    /// have cumulatively acked everything shipped. See
    /// [`ReplicationGroup::commit_through`].
    pub fn commit(&mut self) -> Result<u64, GroupError> {
        self.commit_through(self.shipped_seq())
    }

    /// Waits until at least `quorum` links have acked through `seq`:
    /// first a free pass over already-arrived acks, then draining
    /// laggards only as far as the commit point ([`FrameSink::drain_to`],
    /// each bounded by its own drain timeout), then one
    /// [`ReplicationGroup::repair`] attempt per still-short link.
    /// Returns the group's committed floor on success. On failure the
    /// typed [`GroupError::QuorumLost`] carries how many replicas made
    /// it and the freshest per-link error.
    pub fn commit_through(&mut self, seq: u64) -> Result<u64, GroupError> {
        let t0 = self.tele.as_ref().map(|t| t.t.now_nanos());
        let result = self.commit_inner(seq);
        if let Some(tele) = &self.tele {
            let took = tele
                .t
                .now_nanos()
                .saturating_sub(t0.expect("stamped above"));
            tele.commit_wait_nanos.record(took);
            match &result {
                Ok(committed) => {
                    tele.commits.inc();
                    tele.committed_seq.set(*committed);
                    if let Some((traced_seq, tc)) = self.pending_commit_trace {
                        if traced_seq <= *committed {
                            tele.t
                                .point_in(tc, Severity::Info, "quorum_ack", traced_seq, took);
                            self.pending_commit_trace = None;
                        }
                    }
                }
                Err(GroupError::QuorumLost { needed, acked, .. }) => {
                    tele.quorum_failures.inc();
                    tele.t
                        .incident("quorum_lost", *needed as u64, *acked as u64);
                }
                Err(_) => tele.quorum_failures.inc(),
            }
        }
        result
    }

    fn commit_inner(&mut self, seq: u64) -> Result<u64, GroupError> {
        fn at_target(link: &(dyn FrameSink + Send), seq: u64) -> bool {
            link.acked_seq().unwrap_or(0) >= seq
        }
        // Pass 1: acks that already arrived (pipelining win: often all).
        let mut reached = self
            .links
            .iter()
            .filter(|l| at_target(l.as_ref(), seq))
            .count();
        if reached >= self.quorum {
            return Ok(self.committed_seq());
        }
        // Pass 2: drain laggards — but only *to the commit point*. A
        // full drain would also wait for the batch shipped after `seq`,
        // destroying the ship-batch-i / commit-batch-i−1 overlap that
        // pipelined group commit exists for.
        for i in 0..self.links.len() {
            if reached >= self.quorum {
                break;
            }
            if at_target(self.links[i].as_ref(), seq) {
                continue;
            }
            match self.links[i].drain_to(seq) {
                Ok(_) => self.last_errors[i] = None,
                Err(e) => self.last_errors[i] = Some(e.to_string()),
            }
            if at_target(self.links[i].as_ref(), seq) {
                reached += 1;
            }
        }
        // Pass 3: links whose connection dropped mid-stream lost their
        // in-flight frames — re-ship from the last cumulative ack.
        for i in 0..self.links.len() {
            if reached >= self.quorum {
                break;
            }
            if at_target(self.links[i].as_ref(), seq) {
                continue;
            }
            match self.repair_link(i) {
                Ok(()) => self.last_errors[i] = None,
                Err(e) => self.last_errors[i] = Some(e.to_string()),
            }
            if at_target(self.links[i].as_ref(), seq) {
                reached += 1;
            }
        }
        if reached >= self.quorum {
            Ok(self.committed_seq())
        } else {
            Err(GroupError::QuorumLost {
                needed: self.quorum,
                acked: reached,
                last_error: self.last_errors.iter().rev().find_map(|e| e.clone()),
            })
        }
    }

    /// Brings every lagging link back to the shipped position:
    /// re-ships retained history from each link's last cumulative ack
    /// ([`JournalRelay::frames_since`]), falling back to a bootstrap
    /// when the history no longer reaches (or the resend is rejected —
    /// e.g. the replica applied frames whose acks died with the old
    /// connection). Returns the number of links repaired.
    pub fn repair(&mut self) -> usize {
        let target = self.shipped_seq();
        let mut repaired = 0;
        for i in 0..self.links.len() {
            if self.links[i].acked_seq().unwrap_or(0) >= target {
                continue;
            }
            match self.repair_link(i) {
                Ok(()) => {
                    self.last_errors[i] = None;
                    repaired += 1;
                }
                Err(e) => self.last_errors[i] = Some(e.to_string()),
            }
        }
        repaired
    }

    fn repair_link(&mut self, i: usize) -> Result<(), GroupError> {
        let from = self.links[i].acked_seq().unwrap_or(0);
        if let Some(frames) = self.relay.frames_since(from) {
            let resend = || -> Result<(), TransportError> {
                for frame in &frames {
                    self.links[i].send(frame)?;
                }
                self.links[i].drain()?;
                Ok(())
            }();
            if resend.is_ok() {
                return Ok(());
            }
            // A rejected resend usually means the replica already
            // applied past `from` (its acks died with the connection):
            // fall through to a re-anchoring bootstrap.
        }
        for frame in &self.bootstrap()? {
            self.links[i].send(frame)?;
        }
        self.links[i].drain()?;
        Ok(())
    }

    /// A joiner's frames — the bootstrap snapshot, then the catch-up
    /// tail behind it — after broadcasting what the stream is owed.
    fn bootstrap(&mut self) -> Result<Vec<Frame>, ClusterError> {
        let (owed, snapshot) = self.relay.bootstrap()?;
        self.broadcast(&owed);
        let tail = self.relay.frames_since(snapshot.seq).unwrap_or_default();
        Ok([vec![snapshot], tail].concat())
    }

    /// Ships `frames` down every link, recording (not propagating)
    /// per-link failures — the quorum decides what matters, at commit.
    fn broadcast(&mut self, frames: &[Frame]) {
        for (i, link) in self.links.iter_mut().enumerate() {
            for frame in frames {
                if let Err(e) = link.send(frame) {
                    self.last_errors[i] = Some(e.to_string());
                    break;
                }
            }
        }
    }
}
