//! Std-only TCP transport: length-prefixed replication frames over
//! [`std::net::TcpStream`], with a threaded accept loop on the replica
//! side and a **pipelined, cumulatively acknowledged** stream on the
//! primary side.
//!
//! # Wire protocol
//!
//! Each direction carries length-prefixed byte frames
//! ([`realloc_core::textio::write_frame`]: a `u32` big-endian byte
//! count, then that many bytes).
//!
//! * primary → replica: one [`Frame`] text document per wire frame.
//! * replica → primary: cumulative ack lines — `ok <seq>` acknowledges
//!   **everything up to and including** `seq`, and is written at most
//!   once per applied batch-of-frames rather than per frame; a
//!   rejection is reported as `err <seq> <description>` (fencing,
//!   sequence gap, corruption, divergence — `err ? <description>` when
//!   the frame did not even parse), after first acking the applied
//!   prefix.
//!
//! # Pipelining and the commit point
//!
//! [`PrimaryLink::send`] no longer waits for an ack: it keeps up to
//! [`LinkConfig::window`] frames in flight and returns as soon as the
//! frame is written (retiring any acks already on the wire without
//! blocking). `Ok` from `send` therefore means *accepted for
//! delivery* — the durability commit point is [`PrimaryLink::drain`]
//! (every in-flight frame acknowledged) or, for a fan-out, the quorum
//! barrier in [`crate::ReplicationGroup::commit`]. The replica still
//! acks only *after* applying under its lock, so the cumulative ack is
//! exact: "no acknowledged event is ever lost" holds across any cut of
//! the link, with at most a window of *unacknowledged* frames needing
//! re-ship or re-bootstrap.
//!
//! Backpressure is explicit: when the window is exhausted, `send`
//! blocks until an ack frees a slot (counted in
//! `cluster_link_backpressure_stalls_total`), while
//! [`PrimaryLink::try_send`] returns [`TransportError::WindowFull`]
//! instead of blocking. A bootstrap [`Payload::Snapshot`] re-anchors
//! the sequence numbering, so it acts as a barrier: the link drains
//! before shipping it and the cumulative-ack state restarts behind it.
//!
//! # Timeouts and reconnection
//!
//! Every link operation is bounded by a [`LinkConfig`]: connects use
//! [`TcpStream::connect_timeout`], writes carry socket timeouts, and
//! every wait for acks — a full [`PrimaryLink::drain`] as well as a
//! window-full stall inside `send` — is bounded by
//! [`LinkConfig::drain_timeout`] **in total**, not per ack, so a
//! stalled replica fails the drain with a typed
//! [`TransportError::DrainTimeout`] (counted in
//! `cluster_link_drain_timeouts_total`) instead of wedging the primary
//! one read-timeout at a time. After any failed operation the
//! connection is dropped — a pipelined stream is in an unknown state
//! once anything goes wrong — and the **next** send redials with
//! bounded exponential backoff ([`LinkConfig::backoff_base`] doubling
//! up to [`LinkConfig::backoff_cap`], at most
//! [`LinkConfig::reconnect_attempts`] dials). In-flight frames are
//! *not* resent automatically: the link remembers the last cumulative
//! ack ([`PrimaryLink::acked_seq`]), so the embedder (or
//! [`crate::ReplicationGroup::repair`]) re-ships from
//! [`crate::JournalRelay::frames_since`] or falls back to
//! [`crate::JournalRelay::bootstrap`].
//!
//! A peer that violates the ack protocol — a regressing cumulative
//! ack, an ack above the shipped window, a garbage ack line — surfaces
//! as a located [`TransportError::Protocol`] and drops the connection
//! **without poisoning the window state**: `acked_seq` keeps the last
//! honest value.
//!
//! # Threading
//!
//! [`ReplicaServer`] runs on the workspace's one server skeleton,
//! [`realloc_core::net`], with no read timeout (an idle replication
//! link is normal). Each handler applies frames to the shared
//! [`Replica`] under its lock and writes one cumulative ack per batch
//! of frames found on the wire; local readers share the replica via
//! [`ReplicaServer::replica`] — that is the read-scaling surface.
//!
//! A handler that finds the replica's mutex **poisoned** (another
//! handler panicked mid-apply) does not propagate the panic: it drops
//! its connection — un-acked frames stay un-acked, so no data is lost —
//! and the event is counted in [`ReplicaServer::handlers_poisoned`]
//! (and the `replica_handler_poisoned_total` counter when telemetry is
//! attached). The primary sees a closed link and re-establishes, while
//! local readers holding [`ReplicaServer::replica`] decide for
//! themselves how to treat the poisoned state.

use crate::frame::{Frame, Payload, MAX_FRAME_BYTES};
use crate::replica::Replica;
use crate::tele::LinkTele;
use crate::transport::{FrameSink, TransportError};
use realloc_core::net::{AcceptLoop, Buffered, FrameConn};
use realloc_core::textio::write_frame;
use realloc_telemetry::{Counter, Severity, Telemetry};
use std::collections::VecDeque;
use std::io::{BufRead as _, BufReader, BufWriter, ErrorKind, Write as _};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Cap on one ack frame (a short status line).
const MAX_ACK_BYTES: u32 = 4096;

/// Socket, window, and retry policy for a [`PrimaryLink`]; the defaults
/// suit a LAN replica (generous timeouts, a 32-frame pipeline,
/// sub-second backoff).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkConfig {
    /// Bound on establishing a connection.
    pub connect_timeout: Duration,
    /// Socket read timeout — bounds each *individual* wait inside an
    /// ack read; the total wait for a drain or window stall is bounded
    /// by [`LinkConfig::drain_timeout`].
    pub read_timeout: Duration,
    /// Socket write timeout — bounds each frame write.
    pub write_timeout: Duration,
    /// First reconnect delay; doubles per failed dial.
    pub backoff_base: Duration,
    /// Ceiling on the per-dial backoff delay.
    pub backoff_cap: Duration,
    /// Dial attempts per reconnect (a send that needs a connection
    /// fails after this many dials; the next send starts over).
    pub reconnect_attempts: u32,
    /// Maximum unacknowledged frames in flight before `send` blocks
    /// (or [`PrimaryLink::try_send`] returns
    /// [`TransportError::WindowFull`]). Treated as at least 1.
    pub window: usize,
    /// Total bound on waiting for the pipeline to drain — across a
    /// whole [`PrimaryLink::drain`] or a window-full stall, not per
    /// ack. Expiry surfaces as [`TransportError::DrainTimeout`].
    pub drain_timeout: Duration,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            reconnect_attempts: 5,
            window: 32,
            drain_timeout: Duration::from_secs(10),
        }
    }
}

impl LinkConfig {
    /// Backoff before dial `attempt` (0-based): `base << attempt`,
    /// saturating at the cap. Attempt 0 dials immediately.
    fn backoff(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let exp = self
            .backoff_base
            .saturating_mul(1u32 << attempt.min(20).saturating_sub(1));
        exp.min(self.backoff_cap)
    }
}

/// Replica-side server: owns the accept loop and the shared replica.
#[derive(Debug)]
pub struct ReplicaServer {
    replica: Arc<Mutex<Replica>>,
    accept: AcceptLoop,
    /// Connections dropped over a poisoned replica lock, plus the
    /// telemetry counter handlers mirror it into.
    poisoned: Arc<PoisonCount>,
}

/// Shared poison bookkeeping between the server handle and its handler
/// threads.
#[derive(Debug, Default)]
struct PoisonCount {
    total: AtomicU64,
    counter: Mutex<Option<Counter>>,
}

impl PoisonCount {
    fn record(&self) {
        self.total.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = self.counter.lock().ok().and_then(|g| g.clone()) {
            c.inc();
        }
    }
}

impl ReplicaServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `replica` on a background accept loop.
    pub fn bind(addr: impl ToSocketAddrs, replica: Replica) -> std::io::Result<ReplicaServer> {
        let replica = Arc::new(Mutex::new(replica));
        let poisoned = Arc::new(PoisonCount::default());
        let (conn_replica, conn_poisoned) = (Arc::clone(&replica), Arc::clone(&poisoned));
        // No read timeout: see `realloc_core::net` on why a replication
        // link is never reaped.
        let accept = AcceptLoop::spawn(addr, "replica", None, move |conn| {
            serve_connection(conn, &conn_replica, &conn_poisoned)
        })?;
        Ok(ReplicaServer {
            replica,
            accept,
            poisoned,
        })
    }

    /// The bound address (connect [`PrimaryLink`]s here).
    pub fn addr(&self) -> SocketAddr {
        self.accept.addr()
    }

    /// The shared replica — lock it for read queries (`window_of`,
    /// `metrics`, `validate`, `state_digest`) or promotion. Locks are
    /// held per frame by the connection handlers, so readers interleave
    /// with replication at batch granularity.
    pub fn replica(&self) -> Arc<Mutex<Replica>> {
        Arc::clone(&self.replica)
    }

    /// Connections dropped because the replica's lock was poisoned (a
    /// handler panicked mid-apply). Nonzero means the replica's state
    /// is suspect and a re-bootstrap or failover is in order.
    pub fn handlers_poisoned(&self) -> u64 {
        self.poisoned.total.load(Ordering::Relaxed)
    }

    /// Mirrors poison drops into a `replica_handler_poisoned_total`
    /// counter. A disabled handle detaches.
    pub fn attach_telemetry(&self, telemetry: &Telemetry) {
        let counter = telemetry
            .is_enabled()
            .then(|| telemetry.counter("replica_handler_poisoned_total"));
        if let Ok(mut slot) = self.poisoned.counter.lock() {
            *slot = counter;
        }
    }

    /// Stops the accept loop and joins it (also on `Drop`). In-flight
    /// connection handlers finish their current peer's stream and exit
    /// on disconnect.
    pub fn shutdown(&mut self) {
        self.accept.shutdown();
    }
}

/// Outcome of handling one inbound frame on the replica side.
enum Handled {
    /// Applied; carry the seq into the batch's cumulative ack.
    Applied(u64),
    /// The replica lock was poisoned: drop the connection (counted).
    Poisoned,
    /// Parse failure or replica rejection: the ready-to-send `err` line.
    Refused(String),
}

/// Parses and applies one frame payload under the replica lock.
fn handle_frame(payload: &[u8], replica: &Arc<Mutex<Replica>>) -> Handled {
    let parsed = std::str::from_utf8(payload)
        .map_err(|e| format!("frame is not UTF-8: {e}"))
        .and_then(|text| Frame::parse(text).map_err(|e| e.to_string()));
    match parsed {
        Ok(frame) => {
            let Ok(mut guard) = replica.lock() else {
                // Another handler panicked while holding the lock: the
                // replica's state is suspect. Degrade — drop this
                // connection without acking (the primary re-ships or
                // re-bootstraps elsewhere) rather than panic the whole
                // server.
                return Handled::Poisoned;
            };
            match guard.apply(&frame) {
                Ok(()) => Handled::Applied(frame.seq),
                Err(e) => Handled::Refused(format!("err {} {e}", frame.seq)),
            }
        }
        Err(e) => Handled::Refused(format!("err ? {e}")),
    }
}

/// Writes the batch's pending cumulative ack (if any) and flushes.
fn flush_ack(conn: &mut FrameConn, hi: Option<u64>) -> std::io::Result<()> {
    if let Some(seq) = hi {
        conn.write(format!("ok {seq}").as_bytes())?;
    }
    conn.flush()
}

/// One connection: block for a frame, then apply every frame already on
/// the wire as one batch, acking the applied prefix with a single
/// cumulative `ok <seq>`. Rejections flush the pending ack first, then
/// an `err <seq> <detail>` line — acked always ⊆ applied. A poisoned
/// replica lock drops the connection (counted) instead of propagating
/// the panic; see the module docs.
fn serve_connection(mut conn: FrameConn, replica: &Arc<Mutex<Replica>>, poisoned: &PoisonCount) {
    loop {
        // Block for the first frame of a batch.
        let mut payload = match conn.read(MAX_FRAME_BYTES) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return, // peer gone or framing broken
        };
        let mut applied_hi: Option<u64> = None;
        loop {
            match handle_frame(&payload, replica) {
                Handled::Applied(seq) => applied_hi = Some(seq),
                Handled::Poisoned => {
                    poisoned.record();
                    return;
                }
                Handled::Refused(line) => {
                    // Ack the applied prefix before reporting the
                    // rejection so the primary retires exactly what
                    // landed.
                    if flush_ack(&mut conn, applied_hi.take()).is_err() {
                        return;
                    }
                    if conn.write(line.as_bytes()).is_err() || conn.flush().is_err() {
                        return;
                    }
                }
            }
            match conn.read_buffered(MAX_FRAME_BYTES) {
                Buffered::Frame(p) => payload = p,
                Buffered::NotYet => break,
                Buffered::Gone => {
                    let _ = flush_ack(&mut conn, applied_hi.take());
                    return;
                }
            }
        }
        if flush_ack(&mut conn, applied_hi).is_err() {
            return;
        }
    }
}

/// Primary-side link to one remote replica: a pipelined frame stream
/// with up to [`LinkConfig::window`] unacknowledged frames in flight
/// and cumulative acks (see the module docs). `Ok` from [`send`] means
/// *accepted for delivery*; [`drain`] is the per-link commit barrier.
/// Socket operations are bounded by the link's [`LinkConfig`]; any
/// failed operation drops the connection and the next send redials with
/// exponential backoff — in-flight frames are not resent automatically,
/// but [`PrimaryLink::acked_seq`] survives the drop so the embedder
/// knows exactly where to resume. Dropping the link closes the
/// connection (the replica's handler thread exits).
///
/// [`send`]: FrameSink::send
/// [`drain`]: FrameSink::drain
#[derive(Debug)]
pub struct PrimaryLink {
    /// The live connection, absent after a failure until the next send
    /// redials.
    conn: Option<Conn>,
    /// The replica's resolved address (redial target, telemetry label).
    peer: SocketAddr,
    config: LinkConfig,
    /// Highest cumulatively acknowledged sequence. Survives connection
    /// drops (it is the resume point) and is never moved by a
    /// protocol-violating ack; reset by a re-anchoring snapshot send.
    acked: Option<u64>,
    /// Per-link instruments ([`PrimaryLink::attach_telemetry`]), labeled
    /// `replica="<peer>"`.
    tele: Option<Box<LinkTele>>,
}

#[derive(Debug)]
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Sequences written on this connection and not yet acknowledged,
    /// oldest first, with their send timestamps (0 without telemetry).
    inflight: VecDeque<(u64, u64)>,
    /// Highest cumulative ack received on this connection — the
    /// regression guard for hostile acks.
    conn_acked: Option<u64>,
    /// Staging buffer owning the ack framing state: every byte the
    /// reader picks up is moved here, and complete length-prefixed ack
    /// frames are carved off the front. A read timeout can therefore
    /// never strand a partial frame — its bytes wait here for the rest.
    ackbuf: Vec<u8>,
}

impl PrimaryLink {
    /// Connects to a [`ReplicaServer`] under [`LinkConfig::default`].
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<PrimaryLink> {
        Self::connect_with(addr, LinkConfig::default())
    }

    /// Connects with an explicit timeout/window/backoff policy. The
    /// initial dial gets the same bounded-backoff retry loop as
    /// reconnects.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: LinkConfig,
    ) -> std::io::Result<PrimaryLink> {
        let peer = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
        })?;
        let mut link = PrimaryLink {
            conn: None,
            peer,
            config,
            acked: None,
            tele: None,
        };
        link.redial()?;
        Ok(link)
    }

    /// The replica address this link ships to.
    pub fn peer(&self) -> SocketAddr {
        self.peer
    }

    /// Whether the link currently holds a live connection (false after
    /// a failure, until the next send redials).
    pub fn is_connected(&self) -> bool {
        self.conn.is_some()
    }

    /// This link's timeout/window/backoff policy.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Sends without blocking on a full window: returns
    /// [`TransportError::WindowFull`] when [`LinkConfig::window`]
    /// frames are already unacknowledged (after retiring any acks
    /// waiting on the wire). Otherwise identical to [`FrameSink::send`].
    pub fn try_send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        self.send_impl(frame, false)
    }

    /// Attaches per-link instruments, labeled with this link's replica
    /// address: bytes shipped, ack round-trip latency, the highest
    /// acknowledged sequence, the in-flight window depth, cumulative
    /// ack batch sizes, backpressure stalls, drain timeouts, send
    /// errors, and reconnect dials. A registry watching a whole fan-out
    /// distinguishes links by the `replica` label — the per-replica lag
    /// a poller reads is the primary's `cluster_next_seq − 1` minus
    /// this link's `cluster_link_acked_seq` (or the replica's own
    /// `cluster_replica_last_seq`). A disabled handle detaches.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.tele = LinkTele::build(telemetry, &self.peer.to_string());
    }

    /// One bounded dial (connect + socket timeouts applied).
    fn dial(&self) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&self.peer, self.config.connect_timeout)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(self.config.read_timeout))?;
        stream.set_write_timeout(Some(self.config.write_timeout))?;
        let write_half = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
            inflight: VecDeque::new(),
            conn_acked: None,
            ackbuf: Vec::new(),
        })
    }

    /// Establishes a connection with bounded exponential backoff,
    /// counting each successful re-dial.
    fn redial(&mut self) -> std::io::Result<()> {
        let mut last = None;
        for attempt in 0..self.config.reconnect_attempts.max(1) {
            let delay = self.config.backoff(attempt);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            match self.dial() {
                Ok(conn) => {
                    self.conn = Some(conn);
                    if let Some(tele) = &self.tele {
                        tele.reconnects.inc();
                        tele.window_inflight.set(0);
                    }
                    return Ok(());
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::TimedOut, "no dial attempts configured")
        }))
    }

    /// The effective window (config clamped to at least 1).
    fn window(&self) -> usize {
        self.config.window.max(1)
    }

    /// Drops the connection after a failure, counting it. The link's
    /// `acked` state is deliberately left untouched — it is the honest
    /// resume point, whatever the peer just did.
    fn fail(&mut self, e: TransportError) -> TransportError {
        if let Some(tele) = &self.tele {
            tele.send_errors.inc();
            if let TransportError::DrainTimeout { waited, in_flight } = &e {
                tele.drain_timeouts.inc();
                // Operator-grade anomaly: fires the flight-recorder
                // hook so the ring around the stall survives.
                tele.t
                    .incident("drain_timeout", waited.as_nanos() as u64, *in_flight as u64);
            }
            tele.window_inflight.set(0);
        }
        self.conn = None;
        e
    }

    /// Consumes one ack frame **only if it is already fully buffered**;
    /// never blocks and never leaves the stream mid-frame.
    fn take_buffered_ack(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        let Some(conn) = self.conn.as_mut() else {
            return Ok(None);
        };
        // Stage everything the reader picked up. The reader's buffer is
        // always left empty, so the next `fill_buf` really reads from
        // the socket instead of handing back a stranded partial frame.
        let buffered = conn.reader.buffer().len();
        if buffered > 0 {
            conn.ackbuf.extend_from_slice(conn.reader.buffer());
            conn.reader.consume(buffered);
        }
        if conn.ackbuf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes(conn.ackbuf[..4].try_into().expect("4 bytes"));
        if len > MAX_ACK_BYTES {
            return Err(TransportError::Protocol(format!(
                "ack frame of {len} bytes exceeds the {MAX_ACK_BYTES}-byte cap"
            )));
        }
        let total = 4 + len as usize;
        if conn.ackbuf.len() < total {
            return Ok(None);
        }
        let payload = conn.ackbuf[4..total].to_vec();
        conn.ackbuf.drain(..total);
        Ok(Some(payload))
    }

    /// Validates and applies one cumulative ack line, retiring the
    /// acknowledged prefix of the in-flight window. Hostile acks —
    /// regressing, above the shipped window, unsolicited, or plain
    /// garbage — return a located [`TransportError::Protocol`] without
    /// touching `acked`.
    fn process_ack(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        let line = std::str::from_utf8(payload)
            .map_err(|e| TransportError::Protocol(format!("ack is not UTF-8: {e}")))?;
        if let Some(detail) = line.strip_prefix("err ") {
            return Err(TransportError::Rejected(detail.to_string()));
        }
        let Some(rest) = line.strip_prefix("ok ") else {
            return Err(TransportError::Protocol(format!(
                "malformed ack line '{line}'"
            )));
        };
        let seq: u64 = rest
            .parse()
            .map_err(|_| TransportError::Protocol(format!("malformed ack sequence in '{line}'")))?;
        let now = self.tele.as_ref().map_or(0, |t| t.t.now_nanos());
        let conn = self.conn.as_mut().ok_or(TransportError::Closed)?;
        if let Some(acked) = conn.conn_acked {
            if seq <= acked {
                return Err(TransportError::Protocol(format!(
                    "regressing ack {seq} (cumulative ack already at {acked})"
                )));
            }
        }
        let Some(&(newest, _)) = conn.inflight.back() else {
            return Err(TransportError::Protocol(format!(
                "unsolicited ack {seq} with nothing in flight"
            )));
        };
        if seq > newest {
            return Err(TransportError::Protocol(format!(
                "ack {seq} is above the shipped window (newest in flight: {newest})"
            )));
        }
        let mut retired = 0u64;
        let mut matched = false;
        while let Some(&(s, t0)) = conn.inflight.front() {
            if s > seq {
                break;
            }
            conn.inflight.pop_front();
            retired += 1;
            matched = s == seq;
            if let Some(tele) = &self.tele {
                tele.ack_rtt_nanos.record(now.saturating_sub(t0));
            }
        }
        if !matched {
            return Err(TransportError::Protocol(format!(
                "ack {seq} matches no shipped frame"
            )));
        }
        conn.conn_acked = Some(seq);
        self.acked = Some(seq);
        if let Some(tele) = &self.tele {
            tele.acked_seq.set(seq);
            tele.ack_batch_size.record(retired);
            tele.window_inflight
                .set(self.conn.as_ref().map_or(0, |c| c.inflight.len()) as u64);
        }
        Ok(())
    }

    /// Retires every ack already on the wire without ever blocking.
    fn pump(&mut self) -> Result<(), TransportError> {
        loop {
            if self.in_flight() == 0 {
                return Ok(());
            }
            if let Some(payload) = self.take_buffered_ack()? {
                self.process_ack(&payload)?;
                continue;
            }
            let Some(conn) = self.conn.as_mut() else {
                return Ok(());
            };
            conn.reader
                .get_ref()
                .set_nonblocking(true)
                .map_err(TransportError::Io)?;
            let refill = conn.reader.fill_buf().map(|b| b.len());
            conn.reader
                .get_ref()
                .set_nonblocking(false)
                .map_err(TransportError::Io)?;
            match refill {
                Ok(0) => return Err(TransportError::Closed),
                Ok(_) => continue,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(())
                }
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
    }

    /// Blocks until one ack is processed, bounded by `deadline` (the
    /// caller's share of [`LinkConfig::drain_timeout`]). Ack framing
    /// state lives in the connection's staging buffer, so a timeout
    /// mid-frame strands nothing — the partial frame's bytes wait
    /// there for the rest.
    fn wait_ack(&mut self, deadline: Instant) -> Result<(), TransportError> {
        loop {
            if let Some(payload) = self.take_buffered_ack()? {
                return self.process_ack(&payload);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(TransportError::DrainTimeout {
                    waited: self.config.drain_timeout,
                    in_flight: self.in_flight(),
                });
            }
            let per_read = self
                .config
                .read_timeout
                .min(deadline - now)
                .max(Duration::from_millis(1));
            let Some(conn) = self.conn.as_mut() else {
                return Err(TransportError::Closed);
            };
            conn.reader
                .get_ref()
                .set_read_timeout(Some(per_read))
                .map_err(TransportError::Io)?;
            match conn.reader.fill_buf() {
                Ok([]) => return Err(TransportError::Closed),
                Ok(_) => continue,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    continue
                }
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
    }

    fn drain_impl(&mut self) -> Result<Option<u64>, TransportError> {
        self.drain_to_impl(u64::MAX)
    }

    /// Waits until the cumulative ack reaches `seq` or the pipe is
    /// empty, whichever comes first, bounded by one drain timeout.
    fn drain_to_impl(&mut self, seq: u64) -> Result<Option<u64>, TransportError> {
        let deadline = Instant::now() + self.config.drain_timeout;
        while self.in_flight() > 0 && self.acked.is_none_or(|a| a < seq) {
            if let Err(e) = self.wait_ack(deadline) {
                return Err(self.fail(e));
            }
        }
        Ok(self.acked)
    }

    fn send_impl(&mut self, frame: &Frame, block: bool) -> Result<(), TransportError> {
        if self.conn.is_none() {
            self.redial().map_err(|e| {
                if let Some(tele) = &self.tele {
                    tele.send_errors.inc();
                }
                TransportError::Io(e)
            })?;
        }
        if matches!(frame.payload, Payload::Snapshot { .. }) {
            // A snapshot re-anchors the sequence numbering: drain the
            // old stream first and restart the cumulative-ack state
            // behind the barrier.
            if self.in_flight() > 0 {
                self.drain_impl()?;
            }
            if let Some(conn) = self.conn.as_mut() {
                conn.conn_acked = None;
            }
            self.acked = None;
        }
        if self.in_flight() >= self.window() {
            // The window looks full — retire anything already on the
            // wire before deciding to stall (or refuse).
            if let Err(e) = self.pump() {
                return Err(self.fail(e));
            }
        }
        if self.in_flight() >= self.window() {
            if !block {
                return Err(TransportError::WindowFull {
                    window: self.window(),
                });
            }
            if let Some(tele) = &self.tele {
                tele.backpressure_stalls.inc();
            }
            let deadline = Instant::now() + self.config.drain_timeout;
            while self.in_flight() >= self.window() {
                if let Err(e) = self.wait_ack(deadline) {
                    return Err(self.fail(e));
                }
            }
        }
        let text = frame.to_text();
        let t0 = self.tele.as_ref().map_or(0, |t| t.t.now_nanos());
        {
            // The redial above makes a live connection overwhelmingly
            // likely here, but the stall loop calls `wait_ack` → `fail`
            // paths that drop it — and a hostile ack stream must never
            // be able to abort the primary. Surface a typed error
            // instead of panicking on the invariant.
            let Some(conn) = self.conn.as_mut() else {
                return Err(self.fail(TransportError::Closed));
            };
            if let Err(e) =
                write_frame(&mut conn.writer, text.as_bytes()).and_then(|()| conn.writer.flush())
            {
                return Err(self.fail(TransportError::Io(e)));
            }
            conn.inflight.push_back((frame.seq, t0));
        }
        if let Some(tele) = &self.tele {
            tele.bytes_shipped.add(text.len() as u64);
            tele.window_inflight.set(self.in_flight() as u64);
            if let Some(tc) = frame.trace {
                tele.t
                    .point_in(tc, Severity::Debug, "ship", frame.seq, text.len() as u64);
            }
        }
        // Opportunistically retire any acks already on the wire. An
        // error here (rejection, protocol violation, dead peer) may
        // concern an *earlier* in-flight frame — pipelined errors
        // surface on whichever call touches the link next.
        if let Err(e) = self.pump() {
            return Err(self.fail(e));
        }
        Ok(())
    }
}

impl FrameSink for PrimaryLink {
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        self.send_impl(frame, true)
    }

    fn drain(&mut self) -> Result<Option<u64>, TransportError> {
        self.drain_impl()
    }

    fn drain_to(&mut self, seq: u64) -> Result<Option<u64>, TransportError> {
        self.drain_to_impl(seq)
    }

    fn acked_seq(&self) -> Option<u64> {
        self.acked
    }

    fn in_flight(&self) -> usize {
        self.conn.as_ref().map_or(0, |c| c.inflight.len())
    }
}
