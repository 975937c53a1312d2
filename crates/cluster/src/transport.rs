//! Pluggable frame transports.
//!
//! The primary produces [`Frame`]s; a [`FrameSink`] delivers them to one
//! replica. Since PR 8 delivery is **pipelined**: [`FrameSink::send`]
//! means *accepted for delivery*, and the replica's acknowledgement
//! catches up asynchronously — [`FrameSink::acked_seq`] reports the
//! highest cumulatively acknowledged sequence, and [`FrameSink::drain`]
//! blocks until every in-flight frame is acked (the commit barrier the
//! failover guarantee — "no acknowledged event is ever lost" — is
//! stated in terms of). The implementation is
//! [`crate::tcp::PrimaryLink`]: length-prefixed frames over
//! [`std::net::TcpStream`] with a configurable window of unacked frames
//! in flight, acknowledged cumulatively by the remote
//! [`crate::tcp::ReplicaServer`].

use crate::frame::Frame;
use std::time::Duration;

/// Why a frame could not be delivered-and-acknowledged.
#[derive(Debug)]
pub enum TransportError {
    /// The link's byte stream failed.
    Io(std::io::Error),
    /// The replica received the frame and refused it (fencing, gap,
    /// divergence, corruption — the replica-side
    /// [`ApplyError`](crate::replica::ApplyError), as text when it
    /// crossed a wire).
    Rejected(String),
    /// The link is closed (receiver dropped, connection gone).
    Closed,
    /// The in-flight window is full and the caller asked not to block
    /// (see [`crate::tcp::PrimaryLink::try_send`]).
    WindowFull {
        /// The configured window size that is currently exhausted.
        window: usize,
    },
    /// Draining the pipeline did not complete within the configured
    /// total bound ([`crate::tcp::LinkConfig::drain_timeout`]). The
    /// connection is dropped; frames past the last cumulative ack are
    /// un-acked and must be re-shipped or re-bootstrapped.
    DrainTimeout {
        /// How long the drain waited before giving up.
        waited: Duration,
        /// Frames still unacknowledged when the bound expired.
        in_flight: usize,
    },
    /// The peer violated the ack protocol (a regressing cumulative ack,
    /// an ack above the shipped window, or a garbage ack line). The
    /// connection is dropped; the link's acknowledged-sequence state is
    /// left exactly as it was before the bad ack.
    Protocol(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport I/O failed: {e}"),
            TransportError::Rejected(m) => write!(f, "replica rejected the frame: {m}"),
            TransportError::Closed => write!(f, "transport closed"),
            TransportError::WindowFull { window } => {
                write!(f, "in-flight window full ({window} frames unacked)")
            }
            TransportError::DrainTimeout { waited, in_flight } => write!(
                f,
                "pipeline drain timed out after {waited:?} with {in_flight} frames in flight"
            ),
            TransportError::Protocol(m) => write!(f, "ack protocol violation: {m}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// Delivers frames to one replica. `Ok(())` from [`send`] means the
/// frame was *accepted for delivery*; the acknowledgement that makes an
/// event durable on the replica is tracked by [`acked_seq`] and forced
/// by [`drain`]. Synchronous sinks (where send does wait for the ack)
/// simply keep `acked_seq` equal to the last sent sequence and let
/// `drain` return immediately.
///
/// [`send`]: FrameSink::send
/// [`acked_seq`]: FrameSink::acked_seq
/// [`drain`]: FrameSink::drain
pub trait FrameSink {
    /// Sends one frame. Pipelined sinks may return before the replica
    /// acknowledges; a returned error can therefore also surface a
    /// problem with an *earlier* in-flight frame.
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError>;

    /// Blocks until every in-flight frame is acknowledged (or the
    /// sink's drain bound expires), returning the highest acknowledged
    /// sequence. The default suits synchronous sinks: nothing is ever
    /// in flight, so it just reports [`FrameSink::acked_seq`].
    fn drain(&mut self) -> Result<Option<u64>, TransportError> {
        Ok(self.acked_seq())
    }

    /// Blocks only until the cumulative acknowledgement reaches `seq`
    /// (or the pipeline empties), returning the new ack floor. This is
    /// the group-commit primitive: committing through batch *i* − 1
    /// must not wait for batch *i*'s frames that are still usefully in
    /// flight. The default over-approximates with a full
    /// [`FrameSink::drain`] — correct for every sink, just stronger
    /// than required.
    fn drain_to(&mut self, seq: u64) -> Result<Option<u64>, TransportError> {
        let _ = seq;
        self.drain()
    }

    /// The highest sequence the replica has cumulatively acknowledged,
    /// `None` before any ack (or for sinks that never ack). A
    /// re-anchoring bootstrap snapshot legitimately resets this to the
    /// snapshot's (lower) anchor sequence.
    fn acked_seq(&self) -> Option<u64> {
        None
    }

    /// Frames sent but not yet acknowledged.
    fn in_flight(&self) -> usize {
        0
    }
}
