//! The one socket-server skeleton under the workspace's TCP servers
//! (the cluster's `ReplicaServer`, the telemetry `ObsServer`, the
//! service tier's `ServiceServer`): [`AcceptLoop`] owns the threads,
//! [`FrameConn`] owns one connection's [`crate::textio`] framing. A
//! server built on them is left with its protocol — what a frame means
//! and what to answer.
//!
//! [`FrameConn`] is both ends of every framed connection: the accept
//! loop hands one to each handler; [`FrameConn::connect`] dials one for
//! the telemetry `ObsClient` and the service tier's `QosClient`, which
//! read answers with [`FrameConn::read_reply`]; the cluster's
//! `PrimaryLink` wraps the stream it dials, with its own timeouts, in
//! one for journal frames out and acks in.
//!
//! # Framing
//!
//! Reads land in one staging buffer, and whole frames are carved off its
//! front by cursor. A read that stops partway through a frame (a
//! timeout, a non-blocking probe) leaves the bytes staged for the next
//! call. Before a read, a partial frame moves to the front and the
//! buffer grows to hold it whole; that frame leaves with the grown
//! buffer, and a fresh one takes its place. EOF with bytes staged is an
//! error.
//!
//! # Threading
//!
//! [`AcceptLoop::spawn`] binds the listener and starts **one accept
//! thread**. Every accepted connection gets its **own handler thread**,
//! detached: nobody joins it, it ends when the handler returns — which
//! every handler does as soon as a read reports the peer gone.
//!
//! **Reaping.** A client that connects and then says nothing would pin
//! its handler thread and socket for the life of the process. The read
//! timeout the caller passes is set on the socket before the handler
//! sees it, so a blocking [`FrameConn::read`] on a silent peer fails
//! after that long and the handler leaves through the same arm as for a
//! disconnect. `ObsServer` and `ServiceServer` pass their configured
//! timeout (60 s by default). `ReplicaServer` passes `None`, on purpose:
//! a replication link is legitimately idle between bursts, its only
//! client is the primary, and a reaped link costs the primary a redial
//! and a re-ship of its window.
//!
//! **Shutdown.** [`AcceptLoop::shutdown`] (also run by `Drop`) raises a
//! stop flag, then connects to its own address: `accept` has no timeout,
//! and the poke is what makes the blocked accept thread look at the
//! flag. It then joins the accept thread, which closes the listener.
//! Live handlers are not interrupted; they finish with their peers.

use crate::textio::{frame_len, write_frame};
use std::io::{BufWriter, ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A bound listener and its accept thread; see the module docs.
#[derive(Debug)]
pub struct AcceptLoop {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl AcceptLoop {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serves every connection with `handler` on a thread of its own
    /// (threads are named `<name>-accept-<addr>` and `<name>-conn`).
    /// Before `handler` runs, the connection gets `read_timeout` (`None`:
    /// never reaped) and has Nagle's algorithm turned off: the replies
    /// are small frames a pipelining peer is waiting on, and Nagle plus
    /// delayed ACK would put a timer on every burst.
    pub fn spawn<H>(
        addr: impl ToSocketAddrs,
        name: &str,
        read_timeout: Option<Duration>,
        handler: H,
    ) -> std::io::Result<AcceptLoop>
    where
        H: Fn(FrameConn) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let handler = Arc::new(handler);
        let conn_name = format!("{name}-conn");
        let accept_thread = std::thread::Builder::new()
            .name(format!("{name}-accept-{addr}"))
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    stream.set_nodelay(true).ok();
                    let _ = stream.set_read_timeout(read_timeout);
                    let Ok(conn) = FrameConn::new(stream) else {
                        continue;
                    };
                    let handler = Arc::clone(&handler);
                    // Detached: the handler returns when its peer
                    // disconnects or goes quiet past the timeout.
                    let _ = std::thread::Builder::new()
                        .name(conn_name.clone())
                        .spawn(move || handler(conn));
                }
            })?;
        Ok(AcceptLoop {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the accept thread; a second call is a
    /// no-op. Live handlers finish with their peers.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Poke the blocking accept() so the loop observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for AcceptLoop {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What [`FrameConn::read_buffered`] found without blocking.
#[derive(Debug, PartialEq, Eq)]
pub enum Buffered {
    /// A complete frame was already on the wire.
    Frame(Vec<u8>),
    /// Nothing complete yet — end the batch and block again.
    NotYet,
    /// The peer is gone or the socket failed.
    Gone,
}

/// One connection speaking [`crate::textio`] frames: reads staged as
/// the module docs say, writes buffered on a clone of the socket.
#[derive(Debug)]
pub struct FrameConn {
    stream: TcpStream,
    writer: BufWriter<TcpStream>,
    /// `stage[head..tail]` is read and not yet carved.
    stage: Vec<u8>,
    head: usize,
    tail: usize,
}

/// The staging buffer's size, unless one frame needs more.
const STAGE_BYTES: usize = 8 * 1024;

impl FrameConn {
    /// Wraps `stream`, whose timeouts and options the caller has set.
    pub fn new(stream: TcpStream) -> std::io::Result<FrameConn> {
        Ok(FrameConn {
            writer: BufWriter::new(stream.try_clone()?),
            stream,
            stage: vec![0; STAGE_BYTES],
            head: 0,
            tail: 0,
        })
    }

    /// Dials `addr` — the client end of a connection: Nagle's algorithm
    /// off, as [`AcceptLoop::spawn`] sets it on the server end, then
    /// wrapped as [`FrameConn::new`] does.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<FrameConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        FrameConn::new(stream)
    }

    /// Bounds how long a blocking read waits (`None`: for ever). A
    /// client sets it so that a peer that accepted and never answers
    /// surfaces as a timeout error instead of a hang.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Blocks for the next frame as [`FrameConn::read`] does — the
    /// answer a client is waiting for — and returns it as text. A peer
    /// that closed instead is an [`ErrorKind::UnexpectedEof`] error, a
    /// payload that is not UTF-8 an [`ErrorKind::InvalidData`] one.
    pub fn read_reply(&mut self, cap: u32) -> std::io::Result<String> {
        let Some(payload) = self.read(cap)? else {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "peer closed before replying",
            ));
        };
        String::from_utf8(payload).map_err(|e| {
            std::io::Error::new(ErrorKind::InvalidData, format!("reply is not UTF-8: {e}"))
        })
    }

    /// Blocks for the next frame: `Ok(None)` is a clean end of stream; a
    /// declared length above `cap`, EOF inside a frame and an expired
    /// read timeout (the reap path) are errors. The socket's read timeout
    /// bounds the whole call, so a peer that trickles a frame in cannot
    /// stretch it. A timeout keeps what it read staged, so the next call
    /// resumes the frame; a refused length prefix is consumed, as
    /// [`crate::textio::read_frame`] consumes it.
    pub fn read(&mut self, cap: u32) -> std::io::Result<Option<Vec<u8>>> {
        let mut since = None;
        loop {
            if let Some(payload) = self.carve(cap).inspect_err(|_| self.head += 4)? {
                return Ok(Some(payload));
            }
            if self.fill(&mut since)? == 0 {
                if self.head == self.tail {
                    return Ok(None);
                }
                return Err(ErrorKind::UnexpectedEof.into());
            }
        }
    }

    /// Takes the next frame **only if it is already staged** (or arrives
    /// on one non-blocking read into an empty stage); never blocks. A
    /// partial frame stays staged for the blocking [`FrameConn::read`],
    /// and so does an over-`cap` length: that read refuses it, after the
    /// caller has answered for what it already took.
    pub fn read_buffered(&mut self, cap: u32) -> Buffered {
        if self.head == self.tail {
            let refill = self.stream.set_nonblocking(true).and_then(|()| {
                let read = self.fill(&mut None);
                self.stream.set_nonblocking(false).and(read)
            });
            match refill {
                Ok(0) => return Buffered::Gone,
                Err(e) if !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Buffered::Gone
                }
                _ => {}
            }
        }
        match self.carve(cap) {
            Ok(Some(payload)) => Buffered::Frame(payload),
            _ => Buffered::NotYet,
        }
    }

    /// The next frame's payload if the stage holds all of it. An
    /// over-`cap` length is an error and stays staged.
    fn carve(&mut self, cap: u32) -> std::io::Result<Option<Vec<u8>>> {
        let staged = &self.stage[self.head..self.tail];
        let Some(&prefix) = staged.first_chunk::<4>() else {
            return Ok(None);
        };
        let end = 4 + frame_len(prefix, cap)?;
        let Some(payload) = staged.get(4..end) else {
            return Ok(None);
        };
        if end > STAGE_BYTES && staged.len() == end {
            // A frame that grew the stage is all it holds: hand the
            // buffer over rather than copy it.
            let mut whole = std::mem::replace(&mut self.stage, vec![0; STAGE_BYTES]);
            whole.truncate(self.tail);
            whole.drain(..self.head + 4);
            (self.head, self.tail) = (0, 0);
            return Ok(Some(whole));
        }
        let payload = payload.to_vec();
        self.head += end;
        Ok(Some(payload))
    }

    /// One read onto the stage, which holds at most a partial frame
    /// (`carve` checked its length); `Ok(0)` is EOF. `since` is when the
    /// caller's first read began.
    fn fill(&mut self, since: &mut Option<Instant>) -> std::io::Result<usize> {
        let staged = self.head..self.tail;
        let need = (self.stage[staged.clone()].first_chunk())
            .map_or(4, |&prefix| 4 + u32::from_be_bytes(prefix) as usize);
        if self.head > 0 {
            self.stage.copy_within(staged, 0);
            self.tail -= self.head;
            self.head = 0;
        }
        if need > self.stage.len() {
            // Zeroed by the allocator, so pages are touched as bytes land.
            let mut grown = vec![0; need];
            grown[..self.tail].copy_from_slice(&self.stage[..self.tail]);
            self.stage = grown;
        }
        // Past the call's first read, wait only for what is left of the
        // socket's timeout.
        let own = since.map_or(Ok(None), |_| self.stream.read_timeout())?;
        let began = *since.get_or_insert_with(Instant::now);
        if let Some(t) = own {
            let left = t
                .saturating_sub(began.elapsed())
                .max(Duration::from_micros(1));
            self.stream.set_read_timeout(Some(left))?;
        }
        let n = loop {
            match (&self.stream).read(&mut self.stage[self.tail..]) {
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                read => break read,
            }
        };
        self.tail += n.as_ref().map_or(0, |&n| n);
        if own.is_some() {
            self.stream.set_read_timeout(own)?;
        }
        n
    }

    /// Queues one frame on the buffered writer ([`write_frame`]).
    pub fn write(&mut self, payload: &[u8]) -> std::io::Result<()> {
        write_frame(&mut self.writer, payload)
    }

    /// Sends everything queued by [`FrameConn::write`].
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }
}
