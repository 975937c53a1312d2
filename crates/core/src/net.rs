//! The one socket-server skeleton under the workspace's TCP servers
//! (the cluster's `ReplicaServer`, the telemetry `ObsServer`, the
//! service tier's `ServiceServer`): [`AcceptLoop`] owns the threads,
//! [`FrameConn`] owns one connection's [`crate::textio`] framing. A
//! server built on them is left with its protocol — what a frame means
//! and what to answer.
//!
//! [`FrameConn`] serves both ends of a request/response connection: the
//! accept loop hands one to each handler, and [`FrameConn::connect`]
//! dials one for a client — the telemetry `ObsClient` and the service
//! tier's `QosClient` send command frames through it and read each
//! answer with [`FrameConn::read_reply`].
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

use crate::textio::{read_frame, write_frame};
use std::io::{BufRead as _, BufReader, BufWriter, ErrorKind, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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

/// One connection, accepted or dialed, speaking [`crate::textio`]
/// length-prefixed frames: a buffered reader and a buffered writer over
/// the two halves of the socket.
#[derive(Debug)]
pub struct FrameConn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl FrameConn {
    /// Splits `stream` into its buffered halves.
    pub fn new(stream: TcpStream) -> std::io::Result<FrameConn> {
        let write_half = stream.try_clone()?;
        Ok(FrameConn {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
        })
    }

    /// Dials `addr` — the client end of a connection: Nagle's algorithm
    /// off, as [`AcceptLoop::spawn`] sets it on the server end, then
    /// split as [`FrameConn::new`] does.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<FrameConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        FrameConn::new(stream)
    }

    /// Bounds how long a blocking read waits (`None`: for ever). A
    /// client sets it so that a peer that accepted and never answers
    /// surfaces as a timeout error instead of a hang.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
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

    /// Blocks for the next frame, as [`read_frame`]: `Ok(None)` is a
    /// clean end of stream; a declared length above `cap`, EOF inside a
    /// frame and an expired read timeout (the reap path) are errors.
    pub fn read(&mut self, cap: u32) -> std::io::Result<Option<Vec<u8>>> {
        read_frame(&mut self.reader, cap)
    }

    /// Consumes the next frame **only if it is already fully buffered**
    /// (or arrives on a single non-blocking refill); never blocks and
    /// never leaves the stream mid-frame. Over-`cap` lengths are left
    /// unconsumed — the caller's next blocking [`FrameConn::read`]
    /// surfaces the framing error, after the caller has answered for
    /// what it already took.
    pub fn read_buffered(&mut self, cap: u32) -> Buffered {
        let reader = &mut self.reader;
        loop {
            let buf = reader.buffer();
            if buf.len() >= 4 {
                let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
                if len > cap || (buf.len() - 4) < len as usize {
                    return Buffered::NotYet;
                }
                // Fully buffered: read_frame cannot touch the socket.
                return match read_frame(reader, cap) {
                    Ok(Some(p)) => Buffered::Frame(p),
                    Ok(None) | Err(_) => Buffered::Gone,
                };
            }
            if !buf.is_empty() {
                return Buffered::NotYet; // partial length prefix
            }
            if reader.get_ref().set_nonblocking(true).is_err() {
                return Buffered::Gone;
            }
            let refill = reader.fill_buf().map(|b| b.len());
            if reader.get_ref().set_nonblocking(false).is_err() {
                return Buffered::Gone;
            }
            match refill {
                Ok(0) => return Buffered::Gone,
                Ok(_) => continue,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Buffered::NotYet
                }
                Err(_) => return Buffered::Gone,
            }
        }
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
