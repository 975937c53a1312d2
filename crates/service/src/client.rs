//! The client end of the serving tier's protocol: [`QosClient`] sends
//! [`Command`]s and reads [`Reply`]s over one [`FrameConn`], pipelining
//! allowed (send several, then read the replies in command order); the
//! text on the wire is [`crate::proto`]'s, both ways. [`drive_feed`]
//! runs batches of tenant requests through one connection.

use crate::proto::{Command, Reply};
use realloc_core::net::FrameConn;
use realloc_core::Request;
use realloc_engine::TenantId;
use std::collections::{BTreeMap, VecDeque};
use std::io::{Error, ErrorKind};
use std::net::ToSocketAddrs;
use std::time::Duration;

/// Cap on one reply frame from the server.
const MAX_REPLY_BYTES: u32 = 1 << 16;

/// A pipelining client connection to one serving endpoint.
#[derive(Debug)]
pub struct QosClient {
    conn: FrameConn,
    /// Every command is formatted through this one buffer.
    text: String,
    pending: usize,
}

impl QosClient {
    /// Connects to a serving endpoint.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<QosClient> {
        Ok(QosClient {
            conn: FrameConn::connect(addr)?,
            text: String::new(),
            pending: 0,
        })
    }

    /// Bounds how long [`QosClient::recv`] waits for a reply.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.conn.set_read_timeout(timeout)
    }

    /// Ships a window of commands in one write without waiting for the
    /// replies, the way a pipelining client with that many requests
    /// ready does — the server sees them as one batch instead of one per
    /// frame. Pair with one [`QosClient::recv`] per command.
    pub fn send(&mut self, commands: &[Command]) -> std::io::Result<()> {
        for command in commands {
            self.text.clear();
            command.write_text(&mut self.text);
            self.conn.write(self.text.as_bytes())?;
        }
        self.conn.flush()?;
        self.pending += commands.len();
        Ok(())
    }

    /// Reads the next pipelined reply, in command order.
    pub fn recv(&mut self) -> std::io::Result<Reply> {
        self.recv_traced().map(|(reply, _)| reply)
    }

    /// [`QosClient::recv`] keeping the serving tier's causal trace id
    /// when the reply carries one — the key into every node's trace ring
    /// for this request's spans. A reply that does not parse is an
    /// [`ErrorKind::InvalidData`] error naming the line.
    pub fn recv_traced(&mut self) -> std::io::Result<(Reply, Option<u64>)> {
        let text = self.conn.read_reply(MAX_REPLY_BYTES)?;
        self.pending = self.pending.saturating_sub(1);
        Reply::parse(&text).map_err(|e| Error::new(ErrorKind::InvalidData, e))
    }

    /// Replies shipped for but not yet read.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// One round trip: command out, reply in.
    pub fn call(&mut self, command: Command) -> std::io::Result<Reply> {
        self.send(&[command])?;
        self.recv()
    }
}

/// Per-tenant outcome counts from [`drive_feed`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DriveStats {
    /// Commands sent.
    pub sent: u64,
    /// Admitted and serviced by the server.
    pub admitted: u64,
    /// Shed with `overloaded`.
    pub shed: u64,
    /// Refused with `err`.
    pub refused: u64,
}

/// Drives `batches` of `(tenant, request)` pairs — a workload feed's
/// `std::iter::from_fn(|| feed.next_batch(n))`, say — against a live
/// server over one pipelined connection, `pipeline_depth` commands in
/// flight, and tallies the replies per tenant. Returns the per-tenant
/// stats, in tenant order.
pub fn drive_feed(
    addr: impl ToSocketAddrs,
    batches: impl IntoIterator<Item = Vec<(u16, Request)>>,
    pipeline_depth: usize,
) -> std::io::Result<BTreeMap<u16, DriveStats>> {
    assert!(pipeline_depth >= 1);
    let mut client = QosClient::connect(addr)?;
    let mut stats: BTreeMap<u16, DriveStats> = BTreeMap::new();
    let mut inflight: VecDeque<u16> = VecDeque::new();
    let tally = |client: &mut QosClient, s: &mut DriveStats| -> std::io::Result<()> {
        match client.recv()? {
            Reply::Overloaded(_) => s.shed += 1,
            Reply::Err(_) => s.refused += 1,
            _ => s.admitted += 1,
        }
        Ok(())
    };
    for batch in batches {
        for (tenant, request) in batch {
            let command = match request {
                Request::Insert { id, window } => Command::Place {
                    tenant: TenantId(tenant),
                    id,
                    window,
                },
                Request::Delete { id } => Command::Remove {
                    tenant: TenantId(tenant),
                    id,
                },
            };
            client.send(&[command])?;
            stats.entry(tenant).or_default().sent += 1;
            inflight.push_back(tenant);
            while inflight.len() >= pipeline_depth {
                let tenant = inflight.pop_front().expect("nonempty");
                tally(&mut client, stats.entry(tenant).or_default())?;
            }
        }
        while let Some(tenant) = inflight.pop_front() {
            tally(&mut client, stats.entry(tenant).or_default())?;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use realloc_core::textio::write_frame;
    use std::net::TcpListener;

    #[test]
    fn a_malformed_reply_is_an_error_naming_the_line() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = QosClient::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        let mut traced = String::new();
        Reply::Placed(realloc_core::JobId(7)).write_traced(Some(99), &mut traced);
        write_frame(&mut server, b"???").unwrap();
        write_frame(&mut server, traced.as_bytes()).unwrap();
        let err = client.recv().expect_err("no reply has this shape");
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "malformed reply '???'");
        // The stream stays in step: the next frame is the next reply.
        assert_eq!(
            client.recv_traced().unwrap(),
            (Reply::Placed(realloc_core::JobId(7)), Some(99))
        );
    }
}
