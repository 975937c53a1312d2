//! TCP client driver for the serving tier (`realloc-service`).
//!
//! Speaks the service's text protocol directly over the workspace's
//! length-prefixed framing, so the workloads crate can drive a live
//! server without depending on it (the service crate depends on the
//! engine, which dev-depends on this crate — the client lives here,
//! below both). One command per frame, one response frame per command;
//! commands may be pipelined (send several, then read the responses in
//! order).
//!
//! # Commands
//!
//! ```text
//! place <tenant> <id> <start> <end>   → ok placed <global>
//! remove <tenant> <id>                → ok removed <global>
//! window <tenant> <id>                → ok window <start> <end> | ok window none
//! metrics                             → ok metrics requests=… failed=… active=… epoch=… shards=…
//! any, when shedding                  → overloaded <retry_after_ms>
//! any, on a malformed/refused input   → err <detail>
//! ```

use crate::feed::TenantFeed;
use realloc_core::textio::{read_frame, write_frame};
use realloc_core::Request;
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Cap on one response frame from the server.
const MAX_RESPONSE_BYTES: u32 = 1 << 16;

/// One parsed server response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QosResponse {
    /// The request was admitted and serviced; carries the global job id.
    Placed(u64),
    /// The removal was admitted and serviced; carries the global job id.
    Removed(u64),
    /// The job's original window.
    Window(u64, u64),
    /// The job is not active (unknown or already removed).
    WindowNone,
    /// Engine counters at the time of the poll.
    Metrics {
        /// Requests processed since boot.
        requests: u64,
        /// Requests that failed validation or capacity.
        failed: u64,
        /// Jobs currently scheduled.
        active: u64,
        /// Reallocation epoch.
        epoch: u64,
        /// Shard count.
        shards: u64,
    },
    /// Shed by QoS; retry after the given backoff.
    Overloaded {
        /// Server-suggested backoff before retrying.
        retry_after_ms: u64,
    },
    /// Refused with a reason (malformed command, bad tenant, engine
    /// failure code, …).
    Refused(String),
}

impl QosResponse {
    /// Parses one response line. Unrecognized shapes become
    /// [`QosResponse::Refused`] with the raw line as the reason. A
    /// ` trace <id>` annotation on an admitted reply (traced serving
    /// tier) is stripped; use [`QosResponse::parse_traced`] to keep it.
    pub fn parse(line: &str) -> QosResponse {
        Self::parse_traced(line).0
    }

    /// [`QosResponse::parse`] that also returns the serving tier's
    /// causal trace id when the reply carries a ` trace <id>` suffix —
    /// the key into every node's trace ring for this request's spans.
    /// Only admitted-mutation shapes (`placed`/`removed`) are
    /// ever annotated; the suffix is not stripped from other shapes
    /// (an `err` reason legitimately containing the words stays whole).
    pub fn parse_traced(line: &str) -> (QosResponse, Option<u64>) {
        let line = line.trim();
        if let Some(pos) = line.rfind(" trace ") {
            let tail = &line[pos + " trace ".len()..];
            if let Ok(id) = tail.parse::<u64>() {
                if id != 0 {
                    let r = Self::parse_core(line[..pos].trim());
                    if matches!(r, QosResponse::Placed(_) | QosResponse::Removed(_)) {
                        return (r, Some(id));
                    }
                }
            }
        }
        (Self::parse_core(line), None)
    }

    fn parse_core(line: &str) -> QosResponse {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let num = |s: &&str| s.parse::<u64>().ok();
        match fields.as_slice() {
            ["ok", "placed", id] if num(id).is_some() => QosResponse::Placed(num(id).unwrap()),
            ["ok", "removed", id] if num(id).is_some() => QosResponse::Removed(num(id).unwrap()),
            ["ok", "window", "none"] => QosResponse::WindowNone,
            ["ok", "window", s, e] if num(s).is_some() && num(e).is_some() => {
                QosResponse::Window(num(s).unwrap(), num(e).unwrap())
            }
            ["ok", "metrics", rest @ ..] => {
                let mut kv = BTreeMap::new();
                for f in rest {
                    if let Some((k, v)) = f.split_once('=') {
                        if let Ok(v) = v.parse::<u64>() {
                            kv.insert(k, v);
                        }
                    }
                }
                let get = |k: &str| kv.get(k).copied().unwrap_or(0);
                QosResponse::Metrics {
                    requests: get("requests"),
                    failed: get("failed"),
                    active: get("active"),
                    epoch: get("epoch"),
                    shards: get("shards"),
                }
            }
            ["overloaded", ms] if num(ms).is_some() => QosResponse::Overloaded {
                retry_after_ms: num(ms).unwrap(),
            },
            ["err", ..] => QosResponse::Refused(line["err".len()..].trim().to_string()),
            _ => QosResponse::Refused(line.to_string()),
        }
    }

    /// Whether the command was admitted past QoS (any `ok …` shape).
    pub fn admitted(&self) -> bool {
        !matches!(
            self,
            QosResponse::Overloaded { .. } | QosResponse::Refused(_)
        )
    }
}

/// A pipelining client connection to one service endpoint.
#[derive(Debug)]
pub struct QosClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    pending: usize,
}

impl QosClient {
    /// Connects to a serving endpoint.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<QosClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let write_half = stream.try_clone()?;
        Ok(QosClient {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
            pending: 0,
        })
    }

    /// Bounds how long [`QosClient::recv`] waits for a response.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Ships one raw command frame without waiting for the response
    /// (pipelining); pair with [`QosClient::recv`].
    pub fn send_raw(&mut self, command: &str) -> std::io::Result<()> {
        self.send_window(&[command])
    }

    /// Ships a whole window of raw command frames in one write, the way
    /// a pipelining client with that many requests ready does — the
    /// server sees them as one batch instead of one per frame. Pair with
    /// one [`QosClient::recv`] per command.
    pub fn send_window<S: AsRef<str>>(&mut self, commands: &[S]) -> std::io::Result<()> {
        for command in commands {
            write_frame(&mut self.writer, command.as_ref().as_bytes())?;
        }
        self.writer.flush()?;
        self.pending += commands.len();
        Ok(())
    }

    /// Ships one request on behalf of `tenant` (pipelined).
    pub fn send_request(&mut self, tenant: u16, request: &Request) -> std::io::Result<()> {
        let cmd = match request {
            Request::Insert { id, window } => format!(
                "place {tenant} {} {} {}",
                id.0,
                window.start(),
                window.end()
            ),
            Request::Delete { id } => format!("remove {tenant} {}", id.0),
        };
        self.send_raw(&cmd)
    }

    /// Reads the next pipelined response, in command order.
    pub fn recv(&mut self) -> std::io::Result<QosResponse> {
        self.recv_traced().map(|(r, _)| r)
    }

    /// [`QosClient::recv`] keeping the serving tier's causal trace id
    /// when the reply was annotated ([`QosResponse::parse_traced`]).
    pub fn recv_traced(&mut self) -> std::io::Result<(QosResponse, Option<u64>)> {
        let Some(payload) = read_frame(&mut self.reader, MAX_RESPONSE_BYTES)? else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed with responses pending",
            ));
        };
        self.pending = self.pending.saturating_sub(1);
        let text = String::from_utf8(payload).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("response is not UTF-8: {e}"),
            )
        })?;
        Ok(QosResponse::parse_traced(&text))
    }

    /// Responses shipped but not yet read.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// One round trip: command out, response in.
    pub fn call(&mut self, command: &str) -> std::io::Result<QosResponse> {
        self.send_raw(command)?;
        self.recv()
    }

    /// Places a job: `place <tenant> <id> <start> <end>`.
    pub fn place(
        &mut self,
        tenant: u16,
        id: u64,
        start: u64,
        end: u64,
    ) -> std::io::Result<QosResponse> {
        self.call(&format!("place {tenant} {id} {start} {end}"))
    }

    /// Removes a job: `remove <tenant> <id>`.
    pub fn remove(&mut self, tenant: u16, id: u64) -> std::io::Result<QosResponse> {
        self.call(&format!("remove {tenant} {id}"))
    }

    /// Looks up a job's original window: `window <tenant> <id>`.
    pub fn window(&mut self, tenant: u16, id: u64) -> std::io::Result<QosResponse> {
        self.call(&format!("window {tenant} {id}"))
    }

    /// Polls engine counters: `metrics`.
    pub fn metrics(&mut self) -> std::io::Result<QosResponse> {
        self.call("metrics")
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

/// Drives a [`TenantFeed`] against a live server over one pipelined
/// connection: each batch is shipped window-at-a-time (`pipeline_depth`
/// commands in flight), responses tallied per tenant. Returns the
/// per-tenant stats, in tenant order.
pub fn drive_feed(
    addr: impl ToSocketAddrs,
    feed: &mut TenantFeed,
    per_tenant: usize,
    batches: usize,
    pipeline_depth: usize,
) -> std::io::Result<BTreeMap<u16, DriveStats>> {
    assert!(pipeline_depth >= 1);
    let mut client = QosClient::connect(addr)?;
    let mut stats: BTreeMap<u16, DriveStats> = BTreeMap::new();
    let tally = |s: &mut DriveStats, r: &QosResponse| {
        if r.admitted() {
            s.admitted += 1;
        } else if matches!(r, QosResponse::Overloaded { .. }) {
            s.shed += 1;
        } else {
            s.refused += 1;
        }
    };
    for _ in 0..batches {
        let Some(batch) = feed.next_batch(per_tenant) else {
            break;
        };
        let mut inflight: std::collections::VecDeque<u16> = std::collections::VecDeque::new();
        for (tenant, request) in &batch {
            client.send_request(*tenant, request)?;
            stats.entry(*tenant).or_default().sent += 1;
            inflight.push_back(*tenant);
            while inflight.len() >= pipeline_depth {
                let t = inflight.pop_front().expect("nonempty");
                let r = client.recv()?;
                tally(stats.entry(t).or_default(), &r);
            }
        }
        while let Some(t) = inflight.pop_front() {
            let r = client.recv()?;
            tally(stats.entry(t).or_default(), &r);
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_annotations_parse_and_strip() {
        assert_eq!(
            QosResponse::parse_traced("ok placed 7 trace 99"),
            (QosResponse::Placed(7), Some(99))
        );
        assert_eq!(
            QosResponse::parse_traced("ok removed 3 trace 12345"),
            (QosResponse::Removed(3), Some(12345))
        );
        // `parse` strips the suffix, so tallies stay correct under tracing.
        assert_eq!(
            QosResponse::parse("ok removed 7 trace 99"),
            QosResponse::Removed(7)
        );
        // Untraced replies pass through; id 0 is the untraced sentinel;
        // and non-admitted shapes keep the words (an err reason is never
        // mistaken for an annotation).
        assert_eq!(
            QosResponse::parse_traced("ok placed 7"),
            (QosResponse::Placed(7), None)
        );
        assert_eq!(
            QosResponse::parse_traced("ok placed 7 trace 0"),
            (
                QosResponse::Refused("ok placed 7 trace 0".to_string()),
                None
            )
        );
        assert_eq!(
            QosResponse::parse_traced("err lost trace 5"),
            (QosResponse::Refused("lost trace 5".to_string()), None)
        );
    }

    #[test]
    fn responses_parse_shapes_and_admission() {
        assert_eq!(QosResponse::parse("ok placed 7"), QosResponse::Placed(7));
        assert_eq!(QosResponse::parse("ok removed 7"), QosResponse::Removed(7));
        assert_eq!(
            QosResponse::parse("ok window 10 14"),
            QosResponse::Window(10, 14)
        );
        assert_eq!(
            QosResponse::parse("ok window none"),
            QosResponse::WindowNone
        );
        assert_eq!(
            QosResponse::parse("ok metrics requests=5 failed=1 active=4 epoch=2 shards=8"),
            QosResponse::Metrics {
                requests: 5,
                failed: 1,
                active: 4,
                epoch: 2,
                shards: 8
            }
        );
        assert_eq!(
            QosResponse::parse("overloaded 250"),
            QosResponse::Overloaded {
                retry_after_ms: 250
            }
        );
        assert_eq!(
            QosResponse::parse("err duplicate"),
            QosResponse::Refused("duplicate".to_string())
        );
        assert!(QosResponse::parse("ok placed 7").admitted());
        assert!(!QosResponse::parse("overloaded 250").admitted());
        assert!(!QosResponse::parse("err nope").admitted());
        // Garbage degrades to Refused, never a panic.
        assert!(matches!(QosResponse::parse("???"), QosResponse::Refused(_)));
        assert!(matches!(
            QosResponse::parse("ok placed banana"),
            QosResponse::Refused(_)
        ));
    }
}
