//! The observability endpoint: a tiny request/response server over the
//! workspace's length-prefixed TCP framing, so any process (or any node
//! of a replicated cluster) can be polled for live metrics.
//!
//! # Wire protocol
//!
//! Both directions carry [`realloc_core::textio::write_frame`] frames (a
//! `u32` big-endian byte count, then the payload). The client sends one
//! command per frame and the server answers with one frame of text;
//! unknown commands get an `err …` line. A connection serves any number
//! of commands (poll on a schedule), and the one-shot
//! [`fetch_metrics`]/[`fetch_trace`] helpers connect, ask once, and
//! disconnect.
//!
//! ```text
//! metrics            → full registry ([`Telemetry::render_text`])
//! metrics <prefix>   → registry filtered to names starting with <prefix>
//! trace              → newest DEFAULT_TRACE_RENDER_CAP ring events
//! trace <n>          → newest <n> ring events
//! health             → "ok …" / "err …" from the node's health check
//!                      ("ok no health check registered" without one)
//! ```
//!
//! # Threading
//!
//! [`ObsServer`] runs on the workspace's one server skeleton,
//! [`realloc_core::net`], reaping pollers silent for
//! [`ObsConfig::read_timeout`]. Handlers only read the registry, so
//! polling never blocks the serving path beyond the per-instrument locks.

use crate::Telemetry;
use realloc_core::net::{AcceptLoop, FrameConn};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// Cap on one command frame (a short verb).
const MAX_COMMAND_BYTES: u32 = 4096;

/// Cap on one response frame (a rendered dump).
const MAX_RESPONSE_BYTES: u32 = 16 << 20;

/// A node-level health probe served under the `health` verb: returns an
/// `ok …` line when the node is healthy and an `err …` line naming what
/// is wrong (failed engine `validate()`, a sticky durability error, a
/// poisoned handler). Runs on the observer connection's thread, so keep
/// it cheap and never let it block on the serving path.
pub type HealthCheck = Arc<dyn Fn() -> String + Send + Sync>;

/// Handler-thread policy for [`ObsServer`] connections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// How long a handler waits for the next command frame before
    /// reaping the connection. A client that connects and goes silent
    /// otherwise pins its detached handler thread (and socket) forever.
    /// `None` disables the timeout (trusted pollers only).
    pub read_timeout: Option<Duration>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            read_timeout: Some(Duration::from_secs(60)),
        }
    }
}

/// Serves one [`Telemetry`]'s registry and trace ring over TCP.
#[derive(Debug)]
pub struct ObsServer {
    accept: AcceptLoop,
}

impl ObsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serves `telemetry` on a background accept loop, with the default
    /// [`ObsConfig`] (silent connections reaped after 60 s).
    pub fn bind(addr: impl ToSocketAddrs, telemetry: Telemetry) -> std::io::Result<ObsServer> {
        Self::bind_with(addr, telemetry, ObsConfig::default())
    }

    /// [`ObsServer::bind`] with an explicit handler policy.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        telemetry: Telemetry,
        config: ObsConfig,
    ) -> std::io::Result<ObsServer> {
        Self::bind_full(addr, telemetry, config, None)
    }

    /// [`ObsServer::bind_with`] plus a node health probe served under
    /// the `health` verb.
    pub fn bind_full(
        addr: impl ToSocketAddrs,
        telemetry: Telemetry,
        config: ObsConfig,
        health: Option<HealthCheck>,
    ) -> std::io::Result<ObsServer> {
        let accept = AcceptLoop::spawn(addr, "obs", config.read_timeout, move |conn| {
            serve_connection(conn, &telemetry, &health)
        })?;
        Ok(ObsServer { accept })
    }

    /// The bound address (poll it with [`ObsClient`] or the fetchers).
    pub fn addr(&self) -> SocketAddr {
        self.accept.addr()
    }

    /// Stops the accept loop and joins it (also on `Drop`).
    pub fn shutdown(&mut self) {
        self.accept.shutdown();
    }
}

/// One connection: read command → render → respond, until disconnect.
fn serve_connection(mut conn: FrameConn, telemetry: &Telemetry, health: &Option<HealthCheck>) {
    loop {
        let payload = match conn.read(MAX_COMMAND_BYTES) {
            Ok(Some(p)) => p,
            // Peer gone — or silent past the read timeout (the error
            // arm is also how a reaped connection exits).
            Ok(None) | Err(_) => return,
        };
        let response = match std::str::from_utf8(&payload).map(str::trim) {
            Ok(command) => dispatch(command, telemetry, health),
            Err(e) => format!("err command is not UTF-8: {e}"),
        };
        if conn.write(response.as_bytes()).is_err() || conn.flush().is_err() {
            return;
        }
    }
}

/// Routes one trimmed command line to its renderer.
fn dispatch(command: &str, telemetry: &Telemetry, health: &Option<HealthCheck>) -> String {
    let (verb, arg) = match command.split_once(char::is_whitespace) {
        Some((v, rest)) => (v, rest.trim()),
        None => (command, ""),
    };
    match (verb, arg) {
        ("metrics", "") => telemetry.render_text(),
        ("metrics", prefix) => telemetry.render_text_filtered(prefix),
        ("trace", "") => telemetry.render_trace(),
        ("trace", n) => match n.parse::<usize>() {
            Ok(n) => telemetry.render_trace_last(n),
            Err(_) => format!("err bad trace limit '{n}' (decimal count)"),
        },
        ("health", "") => match health {
            Some(check) => check(),
            None => "ok no health check registered".to_string(),
        },
        _ => format!(
            "err unknown command '{command}' (expected 'metrics [prefix]', 'trace [n]' or 'health')"
        ),
    }
}

/// A persistent poller connection to one [`ObsServer`].
#[derive(Debug)]
pub struct ObsClient {
    conn: FrameConn,
}

impl ObsClient {
    /// Connects to an [`ObsServer`].
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<ObsClient> {
        Ok(ObsClient {
            conn: FrameConn::connect(addr)?,
        })
    }

    /// Bounds how long one fetch waits for the server's response frame.
    /// Without this, a half-dead server (accepted the connection, never
    /// answers) hangs the poller forever; with it, the fetch surfaces a
    /// timeout [`std::io::Error`] the caller can treat as "unreachable".
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.conn.set_read_timeout(timeout)
    }

    /// Sends one command and returns the response text.
    pub fn fetch(&mut self, command: &str) -> std::io::Result<String> {
        self.conn.write(command.as_bytes())?;
        self.conn.flush()?;
        self.conn.read_reply(MAX_RESPONSE_BYTES)
    }

    /// The registry in Prometheus text format.
    pub fn metrics(&mut self) -> std::io::Result<String> {
        self.fetch("metrics")
    }

    /// The registry filtered to names starting with `prefix`.
    pub fn metrics_filtered(&mut self, prefix: &str) -> std::io::Result<String> {
        self.fetch(&format!("metrics {prefix}"))
    }

    /// The trace ring as text, oldest first (newest-capped; see
    /// [`crate::DEFAULT_TRACE_RENDER_CAP`]).
    pub fn trace(&mut self) -> std::io::Result<String> {
        self.fetch("trace")
    }

    /// The newest `n` trace ring events as text, oldest first.
    pub fn trace_last(&mut self, n: usize) -> std::io::Result<String> {
        self.fetch(&format!("trace {n}"))
    }

    /// The node's health line (`ok …` / `err …`).
    pub fn health(&mut self) -> std::io::Result<String> {
        self.fetch("health")
    }
}

/// One-shot: connect, fetch the metrics dump, disconnect.
pub fn fetch_metrics(addr: impl ToSocketAddrs) -> std::io::Result<String> {
    ObsClient::connect(addr)?.metrics()
}

/// One-shot: connect, fetch the trace dump, disconnect.
pub fn fetch_trace(addr: impl ToSocketAddrs) -> std::io::Result<String> {
    ObsClient::connect(addr)?.trace()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_sample, Clock, Severity};
    use std::net::TcpStream;

    #[test]
    fn serves_metrics_and_trace_over_tcp() {
        let tel = Telemetry::with_clock(Clock::manual(), 16);
        tel.counter("obs_reqs_total").add(21);
        tel.gauge("obs_jobs").set(4);
        tel.histogram("obs_lat_nanos").record(1_000);
        tel.point(Severity::Info, "boot", 1, 2);

        let server = ObsServer::bind("127.0.0.1:0", tel.clone()).unwrap();
        let mut client = ObsClient::connect(server.addr()).unwrap();

        let text = client.metrics().unwrap();
        assert_eq!(parse_sample(&text, "obs_reqs_total"), Some(21));
        assert_eq!(parse_sample(&text, "obs_jobs"), Some(4));
        assert_eq!(parse_sample(&text, "obs_lat_nanos_count"), Some(1));

        // Live: a second poll on the same connection sees new values.
        tel.counter("obs_reqs_total").add(1);
        let text = client.metrics().unwrap();
        assert_eq!(parse_sample(&text, "obs_reqs_total"), Some(22));

        let trace = client.trace().unwrap();
        assert!(trace.contains("info point boot 1 2"), "{trace}");

        let err = client.fetch("bogus").unwrap();
        assert!(err.starts_with("err unknown command"), "{err}");

        // One-shot helpers work too.
        let text = fetch_metrics(server.addr()).unwrap();
        assert_eq!(parse_sample(&text, "obs_reqs_total"), Some(22));
    }

    /// Regression: a client that connects and never sends a frame used
    /// to pin its detached handler thread forever (no read timeout).
    /// With the timeout the handler reaps the connection — observable
    /// from the client side as EOF on its next read.
    #[test]
    fn silent_client_is_reaped_by_read_timeout() {
        use std::io::Read as _;

        let tel = Telemetry::with_clock(Clock::manual(), 4);
        let server = ObsServer::bind_with(
            "127.0.0.1:0",
            tel.clone(),
            ObsConfig {
                read_timeout: Some(Duration::from_millis(50)),
            },
        )
        .unwrap();

        // Connect and go silent. The handler must hang up on us.
        let mut silent = TcpStream::connect(server.addr()).unwrap();
        silent
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 16];
        let n = silent
            .read(&mut buf)
            .expect("server should close, not stall");
        assert_eq!(n, 0, "expected EOF from the reaped handler");

        // The server itself is unharmed: a live poller still works.
        tel.counter("obs_alive_total").add(1);
        let text = fetch_metrics(server.addr()).unwrap();
        assert_eq!(parse_sample(&text, "obs_alive_total"), Some(1));
    }

    #[test]
    fn filtered_metrics_and_capped_trace_verbs() {
        let tel = Telemetry::with_clock(Clock::manual(), 16);
        tel.counter("cluster_frames_total").add(5);
        tel.counter("service_reqs_total").add(9);
        for i in 0..6u64 {
            tel.point(Severity::Debug, "tick", i, 0);
        }

        let server = ObsServer::bind("127.0.0.1:0", tel.clone()).unwrap();
        let mut client = ObsClient::connect(server.addr()).unwrap();

        // `metrics <prefix>` ships only the matching slice…
        let text = client.metrics_filtered("cluster_").unwrap();
        assert_eq!(parse_sample(&text, "cluster_frames_total"), Some(5));
        assert!(!text.contains("service_reqs_total"), "{text}");
        // …while bare `metrics` is unchanged.
        let text = client.metrics().unwrap();
        assert_eq!(parse_sample(&text, "service_reqs_total"), Some(9));

        // `trace <n>` pages the ring; the header reports truncation.
        let trace = client.trace_last(2).unwrap();
        assert!(
            trace.starts_with("# trace: showing 2 of 6 event(s)"),
            "{trace}"
        );
        assert!(trace.contains("tick 5 0"), "{trace}");
        assert!(!trace.contains("tick 3 0"), "{trace}");
        let err = client.fetch("trace banana").unwrap();
        assert!(err.starts_with("err bad trace limit"), "{err}");

        // `health` without a registered probe says so (and is `ok`).
        let health = client.health().unwrap();
        assert_eq!(health, "ok no health check registered");
    }

    #[test]
    fn health_verb_runs_the_registered_probe() {
        use std::sync::Mutex;

        let tel = Telemetry::with_clock(Clock::manual(), 4);
        let status = Arc::new(Mutex::new("ok all well".to_string()));
        let probe_status = Arc::clone(&status);
        let server = ObsServer::bind_full(
            "127.0.0.1:0",
            tel,
            ObsConfig::default(),
            Some(Arc::new(move || probe_status.lock().unwrap().clone())),
        )
        .unwrap();
        let mut client = ObsClient::connect(server.addr()).unwrap();
        assert_eq!(client.health().unwrap(), "ok all well");
        // Live: the probe reflects current node state on every poll.
        *status.lock().unwrap() = "err durability: fsync failed".to_string();
        assert_eq!(client.health().unwrap(), "err durability: fsync failed");
    }

    /// Satellite: a half-dead server — accepts the connection but never
    /// responds — must surface a timeout error to the poller, not hang
    /// it. (The collector turns that error into `unreachable`.)
    #[test]
    fn client_read_timeout_surfaces_io_error_not_a_hang() {
        // A raw listener that accepts and then goes silent.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let keep_alive = std::thread::spawn(move || {
            // Hold the accepted socket open (don't EOF) until the test ends.
            let conn = listener.accept().map(|(s, _)| s);
            std::thread::sleep(Duration::from_secs(2));
            drop(conn);
        });

        let mut client = ObsClient::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let start = std::time::Instant::now();
        let err = client.metrics().expect_err("must time out, not hang");
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "unexpected error kind: {err:?}"
        );
        assert!(start.elapsed() < Duration::from_secs(1), "timed out late");
        keep_alive.join().unwrap();
    }
}
