//! The system under test, assembled only from the repository's public
//! API: `ServiceServer` over an `Engine`, a `DurableStore` on `FsIo`,
//! and a `JournalRelay` pumped into TCP replicas. Identical in every
//! workload except for the parts a workload switches on.

use crate::probe::{IoTallies, PacedIo, SinkTallies, Tally, TimedIo, TimedLink, TimedSink};
use crate::stream::{GAMMA, MACHINES};
use crate::workload::Workload;
use realloc_sched::cluster::{LinkConfig, PrimaryLink, ReplicaServer};
use realloc_sched::engine::FlushMode;
use realloc_sched::{
    BackendKind, Clock, DurabilitySink, DurableStore, Engine, EngineConfig, Frame, FrameSink, FsIo,
    JournalRelay, Payload, RecoverFromDir, Replica, ServiceConfig, ServiceServer, StoreIo,
    Telemetry,
};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A failed step of the harness or a failed correctness check.
pub type Failure = String;

/// Trace ring of a traced run: large enough to hold every event of the
/// traced `rtt` phase (about eight events a request).
const TRACED_RING: usize = 1 << 20;

/// Environment variable naming the CPU the replica servers and their
/// handlers run on, set by `main` when the process may use a second CPU.
/// Replicas are other machines in a deployment: on the serving core
/// their re-execution would be charged to client round trips at the
/// scheduler's whim (run-to-run spreads of 20–25 % on `sat_rps` and
/// `rtt_p50_us`, over 100 % on `open_p50_us`). The primary's own share
/// of replication — poll, frame text, shipping, reading acks — stays on
/// the serving core.
pub const GLUE_CPU: &str = "SERVEBENCH_GLUE_CPU";

/// Moves the calling thread to the CPU [`GLUE_CPU`] names; threads it
/// spawns afterwards inherit the placement. Without the variable (one
/// CPU allowed, or not pinned at all) the thread stays where it is.
fn move_to_glue_cpu() {
    let Ok(cpu) = std::env::var(GLUE_CPU) else {
        return;
    };
    let tid = std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|link| Some(link.file_name()?.to_str()?.to_string()));
    let moved = tid.is_some_and(|tid| {
        std::process::Command::new("taskset")
            .args(["-cp", &cpu, &tid])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .is_ok_and(|s| s.success())
    });
    if !moved {
        eprintln!("servebench: could not move the replicas to CPU {cpu}");
    }
}

/// Binds the replica servers from a thread that has moved to the glue
/// CPU, so their accept loops and connection handlers live there. The
/// relay, the links and the pump stay with the primary.
fn bind_replicas(count: usize) -> Result<Vec<ReplicaServer>, Failure> {
    std::thread::Builder::new()
        .name("replica-setup".to_string())
        .spawn(move || {
            move_to_glue_cpu();
            (0..count)
                .map(|_| {
                    // Each replica is its own node: its own registry.
                    let mut replica = Replica::new();
                    replica.attach_telemetry(&Telemetry::new());
                    ReplicaServer::bind("127.0.0.1:0", replica)
                        .map_err(|e| format!("bind replica: {e}"))
                })
                .collect()
        })
        .map_err(|e| format!("spawn replica setup: {e}"))?
        .join()
        .map_err(|_| "replica setup panicked".to_string())?
}

/// The deployed engine configuration.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        shards: 4,
        machines_per_shard: MACHINES,
        backend: BackendKind::TheoremOne { gamma: GAMMA },
        parallel: false,
        journal: true,
        ..EngineConfig::default()
    }
}

/// The harness-side spans of a traced run.
#[derive(Debug, Default)]
pub struct Probes {
    /// Around `StoreIo`.
    pub io: Arc<IoTallies>,
    /// Around `DurabilitySink`.
    pub sink: Arc<SinkTallies>,
    /// Around `FrameSink::send`, both links together.
    pub ship: Arc<Tally>,
}

/// What the relay pump has seen; shared with the phases.
#[derive(Debug, Default)]
pub struct PumpStats {
    /// Events in frames both replicas have acknowledged.
    pub acked_events: AtomicU64,
    /// Stream frames polled.
    pub frames: AtomicU64,
    /// Time inside `JournalRelay::poll` calls that returned frames.
    pub poll: Tally,
    /// Per frame: `poll` returning it → both links' `acked_seq`
    /// covering it, microseconds.
    pub lag_us: Mutex<Vec<f64>>,
    /// Per frame: last `send` returning → quorum ack, microseconds.
    pub apply_ack_us: Mutex<Vec<f64>>,
}

struct Pending {
    seq: u64,
    events: u64,
    polled_at: Instant,
    sent_at: Instant,
}

type Link = Box<dyn FrameSink + Send>;

fn retire(pending: &mut VecDeque<Pending>, links: &[Link], stats: &PumpStats) {
    let quorum = links
        .iter()
        .map(|l| l.acked_seq().unwrap_or(0))
        .min()
        .unwrap_or(0);
    let now = Instant::now();
    while pending.front().is_some_and(|p| p.seq <= quorum) {
        let p = pending.pop_front().expect("front checked");
        stats.acked_events.fetch_add(p.events, Ordering::SeqCst);
        stats
            .lag_us
            .lock()
            .expect("pump stats poisoned")
            .push((now - p.polled_at).as_nanos() as f64 / 1e3);
        stats
            .apply_ack_us
            .lock()
            .expect("pump stats poisoned")
            .push((now - p.sent_at).as_nanos() as f64 / 1e3);
    }
}

/// The pump: ships every polled frame to every link and retires frames
/// as the quorum (all links) acknowledges them. System glue, not load.
fn pump(
    mut relay: JournalRelay,
    mut links: Vec<Link>,
    stop: Arc<AtomicBool>,
    stats: Arc<PumpStats>,
) -> Result<(), Failure> {
    let mut pending: VecDeque<Pending> = VecDeque::new();
    loop {
        // Read the flag before polling: a stop requested after the last
        // client reply must still ship what that reply's flush recorded.
        let stopping = stop.load(Ordering::SeqCst);
        let poll_started = Instant::now();
        let frames = relay.poll();
        let polled_at = Instant::now();
        if !frames.is_empty() {
            stats.poll.record(polled_at - poll_started);
        }
        for frame in &frames {
            let events = match &frame.payload {
                Payload::Events(events) => events.len() as u64,
                _ => 0,
            };
            stats.frames.fetch_add(1, Ordering::Relaxed);
            for link in &mut links {
                link.send(frame).map_err(|e| format!("ship: {e}"))?;
            }
            pending.push_back(Pending {
                seq: frame.seq,
                events,
                polled_at,
                sent_at: Instant::now(),
            });
            retire(&mut pending, &links, &stats);
        }
        if frames.is_empty() {
            if let Some(oldest) = pending.front() {
                let seq = oldest.seq;
                for link in &mut links {
                    link.drain_to(seq).map_err(|e| format!("drain: {e}"))?;
                }
                retire(&mut pending, &links, &stats);
            } else if stopping {
                return Ok(());
            } else {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }
}

/// Replication: the replicas and the pump thread feeding them.
#[derive(Debug)]
pub struct Replication {
    servers: Vec<ReplicaServer>,
    pump: Option<JoinHandle<Result<(), Failure>>>,
    stop: Arc<AtomicBool>,
    /// Shared with the phases.
    pub stats: Arc<PumpStats>,
}

impl Replication {
    /// The replicas' addresses: the label the primary-side registry
    /// keeps each link's stall counter and ack batch sizes under.
    pub fn replica_addrs(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(ReplicaServer::addr).collect()
    }

    /// Blocks until the quorum has acknowledged `engine_events` events
    /// (the relay started on a fresh engine, so that is every event the
    /// journal holds).
    pub fn wait_quorum(&self, engine_events: u64, within: Duration) -> Result<(), Failure> {
        let deadline = Instant::now() + within;
        while self.stats.acked_events.load(Ordering::SeqCst) < engine_events {
            if self.pump.as_ref().is_some_and(|p| p.is_finished()) {
                return Err("relay pump stopped early".to_string());
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "quorum acked {} of {engine_events} events within {within:?}",
                    self.stats.acked_events.load(Ordering::SeqCst)
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }

    /// Stops the pump after it has drained, returning each replica's
    /// `state_digest`.
    fn stop(&mut self) -> Result<Vec<u64>, Failure> {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(pump) = self.pump.take() {
            pump.join()
                .map_err(|_| "relay pump panicked".to_string())??;
        }
        let mut digests = Vec::new();
        for server in &mut self.servers {
            let replica = server.replica();
            let replica = replica.lock().map_err(|_| "replica lock poisoned")?;
            replica.validate()?;
            digests.push(replica.state_digest().ok_or("replica never bootstrapped")?);
            drop(replica);
            server.shutdown();
        }
        Ok(digests)
    }
}

/// Harness-triggered checkpoints: one every `every` acked mutations.
#[derive(Debug)]
struct Checkpointer {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Result<(), Failure>>>,
}

/// The running system.
#[derive(Debug)]
pub struct System {
    /// The primary node's registry (engine, store, service, relay, links).
    pub telemetry: Telemetry,
    server: Option<ServiceServer>,
    /// The shared engine.
    pub engine: Arc<Mutex<Engine>>,
    /// The store directory, when the workload is durable.
    pub store_dir: Option<PathBuf>,
    /// Replication, when the workload has replicas.
    pub replication: Option<Replication>,
    /// Harness spans, in a traced run.
    pub probes: Option<Arc<Probes>>,
    /// Mutations acknowledged to clients; drives the checkpoint cadence.
    pub acked: Arc<AtomicU64>,
    /// Held by whoever checkpoints or copies the store directory, so the
    /// crash-image copy never races a segment roll.
    pub store_gate: Arc<Mutex<()>>,
    checkpointer: Option<Checkpointer>,
}

fn service_config(workload: &Workload, traced: bool) -> ServiceConfig {
    ServiceConfig {
        flush: if workload.durable {
            FlushMode::Durable
        } else {
            FlushMode::Immediate
        },
        trace_sample_every: u64::from(traced),
        ..ServiceConfig::default()
    }
}

/// The deployed store's disk: `FsIo` behind [`PacedIo`] in every run; a
/// traced run times the raw calls underneath and the pacing on top.
fn store_io(probes: Option<&Arc<Probes>>) -> Arc<dyn StoreIo> {
    match probes {
        Some(p) => Arc::new(PacedIo::new(
            Arc::new(TimedIo::new(Arc::new(FsIo), Arc::clone(&p.io))),
            Some(Arc::clone(&p.io)),
        )),
        None => Arc::new(PacedIo::new(Arc::new(FsIo), None)),
    }
}

fn sink(store: DurableStore, probes: Option<&Arc<Probes>>) -> Box<dyn DurabilitySink> {
    match probes {
        Some(p) => Box::new(TimedSink::new(Box::new(store), Arc::clone(&p.sink))),
        None => Box::new(store),
    }
}

impl System {
    /// Builds, binds and (for replicated workloads) bootstraps the
    /// replicas. `dir` is this system's private directory under the
    /// benchmark's `out/`; it must not exist yet.
    pub fn start(workload: &Workload, dir: &Path, traced: bool) -> Result<System, Failure> {
        let telemetry = if traced {
            Telemetry::with_clock(Clock::monotonic(), TRACED_RING)
        } else {
            Telemetry::new()
        };
        let probes = traced.then(|| Arc::new(Probes::default()));
        let mut engine = Engine::new(engine_config());
        engine.attach_telemetry(&telemetry);
        let store_dir = workload.durable.then(|| dir.join("store"));
        if let Some(store_dir) = &store_dir {
            let journal = engine.journal().expect("journal enabled");
            let mut store =
                DurableStore::create(store_io(probes.as_ref()), store_dir, journal.config())
                    .map_err(|e| format!("create store: {e}"))?;
            store.attach_telemetry(&telemetry);
            engine.attach_durability(sink(store, probes.as_ref()))?;
        }
        let server = ServiceServer::bind(
            "127.0.0.1:0",
            engine,
            service_config(workload, traced),
            &telemetry,
        )
        .map_err(|e| format!("bind service: {e}"))?;
        let engine = server.engine();

        let replication = if workload.replicas > 0 {
            Some(Self::start_replication(
                workload,
                &engine,
                &telemetry,
                probes.as_ref(),
            )?)
        } else {
            None
        };
        Ok(System {
            telemetry,
            server: Some(server),
            engine,
            store_dir,
            replication,
            probes,
            acked: Arc::new(AtomicU64::new(0)),
            store_gate: Arc::new(Mutex::new(())),
            checkpointer: None,
        })
    }

    fn start_replication(
        workload: &Workload,
        engine: &Arc<Mutex<Engine>>,
        telemetry: &Telemetry,
        probes: Option<&Arc<Probes>>,
    ) -> Result<Replication, Failure> {
        let mut relay =
            JournalRelay::new(Arc::clone(engine), 1).map_err(|e| format!("relay: {e}"))?;
        relay.attach_telemetry(telemetry);
        let (owed, boot): (Vec<Frame>, Frame) =
            relay.bootstrap().map_err(|e| format!("bootstrap: {e}"))?;
        if !owed.is_empty() {
            return Err("a fresh engine owes the stream no frames".to_string());
        }
        let servers = bind_replicas(workload.replicas)?;
        let mut links: Vec<Link> = Vec::new();
        for server in &servers {
            let mut link = PrimaryLink::connect_with(server.addr(), LinkConfig::default())
                .map_err(|e| format!("connect replica: {e}"))?;
            link.attach_telemetry(telemetry);
            link.send(&boot)
                .map_err(|e| format!("ship snapshot: {e}"))?;
            link.drain().map_err(|e| format!("ack snapshot: {e}"))?;
            links.push(match probes {
                Some(p) => Box::new(TimedLink::new(link, Arc::clone(&p.ship))),
                None => Box::new(link),
            });
        }
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(PumpStats::default());
        let (pump_stop, pump_stats) = (Arc::clone(&stop), Arc::clone(&stats));
        let handle = std::thread::Builder::new()
            .name("relay-pump".to_string())
            .spawn(move || pump(relay, links, pump_stop, pump_stats))
            .map_err(|e| format!("spawn pump: {e}"))?;
        Ok(Replication {
            servers,
            pump: Some(handle),
            stop,
            stats,
        })
    }

    /// Where clients connect.
    pub fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("system is serving").addr()
    }

    /// Locks the shared engine.
    pub fn engine(&self) -> std::sync::MutexGuard<'_, Engine> {
        self.engine.lock().expect("engine lock poisoned")
    }

    /// One checkpoint, now, failing on a durability error.
    pub fn checkpoint(&self) -> Result<(), Failure> {
        let _gate = self.store_gate.lock().expect("store gate poisoned");
        checkpoint_engine(&self.engine)
    }

    /// Starts the background cadence: a checkpoint every `every` acked
    /// mutations (the harness triggers them; the program never does).
    pub fn start_checkpoints(&mut self, every: u64) {
        let stop = Arc::new(AtomicBool::new(false));
        let (engine, acked, gate, thread_stop) = (
            Arc::clone(&self.engine),
            Arc::clone(&self.acked),
            Arc::clone(&self.store_gate),
            Arc::clone(&stop),
        );
        let handle = std::thread::Builder::new()
            .name("checkpointer".to_string())
            .spawn(move || {
                let mut last = acked.load(Ordering::SeqCst);
                while !thread_stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(2));
                    let now = acked.load(Ordering::SeqCst);
                    if now - last >= every {
                        let _gate = gate.lock().expect("store gate poisoned");
                        checkpoint_engine(&engine)?;
                        last = now;
                    }
                }
                Ok(())
            })
            .expect("spawn checkpointer");
        self.checkpointer = Some(Checkpointer {
            stop,
            handle: Some(handle),
        });
    }

    fn stop_checkpoints(&mut self) -> Result<(), Failure> {
        if let Some(mut c) = self.checkpointer.take() {
            c.stop.store(true, Ordering::SeqCst);
            if let Some(h) = c.handle.take() {
                h.join()
                    .map_err(|_| "checkpointer panicked".to_string())??;
            }
        }
        Ok(())
    }

    /// Events the engine's journal has recorded since genesis.
    fn journal_events(&self) -> u64 {
        self.engine()
            .journal()
            .expect("journal enabled")
            .total_events()
    }

    /// Waits for the quorum to cover everything recorded so far (no-op
    /// without replicas).
    pub fn wait_quorum(&self) -> Result<(), Failure> {
        match &self.replication {
            Some(r) => r.wait_quorum(self.journal_events(), Duration::from_secs(60)),
            None => Ok(()),
        }
    }

    /// Stops serving and checks the final state: `Engine::validate`,
    /// no durability error, replica digests equal to the primary's.
    /// Client connections must already be closed. Returns the primary's
    /// `state_digest`.
    pub fn stop(mut self) -> Result<u64, Failure> {
        self.stop_checkpoints()?;
        if let Some(mut server) = self.server.take() {
            server.shutdown();
        }
        let replica_digests = match self.replication.take() {
            Some(mut r) => r.stop()?,
            None => Vec::new(),
        };
        let engine = self.engine();
        engine.validate().map_err(|e| format!("validate: {e}"))?;
        if let Some(e) = engine.durability_error() {
            return Err(format!("durability error: {e}"));
        }
        let digest = engine.state_digest();
        for (i, d) in replica_digests.iter().enumerate() {
            if *d != digest {
                return Err(format!(
                    "replica {i} digest {d:#x} differs from the primary's {digest:#x}"
                ));
            }
        }
        Ok(digest)
    }

    /// Restarts from the store directory alone, the way a crashed node
    /// would: recover, reopen the store, re-attach, bind. The caller
    /// times it. `self`'s parts other than the directory are gone.
    pub fn restart(workload: &Workload, store_dir: &Path) -> Result<System, Failure> {
        let mut engine =
            Engine::recover_from_dir(store_dir).map_err(|e| format!("recover: {e}"))?;
        let (mut store, _report) = DurableStore::open(store_io(None), store_dir)
            .map_err(|e| format!("reopen store: {e}"))?;
        let telemetry = Telemetry::new();
        store.attach_telemetry(&telemetry);
        engine.attach_telemetry(&telemetry);
        engine.attach_durability(Box::new(store))?;
        let server = ServiceServer::bind(
            "127.0.0.1:0",
            engine,
            service_config(workload, false),
            &telemetry,
        )
        .map_err(|e| format!("bind service: {e}"))?;
        let engine = server.engine();
        Ok(System {
            telemetry,
            server: Some(server),
            engine,
            store_dir: Some(store_dir.to_path_buf()),
            replication: None,
            probes: None,
            acked: Arc::new(AtomicU64::new(0)),
            store_gate: Arc::new(Mutex::new(())),
            checkpointer: None,
        })
    }

    /// Whether this is a traced run's system.
    pub fn traced(&self) -> bool {
        self.probes.is_some()
    }
}

fn checkpoint_engine(engine: &Arc<Mutex<Engine>>) -> Result<(), Failure> {
    let mut engine = engine.lock().expect("engine lock poisoned");
    if !engine.checkpoint() {
        return Err("checkpoint refused: journal disabled".to_string());
    }
    match engine.durability_error() {
        Some(e) => Err(format!("checkpoint did not persist: {e}")),
        None => Ok(()),
    }
}
