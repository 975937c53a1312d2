//! The serving loop: per-connection pipelined batching, QoS in front
//! of the engine, one reply frame per command in command order.
//!
//! # Threading
//!
//! [`ServiceServer`] runs on the workspace's one server skeleton,
//! [`realloc_core::net`], reaping clients silent for
//! [`ServiceConfig::read_timeout`]. Handlers share the engine behind one
//! mutex: a batch holds the lock for its submits, one flush and its own
//! reads, so client batches interleave with embedder calls (`rebalance`,
//! `resize`, checkpoints) at batch granularity and a rebalance never
//! tears an admitted batch.
//!
//! # Durable batches: the lock is not held across the fsync
//!
//! Every batch goes through the engine's one flush door,
//! [`Engine::flush_mode`], with the configured [`FlushMode`]. Under
//! [`FlushMode::Durable`] the door only *stages*: with the lock held the
//! batch drains, journals, appends to the store and takes a
//! [`CommitTicket`], and evaluates its reads. Then it drops the lock,
//! *waits* on the ticket, and only then replies. While one connection
//! waits for the disk the others submit, flush and append, and whichever
//! reaches the store next leads the next sync for all of them; embedder
//! calls and a relay's `poll` never queue behind a sync.
//!
//! The store's leader does not sync the moment it can. Pipelining
//! connections answer a sync's replies with their next windows a moment
//! *after* it returned — so a leader that went at once would always
//! carry one connection's window and leave the other's to wait a whole
//! sync, the two alternating for ever. It waits instead (less than one
//! sync, sized by what the last sync covered and took; see
//! `realloc_store::store`) until the connections that sync released
//! have staged again, and one fsync answers every busy connection's
//! window. Nothing here takes part: the handler stages, drops the lock
//! and waits on its ticket exactly as before, `unsettled` orders tickets
//! whichever sync settles them, and a lone connection at depth 1 is
//! never made to wait.
//!
//! One connection pipelining deeper than [`ServiceConfig::max_batch`]
//! is double-buffered instead: a batch that filled `max_batch` and holds
//! a ticket may have a successor already buffered, and the handler
//! drains and stages that successor — at most `max_batch` more
//! commands, under a lock hold of their own — *before* it waits. The
//! first wait's fsync then covers both appends, the second wait returns
//! at once, and the two batches are answered in command order: a bulk
//! load pays one fsync per two batches, not one per batch. At most two
//! batches of a connection are ever staged and unanswered, so its
//! buffered commands and admission guards stay within `2 × max_batch`.
//! Every other batch — short of `max_batch`, under
//! [`FlushMode::Immediate`], or read-only with nothing to wait for — is
//! finished before the next one is read. The successor's reads follow
//! the rule below: a read of a job its predecessor placed finds that job
//! in `unsettled` and waits for the same commit.
//!
//! Reads never observe state that is not yet durable. A read that rides
//! with mutations is answered after their ticket's wait, which covers
//! everything appended before it. A read-only batch looks its jobs up in
//! the set of jobs that staged, still uncommitted batches have mutated
//! (`Shared::unsettled`): a hit — or a `metrics` read, which reflects
//! every job — takes a ticket for whatever was appended before it read
//! ([`Engine::commit_barrier`]) and waits on that; a miss reports state
//! that is already durable and is answered at once.
//!
//! A wait that fails re-locks the engine once to latch the sticky
//! [`Engine::durability_error`] and answers every admitted mutation of
//! the batch `err durability: …`; the batch's reads still answer. A
//! double-buffered successor's wait then fails too, and is answered the
//! same way. [`FlushMode::Immediate`] batches get no ticket and do
//! everything under the lock.
//!
//! A poisoned shared mutex — the engine's or `unsettled`, after some
//! handler panicked holding it — ends the connection that finds it with
//! an error, never the process with a panic.
//!
//! # Batching
//!
//! A handler blocks for the first command frame, then drains whatever
//! complete frames are already buffered (up to
//! [`ServiceConfig::max_batch`]) into one engine flush — pipelining
//! clients get one lock acquisition and one flush per wire burst, the
//! same shape as the cluster's replication batches. A durable batch that
//! filled `max_batch` drains one more batch the same way before it
//! waits (the double buffer above), so a connection has at most
//! `2 × max_batch` commands staged and unanswered.

use crate::proto::{Command, Reply};
use crate::qos::{AdmitGuard, Qos};
use crate::tele::{ServiceTele, TenantTele};
use realloc_core::clock::Clock;
use realloc_core::net::{AcceptLoop, Buffered, FrameConn};
use realloc_core::{JobId, Request};
use realloc_engine::{CommitTicket, Engine, FlushMode, TenantId};
use realloc_telemetry::{Severity, Telemetry, TraceCtx};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Cap on one command frame (a short text line).
const MAX_COMMAND_BYTES: u32 = 4096;

/// Service endpoint policy.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Admission policy (rate limits, cap, shed hint).
    pub qos: crate::qos::QosConfig,
    /// Handler read timeout: how long a connection may sit silent
    /// before it is reaped. `None` disables reaping (trusted clients).
    pub read_timeout: Option<Duration>,
    /// Most commands serviced under one engine lock hold (one flush);
    /// frames beyond this form the next batch. Treated as at least 1.
    /// Under [`FlushMode::Durable`] a connection may have two such
    /// batches staged before it waits (see the module docs).
    pub max_batch: usize,
    /// How batches are flushed. Both modes answer every mutation with
    /// its outcome: [`FlushMode::Immediate`] at once,
    /// [`FlushMode::Durable`] after group-committing to the attached
    /// store — staged under the engine lock, waited for with the lock
    /// released (see the module docs).
    pub flush: FlushMode,
    /// Causal-trace sampling: every Nth batch that admits a mutation
    /// mints a [`realloc_telemetry::TraceCtx`] at receipt, threads it
    /// through the engine flush (and, when the engine is replicated,
    /// onto the shipped frame as an out-of-band annotation), and
    /// suffixes the admitted replies with ` trace <id>` so the client
    /// can correlate its request with every node's trace ring. `0`
    /// disables tracing (the default); `1` traces every batch. Needs
    /// enabled telemetry to have any effect.
    pub trace_sample_every: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            qos: crate::qos::QosConfig::default(),
            read_timeout: Some(Duration::from_secs(60)),
            max_batch: 128,
            flush: FlushMode::Immediate,
            trace_sample_every: 0,
        }
    }
}

/// What the handler shares across connections.
struct Shared {
    engine: Arc<Mutex<Engine>>,
    qos: Qos,
    tele: Option<Arc<ServiceTele>>,
    clock: Clock,
    config: ServiceConfig,
    /// Monotone batch counter driving trace sampling (and salting the
    /// minted ids, so two batches in the same nanosecond still differ).
    trace_seq: AtomicU64,
    /// [`FlushMode::Durable`] only: the jobs that staged batches have
    /// mutated and whose commit has not returned yet, each with the
    /// ticket count that covers it. A read of one of them must not be
    /// answered before that commit is. Taken with the engine lock held
    /// (to add and to look up) or with no other lock (to remove).
    unsettled: Mutex<Vec<(JobId, u64)>>,
}

impl Shared {
    fn new(engine: Arc<Mutex<Engine>>, config: ServiceConfig, telemetry: &Telemetry) -> Shared {
        let clock = telemetry.clock().unwrap_or_else(Clock::monotonic);
        Shared {
            engine,
            qos: Qos::new(config.qos.clone(), clock.clone()),
            tele: ServiceTele::build(telemetry),
            clock,
            config,
            trace_seq: AtomicU64::new(0),
            unsettled: Mutex::new(Vec::new()),
        }
    }
}

/// The serving front-end: owns the accept loop and the shared engine.
pub struct ServiceServer {
    engine: Arc<Mutex<Engine>>,
    accept: AcceptLoop,
}

impl ServiceServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves `engine` under
    /// `config`. Service instruments register in `telemetry` when it is
    /// enabled (pair with an `ObsServer` on the same registry to scrape
    /// per-tenant latencies during a run).
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: Engine,
        config: ServiceConfig,
        telemetry: &Telemetry,
    ) -> std::io::Result<ServiceServer> {
        let engine = Arc::new(Mutex::new(engine));
        let shared = Shared::new(Arc::clone(&engine), config, telemetry);
        let accept = AcceptLoop::spawn(addr, "service", shared.config.read_timeout, move |conn| {
            serve_connection(conn, &shared)
        })?;
        Ok(ServiceServer { engine, accept })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.accept.addr()
    }

    /// The shared engine — lock it for embedder operations
    /// (`rebalance`, `resize`, `checkpoint`, validation). Handlers hold
    /// the lock per batch — never across a durable batch's fsync — so
    /// embedder calls interleave at batch granularity. Under
    /// [`FlushMode::Durable`] what the lock shows may be staged and not
    /// yet stable: take [`Engine::commit_barrier`] and wait on it
    /// (unlocked) before relying on it surviving a crash.
    pub fn engine(&self) -> Arc<Mutex<Engine>> {
        Arc::clone(&self.engine)
    }

    /// Stops the accept loop and joins it (also on `Drop`). Live
    /// connection handlers finish their current peers' streams and exit
    /// on disconnect or read timeout.
    pub fn shutdown(&mut self) {
        self.accept.shutdown();
    }
}

impl std::fmt::Debug for ServiceServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceServer")
            .field("addr", &self.addr())
            .finish_non_exhaustive()
    }
}

/// One connection: block for a command (bounded by the read timeout),
/// batch up whatever else is buffered, stage the batch under one engine
/// lock hold, then finish it — a durable batch commits with the lock
/// released — and reply in command order. A full durable batch stages
/// the next one before it waits, if that one is already buffered.
fn serve_connection(mut conn: FrameConn, shared: &Shared) {
    if let Some(tele) = &shared.tele {
        tele.connections_total.inc();
    }
    let max_batch = shared.config.max_batch.max(1);
    // Every reply of the connection is formatted through this one buffer.
    let mut text = String::new();
    loop {
        // Block for the first frame of a batch; a timeout here is the
        // reap path for a silent client.
        let first = match conn.read_with(MAX_COMMAND_BYTES, parse) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return,
        };
        let mut frames = vec![first];
        let mut gone = drain_buffered(&mut conn, &mut frames, max_batch);
        let Ok(staged) = stage(&frames, shared) else {
            return;
        };
        // The double buffer: a full batch that waits for a commit is
        // likely followed by more, already buffered. Staged now, it is
        // appended before the wait, and the one fsync covers both.
        let mut next = None;
        if staged.commit.is_some() && staged.commands.len() == max_batch && !gone {
            frames.clear();
            gone = drain_buffered(&mut conn, &mut frames, max_batch);
            if !frames.is_empty() {
                next = Some(stage(&frames, shared));
            }
        }
        // Serve what we have even if the peer is mid-disconnect: the
        // writes fail harmlessly if it is truly gone. A second batch that
        // could not stage still lets the first be answered.
        let served = finish(staged, &mut conn, shared, &mut text).and_then(|()| match next {
            Some(next) => finish(next?, &mut conn, shared, &mut text),
            None => Ok(()),
        });
        if served.is_err() || gone {
            return;
        }
    }
}

/// A command frame parsed where it lay staged: the command, or the text
/// of the error reply it gets.
type Parsed = Result<Command, String>;

/// Parses one command frame's payload.
fn parse(payload: &[u8]) -> Parsed {
    std::str::from_utf8(payload)
        .map_err(|e| format!("command is not UTF-8: {e}"))
        .and_then(Command::parse)
}

/// Parses whatever complete frames are already buffered into `frames`,
/// up to `max_batch` in all; `true` when the peer turned out to be gone.
fn drain_buffered(conn: &mut FrameConn, frames: &mut Vec<Parsed>, max_batch: usize) -> bool {
    while frames.len() < max_batch {
        match conn.read_buffered_with(MAX_COMMAND_BYTES, parse) {
            Buffered::Frame(p) => frames.push(p),
            Buffered::NotYet => return false,
            Buffered::Gone => return true,
        }
    }
    false
}

/// One admitted mutation awaiting its flush outcome.
struct InFlight {
    /// Index into the batch's reply vector.
    slot: usize,
    /// The namespaced request as the engine journals it.
    request: Request,
    _guard: AdmitGuard,
}

/// A batch serviced under the engine lock and not yet answered.
struct Staged {
    /// Receipt time: service time is receipt-to-response.
    t0: u64,
    /// One per frame; `None` where the frame did not parse.
    commands: Vec<Option<Command>>,
    /// One per frame; a failed commit can still turn an admitted
    /// mutation's into a refusal.
    replies: Vec<Option<Reply>>,
    /// The admitted mutations, holding their admission guards.
    admitted: Vec<InFlight>,
    trace: Option<TraceCtx>,
    /// What the replies wait on: the batch's own flush, or a barrier
    /// for its reads of another batch's staged work.
    commit: Option<CommitTicket>,
}

/// Locks one of the mutexes the handlers share. A poisoned one — some
/// handler panicked holding it — ends this connection with an error,
/// never the process with a panic.
fn lock<'a, T>(mutex: &'a Mutex<T>, what: &str) -> std::io::Result<MutexGuard<'a, T>> {
    mutex
        .lock()
        .map_err(|_| std::io::Error::other(format!("{what} poisoned")))
}

fn lock_engine(shared: &Shared) -> std::io::Result<MutexGuard<'_, Engine>> {
    lock(&shared.engine, "engine lock")
}

fn unsettled_set(shared: &Shared) -> std::io::Result<MutexGuard<'_, Vec<(JobId, u64)>>> {
    lock(&shared.unsettled, "unsettled set")
}

/// A durable flush failed: the in-memory flush still happened, but
/// durability was promised and not delivered — every admitted mutation
/// of the batch is refused.
fn refuse_undurable(replies: &mut [Option<Reply>], admitted: &[InFlight], sink_error: &str) {
    for inflight in admitted {
        replies[inflight.slot] = Some(Reply::Err(format!("durability: {sink_error}")));
    }
}

/// Whether any of `reads` reports state a staged batch wrote and has
/// not committed yet: the window of a job in `unsettled`, or `metrics`,
/// which reflects every job.
fn reads_unsettled(reads: &[(usize, Command)], unsettled: &[(JobId, u64)]) -> bool {
    !unsettled.is_empty()
        && reads.iter().any(|(_, cmd)| match cmd {
            Command::Window { tenant, id } => Engine::global_id_of(*tenant, *id)
                .is_ok_and(|global| unsettled.iter().any(|&(job, _)| job == global)),
            _ => true,
        })
}

/// The first half of serving a batch of parsed command frames: QoS,
/// then under one engine lock hold the submits, one flush, failure
/// mapping and the reads. Under [`FlushMode::Durable`] the batch leaves
/// with the ticket its replies must wait for.
fn stage(frames: &[Parsed], shared: &Shared) -> std::io::Result<Staged> {
    let t0 = shared.clock.now_nanos();
    let mut replies: Vec<Option<Reply>> = vec![None; frames.len()];
    let mut commands: Vec<Option<Command>> = Vec::with_capacity(frames.len());
    for (i, parsed) in frames.iter().enumerate() {
        match parsed {
            Ok(c) => commands.push(Some(*c)),
            Err(detail) => {
                replies[i] = Some(Reply::Err(detail.clone()));
                commands.push(None);
            }
        }
    }

    // QoS in front of the engine: admit or shed every mutation before
    // touching the lock, so a shed burst costs no engine time at all.
    let mut to_submit: Vec<(usize, TenantId, Request, AdmitGuard)> = Vec::new();
    let mut pending_reads: Vec<(usize, Command)> = Vec::new();
    for (i, cmd) in commands.iter().enumerate() {
        let Some(cmd) = cmd else { continue };
        if cmd.is_mutation() {
            let (tenant, request) = cmd.to_request().expect("mutations map to requests");
            match shared.qos.try_admit(tenant.0) {
                Ok(guard) => to_submit.push((i, tenant, request, guard)),
                Err(retry_after) => replies[i] = Some(Reply::overloaded(retry_after)),
            }
        } else {
            pending_reads.push((i, *cmd));
        }
    }

    // Mint the causal trace at receipt: every Nth batch that admits at
    // least one mutation gets a sampled context, recorded here (receipt
    // and admission outcome) and threaded through the flush as batch
    // metadata — the same id later shows up on the engine's flush/fsync
    // spans, the shipped replication frame, the replicas' apply events,
    // and the client's annotated replies.
    let trace = match &shared.tele {
        Some(tele) if shared.config.trace_sample_every > 0 && !to_submit.is_empty() => {
            let seq = shared.trace_seq.fetch_add(1, Ordering::Relaxed);
            seq.is_multiple_of(shared.config.trace_sample_every)
                .then(|| {
                    let tc = TraceCtx::mint(t0, seq);
                    tele.t
                        .point_in(tc, Severity::Debug, "receipt", frames.len() as u64, t0);
                    let shed = replies
                        .iter()
                        .filter(|r| matches!(r, Some(Reply::Overloaded(_))))
                        .count();
                    tele.t.point_in(
                        tc,
                        Severity::Debug,
                        "admit",
                        to_submit.len() as u64,
                        shed as u64,
                    );
                    tc
                })
        }
        _ => None,
    };

    // A durable batch stages under the lock and waits for the disk
    // after releasing it; only its reads ever need a barrier ticket.
    let durable = shared.config.flush == FlushMode::Durable;
    let mut commit: Option<CommitTicket> = None;
    let mut admitted: Vec<InFlight> = Vec::new();
    {
        let mut engine = lock_engine(shared)?;
        for (i, tenant, request, guard) in to_submit {
            match engine.submit_for(tenant, request) {
                Ok(global) => {
                    // Provisional: refined by the flush outcome.
                    replies[i] = Some(match request {
                        Request::Insert { .. } => Reply::Placed(global),
                        Request::Delete { .. } => Reply::Removed(global),
                    });
                    let namespaced = match request {
                        Request::Insert { window, .. } => Request::Insert { id: global, window },
                        Request::Delete { .. } => Request::Delete { id: global },
                    };
                    admitted.push(InFlight {
                        slot: i,
                        request: namespaced,
                        _guard: guard,
                    });
                }
                Err(e) => replies[i] = Some(Reply::Err(e.to_string())),
            }
        }

        if !admitted.is_empty() {
            if let Some(tc) = trace {
                engine.arm_trace(tc);
            }
            match engine.flush_mode(shared.config.flush) {
                Ok((report, ticket)) => {
                    commit = ticket;
                    // Each failure goes back to its own command: a shard
                    // drains its queue in order, this batch's submits to
                    // it last, so the failure's place in the drain is
                    // its command's place among them.
                    for &(shard, at, _, code) in &report.failures {
                        let ours = || {
                            admitted
                                .iter()
                                .filter(|f| engine.shard_of(f.request.job_id()) == shard)
                        };
                        let drained = &report.per_shard[shard];
                        let before = drained.processed + drained.failed - ours().count();
                        if let Some(inflight) = at.checked_sub(before).and_then(|k| ours().nth(k)) {
                            replies[inflight.slot] = Some(Reply::Err(code.as_str().to_string()));
                        }
                    }
                }
                Err(sink_error) => refuse_undurable(&mut replies, &admitted, &sink_error),
            }
        }

        // Reads under the same lock hold see the batch they rode with.
        for (i, cmd) in &pending_reads {
            replies[*i] = Some(match cmd {
                Command::Window { tenant, id } => match engine.window_of_for(*tenant, *id) {
                    Ok(Some(w)) => Reply::WindowIs(w),
                    Ok(None) => Reply::WindowNone,
                    Err(e) => Reply::Err(e.to_string()),
                },
                Command::Metrics => {
                    let m = engine.metrics();
                    Reply::MetricsIs {
                        requests: m.requests,
                        failed: m.failed,
                        active: m.active_jobs,
                        epoch: m.epoch,
                        shards: m.shards.len() as u64,
                    }
                }
                _ => Reply::Err("unreachable read".to_string()),
            });
        }

        if let Some(ticket) = &commit {
            // This batch's mutations are visible to every reader from
            // here on, and not durable until its finish waits.
            unsettled_set(shared)?
                .extend(admitted.iter().map(|f| (f.request.job_id(), ticket.upto())));
        } else if durable && reads_unsettled(&pending_reads, &unsettled_set(shared)?) {
            // Nothing of its own to wait for — but what it read is
            // staged, uncommitted work: another connection's, or this
            // one's previous batch.
            commit = engine.commit_barrier();
        }
    } // engine lock released; admission guards still held until replied
    Ok(Staged {
        t0,
        commands,
        replies,
        admitted,
        trace,
        commit,
    })
}

/// The second half: the durable commit with the engine unlocked, then
/// the replies in command order (each formatted into `text`) and the
/// service telemetry.
fn finish(
    staged: Staged,
    conn: &mut FrameConn,
    shared: &Shared,
    text: &mut String,
) -> std::io::Result<()> {
    let Staged {
        t0,
        commands,
        mut replies,
        admitted,
        trace,
        commit,
    } = staged;
    // Other connections submit, flush and append while this one waits
    // for the disk — or, leading, for them — and one sync settles all
    // of them.
    if let Some(ticket) = commit {
        let upto = ticket.upto();
        let waited = ticket.wait();
        // Tickets are ordered: whatever this wait settled (or, failing,
        // will never settle — the store refuses from here on and reads
        // go back to reporting the in-memory state) is settled for
        // every ticket up to this one.
        unsettled_set(shared)?.retain(|&(_, covered_by)| covered_by > upto);
        if let Err(sink_error) = waited {
            lock_engine(shared)?.note_durability_failure(sink_error.clone());
            refuse_undurable(&mut replies, &admitted, &sink_error);
        }
    }

    // Replies in command order, one writer flush for the whole batch.
    // A traced batch's admitted mutations carry its trace id — clients
    // correlate, every other reply is untouched.
    for reply in replies.iter().flatten() {
        text.clear();
        reply.write_traced(trace.map(|tc| tc.id), text);
        conn.write(text.as_bytes())?;
    }
    conn.flush()?;

    // Bookkeeping after the bytes are out: service time is
    // receipt-to-response, and guards release only now (the admission
    // cap covers a command until its reply ships).
    if let Some(tele) = &shared.tele {
        let elapsed = shared.clock.now_nanos().saturating_sub(t0);
        tele.requests_total.add(commands.len() as u64);
        // A tenant's handles are resolved once per batch, not per command.
        let mut tenants: Vec<(u16, TenantTele)> = Vec::new();
        for (i, cmd) in commands.iter().enumerate() {
            let Some(cmd) = cmd else {
                tele.refused_total.inc();
                continue;
            };
            let Some(reply) = &replies[i] else { continue };
            if let Some(tenant) = cmd.tenant() {
                let at = match tenants.iter().position(|&(t, _)| t == tenant.0) {
                    Some(at) => at,
                    None => {
                        tenants.push((tenant.0, tele.tenant(tenant.0)));
                        tenants.len() - 1
                    }
                };
                let tt = &tenants[at].1;
                tt.request_nanos.record(elapsed);
                match reply {
                    Reply::Overloaded(_) => {
                        tt.shed_total.inc();
                        tele.shed_total.inc();
                    }
                    Reply::Err(_) => tele.refused_total.inc(),
                    _ => tt.admitted_total.inc(),
                }
            }
        }
    }
    drop(admitted);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use realloc_core::textio::{read_frame, write_frame};
    use realloc_engine::EngineConfig;
    use std::net::{TcpListener, TcpStream};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn a_poisoned_unsettled_set_ends_the_connection_not_the_process() {
        let engine = Arc::new(Mutex::new(Engine::new(EngineConfig::default())));
        let config = ServiceConfig {
            flush: FlushMode::Durable,
            ..ServiceConfig::default()
        };
        let shared = Shared::new(engine, config, &Telemetry::default());
        let poisoner = catch_unwind(AssertUnwindSafe(|| {
            let _held = shared.unsettled.lock();
            panic!("a handler panics holding the unsettled set");
        }));
        assert!(poisoner.is_err() && shared.unsettled.is_poisoned());

        // A durable read-only batch looks its job up in the set.
        let read = b"window 1 1";
        let refused = stage(&[parse(read)], &shared).err();
        assert_eq!(
            refused.map(|e| e.to_string()),
            Some("unsettled set poisoned".to_string())
        );

        // Served on a connection, the same batch closes it unanswered.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let conn = FrameConn::new(listener.accept().unwrap().0).unwrap();
        write_frame(&mut client, read).unwrap();
        serve_connection(conn, &shared);
        assert_eq!(read_frame(&mut client, MAX_COMMAND_BYTES).unwrap(), None);
    }
}
