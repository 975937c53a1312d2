//! One set-up system plus its client connections, and the phases run
//! against it in their fixed order: `setup` → `rtt` → `sat` → `open`
//! (→ `recover`).

use crate::client::{self, Conn, Outcome, RttSamples, StepSamples};
use crate::stats::{self, StepVerdict};
use crate::stream::TenantStream;
use crate::system::{Failure, System};
use crate::workload::{Plan, Workload, LADDER, SAT_DEPTH, SAT_SLICES, TENANTS};
use realloc_sched::{Engine, RecoverFromDir};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Prefill pipelining depth (set-up, not a measured phase).
const PREFILL_DEPTH: usize = 256;

fn io_err(what: &str) -> impl Fn(std::io::Error) -> Failure + '_ {
    move |e| format!("{what}: {e}")
}

/// A running system with its clients attached and the active set built.
#[derive(Debug)]
pub struct Session<'a> {
    /// The workload being run.
    pub workload: Workload,
    plan: Plan,
    /// The system under test.
    pub system: System,
    conns: Vec<Conn>,
    /// Next unsent command of each tenant's stream.
    cursors: Vec<usize>,
    streams: &'a mut [TenantStream],
    /// Every command sent so far and how many failed.
    pub outcome: Outcome,
    dir: PathBuf,
    /// Wall time of this set-up.
    pub setup_secs: f64,
}

/// What `rtt` measured, with the paper's cost over the same requests.
#[derive(Clone, Debug, Default)]
pub struct RttPhase {
    /// Client-side samples.
    pub samples: RttSamples,
    /// Δ`Metrics::reallocations` / Δ`Metrics::requests` over the phase.
    pub realloc_per_req: f64,
    /// `Metrics::cost.max` at the end of the phase.
    pub realloc_max: f64,
}

/// What `sat` measured.
#[derive(Clone, Debug, Default)]
pub struct SatPhase {
    /// Replies (quorum-acked events for a replicated workload) in each
    /// slice of the phase.
    pub slices: Vec<u64>,
    /// Length of one slice.
    pub slice_secs: f64,
    /// Δrequests / Δ`Engine::batches()` over the phase.
    pub reqs_per_flush: f64,
    /// Per-frame quorum lag samples taken during the phase.
    pub lag_us: Vec<f64>,
    /// Requests the engine serviced during the phase.
    pub requests: u64,
}

/// One attempt at a ladder step: the step's index and what it measured.
pub type LadderAttempt = (usize, StepSamples);

/// A file-by-file copy of the store directory taken while `sat` ran.
#[derive(Debug)]
struct CrashImage {
    dir: PathBuf,
    /// `Metrics::requests` read under the engine lock when the copy
    /// began: under `FlushMode::Durable` all of them are fsynced.
    durable_requests: u64,
    /// Mutations acknowledged to clients when the copy began.
    acked_before: u64,
}

impl<'a> Session<'a> {
    /// The `setup` phase: build, bind, bootstrap replicas, connect,
    /// prefill one connection to the target active set, checkpoint once
    /// if durable. (The streams are generated before, once per run.)
    pub fn setup(
        workload: Workload,
        plan: Plan,
        streams: &'a mut [TenantStream],
        prefill_ends: &[usize],
        dir: &Path,
        traced: bool,
    ) -> Result<Session<'a>, Failure> {
        let t0 = Instant::now();
        let system = System::start(&workload, dir, traced)?;
        let mut conns = Vec::new();
        for _ in 0..TENANTS {
            conns.push(Conn::connect(system.addr()).map_err(io_err("connect"))?);
        }
        let mut session = Session {
            workload,
            plan,
            system,
            conns,
            cursors: vec![0; TENANTS as usize],
            streams,
            outcome: Outcome::default(),
            dir: dir.to_path_buf(),
            setup_secs: 0.0,
        };
        let replies = AtomicU64::new(0);
        for (t, &end) in prefill_ends.iter().enumerate() {
            let outcome = client::drive(
                &mut session.conns[0],
                &session.streams[t].commands,
                &mut session.cursors[t],
                end,
                PREFILL_DEPTH,
                None,
                &replies,
                &session.system.acked,
            )
            .map_err(io_err("prefill"))?;
            session.outcome.absorb(outcome);
        }
        if workload.durable {
            session.system.checkpoint()?;
            session.system.start_checkpoints(plan.checkpoint_every);
        }
        session.system.wait_quorum()?;
        session.setup_secs = t0.elapsed().as_secs_f64();
        Ok(session)
    }

    /// The read path alone: `window` round trips at depth 1 on a job
    /// placed for the purpose (TCP + framing + parse + lock + reply, no
    /// scheduler work). Median, microseconds.
    pub fn read_rtt_p50(&mut self) -> Result<f64, Failure> {
        let probe = 1u64 << 40;
        let conn = &mut self.conns[0];
        let placed = conn
            .call_text(&format!("place 1 {probe} 0 4096"))
            .map_err(io_err("probe place"))?;
        if !placed.starts_with("ok placed ") {
            return Err(format!("probe place answered '{placed}'"));
        }
        let reads = ((2_000.0 * self.plan.scale) as usize).max(64);
        let mut us = Vec::with_capacity(reads);
        for _ in 0..reads {
            let t0 = Instant::now();
            let reply = conn
                .call_text(&format!("window 1 {probe}"))
                .map_err(io_err("probe read"))?;
            us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            if reply != "ok window 0 4096" {
                return Err(format!("probe read answered '{reply}'"));
            }
        }
        let removed = conn
            .call_text(&format!("remove 1 {probe}"))
            .map_err(io_err("probe remove"))?;
        if !removed.starts_with("ok removed ") {
            return Err(format!("probe remove answered '{removed}'"));
        }
        Ok(stats::percentile(&mut us, 0.5))
    }

    /// Makes sure tenant `t`'s stream holds `n` more commands.
    fn ensure(&mut self, t: usize, n: usize) {
        let want = self.cursors[t] + n;
        self.streams[t].extend_to(want);
    }

    /// One round of `rtt`: closed loop, 1 connection, 1 outstanding, a
    /// fixed count.
    pub fn rtt(&mut self) -> Result<RttPhase, Failure> {
        let count = self.plan.rtt_count(&self.workload);
        self.ensure(0, count);
        let before = self.system.engine().metrics();
        let clock = self.system.traced().then(|| self.system.telemetry.clone());
        let samples = client::rtt(
            &mut self.conns[0],
            &self.streams[0].commands,
            &mut self.cursors[0],
            count,
            &self.system.acked,
            clock.as_ref(),
        )
        .map_err(io_err("rtt"))?;
        let after = self.system.engine().metrics();
        self.outcome.absorb(samples.outcome);
        let requests = (after.requests - before.requests).max(1);
        Ok(RttPhase {
            samples,
            realloc_per_req: (after.reallocations - before.reallocations) as f64 / requests as f64,
            realloc_max: after.cost.max as f64,
        })
    }

    /// One round of `sat`: closed loop, one connection and thread per
    /// tenant, 32 outstanding each, counted in slices. With
    /// `crash_image`, the store directory is copied file by file
    /// half-way through and checked afterwards.
    pub fn sat(&mut self, crash_image: bool) -> Result<SatPhase, Failure> {
        let slices_per_round = SAT_SLICES / self.plan.rounds;
        let slice_secs = self.plan.sat_secs / SAT_SLICES as f64;
        // Each connection is provisioned for the whole reference rate:
        // twice what the pair is expected to need.
        let per_conn = (self.workload.ref_rps * slice_secs * slices_per_round as f64) as usize;
        for t in 0..TENANTS as usize {
            self.ensure(t, per_conn);
        }
        let stop = AtomicBool::new(false);
        let replies = AtomicU64::new(0);
        let (before_requests, before_batches) = {
            let engine = self.system.engine();
            (engine.metrics().requests, engine.batches())
        };
        let lag_from = self.lag_len();
        let system = &self.system;
        let streams = &*self.streams;
        let image_dir = self.dir.join("crash-image");
        let progress: &AtomicU64 = match &system.replication {
            Some(r) => &r.stats.acked_events,
            None => &replies,
        };

        let (slices, outcomes, image) = std::thread::scope(|scope| {
            let drivers: Vec<_> = self
                .conns
                .iter_mut()
                .zip(self.cursors.iter_mut())
                .zip(streams)
                .map(|((conn, cursor), stream)| {
                    let (stop, replies) = (&stop, &replies);
                    scope.spawn(move || {
                        client::drive(
                            conn,
                            &stream.commands,
                            cursor,
                            usize::MAX,
                            SAT_DEPTH,
                            Some(stop),
                            replies,
                            &system.acked,
                        )
                    })
                })
                .collect();
            let start = Instant::now();
            let mut last = progress.load(Ordering::SeqCst);
            let mut slices = Vec::with_capacity(slices_per_round);
            let mut copier = None;
            for i in 1..=slices_per_round {
                if crash_image && i == slices_per_round / 2 + 1 {
                    let image_dir = &image_dir;
                    copier = Some(scope.spawn(move || copy_store(system, image_dir)));
                }
                let boundary = start + Duration::from_secs_f64(slice_secs * i as f64);
                std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
                let now = progress.load(Ordering::SeqCst);
                slices.push(now - last);
                last = now;
            }
            stop.store(true, Ordering::SeqCst);
            let outcomes: Vec<_> = drivers
                .into_iter()
                .map(|d| d.join().expect("sat driver panicked"))
                .collect();
            let image = copier.map(|c| c.join().expect("store copier panicked"));
            (slices, outcomes, image)
        });
        for outcome in outcomes {
            self.outcome.absorb(outcome.map_err(io_err("sat"))?);
        }
        // `sat` closes only when the quorum has acked the last frame.
        self.system.wait_quorum()?;
        if let Some(image) = image {
            check_crash_image(&image?)?;
        }
        let (after_requests, after_batches) = {
            let engine = self.system.engine();
            (engine.metrics().requests, engine.batches())
        };
        Ok(SatPhase {
            slices,
            slice_secs,
            reqs_per_flush: (after_requests - before_requests) as f64
                / (after_batches - before_batches).max(1) as f64,
            lag_us: self.lag_since(lag_from),
            requests: after_requests - before_requests,
        })
    }

    fn lag_len(&self) -> usize {
        self.system.replication.as_ref().map_or(0, |r| {
            r.stats.lag_us.lock().expect("pump stats poisoned").len()
        })
    }

    fn lag_since(&self, from: usize) -> Vec<f64> {
        self.system.replication.as_ref().map_or_else(Vec::new, |r| {
            r.stats.lag_us.lock().expect("pump stats poisoned")[from..].to_vec()
        })
    }

    /// One round's open-loop step at `LADDER[step]` × the reference rate.
    pub fn open_step(&mut self, step: usize) -> Result<(StepSamples, StepVerdict), Failure> {
        let rate = LADDER[step] * self.workload.ref_rps;
        let secs = self.plan.open_step_secs / self.plan.rounds as f64;
        self.ensure(0, (rate * secs) as usize + 1);
        let quorum = self
            .system
            .replication
            .as_ref()
            .map(|r| &r.stats.acked_events);
        let samples = client::open_step(
            &mut self.conns[0],
            &self.streams[0].commands,
            &mut self.cursors[0],
            rate,
            secs,
            self.workload.limit_us,
            &self.system.acked,
            quorum,
        )
        .map_err(io_err("open"))?;
        self.outcome.absorb(samples.outcome);
        // The next step (or phase) starts from an empty replication queue.
        self.system.wait_quorum()?;
        let verdict = stats::step_verdict(&samples.observation, self.workload.limit_us);
        Ok((samples, verdict))
    }

    /// `open`: climbs the ladder; returns the highest passing step and
    /// every attempt made, in order.
    pub fn open_ladder(&mut self) -> Result<(Option<usize>, Vec<LadderAttempt>), Failure> {
        let mut failure = None;
        let mut attempts: Vec<LadderAttempt> = Vec::new();
        let highest = stats::ladder_highest_pass(
            |step| match self.open_step(step) {
                Ok((samples, verdict)) => {
                    attempts.push((step, samples));
                    verdict
                }
                Err(e) => {
                    failure.get_or_insert(e);
                    StepVerdict::Fail
                }
            },
            LADDER.len(),
        );
        match failure {
            Some(e) => Err(e),
            None => Ok((highest, attempts)),
        }
    }

    /// `recover`: checkpoint, exactly `recover_tail` more acked
    /// mutations, stop, then time restart-to-first-ack. The recovered
    /// `state_digest` must equal the one before the stop. Returns the
    /// restart-to-first-ack seconds and the session's whole send tally.
    pub fn recover(mut self) -> Result<(f64, Outcome), Failure> {
        self.system.checkpoint()?;
        let from = self.cursors[0];
        let mut until = from;
        let mut mutations = 0;
        while mutations < self.plan.recover_tail {
            self.ensure(0, until - from + 1);
            mutations += usize::from(self.streams[0].commands.expect(until).is_mutation());
            until += 1;
        }
        let replies = AtomicU64::new(0);
        let outcome = client::drive(
            &mut self.conns[0],
            &self.streams[0].commands,
            &mut self.cursors[0],
            until,
            SAT_DEPTH,
            None,
            &replies,
            &self.system.acked,
        )
        .map_err(io_err("recover tail"))?;
        self.outcome.absorb(outcome);
        let workload = self.workload;
        let store_dir = self
            .system
            .store_dir
            .clone()
            .ok_or("recover needs a durable workload")?;
        let (digest, outcome) = self.finish()?;

        let t0 = Instant::now();
        let restarted = System::restart(&workload, &store_dir)?;
        let recovered_in = t0.elapsed();
        let recovered = restarted.engine().state_digest();
        if recovered != digest {
            return Err(format!(
                "recovered digest {recovered:#x} differs from the pre-stop {digest:#x}"
            ));
        }
        let t1 = Instant::now();
        let mut conn = Conn::connect(restarted.addr()).map_err(io_err("reconnect"))?;
        // A fresh id in tenant 1's space, far above any stream id.
        let reply = conn
            .call_text(&format!("place 1 {} 0 4096", 1u64 << 40))
            .map_err(io_err("first place"))?;
        let served_in = t1.elapsed();
        if !reply.starts_with("ok placed ") {
            return Err(format!("first place after recovery answered '{reply}'"));
        }
        drop(conn);
        restarted.stop()?;
        Ok(((recovered_in + served_in).as_secs_f64(), outcome))
    }

    /// Closes the clients, stops the system and runs the end checks
    /// (`validate`, durability, replica digests). Returns the primary's
    /// digest and the outcome tally.
    pub fn finish(self) -> Result<(u64, Outcome), Failure> {
        drop(self.conns);
        let digest = self.system.stop()?;
        Ok((digest, self.outcome))
    }
}

/// Copies the store directory file by file while the server keeps
/// writing to it, holding the gate so no checkpoint rolls a segment
/// under the copy.
fn copy_store(system: &System, image_dir: &Path) -> Result<CrashImage, Failure> {
    let store_dir = system
        .store_dir
        .as_ref()
        .ok_or("crash image needs a durable workload")?;
    let _gate = system.store_gate.lock().expect("store gate poisoned");
    let acked_before = system.acked.load(Ordering::SeqCst);
    let durable_requests = system.engine().metrics().requests;
    std::fs::create_dir_all(image_dir).map_err(io_err("create image dir"))?;
    let mut names: Vec<_> = std::fs::read_dir(store_dir)
        .map_err(io_err("list store"))?
        .filter_map(|e| e.ok().map(|e| e.file_name()))
        .collect();
    names.sort();
    for name in names {
        std::fs::copy(store_dir.join(&name), image_dir.join(&name))
            .map_err(io_err("copy store file"))?;
    }
    Ok(CrashImage {
        dir: image_dir.to_path_buf(),
        durable_requests,
        acked_before,
    })
}

/// Recovers from the image: every mutation acknowledged before the copy
/// began must be in it (the journal is one ordered log, so holding at
/// least the requests that were durable when the copy began is holding
/// every one of them).
fn check_crash_image(image: &CrashImage) -> Result<(), Failure> {
    if image.durable_requests < image.acked_before {
        return Err(format!(
            "{} mutations were acknowledged but only {} requests were durable",
            image.acked_before, image.durable_requests
        ));
    }
    let recovered =
        Engine::recover_from_dir(&image.dir).map_err(|e| format!("crash image recover: {e}"))?;
    recovered
        .validate()
        .map_err(|e| format!("crash image validate: {e}"))?;
    let held = recovered.metrics().requests;
    if held < image.durable_requests {
        return Err(format!(
            "crash image holds {held} requests, {} were durable before the copy began",
            image.durable_requests
        ));
    }
    Ok(())
}
