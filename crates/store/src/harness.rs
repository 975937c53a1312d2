//! The kill-at-any-point crash matrix.
//!
//! [`run_crash_matrix`] proves the store's central claim — *no
//! acknowledged flush is ever lost* — by construction rather than by
//! spot check:
//!
//! 1. A deterministic workload (inserts, deletes, checkpoints, an
//!    online resize) runs once **uncrashed** against a plain journaled
//!    engine, capturing a baseline `(journal text, state digest,
//!    placements)` after every mutation that reaches the store. These
//!    are the only states a correct recovery may produce.
//! 2. A probe run over [`crate::FaultIo`] counts the workload's
//!    mutating I/O operations `P` — every append, fsync, rename,
//!    unlink, and truncate the store issues.
//! 3. For every crash point `n in 1..=P` and every [`CrashMode`]
//!    (synced-only, torn-tail, all-written), the workload runs again
//!    with a crash scheduled at op `n`. The machine "comes back up"
//!    ([`crate::FaultIo::revive`]), the engine recovers from the
//!    surviving files, and the harness requires:
//!    * the recovered `(journal, digest, placements)` equals baseline
//!      `j` for **some `j ≥` the last acknowledged step** — nothing
//!      acknowledged is lost, and anything extra is a legal
//!      more-than-acked state (the all-written mode exercises these),
//!    * [`realloc_engine::Engine::validate`] holds,
//!    * the store re-opens over the repaired directory, accepts new
//!      durable flushes, and a second recovery sees them.
//!
//! A crash so early that the store directory never became durable may
//! instead surface as a located error — graceful, and only legal while
//! nothing has been acknowledged.
//!
//! [`run_staged_crash_matrix`] is the same proof for the two-step
//! durable flush ([`realloc_engine::Engine::flush_mode`] under
//! `FlushMode::Durable`): two submitters take turns staging, and a step
//! is acknowledged only when a commit ticket covering it has waited
//! `Ok` — the later submitter's fsync, or a checkpoint's seal, on the
//! earlier one's behalf.

use crate::io::{CrashMode, FaultIo, StoreIo};
use crate::store::{DurableStore, RecoverFromDir};
use realloc_core::{JobId, Request, Window};
use realloc_engine::{BackendKind, CommitTicket, Engine, EngineConfig, FlushMode};
use std::path::Path;
use std::sync::Arc;

/// Shape of the crash-matrix workload. The defaults run a few hundred
/// crash points in well under a second; `ops` and `max_points` scale it
/// up for soak runs.
#[derive(Clone, Debug)]
pub struct CrashMatrixConfig {
    /// Shards the engine starts with.
    pub shards: usize,
    /// Machines per shard.
    pub machines_per_shard: usize,
    /// Sealed segments retained after a checkpoint.
    pub retained_segments: usize,
    /// Flush steps in the workload.
    pub ops: usize,
    /// A checkpoint is taken after every this-many flush steps.
    pub checkpoint_every: usize,
    /// Flush step after which the engine resizes to `shards + 1`
    /// (`None`: no resize).
    pub resize_after: Option<usize>,
    /// Workload seed (same seed, same workload, same crash points).
    pub seed: u64,
    /// Cap on crash points tested **per mode**; `0` tests every one.
    /// When capped, points are strided evenly across the schedule.
    pub max_points: usize,
}

impl Default for CrashMatrixConfig {
    fn default() -> Self {
        CrashMatrixConfig {
            shards: 2,
            machines_per_shard: 3,
            retained_segments: 1,
            ops: 10,
            checkpoint_every: 3,
            resize_after: Some(5),
            seed: 0x005e_ed1e_55c0_ffee,
            max_points: 0,
        }
    }
}

/// What a completed crash matrix proved.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrashMatrixReport {
    /// Mutating I/O operations in the uncrashed schedule (the per-mode
    /// crash-point space).
    pub crash_points: u64,
    /// Crashed runs executed (points tested × modes).
    pub runs: u64,
    /// Runs whose recovery matched a baseline at or after the last
    /// acknowledged step.
    pub recovered: u64,
    /// Runs that crashed before anything (store creation included) was
    /// acknowledged and surfaced a located error instead of a state.
    pub graceful_errors: u64,
    /// Recoveries that truncated a torn tail.
    pub torn_tails_truncated: u64,
    /// Recoveries that materialized a checkpoint-only open segment.
    pub segments_materialized: u64,
    /// Baseline states the workload produced.
    pub baselines: u64,
}

// ---------------------------------------------------------------------
// Deterministic workload
// ---------------------------------------------------------------------

/// xorshift64* — deterministic, seed-stable across platforms.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// One workload step; each maps to exactly one baseline state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    /// Submit a few requests, then flush. **Ack point** (durable runs
    /// use `flush_durable`).
    Flush,
    /// Online resize to this shard count. Appends an (unsynced) epoch
    /// record; its durability rides the next ack point.
    Resize(usize),
    /// Checkpoint (queue is empty by construction — always follows a
    /// flush). **Ack point** when the tee'd checkpoint lands.
    Checkpoint,
}

fn build_steps(cfg: &CrashMatrixConfig) -> Vec<Step> {
    let mut steps = Vec::new();
    for i in 1..=cfg.ops {
        steps.push(Step::Flush);
        if cfg.resize_after == Some(i) {
            steps.push(Step::Resize(cfg.shards + 1));
            steps.push(Step::Flush); // ack the epoch record promptly
        }
        if cfg.checkpoint_every > 0 && i % cfg.checkpoint_every == 0 {
            steps.push(Step::Checkpoint);
        }
    }
    steps
}

fn engine_config(cfg: &CrashMatrixConfig) -> EngineConfig {
    EngineConfig {
        shards: cfg.shards,
        machines_per_shard: cfg.machines_per_shard,
        backend: BackendKind::TheoremOne { gamma: 8 },
        parallel: false,
        journal: true,
        retained_segments: cfg.retained_segments,
    }
}

/// Mutable workload cursor: the rng and the live-id pool evolve
/// identically in the baseline and every crashed run.
struct Workload {
    rng: Rng,
    live: Vec<u64>,
    next_id: u64,
}

impl Workload {
    fn new(seed: u64) -> Workload {
        Workload {
            rng: Rng(seed | 1),
            live: Vec::new(),
            next_id: 1,
        }
    }

    /// Enqueues this flush step's requests (1–3 inserts/deletes).
    fn submit(&mut self, engine: &mut Engine) {
        let k = 1 + self.rng.below(3);
        for _ in 0..k {
            if !self.live.is_empty() && self.rng.below(4) == 0 {
                let idx = self.rng.below(self.live.len() as u64) as usize;
                let id = self.live.remove(idx);
                engine.submit(Request::Delete { id: JobId(id) });
            } else {
                let id = self.next_id;
                self.next_id += 1;
                let start = self.rng.below(40);
                let len = 1 + self.rng.below(8);
                engine.submit(Request::Insert {
                    id: JobId(id),
                    window: Window::new(start, start + len),
                });
                self.live.push(id);
            }
        }
    }
}

/// One baseline state: everything recovery must reproduce.
#[derive(Clone, Debug, PartialEq, Eq)]
struct BaselineState {
    journal: String,
    digest: u64,
    placements: String,
}

fn capture(engine: &Engine) -> BaselineState {
    BaselineState {
        journal: engine.journal().expect("harness engines journal").to_text(),
        digest: engine.state_digest(),
        placements: format!("{:?}", engine.placements()),
    }
}

/// The uncrashed reference run: a plain journaled engine (no store —
/// the tee never changes journal contents) stepping through the
/// workload, capturing a baseline after every step, plus the genesis
/// state at index 0.
fn baseline_run(cfg: &CrashMatrixConfig, steps: &[Step]) -> Result<Vec<BaselineState>, String> {
    let mut engine = Engine::new(engine_config(cfg));
    let mut wl = Workload::new(cfg.seed);
    let mut baselines = vec![capture(&engine)];
    for step in steps {
        match step {
            Step::Flush => {
                wl.submit(&mut engine);
                engine.flush();
            }
            Step::Resize(n) => {
                engine
                    .resize(*n)
                    .map_err(|e| format!("baseline resize: {e}"))?;
            }
            Step::Checkpoint => {
                if !engine.checkpoint() {
                    return Err("baseline checkpoint refused".to_string());
                }
            }
        }
        baselines.push(capture(&engine));
    }
    engine
        .validate()
        .map_err(|e| format!("baseline invalid: {e}"))?;
    Ok(baselines)
}

/// Outcome of one (possibly crashed) durable run.
struct DurableRun {
    /// Baseline index of the last acknowledged step; `None` when not
    /// even the store's creation was acknowledged.
    last_acked: Option<usize>,
    /// Whether the scheduled crash fired mid-run.
    crashed: bool,
}

/// How a durable run acknowledges its flush steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ack {
    /// `flush_durable`: every flush step is acknowledged before the
    /// next begins.
    Inline,
    /// `flush_mode(Durable)` from two submitters taking turns: the first
    /// stages and holds its ticket across whatever steps follow (a
    /// resize, a checkpoint) up to the second's flush, whose wait goes
    /// first and leads; the held ticket then waits and must find itself
    /// covered.
    Staged,
}

/// Waits on `held`, the ticket of flush step `step`, and books the
/// acknowledgement. `false`: the wait failed (legal only in a crash).
fn settle(held: &mut Option<(usize, CommitTicket)>, run: &mut DurableRun) -> bool {
    let Some((step, ticket)) = held.take() else {
        return true;
    };
    if ticket.wait().is_err() {
        return false;
    }
    // The log is one ordered stream: a covered step vouches for every
    // step before it.
    run.last_acked = run.last_acked.max(Some(step + 1));
    true
}

/// Runs the workload against a store over `io`, stopping at the first
/// durability failure. Mirrors `baseline_run` step for step.
fn durable_run(
    io: &Arc<FaultIo>,
    dir: &Path,
    cfg: &CrashMatrixConfig,
    steps: &[Step],
    ack: Ack,
) -> Result<DurableRun, String> {
    let mut engine = Engine::new(engine_config(cfg));
    let journal_cfg = engine.journal().expect("journaled").config().clone();
    let store = match DurableStore::create(Arc::clone(io) as Arc<dyn StoreIo>, dir, &journal_cfg) {
        Ok(s) => s,
        Err(e) => {
            if io.crashed() {
                return Ok(DurableRun {
                    last_acked: None,
                    crashed: true,
                });
            }
            return Err(format!("store create failed without a crash: {e}"));
        }
    };
    engine.attach_durability(Box::new(store))?;
    let mut wl = Workload::new(cfg.seed);
    let mut run = DurableRun {
        last_acked: Some(0), // store creation is durable
        crashed: false,
    };
    // The first submitter's ticket, not yet waited on.
    let mut held: Option<(usize, CommitTicket)> = None;
    for (i, step) in steps.iter().enumerate() {
        let acked = match step {
            Step::Flush if ack == Ack::Inline => {
                wl.submit(&mut engine);
                engine.flush_durable().is_ok()
            }
            Step::Flush => {
                wl.submit(&mut engine);
                match engine.flush_mode(FlushMode::Durable) {
                    Ok((_, ticket)) => {
                        let mut mine = ticket.map(|t| (i, t));
                        if held.is_none() {
                            held = mine;
                            continue; // staged, not acknowledged yet
                        }
                        settle(&mut mine, &mut run) && settle(&mut held, &mut run)
                    }
                    Err(_) => false,
                }
            }
            Step::Resize(n) => {
                engine
                    .resize(*n)
                    .map_err(|e| format!("durable resize: {e}"))?;
                // Not an ack point: the epoch record is appended but
                // unsynced until the next flush/checkpoint.
                continue;
            }
            Step::Checkpoint => {
                if !engine.checkpoint() {
                    return Err("durable checkpoint refused".to_string());
                }
                // A ticket held across the roll is settled by the seal.
                engine.durability_error().is_none() && settle(&mut held, &mut run)
            }
        };
        if acked {
            run.last_acked = run.last_acked.max(Some(i + 1));
        } else if io.crashed() {
            run.crashed = true;
            return Ok(run);
        } else {
            return Err(format!(
                "step {i} ({step:?}) lost durability without a crash: {:?}",
                engine.durability_error()
            ));
        }
    }
    if !settle(&mut held, &mut run) && !io.crashed() {
        return Err("the last staged step lost durability without a crash".to_string());
    }
    run.crashed = io.crashed();
    Ok(run)
}

/// Recovery check for one crashed run; returns the matched baseline
/// index, or `None` for a graceful early error.
fn check_recovery(
    io: &Arc<FaultIo>,
    dir: &Path,
    run: &DurableRun,
    baselines: &[BaselineState],
    report: &mut CrashMatrixReport,
    context: &str,
) -> Result<(), String> {
    io.revive();
    let engine = match Engine::recover_from_store(&**io, dir) {
        Ok(e) => e,
        Err(e) => {
            // A located error is legal only while nothing (not even the
            // store's creation) was acknowledged.
            if run.last_acked.is_none() {
                report.graceful_errors += 1;
                return Ok(());
            }
            return Err(format!("{context}: recovery failed after acks: {e}"));
        }
    };
    let floor = run.last_acked.unwrap_or(0);
    let got = capture(&engine);
    let matched = baselines[floor..]
        .iter()
        .position(|b| *b == got)
        .map(|p| p + floor);
    let Some(j) = matched else {
        let near = baselines
            .iter()
            .position(|b| *b == got)
            .map(|p| p.to_string())
            .unwrap_or_else(|| "none".to_string());
        return Err(format!(
            "{context}: recovered state matches no baseline >= {floor} \
             (closest unrestricted match: {near}) — an acknowledged flush was lost"
        ));
    };
    engine
        .validate()
        .map_err(|e| format!("{context}: recovered engine invalid: {e}"))?;
    // The repaired directory must re-open, accept new durable writes,
    // and a second recovery must see them.
    let mut engine = engine;
    let (store, open) = DurableStore::open(Arc::clone(io) as Arc<dyn StoreIo>, dir)
        .map_err(|e| format!("{context}: post-crash open failed: {e}"))?;
    if open.torn_bytes_truncated > 0 {
        report.torn_tails_truncated += 1;
    }
    if open.segment_materialized {
        report.segments_materialized += 1;
    }
    engine.attach_durability(Box::new(store))?;
    engine.submit(Request::Insert {
        id: JobId(1_000_000 + j as u64),
        window: Window::new(0, 1),
    });
    engine
        .flush_durable()
        .map_err(|e| format!("{context}: reopened store rejected a flush: {e}"))?;
    let again = Engine::recover_from_store(&**io, dir)
        .map_err(|e| format!("{context}: second recovery failed: {e}"))?;
    if again.state_digest() != engine.state_digest() {
        return Err(format!(
            "{context}: second recovery diverged from the live engine"
        ));
    }
    report.recovered += 1;
    Ok(())
}

/// Runs the full crash matrix; see the module docs. `Err` carries the
/// first violated guarantee (mode, crash point, and what diverged).
pub fn run_crash_matrix(cfg: &CrashMatrixConfig) -> Result<CrashMatrixReport, String> {
    run_matrix(cfg, Ack::Inline)
}

/// [`run_crash_matrix`] with every flush step acknowledged through a
/// staged commit, two submitters interleaved; see the module docs.
pub fn run_staged_crash_matrix(cfg: &CrashMatrixConfig) -> Result<CrashMatrixReport, String> {
    run_matrix(cfg, Ack::Staged)
}

fn run_matrix(cfg: &CrashMatrixConfig, ack: Ack) -> Result<CrashMatrixReport, String> {
    let steps = build_steps(cfg);
    let baselines = baseline_run(cfg, &steps)?;
    let dir = Path::new("/store");
    // Probe: count the uncrashed schedule's mutating ops and prove the
    // durable run lands exactly on the final baseline.
    let probe = Arc::new(FaultIo::new());
    let run = durable_run(&probe, dir, cfg, &steps, ack)?;
    if run.crashed || run.last_acked != Some(steps.len()) {
        return Err("probe run did not acknowledge every step".to_string());
    }
    let engine = Engine::recover_from_store(&*probe, dir)
        .map_err(|e| format!("probe recovery failed: {e}"))?;
    if capture(&engine) != *baselines.last().expect("nonempty") {
        return Err("probe recovery does not match the final baseline".to_string());
    }
    let total_ops = probe.ops();
    let mut report = CrashMatrixReport {
        crash_points: total_ops,
        baselines: baselines.len() as u64,
        ..CrashMatrixReport::default()
    };
    // Stride when capped; always include the first and last points.
    let points: Vec<u64> = if cfg.max_points > 0 && (cfg.max_points as u64) < total_ops {
        let m = cfg.max_points as u64;
        (0..m)
            .map(|k| 1 + k * (total_ops - 1) / (m - 1).max(1))
            .collect()
    } else {
        (1..=total_ops).collect()
    };
    for mode in [
        CrashMode::SyncedOnly,
        CrashMode::TornTail,
        CrashMode::AllWritten,
    ] {
        for &n in &points {
            let io = Arc::new(FaultIo::new());
            io.crash_at(n, mode);
            let run = durable_run(&io, dir, cfg, &steps, ack)?;
            if !run.crashed {
                return Err(format!("{mode:?}@{n}: scheduled crash never fired"));
            }
            report.runs += 1;
            check_recovery(
                &io,
                dir,
                &run,
                &baselines,
                &mut report,
                &format!("{mode:?}@{n}"),
            )?;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trimmed matrix runs inside the unit suite; the full default
    /// matrix is the `crash_matrix` integration test.
    #[test]
    fn small_matrix_holds() {
        let cfg = CrashMatrixConfig {
            ops: 4,
            checkpoint_every: 2,
            resize_after: Some(2),
            max_points: 12,
            ..CrashMatrixConfig::default()
        };
        let report = run_crash_matrix(&cfg).expect("crash matrix");
        assert_eq!(report.runs, 36);
        assert!(report.recovered + report.graceful_errors == report.runs);
        assert!(report.recovered > 0);
        let staged = run_staged_crash_matrix(&cfg).expect("staged crash matrix");
        assert_eq!(staged.runs, 36);
        assert!(staged.recovered + staged.graceful_errors == staged.runs);
        // Two flushes share a commit, so the staged schedule is shorter.
        assert!(staged.crash_points < report.crash_points);
    }
}
