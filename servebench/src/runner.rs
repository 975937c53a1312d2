//! One run of one workload: generate the streams, then either the
//! end-to-end phases (`--trace 0`) or the isolated layers plus the
//! traced phases (`--trace 1`).

use crate::layers;
use crate::probe::Reading;
use crate::report::{Metrics, RunResult};
use crate::session::Session;
use crate::stats::{cleanest_rate, cleanest_sliced, mean, median, percentile};
use crate::stream::TenantStream;
use crate::system::{Failure, Probes};
use crate::workload::{Plan, Workload, LADDER, LATENCY_SLICES, OPEN_RUNG, TENANTS};
use realloc_sched::telemetry::Histogram;
use realloc_sched::{labeled, Telemetry};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Full set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Stream seed; tenant `t` uses `seed + t`.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Active-set divisor (1 except in selftest's miniature).
    pub shrink: usize,
}

/// The generated streams of one run.
#[derive(Debug)]
pub struct Streams {
    /// One per tenant.
    pub tenants: Vec<TenantStream>,
    /// Where each tenant's prefill ends (commands and requests alike:
    /// the prefill carries no reads).
    pub prefill_ends: Vec<usize>,
    /// Wall time of the generation.
    pub pregen_secs: f64,
}

/// Generates every tenant's stream from `seed` — one generator thread
/// per tenant — sized for the plan's phases at the reference rates.
pub fn pregen(workload: &Workload, plan: &Plan, seed: u64) -> Streams {
    let t0 = Instant::now();
    let target = plan.target_active(workload);
    let sat = (workload.ref_rps * plan.sat_secs) as usize;
    let open = (workload.ref_rps * plan.open_step_secs * LADDER[OPEN_RUNG]) as usize;
    let rtt = plan.rtt_count(workload) * plan.rounds;
    let first_tenant_extra = rtt + open + 2 * plan.recover_tail;
    let built: Vec<(TenantStream, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..TENANTS)
            .map(|t| {
                scope.spawn(move || {
                    let tenant_seed = seed + u64::from(t);
                    let mut stream = TenantStream::new(t + 1, tenant_seed, target);
                    let prefill = stream.prefill_to(target);
                    if workload.reads {
                        stream.start_reads(tenant_seed);
                    }
                    let extra = if t == 0 { first_tenant_extra } else { 0 };
                    stream.extend_to(prefill + sat + extra);
                    (stream, prefill)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stream generator panicked"))
            .collect()
    });
    let (tenants, prefill_ends) = built.into_iter().unzip();
    Streams {
        tenants,
        prefill_ends,
        pregen_secs: t0.elapsed().as_secs_f64(),
    }
}

/// A private directory for this run under `out_root`, removed when the
/// run ends (the stores of 90-odd driver runs must not pile up).
struct RunDir(PathBuf);

impl RunDir {
    fn create(out_root: &Path, args: &RunArgs) -> Result<RunDir, Failure> {
        let dir = out_root.join(format!(
            "run-{}-{}-{}",
            std::process::id(),
            args.workload.name,
            u8::from(args.trace)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload in one mode.
pub fn run(args: &RunArgs, out_root: &Path) -> Result<RunResult, Failure> {
    let plan = Plan {
        shrink: args.shrink,
        ..if args.trace {
            Plan::traced(args.seconds)
        } else {
            Plan::end_to_end(args.seconds)
        }
    };
    let dir = RunDir::create(out_root, args)?;
    let mut streams = pregen(&args.workload, &plan, args.seed);
    if args.trace {
        per_layer(args, &plan, &mut streams, &dir.0, out_root)
    } else {
        end_to_end(args, &plan, &mut streams, &dir.0)
    }
}

/// `Session::setup` in `dir/name` over the run's streams.
fn setup<'a>(
    args: &RunArgs,
    plan: &Plan,
    streams: &'a mut Streams,
    dir: &Path,
    name: &str,
    traced: bool,
) -> Result<Session<'a>, Failure> {
    Session::setup(
        args.workload,
        *plan,
        &mut streams.tenants,
        &streams.prefill_ends,
        &dir.join(name),
        traced,
    )
}

fn result(metrics: Metrics, outcome: crate::client::Outcome) -> RunResult {
    RunResult {
        correct: outcome.failed == 0,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics,
    }
}

fn end_to_end(
    args: &RunArgs,
    plan: &Plan,
    streams: &mut Streams,
    dir: &Path,
) -> Result<RunResult, Failure> {
    let workload = args.workload;
    let mut metrics = Metrics::default();
    let mut outcome = crate::client::Outcome::default();

    // `setup`, several times over: the median is `setup_s`, the last
    // system is the one the phases run against.
    let mut setup_secs = Vec::with_capacity(SETUPS);
    for k in 0..SETUPS - 1 {
        let session = setup(args, plan, streams, dir, &format!("setup-{k}"), false)?;
        setup_secs.push(session.setup_secs);
        outcome.absorb(session.finish()?.1);
    }
    let mut session = setup(args, plan, streams, dir, "system", false)?;
    setup_secs.push(session.setup_secs);
    metrics.push("setup_s", median(&setup_secs));

    let costs_before = session.system.engine().metrics();
    let (mut mutation_us, mut open_us) = (Vec::new(), Vec::new());
    let (mut sat_slices, mut sat_slice_secs) = (Vec::new(), 0.0);
    for round in 0..plan.rounds {
        mutation_us.extend(session.rtt()?.samples.mutation_us);
        let sat = session.sat(workload.crash_image && round == plan.rounds / 2)?;
        sat_slices.extend(sat.slices);
        sat_slice_secs = sat.slice_secs;
        // `open`, end to end: one fixed rate below saturation. (The
        // ladder's verdicts flip with the host's slow episodes; it runs
        // in the per-layer run as `workloads.rate_ok_rps`.)
        let (step, verdict) = session.open_step(OPEN_RUNG)?;
        if verdict != crate::stats::StepVerdict::Pass {
            eprintln!("open: round {round} {:?} -> {verdict:?}", step.observation);
        }
        open_us.extend(step.latency_us);
    }
    eprintln!(
        "rtt: {} mutation samples; sat: {} slices of {sat_slice_secs:.3} s; open: {} samples",
        mutation_us.len(),
        sat_slices.len(),
        open_us.len()
    );
    eprintln!("sat slices, replies: {sat_slices:?}");
    metrics.push("sat_rps", cleanest_rate(&sat_slices, sat_slice_secs));
    metrics.push(
        "rtt_p50_us",
        cleanest_sliced(&mutation_us, LATENCY_SLICES, 0.5),
    );
    metrics.push(
        "open_p50_us",
        cleanest_sliced(&open_us, LATENCY_SLICES, 0.5),
    );
    let costs_after = session.system.engine().metrics();
    metrics.push(
        "realloc_per_req",
        (costs_after.reallocations - costs_before.reallocations) as f64
            / (costs_after.requests - costs_before.requests).max(1) as f64,
    );

    if workload.durable {
        let (recovered, sends) = session.recover()?;
        eprintln!("recover: {recovered:.4} s");
        outcome.absorb(sends);
    } else {
        outcome.absorb(session.finish()?.1);
    }
    Ok(result(metrics, outcome))
}

fn hist(telemetry: &Telemetry, name: &str) -> Histogram {
    telemetry.histogram_snapshot(name).unwrap_or_default()
}

/// Sum of a registry histogram's samples, in nanoseconds.
fn hist_sum(telemetry: &Telemetry, name: &str) -> f64 {
    hist(telemetry, name).sum() as f64
}

fn io_total(probes: &Probes) -> Reading {
    let (a, f, d, p) = (
        probes.io.append.reading(),
        probes.io.sync_file.reading(),
        probes.io.sync_dir.reading(),
        probes.io.pace.reading(),
    );
    Reading {
        calls: f.calls + d.calls,
        nanos: a.nanos + f.nanos + d.nanos + p.nanos,
        bytes: a.bytes,
    }
}

fn per_layer(
    args: &RunArgs,
    plan: &Plan,
    streams: &mut Streams,
    dir: &Path,
    out_root: &Path,
) -> Result<RunResult, Failure> {
    let workload = args.workload;
    let mut metrics = Metrics::default();
    let mut outcome = crate::client::Outcome::default();
    let pregen_secs = streams.pregen_secs;

    layers::run(
        &workload,
        plan,
        args.seed,
        &streams.tenants,
        &streams.prefill_ends,
        dir,
        &mut metrics,
    )?;

    // The untraced system: the read path alone, and the `sat` the traced
    // one is compared against.
    let mut plain = setup(args, plan, streams, dir, "plain", false)?;
    metrics.push("service.read_rtt_p50_us", plain.read_rtt_p50()?);
    let plain_sat = plain.sat(false)?;
    let (highest, attempts) = plain.open_ladder()?;
    let rate_ok = match highest {
        Some(step) => LADDER[step] * workload.ref_rps,
        // Not even the lowest rung met the limit: what it did deliver
        // in time, so the metric stays a rate.
        None => {
            let lowest = &attempts
                .last()
                .expect("the ladder ran a step")
                .1
                .observation;
            lowest.ok_in_limit as f64 / plan.open_step_secs
        }
    };
    metrics.push("workloads.rate_ok_rps", rate_ok);
    outcome.absorb(plain.finish()?.1);

    // The traced system: every batch traced, decorators installed.
    let mut traced = setup(args, plan, streams, dir, "traced", true)?;
    let telemetry = traced.system.telemetry.clone();
    let probes = traced.system.probes.clone().expect("traced system");
    let service_hist = labeled("service_request_nanos", "tenant", 1);

    // `rtt`, with no checkpoint allowed in (its I/O would land in the
    // store's spans).
    let (service0, flush0) = (
        hist_sum(&telemetry, &service_hist),
        hist_sum(&telemetry, "engine_flush_total_nanos"),
    );
    let (sink_append0, sink_sync0, io0) = (
        probes.sink.append_batch.reading(),
        probes.sink.sync.reading(),
        io_total(&probes),
    );
    let rtt = {
        let gate = std::sync::Arc::clone(&traced.system.store_gate);
        let _no_checkpoints = gate.lock().expect("store gate poisoned");
        traced.rtt()?
    };
    let commands = (rtt.samples.mutation_us.len() + rtt.samples.read_us.len()).max(1) as f64;
    let per_command_us = |nanos: f64| nanos / 1e3 / commands;
    let rtt_us = (rtt.samples.mutation_us.iter().sum::<f64>()
        + rtt.samples.read_us.iter().sum::<f64>())
        / commands;
    let service_total = per_command_us(hist_sum(&telemetry, &service_hist) - service0);
    let engine_total = per_command_us(hist_sum(&telemetry, "engine_flush_total_nanos") - flush0);
    let sink_append =
        per_command_us(probes.sink.append_batch.reading().since(sink_append0).nanos as f64);
    let sink_sync = per_command_us(probes.sink.sync.reading().since(sink_sync0).nanos as f64);
    let fs = per_command_us(io_total(&probes).since(io0).nanos as f64);
    // Inbound wire: each mutation's send stamp to the service's
    // `receipt` point (both on the registry's clock).
    let receipts: Vec<u64> = telemetry
        .trace_events()
        .iter()
        .filter(|e| e.key == "receipt")
        .map(|e| e.b)
        .collect();
    let sent = &rtt.samples.mutation_sent_at;
    let wire_us = if receipts.len() >= sent.len() {
        let receipts = &receipts[receipts.len() - sent.len()..];
        let inbound: Vec<f64> = sent
            .iter()
            .zip(receipts)
            .map(|(s, r)| r.saturating_sub(*s) as f64 / 1e3)
            .collect();
        // Reads carry no receipt point; they are taken to cross the
        // wire as mutations do.
        mean(&inbound)
    } else {
        return Err(format!(
            "trace ring kept {} receipts for {} traced mutations",
            receipts.len(),
            sent.len()
        ));
    };
    metrics.push("budget.rtt_us", rtt_us);
    metrics.push("budget.wire_us", wire_us);
    metrics.push(
        "budget.service_us",
        service_total - engine_total - sink_sync,
    );
    metrics.push("budget.engine_us", engine_total - sink_append);
    metrics.push("budget.store_us", sink_append + sink_sync - fs);
    metrics.push("budget.fs_us", fs);
    metrics.push("budget.unattributed_us", rtt_us - wire_us - service_total);
    // The tail of the depth-1 round trip: over a quarter as many
    // slices, so each has ten samples beyond its 99th percentile.
    metrics.push(
        "workloads.rtt_p99_us",
        cleanest_sliced(&rtt.samples.mutation_us, LATENCY_SLICES / 4, 0.99),
    );
    metrics.push("workloads.rtt_realloc_per_req", rtt.realloc_per_req);
    metrics.push("workloads.realloc_max", rtt.realloc_max);
    let mut read_us = rtt.samples.read_us.clone();
    metrics.push("workloads.read_p50_us", percentile(&mut read_us, 0.5));

    // `sat`, traced: the frame budget and the store's per-request counts.
    let (io1, ship1) = (io_total(&probes), probes.ship.reading());
    let pump0 = traced.system.replication.as_ref().map(|r| {
        (
            r.stats.poll.reading(),
            r.stats.frames.load(Ordering::SeqCst),
        )
    });
    let apply_from = traced.system.replication.as_ref().map_or(0, |r| {
        r.stats
            .apply_ack_us
            .lock()
            .expect("pump stats poisoned")
            .len()
    });
    let sat = traced.sat(false)?;
    let sat_io = io_total(&probes).since(io1);
    let requests = sat.requests.max(1) as f64;
    metrics.push("store.fsync_p50_us", probes.io.sync_file.p50_us());
    metrics.push("store.sync_pace_p50_us", probes.io.pace.p50_us());
    metrics.push("store.fsyncs_per_req", sat_io.calls as f64 / requests);
    metrics.push("store.bytes_per_req", sat_io.bytes as f64 / requests);
    metrics.push("service.reqs_per_flush", sat.reqs_per_flush);
    let rps = |sat: &crate::session::SatPhase| cleanest_rate(&sat.slices, sat.slice_secs);
    metrics.push(
        "telemetry.trace_overhead_ratio",
        rps(&sat) / rps(&plain_sat).max(1.0),
    );
    let mut lag = sat.lag_us.clone();
    metrics.push("workloads.quorum_lag_p50_us", percentile(&mut lag, 0.5));
    metrics.push("workloads.quorum_lag_p99_us", percentile(&mut lag, 0.99));
    match (&traced.system.replication, pump0) {
        (Some(r), Some((poll0, frames0))) => {
            let frames = (r.stats.frames.load(Ordering::SeqCst) - frames0).max(1) as f64;
            let poll = r.stats.poll.reading().since(poll0);
            let ship = probes.ship.reading().since(ship1);
            let apply_ack =
                r.stats.apply_ack_us.lock().expect("pump stats poisoned")[apply_from..].to_vec();
            metrics.push("budget.poll_us", poll.nanos as f64 / 1e3 / frames);
            metrics.push("budget.ship_us", ship.nanos as f64 / 1e3 / frames);
            metrics.push("budget.apply_ack_us", mean(&apply_ack));
            metrics.push("cluster.ship_p50_us", probes.ship.p50_us());
            let (mut stalls, mut acks) = (0u64, Histogram::new());
            for addr in &r.replica_addrs() {
                stalls += telemetry
                    .counter_value(&labeled(
                        "cluster_link_backpressure_stalls_total",
                        "replica",
                        addr,
                    ))
                    .unwrap_or(0);
                acks.merge(&hist(
                    &telemetry,
                    &labeled("cluster_ack_batch_size", "replica", addr),
                ));
            }
            metrics.push("cluster.window_stalls", stalls as f64);
            metrics.push("cluster.frames_per_ack", acks.mean());
        }
        _ => {
            for name in [
                "budget.poll_us",
                "budget.ship_us",
                "budget.apply_ack_us",
                "cluster.ship_p50_us",
                "cluster.window_stalls",
                "cluster.frames_per_ack",
            ] {
                metrics.push_absent(name);
            }
        }
    }

    // One open-loop step at the end-to-end run's rung: the generator's
    // own honesty numbers.
    let (step, _) = traced.open_step(OPEN_RUNG)?;
    let mut latency = step.latency_us.clone();
    metrics.push(
        "workloads.gen_late_p99_us",
        step.observation.gen_late_p99_us,
    );
    metrics.push("workloads.open_p50_us", percentile(&mut latency, 0.5));
    metrics.push("workloads.open_p99_us", percentile(&mut latency, 0.99));
    metrics.push("workloads.pregen_s", pregen_secs);

    let mut scrape_us: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(telemetry.render_text());
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    metrics.push("telemetry.scrape_us", percentile(&mut scrape_us, 0.5));
    metrics.push(
        "service.shed",
        telemetry.counter_value("service_shed_total").unwrap_or(0) as f64,
    );

    write_trace(out_root, &workload, &metrics)?;
    if workload.durable {
        let (recovered, sends) = traced.recover()?;
        outcome.absorb(sends);
        metrics.push("workloads.recovery_s", recovered);
    } else {
        outcome.absorb(traced.finish()?.1);
        metrics.push_absent("workloads.recovery_s");
    }
    Ok(result(metrics, outcome))
}

/// Writes the traced run's budget table (stages as rows) next to the
/// results, for people; the driver reads only the result line.
fn write_trace(out_root: &Path, workload: &Workload, metrics: &Metrics) -> Result<(), Failure> {
    let rows: Vec<String> = metrics
        .names()
        .into_iter()
        .filter(|n| n.starts_with("budget."))
        .map(|n| format!("    \"{n}\": {}", metrics.get(n).unwrap_or(0.0)))
        .collect();
    let text = format!(
        "{{\n  \"workload\": \"{}\",\n  \"budget_us\": {{\n{}\n  }}\n}}\n",
        workload.name,
        rows.join(",\n")
    );
    let path = out_root.join(format!("trace-{}.json", workload.name));
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}
