//! E13 — engine throughput: replays a churn workload through the sharded
//! batching service (`realloc-engine`) and reports requests/sec plus
//! per-shard cost telemetry.
//!
//! ```text
//! exp_engine_throughput [--shards N] [--requests N] [--batch N]
//!                       [--machines N] [--backend KIND] [--gamma G]
//!                       [--sweep] [--seed S]
//!                       [--no-telemetry] [--overhead-check]
//!                       [--tolerance-pct F] [--trials N]
//! ```
//!
//! Defaults replay a 100 000-request churn stream (γ = 8, unaligned
//! windows) across 4 shards of 1 machine each, batched 256 requests per
//! flush, on the Theorem-1 backend, with a telemetry registry attached
//! (disable with `--no-telemetry`). `--sweep` additionally scans shard
//! counts 1–16, emitting one **JSON line per configuration** — machine-
//! readable, with registry-derived flush/route latency percentiles
//! alongside the throughput numbers — and then times the online 4↔8
//! resize at three loads (E13c), one JSON line per load, exiting 1 if a
//! flip fails or leaves an engine that does not validate, and last
//! prices the scheduler's memory penalty (E13d): one routed
//! `mem_dense`-shaped churn stream (two tenants of 16 384 active jobs,
//! spans 1…4096 over `2^16`, `--requests` of churn after the prefill) fed
//! to four bare `theorem_one(4, 8)` schedulers and served shard by shard,
//! by pairs of shards, and interleaved as the engine serves them, one
//! JSON line per serving order. The same requests reach the same
//! schedulers in every order; only how many shards' state is live at a
//! time differs, so the spread of the three lines is what the layout
//! costs in cache misses. It exits 1 if a request fails.
//!
//! `--overhead-check` is the CI guard for the ingest hot path: it runs
//! `--trials` interleaved instrumented/uninstrumented pairs (mode order
//! alternating, on-CPU time from `/proc/self/schedstat`), takes the
//! cleanest (minimum) per-pair ratio — host noise only ever inflates a
//! pair, while a real regression inflates every pair — and exits
//! non-zero when that ratio exceeds `--tolerance-pct` (default 2.0).

use realloc_core::{JobId, Reallocator, Request, RequestOutcome, Router, TENANT_SHIFT};
use realloc_engine::{BackendKind, Engine, EngineConfig};
use realloc_multi::TheoremOneScheduler;
use realloc_sim::harness::{churn_seq, engine_config};
use realloc_sim::report::{f2, Table};
use realloc_telemetry::Telemetry;
use realloc_workloads::{ChurnConfig, ChurnGenerator};
use std::time::Instant;

struct Args {
    shards: usize,
    requests: usize,
    batch: usize,
    machines: usize,
    backend: Option<String>,
    gamma: u64,
    sweep: bool,
    seed: u64,
    telemetry: bool,
    overhead_check: bool,
    tolerance_pct: f64,
    trials: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        shards: 4,
        requests: 100_000,
        batch: 256,
        machines: 1,
        backend: None,
        gamma: 8,
        sweep: false,
        seed: 13,
        telemetry: true,
        overhead_check: false,
        tolerance_pct: 2.0,
        trials: 5,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<u64>()
                .map_err(|e| format!("bad {name}: {e}"))
        };
        match flag.as_str() {
            "--shards" => args.shards = num("--shards")? as usize,
            "--requests" => args.requests = num("--requests")? as usize,
            "--batch" => args.batch = num("--batch")? as usize,
            "--machines" => args.machines = num("--machines")? as usize,
            "--gamma" => args.gamma = num("--gamma")?,
            "--backend" => args.backend = Some(it.next().ok_or("--backend needs a value")?),
            "--sweep" => args.sweep = true,
            "--seed" => args.seed = num("--seed")?,
            "--no-telemetry" => args.telemetry = false,
            "--overhead-check" => args.overhead_check = true,
            "--tolerance-pct" => {
                args.tolerance_pct = it
                    .next()
                    .ok_or("--tolerance-pct needs a value")?
                    .parse::<f64>()
                    .map_err(|e| format!("bad --tolerance-pct: {e}"))?;
            }
            "--trials" => args.trials = num("--trials")? as usize,
            "--help" | "-h" => {
                println!(
                    "usage: exp_engine_throughput [--shards N] [--requests N] \
                     [--batch N] [--machines N] [--backend KIND] [--gamma G] \
                     [--sweep] [--seed S] [--no-telemetry] \
                     [--overhead-check] [--tolerance-pct F] [--trials N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.shards == 0 || args.batch == 0 || args.machines == 0 || args.trials == 0 {
        return Err("--shards/--batch/--machines/--trials must be >= 1".into());
    }
    Ok(args)
}

/// Replays `seq` through a fresh engine; `telemetry` (when enabled) is
/// attached *before* ingest so the registry sees the whole run.
fn replay(
    cfg: EngineConfig,
    seq: &realloc_core::RequestSeq,
    batch: usize,
    telemetry: &Telemetry,
) -> (Engine, f64) {
    let mut engine = Engine::new(cfg);
    engine.attach_telemetry(telemetry);
    let start = Instant::now();
    engine.ingest(seq, batch);
    let secs = start.elapsed().as_secs_f64();
    (engine, secs)
}

/// One `--sweep` configuration as a JSON line: throughput plus the
/// flush-phase and routing latency percentiles the registry observed.
fn json_line(shards: usize, secs: f64, engine: &Engine, tel: &Telemetry) -> String {
    let m = engine.metrics();
    let q = |name: &str, q: f64| tel.quantile(name, q).unwrap_or(0);
    format!(
        concat!(
            "{{\"shards\":{},\"requests\":{},\"failed\":{},\"secs\":{:.6},",
            "\"requests_per_sec\":{:.0},\"batches\":{},\"realloc_mean\":{:.4},",
            "\"realloc_p99\":{},\"imbalance\":{:.4},",
            "\"flush_p50_nanos\":{},\"flush_p95_nanos\":{},\"flush_p99_nanos\":{},",
            "\"route_p50_nanos\":{},\"route_p99_nanos\":{},",
            "\"barrier_p99_nanos\":{},\"journal_p99_nanos\":{}}}"
        ),
        shards,
        m.requests,
        m.failed,
        secs,
        m.requests as f64 / secs.max(1e-9),
        engine.batches(),
        m.cost.mean,
        m.cost.p99,
        m.imbalance(),
        q("engine_flush_total_nanos", 0.5),
        q("engine_flush_total_nanos", 0.95),
        q("engine_flush_total_nanos", 0.99),
        q("engine_route_nanos", 0.5),
        q("engine_route_nanos", 0.99),
        q("engine_flush_barrier_nanos", 0.99),
        q("engine_flush_journal_nanos", 0.99),
    )
}

/// Nanoseconds this thread has actually spent **on-CPU**, from
/// `/proc/self/schedstat` (first field); `None` off-Linux. Unlike wall
/// time this does not advance while the process is preempted, and unlike
/// `/proc/self/stat`'s utime it has nanosecond (not 10 ms tick)
/// resolution — exactly what a sub-second A/B timing needs on a shared
/// host. Thread-scoped, which is what we want: ingest runs on this
/// thread.
fn cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

/// Measured telemetry overhead, as `(best, median)` percentages over
/// `--trials` interleaved pairs (one untimed warmup first). Each pair
/// runs the workload in both modes back-to-back — alternating which
/// mode goes first so monotone drift (thermal throttling, a co-tenant
/// ramping up) cancels — and its ratio uses on-CPU nanoseconds when
/// `/proc` offers them, wall time otherwise.
///
/// The *gate* uses **best** (the minimum pair ratio): on a shared host,
/// contention noise of several percent is routine and strictly
/// additive-ish per run, so the cleanest pair is the most faithful
/// estimate of the true overhead — and a real hot-path regression
/// inflates every pair, so the minimum still catches it. The median is
/// reported alongside for context.
fn overhead_pct(args: &Args, cfg: &EngineConfig, seq: &realloc_core::RequestSeq) -> (f64, f64) {
    let _ = replay(cfg.clone(), seq, args.batch, &realloc_telemetry::disabled());
    let mut ratios = Vec::with_capacity(args.trials);
    for trial in 0..args.trials {
        let run = |enabled: bool| -> (f64, f64) {
            let c0 = cpu_ticks();
            let tel = if enabled {
                Telemetry::new()
            } else {
                realloc_telemetry::disabled()
            };
            let (_, wall) = replay(cfg.clone(), seq, args.batch, &tel);
            let cpu = cpu_ticks().zip(c0).map(|(c1, c0)| (c1 - c0) as f64);
            (wall, cpu.unwrap_or(wall))
        };
        let instrumented_first = trial % 2 == 1;
        let first = run(instrumented_first);
        let second = run(!instrumented_first);
        let (plain, instrumented) = if instrumented_first {
            (second, first)
        } else {
            (first, second)
        };
        ratios.push(instrumented.1 / plain.1.max(1e-9));
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let best = (ratios[0] - 1.0) * 100.0;
    let mid = ratios.len() / 2;
    let median = if ratios.len() % 2 == 1 {
        ratios[mid]
    } else {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    };
    (best, (median - 1.0) * 100.0)
}

/// Online resizes timed per flip (even, so the engine ends where it began).
const FLIPS: usize = 20;

/// One E13c line: a loaded 4-shard, 1-machine, unjournaled Theorem-1
/// engine flipped live between 4 and 8 shards `FLIPS` times — each flip
/// re-places every active job onto the rerouted shard set. The stream is
/// one-machine dense, so any split of it fits any shard count and every
/// flip must succeed; `engine.validate()` must pass after them.
fn resize_line(target_active: usize) -> Result<String, String> {
    let seq = churn_seq(1, 8, target_active, 1 << 14, false, target_active * 3, 71);
    let backend = BackendKind::TheoremOne { gamma: 8 };
    let mut engine = Engine::new(engine_config(4, 1, backend));
    engine.ingest(&seq, 512);
    let jobs = engine.active_count();
    if jobs <= target_active / 2 {
        return Err(format!("resize workload too shallow: {jobs} active"));
    }
    let mut nanos = Vec::with_capacity(FLIPS);
    for _ in 0..FLIPS {
        let to = if engine.config().shards == 4 { 8 } else { 4 };
        let start = Instant::now();
        engine
            .resize(to)
            .map_err(|e| format!("resize to {to} shards failed: {e}"))?;
        nanos.push(start.elapsed().as_nanos());
    }
    engine
        .validate()
        .map_err(|e| format!("resize left an invalid engine: {e}"))?;
    nanos.sort_unstable();
    Ok(format!(
        concat!(
            "{{\"target_active\":{},\"jobs\":{},\"jobs_per_shard\":{},",
            "\"flips\":{},\"median_ns\":{},\"min_ns\":{}}}"
        ),
        target_active,
        jobs,
        jobs / 4,
        FLIPS,
        nanos[FLIPS / 2],
        nanos[0],
    ))
}

/// E13d's shards, machines per shard and trim factor: servebench's
/// `mem_dense` engine.
const E13D_SHARDS: usize = 4;
const E13D_MACHINES: usize = 4;
const E13D_GAMMA: u64 = 8;

/// Requests one tenant sends before the other's turn.
const E13D_HALF: usize = 16;

/// Timed passes per serving order; each line reports the median and the
/// fastest.
const E13D_ROUNDS: usize = 3;

/// The E13d stream, routed: `(shard, request)` pairs of the prefill and of
/// the `requests` churn requests after it.
struct RoutedStream {
    prefill: Vec<(usize, Request)>,
    churn: Vec<(usize, Request)>,
}

/// Two `mem_dense` tenants (seeds 1 and 2, 16 384 active jobs each, ids in
/// their tenant's namespace as the service writes them), each prefilled
/// to its target, then `requests` churn requests in turns of
/// [`E13D_HALF`] per tenant; every request routed as a genesis engine of
/// [`E13D_SHARDS`] shards routes it.
fn mem_dense_stream(requests: usize) -> RoutedStream {
    let config = ChurnConfig {
        machines: E13D_MACHINES,
        gamma: E13D_GAMMA,
        horizon: 1 << 16,
        spans: vec![1, 4, 16, 64, 256, 1024, 4096],
        target_active: 16_384,
        insert_bias: 0.6,
        unaligned: true,
    };
    let router = Router::new(E13D_SHARDS);
    let qualify = |tenant: u64, request: Request| {
        let id = |id: JobId| JobId((tenant << TENANT_SHIFT) | id.0);
        let request = match request {
            Request::Insert { id: raw, window } => Request::Insert {
                id: id(raw),
                window,
            },
            Request::Delete { id: raw } => Request::Delete { id: id(raw) },
        };
        (router.route(request.job_id()), request)
    };
    let mut tenants = [1u64, 2].map(|t| (t, ChurnGenerator::new(config.clone(), t)));
    let mut prefill = Vec::new();
    for (tenant, gen) in &mut tenants {
        while gen.active().len() < config.target_active {
            let request = gen.next_request().expect("churn never saturates here");
            prefill.push(qualify(*tenant, request));
        }
    }
    let mut churn = Vec::with_capacity(requests);
    'turns: loop {
        for (tenant, gen) in &mut tenants {
            for _ in 0..E13D_HALF {
                if churn.len() == requests {
                    break 'turns;
                }
                let request = gen.next_request().expect("churn never saturates here");
                churn.push(qualify(*tenant, request));
            }
        }
    }
    RoutedStream { prefill, churn }
}

/// Serves `requests` through `schedulers`, each request on its shard's,
/// and returns how many failed.
fn serve(schedulers: &mut [TheoremOneScheduler], requests: &[(usize, Request)]) -> usize {
    let mut out = RequestOutcome::empty();
    let mut failed = 0;
    for &(shard, request) in requests {
        out.moves.clear();
        failed += usize::from(schedulers[shard].request_into(request, &mut out).is_err());
    }
    failed
}

/// E13d: one JSON line per serving order (see the module docs), or the
/// first failure.
fn memory_lines(requests: usize) -> Result<Vec<String>, String> {
    let stream = mem_dense_stream(requests);
    let mut prefilled: Vec<TheoremOneScheduler> = (0..E13D_SHARDS)
        .map(|_| TheoremOneScheduler::theorem_one(E13D_MACHINES, E13D_GAMMA))
        .collect();
    let failed = serve(&mut prefilled, &stream.prefill);
    if failed > 0 {
        return Err(format!("{failed} prefill requests failed"));
    }
    let in_stream_order = |shards: &[usize]| -> Vec<(usize, Request)> {
        (stream.churn.iter())
            .filter(|(shard, _)| shards.contains(shard))
            .copied()
            .collect()
    };
    let orders: [(&str, Vec<(usize, Request)>); 3] = [
        (
            "shard",
            (0..E13D_SHARDS)
                .flat_map(|s| in_stream_order(&[s]))
                .collect(),
        ),
        (
            "pairs",
            [[0, 1], [2, 3]]
                .iter()
                .flat_map(|pair| in_stream_order(pair))
                .collect(),
        ),
        ("interleaved", stream.churn.clone()),
    ];
    let mut nanos = [const { Vec::new() }; 3];
    for round in 0..E13D_ROUNDS {
        for i in 0..orders.len() {
            // Rotate which order goes first, so drift spreads evenly.
            let (order, requests) = &orders[(i + round) % orders.len()];
            let mut schedulers = prefilled.clone();
            let start = Instant::now();
            let failed = serve(&mut schedulers, requests);
            let elapsed = start.elapsed().as_nanos() as f64;
            if failed > 0 {
                return Err(format!("{failed} requests failed serving by {order}"));
            }
            nanos[(i + round) % orders.len()].push(elapsed / requests.len().max(1) as f64);
        }
    }
    Ok(orders
        .iter()
        .zip(&mut nanos)
        .map(|((order, requests), ns)| {
            ns.sort_by(f64::total_cmp);
            format!(
                concat!(
                    "{{\"order\":\"{}\",\"shards\":{},\"prefill\":{},",
                    "\"requests\":{},\"rounds\":{},\"median_ns_per_req\":{:.1},",
                    "\"min_ns_per_req\":{:.1}}}"
                ),
                order,
                E13D_SHARDS,
                stream.prefill.len(),
                requests.len(),
                ns.len(),
                ns[ns.len() / 2],
                ns[0],
            )
        })
        .collect())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("exp_engine_throughput: {e}");
            std::process::exit(2);
        }
    };
    let backend = match &args.backend {
        Some(raw) => match BackendKind::parse(raw) {
            Ok(k) => k,
            Err(e) => {
                eprintln!("exp_engine_throughput: {e}");
                std::process::exit(2);
            }
        },
        None => BackendKind::TheoremOne { gamma: args.gamma },
    };

    // One shared workload: the engine's router partitions it by job id,
    // so the same stream is comparable across shard counts. Machine
    // budget scales with the shard count × machines per shard.
    let seq = churn_seq(
        args.shards * args.machines,
        args.gamma,
        64 * args.shards * args.machines,
        1 << 12,
        true,
        args.requests,
        args.seed,
    );
    println!(
        "workload: {} requests (peak {} active, max span {}), backend {}, \
         {} shard(s) x {} machine(s), batch {}\n",
        seq.len(),
        seq.peak_active(),
        seq.max_span(),
        backend,
        args.shards,
        args.machines,
        args.batch,
    );

    let cfg = engine_config(args.shards, args.machines, backend);

    if args.overhead_check {
        let (best, median) = overhead_pct(&args, &cfg, &seq);
        println!(
            "overhead check: instrumented vs uninstrumented ingest {best:+.2}% \
             (cleanest of {} interleaved pairs; median {median:+.2}%, \
             tolerance {:.2}%)",
            args.trials, args.tolerance_pct
        );
        if best > args.tolerance_pct {
            eprintln!("exp_engine_throughput: telemetry overhead exceeds tolerance");
            std::process::exit(1);
        }
        return;
    }

    let tel = if args.telemetry {
        Telemetry::new()
    } else {
        realloc_telemetry::disabled()
    };
    let (engine, secs) = replay(cfg, &seq, args.batch, &tel);
    let m = engine.metrics();

    let mut t = Table::new(
        "E13: per-shard telemetry",
        &[
            "shard",
            "requests",
            "failed",
            "active",
            "realloc",
            "migrations",
            "mean",
            "p50",
            "p95",
            "p99",
            "max",
        ],
    );
    for s in &m.shards {
        t.row(vec![
            s.shard.to_string(),
            s.requests.to_string(),
            s.failed.to_string(),
            s.active_jobs.to_string(),
            s.reallocations.to_string(),
            s.migrations.to_string(),
            f2(s.cost.mean),
            s.cost.p50.to_string(),
            s.cost.p95.to_string(),
            s.cost.p99.to_string(),
            s.cost.max.to_string(),
        ]);
    }
    t.row(vec![
        "all".to_string(),
        m.requests.to_string(),
        m.failed.to_string(),
        m.active_jobs.to_string(),
        m.reallocations.to_string(),
        m.migrations.to_string(),
        f2(m.cost.mean),
        m.cost.p50.to_string(),
        m.cost.p95.to_string(),
        m.cost.p99.to_string(),
        m.cost.max.to_string(),
    ]);
    t.print();
    println!(
        "throughput: {:.0} requests/sec ({} requests in {:.3}s, {} batches, \
         shard imbalance {:.2})\n",
        m.requests as f64 / secs.max(1e-9),
        m.requests,
        secs,
        engine.batches(),
        m.imbalance(),
    );
    if args.telemetry {
        println!(
            "flush p50/p95/p99: {}/{}/{} ns (queue-wait p99 {} ns, route p99 {} ns)\n",
            tel.quantile("engine_flush_total_nanos", 0.5).unwrap_or(0),
            tel.quantile("engine_flush_total_nanos", 0.95).unwrap_or(0),
            tel.quantile("engine_flush_total_nanos", 0.99).unwrap_or(0),
            tel.quantile("engine_flush_queue_wait_nanos", 0.99)
                .unwrap_or(0),
            tel.quantile("engine_route_nanos", 0.99).unwrap_or(0),
        );
    }

    if args.sweep {
        // One JSON object per configuration, one per line: pipe into a
        // file and every line parses independently.
        println!("E13b: shard-count sweep (same workload, same batch size), JSON lines:");
        for shards in [1usize, 2, 4, 8, 16] {
            let cfg = engine_config(shards, args.machines, backend);
            let tel = if args.telemetry {
                Telemetry::new()
            } else {
                realloc_telemetry::disabled()
            };
            let (engine, secs) = replay(cfg, &seq, args.batch, &tel);
            println!("{}", json_line(shards, secs, &engine, &tel));
        }
        println!("E13c: online 4<->8 resize (Theorem-1 backend, gamma 8), JSON lines:");
        for target_active in [256usize, 1024, 4096] {
            match resize_line(target_active) {
                Ok(line) => println!("{line}"),
                Err(e) => {
                    eprintln!("exp_engine_throughput: E13c: {e}");
                    std::process::exit(1);
                }
            }
        }
        println!(
            "E13d: memory penalty (mem_dense stream, {E13D_SHARDS} bare theorem_one({E13D_MACHINES}, \
             {E13D_GAMMA}) schedulers), JSON lines:"
        );
        match memory_lines(args.requests) {
            Ok(lines) => lines.iter().for_each(|line| println!("{line}")),
            Err(e) => {
                eprintln!("exp_engine_throughput: E13d: {e}");
                std::process::exit(1);
            }
        }
    }
}
