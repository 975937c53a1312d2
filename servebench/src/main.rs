//! `servebench`: the repository's end-to-end serving benchmark. See
//! `README.md` here and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! servebench run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! servebench run --seed <n>            every workload, both modes
//! servebench selftest                  seconds-long miniature + manifest check
//! servebench compare <a.jsonl> <b.jsonl>
//! ```
//!
//! Run from the repository root: outputs go under `servebench/out/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod json;
mod layers;
mod probe;
mod report;
mod runner;
mod session;
mod stats;
mod stream;
mod system;
mod workload;

use report::{Manifest, END_TO_END, PER_LAYER};
use runner::RunArgs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use system::Failure;
use workload::{Plan, Workload, WORKLOADS};

const USAGE: &str = "usage:
  servebench run [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <file>]
  servebench selftest
  servebench compare <a.jsonl> <b.jsonl>
run from the repository root (the directory holding BENCHMARK.json)";

/// The benchmark's own directory, relative to the repository root the
/// program is started in. Everything it writes goes under `out/` here.
const HOME: &str = "servebench";

fn out_root() -> Result<PathBuf, Failure> {
    if !Path::new(HOME).join("Cargo.toml").is_file() {
        return Err(format!(
            "'{HOME}/Cargo.toml' not found: run from the repository root"
        ));
    }
    let out = Path::new(HOME).join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    Ok(out)
}

fn manifest() -> Result<Manifest, Failure> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    Manifest::parse(&text)
}

/// `--key value` pairs after the subcommand.
fn flag<'a>(args: &'a [String], key: &str) -> Result<Option<&'a str>, Failure> {
    match args.iter().position(|a| a == key) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{key} needs a value")),
    }
}

fn parsed<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, Failure> {
    match flag(args, key)? {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value '{v}' for {key}")),
    }
}

fn run_one(args: &RunArgs, out: &Path, record: Option<&str>) -> Result<bool, Failure> {
    let result = runner::run(args, out)?;
    print!("{}", result.table());
    if let Some(path) = record {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(
            file,
            "{}",
            result.record_line(args.workload.name, args.seed, args.trace)
        )
        .map_err(|e| format!("{path}: {e}"))?;
    }
    // The result object is the last line of standard output.
    println!("{}", result.result_line());
    Ok(result.correct)
}

fn cmd_run(args: &[String]) -> Result<bool, Failure> {
    let out = out_root()?;
    let seed: u64 = parsed(args, "--seed", 1)?;
    let seconds: f64 = parsed(args, "--seconds", workload::NOMINAL_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    let record = flag(args, "--out")?;
    let one = |workload: Workload, trace: bool| RunArgs {
        workload,
        seed,
        seconds,
        trace,
        shrink: 1,
    };
    match flag(args, "--workload")? {
        Some(name) => {
            let workload =
                workload::by_name(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
            let trace = match flag(args, "--trace")? {
                None | Some("0") => false,
                Some("1") => true,
                Some(v) => return Err(format!("bad value '{v}' for --trace")),
            };
            run_one(&one(workload, trace), &out, record)
        }
        None => {
            let mut correct = true;
            for workload in WORKLOADS {
                for trace in [false, true] {
                    println!("# {} trace={}", workload.name, u8::from(trace));
                    correct &= run_one(&one(workload, trace), &out, record)?;
                }
            }
            Ok(correct)
        }
    }
}

/// A seconds-long miniature of all four workloads in both modes: the
/// metric sets printed must equal the sets `BENCHMARK.json` declares,
/// and the same seed must give the same command streams and the same
/// reallocation counts.
fn cmd_selftest() -> Result<bool, Failure> {
    let manifest = manifest()?;
    manifest.check_against_declarations()?;
    let out = out_root()?;
    const MINI_SECONDS: f64 = 1.0;
    const SHRINK: usize = 16;
    for workload in WORKLOADS {
        let plan = Plan {
            shrink: SHRINK,
            ..Plan::end_to_end(MINI_SECONDS)
        };
        let digests = |seed| -> Vec<u64> {
            runner::pregen(&workload, &plan, seed)
                .tenants
                .iter()
                .map(|t| t.commands.digest())
                .collect()
        };
        if digests(7) != digests(7) || digests(7) == digests(8) {
            return Err(format!(
                "{}: streams are not a function of the seed",
                workload.name
            ));
        }
        let mut exact: Vec<Vec<f64>> = Vec::new();
        for trace in [false, true, true] {
            let args = RunArgs {
                workload,
                seed: 7,
                seconds: MINI_SECONDS,
                trace,
                shrink: SHRINK,
            };
            let result = runner::run(&args, &out)?;
            let declared: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.0).collect()
            } else {
                END_TO_END.iter().map(|m| m.0).collect()
            };
            let mut printed = result.metrics.names();
            printed.sort_unstable();
            let mut want = declared.clone();
            want.sort_unstable();
            if printed != want {
                return Err(format!(
                    "{} trace={}: printed {printed:?}, declared {want:?}",
                    workload.name,
                    u8::from(trace)
                ));
            }
            if !result.correct {
                return Err(format!(
                    "{} trace={}: {} of {} commands failed",
                    workload.name,
                    u8::from(trace),
                    result.failed,
                    result.attempted
                ));
            }
            // Counts taken where one connection drives the engine, so
            // that the order of requests — and with it every count —
            // is a function of the seed alone.
            let exact_names: &[&str] = if trace {
                &[
                    "multi.reallocs_per_req",
                    "multi.migrations_per_req",
                    "multi.realloc_max",
                    "reservation.reallocs_per_req",
                    "reservation.realloc_max",
                    "workloads.rtt_realloc_per_req",
                    "workloads.realloc_max",
                ]
            } else {
                &[]
            };
            exact.push(
                exact_names
                    .iter()
                    .map(|n| result.metrics.get(n).expect("declared metric printed"))
                    .collect(),
            );
            println!(
                "selftest: {} trace={} ok ({} metrics, {} commands)",
                workload.name,
                u8::from(trace),
                printed.len(),
                result.attempted
            );
        }
        if exact[1] != exact[2] {
            return Err(format!(
                "{}: same seed, different counts: {exact:?}",
                workload.name
            ));
        }
    }
    println!("selftest: ok");
    Ok(true)
}

/// Set in the environment of the pinned child (so it does not pin
/// again): the CPU everything runs on.
const PINNED: &str = "SERVEBENCH_PINNED";

/// The CPUs this process may run on, from `/proc/self/status`
/// (`Cpus_allowed_list: 0-1,4`).
fn allowed_cpus() -> Vec<u32> {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return Vec::new();
    };
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for range in list.trim().split(',') {
        let mut ends = range.splitn(2, '-').map(|n| n.parse::<u32>());
        match (ends.next(), ends.next()) {
            (Some(Ok(lo)), None) => cpus.push(lo),
            (Some(Ok(lo)), Some(Ok(hi))) if lo <= hi && hi - lo < 4096 => cpus.extend(lo..=hi),
            _ => return Vec::new(),
        }
    }
    cpus
}

/// Re-runs this program under `taskset` on one CPU and exits with the
/// child's code. Server and load threads then share one core: on the
/// 2-vCPU sandbox a wake-up that crosses vCPUs costs ~50 µs when the
/// target is halted and ~0 when it is not, and which of the two a run
/// gets is the kernel's placement luck (depth-1 round trips of 17 µs or
/// 64 µs, whole runs at a time). One core has one mode. The second
/// allowed CPU, if there is one, is named in [`system::GLUE_CPU`] for
/// the replicas. Returns (unpinned, with a note) where
/// `taskset` or `/proc` is missing.
fn pin_to_one_cpu(args: &[String]) {
    if std::env::var_os(PINNED).is_some() {
        return;
    }
    let cpus = allowed_cpus();
    let (Some(cpu), Ok(exe)) = (cpus.first(), std::env::current_exe()) else {
        eprintln!("servebench: cannot tell the allowed CPUs; running unpinned");
        return;
    };
    let mut command = std::process::Command::new("taskset");
    command
        .arg("-c")
        .arg(cpu.to_string())
        .arg(exe)
        .args(args)
        .env(PINNED, cpu.to_string());
    if let Some(glue) = cpus.get(1) {
        command.env(system::GLUE_CPU, glue.to_string());
    }
    match command.status() {
        Ok(status) => std::process::exit(status.code().unwrap_or(2)),
        Err(e) => eprintln!("servebench: taskset unavailable ({e}); running unpinned"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if matches!(args.first().map(String::as_str), Some("run" | "selftest")) {
        pin_to_one_cpu(&args);
    }
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("selftest") => cmd_selftest(),
        Some("compare") if args.len() == 3 => {
            manifest().and_then(|m| report::compare(&args[1], &args[2], &m).map(|worse| !worse))
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    }
}
