//! E12 — crash-durability matrix over the on-disk store.
//!
//! Runs `realloc_store::run_crash_matrix`: a reference workload (batch
//! flushes, an online resize, periodic checkpoints) executed against the
//! fault-injecting I/O layer, killed at **every** mutating I/O operation
//! in each of three power-loss models, then recovered from the surviving
//! bytes. The acceptance bar, per crash point:
//!
//! * recovery never panics — it yields a valid engine or a located error
//!   (the latter only before the store's first durable write);
//! * the recovered state is byte-identical (journal text, state digest,
//!   placements) to some acknowledged-or-later point of the reference
//!   run — **no acknowledged flush is ever lost**;
//! * the recovered engine passes `validate()` and accepts new durable
//!   writes (the reopened store resumes the segment sequence).
//!
//! `--quick` caps the sampled crash points for the CI smoke lane; the
//! default sweeps every point.

use realloc_sim::report::Table;
use realloc_store::{run_crash_matrix, CrashMatrixConfig};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut config = CrashMatrixConfig::default();
    if quick {
        config.ops = 6;
        config.checkpoint_every = 2;
        config.resize_after = Some(3);
        config.max_points = 24;
    }
    let report = match run_crash_matrix(&config) {
        Ok(report) => report,
        Err(violation) => {
            eprintln!("CRASH MATRIX VIOLATION: {violation}");
            std::process::exit(1);
        }
    };
    let mut table = Table::new(
        "E12: kill-at-any-point recovery (3 power-loss models x every mutating I/O op)",
        &["metric", "value"],
    );
    table
        .row(vec!["crash points".into(), report.crash_points.to_string()])
        .row(vec![
            "runs (points x modes)".into(),
            report.runs.to_string(),
        ])
        .row(vec![
            "recovered to an acked state".into(),
            report.recovered.to_string(),
        ])
        .row(vec![
            "graceful pre-durability errors".into(),
            report.graceful_errors.to_string(),
        ])
        .row(vec![
            "torn tails truncated".into(),
            report.torn_tails_truncated.to_string(),
        ])
        .row(vec![
            "orphan-checkpoint segments materialized".into(),
            report.segments_materialized.to_string(),
        ])
        .row(vec![
            "reference states (ack ladder)".into(),
            report.baselines.to_string(),
        ]);
    table.print();
    println!();
    println!(
        "PASS: all {} crash/recovery runs preserved every acknowledged flush.",
        report.runs
    );
}
