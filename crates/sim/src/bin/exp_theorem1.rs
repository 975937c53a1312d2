//! E2 + E3 — Theorem 1 cost scaling.
//!
//! Sweeps the active-set size `n` and the window-span bound `Δ`, measuring
//! per-request reallocations for the reservation scheduler (flat, the
//! `O(min{log* n, log* Δ})` claim) against the Lemma 4 naive baseline
//! (grows with `log Δ`), and gating that migrations never exceed 1 per
//! request (Theorem 1's second bullet): E3 exits 1 otherwise.

use realloc_core::Request;
use realloc_sim::harness::{churn_seq, naive_multi, reservation_multi, theorem_one};
use realloc_sim::report::{f2, Table};
use realloc_sim::runner::{run, RunOptions};
use realloc_sim::stats::Summary;

fn main() {
    // --- cost vs n (Δ fixed) -------------------------------------------
    let mut t1 = Table::new(
        "E2a: per-request reallocations vs n (Δ = 4096, m = 1, γ = 8)",
        &["n target", "sched", "mean", "p99", "max"],
    );
    for &n in &[100usize, 400, 1600, 6400] {
        let seq = churn_seq(1, 8, n, 1 << 12, false, 8 * n, 7);
        for which in ["reservation", "resv+trim", "naive"] {
            let meter = match which {
                "reservation" => {
                    let mut s = reservation_multi(1);
                    run(&mut s, &seq, RunOptions::default()).unwrap().meter
                }
                "resv+trim" => {
                    // Trimming adds an amortized-rebuild spike at each n*
                    // crossing that re-trims a window — here the ramp's
                    // crossings up to n* = 256, below which 2γn* < Δ (the
                    // max column); the deamortized variant removes them
                    // (E11).
                    let mut s = theorem_one(1, 8);
                    run(&mut s, &seq, RunOptions::default()).unwrap().meter
                }
                _ => {
                    let mut s = naive_multi(1);
                    run(&mut s, &seq, RunOptions::default()).unwrap().meter
                }
            };
            let sum = Summary::of(meter.samples().iter().map(|s| s.reallocations));
            t1.row(vec![
                n.to_string(),
                which.to_string(),
                f2(sum.mean),
                sum.p99.to_string(),
                sum.max.to_string(),
            ]);
        }
    }
    t1.print();

    // --- cost vs Δ (n fixed) -------------------------------------------
    let mut t2 = Table::new(
        "E2b: per-request reallocations vs Δ (n ≈ 800, m = 1, γ = 8)",
        &["max span", "levels", "sched", "mean", "p99", "max"],
    );
    for &(span, levels) in &[(1u64 << 5, 1usize), (1 << 8, 2), (1 << 14, 3), (1 << 22, 3)] {
        let seq = churn_seq(1, 8, 800, span, false, 6000, 11);
        for which in ["reservation", "naive"] {
            let meter = if which == "reservation" {
                let mut s = reservation_multi(1);
                run(&mut s, &seq, RunOptions::default()).unwrap().meter
            } else {
                let mut s = naive_multi(1);
                run(&mut s, &seq, RunOptions::default()).unwrap().meter
            };
            let sum = Summary::of(meter.samples().iter().map(|s| s.reallocations));
            t2.row(vec![
                format!("2^{}", span.trailing_zeros()),
                levels.to_string(),
                which.to_string(),
                f2(sum.mean),
                sum.p99.to_string(),
                sum.max.to_string(),
            ]);
        }
    }
    t2.print();

    // --- migrations (m > 1) --------------------------------------------
    // A gate, not only a table: any request migrating more than one job
    // breaks Theorem 1 and fails the run (CI's Experiments step).
    let mut t3 = Table::new(
        "E3: migrations per request (γ = 16, unaligned windows)",
        &[
            "machines",
            "requests",
            "total migrations",
            "per delete",
            "max per request",
        ],
    );
    let mut worst = 0;
    for &m in &[2usize, 4, 8, 16] {
        let seq = churn_seq(m, 16, 200 * m, 1 << 10, true, 5000, 13);
        let deletes = seq
            .requests()
            .iter()
            .filter(|r| matches!(r, Request::Delete { .. }))
            .count();
        let mut s = theorem_one(m, 16);
        let report = run(&mut s, &seq, RunOptions::default()).unwrap();
        let migrations = report.meter.total_migrations();
        worst = worst.max(report.meter.max_migrations());
        t3.row(vec![
            m.to_string(),
            report.executed.to_string(),
            migrations.to_string(),
            format!("{:.3}", migrations as f64 / deletes.max(1) as f64),
            report.meter.max_migrations().to_string(),
        ]);
    }
    t3.print();
    if worst > 1 {
        eprintln!("E3: a request migrated {worst} jobs; Theorem 1 allows 1");
        std::process::exit(1);
    }
}
