//! E5 + E6 + E7 — the paper's lower bounds, measured.
//!
//! * Lemma 11: on the adaptive adversary, any scheduler that services the
//!   (non-underallocated) sequence pays `Ω(s)` migrations — we drive EDF
//!   and LLF, and show the Theorem-1 scheduler correctly *declines* (its
//!   underallocation precondition is violated; that is the theory's point:
//!   without slack, bounded migration is impossible).
//! * Lemma 12: the toggle forces `Θ(s²)` total reallocations.
//! * Observation 13: sizes `{1, k}` force `Ω(k)` per slide for any
//!   scheduler, measured against the sized-EDF substrate.

use realloc_baselines::{EdfRescheduler, LlfRescheduler, SizedEdfScheduler};
use realloc_core::RequestOutcome;
use realloc_sim::harness::theorem_one;
use realloc_sim::report::{f2, Table};
use realloc_sim::runner::{run, RunOptions};
use realloc_workloads::{lemma12_toggle, obs13_slide, Lemma11Adversary, SizedRequest};

fn main() {
    // --- Lemma 11 -------------------------------------------------------
    let mut t1 = Table::new(
        "E5: Lemma 11 migration adversary (s requests ⇒ ≥ s/12 migrations)",
        &[
            "machines",
            "sched",
            "requests s",
            "migrations",
            "s/12",
            "per-request",
        ],
    );
    for &m in &[2usize, 4, 8, 16] {
        for which in ["edf", "llf"] {
            let mut adv = Lemma11Adversary::new();
            let report = if which == "edf" {
                let mut s = EdfRescheduler::new(m);
                adv.run(&mut s, 40).unwrap()
            } else {
                let mut s = LlfRescheduler::new(m);
                adv.run(&mut s, 40).unwrap()
            };
            t1.row(vec![
                m.to_string(),
                which.to_string(),
                report.requests.to_string(),
                report.migrations.to_string(),
                (report.requests / 12).to_string(),
                f2(report.migrations as f64 / report.requests as f64),
            ]);
        }
        // The Theorem-1 scheduler: its §3 delegation rebalances after each
        // delete, so it either serves the sequence — paying the migrations
        // the lemma proves unavoidable — or, if the slack-free instance
        // defeats its per-machine precondition, declines.
        let mut adv = Lemma11Adversary::new();
        let mut ours = theorem_one(m, 8);
        match adv.run(&mut ours, 40) {
            Ok(report) => t1.row(vec![
                m.to_string(),
                "theorem-1".to_string(),
                report.requests.to_string(),
                report.migrations.to_string(),
                (report.requests / 12).to_string(),
                f2(report.migrations as f64 / report.requests as f64),
            ]),
            Err(_) => t1.row(vec![
                m.to_string(),
                "theorem-1".to_string(),
                "-".to_string(),
                "declines (no slack)".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]),
        };
    }
    t1.print();

    // --- Lemma 12 -------------------------------------------------------
    let mut t2 = Table::new(
        "E6: Lemma 12 toggle — total reallocations grow quadratically in s",
        &[
            "eta",
            "requests s",
            "total reallocs",
            "total/s (≈ s/16 ⇒ Θ(s²))",
        ],
    );
    for &eta in &[32u64, 64, 128, 256] {
        // s scales with eta: eta inserts + eta/2 rounds × 4 requests.
        let rounds = (eta / 2) as usize;
        let seq = lemma12_toggle(eta, rounds);
        let mut s = EdfRescheduler::new(1);
        let report = run(&mut s, &seq, RunOptions::default()).unwrap();
        let total = report.meter.total_reallocations();
        let sreq = report.executed as u64;
        t2.row(vec![
            eta.to_string(),
            sreq.to_string(),
            total.to_string(),
            f2(total as f64 / sreq as f64),
        ]);
    }
    t2.print();

    // --- Observation 13 --------------------------------------------------
    let mut t3 = Table::new(
        "E7: Observation 13 slide — aggregate cost Ω(k) per slide (γ = 2)",
        &["k", "slides", "total reallocs", "reallocs per slide (≈ k)"],
    );
    for &k in &[4u64, 8, 16, 32, 64] {
        let reqs = obs13_slide(2, k, 8);
        let mut s = SizedEdfScheduler::new(1);
        let mut total = 0u64;
        let mut slides = 0u64;
        let mut out = RequestOutcome::empty();
        for r in &reqs {
            out.moves.clear();
            match r {
                SizedRequest::Insert(job) => s.insert_job(*job, &mut out).unwrap(),
                SizedRequest::Delete(id) => {
                    slides += 1;
                    s.delete_job(*id, &mut out).unwrap()
                }
            }
            total += out.netted().reallocation_cost();
        }
        t3.row(vec![
            k.to_string(),
            slides.to_string(),
            total.to_string(),
            f2(total as f64 / slides as f64),
        ]);
    }
    t3.print();
}
