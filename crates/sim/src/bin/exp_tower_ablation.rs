//! E14 — tower ablation (design-choice experiment).
//!
//! The paper fixes the level thresholds at `L₁ = 2⁵`, `L_{ℓ+1} = 2^{L_ℓ/4}`
//! "preferring clarity of exposition" (§7). This ablation runs the same
//! churn under different ladders:
//!
//! * a single giant base level (pure Lemma 4 cascading, no reservations),
//! * the paper tower,
//! * finer custom ladders (more levels → more reservation machinery, more
//!   cross-level displacement chances, less per-level slack),
//!
//! reporting cost and the state footprint. The paper-tower sweet spot —
//! few levels, tiny costs — is visible directly.

use realloc_core::Tower;
use realloc_multi::ReallocatingScheduler;
use realloc_reservation::ReservationScheduler;
use realloc_sim::harness::churn_seq;
use realloc_sim::report::{f2, Table};
use realloc_sim::runner::{run, RunOptions};
use realloc_sim::stats::Summary;

fn main() {
    let seq = churn_seq(1, 8, 400, 1 << 10, false, 6000, 71);
    let mut t = Table::new(
        "E14: tower ablation (same churn, Δ = 1024, n ≈ 400, γ = 8)",
        &[
            "tower L1,L2,…",
            "levels used",
            "mean",
            "p99",
            "max",
            "window states",
        ],
    );
    let towers: Vec<(String, Tower)> = vec![
        ("1024 (all base)".into(), Tower::custom(vec![1024])),
        ("32,256 (paper)".into(), Tower::paper()),
        ("16,256".into(), Tower::custom(vec![16, 256])),
        ("8,64,1024".into(), Tower::custom(vec![8, 64, 1024])),
        ("4,16,64,256".into(), Tower::custom(vec![4, 16, 64, 256])),
    ];
    for (name, tower) in towers {
        let levels_used = tower.levels_for(1 << 10);
        let mut sched = ReallocatingScheduler::from_factory(1, || {
            ReservationScheduler::with_tower(tower.clone())
        });
        let report = run(
            &mut sched,
            &seq,
            RunOptions {
                validate_each_step: false,
                fail_fast: false,
            },
        )
        .unwrap();
        let sum = Summary::of(report.meter.samples().iter().map(|s| s.reallocations));
        t.row(vec![
            name,
            levels_used.to_string(),
            f2(sum.mean),
            sum.p99.to_string(),
            sum.max.to_string(),
            sched.backend(0).window_states().to_string(),
        ]);
    }
    t.print();
    println!("(single-level = Lemma 4 economics: zero reservation overhead but");
    println!(" log-depth worst cases; deep ladders pay state and cascade overhead;");
    println!(" the paper tower keeps both tiny)");
}
