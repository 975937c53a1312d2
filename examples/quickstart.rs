//! Quickstart: schedule, reschedule, and observe reallocation costs.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use realloc_sched::{JobId, Reallocator, TheoremOneScheduler, Window};

fn main() {
    // Two machines, trim factor γ = 8 (the slack knob of Theorem 1).
    let mut sched = TheoremOneScheduler::theorem_one(2, 8);

    // Book three jobs with overlapping windows.
    for (id, (a, d)) in [(1u64, (0u64, 16u64)), (2, (0, 8)), (3, (4, 12))] {
        let outcome = sched.insert(JobId(id), Window::new(a, d)).unwrap();
        let p = sched.snapshot().placement(JobId(id)).unwrap();
        println!(
            "insert j{id} window [{a}, {d})  -> machine {} slot {}  ({} other jobs moved)",
            p.machine,
            p.slot,
            outcome.netted_costs().0
        );
    }

    // Delete one; the wrapper migrates at most one job to rebalance. A
    // migration is recorded as a delete half and an insert half, so count
    // costs netted per job: the raw counts would see neither half.
    let outcome = sched.delete(JobId(2)).unwrap();
    let (reallocations, migrations) = outcome.netted_costs();
    println!(
        "delete j2 -> {reallocations} reallocations, {migrations} migrations (Theorem 1: ≤ 1)"
    );

    // The schedule stays feasible at all times; inspect it.
    println!("\nfinal schedule:");
    for (job, p) in sched.snapshot().iter() {
        println!("  {job} -> machine {} slot {}", p.machine, p.slot);
    }
    println!();
    print!(
        "{}",
        realloc_sched::sim::report::gantt(&sched.snapshot(), 2, 0, 16)
    );
}
