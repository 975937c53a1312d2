//! Property-based tests for the §3/§5 wrapper: migrations are bounded by
//! one per request, per-window balance holds (Lemma 3's precondition), and
//! schedules stay feasible against the original (unaligned) windows, for
//! any density-bounded op sequence and any machine count.

use proptest::prelude::*;
use realloc_core::schedule::validate;
use realloc_core::{JobId, Reallocator, SingleMachineReallocator, Window};
use realloc_multi::ReallocatingScheduler;
use realloc_reservation::ReservationScheduler;
use std::collections::{BTreeMap, HashMap};

#[derive(Clone, Debug)]
enum Op {
    Insert { start: u64, span: u64 },
    Delete { idx: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..2000, 1u64..200).prop_map(|(start, span)| Op::Insert { start, span }),
        2 => (0usize..64).prop_map(|idx| Op::Delete { idx }),
    ]
}

const HORIZON: u64 = 1 << 12;

/// Machine counts for the §3 rule tests, odd and even, below and above
/// a power of two.
const MACHINES: [usize; 4] = [2, 3, 4, 7];

/// The aligned ancestors of `w` up to the horizon.
fn ancestors(mut w: Window) -> Vec<Window> {
    let mut out = vec![w];
    while w.span() < HORIZON {
        w = w.aligned_parent().unwrap();
        out.push(w);
    }
    out
}

/// Few distinct windows (2 starts × 2 spans, aligned or shifted by 3:
/// eight effective windows), so they hold more jobs than there are
/// machines.
fn crowded_window(slot: u64, level: u32, shifted: bool) -> Window {
    Window::with_span(slot * 512 + if shifted { 3 } else { 0 }, 512 >> level)
}

/// Each effective window's per-machine shares, read off the schedule.
fn shares_by_window(
    sched: &ReallocatingScheduler<ReservationScheduler>,
    machines: usize,
) -> HashMap<Window, Vec<usize>> {
    let snap = sched.snapshot();
    let mut out: HashMap<Window, Vec<usize>> = HashMap::new();
    for (id, w) in sched.active_jobs() {
        let machine = snap.placement(id).expect("active job is placed").machine;
        out.entry(w.aligned_subwindow())
            .or_insert_with(|| vec![0; machines])[machine] += 1;
    }
    out
}

/// Admits `w` under the γ = 8 density guard on the aligned effective set
/// (per-ancestor job counts in `counts`), recording it when it fits.
fn admit(counts: &mut HashMap<Window, u64>, w: Window, machines: usize) -> bool {
    let eff = ancestors(w.aligned_subwindow());
    if eff
        .iter()
        .any(|a| counts.get(a).copied().unwrap_or(0) >= machines as u64 * a.span() / 8)
    {
        return false;
    }
    for a in eff {
        *counts.entry(a).or_insert(0) += 1;
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wrapper_invariants_under_churn(
        ops in prop::collection::vec(op_strategy(), 1..100),
        machines in 1usize..5,
    ) {
        let mut sched =
            ReallocatingScheduler::from_factory(machines, ReservationScheduler::new);
        let mut counts: HashMap<Window, u64> = HashMap::new();
        let mut active: Vec<(JobId, Window)> = Vec::new();
        let mut next = 0u64;

        for op in &ops {
            let outcome = match *op {
                Op::Insert { start, span } => {
                    let w = Window::with_span(start % (HORIZON / 2), span);
                    if !admit(&mut counts, w, machines) {
                        continue;
                    }
                    let id = JobId(next);
                    next += 1;
                    let out = sched.insert(id, w).expect("density-bounded insert");
                    active.push((id, w));
                    // Inserts never migrate (paper §3).
                    prop_assert_eq!(out.netted().migration_cost(), 0);
                    out
                }
                Op::Delete { idx } => {
                    if active.is_empty() {
                        continue;
                    }
                    let (id, w) = active.swap_remove(idx % active.len());
                    for a in ancestors(w.aligned_subwindow()) {
                        *counts.get_mut(&a).unwrap() -= 1;
                    }
                    sched.delete(id).expect("delete of active job")
                }
            };
            // Theorem 1: at most one migration per request.
            prop_assert!(outcome.netted().migration_cost() <= 1);

            // Feasibility against ORIGINAL windows.
            let active_map: BTreeMap<JobId, Window> =
                active.iter().copied().collect();
            validate(&sched.snapshot(), &active_map, machines).unwrap();
        }

        // Per-machine backends hold internally consistent state.
        for machine in 0..machines {
            sched.backend(machine).check_invariants().unwrap();
        }
    }

    #[test]
    fn per_window_balance_within_one(
        n_jobs in 1usize..40,
        machines in 2usize..6,
        deletes in prop::collection::vec(0usize..40, 0..20),
    ) {
        // All jobs share one window: after any delete pattern, machine
        // shares differ by at most one (the Lemma 3 invariant).
        let w = Window::new(0, 4096);
        let mut sched =
            ReallocatingScheduler::from_factory(machines, ReservationScheduler::new);
        let mut live: Vec<JobId> = Vec::new();
        for i in 0..n_jobs as u64 {
            sched.insert(JobId(i), w).unwrap();
            live.push(JobId(i));
        }
        for &d in &deletes {
            if live.is_empty() {
                break;
            }
            let id = live.swap_remove(d % live.len());
            sched.delete(id).unwrap();
        }
        let counts: Vec<usize> =
            (0..machines).map(|m| sched.backend(m).active_count()).collect();
        let lo = *counts.iter().min().unwrap();
        let hi = *counts.iter().max().unwrap();
        prop_assert!(hi - lo <= 1, "unbalanced shares: {:?}", counts);
        prop_assert_eq!(counts.iter().sum::<usize>(), live.len());
    }

    /// §3 is Lemma 3's balance and nothing more. After every request of a
    /// crowded churn, each window's per-machine shares differ by at most
    /// one and the request migrated at most one job; an insert migrates
    /// nothing, and a delete migrates exactly when its machine held fewer
    /// of the window's jobs than the fullest (without a migration it
    /// would fall two behind).
    #[test]
    fn a_delete_migrates_exactly_when_its_machine_would_fall_two_behind(
        ops in prop::collection::vec(
            prop_oneof![
                3 => (0u64..2, 0u32..2, 0u8..2)
                    .prop_map(|(slot, level, shifted)| (Some((slot, level, shifted == 1)), 0)),
                1 => (0usize..256).prop_map(|idx| (None, idx)),
            ],
            1..160,
        ),
        which in 0usize..4,
    ) {
        let machines = MACHINES[which];
        let mut sched =
            ReallocatingScheduler::from_factory(machines, ReservationScheduler::new);
        let mut counts: HashMap<Window, u64> = HashMap::new();
        let mut active: Vec<(JobId, Window)> = Vec::new();
        let mut next = 0u64;
        let mut migrated = 0;
        for &(insert, idx) in &ops {
            let (outcome, expected) = match insert {
                Some((slot, level, shifted)) => {
                    let w = crowded_window(slot, level, shifted);
                    if !admit(&mut counts, w, machines) {
                        continue;
                    }
                    let id = JobId(next);
                    next += 1;
                    active.push((id, w));
                    (sched.insert(id, w).expect("density-bounded insert"), 0)
                }
                None => {
                    if active.is_empty() {
                        continue;
                    }
                    let (id, w) = active.swap_remove(idx % active.len());
                    for a in ancestors(w.aligned_subwindow()) {
                        *counts.get_mut(&a).unwrap() -= 1;
                    }
                    let before = &shares_by_window(&sched, machines)[&w.aligned_subwindow()];
                    let mi = sched.snapshot().placement(id).unwrap().machine;
                    let behind = before[mi] < *before.iter().max().unwrap();
                    (sched.delete(id).expect("delete of active job"), u64::from(behind))
                }
            };
            let cost = outcome.netted().migration_cost();
            prop_assert_eq!(cost, expected, "migrations of {:?}", insert);
            migrated += cost;
            for (w, held) in shares_by_window(&sched, machines) {
                let (lo, hi) = (held.iter().min().unwrap(), held.iter().max().unwrap());
                prop_assert!(hi - lo <= 1, "window {}: shares {:?}", w, held);
            }
        }
        let active_map: BTreeMap<JobId, Window> = active.iter().copied().collect();
        validate(&sched.snapshot(), &active_map, machines).unwrap();
        // Not vacuous: crowded windows do make deletes migrate.
        if ops.len() >= 120 && machines <= 4 {
            prop_assert!(migrated > 0, "no delete migrated in {} ops", ops.len());
        }
    }

    /// On an insert-only stream the balance rule is the paper's round
    /// robin: the k-th job of a window lands on machine `(start + k) mod
    /// m`, where `start` is where the window's first job went.
    #[test]
    fn insert_only_streams_place_round_robin(
        windows in prop::collection::vec((0u64..2, 0u32..2, 0u8..2), 1..120),
        which in 0usize..4,
    ) {
        let machines = MACHINES[which];
        let mut sched =
            ReallocatingScheduler::from_factory(machines, ReservationScheduler::new);
        let mut counts: HashMap<Window, u64> = HashMap::new();
        let mut order: HashMap<Window, Vec<JobId>> = HashMap::new();
        for (i, &(slot, level, shifted)) in windows.iter().enumerate() {
            let w = crowded_window(slot, level, shifted == 1);
            if !admit(&mut counts, w, machines) {
                continue;
            }
            let id = JobId(i as u64);
            let out = sched.insert(id, w).expect("density-bounded insert");
            prop_assert_eq!(out.netted().migration_cost(), 0);
            order.entry(w.aligned_subwindow()).or_default().push(id);
        }
        let snap = sched.snapshot();
        for (w, ids) in &order {
            let start = snap.placement(ids[0]).unwrap().machine;
            for (k, &id) in ids.iter().enumerate() {
                prop_assert_eq!(
                    snap.placement(id).unwrap().machine,
                    (start + k) % machines,
                    "job {} of window {}",
                    k,
                    w
                );
            }
        }
    }
}
