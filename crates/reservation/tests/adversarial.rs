//! Adversarial and failure-injection tests for the reservation scheduler:
//! saturation boundaries, displacement depth, churn at tight density, and
//! post-failure state integrity.

use realloc_core::{Error, JobId, Restorable, SingleMachineReallocator, Tower, Window};
use realloc_reservation::{ReservationScheduler, TrimmedScheduler};

/// Fill a single window until refusal; state must stay valid throughout
/// and the failure must not corrupt anything.
#[test]
fn saturation_leaves_valid_state() {
    for span in [64u64, 256, 1024] {
        let mut s = ReservationScheduler::new();
        let mut placed = Vec::new();
        for i in 0..span + 4 {
            match s.insert(JobId(i), Window::with_span(0, span)) {
                Ok(_) => placed.push(JobId(i)),
                Err(Error::CapacityExhausted { .. }) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
            s.check_invariants().unwrap();
        }
        // Near-full packing (E10b measures exact fill).
        assert!(
            placed.len() as u64 >= span * 9 / 10,
            "span {span}: {}",
            placed.len()
        );
        // Post-failure state is fully usable: drain everything.
        for id in placed {
            s.delete(id).unwrap();
            s.check_invariants().unwrap();
        }
        assert_eq!(s.occupied_slots(), 0);
    }
}

/// Repeated failed inserts must not leak state (rollback completeness).
#[test]
fn failed_inserts_do_not_leak() {
    let mut s = ReservationScheduler::new();
    // Fill a span-64 window completely-ish.
    let mut n = 0u64;
    while s.insert(JobId(n), Window::new(0, 64)).is_ok() {
        n += 1;
    }
    let states_before = s.window_states();
    let storage_before = s.storage();
    let occupied_before = s.occupied_slots();
    for k in 0..50u64 {
        let e = s.insert(JobId(10_000 + k), Window::new(0, 64));
        assert!(matches!(e, Err(Error::CapacityExhausted { .. })));
        s.check_invariants().unwrap();
    }
    assert_eq!(s.window_states(), states_before, "window states leaked");
    assert_eq!(s.storage(), storage_before, "pages leaked");
    assert_eq!(s.occupied_slots(), occupied_before);
    assert_eq!(s.active_count() as u64, n);
}

/// Jobs scattered along the axis hold pages only while they keep state:
/// a job's slot and occupancy bits until it leaves, the standing
/// reservations of its windows until `compact` drops them.
#[test]
fn scattered_jobs_hold_pages_only_while_they_keep_state() {
    let mut s = ReservationScheduler::new();
    // Level-0 jobs only: no level has a chain, so no window keeps a
    // standing reservation.
    for i in 0..64u64 {
        s.insert(JobId(i), Window::with_span(i * 16, 16)).unwrap();
    }
    let (pages, bytes) = s.storage();
    let spots: Vec<u64> = (1..=1000u64).map(|k| k << 16).collect();
    // One at a time: each leaves nothing behind.
    for (n, &slot) in spots.iter().enumerate() {
        let id = JobId(1_000 + n as u64);
        s.insert(id, Window::with_span(slot, 1)).unwrap();
        assert!(s.storage().0 > pages);
        s.delete(id).unwrap();
        assert_eq!(s.storage().0, pages, "a single-slot job left pages behind");
    }
    s.check_invariants().unwrap();
    assert!(s.storage().1 <= 4 * bytes);
    // All at once, at every level of the tower: their windows keep
    // standing reservations after the jobs leave, until `compact`.
    let span = |n: usize| [1u64, 64, 4096][n % 3];
    for (n, &slot) in spots.iter().enumerate() {
        s.insert(JobId(2_000 + n as u64), Window::with_span(slot, span(n)))
            .unwrap();
    }
    s.check_invariants().unwrap();
    assert!(s.storage().0 >= pages + 1_000);
    // A snapshot of them restores into the same pages.
    let restored = ReservationScheduler::restore(&s.snapshot_text()).unwrap();
    restored.check_invariants().unwrap();
    assert_eq!(restored.storage().0, s.storage().0);
    for n in 0..spots.len() {
        s.delete(JobId(2_000 + n as u64)).unwrap();
    }
    assert!(s.window_states() > 0);
    s.compact();
    s.check_invariants().unwrap();
    assert_eq!(s.window_states(), 0);
    assert_eq!(s.storage().0, pages, "compacted windows left pages behind");
    assert!(
        s.storage().1 <= 4 * bytes,
        "freed pages kept {} bytes against {bytes} before",
        s.storage().1
    );
    assert_eq!(s.active_count(), 64);
}

/// Maximum-depth displacement chains: one job per level, then force the
/// bottom job to displace upward through every level.
#[test]
fn full_depth_displacement_chain() {
    let tower = Tower::custom(vec![4, 16, 64, 256]);
    let mut s = ReservationScheduler::with_tower(tower);
    // One job per level with nested windows at the left edge; spans chosen
    // so each level is populated: 4 (L0), 8 (L1), 32 (L2), 128 (L3), 512 (L4).
    for (i, span) in [512u64, 128, 32, 8].iter().enumerate() {
        s.insert(JobId(i as u64), Window::with_span(0, *span))
            .unwrap();
        s.check_invariants().unwrap();
    }
    // Hammer the bottom: insert/delete span-4 jobs claiming the left edge.
    for round in 0..20u64 {
        let id = JobId(100 + round);
        s.insert(id, Window::new(0, 4)).unwrap();
        s.check_invariants().unwrap();
        s.delete(id).unwrap();
        s.check_invariants().unwrap();
    }
    assert_eq!(s.active_count(), 4);
}

/// Alternating insert/delete of the same window (the smallest possible
/// churn loop) must be stable — no cost creep, no state growth.
#[test]
fn flutter_stability() {
    let mut s = ReservationScheduler::new();
    s.insert(JobId(0), Window::new(0, 256)).unwrap();
    // One warm-up round materializes the standing reservations the loop
    // keeps touching; after that the state must be exactly periodic.
    s.insert(JobId(1), Window::new(0, 256)).unwrap();
    s.delete(JobId(1)).unwrap();
    let baseline_states = s.window_states();
    let baseline_storage = s.storage();
    let mut worst = 0usize;
    for i in 2..500u64 {
        let m1 = s.insert(JobId(i), Window::new(0, 256)).unwrap();
        let m2 = s.delete(JobId(i)).unwrap();
        worst = worst.max(m1.len()).max(m2.len());
    }
    assert!(worst <= 4, "flutter cost crept to {worst}");
    assert_eq!(
        s.window_states(),
        baseline_states,
        "state grew under flutter"
    );
    assert_eq!(s.storage(), baseline_storage, "pages grew under flutter");
    s.check_invariants().unwrap();
}

/// Interleaved levels fighting over the same region, tight but
/// underallocated; long randomized run with full checking.
#[test]
fn contested_region_long_run() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(4242);
    let mut s = TrimmedScheduler::new(4);
    let mut active: Vec<(JobId, Window)> = Vec::new();
    let mut next = 0u64;
    // All windows nest inside [0, 1024); keep the region ~1/4 full.
    for step in 0..2500 {
        let insert = active.len() < 256 && rng.gen_bool(0.55);
        if insert {
            let span = [1u64, 4, 16, 64, 256, 1024][rng.gen_range(0..6usize)];
            let start = rng.gen_range(0..(1024 / span)) * span;
            let w = Window::with_span(start, span);
            let id = JobId(next);
            next += 1;
            match s.insert(id, w) {
                Ok(_) => active.push((id, w)),
                Err(Error::CapacityExhausted { .. }) => {} // tight region: ok
                Err(e) => panic!("step {step}: {e}"),
            }
        } else if let Some(idx) = (!active.is_empty()).then(|| rng.gen_range(0..active.len())) {
            let (id, _) = active.swap_remove(idx);
            s.delete(id).unwrap();
        }
        s.inner().check_invariants().unwrap();
        let mut seen = std::collections::HashSet::new();
        for (id, slot) in s.assignments() {
            let w = active.iter().find(|&&(j, _)| j == id).unwrap().1;
            assert!(w.contains_slot(slot));
            assert!(seen.insert(slot));
        }
    }
}
