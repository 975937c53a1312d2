//! Offline feasibility and `γ`-underallocation checks (paper §2).
//!
//! * [`edf_schedule`] / [`edf_feasible`] — exact feasibility for unit jobs
//!   with integer windows on `m` identical machines. For unit jobs,
//!   earliest-deadline-first at each integer slot is an exact algorithm
//!   (Jackson's rule / Hall's theorem for interval bipartite matching).
//! * [`gamma_underallocated_blocked`] — *sufficient* check that a job set is
//!   `γ`-underallocated: schedules the `γ`-times-inflated jobs restricted to
//!   start at multiples of `γ`, which is exactly the restriction used in the
//!   paper's inductive arguments (proofs of Lemma 3 and Lemma 10).
//! * [`gamma_feasible_preemptive`] — *necessary* check: the preemptive-flow
//!   density condition `γ·|{j : a ≤ a_j, d_j ≤ d}| ≤ m(d−a)` over all
//!   critical interval pairs.
//! * [`aligned_density_max_gamma`] — Lemma 2's laminar density: the largest
//!   `γ` such that every aligned window `W` contains at most `m|W|/γ` jobs
//!   (exact and cheap for recursively aligned sets).
//! * [`LaminarBudget`] — the same rule kept incrementally, one window in
//!   or out at a time: what every density-guarded stream is built with.

use crate::cost::Placement;
use crate::job::Job;
use crate::schedule::ScheduleSnapshot;
use crate::window::Window;
use fxhash::FxHashMap;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};

/// Greedy EDF schedule for unit jobs on `machines` machines; `None` when the
/// instance is infeasible. Exact for unit jobs with integer windows.
///
/// Runs in `O(n log n)` time; the time axis is traversed sparsely (empty
/// stretches are skipped), so window magnitudes do not matter.
///
/// # Panics
///
/// Panics if any job has `size != 1`; use the sized baselines for
/// Observation 13 instances.
pub fn edf_schedule(jobs: &[Job], machines: usize) -> Option<ScheduleSnapshot> {
    assert!(machines >= 1, "need at least one machine");
    for j in jobs {
        assert_eq!(j.size, 1, "edf_schedule handles unit jobs only");
    }
    let mut by_arrival: Vec<&Job> = jobs.iter().collect();
    by_arrival.sort_by_key(|j| j.window.start());

    // Min-heap on deadline (end of window).
    let mut ready: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new(); // (deadline, id)
    let mut id_to_job: HashMap<u64, &Job> = HashMap::with_capacity(jobs.len());
    for j in jobs {
        // Ids must be unique for the heap mapping.
        if id_to_job.insert(j.id.0, j).is_some() {
            panic!("duplicate job id {} in offline instance", j.id);
        }
    }

    let mut snapshot = ScheduleSnapshot::new();
    let mut next = 0usize; // next unreleased job in arrival order
    let mut t: u64 = match by_arrival.first() {
        Some(j) => j.window.start(),
        None => return Some(snapshot),
    };

    while next < by_arrival.len() || !ready.is_empty() {
        if ready.is_empty() && next < by_arrival.len() {
            t = t.max(by_arrival[next].window.start());
        }
        while next < by_arrival.len() && by_arrival[next].window.start() <= t {
            let j = by_arrival[next];
            ready.push(Reverse((j.window.end(), j.id.0)));
            next += 1;
        }
        for machine in 0..machines {
            match ready.pop() {
                None => break,
                Some(Reverse((deadline, id))) => {
                    if t >= deadline {
                        // The job's last admissible slot is deadline-1.
                        return None;
                    }
                    snapshot.set(id_to_job[&id].id, Placement { machine, slot: t });
                }
            }
        }
        t += 1;
    }
    Some(snapshot)
}

/// `true` iff the unit-job instance is feasible on `machines` machines.
pub fn edf_feasible(jobs: &[Job], machines: usize) -> bool {
    edf_schedule(jobs, machines).is_some()
}

/// Sufficient `γ`-underallocation check: inflate every job to length `γ`,
/// restrict starts to multiples of `γ`, and test feasibility of the
/// resulting unit-block instance. If this returns `true`, the set is
/// `γ`-underallocated in the paper's sense (the restriction only makes
/// scheduling harder).
pub fn gamma_underallocated_blocked(jobs: &[Job], machines: usize, gamma: u64) -> bool {
    assert!(gamma >= 1);
    if gamma == 1 {
        return edf_feasible(jobs, machines);
    }
    let mut blocked = Vec::with_capacity(jobs.len());
    for j in jobs {
        let a = j.window.start();
        let d = j.window.end();
        if d - a < gamma {
            return false; // an inflated job cannot fit its own window
        }
        // Block starts: multiples of γ in [a, d - γ]. Block index range:
        let lo = a.div_ceil(gamma);
        let hi = (d - gamma) / gamma; // inclusive
        if hi < lo {
            return false;
        }
        blocked.push(Job::unit(j.id.0, Window::new(lo, hi + 1)));
    }
    edf_feasible(&blocked, machines)
}

/// Necessary `γ`-underallocation check: preemptive density. For every
/// critical interval `[a, d]` (a job arrival to a job deadline), the total
/// inflated work of jobs confined to it must fit: `γ·k ≤ m(d−a)`.
///
/// `O(A·D + n log n)` over distinct arrivals × deadlines; intended for
/// validation and tests, not hot paths.
pub fn gamma_feasible_preemptive(jobs: &[Job], machines: usize, gamma: u64) -> bool {
    let mut arrivals: Vec<u64> = jobs.iter().map(|j| j.window.start()).collect();
    let mut deadlines: Vec<u64> = jobs.iter().map(|j| j.window.end()).collect();
    arrivals.sort_unstable();
    arrivals.dedup();
    deadlines.sort_unstable();
    deadlines.dedup();
    for &a in &arrivals {
        for &d in &deadlines {
            if d <= a {
                continue;
            }
            let k = jobs
                .iter()
                .filter(|j| a <= j.window.start() && j.window.end() <= d)
                .count() as u64;
            if k.saturating_mul(gamma) > (machines as u64).saturating_mul(d - a) {
                return false;
            }
        }
    }
    true
}

/// Lemma 2 density over aligned windows: returns the largest integer `γ`
/// such that **every** aligned window `W` contains at most `m·|W|/γ` jobs
/// whose windows nest inside it (0 jobs ⇒ `u64::MAX`).
///
/// Exact for recursively aligned job sets. For unaligned sets, align the
/// windows first (`Window::aligned_subwindow`) — that is what the Theorem 1
/// pipeline does anyway.
pub fn aligned_density_max_gamma(windows: &[Window], machines: usize) -> u64 {
    let m = machines as u64;
    if windows.is_empty() {
        return u64::MAX;
    }
    let max_span = windows
        .iter()
        .map(|w| w.span())
        .max()
        .unwrap()
        .next_power_of_two();
    // Count jobs per aligned window, then push counts up the laminar tree.
    let mut counts: HashMap<Window, u64> = HashMap::new();
    for w in windows {
        debug_assert!(
            w.is_aligned(),
            "aligned_density_max_gamma needs aligned windows"
        );
        *counts.entry(*w).or_insert(0) += 1;
    }
    // Cumulative: for each distinct window walk the ancestor chain up to
    // max_span, adding its own count to every proper ancestor.
    let own: Vec<(Window, u64)> = counts.iter().map(|(&w, &c)| (w, c)).collect();
    for (w, c) in &own {
        for p in w.ancestors(max_span).skip(1) {
            *counts.entry(p).or_insert(0) += c;
        }
    }
    // γ_max = min over windows of floor(m|W| / count).
    counts
        .iter()
        .map(|(w, &c)| {
            debug_assert!(c > 0);
            m.saturating_mul(w.span()) / c
        })
        .min()
        .unwrap_or(u64::MAX)
}

/// Convenience: `true` iff the aligned windows satisfy Lemma 2 density for
/// the given `γ`.
pub fn aligned_density_ok(windows: &[Window], machines: usize, gamma: u64) -> bool {
    aligned_density_max_gamma(windows, machines) >= gamma
}

/// Lemma 2's density budget, kept incrementally over a changing set of
/// aligned windows: every aligned window `A` of span at most `horizon`
/// may hold at most `⌊m·|A|/γ⌋` of them (the windows nesting in it).
///
/// [`try_add`](Self::try_add) admits a window only if every one of its
/// aligned ancestors up to `horizon` stays within budget, and then
/// charges them all; [`remove`](Self::remove) undoes an admission. Both
/// walk [`Window::ancestors`], one hashed count per step, so either
/// costs `O(log horizon)` however many windows are held.
///
/// Ancestors wider than every held window never bind (each holds what
/// its two halves hold, and its budget is at least theirs summed), so
/// `try_add(w)` answers exactly `aligned_density_max_gamma(held ∪ {w},
/// m) ≥ γ`, the batch check it is tested against, though that one
/// stops its walk at the widest window it is given.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaminarBudget {
    machines: u64,
    gamma: u64,
    horizon: u64,
    /// Held windows nesting in each aligned window; a window that holds
    /// none has no entry.
    counts: FxHashMap<Window, u64>,
}

impl LaminarBudget {
    /// An empty budget for `machines` machines at density `gamma`, over
    /// aligned windows of span at most `horizon` (a power of two).
    pub fn new(machines: usize, gamma: u64, horizon: u64) -> Self {
        assert!(machines >= 1 && gamma >= 1, "need m ≥ 1 and γ ≥ 1");
        assert!(
            horizon.is_power_of_two(),
            "horizon {horizon} is not a power of two"
        );
        LaminarBudget {
            machines: machines as u64,
            gamma,
            horizon,
            counts: FxHashMap::default(),
        }
    }

    /// Admits the aligned window `w` if no aligned ancestor up to the
    /// horizon would hold more than `⌊m·|A|/γ⌋` windows, and charges
    /// them; a refusal changes nothing.
    pub fn try_add(&mut self, w: Window) -> bool {
        assert!(
            w.is_aligned() && w.span() <= self.horizon,
            "{w} is not an aligned window inside the horizon {}",
            self.horizon
        );
        let (m, gamma) = (self.machines, self.gamma);
        if w.ancestors(self.horizon)
            .any(|a| self.count(a) >= m.saturating_mul(a.span()) / gamma)
        {
            return false;
        }
        for a in w.ancestors(self.horizon) {
            *self.counts.entry(a).or_insert(0) += 1;
        }
        true
    }

    /// Gives back what an admission of `w` charged.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not held.
    pub fn remove(&mut self, w: Window) {
        assert!(self.held(w) > 0, "{w} is not held");
        for a in w.ancestors(self.horizon) {
            let Entry::Occupied(mut count) = self.counts.entry(a) else {
                unreachable!("{a} holds the held {w}");
            };
            *count.get_mut() -= 1;
            if *count.get() == 0 {
                count.remove();
            }
        }
    }

    /// Admitted copies of `w` itself: what `w` holds less what its two
    /// aligned halves hold.
    fn held(&self, w: Window) -> u64 {
        let halves = match w.span() / 2 {
            0 => 0,
            half => {
                self.count(Window::with_span(w.start(), half))
                    + self.count(Window::with_span(w.start() + half, half))
            }
        };
        self.count(w) - halves
    }

    /// Held windows nesting in the aligned window `a`.
    fn count(&self, a: Window) -> u64 {
        self.counts.get(&a).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use crate::schedule::validate;
    use std::collections::BTreeMap;

    fn jobs(list: &[(u64, u64, u64)]) -> Vec<Job> {
        list.iter()
            .map(|&(id, a, d)| Job::unit(id, Window::new(a, d)))
            .collect()
    }

    fn check_valid(js: &[Job], m: usize) {
        let snap = edf_schedule(js, m).expect("feasible");
        let active: BTreeMap<JobId, Window> = js.iter().map(|j| (j.id, j.window)).collect();
        validate(&snap, &active, m).expect("valid schedule");
    }

    #[test]
    fn edf_schedules_tight_instance() {
        // 4 jobs exactly filling [0, 4) on one machine.
        let js = jobs(&[(1, 0, 4), (2, 0, 4), (3, 0, 4), (4, 0, 4)]);
        check_valid(&js, 1);
        assert!(!edf_feasible(
            &jobs(&[(1, 0, 4), (2, 0, 4), (3, 0, 4), (4, 0, 4), (5, 0, 4)]),
            1
        ));
    }

    #[test]
    fn edf_respects_deadlines() {
        // Classic: tight short job must preempt-in before loose long ones.
        let js = jobs(&[(1, 0, 3), (2, 0, 1), (3, 0, 3)]);
        check_valid(&js, 1);
        // Infeasible: two jobs need slot 0.
        assert!(!edf_feasible(&jobs(&[(1, 0, 1), (2, 0, 1)]), 1));
        // ...but fine on two machines.
        check_valid(&jobs(&[(1, 0, 1), (2, 0, 1)]), 2);
    }

    #[test]
    fn edf_skips_gaps() {
        // Sparse windows far apart: must not iterate the whole axis.
        let js = jobs(&[(1, 0, 1), (2, 1 << 40, (1 << 40) + 1)]);
        check_valid(&js, 1);
    }

    #[test]
    fn edf_multi_machine_counts_capacity() {
        // 2m jobs in a span-2 window on m machines: feasible exactly.
        for m in 1..5usize {
            let mut js = Vec::new();
            for i in 0..(2 * m as u64) {
                js.push(Job::unit(i, Window::new(0, 2)));
            }
            check_valid(&js, m);
            js.push(Job::unit(99, Window::new(0, 2)));
            assert!(!edf_feasible(&js, m));
        }
    }

    #[test]
    fn blocked_gamma_check() {
        // One job with window span 4: 2-underallocated (block of 2 fits),
        // not 8-underallocated (inflated job longer than window).
        let js = jobs(&[(1, 0, 4)]);
        assert!(gamma_underallocated_blocked(&js, 1, 2));
        assert!(!gamma_underallocated_blocked(&js, 1, 8));
        // Two jobs span 4: blocked γ=2 needs two disjoint 2-blocks: ok.
        let js = jobs(&[(1, 0, 4), (2, 0, 4)]);
        assert!(gamma_underallocated_blocked(&js, 1, 2));
        // Three jobs span 4 can't be 2-underallocated on one machine.
        let js = jobs(&[(1, 0, 4), (2, 0, 4), (3, 0, 4)]);
        assert!(!gamma_underallocated_blocked(&js, 1, 2));
    }

    #[test]
    fn preemptive_check_is_weaker_than_blocked() {
        // Anything blocked-feasible is preemptive-feasible.
        let js = jobs(&[(1, 0, 8), (2, 0, 8), (3, 4, 8)]);
        for gamma in 1..=2 {
            if gamma_underallocated_blocked(&js, 1, gamma) {
                assert!(gamma_feasible_preemptive(&js, 1, gamma));
            }
        }
        // Density violation caught: 5 jobs × γ2 = 10 > 8 slots.
        let js = jobs(&[(1, 0, 8), (2, 0, 8), (3, 0, 8), (4, 0, 8), (5, 0, 8)]);
        assert!(!gamma_feasible_preemptive(&js, 1, 2));
    }

    #[test]
    fn aligned_density_gamma() {
        // 2 jobs in [0,8) and 1 in [0,2): window [0,2) has 1 job -> γ ≤ 2;
        // window [0,8) has 3 jobs -> γ ≤ 8·1/3 = 2 (floor).
        let ws = vec![Window::new(0, 8), Window::new(0, 8), Window::new(0, 2)];
        assert_eq!(aligned_density_max_gamma(&ws, 1), 2);
        assert!(aligned_density_ok(&ws, 1, 2));
        assert!(!aligned_density_ok(&ws, 1, 3));
        // More machines scale density linearly.
        assert_eq!(aligned_density_max_gamma(&ws, 2), 4);
    }

    #[test]
    fn aligned_density_disjoint_windows_counted_via_ancestor() {
        // Jobs in [0,2) and [2,4): ancestor [0,4) sees both.
        let ws = vec![Window::new(0, 2), Window::new(2, 4)];
        // [0,2): 1 job -> γ≤2. [0,4): 2 jobs -> γ≤2.
        assert_eq!(aligned_density_max_gamma(&ws, 1), 2);
    }

    #[test]
    fn aligned_density_empty() {
        assert_eq!(aligned_density_max_gamma(&[], 1), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "is not held")]
    fn budget_refuses_to_remove_an_ancestor_of_a_held_window() {
        // (0,1) charges (0,2); removing (0,2) must not undo that charge.
        let mut budget = LaminarBudget::new(1, 1, 4);
        assert!(budget.try_add(Window::new(0, 1)));
        budget.remove(Window::new(0, 2));
    }

    #[test]
    fn budget_removes_a_window_held_beside_its_descendants() {
        let mut budget = LaminarBudget::new(2, 1, 4);
        assert!(budget.try_add(Window::new(0, 1)));
        assert!(budget.try_add(Window::new(0, 2)));
        budget.remove(Window::new(0, 2));
        budget.remove(Window::new(0, 1));
        assert_eq!(budget, LaminarBudget::new(2, 1, 4));
    }
}
