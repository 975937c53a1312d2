//! Old-vs-new scheduler equivalence.
//!
//! `mod seed` is a frozen copy of the **pre-optimization** (PR-1 seed)
//! `ReservationScheduler` — per-rebalance `Vec` allocations, fresh
//! `quotas_at` vectors, full `iw.slots()` scans, `std` SipHash maps. The
//! optimized scheduler (dense per-interval bit records in place of the
//! seed's slot trees, FxHash maps) must be *observationally identical*:
//! same per-request moves, same placements, same reallocation cost, same
//! accept/reject decisions — on density-certified churn (including the
//! serving benchmark's `mem_dense` stream), on custom towers whose
//! intervals are narrower or wider than a machine word, across a
//! mid-stream snapshot/restore, and on adversarial toggle/cascade streams.
//!
//! If a future change intentionally alters placement behavior, the frozen
//! copy must be re-snapshotted in the same PR that changes it.

use realloc_core::{JobId, Request, Restorable, SingleMachineReallocator, Tower, Window};
use realloc_reservation::ReservationScheduler;
use realloc_workloads::{ChurnConfig, ChurnGenerator};

/// Frozen seed implementation (copy of `scheduler.rs`/`state.rs`/`base.rs`
/// at PR 1, trimmed to what the equivalence run needs).
mod seed {
    use realloc_core::{Error, JobId, SingleMachineReallocator, Slot, SlotMove, Tower, Window};
    use realloc_reservation::quota::{
        fulfilled_quotas, positions_gained, positions_lost, reservation_count, Demand,
    };
    use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

    pub const MAX_TIME: u64 = 1 << 63;

    #[derive(Clone, Copy, Debug)]
    pub struct JobRec {
        pub window: Window,
        pub level: usize,
        pub slot: Slot,
    }

    #[derive(Clone, Debug, Default)]
    pub struct WindowState {
        pub x: u64,
        pub assigned: BTreeMap<Slot, Option<JobId>>,
        pub empty_assigned: BTreeSet<Slot>,
    }

    impl WindowState {
        fn add_assignment(&mut self, slot: Slot) {
            let prev = self.assigned.insert(slot, None);
            debug_assert!(prev.is_none());
            self.empty_assigned.insert(slot);
        }

        fn remove_assignment(&mut self, slot: Slot) {
            let prev = self.assigned.remove(&slot);
            debug_assert_eq!(prev, Some(None));
            self.empty_assigned.remove(&slot);
        }

        fn occupy(&mut self, slot: Slot, job: JobId) {
            let entry = self.assigned.get_mut(&slot).expect("occupy unassigned");
            debug_assert!(entry.is_none());
            *entry = Some(job);
            self.empty_assigned.remove(&slot);
        }

        fn vacate(&mut self, slot: Slot) {
            let entry = self.assigned.get_mut(&slot).expect("vacate unassigned");
            debug_assert!(entry.is_some());
            *entry = None;
            self.empty_assigned.insert(slot);
        }

        fn assigned_in(
            &self,
            interval: Window,
        ) -> impl Iterator<Item = (Slot, Option<JobId>)> + '_ {
            self.assigned
                .range(interval.start()..interval.end())
                .map(|(&s, &j)| (s, j))
        }
    }

    #[derive(Clone, Debug, Default)]
    pub struct IntervalState {
        pub lower_occ: BTreeSet<Slot>,
    }

    #[derive(Clone, Debug, Default)]
    pub struct Level {
        pub windows: HashMap<Window, WindowState>,
        pub intervals: HashMap<Slot, IntervalState>,
        pub high_water: u64,
    }

    impl Level {
        fn chain_spans(&self, ispan: u64) -> impl Iterator<Item = u64> + '_ {
            let hw = self.high_water;
            std::iter::successors(Some(2 * ispan), move |&s| s.checked_mul(2))
                .take_while(move |&s| s <= hw)
        }
    }

    #[derive(Debug)]
    enum Task {
        Rebalance {
            level: usize,
            istart: Slot,
        },
        Place {
            job: JobId,
            window: Window,
            level: usize,
            from: Option<Slot>,
        },
    }

    /// The PR-1 seed scheduler, frozen.
    #[derive(Clone, Debug)]
    pub struct SeedScheduler {
        tower: Tower,
        jobs: HashMap<JobId, JobRec>,
        slot_jobs: HashMap<Slot, JobId>,
        levels: Vec<Level>,
    }

    impl SeedScheduler {
        pub fn new() -> Self {
            Self::with_tower(Tower::paper())
        }

        pub fn with_tower(tower: Tower) -> Self {
            let n = tower.max_levels();
            SeedScheduler {
                tower,
                jobs: HashMap::new(),
                slot_jobs: HashMap::new(),
                levels: (0..n).map(|_| Level::default()).collect(),
            }
        }

        fn ispan(&self, level: usize) -> u64 {
            self.tower.interval_span(level)
        }

        fn interval_of(&self, level: usize, slot: Slot) -> Slot {
            let span = self.ispan(level);
            slot - slot % span
        }

        fn num_intervals(&self, level: usize, w: Window) -> u64 {
            w.span() / self.ispan(level)
        }

        fn quotas_at(&self, level: usize, istart: Slot) -> Vec<(Window, u64)> {
            let ispan = self.ispan(level);
            let lvl = &self.levels[level];
            let lower = lvl
                .intervals
                .get(&istart)
                .map(|i| i.lower_occ.len() as u64)
                .unwrap_or(0);
            let allowance = ispan - lower;

            let mut chain: Vec<Window> = Vec::new();
            let mut demands: Vec<Demand> = Vec::new();
            for span in lvl.chain_spans(ispan) {
                let w = Window::aligned_enclosing(istart, span);
                let x = lvl.windows.get(&w).map(|ws| ws.x).unwrap_or(0);
                let ni = span / ispan;
                let pos = (istart - w.start()) / ispan;
                chain.push(w);
                demands.push(Demand {
                    span,
                    reservations: reservation_count(x, ni, pos),
                });
            }
            let quotas = fulfilled_quotas(&demands, allowance);
            chain.into_iter().zip(quotas).collect()
        }

        fn drain(
            &mut self,
            work: &mut VecDeque<Task>,
            moves: &mut Vec<SlotMove>,
        ) -> Result<(), Error> {
            while let Some(task) = work.pop_front() {
                match task {
                    Task::Rebalance { level, istart } => {
                        self.rebalance(level, istart, moves)?;
                    }
                    Task::Place {
                        job,
                        window,
                        level,
                        from,
                    } => {
                        self.place(job, window, level, from, moves, work)?;
                    }
                }
            }
            Ok(())
        }

        fn rebalance(
            &mut self,
            level: usize,
            istart: Slot,
            moves: &mut Vec<SlotMove>,
        ) -> Result<(), Error> {
            let ispan = self.ispan(level);
            let iw = Window::with_span(istart, ispan);
            let targets = self.quotas_at(level, istart);

            for &(w, quota) in &targets {
                if !self.levels[level].windows.contains_key(&w) {
                    continue;
                }
                let invalid: Vec<Slot> = {
                    let lvl = &self.levels[level];
                    let ws = &lvl.windows[&w];
                    let occ = lvl.intervals.get(&istart);
                    ws.assigned_in(iw)
                        .filter(|(s, _)| occ.is_some_and(|i| i.lower_occ.contains(s)))
                        .map(|(s, _)| s)
                        .collect()
                };
                for s in invalid {
                    self.levels[level]
                        .windows
                        .get_mut(&w)
                        .unwrap()
                        .remove_assignment(s);
                }

                let cur: Vec<(Slot, Option<JobId>)> =
                    self.levels[level].windows[&w].assigned_in(iw).collect();
                let excess = (cur.len() as u64).saturating_sub(quota);
                if excess == 0 {
                    continue;
                }
                let mut shed = 0u64;
                for &(s, _) in cur.iter().filter(|(_, o)| o.is_none()) {
                    if shed == excess {
                        break;
                    }
                    self.levels[level]
                        .windows
                        .get_mut(&w)
                        .unwrap()
                        .remove_assignment(s);
                    shed += 1;
                }
                if shed < excess {
                    for &(s, occ) in cur.iter().filter(|(_, o)| o.is_some()) {
                        if shed == excess {
                            break;
                        }
                        let j = occ.expect("filtered on occupied");
                        self.move_job(level, w, j, moves)?;
                        self.levels[level]
                            .windows
                            .get_mut(&w)
                            .unwrap()
                            .remove_assignment(s);
                        shed += 1;
                    }
                }
            }

            let mut taken: BTreeSet<Slot> = self.levels[level]
                .intervals
                .get(&istart)
                .map(|i| i.lower_occ.iter().copied().collect())
                .unwrap_or_default();
            for &(w, _) in &targets {
                if let Some(ws) = self.levels[level].windows.get(&w) {
                    for (s, _) in ws.assigned_in(iw) {
                        taken.insert(s);
                    }
                }
            }
            for &(w, quota) in &targets {
                let cur = self.levels[level]
                    .windows
                    .get(&w)
                    .map(|ws| ws.assigned_in(iw).count() as u64)
                    .unwrap_or(0);
                let mut needed = quota.saturating_sub(cur);
                if needed == 0 {
                    continue;
                }
                for s in iw.slots() {
                    if needed == 0 {
                        break;
                    }
                    if taken.contains(&s) || self.slot_jobs.contains_key(&s) {
                        continue;
                    }
                    taken.insert(s);
                    self.levels[level]
                        .windows
                        .entry(w)
                        .or_default()
                        .add_assignment(s);
                    needed -= 1;
                }
                for s in iw.slots() {
                    if needed == 0 {
                        break;
                    }
                    if taken.contains(&s) {
                        continue;
                    }
                    taken.insert(s);
                    self.levels[level]
                        .windows
                        .entry(w)
                        .or_default()
                        .add_assignment(s);
                    needed -= 1;
                }
                debug_assert_eq!(needed, 0, "quota exceeds free capacity in interval");
            }
            Ok(())
        }

        fn move_job(
            &mut self,
            level: usize,
            w: Window,
            job: JobId,
            moves: &mut Vec<SlotMove>,
        ) -> Result<(), Error> {
            let s = self.jobs[&job].slot;
            let target = match self.pick_fulfilled_slot(level, w) {
                Some(t) => t,
                None => self.hunt_capacity(job, level, w, moves)?,
            };
            debug_assert_ne!(target, s);
            let hopper = self.slot_jobs.get(&target).copied();

            self.slot_jobs.insert(target, job);
            self.jobs.get_mut(&job).unwrap().slot = target;
            {
                let ws = self.levels[level].windows.get_mut(&w).unwrap();
                ws.vacate(s);
                ws.occupy(target, job);
            }
            moves.push(SlotMove {
                job,
                from: Some(s),
                to: Some(target),
            });

            let htop = match hopper {
                Some(h) => {
                    let hrec = self.jobs[&h];
                    self.slot_jobs.insert(s, h);
                    self.jobs.get_mut(&h).unwrap().slot = s;
                    let hws = self.levels[hrec.level]
                        .windows
                        .get_mut(&hrec.window)
                        .unwrap();
                    hws.vacate(target);
                    hws.remove_assignment(target);
                    hws.add_assignment(s);
                    hws.occupy(s, h);
                    moves.push(SlotMove {
                        job: h,
                        from: Some(target),
                        to: Some(s),
                    });
                    hrec.level
                }
                None => {
                    self.slot_jobs.remove(&s);
                    self.levels.len() - 1
                }
            };

            for lvl2 in (level + 1)..=htop {
                let istart = self.interval_of(lvl2, s);
                if let Some(rec) = self.levels[lvl2].intervals.get_mut(&istart) {
                    rec.lower_occ.remove(&s);
                    rec.lower_occ.insert(target);
                }
                if let Some(w2) = self.assignment_holder(lvl2, target) {
                    let ws2 = self.levels[lvl2].windows.get_mut(&w2).unwrap();
                    ws2.remove_assignment(target);
                    ws2.add_assignment(s);
                }
            }
            Ok(())
        }

        fn assignment_holder(&self, level: usize, slot: Slot) -> Option<Window> {
            let ispan = self.ispan(level);
            let lvl = &self.levels[level];
            for span in lvl.chain_spans(ispan) {
                let w = Window::aligned_enclosing(slot, span);
                if let Some(ws) = lvl.windows.get(&w) {
                    if let Some(occ) = ws.assigned.get(&slot) {
                        debug_assert!(occ.is_none());
                        return Some(w);
                    }
                }
            }
            None
        }

        #[allow(clippy::too_many_arguments)]
        fn occupy_slot(
            &mut self,
            job: JobId,
            window: Window,
            level: usize,
            slot: Slot,
            from: Option<Slot>,
            moves: &mut Vec<SlotMove>,
            work: &mut VecDeque<Task>,
        ) {
            let displaced = self.slot_jobs.insert(slot, job).map(|h| {
                let hrec = self.jobs[&h];
                self.levels[hrec.level]
                    .windows
                    .get_mut(&hrec.window)
                    .unwrap()
                    .vacate(slot);
                (h, hrec)
            });
            self.jobs.insert(
                job,
                JobRec {
                    window,
                    level,
                    slot,
                },
            );
            moves.push(SlotMove {
                job,
                from,
                to: Some(slot),
            });

            let htop = displaced
                .as_ref()
                .map(|(_, hrec)| hrec.level)
                .unwrap_or(self.levels.len() - 1);
            for lvl2 in (level + 1)..=htop {
                let istart = self.interval_of(lvl2, slot);
                self.levels[lvl2]
                    .intervals
                    .entry(istart)
                    .or_default()
                    .lower_occ
                    .insert(slot);
                work.push_back(Task::Rebalance {
                    level: lvl2,
                    istart,
                });
            }
            if let Some((h, hrec)) = displaced {
                work.push_back(Task::Place {
                    job: h,
                    window: hrec.window,
                    level: hrec.level,
                    from: Some(slot),
                });
            }
        }

        fn vacate_physical(
            &mut self,
            job: JobId,
            level: usize,
            slot: Slot,
            moves: &mut Vec<SlotMove>,
        ) {
            let prev = self.slot_jobs.remove(&slot);
            debug_assert_eq!(prev, Some(job));
            moves.push(SlotMove {
                job,
                from: Some(slot),
                to: None,
            });
            for lvl2 in (level + 1)..self.levels.len() {
                let istart = self.interval_of(lvl2, slot);
                let mut emptied = false;
                if let Some(rec) = self.levels[lvl2].intervals.get_mut(&istart) {
                    rec.lower_occ.remove(&slot);
                    emptied = rec.lower_occ.is_empty();
                }
                if emptied {
                    self.levels[lvl2].intervals.remove(&istart);
                }
            }
        }

        fn place(
            &mut self,
            job: JobId,
            window: Window,
            level: usize,
            from: Option<Slot>,
            moves: &mut Vec<SlotMove>,
            work: &mut VecDeque<Task>,
        ) -> Result<(), Error> {
            let slot = match self.pick_fulfilled_slot(level, window) {
                Some(s) => s,
                None => self.hunt_capacity(job, level, window, moves)?,
            };
            self.occupy_slot(job, window, level, slot, from, moves, work);
            self.levels[level]
                .windows
                .get_mut(&window)
                .unwrap()
                .occupy(slot, job);
            Ok(())
        }

        fn pick_fulfilled_slot(&self, level: usize, window: Window) -> Option<Slot> {
            let ws = self.levels[level].windows.get(&window)?;
            ws.empty_assigned
                .iter()
                .copied()
                .find(|s| !self.slot_jobs.contains_key(s))
                .or_else(|| ws.empty_assigned.iter().copied().next())
        }

        fn hunt_capacity(
            &mut self,
            job: JobId,
            level: usize,
            window: Window,
            moves: &mut Vec<SlotMove>,
        ) -> Result<Slot, Error> {
            let ispan = self.ispan(level);
            let ni = self.num_intervals(level, window);
            for pos in 0..ni {
                let istart = window.start() + pos * ispan;
                self.rebalance(level, istart, moves)?;
                if let Some(s) = self.pick_fulfilled_slot(level, window) {
                    return Ok(s);
                }
            }
            Err(Error::CapacityExhausted {
                job,
                detail: format!(
                    "PLACE: window {window} at level {level} has no fulfilled empty slot \
                     in any of its {ni} intervals (underallocation precondition violated)"
                ),
            })
        }

        fn insert_leveled(
            &mut self,
            job: JobId,
            window: Window,
            level: usize,
            moves: &mut Vec<SlotMove>,
            work: &mut VecDeque<Task>,
        ) -> Result<(), Error> {
            let ispan = self.ispan(level);
            let ni = self.num_intervals(level, window);
            self.levels[level].high_water = self.levels[level].high_water.max(window.span());
            let x_old = {
                let ws = self.levels[level].windows.entry(window).or_default();
                let x_old = ws.x;
                ws.x += 1;
                x_old
            };

            for pos in positions_gained(x_old, ni) {
                work.push_back(Task::Rebalance {
                    level,
                    istart: window.start() + pos * ispan,
                });
            }

            let attempt = self
                .drain(work, moves)
                .and_then(|()| self.place(job, window, level, None, moves, work))
                .and_then(|()| self.drain(work, moves));
            match attempt {
                Ok(()) => Ok(()),
                Err(e) => {
                    work.clear();
                    let mut rollback = VecDeque::new();
                    if let Some(rec) = self.jobs.get(&job).copied() {
                        self.levels[level]
                            .windows
                            .get_mut(&window)
                            .unwrap()
                            .vacate(rec.slot);
                        self.vacate_physical(job, level, rec.slot, moves);
                        self.jobs.remove(&job);
                    }
                    self.levels[level].windows.get_mut(&window).unwrap().x -= 1;
                    for pos in positions_lost(x_old + 1, ni) {
                        rollback.push_back(Task::Rebalance {
                            level,
                            istart: window.start() + pos * ispan,
                        });
                    }
                    self.drain(&mut rollback, moves)?;
                    Err(e)
                }
            }
        }

        fn delete_leveled(
            &mut self,
            job: JobId,
            rec: JobRec,
            moves: &mut Vec<SlotMove>,
            work: &mut VecDeque<Task>,
        ) -> Result<(), Error> {
            let (window, level, slot) = (rec.window, rec.level, rec.slot);
            let ispan = self.ispan(level);
            let ni = self.num_intervals(level, window);

            self.levels[level]
                .windows
                .get_mut(&window)
                .unwrap()
                .vacate(slot);
            self.vacate_physical(job, level, slot, moves);
            self.jobs.remove(&job);

            let x_old = self.levels[level].windows[&window].x;
            self.levels[level].windows.get_mut(&window).unwrap().x -= 1;
            for pos in positions_lost(x_old, ni) {
                work.push_back(Task::Rebalance {
                    level,
                    istart: window.start() + pos * ispan,
                });
            }
            self.drain(work, moves)
        }

        fn insert_base(
            &mut self,
            job: JobId,
            window: Window,
            moves: &mut Vec<SlotMove>,
            work: &mut VecDeque<Task>,
        ) -> Result<(), Error> {
            let mut cur_job = job;
            let mut cur_window = window;
            let mut from = None;
            loop {
                let mut empty = None;
                let mut higher = None;
                let mut victim: Option<(JobId, JobRec)> = None;
                for s in cur_window.slots() {
                    match self.slot_jobs.get(&s) {
                        None => {
                            empty = Some(s);
                            break;
                        }
                        Some(&occ) => {
                            let rec = self.jobs[&occ];
                            if rec.level >= 1 {
                                higher.get_or_insert(s);
                            } else if rec.window.span() > cur_window.span()
                                && victim.is_none_or(|(_, v)| rec.window.span() < v.window.span())
                            {
                                victim = Some((occ, rec));
                            }
                        }
                    }
                }
                if let Some(slot) = empty.or(higher) {
                    self.occupy_slot(cur_job, cur_window, 0, slot, from, moves, work);
                    return Ok(());
                }
                let Some((victim_id, victim_rec)) = victim else {
                    return Err(Error::CapacityExhausted {
                        job: cur_job,
                        detail: format!(
                            "base cascade: window {cur_window} is full of level-0 jobs with \
                             no longer-span occupant to displace"
                        ),
                    });
                };
                let slot = victim_rec.slot;
                self.slot_jobs.insert(slot, cur_job);
                self.jobs.insert(
                    cur_job,
                    JobRec {
                        window: cur_window,
                        level: 0,
                        slot,
                    },
                );
                moves.push(SlotMove {
                    job: cur_job,
                    from,
                    to: Some(slot),
                });
                cur_job = victim_id;
                cur_window = victim_rec.window;
                from = Some(slot);
            }
        }

        fn delete_base(&mut self, job: JobId, rec: JobRec, moves: &mut Vec<SlotMove>) {
            debug_assert_eq!(rec.level, 0);
            self.vacate_physical(job, 0, rec.slot, moves);
            self.jobs.remove(&job);
        }
    }

    /// The frozen request bodies, as inherent methods (the lock-step
    /// driver calls these); the trait's doors below wrap them.
    impl SeedScheduler {
        pub fn insert(&mut self, id: JobId, window: Window) -> Result<Vec<SlotMove>, Error> {
            if self.jobs.contains_key(&id) {
                return Err(Error::DuplicateJob(id));
            }
            if !window.is_aligned() {
                return Err(Error::UnalignedWindow(window));
            }
            if window.end() > MAX_TIME {
                return Err(Error::UnsupportedJob {
                    job: id,
                    detail: format!("window end {} exceeds MAX_TIME 2^63", window.end()),
                });
            }
            let level = self.tower.level_of(window.span());
            let mut moves = Vec::new();
            let mut work = VecDeque::new();
            let result = if level == 0 {
                self.insert_base(id, window, &mut moves, &mut work)
                    .and_then(|()| self.drain(&mut work, &mut moves))
            } else {
                self.insert_leveled(id, window, level, &mut moves, &mut work)
            };
            result.map(|()| moves)
        }

        pub fn delete(&mut self, id: JobId) -> Result<Vec<SlotMove>, Error> {
            let rec = *self.jobs.get(&id).ok_or(Error::UnknownJob(id))?;
            let mut moves = Vec::new();
            let mut work = VecDeque::new();
            if rec.level == 0 {
                self.delete_base(id, rec, &mut moves);
                self.drain(&mut work, &mut moves)?;
            } else {
                self.delete_leveled(id, rec, &mut moves, &mut work)?;
            }
            Ok(moves)
        }
    }

    impl SingleMachineReallocator for SeedScheduler {
        fn insert_into(
            &mut self,
            id: JobId,
            window: Window,
            moves: &mut Vec<SlotMove>,
        ) -> Result<Option<u32>, Error> {
            moves.extend(self.insert(id, window)?);
            Ok(None)
        }

        fn delete_into(
            &mut self,
            id: JobId,
            _handle: Option<u32>,
            moves: &mut Vec<SlotMove>,
        ) -> Result<(), Error> {
            moves.extend(self.delete(id)?);
            Ok(())
        }

        fn slot_of(&self, id: JobId, _handle: Option<u32>) -> Option<Slot> {
            self.jobs.get(&id).map(|r| r.slot)
        }

        fn assignments(&self) -> Vec<(JobId, Slot)> {
            self.jobs.iter().map(|(&id, r)| (id, r.slot)).collect()
        }

        fn active_count(&self) -> usize {
            self.jobs.len()
        }

        fn name(&self) -> &'static str {
            "seed-reservation"
        }
    }
}

// ---------------------------------------------------------------------
// Lockstep driver
// ---------------------------------------------------------------------

/// How one lock-step comparison is run.
struct Lockstep {
    /// Explicit thresholds both schedulers are built over (`with_tower`);
    /// `None` is the paper tower through `new()`.
    tower: Option<Vec<u64>>,
    /// `check_invariants` runs on every `check_every`-th request (1 =
    /// every request; the long streams sample to keep debug runs short).
    check_every: usize,
    /// Before this request index, replace the new scheduler by
    /// `restore(snapshot_text())` of itself; the seed keeps running, so
    /// the restored state must reproduce every later move.
    restore_at: Option<usize>,
}

impl Lockstep {
    fn paper() -> Self {
        Lockstep {
            tower: None,
            check_every: 1,
            restore_at: None,
        }
    }

    /// Drives the frozen seed and the optimized scheduler through the same
    /// stream, asserting identical per-request outcomes (moves on success,
    /// error kind on rejection), identical netted reallocation cost, and
    /// identical final placements.
    fn run(&self, requests: impl Iterator<Item = Request>, label: &str) {
        let (mut old, mut new) = match &self.tower {
            None => (seed::SeedScheduler::new(), ReservationScheduler::new()),
            Some(t) => (
                seed::SeedScheduler::with_tower(Tower::custom(t.clone())),
                ReservationScheduler::with_tower(Tower::custom(t.clone())),
            ),
        };
        let (mut old_cost, mut new_cost) = (0u64, 0u64);
        for (i, r) in requests.enumerate() {
            if self.restore_at == Some(i) {
                new = restored_fixed_point(&new, label);
            }
            let (old_out, new_out) = match r {
                Request::Insert { id, window } => (old.insert(id, window), new.insert(id, window)),
                Request::Delete { id } => (old.delete(id), new.delete(id)),
            };
            match (old_out, new_out) {
                (Ok(old_moves), Ok(new_moves)) => {
                    assert_eq!(
                        old_moves, new_moves,
                        "{label}: request {i} ({r:?}) produced different moves"
                    );
                    let net = |moves: &[realloc_core::SlotMove]| {
                        realloc_core::RequestOutcome {
                            moves: moves.iter().map(|m| m.on_machine(0)).collect(),
                        }
                        .netted()
                        .reallocation_cost()
                    };
                    old_cost += net(&old_moves);
                    new_cost += net(&new_moves);
                }
                (Err(oe), Err(ne)) => {
                    assert_eq!(
                        std::mem::discriminant(&oe),
                        std::mem::discriminant(&ne),
                        "{label}: request {i} rejected differently: seed={oe:?} new={ne:?}"
                    );
                }
                (o, n) => panic!("{label}: request {i} ({r:?}) diverged: seed={o:?} new={n:?}"),
            }
            if i % self.check_every == 0 {
                new.check_invariants()
                    .unwrap_or_else(|v| panic!("{label}: request {i}: {v}"));
            }
        }
        new.check_invariants()
            .unwrap_or_else(|v| panic!("{label}: final state: {v}"));
        assert_eq!(old_cost, new_cost, "{label}: total reallocation cost");
        let mut old_assign = old.assignments();
        let mut new_assign = new.assignments();
        old_assign.sort_unstable();
        new_assign.sort_unstable();
        assert_eq!(old_assign, new_assign, "{label}: final placements");
        assert_eq!(old.active_count(), new.active_count(), "{label}: active");
    }
}

/// `restore(snapshot_text())`, checked to be a byte-for-byte fixed point:
/// the restored scheduler's own snapshot is the text it was built from.
fn restored_fixed_point(s: &ReservationScheduler, label: &str) -> ReservationScheduler {
    let text = s.snapshot_text();
    let restored = ReservationScheduler::restore(&text)
        .unwrap_or_else(|e| panic!("{label}: restore failed: {e}"));
    restored
        .check_invariants()
        .unwrap_or_else(|v| panic!("{label}: restored state: {v}"));
    assert_eq!(
        restored.snapshot_text(),
        text,
        "{label}: snapshot -> restore -> snapshot is not a fixed point"
    );
    restored
}

fn assert_equivalent(requests: impl Iterator<Item = Request>, label: &str) {
    Lockstep::paper().run(requests, label);
}

fn churn(seed: u64, gamma: u64, target: usize, spans: Vec<u64>, len: usize) -> Vec<Request> {
    churn_over(seed, gamma, 1 << 13, target, spans, len)
}

fn churn_over(
    seed: u64,
    gamma: u64,
    horizon: u64,
    target: usize,
    spans: Vec<u64>,
    len: usize,
) -> Vec<Request> {
    let mut gen = ChurnGenerator::new(
        ChurnConfig {
            machines: 1,
            gamma,
            horizon,
            spans,
            target_active: target,
            insert_bias: 0.6,
            unaligned: false,
        },
        seed,
    );
    gen.generate(len).requests().to_vec()
}

/// The stream the serving benchmark's `mem_dense` workload puts on one
/// machine (`servebench/src/stream.rs`: its span ladder and horizon, 2048
/// active jobs): a prefill of five requests per target job, then the
/// measured requests.
fn mem_dense_stream(seed: u64, measured: usize) -> Vec<Request> {
    let target = 2048;
    churn_over(
        seed,
        8,
        1 << 16,
        target,
        vec![1, 4, 16, 64, 256, 1024, 4096],
        target * 5 + measured,
    )
}

#[test]
fn equivalent_on_certified_churn() {
    for seed in 0..6u64 {
        assert_equivalent(
            churn(seed, 8, 96, vec![1, 4, 16, 64, 256, 1024], 800).into_iter(),
            &format!("churn γ=8 seed {seed}"),
        );
    }
}

#[test]
fn equivalent_on_tight_churn() {
    // γ = 4 drives the scheduler much closer to the Lemma 8 boundary:
    // more sheds, more MOVEs, more capacity hunts — and occasionally a
    // CapacityExhausted rejection, which must also match.
    for seed in 0..6u64 {
        assert_equivalent(
            churn(seed, 4, 160, vec![1, 2, 8, 32, 128, 512], 800).into_iter(),
            &format!("churn γ=4 seed {seed}"),
        );
    }
}

#[test]
fn equivalent_on_multilevel_churn() {
    // Spans spread over three reservation levels (32/256/2048 interval
    // ladder) to exercise cross-level displacement + ancestor swaps.
    for seed in 0..4u64 {
        assert_equivalent(
            churn(seed, 8, 64, vec![64, 256, 1024, 4096], 600).into_iter(),
            &format!("multilevel seed {seed}"),
        );
    }
}

/// Aligned toggle adversary: a staircase of span-2 jobs plus unit-window
/// jobs hammering the front slots, forcing repeated MOVE/PLACE cascades —
/// the aligned cousin of the Lemma 12 toggle.
fn aligned_toggle(rounds: usize) -> Vec<Request> {
    let mut reqs = Vec::new();
    let mut next = 0u64;
    let mut fresh = |reqs: &mut Vec<Request>, window: Window| {
        let id = JobId(next);
        next += 1;
        reqs.push(Request::Insert { id, window });
        id
    };
    // Staircase: one span-2 job per aligned pair in [0, 32).
    let stairs: Vec<JobId> = (0..16u64)
        .map(|j| fresh(&mut reqs, Window::new(2 * j, 2 * j + 2)))
        .collect();
    for round in 0..rounds {
        // Toggle unit jobs through every pair, displacing the stair jobs.
        let units: Vec<JobId> = (0..16u64)
            .map(|j| fresh(&mut reqs, Window::new(2 * j, 2 * j + 1)))
            .collect();
        for id in units {
            reqs.push(Request::Delete { id });
        }
        // Every other round, churn a long job over the whole range.
        if round % 2 == 0 {
            let long = fresh(&mut reqs, Window::new(0, 32));
            reqs.push(Request::Delete { id: long });
        }
    }
    for id in stairs {
        reqs.push(Request::Delete { id });
    }
    reqs
}

#[test]
fn equivalent_on_aligned_toggle_adversary() {
    assert_equivalent(aligned_toggle(12).into_iter(), "aligned toggle");
}

#[test]
fn equivalent_on_leveled_saturation_adversary() {
    // Saturate one level-1 window hard (forcing hunts + rejections), then
    // drain it in insertion order while refilling with level-0 jobs.
    let mut reqs = Vec::new();
    let w = Window::new(0, 64);
    for i in 0..70u64 {
        reqs.push(Request::Insert {
            id: JobId(i),
            window: w,
        });
    }
    for i in 0..32u64 {
        reqs.push(Request::Delete { id: JobId(i) });
        reqs.push(Request::Insert {
            id: JobId(100 + i),
            window: Window::new((i % 8) * 8, (i % 8) * 8 + 8),
        });
    }
    for i in 32..70u64 {
        reqs.push(Request::Delete { id: JobId(i) });
    }
    for i in 0..32u64 {
        reqs.push(Request::Delete { id: JobId(100 + i) });
    }
    assert_equivalent(reqs.into_iter(), "leveled saturation");
}

#[test]
fn equivalent_on_mem_dense_stream() {
    Lockstep {
        check_every: 64,
        ..Lockstep::paper()
    }
    .run(mem_dense_stream(7, 20_000).into_iter(), "mem_dense seed 7");
}

#[test]
fn equivalent_on_custom_towers() {
    // Four reservation levels with sub-word intervals (4/16/64/256), and
    // a ladder whose top interval spans sixteen 64-bit words (1024).
    for thresholds in [vec![4u64, 16, 64, 256], vec![8, 64, 1024]] {
        let lockstep = Lockstep {
            tower: Some(thresholds.clone()),
            check_every: 16,
            ..Lockstep::paper()
        };
        for seed in 0..3u64 {
            let label = format!("tower {thresholds:?} seed {seed}");
            lockstep.run(
                churn(seed, 8, 128, vec![1, 4, 16, 64, 256, 1024, 4096], 1500).into_iter(),
                &label,
            );
            lockstep.run(
                churn(seed, 4, 160, vec![2, 8, 32, 128, 512, 2048], 800).into_iter(),
                &format!("{label} tight"),
            );
        }
    }
}

#[test]
fn equivalent_across_mid_stream_restore() {
    // The restored scheduler must continue exactly where the original
    // was: the seed never restores, so any state the snapshot loses or
    // reorders shows up as a diverging move later in the stream.
    for seed in 0..4u64 {
        Lockstep {
            check_every: 8,
            restore_at: Some(500),
            ..Lockstep::paper()
        }
        .run(
            churn(seed, 8, 96, vec![1, 4, 16, 64, 256, 1024], 1200).into_iter(),
            &format!("restore mid-churn seed {seed}"),
        );
        Lockstep {
            tower: Some(vec![4, 16, 64, 256]),
            check_every: 8,
            restore_at: Some(400),
        }
        .run(
            churn(seed, 4, 160, vec![2, 8, 32, 128, 512], 900).into_iter(),
            &format!("restore mid-churn custom tower seed {seed}"),
        );
    }
    Lockstep {
        check_every: 64,
        restore_at: Some(2048 * 5 + 3_000),
        ..Lockstep::paper()
    }
    .run(
        mem_dense_stream(11, 6_000).into_iter(),
        "restore mid mem_dense seed 11",
    );
}
