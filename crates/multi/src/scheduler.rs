//! The full Theorem-1 pipeline: align → delegate → per-machine backend.
//!
//! # Who owns what about a job
//!
//! This wrapper is the one owner of a job's **original window** and its
//! **machine**: `jobs` holds exactly one record per active job
//! (`original`, from which the aligned `effective` window is derived, and
//! the machine §3 delegated it to), and [`Reallocator::window_of`] /
//! [`Reallocator::active_jobs`] answer from it — the engine shard above
//! keeps no copy. The slot is the per-machine backend's fact
//! ([`SingleMachineReallocator::slot_of`]). The per-window delegation
//! state lives in the `windows` map's 64-byte bucket: each machine's
//! share of the window's jobs (on up to four machines), from
//! which both §3 choices are made, and the members — inline while the
//! group has one job, which most groups do for their whole life, else
//! one heap list of equal per-machine runs. So an insert or a delete
//! probes `jobs` and `windows` once each, a group of one holds no heap
//! block, and a larger group's list is read only in the one or two
//! machines' runs the request changes.
//!
//! The record also carries the backend's *handle* for the job, which the
//! wrapper passes back ([`SingleMachineReallocator::delete_into`]), so
//! `jobs` is the only id lookup a request makes. Backends append to one
//! reused buffer, `slot_moves`, lifted onto the machine into the
//! caller's [`RequestOutcome`].

use fxhash::FxHashMap;
use realloc_core::cost::Placement;
use realloc_core::snapshot::{Fields, Restorable, SnapshotNode, SnapshotWriter};
use realloc_core::textio::ParseError;
use realloc_core::{
    Error, JobId, Reallocator, RequestOutcome, ScheduleSnapshot, SingleMachineReallocator,
    SlotMove, Window,
};
use realloc_reservation::TrimmedScheduler;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;

/// Machines whose shares a [`WindowGroup`] keeps in its bucket; on more
/// machines, a share is read from the head of the machine's run.
const INLINE_SHARES: usize = 4;

/// Per-effective-window delegation bookkeeping (paper §3): 48 bytes, so a
/// `windows` bucket is one cache line.
///
/// The rule is Lemma 3's balance and nothing more: every machine holds
/// `⌊n_W/m⌋` or `⌈n_W/m⌉` of the window's jobs. An insert goes to the
/// first machine, in the window's order, that holds the fewest; a delete
/// migrates a job only when the machine that lost one would otherwise
/// hold two fewer than the fullest. Both choices are pure functions of
/// the group's *content* — the shares, and the smallest id on a machine
/// — not of insertion history: journal replay, snapshot/restore and
/// replicas all depend on that purity.
#[derive(Clone, Debug)]
struct WindowGroup {
    /// The window's jobs, machine by machine.
    members: Members,
    /// `shares[i]`: how many of the window's jobs machine `i` holds, for
    /// `i < INLINE_SHARES`.
    shares: [u32; INLINE_SHARES],
    /// The number of the window's jobs, the paper's `n_W`.
    len: u32,
    /// Where this window's machine order starts: the §3 choices break
    /// ties in favour of the first machine in `start, start + 1, …`
    /// (mod m). The paper starts every window at machine 0; hashing the
    /// start hands different windows' extra jobs to different machines,
    /// balancing *aggregate* load across windows.
    start: u32,
}

/// A [`WindowGroup`]'s jobs.
#[derive(Clone, Debug)]
enum Members {
    /// A group of one: its machine and job id, in the bucket.
    One(u32, u64),
    /// Any other number (none only while a delete empties the group), in
    /// `m` equal runs: run `i` is machine `i`'s count `c`, then its `c`
    /// job ids in no order, then room for more. A request reads only its
    /// machine's run.
    Runs(Vec<u64>),
}

impl WindowGroup {
    /// A group of no jobs whose order starts at `start`.
    fn new(start: usize) -> Self {
        WindowGroup {
            members: Members::Runs(Vec::new()),
            shares: [0; INLINE_SHARES],
            len: 0,
            start: u32::try_from(start).expect("machine count fits u32"),
        }
    }

    /// The order start of `window` on `machines` machines: a pure hash of
    /// the window.
    fn start_of(machines: usize, window: Window) -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        window.hash(&mut h);
        (h.finish() % machines as u64) as usize
    }

    /// The ids of `machine`'s jobs of this window, in no order.
    fn run(&self, machine: usize, machines: usize) -> &[u64] {
        match &self.members {
            Members::One(m, id) if *m as usize == machine => std::slice::from_ref(id),
            Members::One(..) => &[],
            Members::Runs(runs) if runs.is_empty() => &[],
            Members::Runs(runs) => {
                let at = machine * (runs.len() / machines);
                &runs[at + 1..at + 1 + runs[at] as usize]
            }
        }
    }

    /// Every machine with the number of this window's jobs it holds, in
    /// machine order; no allocation, and on up to [`INLINE_SHARES`]
    /// machines read from the bucket alone.
    fn shares(&self, machines: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..machines).map(move |machine| {
            let held = if machines <= INLINE_SHARES {
                self.shares[machine] as usize
            } else {
                self.run(machine, machines).len()
            };
            (machine, held)
        })
    }

    /// Position of `machine` in this window's order.
    fn rank(&self, machine: usize, machines: usize) -> usize {
        (machine + machines - self.start as usize) % machines
    }

    /// §3 insert: the first machine in order that holds the fewest of
    /// this window's jobs. On an insert-only history that is machine
    /// `(start + n_W) mod m`, the paper's round robin.
    fn lightest(&self, machines: usize) -> usize {
        self.shares(machines)
            .min_by_key(|&(machine, held)| (held, self.rank(machine, machines)))
            .expect("at least one machine")
            .0
    }

    /// §3 delete: the machine to migrate a job *from* — the first in
    /// order among the fullest — when the shares differ by two, `None`
    /// while they are within one.
    fn overfull(&self, machines: usize) -> Option<usize> {
        let fewest = self.shares(machines).map(|(_, held)| held).min()?;
        let (machine, most) = self
            .shares(machines)
            .min_by_key(|&(machine, held)| (Reverse(held), self.rank(machine, machines)))?;
        (most >= fewest + 2).then_some(machine)
    }

    /// Records `id` on `machine`; `false` when it is already there.
    fn add(&mut self, machine: usize, id: JobId, machines: usize) -> bool {
        if self.run(machine, machines).contains(&id.0) {
            return false;
        }
        if let Members::One(m, one) = self.members {
            // Room for one job per machine: a balanced group of two.
            let mut runs = vec![0; 2 * machines];
            (runs[2 * m as usize], runs[2 * m as usize + 1]) = (1, one);
            self.members = Members::Runs(runs);
        }
        match &mut self.members {
            Members::Runs(runs) if runs.is_empty() => {
                let machine = u32::try_from(machine).expect("machine count fits u32");
                self.members = Members::One(machine, id.0);
            }
            Members::One(..) => unreachable!("a group of one became runs above"),
            Members::Runs(runs) => {
                let mut stride = runs.len() / machines;
                if runs[machine * stride] as usize == stride - 1 {
                    *runs = (runs.chunks_exact(stride))
                        .flat_map(|run| {
                            run.iter()
                                .copied()
                                .chain(std::iter::repeat_n(0, stride - 1))
                        })
                        .collect();
                    stride = 2 * stride - 1;
                }
                let at = machine * stride;
                runs[at] += 1;
                let held = runs[at] as usize;
                runs[at + held] = id.0;
            }
        }
        if let Some(share) = self.shares.get_mut(machine) {
            *share += 1;
        }
        self.len += 1;
        true
    }

    /// Drops `id` from `machine`, if it is there.
    fn remove(&mut self, machine: usize, id: JobId, machines: usize) {
        let Some(pos) = self.run(machine, machines).iter().position(|&j| j == id.0) else {
            return;
        };
        match &mut self.members {
            Members::One(..) => self.members = Members::Runs(Vec::new()),
            Members::Runs(runs) => {
                let at = machine * (runs.len() / machines);
                let last = runs[at] as usize;
                runs[at + 1 + pos] = runs[at + last];
                runs[at + last] = 0;
                runs[at] -= 1;
            }
        }
        if let Some(share) = self.shares.get_mut(machine) {
            *share -= 1;
        }
        self.len -= 1;
        if self.len == 1 {
            let (m, &id) = (0..machines)
                .find_map(|m| self.run(m, machines).first().map(|id| (m, id)))
                .expect("a group of one has a job");
            self.members = Members::One(m as u32, id);
        }
    }

    /// The smallest id this window has on `machine`.
    fn first_on(&self, machine: usize, machines: usize) -> Option<JobId> {
        self.run(machine, machines)
            .iter()
            .min()
            .map(|&id| JobId(id))
    }

    /// Every job of this window with its machine.
    fn members(&self, machines: usize) -> impl Iterator<Item = (usize, JobId)> + '_ {
        (0..machines).flat_map(move |m| self.run(m, machines).iter().map(move |&id| (m, JobId(id))))
    }

    /// Checks the group against its members: at least one, a group of
    /// one in the bucket, equal runs with room for their jobs and no job
    /// twice, and each share and the count in the bucket what the runs
    /// hold.
    fn check(&self, machines: usize) -> Result<(), String> {
        if let Members::Runs(runs) = &self.members {
            let stride = runs.len() / machines;
            if runs.len() % machines != 0 || stride < 2 {
                return Err(format!("{} run words over {machines} machines", runs.len()));
            }
            if let Some(run) = runs
                .chunks_exact(stride)
                .find(|run| run[0] as usize >= stride)
            {
                return Err(format!("a run of {} words counts {} jobs", stride, run[0]));
            }
        }
        let mut ids: Vec<u64> = self.members(machines).map(|(_, id)| id.0).collect();
        let held = ids.len();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != held || held != self.len as usize || held == 0 {
            return Err(format!(
                "{held} members ({} distinct), {} counted",
                ids.len(),
                self.len
            ));
        }
        if held == 1 && matches!(self.members, Members::Runs(_)) {
            return Err("a group of one keeps runs".to_string());
        }
        for (machine, &share) in self.shares.iter().enumerate() {
            let held = if machine < machines {
                self.run(machine, machines).len()
            } else {
                0
            };
            if share as usize != held {
                return Err(format!(
                    "machine {machine}: share {share} in the bucket, {held} in its run"
                ));
            }
        }
        Ok(())
    }
}

/// One active job: 24 bytes, so a `jobs` bucket is half a cache line.
#[derive(Clone, Copy, Debug)]
struct JobInfo {
    original: Window,
    /// The machine §3 delegated the job to.
    machine: u32,
    /// The backend's handle for the job there, [`NO_HANDLE`] from a
    /// backend without handles.
    handle: u32,
}

/// [`JobInfo::handle`] of a backend that returned none.
const NO_HANDLE: u32 = u32::MAX;

impl JobInfo {
    fn new(original: Window, machine: usize, handle: Option<u32>) -> Self {
        debug_assert_ne!(handle, Some(NO_HANDLE));
        JobInfo {
            original,
            machine: u32::try_from(machine).expect("machine count fits u32"),
            handle: handle.unwrap_or(NO_HANDLE),
        }
    }

    fn machine(&self) -> usize {
        self.machine as usize
    }

    fn handle(&self) -> Option<u32> {
        (self.handle != NO_HANDLE).then_some(self.handle)
    }
}

/// An `m`-machine reallocating scheduler for arbitrary windows, generic
/// over the single-machine backend `B` (paper Theorem 1 when `B` is the
/// reservation scheduler; the same wrapper also lifts the Lemma 4 naive
/// baseline to `m` machines for comparisons).
#[derive(Clone, Debug)]
pub struct ReallocatingScheduler<B> {
    machines: Vec<B>,
    windows: FxHashMap<Window, WindowGroup>,
    jobs: FxHashMap<JobId, JobInfo>,
    /// The buffer every backend call appends to; empty between calls
    /// that succeed (see [`lift_all`]).
    slot_moves: Vec<SlotMove>,
}

/// The paper's headline configuration: reservation scheduler with `n*`
/// trimming on every machine.
pub type TheoremOneScheduler = ReallocatingScheduler<TrimmedScheduler>;

impl TheoremOneScheduler {
    /// Theorem-1 scheduler on `machines` machines with trim factor `gamma`.
    pub fn theorem_one(machines: usize, gamma: u64) -> Self {
        Self::with_backends(
            (0..machines)
                .map(|_| TrimmedScheduler::new(gamma))
                .collect(),
        )
    }
}

impl<B: SingleMachineReallocator> ReallocatingScheduler<B> {
    /// Builds the wrapper from per-machine backends (one per machine).
    pub fn with_backends(machines: Vec<B>) -> Self {
        assert!(!machines.is_empty(), "need at least one machine");
        ReallocatingScheduler {
            machines,
            windows: FxHashMap::default(),
            jobs: FxHashMap::default(),
            slot_moves: Vec::new(),
        }
    }

    /// Builds `m` machines from a backend factory.
    pub fn from_factory(m: usize, factory: impl Fn() -> B) -> Self {
        Self::with_backends((0..m).map(|_| factory()).collect())
    }

    /// The effective (aligned) window a job would be scheduled under.
    pub fn effective_window(window: Window) -> Window {
        window.aligned_subwindow()
    }

    /// Read-only access to a machine's backend (tests, invariant checks).
    pub fn backend(&self, machine: usize) -> &B {
        &self.machines[machine]
    }

    /// Checks the §3 bookkeeping against its members: every group holds
    /// at least one job, in order, a group of one in its bucket, and the
    /// shares in its bucket are its members' machines counted; its order
    /// starts where the hash of its window says; its members are
    /// exactly the jobs whose effective window it is, on the machines
    /// `jobs` records. Intended for tests (cost is `O(jobs)`).
    pub fn check_invariants(&self) -> Result<(), String> {
        let m = self.machines.len();
        let mut members = 0;
        for (&window, group) in &self.windows {
            let err = |e: String| format!("window {window}: {e}");
            group.check(m).map_err(err)?;
            if group.start as usize != WindowGroup::start_of(m, window) {
                return Err(err(format!("order starts at machine {}", group.start)));
            }
            for (machine, id) in group.members(m) {
                let info =
                    (self.jobs.get(&id)).ok_or_else(|| err(format!("job {id} is not active")))?;
                if info.machine() != machine || Self::effective_window(info.original) != window {
                    return Err(err(format!(
                        "job {id} is on machine {} under {}",
                        info.machine,
                        Self::effective_window(info.original)
                    )));
                }
            }
            members += group.len as usize;
        }
        if members != self.jobs.len() {
            return Err(format!("{members} group members, {} jobs", self.jobs.len()));
        }
        Ok(())
    }
}

impl<B: SingleMachineReallocator> Reallocator for ReallocatingScheduler<B> {
    fn machines(&self) -> usize {
        self.machines.len()
    }

    fn insert_into(
        &mut self,
        id: JobId,
        window: Window,
        out: &mut RequestOutcome,
    ) -> Result<(), Error> {
        let Entry::Vacant(job) = self.jobs.entry(id) else {
            return Err(Error::DuplicateJob(id));
        };
        let m = self.machines.len();
        let effective = Self::effective_window(window);
        let group = self.windows.entry(effective);
        // §3: the first machine in the window's order holding the fewest
        // of its jobs — for a window's first job, the order's start.
        let machine = match &group {
            Entry::Occupied(g) => g.get().lightest(m),
            Entry::Vacant(_) => WindowGroup::start_of(m, effective),
        };
        // A rejection leaves no trace: nothing was recorded yet, and a
        // window's group is only created once it has a job.
        self.slot_moves.clear();
        let handle = self.machines[machine].insert_into(id, effective, &mut self.slot_moves)?;
        match group {
            Entry::Occupied(mut g) => {
                g.get_mut().add(machine, id, m);
            }
            Entry::Vacant(g) => {
                g.insert(WindowGroup::new(machine)).add(machine, id, m);
            }
        }
        job.insert(JobInfo::new(window, machine, handle));
        lift_all(out, &mut self.slot_moves, machine);
        Ok(())
    }

    fn delete_into(&mut self, id: JobId, out: &mut RequestOutcome) -> Result<(), Error> {
        let Entry::Occupied(job) = self.jobs.entry(id) else {
            return Err(Error::UnknownJob(id));
        };
        let info = *job.get();
        let (effective, mi) = (Self::effective_window(info.original), info.machine());
        let m = self.machines.len();

        self.slot_moves.clear();
        self.machines[mi].delete_into(id, info.handle(), &mut self.slot_moves)?;
        lift_all(out, &mut self.slot_moves, mi);
        job.remove();

        let Entry::Occupied(mut entry) = self.windows.entry(effective) else {
            unreachable!("active job {id} had no group for {effective}");
        };
        let group = entry.get_mut();
        group.remove(mi, id, m);
        // §3 rebalance, only when Lemma 3 needs it: `mi` now holds two
        // fewer of the window's jobs than the fullest machine. The mover
        // is the smallest id on the first fullest machine in order —
        // deterministic from content alone (see `members`) — and it goes
        // to `mi` (≤ 1 migration).
        if let Some(from) = group.overfull(m) {
            debug_assert_eq!(
                group.lightest(m),
                mi,
                "only the machine that lost a job of {effective} can fall behind"
            );
            let mover = group
                .first_on(from, m)
                .expect("the fullest machine holds a job of the window");
            let info = self
                .jobs
                .get_mut(&mover)
                .expect("group members are active jobs");
            self.machines[from].delete_into(mover, info.handle(), &mut self.slot_moves)?;
            lift_all(out, &mut self.slot_moves, from);
            match self.machines[mi].insert_into(mover, effective, &mut self.slot_moves) {
                Ok(handle) => {
                    lift_all(out, &mut self.slot_moves, mi);
                    group.remove(from, mover, m);
                    group.add(mi, mover, m);
                    *info = JobInfo::new(info.original, mi, handle);
                }
                Err(e) => {
                    // Put the mover back where it was; the delete itself
                    // remains serviced.
                    self.slot_moves.clear();
                    let handle =
                        self.machines[from].insert_into(mover, effective, &mut self.slot_moves)?;
                    lift_all(out, &mut self.slot_moves, from);
                    *info = JobInfo::new(info.original, from, handle);
                    debug_assert!(false, "migration re-insert failed: {e}");
                }
            }
        }
        if group.len == 0 {
            entry.remove();
        }
        Ok(())
    }

    fn snapshot(&self) -> ScheduleSnapshot {
        let mut snap = ScheduleSnapshot::new();
        for (&id, info) in &self.jobs {
            let slot = self.machines[info.machine()]
                .slot_of(id, info.handle())
                .expect("active job must be scheduled on its machine");
            snap.set(
                id,
                Placement {
                    machine: info.machine(),
                    slot,
                },
            );
        }
        snap
    }

    fn active_count(&self) -> usize {
        self.jobs.len()
    }

    fn window_of(&self, id: JobId) -> Option<Window> {
        self.jobs.get(&id).map(|i| i.original)
    }

    fn active_jobs(&self) -> Vec<(JobId, Window)> {
        let mut out: Vec<(JobId, Window)> =
            self.jobs.iter().map(|(&id, i)| (id, i.original)).collect();
        out.sort_unstable_by_key(|&(id, _)| id);
        out
    }

    fn name(&self) -> &'static str {
        "realloc-multi"
    }
}

impl<B: SingleMachineReallocator + Restorable> Restorable for ReallocatingScheduler<B> {
    const SNAPSHOT_KIND: &'static str = "multi";

    fn write_state(&self, w: &mut SnapshotWriter) {
        // Recorded: machine count, every job's (id, original window,
        // machine), and each machine's full backend state as a child
        // section. Re-derived on restore: effective windows (the
        // alignment reduction is deterministic), window groups, order
        // starts (a pure hash of the window), and per-machine membership.
        w.line(format_args!("m {}", self.machines.len()));
        let mut jobs: Vec<(JobId, JobInfo)> = self.jobs.iter().map(|(&id, &i)| (id, i)).collect();
        jobs.sort_by_key(|&(id, _)| id);
        for (id, info) in jobs {
            w.line(format_args!(
                "j {} {} {} {}",
                id.0,
                info.original.start(),
                info.original.end(),
                info.machine
            ));
        }
        for b in &self.machines {
            w.child(b);
        }
    }

    fn read_state(node: &SnapshotNode) -> Result<Self, ParseError> {
        node.expect_kind(Self::SNAPSHOT_KIND)?;
        let mut machine_count: Option<usize> = None;
        let mut jobs: Vec<(usize, JobId, Window, usize)> = Vec::new();
        for (line, content) in &node.lines {
            let mut f = Fields::of(*line, content);
            match f.token("op")? {
                "m" => {
                    if machine_count.is_some() {
                        return Err(f.err("duplicate 'm' line"));
                    }
                    let m = f.usize("machine count")?;
                    f.finish()?;
                    if m == 0 {
                        return Err(f.err("machine count must be >= 1"));
                    }
                    machine_count = Some(m);
                }
                "j" => {
                    let id = JobId(f.u64("job id")?);
                    let start = f.u64("window start")?;
                    let end = f.u64("window end")?;
                    let machine = f.usize("machine")?;
                    f.finish()?;
                    if end <= start {
                        return Err(f.err(format!("window end {end} must exceed start {start}")));
                    }
                    jobs.push((*line, id, Window::new(start, end), machine));
                }
                other => {
                    return Err(ParseError {
                        line: *line,
                        message: format!("unknown multi snapshot op '{other}'"),
                    })
                }
            }
        }
        let m = machine_count.ok_or(ParseError {
            line: 0,
            message: "multi snapshot has no 'm' machine-count line".to_string(),
        })?;
        let backends: Vec<B> = node
            .children_of(B::SNAPSHOT_KIND)
            .map(B::read_state)
            .collect::<Result<_, _>>()?;
        if backends.len() != m {
            return Err(ParseError {
                line: 0,
                message: format!(
                    "multi snapshot declares {m} machines but embeds {} '{}' sections",
                    backends.len(),
                    B::SNAPSHOT_KIND
                ),
            });
        }
        let mut s = ReallocatingScheduler::with_backends(backends);
        for &(line, id, original, machine) in &jobs {
            let err = |message: String| ParseError { line, message };
            if machine >= m {
                return Err(err(format!("job {id} on machine {machine} of {m}")));
            }
            let effective = Self::effective_window(original);
            let handle = s.machines[machine].handle_of(id);
            if s.machines[machine].slot_of(id, handle).is_none() {
                return Err(err(format!(
                    "job {id} is recorded on machine {machine} but its backend does not hold it"
                )));
            }
            let group = (s.windows.entry(effective))
                .or_insert_with(|| WindowGroup::new(WindowGroup::start_of(m, effective)));
            if !group.add(machine, id, m) {
                return Err(err(format!("duplicate job {id}")));
            }
            s.jobs.insert(id, JobInfo::new(original, machine, handle));
        }
        // Cross-validate: backends hold exactly the recorded jobs, and
        // every group is balanced the way §3 keeps it (per-machine shares
        // within one — Lemma 3 and the delete rule depend on it).
        let backend_active: usize = s.machines.iter().map(|b| b.active_count()).sum();
        if backend_active != s.jobs.len() {
            return Err(ParseError {
                line: 0,
                message: format!(
                    "backends hold {backend_active} jobs but {} are recorded",
                    s.jobs.len()
                ),
            });
        }
        for (win, group) in &s.windows {
            if let Some(heavy) = group.overfull(m) {
                let light = group.lightest(m);
                let held = |k: usize| group.shares(m).nth(k).map_or(0, |(_, held)| held);
                return Err(ParseError {
                    line: 0,
                    message: format!(
                        "window {win}: machine {heavy} holds {} of its jobs and machine \
                         {light} holds {}; §3 balance allows a difference of at most 1",
                        held(heavy),
                        held(light)
                    ),
                });
            }
        }
        Ok(s)
    }
}

/// Moves a backend's slot moves from `slot_moves` to `out`, lifted onto
/// `machine`, leaving the buffer empty for the next call.
fn lift_all(out: &mut RequestOutcome, slot_moves: &mut Vec<SlotMove>, machine: usize) {
    out.moves
        .extend(slot_moves.drain(..).map(|sm| sm.on_machine(machine)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use realloc_core::schedule::validate;
    use realloc_reservation::ReservationScheduler;
    use std::collections::BTreeMap;

    fn validate_now<B: SingleMachineReallocator>(s: &ReallocatingScheduler<B>) {
        let active: BTreeMap<JobId, Window> = s
            .jobs
            .iter()
            .map(|(&id, info)| (id, info.original))
            .collect();
        validate(&s.snapshot(), &active, s.machines()).expect("feasible vs original windows");
    }

    #[test]
    fn window_order_starts_are_pinned() {
        // `start_of` hashes with std's `DefaultHasher`, whose algorithm
        // std leaves unspecified across releases, and every journal
        // replay, recovery and replica re-derives §3 choices from it. A
        // toolchain that moves these fails here instead of making old
        // journals diverge.
        let pinned: [((u64, u64), [usize; 3]); 8] = [
            ((0, 1), [0, 2, 3]),
            ((0, 8), [1, 3, 2]),
            ((8, 16), [0, 0, 2]),
            ((16, 32), [0, 2, 3]),
            ((64, 128), [1, 1, 6]),
            ((1024, 1536), [1, 1, 1]),
            ((4096, 8192), [0, 0, 3]),
            ((1 << 40, (1 << 40) + (1 << 20)), [0, 0, 1]),
        ];
        for ((start, end), starts) in pinned {
            let window = Window::new(start, end);
            let now = [2, 4, 7].map(|m| WindowGroup::start_of(m, window));
            assert_eq!(
                now, starts,
                "order starts of {window:?} on 2, 4, 7 machines"
            );
        }
    }

    #[test]
    fn round_robin_delegation() {
        let mut s = ReallocatingScheduler::from_factory(3, ReservationScheduler::new);
        for i in 0..9u64 {
            s.insert(JobId(i), Window::new(0, 64)).unwrap();
        }
        // 9 jobs over 3 machines: 3 each.
        for m in 0..3 {
            assert_eq!(s.backend(m).active_count(), 3, "machine {m}");
        }
        validate_now(&s);
    }

    #[test]
    fn unaligned_windows_are_aligned_first() {
        let mut s = ReallocatingScheduler::from_factory(2, ReservationScheduler::new);
        let w = Window::new(3, 17); // span 14, unaligned
        s.insert(JobId(1), w).unwrap();
        let eff = ReallocatingScheduler::<ReservationScheduler>::effective_window(w);
        assert!(eff.is_aligned());
        assert!(w.contains(&eff));
        assert!(eff.span() * 4 >= w.span());
        // The job is scheduled within the original window.
        validate_now(&s);
    }

    #[test]
    fn delete_migrates_at_most_one_job() {
        let mut s = ReallocatingScheduler::from_factory(4, ReservationScheduler::new);
        for i in 0..16u64 {
            s.insert(JobId(i), Window::new(0, 128)).unwrap();
        }
        for i in 0..16u64 {
            let out = s.delete(JobId(i)).unwrap();
            assert!(
                out.netted().migration_cost() <= 1,
                "delete of j{i} migrated {} jobs",
                out.netted().migration_cost()
            );
            validate_now(&s);
        }
    }

    #[test]
    fn a_migrating_delete_nets_to_one_reallocation_and_one_migration() {
        let mut s = ReallocatingScheduler::from_factory(2, ReservationScheduler::new);
        let w = Window::new(0, 64);
        for i in 0..4u64 {
            s.insert(JobId(i), w).unwrap();
        }
        // Two jobs per machine; empty one machine and the second delete
        // leaves it two behind, so §3 migrates a job onto it.
        let light = s.jobs[&JobId(0)].machine();
        let on_light: Vec<JobId> = (0..4u64)
            .map(JobId)
            .filter(|id| s.jobs[id].machine() == light)
            .collect();
        assert_eq!(on_light.len(), 2);
        let first = s.delete(on_light[0]).unwrap();
        assert_eq!(first.netted_costs(), (0, 0), "within one: no migration");
        let out = s.delete(on_light[1]).unwrap();
        // Raw, the migration is a delete half and an insert half: neither
        // moves a scheduled job. Netted, it is what it is.
        assert_eq!((out.reallocation_cost(), out.migration_cost()), (0, 0));
        assert_eq!(out.netted_costs(), (1, 1));
        validate_now(&s);
    }

    #[test]
    fn inserts_never_migrate() {
        let mut s = ReallocatingScheduler::from_factory(3, ReservationScheduler::new);
        for i in 0..24u64 {
            let out = s.insert(JobId(i), Window::new(0, 256)).unwrap();
            assert_eq!(out.netted().migration_cost(), 0);
        }
    }

    #[test]
    fn balance_invariant_held_under_churn() {
        let mut s = ReallocatingScheduler::from_factory(3, ReservationScheduler::new);
        let w = Window::new(0, 512);
        for i in 0..12u64 {
            s.insert(JobId(i), w).unwrap();
        }
        s.delete(JobId(0)).unwrap();
        s.delete(JobId(5)).unwrap();
        s.delete(JobId(10)).unwrap();
        // 9 jobs left: 3 per machine (±0 since 9 = 3·3).
        let counts: Vec<usize> = (0..3).map(|m| s.backend(m).active_count()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 9);
        assert!(counts.iter().all(|&c| c == 3), "unbalanced: {counts:?}");
        validate_now(&s);
    }

    #[test]
    fn theorem_one_constructor() {
        let mut s = TheoremOneScheduler::theorem_one(2, 4);
        for i in 0..10u64 {
            s.insert(JobId(i), Window::new(i * 8 + 1, i * 8 + 8))
                .unwrap();
        }
        assert_eq!(s.active_count(), 10);
        validate_now(&s);
    }

    #[test]
    fn rejected_insert_leaves_no_group_behind() {
        let mut s = ReallocatingScheduler::from_factory(2, ReservationScheduler::new);
        // Fill [0, 2) on both machines, then keep knocking on it and on
        // windows nobody holds a job in.
        for i in 0..4u64 {
            s.insert(JobId(i), Window::new(0, 2)).unwrap();
        }
        assert_eq!(s.windows.len(), 1);
        assert!(s.insert(JobId(9), Window::new(0, 2)).is_err());
        for (i, start) in [0u64, 1].into_iter().enumerate() {
            // Span-1 windows inside the full [0, 2): distinct groups.
            let w = Window::new(start, start + 1);
            assert!(s.insert(JobId(10 + i as u64), w).is_err(), "{w} is full");
        }
        assert_eq!(s.windows.len(), 1, "a rejection must not create a group");
        assert_eq!(s.active_count(), 4);
        // The restored scheduler holds the same groups, not fewer.
        let restored =
            ReallocatingScheduler::<ReservationScheduler>::restore(&s.snapshot_text()).unwrap();
        assert_eq!(restored.windows.len(), s.windows.len());
        for i in 0..4u64 {
            s.delete(JobId(i)).unwrap();
        }
        assert!(s.windows.is_empty());
    }

    #[test]
    fn unbalanced_snapshot_is_refused_naming_the_window() {
        let mut s = ReallocatingScheduler::from_factory(2, ReservationScheduler::new);
        let w = Window::new(0, 64);
        s.insert(JobId(0), w).unwrap();
        s.insert(JobId(1), w).unwrap();
        // Forge a 2/0 split: move job 1 next to job 0, backends included,
        // so only the §3 balance check can object.
        let (to, from) = (s.jobs[&JobId(0)].machine(), s.jobs[&JobId(1)].machine());
        assert_ne!(to, from, "two jobs of one window start on two machines");
        s.machines[from].delete(JobId(1)).unwrap();
        s.machines[to].insert(JobId(1), w).unwrap();
        s.jobs.get_mut(&JobId(1)).unwrap().machine = to as u32;
        let e = ReallocatingScheduler::<ReservationScheduler>::restore(&s.snapshot_text())
            .expect_err("a 2/0 split is not §3 balance");
        assert!(
            e.message.contains("window [0, 64)")
                && e.message.contains(&format!("machine {to} holds 2"))
                && e.message.contains(&format!("machine {from} holds 0")),
            "got: {e}"
        );
    }

    #[test]
    fn mixed_windows_spread_by_group() {
        let mut s = ReallocatingScheduler::from_factory(2, ReservationScheduler::new);
        // Two distinct windows delegate independently.
        for i in 0..4u64 {
            s.insert(JobId(i), Window::new(0, 64)).unwrap();
        }
        for i in 4..8u64 {
            s.insert(JobId(i), Window::new(64, 128)).unwrap();
        }
        for m in 0..2 {
            assert_eq!(s.backend(m).active_count(), 4);
        }
        validate_now(&s);
    }
}
