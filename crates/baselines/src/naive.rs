//! The naive pecking-order scheduler of paper §4, Lemma 4.
//!
//! > *"To insert a job `j` with span `2^i`, find any empty slot in `j`'s
//! > window, and place `j` there. Otherwise, select any job `k` currently
//! > scheduled in `j`'s window that has span `≥ 2^{i+1}` […] replace `k`
//! > with `j` and recursively insert `k`."*
//!
//! The cascade reallocates at most one job per distinct span, i.e.
//! `O(min{log n, log Δ})` per insert on recursively aligned instances.
//! Deletions cost nothing. This is the logarithmic baseline the
//! reservation scheduler improves to `O(log* ·)`.

use realloc_core::snapshot::{Fields, Restorable, SnapshotNode, SnapshotWriter};
use realloc_core::textio::ParseError;
use realloc_core::{Error, JobId, SingleMachineReallocator, Slot, SlotMove, Window};
use std::collections::{BTreeMap, HashMap};

/// Single-machine Lemma 4 baseline for aligned windows.
#[derive(Clone, Debug, Default)]
pub struct NaivePeckingScheduler {
    occupied: BTreeMap<Slot, JobId>,
    jobs: HashMap<JobId, (Window, Slot)>,
}

impl NaivePeckingScheduler {
    /// New, empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// First free slot in `w`, plus the best displacement victim (the
    /// occupant with the smallest span strictly larger than `w`'s, earliest
    /// slot breaking ties) — both found in one pass over the occupied slots
    /// of `w`.
    fn scan(&self, w: Window) -> (Option<Slot>, Option<(JobId, Window, Slot)>) {
        let mut expect = w.start();
        let mut free = None;
        let mut victim: Option<(JobId, Window, Slot)> = None;
        for (&s, &id) in self.occupied.range(w.start()..w.end()) {
            if free.is_none() && s > expect {
                free = Some(expect);
            }
            expect = s + 1;
            let (jw, _) = self.jobs[&id];
            if jw.span() > w.span() && victim.is_none_or(|(_, vw, _)| jw.span() < vw.span()) {
                victim = Some((id, jw, s));
            }
        }
        if free.is_none() && expect < w.end() {
            free = Some(expect);
        }
        (free, victim)
    }
}

impl Restorable for NaivePeckingScheduler {
    const SNAPSHOT_KIND: &'static str = "naive";

    fn write_state(&self, w: &mut SnapshotWriter) {
        // The occupied map is the whole state; `jobs` is its inverse
        // plus windows. One `j` line per job, in slot order.
        for (&slot, &id) in &self.occupied {
            let (win, _) = self.jobs[&id];
            w.line(format_args!(
                "j {} {} {} {slot}",
                id.0,
                win.start(),
                win.end()
            ));
        }
    }

    fn read_state(node: &SnapshotNode) -> Result<Self, ParseError> {
        node.expect_kind(Self::SNAPSHOT_KIND)?;
        let mut s = NaivePeckingScheduler::new();
        for (line, content) in &node.lines {
            let mut f = Fields::of(*line, content);
            match f.token("op")? {
                "j" => {
                    let id = JobId(f.u64("job id")?);
                    let start = f.u64("window start")?;
                    let end = f.u64("window end")?;
                    let slot = f.u64("slot")?;
                    f.finish()?;
                    if end <= start {
                        return Err(f.err(format!("window end {end} must exceed start {start}")));
                    }
                    let win = Window::new(start, end);
                    if !win.is_aligned() {
                        return Err(f.err(format!("window {win} is not aligned")));
                    }
                    if !win.contains_slot(slot) {
                        return Err(f.err(format!("job {id} at slot {slot} outside {win}")));
                    }
                    if s.jobs.insert(id, (win, slot)).is_some() {
                        return Err(f.err(format!("duplicate job {id}")));
                    }
                    if let Some(prev) = s.occupied.insert(slot, id) {
                        return Err(f.err(format!("slot {slot} held by both {prev} and {id}")));
                    }
                }
                other => {
                    return Err(ParseError {
                        line: *line,
                        message: format!("unknown naive snapshot op '{other}'"),
                    })
                }
            }
        }
        Ok(s)
    }
}

impl SingleMachineReallocator for NaivePeckingScheduler {
    fn insert_into(
        &mut self,
        id: JobId,
        window: Window,
        moves: &mut Vec<SlotMove>,
    ) -> Result<Option<u32>, Error> {
        if self.jobs.contains_key(&id) {
            return Err(Error::DuplicateJob(id));
        }
        if !window.is_aligned() {
            return Err(Error::UnalignedWindow(window));
        }
        let start = moves.len();
        let mut cur_id = id;
        let mut cur_window = window;
        let mut from: Option<Slot> = None;
        loop {
            let (free, victim) = self.scan(cur_window);
            if let Some(slot) = free {
                self.occupied.insert(slot, cur_id);
                self.jobs.insert(cur_id, (cur_window, slot));
                moves.push(SlotMove {
                    job: cur_id,
                    from,
                    to: Some(slot),
                });
                return Ok(None);
            }
            let Some((vid, vwindow, vslot)) = victim else {
                // Undo the partial cascade. The chain structure makes this
                // simple: every slot a mover took is the *next* victim's
                // original slot, so restoring each mover to its `from`
                // (reverse order) and finally the in-flight job to the slot
                // it was displaced from rewrites every touched slot exactly
                // once — no removals needed.
                for mv in moves[start..].iter().rev() {
                    match mv.from {
                        Some(f) => {
                            self.occupied.insert(f, mv.job);
                            self.jobs.get_mut(&mv.job).expect("cascade job").1 = f;
                        }
                        None => {
                            self.jobs.remove(&mv.job);
                        }
                    }
                }
                if let Some(f) = from {
                    // The displaced job whose reinsertion failed: its jobs
                    // entry still names `f`; only the occupancy needs
                    // restoring.
                    debug_assert_eq!(self.jobs.get(&cur_id).map(|&(_, s)| s), Some(f));
                    self.occupied.insert(f, cur_id);
                }
                return Err(Error::CapacityExhausted {
                    job: cur_id,
                    detail: format!(
                        "naive cascade: window {cur_window} full with no longer-span occupant"
                    ),
                });
            };
            // Replace the victim and cascade it upward.
            self.occupied.insert(vslot, cur_id);
            self.jobs.insert(cur_id, (cur_window, vslot));
            moves.push(SlotMove {
                job: cur_id,
                from,
                to: Some(vslot),
            });
            cur_id = vid;
            cur_window = vwindow;
            from = Some(vslot);
        }
    }

    fn delete_into(
        &mut self,
        id: JobId,
        _handle: Option<u32>,
        moves: &mut Vec<SlotMove>,
    ) -> Result<(), Error> {
        let (_, slot) = self.jobs.remove(&id).ok_or(Error::UnknownJob(id))?;
        self.occupied.remove(&slot);
        moves.push(SlotMove {
            job: id,
            from: Some(slot),
            to: None,
        });
        Ok(())
    }

    fn slot_of(&self, id: JobId, _handle: Option<u32>) -> Option<Slot> {
        self.jobs.get(&id).map(|&(_, s)| s)
    }

    fn assignments(&self) -> Vec<(JobId, Slot)> {
        self.jobs.iter().map(|(&id, &(_, s))| (id, s)).collect()
    }

    fn active_count(&self) -> usize {
        self.jobs.len()
    }

    fn name(&self) -> &'static str {
        "naive-pecking"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_window_exactly() {
        let mut s = NaivePeckingScheduler::new();
        for i in 0..8u64 {
            s.insert(JobId(i), Window::new(0, 8)).unwrap();
        }
        assert!(matches!(
            s.insert(JobId(9), Window::new(0, 8)),
            Err(Error::CapacityExhausted { .. })
        ));
        assert_eq!(s.active_count(), 8);
    }

    #[test]
    fn cascade_displaces_longer_jobs() {
        let mut s = NaivePeckingScheduler::new();
        // Two span-4 jobs land in [0,4); two span-2 jobs then claim [0,2),
        // cascading the span-4 jobs into [2,4).
        s.insert(JobId(1), Window::new(0, 4)).unwrap();
        s.insert(JobId(2), Window::new(0, 4)).unwrap();
        let m3 = s.insert(JobId(3), Window::new(0, 2)).unwrap();
        let m4 = s.insert(JobId(4), Window::new(0, 2)).unwrap();
        // Each short insert displaces exactly one long job: two moves per
        // insert (the new placement plus one reallocation).
        assert_eq!(m3.len(), 2);
        assert_eq!(m4.len(), 2);
        assert_eq!(m3.iter().filter(|m| m.is_reallocation()).count(), 1);
        assert_eq!(m4.iter().filter(|m| m.is_reallocation()).count(), 1);
        let mut slots: Vec<_> = s.assignments().into_iter().map(|(_, sl)| sl).collect();
        slots.sort_unstable();
        assert_eq!(slots, vec![0, 1, 2, 3]);
        assert!(s.slot_of(JobId(3), None).unwrap() < 2);
        assert!(s.slot_of(JobId(4), None).unwrap() < 2);
    }

    #[test]
    fn cascade_length_bounded_by_distinct_spans() {
        let mut s = NaivePeckingScheduler::new();
        // Build a tower: spans 16, 8, 4, 2 nested at the left edge.
        s.insert(JobId(1), Window::new(0, 16)).unwrap();
        s.insert(JobId(2), Window::new(0, 8)).unwrap();
        s.insert(JobId(3), Window::new(0, 4)).unwrap();
        s.insert(JobId(4), Window::new(0, 2)).unwrap();
        // A span-1 job aimed at the occupied left edge cascades through at
        // most one job per distinct span.
        let m = s.insert(JobId(6), Window::new(0, 1)).unwrap();
        assert!(
            m.len() <= 5,
            "cascade of {} exceeds distinct spans",
            m.len()
        );
        assert!(
            m.len() >= 2,
            "the left edge is occupied; a cascade is forced"
        );
    }

    #[test]
    fn failed_insert_rolls_back() {
        let mut s = NaivePeckingScheduler::new();
        for i in 0..4u64 {
            s.insert(JobId(i), Window::new(0, 4)).unwrap();
        }
        let before = s.assignments();
        assert!(s.insert(JobId(9), Window::new(0, 2)).is_err());
        let mut after = s.assignments();
        let mut before = before;
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after, "failed insert must not change the schedule");
        assert_eq!(s.active_count(), 4);
    }

    #[test]
    fn delete_is_free() {
        let mut s = NaivePeckingScheduler::new();
        s.insert(JobId(1), Window::new(0, 4)).unwrap();
        s.insert(JobId(2), Window::new(0, 4)).unwrap();
        let m = s.delete(JobId(1)).unwrap();
        assert_eq!(m.len(), 1);
        assert!(m[0].to.is_none());
    }
}
