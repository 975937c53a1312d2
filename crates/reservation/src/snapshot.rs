//! Full-state snapshot/restore ([`Restorable`]) for the reservation
//! scheduler family.
//!
//! What must be recorded vs. what can be re-derived follows the state
//! split of [`crate::state`]:
//!
//! * **recorded** — the tower ladder, per-level high-water marks, every
//!   job's `(id, window, slot)`, and the slots backing each window's
//!   fulfilled reservations (history-dependent: *which* slot backs a
//!   reservation is not a pure function of the active set, only *how
//!   many* are fulfilled is — Observation 7);
//! * **re-derived on restore** — `slot_jobs`, per-window `x` counts and
//!   open-interval lists, and the per-interval `lower` / `phys` / `held`
//!   bits, all rebuilt from the recorded facts and cross-validated so a
//!   restored scheduler passes
//!   [`ReservationScheduler::check_invariants`].
//!
//! The text format predates the dense interval records and is unchanged
//! by them: a `w` line still lists one window's fulfilled slots, now
//! gathered from the `assigned` bits of the intervals it spans.
//!
//! [`TrimmedScheduler`] adds its trim bookkeeping (γ, `n*`, the rebuild
//! counter, and the pre-trim original windows); [`DeamortizedScheduler`]
//! records both generations, the active parity, and the in-flight drain
//! queue *in order* (the order decides which jobs migrate on each
//! subsequent request, so it is part of the observable state).

use crate::deamortized::DeamortizedScheduler;
use crate::jobs::JobRec;
use crate::scheduler::{ReservationScheduler, MAX_TIME};
use crate::state::Field;
use crate::trim::{checked_trim_span, settled_n_star, TrimmedScheduler, MIN_N_STAR};
use fxhash::FxHashMap;
use realloc_core::snapshot::{Fields, Restorable, SnapshotNode, SnapshotWriter};
use realloc_core::textio::ParseError;
use realloc_core::{JobId, Slot, Tower, Window};
use std::collections::{HashSet, VecDeque};
use std::fmt::Write as _;

/// The shared trim bound ([`checked_trim_span`]) with overflow reported
/// as a parse error instead of a panic (γ and `n*` come from untrusted
/// snapshot text).
fn trim_span_of(gamma: u64, n_star: u64) -> Result<u64, ParseError> {
    checked_trim_span(gamma, n_star).ok_or(ParseError {
        line: 0,
        message: format!("trim bound 2·{gamma}·{n_star} overflows the time axis"),
    })
}

/// Checks a snapshot's `n*` against its active count under the shared
/// resize rule: the rule settles between requests, so a recorded `n*`
/// it would still move is forged.
fn settled(n_star: u64, n: u64) -> Result<(), ParseError> {
    if settled_n_star(n_star, n) != n_star {
        return Err(ParseError {
            line: 0,
            message: format!("n_star {n_star} inconsistent with {n} active jobs"),
        });
    }
    Ok(())
}

/// Validates an aligned window from `[start, end)` fields.
fn aligned_window(f: &Fields<'_>, start: u64, end: u64) -> Result<Window, ParseError> {
    if end <= start {
        return Err(f.err(format!("window end {end} must exceed start {start}")));
    }
    if end > MAX_TIME {
        return Err(f.err(format!("window end {end} exceeds MAX_TIME 2^63")));
    }
    let w = Window::new(start, end);
    if !w.is_aligned() {
        return Err(f.err(format!("window {w} is not aligned")));
    }
    Ok(w)
}

impl Restorable for ReservationScheduler {
    const SNAPSHOT_KIND: &'static str = "reservation";

    fn write_state(&self, w: &mut SnapshotWriter) {
        // Tower ladder.
        let mut t = String::from("t");
        for &th in self.tower.thresholds() {
            t.push(' ');
            t.push_str(&th.to_string());
        }
        w.line(format_args!("{t}"));
        // High-water marks (levels ≥ 1 only ever set them).
        for (level, lvl) in self.levels.iter().enumerate() {
            if lvl.high_water() > 0 {
                w.line(format_args!("h {level} {}", lvl.high_water()));
            }
        }
        // Jobs, sorted by id for deterministic output.
        let mut jobs: Vec<(JobId, JobRec)> = self.jobs.iter().map(|(_, id, r)| (id, r)).collect();
        jobs.sort_by_key(|&(id, _)| id);
        for (id, rec) in jobs {
            w.line(format_args!(
                "j {} {} {} {}",
                id.0,
                rec.window.start(),
                rec.window.end(),
                rec.slot
            ));
        }
        // Fulfilled-reservation slots per window (occupants re-derived
        // from the job lines). Window states whose slot set is empty are
        // behaviorally identical to absent entries and are skipped.
        for (level, lvl) in self.levels.iter().enumerate().skip(1) {
            let records: Vec<_> = lvl.records().collect();
            // Chain position by chain position over the intervals left to
            // right: a window's intervals are adjacent and its slots come
            // out ascending.
            let mut lines: Vec<(Window, String)> = Vec::new();
            for (k, span) in lvl.chain_spans().enumerate() {
                for (istart, rec) in &records {
                    let istart = *istart;
                    let mut bits = rec.bits(Field::Assigned(k)).peekable();
                    if bits.peek().is_none() {
                        continue;
                    }
                    let win = Window::aligned_enclosing(istart, span);
                    if lines.last().is_none_or(|&(last, _)| last != win) {
                        lines.push((win, format!("w {level} {} {}", win.start(), win.end())));
                    }
                    let (_, line) = lines.last_mut().expect("pushed above");
                    for bit in bits {
                        write!(line, " {}", istart + bit as Slot).expect("writing to a String");
                    }
                }
            }
            // One ascending run per chain position: the stable sort merges.
            lines.sort_by_key(|&(win, _)| win);
            for (_, line) in lines {
                w.line(format_args!("{line}"));
            }
        }
    }

    fn read_state(node: &SnapshotNode) -> Result<Self, ParseError> {
        node.expect_kind(Self::SNAPSHOT_KIND)?;
        let mut tower: Option<Tower> = None;
        let mut highs: Vec<(usize, usize, u64)> = Vec::new();
        let mut jobs: Vec<(usize, JobId, Window, Slot)> = Vec::new();
        let mut windows: Vec<(usize, usize, Window, Vec<Slot>)> = Vec::new();

        for (line, content) in &node.lines {
            let mut f = Fields::of(*line, content);
            match f.token("op")? {
                "t" => {
                    if tower.is_some() {
                        return Err(f.err("duplicate 't' tower line"));
                    }
                    // `try_custom` bounds the thresholds: interval records
                    // are dense in them, so a forged one would otherwise
                    // size an allocation.
                    let ladder = Tower::try_custom(f.rest_u64("threshold")?);
                    tower = Some(ladder.map_err(|message| ParseError {
                        line: *line,
                        message,
                    })?);
                }
                "h" => {
                    let level = f.usize("level")?;
                    let hw = f.u64("high-water")?;
                    f.finish()?;
                    highs.push((*line, level, hw));
                }
                "j" => {
                    let id = JobId(f.u64("job id")?);
                    let start = f.u64("window start")?;
                    let end = f.u64("window end")?;
                    let slot = f.u64("slot")?;
                    let w = aligned_window(&f, start, end)?;
                    if !w.contains_slot(slot) {
                        return Err(f.err(format!("job {id} at slot {slot} outside window {w}")));
                    }
                    f.finish()?;
                    jobs.push((*line, id, w, slot));
                }
                "w" => {
                    let level = f.usize("level")?;
                    let start = f.u64("window start")?;
                    let end = f.u64("window end")?;
                    let w = aligned_window(&f, start, end)?;
                    let slots = f.rest_u64("assigned slot")?;
                    windows.push((*line, level, w, slots));
                }
                other => {
                    return Err(ParseError {
                        line: *line,
                        message: format!("unknown reservation snapshot op '{other}'"),
                    })
                }
            }
        }

        let tower = tower.ok_or(ParseError {
            line: 0,
            message: "reservation snapshot has no 't' tower line".to_string(),
        })?;
        let mut s = ReservationScheduler::with_tower(tower);
        let err_at = |line: usize, message: String| ParseError { line, message };

        for (line, level, hw) in highs {
            if level == 0 || level >= s.levels.len() {
                return Err(err_at(line, format!("high-water at invalid level {level}")));
            }
            if s.levels[level].high_water() != 0 {
                return Err(err_at(
                    line,
                    format!("duplicate high-water for level {level}"),
                ));
            }
            s.levels[level].raise_high_water(hw);
        }

        // Jobs and physical occupancy.
        for &(line, id, w, slot) in &jobs {
            let level = s.tower.level_of(w.span());
            if s.jobs.duplicate(id) {
                return Err(err_at(line, format!("duplicate job {id}")));
            }
            let handle = s.jobs.next_handle();
            if let Some(prev) = s.slot_jobs.set(slot, handle) {
                return Err(err_at(
                    line,
                    format!("slot {slot} held by both {} and {id}", s.jobs.id(prev)),
                ));
            }
            s.jobs.put(
                handle,
                id,
                JobRec {
                    window: w,
                    level,
                    slot,
                },
            );
        }

        // Fulfilled-reservation slots; occupants are wired afterwards.
        let mut stated: HashSet<Window> = HashSet::new();
        for (line, level, win, slots) in windows {
            if level == 0 || level >= s.levels.len() {
                return Err(err_at(
                    line,
                    format!("window state at invalid level {level}"),
                ));
            }
            if s.tower.level_of(win.span()) != level {
                return Err(err_at(
                    line,
                    format!(
                        "window {win} recorded at level {level} but belongs to level {}",
                        s.tower.level_of(win.span())
                    ),
                ));
            }
            if win.span() > s.levels[level].high_water() {
                return Err(err_at(
                    line,
                    format!(
                        "window {win} exceeds level-{level} high-water {}",
                        s.levels[level].high_water()
                    ),
                ));
            }
            if !stated.insert(win) {
                return Err(err_at(line, format!("duplicate window state for {win}")));
            }
            for slot in slots {
                if !win.contains_slot(slot) {
                    return Err(err_at(
                        line,
                        format!("assigned slot {slot} outside window {win}"),
                    ));
                }
                if let Some(h) = s.slot_jobs.get(slot) {
                    let (occ, rec) = (s.jobs.id(h), s.jobs.rec(h));
                    if rec.level < level {
                        return Err(err_at(
                            line,
                            format!("assigned slot {slot} of {win} is lower-occupied by {occ}"),
                        ));
                    }
                    if rec.level == level && rec.window != win {
                        return Err(err_at(
                            line,
                            format!(
                                "assigned slot {slot} of {win} holds same-level job {occ} \
                                 of window {}",
                                rec.window
                            ),
                        ));
                    }
                }
                // Distinct windows of one level must not share a slot, and
                // one window lists a slot once.
                if s.levels[level].holder(slot).is_some() {
                    return Err(err_at(
                        line,
                        format!("level {level}: slot {slot} of {win} is assigned twice"),
                    ));
                }
                s.levels[level].assign(win, slot);
            }
        }

        // Wire occupants and per-window job counts.
        for &(line, id, w, slot) in &jobs {
            let level = s.tower.level_of(w.span());
            if level == 0 {
                continue;
            }
            if !stated.contains(&w) {
                return Err(err_at(line, format!("job {id} of {w} has no window state")));
            }
            let lvl = &mut s.levels[level];
            lvl.add_x(w, 1);
            // Slot uniqueness was checked, so the reservation is empty.
            if lvl.holder(slot) != Some(lvl.chain_pos(w.span())) {
                return Err(err_at(
                    line,
                    format!("job {id} at slot {slot} is not backed by a reservation of {w}"),
                ));
            }
            lvl.occupy(w, slot);
        }

        // Re-derive the occupancy bits from physical placement.
        let placed: Vec<(Slot, usize)> = s.jobs.iter().map(|(_, _, r)| (r.slot, r.level)).collect();
        for (slot, job_level) in placed {
            for (level, lvl) in s.levels.iter_mut().enumerate().skip(1) {
                lvl.set_occupancy(Field::Phys, slot);
                if job_level < level {
                    lvl.set_occupancy(Field::Lower, slot);
                }
            }
        }
        Ok(s)
    }
}

impl Restorable for TrimmedScheduler {
    const SNAPSHOT_KIND: &'static str = "trimmed";

    fn write_state(&self, w: &mut SnapshotWriter) {
        w.line(format_args!(
            "g {} {} {}",
            self.gamma, self.n_star, self.rebuilds
        ));
        // Every job's pre-trim window, derived: the recorded original
        // where trimming cut the window, the inner window where it did not.
        let mut originals: Vec<(JobId, Window)> = self
            .inner
            .jobs
            .iter()
            .map(|(_, id, rec)| (id, self.original_of(id, rec.window)))
            .collect();
        originals.sort_by_key(|&(id, _)| id);
        for (id, win) in originals {
            w.line(format_args!("o {} {} {}", id.0, win.start(), win.end()));
        }
        w.child(&self.inner);
    }

    fn read_state(node: &SnapshotNode) -> Result<Self, ParseError> {
        node.expect_kind(Self::SNAPSHOT_KIND)?;
        let mut header: Option<(u64, u64, u64)> = None;
        let mut originals: Vec<(usize, JobId, Window)> = Vec::new();
        for (line, content) in &node.lines {
            let mut f = Fields::of(*line, content);
            match f.token("op")? {
                "g" => {
                    if header.is_some() {
                        return Err(f.err("duplicate 'g' header"));
                    }
                    let gamma = f.u64("gamma")?;
                    let n_star = f.u64("n_star")?;
                    let rebuilds = f.u64("rebuilds")?;
                    f.finish()?;
                    if gamma == 0 {
                        return Err(f.err("gamma must be >= 1"));
                    }
                    if !n_star.is_power_of_two() || n_star < MIN_N_STAR {
                        return Err(f.err(format!(
                            "n_star {n_star} must be a power of two >= {}",
                            MIN_N_STAR
                        )));
                    }
                    header = Some((gamma, n_star, rebuilds));
                }
                "o" => {
                    let id = JobId(f.u64("job id")?);
                    let start = f.u64("window start")?;
                    let end = f.u64("window end")?;
                    let w = aligned_window(&f, start, end)?;
                    f.finish()?;
                    originals.push((*line, id, w));
                }
                other => {
                    return Err(ParseError {
                        line: *line,
                        message: format!("unknown trimmed snapshot op '{other}'"),
                    })
                }
            }
        }
        let (gamma, n_star, rebuilds) = header.ok_or(ParseError {
            line: 0,
            message: "trimmed snapshot has no 'g' header".to_string(),
        })?;
        let inner = ReservationScheduler::read_state(node.only_child("reservation")?)?;

        // Cross-validate: the inner scheduler must hold exactly the
        // originals, each trimmed to the recorded n* bound, and n* must
        // be consistent with the active count (the resize loop keeps
        // `n <= n*` and `n >= n*/4` between requests).
        settled(n_star, originals.len() as u64)?;
        if inner.jobs.len() != originals.len() {
            return Err(ParseError {
                line: 0,
                message: format!(
                    "inner scheduler holds {} jobs but {} originals are recorded",
                    inner.jobs.len(),
                    originals.len()
                ),
            });
        }
        let trim_span = trim_span_of(gamma, n_star)?;
        // Only the windows the bound cut are kept; the rest are checked
        // against the inner scheduler's and dropped.
        let mut cut: FxHashMap<JobId, Window> = FxHashMap::default();
        originals.sort_unstable_by_key(|&(line, id, _)| (id, line));
        for (i, &(line, id, win)) in originals.iter().enumerate() {
            if i > 0 && originals[i - 1].1 == id {
                return Err(ParseError {
                    line,
                    message: format!("duplicate original window for {id}"),
                });
            }
            let expect = win.trim_to(trim_span);
            match inner.jobs.find(id).map(|h| inner.jobs.rec(h)) {
                Some(rec) if rec.window == expect => {}
                other => {
                    return Err(ParseError {
                        line: 0,
                        message: format!(
                            "job {id}: inner window {:?} does not match trimmed original {expect}",
                            other.map(|r| r.window)
                        ),
                    })
                }
            }
            if expect != win {
                cut.insert(id, win);
            }
        }
        Ok(TrimmedScheduler {
            inner,
            gamma,
            n_star,
            originals: cut,
            rebuilds,
        })
    }
}

impl Restorable for DeamortizedScheduler {
    const SNAPSHOT_KIND: &'static str = "deamortized";

    fn write_state(&self, w: &mut SnapshotWriter) {
        w.line(format_args!(
            "g {} {} {} {}",
            self.gamma, self.n_star, self.active, self.flips
        ));
        let mut jobs: Vec<(JobId, Window, usize)> = self
            .jobs
            .iter()
            .map(|(&id, &(win, gen))| (id, win, gen))
            .collect();
        jobs.sort_by_key(|&(id, _, _)| id);
        for (id, win, gen) in jobs {
            w.line(format_args!(
                "j {} {} {} {gen}",
                id.0,
                win.start(),
                win.end()
            ));
        }
        // Drain queue in order — the order is observable (it decides
        // which two jobs migrate on each request).
        for &id in &self.draining {
            w.line(format_args!("d {}", id.0));
        }
        w.child(&self.gens[0]);
        w.child(&self.gens[1]);
    }

    fn read_state(node: &SnapshotNode) -> Result<Self, ParseError> {
        node.expect_kind(Self::SNAPSHOT_KIND)?;
        let mut header: Option<(u64, u64, usize, u64)> = None;
        let mut jobs: std::collections::HashMap<JobId, (Window, usize)> =
            std::collections::HashMap::new();
        let mut draining: VecDeque<JobId> = VecDeque::new();
        // Membership mirror of `draining` so duplicate and per-job
        // queue checks stay O(1) (the queue can hold the whole active
        // set right after a flip).
        let mut drain_set: std::collections::HashSet<JobId> = std::collections::HashSet::new();
        for (line, content) in &node.lines {
            let mut f = Fields::of(*line, content);
            match f.token("op")? {
                "g" => {
                    if header.is_some() {
                        return Err(f.err("duplicate 'g' header"));
                    }
                    let gamma = f.u64("gamma")?;
                    let n_star = f.u64("n_star")?;
                    let active = f.usize("active generation")?;
                    let flips = f.u64("flips")?;
                    f.finish()?;
                    if gamma == 0 {
                        return Err(f.err("gamma must be >= 1"));
                    }
                    if !n_star.is_power_of_two() || n_star < MIN_N_STAR {
                        return Err(f.err(format!(
                            "n_star {n_star} must be a power of two >= {}",
                            MIN_N_STAR
                        )));
                    }
                    if active > 1 {
                        return Err(f.err(format!("active generation {active} must be 0 or 1")));
                    }
                    header = Some((gamma, n_star, active, flips));
                }
                "j" => {
                    let id = JobId(f.u64("job id")?);
                    let start = f.u64("window start")?;
                    let end = f.u64("window end")?;
                    let gen = f.usize("generation")?;
                    let w = aligned_window(&f, start, end)?;
                    f.finish()?;
                    if w.span() < 2 {
                        return Err(f.err(format!("window {w}: deamortized spans must be >= 2")));
                    }
                    if gen > 1 {
                        return Err(f.err(format!("generation {gen} must be 0 or 1")));
                    }
                    if jobs.insert(id, (w, gen)).is_some() {
                        return Err(f.err(format!("duplicate job {id}")));
                    }
                }
                "d" => {
                    let id = JobId(f.u64("job id")?);
                    f.finish()?;
                    if !drain_set.insert(id) {
                        return Err(f.err(format!("job {id} queued to drain twice")));
                    }
                    draining.push_back(id);
                }
                other => {
                    return Err(ParseError {
                        line: *line,
                        message: format!("unknown deamortized snapshot op '{other}'"),
                    })
                }
            }
        }
        let (gamma, n_star, active, flips) = header.ok_or(ParseError {
            line: 0,
            message: "deamortized snapshot has no 'g' header".to_string(),
        })?;
        let mut gens_iter = node.children_of("reservation");
        let gen0 = gens_iter.next().ok_or(ParseError {
            line: 0,
            message: "deamortized snapshot needs two 'reservation' generations".to_string(),
        })?;
        let gen1 = gens_iter.next().ok_or(ParseError {
            line: 0,
            message: "deamortized snapshot needs two 'reservation' generations".to_string(),
        })?;
        if gens_iter.next().is_some() {
            return Err(ParseError {
                line: 0,
                message: "deamortized snapshot has more than two generations".to_string(),
            });
        }
        let gens = [
            ReservationScheduler::read_state(gen0)?,
            ReservationScheduler::read_state(gen1)?,
        ];

        // Cross-validate placement, drain membership, and n* bounds.
        settled(n_star, jobs.len() as u64)?;
        if gens[0].jobs.len() + gens[1].jobs.len() != jobs.len() {
            return Err(ParseError {
                line: 0,
                message: "generation job counts do not cover the active set".to_string(),
            });
        }
        let trim_span = trim_span_of(gamma, n_star)?;
        for (&id, &(win, gen)) in &jobs {
            let t = win.trim_to(trim_span);
            let half = Window::with_span(t.start() / 2, t.span() / 2);
            match gens[gen].jobs.find(id).map(|h| gens[gen].jobs.rec(h)) {
                Some(rec) if rec.window == half => {}
                other => {
                    return Err(ParseError {
                        line: 0,
                        message: format!(
                            "job {id}: generation {gen} window {:?} != expected half-axis {half}",
                            other.map(|r| r.window)
                        ),
                    })
                }
            }
            let queued = drain_set.contains(&id);
            if (gen != active) != queued {
                return Err(ParseError {
                    line: 0,
                    message: format!(
                        "job {id} (gen {gen}, active {active}) drain-queue membership is wrong"
                    ),
                });
            }
        }
        if draining.iter().any(|id| !jobs.contains_key(id)) {
            return Err(ParseError {
                line: 0,
                message: "drain queue names an unknown job".to_string(),
            });
        }
        Ok(DeamortizedScheduler {
            gens,
            gamma,
            n_star,
            active,
            draining,
            jobs,
            flips,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realloc_core::SingleMachineReallocator;

    fn churn(s: &mut impl SingleMachineReallocator, seed: u64, n: u64) {
        // Deterministic mixed-span churn touching several levels.
        for i in 0..n {
            let k = seed.wrapping_add(i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let span = [4u64, 8, 64, 512, 4096][(k % 5) as usize];
            let start = (k >> 8) % 16 * span;
            let _ = s.insert(JobId(i), Window::with_span(start, span));
            if i % 3 == 2 {
                let _ = s.delete(JobId(i - 2));
            }
        }
    }

    fn behaviorally_equal<T: SingleMachineReallocator>(a: &mut T, b: &mut T) {
        let mut ia = a.assignments();
        let mut ib = b.assignments();
        ia.sort_unstable();
        ib.sort_unstable();
        assert_eq!(ia, ib, "restored placements differ");
        // A churn suffix must produce identical moves and errors.
        for i in 1000..1060u64 {
            let w = Window::with_span((i % 8) * 64, 64);
            assert_eq!(a.insert(JobId(i), w), b.insert(JobId(i), w), "insert {i}");
        }
        for i in 1000..1040u64 {
            assert_eq!(a.delete(JobId(i)), b.delete(JobId(i)), "delete {i}");
        }
    }

    #[test]
    fn reservation_round_trip_passes_invariants() {
        let mut s = ReservationScheduler::new();
        churn(&mut s, 7, 120);
        s.check_invariants().unwrap();
        let text = s.snapshot_text();
        let mut r = ReservationScheduler::restore(&text).unwrap();
        r.check_invariants().expect("restored invariants");
        behaviorally_equal(&mut s, &mut r);
        s.check_invariants().unwrap();
        r.check_invariants().unwrap();
    }

    #[test]
    fn trimmed_round_trip() {
        let mut s = TrimmedScheduler::new(4);
        churn(&mut s, 21, 150);
        let text = s.snapshot_text();
        let mut r = TrimmedScheduler::restore(&text).unwrap();
        assert_eq!(r.n_star(), s.n_star());
        assert_eq!(r.rebuilds(), s.rebuilds());
        assert_eq!(r.gamma(), s.gamma());
        r.inner().check_invariants().unwrap();
        behaviorally_equal(&mut s, &mut r);
    }

    #[test]
    fn deamortized_round_trip_preserves_drain_queue() {
        let mut s = DeamortizedScheduler::new(2);
        churn(&mut s, 3, 90);
        let text = s.snapshot_text();
        let mut r = DeamortizedScheduler::restore(&text).unwrap();
        assert_eq!(r.flips(), s.flips());
        assert_eq!(r.draining, s.draining, "drain order is observable state");
        r.generations().0.check_invariants().unwrap();
        r.generations().1.check_invariants().unwrap();
        behaviorally_equal(&mut s, &mut r);
    }

    #[test]
    fn malformed_snapshots_fail_gracefully() {
        let mut s = ReservationScheduler::new();
        s.insert(JobId(1), Window::new(0, 64)).unwrap();
        let text = s.snapshot_text();

        // Truncation at every prefix parses or errors — never panics.
        for cut in 0..text.len() {
            let _ = ReservationScheduler::restore(&text[..cut]);
        }
        // A job on a slot outside its window.
        let bad = text.replace("j 1 0 64", "j 1 128 192");
        assert!(ReservationScheduler::restore(&bad).is_err());
        // Duplicate job line.
        let dup = format!("{}j 1 0 64 63\n", text.trim_end_matches("!end\n"));
        assert!(ReservationScheduler::restore(&format!("{dup}!end\n")).is_err());
        // Garbage op.
        let garbage = text.replace("t 32 256", "quantum 9");
        assert!(ReservationScheduler::restore(&garbage).is_err());
        // A forged tower: interval records are dense in the threshold, so
        // an oversized one must be refused before anything is sized by it.
        let forged = text.replace("t 32 256", "t 4611686018427387904");
        assert_ne!(forged, text);
        let err = ReservationScheduler::restore(&forged).unwrap_err();
        assert!(err.message.contains("exceeds MAX_THRESHOLD"), "{err}");
        let at_bound = text.replace("t 32 256", &format!("t 32 {}", realloc_core::MAX_THRESHOLD));
        assert!(ReservationScheduler::restore(&at_bound).is_ok());
    }

    #[test]
    fn forged_trim_headers_error_instead_of_overflowing() {
        // Untrusted γ/n* values whose trim bound overflows u64 must be
        // parse errors, not panics (debug) or silent wraps (release).
        let t = TrimmedScheduler::new(4).snapshot_text();
        let forged = t.replace("g 4 8 0", "g 9223372036854775807 8 0");
        assert_ne!(forged, t);
        assert!(TrimmedScheduler::restore(&forged).is_err());

        let d = DeamortizedScheduler::new(2).snapshot_text();
        let forged = d.replace("g 2 8 0 0", "g 2 9223372036854775808 0 0");
        assert_ne!(forged, d);
        assert!(DeamortizedScheduler::restore(&forged).is_err());

        // A 2^63 tower threshold must not overflow the doubling check.
        let r = ReservationScheduler::new().snapshot_text();
        let forged = r.replace("t 32 256", "t 9223372036854775808 9223372036854775808");
        assert!(ReservationScheduler::restore(&forged).is_err());
    }
}
