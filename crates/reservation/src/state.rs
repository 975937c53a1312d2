//! Mutable state of the reservation scheduler.
//!
//! The split follows Observation 7: *which* reservations are fulfilled is a
//! pure function (see [`crate::quota`]), so the state only remembers
//!
//! * which concrete slot backs each fulfilled reservation,
//! * which slots are occupied by lower-level jobs (the complement of the
//!   paper's `allowance(I)`), and
//! * where each job physically sits.
//!
//! # Layout
//!
//! Everything REBALANCE reads about a level-ℓ interval lives in one dense
//! [`IntervalState`] record, found with one probe of
//! [`Level::intervals`]. A record is a run of equally wide bit *fields*,
//! one bit per slot of the interval (`L_ℓ` bits: half a word for
//! `L₁ = 32`, four words for `L₂ = 256`, `L_ℓ / 64` words for custom
//! towers):
//!
//! | field | bit `i` set ⇔ slot `istart + i` … |
//! |---|---|
//! | `lower` | holds a job of a level below ℓ (outside the allowance) |
//! | `phys` | holds any job (`lower ⊆ phys`) |
//! | `assigned[k]` | backs a fulfilled reservation of the chain window at position `k` |
//! | `held[k]` | … and that window's own job sits on it (`held[k] ⊆ assigned[k] ∩ phys`) |
//!
//! Chain position `k` names the enclosing window of span `2^(k+1)·L_ℓ`;
//! aligned windows are laminar, so the windows that can reserve in one
//! interval are exactly that chain, and their `assigned` fields are
//! pairwise disjoint. The `assigned`/`held` pairs are allocated up to the
//! highest position ever written; a field past the end reads as zero. An
//! absent record means "all fields zero" (full allowance, nothing
//! occupied, nothing claimed), and a record whose words are all zero is
//! pruned.
//!
//! [`WindowState`] keeps what is not per-interval: the job count `x` and
//! the ordered list of the window's *open* intervals — those where it
//! holds an empty fulfilled slot (`assigned[k] & !held[k] ≠ 0`) — so PLACE
//! and MOVE visit only intervals that can answer them.
//!
//! Every choice the algorithm makes among slots is "leftmost first", which
//! in this layout is "lowest set bit of the lowest non-zero word first":
//! one `trailing_zeros` where the tree-based layout walked a range.

use fxhash::FxHashMap;
use realloc_core::{Slot, Window};

/// Bookkeeping for one active job.
#[derive(Clone, Copy, Debug)]
pub struct JobRec {
    /// The (aligned, possibly trimmed) window the scheduler works with.
    pub window: Window,
    /// Cached level of `window.span()` in the tower.
    pub level: usize,
    /// Current physical slot.
    pub slot: Slot,
}

/// Per-window state at levels `≥ 1`.
#[derive(Clone, Debug, Default)]
pub struct WindowState {
    /// Number of active jobs with exactly this window (the paper's `x`).
    pub x: u64,
    /// Starts of the intervals in which this window holds an empty
    /// fulfilled slot — the candidates Lemma 8 guarantees for PLACE and
    /// MOVE — ascending.
    pub open: Vec<Slot>,
}

impl WindowState {
    /// Brings `istart`'s membership in [`Self::open`] to `open`.
    fn set_open(&mut self, istart: Slot, open: bool) {
        match (self.open.binary_search(&istart), open) {
            (Err(at), true) => self.open.insert(at, istart),
            (Ok(at), false) => {
                self.open.remove(at);
            }
            _ => {}
        }
    }
}

/// The lowest set bit at positions `lo..=hi` of the bit string whose
/// `i`-th word is `word(i)`.
fn lowest_bit(lo: usize, hi: usize, word: impl Fn(usize) -> u64) -> Option<usize> {
    (lo / 64..=hi / 64).find_map(|i| {
        let mut w = word(i);
        if i == lo / 64 {
            w &= !0 << (lo % 64);
        }
        if i == hi / 64 {
            w &= !0 >> (63 - hi % 64);
        }
        (w != 0).then(|| i * 64 + w.trailing_zeros() as usize)
    })
}

/// A bit field of an [`IntervalState`] record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Field {
    /// Slots under jobs of strictly lower levels.
    Lower,
    /// Every physically occupied slot, whatever the occupant's level.
    Phys,
    /// Slots backing the fulfilled reservations of chain position `k`.
    Assigned(usize),
    /// The subset of `Assigned(k)` under that window's own jobs.
    Held(usize),
}

impl Field {
    /// Position of the field in the record.
    fn index(self) -> usize {
        match self {
            Field::Lower => 0,
            Field::Phys => 1,
            Field::Assigned(k) => 2 + 2 * k,
            Field::Held(k) => 3 + 2 * k,
        }
    }
}

/// The dense record of one materialized interval (see the module docs).
/// Field width comes from the owning [`Level`], which is why every
/// accessor takes `nw`, the words per field.
#[derive(Clone, Debug)]
pub struct IntervalState {
    /// `lower | phys | assigned[0] | held[0] | assigned[1] | …`, `nw`
    /// words each.
    words: Vec<u64>,
}

impl IntervalState {
    /// An all-zero record with the two occupancy fields allocated.
    fn new(nw: usize) -> Self {
        IntervalState {
            words: vec![0; 2 * nw],
        }
    }

    /// Word `i` of `field`; zero past the allocated chain positions.
    pub fn word(&self, nw: usize, field: Field, i: usize) -> u64 {
        self.words.get(field.index() * nw + i).copied().unwrap_or(0)
    }

    /// Mutable word `i` of `field`, growing the record to hold it.
    fn word_mut(&mut self, nw: usize, field: Field, i: usize) -> &mut u64 {
        let at = field.index() * nw + i;
        if at >= self.words.len() {
            // Whole `assigned`/`held` pairs, so a field is never half there.
            self.words.resize((field.index() | 1) * nw + nw, 0);
        }
        &mut self.words[at]
    }

    /// Whether bit `bit` of `field` is set.
    pub fn test(&self, nw: usize, field: Field, bit: usize) -> bool {
        self.word(nw, field, bit / 64) >> (bit % 64) & 1 == 1
    }

    fn set(&mut self, nw: usize, field: Field, bit: usize) {
        *self.word_mut(nw, field, bit / 64) |= 1 << (bit % 64);
    }

    fn clear(&mut self, nw: usize, field: Field, bit: usize) {
        *self.word_mut(nw, field, bit / 64) &= !(1 << (bit % 64));
    }

    /// Set bits of `field`, ascending.
    pub fn bits(&self, nw: usize, field: Field) -> impl Iterator<Item = usize> + '_ {
        (0..nw).flat_map(move |i| {
            let first = self.word(nw, field, i);
            std::iter::successors((first != 0).then_some(first), |&w| {
                Some(w & (w - 1)).filter(|&rest| rest != 0)
            })
            .map(move |w| i * 64 + w.trailing_zeros() as usize)
        })
    }

    /// Number of set bits in `field`.
    pub fn count(&self, nw: usize, field: Field) -> u64 {
        (0..nw)
            .map(|i| u64::from(self.word(nw, field, i).count_ones()))
            .sum()
    }

    /// Chain positions with an allocated `assigned`/`held` pair.
    pub fn chain_len(&self, nw: usize) -> usize {
        self.words.len() / nw / 2 - 1
    }

    /// Whether chain position `k` holds an empty fulfilled slot here.
    pub fn is_open(&self, nw: usize, k: usize) -> bool {
        (0..nw).any(|i| self.open_word(nw, k, i) != 0)
    }

    /// Word `i` of `assigned[k] & !held[k]`.
    fn open_word(&self, nw: usize, k: usize, i: usize) -> u64 {
        self.word(nw, Field::Assigned(k), i) & !self.word(nw, Field::Held(k), i)
    }

    /// Word `i` of `lower | ⋃ assigned`: slots that cannot back another
    /// reservation.
    fn taken_word(&self, nw: usize, i: usize) -> u64 {
        (0..self.chain_len(nw)).fold(self.word(nw, Field::Lower, i), |acc, k| {
            acc | self.word(nw, Field::Assigned(k), i)
        })
    }

    /// Chain position whose `assigned` field has `bit` set, if any.
    pub fn holder(&self, nw: usize, bit: usize) -> Option<usize> {
        (0..self.chain_len(nw)).find(|&k| self.test(nw, Field::Assigned(k), bit))
    }

    /// `true` when every word is zero: the record says nothing an absent
    /// one would not, and is pruned.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// All state of one scheduler level.
///
/// Standing ("baseline") reservations: the paper gives *every* level-ℓ
/// window one reservation per enclosed interval, unconditionally. We bound
/// that to window spans `≤ high_water` — the largest span ever inserted at
/// this level. Because `high_water` only grows and longer windows have the
/// lowest fulfillment priority, raising it never reduces any existing
/// quota, so quotas remain a pure, monotone-safe function of the visible
/// state (Observation 7 still applies).
#[derive(Clone, Debug)]
pub struct Level {
    /// Window states: job counts and open intervals. Entries persist after
    /// their last job leaves (standing reservations remain).
    /// FxHash: keys are scheduler-internal, hashed on every quota lookup.
    pub windows: FxHashMap<Window, WindowState>,
    /// Materialized intervals, keyed by interval start. An absent entry
    /// means no occupancy and no fulfilled reservation (full allowance).
    pub intervals: FxHashMap<Slot, IntervalState>,
    /// Largest window span ever inserted at this level (0 = level unused).
    pub high_water: u64,
    /// Interval span `L_ℓ` (a power of two; 1 at level 0, which has no
    /// interval machinery).
    ispan: u64,
    /// Words per record field: `⌈L_ℓ / 64⌉`.
    nw: usize,
}

impl Level {
    /// Empty state for a level whose intervals span `ispan` slots.
    pub fn new(ispan: u64) -> Self {
        debug_assert!(ispan.is_power_of_two());
        Level {
            windows: FxHashMap::default(),
            intervals: FxHashMap::default(),
            high_water: 0,
            ispan,
            nw: ispan.div_ceil(64) as usize,
        }
    }

    /// Interval span `L_ℓ`.
    pub fn ispan(&self) -> u64 {
        self.ispan
    }

    /// Words per record field.
    pub fn nw(&self) -> usize {
        self.nw
    }

    /// Start of the interval containing `slot`.
    pub fn istart_of(&self, slot: Slot) -> Slot {
        slot & !(self.ispan - 1)
    }

    /// Bit of `slot` within its interval's fields.
    fn bit_of(&self, slot: Slot) -> usize {
        (slot & (self.ispan - 1)) as usize
    }

    /// Chain position of a window span of this level: `2^(k+1)·L_ℓ ↦ k`.
    pub fn chain_pos(&self, span: u64) -> usize {
        debug_assert!(span.is_power_of_two() && span > self.ispan);
        (span.trailing_zeros() - self.ispan.trailing_zeros() - 1) as usize
    }

    /// Window spans participating in every chain at this level:
    /// `2·ispan, 4·ispan, …` up to `high_water`.
    pub fn chain_spans(&self) -> impl Iterator<Item = u64> + '_ {
        let hw = self.high_water;
        std::iter::successors(Some(2 * self.ispan), move |&s| s.checked_mul(2))
            .take_while(move |&s| s <= hw)
    }

    /// Bits of a field word that name slots of the interval (all of them
    /// unless the interval is narrower than a word).
    fn valid_word(&self) -> u64 {
        if self.ispan >= 64 {
            !0
        } else {
            (1 << self.ispan) - 1
        }
    }

    // ------------------------------------------------------------------
    // Occupancy bits
    // ------------------------------------------------------------------

    /// Sets `slot`'s bit in an occupancy field, materializing the record.
    pub fn set_occupancy(&mut self, field: Field, slot: Slot) {
        debug_assert!(matches!(field, Field::Lower | Field::Phys));
        let (nw, bit) = (self.nw, self.bit_of(slot));
        let rec = self
            .intervals
            .entry(self.istart_of(slot))
            .or_insert_with(|| IntervalState::new(nw));
        debug_assert!(
            !rec.test(nw, field, bit),
            "slot {slot} entered {field:?} twice"
        );
        rec.set(nw, field, bit);
    }

    /// Clears `slot`'s bit in an occupancy field (the record of an
    /// occupied slot always exists), pruning the record if that leaves it
    /// all-zero.
    pub fn clear_occupancy(&mut self, field: Field, slot: Slot) {
        debug_assert!(matches!(field, Field::Lower | Field::Phys));
        let (nw, bit, istart) = (self.nw, self.bit_of(slot), self.istart_of(slot));
        let Some(rec) = self.intervals.get_mut(&istart) else {
            debug_assert!(
                false,
                "interval of occupied slot {slot} must be materialized"
            );
            return;
        };
        debug_assert!(
            rec.test(nw, field, bit),
            "slot {slot} missing from {field:?}"
        );
        rec.clear(nw, field, bit);
        if rec.is_zero() {
            self.intervals.remove(&istart);
        }
    }

    /// The leftmost slot of `window` (which lies inside one interval of
    /// this level) whose bit is set in `pick(lower, phys)`.
    pub fn leftmost_in(&self, window: Window, pick: impl Fn(u64, u64) -> u64) -> Option<Slot> {
        let istart = self.istart_of(window.start());
        debug_assert!(window.end() <= istart + self.ispan);
        let rec = self.intervals.get(&istart);
        let word = |field, i| rec.map_or(0, |r| r.word(self.nw, field, i));
        let (lo, hi) = (self.bit_of(window.start()), self.bit_of(window.end() - 1));
        lowest_bit(lo, hi, |i| {
            pick(word(Field::Lower, i), word(Field::Phys, i))
        })
        .map(|bit| istart + bit as Slot)
    }

    // ------------------------------------------------------------------
    // Fulfilled-reservation bits (keep the windows' open lists exact)
    // ------------------------------------------------------------------

    /// Applies `edit` to the record of `slot`'s interval and brings
    /// `window`'s open list in line with the result.
    fn edit_reservation(
        &mut self,
        window: Window,
        slot: Slot,
        edit: impl FnOnce(&mut IntervalState, usize, usize, usize),
    ) {
        let (nw, k, bit) = (self.nw, self.chain_pos(window.span()), self.bit_of(slot));
        let istart = self.istart_of(slot);
        let rec = self
            .intervals
            .entry(istart)
            .or_insert_with(|| IntervalState::new(nw));
        let was_open = rec.is_open(nw, k);
        edit(rec, nw, k, bit);
        let open = rec.is_open(nw, k);
        if open != was_open {
            self.windows
                .entry(window)
                .or_default()
                .set_open(istart, open);
        }
    }

    /// Marks `slot` as a fulfilled (and job-free) reservation of `window`.
    pub fn assign(&mut self, window: Window, slot: Slot) {
        self.edit_reservation(window, slot, |rec, nw, k, bit| {
            debug_assert!(rec.holder(nw, bit).is_none(), "slot {slot} assigned twice");
            rec.set(nw, Field::Assigned(k), bit);
        });
    }

    /// Drops `window`'s fulfilled reservation at `slot`, which must be
    /// free of the window's own jobs.
    pub fn unassign(&mut self, window: Window, slot: Slot) {
        self.edit_reservation(window, slot, |rec, nw, k, bit| {
            debug_assert!(
                rec.test(nw, Field::Assigned(k), bit) && !rec.test(nw, Field::Held(k), bit),
                "removing occupied or absent slot {slot}"
            );
            rec.clear(nw, Field::Assigned(k), bit);
        });
    }

    /// Records that a job of `window` now sits on its assigned `slot`.
    pub fn occupy(&mut self, window: Window, slot: Slot) {
        self.edit_reservation(window, slot, |rec, nw, k, bit| {
            debug_assert!(
                rec.test(nw, Field::Assigned(k), bit) && !rec.test(nw, Field::Held(k), bit),
                "occupying unassigned or occupied slot {slot}"
            );
            rec.set(nw, Field::Held(k), bit);
        });
    }

    /// Records that `window`'s job left its assigned `slot`.
    pub fn vacate(&mut self, window: Window, slot: Slot) {
        self.edit_reservation(window, slot, |rec, nw, k, bit| {
            debug_assert!(
                rec.test(nw, Field::Held(k), bit),
                "slot {slot} was not occupied"
            );
            rec.clear(nw, Field::Held(k), bit);
        });
    }

    /// Moves the fulfilled reservation of chain position `k` at `from` to
    /// `to` (same interval), together with its job if `with_job`. The
    /// window's count of empty slots here is unchanged, so its open list
    /// is too.
    pub fn repoint(&mut self, k: usize, from: Slot, to: Slot, with_job: bool) {
        let (nw, istart) = (self.nw, self.istart_of(from));
        debug_assert_eq!(istart, self.istart_of(to), "re-point across intervals");
        let (from, to) = (self.bit_of(from), self.bit_of(to));
        let rec = self
            .intervals
            .get_mut(&istart)
            .expect("re-pointed reservation has a record");
        debug_assert!(rec.holder(nw, to).is_none(), "re-point target is assigned");
        debug_assert_eq!(rec.test(nw, Field::Held(k), from), with_job);
        rec.clear(nw, Field::Assigned(k), from);
        rec.set(nw, Field::Assigned(k), to);
        if with_job {
            rec.clear(nw, Field::Held(k), from);
            rec.set(nw, Field::Held(k), to);
        }
    }

    /// Chain position holding a fulfilled reservation at `slot`, if any.
    pub fn holder(&self, slot: Slot) -> Option<usize> {
        self.intervals
            .get(&self.istart_of(slot))?
            .holder(self.nw, self.bit_of(slot))
    }

    /// An empty fulfilled slot of `window`: the leftmost physically free
    /// one, else the leftmost.
    pub fn pick_open_slot(&self, window: Window) -> Option<Slot> {
        let ws = self.windows.get(&window)?;
        let (nw, k, top) = (
            self.nw,
            self.chain_pos(window.span()),
            self.ispan as usize - 1,
        );
        let mut fallback = None;
        for &istart in &ws.open {
            let rec = &self.intervals[&istart];
            let free = |i| rec.open_word(nw, k, i) & !rec.word(nw, Field::Phys, i);
            if let Some(bit) = lowest_bit(0, top, free) {
                return Some(istart + bit as Slot);
            }
            if fallback.is_none() {
                fallback =
                    lowest_bit(0, top, |i| rec.open_word(nw, k, i)).map(|bit| istart + bit as Slot);
            }
        }
        fallback
    }

    // ------------------------------------------------------------------
    // REBALANCE, one interval, in words
    // ------------------------------------------------------------------

    /// Phases 0 and 1 of the interval at `istart`, for the chain positions
    /// from `first` on (`targets`: the chain's windows, span ascending,
    /// with their fulfilled quotas). Position by position, drops the
    /// assignments that fell out of the allowance, then sheds what exceeds
    /// the quota from the empty slots, leftmost first. Stops at the first
    /// position left with assignments to shed — all of them under the
    /// window's own jobs — and returns it with their number: the caller
    /// MOVEs those jobs off and resumes after it.
    pub fn shed(
        &mut self,
        istart: Slot,
        first: usize,
        targets: &[(Window, u64)],
    ) -> Option<(usize, u64)> {
        let nw = self.nw;
        let rec = self.intervals.get_mut(&istart)?;
        let allocated = rec.chain_len(nw);
        for (k, &(window, quota)) in targets.iter().enumerate().take(allocated).skip(first) {
            let was_open = rec.is_open(nw, k);
            for i in 0..nw {
                let lower = rec.word(nw, Field::Lower, i);
                debug_assert_eq!(
                    lower & rec.word(nw, Field::Held(k), i),
                    0,
                    "lower-occupied slot still holds a job of {window}"
                );
                *rec.word_mut(nw, Field::Assigned(k), i) &= !lower;
            }
            let mut excess = rec.count(nw, Field::Assigned(k)).saturating_sub(quota);
            for i in 0..nw {
                let mut open = rec.open_word(nw, k, i);
                while excess > 0 && open != 0 {
                    *rec.word_mut(nw, Field::Assigned(k), i) &= !(open & open.wrapping_neg());
                    open &= open - 1;
                    excess -= 1;
                }
            }
            if was_open && !rec.is_open(nw, k) {
                self.windows
                    .get_mut(&window)
                    .expect("window with assignments has a state")
                    .set_open(istart, false);
            }
            if excess > 0 {
                return Some((k, excess));
            }
        }
        None
    }

    /// The leftmost slot at or after bit `from` of the interval at
    /// `istart` that chain position `k`'s own job sits on.
    pub fn next_held(&self, istart: Slot, k: usize, from: usize) -> Option<Slot> {
        let rec = self.intervals.get(&istart)?;
        let top = self.ispan as usize - 1;
        lowest_bit(from.min(top + 1), top, |i| {
            rec.word(self.nw, Field::Held(k), i)
        })
        .map(|bit| istart + bit as Slot)
    }

    /// Phase 2 for the interval at `istart`, which ends its rebalance: tops
    /// every chain window (`targets`, as for [`Self::shed`]) up to its
    /// quota, or prunes the record if it is left with nothing.
    /// Slots come leftmost first, in chain order, from the free allowance
    /// `!(lower | phys | ⋃assigned)`; only when that runs out, from
    /// occupied-but-unassigned slots `phys & !(lower | ⋃assigned)`
    /// (assignment ≠ occupancy; PLACE displaces on use).
    pub fn claim(&mut self, istart: Slot, targets: &[(Window, u64)]) {
        let (nw, valid) = (self.nw, self.valid_word());
        let have = |rec: Option<&IntervalState>, k| {
            rec.map_or(0, |r: &IntervalState| r.count(nw, Field::Assigned(k)))
        };
        let rec = self.intervals.get(&istart);
        if (targets.iter().enumerate()).all(|(k, &(_, quota))| quota <= have(rec, k)) {
            // Nothing to claim; phases 0–1 may have emptied the record.
            if rec.is_some_and(|rec| rec.is_zero()) {
                self.intervals.remove(&istart);
            }
            return;
        }
        let rec = self
            .intervals
            .entry(istart)
            .or_insert_with(|| IntervalState::new(nw));
        for occupied in [false, true] {
            // The pool is consumed as a stream of words: a claimed bit
            // leaves `pool` as it enters `assigned`, so later windows
            // never see it again.
            let pool_word = |rec: &IntervalState, i: usize| {
                let phys = rec.word(nw, Field::Phys, i);
                !rec.taken_word(nw, i) & valid & if occupied { phys } else { !phys }
            };
            let (mut i, mut pool) = (0, pool_word(rec, 0));
            let mut short = false;
            for (k, &(window, quota)) in targets.iter().enumerate() {
                let mut needed = quota.saturating_sub(have(Some(rec), k));
                if needed == 0 {
                    continue;
                }
                let was_open = rec.is_open(nw, k);
                while needed > 0 {
                    while pool == 0 && i + 1 < nw {
                        i += 1;
                        pool = pool_word(rec, i);
                    }
                    if pool == 0 {
                        break;
                    }
                    *rec.word_mut(nw, Field::Assigned(k), i) |= pool & pool.wrapping_neg();
                    pool &= pool - 1;
                    needed -= 1;
                }
                if !was_open && rec.is_open(nw, k) {
                    self.windows
                        .entry(window)
                        .or_default()
                        .set_open(istart, true);
                }
                short |= needed > 0;
                debug_assert!(
                    !(occupied && short),
                    "quota exceeds free capacity in interval"
                );
            }
            if !short {
                break;
            }
        }
    }

    /// Releases every fulfilled reservation of windows without jobs and
    /// drops their states (see `ReservationScheduler::compact`).
    pub fn compact(&mut self) {
        let (nw, ispan) = (self.nw, self.ispan);
        let windows = &mut self.windows;
        self.intervals.retain(|&istart, rec| {
            for k in 0..rec.chain_len(nw) {
                let w = Window::aligned_enclosing(istart, ispan << (k + 1));
                if windows.get(&w).is_none_or(|ws| ws.x == 0) {
                    for i in 0..nw {
                        *rec.word_mut(nw, Field::Assigned(k), i) = 0;
                    }
                }
            }
            !rec.is_zero()
        });
        windows.retain(|_, ws| ws.x > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slots(l: &Level, istart: Slot, field: Field) -> Vec<Slot> {
        l.intervals[&istart]
            .bits(l.nw(), field)
            .map(|b| istart + b as Slot)
            .collect()
    }

    #[test]
    fn window_state_assignment_lifecycle() {
        let mut l = Level::new(32);
        l.high_water = 128;
        let w = Window::new(0, 64);
        l.assign(w, 10);
        l.assign(w, 40);
        assert_eq!(l.windows[&w].open, vec![0, 32]);
        l.occupy(w, 10);
        assert_eq!(l.windows[&w].open, vec![32]);
        assert_eq!(l.pick_open_slot(w), Some(40));
        l.vacate(w, 10);
        assert_eq!(l.windows[&w].open, vec![0, 32]);
        l.unassign(w, 10);
        // Phase 2 ends a rebalance, and prunes what it leaves all-zero.
        l.claim(0, &[(w, 0)]);
        assert_eq!(l.windows[&w].open, vec![32]);
        assert!(!l.intervals.contains_key(&0), "all-zero record is pruned");
        assert_eq!(slots(&l, 32, Field::Assigned(0)), vec![40]);
    }

    #[test]
    fn assigned_in_range_query() {
        // One window's assignments land in the record of the interval
        // each falls in, and read back ascending.
        let mut l = Level::new(8);
        l.high_water = 64;
        let w = Window::new(0, 64);
        for s in [32u64, 5, 31, 9, 12] {
            l.assign(w, s);
        }
        let k = l.chain_pos(64);
        assert_eq!(slots(&l, 8, Field::Assigned(k)), vec![9, 12]);
        assert_eq!(slots(&l, 24, Field::Assigned(k)), vec![31]);
        assert_eq!(l.windows[&w].open, vec![0, 8, 24, 32]);
        assert_eq!(l.holder(12), Some(k));
        assert_eq!(l.holder(13), None);
    }

    #[test]
    fn pick_prefers_physically_free_then_leftmost() {
        let mut l = Level::new(256);
        l.high_water = 1024;
        let w = Window::new(0, 512);
        for s in [70u64, 200, 300] {
            l.assign(w, s);
        }
        assert_eq!(l.pick_open_slot(w), Some(70));
        l.set_occupancy(Field::Phys, 70);
        assert_eq!(l.pick_open_slot(w), Some(200));
        l.set_occupancy(Field::Phys, 200);
        l.set_occupancy(Field::Phys, 300);
        assert_eq!(l.pick_open_slot(w), Some(70), "all occupied: leftmost");
    }

    #[test]
    fn shed_drops_lower_occupied_then_leftmost_empties() {
        let mut l = Level::new(32);
        l.high_water = 64;
        let w = Window::new(0, 64);
        for s in [3u64, 5, 9, 20] {
            l.assign(w, s);
        }
        l.occupy(w, 5);
        l.set_occupancy(Field::Lower, 9);
        // Quota 1: slot 9 left the allowance, 3 and 20 are empty and go
        // leftmost first; nothing is left to MOVE.
        assert_eq!(l.shed(0, 0, &[(w, 1)]), None);
        assert_eq!(slots(&l, 0, Field::Assigned(0)), vec![5]);
        assert!(l.windows[&w].open.is_empty());
        // Quota 0: the job's slot remains for the caller to MOVE off.
        assert_eq!(l.shed(0, 0, &[(w, 0)]), Some((0, 1)));
        assert_eq!(l.next_held(0, 0, 0), Some(5));
        assert_eq!(l.next_held(0, 0, 6), None);
    }

    #[test]
    fn claim_hands_out_free_slots_in_chain_order_then_occupied_ones() {
        let mut l = Level::new(4);
        l.high_water = 16;
        let (w8, w16) = (Window::new(0, 8), Window::new(0, 16));
        l.set_occupancy(Field::Phys, 0);
        l.set_occupancy(Field::Lower, 0);
        l.set_occupancy(Field::Phys, 2);
        // Allowance {1, 2, 3}; slot 2 is under a higher-level job.
        l.claim(0, &[(w8, 2), (w16, 1)]);
        assert_eq!(slots(&l, 0, Field::Assigned(0)), vec![1, 3]);
        assert_eq!(slots(&l, 0, Field::Assigned(1)), vec![2]);
        assert_eq!(l.windows[&w8].open, vec![0]);
        assert_eq!(l.windows[&w16].open, vec![0]);
        // Nothing to do: no state is touched, no record appears.
        l.claim(4, &[(w8, 0), (w16, 0)]);
        assert!(!l.intervals.contains_key(&4));
    }

    #[test]
    fn leftmost_in_masks_the_window_inside_a_wide_interval() {
        let mut l = Level::new(1024);
        let w = Window::new(192, 256);
        assert_eq!(l.leftmost_in(w, |_, phys| !phys), Some(192));
        for s in 192..200 {
            l.set_occupancy(Field::Phys, s);
        }
        l.set_occupancy(Field::Lower, 192);
        assert_eq!(l.leftmost_in(w, |_, phys| !phys), Some(200));
        assert_eq!(l.leftmost_in(w, |lower, phys| phys & !lower), Some(193));
        assert_eq!(
            l.leftmost_in(Window::new(64, 128), |lower, phys| phys & !lower),
            None
        );
    }

    #[test]
    fn compact_releases_jobless_windows() {
        let mut l = Level::new(32);
        l.high_water = 128;
        let (kept, dropped) = (Window::new(0, 64), Window::new(0, 128));
        l.assign(kept, 1);
        l.assign(dropped, 2);
        l.assign(dropped, 100);
        l.windows.get_mut(&kept).unwrap().x = 1;
        l.compact();
        assert_eq!(l.windows.len(), 1);
        assert_eq!(slots(&l, 0, Field::Assigned(0)), vec![1]);
        assert!(slots(&l, 0, Field::Assigned(1)).is_empty());
        assert!(!l.intervals.contains_key(&96));
    }

    #[test]
    fn chain_spans_follow_high_water() {
        let mut l = Level::new(32);
        assert_eq!(l.chain_spans().count(), 0);
        l.high_water = 64;
        assert_eq!(l.chain_spans().collect::<Vec<_>>(), vec![64]);
        l.high_water = 256;
        assert_eq!(l.chain_spans().collect::<Vec<_>>(), vec![64, 128, 256]);
        assert_eq!(l.chain_pos(64), 0);
        assert_eq!(l.chain_pos(256), 2);
    }
}
