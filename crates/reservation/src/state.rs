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
//! [`Record`] of `u64` words, found by the index `istart >> log2 L_ℓ` in
//! the level's paged record store ([`crate::paged`]): an array lookup,
//! no hashing, on any axis a workload stays near the origin of. A record
//! is a run of equally wide bit *fields*,
//! one bit per slot of the interval (`L_ℓ` bits: half a word for
//! `L₁ = 32`, four words for `L₂ = 256`, `L_ℓ / 64` words for custom
//! towers):
//!
//! | field | bit `i` set ⇔ slot `istart + i` … |
//! |---|---|
//! | `lower` | holds a job of a level below ℓ (outside the allowance) |
//! | `phys` | holds any job (`lower ⊆ phys`) |
//! | `union` | backs a fulfilled reservation of some chain window (summary) |
//! | `assigned[k]` | backs a fulfilled reservation of the chain window at position `k` |
//! | `held[k]` | … and that window's own job sits on it (`held[k] ⊆ assigned[k] ∩ phys`) |
//!
//! Chain position `k` names the enclosing window of span `2^(k+1)·L_ℓ`;
//! aligned windows are laminar, so the windows that can reserve in one
//! interval are exactly that chain, and their `assigned` fields are
//! pairwise disjoint. A record whose fields are wider than a word also
//! keeps a *summary* after its occupancy fields: the `union` of the
//! `assigned` fields and one 16-bit count per chain position (32-bit
//! for `2^16`-slot intervals) of that position's `assigned` bits. Every
//! `assigned` edit keeps it exact, so REBALANCE checks the quotas and an
//! allowance flip against the summary and reads only the
//! `assigned`/`held` pairs it changes. At `L₂ = 256` with four chain
//! positions a record is six 64-byte lines:
//!
//! | line | words |
//! |---|---|
//! | 0 | `lower`, `phys` |
//! | 1 | `union`, the counts, zero padding |
//! | 2 + k | `assigned[k]`, `held[k]` |
//!
//! A record of one-word fields (`L₁ = 32`: `lower | phys | assigned[0] |
//! held[0] | …`, one line for three chain positions) keeps no summary: it
//! is read in one line anyway. The pairs start at a multiple of a pair's
//! width up to a line, and every store's head starts on a line, so no
//! pair straddles two lines. Every record of a level has the same
//! stride, up to the level's high-water mark, so raising the mark (which
//! only grows) re-strides the store. An all-zero record means "full
//! allowance, nothing occupied, nothing claimed"; an interval never
//! written reads the same, and past the store's head a page of records
//! that are all zero is given back.
//!
//! What is not per-interval is per window: the job count `x`, and the set
//! of the window's *open* intervals — those where it holds an empty
//! fulfilled slot (`assigned[k] & !held[k] ≠ 0`) — so PLACE and MOVE
//! visit only intervals that can answer them. Each chain position keeps
//! its windows in one paged store indexed by `start >> log2 span`: a
//! count and a bitmask over the window's intervals while it has at most
//! 64 of them, a count and a sorted list beyond.
//!
//! Every choice the algorithm makes among slots is "leftmost first", which
//! in this layout is "lowest set bit of the lowest non-zero word first":
//! one `trailing_zeros` where the tree-based layout walked a range.

use crate::paged::Paged;
use realloc_core::{Slot, Window};

/// Chain positions below this one have at most 64 intervals per window,
/// and keep their open sets as bitmasks.
const NARROW: usize = 6;

/// The per-window state of one level (see the module docs): every chain
/// window's job count `x` and its open set — the intervals in which it
/// holds an empty fulfilled slot, the candidates Lemma 8 guarantees for
/// PLACE and MOVE. One store per chain position `k`, indexed by
/// `start >> (shift + k + 1)`.
#[derive(Clone, Debug)]
struct Windows {
    /// `log2 L_ℓ`.
    shift: u32,
    /// Position `k < NARROW` at `narrow[k]`.
    narrow: Vec<Paged<NarrowWindow>>,
    /// Position `NARROW + i` at `wide[i]`.
    wide: Vec<Paged<WideWindow>>,
}

/// A window of at most 64 intervals.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct NarrowWindow {
    x: u32,
    /// Bit `p` set ⇔ the window's `p`-th interval is open.
    open: u64,
}

/// A window of more than 64 intervals.
#[derive(Clone, Debug, Default, PartialEq)]
struct WideWindow {
    x: u32,
    /// Open interval starts, ascending.
    open: Vec<Slot>,
}

impl Windows {
    fn new(shift: u32) -> Self {
        Windows {
            shift,
            narrow: Vec::new(),
            wide: Vec::new(),
        }
    }

    /// Chain length.
    fn chain(&self) -> usize {
        self.narrow.len() + self.wide.len()
    }

    /// Index of the chain-position-`k` window around `slot` in its store.
    #[inline]
    fn index(&self, k: usize, slot: Slot) -> u64 {
        slot >> (self.shift + k as u32 + 1)
    }

    /// The job count of the chain-position-`k` window around `slot`.
    #[inline]
    fn x(&self, k: usize, slot: Slot) -> u64 {
        let index = self.index(k, slot);
        let x = match k.checked_sub(NARROW) {
            None => self.narrow[k].get(index).map_or(0, |run| run[0].x),
            Some(i) => self.wide[i].get(index).map_or(0, |run| run[0].x),
        };
        u64::from(x)
    }

    /// Adds `delta` to the job count of the chain-position-`k` window
    /// around `slot`, returning the count before.
    fn add_x(&mut self, k: usize, slot: Slot, delta: i32) -> u64 {
        let index = self.index(k, slot);
        let add = |x: &mut u32| {
            let old = *x;
            *x = old
                .checked_add_signed(delta)
                .expect("window job count stays in range");
            u64::from(old)
        };
        match k.checked_sub(NARROW) {
            None => self.narrow[k].update(index, |run| add(&mut run[0].x)),
            Some(i) => self.wide[i].update(index, |run| add(&mut run[0].x)),
        }
    }

    /// Brings the membership of the interval at `istart` in the open set
    /// of its chain-position-`k` window to `open`.
    fn set_open(&mut self, k: usize, istart: Slot, open: bool) {
        let index = self.index(k, istart);
        match k.checked_sub(NARROW) {
            None => {
                let bit = 1 << ((istart >> self.shift) & ((1 << (k + 1)) - 1));
                self.narrow[k].update(index, |run| {
                    if open {
                        run[0].open |= bit;
                    } else {
                        run[0].open &= !bit;
                    }
                });
            }
            Some(i) => self.wide[i].update(index, |run| {
                let list = &mut run[0].open;
                match (list.binary_search(&istart), open) {
                    (Err(at), true) => list.insert(at, istart),
                    (Ok(at), false) => {
                        list.remove(at);
                    }
                    _ => {}
                }
            }),
        }
    }

    /// Starts of the open intervals of the chain-position-`k` window
    /// starting at `start`, ascending.
    fn open_starts(&self, k: usize, start: Slot) -> impl Iterator<Item = Slot> + '_ {
        let (shift, index) = (self.shift, self.index(k, start));
        let (mask, list): (u64, &[Slot]) = match k.checked_sub(NARROW) {
            None => (self.narrow[k].get(index).map_or(0, |run| run[0].open), &[]),
            Some(i) => (0, self.wide[i].get(index).map_or(&[], |run| &run[0].open)),
        };
        set_bits(mask)
            .map(move |pos| start + ((pos as u64) << shift))
            .chain(list.iter().copied())
    }

    /// Every window that keeps state — a job or an open interval — as
    /// `(chain position, start, x)`.
    fn live(&self) -> Vec<(usize, Slot, u64)> {
        let start = |k: usize, index: u64| index << (self.shift + k as u32 + 1);
        let narrow = self.narrow.iter().enumerate().flat_map(|(k, store)| {
            (store.iter())
                .filter(|(_, run)| run[0] != NarrowWindow::default())
                .map(move |(index, run)| (k, start(k, index), u64::from(run[0].x)))
        });
        let wide = self.wide.iter().enumerate().flat_map(|(i, store)| {
            (store.iter())
                .filter(|(_, run)| run[0] != WideWindow::default())
                .map(move |(index, run)| {
                    (NARROW + i, start(NARROW + i, index), u64::from(run[0].x))
                })
        });
        narrow.chain(wide).collect()
    }

    /// Empties the open set of every window without jobs.
    fn drop_idle(&mut self) {
        for store in &mut self.narrow {
            store.update_all(|_, run| {
                if run[0].x == 0 {
                    run[0].open = 0;
                }
            });
        }
        for store in &mut self.wide {
            store.update_all(|_, run| {
                if run[0].x == 0 {
                    run[0].open = Vec::new();
                }
            });
        }
    }

    /// Lengthens the chain to `chain` positions, the new ones empty.
    fn lengthen(&mut self, chain: usize) {
        for k in self.chain()..chain {
            let run_bits = self.shift + k as u32 + 1;
            if k < NARROW {
                self.narrow.push(Paged::over_slots(run_bits, 1));
            } else {
                self.wide.push(Paged::over_slots(run_bits, 1));
            }
        }
    }

    /// Pages held and bytes reserved by the stores.
    fn storage(&self) -> (usize, usize) {
        let narrow = self.narrow.iter().map(|s| (s.pages(), s.bytes()));
        let wide = self.wide.iter().map(|s| (s.pages(), s.bytes()));
        narrow
            .chain(wide)
            .fold((0, 0), |(p, b), (sp, sb)| (p + sp, b + sb))
    }

    /// Checks every store's pages (see [`Paged::check`]).
    fn check(&self) -> Result<(), String> {
        let narrow = self.narrow.iter().map(Paged::check);
        let wide = self.wide.iter().map(Paged::check);
        narrow.chain(wide).collect()
    }
}

/// A bit field of a [`Record`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Field {
    /// Slots under jobs of strictly lower levels.
    Lower,
    /// Slots backing any chain position's fulfilled reservation: the
    /// union of the `Assigned` fields, part of the record's summary.
    Union,
    /// Every physically occupied slot, whatever the occupant's level.
    Phys,
    /// Slots backing the fulfilled reservations of chain position `k`.
    Assigned(usize),
    /// The subset of `Assigned(k)` under that window's own jobs.
    Held(usize),
}

/// Where a level's records keep their fields: the same for every record
/// of the level, until its chain lengthens.
#[derive(Clone, Copy, Debug)]
struct Shape {
    /// Words per bit field: `⌈L_ℓ / 64⌉`.
    nw: usize,
    /// Chain positions.
    chain: usize,
    /// First word of the `assigned`/`held` pairs: past the occupancy
    /// fields and the summary, at a multiple of a pair's width up to a
    /// line, so that in a store whose head starts on a line no pair of
    /// up to a line straddles two.
    pairs: usize,
    /// Bits per `assigned` count: 16, or 32 if an interval has `2^16`
    /// slots (a count reaches `L_ℓ`).
    count_bits: usize,
    /// Whether the record keeps a summary: only if its fields are wider
    /// than a word, since a record of one-word fields is read whole in a
    /// line or two anyway.
    summary: bool,
}

impl Shape {
    /// The shape of a level of intervals of `ispan` slots and `chain`
    /// positions.
    fn new(ispan: u64, chain: usize) -> Self {
        let nw = ispan.div_ceil(64) as usize;
        let (summary, count_bits) = (nw > 1, if ispan < 1 << 16 { 16 } else { 32 });
        let head = if summary {
            3 * nw + (chain * count_bits).div_ceil(64)
        } else {
            2 * nw
        };
        Shape {
            nw,
            chain,
            pairs: head.next_multiple_of((2 * nw).min(8)),
            count_bits,
            summary,
        }
    }

    /// First word of `field`.
    #[inline]
    fn offset(self, field: Field) -> usize {
        match field {
            Field::Lower => 0,
            Field::Phys => self.nw,
            Field::Union => 2 * self.nw,
            Field::Assigned(k) => self.pairs + 2 * k * self.nw,
            Field::Held(k) => self.pairs + (2 * k + 1) * self.nw,
        }
    }

    /// Words per record.
    fn width(self) -> usize {
        self.offset(Field::Assigned(self.chain))
    }

    /// Word and shift of chain position `k`'s `assigned` count, in a
    /// record with a summary.
    #[inline]
    fn count_at(self, k: usize) -> (usize, usize) {
        let bit = k * self.count_bits;
        (3 * self.nw + bit / 64, bit % 64)
    }

    /// Copies `from`, a record of this shape, into the blank `to` of the
    /// longer chain `long`: the occupancy fields and the summary keep
    /// their places (a count keeps its word and shift, so the old count
    /// words are a prefix of the new ones), and the pairs move up.
    fn copy_into(self, long: Shape, from: &[u64], to: &mut [u64]) {
        to[..self.pairs].copy_from_slice(&from[..self.pairs]);
        let pairs = from.len() - self.pairs;
        to[long.pairs..long.pairs + pairs].copy_from_slice(&from[self.pairs..]);
    }
}

/// Positions of the set bits of `w`, ascending.
fn set_bits(w: u64) -> impl Iterator<Item = usize> {
    std::iter::successors((w != 0).then_some(w), |&w| {
        Some(w & (w - 1)).filter(|&rest| rest != 0)
    })
    .map(|w| w.trailing_zeros() as usize)
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

/// One interval's record (see the module docs) over its words, laid out
/// by the level's shape: borrowed from the level's store, or empty
/// for an interval never written, whose fields all read as zero.
#[derive(Debug)]
pub struct Record<W> {
    /// `lower | phys | (union | counts) | assigned[0] | held[0] | …`.
    words: W,
    shape: Shape,
}

impl<W: AsRef<[u64]>> Record<W> {
    /// Word `i` of `field`; zero for an interval never written.
    #[inline]
    pub fn word(&self, field: Field, i: usize) -> u64 {
        if field == Field::Union && !self.shape.summary {
            return (0..self.chain_len()).fold(0, |u, k| u | self.word(Field::Assigned(k), i));
        }
        self.words
            .as_ref()
            .get(self.shape.offset(field) + i)
            .copied()
            .unwrap_or(0)
    }

    /// Whether bit `bit` of `field` is set.
    pub fn test(&self, field: Field, bit: usize) -> bool {
        self.word(field, bit / 64) >> (bit % 64) & 1 == 1
    }

    /// Set bits of `field`, ascending.
    pub fn bits(&self, field: Field) -> impl Iterator<Item = usize> + '_ {
        (0..self.shape.nw).flat_map(move |i| set_bits(self.word(field, i)).map(move |b| i * 64 + b))
    }

    /// Number of set bits in `field`.
    pub fn count(&self, field: Field) -> u64 {
        (0..self.shape.nw)
            .map(|i| u64::from(self.word(field, i).count_ones()))
            .sum()
    }

    /// `count(Assigned(k))`: chain position `k`'s fulfilled slots here,
    /// read from one word of the summary.
    #[inline]
    pub fn assigned(&self, k: usize) -> u64 {
        if !self.shape.summary {
            return self.count(Field::Assigned(k));
        }
        let (word, shift) = self.shape.count_at(k);
        let w = self.words.as_ref().get(word).copied().unwrap_or(0);
        w >> shift & (u64::MAX >> (64 - self.shape.count_bits))
    }

    /// Chain positions the record has fields for (0 for an interval never
    /// written).
    pub fn chain_len(&self) -> usize {
        if self.words.as_ref().is_empty() {
            0
        } else {
            self.shape.chain
        }
    }

    /// Whether chain position `k` holds an empty fulfilled slot here.
    pub fn is_open(&self, k: usize) -> bool {
        (0..self.shape.nw).any(|i| self.open_word(k, i) != 0)
    }

    /// Word `i` of `assigned[k] & !held[k]`.
    fn open_word(&self, k: usize, i: usize) -> u64 {
        self.word(Field::Assigned(k), i) & !self.word(Field::Held(k), i)
    }

    /// Chain position whose `assigned` field has `bit` set, if any: the
    /// summary's union answers "none" without reading a pair.
    pub fn holder(&self, bit: usize) -> Option<usize> {
        if !self.test(Field::Union, bit) {
            return None;
        }
        (0..self.chain_len()).find(|&k| self.test(Field::Assigned(k), bit))
    }

    /// Whether word `i` of some `assigned` field has a bit of `lower`:
    /// read from the summary.
    fn stale(&self) -> bool {
        (0..self.shape.nw).any(|i| self.word(Field::Union, i) & self.word(Field::Lower, i) != 0)
    }

    /// `true` when every word is zero: the interval reads as one never
    /// written.
    pub fn is_zero(&self) -> bool {
        self.words.as_ref().iter().all(|&w| w == 0)
    }
}

impl Record<&mut [u64]> {
    /// Mutable word `i` of `field`.
    #[inline]
    fn word_mut(&mut self, field: Field, i: usize) -> &mut u64 {
        &mut self.words[self.shape.offset(field) + i]
    }

    /// Sets `bit` of an occupancy or `held` field (the summary follows
    /// `assigned` alone: see [`Self::add_assigned`]).
    fn set(&mut self, field: Field, bit: usize) {
        debug_assert!(!matches!(field, Field::Assigned(_) | Field::Union));
        *self.word_mut(field, bit / 64) |= 1 << (bit % 64);
    }

    /// Clears `bit` of an occupancy or `held` field.
    fn clear(&mut self, field: Field, bit: usize) {
        debug_assert!(!matches!(field, Field::Assigned(_) | Field::Union));
        *self.word_mut(field, bit / 64) &= !(1 << (bit % 64));
    }

    /// Adds `delta` to chain position `k`'s count.
    #[inline]
    fn count_by(&mut self, k: usize, delta: i64) {
        let (word, shift) = self.shape.count_at(k);
        let w = &mut self.words[word];
        *w = w.wrapping_add((delta as u64) << shift);
    }

    /// Assigns `bits`, none of them assigned, in word `i` to chain
    /// position `k`, keeping the summary exact. Every `assigned` bit that
    /// is set goes through here.
    #[inline]
    fn add_assigned(&mut self, k: usize, i: usize, bits: u64) {
        debug_assert_eq!(self.word(Field::Union, i) & bits, 0, "assigned twice");
        *self.word_mut(Field::Assigned(k), i) |= bits;
        if self.shape.summary {
            *self.word_mut(Field::Union, i) |= bits;
            self.count_by(k, i64::from(bits.count_ones()));
        }
    }

    /// Drops `bits`, all assigned to chain position `k`, from word `i`,
    /// keeping the summary exact. Every `assigned` bit that is cleared
    /// goes through here.
    #[inline]
    fn drop_assigned(&mut self, k: usize, i: usize, bits: u64) {
        debug_assert_eq!(self.word(Field::Assigned(k), i) & bits, bits);
        *self.word_mut(Field::Assigned(k), i) &= !bits;
        if self.shape.summary {
            *self.word_mut(Field::Union, i) &= !bits;
            self.count_by(k, -i64::from(bits.count_ones()));
        }
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
    /// Interval records, one run of `shape.width()` words per interval,
    /// indexed by `istart >> shift`.
    records: Paged<u64>,
    /// Job counts and open sets of the chain windows.
    windows: Windows,
    /// Largest window span ever inserted at this level (0 = level unused).
    high_water: u64,
    /// Interval span `L_ℓ` (a power of two; 1 at level 0, which has no
    /// interval machinery).
    ispan: u64,
    /// `log2 L_ℓ`.
    shift: u32,
    /// Where the records keep their fields.
    shape: Shape,
}

impl Level {
    /// Empty state for a level whose intervals span `ispan` slots.
    pub fn new(ispan: u64) -> Self {
        debug_assert!(ispan.is_power_of_two());
        let (shape, shift) = (Shape::new(ispan, 0), ispan.trailing_zeros());
        Level {
            records: Paged::over_slots(shift, shape.width()),
            windows: Windows::new(shift),
            high_water: 0,
            ispan,
            shift,
            shape,
        }
    }

    /// Interval span `L_ℓ`.
    pub fn ispan(&self) -> u64 {
        self.ispan
    }

    /// `log2 L_ℓ`.
    pub fn shift(&self) -> u32 {
        self.shift
    }

    /// Words per record field.
    pub fn nw(&self) -> usize {
        self.shape.nw
    }

    /// Largest window span ever inserted at this level (0 = unused).
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Raises the high-water mark to `span` if it is lower. A longer chain
    /// re-strides every record (the new counts and `assigned`/`held`
    /// pairs start empty) and opens the new positions' window stores.
    pub fn raise_high_water(&mut self, span: u64) {
        if span <= self.high_water {
            return;
        }
        self.high_water = span;
        let chain = self.chain_spans().count();
        if chain > self.chain_len() {
            let (short, long) = (self.shape, Shape::new(self.ispan, chain));
            (self.records).restride(long.width(), |from, to| short.copy_into(long, from, to));
            self.windows.lengthen(chain);
            self.shape = long;
        }
    }

    /// Chain length: the number of chain positions.
    pub fn chain_len(&self) -> usize {
        self.shape.chain
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
        (span.trailing_zeros() - self.shift - 1) as usize
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

    /// The record of the interval at `istart`.
    #[inline]
    pub fn rec(&self, istart: Slot) -> Record<&[u64]> {
        Record {
            words: self.records.get(istart >> self.shift).unwrap_or(&[]),
            shape: self.shape,
        }
    }

    /// Every interval whose record is not all zero, ascending.
    pub fn records(&self) -> impl Iterator<Item = (Slot, Record<&[u64]>)> + '_ {
        let shape = self.shape;
        self.records
            .iter()
            .map(move |(index, words)| (index << self.shift, Record { words, shape }))
            .filter(|(_, rec)| !rec.is_zero())
    }

    // ------------------------------------------------------------------
    // Window states
    // ------------------------------------------------------------------

    /// The job count `x` of the chain-position-`k` window around `istart`.
    #[inline]
    pub fn x_at(&self, k: usize, istart: Slot) -> u64 {
        self.windows.x(k, istart)
    }

    /// `window`'s job count `x` (0 for a window past the chain).
    pub fn x(&self, window: Window) -> u64 {
        let k = self.chain_pos(window.span());
        if k >= self.chain_len() {
            return 0;
        }
        self.windows.x(k, window.start())
    }

    /// Adds `delta` to `window`'s job count and returns the count before.
    /// The window's span must not exceed the high-water mark.
    pub fn add_x(&mut self, window: Window, delta: i32) -> u64 {
        self.windows
            .add_x(self.chain_pos(window.span()), window.start(), delta)
    }

    /// The open intervals of `window`, ascending.
    pub fn open_intervals(&self, window: Window) -> Vec<Slot> {
        let k = self.chain_pos(window.span());
        if k >= self.chain_len() {
            return Vec::new();
        }
        self.windows.open_starts(k, window.start()).collect()
    }

    /// Every window that keeps state — a job, or an empty fulfilled slot
    /// (a standing reservation) — with its count, sorted.
    pub fn window_states(&self) -> Vec<(Window, u64)> {
        let mut out: Vec<(Window, u64)> = (self.windows.live().into_iter())
            .map(|(k, start, x)| (Window::with_span(start, self.ispan << (k + 1)), x))
            .collect();
        out.sort_unstable();
        out
    }

    // ------------------------------------------------------------------
    // Occupancy bits
    // ------------------------------------------------------------------

    /// Sets `slot`'s bit in an occupancy field.
    pub fn set_occupancy(&mut self, field: Field, slot: Slot) {
        debug_assert!(matches!(field, Field::Lower | Field::Phys));
        let (bit, shape) = (self.bit_of(slot), self.shape);
        self.records.update(slot >> self.shift, |words| {
            let mut rec = Record { words, shape };
            debug_assert!(!rec.test(field, bit), "slot {slot} entered {field:?} twice");
            rec.set(field, bit);
        });
    }

    /// Clears `slot`'s bit in an occupancy field.
    pub fn clear_occupancy(&mut self, field: Field, slot: Slot) {
        debug_assert!(matches!(field, Field::Lower | Field::Phys));
        let (bit, shape) = (self.bit_of(slot), self.shape);
        self.records.update(slot >> self.shift, |words| {
            let mut rec = Record { words, shape };
            debug_assert!(rec.test(field, bit), "slot {slot} missing from {field:?}");
            rec.clear(field, bit);
        });
    }

    /// The leftmost slot of `window` (which lies inside one interval of
    /// this level) whose bit is set in `pick(lower, phys)`.
    pub fn leftmost_in(&self, window: Window, pick: impl Fn(u64, u64) -> u64) -> Option<Slot> {
        let istart = self.istart_of(window.start());
        debug_assert!(window.end() <= istart + self.ispan);
        let rec = self.rec(istart);
        let (lo, hi) = (self.bit_of(window.start()), self.bit_of(window.end() - 1));
        lowest_bit(lo, hi, |i| {
            pick(rec.word(Field::Lower, i), rec.word(Field::Phys, i))
        })
        .map(|bit| istart + bit as Slot)
    }

    // ------------------------------------------------------------------
    // Fulfilled-reservation bits (keep the windows' open sets exact)
    // ------------------------------------------------------------------

    /// Applies `edit` to the record of `slot`'s interval and brings
    /// `window`'s open set in line with the result.
    fn edit_reservation(
        &mut self,
        window: Window,
        slot: Slot,
        edit: impl FnOnce(&mut Record<&mut [u64]>, usize, usize),
    ) {
        let (k, bit, istart, shape) = (
            self.chain_pos(window.span()),
            self.bit_of(slot),
            self.istart_of(slot),
            self.shape,
        );
        let windows = &mut self.windows;
        self.records.update(istart >> self.shift, |words| {
            let mut rec = Record { words, shape };
            let was_open = rec.is_open(k);
            edit(&mut rec, k, bit);
            if rec.is_open(k) != was_open {
                windows.set_open(k, istart, !was_open);
            }
        });
    }

    /// Marks `slot` as a fulfilled (and job-free) reservation of `window`.
    pub fn assign(&mut self, window: Window, slot: Slot) {
        self.edit_reservation(window, slot, |rec, k, bit| {
            debug_assert!(rec.holder(bit).is_none(), "slot {slot} assigned twice");
            rec.add_assigned(k, bit / 64, 1 << (bit % 64));
        });
    }

    /// Drops `window`'s fulfilled reservation at `slot`, which must be
    /// free of the window's own jobs.
    pub fn unassign(&mut self, window: Window, slot: Slot) {
        self.edit_reservation(window, slot, |rec, k, bit| {
            debug_assert!(
                rec.test(Field::Assigned(k), bit) && !rec.test(Field::Held(k), bit),
                "removing occupied or absent slot {slot}"
            );
            rec.drop_assigned(k, bit / 64, 1 << (bit % 64));
        });
    }

    /// Records that a job of `window` now sits on its assigned `slot`.
    pub fn occupy(&mut self, window: Window, slot: Slot) {
        self.edit_reservation(window, slot, |rec, k, bit| {
            debug_assert!(
                rec.test(Field::Assigned(k), bit) && !rec.test(Field::Held(k), bit),
                "occupying unassigned or occupied slot {slot}"
            );
            rec.set(Field::Held(k), bit);
        });
    }

    /// Records that `window`'s job left its assigned `slot`.
    pub fn vacate(&mut self, window: Window, slot: Slot) {
        self.edit_reservation(window, slot, |rec, k, bit| {
            debug_assert!(
                rec.test(Field::Held(k), bit),
                "slot {slot} was not occupied"
            );
            rec.clear(Field::Held(k), bit);
        });
    }

    /// Moves the fulfilled reservation of chain position `k` at `from` to
    /// `to` (same interval), together with its job if `with_job`. The
    /// window's count of empty slots here is unchanged, so its open set
    /// is too.
    pub fn repoint(&mut self, k: usize, from: Slot, to: Slot, with_job: bool) {
        let istart = self.istart_of(from);
        debug_assert_eq!(istart, self.istart_of(to), "re-point across intervals");
        let (from, to, shape) = (self.bit_of(from), self.bit_of(to), self.shape);
        self.records.update(istart >> self.shift, |words| {
            let mut rec = Record { words, shape };
            debug_assert!(
                rec.test(Field::Assigned(k), from),
                "re-pointed slot is unassigned"
            );
            debug_assert!(rec.holder(to).is_none(), "re-point target is assigned");
            debug_assert_eq!(rec.test(Field::Held(k), from), with_job);
            rec.drop_assigned(k, from / 64, 1 << (from % 64));
            rec.add_assigned(k, to / 64, 1 << (to % 64));
            if with_job {
                rec.clear(Field::Held(k), from);
                rec.set(Field::Held(k), to);
            }
        });
    }

    /// Chain position holding a fulfilled reservation at `slot`, if any.
    pub fn holder(&self, slot: Slot) -> Option<usize> {
        self.rec(self.istart_of(slot)).holder(self.bit_of(slot))
    }

    /// An empty fulfilled slot of `window`: the leftmost physically free
    /// one, else the leftmost.
    pub fn pick_open_slot(&self, window: Window) -> Option<Slot> {
        let k = self.chain_pos(window.span());
        if k >= self.chain_len() {
            return None;
        }
        let top = self.ispan as usize - 1;
        let mut fallback = None;
        for istart in self.windows.open_starts(k, window.start()) {
            let rec = self.rec(istart);
            let free = |i| rec.open_word(k, i) & !rec.word(Field::Phys, i);
            if let Some(bit) = lowest_bit(0, top, free) {
                return Some(istart + bit as Slot);
            }
            if fallback.is_none() {
                fallback =
                    lowest_bit(0, top, |i| rec.open_word(k, i)).map(|bit| istart + bit as Slot);
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
    ///
    /// The record's summary decides which positions have anything to
    /// drop; only their `assigned`/`held` pairs are read.
    pub fn shed(
        &mut self,
        istart: Slot,
        first: usize,
        targets: &[(Window, u64)],
    ) -> Option<(usize, u64)> {
        let (shape, index) = (self.shape, istart >> self.shift);
        let rec = Record {
            words: self.records.get(index)?,
            shape,
        };
        let stale = rec.stale();
        let within = |k: usize, quota: u64| rec.assigned(k) <= quota;
        if !stale && (targets.iter().enumerate().skip(first)).all(|(k, &(_, q))| within(k, q)) {
            return None;
        }
        let windows = &mut self.windows;
        self.records.update(index, |words| {
            let mut rec = Record { words, shape };
            for (k, &(window, quota)) in targets.iter().enumerate().skip(first) {
                let lost = |rec: &Record<&mut [u64]>, i: usize| {
                    rec.word(Field::Assigned(k), i) & rec.word(Field::Lower, i)
                };
                let dropped: u64 = if stale {
                    (0..shape.nw)
                        .map(|i| u64::from(lost(&rec, i).count_ones()))
                        .sum()
                } else {
                    0
                };
                let mut excess = (rec.assigned(k) - dropped).saturating_sub(quota);
                if dropped == 0 && excess == 0 {
                    continue;
                }
                let was_open = rec.is_open(k);
                for i in 0..shape.nw {
                    debug_assert_eq!(
                        rec.word(Field::Lower, i) & rec.word(Field::Held(k), i),
                        0,
                        "lower-occupied slot still holds a job of {window}"
                    );
                    let gone = lost(&rec, i);
                    rec.drop_assigned(k, i, gone);
                    let mut open = rec.open_word(k, i);
                    while excess > 0 && open != 0 {
                        rec.drop_assigned(k, i, open & open.wrapping_neg());
                        open &= open - 1;
                        excess -= 1;
                    }
                }
                if was_open && !rec.is_open(k) {
                    windows.set_open(k, istart, false);
                }
                if excess > 0 {
                    return Some((k, excess));
                }
            }
            None
        })
    }

    /// The leftmost slot at or after bit `from` of the interval at
    /// `istart` that chain position `k`'s own job sits on.
    pub fn next_held(&self, istart: Slot, k: usize, from: usize) -> Option<Slot> {
        let rec = self.rec(istart);
        let top = self.ispan as usize - 1;
        lowest_bit(from.min(top + 1), top, |i| rec.word(Field::Held(k), i))
            .map(|bit| istart + bit as Slot)
    }

    /// Phase 2 for the interval at `istart`, which ends its rebalance: tops
    /// every chain window (`targets`, as for [`Self::shed`]) up to its
    /// quota. Slots come leftmost first, in chain order, from the free
    /// allowance `!(lower | phys | union)`; only when that runs out,
    /// from occupied-but-unassigned slots `phys & !(lower | union)`
    /// (assignment ≠ occupancy; PLACE displaces on use). The summary's
    /// counts say which windows are short; only their pairs are read.
    pub fn claim(&mut self, istart: Slot, targets: &[(Window, u64)]) {
        let (shape, valid, index) = (self.shape, self.valid_word(), istart >> self.shift);
        let satisfied = |rec: Record<&[u64]>| {
            (targets.iter().enumerate()).all(|(k, &(_, quota))| quota <= rec.assigned(k))
        };
        match self.records.get(index) {
            Some(words) if satisfied(Record { words, shape }) => return,
            None if targets.iter().all(|&(_, quota)| quota == 0) => return,
            _ => {}
        }
        let windows = &mut self.windows;
        self.records.update(index, |words| {
            let mut rec = Record { words, shape };
            for occupied in [false, true] {
                // The pool is consumed as a stream of words: a claimed bit
                // leaves `pool` as it enters `union`, so later windows
                // never see it again.
                let pool_word = |rec: &Record<&mut [u64]>, i: usize| {
                    let taken = rec.word(Field::Lower, i) | rec.word(Field::Union, i);
                    let phys = rec.word(Field::Phys, i);
                    !taken & valid & if occupied { phys } else { !phys }
                };
                let (mut i, mut pool) = (0, pool_word(&rec, 0));
                let mut short = false;
                for (k, &(_, quota)) in targets.iter().enumerate() {
                    let mut needed = quota.saturating_sub(rec.assigned(k));
                    if needed == 0 {
                        continue;
                    }
                    let was_open = rec.is_open(k);
                    while needed > 0 {
                        while pool == 0 && i + 1 < shape.nw {
                            i += 1;
                            pool = pool_word(&rec, i);
                        }
                        if pool == 0 {
                            break;
                        }
                        rec.add_assigned(k, i, pool & pool.wrapping_neg());
                        pool &= pool - 1;
                        needed -= 1;
                    }
                    if !was_open && rec.is_open(k) {
                        windows.set_open(k, istart, true);
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
        });
    }

    /// Releases every fulfilled reservation of windows without jobs and
    /// clears their states (see `ReservationScheduler::compact`).
    pub fn compact(&mut self) {
        let (shape, shift, windows) = (self.shape, self.shift, &self.windows);
        self.records.update_all(|index, words| {
            let mut rec = Record { words, shape };
            for k in 0..shape.chain {
                if windows.x(k, index << shift) == 0 {
                    for i in 0..shape.nw {
                        let assigned = rec.word(Field::Assigned(k), i);
                        rec.drop_assigned(k, i, assigned);
                    }
                }
            }
        });
        self.windows.drop_idle();
    }

    /// Pages held and bytes reserved by the level's stores.
    pub fn storage(&self) -> (usize, usize) {
        let (pages, bytes) = self.windows.storage();
        (pages + self.records.pages(), bytes + self.records.bytes())
    }

    /// Checks the pages of the level's stores (see [`Paged::check`]).
    pub fn check_storage(&self) -> Result<(), String> {
        self.records.check()?;
        self.windows.check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slots(l: &Level, istart: Slot, field: Field) -> Vec<Slot> {
        l.rec(istart)
            .bits(field)
            .map(|b| istart + b as Slot)
            .collect()
    }

    #[test]
    fn window_state_assignment_lifecycle() {
        let mut l = Level::new(32);
        l.raise_high_water(128);
        let w = Window::new(0, 64);
        l.assign(w, 10);
        l.assign(w, 40);
        assert_eq!(l.open_intervals(w), vec![0, 32]);
        l.occupy(w, 10);
        assert_eq!(l.open_intervals(w), vec![32]);
        assert_eq!(l.pick_open_slot(w), Some(40));
        l.vacate(w, 10);
        assert_eq!(l.open_intervals(w), vec![0, 32]);
        l.unassign(w, 10);
        // Phase 2 ends a rebalance; with nothing to claim it changes nothing.
        l.claim(0, &[(w, 0)]);
        assert_eq!(l.open_intervals(w), vec![32]);
        assert!(
            l.rec(0).is_zero(),
            "the emptied record reads as never written"
        );
        assert_eq!(slots(&l, 32, Field::Assigned(0)), vec![40]);
    }

    #[test]
    fn assigned_in_range_query() {
        // One window's assignments land in the record of the interval
        // each falls in, and read back ascending.
        let mut l = Level::new(8);
        l.raise_high_water(64);
        let w = Window::new(0, 64);
        for s in [32u64, 5, 31, 9, 12] {
            l.assign(w, s);
        }
        let k = l.chain_pos(64);
        assert_eq!(slots(&l, 8, Field::Assigned(k)), vec![9, 12]);
        assert_eq!(slots(&l, 24, Field::Assigned(k)), vec![31]);
        assert_eq!(l.open_intervals(w), vec![0, 8, 24, 32]);
        assert_eq!(l.holder(12), Some(k));
        assert_eq!(l.holder(13), None);
    }

    #[test]
    fn pick_prefers_physically_free_then_leftmost() {
        let mut l = Level::new(256);
        l.raise_high_water(1024);
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
        l.raise_high_water(64);
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
        assert!(l.open_intervals(w).is_empty());
        // Quota 0: the job's slot remains for the caller to MOVE off.
        assert_eq!(l.shed(0, 0, &[(w, 0)]), Some((0, 1)));
        assert_eq!(l.next_held(0, 0, 0), Some(5));
        assert_eq!(l.next_held(0, 0, 6), None);
    }

    #[test]
    fn claim_hands_out_free_slots_in_chain_order_then_occupied_ones() {
        let mut l = Level::new(4);
        l.raise_high_water(16);
        let (w8, w16) = (Window::new(0, 8), Window::new(0, 16));
        l.set_occupancy(Field::Phys, 0);
        l.set_occupancy(Field::Lower, 0);
        l.set_occupancy(Field::Phys, 2);
        // Allowance {1, 2, 3}; slot 2 is under a higher-level job.
        l.claim(0, &[(w8, 2), (w16, 1)]);
        assert_eq!(slots(&l, 0, Field::Assigned(0)), vec![1, 3]);
        assert_eq!(slots(&l, 0, Field::Assigned(1)), vec![2]);
        assert_eq!(l.open_intervals(w8), vec![0]);
        assert_eq!(l.open_intervals(w16), vec![0]);
        // Nothing to do: no state is touched.
        l.claim(4, &[(w8, 0), (w16, 0)]);
        assert!(l.rec(4).is_zero());
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
        l.raise_high_water(128);
        let (kept, dropped) = (Window::new(0, 64), Window::new(0, 128));
        l.assign(kept, 1);
        l.assign(dropped, 2);
        l.assign(dropped, 100);
        l.add_x(kept, 1);
        l.compact();
        assert_eq!(l.window_states(), vec![(kept, 1)]);
        assert_eq!(slots(&l, 0, Field::Assigned(0)), vec![1]);
        assert!(slots(&l, 0, Field::Assigned(1)).is_empty());
        assert!(l.rec(96).is_zero());
    }

    #[test]
    fn chain_spans_follow_high_water() {
        let mut l = Level::new(32);
        assert_eq!(l.chain_spans().count(), 0);
        l.raise_high_water(64);
        assert_eq!(l.chain_spans().collect::<Vec<_>>(), vec![64]);
        l.raise_high_water(256);
        assert_eq!(l.chain_spans().collect::<Vec<_>>(), vec![64, 128, 256]);
        assert_eq!(l.chain_pos(64), 0);
        assert_eq!(l.chain_pos(256), 2);
    }
}
