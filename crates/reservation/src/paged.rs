//! Index-addressed storage over the whole time axis.
//!
//! The scheduler's state is found by an index computed from a point of
//! the axis: a slot's occupant by the slot, an interval's record by
//! `istart >> log2 L_ℓ`, a window's job count by `start >> log2 span`.
//! The axis is `[0, 2^63)`, so the index space is too large for one
//! array but the part a workload touches is small and dense. A
//! [`Paged`] store keeps the indices near the origin in one array, its
//! *head*, and cuts the rest of the index space into small pages, held
//! only while they hold something.
//!
//! A workload that stays within the head (the benchmark's `2^16`-slot
//! horizon does) reads each value in one index, as from an array. Past
//! the head, a page is found through one hashed directory, once per
//! lookup.
//!
//! The head is allocated whole at the first write into it, its first run
//! on a 64-byte line (so a run as wide as a line is read in one). Past it, a
//! run equal to `T::default()` everywhere is *blank*: it reads the same
//! as a run never written. Every write goes through [`Paged::update`],
//! which keeps each page's count of non-blank runs, and a page whose
//! count falls to zero is freed at once. So a store's memory is its head
//! plus one page per place along the axis that holds something now,
//! however far apart those places are: a request that leaves nothing
//! behind leaves no page behind.

use fxhash::FxHashMap;

/// `log2` of the slots a store's head covers: the benchmark's horizon.
const HEAD_SPAN_BITS: u32 = 16;

/// `log2` of the slots a page past the head covers.
const PAGE_SPAN_BITS: u32 = 10;

/// A held page: its number and how many of its runs are not blank.
#[derive(Clone, Copy, Debug)]
struct Page {
    number: u64,
    live: u32,
}

/// A sparse array over `u64` indices of runs of `width` values each (see
/// the module docs). An index past the head whose page is not held reads
/// as absent, which means the same as a blank run.
#[derive(Debug)]
pub struct Paged<T> {
    /// `lead` unused values, then the runs of the indices below
    /// `2^head_bits`: all of them from the first write there on, none
    /// before.
    head: Vec<T>,
    /// The pages past the head, out of line: a lookup in the head reads
    /// only the store's 48-byte header and the run.
    tail: Box<Tail<T>>,
    /// Values per index.
    width: usize,
    /// Values in `head` before its first run, which starts on a 64-byte
    /// line wherever the allocation lets it.
    lead: u8,
    /// `log2` of the indices the head may hold.
    head_bits: u8,
    /// `log2` of the indices per page.
    bits: u8,
}

/// The pages of a [`Paged`] store past its head.
#[derive(Clone, Debug)]
struct Tail<T> {
    /// Every held page's runs, page after page in `pages` order.
    slab: Vec<T>,
    /// The held pages, by position.
    pages: Vec<Page>,
    /// Page number → position.
    table: FxHashMap<u64, u32>,
}

/// Whether `run` reads as never written.
#[inline]
fn is_blank<T: Default + PartialEq>(run: &[T]) -> bool {
    run.iter().all(|v| *v == T::default())
}

/// `len` blank values behind as few leading ones as put the first blank
/// value on a 64-byte line, with the number of leading ones (0 when no
/// number of `T`s reaches a line from where the allocation starts).
fn aligned_blank<T: Clone + Default>(len: usize) -> (Vec<T>, u8) {
    let size = std::mem::size_of::<T>();
    let spare = if size == 0 || 64 % size != 0 {
        0
    } else {
        64 / size - 1
    };
    let mut values: Vec<T> = Vec::with_capacity(len + spare);
    let at = values.as_ptr() as usize;
    let lead = (0..=spare)
        .find(|p| (at + p * size).is_multiple_of(64))
        .unwrap_or(0);
    values.resize(lead + len, T::default());
    (values, lead as u8)
}

/// Gives back most of `v`'s spare capacity once it is mostly spare.
fn shrink<T>(v: &mut Vec<T>) {
    if v.capacity() > 4 * v.len() {
        v.shrink_to(2 * v.len());
    }
}

impl<T: Clone + Default + PartialEq> Paged<T> {
    /// An empty store of `width` values per index over the time axis,
    /// each index naming `2^run_bits` slots: the head covers the first
    /// `2^16` slots, a page `2^10` (or one index, if that is more).
    pub fn over_slots(run_bits: u32, width: usize) -> Self {
        Self::new(
            HEAD_SPAN_BITS.saturating_sub(run_bits),
            PAGE_SPAN_BITS.saturating_sub(run_bits),
            width,
        )
    }

    /// An empty store of `width` values per index, holding the indices
    /// below `2^head_bits` in its head and the rest in pages of `2^bits`.
    fn new(head_bits: u32, bits: u32, width: usize) -> Self {
        assert!(bits <= head_bits, "no page reaches into the head");
        assert!(head_bits < 64, "the head is indexed below 2^64");
        Paged {
            head: Vec::new(),
            tail: Box::new(Tail {
                slab: Vec::new(),
                pages: Vec::new(),
                table: FxHashMap::default(),
            }),
            width,
            lead: 0,
            head_bits: head_bits as u8,
            bits: bits as u8,
        }
    }

    /// The head's runs, back to back (empty until the head is written).
    fn runs(&self) -> &[T] {
        &self.head[usize::from(self.lead)..]
    }

    /// Allocates the head, blank, its first run on a line.
    fn fill_head(&mut self) {
        (self.head, self.lead) = aligned_blank(self.width << self.head_bits);
    }

    /// Values per page.
    fn page_len(&self) -> usize {
        self.width << self.bits
    }

    /// Offset in the slab of `index`'s run, its page held at `pos`.
    #[inline]
    fn offset(&self, pos: usize, index: u64) -> usize {
        let within = (index & ((1 << self.bits) - 1)) as usize;
        ((pos << self.bits) + within) * self.width
    }

    /// Position of `index`'s page, if it is held.
    #[inline]
    fn page_of(&self, index: u64) -> Option<usize> {
        self.tail
            .table
            .get(&(index >> self.bits))
            .map(|&pos| pos as usize)
    }

    /// `index`'s run, if it is in the head and the head was written, or
    /// its page is held.
    #[inline]
    pub fn get(&self, index: u64) -> Option<&[T]> {
        if index >> self.head_bits == 0 {
            let at = usize::from(self.lead) + index as usize * self.width;
            return self.head.get(at..at + self.width);
        }
        let at = self.offset(self.page_of(index)?, index);
        Some(&self.tail.slab[at..at + self.width])
    }

    /// Applies `f` to `index`'s run and returns what it returns. Past the
    /// head, the page is allocated only if the run ends up not blank, and
    /// freed if its last non-blank run went blank.
    #[inline]
    pub fn update<R>(&mut self, index: u64, f: impl FnOnce(&mut [T]) -> R) -> R {
        if index >> self.head_bits == 0 {
            if self.head.is_empty() {
                self.fill_head();
            }
            let at = usize::from(self.lead) + index as usize * self.width;
            return f(&mut self.head[at..at + self.width]);
        }
        let Some(pos) = self.page_of(index) else {
            return self.update_absent(index, f);
        };
        let at = self.offset(pos, index);
        let run = &mut self.tail.slab[at..at + self.width];
        let was_blank = is_blank(run);
        let out = f(run);
        if was_blank != is_blank(run) {
            let live = &mut self.tail.pages[pos].live;
            if was_blank {
                *live += 1;
            } else {
                *live -= 1;
                if *live == 0 {
                    self.free(pos);
                }
            }
        }
        out
    }

    /// [`Self::update`] of an index past the head whose page is not held:
    /// `f` works on a blank run, which is stored only if `f` wrote to it.
    #[inline(never)]
    fn update_absent<R>(&mut self, index: u64, f: impl FnOnce(&mut [T]) -> R) -> R {
        let mut run = vec![T::default(); self.width];
        let out = f(&mut run);
        if !is_blank(&run) {
            let pos = self.tail.pages.len();
            let number = index >> self.bits;
            let filed = u32::try_from(pos).expect("page count fits u32");
            self.tail.table.insert(number, filed);
            self.tail.pages.push(Page { number, live: 1 });
            self.tail
                .slab
                .resize(self.tail.slab.len() + self.page_len(), T::default());
            let at = self.offset(pos, index);
            self.tail.slab[at..at + self.width].swap_with_slice(&mut run);
        }
        out
    }

    /// Frees the page at `pos`, all of it blank: the last page moves into
    /// its place, so the slab stays one run of held pages.
    fn free(&mut self, pos: usize) {
        let len = self.page_len();
        let last = self.tail.pages.len() - 1;
        self.tail.table.remove(&self.tail.pages[pos].number);
        if pos != last {
            let (head, tail) = self.tail.slab.split_at_mut(last * len);
            head[pos * len..(pos + 1) * len].swap_with_slice(tail);
            self.tail.pages.swap(pos, last);
            self.tail
                .table
                .insert(self.tail.pages[pos].number, pos as u32);
        }
        self.tail.pages.pop();
        self.tail.slab.truncate(last * len);
        shrink(&mut self.tail.slab);
        shrink(&mut self.tail.pages);
        if self.tail.table.capacity() > 4 * self.tail.table.len() {
            self.tail.table.shrink_to(2 * self.tail.table.len());
        }
    }

    /// Applies `f` to every run of the head and of every held page, with
    /// its index, then gives back the head if it is all blank, and the
    /// pages left blank.
    pub fn update_all(&mut self, mut f: impl FnMut(u64, &mut [T])) {
        let (len, width, bits) = (self.page_len(), self.width, self.bits);
        let runs = &mut self.head[usize::from(self.lead)..];
        for (index, run) in runs.chunks_exact_mut(width).enumerate() {
            f(index as u64, run);
        }
        if is_blank(runs) {
            (self.head, self.lead) = (Vec::new(), 0);
        }
        let pages = self
            .tail
            .pages
            .iter_mut()
            .zip(self.tail.slab.chunks_exact_mut(len));
        for (page, runs) in pages {
            page.live = 0;
            for (within, run) in runs.chunks_exact_mut(width).enumerate() {
                f((page.number << bits) + within as u64, run);
                page.live += u32::from(!is_blank(run));
            }
        }
        // Last first: a page moved into a freed place was already seen.
        for pos in (0..self.tail.pages.len()).rev() {
            if self.tail.pages[pos].live == 0 {
                self.free(pos);
            }
        }
    }

    /// Every index of the head, if it was written, and of every held page
    /// with its run (blank ones too), ascending.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[T])> + '_ {
        let head = (self.runs().chunks_exact(self.width).enumerate())
            .map(|(index, run)| (index as u64, run));
        let mut order: Vec<(u64, usize)> = (self.tail.pages.iter().enumerate())
            .map(|(pos, page)| (page.number, pos))
            .collect();
        order.sort_unstable();
        let per_page = 1u64 << self.bits;
        let paged = order.into_iter().flat_map(move |(page, pos)| {
            (0..per_page).map(move |within| {
                let index = (page << self.bits) + within;
                let at = self.offset(pos, index);
                (index, &self.tail.slab[at..at + self.width])
            })
        });
        head.chain(paged)
    }

    /// The same store with `width` values per index: each run becomes a
    /// blank run of the new width that `copy(old, new)` fills in. `copy`
    /// must leave the new run blank exactly when the old one was, so that
    /// every page keeps its count.
    pub fn restride(&mut self, width: usize, copy: impl Fn(&[T], &mut [T])) {
        let old = self.width;
        let restride = |from: &[T], to: &mut [T]| {
            for (run, wide) in from.chunks_exact(old).zip(to.chunks_exact_mut(width)) {
                copy(run, wide);
            }
        };
        self.width = width;
        if !self.head.is_empty() {
            let head = std::mem::take(&mut self.head);
            let runs = &head[usize::from(self.lead)..];
            self.fill_head();
            let lead = usize::from(self.lead);
            restride(runs, &mut self.head[lead..]);
        }
        let mut slab = vec![T::default(); self.tail.slab.len() / old * width];
        restride(&self.tail.slab, &mut slab);
        self.tail.slab = slab;
    }

    /// Number of held pages past the head.
    pub fn pages(&self) -> usize {
        self.tail.pages.len()
    }

    /// Bytes the store's head, slab and page list reserve.
    pub fn bytes(&self) -> usize {
        (self.head.capacity() + self.tail.slab.capacity()) * std::mem::size_of::<T>()
            + self.tail.pages.capacity() * std::mem::size_of::<Page>()
    }

    /// Checks that the head stays within its indices, that the page
    /// directory, the page list and the slab agree, and that every held
    /// page has exactly its counted number of non-blank runs, at least
    /// one.
    pub fn check(&self) -> Result<(), String> {
        let lead = usize::from(self.lead);
        if !(self.head.is_empty() && lead == 0 || self.runs().len() == self.width << self.head_bits)
        {
            return Err(format!("head of {} values after {lead}", self.head.len()));
        }
        if self.tail.slab.len() != self.tail.pages.len() * self.page_len()
            || self.tail.table.len() != self.tail.pages.len()
        {
            return Err(format!(
                "slab of {} values, {} pages of {} held, {} filed",
                self.tail.slab.len(),
                self.tail.pages.len(),
                self.page_len(),
                self.tail.table.len()
            ));
        }
        let runs = self.tail.slab.chunks_exact(self.page_len());
        for (pos, (page, runs)) in self.tail.pages.iter().zip(runs).enumerate() {
            if self.page_of(page.number << self.bits) != Some(pos)
                || page.number << self.bits >> self.head_bits == 0
            {
                return Err(format!("page {} is misfiled", page.number));
            }
            let live = runs
                .chunks_exact(self.width)
                .filter(|run| !is_blank(run))
                .count();
            if live == 0 || live != page.live as usize {
                return Err(format!(
                    "page {}: {live} non-blank runs, {} counted",
                    page.number, page.live
                ));
            }
        }
        Ok(())
    }
}

impl<T: Clone + Default + PartialEq> Clone for Paged<T> {
    /// A copy whose head starts its first run on a line of its own
    /// allocation, as the original's does.
    fn clone(&self) -> Self {
        let mut copy = Paged {
            head: Vec::new(),
            tail: self.tail.clone(),
            width: self.width,
            lead: 0,
            head_bits: self.head_bits,
            bits: self.bits,
        };
        if !self.head.is_empty() {
            copy.fill_head();
            let lead = usize::from(copy.lead);
            copy.head[lead..].clone_from_slice(self.runs());
        }
        copy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(p: &mut Paged<u64>, index: u64, value: u64) {
        p.update(index, |run| run[0] = value);
    }

    #[test]
    fn the_head_and_the_pages_hold_their_own_runs() {
        let mut p: Paged<u64> = Paged::new(6, 4, 2);
        let far = (1u64 << 62) + 5;
        assert!(p.get(3).is_none() && p.get(far).is_none());
        p.update(3, |run| run[1] = 7);
        set(&mut p, far, 9);
        set(&mut p, 1 << 20, 11);
        assert_eq!(p.get(3), Some(&[0, 7][..]));
        assert_eq!(p.get(far), Some(&[9, 0][..]));
        assert_eq!(p.get(63), Some(&[0, 0][..]), "the head reads as defaults");
        assert_eq!(
            p.get(far + 1),
            Some(&[0, 0][..]),
            "a held page reads as defaults"
        );
        assert!(p.get(64).is_none(), "the first page was never written");
        let written: Vec<(u64, u64)> = p
            .iter()
            .filter(|(_, run)| !is_blank(run))
            .map(|(i, run)| (i, run[0] + run[1]))
            .collect();
        assert_eq!(written, vec![(3, 7), (1 << 20, 11), (far, 9)]);
        p.restride(3, |old, new| new[1..].copy_from_slice(old));
        assert_eq!(p.get(3), Some(&[0, 0, 7][..]));
        assert_eq!(p.get(far), Some(&[0, 9, 0][..]));
        p.check().unwrap();
    }

    #[test]
    fn the_head_starts_on_a_line_in_every_copy() {
        let on_line = |p: &Paged<u64>| (p.get(0).unwrap().as_ptr() as usize).is_multiple_of(64);
        let mut p: Paged<u64> = Paged::new(6, 4, 8);
        p.update(5, |run| run[3] = 1);
        assert!(on_line(&p));
        let copies: Vec<Paged<u64>> = (0..8).map(|_| p.clone()).collect();
        for copy in &copies {
            assert!(on_line(copy));
            assert_eq!(copy.get(5), p.get(5));
            copy.check().unwrap();
        }
        p.restride(16, |old, new| new[..8].copy_from_slice(old));
        assert!(on_line(&p));
        assert_eq!(p.get(5).unwrap()[3], 1);
    }

    #[test]
    fn the_header_fits_its_comment() {
        assert_eq!(std::mem::size_of::<Paged<u64>>(), 48);
    }

    #[test]
    fn a_write_that_leaves_a_run_blank_holds_no_page() {
        let mut p: Paged<u64> = Paged::new(4, 4, 1);
        assert_eq!(p.update(40, |run| run[0]), 0);
        p.update(41, |run| run[0] = 0);
        assert_eq!((p.pages(), p.bytes()), (0, 0));
    }

    #[test]
    fn pages_are_freed_when_their_last_run_goes_blank() {
        let mut p: Paged<u64> = Paged::new(4, 4, 1);
        set(&mut p, 1, 1);
        set(&mut p, 40, 1);
        let baseline = (p.pages(), p.bytes());
        // Pages come and go, one at a time and in a burst.
        let spots: Vec<u64> = (1..1000).map(|k| k * (1 << 20) + k % 16).collect();
        for &i in &spots {
            set(&mut p, i, 5);
            set(&mut p, i + 1, 6);
            set(&mut p, i, 0);
            assert_eq!(p.pages(), 2);
            set(&mut p, i + 1, 0);
        }
        assert_eq!(p.pages(), baseline.0);
        assert!(p.bytes() <= 4 * baseline.1);
        for &i in &spots {
            set(&mut p, i, 5);
        }
        p.check().unwrap();
        assert_eq!(p.pages(), 1000);
        // Freed in an order that moves pages around the slab.
        for (n, &i) in spots.iter().enumerate().rev().step_by(2) {
            set(&mut p, i, 0);
            if let Some(&kept) = spots.get(n + 1) {
                assert_eq!(p.get(kept), Some(&[5][..]));
            }
        }
        p.update_all(|_, run| run[0] = 0);
        p.check().unwrap();
        assert_eq!((p.pages(), p.bytes()), (0, 0), "blank: nothing held");
        assert!(p.get(1).is_none());
    }
}
