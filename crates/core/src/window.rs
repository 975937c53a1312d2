//! Job windows, spans, and the alignment machinery of paper §2 and §5.
//!
//! A window `W = [start, end]` is the set of slots `start..end`; its *span*
//! is `end − start` (the paper writes `|W| = d_j − a_j`). A window is
//! *aligned* if its span is a power of two and its start is a multiple of its
//! span. A set of aligned windows is laminar: any two are disjoint or nested.
//!
//! `ALIGNED(W)` (paper §5) is a largest aligned window contained in `W`; it
//! always has span `≥ |W|/4`, which is what makes the unaligned→aligned
//! reduction lose only a constant factor of underallocation (Lemma 10).

use crate::{JobId, Slot, Time};
use std::fmt;
use std::ops::Range;

/// Sorts a whole active set into the one order every rebuild re-places
/// it in: ascending window span, then start, then id. `job` projects an
/// element onto its id and the window it is re-placed under.
///
/// Shorter windows first never displace anything, so the rebuild itself
/// is cascade-free — the order with the strongest acceptance guarantee
/// for the reservation schedulers. Start, then id, make the order total
/// and deterministic: a rebuild is a function of the set, not of the
/// hash-map order it was gathered in, so a replica or a restored engine
/// re-places it the same way. Equal-span aligned windows are equal or
/// disjoint, and disjoint ones commute: how the distinct windows of one
/// span interleave does not change the schedule the reservation
/// scheduler builds, while the jobs of one window trade slots with
/// their order, which the id tie-break fixes (pinned by the reservation
/// crate's property tests).
pub fn sort_for_rebuild<T>(jobs: &mut [T], job: impl Fn(&T) -> (JobId, Window)) {
    jobs.sort_unstable_by_key(|item| {
        let (id, window) = job(item);
        (window.span(), window.start(), id)
    });
}

/// A half-open window of timeslots `[start, end)` in slot terms.
///
/// Constructed from the paper's inclusive endpoint pair `[a_j, d_j]` with
/// `d_j > a_j`: the job must occupy one of the slots `a_j, …, d_j − 1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Window {
    start: Time,
    end: Time,
}

impl fmt::Debug for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

impl fmt::Display for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

impl Window {
    /// Creates the window of slots `start..end`.
    ///
    /// # Panics
    ///
    /// Panics if `end <= start` (a job needs at least one slot).
    pub fn new(start: Time, end: Time) -> Self {
        assert!(end > start, "window [{start}, {end}) is empty");
        Window { start, end }
    }

    /// The window containing exactly the slots `start .. start + span`.
    pub fn with_span(start: Time, span: u64) -> Self {
        assert!(span > 0, "window span must be positive");
        Window {
            start,
            end: start
                .checked_add(span)
                .expect("window end overflows the time axis"),
        }
    }

    /// First slot of the window (the paper's arrival time `a_j`).
    pub fn start(&self) -> Time {
        self.start
    }

    /// One past the last slot (the paper's deadline `d_j`).
    pub fn end(&self) -> Time {
        self.end
    }

    /// Number of slots in the window — the paper's span `|W| = d_j − a_j`.
    pub fn span(&self) -> u64 {
        self.end - self.start
    }

    /// Iterator over the slots of the window.
    pub fn slots(&self) -> Range<Slot> {
        self.start..self.end
    }

    /// Does this window contain slot `s`?
    pub fn contains_slot(&self, s: Slot) -> bool {
        self.start <= s && s < self.end
    }

    /// Is `other` fully contained in `self`?
    pub fn contains(&self, other: &Window) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// Do the two windows share at least one slot?
    pub fn overlaps(&self, other: &Window) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Alignment predicate of paper §2: span is `2^i` and start is a
    /// multiple of `2^i`.
    pub fn is_aligned(&self) -> bool {
        let span = self.span();
        span.is_power_of_two() && self.start.is_multiple_of(span)
    }

    /// `ALIGNED(W)`: the *leftmost largest* aligned window contained in `W`
    /// (paper §5). Guaranteed to have span `≥ |W|/4`.
    ///
    /// The paper allows an arbitrary choice among largest aligned
    /// subwindows; we deterministically pick the leftmost so that the
    /// reduction (and therefore every downstream placement) is reproducible.
    pub fn aligned_subwindow(&self) -> Window {
        // Largest i such that some multiple t·2^i has [t·2^i, (t+1)·2^i) ⊆ W.
        let max_i = 63 - self.span().leading_zeros(); // floor(log2(span))
        for i in (0..=max_i).rev() {
            let p = 1u64 << i;
            // Smallest multiple of p that is >= start. start+p-1 cannot
            // overflow in practice because p <= span <= end - start and
            // Window::new checked end's validity; still use checked math.
            let t = match self.start.checked_add(p - 1) {
                Some(v) => (v / p) * p,
                None => continue,
            };
            if let Some(e) = t.checked_add(p) {
                if e <= self.end {
                    return Window { start: t, end: e };
                }
            }
        }
        // i = 0 always succeeds: any single slot is aligned.
        unreachable!("a window always contains an aligned span-1 window")
    }

    /// The aligned window of span `span` (a power of two) containing slot `s`.
    pub fn aligned_enclosing(s: Slot, span: u64) -> Window {
        debug_assert!(span.is_power_of_two());
        // A mask, not `s % span`: this runs once per chain window of every
        // rebalance, and `span` is not a compile-time constant.
        let start = s & !(span - 1);
        Window {
            start,
            end: start + span,
        }
    }

    /// For an aligned window, the aligned parent of twice the span.
    /// Returns `None` if the parent would overflow the time axis.
    pub fn aligned_parent(&self) -> Option<Window> {
        debug_assert!(self.is_aligned());
        let span = self.span().checked_mul(2)?;
        let start = self.start - (self.start % span);
        let end = start.checked_add(span)?;
        Some(Window { start, end })
    }

    /// Trims an **aligned** window to span at most `max_span` (a power of
    /// two), keeping the leftmost aligned subwindow. Used by the `n*`
    /// trimming rule of paper §4 ("Trimming Windows to n").
    pub fn trim_to(&self, max_span: u64) -> Window {
        debug_assert!(self.is_aligned());
        debug_assert!(max_span.is_power_of_two());
        if self.span() <= max_span {
            *self
        } else {
            // start is a multiple of span > max_span, hence of max_span.
            Window {
                start: self.start,
                end: self.start + max_span,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_counts_slots() {
        let w = Window::new(3, 7);
        assert_eq!(w.span(), 4);
        assert_eq!(w.slots().collect::<Vec<_>>(), vec![3, 4, 5, 6]);
        assert!(w.contains_slot(3));
        assert!(w.contains_slot(6));
        assert!(!w.contains_slot(7));
    }

    #[test]
    #[should_panic]
    fn empty_window_rejected() {
        let _ = Window::new(5, 5);
    }

    #[test]
    fn alignment_predicate() {
        assert!(Window::new(0, 8).is_aligned());
        assert!(Window::new(8, 16).is_aligned());
        assert!(Window::new(4, 8).is_aligned());
        assert!(Window::new(5, 6).is_aligned()); // span 1, any start
        assert!(!Window::new(4, 12).is_aligned()); // span 8, start 4
        assert!(!Window::new(0, 6).is_aligned()); // span 6 not a power of 2
    }

    #[test]
    fn aligned_windows_are_laminar() {
        // Two aligned windows are equal, disjoint, or nested (paper §2).
        let spans = [1u64, 2, 4, 8, 16];
        let mut windows = vec![];
        for &sp in &spans {
            for start in (0..32).step_by(sp as usize) {
                windows.push(Window::with_span(start, sp));
            }
        }
        for a in &windows {
            for b in &windows {
                let laminar = !a.overlaps(b) || a.contains(b) || b.contains(a);
                assert!(laminar, "{a:?} vs {b:?} not laminar");
            }
        }
    }

    #[test]
    fn aligned_subwindow_is_aligned_and_large() {
        for start in 0..40u64 {
            for span in 1..50u64 {
                let w = Window::with_span(start, span);
                let a = w.aligned_subwindow();
                assert!(a.is_aligned(), "{w:?} -> {a:?}");
                assert!(w.contains(&a), "{w:?} -> {a:?}");
                // Paper §5: |ALIGNED(W)| >= |W|/4.
                assert!(
                    a.span() * 4 >= w.span(),
                    "{w:?} -> {a:?}: span {} < {}/4",
                    a.span(),
                    w.span()
                );
            }
        }
    }

    #[test]
    fn aligned_subwindow_of_aligned_is_identity() {
        for i in 0..10u32 {
            let w = Window::with_span(3 << i, 1 << i);
            if w.is_aligned() {
                assert_eq!(w.aligned_subwindow(), w);
            }
        }
        let w = Window::new(0, 16);
        assert_eq!(w.aligned_subwindow(), w);
    }

    #[test]
    fn aligned_subwindow_leftmost() {
        // [1, 9) has span 8; the largest aligned subwindows are [2,4), [4,6),
        // [4, 8), etc. The largest possible span is 4 -> [4, 8).
        let w = Window::new(1, 9);
        let a = w.aligned_subwindow();
        assert_eq!(a, Window::new(4, 8));
    }

    #[test]
    fn aligned_enclosing_and_parent() {
        let w = Window::aligned_enclosing(13, 8);
        assert_eq!(w, Window::new(8, 16));
        assert_eq!(w.aligned_parent(), Some(Window::new(0, 16)));
        assert_eq!(
            Window::new(16, 32).aligned_parent(),
            Some(Window::new(0, 32))
        );
    }

    #[test]
    fn trim_keeps_left() {
        let w = Window::new(32, 64); // aligned, span 32
        assert_eq!(w.trim_to(8), Window::new(32, 40));
        assert_eq!(w.trim_to(32), w);
        assert_eq!(w.trim_to(64), w);
    }

    #[test]
    fn trim_result_is_aligned() {
        for i in 0..6u32 {
            for k in 0..8u64 {
                let w = Window::with_span(k << 6, 1 << 6);
                let t = w.trim_to(1 << i);
                assert!(t.is_aligned());
                assert!(w.contains(&t));
                assert_eq!(t.span(), 1 << i);
            }
        }
    }
}
