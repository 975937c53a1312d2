//! Pure reservation/fulfillment mathematics (paper §4, Invariant 5 and
//! Observation 7).
//!
//! Invariant 5 fixes, for a level-ℓ window `W` with `x` jobs and `2^k`
//! enclosed intervals, exactly how many reservations `W` holds in each
//! interval: `2x + 2^k` in total, spread round-robin so that the interval at
//! position `i` holds
//!
//! ```text
//! c(i, x) = 1 + ⌊2x / 2^k⌋ + [ i < (2x mod 2^k) ]
//! ```
//!
//! (the `1` is the window's standing per-interval reservation, the rest are
//! the two-per-job reservations, biased toward the leftmost intervals).
//!
//! Observation 7 then says *which* reservations an interval fulfills is
//! history independent: the interval sorts reservations by window span
//! (shortest first) and fulfills the longest prefix that fits in its
//! *allowance* (slots not occupied by lower-level jobs). We exploit this
//! directly: fulfillment is a pure function ([`fulfilled_quotas`]) of the
//! per-window job counts and the allowance, and the scheduler's only mutable
//! state is which concrete slots back each fulfilled reservation.
//!
//! Deviation from the paper (documented in DESIGN.md): windows with zero
//! active jobs contribute no standing reservations here. Dropping them can
//! only *increase* the fulfilled counts of active windows (priority is by
//! span, so an absent short window frees capacity for longer ones), hence
//! every lower bound the analysis needs — in particular Lemma 8's
//! "`x` jobs ⇒ `≥ x+1` fulfilled" — still holds, and fulfillment remains a
//! pure function of the visible state.

/// Number of reservations window `W` holds in its interval at round-robin
/// position `pos` (Invariant 5), when `W` has `x` jobs and `num_intervals`
/// (`= 2^k`) enclosed intervals.
pub fn reservation_count(x: u64, num_intervals: u64, pos: u64) -> u64 {
    debug_assert!(num_intervals.is_power_of_two());
    debug_assert!(pos < num_intervals);
    // `num_intervals` is a power of two and this runs once per chain
    // window of every rebalance: shift and mask, not divide.
    let two_x = 2 * x;
    1 + (two_x >> num_intervals.trailing_zeros()) + u64::from(pos < two_x & (num_intervals - 1))
}

/// The two round-robin positions whose reservation count *increases* when
/// `x` grows to `x + 1` (the paper's "two new reservations … sent to the
/// leftmost intervals that have the least number of `W`'s reservations").
pub fn positions_gained(x_old: u64, num_intervals: u64) -> [u64; 2] {
    debug_assert!(num_intervals >= 2);
    let r = (2 * x_old) % num_intervals;
    // 2x is even and num_intervals is a power of two ≥ 2, so r ≤ n−2 and
    // both r and r+1 are valid positions.
    [r, r + 1]
}

/// The two positions whose count *decreases* when `x` shrinks to `x − 1`
/// (the paper's "removes one reservation each from the two rightmost
/// intervals that have the most reservations").
pub fn positions_lost(x_old: u64, num_intervals: u64) -> [u64; 2] {
    debug_assert!(x_old >= 1);
    debug_assert!(num_intervals >= 2);
    let r = (2 * x_old) % num_intervals;
    if r >= 2 {
        [r - 2, r - 1]
    } else {
        // r == 0: the previous round-robin lap ended exactly at the right
        // edge; the two rightmost intervals give up a reservation.
        [num_intervals - 2, num_intervals - 1]
    }
}

/// One window's reservation demand at a given interval, as input to
/// [`fulfilled_quotas`]. Windows must be supplied in increasing span order
/// (the chain of windows containing one interval is totally ordered by
/// span — aligned windows are laminar).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Demand {
    /// The window's span (for the shortest-first priority; also a sanity
    /// check that the chain is sorted).
    pub span: u64,
    /// `c(pos, x)` — reservations this window holds in this interval.
    pub reservations: u64,
}

/// The interval's fulfillment rule (Observation 7): fulfill reservations
/// shortest-window-first until the allowance is exhausted. Returns the
/// fulfilled quota for each demand, in the same order.
pub fn fulfilled_quotas(demands: &[Demand], allowance: u64) -> Vec<u64> {
    let mut out = Vec::with_capacity(demands.len());
    fulfilled_quotas_into(demands, allowance, &mut out);
    out
}

/// Allocation-free variant of [`fulfilled_quotas`]: clears `out` and
/// writes the fulfilled quota of each demand into it, reusing the
/// buffer's capacity. This is the form the scheduler's rebalance hot path
/// uses (it recomputes quotas on every affected interval of every
/// request).
pub fn fulfilled_quotas_into(demands: &[Demand], allowance: u64, out: &mut Vec<u64>) {
    debug_assert!(
        demands.windows(2).all(|p| p[0].span < p[1].span),
        "demands must be strictly increasing in span"
    );
    out.clear();
    let mut remaining = allowance;
    out.extend(demands.iter().map(|d| {
        let f = d.reservations.min(remaining);
        remaining -= f;
        f
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_sum_to_invariant_5_total() {
        // Invariant 5: total reservations = 2x + 2^k.
        for k in 1..6u32 {
            let n = 1u64 << k;
            for x in 0..40u64 {
                let total: u64 = (0..n).map(|p| reservation_count(x, n, p)).sum();
                assert_eq!(total, 2 * x + n, "x={x}, 2^k={n}");
            }
        }
    }

    #[test]
    fn counts_leftmost_heavy_two_values() {
        // Each interval holds ⌊2x/2^k⌋+1 or +2, leftmost heaviest.
        for x in 0..20u64 {
            let n = 8u64;
            let base = 2 * x / n + 1;
            let mut prev = u64::MAX;
            for p in 0..n {
                let c = reservation_count(x, n, p);
                assert!(c == base || c == base + 1);
                assert!(c <= prev, "counts must be non-increasing left to right");
                prev = c;
            }
        }
    }

    #[test]
    fn gained_positions_match_count_diff() {
        for n in [2u64, 4, 8, 16] {
            for x in 0..30u64 {
                let gained = positions_gained(x, n);
                for p in 0..n {
                    let diff = reservation_count(x + 1, n, p) - reservation_count(x, n, p);
                    let expected = u64::from(gained.contains(&p));
                    assert_eq!(diff, expected, "n={n} x={x} p={p}");
                }
            }
        }
    }

    #[test]
    fn lost_positions_match_count_diff() {
        for n in [2u64, 4, 8, 16] {
            for x in 1..30u64 {
                let lost = positions_lost(x, n);
                for p in 0..n {
                    let diff = reservation_count(x, n, p) - reservation_count(x - 1, n, p);
                    let expected = u64::from(lost.contains(&p));
                    assert_eq!(diff, expected, "n={n} x={x} p={p}");
                }
            }
        }
    }

    #[test]
    fn gain_then_lose_roundtrips() {
        for n in [2u64, 4, 8] {
            for x in 0..10u64 {
                let g = positions_gained(x, n);
                let l = positions_lost(x + 1, n);
                assert_eq!(g, l, "insert then delete must touch the same slots");
            }
        }
    }

    #[test]
    fn quota_priority_shortest_first() {
        let demands = [
            Demand {
                span: 4,
                reservations: 3,
            },
            Demand {
                span: 8,
                reservations: 2,
            },
            Demand {
                span: 16,
                reservations: 4,
            },
        ];
        assert_eq!(fulfilled_quotas(&demands, 9), vec![3, 2, 4]);
        assert_eq!(fulfilled_quotas(&demands, 6), vec![3, 2, 1]);
        assert_eq!(fulfilled_quotas(&demands, 4), vec![3, 1, 0]);
        assert_eq!(fulfilled_quotas(&demands, 0), vec![0, 0, 0]);
    }

    #[test]
    fn quota_total_bounded_by_allowance() {
        let demands = [
            Demand {
                span: 2,
                reservations: 5,
            },
            Demand {
                span: 4,
                reservations: 5,
            },
        ];
        for a in 0..12u64 {
            let q = fulfilled_quotas(&demands, a);
            assert!(q.iter().sum::<u64>() <= a);
            assert_eq!(q.iter().sum::<u64>(), a.min(10));
        }
    }
}
