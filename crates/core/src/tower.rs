//! The level thresholds of paper §4 ("Interval Decomposition") and `log*`.
//!
//! The reservation scheduler partitions window spans into *levels*:
//!
//! ```text
//! L_{ℓ+1} = 2^5        if ℓ = 0
//!           2^{L_ℓ/4}  if ℓ > 0
//! ```
//!
//! so `L₁ = 32`, `L₂ = 256`, `L₃ = 2⁶⁴` — a tower of `4√2` that reaches any
//! fixed span in `O(log* Δ)` steps. A *level-ℓ* window has span
//! `L_ℓ < |W| ≤ L_{ℓ+1}`; level-ℓ windows are partitioned into *level-ℓ
//! intervals* of `L_ℓ` slots (note `L_ℓ = 4·lg L_{ℓ+1}`, which is exactly
//! what Lemma 8's counting needs). Spans `≤ L₁` form the base level 0, where
//! the naive cascade of Lemma 4 costs only `O(lg L₁) = O(1)`.
//!
//! Because the time axis is `u64`, the paper tower has at most three
//! populated levels; [`Tower::custom`] lets tests and ablations use slower
//! ladders that exercise deeper recursions with small spans.

/// Base-2 iterated logarithm: the number of times `lg` must be applied to
/// `n` before the value drops to `≤ 1`.
///
/// `log_star(1) = 0`, `log_star(2) = 1`, `log_star(4) = 2`,
/// `log_star(16) = 3`, `log_star(65536) = 4`, `log_star(2^64 - 1) = 5`.
pub fn log_star(mut n: u64) -> u32 {
    let mut k = 0;
    while n > 1 {
        n = 64 - u64::from(n.leading_zeros()) - u64::from(n.is_power_of_two());
        // n is now floor(lg n_old) for non-powers, lg n_old for powers.
        k += 1;
    }
    k
}

/// Largest explicit threshold a [`Tower`] accepts. Thresholds are the
/// interval spans of the reservation scheduler, whose per-interval state
/// is dense in the span (one bit per slot, per field), so a threshold
/// read from untrusted snapshot text must not size an allocation
/// unchecked. Nothing in the paper needs more: its `L₂` is 256, and the
/// implicit top level above the last threshold is never an interval span.
pub const MAX_THRESHOLD: u64 = 1 << 16;

/// A ladder of span thresholds `L₁ < L₂ < …` defining the scheduler levels.
///
/// Level 0 handles spans `≤ L₁`; level `ℓ ≥ 1` handles spans
/// `L_ℓ < |W| ≤ L_{ℓ+1}` with intervals of `L_ℓ` slots; spans above the last
/// threshold belong to the final level, whose interval span is the last
/// threshold (the paper's `L₃ = 2⁶⁴` exceeds the `u64` time axis, so the
/// final level is effectively unbounded).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tower {
    /// `thresholds[ℓ] = L_{ℓ+1}`; strictly increasing powers of two.
    thresholds: Vec<u64>,
}

impl Tower {
    /// The paper's tower: `L₁ = 32`, `L₂ = 256` (and `L₃ = 2⁶⁴`, which
    /// saturates the `u64` axis and is represented implicitly).
    pub fn paper() -> Self {
        Tower {
            thresholds: vec![32, 256],
        }
    }

    /// A custom ladder for tests and ablations.
    ///
    /// # Panics
    ///
    /// Panics where [`Tower::try_custom`] errors.
    pub fn custom(thresholds: Vec<u64>) -> Self {
        Self::try_custom(thresholds).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A custom ladder from thresholds that may come from outside the
    /// program (snapshot text). They must be strictly increasing powers
    /// of two no larger than [`MAX_THRESHOLD`], with at least one entry
    /// and first entry `≥ 2`, and each step at least doubling (so every
    /// level contains at least one window span).
    pub fn try_custom(thresholds: Vec<u64>) -> Result<Self, String> {
        if thresholds.is_empty() {
            return Err("tower needs at least one threshold".to_string());
        }
        let mut prev = 1u64;
        for &t in &thresholds {
            if !t.is_power_of_two() {
                return Err(format!("tower threshold {t} is not a power of two"));
            }
            // Checked before the doubling test, which it keeps from
            // overflowing on a forged 2^63.
            if t > MAX_THRESHOLD {
                return Err(format!(
                    "tower threshold {t} exceeds MAX_THRESHOLD {MAX_THRESHOLD}"
                ));
            }
            if t < 2 * prev {
                return Err(format!(
                    "tower thresholds must at least double: {prev} -> {t}"
                ));
            }
            prev = t;
        }
        Ok(Tower { thresholds })
    }

    /// The thresholds `L₁, L₂, …` of this tower.
    pub fn thresholds(&self) -> &[u64] {
        &self.thresholds
    }

    /// The level responsible for windows of span `span`: the number of
    /// thresholds strictly below `span`.
    pub fn level_of(&self, span: u64) -> usize {
        debug_assert!(span >= 1);
        self.thresholds.iter().take_while(|&&t| t < span).count()
    }

    /// The interval span `L_ℓ` used by level `ℓ ≥ 1`. Level 0 has no
    /// interval machinery (its spans are at most `L₁` and are handled by the
    /// constant-cost base cascade).
    pub fn interval_span(&self, level: usize) -> u64 {
        debug_assert!(level >= 1, "level 0 has no intervals");
        self.thresholds[level - 1]
    }

    /// Largest window span handled by `level`, or `None` when the level is
    /// the unbounded top level.
    pub fn max_span_of_level(&self, level: usize) -> Option<u64> {
        self.thresholds.get(level).copied()
    }

    /// Number of levels needed for windows of span up to `max_span`
    /// (i.e. `level_of(max_span) + 1`). This is the paper's `O(log* Δ)`.
    pub fn levels_for(&self, max_span: u64) -> usize {
        self.level_of(max_span) + 1
    }

    /// Total number of distinct levels this tower can ever populate
    /// (including the unbounded top level).
    pub fn max_levels(&self) -> usize {
        self.thresholds.len() + 1
    }
}

impl Default for Tower {
    fn default() -> Self {
        Tower::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_star_values() {
        assert_eq!(log_star(1), 0);
        assert_eq!(log_star(2), 1);
        assert_eq!(log_star(3), 2); // 3 -> 1
        assert_eq!(log_star(4), 2); // 4 -> 2 -> 1
        assert_eq!(log_star(16), 3); // 16 -> 4 -> 2 -> 1
        assert_eq!(log_star(65536), 4);
        assert_eq!(log_star(u64::MAX), 5);
    }

    #[test]
    fn log_star_monotone() {
        let mut prev = 0;
        for i in 0..64 {
            let v = log_star(1u64 << i);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn paper_tower_relation() {
        // L_{ℓ+1} = 2^{L_ℓ/4} and L_ℓ = 4·lg(L_{ℓ+1}).
        let t = Tower::paper();
        let l1 = t.thresholds()[0];
        let l2 = t.thresholds()[1];
        assert_eq!(l1, 32);
        assert_eq!(l2, 1u64 << (l1 / 4));
        assert_eq!(l1, 4 * l2.trailing_zeros() as u64);
        // L₃ = 2^{256/4} = 2^64 which exceeds u64: top level is unbounded.
        assert_eq!(t.max_span_of_level(2), None);
    }

    #[test]
    fn levels_partition_spans() {
        let t = Tower::paper();
        assert_eq!(t.level_of(1), 0);
        assert_eq!(t.level_of(32), 0);
        assert_eq!(t.level_of(33), 1);
        assert_eq!(t.level_of(64), 1);
        assert_eq!(t.level_of(256), 1);
        assert_eq!(t.level_of(257), 2);
        assert_eq!(t.level_of(u64::MAX), 2);
        assert_eq!(t.interval_span(1), 32);
        assert_eq!(t.interval_span(2), 256);
    }

    #[test]
    fn custom_tower_levels() {
        let t = Tower::custom(vec![4, 16, 64]);
        assert_eq!(t.level_of(4), 0);
        assert_eq!(t.level_of(8), 1);
        assert_eq!(t.level_of(16), 1);
        assert_eq!(t.level_of(32), 2);
        assert_eq!(t.level_of(128), 3);
        assert_eq!(t.interval_span(1), 4);
        assert_eq!(t.interval_span(3), 64);
        assert_eq!(t.max_levels(), 4);
    }

    #[test]
    #[should_panic]
    fn custom_rejects_non_powers() {
        let _ = Tower::custom(vec![6, 24]);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_THRESHOLD")]
    fn custom_rejects_oversized_thresholds() {
        let _ = Tower::custom(vec![32, MAX_THRESHOLD * 2]);
    }

    #[test]
    #[should_panic]
    fn custom_rejects_non_doubling() {
        let _ = Tower::custom(vec![8, 8]);
    }

    #[test]
    fn levels_for_is_log_star_like() {
        let t = Tower::paper();
        assert_eq!(t.levels_for(16), 1);
        assert_eq!(t.levels_for(100), 2);
        assert_eq!(t.levels_for(1 << 40), 3);
    }
}
