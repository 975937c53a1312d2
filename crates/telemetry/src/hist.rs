//! Log-bucketed latency histogram: HDR-style powers-of-two buckets with
//! interpolated quantile estimation.
//!
//! This is the *approximate, wide-range* counterpart to the engine's
//! exact `CostHistogram` (which counts small reallocation costs one
//! bucket per value). Latencies span nanoseconds to seconds — nine
//! decades — so exact buckets are out; instead value `v` lands in bucket
//! `⌊log₂ v⌋ + 1` (bucket 0 is reserved for `v = 0`), giving 65 buckets
//! total with a guaranteed ≤ 2× relative error per sample, and better
//! than that in practice because quantiles interpolate within a bucket
//! and clamp to the observed maximum.
//!
//! The struct is plain data — no locks, no atomics: the registry keeps
//! each one behind a mutex, and readers [`Histogram::merge`] copies to
//! combine series (e.g. one per replica link).

/// Number of buckets: one for zero plus one per power of two up to 2⁶³.
pub const HIST_BUCKETS: usize = 65;

/// A mergeable log-bucketed histogram of `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Bucket index of a sample: 0 for 0, else `⌊log₂ v⌋ + 1`.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Smallest value a bucket can hold.
fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Largest value a bucket can hold.
fn bucket_hi(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0.0 ≤ q ≤ 1.0`): finds the bucket holding
    /// the rank-`q` sample and interpolates linearly inside it, clamped
    /// to the observed maximum. Exact for bucket 0; within the bucket's
    /// 2× width everywhere else.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if rank < seen + n {
                let lo = bucket_lo(i);
                let hi = bucket_hi(i).min(self.max);
                // Upper-edge interpolation: the rank-th sample is the
                // (rank - seen + 1)-th of n in [lo, hi]. Biases to the
                // bucket's upper edge, so q = 1.0 reports the true max
                // and latency quantiles over- rather than under-estimate.
                let frac = (rank - seen + 1) as f64 / n as f64;
                // f64 rounding can push the offset past hi - lo at the
                // top of the range; saturate and clamp instead.
                return lo.saturating_add((frac * (hi - lo) as f64) as u64).min(hi);
            }
            seen += n;
        }
        self.max
    }

    /// Shorthand for the three quantiles every dashboard wants.
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_hi(64), u64::MAX);
        assert_eq!(bucket_lo(64), 1 << 63);
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        let p50 = h.quantile(0.5);
        // Samples 1..=1000: the true median is 500; the log-bucket
        // estimate must land within the 2× bucket (512-wide at worst).
        assert!((250..=1000).contains(&p50), "p50 = {p50}");
        assert!(h.quantile(1.0) == 1000, "p100 clamps to max");
        assert_eq!(h.quantile(0.0), 1);
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [0, 1, 7, 12_000, 900_000_000] {
            a.record(v);
            both.record(v);
        }
        for v in [3, 3, 500] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }
}
