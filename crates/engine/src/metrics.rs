//! Telemetry aggregation: per-shard statistics → one engine snapshot.
//!
//! Telemetry must be O(1) per request and O(1) per shard in memory — a
//! serving engine cannot retain per-request samples forever. Per-request
//! reallocation costs therefore feed a fixed-size [`CostHistogram`]
//! (costs are `O(min{log* n, log* Δ})` by Theorem 1, so the direct
//! buckets cover every real stream; pathological costs land in an
//! overflow bucket and percentile queries above it return the recorded
//! maximum).

use crate::journal::ReqResult;
use crate::shard::Shard;
use realloc_core::snapshot::{Fields, SnapshotWriter};
use realloc_core::textio::ParseError;

/// Direct buckets of [`CostHistogram`]: exact counts for costs
/// `0..DIRECT_BUCKETS`, one overflow bucket above.
const DIRECT_BUCKETS: usize = 65;

/// Fixed-size exact histogram of per-request reallocation costs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostHistogram {
    buckets: [u64; DIRECT_BUCKETS],
    overflow: u64,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for CostHistogram {
    fn default() -> Self {
        CostHistogram {
            buckets: [0; DIRECT_BUCKETS],
            overflow: 0,
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl CostHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one request's cost. O(1).
    pub fn record(&mut self, cost: u64) {
        match self.buckets.get_mut(cost as usize) {
            Some(b) => *b += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
        self.sum += cost;
        self.max = self.max.max(cost);
    }

    /// Requests recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean cost per request.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded cost.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `p`-quantile (`0.0..=1.0`), matching
    /// `sorted[round((count-1) * p)]` on the full sample list — exact
    /// for costs below the overflow bucket, the recorded max above it.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as f64 * p).round() as u64;
        let mut seen = 0u64;
        for (cost, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                return cost as u64;
            }
        }
        self.max
    }

    /// Raw scalar parts `(count, sum, max, overflow)` for snapshot
    /// serialization.
    pub(crate) fn parts(&self) -> (u64, u64, u64, u64) {
        (self.count, self.sum, self.max, self.overflow)
    }

    /// Non-empty direct buckets as `(cost, count)` pairs, ascending.
    pub(crate) fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(cost, &n)| (cost, n))
    }

    /// Rebuilds a histogram from serialized parts, validating internal
    /// consistency (graceful errors, never panics — checkpoint data may
    /// be truncated or hand-edited).
    pub(crate) fn from_parts(
        count: u64,
        sum: u64,
        max: u64,
        overflow: u64,
        buckets: &[(usize, u64)],
    ) -> Result<CostHistogram, String> {
        let mut h = CostHistogram {
            overflow,
            count,
            sum,
            max,
            ..CostHistogram::default()
        };
        let mut bucket_total = 0u64;
        for &(cost, n) in buckets {
            let slot = h
                .buckets
                .get_mut(cost)
                .ok_or_else(|| format!("histogram bucket {cost} out of range"))?;
            if *slot != 0 {
                return Err(format!("duplicate histogram bucket {cost}"));
            }
            *slot = n;
            // Checked: counts come from untrusted checkpoint text.
            bucket_total = bucket_total
                .checked_add(n)
                .ok_or_else(|| format!("histogram bucket counts overflow at cost {cost}"))?;
        }
        if bucket_total.checked_add(overflow) != Some(count) {
            return Err(format!(
                "histogram count {count} != bucket total {bucket_total} + overflow {overflow}"
            ));
        }
        if overflow == 0 {
            // Without overflow samples the sum is fully determined by
            // the buckets; a forged sum would skew the restored mean.
            let mut dot = 0u64;
            for &(cost, n) in buckets {
                dot = (cost as u64)
                    .checked_mul(n)
                    .and_then(|x| dot.checked_add(x))
                    .ok_or_else(|| format!("histogram sum overflows at cost {cost}"))?;
            }
            if dot != sum {
                return Err(format!("histogram sum {sum} != bucket dot-product {dot}"));
            }
        }
        if count > 0 && overflow == 0 {
            let top = buckets.iter().map(|&(c, _)| c as u64).max().unwrap_or(0);
            if top != max {
                return Err(format!("histogram max {max} != top bucket {top}"));
            }
        }
        Ok(h)
    }

    /// Merges another histogram into this one (engine-wide union).
    pub fn merge(&mut self, other: &CostHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// A lifetime service tally: what one shard has serviced since it was
/// built — or, as the engine's resize **carryover**, what every shard
/// retired by an elastic resize had.
///
/// A reshard dissolves every shard and rebuilds the active jobs on a
/// fresh shard set; the dissolved shards' serviced-request counters and
/// cost histograms are *historical facts* that must survive the rebuild
/// (resizing an engine must not zero its telemetry), so they fold into
/// the engine-level carryover tally. [`Metrics`] totals and the
/// registry's scheduling instruments are always one union,
/// `carryover + live shards`; per-shard rows describe live shards only.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests serviced successfully.
    pub requests: u64,
    /// Requests the backend rejected.
    pub failed: u64,
    /// Reallocations performed.
    pub reallocations: u64,
    /// Cross-machine migrations performed.
    pub migrations: u64,
    /// Per-request reallocation-cost distribution (bounded memory).
    pub hist: CostHistogram,
}

impl Tally {
    /// Counts one serviced request — the one place a request's cost is
    /// counted; reports, [`Metrics`] and the telemetry registry all read
    /// what this recorded.
    pub(crate) fn record(&mut self, result: &ReqResult) {
        match result {
            Ok(costs) => {
                self.requests += 1;
                self.reallocations += costs.reallocations;
                self.migrations += costs.migrations;
                self.hist.record(costs.reallocations);
            }
            Err(_) => self.failed += 1,
        }
    }

    /// Folds another tally in (a retiring shard's into the carryover).
    pub(crate) fn absorb(&mut self, other: &Tally) {
        self.requests += other.requests;
        self.failed += other.failed;
        self.reallocations += other.reallocations;
        self.migrations += other.migrations;
        self.hist.merge(&other.hist);
    }

    /// Writes the tally's snapshot lines under the caller's op names:
    /// totals, histogram header, one line per non-empty bucket.
    pub(crate) fn write_lines(&self, w: &mut SnapshotWriter, [totals, hist, bucket]: [&str; 3]) {
        w.line(format_args!(
            "{totals} {} {} {} {}",
            self.requests, self.failed, self.reallocations, self.migrations
        ));
        let (count, sum, max, overflow) = self.hist.parts();
        w.line(format_args!("{hist} {count} {sum} {max} {overflow}"));
        for (cost, n) in self.hist.nonzero_buckets() {
            w.line(format_args!("{bucket} {cost} {n}"));
        }
    }
}

/// The snapshot lines of a [`Tally`] being read back
/// ([`Tally::write_lines`]): feed each line to its method as the
/// section's op dispatch meets it, then [`TallyLines::finish`].
#[derive(Default)]
pub(crate) struct TallyLines {
    totals: Option<[u64; 4]>,
    hist: Option<[u64; 4]>,
    buckets: Vec<(usize, u64)>,
}

impl TallyLines {
    /// Reads a line of exactly four counts into `slot`, once.
    fn quad(slot: &mut Option<[u64; 4]>, f: Fields<'_>, what: &str) -> Result<(), ParseError> {
        let malformed = f.err(format!("the {what} line carries four counts, once"));
        match (f.rest_u64(what)?.try_into(), &slot) {
            (Ok(counts), None) => *slot = Some(counts),
            _ => return Err(malformed),
        }
        Ok(())
    }

    /// The totals line: requests, failed, reallocations, migrations.
    pub(crate) fn totals(&mut self, f: Fields<'_>) -> Result<(), ParseError> {
        Self::quad(&mut self.totals, f, "totals")
    }

    /// The histogram header line: count, sum, max, overflow.
    pub(crate) fn hist(&mut self, f: Fields<'_>) -> Result<(), ParseError> {
        Self::quad(&mut self.hist, f, "histogram")
    }

    /// One histogram bucket line: cost, count.
    pub(crate) fn bucket(&mut self, mut f: Fields<'_>) -> Result<(), ParseError> {
        let cost = f.usize("bucket cost")?;
        let n = f.u64("bucket count")?;
        f.finish()?;
        self.buckets.push((cost, n));
        Ok(())
    }

    /// Validates and assembles the tally of `owner` (named in errors).
    /// Both header lines are required, and untrusted-snapshot arithmetic
    /// is checked, not trusted: forged counts near `u64::MAX` would
    /// overflow the engine's carry + live-shard union.
    pub(crate) fn finish(self, owner: &str) -> Result<Tally, ParseError> {
        let err = |message| ParseError { line: 0, message };
        let (
            Some([requests, failed, reallocations, migrations]),
            Some([count, sum, max, overflow]),
        ) = (self.totals, self.hist)
        else {
            return Err(err(format!(
                "{owner} needs both its totals and its histogram line"
            )));
        };
        // 2^48 is absurd headroom for real lifetimes and leaves 2^16 of
        // summation slack.
        const LIMIT: u64 = u64::MAX >> 16;
        for (what, v) in [
            ("requests", requests),
            ("failed", failed),
            ("reallocations", reallocations),
            ("migrations", migrations),
            ("histogram count", count),
            ("histogram sum", sum),
        ] {
            if v > LIMIT {
                return Err(err(format!("{owner} {what} {v} exceeds the sanity bound")));
            }
        }
        let hist = CostHistogram::from_parts(count, sum, max, overflow, &self.buckets)
            .map_err(|message| err(format!("{owner} histogram: {message}")))?;
        // Every serviced request recorded exactly one cost sample.
        if requests != count {
            return Err(err(format!(
                "{owner} records {requests} serviced requests but its histogram holds {count}"
            )));
        }
        Ok(Tally {
            requests,
            failed,
            reallocations,
            migrations,
            hist,
        })
    }
}

/// Cost-distribution summary of per-request reallocation counts.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostPercentiles {
    /// Mean reallocations per request.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum.
    pub max: u64,
}

impl CostPercentiles {
    fn of(hist: &CostHistogram) -> CostPercentiles {
        CostPercentiles {
            mean: hist.mean(),
            p50: hist.percentile(0.50),
            p95: hist.percentile(0.95),
            p99: hist.percentile(0.99),
            max: hist.max(),
        }
    }
}

/// One shard's slice of a [`Metrics`] snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardMetrics {
    /// Shard index.
    pub shard: usize,
    /// Requests serviced successfully.
    pub requests: u64,
    /// Requests rejected by the backend.
    pub failed: u64,
    /// Jobs currently active on the shard.
    pub active_jobs: u64,
    /// Total reallocations since construction.
    pub reallocations: u64,
    /// Total cross-machine migrations since construction.
    pub migrations: u64,
    /// Distribution of per-request reallocation cost since construction.
    pub cost: CostPercentiles,
}

/// Point-in-time telemetry for the whole engine.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Per-shard rows, indexed by shard id (live shards only; totals
    /// below also include shards retired by resizes).
    pub shards: Vec<ShardMetrics>,
    /// Routing epoch the engine is serving at (0 until the first resize).
    pub epoch: u64,
    /// Requests serviced, lifetime (live shards + resize carryover).
    pub requests: u64,
    /// Requests rejected, lifetime.
    pub failed: u64,
    /// Total active jobs.
    pub active_jobs: u64,
    /// Total reallocations, lifetime.
    pub reallocations: u64,
    /// Total migrations, lifetime.
    pub migrations: u64,
    /// Engine-wide per-request cost distribution (merged shard
    /// histograms plus carryover, not an average of averages), over the
    /// engine's whole lifetime: a bulk load counts too, so `cost.max` is
    /// the costliest request ever served — on a freshly filled engine
    /// usually an `n*` crossing rebuild during the fill, not steady state.
    pub cost: CostPercentiles,
}

impl Metrics {
    /// Builds a snapshot: per-shard rows from the live shards, totals
    /// from the engine's `lifetime` tally (resize carryover included, so
    /// they survive reshards).
    pub(crate) fn collect(shards: &[Shard], lifetime: Tally, epoch: u64) -> Metrics {
        let rows: Vec<ShardMetrics> = shards
            .iter()
            .map(|s| {
                let t = s.tally();
                ShardMetrics {
                    shard: s.id(),
                    requests: t.requests,
                    failed: t.failed,
                    active_jobs: s.active_count() as u64,
                    reallocations: t.reallocations,
                    migrations: t.migrations,
                    cost: CostPercentiles::of(&t.hist),
                }
            })
            .collect();
        Metrics {
            epoch,
            requests: lifetime.requests,
            failed: lifetime.failed,
            active_jobs: rows.iter().map(|r| r.active_jobs).sum(),
            reallocations: lifetime.reallocations,
            migrations: lifetime.migrations,
            cost: CostPercentiles::of(&lifetime.hist),
            shards: rows,
        }
    }

    /// Largest per-shard active-set imbalance, as a ratio of the mean
    /// (1.0 = perfectly balanced). Gauges the router's spread.
    pub fn imbalance(&self) -> f64 {
        if self.shards.is_empty() || self.active_jobs == 0 {
            return 1.0;
        }
        let mean = self.active_jobs as f64 / self.shards.len() as f64;
        let max = self.shards.iter().map(|s| s.active_jobs).max().unwrap_or(0) as f64;
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_matches_sorted_sample_percentiles() {
        let mut h = CostHistogram::new();
        for v in 1..=100u64 {
            h.record(v % 7);
        }
        let mut sorted: Vec<u64> = (1..=100u64).map(|v| v % 7).collect();
        sorted.sort_unstable();
        let pct = |p: f64| sorted[((sorted.len() as f64 - 1.0) * p).round() as usize];
        for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.percentile(p), pct(p), "p = {p}");
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.max(), 6);
        let mean: f64 = sorted.iter().sum::<u64>() as f64 / 100.0;
        assert!((h.mean() - mean).abs() < 1e-12);
    }

    #[test]
    fn histogram_overflow_reports_max() {
        let mut h = CostHistogram::new();
        h.record(0);
        h.record(1_000); // overflow bucket
        assert_eq!(h.percentile(1.0), 1_000);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.max(), 1_000);
    }

    #[test]
    fn histogram_merge_is_union() {
        let mut a = CostHistogram::new();
        let mut b = CostHistogram::new();
        for v in [0u64, 1, 1, 2] {
            a.record(v);
        }
        for v in [3u64, 3, 4] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 7);
        assert_eq!(a.percentile(0.5), 2);
        assert_eq!(a.max(), 4);
        assert_eq!(CostHistogram::new(), CostHistogram::default());
    }
}
