//! Pure arithmetic helpers: percentiles, cleanest-slice estimates and the
//! open-loop ladder verdict. Everything here is deterministic and unit
//! tested; the phases only feed it samples.

/// The `q`-quantile (`0.0..=1.0`) of `samples` by nearest rank on the
/// sorted list; sorts in place. `0.0` for an empty list.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((samples.len() - 1) as f64 * q).round() as usize;
    samples[rank]
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of `values`; `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Interference on a shared host only ever slows a slice down: the CPU
/// runs at 1.0× or at 1.4× its time for seconds on end, an `fsync` over
/// the paced disk's floor comes with its neighbours. A phase is
/// therefore cut into many short slices, spread over the whole run, and
/// reported by its *cleanest* slice — the smallest per-slice latency
/// quantile, the per-slice rate only a tenth of the slices exceed. Each
/// slice is itself a quantile or a count of hundreds of requests, so
/// this is not one lucky request; it is the estimate of what the code
/// does when the host leaves it alone.
///
/// The `q`-quantile of each of `slices` equal consecutive slices of
/// `samples`; one slice when there are too few samples to cut.
pub fn slice_quantiles(samples: &[f64], slices: usize, q: f64) -> Vec<f64> {
    let slices = slices.max(1);
    let len = samples.len() / slices;
    if len == 0 {
        return vec![percentile(&mut samples.to_vec(), q)];
    }
    (0..slices)
        .map(|i| percentile(&mut samples[i * len..(i + 1) * len].to_vec(), q))
        .collect()
}

/// The smallest of the per-slice `q`-quantiles (see [`slice_quantiles`]).
pub fn cleanest_sliced(samples: &[f64], slices: usize, q: f64) -> f64 {
    slice_quantiles(samples, slices, q)
        .into_iter()
        .fold(f64::INFINITY, f64::min)
}

/// Throughput from per-slice completion counts: the rate nine tenths of
/// the slices stay under. Not the very fastest slice: where completions
/// are counted as a quorum acknowledges them, a backlog acknowledged at
/// once makes a slice that no system ran at (one run in ten read 55 k/s
/// for a system doing 37 k/s).
pub fn cleanest_rate(counts: &[u64], slice_secs: f64) -> f64 {
    let mut rates: Vec<f64> = counts.iter().map(|&c| c as f64 / slice_secs).collect();
    percentile(&mut rates, 0.9)
}

/// What one open-loop step observed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepObservation {
    /// Requests due in the step.
    pub offered: u64,
    /// Requests answered `ok` within the latency limit.
    pub ok_in_limit: u64,
    /// Requests due in the step's second half.
    pub offered_late_half: u64,
    /// Replies received during the step's second half.
    pub completed_late_half: u64,
    /// p99 of how late the generator sent, microseconds.
    pub gen_late_p99_us: f64,
}

/// Verdict on one open-loop step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepVerdict {
    /// Met the latency limit with no growing backlog.
    Pass,
    /// Missed the limit or left a growing backlog.
    Fail,
    /// The generator itself ran late; the step says nothing about the
    /// system and is run again.
    Invalid,
}

/// A step passes when at least 99 % of the requests due in it were
/// answered `ok` within `limit_us`, its second half completed at least
/// 95 % of what was offered there (no growing backlog), and the
/// generator's own lateness p99 stayed under half the limit (else the
/// step is invalid).
pub fn step_verdict(obs: &StepObservation, limit_us: f64) -> StepVerdict {
    if obs.gen_late_p99_us >= limit_us / 2.0 {
        return StepVerdict::Invalid;
    }
    let in_limit = obs.ok_in_limit as f64 >= 0.99 * obs.offered as f64;
    let keeps_up = obs.completed_late_half as f64 >= 0.95 * obs.offered_late_half as f64;
    if obs.offered > 0 && in_limit && keeps_up {
        StepVerdict::Pass
    } else {
        StepVerdict::Fail
    }
}

/// Walks the ladder's verdict attempts: each step gets at most two
/// attempts, and the ladder stops at the first step that does not pass
/// on either. Returns the index of the highest passing step.
pub fn ladder_highest_pass(
    mut attempt: impl FnMut(usize) -> StepVerdict,
    steps: usize,
) -> Option<usize> {
    let mut highest = None;
    for step in 0..steps {
        if attempt(step) == StepVerdict::Pass || attempt(step) == StepVerdict::Pass {
            highest = Some(step);
        } else {
            break;
        }
    }
    highest
}

/// `log* n` bound the paper states: `min{log* n, log* Δ}`.
pub fn log_star_bound(n: u64, delta: u64) -> u32 {
    realloc_sched::log_star(n).min(realloc_sched::log_star(delta))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 0.5), 51.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        let mut unsorted = [9.0, 1.0, 5.0];
        assert_eq!(percentile(&mut unsorted, 0.5), 5.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn a_disturbed_stretch_does_not_move_the_cleanest_slice() {
        // Eight slices of 100 samples at 10 µs; six of them ran in a
        // slow episode at 14 µs, one of those with a 5 ms stall on top.
        let mut samples = vec![10.0; 800];
        for s in samples[100..700].iter_mut() {
            *s = 14.0;
        }
        for s in samples[150..160].iter_mut() {
            *s = 5000.0;
        }
        assert_eq!(cleanest_sliced(&samples, 8, 0.5), 10.0);
        assert_eq!(cleanest_sliced(&samples, 8, 0.99), 10.0);
        assert_eq!(
            slice_quantiles(&samples, 8, 0.99),
            [10.0, 5000.0, 14.0, 14.0, 14.0, 14.0, 14.0, 10.0]
        );
        // The whole-run quantiles do move.
        assert_eq!(percentile(&mut samples.clone(), 0.5), 14.0);
        assert_eq!(percentile(&mut samples.clone(), 0.99), 5000.0);
        // A few fast requests inside a slow slice are not a clean slice.
        let mut lucky = vec![14.0; 800];
        lucky[5] = 1.0;
        assert_eq!(cleanest_sliced(&lucky, 8, 0.5), 14.0);
        // Too few samples to slice: falls back to the plain quantile.
        assert_eq!(cleanest_sliced(&[1.0, 2.0, 3.0], 4, 1.0), 3.0);
    }

    #[test]
    fn cleanest_rate_leaves_out_the_fastest_tenth() {
        // Twenty slices: twelve disturbed, one that counted a backlog's
        // acknowledgements arriving at once, seven clean.
        let mut counts = [700u64; 20];
        counts[3] = 1500;
        for c in counts[10..17].iter_mut() {
            *c = 1000;
        }
        assert_eq!(cleanest_rate(&counts, 2.0), 500.0);
        assert_eq!(cleanest_rate(&[], 1.0), 0.0);
    }

    #[test]
    fn step_verdicts() {
        let good = StepObservation {
            offered: 1000,
            ok_in_limit: 995,
            offered_late_half: 500,
            completed_late_half: 490,
            gen_late_p99_us: 100.0,
        };
        assert_eq!(step_verdict(&good, 10_000.0), StepVerdict::Pass);
        let slow = StepObservation {
            ok_in_limit: 989,
            ..good
        };
        assert_eq!(step_verdict(&slow, 10_000.0), StepVerdict::Fail);
        let backlog = StepObservation {
            completed_late_half: 400,
            ..good
        };
        assert_eq!(step_verdict(&backlog, 10_000.0), StepVerdict::Fail);
        let late = StepObservation {
            gen_late_p99_us: 5_000.0,
            ..good
        };
        assert_eq!(step_verdict(&late, 10_000.0), StepVerdict::Invalid);
        assert_eq!(
            step_verdict(&StepObservation::default(), 10_000.0),
            StepVerdict::Fail
        );
    }

    #[test]
    fn ladder_retries_once_and_stops_at_a_double_failure() {
        use StepVerdict::{Fail, Invalid, Pass};
        let run = |script: &[StepVerdict]| {
            let mut calls = script.iter().copied();
            let mut seen = Vec::new();
            let highest = ladder_highest_pass(
                |step| {
                    seen.push(step);
                    calls.next().expect("script long enough")
                },
                4,
            );
            (highest, seen)
        };
        assert_eq!(run(&[Pass, Pass, Pass, Pass]), (Some(3), vec![0, 1, 2, 3]));
        // A failed step is retried once; the retry passing continues.
        assert_eq!(
            run(&[Pass, Fail, Pass, Invalid, Pass, Fail, Fail]),
            (Some(2), vec![0, 1, 1, 2, 2, 3, 3])
        );
        // Double failure stops the ladder.
        assert_eq!(run(&[Pass, Fail, Fail]), (Some(0), vec![0, 1, 1]));
        assert_eq!(run(&[Fail, Invalid]), (None, vec![0, 0]));
    }

    #[test]
    fn log_star_bound_takes_the_smaller_side() {
        assert_eq!(log_star_bound(1 << 16, 4096), realloc_sched::log_star(4096));
        assert_eq!(log_star_bound(2, 1 << 40), realloc_sched::log_star(2));
    }
}
