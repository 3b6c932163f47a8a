//! Order statistics over host-time and simulated-latency samples.
//!
//! An iteration's timed region is a fixed sequence of calls that do
//! the same simulated work every iteration. Host time per iteration is
//! the **sum over those calls of each call's minimum** clock-scaled
//! time across the iterations ([`piecewise_min`]): the work is
//! deterministic and single-threaded, so everything above a call's
//! minimum is the host's doing, and taking the minimum call by call
//! needs a quiet moment per call rather than a whole quiet iteration.
//! Where an iteration repeats the same calls (the functional tiles run
//! ten times over), the repeats are samples of the same calls too. Of
//! the estimators tried when this benchmark was defined it repeated
//! best run to run (README, "Run-to-run spread"). Raw minimum, quartiles
//! and median are printed beside it as diagnostics.

use crate::clock::Sample;

/// Summary of a sample of host times (seconds) or any other `f64`s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// Lower quartile (linear interpolation between order statistics).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Upper quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending-sorted,
/// non-empty slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarizes a sample; `None` when it is empty. A single sample is
/// its own minimum, quartiles, and maximum.
#[must_use]
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        n: sorted.len(),
        min: sorted[0],
        q1: quantile(&sorted, 0.25),
        median: quantile(&sorted, 0.5),
        q3: quantile(&sorted, 0.75),
        max: sorted[sorted.len() - 1],
    })
}

/// Per call of an iteration, the smallest clock-scaled time that call
/// took in any iteration, samples that straddled a clock flip aside;
/// host seconds per iteration is the sum. Calls `k` and `k + period` of
/// an iteration do the same work and share their samples; `period` 0
/// says that no two calls do. `None` without iterations, when they
/// disagree on how many calls an iteration makes, or when that number
/// is not a multiple of `period`.
#[must_use]
pub fn piecewise_min(iters: &[Vec<Sample>], period: usize) -> Option<Vec<f64>> {
    let calls = iters.first()?.len();
    let period = if period == 0 { calls.max(1) } else { period };
    if iters.iter().any(|it| it.len() != calls) || calls % period != 0 {
        return None;
    }
    let best: Vec<f64> = (0..period.min(calls))
        .map(|k| {
            let column: Vec<Sample> = iters
                .iter()
                .flat_map(|it| it.iter().skip(k).step_by(period).copied())
                .collect();
            steady_min(&column).expect("iters is not empty")
        })
        .collect();
    Some((0..calls).map(|k| best[k % period]).collect())
}

/// Smallest clock-scaled time of repeated runs of one call, samples
/// that straddled a clock flip aside. `None` when empty.
fn steady_min(samples: &[Sample]) -> Option<f64> {
    // With no steady sample at all, a guessed scale beats no number.
    let any_steady = samples.iter().any(|s| s.steady);
    samples
        .iter()
        .filter(|s| s.steady || !any_steady)
        .map(Sample::scaled_s)
        .reduce(f64::min)
}

/// Nearest-rank percentile of an unsorted integer sample: the smallest
/// value with at least `pct` % of the samples at or below it. `None`
/// when the sample is empty or `pct` is outside `1..=100`.
#[must_use]
pub fn percentile(samples: &[u64], pct: u64) -> Option<u64> {
    if samples.is_empty() || !(1..=100).contains(&pct) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (sorted.len() as u64 * pct).div_ceil(100).max(1);
    Some(sorted[usize::try_from(rank - 1).expect("rank fits")])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(raw_s: f64, scale: f64, steady: bool) -> Sample {
        Sample {
            raw_s,
            scale,
            steady,
        }
    }

    #[test]
    fn piecewise_min_takes_each_call_at_its_best_steady_sample() {
        let iters = vec![
            vec![sample(1.0, 1.0, true), sample(4.0, 1.0, true)],
            // Call 0 slow clock: 1.2 wall s are 0.9 reference s.
            vec![sample(1.2, 0.75, true), sample(3.0, 1.0, true)],
            // The fastest call 1 straddled a flip and is skipped.
            vec![sample(1.5, 1.0, true), sample(1.0, 1.0, false)],
        ];
        let per_call = piecewise_min(&iters, 0).expect("three iterations");
        assert!((per_call[0] - 0.9).abs() < 1e-12);
        assert_eq!(per_call[1], 3.0);
        assert_eq!(piecewise_min(&[], 0), None);
        assert_eq!(
            piecewise_min(&[vec![], vec![sample(1.0, 1.0, true)]], 0),
            None
        );
    }

    #[test]
    fn repeated_calls_share_their_samples() {
        // Calls 0 and 2 do the same work, and so do calls 1 and 3.
        let iters = vec![
            vec![
                sample(5.0, 1.0, true),
                sample(9.0, 1.0, true),
                sample(4.0, 1.0, true),
                sample(8.0, 1.0, true),
            ],
            vec![
                sample(6.0, 1.0, true),
                sample(7.0, 1.0, true),
                sample(3.0, 1.0, false),
                sample(9.0, 1.0, true),
            ],
        ];
        assert_eq!(piecewise_min(&iters, 2), Some(vec![4.0, 7.0, 4.0, 7.0]));
        assert_eq!(piecewise_min(&iters, 0), Some(vec![5.0, 7.0, 4.0, 8.0]));
        // Four calls are not a whole number of periods of three.
        assert_eq!(piecewise_min(&iters, 3), None);
    }

    #[test]
    fn unsteady_samples_count_when_there_is_nothing_else() {
        let only = [sample(2.0, 0.5, false), sample(4.0, 0.5, false)];
        assert_eq!(
            piecewise_min(&[vec![only[0]], vec![only[1]]], 0),
            Some(vec![1.0])
        );
        assert_eq!(steady_min(&only), Some(1.0));
        assert_eq!(steady_min(&[]), None);
        let mixed = [
            sample(1.0, 1.0, true),
            sample(0.5, 1.0, false),
            sample(3.0, 1.0, true),
        ];
        assert_eq!(steady_min(&mixed), Some(1.0));
    }

    #[test]
    fn empty_sample_has_no_summary() {
        assert_eq!(summarize(&[]), None);
        assert_eq!(percentile(&[], 99), None);
    }

    #[test]
    fn single_sample_is_every_statistic() {
        let s = summarize(&[0.25]).expect("non-empty");
        assert_eq!(
            (s.n, s.min, s.q1, s.median, s.q3, s.max),
            (1, 0.25, 0.25, 0.25, 0.25, 0.25)
        );
        assert_eq!(percentile(&[42], 1), Some(42));
        assert_eq!(percentile(&[42], 100), Some(42));
    }

    #[test]
    fn quartiles_on_a_known_vector() {
        // Unsorted on purpose; 1..=9 has quartiles 3, 5, 7.
        let s = summarize(&[9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0]).expect("non-empty");
        assert_eq!(s.n, 9);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 3.0, 5.0, 7.0, 9.0)
        );
        // Even count interpolates: 1,2,3,4 -> median 2.5, q1 1.75.
        let s = summarize(&[4.0, 3.0, 2.0, 1.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (1.75, 2.5, 3.25));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=128).rev().collect();
        // ceil(128 * 0.99) = 127th smallest: one sample beyond it.
        assert_eq!(percentile(&v, 99), Some(127));
        // ceil(128 * 0.90) = 116th smallest: twelve beyond it.
        assert_eq!(percentile(&v, 90), Some(116));
        assert_eq!(percentile(&v, 50), Some(64));
        assert_eq!(percentile(&v, 100), Some(128));
        assert_eq!(percentile(&v, 1), Some(2));
        assert_eq!(percentile(&v, 0), None);
        assert_eq!(percentile(&v, 101), None);
        // Three samples: p99 is the largest.
        assert_eq!(percentile(&[30, 10, 20], 99), Some(30));
    }
}
