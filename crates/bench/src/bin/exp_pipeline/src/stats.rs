//! Sample summaries: the median, and the one tail percentile the sample
//! count can support.

/// Percentiles a tail may be reported at, ascending, in permille (whole
/// numbers keep the nearest-rank arithmetic exact).
const TAILS: [usize; 4] = [750, 900, 950, 990];

/// Nearest-rank index of a percentile (in permille) among `n` sorted samples.
fn rank(permille: usize, n: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n) - 1
}

/// Nearest-rank percentile (in permille: 950 is p95) of an ascending slice.
pub fn percentile(sorted: &[f64], permille: usize) -> f64 {
    sorted[rank(permille, sorted.len())]
}

/// Median of an ascending slice: the mean of the two middle samples when
/// the count is even, so a 10-sample batch does not lean high.
fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// One timing (or any sampled quantity) as the ledger prints it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// `(percentile, value)` of the highest percentile in [`TAILS`] that
    /// still has at least ten samples beyond it; `None` below 40 samples.
    pub tail: Option<(f64, f64)>,
}

/// Summarises `samples` (any order). Panics on an empty batch: every
/// caller times at least one iteration.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summarize needs at least one sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail = TAILS
        .iter()
        .rev()
        .find(|&&p| n - 1 - rank(p, n) >= 10)
        .map(|&p| (p as f64 / 10.0, sorted[rank(p, n)]));
    Summary {
        n,
        median: median_sorted(&sorted),
        tail,
    }
}

/// Median of `samples` (any order).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the benchmark
/// driver's spread is `(q3 - q1) / median` of ten runs by that method).
/// `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_batches() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 40 samples: p75 is the 30th, so exactly 10 lie beyond it.
        assert_eq!(summarize(&ramp(40)).tail, Some((75.0, 30.0)));
        // 39 samples: p75 is still the 30th, only 9 beyond: no tail at all.
        assert_eq!(summarize(&ramp(39)).tail, None);
        assert_eq!(summarize(&ramp(9)).tail, None);
    }

    #[test]
    fn tail_climbs_with_the_sample_count() {
        // p90 needs n - ceil(0.9 n) >= 10, i.e. n >= 100.
        assert_eq!(summarize(&ramp(99)).tail.unwrap().0, 75.0);
        assert_eq!(summarize(&ramp(100)).tail, Some((90.0, 90.0)));
        assert_eq!(summarize(&ramp(200)).tail, Some((95.0, 190.0)));
        assert_eq!(summarize(&ramp(1000)).tail, Some((99.0, 990.0)));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some((1.5, 4.0, 12.0))
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = ramp(6000);
        assert_eq!(percentile(&s, 500), 3000.0);
        assert_eq!(percentile(&s, 950), 5700.0);
        assert_eq!(percentile(&s, 1000), 6000.0);
        assert_eq!(percentile(&[5.0], 990), 5.0);
    }
}
