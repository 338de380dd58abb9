//! Order statistics shared by every measurement: percentiles within one
//! run, and medians and quartiles across runs.

/// Sorts samples ascending. NaN never occurs in a measured duration; if
/// one did, it would sort last rather than panic.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of ascending `sorted`, interpolated
/// linearly between the two closest ranks. `NaN` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of ascending `sorted`.
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 0.5)
}

/// The highest percentile a sample supports, with its sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Which percentile: `"p99.9"`, `"p99"`, `"p95"` or `"p50"`.
    pub label: &'static str,
    /// Its value.
    pub value: f64,
    /// Samples strictly above `value`.
    pub beyond: usize,
    /// Samples in total.
    pub samples: usize,
}

/// The highest of p99.9, p99, p95 and p50 that has at least ten samples
/// strictly beyond it; `None` when not even the median has.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    [("p99.9", 0.999), ("p99", 0.99), ("p95", 0.95), ("p50", 0.5)]
        .into_iter()
        .map(|(label, p)| {
            let value = percentile(sorted, p);
            let beyond = sorted.len() - sorted.partition_point(|&x| x <= value);
            Tail {
                label,
                value,
                beyond,
                samples: sorted.len(),
            }
        })
        .find(|t| t.beyond >= 10)
}

/// First quartile, median and third quartile of `values` (any order),
/// computed exactly as Python's `statistics.quantiles(values, n=4)`
/// does (its default "exclusive" method), so spreads printed here match
/// spreads computed from the same numbers elsewhere. `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(values.to_vec());
    let n = data.len();
    match n {
        0 => None,
        1 => Some((data[0], data[0], data[0])),
        _ => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            Some((q(1), q(2), q(3)))
        }
    }
}

/// Interquartile distance as a share of the median (0 when the median
/// is 0, which only a degenerate sample of zeros produces).
pub fn relative_spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, med, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert!(close(percentile(&s, 0.0), 1.0));
        assert!(close(percentile(&s, 1.0), 4.0));
        assert!(close(median(&s), 2.5));
        assert!(close(percentile(&s, 0.25), 1.75));
        assert!(percentile(&[], 0.5).is_nan());
        assert!(close(percentile(&[7.0], 0.99), 7.0));
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let thousand = sorted((1..=1000).map(f64::from).collect());
        let t = tail(&thousand).expect("1000 samples support p99");
        assert_eq!((t.label, t.beyond, t.samples), ("p99", 10, 1000));
        let ten_k = sorted((1..=10_000).map(f64::from).collect());
        assert_eq!(tail(&ten_k).expect("p99.9").label, "p99.9");
        let two_hundred = sorted((1..=200).map(f64::from).collect());
        assert_eq!(tail(&two_hundred).expect("p95").label, "p95");
        let few = sorted((1..=15).map(f64::from).collect());
        assert_eq!(tail(&few), None);
    }

    #[test]
    fn tail_counts_ties_as_not_beyond() {
        let mut v = vec![1.0; 989];
        v.extend(std::iter::repeat_n(5.0, 11));
        let t = tail(&sorted(v)).expect("tail");
        // p99 lands inside the block of 5.0s, so nothing is beyond it;
        // p95 (= 1.0) has the eleven 5.0s beyond it.
        assert_eq!((t.label, t.value, t.beyond), ("p95", 1.0, 11));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, m, q3) = quartiles(&v).expect("ten values");
        assert!(close(q1, 2.75) && close(m, 5.5) && close(q3, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, m, q3) = quartiles(&[3.0, 1.0, 2.0]).expect("three values");
        assert!(close(q1, 1.0) && close(m, 2.0) && close(q3, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, m, q3) = quartiles(&[1.0, 2.0]).expect("two values");
        assert!(close(q1, 0.75) && close(m, 1.5) && close(q3, 2.25));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(relative_spread(&v), (8.25 - 2.75) / 5.5));
        assert_eq!(relative_spread(&[0.0, 0.0]), 0.0);
    }
}
