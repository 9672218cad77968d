//! The arithmetic every reported number rests on: percentiles with the
//! "at least ten samples beyond" rule, and medians over rounds.

/// Samples a percentile needs beyond it before it is reported
/// (choosing-metrics §1).
pub const MIN_BEYOND: f64 = 10.0;

/// Nearest-rank percentile of an ascending slice; `q` in `[0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] samples above
/// quantile `q`.
pub fn supported(n: usize, q: f64) -> bool {
    // The epsilon forgives `1.0 - 0.9 < 0.1` in floating point.
    n as f64 * (1.0 - q) + 1e-9 >= MIN_BEYOND
}

/// The highest of p50 / p90 / p99 / p99.9 that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| supported(n, q))
}

/// Sorts in place and returns the slice (NaN-free inputs only).
pub fn sort(v: &mut [f64]) -> &[f64] {
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    v
}

/// Median of the values (mean of the two middle ones for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Min / median / max of one metric over the measured rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub min: f64,
    pub median: f64,
    pub max: f64,
}

pub fn spread(values: &[f64]) -> Spread {
    Spread {
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        median: median(values),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn ten_beyond_rule() {
        // p99 needs 1000 samples: exactly 10 lie beyond it.
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        assert!(supported(100, 0.9));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(1050), Some(0.99));
        assert_eq!(highest_supported(525), Some(0.9));
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(19), None);
    }

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One slow round does not move the reported value.
        assert_eq!(median(&[10.0, 10.2, 9.9, 10.1, 55.0]), 10.1);
        let s = spread(&[10.0, 10.2, 9.9, 10.1, 55.0]);
        assert_eq!((s.min, s.median, s.max), (9.9, 10.1, 55.0));
    }
}
