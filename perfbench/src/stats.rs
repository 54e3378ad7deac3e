//! Order statistics for reported timings.
//!
//! A timing is reported as its median plus a tail percentile. The tail is
//! the requested percentile only when at least ten samples lie beyond it;
//! otherwise it falls back to the highest percentile that still has ten
//! samples beyond it, so a tail figure is never one lucky or unlucky
//! sample. Both the sample count and the percentile actually used are
//! reported next to the value.

/// Samples that must lie strictly above a reported tail percentile.
pub const TAIL_MARGIN: usize = 10;

/// Median of `samples` (mean of the middle two for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-quantile (`0 <= q <= 1`) of `samples`. Panics on
/// an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1]
}

/// A tail percentile as reported: the value, the percentile it actually
/// is (0..100), and the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// The nearest-rank `q`-th percentile (`0 < q < 100`) of `samples`, or
/// the highest percentile below it that keeps [`TAIL_MARGIN`] samples
/// beyond it. `None` when there are too few samples for any.
pub fn tail(samples: &[f64], q: f64) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_MARGIN {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let wanted = ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let idx = wanted.min(n - 1 - TAIL_MARGIN);
    Some(Tail {
        value: v[idx],
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0, 8.0, 7.0, 6.0];
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.75), 6.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 8.0);
    }

    #[test]
    fn tail_needs_more_than_the_margin() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten, 99.0), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven, 99.0).expect("eleven samples give a tail");
        // Only the lowest sample has ten samples beyond it.
        assert_eq!(t.value, 0.0);
        assert_eq!(t.samples, 11);
    }

    #[test]
    fn tail_is_exact_when_enough_samples_lie_beyond() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&v, 99.0).expect("tail exists");
        // Nearest rank: ceil(0.99 * 2000) = 1980; twenty samples beyond.
        assert_eq!(t.value, 1980.0);
        assert_eq!(t.percentile, 99.0);
    }

    #[test]
    fn tail_falls_back_to_keep_ten_samples_beyond() {
        // 500 samples: p99 would leave only 5 beyond it, so the tail
        // drops to rank 490 (ten beyond), which is p98.
        let v: Vec<f64> = (1..=500).map(f64::from).collect();
        let t = tail(&v, 99.0).expect("tail exists");
        assert_eq!(t.value, 490.0);
        assert_eq!(t.percentile, 98.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_MARGIN);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail(&v, 99.0).expect("tail exists").value, 990.0);
    }
}
