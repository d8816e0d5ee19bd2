//! Order statistics shared by every workload.

/// A tail percentile must leave at least this many samples above it, so
/// that it is an estimate and not the single slowest outlier.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The linear-interpolation quantile of sorted samples at percentile `p`
/// (the NumPy default). At `p = 50` this is exactly the median.
fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    let h = (sorted.len() - 1) as f64 * p / 100.0;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (h - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples`; `NaN` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    quantile_sorted(&sorted(samples), 50.0)
}

/// Arithmetic mean; `0` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// A reported tail: which percentile, its value, and how many samples lie
/// beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// The quantile value at that percentile.
    pub value: f64,
    /// Samples strictly above the quantile's position.
    pub beyond: usize,
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when there are fewer than `2 * MIN_BEYOND`
/// samples (then not even the median qualifies).
pub fn tail(samples: &[f64]) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let n = s.len();
    TAIL_PERCENTILES.iter().find_map(|&p| {
        let h = (n - 1) as f64 * p / 100.0;
        let beyond = n - 1 - h.floor() as usize;
        (beyond >= MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: quantile_sorted(&s, p),
            beyond,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_and_never_undercuts_the_median() {
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&samples).expect("1000 samples have a tail");
        assert_eq!(t.percentile, 99.0);
        assert!(t.beyond >= MIN_BEYOND);
        assert!(t.value >= median(&samples));

        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        let t = tail(&twenty).expect("20 samples reach the median");
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.value, median(&twenty));
        assert!(tail(&twenty[..19]).is_none());
    }
}
