//! Medians, percentiles and the "highest percentile the sample supports"
//! rule from the choosing-metrics guide.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The value three quarters of the way up `values`, interpolated.
pub fn upper_quartile(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = 0.75 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The `p`-th percentile (0..=100) of an ascending-sorted sample, by linear
/// interpolation between the two nearest ranks, so that a median of
/// nanosecond samples is not quantised to one sample's value.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    let frac = rank - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

const TAIL_CANDIDATES: [f64; 4] = [90.0, 99.0, 99.9, 99.99];

/// The highest candidate percentile that still has at least ten samples
/// beyond it, or `None` when even p90 does not (fewer than 100 samples).
pub fn top_supported_percentile(samples: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rfind(|p| samples as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// A timing reported the way the guide asks: median, the highest supported
/// tail percentile, and the sample count.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    pub samples: usize,
    pub p50: f64,
    /// `(percentile, value)`, e.g. `(99.9, 812.0)`.
    pub tail: Option<(f64, f64)>,
}

impl Timing {
    pub fn from_samples(mut samples: Vec<u64>) -> Timing {
        samples.sort_unstable();
        Timing {
            samples: samples.len(),
            p50: percentile_sorted(&samples, 50.0),
            tail: top_supported_percentile(samples.len())
                .map(|p| (p, percentile_sorted(&samples, p))),
        }
    }

    /// The tail value in the timing's own unit scaled by `scale`, 0 if the
    /// sample is too small to support one.
    pub fn tail_value(&self, scale: f64) -> f64 {
        self.tail.map_or(0.0, |(_, v)| v * scale)
    }

    pub fn describe(&self, scale: f64, unit: &str) -> String {
        match self.tail {
            Some((p, v)) => format!(
                "p50 {:.3} {unit}, p{p} {:.3} {unit} ({} samples)",
                self.p50 * scale,
                v * scale,
                self.samples
            ),
            None => format!(
                "p50 {:.3} {unit} ({} samples)",
                self.p50 * scale,
                self.samples
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_returns_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(top_supported_percentile(0), None);
        assert_eq!(top_supported_percentile(99), None);
        assert_eq!(top_supported_percentile(100), Some(90.0));
        assert_eq!(top_supported_percentile(999), Some(90.0));
        assert_eq!(top_supported_percentile(1_000), Some(99.0));
        assert_eq!(top_supported_percentile(9_999), Some(99.0));
        assert_eq!(top_supported_percentile(10_000), Some(99.9));
        assert_eq!(top_supported_percentile(100_000), Some(99.99));
        assert_eq!(top_supported_percentile(10_000_000), Some(99.99));
    }

    #[test]
    fn percentiles_interpolate() {
        let s: Vec<u64> = (1..=100).collect();
        assert!((percentile_sorted(&s, 50.0) - 50.5).abs() < 1e-9);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&s, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
        let t = Timing::from_samples((1..=1000).rev().collect());
        assert_eq!(t.samples, 1000);
        assert_eq!(t.tail.unwrap().0, 99.0);
    }

    #[test]
    fn upper_quartile_interpolates() {
        assert_eq!(upper_quartile(&[4.0, 1.0, 3.0, 2.0, 5.0]), 4.0);
        assert_eq!(upper_quartile(&[1.0, 2.0]), 1.75);
        assert_eq!(upper_quartile(&[]), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
