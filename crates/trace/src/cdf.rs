//! Empirical cumulative distribution functions.
//!
//! Figures 4 and 5 of the paper are CDFs of per-packet latency. [`Cdf`] is
//! built once from a set of samples and then supports quantile lookup and
//! down-sampling to a fixed number of plot points for the figure binaries.

use crate::percentile::percentile_of_sorted;

/// An empirical CDF over `f64` samples.
#[derive(Debug, Clone)]
pub struct Cdf {
    /// Ascending-sorted samples.
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples. NaN samples are rejected.
    ///
    /// # Panics
    /// Panics if `samples` is empty or contains NaN.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "Cdf requires at least one sample");
        assert!(samples.iter().all(|x| !x.is_nan()), "NaN sample");
        samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        Self { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false: construction requires ≥ 1 sample.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// The `q`-quantile (`q` in `[0, 1]`), linearly interpolated.
    pub fn quantile(&self, q: f64) -> f64 {
        percentile_of_sorted(&self.sorted, q * 100.0)
    }

    /// Median, i.e. `quantile(0.5)`.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Mean of the samples.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Down-samples the CDF to at most `points` `(value, cumulative_fraction)`
    /// pairs, suitable for plotting or for the textual figure output.
    ///
    /// The first and last sample are always included.
    pub fn plot_points(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "need at least 2 plot points");
        let n = self.sorted.len();
        if n <= points {
            return self
                .sorted
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, (i + 1) as f64 / n as f64))
                .collect();
        }
        (0..points)
            .map(|i| {
                let idx = if i == points - 1 {
                    n - 1
                } else {
                    i * (n - 1) / (points - 1)
                };
                (self.sorted[idx], (idx + 1) as f64 / n as f64)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cdf() -> Cdf {
        Cdf::from_samples(vec![4.0, 1.0, 3.0, 2.0])
    }

    #[test]
    fn sorts_on_construction() {
        let c = cdf();
        assert_eq!(c.min(), 1.0);
        assert_eq!(c.max(), 4.0);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn quantiles() {
        let c = cdf();
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.quantile(1.0), 4.0);
        assert!((c.median() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn mean_is_arithmetic_mean() {
        assert!((cdf().mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn plot_points_small_input_returns_all() {
        let pts = cdf().plot_points(10);
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0], (1.0, 0.25));
        assert_eq!(pts[3], (4.0, 1.0));
    }

    #[test]
    fn plot_points_downsamples_and_keeps_extremes() {
        let samples: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let pts = Cdf::from_samples(samples).plot_points(11);
        assert_eq!(pts.len(), 11);
        assert_eq!(pts[0].0, 0.0);
        assert_eq!(pts[10].0, 999.0);
        // Cumulative fractions must be non-decreasing.
        assert!(pts.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_panics() {
        Cdf::from_samples(vec![]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_panics() {
        Cdf::from_samples(vec![1.0, f64::NAN]);
    }
}
