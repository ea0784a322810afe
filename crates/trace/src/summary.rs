//! Run-level summary statistics.
//!
//! §4.1: "We run each setup 5 times and report the average, minimum and
//! maximum incast completion time." [`Summary`] is that triple plus count
//! and standard deviation, computed online with Welford's algorithm so it is
//! numerically stable for long series too.

/// Online mean/variance/min/max accumulator (Welford).
#[derive(Debug, Clone)]
struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Finalizes into a [`Summary`].
    ///
    /// # Panics
    /// Panics if no observations were added.
    fn finish(&self) -> Summary {
        assert!(self.count > 0, "summary of zero observations");
        Summary {
            count: self.count,
            mean: self.mean,
            min: self.min,
            max: self.max,
            std: if self.count > 1 {
                (self.m2 / (self.count - 1) as f64).sqrt()
            } else {
                0.0
            },
        }
    }
}

/// Summary of a set of observations (e.g. the 5 repeated runs of one
/// experiment point).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Sample standard deviation (0 for a single observation).
    pub std: f64,
}

impl Summary {
    /// Summarizes a slice of observations.
    ///
    /// # Panics
    /// Panics if `xs` is empty.
    pub fn of(xs: &[f64]) -> Self {
        let mut w = Welford::new();
        for &x in xs {
            w.add(x);
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        // Sample std of that classic set is sqrt(32/7).
        assert!((s.std - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_observation_has_zero_std() {
        let s = Summary::of(&[3.5]);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.min, 3.5);
        assert_eq!(s.max, 3.5);
    }

    #[test]
    fn welford_matches_two_pass() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 100.0).collect();
        let s = Summary::of(&xs);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean - mean).abs() < 1e-9);
        assert!((s.std - var.sqrt()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "zero observations")]
    fn empty_panics() {
        Summary::of(&[]);
    }
}
