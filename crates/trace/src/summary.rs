//! Run-level summary statistics.
//!
//! §4.1: "We run each setup 5 times and report the average, minimum and
//! maximum incast completion time." [`Summary`] is that triple.

/// Mean, minimum and maximum of a set of observations (e.g. the 5
/// repeated runs of one experiment point).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a slice of observations. The mean is kept as a running
    /// mean (`mean += (x − mean) / n`), which stays accurate over long
    /// series where a plain sum would lose precision.
    ///
    /// # Panics
    /// Panics if `xs` is empty.
    pub fn of(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "summary of zero observations");
        let mut s = Summary {
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        };
        for (n, &x) in (1u64..).zip(xs) {
            s.mean += (x - s.mean) / n as f64;
            s.min = s.min.min(x);
            s.max = s.max.max(x);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn single_observation_is_its_own_summary() {
        let s = Summary::of(&[3.5]);
        assert_eq!((s.mean, s.min, s.max), (3.5, 3.5, 3.5));
    }

    #[test]
    fn running_mean_matches_two_pass() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 100.0).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((Summary::of(&xs).mean - mean).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "zero observations")]
    fn empty_panics() {
        Summary::of(&[]);
    }
}
