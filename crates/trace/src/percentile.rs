//! Exact percentile computation over in-memory samples.
//!
//! For a sample set small enough to keep and sort: the benchmark
//! (`crates/perf`) reads the quartiles and best deciles of its repeated
//! measurements through it. Latency recorded on a data path goes into a
//! [`crate::LogHistogram`] instead, whose quantiles need no samples.

/// Returns the `p`-th percentile (0.0 ..= 100.0) of an ascending-sorted
/// slice using linear interpolation between closest ranks (the same method
/// as numpy's default).
///
/// # Panics
/// Panics if `sorted` is empty or `p` is outside `[0, 100]`.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted ascending"
    );
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] + (sorted[hi] - sorted[lo]) * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sample() {
        assert_eq!(percentile_of_sorted(&[5.0], 0.0), 5.0);
        assert_eq!(percentile_of_sorted(&[5.0], 50.0), 5.0);
        assert_eq!(percentile_of_sorted(&[5.0], 100.0), 5.0);
    }

    #[test]
    fn endpoints_are_min_and_max() {
        let v = [1.0, 2.0, 3.0, 10.0];
        assert_eq!(percentile_of_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_of_sorted(&v, 100.0), 10.0);
    }

    #[test]
    fn median_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile_of_sorted(&v, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quartiles_of_known_set() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert!((percentile_of_sorted(&v, 25.0) - 20.0).abs() < 1e-9);
        assert!((percentile_of_sorted(&v, 50.0) - 35.0).abs() < 1e-9);
        assert!((percentile_of_sorted(&v, 75.0) - 40.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_slice_panics() {
        percentile_of_sorted(&[], 50.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        percentile_of_sorted(&[1.0], 101.0);
    }
}
