//! Step-function time-series utilities for queue-occupancy traces.
//!
//! A trace is a sequence of `(timestamp, value)` samples where each value
//! holds until the next sample (the shape produced by
//! `dcsim::sim::Simulator::port_trace`). These helpers compute the
//! summary statistics the congestion-point analyses report.

/// Maximum value observed in a step trace (0 for an empty trace).
pub fn step_max(trace: &[(u64, u64)]) -> u64 {
    trace.iter().map(|&(_, v)| v).max().unwrap_or(0)
}

/// Time-weighted mean of a step trace over `[0, end]`: each sample's value
/// holds from its timestamp to the next (the last holds until `end`), and
/// the value before the first sample is 0.
///
/// # Panics
/// Panics if timestamps are not non-decreasing or exceed `end`.
pub fn step_mean(trace: &[(u64, u64)], end: u64) -> f64 {
    if end == 0 || trace.is_empty() {
        return 0.0;
    }
    let mut weighted = 0u128;
    let mut prev_t = 0u64;
    let mut prev_v = 0u64;
    for &(t, v) in trace {
        assert!(t >= prev_t, "timestamps must be non-decreasing");
        assert!(t <= end, "sample beyond end");
        weighted += prev_v as u128 * (t - prev_t) as u128;
        prev_t = t;
        prev_v = v;
    }
    weighted += prev_v as u128 * (end - prev_t) as u128;
    weighted as f64 / end as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &[(u64, u64)] = &[(10, 100), (20, 50), (40, 0)];

    #[test]
    fn max_of_trace() {
        assert_eq!(step_max(TRACE), 100);
        assert_eq!(step_max(&[]), 0);
    }

    #[test]
    fn mean_is_time_weighted() {
        // 0 for t in [0,10), 100 for [10,20), 50 for [20,40), 0 for [40,100].
        // Mean over [0,100] = (100*10 + 50*20) / 100 = 20.
        assert!((step_mean(TRACE, 100) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn mean_extends_last_value() {
        let trace = [(0u64, 10u64)];
        assert!((step_mean(&trace, 50) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(step_mean(&[], 100), 0.0);
        assert_eq!(step_mean(TRACE, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn unsorted_trace_panics() {
        step_mean(&[(10, 1), (5, 2)], 100);
    }
}
