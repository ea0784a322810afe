//! Bounded-memory logarithmic histogram for data-path latency capture.
//!
//! The live proxy records one latency sample per packet; keeping raw samples
//! for a 30-second line-rate run would be gigabytes. [`LogHistogram`] is an
//! HDR-style histogram: values are bucketed by (exponent, sub-bucket) with a
//! configurable number of sub-bucket bits, giving a fixed relative error
//! (1/2ⁿ for n sub-bucket bits) and O(1) recording with no allocation after
//! construction.

/// Default sub-bucket precision: 7 bits ⇒ ≤ 0.78% relative error.
pub const DEFAULT_SUB_BITS: u32 = 7;

/// A logarithmic histogram over `u64` values (typically nanoseconds).
#[derive(Debug, Clone)]
pub struct LogHistogram {
    sub_bits: u32,
    /// counts[exponent * sub_buckets + sub] — exponent 0..64.
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl LogHistogram {
    /// Creates an empty histogram with the default precision.
    pub fn new() -> Self {
        Self::with_precision(DEFAULT_SUB_BITS)
    }

    /// Creates an empty histogram with `sub_bits` bits of sub-bucket
    /// precision (relative error ≤ 2^-sub_bits).
    ///
    /// # Panics
    /// Panics unless `1 <= sub_bits <= 16`.
    pub fn with_precision(sub_bits: u32) -> Self {
        assert!((1..=16).contains(&sub_bits), "sub_bits must be in 1..=16");
        let sub_buckets = 1usize << sub_bits;
        Self {
            sub_bits,
            counts: vec![0; 64 * sub_buckets],
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    #[inline]
    fn sub_buckets(&self) -> usize {
        1usize << self.sub_bits
    }

    /// Index of the bucket containing `value`.
    #[inline]
    fn bucket_index(&self, value: u64) -> usize {
        // Values below 2^sub_bits are stored exactly in the low buckets.
        if value == 0 {
            return 0;
        }
        let v = value;
        let exp = 63 - v.leading_zeros();
        if exp < self.sub_bits {
            v as usize
        } else {
            let shift = exp - self.sub_bits;
            let sub = ((v >> shift) as usize) & (self.sub_buckets() - 1);
            ((exp - self.sub_bits + 1) as usize) * self.sub_buckets() + sub
        }
    }

    /// Representative (midpoint) value of bucket `idx`.
    fn bucket_value(&self, idx: usize) -> u64 {
        let sb = self.sub_buckets();
        if idx < sb {
            return idx as u64;
        }
        let exp_block = idx / sb - 1;
        let sub = idx % sb;
        let base = (sb as u64 + sub as u64) << exp_block;
        let width = 1u64 << exp_block;
        base + width / 2
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let idx = self.bucket_index(value);
        self.counts[idx] += 1;
        self.total += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value as u128;
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact minimum recorded value (not bucketed).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value (not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of recorded values.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum as f64 / self.total as f64
    }

    /// Approximate `q`-quantile (`q` in `[0, 1]`); error bounded by the bucket
    /// width at that value. Clamped to the exact observed min/max.
    ///
    /// # Panics
    /// Panics if the histogram is empty or q is out of range.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!(self.total > 0, "quantile of empty histogram");
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return self.bucket_value(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    /// Panics if precisions differ.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(self.sub_bits, other.sub_bits, "precision mismatch");
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// Expands the histogram into `(value, cumulative_fraction)` plot points,
    /// one per non-empty bucket. Suitable for CDF-style textual plots.
    pub fn cdf_points(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            out.push((
                self.bucket_value(idx).clamp(self.min, self.max),
                seen as f64 / self.total as f64,
            ));
        }
        out
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..100u64 {
            h.record(v);
        }
        // With 7 sub-bits, values < 128 are exact.
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 99);
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 99);
    }

    #[test]
    fn relative_error_bounded() {
        let mut h = LogHistogram::new();
        let vals: Vec<u64> = (0..10_000).map(|i| 1000 + i * 37).collect();
        for &v in &vals {
            h.record(v);
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            let est = h.quantile(q) as f64;
            let mut sorted = vals.clone();
            sorted.sort_unstable();
            let exact =
                sorted[((q * (sorted.len() - 1) as f64) as usize).min(sorted.len() - 1)] as f64;
            let rel = (est - exact).abs() / exact;
            assert!(rel < 0.02, "q={q}: est={est} exact={exact} rel={rel}");
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LogHistogram::new();
        h.record(10);
        h.record(20);
        h.record(30);
        assert!((h.mean() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(100);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 100);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn cdf_points_monotone() {
        let mut h = LogHistogram::new();
        let mut rng = crate::rng::SplitMix64::new(5);
        for _ in 0..5000 {
            h.record(rng.next_bounded(1_000_000));
        }
        let pts = h.cdf_points();
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(pts.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_value_is_recordable() {
        let mut h = LogHistogram::new();
        h.record(0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn huge_values_do_not_overflow() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.count(), 2);
        assert!(h.quantile(1.0) >= h.min());
    }

    #[test]
    #[should_panic(expected = "empty histogram")]
    fn quantile_empty_panics() {
        LogHistogram::new().quantile(0.5);
    }
}
