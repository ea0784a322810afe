//! Thread-safe latency recording for the live proxy data path.
//!
//! The proxies record one sample per relayed chunk or receive batch from
//! several threads. [`LatencyRecorder`] wraps a [`LogHistogram`] in a
//! `std::sync::Mutex` (uncontended lock ≈ one CAS, fine for the scaled-down
//! rates we drive in tests/benches); callers time their own spans and hand
//! in nanoseconds. Poisoning is ignored: every histogram update leaves it
//! valid, so a recorder outlives a panic on another thread.

use crate::histogram::LogHistogram;
use crate::Cdf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A cloneable, thread-safe latency recorder (nanosecond samples).
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    inner: Arc<Mutex<LogHistogram>>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, LogHistogram> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records a latency expressed in nanoseconds.
    pub fn record_nanos(&self, nanos: u64) {
        self.lock().record(nanos);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.lock().count()
    }

    /// Snapshot of the underlying histogram.
    pub fn snapshot(&self) -> LogHistogram {
        self.lock().clone()
    }

    /// Builds a [`Cdf`] of the recorded samples in **microseconds** (the
    /// unit of Figs 4–5), one point per non-empty histogram bucket.
    ///
    /// Returns `None` when nothing was recorded.
    pub fn cdf_micros(&self) -> Option<Cdf> {
        let hist = self.lock();
        if hist.is_empty() {
            return None;
        }
        // cdf_points collapses duplicates; rebuild weighting by expanding the
        // cumulative fractions into proportional sample counts so quantiles
        // of the Cdf match the histogram.
        let total = hist.count();
        let mut weighted = Vec::with_capacity(total.min(100_000) as usize);
        let mut prev = 0.0f64;
        for (nanos, cum) in hist.cdf_points() {
            let weight = ((cum - prev) * total.min(100_000) as f64).round() as usize;
            for _ in 0..weight.max(1) {
                weighted.push(nanos as f64 / 1000.0);
            }
            prev = cum;
        }
        Some(Cdf::from_samples(weighted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn records_and_counts() {
        let r = LatencyRecorder::new();
        r.record_nanos(100);
        r.record_nanos(200);
        assert_eq!(r.count(), 2);
    }

    #[test]
    fn concurrent_recording() {
        let r = LatencyRecorder::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let r = r.clone();
                thread::spawn(move || {
                    for i in 0..1000u64 {
                        r.record_nanos(i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.count(), 8000);
    }

    #[test]
    fn cdf_micros_converts_units() {
        let r = LatencyRecorder::new();
        for _ in 0..100 {
            r.record_nanos(5_000); // 5 us
        }
        let cdf = r.cdf_micros().unwrap();
        assert!((cdf.median() - 5.0).abs() / 5.0 < 0.02);
    }

    #[test]
    fn cdf_micros_empty_is_none() {
        assert!(LatencyRecorder::new().cdf_micros().is_none());
    }

    #[test]
    fn cdf_micros_quantiles_track_histogram() {
        let r = LatencyRecorder::new();
        let mut rng = crate::rng::SplitMix64::new(3);
        for _ in 0..50_000 {
            // Bimodal: fast path ~1us, slow path ~300us, 90/10 split.
            if rng.next_bounded(10) == 0 {
                r.record_nanos(300_000 + rng.next_bounded(50_000));
            } else {
                r.record_nanos(1_000 + rng.next_bounded(500));
            }
        }
        let cdf = r.cdf_micros().unwrap();
        // Median must be on the fast mode, p99 on the slow mode.
        assert!(cdf.median() < 5.0, "median {}", cdf.median());
        assert!(cdf.quantile(0.99) > 200.0, "p99 {}", cdf.quantile(0.99));
    }
}
