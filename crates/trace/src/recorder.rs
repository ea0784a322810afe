//! Thread-safe latency recording for the live proxy data path.
//!
//! The proxies record one sample per relayed chunk or receive batch from
//! several threads. [`LatencyRecorder`] wraps a [`LogHistogram`] in a
//! `std::sync::Mutex` (uncontended lock ≈ one CAS, fine for the scaled-down
//! rates we drive in tests/benches); callers time their own spans and hand
//! in nanoseconds, and read quantiles from a
//! [`snapshot`](LatencyRecorder::snapshot). Poisoning is ignored: every
//! histogram update leaves it valid, so a recorder outlives a panic on
//! another thread.

use crate::histogram::LogHistogram;
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
}
