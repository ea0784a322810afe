//! Pattern-aware incast detection (§6, "Proxying incast through
//! pattern-aware rerouting").
//!
//! For third-party applications without declarations, the cloud operator
//! can watch per-destination traffic and exploit periodicity: "ML training
//! is one such example, where synchronization phases follow regular
//! patterns." Two detectors compose:
//!
//! * [`IncastSignatureDetector`] — instantaneous: flags a destination once
//!   enough distinct sources send enough aggregate bytes within one
//!   observation bin (the many-to-one signature).
//! * [`PeriodicityDetector`] — longitudinal: autocorrelation over a sliding
//!   window of per-bin byte counts finds the dominant period, so the
//!   operator can *pre-arm* the proxy route before the next burst.

use dcsim::packet::HostId;
use std::collections::BTreeMap;

/// Configuration of the instantaneous incast-signature detector.
#[derive(Debug, Clone, Copy)]
pub struct SignatureConfig {
    /// Minimum distinct sources within a bin to call it an incast.
    pub min_degree: usize,
    /// Minimum aggregate bytes within a bin.
    pub min_bytes: u64,
}

impl Default for SignatureConfig {
    fn default() -> Self {
        SignatureConfig {
            min_degree: 4,
            min_bytes: 10_000_000,
        }
    }
}

/// An instantaneous detection verdict for one destination and bin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncastSignature {
    /// The destination under incast.
    pub destination: HostId,
    /// Distinct sources observed in the bin.
    pub degree: usize,
    /// Aggregate bytes observed in the bin.
    pub bytes: u64,
}

/// Detects the many-to-one signature within an observation bin.
#[derive(Debug, Default)]
pub struct IncastSignatureDetector {
    config: SignatureConfig,
    /// Per-destination accumulation for the current bin.
    bins: BTreeMap<HostId, BTreeMap<HostId, u64>>,
}

impl IncastSignatureDetector {
    /// Creates a detector.
    pub fn new(config: SignatureConfig) -> Self {
        IncastSignatureDetector {
            config,
            bins: BTreeMap::new(),
        }
    }

    /// Records traffic from `src` to `dst` within the current bin.
    pub fn record(&mut self, src: HostId, dst: HostId, bytes: u64) {
        *self.bins.entry(dst).or_default().entry(src).or_insert(0) += bytes;
    }

    /// Closes the current bin: returns every destination matching the
    /// incast signature (in destination order — the taken `BTreeMap`
    /// iterates in key order, no sort needed) and resets the bin state.
    pub fn end_bin(&mut self) -> Vec<IncastSignature> {
        std::mem::take(&mut self.bins)
            .into_iter()
            .filter_map(|(dst, sources)| {
                let degree = sources.len();
                let bytes: u64 = sources.values().sum();
                (degree >= self.config.min_degree && bytes >= self.config.min_bytes).then_some(
                    IncastSignature {
                        destination: dst,
                        degree,
                        bytes,
                    },
                )
            })
            .collect()
    }
}

/// Result of a periodicity analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Periodicity {
    /// Dominant period, in bins.
    pub period_bins: usize,
    /// Autocorrelation coefficient at that lag (0..=1; higher = stronger).
    pub confidence: f64,
}

/// Sliding-window autocorrelation detector over per-bin byte counts.
#[derive(Debug)]
pub struct PeriodicityDetector {
    window: Vec<f64>,
    capacity: usize,
}

impl PeriodicityDetector {
    /// Creates a detector keeping the last `window_bins` observations.
    ///
    /// # Panics
    /// Panics if the window is shorter than 8 bins (too little signal).
    pub fn new(window_bins: usize) -> Self {
        assert!(window_bins >= 8, "window too short for periodicity");
        PeriodicityDetector {
            window: Vec::with_capacity(window_bins),
            capacity: window_bins,
        }
    }

    /// Number of observations currently held.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True when no observations are held.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Appends one bin's byte count (oldest observation evicted at
    /// capacity).
    pub fn push(&mut self, bytes: u64) {
        if self.window.len() == self.capacity {
            self.window.remove(0);
        }
        self.window.push(bytes as f64);
    }

    /// Analyzes the window: returns the dominant period if its normalized
    /// autocorrelation exceeds `min_confidence`.
    pub fn dominant_period(&self, min_confidence: f64) -> Option<Periodicity> {
        let n = self.window.len();
        if n < 8 {
            return None;
        }
        let mean = self.window.iter().sum::<f64>() / n as f64;
        let centered: Vec<f64> = self.window.iter().map(|x| x - mean).collect();
        let var: f64 = centered.iter().map(|x| x * x).sum();
        if var == 0.0 {
            return None; // Flat series: no periodicity.
        }
        let mut best: Option<Periodicity> = None;
        for lag in 2..=(n / 2) {
            let corr: f64 = centered[lag..]
                .iter()
                .zip(&centered[..n - lag])
                .map(|(a, b)| a * b)
                .sum::<f64>()
                / var;
            if corr > best.map_or(min_confidence, |b| b.confidence) {
                best = Some(Periodicity {
                    period_bins: lag,
                    confidence: corr,
                });
            }
        }
        best
    }

    /// Predicts the next burst onset, in bins from now, given the last
    /// burst happened `bins_since_burst` bins ago and the detected period.
    pub fn next_burst_in(&self, period: &Periodicity, bins_since_burst: usize) -> usize {
        let p = period.period_bins;
        (p - (bins_since_burst % p)) % p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_requires_degree_and_volume() {
        let mut d = IncastSignatureDetector::new(SignatureConfig {
            min_degree: 3,
            min_bytes: 1000,
        });
        // Two sources only: not an incast.
        d.record(HostId(1), HostId(9), 600);
        d.record(HostId(2), HostId(9), 600);
        assert!(d.end_bin().is_empty());
        // Three sources, enough bytes: incast.
        for s in 1..=3 {
            d.record(HostId(s), HostId(9), 400);
        }
        let out = d.end_bin();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].destination, HostId(9));
        assert_eq!(out[0].degree, 3);
        assert_eq!(out[0].bytes, 1200);
    }

    #[test]
    fn signature_volume_threshold() {
        let mut d = IncastSignatureDetector::new(SignatureConfig {
            min_degree: 2,
            min_bytes: 1_000_000,
        });
        d.record(HostId(1), HostId(9), 100);
        d.record(HostId(2), HostId(9), 100);
        assert!(d.end_bin().is_empty(), "volume below threshold");
    }

    #[test]
    fn signature_bins_reset() {
        let mut d = IncastSignatureDetector::new(SignatureConfig {
            min_degree: 2,
            min_bytes: 100,
        });
        d.record(HostId(1), HostId(9), 100);
        d.end_bin();
        d.record(HostId(2), HostId(9), 100);
        assert!(d.end_bin().is_empty(), "sources must not leak across bins");
    }

    #[test]
    fn signature_multiple_destinations_sorted() {
        let mut d = IncastSignatureDetector::new(SignatureConfig {
            min_degree: 2,
            min_bytes: 10,
        });
        for dst in [HostId(5), HostId(3)] {
            d.record(HostId(1), dst, 10);
            d.record(HostId(2), dst, 10);
        }
        let out = d.end_bin();
        assert_eq!(out.len(), 2);
        assert!(out[0].destination < out[1].destination);
    }

    fn periodic_series(period: usize, cycles: usize) -> PeriodicityDetector {
        let mut d = PeriodicityDetector::new(period * cycles);
        for i in 0..period * cycles {
            // Burst of 100 MB in the first bin of every period, quiet rest.
            d.push(if i % period == 0 { 100_000_000 } else { 1_000 });
        }
        d
    }

    #[test]
    fn detects_ml_training_style_period() {
        let d = periodic_series(10, 6);
        let p = d.dominant_period(0.5).expect("period found");
        assert_eq!(p.period_bins, 10);
        assert!(p.confidence > 0.8, "{p:?}");
    }

    #[test]
    fn flat_traffic_has_no_period() {
        let mut d = PeriodicityDetector::new(64);
        for _ in 0..64 {
            d.push(5000);
        }
        assert!(d.dominant_period(0.3).is_none());
    }

    #[test]
    fn noise_has_low_confidence() {
        let mut rng = trace::SplitMix64::new(9);
        let mut d = PeriodicityDetector::new(128);
        for _ in 0..128 {
            d.push(rng.next_bounded(1_000_000));
        }
        // Random series may have spurious weak correlations but nothing
        // near a clean periodic signal.
        if let Some(p) = d.dominant_period(0.5) {
            panic!("noise should not show strong periodicity: {p:?}");
        }
    }

    #[test]
    fn window_slides() {
        let mut d = PeriodicityDetector::new(8);
        for i in 0..100 {
            d.push(i);
        }
        assert_eq!(d.len(), 8);
    }

    #[test]
    fn next_burst_prediction() {
        let d = periodic_series(10, 6);
        let p = d.dominant_period(0.5).unwrap();
        assert_eq!(d.next_burst_in(&p, 3), 7);
        assert_eq!(d.next_burst_in(&p, 10), 0, "burst due right now");
        assert_eq!(d.next_burst_in(&p, 13), 7);
    }

    #[test]
    #[should_panic(expected = "window too short")]
    fn tiny_window_panics() {
        PeriodicityDetector::new(4);
    }
}
