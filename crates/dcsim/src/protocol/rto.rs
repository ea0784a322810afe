//! RTT estimation and retransmission-timeout computation (Jacobson/Karels,
//! RFC 6298 structure) over simulated time.
//!
//! The RTO floor is the knob that distinguishes path classes in the paper:
//! an intra-datacenter connection (sender→proxy in the Naive design) can
//! afford "microsecond-level timeout for loss detection" (§5), while an
//! end-to-end inter-datacenter connection must keep a millisecond-scale
//! floor to avoid spurious timeouts.

use crate::time::SimDuration;

/// RTO configuration.
#[derive(Debug, Clone, Copy)]
pub struct RtoConfig {
    /// Lower bound on the computed RTO.
    pub min_rto: SimDuration,
    /// Upper bound on the computed RTO (also caps exponential backoff).
    pub max_rto: SimDuration,
    /// RTO to use before the first RTT sample.
    pub initial_rto: SimDuration,
}

impl RtoConfig {
    /// A floor suited to a path with the given base RTT: 3× base RTT, but
    /// never below 10 µs (scheduler granularity the paper assumes for
    /// eBPF-assisted loss detection) and never above 50 ms.
    pub fn for_base_rtt(base_rtt: SimDuration) -> Self {
        let floor = SimDuration((base_rtt.0.saturating_mul(3)).clamp(
            SimDuration::from_micros(10).0,
            SimDuration::from_millis(50).0,
        ));
        RtoConfig {
            min_rto: floor,
            max_rto: SimDuration::from_secs(2),
            initial_rto: SimDuration(floor.0.saturating_mul(3)),
        }
    }
}

/// Online RTT estimator producing RTO values.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    config: RtoConfig,
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    /// Current backoff multiplier (doubles per timeout, resets on sample).
    backoff: u32,
}

impl RttEstimator {
    /// Creates an estimator with no samples yet.
    pub fn new(config: RtoConfig) -> Self {
        RttEstimator {
            config,
            srtt: None,
            rttvar: SimDuration::ZERO,
            backoff: 0,
        }
    }

    /// Smoothed RTT, if at least one sample arrived.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Feeds one RTT sample; resets backoff (Karn's algorithm is enforced by
    /// the caller, which only samples unambiguous acks).
    pub fn sample(&mut self, rtt: SimDuration) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = SimDuration(rtt.0 / 2);
            }
            Some(srtt) => {
                let err = srtt.0.abs_diff(rtt.0);
                // rttvar = 3/4 rttvar + 1/4 |err| ; srtt = 7/8 srtt + 1/8 rtt
                self.rttvar = SimDuration((3 * self.rttvar.0 + err) / 4);
                self.srtt = Some(SimDuration((7 * srtt.0 + rtt.0) / 8));
            }
        }
        self.backoff = 0;
    }

    /// Doubles the timeout after an expiry (capped at `max_rto`).
    pub fn on_timeout(&mut self) {
        self.backoff = (self.backoff + 1).min(16);
    }

    /// A copy sent since the last timeout was acked, though Karn's rule
    /// keeps it out of the estimate: the path is alive. A sender calls
    /// this once it has nothing left to send for the first time, when no
    /// sample can come any more; without it, consecutive timeouts would
    /// double the RTO up to `max_rto` and hold it there, one `max_rto`
    /// per loss. A backoff that has doubled more than once ends; a single
    /// doubling is left to Karn's rule.
    pub fn on_retransmit_acked(&mut self) {
        if self.backoff >= 2 {
            self.backoff = 0;
        }
    }

    /// The current retransmission timeout.
    pub fn rto(&self) -> SimDuration {
        let base = match self.srtt {
            None => self.config.initial_rto,
            Some(srtt) => SimDuration(
                (srtt.0 + 4 * self.rttvar.0).clamp(self.config.min_rto.0, self.config.max_rto.0),
            ),
        };
        SimDuration(
            base.0
                .saturating_mul(1u64 << self.backoff.min(16))
                .min(self.config.max_rto.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RtoConfig {
        RtoConfig {
            min_rto: SimDuration::from_micros(100),
            max_rto: SimDuration::from_secs(1),
            initial_rto: SimDuration::from_millis(1),
        }
    }

    #[test]
    fn initial_rto_before_samples() {
        let est = RttEstimator::new(cfg());
        assert_eq!(est.rto(), SimDuration::from_millis(1));
        assert!(est.srtt().is_none());
    }

    #[test]
    fn first_sample_sets_srtt_and_var() {
        let mut est = RttEstimator::new(cfg());
        est.sample(SimDuration::from_micros(200));
        assert_eq!(est.srtt(), Some(SimDuration::from_micros(200)));
        // rto = srtt + 4 * (srtt/2) = 3*srtt = 600us.
        assert_eq!(est.rto(), SimDuration::from_micros(600));
    }

    #[test]
    fn stable_rtt_converges_to_min_floor() {
        let mut est = RttEstimator::new(cfg());
        for _ in 0..100 {
            est.sample(SimDuration::from_micros(10));
        }
        // rttvar decays toward zero; rto clamps at min_rto.
        assert_eq!(est.rto(), SimDuration::from_micros(100));
    }

    #[test]
    fn variance_raises_rto() {
        let mut est = RttEstimator::new(cfg());
        for i in 0..50 {
            let us = if i % 2 == 0 { 100 } else { 500 };
            est.sample(SimDuration::from_micros(us));
        }
        assert!(est.rto() > SimDuration::from_micros(500));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut est = RttEstimator::new(cfg());
        est.sample(SimDuration::from_micros(100));
        let base = est.rto();
        est.on_timeout();
        assert_eq!(est.rto(), SimDuration(base.0 * 2));
        est.on_timeout();
        assert_eq!(est.rto(), SimDuration(base.0 * 4));
        for _ in 0..30 {
            est.on_timeout();
        }
        assert_eq!(est.rto(), SimDuration::from_secs(1), "capped at max_rto");
    }

    #[test]
    fn sample_resets_backoff() {
        let mut est = RttEstimator::new(cfg());
        est.sample(SimDuration::from_micros(100));
        est.on_timeout();
        est.on_timeout();
        est.sample(SimDuration::from_micros(100));
        assert!(est.rto() < SimDuration::from_millis(1));
    }

    #[test]
    fn an_acked_retransmission_ends_a_repeated_backoff() {
        let mut est = RttEstimator::new(cfg());
        est.sample(SimDuration::from_micros(100));
        let base = est.rto();
        est.on_timeout();
        est.on_retransmit_acked();
        assert_eq!(est.rto(), SimDuration(base.0 * 2), "one doubling stays");
        est.on_timeout();
        est.on_retransmit_acked();
        assert_eq!(est.rto(), base);
        assert_eq!(est.srtt(), Some(SimDuration::from_micros(100)), "no sample");
    }

    #[test]
    fn for_base_rtt_scales_floor() {
        let intra = RtoConfig::for_base_rtt(SimDuration::from_micros(8));
        assert_eq!(intra.min_rto, SimDuration::from_micros(24));
        let inter = RtoConfig::for_base_rtt(SimDuration::from_millis(4));
        assert_eq!(inter.min_rto, SimDuration::from_millis(12));
        let tiny = RtoConfig::for_base_rtt(SimDuration::from_nanos(100));
        assert_eq!(tiny.min_rto, SimDuration::from_micros(10), "floor at 10us");
        let huge = RtoConfig::for_base_rtt(SimDuration::from_secs(1));
        assert_eq!(huge.min_rto, SimDuration::from_millis(50), "cap at 50ms");
    }
}
