//! A rate-based, loss-resilient congestion policy (BBR-flavoured).
//!
//! §5 FW#1 notes that the answers to proxy-side loss detection "are
//! intertwined with ... congestion control (e.g., BBR is more resilient
//! to loss)". This module provides that other point in the design space:
//! a policy that
//!
//! * **paces** packets at a rate derived from a windowed-max estimate of
//!   the delivery rate (bottleneck bandwidth) instead of dumping a
//!   window,
//! * treats NACKs purely as *retransmission* signals — no rate cut on
//!   loss (the loss-resilience BBR is known for), and
//! * bounds inflight at `CWND_GAIN` × the estimated BDP.
//!
//! The model is deliberately BBR-lite: STARTUP (rate doubles per round
//! until the bandwidth estimate stops growing) then PROBE_BW (an 8-phase
//! gain cycle `1.25, 0.75, 1 × 6`). No PROBE_RTT state — flows here are
//! short relative to the 10 s PROBE_RTT cadence.
//!
//! Reliability (sequencing, retransmission, the RTO, failover) is the
//! [`Sender`](super::Sender) shell's; this module is only the rate.

use crate::agent::Ctx;
use crate::packet::{Packet, DATA_PKT_SIZE};
use crate::protocol::rto::RtoConfig;
use crate::protocol::sender::CongestionControl;
use crate::time::{Bandwidth, SimDuration, SimTime, PS_PER_SEC};
use std::collections::VecDeque;

/// Floor for the pacing rate.
pub const MIN_RATE: Bandwidth = Bandwidth::mbps(10);
/// STARTUP pacing gain (rate multiplier on the bandwidth estimate).
pub const STARTUP_GAIN: f64 = 2.0;
/// Inflight cap as a multiple of the estimated BDP.
const CWND_GAIN: f64 = 2.0;
/// Rounds of bandwidth-estimate stagnation that end STARTUP.
const STARTUP_FULL_BW_ROUNDS: u32 = 3;
/// Bandwidth max-filter window, in rounds.
const BW_WINDOW_ROUNDS: u64 = 10;

/// Configuration of the rate-based policy.
#[derive(Debug, Clone, Copy)]
pub struct RateCcConfig {
    /// Initial pacing rate (a guess at the fair share; the estimator takes
    /// over within a round).
    pub initial_rate: Bandwidth,
    /// Base RTT hint (pre-sample round length and BDP denominator).
    pub base_rtt: SimDuration,
    /// RTO parameters (tail-loss last resort).
    pub rto: RtoConfig,
}

impl RateCcConfig {
    /// A config for a path with the given base RTT and bottleneck.
    pub fn for_path(base_rtt: SimDuration, bottleneck: Bandwidth) -> Self {
        RateCcConfig {
            // Start at a tenth of the line rate: aggressive enough to
            // ramp in a few rounds, conservative enough not to replicate
            // the windowed sender's first-RTT catastrophe by fiat.
            initial_rate: Bandwidth(bottleneck.bps() / 10),
            base_rtt,
            rto: RtoConfig::for_base_rtt(base_rtt),
        }
    }
}

/// PROBE_BW's 8-phase pacing-gain cycle.
const PROBE_GAINS: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Startup,
    ProbeBw(usize),
}

/// The rate-based policy: bandwidth filter, phases and pacing.
pub struct Rate {
    config: RateCcConfig,
    /// Per-seq (send time, delivered count at send) for rate samples.
    send_snapshot: Vec<Option<(SimTime, u64)>>,
    /// Packets delivered (acked) so far.
    delivered: u64,
    /// Windowed max of delivery-rate samples: (round index, rate bps).
    bw_samples: VecDeque<(u64, u64)>,
    /// Current round index (advances once per smoothed RTT of acks).
    round: u64,
    round_start: SimTime,
    /// Best bandwidth seen when the current STARTUP stagnation check began.
    full_bw: u64,
    full_bw_rounds: u32,
    phase: Phase,
}

impl Rate {
    /// The policy in STARTUP at its initial rate.
    pub fn new(config: RateCcConfig) -> Self {
        Rate {
            config,
            send_snapshot: Vec::new(),
            delivered: 0,
            bw_samples: VecDeque::new(),
            round: 0,
            round_start: SimTime::ZERO,
            full_bw: 0,
            full_bw_rounds: 0,
            phase: Phase::Startup,
        }
    }

    /// Current bottleneck-bandwidth estimate (bps), or the initial rate
    /// before any sample.
    pub fn btl_bw(&self) -> Bandwidth {
        Bandwidth(
            self.bw_samples
                .iter()
                .map(|&(_, bw)| bw)
                .max()
                .unwrap_or(self.config.initial_rate.bps()),
        )
    }

    /// The current pacing gain.
    fn gain(&self) -> f64 {
        match self.phase {
            Phase::Startup => STARTUP_GAIN,
            Phase::ProbeBw(i) => PROBE_GAINS[i % PROBE_GAINS.len()],
        }
    }

    /// The current pacing rate (bps).
    pub fn pacing_rate(&self) -> Bandwidth {
        let rate = (self.btl_bw().bps() as f64 * self.gain()) as u64;
        Bandwidth(rate.max(MIN_RATE.bps()))
    }

    fn record_bw_sample(&mut self, now: SimTime, seq: u64) {
        let Some(Some((sent_at, delivered_at_send))) =
            self.send_snapshot.get(seq as usize).copied()
        else {
            return;
        };
        let elapsed = now.0.saturating_sub(sent_at.0);
        if elapsed == 0 {
            return;
        }
        let delivered_pkts = self.delivered.saturating_sub(delivered_at_send).max(1);
        let bps = (delivered_pkts as u128 * DATA_PKT_SIZE as u128 * 8 * PS_PER_SEC as u128
            / elapsed as u128) as u64;
        self.bw_samples.push_back((self.round, bps));
        while let Some(&(r, _)) = self.bw_samples.front() {
            if r + BW_WINDOW_ROUNDS <= self.round {
                self.bw_samples.pop_front();
            } else {
                break;
            }
        }
    }

    fn advance_round_if_due(&mut self, now: SimTime, srtt: Option<SimDuration>) {
        let round_len = srtt.unwrap_or(self.config.base_rtt);
        if now.0 < self.round_start.0 + round_len.0 {
            return;
        }
        self.round += 1;
        self.round_start = now;
        match self.phase {
            Phase::Startup => {
                let bw = self.btl_bw().bps();
                // Full pipe: bandwidth stopped growing by >25% per round.
                if bw > self.full_bw + self.full_bw / 4 {
                    self.full_bw = bw;
                    self.full_bw_rounds = 0;
                } else {
                    self.full_bw_rounds += 1;
                    if self.full_bw_rounds >= STARTUP_FULL_BW_ROUNDS {
                        self.phase = Phase::ProbeBw(0);
                    }
                }
            }
            Phase::ProbeBw(i) => {
                self.phase = Phase::ProbeBw((i + 1) % PROBE_GAINS.len());
            }
        }
    }
}

impl CongestionControl for Rate {
    const PACED: bool = true;

    fn rto_config(&self) -> RtoConfig {
        self.config.rto
    }

    /// Inflight cap in packets: CWND_GAIN × BDP(btl_bw, rtprop).
    fn window(&self, srtt: Option<SimDuration>) -> u64 {
        let rtt = srtt.unwrap_or(self.config.base_rtt);
        let bdp = self.btl_bw().bdp_bytes(rtt);
        (((bdp as f64 * CWND_GAIN) as u64) / DATA_PKT_SIZE).max(4)
    }

    fn pacing_gap(&self) -> SimDuration {
        self.pacing_rate().serialize_time(DATA_PKT_SIZE)
    }

    fn on_start(&mut self, now: SimTime) {
        self.round_start = now;
    }

    fn on_send(&mut self, seq: u64, now: SimTime) {
        let i = seq as usize;
        if self.send_snapshot.len() <= i {
            self.send_snapshot.resize(i + 1, None);
        }
        self.send_snapshot[i] = Some((now, self.delivered));
    }

    // `on_nack` keeps its no-op default: loss-resilient, a NACK is a
    // retransmission signal only.

    fn on_ack(&mut self, ack: &Packet, srtt: Option<SimDuration>, ctx: &mut Ctx) {
        self.delivered += 1;
        self.record_bw_sample(ctx.now, ack.seq);
        self.advance_round_if_due(ctx.now, srtt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> RateCcConfig {
        RateCcConfig::for_path(SimDuration::from_micros(10), Bandwidth::gbps(100))
    }

    #[test]
    fn pacing_rate_tracks_gain_and_floor() {
        let s = Rate::new(config());
        // No samples: initial rate x startup gain.
        assert_eq!(s.pacing_rate().bps(), 20_000_000_000);
        let tiny = Rate::new(RateCcConfig {
            initial_rate: Bandwidth(1),
            ..config()
        });
        assert_eq!(tiny.pacing_rate().bps(), 10_000_000, "floored at MIN_RATE");
    }

    #[test]
    fn bw_estimate_is_windowed_max() {
        let mut s = Rate::new(config());
        s.bw_samples.push_back((0, 5_000_000_000));
        s.bw_samples.push_back((1, 9_000_000_000));
        s.bw_samples.push_back((2, 7_000_000_000));
        assert_eq!(s.btl_bw().bps(), 9_000_000_000);
    }

    #[test]
    fn startup_exits_on_bandwidth_plateau() {
        let mut s = Rate::new(config());
        assert_eq!(s.phase, Phase::Startup);
        let srtt = Some(SimDuration::from_micros(10));
        // Feed flat bandwidth samples across rounds.
        for round in 0..6u64 {
            s.bw_samples.push_back((round, 10_000_000_000));
            s.round_start = SimTime(round * 100_000_000);
            s.advance_round_if_due(SimTime((round + 1) * 100_000_000), srtt);
        }
        assert!(matches!(s.phase, Phase::ProbeBw(_)), "{:?}", s.phase);
    }
}
