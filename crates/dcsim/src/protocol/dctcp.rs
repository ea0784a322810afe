//! The DCTCP-like congestion policy of §4.1.
//!
//! "Senders follow a DCTCP-like congestion control where the sender resets
//! its congestion window upon timeout, decreases the window upon receiving
//! marked ACK packet or NACK packet and increases the window upon receiving
//! unmarked ACK packet. Initial window is set to be 1 BDP."
//!
//! Multiplicative decreases are rate-limited to one per round — one
//! smoothed RTT, i.e. the *feedback delay*: how long the sender's
//! congestion signals take to arrive. This is the mechanism the paper's
//! insights hinge on: with a proxy the feedback delay is microseconds, so
//! the sender can react to every congestion episode; end to end it is
//! milliseconds, so the sender necessarily reacts at millisecond
//! granularity.
//!
//! Reliability (sequencing, retransmission, the RTO, failover) is the
//! [`Sender`](super::Sender) shell's; this module is only the window.

use crate::agent::{Counter, Ctx};
use crate::packet::{Packet, DATA_PKT_SIZE};
use crate::protocol::rto::RtoConfig;
use crate::protocol::sender::CongestionControl;
use crate::time::{SimDuration, SimTime};

/// How the sender reacts to ECN marks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EcnResponse {
    /// True DCTCP: estimate the marked fraction α per RTT round (EWMA with
    /// gain `g`) and cut `cwnd *= 1 − α/2` once per round containing marks.
    /// Gentle under transient marking, halving under persistent marking.
    DctcpAlpha {
        /// EWMA gain (DCTCP recommends 1/16).
        g: f64,
    },
    /// Simplified response: one multiplicative decrease (by `MD_FACTOR`)
    /// per round containing marks. Used by the `cc_response` ablation.
    HalvePerRound,
}

impl Default for EcnResponse {
    fn default() -> Self {
        EcnResponse::DctcpAlpha { g: 1.0 / 16.0 }
    }
}

/// Floor for the window, and where a timeout resets it: one packet.
const MIN_CWND_BYTES: u64 = DATA_PKT_SIZE;
/// Additive increase per unmarked ACK, in bytes: one packet.
const AI_BYTES: u64 = DATA_PKT_SIZE;
/// Multiplicative decrease applied on a congestion signal (marked ACK
/// under [`EcnResponse::HalvePerRound`], or a NACK): `cwnd *= MD_FACTOR`.
const MD_FACTOR: f64 = 0.5;

/// Congestion-control configuration for one sender.
#[derive(Debug, Clone, Copy)]
pub struct CcConfig {
    /// Initial congestion window in bytes (the paper: 1 BDP of the path).
    pub init_cwnd_bytes: u64,
    /// Round length (the once-per-round cut, the α update) before the
    /// first RTT sample; set to the path's base RTT.
    pub base_feedback_delay: SimDuration,
    /// RTO parameters.
    pub rto: RtoConfig,
    /// ECN-mark response (default: true DCTCP α estimation).
    pub ecn_response: EcnResponse,
}

impl CcConfig {
    /// A config for a path with the given base RTT and bottleneck-derived
    /// BDP (`init_cwnd = 1 BDP`, per §4.1 following Homa's aggressive
    /// first-RTT behaviour).
    pub fn for_rtt(base_rtt: SimDuration, bdp_bytes: u64) -> Self {
        CcConfig {
            init_cwnd_bytes: bdp_bytes.max(DATA_PKT_SIZE),
            base_feedback_delay: base_rtt,
            rto: RtoConfig::for_base_rtt(base_rtt),
            ecn_response: EcnResponse::default(),
        }
    }
}

/// The windowed DCTCP-like policy: cwnd, α and the once-per-round cut.
pub struct Dctcp {
    config: CcConfig,
    cwnd: f64,
    /// DCTCP α: EWMA of the fraction of marked bytes per round.
    alpha: f64,
    /// Start of the current observation round.
    round_start: SimTime,
    /// Acks counted in the current round.
    round_acked: u64,
    /// Marked acks counted in the current round.
    round_marked: u64,
    /// Last time a multiplicative decrease (or timeout reset) was applied.
    last_decrease: Option<SimTime>,
}

impl Dctcp {
    /// The policy at its initial window.
    pub fn new(config: CcConfig) -> Self {
        Dctcp {
            cwnd: config.init_cwnd_bytes as f64,
            alpha: 1.0,
            round_start: SimTime::ZERO,
            round_acked: 0,
            round_marked: 0,
            last_decrease: None,
            config,
        }
    }

    /// Current congestion window in bytes.
    #[cfg(test)]
    pub(crate) fn cwnd_bytes(&self) -> u64 {
        self.cwnd as u64
    }

    /// One round: the smoothed RTT, or the configured feedback delay
    /// before the first sample.
    fn round(&self, srtt: Option<SimDuration>) -> SimDuration {
        srtt.unwrap_or(self.config.base_feedback_delay)
    }

    fn clamp_cwnd(&mut self) {
        self.cwnd = self.cwnd.max(MIN_CWND_BYTES as f64);
    }

    /// Applies a multiplicative decrease unless one was already applied
    /// within the current round (one smoothed RTT): standard once-per-window
    /// reduction.
    fn congestion_signal(&mut self, signal_ts: u64, srtt: Option<SimDuration>, ctx: &mut Ctx) {
        let now = ctx.now;
        if let Some(last) = self.last_decrease {
            if now.0 < last.0 + self.round(srtt).0 {
                return;
            }
            // React once per congestion *event*: a signal carried by a
            // packet sent before the last decrease reports conditions the
            // sender already acted on (e.g. marked ACKs still in flight
            // after an RTO reset) and must not trigger another cut.
            if signal_ts < last.0 {
                return;
            }
        }
        self.cwnd *= MD_FACTOR;
        self.clamp_cwnd();
        self.last_decrease = Some(now);
        ctx.count(Counter::WindowDecreases, 1);
    }

    fn window_increase(&mut self) {
        // §4.1, literally: "increases the window upon receiving unmarked
        // ACK packet" — a fixed increment per unmarked ACK, i.e. the window
        // doubles per fully-unmarked round. Convergence speed is therefore
        // O(log) in *rounds*; the feedback delay sets the round length,
        // which is exactly the quantity the proxy shrinks.
        self.cwnd += AI_BYTES as f64;
        self.clamp_cwnd();
    }

    /// Ends the current DCTCP observation round if one smoothed RTT has
    /// elapsed: update α from the marked fraction and, if the round saw any
    /// marks, cut the window by α/2 (once per round).
    fn maybe_end_round(&mut self, g: f64, srtt: Option<SimDuration>, ctx: &mut Ctx) {
        if ctx.now.0 < self.round_start.0 + self.round(srtt).0 {
            return;
        }
        if self.round_acked > 0 {
            let frac = self.round_marked as f64 / self.round_acked as f64;
            self.alpha = (1.0 - g) * self.alpha + g * frac;
            if self.round_marked > 0 {
                self.cwnd *= 1.0 - self.alpha / 2.0;
                self.clamp_cwnd();
                self.last_decrease = Some(ctx.now);
                ctx.count(Counter::WindowDecreases, 1);
            }
        }
        self.round_start = ctx.now;
        self.round_acked = 0;
        self.round_marked = 0;
    }
}

impl CongestionControl for Dctcp {
    fn rto_config(&self) -> RtoConfig {
        self.config.rto
    }

    fn window(&self, _srtt: Option<SimDuration>) -> u64 {
        self.cwnd as u64 / DATA_PKT_SIZE
    }

    fn on_ack(&mut self, ack: &Packet, srtt: Option<SimDuration>, ctx: &mut Ctx) {
        match self.config.ecn_response {
            EcnResponse::DctcpAlpha { g } => {
                self.round_acked += 1;
                if ack.ece() {
                    self.round_marked += 1;
                }
                self.maybe_end_round(g, srtt, ctx);
                if !ack.ece() {
                    self.window_increase();
                }
            }
            EcnResponse::HalvePerRound => {
                if ack.ece() {
                    self.congestion_signal(ack.ts_echo, srtt, ctx);
                } else {
                    self.window_increase();
                }
            }
        }
    }

    fn on_nack(&mut self, nack: &Packet, srtt: Option<SimDuration>, ctx: &mut Ctx) {
        self.congestion_signal(nack.ts_echo, srtt, ctx);
    }

    fn on_timeout(&mut self, now: SimTime) {
        // Paper: "resets its congestion window upon timeout". Regrowth is
        // exponential (one increment per unmarked ACK).
        self.cwnd = MIN_CWND_BYTES as f64;
        self.last_decrease = Some(now);
    }
}
