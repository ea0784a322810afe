//! A rate-based, loss-resilient sender (BBR-flavoured).
//!
//! §5 FW#1 notes that the answers to proxy-side loss detection "are
//! intertwined with ... congestion control (e.g., BBR is more resilient
//! to loss)". This module provides that other point in the design space:
//! a sender that
//!
//! * **paces** packets at a rate derived from a windowed-max estimate of
//!   the delivery rate (bottleneck bandwidth) instead of dumping a
//!   window,
//! * treats NACKs purely as *retransmission* signals — no rate cut on
//!   loss (the loss-resilience BBR is known for), and
//! * bounds inflight at `cwnd_gain ×` the estimated BDP.
//!
//! The model is deliberately BBR-lite: STARTUP (rate doubles per round
//! until the bandwidth estimate stops growing) then PROBE_BW (an 8-phase
//! gain cycle `1.25, 0.75, 1 × 6`). No PROBE_RTT state — flows here are
//! short relative to the 10 s PROBE_RTT cadence.

use crate::agent::{Agent, Counter, Ctx, Note};
use crate::events::TimerKind;
use crate::packet::{FlowId, HostId, Packet, PacketKind, DATA_PKT_SIZE};
use crate::protocol::rto::{RtoConfig, RttEstimator};
use crate::protocol::seqtrack::SeqSet;
use crate::time::{Bandwidth, SimDuration, SimTime, PS_PER_SEC};
use std::collections::VecDeque;

/// Configuration of the rate-based sender.
#[derive(Debug, Clone, Copy)]
pub struct RateCcConfig {
    /// Initial pacing rate (a guess at the fair share; the estimator takes
    /// over within a round).
    pub initial_rate: Bandwidth,
    /// Floor for the pacing rate.
    pub min_rate: Bandwidth,
    /// STARTUP pacing gain (rate multiplier on the bandwidth estimate).
    pub startup_gain: f64,
    /// Inflight cap as a multiple of the estimated BDP.
    pub cwnd_gain: f64,
    /// Rounds of bandwidth-estimate stagnation that end STARTUP.
    pub startup_full_bw_rounds: u32,
    /// Bandwidth max-filter window, in rounds.
    pub bw_window_rounds: usize,
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
            min_rate: Bandwidth::mbps(10),
            startup_gain: 2.0,
            cwnd_gain: 2.0,
            startup_full_bw_rounds: 3,
            bw_window_rounds: 10,
            base_rtt,
            rto: RtoConfig::for_base_rtt(base_rtt),
        }
    }
}

/// PROBE_BW's 8-phase pacing-gain cycle.
const PROBE_GAINS: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];

/// Timer tag carried by the pacing tick.
const PACE_TAG: u64 = 1;

/// Cancelable timer slot holding the retransmission timeout.
const RTO_SLOT: u32 = 0;
/// Cancelable timer slot holding the pacing tick.
const PACE_SLOT: u32 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Startup,
    ProbeBw(usize),
}

/// The rate-based sending endpoint of one flow.
pub struct RateSender {
    flow: FlowId,
    src: HostId,
    to: HostId,
    config: RateCcConfig,
    total: u64,
    granted: u64,
    next_new: u64,
    acked: SeqSet,
    outstanding: SeqSet,
    rtx_pending: SeqSet,
    rtx_queue: VecDeque<u64>,
    /// Per-seq (send time, delivered count at send) for rate samples.
    send_snapshot: Vec<Option<(SimTime, u64)>>,
    /// Packets delivered (acked) so far.
    delivered: u64,
    /// Windowed max of delivery-rate samples: (round index, rate bps).
    bw_samples: VecDeque<(u64, u64)>,
    /// Current round index (advances once per base RTT of acks).
    round: u64,
    round_start: SimTime,
    /// Best bandwidth seen when the current STARTUP stagnation check began.
    full_bw: u64,
    full_bw_rounds: u32,
    phase: Phase,
    est: RttEstimator,
    /// True while the pace slot holds a pending tick; lets `on_note` keep
    /// an earlier deadline instead of pushing it out.
    pace_armed: bool,
    started: bool,
    done: bool,
}

impl RateSender {
    /// Creates a sender for a fixed-size flow.
    pub fn new(
        flow: FlowId,
        src: HostId,
        to: HostId,
        total_packets: u64,
        config: RateCcConfig,
    ) -> Self {
        assert!(total_packets > 0, "empty flow");
        RateSender {
            flow,
            src,
            to,
            total: total_packets,
            granted: total_packets,
            next_new: 0,
            acked: SeqSet::new(total_packets),
            outstanding: SeqSet::new(total_packets),
            rtx_pending: SeqSet::new(total_packets),
            rtx_queue: VecDeque::new(),
            send_snapshot: vec![None; total_packets as usize],
            delivered: 0,
            bw_samples: VecDeque::new(),
            round: 0,
            round_start: SimTime::ZERO,
            full_bw: 0,
            full_bw_rounds: 0,
            phase: Phase::Startup,
            est: RttEstimator::new(config.rto),
            pace_armed: false,
            started: false,
            done: false,
            config,
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
            Phase::Startup => self.config.startup_gain,
            Phase::ProbeBw(i) => PROBE_GAINS[i % PROBE_GAINS.len()],
        }
    }

    /// The current pacing rate (bps).
    pub fn pacing_rate(&self) -> Bandwidth {
        let rate = (self.btl_bw().bps() as f64 * self.gain()) as u64;
        Bandwidth(rate.max(self.config.min_rate.bps()))
    }

    /// Inflight cap in packets: cwnd_gain × BDP(btl_bw, rtprop).
    fn inflight_cap(&self) -> u64 {
        let rtt = self.est.srtt().unwrap_or(self.config.base_rtt);
        let bdp = self.btl_bw().bdp_bytes(rtt);
        (((bdp as f64 * self.config.cwnd_gain) as u64) / DATA_PKT_SIZE).max(4)
    }

    /// True once every packet is acked.
    pub fn is_complete(&self) -> bool {
        self.acked.is_full()
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
        let window = self.config.bw_window_rounds as u64;
        while let Some(&(r, _)) = self.bw_samples.front() {
            if r + window <= self.round {
                self.bw_samples.pop_front();
            } else {
                break;
            }
        }
    }

    fn advance_round_if_due(&mut self, now: SimTime) {
        let round_len = self.est.srtt().unwrap_or(self.config.base_rtt);
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
                    if self.full_bw_rounds >= self.config.startup_full_bw_rounds {
                        self.phase = Phase::ProbeBw(0);
                    }
                }
            }
            Phase::ProbeBw(i) => {
                self.phase = Phase::ProbeBw((i + 1) % PROBE_GAINS.len());
            }
        }
    }

    fn pop_rtx(&mut self) -> Option<u64> {
        while let Some(seq) = self.rtx_queue.pop_front() {
            self.rtx_pending.remove(seq);
            if !self.acked.contains(seq) {
                return Some(seq);
            }
        }
        None
    }

    fn next_seq_to_send(&mut self) -> Option<(u64, bool)> {
        if let Some(seq) = self.pop_rtx() {
            return Some((seq, true));
        }
        if self.next_new < self.total.min(self.granted) {
            let seq = self.next_new;
            self.next_new += 1;
            return Some((seq, false));
        }
        None
    }

    /// Sends one packet if pacing allows, then re-arms the pace timer.
    fn pace_tick(&mut self, ctx: &mut Ctx) {
        self.pace_armed = false;
        if self.done {
            return;
        }
        if self.outstanding.len() >= self.inflight_cap() {
            // Inflight-capped: nothing to send until feedback arrives (an
            // ACK/NACK or the RTO re-arms the pace clock). Crucially,
            // leave the timers alone — a no-op tick that called
            // `arm_rto` here would push the RTO deadline out by a full
            // RTO every pace gap, so the timeout could never fire while
            // every in-flight packet sat lost in a downed link: a
            // livelock (found by the chaos fuzzer as an event-cap blowup
            // and a stuck-flow violation).
            return;
        }
        if let Some((seq, is_retx)) = self.next_seq_to_send() {
            if is_retx {
                ctx.count(Counter::Retransmits, 1);
            }
            self.outstanding.insert(seq);
            self.send_snapshot[seq as usize] = Some((ctx.now, self.delivered));
            let pkt = Packet::data(self.flow, seq, self.src, self.to, ctx.now.0);
            ctx.send(self.src, pkt);
        }
        self.arm_rto(ctx);
    }

    fn arm_pace(&mut self, ctx: &mut Ctx) {
        if self.pace_armed || self.done {
            return;
        }
        // Nothing to send and nothing pending: the next ACK/NACK re-arms.
        if self.rtx_queue.is_empty() && self.next_new >= self.total.min(self.granted) {
            return;
        }
        let rate = self.pacing_rate();
        let gap = rate.serialize_time(DATA_PKT_SIZE);
        self.pace_armed = true;
        ctx.rearm_timer(
            PACE_SLOT,
            ctx.now + gap,
            TimerKind::Custom { tag: PACE_TAG },
        );
    }

    /// Re-anchors both timer slots at `now`: the RTO moves to `now + rto`
    /// (or is canceled when nothing is outstanding) and the pace tick is
    /// re-armed from scratch at the current rate.
    fn arm_rto(&mut self, ctx: &mut Ctx) {
        if self.is_complete() || self.outstanding.is_empty() {
            ctx.cancel_timer(RTO_SLOT);
        } else {
            ctx.rearm_timer(RTO_SLOT, ctx.now + self.est.rto(), TimerKind::Rto);
        }
        self.pace_armed = false;
        self.arm_pace(ctx);
        if !self.pace_armed {
            // No work to pace: drop any tick still pending from before.
            ctx.cancel_timer(PACE_SLOT);
        }
    }
}

impl Agent for RateSender {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.started = true;
        self.round_start = ctx.now;
        self.pace_tick(ctx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        match pkt.kind {
            PacketKind::Ack => {
                if pkt.ece {
                    ctx.count(Counter::MarkedAcks, 1);
                }
                if !self.acked.insert(pkt.seq) {
                    return;
                }
                self.outstanding.remove(pkt.seq);
                self.delivered += 1;
                self.est
                    .sample(SimDuration(ctx.now.0.saturating_sub(pkt.ts_echo)));
                self.record_bw_sample(ctx.now, pkt.seq);
                self.advance_round_if_due(ctx.now);
                if self.is_complete() {
                    self.done = true;
                    self.pace_armed = false;
                    ctx.cancel_timer(RTO_SLOT);
                    ctx.cancel_timer(PACE_SLOT);
                    return;
                }
            }
            PacketKind::Nack => {
                // Loss-resilient: retransmit, no rate cut.
                if self.acked.contains(pkt.seq) || self.rtx_pending.contains(pkt.seq) {
                    return;
                }
                self.outstanding.remove(pkt.seq);
                self.rtx_pending.insert(pkt.seq);
                self.rtx_queue.push_back(pkt.seq);
            }
            PacketKind::Data => panic!("sender received a data packet"),
        }
        self.arm_rto(ctx);
    }

    fn on_timer(&mut self, kind: TimerKind, ctx: &mut Ctx) {
        match kind {
            TimerKind::Custom { tag: PACE_TAG } => self.pace_tick(ctx),
            TimerKind::Rto => {
                // Both slots are canceled on completion, so a firing timer
                // is always current.
                debug_assert!(!self.done, "RTO fired on a completed flow");
                ctx.count(Counter::RtoFires, 1);
                self.est.on_timeout();
                for seq in self.outstanding.drain_to_vec() {
                    if !self.acked.contains(seq) && self.rtx_pending.insert(seq) {
                        self.rtx_queue.push_back(seq);
                    }
                }
                self.arm_rto(ctx);
            }
            TimerKind::Custom { .. } => {}
        }
    }

    fn on_note(&mut self, note: Note, ctx: &mut Ctx) {
        match note {
            Note::PacketsGranted { count } => {
                self.granted = (self.granted + count).min(self.total);
            }
            Note::GrantWatermark { granted } => {
                self.granted = self.granted.max(granted).min(self.total);
            }
            // Rate senders are never relays today; nothing to serve.
            Note::GrantSync => return,
            // Fidelity regime change on the path: counted, not acted on.
            Note::FidelityShift => {
                ctx.count(Counter::FidelityHotSignals, 1);
                return;
            }
        }
        if self.started {
            self.arm_pace(ctx);
        }
    }

    fn on_restore(&mut self, ctx: &mut Ctx) {
        if self.done || self.is_complete() {
            return;
        }
        if !self.started {
            // The FlowStart event died while the host was down.
            self.on_start(ctx);
            return;
        }
        // Pace/RTO ticks that fired during the outage were consumed
        // without a handler (and `pace_armed` may stale-claim a pending
        // tick). Requeue everything outstanding and restart both clocks.
        self.est.on_timeout();
        for seq in self.outstanding.drain_to_vec() {
            if !self.acked.contains(seq) && self.rtx_pending.insert(seq) {
                self.rtx_queue.push_back(seq);
            }
        }
        self.pace_armed = false;
        self.arm_rto(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::FlowSpec;
    use crate::sim::{Simulator, StopReason};
    use crate::topology::{two_dc_leaf_spine, TwoDcParams};

    fn config() -> RateCcConfig {
        RateCcConfig::for_path(SimDuration::from_micros(10), Bandwidth::gbps(100))
    }

    #[test]
    fn pacing_rate_tracks_gain_and_floor() {
        let s = RateSender::new(FlowId(0), HostId(0), HostId(1), 10, config());
        // No samples: initial rate x startup gain.
        assert_eq!(s.pacing_rate().bps(), 20_000_000_000);
        let tiny = RateSender::new(
            FlowId(0),
            HostId(0),
            HostId(1),
            10,
            RateCcConfig {
                initial_rate: Bandwidth(1),
                ..config()
            },
        );
        assert_eq!(tiny.pacing_rate().bps(), 10_000_000, "floored at min_rate");
    }

    #[test]
    fn bw_estimate_is_windowed_max() {
        let mut s = RateSender::new(FlowId(0), HostId(0), HostId(1), 100, config());
        s.bw_samples.push_back((0, 5_000_000_000));
        s.bw_samples.push_back((1, 9_000_000_000));
        s.bw_samples.push_back((2, 7_000_000_000));
        assert_eq!(s.btl_bw().bps(), 9_000_000_000);
    }

    /// End-to-end: a rate-based flow across the test topology completes
    /// and reaches a sane bandwidth estimate.
    #[test]
    fn single_flow_completes_with_pacing() {
        let topo = two_dc_leaf_spine(&TwoDcParams::small_test());
        let mut sim = Simulator::new(topo, 5);
        let dst = sim.topology().hosts_in_dc(1)[0];
        let cc = RateCcConfig::for_path(
            sim.topology().base_rtt(HostId(0), dst, 1500, 64),
            Bandwidth::gbps(100),
        );
        let spec = FlowSpec::new(HostId(0), dst, 5_000_000);
        let packets = crate::protocol::packets_for_bytes(spec.bytes);
        let flow = sim.new_flow();
        let sender = sim.add_agent(Box::new(RateSender::new(
            flow, spec.src, spec.dst, packets, cc,
        )));
        let receiver = sim.add_agent(Box::new(crate::protocol::Receiver::new(
            flow, spec.dst, packets,
        )));
        sim.bind(flow, spec.src, sender);
        sim.bind(flow, spec.dst, receiver);
        sim.schedule_start(SimTime::ZERO, sender);
        let report = sim.run(Some(SimTime::ZERO + SimDuration::from_secs(30)));
        assert_eq!(report.stop, StopReason::Idle, "{report:?}");
        let done = sim.metrics().completion(flow).expect("completes");
        // 5 MB at ≥ 10 Gbps effective with ~400 µs RTT: well under 50 ms.
        assert!(
            done < SimTime::ZERO + SimDuration::from_millis(50),
            "done at {done}"
        );
    }

    #[test]
    fn nack_retransmits_without_rate_cut() {
        let mut s = RateSender::new(FlowId(0), HostId(0), HostId(1), 100, config());
        let mut fx = Vec::new();
        s.on_start(&mut Ctx::harness(
            SimTime(0),
            crate::packet::AgentId(0),
            &mut fx,
        ));
        let rate_before = s.pacing_rate();
        // Simulate a sent packet then a NACK for it.
        s.outstanding.insert(0);
        s.send_snapshot[0] = Some((SimTime(0), 0));
        let mut d = Packet::data(FlowId(0), 0, HostId(0), HostId(1), 0);
        d.trim();
        let nack = Packet::nack_for(&d, HostId(1));
        let mut fx = Vec::new();
        s.on_packet(
            nack,
            &mut Ctx::harness(SimTime(1000), crate::packet::AgentId(0), &mut fx),
        );
        assert_eq!(s.pacing_rate(), rate_before, "loss must not cut the rate");
        assert!(s.rtx_pending.contains(0));
    }

    #[test]
    fn startup_exits_on_bandwidth_plateau() {
        let mut s = RateSender::new(FlowId(0), HostId(0), HostId(1), 1000, config());
        assert_eq!(s.phase, Phase::Startup);
        s.est.sample(SimDuration::from_micros(10));
        // Feed flat bandwidth samples across rounds.
        for round in 0..6u64 {
            s.bw_samples.push_back((round, 10_000_000_000));
            s.round_start = SimTime(round * 100_000_000);
            s.advance_round_if_due(SimTime((round + 1) * 100_000_000));
        }
        assert!(matches!(s.phase, Phase::ProbeBw(_)), "{:?}", s.phase);
    }

    #[test]
    fn duplicate_nack_queues_once() {
        let mut s = RateSender::new(FlowId(0), HostId(0), HostId(1), 10, config());
        s.outstanding.insert(3);
        let mut d = Packet::data(FlowId(0), 3, HostId(0), HostId(1), 0);
        d.trim();
        let nack = Packet::nack_for(&d, HostId(1));
        let mut fx = Vec::new();
        let mut ctx = Ctx::harness(SimTime(0), crate::packet::AgentId(0), &mut fx);
        s.on_packet(nack, &mut ctx);
        s.on_packet(nack, &mut ctx);
        assert_eq!(s.rtx_queue.len(), 1);
    }
}
