//! The DCTCP-like sender of §4.1.
//!
//! "Senders follow a DCTCP-like congestion control where the sender resets
//! its congestion window upon timeout, decreases the window upon receiving
//! marked ACK packet or NACK packet and increases the window upon receiving
//! unmarked ACK packet. Initial window is set to be 1 BDP."
//!
//! Loss is detected two ways, as in NDP-style transports: a NACK names a
//! specific trimmed sequence (fast path), and the retransmission timeout
//! catches everything else (dropped headers, lost ACKs).
//!
//! Multiplicative decreases are rate-limited to one per *feedback delay* —
//! the sender's running estimate of how long its congestion signals take to
//! arrive (measured from the timestamp echo). This is the mechanism the
//! paper's insights hinge on: with a proxy the feedback delay is
//! microseconds, so the sender can react to every congestion episode; end
//! to end it is milliseconds, so the sender necessarily reacts at
//! millisecond granularity.

use crate::agent::{Agent, Counter, Ctx, Note};
use crate::events::TimerKind;
use crate::packet::{AgentId, FlowId, HostId, Packet, PacketKind, DATA_PKT_SIZE, MSS};
use crate::protocol::rto::{RtoConfig, RttEstimator};
use crate::protocol::seqtrack::SeqSet;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

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
    /// Simplified response: one multiplicative decrease (by `md_factor`)
    /// per round containing marks. Used by the `cc_response` ablation.
    HalvePerRound,
}

impl Default for EcnResponse {
    fn default() -> Self {
        EcnResponse::DctcpAlpha { g: 1.0 / 16.0 }
    }
}

/// Congestion-control configuration for one sender.
#[derive(Debug, Clone, Copy)]
pub struct CcConfig {
    /// Initial congestion window in bytes (the paper: 1 BDP of the path).
    pub init_cwnd_bytes: u64,
    /// Floor for the window (default: one packet).
    pub min_cwnd_bytes: u64,
    /// Optional ceiling for the window.
    pub max_cwnd_bytes: Option<u64>,
    /// Additive increase per window of unmarked ACKs, in bytes (default:
    /// one packet per RTT, standard AIMD).
    pub ai_bytes: u64,
    /// Multiplicative decrease factor applied on a congestion signal
    /// (marked ACK or NACK): `cwnd *= md_factor`.
    pub md_factor: f64,
    /// Initial feedback-delay estimate, used to rate-limit decreases before
    /// the first congestion signal measures the true loop delay (set this
    /// to the path's base RTT).
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
            min_cwnd_bytes: DATA_PKT_SIZE,
            max_cwnd_bytes: None,
            ai_bytes: DATA_PKT_SIZE,
            md_factor: 0.5,
            base_feedback_delay: base_rtt,
            rto: RtoConfig::for_base_rtt(base_rtt),
            ecn_response: EcnResponse::default(),
        }
    }
}

/// Timer tag used by the proxy-health probe timer (failover re-probing).
const PROBE_TAG: u64 = 0xFA11;

/// Cancelable timer slot holding the retransmission timeout.
const RTO_SLOT: u32 = 0;
/// Cancelable timer slot holding the proxy re-probe timer.
const PROBE_SLOT: u32 = 1;

/// Configuration of proxy failover for a proxied sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverConfig {
    /// Consecutive RTO fires with no feedback at all before the sender
    /// declares the proxy unreachable and falls back to the direct path.
    pub rto_threshold: u32,
    /// Ceiling on the exponential backoff between proxy re-probes while on
    /// the direct path (the first probe fires one RTO after failover).
    pub probe_backoff_max: SimDuration,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            rto_threshold: 3,
            probe_backoff_max: SimDuration::from_millis(50),
        }
    }
}

/// Which path a failover-capable sender is currently using.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PathMode {
    /// Normal operation: data via the proxy.
    ViaProxy,
    /// Degraded: proxy declared dead, data on the direct path.
    Direct,
}

/// Sender-side proxy-health state (present only on proxied senders built
/// with [`DctcpSender::with_failover`]).
struct Failover {
    cfg: FailoverConfig,
    /// The receiver, for addressing direct-path packets.
    direct: HostId,
    mode: PathMode,
    /// RTO fires since the last feedback of any kind.
    consecutive_rtos: u32,
    /// When the last ACK/NACK arrived (or the flow started).
    last_feedback: SimTime,
    /// Current re-probe interval (doubles per probe, clamped).
    probe_backoff: SimDuration,
}

/// The DCTCP-like sending endpoint of one flow.
pub struct DctcpSender {
    flow: FlowId,
    /// This sender's host.
    src: HostId,
    /// Host packets are steered to (the receiver, or the proxy when the
    /// flow is proxied).
    to: HostId,
    config: CcConfig,
    /// Total packets this flow will carry.
    total: u64,
    /// Packets currently permitted (relay senders are granted packets
    /// incrementally by their ingress side; plain senders get all packets
    /// up front).
    granted: u64,
    /// Next never-sent sequence.
    next_new: u64,
    acked: SeqSet,
    /// Sent and not yet acked/nacked.
    outstanding: SeqSet,
    /// Queued for retransmission (bitmap deduplicates the queue).
    rtx_pending: SeqSet,
    rtx_queue: VecDeque<u64>,
    /// Sequences ever retransmitted (Karn: excluded from RTT sampling).
    ever_retx: SeqSet,
    cwnd: f64,
    est: RttEstimator,
    /// EWMA of the congestion feedback delay (signal arrival − send time).
    feedback_delay: SimDuration,
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
    started: bool,
    /// Proxy-health monitor; `None` on unproxied senders (zero overhead).
    failover: Option<Failover>,
    /// The agent granting packets to this relay (the Naive ingress), if
    /// any. Lets a restored relay pull the grant watermark back: grants
    /// notified during a crash window died with the crash.
    grant_src: Option<AgentId>,
}

impl DctcpSender {
    /// Creates a sender for a fixed-size flow of `total_packets`, fully
    /// granted up front.
    pub fn new(
        flow: FlowId,
        src: HostId,
        to: HostId,
        total_packets: u64,
        config: CcConfig,
    ) -> Self {
        Self::with_grants(flow, src, to, total_packets, total_packets, config)
    }

    /// Creates a relay sender that may only transmit granted packets
    /// (grants arrive via [`Note::PacketsGranted`]).
    pub fn relay(
        flow: FlowId,
        src: HostId,
        to: HostId,
        total_packets: u64,
        config: CcConfig,
    ) -> Self {
        Self::with_grants(flow, src, to, total_packets, 0, config)
    }

    fn with_grants(
        flow: FlowId,
        src: HostId,
        to: HostId,
        total: u64,
        granted: u64,
        config: CcConfig,
    ) -> Self {
        assert!(total > 0, "empty flow");
        DctcpSender {
            flow,
            src,
            to,
            total,
            granted,
            next_new: 0,
            acked: SeqSet::new(total),
            outstanding: SeqSet::new(total),
            rtx_pending: SeqSet::new(total),
            rtx_queue: VecDeque::new(),
            ever_retx: SeqSet::new(total),
            cwnd: config.init_cwnd_bytes as f64,
            est: RttEstimator::new(config.rto),
            feedback_delay: config.base_feedback_delay,
            alpha: 1.0,
            round_start: SimTime::ZERO,
            round_acked: 0,
            round_marked: 0,
            last_decrease: None,
            started: false,
            failover: None,
            grant_src: None,
            config,
        }
    }

    /// Remembers the agent that grants packets to this relay (the Naive
    /// ingress receiver), so a crash restore can re-synchronize the grant
    /// watermark instead of wedging on grants that died with the crash.
    pub fn with_grant_source(mut self, agent: AgentId) -> Self {
        self.grant_src = Some(agent);
        self
    }

    /// Enables proxy failover: when feedback via the proxy (`to`) goes
    /// silent for `cfg.rto_threshold` consecutive RTOs, the sender falls
    /// back to sending directly to `direct` (the receiver), re-probes the
    /// proxy with exponential backoff, and fails back once the proxy
    /// answers again.
    pub fn with_failover(mut self, direct: HostId, cfg: FailoverConfig) -> Self {
        assert!(cfg.rto_threshold > 0, "rto_threshold must be at least 1");
        self.failover = Some(Failover {
            cfg,
            direct,
            mode: PathMode::ViaProxy,
            consecutive_rtos: 0,
            last_feedback: SimTime::ZERO,
            probe_backoff: cfg.probe_backoff_max,
        });
        self
    }

    /// True while a failover-capable sender is on the direct path.
    pub fn using_direct_path(&self) -> bool {
        self.failover
            .as_ref()
            .is_some_and(|f| f.mode == PathMode::Direct)
    }

    /// Current congestion window in bytes.
    pub fn cwnd_bytes(&self) -> u64 {
        self.cwnd as u64
    }

    /// Packets acked so far.
    pub fn acked_packets(&self) -> u64 {
        self.acked.len()
    }

    /// True once every packet is acked.
    pub fn is_complete(&self) -> bool {
        self.acked.is_full()
    }

    /// The sender's running estimate of its congestion feedback delay —
    /// microseconds when a proxy signals loss, milliseconds end to end.
    pub fn feedback_delay(&self) -> SimDuration {
        self.feedback_delay
    }

    fn inflight_bytes(&self) -> u64 {
        self.outstanding.len() * DATA_PKT_SIZE
    }

    fn clamp_cwnd(&mut self) {
        let min = self.config.min_cwnd_bytes as f64;
        let max = self
            .config
            .max_cwnd_bytes
            .map(|m| m as f64)
            .unwrap_or(f64::INFINITY);
        self.cwnd = self.cwnd.clamp(min, max);
    }

    /// Applies a multiplicative decrease unless one was already applied
    /// within the current round (one smoothed RTT): standard once-per-window
    /// reduction.
    fn congestion_signal(&mut self, now: SimTime, signal_ts: u64, ctx: &mut Ctx) {
        // Track the feedback-loop delay (signal arrival − send time of the
        // packet that triggered it). This is the quantity the proxy
        // shortens; exposed via [`DctcpSender::feedback_delay`].
        let delay = SimDuration(now.0.saturating_sub(signal_ts));
        // EWMA with gain 1/4: responsive but stable.
        self.feedback_delay = SimDuration((3 * self.feedback_delay.0 + delay.0) / 4);
        let round = self.est.srtt().unwrap_or(self.config.base_feedback_delay);
        if let Some(last) = self.last_decrease {
            if now.0 < last.0 + round.0 {
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
        self.cwnd *= self.config.md_factor;
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
        self.cwnd += self.config.ai_bytes as f64;
        self.clamp_cwnd();
    }

    fn sendable_new(&self) -> bool {
        self.next_new < self.total.min(self.granted)
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

    fn queue_rtx(&mut self, seq: u64) {
        if !self.acked.contains(seq) && self.rtx_pending.insert(seq) {
            self.rtx_queue.push_back(seq);
        }
    }

    fn try_send(&mut self, ctx: &mut Ctx) {
        while self.inflight_bytes() + DATA_PKT_SIZE <= self.cwnd as u64 {
            let (seq, is_retx) = if let Some(seq) = self.pop_rtx() {
                (seq, true)
            } else if self.sendable_new() {
                let seq = self.next_new;
                self.next_new += 1;
                (seq, false)
            } else {
                break;
            };
            if is_retx {
                self.ever_retx.insert(seq);
                ctx.count(Counter::Retransmits, 1);
            }
            self.outstanding.insert(seq);
            let (dst, direct) = match &self.failover {
                Some(f) if f.mode == PathMode::Direct => (f.direct, true),
                _ => (self.to, false),
            };
            let mut pkt = Packet::data(self.flow, seq, self.src, dst, ctx.now.0);
            pkt.direct = direct;
            ctx.send(self.src, pkt);
        }
    }

    /// Failover bookkeeping on any feedback (ACK or NACK): the path that
    /// carried it is alive. Proxy-path feedback while degraded triggers the
    /// failback.
    fn note_feedback(&mut self, pkt: &Packet, ctx: &mut Ctx) {
        let Some(f) = &mut self.failover else {
            return;
        };
        f.consecutive_rtos = 0;
        f.last_feedback = ctx.now;
        if f.mode == PathMode::Direct && !pkt.direct {
            // The proxy relayed feedback again: recover the fast path.
            f.mode = PathMode::ViaProxy;
            ctx.cancel_timer(PROBE_SLOT);
            f.probe_backoff = f.cfg.probe_backoff_max;
            ctx.count(Counter::Failbacks, 1);
        }
    }

    /// Failover bookkeeping on an RTO fire: silence past the threshold
    /// abandons the proxy path and arms the first re-probe.
    fn note_rto(&mut self, ctx: &mut Ctx) {
        let probe_after = self.est.rto();
        let Some(f) = &mut self.failover else {
            return;
        };
        f.consecutive_rtos += 1;
        if f.mode == PathMode::ViaProxy && f.consecutive_rtos >= f.cfg.rto_threshold {
            f.mode = PathMode::Direct;
            f.probe_backoff = probe_after.min(f.cfg.probe_backoff_max);
            ctx.count(Counter::FailoverActivations, 1);
            ctx.failover_latency(self.flow, ctx.now.since(f.last_feedback));
            ctx.rearm_timer(
                PROBE_SLOT,
                ctx.now + f.probe_backoff,
                TimerKind::Custom { tag: PROBE_TAG },
            );
        }
    }

    /// Probe timer while degraded: re-offer one sequence via the proxy
    /// (flagged `direct: false`) so proxy-path feedback, if any, proves
    /// recovery — then back off and re-arm.
    fn on_probe_timer(&mut self, ctx: &mut Ctx) {
        let Some(f) = &mut self.failover else {
            return;
        };
        if f.mode != PathMode::Direct || self.acked.is_full() {
            return; // Already recovered, or done.
        }
        // Seq 0 always exists; a duplicate delivery is acked like any other,
        // and the ACK's `direct: false` flag is the recovery signal. The
        // probe is deliberately not tracked in `outstanding`: its loss must
        // not perturb the direct-path RTO machinery.
        let pkt = Packet::data(self.flow, 0, self.src, self.to, ctx.now.0);
        ctx.send(self.src, pkt);
        ctx.count(Counter::ProxyProbes, 1);
        f.probe_backoff = (f.probe_backoff + f.probe_backoff).min(f.cfg.probe_backoff_max);
        ctx.rearm_timer(
            PROBE_SLOT,
            ctx.now + f.probe_backoff,
            TimerKind::Custom { tag: PROBE_TAG },
        );
    }

    /// Moves the RTO slot to `now + rto` if anything is outstanding or
    /// waiting; otherwise cancels it.
    fn reset_timer(&mut self, ctx: &mut Ctx) {
        if self.is_complete()
            || (self.outstanding.is_empty() && self.rtx_queue.is_empty() && !self.sendable_new())
        {
            // Done, or idle waiting for grants: nothing can time out.
            ctx.cancel_timer(RTO_SLOT);
            return;
        }
        ctx.rearm_timer(RTO_SLOT, ctx.now + self.est.rto(), TimerKind::Rto);
    }

    fn on_ack(&mut self, pkt: &Packet, ctx: &mut Ctx) {
        if pkt.ece {
            ctx.count(Counter::MarkedAcks, 1);
        }
        if !self.acked.insert(pkt.seq) {
            return; // Duplicate ack.
        }
        self.outstanding.remove(pkt.seq);
        if !self.ever_retx.contains(pkt.seq) {
            self.est
                .sample(SimDuration(ctx.now.0.saturating_sub(pkt.ts_echo)));
        }
        match self.config.ecn_response {
            EcnResponse::DctcpAlpha { g } => {
                self.round_acked += 1;
                if pkt.ece {
                    self.round_marked += 1;
                }
                self.maybe_end_round(g, ctx);
                if !pkt.ece {
                    self.window_increase();
                }
            }
            EcnResponse::HalvePerRound => {
                if pkt.ece {
                    self.congestion_signal(ctx.now, pkt.ts_echo, ctx);
                } else {
                    self.window_increase();
                }
            }
        }
    }

    /// Ends the current DCTCP observation round if one smoothed RTT has
    /// elapsed: update α from the marked fraction and, if the round saw any
    /// marks, cut the window by α/2 (once per round).
    fn maybe_end_round(&mut self, g: f64, ctx: &mut Ctx) {
        let round = self.est.srtt().unwrap_or(self.config.base_feedback_delay);
        if ctx.now.0 < self.round_start.0 + round.0 {
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

    fn on_nack(&mut self, pkt: &Packet, ctx: &mut Ctx) {
        if self.acked.contains(pkt.seq) {
            return; // Raced with a successful delivery.
        }
        if self.rtx_pending.contains(pkt.seq) {
            // Duplicate NACK for a retransmission we have not sent yet
            // (e.g. a proxy watchdog re-NACK racing the sender's window):
            // no new information, no additional window cut.
            return;
        }
        self.outstanding.remove(pkt.seq);
        self.queue_rtx(pkt.seq);
        self.congestion_signal(ctx.now, pkt.ts_echo, ctx);
    }
}

impl Agent for DctcpSender {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.started = true;
        if let Some(f) = &mut self.failover {
            f.last_feedback = ctx.now;
        }
        self.try_send(ctx);
        self.reset_timer(ctx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        debug_assert!(pkt.seq < self.total, "feedback for unknown seq");
        self.note_feedback(&pkt, ctx);
        match pkt.kind {
            PacketKind::Ack => self.on_ack(&pkt, ctx),
            PacketKind::Nack => self.on_nack(&pkt, ctx),
            PacketKind::Data => panic!("sender received a data packet"),
        }
        self.try_send(ctx);
        self.reset_timer(ctx);
    }

    fn on_timer(&mut self, kind: TimerKind, ctx: &mut Ctx) {
        match kind {
            TimerKind::Rto => {}
            TimerKind::Custom { tag: PROBE_TAG } => {
                self.on_probe_timer(ctx);
                return;
            }
            TimerKind::Custom { .. } => return,
        }
        // The RTO slot is canceled on completion and on idle, so a firing
        // RTO always has work to do.
        debug_assert!(!self.is_complete(), "RTO fired on a completed flow");
        ctx.count(Counter::RtoFires, 1);
        self.est.on_timeout();
        self.note_rto(ctx);
        // Paper: "resets its congestion window upon timeout". Regrowth is
        // exponential (one increment per unmarked ACK).
        self.cwnd = self.config.min_cwnd_bytes as f64;
        self.last_decrease = Some(ctx.now);
        for seq in self.outstanding.drain_to_vec() {
            self.queue_rtx(seq);
        }
        self.try_send(ctx);
        self.reset_timer(ctx);
    }

    fn on_note(&mut self, note: Note, ctx: &mut Ctx) {
        match note {
            Note::PacketsGranted { count } => {
                self.granted = (self.granted + count).min(self.total);
            }
            Note::GrantWatermark { granted } => {
                // Absolute sync: never lowers the count (a stale watermark
                // must not revoke grants already spent on transmissions).
                self.granted = self.granted.max(granted).min(self.total);
            }
            // Senders never serve sync queries.
            Note::GrantSync => return,
            // A port on this flow's path fell back from analytic to
            // packet-level modeling. Counted for observability; the
            // congestion response rides the usual ECN/trim signals.
            Note::FidelityShift => {
                ctx.count(Counter::FidelityHotSignals, 1);
                return;
            }
        }
        if self.started {
            self.try_send(ctx);
            self.reset_timer(ctx);
        }
    }

    fn on_restore(&mut self, ctx: &mut Ctx) {
        if self.is_complete() {
            return;
        }
        if !self.started {
            // The FlowStart event died while the host was down.
            self.on_start(ctx);
        } else {
            // An RTO that fired during the outage was consumed without a
            // handler, leaving no pending timer. Treat the outage as a
            // timeout: reset the window, offer everything outstanding again
            // and re-arm the RTO clock.
            self.cwnd = self.config.min_cwnd_bytes as f64;
            self.last_decrease = Some(ctx.now);
            if let Some(f) = &mut self.failover {
                f.last_feedback = ctx.now;
            }
            for seq in self.outstanding.drain_to_vec() {
                self.queue_rtx(seq);
            }
            self.try_send(ctx);
            self.reset_timer(ctx);
        }
        // Grants notified while we were down died with the crash and are
        // never replayed. Pull the ingress watermark; the reply (if the
        // ingress is up) re-grants synchronously via `GrantWatermark`, and
        // an ingress that is itself down pushes its watermark on restore.
        if self.granted < self.total {
            if let Some(src) = self.grant_src {
                ctx.notify(src, Note::GrantSync);
            }
        }
    }
}

/// Re-exported for tests and experiment code: one full data packet's
/// payload, so experiment code can convert flow bytes to packets.
pub fn packets_for_bytes(bytes: u64) -> u64 {
    bytes.div_ceil(MSS).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Effect;
    use crate::packet::AgentId;

    fn cfg() -> CcConfig {
        CcConfig::for_rtt(SimDuration::from_micros(10), 4 * DATA_PKT_SIZE)
    }

    fn ctx_with<'a>(now: SimTime, effects: &'a mut Vec<Effect>) -> Ctx<'a> {
        Ctx {
            now,
            self_id: AgentId(0),
            effects,
        }
    }

    fn sent_seqs(effects: &[Effect]) -> Vec<u64> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send { packet, .. } if packet.kind == PacketKind::Data => Some(packet.seq),
                _ => None,
            })
            .collect()
    }

    fn sender(total: u64) -> DctcpSender {
        DctcpSender::new(FlowId(0), HostId(0), HostId(1), total, cfg())
    }

    #[test]
    fn initial_burst_is_one_window() {
        let mut s = sender(100);
        let mut fx = Vec::new();
        s.on_start(&mut ctx_with(SimTime(0), &mut fx));
        // init cwnd = 4 packets.
        assert_eq!(sent_seqs(&fx), vec![0, 1, 2, 3]);
        // And the RTO slot is armed.
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::RearmTimer {
                slot: RTO_SLOT,
                kind: TimerKind::Rto,
                ..
            }
        )));
    }

    #[test]
    fn unmarked_ack_opens_window() {
        let mut s = sender(100);
        let mut fx = Vec::new();
        s.on_start(&mut ctx_with(SimTime(0), &mut fx));
        fx.clear();
        let data = Packet::data(FlowId(0), 0, HostId(0), HostId(1), 0);
        let ack = Packet::ack_for(&data, HostId(1));
        s.on_packet(ack, &mut ctx_with(SimTime(1000), &mut fx));
        assert!(s.cwnd_bytes() > 4 * DATA_PKT_SIZE);
        // Window opened by ~1 packet worth of credit plus the acked packet:
        // two new sends are possible (slot freed + growth may round down).
        assert!(!sent_seqs(&fx).is_empty());
        assert_eq!(s.acked_packets(), 1);
    }

    #[test]
    fn duplicate_ack_is_ignored() {
        let mut s = sender(100);
        let mut fx = Vec::new();
        s.on_start(&mut ctx_with(SimTime(0), &mut fx));
        let data = Packet::data(FlowId(0), 0, HostId(0), HostId(1), 0);
        let ack = Packet::ack_for(&data, HostId(1));
        s.on_packet(ack, &mut ctx_with(SimTime(1000), &mut fx));
        let cwnd = s.cwnd_bytes();
        s.on_packet(ack, &mut ctx_with(SimTime(2000), &mut fx));
        assert_eq!(s.cwnd_bytes(), cwnd, "dup ack must not change cwnd");
        assert_eq!(s.acked_packets(), 1);
    }

    #[test]
    fn marked_ack_halves_window_once_per_feedback_window() {
        let mut s = sender(100);
        let mut fx = Vec::new();
        s.on_start(&mut ctx_with(SimTime(0), &mut fx));
        let cwnd0 = s.cwnd_bytes();
        let mk_ack = |seq: u64| {
            let mut d = Packet::data(FlowId(0), seq, HostId(0), HostId(1), 0);
            d.ecn = crate::packet::Ecn::Ce;
            Packet::ack_for(&d, HostId(1))
        };
        let t = SimTime(SimDuration::from_micros(10).0);
        s.on_packet(mk_ack(0), &mut ctx_with(t, &mut fx));
        assert_eq!(s.cwnd_bytes(), cwnd0 / 2);
        // A second marked ack within the feedback window: suppressed.
        s.on_packet(mk_ack(1), &mut ctx_with(SimTime(t.0 + 100), &mut fx));
        assert_eq!(s.cwnd_bytes(), cwnd0 / 2);
        // After the feedback window: another halving.
        let later = SimTime(t.0 + SimDuration::from_micros(50).0);
        s.on_packet(mk_ack(2), &mut ctx_with(later, &mut fx));
        assert_eq!(s.cwnd_bytes(), cwnd0 / 4);
    }

    #[test]
    fn nack_triggers_retransmit_and_decrease() {
        // A 4-packet flow: the initial window covers it all, so acks drain
        // inflight without new sends replacing it.
        let mut s = sender(4);
        let mut fx = Vec::new();
        s.on_start(&mut ctx_with(SimTime(0), &mut fx));
        let cwnd0 = s.cwnd_bytes();
        // Resolve most of the initial window so the halved window still has
        // room for the retransmission.
        for seq in [0u64, 1, 3] {
            let d = Packet::data(FlowId(0), seq, HostId(0), HostId(1), 0);
            s.on_packet(
                Packet::ack_for(&d, HostId(1)),
                &mut ctx_with(SimTime(1000 + seq), &mut fx),
            );
        }
        fx.clear();
        let mut d = Packet::data(FlowId(0), 2, HostId(0), HostId(1), 0);
        d.trim();
        let nack = Packet::nack_for(&d, HostId(1));
        s.on_packet(
            nack,
            &mut ctx_with(SimTime(SimDuration::from_micros(20).0), &mut fx),
        );
        assert!(s.cwnd_bytes() < cwnd0);
        let seqs = sent_seqs(&fx);
        assert!(
            seqs.contains(&2),
            "nacked seq must be retransmitted: {seqs:?}"
        );
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Count {
                counter: Counter::Retransmits,
                ..
            }
        )));
    }

    #[test]
    fn duplicate_nack_retransmits_once() {
        let mut s = sender(100);
        let mut fx = Vec::new();
        s.on_start(&mut ctx_with(SimTime(0), &mut fx));
        // Shrink window to zero sendable so retransmits stay queued.
        let mut d = Packet::data(FlowId(0), 0, HostId(0), HostId(1), 0);
        d.trim();
        let nack = Packet::nack_for(&d, HostId(1));
        fx.clear();
        s.on_packet(nack, &mut ctx_with(SimTime(1000), &mut fx));
        let first = sent_seqs(&fx).iter().filter(|&&q| q == 0).count();
        fx.clear();
        s.on_packet(nack, &mut ctx_with(SimTime(2000), &mut fx));
        let second = sent_seqs(&fx).iter().filter(|&&q| q == 0).count();
        assert!(first + second <= 1, "seq 0 retransmitted more than once");
    }

    #[test]
    fn rto_resets_window_and_requeues_outstanding() {
        let mut s = sender(100);
        let mut fx = Vec::new();
        s.on_start(&mut ctx_with(SimTime(0), &mut fx));
        fx.clear();
        let at = SimTime(SimDuration::from_millis(10).0);
        s.on_timer(TimerKind::Rto, &mut ctx_with(at, &mut fx));
        assert_eq!(s.cwnd_bytes(), DATA_PKT_SIZE, "window reset to min");
        // One packet (min window) goes out, carrying a retransmitted seq.
        let seqs = sent_seqs(&fx);
        assert_eq!(seqs.len(), 1);
        assert!(seqs[0] < 4);
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Count {
                counter: Counter::RtoFires,
                ..
            }
        )));
    }

    #[test]
    fn every_handler_rearms_or_cancels_the_rto_slot() {
        // Each mutation path must leave the RTO slot either moved (work
        // pending) or canceled (complete/idle) — the invariant that lets
        // the firing path drop its staleness guard.
        let mut s = sender(100);
        let mut fx = Vec::new();
        s.on_start(&mut ctx_with(SimTime(0), &mut fx));
        let rto_action = |fx: &[Effect]| {
            fx.iter()
                .filter(|e| {
                    matches!(
                        e,
                        Effect::RearmTimer { slot: RTO_SLOT, .. }
                            | Effect::CancelTimer { slot: RTO_SLOT, .. }
                    )
                })
                .count()
        };
        assert_eq!(rto_action(&fx), 1);
        fx.clear();
        let d = Packet::data(FlowId(0), 0, HostId(0), HostId(1), 0);
        s.on_packet(
            Packet::ack_for(&d, HostId(1)),
            &mut ctx_with(SimTime(10), &mut fx),
        );
        assert_eq!(rto_action(&fx), 1);
        fx.clear();
        s.on_timer(TimerKind::Rto, &mut ctx_with(SimTime(20_000), &mut fx));
        assert_eq!(rto_action(&fx), 1);
    }

    #[test]
    fn completion_cancels_the_rto_slot() {
        let total = 4;
        let mut s = sender(total);
        let mut fx = Vec::new();
        s.on_start(&mut ctx_with(SimTime(0), &mut fx));
        for seq in 0..total {
            fx.clear();
            let d = Packet::data(FlowId(0), seq, HostId(0), HostId(1), 0);
            s.on_packet(
                Packet::ack_for(&d, HostId(1)),
                &mut ctx_with(SimTime(1000 + seq), &mut fx),
            );
        }
        assert!(s.is_complete());
        assert!(
            fx.iter()
                .any(|e| matches!(e, Effect::CancelTimer { slot: RTO_SLOT, .. })),
            "final ack must cancel the RTO slot: {fx:?}"
        );
    }

    #[test]
    fn relay_sender_waits_for_grants() {
        let mut s = DctcpSender::relay(FlowId(0), HostId(0), HostId(1), 10, cfg());
        let mut fx = Vec::new();
        s.on_start(&mut ctx_with(SimTime(0), &mut fx));
        assert!(sent_seqs(&fx).is_empty(), "nothing granted yet");
        fx.clear();
        s.on_note(
            Note::PacketsGranted { count: 2 },
            &mut ctx_with(SimTime(10), &mut fx),
        );
        assert_eq!(sent_seqs(&fx), vec![0, 1]);
        fx.clear();
        s.on_note(
            Note::PacketsGranted { count: 100 },
            &mut ctx_with(SimTime(20), &mut fx),
        );
        // Grants clamp at total; window permits the rest (cwnd=4 pkts, 2 outstanding).
        assert_eq!(sent_seqs(&fx), vec![2, 3]);
    }

    #[test]
    fn grant_watermark_is_absolute_and_never_lowers() {
        let mut s = DctcpSender::relay(FlowId(0), HostId(0), HostId(1), 10, cfg());
        let mut fx = Vec::new();
        s.on_start(&mut ctx_with(SimTime(0), &mut fx));
        fx.clear();
        s.on_note(
            Note::GrantWatermark { granted: 3 },
            &mut ctx_with(SimTime(10), &mut fx),
        );
        assert_eq!(sent_seqs(&fx), vec![0, 1, 2]);
        fx.clear();
        // A stale (lower) watermark must not revoke grants...
        s.on_note(
            Note::GrantWatermark { granted: 1 },
            &mut ctx_with(SimTime(20), &mut fx),
        );
        assert!(sent_seqs(&fx).is_empty());
        // ...while duplicate PacketsGranted on top of a watermark still add.
        s.on_note(
            Note::PacketsGranted { count: 1 },
            &mut ctx_with(SimTime(30), &mut fx),
        );
        assert_eq!(sent_seqs(&fx), vec![3]);
    }

    #[test]
    fn restored_relay_pulls_the_grant_watermark() {
        let ingress = AgentId(7);
        let mut s = DctcpSender::relay(FlowId(0), HostId(0), HostId(1), 10, cfg())
            .with_grant_source(ingress);
        let mut fx = Vec::new();
        s.on_start(&mut ctx_with(SimTime(0), &mut fx));
        s.on_note(
            Note::PacketsGranted { count: 2 },
            &mut ctx_with(SimTime(10), &mut fx),
        );
        // Crash window: grants notified while down died with the crash.
        fx.clear();
        s.on_restore(&mut ctx_with(SimTime(1_000_000), &mut fx));
        assert!(
            fx.iter().any(|e| matches!(
                e,
                Effect::Notify {
                    agent,
                    note: Note::GrantSync
                } if *agent == ingress
            )),
            "restore must query the ingress for the watermark: {fx:?}"
        );
    }

    #[test]
    fn fully_granted_relay_skips_the_sync_query() {
        let ingress = AgentId(7);
        let mut s = DctcpSender::relay(FlowId(0), HostId(0), HostId(1), 4, cfg())
            .with_grant_source(ingress);
        let mut fx = Vec::new();
        s.on_start(&mut ctx_with(SimTime(0), &mut fx));
        s.on_note(
            Note::PacketsGranted { count: 4 },
            &mut ctx_with(SimTime(10), &mut fx),
        );
        fx.clear();
        s.on_restore(&mut ctx_with(SimTime(1_000_000), &mut fx));
        assert!(
            !fx.iter().any(|e| matches!(
                e,
                Effect::Notify {
                    note: Note::GrantSync,
                    ..
                }
            )),
            "nothing left to re-grant, no query needed: {fx:?}"
        );
    }

    #[test]
    fn completes_when_all_acked() {
        let total = 4;
        let mut s = sender(total);
        let mut fx = Vec::new();
        s.on_start(&mut ctx_with(SimTime(0), &mut fx));
        for seq in 0..total {
            let d = Packet::data(FlowId(0), seq, HostId(0), HostId(1), 0);
            s.on_packet(
                Packet::ack_for(&d, HostId(1)),
                &mut ctx_with(SimTime(1000 + seq), &mut fx),
            );
        }
        assert!(s.is_complete());
    }

    #[test]
    fn karn_skips_retransmitted_samples() {
        let mut s = sender(4);
        let mut fx = Vec::new();
        s.on_start(&mut ctx_with(SimTime(0), &mut fx));
        // Ack seqs 1..4 so the halved window still fits the retransmission.
        for seq in 1u64..4 {
            let d = Packet::data(FlowId(0), seq, HostId(0), HostId(1), 0);
            s.on_packet(
                Packet::ack_for(&d, HostId(1)),
                &mut ctx_with(SimTime(1000 + seq), &mut fx),
            );
        }
        // NACK seq 0 -> retransmitted (window has room now).
        let mut d0 = Packet::data(FlowId(0), 0, HostId(0), HostId(1), 0);
        d0.trim();
        fx.clear();
        s.on_packet(
            Packet::nack_for(&d0, HostId(1)),
            &mut ctx_with(SimTime(2000), &mut fx),
        );
        assert!(sent_seqs(&fx).contains(&0), "precondition: seq 0 resent");
        let srtt_before = s.est.srtt();
        // Ack for the retransmitted seq 0 with a bogus huge echo delay: the
        // sample is ambiguous (Karn) and must be skipped.
        let d0b = Packet::data(FlowId(0), 0, HostId(0), HostId(1), 0);
        s.on_packet(
            Packet::ack_for(&d0b, HostId(1)),
            &mut ctx_with(SimTime(SimDuration::from_secs(1).0), &mut fx),
        );
        assert_eq!(s.est.srtt(), srtt_before);
    }

    #[test]
    fn packets_for_bytes_rounding() {
        assert_eq!(packets_for_bytes(1), 1);
        assert_eq!(packets_for_bytes(MSS), 1);
        assert_eq!(packets_for_bytes(MSS + 1), 2);
        assert_eq!(packets_for_bytes(100_000_000), 100_000_000u64.div_ceil(MSS));
    }

    #[test]
    #[should_panic(expected = "empty flow")]
    fn zero_packets_panics() {
        sender(0);
    }
}
