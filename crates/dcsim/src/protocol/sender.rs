//! The one sender shell: an ARQ with only the congestion policy behind a
//! trait.
//!
//! [`Sender`] owns everything that makes a flow reliable, whatever its
//! congestion policy: sequencing and the retransmit queue, grants, Karn's
//! rule, the RTO ([`RttEstimator`]), proxy failover, crash restore and
//! every timer slot. A [`CongestionControl`] policy supplies how many
//! packets may be in flight, whether its sends are paced, and its
//! reactions to an ack, a NACK, a timeout and a send. Two policies exist:
//! the paper's windowed DCTCP-like [`Dctcp`](super::Dctcp) (§4.1) and the
//! rate-based [`Rate`](super::Rate) (§5 FW#1). The shell is generic over
//! the policy, so every callback is a static call.
//!
//! Loss is detected two ways, as in NDP-style transports: a NACK names a
//! specific trimmed sequence (fast path), and the retransmission timeout
//! catches everything else (dropped headers, lost ACKs).

use crate::agent::{Agent, Counter, Ctx, Note};
use crate::events::TimerKind;
use crate::packet::{AgentId, FlowId, HostId, Packet, PacketKind, MSS};
use crate::protocol::rto::{RtoConfig, RttEstimator};
use crate::protocol::seqtrack::SeqSet;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A congestion policy: what [`Sender`] asks of it, and what it tells it.
///
/// The shape follows demikernel's `CongestionControlAlgorithm`: the
/// policy reacts to events and never learns which sequences were
/// retransmitted. Karn's rule and the RTO are the shell's, so they hold
/// for every policy alike.
pub trait CongestionControl: Send {
    /// True for a policy that sends one packet per pace tick; false for
    /// one that sends its whole window as soon as it opens.
    const PACED: bool = false;

    /// The RTO parameters of the path the policy was configured for.
    fn rto_config(&self) -> RtoConfig;

    /// Packets that may be in flight at once, given the smoothed RTT.
    fn window(&self, srtt: Option<SimDuration>) -> u64;

    /// Time between pace ticks (read only when [`Self::PACED`]).
    fn pacing_gap(&self) -> SimDuration {
        SimDuration::ZERO
    }

    /// The flow starts at `now`.
    fn on_start(&mut self, _now: SimTime) {}

    /// `seq` goes on the wire at `now` (first transmission or not).
    fn on_send(&mut self, _seq: u64, _now: SimTime) {}

    /// A fresh ACK; `srtt` already includes its sample, if Karn's rule
    /// let it give one.
    fn on_ack(&mut self, ack: &Packet, srtt: Option<SimDuration>, ctx: &mut Ctx);

    /// A fresh NACK; its sequence is already queued for retransmission.
    fn on_nack(&mut self, _nack: &Packet, _srtt: Option<SimDuration>, _ctx: &mut Ctx) {}

    /// The RTO fired, or the sender came back from a crash: everything
    /// outstanding is presumed lost.
    fn on_timeout(&mut self, _now: SimTime) {}
}

/// Cancelable timer slot holding the retransmission timeout.
const RTO_SLOT: u32 = 0;
/// Cancelable timer slot holding a paced policy's pace tick.
const PACE_SLOT: u32 = 1;
/// Cancelable timer slot holding the proxy re-probe timer.
const PROBE_SLOT: u32 = 2;

/// Timer tag carried by the pace tick.
const PACE_TAG: u64 = 1;
/// Timer tag carried by the proxy re-probe timer.
const PROBE_TAG: u64 = 0xFA11;

/// Consecutive RTO fires with no feedback at all before a proxied sender
/// declares the proxy unreachable and falls back to the direct path.
const FAILOVER_SILENT_RTOS: u32 = 3;
/// Ceiling on the exponential backoff between proxy re-probes while on
/// the direct path (the first probe fires one RTO after failover).
const PROBE_BACKOFF_MAX: SimDuration = SimDuration::from_millis(50);

/// Sender-side proxy-health state (present only on proxied senders built
/// with [`Sender::with_failover`]).
struct Failover {
    /// The receiver, for addressing direct-path packets.
    direct: HostId,
    /// True while the proxy is declared dead and data takes the direct
    /// path.
    degraded: bool,
    /// RTO fires since the last feedback of any kind.
    consecutive_rtos: u32,
    /// When the last ACK/NACK arrived (or the flow started).
    last_feedback: SimTime,
    /// Current re-probe interval (doubles per probe, clamped).
    probe_backoff: SimDuration,
}

impl Failover {
    fn arm_probe(&self, ctx: &mut Ctx) {
        let at = ctx.now + self.probe_backoff;
        ctx.rearm_timer(PROBE_SLOT, at, TimerKind::Custom { tag: PROBE_TAG });
    }
}

/// The sending endpoint of one flow, under congestion policy `C`.
pub struct Sender<C> {
    flow: FlowId,
    /// This sender's host.
    src: HostId,
    /// Host packets are steered to (the receiver, or the proxy when the
    /// flow is proxied).
    to: HostId,
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
    est: RttEstimator,
    /// When the RTO last backed off (an RTO fire or a crash restore).
    timed_out_at: SimTime,
    started: bool,
    /// True while the pace slot holds a pending tick; lets a grant keep
    /// an earlier deadline instead of pushing it out.
    pace_armed: bool,
    /// Proxy-health monitor; `None` on unproxied senders (zero overhead).
    failover: Option<Failover>,
    /// The agent granting packets to this relay (the Naive ingress), if
    /// any. Lets a restored relay pull the grant watermark back: grants
    /// notified during a crash window died with the crash.
    grant_src: Option<AgentId>,
    cc: C,
}

impl<C: CongestionControl> Sender<C> {
    /// Creates a sender for a fixed-size flow of `total` packets, fully
    /// granted up front.
    pub fn new(flow: FlowId, src: HostId, to: HostId, total: u64, cc: C) -> Self {
        assert!(total > 0, "empty flow");
        Sender {
            flow,
            src,
            to,
            total,
            granted: total,
            next_new: 0,
            acked: SeqSet::new(total),
            outstanding: SeqSet::new(total),
            rtx_pending: SeqSet::new(total),
            rtx_queue: VecDeque::new(),
            ever_retx: SeqSet::new(total),
            est: RttEstimator::new(cc.rto_config()),
            timed_out_at: SimTime::ZERO,
            started: false,
            pace_armed: false,
            failover: None,
            grant_src: None,
            cc,
        }
    }

    /// Creates a relay sender that may only transmit granted packets
    /// (grants arrive via [`Note::PacketsGranted`]).
    pub fn relay(flow: FlowId, src: HostId, to: HostId, total: u64, cc: C) -> Self {
        Sender {
            granted: 0,
            ..Self::new(flow, src, to, total, cc)
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
    /// silent for `FAILOVER_SILENT_RTOS` (3) consecutive RTOs, the sender
    /// falls back to sending directly to `direct` (the receiver), re-probes
    /// the proxy with exponential backoff, and fails back once the proxy
    /// answers again.
    pub fn with_failover(mut self, direct: HostId) -> Self {
        self.failover = Some(Failover {
            direct,
            degraded: false,
            consecutive_rtos: 0,
            last_feedback: SimTime::ZERO,
            probe_backoff: PROBE_BACKOFF_MAX,
        });
        self
    }

    /// The congestion policy.
    #[cfg(test)]
    pub(crate) fn policy(&self) -> &C {
        &self.cc
    }

    /// True once every packet is acked.
    fn is_complete(&self) -> bool {
        self.acked.is_full()
    }

    fn degraded(&self) -> bool {
        self.failover.as_ref().is_some_and(|f| f.degraded)
    }

    fn window_open(&self) -> bool {
        self.outstanding.len() < self.cc.window(self.est.srtt())
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

    /// Sends what the window allows — all of it for an unpaced policy, one
    /// packet for a paced one — retransmissions first.
    fn send_window(&mut self, ctx: &mut Ctx) {
        while self.window_open() {
            let (seq, is_retx) = if let Some(seq) = self.pop_rtx() {
                (seq, true)
            } else if self.sendable_new() {
                self.next_new += 1;
                (self.next_new - 1, false)
            } else {
                break;
            };
            if is_retx {
                self.ever_retx.insert(seq);
                ctx.count(Counter::Retransmits, 1);
            }
            self.outstanding.insert(seq);
            self.cc.on_send(seq, ctx.now);
            let direct = self.degraded();
            let dst = match &self.failover {
                Some(f) if direct => f.direct,
                _ => self.to,
            };
            let mut pkt = Packet::data(self.flow, seq, self.src, dst, ctx.now.0);
            pkt.set_direct(direct);
            ctx.send(self.src, pkt);
            if C::PACED {
                break;
            }
        }
    }

    /// Reacts to news (fresh feedback, a timeout, a restore, a grant): an
    /// unpaced policy sends into its window now, a paced one at its next
    /// tick, which [`Self::rearm`] re-anchors.
    fn after_news(&mut self, ctx: &mut Ctx) {
        if !C::PACED {
            self.send_window(ctx);
        }
        self.rearm(ctx);
    }

    /// The one RTO rule: armed at `now + rto` iff the flow is incomplete
    /// and something is outstanding, else canceled.
    fn rearm_rto(&mut self, ctx: &mut Ctx) {
        if self.is_complete() || self.outstanding.is_empty() {
            ctx.cancel_timer(RTO_SLOT);
        } else {
            ctx.rearm_timer(RTO_SLOT, ctx.now + self.est.rto(), TimerKind::Rto);
        }
    }

    /// Re-anchors every timer at `now`: the RTO; a paced policy's tick,
    /// re-armed from scratch at the current rate or canceled when there is
    /// nothing to pace; and, once the flow is complete, the proxy probe.
    fn rearm(&mut self, ctx: &mut Ctx) {
        self.rearm_rto(ctx);
        if C::PACED {
            self.pace_armed = false;
            self.arm_pace(ctx);
            if !self.pace_armed {
                ctx.cancel_timer(PACE_SLOT);
            }
        }
        if self.is_complete() && self.degraded() {
            ctx.cancel_timer(PROBE_SLOT);
        }
    }

    /// Arms the pace tick unless one is pending, the flow is done, or
    /// nothing waits to be sent (the next ACK/NACK re-arms it then).
    fn arm_pace(&mut self, ctx: &mut Ctx) {
        if self.pace_armed
            || self.is_complete()
            || (self.rtx_queue.is_empty() && !self.sendable_new())
        {
            return;
        }
        self.pace_armed = true;
        let at = ctx.now + self.cc.pacing_gap();
        ctx.rearm_timer(PACE_SLOT, at, TimerKind::Custom { tag: PACE_TAG });
    }

    /// A pace tick: one packet if the window allows, then re-anchor.
    fn on_pace_tick(&mut self, ctx: &mut Ctx) {
        debug_assert!(!self.is_complete(), "pace tick on a completed flow");
        self.pace_armed = false;
        if !self.window_open() {
            // Window-capped: nothing to send until feedback arrives (an
            // ACK/NACK or the RTO re-arms the pace clock). Crucially,
            // leave the timers alone — a no-op tick that re-armed the RTO
            // here would push its deadline out by a full RTO every pace
            // gap, so the timeout could never fire while every in-flight
            // packet sat lost in a downed link: a livelock (found by the
            // chaos fuzzer as an event-cap blowup and a stuck-flow
            // violation).
            return;
        }
        self.send_window(ctx);
        self.rearm(ctx);
    }

    /// True for a fresh ACK.
    fn on_ack(&mut self, pkt: &Packet, ctx: &mut Ctx) -> bool {
        if pkt.ece() {
            ctx.count(Counter::MarkedAcks, 1);
        }
        if !self.acked.insert(pkt.seq) {
            return false;
        }
        self.outstanding.remove(pkt.seq);
        // Karn: the ACK of a retransmitted sequence gives no RTT sample.
        // Once every packet has gone out, no first transmission is left
        // to give one; then an ACK whose echoed timestamp names a copy
        // sent since the last timeout (as TCP timestamps do, RFC 7323
        // §4) may end the RTO backoff instead.
        if !self.ever_retx.contains(pkt.seq) {
            self.est
                .sample(SimDuration(ctx.now.0.saturating_sub(pkt.ts_echo)));
        } else if self.next_new == self.total && pkt.ts_echo >= self.timed_out_at.0 {
            self.est.on_retransmit_acked();
        }
        self.cc.on_ack(pkt, self.est.srtt(), ctx);
        true
    }

    /// True for a fresh NACK.
    fn on_nack(&mut self, pkt: &Packet, ctx: &mut Ctx) -> bool {
        // Raced with a successful delivery, or a duplicate NACK for a
        // retransmission not sent yet (e.g. a proxy watchdog re-NACK
        // racing the sender's window): no news, no second window cut.
        if self.acked.contains(pkt.seq) || self.rtx_pending.contains(pkt.seq) {
            return false;
        }
        self.outstanding.remove(pkt.seq);
        self.queue_rtx(pkt.seq);
        self.cc.on_nack(pkt, self.est.srtt(), ctx);
        true
    }

    /// Everything outstanding is presumed lost: the policy's timeout
    /// reaction, then all of it queued for retransmission.
    fn restart(&mut self, ctx: &mut Ctx) {
        self.cc.on_timeout(ctx.now);
        for seq in self.outstanding.drain_to_vec() {
            self.queue_rtx(seq);
        }
        self.after_news(ctx);
    }

    /// Backs the RTO off as of `now`.
    fn timeout(&mut self, now: SimTime) {
        self.est.on_timeout();
        self.timed_out_at = now;
    }

    fn on_rto(&mut self, ctx: &mut Ctx) {
        // The RTO slot is canceled on completion and on idle, so a firing
        // RTO always has work to do.
        debug_assert!(!self.is_complete(), "RTO fired on a completed flow");
        ctx.count(Counter::RtoFires, 1);
        self.timeout(ctx.now);
        // Failover: silence past the threshold abandons the proxy path
        // and arms the first re-probe.
        let probe_after = self.est.rto();
        if let Some(f) = &mut self.failover {
            f.consecutive_rtos += 1;
            if !f.degraded && f.consecutive_rtos >= FAILOVER_SILENT_RTOS {
                f.degraded = true;
                f.probe_backoff = probe_after.min(PROBE_BACKOFF_MAX);
                ctx.count(Counter::FailoverActivations, 1);
                ctx.failover_latency(self.flow, ctx.now.since(f.last_feedback));
                f.arm_probe(ctx);
            }
        }
        self.restart(ctx);
    }

    /// Probe timer while degraded: re-offer one sequence via the proxy
    /// (flagged `direct: false`) so proxy-path feedback, if any, proves
    /// recovery — then back off and re-arm.
    fn on_probe_timer(&mut self, ctx: &mut Ctx) {
        let done = self.is_complete();
        let f = match &mut self.failover {
            Some(f) if f.degraded && !done => f,
            _ => return, // Already recovered, or done.
        };
        // Seq 0 always exists; a duplicate delivery is acked like any other,
        // and the ACK's `direct: false` flag is the recovery signal. The
        // probe is deliberately not tracked in `outstanding`: its loss must
        // not perturb the direct-path RTO machinery.
        let probe = Packet::data(self.flow, 0, self.src, self.to, ctx.now.0);
        ctx.send(self.src, probe);
        ctx.count(Counter::ProxyProbes, 1);
        f.probe_backoff = (f.probe_backoff + f.probe_backoff).min(PROBE_BACKOFF_MAX);
        f.arm_probe(ctx);
    }
}

impl<C: CongestionControl> Agent for Sender<C> {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.started = true;
        if let Some(f) = &mut self.failover {
            f.last_feedback = ctx.now;
        }
        self.cc.on_start(ctx.now);
        // The first window, or the first pace tick.
        self.send_window(ctx);
        self.rearm(ctx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        debug_assert!(pkt.seq < self.total, "feedback for unknown seq");
        // Failover: any feedback shows its path alive, and feedback the
        // proxy relayed while degraded recovers the fast path.
        if let Some(f) = &mut self.failover {
            f.consecutive_rtos = 0;
            f.last_feedback = ctx.now;
            if f.degraded && !pkt.direct() {
                f.degraded = false;
                ctx.cancel_timer(PROBE_SLOT);
                f.probe_backoff = PROBE_BACKOFF_MAX;
                ctx.count(Counter::Failbacks, 1);
            }
        }
        let fresh = match pkt.kind {
            PacketKind::Ack => self.on_ack(&pkt, ctx),
            PacketKind::Nack => self.on_nack(&pkt, ctx),
            PacketKind::Data => panic!("sender received a data packet"),
        };
        if fresh {
            self.after_news(ctx);
        } else {
            // A duplicate still shows the path alive, so it moves the RTO;
            // it opens no window and must not delay the pace clock.
            self.rearm_rto(ctx);
        }
    }

    fn on_timer(&mut self, kind: TimerKind, ctx: &mut Ctx) {
        match kind {
            TimerKind::Rto => self.on_rto(ctx),
            TimerKind::Custom { tag: PACE_TAG } => self.on_pace_tick(ctx),
            TimerKind::Custom { tag: PROBE_TAG } => self.on_probe_timer(ctx),
            TimerKind::Custom { .. } => {}
        }
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
        if !self.started {
            return;
        }
        if C::PACED {
            // Keep a pending tick's deadline rather than push it out.
            self.arm_pace(ctx);
        } else {
            self.after_news(ctx);
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
            // Timers that fired during the outage were consumed without a
            // handler, leaving none pending. The outage is a timeout: back
            // off the RTO, let the policy react as to a timeout, and offer
            // everything outstanding again. No RTO fired, so neither the
            // counter nor failover's silence count moves; a degraded
            // sender's re-probe may have died in the outage too.
            self.timeout(ctx.now);
            if let Some(f) = &mut self.failover {
                f.last_feedback = ctx.now;
                if f.degraded {
                    f.arm_probe(ctx);
                }
            }
            self.restart(ctx);
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

/// Data packets needed to carry `bytes` of payload (at least one).
pub fn packets_for_bytes(bytes: u64) -> u64 {
    bytes.div_ceil(MSS).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Effect;
    use crate::packet::DATA_PKT_SIZE;
    use crate::protocol::{CcConfig, Dctcp, Rate, RateCcConfig};
    use crate::time::Bandwidth;

    const PROXY: HostId = HostId(1);
    const RECEIVER: HostId = HostId(2);

    fn dctcp() -> Dctcp {
        Dctcp::new(CcConfig::for_rtt(
            SimDuration::from_micros(10),
            4 * DATA_PKT_SIZE,
        ))
    }

    fn rate() -> Rate {
        Rate::new(RateCcConfig::for_path(
            SimDuration::from_micros(10),
            Bandwidth::gbps(100),
        ))
    }

    /// Declares one test per shell rule, running the generic check of the
    /// same name in `checks` against both policies.
    macro_rules! for_both_policies {
        ($($rule:ident),* $(,)?) => {$(
            #[test]
            fn $rule() {
                checks::$rule(dctcp);
                checks::$rule(rate);
            }
        )*};
    }

    for_both_policies!(
        every_handler_rearms_or_cancels_the_rto_slot,
        duplicate_nack_queues_once,
        timeout_and_restore_requeue_everything_outstanding,
        failover_takes_the_direct_path_and_fails_back,
        completion_cancels_every_slot,
        karn_skips_retransmitted_samples,
        an_acked_tail_retransmission_ends_a_repeated_backoff,
    );

    fn ctx(now: u64, fx: &mut Vec<Effect>) -> Ctx<'_> {
        Ctx::harness(SimTime(now), AgentId(0), fx)
    }

    /// Data packets sent: (seq, destination, direct flag).
    fn sent(fx: &[Effect]) -> Vec<(u64, HostId, bool)> {
        let data = |e: &Effect| match e {
            Effect::Send { packet: p, .. } if p.kind == PacketKind::Data => {
                Some((p.seq, p.dst, p.direct()))
            }
            _ => None,
        };
        fx.iter().filter_map(data).collect()
    }

    fn sent_seqs(fx: &[Effect]) -> Vec<u64> {
        sent(fx).into_iter().map(|(seq, _, _)| seq).collect()
    }

    fn counted(fx: &[Effect], counter: Counter) -> u64 {
        let amount = |e: &Effect| match e {
            Effect::Count { counter: c, amount } if *c == counter => *amount,
            _ => 0,
        };
        fx.iter().map(amount).sum()
    }

    /// True when `fx` re-arms (`rearm`) or cancels (`!rearm`) `slot`.
    fn timer(fx: &[Effect], slot: u32, rearm: bool) -> bool {
        fx.iter().any(|e| match e {
            Effect::RearmTimer { slot: s, .. } => rearm && *s == slot,
            Effect::CancelTimer { slot: s, .. } => !rearm && *s == slot,
            _ => false,
        })
    }

    fn ack(seq: u64, direct: bool) -> Packet {
        let mut d = Packet::data(FlowId(0), seq, HostId(0), PROXY, 0);
        d.set_direct(direct);
        Packet::ack_for(&d, PROXY)
    }

    fn nack(seq: u64) -> Packet {
        let mut d = Packet::data(FlowId(0), seq, HostId(0), PROXY, 0);
        d.trim();
        Packet::nack_for(&d, PROXY)
    }

    /// Lets a paced sender catch up at `now`: pace ticks until one sends
    /// nothing. An unpaced one already sent its window.
    fn fill<C: CongestionControl>(s: &mut Sender<C>, now: u64, fx: &mut Vec<Effect>) {
        let mut before = usize::MAX;
        while C::PACED && sent(fx).len() != before {
            before = sent(fx).len();
            s.on_timer(TimerKind::Custom { tag: PACE_TAG }, &mut ctx(now, fx));
        }
    }

    /// A started sender of `total` packets with its window in flight,
    /// failing over to `RECEIVER` (when `failover`) after
    /// `FAILOVER_SILENT_RTOS` silent RTOs.
    fn started<C: CongestionControl>(
        cc: C,
        total: u64,
        failover: bool,
        fx: &mut Vec<Effect>,
    ) -> Sender<C> {
        let mut s = Sender::new(FlowId(0), HostId(0), PROXY, total, cc);
        if failover {
            s = s.with_failover(RECEIVER);
        }
        s.on_start(&mut ctx(0, fx));
        fill(&mut s, 0, fx);
        s
    }

    /// The shell's rules, generic over the policy.
    mod checks {
        use super::*;

        /// Each handler leaves the RTO slot moved (work pending) or
        /// canceled (complete or idle), exactly once: the invariant that
        /// lets a firing RTO skip a staleness check.
        pub fn every_handler_rearms_or_cancels_the_rto_slot<C: CongestionControl>(cc: fn() -> C) {
            let rto_actions = |fx: &[Effect]| {
                let on_rto = |e: &&Effect| {
                    matches!(
                        e,
                        Effect::RearmTimer { slot: RTO_SLOT, .. }
                            | Effect::CancelTimer { slot: RTO_SLOT, .. }
                    )
                };
                fx.iter().filter(on_rto).count()
            };
            let mut fx = Vec::new();
            let mut s = Sender::new(FlowId(0), HostId(0), PROXY, 100, cc());
            s.on_start(&mut ctx(0, &mut fx));
            assert_eq!(rto_actions(&fx), 1, "start: {fx:?}");
            assert!(timer(&fx, RTO_SLOT, true), "start arms the RTO: {fx:?}");
            fill(&mut s, 0, &mut fx);
            for (what, at) in [("fresh ack", 1000), ("duplicate ack", 2000)] {
                fx.clear();
                s.on_packet(ack(0, false), &mut ctx(at, &mut fx));
                assert_eq!(rto_actions(&fx), 1, "{what}: {fx:?}");
                assert!(timer(&fx, RTO_SLOT, true), "{what} moves the RTO: {fx:?}");
            }
            fx.clear();
            s.on_timer(TimerKind::Rto, &mut ctx(10_000_000, &mut fx));
            assert_eq!(rto_actions(&fx), 1, "RTO fire: {fx:?}");
        }

        pub fn duplicate_nack_queues_once<C: CongestionControl>(cc: fn() -> C) {
            let mut fx = Vec::new();
            let mut s = started(cc(), 100, false, &mut fx);
            fx.clear();
            s.on_packet(nack(0), &mut ctx(1000, &mut fx));
            s.on_packet(nack(0), &mut ctx(2000, &mut fx));
            assert_eq!(s.rtx_queue.len(), 1, "one queue entry for two NACKs");
            assert!(sent_seqs(&fx).iter().filter(|&&q| q == 0).count() <= 1);
        }

        /// A restore is a timeout, except that no RTO fired: the RTO backs
        /// off, everything outstanding is resent now or queued for its
        /// turn, and the clock that drives the flow on is pending again
        /// (the RTO over what was resent, or the pace tick that resends).
        pub fn timeout_and_restore_requeue_everything_outstanding<C: CongestionControl>(
            cc: fn() -> C,
        ) {
            for restore in [false, true] {
                let mut fx = Vec::new();
                let mut s = started(cc(), 100, false, &mut fx);
                let (in_flight, rto) = (s.outstanding.len(), s.est.rto());
                assert!(in_flight >= 4, "precondition: a window in flight");
                fx.clear();
                if restore {
                    s.on_restore(&mut ctx(10_000_000, &mut fx));
                } else {
                    s.on_timer(TimerKind::Rto, &mut ctx(10_000_000, &mut fx));
                }
                assert_eq!(counted(&fx, Counter::RtoFires), u64::from(!restore));
                assert_eq!(s.est.rto(), SimDuration(2 * rto.0), "the RTO backs off");
                let resent = sent_seqs(&fx).len() as u64;
                assert_eq!(counted(&fx, Counter::Retransmits), resent);
                assert_eq!(s.outstanding.len(), resent);
                assert_eq!(s.outstanding.len() + s.rtx_pending.len(), in_flight);
                let slot = if C::PACED { PACE_SLOT } else { RTO_SLOT };
                assert!(timer(&fx, slot, true), "restore {restore}: {fx:?}");
            }
        }

        pub fn failover_takes_the_direct_path_and_fails_back<C: CongestionControl>(cc: fn() -> C) {
            let mut fx = Vec::new();
            let mut s = started(cc(), 100, true, &mut fx);
            assert_eq!(sent(&fx)[0], (0, PROXY, false));
            // Silent RTOs: the third one gives up on the proxy.
            fx.clear();
            for at in [1_000_000, 2_000_000] {
                s.on_timer(TimerKind::Rto, &mut ctx(at, &mut fx));
            }
            assert_eq!(counted(&fx, Counter::FailoverActivations), 0);
            s.on_timer(TimerKind::Rto, &mut ctx(3_000_000, &mut fx));
            assert_eq!(counted(&fx, Counter::FailoverActivations), 1);
            assert!(timer(&fx, PROBE_SLOT, true), "the first re-probe is armed");
            // Sent on `host`'s path, and something was.
            let on_path = |fx: &[Effect], host: HostId| {
                let sends = sent(fx);
                let direct = host == RECEIVER;
                !sends.is_empty() && sends.iter().all(|&(_, h, d)| h == host && d == direct)
            };
            // A restore re-arms the re-probe, which may have died in the crash.
            fx.clear();
            s.on_restore(&mut ctx(3_500_000, &mut fx));
            assert!(timer(&fx, PROBE_SLOT, true), "restore re-arms the probe");
            fx.clear();
            s.on_timer(TimerKind::Rto, &mut ctx(4_000_000, &mut fx));
            fill(&mut s, 4_000_000, &mut fx);
            assert!(on_path(&fx, RECEIVER), "degraded: straight to the receiver");
            // The probe re-offers seq 0 through the proxy and backs off.
            fx.clear();
            let probe = TimerKind::Custom { tag: PROBE_TAG };
            s.on_timer(probe, &mut ctx(5_000_000, &mut fx));
            assert_eq!(sent(&fx), vec![(0, PROXY, false)]);
            assert_eq!(counted(&fx, Counter::ProxyProbes), 1);
            assert!(timer(&fx, PROBE_SLOT, true));
            // Feedback relayed by the proxy again: fail back.
            fx.clear();
            s.on_packet(ack(0, false), &mut ctx(5_100_000, &mut fx));
            assert_eq!(counted(&fx, Counter::Failbacks), 1);
            assert!(timer(&fx, PROBE_SLOT, false));
            fill(&mut s, 5_100_000, &mut fx);
            assert!(on_path(&fx, PROXY));
        }

        pub fn completion_cancels_every_slot<C: CongestionControl>(cc: fn() -> C) {
            let mut fx = Vec::new();
            let mut s = started(cc(), 4, true, &mut fx);
            // Degrade, so the probe slot is armed too.
            for at in [1_000_000, 2_000_000, 3_000_000] {
                s.on_timer(TimerKind::Rto, &mut ctx(at, &mut fx));
            }
            assert!(timer(&fx, PROBE_SLOT, true));
            for seq in 0..4 {
                assert!(!s.is_complete());
                fx.clear();
                s.on_packet(ack(seq, true), &mut ctx(3_100_000 + seq, &mut fx));
            }
            assert!(s.is_complete());
            assert!(timer(&fx, RTO_SLOT, false), "the RTO: {fx:?}");
            assert!(timer(&fx, PROBE_SLOT, false), "the probe: {fx:?}");
            assert_eq!(timer(&fx, PACE_SLOT, false), C::PACED, "the tick: {fx:?}");
        }

        pub fn karn_skips_retransmitted_samples<C: CongestionControl>(cc: fn() -> C) {
            let mut fx = Vec::new();
            let mut s = started(cc(), 4, false, &mut fx);
            // Ack seqs 1..4 so the window surely fits the retransmission.
            for seq in 1u64..4 {
                s.on_packet(ack(seq, false), &mut ctx(1000 + seq, &mut fx));
            }
            fx.clear();
            s.on_packet(nack(0), &mut ctx(2000, &mut fx));
            fill(&mut s, 2000, &mut fx);
            assert_eq!(sent_seqs(&fx), vec![0], "precondition: seq 0 resent");
            let srtt_before = s.est.srtt();
            // Ack for the retransmitted seq 0 with a bogus huge echo delay:
            // the sample is ambiguous (Karn) and must be skipped.
            let late = SimDuration::from_secs(1).0;
            s.on_packet(ack(0, false), &mut ctx(late, &mut fx));
            assert!(s.is_complete());
            assert_eq!(s.est.srtt(), srtt_before);
        }

        /// Every packet sent and two RTOs fired: the ACK of a copy sent
        /// before the second RTO leaves the backoff, the ACK of one sent
        /// by it ends the backoff, and neither gives an RTT sample.
        pub fn an_acked_tail_retransmission_ends_a_repeated_backoff<C: CongestionControl>(
            cc: fn() -> C,
        ) {
            let mut fx = Vec::new();
            let mut s = started(cc(), 3, false, &mut fx);
            assert_eq!(sent_seqs(&fx), vec![0, 1, 2], "precondition: all sent");
            let base = s.est.rto();
            let acked_copy = |seq, sent_at| {
                Packet::ack_for(
                    &Packet::data(FlowId(0), seq, HostId(0), PROXY, sent_at),
                    PROXY,
                )
            };
            let (t1, t2) = (SimDuration::from_millis(1).0, SimDuration::from_millis(3).0);
            for t in [t1, t2] {
                s.on_timer(TimerKind::Rto, &mut ctx(t, &mut fx));
                fill(&mut s, t, &mut fx);
            }
            assert_eq!(s.est.rto(), SimDuration(base.0 * 4));
            s.on_packet(acked_copy(0, t1), &mut ctx(t2 + 1, &mut fx));
            assert_eq!(s.est.rto(), SimDuration(base.0 * 4), "a copy from before");
            s.on_packet(acked_copy(1, t2), &mut ctx(t2 + 2, &mut fx));
            assert_eq!(s.est.rto(), base);
            assert_eq!(s.est.srtt(), None, "no sample");
        }
    }

    #[test]
    fn dctcp_window_opens_on_fresh_unmarked_acks_only() {
        let mut fx = Vec::new();
        let mut s = started(dctcp(), 100, false, &mut fx);
        assert_eq!(sent_seqs(&fx), vec![0, 1, 2, 3], "init cwnd = 4 packets");
        fx.clear();
        s.on_packet(ack(0, false), &mut ctx(1000, &mut fx));
        let cwnd = s.policy().cwnd_bytes();
        assert!(cwnd > 4 * DATA_PKT_SIZE);
        assert!(!sent_seqs(&fx).is_empty(), "the freed slot and the growth");
        s.on_packet(ack(0, false), &mut ctx(2000, &mut fx));
        assert_eq!(s.policy().cwnd_bytes(), cwnd, "dup ack: no change");
    }

    #[test]
    fn dctcp_marked_acks_halve_the_window_once_per_round() {
        let mut fx = Vec::new();
        let mut s = started(dctcp(), 100, false, &mut fx);
        let cwnd0 = s.policy().cwnd_bytes();
        let t = SimDuration::from_micros(10).0;
        let later = t + SimDuration::from_micros(50).0;
        // The second mark lands within the round: suppressed.
        for (seq, at, want) in [
            (0, t, cwnd0 / 2),
            (1, t + 100, cwnd0 / 2),
            (2, later, cwnd0 / 4),
        ] {
            let mut d = Packet::data(FlowId(0), seq, HostId(0), PROXY, 0);
            d.set_ecn(crate::packet::Ecn::Ce);
            s.on_packet(Packet::ack_for(&d, PROXY), &mut ctx(at, &mut fx));
            assert_eq!(s.policy().cwnd_bytes(), want, "marked ack {seq}");
        }
    }

    #[test]
    fn dctcp_nack_halves_and_timeout_resets_the_window() {
        let mut fx = Vec::new();
        let mut s = started(dctcp(), 100, false, &mut fx);
        let cwnd0 = s.policy().cwnd_bytes();
        s.on_packet(nack(2), &mut ctx(SimDuration::from_micros(20).0, &mut fx));
        assert_eq!(s.policy().cwnd_bytes(), cwnd0 / 2);
        let rto_at = SimDuration::from_millis(10).0;
        s.on_timer(TimerKind::Rto, &mut ctx(rto_at, &mut fx));
        assert_eq!(s.policy().cwnd_bytes(), DATA_PKT_SIZE, "one packet");
    }

    #[test]
    fn rate_nack_retransmits_on_the_next_tick_without_a_rate_cut() {
        let mut fx = Vec::new();
        let mut s = started(rate(), 100, false, &mut fx);
        let pacing = s.policy().pacing_rate();
        fx.clear();
        s.on_packet(nack(0), &mut ctx(1000, &mut fx));
        assert_eq!(s.policy().pacing_rate(), pacing, "no rate cut");
        assert!(sent_seqs(&fx).is_empty(), "paced: nothing leaves off-tick");
        fill(&mut s, 1000, &mut fx);
        assert_eq!(sent_seqs(&fx)[0], 0);
    }

    #[test]
    fn relay_sender_sends_only_what_is_granted() {
        let mut s = Sender::relay(FlowId(0), HostId(0), PROXY, 10, dctcp());
        let mut fx = Vec::new();
        s.on_start(&mut ctx(0, &mut fx));
        assert!(sent_seqs(&fx).is_empty(), "nothing granted yet");
        let mut grant = |note, want: Vec<u64>| {
            fx.clear();
            s.on_note(note, &mut ctx(10, &mut fx));
            assert_eq!(sent_seqs(&fx), want, "{note:?}");
        };
        grant(Note::PacketsGranted { count: 2 }, vec![0, 1]);
        // A watermark is absolute, and a stale (lower) one revokes nothing...
        grant(Note::GrantWatermark { granted: 3 }, vec![2]);
        grant(Note::GrantWatermark { granted: 1 }, vec![]);
        // ...while incremental grants on top of it still add; grants clamp
        // at the total, and the window (4 packets) caps the burst.
        grant(Note::PacketsGranted { count: 100 }, vec![3]);
    }

    #[test]
    fn restored_relay_pulls_the_grant_watermark_while_short() {
        let ingress = AgentId(7);
        for (granted, pulls) in [(2, true), (4, false)] {
            let mut s =
                Sender::relay(FlowId(0), HostId(0), PROXY, 4, dctcp()).with_grant_source(ingress);
            let mut fx = Vec::new();
            s.on_start(&mut ctx(0, &mut fx));
            s.on_note(
                Note::PacketsGranted { count: granted },
                &mut ctx(10, &mut fx),
            );
            // Crash window: grants notified while down died with the crash.
            fx.clear();
            s.on_restore(&mut ctx(1_000_000, &mut fx));
            let pulled = fx.iter().any(|e| {
                matches!(e, Effect::Notify { agent, note: Note::GrantSync } if *agent == ingress)
            });
            assert_eq!(pulled, pulls, "granted {granted} of 4: {fx:?}");
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn windowed_sender_keeps_its_arena_size() {
        // Fleet runs keep one inline per flow (`sim::AgentSlot`); the
        // windowed sender this shell replaced took 504 bytes.
        assert!(std::mem::size_of::<Sender<Dctcp>>() <= 504);
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
        Sender::new(FlowId(0), HostId(0), PROXY, 0, dctcp());
    }
}
