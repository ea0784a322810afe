//! One relay core: the proxy's per-packet decision and the trimming-free
//! variant's loss detector, with no clock of their own.
//!
//! The paper's whole proxy is one per-packet decision (§3 Insight #3):
//! "Upon receiving a packet from the sender, the proxy checks whether it
//! is a header-only packet. If so, it sends a NACK back to the sender;
//! otherwise, it forwards the packet to the receiver. Upon receiving a
//! packet from the receiver, the proxy simply forwards it to the sender."
//! Its trimming-free variant (§5 FW#1) adds gap inference and a
//! quiescence sweep for tail losses. Both exist here once:
//!
//! * [`Action`] is the decision, generic over what the caller parsed the
//!   packet into, and [`RelayKind::apply`] is the whole difference between
//!   the relay kinds at decision time;
//! * [`Detector`] is the FW#1 state: the bounded-memory [`LossDetector`],
//!   each flow's last-seen time and the quiet-flow sweep.
//!
//! Time is an argument (a `u64` in the caller's own unit), never read here
//! — the sans-IO shape — so two very different datapaths run the same code:
//!
//! * the socket relay (`netproxy`): `decide` parses a datagram into an
//!   `Action<WireHeader>`, and each shard keeps a `Detector<u64>` keyed by
//!   the wire flow id, on nanoseconds since the relay started;
//! * the simulator: [`RelayAgent`] reads a [`Packet`] into an `Action`
//!   carrying the flow's endpoints and keeps a `Detector<FlowId>` on
//!   simulated picoseconds. [`crate::scheme`] installs it for every
//!   end-to-end proxy scheme.
//!
//! The trade-offs of inferring loss instead of reading trimmed headers
//! are measured by `figures ablation_detector_proxy`:
//!
//! * **False positives** — packet-sprayed paths reorder; a gap that is
//!   merely late triggers a spurious NACK (a wasted retransmission and an
//!   unnecessary window cut at the sender).
//! * **False negatives** — a *retransmission* that is dropped again
//!   creates no new gap, so only the quiescence sweep or the sender's RTO
//!   recovers it.
//! * **Detection latency** — a gap is only declared after
//!   `reorder_threshold` later packets, so the signal lags the loss by a
//!   few packet times (still microseconds, versus the long-haul RTT).

use crate::lossdetect::{LossDetector, LossDetectorConfig, LossDetectorStats, LossEvent};
use dcsim::agent::{Agent, Counter, Ctx};
use dcsim::events::TimerKind;
use dcsim::packet::{FlowId, HostId, Packet, PacketKind};
use dcsim::time::SimDuration;
use std::collections::BTreeMap;
use std::fmt;

/// Which relay logic a proxy runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelayKind {
    /// Blind bidirectional forwarding: trimmed headers travel on to the
    /// receiver, no NACK is generated — Insight #2's "proxy that simply
    /// relays".
    Naive,
    /// Trim-aware: a trimmed header becomes a NACK to the sender.
    Streamlined,
    /// Gap inference: NACKs from the [`Detector`] plus its sweep; no
    /// trimming support assumed.
    Detecting,
}

impl RelayKind {
    /// Short name for logs and JSON.
    pub fn name(self) -> &'static str {
        match self {
            RelayKind::Naive => "naive",
            RelayKind::Streamlined => "streamlined",
            RelayKind::Detecting => "detecting",
        }
    }

    /// What this relay kind makes of the streamlined decision. Only
    /// [`RelayKind::Streamlined`] assumes trimming switches; to Naive and
    /// Detecting a trimmed header is data like any other and goes to the
    /// receiver. Everything else is common to all three.
    #[inline]
    pub fn apply<H>(self, action: Action<H>) -> Action<H> {
        match (self, action) {
            (RelayKind::Naive | RelayKind::Detecting, Action::NackToSender(header)) => {
                Action::ForwardToReceiver(header)
            }
            (_, action) => action,
        }
    }
}

/// What the proxy does with an incoming packet. Each variant carries what
/// the caller's handler needs (the socket relay: the parsed wire header;
/// the simulator: the flow's endpoints), so a packet is read once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action<H> {
    /// Forward the data to the receiver.
    ForwardToReceiver(H),
    /// Reply to the sender with a NACK for this packet's (flow, seq).
    NackToSender(H),
    /// Forward receiver feedback to the flow's sender (reverse path).
    ForwardToSender(H),
    /// Drop it (not ours: malformed, oversize, or an unknown flow).
    Drop,
}

/// The trimming-free relay's loss state: gap inference per flow, each
/// flow's last-seen time, and the quiet-flow sweep. `K` names a flow where
/// the detector runs; times are `u64`s in the caller's unit.
#[derive(Debug)]
pub struct Detector<K = FlowId> {
    losses: LossDetector<K>,
    /// Last data observation per flow.
    last_seen: BTreeMap<K, u64>,
    /// How long a flow must be silent before the sweep acts on it.
    interval: u64,
}

impl<K: Ord + Copy> Detector<K> {
    /// A detector whose sweep acts on flows silent for `interval`.
    ///
    /// # Panics
    /// Panics on a config [`LossDetector::new`] refuses.
    pub fn new(config: LossDetectorConfig, interval: u64) -> Self {
        Detector {
            losses: LossDetector::new(config),
            last_seen: BTreeMap::new(),
            interval,
        }
    }

    /// Feeds one data packet of `flow` seen at `now`; returns the
    /// sequences newly declared lost.
    pub fn observe(&mut self, flow: K, seq: u64, now: u64) -> Vec<LossEvent<K>> {
        self.last_seen.insert(flow, now);
        self.losses.observe(flow, seq)
    }

    /// Quiescence sweep at `now`: every flow with sweep work that has been
    /// silent for at least the interval gets its gaps declared and its
    /// declared sequences re-NACKed ([`LossDetector::sweep`]). Flows go in
    /// key order, so the NACKs' order is a function of the state alone.
    pub fn sweep(&mut self, now: u64) -> Vec<LossEvent<K>> {
        let mut losses = Vec::new();
        for (&flow, &seen) in &self.last_seen {
            if self.losses.has_state(flow) && now.saturating_sub(seen) >= self.interval {
                losses.extend(self.losses.sweep(flow));
            }
        }
        losses
    }

    /// True while some flow has sweep work left: a gap, or a declared
    /// sequence with re-NACK budget. A sweep timer is worth re-arming
    /// exactly then.
    pub fn has_work(&self) -> bool {
        self.last_seen
            .keys()
            .any(|&flow| self.losses.has_state(flow))
    }

    /// Forgets everything learned from traffic (a process restart); the
    /// configuration stays.
    pub fn reset(&mut self) {
        *self = Detector::new(self.losses.config(), self.interval);
    }

    /// Detector statistics (observed / declared / late arrivals / evicted).
    pub fn stats(&self) -> LossDetectorStats {
        self.losses.stats()
    }
}

/// Why a proxy rejected a flow registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProxyError {
    /// The flow is already registered (with possibly different endpoints).
    AlreadyRegistered { flow: FlowId },
}

impl fmt::Display for ProxyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProxyError::AlreadyRegistered { flow } => {
                write!(f, "{flow} is already registered at this proxy")
            }
        }
    }
}

impl std::error::Error for ProxyError {}

/// Address pair of a proxied flow.
#[derive(Debug, Clone, Copy)]
struct FlowDirs {
    /// The incast sender (in the proxy's datacenter).
    sender: HostId,
    /// The remote receiver.
    receiver: HostId,
}

/// Cancelable timer slot holding the quiescence sweep timer.
const SWEEP_SLOT: u32 = 0;

/// Quiescence sweep period of the simulated detecting relay: a few
/// intra-datacenter RTTs (the eBPF-timer analogue).
const SWEEP_INTERVAL: SimDuration = SimDuration::from_micros(50);

/// The simulator's proxy: one agent serves every flow routed through its
/// host, running the [`RelayKind`]'s logic. Per-flow configuration is just
/// the (sender, receiver) pair, matching the paper's argument that the
/// proxy needs no connection state; the detecting kind adds the
/// [`Detector`]'s soft state. The per-packet processing delay models the
/// eBPF datapath cost measured in Figure 5 (median 0.42 µs lower bound).
///
/// The Naive *scheme* (split connections) needs no agent of its own: it is
/// a [`dcsim::protocol::Receiver`] with grants wired to a
/// [`dcsim::protocol::Sender`] in relay mode on the same host.
pub struct RelayAgent {
    host: HostId,
    kind: RelayKind,
    flows: BTreeMap<FlowId, FlowDirs>,
    /// Per-packet processing delay (models the eBPF datapath, Fig. 5a).
    processing_delay: SimDuration,
    /// `Some` exactly for [`RelayKind::Detecting`].
    detector: Option<Detector>,
    /// True while the sweep slot holds a pending timer.
    timer_armed: bool,
}

impl RelayAgent {
    /// A `kind` proxy on `host` with the given per-packet processing delay
    /// (the paper's prototype measures a median of 0.42 µs). `detector`
    /// tunes [`RelayKind::Detecting`]; the other kinds ignore it.
    pub fn new(
        host: HostId,
        kind: RelayKind,
        processing_delay: SimDuration,
        detector: LossDetectorConfig,
    ) -> Self {
        RelayAgent {
            host,
            kind,
            flows: BTreeMap::new(),
            processing_delay,
            detector: (kind == RelayKind::Detecting)
                .then(|| Detector::new(detector, SWEEP_INTERVAL.0)),
            timer_armed: false,
        }
    }

    /// Registers a flow to be relayed through this proxy. Rejects double
    /// registration instead of silently rebinding the flow's endpoints.
    pub fn register(
        &mut self,
        flow: FlowId,
        sender: HostId,
        receiver: HostId,
    ) -> Result<(), ProxyError> {
        if self.flows.contains_key(&flow) {
            return Err(ProxyError::AlreadyRegistered { flow });
        }
        self.flows.insert(flow, FlowDirs { sender, receiver });
        Ok(())
    }

    /// Number of registered flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Detector statistics (all zero for the kinds without a detector).
    pub fn detector_stats(&self) -> LossDetectorStats {
        self.detector
            .as_ref()
            .map_or_else(LossDetectorStats::default, Detector::stats)
    }

    /// The streamlined decision on a simulated packet. An unregistered
    /// flow (lost registration, misrouted packet) is dropped rather than
    /// crashing, as a real middlebox would; the sender's RTO recovers it.
    fn decide(&self, pkt: &Packet) -> Action<FlowDirs> {
        let Some(&dirs) = self.flows.get(&pkt.flow) else {
            return Action::Drop;
        };
        match pkt.kind {
            PacketKind::Data if pkt.trimmed() => Action::NackToSender(dirs),
            PacketKind::Data => Action::ForwardToReceiver(dirs),
            PacketKind::Ack | PacketKind::Nack => Action::ForwardToSender(dirs),
        }
    }

    /// Counts and sends (after the processing delay) a NACK for `seq`
    /// modelled on `like`: its flow, its source as the NACK's destination,
    /// its timestamp echo and path flag.
    fn send_nack(&self, like: &Packet, seq: u64, ctx: &mut Ctx) {
        ctx.count(Counter::ProxyNacks, 1);
        let mut nack = Packet::nack_for(like, self.host);
        nack.seq = seq;
        ctx.send_after(self.processing_delay, self.host, nack);
    }

    fn forward(&self, mut pkt: Packet, to: HostId, ctx: &mut Ctx) {
        pkt.dst = to;
        ctx.count(Counter::ProxyForwarded, 1);
        ctx.send_after(self.processing_delay, self.host, pkt);
    }

    fn arm_sweep(&mut self, ctx: &mut Ctx) {
        if self.timer_armed {
            return;
        }
        self.timer_armed = true;
        ctx.rearm_timer(
            SWEEP_SLOT,
            ctx.now + SWEEP_INTERVAL,
            TimerKind::Custom { tag: 0 },
        );
    }
}

impl Agent for RelayAgent {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        match self.kind.apply(self.decide(&pkt)) {
            Action::Drop => ctx.count(Counter::ProxyUnknownFlowDrops, 1),
            Action::NackToSender(dirs) => {
                // Early loss signal: the header goes no further.
                debug_assert_eq!(pkt.src, dirs.sender);
                self.send_nack(&pkt, pkt.seq, ctx);
            }
            Action::ForwardToReceiver(dirs) => {
                debug_assert_eq!(pkt.src, dirs.sender);
                // Detecting: infer losses from the sequence stream, then
                // forward.
                let losses = match self.detector.as_mut() {
                    Some(detector) => detector.observe(pkt.flow, pkt.seq, ctx.now.0),
                    None => Vec::new(),
                };
                for loss in losses {
                    // The echo carries this packet's send time — the best
                    // available bound on when the lost packet was sent.
                    self.send_nack(&pkt, loss.seq, ctx);
                }
                self.forward(pkt, dirs.receiver, ctx);
                if self.detector.is_some() {
                    self.arm_sweep(ctx);
                }
            }
            Action::ForwardToSender(dirs) => {
                debug_assert_eq!(pkt.src, dirs.receiver);
                self.forward(pkt, dirs.sender, ctx);
            }
        }
    }

    fn on_timer(&mut self, kind: TimerKind, ctx: &mut Ctx) {
        let (TimerKind::Custom { .. }, Some(detector)) = (kind, self.detector.as_mut()) else {
            return;
        };
        self.timer_armed = false;
        for loss in detector.sweep(ctx.now.0) {
            // No packet to model the NACK on: a fresh one from the
            // sender, echoing the sweep's own time.
            let sender = self.flows[&loss.flow].sender;
            let like = Packet::data(loss.flow, loss.seq, sender, self.host, ctx.now.0);
            self.send_nack(&like, loss.seq, ctx);
        }
        if self.detector.as_ref().is_some_and(Detector::has_work) {
            self.arm_sweep(ctx);
        }
    }

    fn on_crash(&mut self, ctx: &mut Ctx) {
        // In-flight soft state dies with the process: gap tracking and
        // quiescence bookkeeping are rebuilt from live traffic after a
        // restart. Flow registrations are configuration and survive.
        if let Some(detector) = self.detector.as_mut() {
            detector.reset();
            self.timer_armed = false;
            ctx.cancel_timer(SWEEP_SLOT);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lossdetect::MAX_RENACKS;
    use dcsim::agent::Effect;
    use dcsim::packet::AgentId;
    use dcsim::time::SimTime;

    const SENDER: HostId = HostId(0);
    const PROXY: HostId = HostId(5);
    const RECEIVER: HostId = HostId(9);

    /// A `kind` proxy relaying flow 0 from `SENDER` to `RECEIVER`.
    fn proxy(kind: RelayKind, delay: SimDuration, threshold: u32) -> RelayAgent {
        let config = LossDetectorConfig {
            reorder_threshold: threshold,
            max_pending: 128,
        };
        let mut p = RelayAgent::new(PROXY, kind, delay, config);
        p.register(FlowId(0), SENDER, RECEIVER).expect("fresh flow");
        p
    }

    fn streamlined() -> RelayAgent {
        proxy(RelayKind::Streamlined, SimDuration::from_nanos(420), 8)
    }

    fn detecting(threshold: u32) -> RelayAgent {
        proxy(RelayKind::Detecting, SimDuration::ZERO, threshold)
    }

    fn ctx_at(effects: &mut Vec<Effect>, now: SimTime) -> Ctx<'_> {
        Ctx::harness(now, AgentId(2), effects)
    }

    fn ctx_with(effects: &mut Vec<Effect>) -> Ctx<'_> {
        ctx_at(effects, SimTime(0))
    }

    fn sends(fx: &[Effect]) -> Vec<&Packet> {
        fx.iter()
            .filter_map(|e| match e {
                Effect::Send { packet, .. } => Some(packet),
                _ => None,
            })
            .collect()
    }

    fn only_send(fx: &[Effect]) -> &Packet {
        let sends = sends(fx);
        assert_eq!(sends.len(), 1);
        sends[0]
    }

    fn counted(fx: &[Effect], counter: Counter) -> bool {
        fx.iter()
            .any(|e| matches!(e, Effect::Count { counter: c, amount: 1 } if *c == counter))
    }

    fn data(seq: u64) -> Packet {
        Packet::data(FlowId(0), seq, SENDER, PROXY, 0)
    }

    #[test]
    fn forwards_data_to_receiver() {
        let mut p = streamlined();
        let mut fx = Vec::new();
        let data = Packet::data(FlowId(0), 3, SENDER, PROXY, 7);
        p.on_packet(data, &mut ctx_with(&mut fx));
        let fwd = only_send(&fx);
        assert_eq!(fwd.kind, PacketKind::Data);
        assert_eq!(fwd.dst, RECEIVER);
        assert_eq!(fwd.src, SENDER, "source preserved end to end");
        assert_eq!(fwd.seq, 3);
        assert_eq!(fwd.ts_echo, 7, "timestamp echo preserved");
    }

    #[test]
    fn nacks_trimmed_headers_and_drops_them() {
        let mut p = streamlined();
        let mut fx = Vec::new();
        let mut data = Packet::data(FlowId(0), 4, SENDER, PROXY, 7);
        data.trim();
        p.on_packet(data, &mut ctx_with(&mut fx));
        let nack = only_send(&fx);
        assert_eq!(nack.kind, PacketKind::Nack);
        assert_eq!(nack.dst, SENDER);
        assert_eq!(nack.seq, 4);
        assert_eq!(nack.ts_echo, 7, "feedback-delay echo preserved");
        assert!(counted(&fx, Counter::ProxyNacks));
    }

    /// Insight #2's strawman: the relay-only proxy passes a trimmed header
    /// on to the receiver, which NACKs it a long-haul RTT later.
    #[test]
    fn naive_forwards_trimmed_headers_without_nacking() {
        let mut p = proxy(RelayKind::Naive, SimDuration::from_nanos(420), 8);
        let mut fx = Vec::new();
        let mut data = Packet::data(FlowId(0), 4, SENDER, PROXY, 7);
        data.trim();
        p.on_packet(data, &mut ctx_with(&mut fx));
        let fwd = only_send(&fx);
        assert_eq!((fwd.kind, fwd.trimmed()), (PacketKind::Data, true));
        assert_eq!((fwd.dst, fwd.seq), (RECEIVER, 4));
        assert!(counted(&fx, Counter::ProxyForwarded));
        assert!(!counted(&fx, Counter::ProxyNacks), "naive never NACKs");
    }

    #[test]
    fn forwards_receiver_feedback_to_sender() {
        let mut p = streamlined();
        let mut fx = Vec::new();
        let data = Packet::data(FlowId(0), 1, SENDER, RECEIVER, 7);
        let mut ack = Packet::ack_for(&data, RECEIVER);
        ack.dst = PROXY; // receiver replies via the proxy
        p.on_packet(ack, &mut ctx_with(&mut fx));
        let fwd = only_send(&fx);
        assert_eq!(fwd.kind, PacketKind::Ack);
        assert_eq!(fwd.dst, SENDER);
    }

    #[test]
    fn processing_delay_applied() {
        let mut p = streamlined();
        let mut fx = Vec::new();
        let data = Packet::data(FlowId(0), 0, SENDER, PROXY, 0);
        p.on_packet(data, &mut ctx_with(&mut fx));
        match &fx
            .iter()
            .find(|e| matches!(e, Effect::Send { .. }))
            .unwrap()
        {
            Effect::Send { delay, .. } => assert_eq!(*delay, SimDuration::from_nanos(420)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn serves_multiple_flows() {
        let mut p = streamlined();
        p.register(FlowId(1), HostId(2), RECEIVER)
            .expect("fresh flow");
        assert_eq!(p.flow_count(), 2);
        let mut fx = Vec::new();
        let data = Packet::data(FlowId(1), 0, HostId(2), PROXY, 0);
        p.on_packet(data, &mut ctx_with(&mut fx));
        assert_eq!(only_send(&fx).dst, RECEIVER);
    }

    #[test]
    fn double_registration_rejected() {
        let mut p = streamlined();
        assert_eq!(
            p.register(FlowId(0), SENDER, RECEIVER),
            Err(ProxyError::AlreadyRegistered { flow: FlowId(0) })
        );
        assert_eq!(p.flow_count(), 1, "rejected registration must not rebind");
    }

    #[test]
    fn unknown_flow_dropped_and_counted() {
        let mut p = streamlined();
        let mut fx = Vec::new();
        let data = Packet::data(FlowId(9), 0, SENDER, PROXY, 0);
        p.on_packet(data, &mut ctx_with(&mut fx));
        assert!(sends(&fx).is_empty(), "unknown flows must not be forwarded");
        assert!(counted(&fx, Counter::ProxyUnknownFlowDrops));
    }

    #[test]
    fn detecting_forwards_in_order_data_without_nacks() {
        let mut p = detecting(2);
        let mut fx = Vec::new();
        for seq in 0..10 {
            p.on_packet(data(seq), &mut ctx_with(&mut fx));
        }
        let out = sends(&fx);
        assert_eq!(out.len(), 10);
        assert!(out.iter().all(|pk| pk.kind == PacketKind::Data));
        assert!(out.iter().all(|pk| pk.dst == RECEIVER));
    }

    #[test]
    fn detecting_nacks_inferred_gap() {
        let mut p = detecting(2);
        let mut fx = Vec::new();
        p.on_packet(data(0), &mut ctx_with(&mut fx));
        // Seq 1 lost in the network: 2 and 3 reveal and confirm the gap.
        p.on_packet(data(2), &mut ctx_with(&mut fx));
        fx.clear();
        p.on_packet(data(3), &mut ctx_with(&mut fx));
        let out = sends(&fx);
        let nacks: Vec<_> = out
            .iter()
            .filter(|pk| pk.kind == PacketKind::Nack)
            .collect();
        assert_eq!(nacks.len(), 1);
        assert_eq!(nacks[0].seq, 1);
        assert_eq!(nacks[0].dst, SENDER);
    }

    #[test]
    fn detecting_tolerates_mild_reordering() {
        let mut p = detecting(3);
        let mut fx = Vec::new();
        for &seq in &[0u64, 2, 1, 3, 5, 4, 6] {
            p.on_packet(data(seq), &mut ctx_with(&mut fx));
        }
        assert!(
            sends(&fx).iter().all(|pk| pk.kind == PacketKind::Data),
            "reordering below the threshold must not NACK"
        );
        assert_eq!(p.detector_stats().declared, 0);
    }

    #[test]
    fn detecting_forwards_reverse_path() {
        let mut p = detecting(2);
        let mut fx = Vec::new();
        let d = Packet::data(FlowId(0), 0, SENDER, RECEIVER, 0);
        let mut ack = Packet::ack_for(&d, RECEIVER);
        ack.dst = PROXY;
        p.on_packet(ack, &mut ctx_with(&mut fx));
        let out = sends(&fx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, PacketKind::Ack);
        assert_eq!(out[0].dst, SENDER);
    }

    #[test]
    fn detecting_retransmission_resolves_the_gap_cleanly() {
        let mut p = detecting(2);
        let mut fx = Vec::new();
        p.on_packet(data(0), &mut ctx_with(&mut fx));
        p.on_packet(data(2), &mut ctx_with(&mut fx));
        p.on_packet(data(3), &mut ctx_with(&mut fx)); // NACK for 1 emitted
        fx.clear();
        // The retransmitted seq 1 arrives: forwarded, no further NACKs.
        p.on_packet(data(1), &mut ctx_with(&mut fx));
        let out = sends(&fx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, PacketKind::Data);
        assert_eq!(out[0].seq, 1);
        assert_eq!(
            p.detector_stats().late_arrivals,
            1,
            "counted as FP in hindsight"
        );
    }

    #[test]
    fn detecting_double_registration_rejected() {
        let mut p = detecting(2);
        assert!(p.register(FlowId(0), SENDER, RECEIVER).is_err());
    }

    #[test]
    fn detecting_unknown_flow_dropped_and_counted() {
        let mut p = detecting(2);
        let mut fx = Vec::new();
        let stray = Packet::data(FlowId(9), 0, SENDER, PROXY, 0);
        p.on_packet(stray, &mut ctx_with(&mut fx));
        assert!(sends(&fx).is_empty(), "unknown flows must not be forwarded");
        assert!(counted(&fx, Counter::ProxyUnknownFlowDrops));
    }

    #[test]
    fn detecting_crash_drops_soft_state_but_keeps_registrations() {
        let mut p = detecting(2);
        let mut fx = Vec::new();
        p.on_packet(data(0), &mut ctx_with(&mut fx));
        p.on_packet(data(2), &mut ctx_with(&mut fx)); // open gap for seq 1
        p.on_crash(&mut ctx_with(&mut fx));
        fx.clear();
        // Post-restart traffic is forwarded (registration survived) and the
        // pre-crash gap is forgotten (fresh detector state).
        p.on_packet(data(5), &mut ctx_with(&mut fx));
        let out = sends(&fx);
        assert!(out
            .iter()
            .any(|pk| pk.kind == PacketKind::Data && pk.seq == 5));
        assert!(
            out.iter().all(|pk| pk.kind != PacketKind::Nack),
            "pre-crash gaps must not be declared after a restart"
        );
    }

    /// After a restart the fresh detector takes the sequences delivered
    /// before the crash for leading gaps. They never pass again, so each
    /// is declared and then re-NACKed until its budget is spent — and from
    /// then on it is no sweep work: the timer stops re-arming.
    #[test]
    fn detecting_sweep_stops_once_the_renack_budget_is_spent() {
        let mut p = detecting(2);
        let mut fx = Vec::new();
        for seq in 0..4 {
            p.on_packet(data(seq), &mut ctx_with(&mut fx));
        }
        p.on_crash(&mut ctx_with(&mut fx));
        fx.clear();
        p.on_packet(data(5), &mut ctx_with(&mut fx)); // gaps 0..=4
        let rearms = |fx: &[Effect]| {
            fx.iter()
                .filter(|e| matches!(e, Effect::RearmTimer { .. }))
                .count()
        };
        assert_eq!(rearms(&fx), 1, "the arrival arms the sweep");
        let (mut nacks, mut sweeps) = (0, 0u64);
        loop {
            sweeps += 1;
            assert!(sweeps <= 100_000, "the sweep re-arms forever");
            fx.clear();
            let now = SimTime(sweeps * SimDuration::from_micros(100).0);
            p.on_timer(TimerKind::Custom { tag: 0 }, &mut ctx_at(&mut fx, now));
            nacks += sends(&fx).len();
            if rearms(&fx) == 0 {
                assert!(
                    !sends(&fx).is_empty(),
                    "re-arming stops with the last re-NACK"
                );
                break;
            }
        }
        assert_eq!(
            nacks,
            5 * (1 + MAX_RENACKS as usize),
            "after {sweeps} sweeps"
        );
        assert_eq!(p.detector_stats().renacks, 5 * u64::from(MAX_RENACKS));
    }

    /// The detector's clock is whatever the caller passes in.
    #[test]
    fn detector_sweeps_a_flow_once_it_has_been_quiet_for_an_interval() {
        const INTERVAL: u64 = 1_000;
        let config = LossDetectorConfig {
            reorder_threshold: 3,
            max_pending: 64,
        };
        let mut d = Detector::<u64>::new(config, INTERVAL);
        // Two flows, each with a tail gap no later arrival will reveal;
        // the higher key is seen first and last.
        assert!(d.observe(9, 0, 100).is_empty());
        assert!(d.observe(7, 0, 100).is_empty());
        assert!(d.observe(7, 2, 100).is_empty());
        assert!(d.observe(9, 2, 500).is_empty());
        assert!(d.has_work());
        assert!(
            d.sweep(100 + INTERVAL - 1).is_empty(),
            "quiet for interval - 1"
        );
        let seqs = |losses: Vec<LossEvent<u64>>| -> Vec<(u64, u64)> {
            losses.iter().map(|l| (l.flow, l.seq)).collect()
        };
        assert_eq!(
            seqs(d.sweep(100 + INTERVAL)),
            [(7, 1)],
            "quiet for interval"
        );
        // Both quiet now, swept in key order: flow 7's first re-NACK, then
        // flow 9's declaration. Next time flow 7 backs off.
        assert_eq!(seqs(d.sweep(500 + INTERVAL)), [(7, 1), (9, 1)]);
        assert_eq!(seqs(d.sweep(500 + INTERVAL)), [(9, 1)]);
        d.reset();
        assert!(!d.has_work(), "a reset forgets every flow");
    }
}
