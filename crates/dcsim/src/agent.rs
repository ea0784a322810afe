//! Protocol agents and the effect interface they use to act on the world.
//!
//! Agents (senders, receivers, proxies) are state machines driven by the
//! simulator: packet arrivals, timers and intra-host notifications come in;
//! *effects* — packets to transmit, timers to arm, completion signals — go
//! out through [`Ctx`]. Collecting effects instead of letting agents call
//! back into the simulator keeps ownership simple and makes every handler a
//! pure state transition, which is what the property tests exercise.

use crate::events::TimerKind;
pub use crate::metrics::Counter;
use crate::packet::{AgentId, FlowId, HostId, Packet};
use crate::time::{SimDuration, SimTime};

/// Intra-host notification between agents (delivered at the same timestamp,
/// modelling a function call inside one server).
///
/// Used by the Naive proxy: the relay ingress (receiver side) grants packets
/// to the relay egress (sender side) as they arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Note {
    /// `count` more packets are available to transmit.
    PacketsGranted { count: u64 },
    /// A relay asking its granting side to re-state the grant watermark.
    /// Sent after a crash restore: incremental grants notified while the
    /// relay was down died with the crash and can never be replayed.
    GrantSync,
    /// Absolute re-statement of the grant watermark: `granted` is the total
    /// number of distinct packets granted so far. Idempotent (receivers take
    /// the max), so duplicated or crash-lost syncs are harmless.
    GrantWatermark { granted: u64 },
    /// Hybrid-fidelity transition: a port on this flow's path just went
    /// from analytic (cold) to packet-level (hot) modeling after a
    /// congestion signal. Delivered to the agent bound at the packet's
    /// source host; purely informational (senders count it), never sent
    /// when the fidelity engine is disabled.
    FidelityShift,
}

/// An action requested by an agent, applied by the simulator after the
/// handler returns.
#[derive(Debug, Clone)]
pub enum Effect {
    /// Transmit `packet` from `from`'s NIC after `delay` (ZERO = now).
    Send {
        from: HostId,
        packet: Packet,
        delay: SimDuration,
    },
    /// Arm a timer for `agent` at absolute time `at` (filled with the
    /// issuing agent's id by [`Ctx::arm_timer`]).
    Timer {
        agent: AgentId,
        at: SimTime,
        kind: TimerKind,
    },
    /// Move the timer in `agent`'s logical `slot` to deadline `at` with
    /// payload `kind`, arming it fresh if the slot holds no pending timer.
    /// The simulator resolves the slot against its per-agent handle table,
    /// so the heap entry moves in place instead of accumulating stale
    /// duplicates.
    RearmTimer {
        agent: AgentId,
        slot: u32,
        at: SimTime,
        kind: TimerKind,
    },
    /// Cancel the pending timer in `agent`'s logical `slot`, if any.
    CancelTimer { agent: AgentId, slot: u32 },
    /// Deliver a note to another agent at the current timestamp.
    Notify { agent: AgentId, note: Note },
    /// Mark a flow complete (receiver got every byte).
    FlowDone { flow: FlowId },
    /// Bump a metric counter.
    Count { counter: Counter, amount: u64 },
    /// Record how long a sender took to notice its proxy was unreachable
    /// and switch paths (silence start to failover activation).
    FailoverLatency { flow: FlowId, latency: SimDuration },
}

/// Handler context: current time, the agent's own id, and the effect sink.
pub struct Ctx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The id of the agent being invoked (for arming its own timers).
    pub self_id: AgentId,
    pub(crate) effects: &'a mut Vec<Effect>,
}

impl<'a> Ctx<'a> {
    /// Builds a context over an external effect buffer — the harness for
    /// unit-testing agents outside the simulator (used by this crate's own
    /// tests and by downstream crates implementing [`Agent`]).
    pub fn harness(now: SimTime, self_id: AgentId, effects: &'a mut Vec<Effect>) -> Ctx<'a> {
        Ctx {
            now,
            self_id,
            effects,
        }
    }

    /// Transmits `packet` from host `from` immediately.
    pub fn send(&mut self, from: HostId, packet: Packet) {
        self.effects.push(Effect::Send {
            from,
            packet,
            delay: SimDuration::ZERO,
        });
    }

    /// Transmits `packet` from host `from` after `delay` (models host
    /// processing time, e.g. the proxy's per-packet overhead).
    pub fn send_after(&mut self, delay: SimDuration, from: HostId, packet: Packet) {
        self.effects.push(Effect::Send {
            from,
            packet,
            delay,
        });
    }

    /// Arms a timer for this agent at absolute time `at`.
    ///
    /// Every `arm_timer` call inserts a new heap entry; agents that re-arm
    /// the same logical timer on every packet should use [`Ctx::rearm_timer`]
    /// so the existing entry moves in place instead.
    pub fn arm_timer(&mut self, at: SimTime, kind: TimerKind) {
        self.effects.push(Effect::Timer {
            agent: self.self_id,
            at,
            kind,
        });
    }

    /// Moves this agent's timer in logical `slot` to deadline `at` with
    /// payload `kind`, arming it if the slot is empty. Slots are small
    /// per-agent indices (0, 1, ...) naming each logical timer the agent
    /// owns — e.g. slot 0 for the RTO, slot 1 for a pacing tick.
    pub fn rearm_timer(&mut self, slot: u32, at: SimTime, kind: TimerKind) {
        self.effects.push(Effect::RearmTimer {
            agent: self.self_id,
            slot,
            at,
            kind,
        });
    }

    /// Cancels this agent's timer in logical `slot` (no-op if the slot is
    /// empty or the timer already fired).
    pub fn cancel_timer(&mut self, slot: u32) {
        self.effects.push(Effect::CancelTimer {
            agent: self.self_id,
            slot,
        });
    }

    /// Sends an intra-host note to another agent (same timestamp).
    pub fn notify(&mut self, agent: AgentId, note: Note) {
        self.effects.push(Effect::Notify { agent, note });
    }

    /// Declares `flow` complete at the current time.
    pub fn flow_done(&mut self, flow: FlowId) {
        self.effects.push(Effect::FlowDone { flow });
    }

    /// Bumps a metric counter by `amount`.
    pub fn count(&mut self, counter: Counter, amount: u64) {
        self.effects.push(Effect::Count { counter, amount });
    }

    /// Records the detection-to-switch latency of a proxy failover.
    pub fn failover_latency(&mut self, flow: FlowId, latency: SimDuration) {
        self.effects.push(Effect::FailoverLatency { flow, latency });
    }
}

/// A protocol state machine attached to one or more (flow, host) bindings.
///
/// `Send` is a supertrait so whole simulators (which own boxed agents) can
/// move across the scoped threads of a fleet run.
pub trait Agent: Send {
    /// Called once at the agent's scheduled start time (senders begin
    /// transmitting here).
    fn on_start(&mut self, _ctx: &mut Ctx) {}

    /// A packet addressed to this agent's binding arrived.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx);

    /// A timer armed by this agent fired.
    fn on_timer(&mut self, _kind: TimerKind, _ctx: &mut Ctx) {}

    /// A note from a colocated agent arrived.
    fn on_note(&mut self, _note: Note, _ctx: &mut Ctx) {}

    /// The agent's host crashed (injected via [`crate::faults::FaultPlan`]).
    /// Implementations drop in-flight soft state here and cancel pending
    /// timer slots via `ctx`; configuration (flow registrations) may
    /// survive, modelling a process restart from config. While crashed, the
    /// simulator never invokes the agent's other handlers.
    fn on_crash(&mut self, _ctx: &mut Ctx) {}

    /// The agent's host came back (the `restore_at` of an
    /// [`crate::faults::AgentCrash`] window). Events addressed to the agent
    /// while it was down — flow starts, timer fires, notes — were silently
    /// consumed, so any agent that drives itself with timers must re-arm
    /// them here or it stays wedged forever (the invariant auditor's
    /// stuck-flow watchdog exists to catch exactly that).
    fn on_restore(&mut self, _ctx: &mut Ctx) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;

    #[test]
    fn ctx_accumulates_effects() {
        let mut effects = Vec::new();
        let mut ctx = Ctx {
            now: SimTime(5),
            self_id: AgentId(3),
            effects: &mut effects,
        };
        let pkt = Packet::data(FlowId(0), 0, HostId(0), HostId(1), 0);
        ctx.send(HostId(0), pkt);
        ctx.send_after(SimDuration::from_micros(1), HostId(0), pkt);
        ctx.arm_timer(SimTime(10), TimerKind::Rto);
        ctx.notify(AgentId(7), Note::PacketsGranted { count: 2 });
        ctx.flow_done(FlowId(0));
        ctx.count(Counter::Retransmits, 1);
        ctx.rearm_timer(1, SimTime(20), TimerKind::Custom { tag: 9 });
        ctx.cancel_timer(1);
        assert_eq!(effects.len(), 8);
        match &effects[0] {
            Effect::Send { delay, packet, .. } => {
                assert_eq!(*delay, SimDuration::ZERO);
                assert_eq!(packet.kind, PacketKind::Data);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &effects[1] {
            Effect::Send { delay, .. } => assert_eq!(*delay, SimDuration::from_micros(1)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            effects[2],
            Effect::Timer {
                agent: AgentId(3),
                at: SimTime(10),
                ..
            }
        ));
        assert!(matches!(
            effects[3],
            Effect::Notify {
                agent: AgentId(7),
                note: Note::PacketsGranted { count: 2 }
            }
        ));
        assert!(matches!(effects[4], Effect::FlowDone { flow: FlowId(0) }));
        assert!(matches!(
            effects[5],
            Effect::Count {
                counter: Counter::Retransmits,
                amount: 1
            }
        ));
        assert!(matches!(
            effects[6],
            Effect::RearmTimer {
                agent: AgentId(3),
                slot: 1,
                at: SimTime(20),
                kind: TimerKind::Custom { tag: 9 },
            }
        ));
        assert!(matches!(
            effects[7],
            Effect::CancelTimer {
                agent: AgentId(3),
                slot: 1
            }
        ));
    }
}
