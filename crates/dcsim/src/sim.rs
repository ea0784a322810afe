//! The simulator: event loop, port transmit state machines, switch
//! forwarding with packet spraying, and agent dispatch.

use crate::agent::{Agent, Counter, Ctx, Effect, Note};
use crate::audit::{AuditConfig, AuditMode, InvariantViolation, PacketLedger};
use crate::events::{Event, EventQueue, FaultEvent, TimerHandle, NO_LANE};
use crate::faults::{FaultError, FaultPlan};
use crate::fidelity::{ExpressStats, FidelityConfig, FidelityState, HOT_BACKLOG, MAX_LOOKAHEAD};
use crate::metrics::{LaneChurn, SimMetrics};
use crate::packet::{AgentId, FlowId, HostId, NodeId, Packet, PacketKind, PortId};
use crate::protocol::{Dctcp, Receiver, Sender};
use crate::queues::{EnqueueOutcome, PortQueues, QueuePeak};
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeRole, Topology};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use trace::{derive_seed, SplitMix64};

/// Why [`Simulator::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// No events left: every flow is finished and every timer expired.
    Idle,
    /// The time limit was reached with events still pending.
    TimeLimit,
    /// The event-count safety cap was reached (indicates a livelock bug or
    /// an undersized cap).
    EventCap,
}

/// How a run terminated, for reporting: [`StopReason`] folded together with
/// the auditor's verdict so sweep binaries stop inferring completion from
/// side channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminatedReason {
    /// The simulator went idle: every flow finished, every timer expired.
    Completed,
    /// The time limit was reached with events still pending.
    TimeLimit,
    /// The event-count safety cap was reached.
    EventCap,
    /// The invariant auditor (in collect mode) recorded at least one
    /// violation; see [`RunReport::violations`].
    InvariantViolation,
}

impl fmt::Display for TerminatedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TerminatedReason::Completed => "completed",
            TerminatedReason::TimeLimit => "time-limit",
            TerminatedReason::EventCap => "event-cap",
            TerminatedReason::InvariantViolation => "invariant-violation",
        })
    }
}

/// Outcome of a run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Why the run stopped.
    pub stop: StopReason,
    /// Simulated time at stop.
    pub end_time: SimTime,
    /// Events processed during this call.
    pub events: u64,
    /// Transmissions so far (cumulative, like the metrics it is read from)
    /// whose `TxDone` was never scheduled because nothing queued behind
    /// them: `events + tx_elided` is what an eager-`TxDone` engine would
    /// have processed, exactly so once the run is idle. See
    /// [`TxChurn::elided`](crate::metrics::TxChurn::elided).
    pub tx_elided: u64,
    /// What scheduling has cost the event queue so far (cumulative).
    pub lane_churn: LaneChurn,
    /// Invariant violations recorded during this call (always empty unless
    /// auditing runs in [`AuditMode::Collect`]; strict mode panics instead).
    pub violations: Vec<InvariantViolation>,
}

impl RunReport {
    /// Folds the stop reason and the auditor's verdict into one label.
    /// Violations take precedence: a run that "completed" while breaking an
    /// invariant did not meaningfully complete.
    pub fn terminated_reason(&self) -> TerminatedReason {
        if !self.violations.is_empty() {
            return TerminatedReason::InvariantViolation;
        }
        match self.stop {
            StopReason::Idle => TerminatedReason::Completed,
            StopReason::TimeLimit => TerminatedReason::TimeLimit,
            StopReason::EventCap => TerminatedReason::EventCap,
        }
    }
}

struct PortRuntime {
    /// Event-queue key `(done, seq)` of the latest transmission's `TxDone`,
    /// reserved at transmit start whether or not the event is ever
    /// scheduled. The port is transmitting exactly while this key is after
    /// [`EventQueue::current_key`]: every handler sees what it would have
    /// seen had the `TxDone` been in the heap, ties within `done` included.
    tx_done: (SimTime, u64),
    /// True while a `TxDone` under `tx_done` is pending in the event queue.
    /// It is scheduled only once a packet waits behind the one on the wire;
    /// a transmission nobody queues behind never costs an event.
    wake: bool,
    /// First of the four event-queue lanes of this port's delay class (see
    /// [`Simulator::new`]): `+ size_slot` takes the `Arrival`s of the
    /// class's transmissions of that size, `+ 2 + size_slot` their
    /// `TxDone`s.
    class_lanes: usize,
    /// The lane `tx_done` belongs on if it is ever scheduled: fixed at
    /// transmit start, when the packet's size is at hand.
    tx_done_lane: usize,
}

/// A packet's wire size — [`DATA_PKT_SIZE`](crate::packet::DATA_PKT_SIZE)
/// or [`HEADER_SIZE`](crate::packet::HEADER_SIZE), the only two there
/// are — as an index into a delay class's lanes.
#[inline]
fn size_slot(packet: &Packet) -> usize {
    usize::from(packet.is_control())
}

/// Arena slot for an agent. The two agent types instantiated per flow by
/// the workload installers live inline (no per-agent heap allocation, no
/// vtable indirection on the size/layout), so a million-flow fleet run
/// keeps its two million protocol agents in one dense `Vec`. Everything
/// else (proxies, orchestrators, test probes) stays boxed behind the same
/// `AgentId` index space.
///
/// The size skew is the point: boxing the windowed sender (the hot, common
/// variant) would reintroduce the pointer chase the arena exists to
/// remove, at the cost of a few hundred padding bytes on the rare
/// `Receiver`/`Boxed` slots.
#[allow(clippy::large_enum_variant)]
pub enum AgentSlot {
    Dctcp(Sender<Dctcp>),
    Receiver(Receiver),
    Boxed(Box<dyn Agent>),
}

impl AgentSlot {
    #[inline]
    fn as_mut(&mut self) -> &mut dyn Agent {
        match self {
            AgentSlot::Dctcp(a) => a,
            AgentSlot::Receiver(a) => a,
            AgentSlot::Boxed(b) => b.as_mut(),
        }
    }
}

/// Binding of a flow to the agent handling it at each host it touches.
/// Flows have two endpoints (three via a proxy), so the common cases live
/// inline; `spill` only allocates for exotic multi-endpoint bindings.
#[derive(Debug, Clone)]
struct FlowBinding {
    len: u8,
    slots: [(HostId, AgentId); 3],
    spill: Vec<(HostId, AgentId)>,
}

impl Default for FlowBinding {
    fn default() -> Self {
        FlowBinding {
            len: 0,
            slots: [(HostId(u32::MAX), AgentId(u32::MAX)); 3],
            spill: Vec::new(),
        }
    }
}

impl FlowBinding {
    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn push(&mut self, host: HostId, agent: AgentId) {
        if (self.len as usize) < self.slots.len() {
            self.slots[self.len as usize] = (host, agent);
            self.len += 1;
        } else {
            self.spill.push((host, agent));
        }
    }

    #[inline]
    fn iter(&self) -> impl Iterator<Item = (HostId, AgentId)> + '_ {
        self.slots[..self.len as usize]
            .iter()
            .copied()
            .chain(self.spill.iter().copied())
    }

    #[inline]
    fn agent_at(&self, host: HostId) -> Option<AgentId> {
        self.iter().find(|&(h, _)| h == host).map(|(_, a)| a)
    }
}

/// A packet-level discrete-event network simulator.
pub struct Simulator {
    /// Immutable once built, so the shards of one fleet share one copy.
    topo: Arc<Topology>,
    events: EventQueue,
    ports: Vec<PortRuntime>,
    /// Every port's output queue, over one packet-block pool.
    queues: PortQueues,
    agents: Vec<AgentSlot>,
    flows: Vec<FlowBinding>,
    rng: SplitMix64,
    metrics: SimMetrics,
    event_cap: u64,
    effects_pool: Vec<Vec<Effect>>,
    /// Occupancy traces of designated ports, indexed by `PortId`: `Some`
    /// entries collect (time, total queued bytes) samples at every enqueue
    /// and dequeue; `None` entries are untraced. Dense indexing keeps the
    /// per-sample hot path a bounds-checked load instead of a hash probe.
    traces: Vec<Option<Vec<(SimTime, u64)>>>,
    /// Fast-path flag: true once any port is traced.
    tracing: bool,
    /// Per-port "link is down" flags toggled by fault events.
    link_down: Vec<bool>,
    /// Per-port (loss, corruption) probabilities from installed fault
    /// plans; all zero without faults, in which case `fault_rng` is never
    /// consulted and runs stay bit-identical to a fault-free simulator.
    impairments: Vec<(f64, f64)>,
    /// Per-agent crash flags; indexed like `agents`, grown lazily.
    crashed: Vec<bool>,
    /// Per-agent cancelable timer slots, indexed `[agent][slot]`; grown
    /// lazily. Each entry is the handle of the slot's pending heap event —
    /// possibly stale once the timer fires, which the handle's generation
    /// tag detects on the next rearm/cancel.
    timer_slots: Vec<Vec<Option<TimerHandle>>>,
    /// Dedicated RNG stream for impairment draws, separate from the
    /// spraying/ECN stream so fault plans never perturb routing draws.
    fault_rng: SplitMix64,
    /// Invariant auditing; `None` (the default) maintains the ledger but
    /// never checks it. See [`crate::audit`].
    audit: Option<AuditConfig>,
    /// Packet ledger: every packet's creation and terminal disposition.
    /// Maintained unconditionally (a few integer increments per packet);
    /// only cross-checked when auditing is enabled.
    ledger: PacketLedger,
    /// Sim-time of each flow's most recent packet activity (injection or
    /// delivery), indexed by `FlowId`; `None` until the flow first moves a
    /// packet. Feeds the liveness watchdog.
    flow_activity: Vec<Option<SimTime>>,
    /// Flows already reported as stuck, so the watchdog flags each wedged
    /// flow once instead of at every checkpoint.
    stuck_flagged: Vec<bool>,
    /// Violations collected since the last `run` call returned
    /// ([`AuditMode::Collect`] only).
    violations: Vec<InvariantViolation>,
    /// Hybrid-fidelity engine state (`None` = full packet fidelity, the
    /// default; runs are bit-identical to a pre-fidelity simulator).
    /// Boxed so the disabled case costs one pointer-null check.
    fidelity: Option<Box<FidelityState>>,
    /// Fleet sharding: the owning shard of every node, shared across the
    /// shard simulators of one fleet run. `None` outside fleet runs.
    shard_of: Option<Arc<Vec<u32>>>,
    /// This simulator's shard id within a fleet run.
    my_shard: u32,
    /// Packets bound for nodes owned by other shards — arrival time, the
    /// port they left on, the packet — accumulated during a window and
    /// drained by the fleet driver's deterministic exchange.
    outbox: Vec<(SimTime, PortId, Packet)>,
}

impl Simulator {
    /// Creates a simulator over `topo`, a [`Topology`] or an
    /// `Arc<Topology>` shared with other simulators. All randomness
    /// (packet spraying, ECN ramp draws) derives from `seed`.
    pub fn new(topo: impl Into<Arc<Topology>>, seed: u64) -> Self {
        let topo = topo.into();
        let port_count = topo.port_count();
        // Lanes `0..port_count` are one per port; after them come four per
        // delay class — the ports of equal (latency, bandwidth), whose
        // events of one kind and packet size are scheduled in the order
        // they fire (see "Lanes" in `crate::events`).
        let mut classes = BTreeMap::new();
        let ports = (0..port_count)
            .map(|i| {
                let spec = topo.port(PortId(i as u32));
                let class = classes.len();
                let class = *classes
                    .entry((spec.link.latency, spec.link.bandwidth.0))
                    .or_insert(class);
                PortRuntime {
                    tx_done: (SimTime::ZERO, 0),
                    wake: false,
                    class_lanes: port_count + 4 * class,
                    tx_done_lane: NO_LANE,
                }
            })
            .collect();
        let queues = PortQueues::new((0..port_count).map(|i| topo.port(PortId(i as u32)).queue));
        Simulator {
            topo,
            events: EventQueue::with_lanes(1024, port_count + 4 * classes.len()),
            ports,
            queues,
            agents: Vec::new(),
            flows: Vec::new(),
            rng: SplitMix64::new(derive_seed(seed, 0xD15C_0517)),
            metrics: SimMetrics::default(),
            event_cap: 2_000_000_000,
            effects_pool: Vec::new(),
            traces: vec![None; port_count],
            tracing: false,
            link_down: vec![false; port_count],
            impairments: vec![(0.0, 0.0); port_count],
            crashed: Vec::new(),
            timer_slots: Vec::new(),
            fault_rng: SplitMix64::new(derive_seed(seed, 0xFA_0175)),
            audit: None,
            ledger: PacketLedger::default(),
            flow_activity: Vec::new(),
            stuck_flagged: Vec::new(),
            violations: Vec::new(),
            fidelity: None,
            shard_of: None,
            my_shard: 0,
            outbox: Vec::new(),
        }
    }

    /// Enables the hybrid-fidelity engine: uncontended hops are advanced
    /// analytically (see [`crate::fidelity`]); contended and pinned ports
    /// keep full packet fidelity. Call before installing fault plans so
    /// fault-prone ports are pinned hot in both orders of operations.
    pub fn set_fidelity(&mut self, _: FidelityConfig) {
        let mut state = FidelityState::new(self.ports.len());
        // Ports already carrying impairments can never be modeled as
        // delay lines; pin them hot. (Plans installed later pin theirs in
        // `install_faults`.)
        for (i, &(loss, corrupt)) in self.impairments.iter().enumerate() {
            if loss > 0.0 || corrupt > 0.0 {
                state.always_hot[i] = true;
            }
        }
        self.fidelity = Some(Box::new(state));
    }

    /// Express-path counters, if the hybrid-fidelity engine is enabled.
    pub fn fidelity_stats(&self) -> Option<ExpressStats> {
        self.fidelity.as_ref().map(|f| f.stats)
    }

    /// Pins a port permanently hot: it keeps full packet fidelity for the
    /// whole run (receiver/proxy down-ToRs, backbone links under study).
    /// No-op when the hybrid-fidelity engine is disabled.
    pub fn pin_hot_port(&mut self, port: PortId) {
        if let Some(f) = &mut self.fidelity {
            f.always_hot[port.index()] = true;
        }
    }

    /// Joins this simulator to a fleet run: `shard_of` maps every `NodeId`
    /// to its owning shard, `my_shard` is this simulator's shard. Packets
    /// crossing into foreign nodes are diverted to the outbox instead of
    /// being scheduled locally.
    pub fn set_shard(&mut self, shard_of: Arc<Vec<u32>>, my_shard: u32) {
        assert_eq!(
            shard_of.len(),
            self.topo.node_count(),
            "shard map must cover every node"
        );
        self.shard_of = Some(shard_of);
        self.my_shard = my_shard;
    }

    /// Swaps the outbox — packets destined for other shards — with `buf`
    /// (fleet exchange). The driver swaps an empty buffer in, drains what
    /// it got, and swaps back, so the outbox keeps its capacity from one
    /// window to the next.
    pub fn swap_outbox(&mut self, buf: &mut Vec<(SimTime, PortId, Packet)>) {
        std::mem::swap(&mut self.outbox, buf);
    }

    /// Accepts a packet exported by another shard: schedules its arrival
    /// at the far end of `via`, the port it left on, and accounts it in the
    /// ledger. The arrival rides `via`'s lane like a local one would: this
    /// shard never transmits on a foreign port, and the exchange delivers
    /// each port's exports in emission order.
    pub fn import_packet(&mut self, at: SimTime, via: PortId, packet: Packet) {
        let node = self.topo.port(via).to;
        debug_assert!(
            self.shard_of
                .as_ref()
                .is_some_and(|s| s[node.index()] == self.my_shard),
            "imported packet for a node this shard does not own"
        );
        self.ledger.imported += 1;
        self.events
            .schedule_on_lane(via.index(), at, Event::Arrival { node, packet });
    }

    /// Earliest pending event time (fleet window skip-ahead).
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Enables invariant auditing for subsequent `run` calls. Checks run at
    /// the end of every `run` call and, if configured, every N processed
    /// events. Auditing never perturbs the simulation (no RNG draws, no
    /// state changes): a run is bit-identical with auditing on or off.
    pub fn set_audit(&mut self, config: AuditConfig) {
        self.audit = Some(config);
    }

    /// The packet ledger (maintained whether or not auditing is enabled).
    pub fn ledger(&self) -> &PacketLedger {
        &self.ledger
    }

    /// Installs a [`FaultPlan`]: validates it against this simulator's
    /// topology and agents, activates port impairments, and schedules the
    /// link and crash transitions on the event queue. Shard crashes are
    /// left to the control plane; duplication, delay and syscall errors,
    /// which only the socket shim models, are refused.
    ///
    /// May be called multiple times; impairment probabilities on the same
    /// port accumulate. Installing an empty plan is a no-op and keeps the
    /// run bit-identical to one without fault support.
    pub fn install_faults(&mut self, plan: &FaultPlan) -> Result<(), FaultError> {
        plan.validate()?;
        let unsupported = |entry| FaultError::Unsupported {
            interpreter: "the packet simulator",
            entry,
        };
        if plan.impairments.iter().any(|imp| imp.duplicate > 0.0) {
            return Err(unsupported("packet duplication"));
        }
        if plan.impairments.iter().any(|imp| imp.delay > 0.0) {
            return Err(unsupported("held-back packets"));
        }
        if !plan.syscall_errors.is_empty() {
            return Err(unsupported("syscall errors"));
        }
        let now = self.now();
        // Bounds- and time-check everything before mutating any state, so
        // a rejected plan leaves the simulator untouched.
        for w in &plan.link_windows {
            if w.port.index() >= self.ports.len() {
                return Err(FaultError::UnknownPort {
                    port: w.port,
                    ports: self.ports.len(),
                });
            }
            if w.down_at < now {
                return Err(FaultError::InThePast { at: w.down_at, now });
            }
        }
        for imp in &plan.impairments {
            if imp.port.index() >= self.ports.len() {
                return Err(FaultError::UnknownPort {
                    port: imp.port,
                    ports: self.ports.len(),
                });
            }
            let (loss, corrupt) = self.impairments[imp.port.index()];
            let total = loss + imp.loss + corrupt + imp.corrupt;
            if total > 1.0 {
                return Err(FaultError::CombinedProbabilityTooHigh {
                    port: imp.port,
                    total,
                });
            }
        }
        for c in &plan.crashes {
            if c.agent.index() >= self.agents.len() {
                return Err(FaultError::UnknownAgent {
                    agent: c.agent,
                    agents: self.agents.len(),
                });
            }
            if c.at < now {
                return Err(FaultError::InThePast { at: c.at, now });
            }
        }
        for w in &plan.link_windows {
            self.events.schedule(
                w.down_at,
                Event::Fault(FaultEvent::LinkDown { port: w.port }),
            );
            if let Some(up) = w.up_at {
                self.events
                    .schedule(up, Event::Fault(FaultEvent::LinkUp { port: w.port }));
            }
        }
        for imp in &plan.impairments {
            let slot = &mut self.impairments[imp.port.index()];
            slot.0 += imp.loss;
            slot.1 += imp.corrupt;
        }
        for c in &plan.crashes {
            self.events.schedule(
                c.at,
                Event::Fault(FaultEvent::AgentCrash { agent: c.agent }),
            );
            if let Some(r) = c.restore_at {
                self.events
                    .schedule(r, Event::Fault(FaultEvent::AgentRestore { agent: c.agent }));
            }
        }
        if let Some(f) = &mut self.fidelity {
            // Fault-prone ports can go down or impair mid-flight; the
            // express path must never claim to have traversed them, so pin
            // them at full packet fidelity for the whole run.
            for w in &plan.link_windows {
                f.always_hot[w.port.index()] = true;
            }
            for imp in &plan.impairments {
                f.always_hot[imp.port.index()] = true;
            }
        }
        Ok(())
    }

    /// True while `agent` is crashed by an installed fault plan.
    pub fn is_agent_crashed(&self, agent: AgentId) -> bool {
        self.crashed.get(agent.index()).copied().unwrap_or(false)
    }

    /// The topology this simulator runs over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// The event queue, for in-crate structural tests.
    #[cfg(test)]
    pub(crate) fn event_queue(&self) -> &EventQueue {
        &self.events
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// The port queues' high-water marks: the most packets queued at
    /// once, and the blocks their pool holds.
    pub fn queue_peak(&self) -> QueuePeak {
        self.queues.peak()
    }

    /// Sets the safety cap on processed events per `run` call.
    pub fn set_event_cap(&mut self, cap: u64) {
        self.event_cap = cap;
    }

    /// Starts recording an occupancy trace of `port`: one `(time, queued
    /// bytes)` sample per enqueue and per dequeue.
    pub fn trace_port(&mut self, port: PortId) {
        self.traces[port.index()].get_or_insert_with(Vec::new);
        self.tracing = true;
    }

    /// The recorded occupancy trace of a port (empty unless
    /// [`Simulator::trace_port`] was called before running).
    pub fn port_trace(&self, port: PortId) -> &[(SimTime, u64)] {
        self.traces[port.index()].as_deref().unwrap_or(&[])
    }

    /// Number of registered agents (agent ids are `0..agent_count`).
    pub fn agent_count(&self) -> usize {
        self.agents.len()
    }

    /// Registers a boxed agent, returning its id.
    pub fn add_agent(&mut self, agent: Box<dyn Agent>) -> AgentId {
        let id = AgentId(self.agents.len() as u32);
        self.agents.push(AgentSlot::Boxed(agent));
        id
    }

    /// Registers a windowed sender inline in the agent arena (no per-agent
    /// box), returning its id. Ids share one space with boxed agents.
    pub fn add_dctcp_sender(&mut self, agent: Sender<Dctcp>) -> AgentId {
        let id = AgentId(self.agents.len() as u32);
        self.agents.push(AgentSlot::Dctcp(agent));
        id
    }

    /// Registers a receiver inline in the agent arena, returning its id.
    pub fn add_receiver(&mut self, agent: Receiver) -> AgentId {
        let id = AgentId(self.agents.len() as u32);
        self.agents.push(AgentSlot::Receiver(agent));
        id
    }

    /// Allocates a new flow id.
    pub fn new_flow(&mut self) -> FlowId {
        let id = FlowId(self.flows.len() as u32);
        self.flows.push(FlowBinding::default());
        id
    }

    /// Binds packets of `flow` arriving at `host` to `agent`.
    ///
    /// # Panics
    /// Panics if the (flow, host) pair is already bound.
    pub fn bind(&mut self, flow: FlowId, host: HostId, agent: AgentId) {
        let binding = &mut self.flows[flow.index()];
        assert!(
            binding.iter().all(|(h, _)| h != host),
            "{flow} already bound at {host}"
        );
        binding.push(host, agent);
    }

    /// Schedules an agent's `on_start` at `at`.
    pub fn schedule_start(&mut self, at: SimTime, agent: AgentId) {
        self.events.schedule(at, Event::FlowStart { agent });
    }

    /// Runs until idle, the optional time limit, or the event cap.
    pub fn run(&mut self, limit: Option<SimTime>) -> RunReport {
        let mut processed = 0u64;
        loop {
            if processed >= self.event_cap {
                return self.report(StopReason::EventCap, processed);
            }
            if let (Some(limit), Some(next)) = (limit, self.events.peek_time()) {
                if next > limit {
                    return self.report(StopReason::TimeLimit, processed);
                }
            }
            let Some((now, event)) = self.events.pop() else {
                return self.report(StopReason::Idle, processed);
            };
            processed += 1;
            self.metrics.events_processed += 1;
            match event {
                Event::Arrival { node, packet } => self.on_arrival(now, node, packet),
                Event::TxDone { port } => {
                    self.ports[port.index()].wake = false;
                    self.metrics.tx_churn.fired += 1;
                    self.try_start_tx(now, port);
                }
                Event::Timer { agent, kind } => {
                    self.metrics.timer_churn.fired += 1;
                    self.dispatch(now, agent, |a, ctx| a.on_timer(kind, ctx));
                }
                Event::FlowStart { agent } => {
                    self.dispatch(now, agent, |a, ctx| a.on_start(ctx));
                }
                Event::Inject { port, packet } => {
                    self.enqueue_on_port(now, port, packet);
                }
                Event::Fault(fault) => self.apply_fault(now, fault),
            }
            if let Some(every) = self.audit.and_then(|a| a.check_every_events) {
                if processed.is_multiple_of(every) {
                    self.run_audit_checks(false);
                }
            }
        }
    }

    fn apply_fault(&mut self, now: SimTime, fault: FaultEvent) {
        match fault {
            FaultEvent::LinkDown { port } => {
                self.link_down[port.index()] = true;
            }
            FaultEvent::LinkUp { port } => {
                self.link_down[port.index()] = false;
                // Resume draining whatever survived the outage in-queue.
                self.try_start_tx(now, port);
            }
            FaultEvent::AgentCrash { agent } => {
                if self.crashed.len() < self.agents.len() {
                    self.crashed.resize(self.agents.len(), false);
                }
                self.crashed[agent.index()] = true;
                // `dispatch` skips crashed agents, but the crash handler
                // itself must still run (to drop soft state and cancel
                // timer slots), so build its context by hand.
                let mut effects = self.effects_pool.pop().unwrap_or_default();
                debug_assert!(effects.is_empty());
                {
                    let mut ctx = Ctx {
                        now,
                        self_id: agent,
                        effects: &mut effects,
                    };
                    self.agents[agent.index()].as_mut().on_crash(&mut ctx);
                }
                self.apply_effects(now, &mut effects);
                effects.clear();
                self.effects_pool.push(effects);
            }
            FaultEvent::AgentRestore { agent } => {
                if let Some(flag) = self.crashed.get_mut(agent.index()) {
                    *flag = false;
                }
                // Flow starts and timer fires addressed to the agent while
                // it was down were consumed without a handler; give it a
                // chance to restart its clocks.
                self.dispatch(now, agent, |a, ctx| a.on_restore(ctx));
            }
        }
    }

    fn report(&mut self, stop: StopReason, events: u64) -> RunReport {
        self.metrics.lane_churn = self.events.lane_churn();
        if self.audit.is_some() {
            self.run_audit_checks(stop == StopReason::Idle);
        }
        RunReport {
            stop,
            end_time: self.now(),
            events,
            tx_elided: self.metrics.tx_churn.elided(),
            lane_churn: self.metrics.lane_churn,
            violations: std::mem::take(&mut self.violations),
        }
    }

    /// Records the flow's most recent packet activity (for the liveness
    /// watchdog).
    #[inline]
    fn note_flow_activity(&mut self, now: SimTime, flow: FlowId) {
        if self.flow_activity.len() <= flow.index() {
            self.flow_activity.resize(flow.index() + 1, None);
        }
        self.flow_activity[flow.index()] = Some(now);
    }

    /// Runs every invariant check and routes violations per the audit mode:
    /// strict panics with the structured report, collect stores them for
    /// the next [`RunReport`]. `idle` marks an end-of-run check with an
    /// empty event queue, where an incomplete flow is stuck by definition.
    fn run_audit_checks(&mut self, idle: bool) {
        let Some(config) = self.audit else {
            return;
        };
        let now = self.now();
        let census = self.events.census();
        let mut found: Vec<InvariantViolation> = Vec::new();

        // Packet conservation: every packet created here or imported from
        // another shard is either terminally disposed of, demonstrably in
        // flight (queued on a port, or riding a pending Arrival/Inject
        // event), or exported to another shard. Outside fleet runs the
        // exported/imported terms are zero.
        let in_queues = self.queues.queued();
        if self.ledger.created + self.ledger.imported
            != self.ledger.terminal() + in_queues + census.packets + self.ledger.exported
        {
            found.push(InvariantViolation::PacketConservation {
                at: now,
                ledger: self.ledger,
                in_queues,
                in_events: census.packets,
            });
        }

        // Queue sanity: capacity bounds per port, then the accounting of
        // every port and of the pool their packets share.
        for i in 0..self.ports.len() {
            let port = PortId(i as u32);
            let q = &self.queues;
            let cfg = q.config(port);
            if q.data_bytes(port) > cfg.capacity_bytes
                || q.ctrl_bytes(port) > cfg.ctrl_capacity_bytes
            {
                found.push(InvariantViolation::QueueOverCapacity {
                    at: now,
                    port,
                    data_bytes: q.data_bytes(port),
                    data_capacity: cfg.capacity_bytes,
                    ctrl_bytes: q.ctrl_bytes(port),
                    ctrl_capacity: cfg.ctrl_capacity_bytes,
                });
            }
        }
        for (port, detail) in self.queues.check_invariants() {
            found.push(InvariantViolation::QueueAccounting {
                at: now,
                port,
                detail,
            });
        }

        // Timer accounting, extending the PR 3 churn counters: every armed
        // timer fired, was canceled, or is still pending — and the
        // slot/generation protocol never let a stale timer pop through.
        let churn = self.metrics.timer_churn;
        if churn.armed != churn.fired + churn.canceled + census.timers || churn.discarded_stale != 0
        {
            found.push(InvariantViolation::TimerAccounting {
                at: now,
                churn,
                pending: census.timers,
            });
        }

        // `TxDone` accounting: every scheduled wake-up fired or is pending,
        // the ports expecting one are exactly the pending ones, and no
        // link-up port sits on packets without transmitting *and* having
        // its wake-up scheduled (a lost wake-up strands the queue forever).
        let tx = self.metrics.tx_churn;
        let key = self.events.current_key();
        let waking = self.ports.iter().filter(|rt| rt.wake).count() as u64;
        let stranded = self.ports.iter().enumerate().position(|(i, rt)| {
            let draining = rt.wake && rt.tx_done > key;
            !self.link_down[i] && !self.queues.is_empty(PortId(i as u32)) && !draining
        });
        if tx.scheduled != tx.fired + census.tx_done
            || waking != census.tx_done
            || stranded.is_some()
        {
            found.push(InvariantViolation::TxAccounting {
                at: now,
                churn: tx,
                pending: census.tx_done,
                waking,
                stranded: stranded.map(|i| PortId(i as u32)),
            });
        }

        // The queue itself, not only what is in it: lanes take offers from
        // many ports, and a lane that is unsorted or lost its heap entry
        // pops events out of order with every ledger above still balanced.
        if let Err(detail) = self.events.check_invariants() {
            found.push(InvariantViolation::EventQueueAccounting { at: now, detail });
        }

        // Flow liveness watchdog: a bound, started, uncrashed, incomplete
        // flow that has been silent past the horizon — or any such flow at
        // all once the simulator is idle, since no pending event can ever
        // complete it.
        if let Some(horizon) = config.liveness_horizon {
            if self.stuck_flagged.len() < self.flows.len() {
                self.stuck_flagged.resize(self.flows.len(), false);
            }
            for i in 0..self.flows.len() {
                let flow = FlowId(i as u32);
                if self.stuck_flagged[i]
                    || self.flows[i].is_empty()
                    || self.metrics.completion(flow).is_some()
                {
                    continue;
                }
                if self.flows[i].iter().any(|(_, a)| self.is_agent_crashed(a)) {
                    continue;
                }
                let Some(last) = self.flow_activity.get(i).copied().flatten() else {
                    // Never moved a packet: only damning once the queue is
                    // empty (its start event may simply not have fired yet).
                    if idle {
                        self.stuck_flagged[i] = true;
                        found.push(InvariantViolation::StuckFlow {
                            at: now,
                            flow,
                            last_activity: SimTime::ZERO,
                            idle,
                        });
                    }
                    continue;
                };
                if idle || now >= last + horizon {
                    self.stuck_flagged[i] = true;
                    found.push(InvariantViolation::StuckFlow {
                        at: now,
                        flow,
                        last_activity: last,
                        idle,
                    });
                }
            }
        }

        if found.is_empty() {
            return;
        }
        match config.mode {
            AuditMode::Strict => {
                let mut msg = format!(
                    "invariant audit failed at {now} ({} violation{}):",
                    found.len(),
                    if found.len() == 1 { "" } else { "s" }
                );
                for v in &found {
                    msg.push_str("\n  - ");
                    msg.push_str(&v.to_string());
                }
                panic!("{msg}");
            }
            AuditMode::Collect => self.violations.extend(found),
        }
    }

    /// Handles a packet arriving at a node: switches forward (with
    /// spraying), hosts dispatch to the bound agent.
    fn on_arrival(&mut self, now: SimTime, node: NodeId, packet: Packet) {
        match self.topo.role(node) {
            NodeRole::Host(host) => {
                debug_assert_eq!(
                    host, packet.dst,
                    "packet for {} delivered to {host}",
                    packet.dst
                );
                let agent = self.agent_for(packet.flow, host);
                if self.is_agent_crashed(agent) {
                    // The host process is down: the packet is destroyed on
                    // arrival instead of reaching a handler.
                    self.metrics.count(Counter::PacketsLostToFault, 1);
                    self.ledger.lost_to_crash += 1;
                    return;
                }
                self.ledger.delivered += 1;
                self.note_flow_activity(now, packet.flow);
                self.dispatch(now, agent, |a, ctx| a.on_packet(packet, ctx));
            }
            _ => {
                let cands = self.topo.candidates(node, packet.dst);
                debug_assert!(
                    !cands.is_empty(),
                    "switch {node} has no route to {}",
                    packet.dst
                );
                let pick = if cands.len() == 1 {
                    0
                } else {
                    self.rng.next_bounded(cands.len() as u64) as usize
                };
                let port = cands[pick];
                self.enqueue_on_port(now, port, packet);
            }
        }
    }

    fn agent_for(&self, flow: FlowId, host: HostId) -> AgentId {
        self.flows[flow.index()]
            .agent_at(host)
            .unwrap_or_else(|| panic!("{flow} has no agent bound at {host}"))
    }

    fn enqueue_on_port(&mut self, now: SimTime, port: PortId, mut packet: Packet) {
        // Any packet offered to a port counts as forward progress for its
        // flow — an RTO retransmission into a dead link is activity, so the
        // liveness watchdog only flags flows that stopped *trying*.
        self.note_flow_activity(now, packet.flow);
        if self.fidelity.is_some() && self.try_express(now, port, packet) {
            return;
        }
        if self.link_down[port.index()] {
            // A down link blackholes everything offered to it; packets
            // already queued stay put and drain after link-up.
            self.metrics.count(Counter::PacketsLostToFault, 1);
            self.ledger.lost_to_fault += 1;
            return;
        }
        let (loss, corrupt) = self.impairments[port.index()];
        if loss > 0.0 || corrupt > 0.0 {
            let draw = self.fault_rng.next_f64();
            if draw < loss {
                self.metrics.count(Counter::PacketsLostToFault, 1);
                self.ledger.lost_to_fault += 1;
                return;
            }
            if draw < loss + corrupt {
                if packet.kind == PacketKind::Data && !packet.trimmed() {
                    // Corrupted payload: deliver the header only, like a
                    // trimming switch, so the receiver can NACK it.
                    packet.trim();
                    self.ledger.trimmed += 1;
                } else {
                    // Control packets have nothing to trim: destroyed.
                    self.metrics.count(Counter::PacketsLostToFault, 1);
                    self.ledger.lost_to_fault += 1;
                    return;
                }
            }
        }
        let outcome = self.queues.enqueue(port, packet, &mut self.rng);
        match outcome {
            EnqueueOutcome::Trimmed => self.ledger.trimmed += 1,
            EnqueueOutcome::Dropped => self.ledger.dropped_queue += 1,
            EnqueueOutcome::Queued => {}
        }
        self.sample_trace(now, port);
        if outcome != EnqueueOutcome::Dropped {
            self.try_start_tx(now, port);
        }
        if self.fidelity.is_some() {
            self.note_congestion(now, port, outcome, packet);
        }
    }

    /// Hybrid-fidelity hysteresis: a trim, a drop, or queue occupancy past
    /// the ECN low watermark marks the port hot for the dwell window. On a
    /// cold→hot transition the flow's sender (if bound locally) is told via
    /// [`Note::FidelityShift`] so protocols can react to the regime change.
    fn note_congestion(
        &mut self,
        now: SimTime,
        port: PortId,
        outcome: EnqueueOutcome,
        packet: Packet,
    ) {
        let congested = outcome != EnqueueOutcome::Queued || {
            self.queues.data_bytes(port) >= self.queues.config(port).mark_low_bytes
        };
        if !congested {
            return;
        }
        let Some(fid) = &mut self.fidelity else {
            return;
        };
        if fid.mark_hot(port.index(), now) {
            if let Some(agent) = self
                .flows
                .get(packet.flow.index())
                .and_then(|b| b.agent_at(packet.src))
            {
                self.dispatch(now, agent, |a, ctx| a.on_note(Note::FidelityShift, ctx));
            }
        }
    }

    /// True when the port can be modeled as a pure delay line: empty,
    /// healthy, not pinned, outside the congestion dwell window, and with a
    /// virtual backlog below the configured ceiling.
    ///
    /// A transmitting port with an empty queue is still cold: `free_at`
    /// tracks the in-flight packet's TxDone (`try_start_tx` keeps it
    /// current), so an express departure `max(t, free_at) + ser` lands
    /// exactly where FIFO store-and-forward would put it. This keeps
    /// steady full-rate streams on uncontended paths — back-to-back
    /// packets with no standing queue — on the express path.
    #[inline]
    fn port_is_cold(&self, fid: &FidelityState, port: PortId, t: SimTime) -> bool {
        let i = port.index();
        if fid.always_hot[i] || fid.hot_until[i] > t.0 || self.link_down[i] {
            return false;
        }
        self.queues.is_empty(port) && fid.free_at[i].saturating_sub(t.0) <= HOT_BACKLOG.0
    }

    /// Express cut-through: if `first` is cold, advance the packet across
    /// consecutive cold hops analytically and schedule exactly one event —
    /// the arrival at its destination host, an `Inject` on the first hot
    /// port, or an export to the owning shard. Returns false (taking no
    /// action) when the first port is hot.
    fn try_express(&mut self, now: SimTime, first: PortId, packet: Packet) -> bool {
        let mut fid = self.fidelity.take().expect("caller checked fidelity");
        let took = self.express_walk(&mut fid, now, first, packet);
        self.fidelity = Some(fid);
        took
    }

    fn express_walk(
        &mut self,
        fid: &mut FidelityState,
        now: SimTime,
        first: PortId,
        packet: Packet,
    ) -> bool {
        if !self.port_is_cold(fid, first, now) {
            return false;
        }
        let mut t = now;
        let mut port = first;
        let mut hops = 0u64;
        loop {
            // One cold hop in closed form: FIFO store-and-forward timing
            // against the port's virtual serialization horizon. `free_at`
            // only moves forward, so whatever the walk schedules at the far
            // end of this hop joins the port's lane (`i`) in order.
            let i = port.index();
            let spec = self.topo.port(port);
            let ser = spec.link.bandwidth.serialize_time(packet.size());
            let latency = spec.link.latency;
            let node = spec.to;
            let depart = SimTime(t.0.max(fid.free_at[i])) + ser;
            fid.free_at[i] = depart.0;
            t = depart + latency;
            hops += 1;
            if let Some(of) = &self.shard_of {
                if of[node.index()] != self.my_shard {
                    // Crossing the shard boundary: hand the packet to the
                    // owning shard at its arrival time.
                    self.outbox.push((t, port, packet));
                    self.ledger.exported += 1;
                    break;
                }
            }
            match self.topo.role(node) {
                NodeRole::Host(host) => {
                    debug_assert_eq!(
                        host, packet.dst,
                        "express walk for {} reached {host}",
                        packet.dst
                    );
                    self.events
                        .schedule_on_lane(i, t, Event::Arrival { node, packet });
                    break;
                }
                _ => {
                    // The spray draw happens here, exactly as the packet-
                    // level path would draw it at this switch.
                    let cands = self.topo.candidates(node, packet.dst);
                    debug_assert!(
                        !cands.is_empty(),
                        "switch {node} has no route to {}",
                        packet.dst
                    );
                    let pick = if cands.len() == 1 {
                        0
                    } else {
                        self.rng.next_bounded(cands.len() as u64) as usize
                    };
                    let next = cands[pick];
                    if t.0 - now.0 > MAX_LOOKAHEAD.0 {
                        // The walk's virtual clock has run too far ahead of
                        // the wall clock (a long-haul hop, typically) for
                        // current port state — or a `free_at` reservation —
                        // to mean anything at `t`. Defer: the Inject fires
                        // at `t` and re-tries the express path with fresh
                        // state.
                        fid.stats.deferrals += 1;
                        self.events
                            .schedule_on_lane(i, t, Event::Inject { port: next, packet });
                        break;
                    }
                    if self.port_is_cold(fid, next, t) {
                        port = next;
                    } else {
                        // Hot port ahead: fall back to packet fidelity. The
                        // Inject re-enters `enqueue_on_port` directly, so
                        // the spray draw just made is not repeated.
                        fid.stats.fallbacks += 1;
                        self.events
                            .schedule_on_lane(i, t, Event::Inject { port: next, packet });
                        break;
                    }
                }
            }
        }
        fid.stats.packets += 1;
        fid.stats.hops += hops;
        // Each analytic hop stands for one TxDone and one Arrival of an
        // every-hop-scheduled run; the walk then schedules a single real
        // event.
        fid.stats.saved_events += 2 * hops - 1;
        self.ledger.express += 1;
        true
    }

    #[inline]
    fn sample_trace(&mut self, now: SimTime, port: PortId) {
        if !self.tracing {
            return;
        }
        if let Some(trace) = &mut self.traces[port.index()] {
            let bytes = self.queues.total_bytes(port);
            trace.push((now, bytes));
        }
    }

    /// Starts transmitting the next queued packet if the port is idle:
    /// store-and-forward — the packet is delivered to the next node after
    /// serialization plus propagation. If the port is (or now is)
    /// transmitting with packets waiting, makes sure its `TxDone` is
    /// scheduled to come back for them.
    fn try_start_tx(&mut self, now: SimTime, port: PortId) {
        if self.link_down[port.index()] {
            return;
        }
        let rt = &mut self.ports[port.index()];
        if rt.tx_done <= self.events.current_key() {
            let Some(pkt) = self.queues.dequeue(port) else {
                return;
            };
            let spec = self.topo.port(port);
            let ser = spec.link.bandwidth.serialize_time(pkt.size());
            // With hybrid fidelity the transmitter may owe virtual backlog
            // from an earlier express walk; serialize behind it so per-port
            // FIFO ordering survives the fidelity transition. Disabled,
            // `start` is `now` and the schedule is bit-identical to the
            // pre-fidelity engine. `free_at` stays separate from `tx_done`:
            // an express reservation has no sequence number to compare
            // against the current key, and must not read as "transmitting"
            // — a port whose only backlog is virtual starts the next real
            // packet at once, timed behind that backlog.
            let start = match &self.fidelity {
                Some(f) => SimTime(now.0.max(f.free_at[port.index()])),
                None => now,
            };
            let done = start + ser;
            let arrive = done + spec.link.latency;
            let to = spec.to;
            // The `TxDone`'s place in the global order is fixed here, where
            // it used to be scheduled, so every other event keeps its key.
            rt.tx_done = (done, self.events.reserve_seq());
            let arrival_lane = rt.class_lanes + size_slot(&pkt);
            rt.tx_done_lane = arrival_lane + 2;
            self.metrics.tx_churn.started += 1;
            if let Some(f) = &mut self.fidelity {
                f.free_at[port.index()] = done.0;
            }
            let exported = match &self.shard_of {
                Some(of) if of[to.index()] != self.my_shard => {
                    self.outbox.push((arrive, port, pkt));
                    self.ledger.exported += 1;
                    true
                }
                _ => false,
            };
            if !exported {
                // Class lane first: at full fidelity `start` is `now`, so
                // `arrive` never runs backwards across the whole class and
                // this is an append behind its other in-flight packets.
                // Behind an express reservation `start` can be ahead of
                // `now` and of what other ports of the class offer next;
                // the queue then refuses whichever offer would unsort the
                // class lane and it lands on the port's own, where `arrive`
                // never runs backwards (each `start` is at or after the
                // port's previous `done`, latency is constant).
                self.events.schedule_on_lanes(
                    [arrival_lane, port.index()],
                    arrive,
                    Event::Arrival {
                        node: to,
                        packet: pkt,
                    },
                );
            }
            self.sample_trace(now, port);
        }
        let rt = &mut self.ports[port.index()];
        if !rt.wake && !self.queues.is_empty(port) {
            rt.wake = true;
            self.metrics.tx_churn.scheduled += 1;
            let (done, seq) = rt.tx_done;
            // On its class's lane if it still fits there: a key reserved
            // before the lane's tail was, for the same instant or an
            // earlier one, takes the plain heap path.
            self.events
                .schedule_reserved(rt.tx_done_lane, done, seq, Event::TxDone { port });
        }
    }

    /// Invokes an agent handler and applies the effects it produced.
    fn dispatch<F>(&mut self, now: SimTime, agent: AgentId, f: F)
    where
        F: FnOnce(&mut dyn Agent, &mut Ctx),
    {
        if self.is_agent_crashed(agent) {
            // Crashed agents run no handlers: timers, flow starts and
            // notifies addressed to them silently die.
            return;
        }
        let mut effects = self.effects_pool.pop().unwrap_or_default();
        debug_assert!(effects.is_empty());
        {
            let mut ctx = Ctx {
                now,
                self_id: agent,
                effects: &mut effects,
            };
            f(self.agents[agent.index()].as_mut(), &mut ctx);
        }
        self.apply_effects(now, &mut effects);
        effects.clear();
        self.effects_pool.push(effects);
    }

    /// The `[agent][slot]` cancelable-timer entry, growing both levels
    /// lazily. A free function over the field (not `&mut self`) so callers
    /// can hold the entry while also borrowing `self.events`.
    fn slot_entry(
        timer_slots: &mut Vec<Vec<Option<TimerHandle>>>,
        agent: AgentId,
        slot: u32,
    ) -> &mut Option<TimerHandle> {
        if timer_slots.len() <= agent.index() {
            timer_slots.resize_with(agent.index() + 1, Vec::new);
        }
        let slots = &mut timer_slots[agent.index()];
        if slots.len() <= slot as usize {
            slots.resize(slot as usize + 1, None);
        }
        &mut slots[slot as usize]
    }

    fn apply_effects(&mut self, now: SimTime, effects: &mut Vec<Effect>) {
        // Effects can nest (a Notify handler emits more effects), so move
        // the buffer out while iterating; nested dispatches use their own
        // buffer from the pool. The buffer (and its capacity) is handed
        // back to `effects` afterwards so the pool never loses warm
        // allocations to this drain.
        let mut drained: Vec<Effect> = std::mem::take(effects);
        for effect in drained.drain(..) {
            match effect {
                Effect::Send {
                    from,
                    packet,
                    delay,
                } => {
                    assert_ne!(packet.dst, from, "packet addressed to its own host");
                    self.ledger.created += 1;
                    let node = self.topo.host_node(from);
                    let egress = self.topo.ports_of(node);
                    assert_eq!(egress.len(), 1, "host {from} must have exactly one NIC");
                    let port = egress[0];
                    if delay == SimDuration::ZERO {
                        self.enqueue_on_port(now, port, packet);
                    } else {
                        // A host's processing delay is a constant more
                        // often than not, so its delayed sends fire in the
                        // order they were issued: the NIC's own lane, which
                        // its arrivals leave to their class lane.
                        self.events.schedule_on_lane(
                            port.index(),
                            now + delay,
                            Event::Inject { port, packet },
                        );
                    }
                }
                Effect::Timer { agent, at, kind } => {
                    self.events.schedule(at, Event::Timer { agent, kind });
                    self.metrics.timer_churn.armed += 1;
                }
                Effect::RearmTimer {
                    agent,
                    slot,
                    at,
                    kind,
                } => {
                    let entry = Self::slot_entry(&mut self.timer_slots, agent, slot);
                    // Move the live heap entry in place when the slot still
                    // holds one; otherwise (first arm, or the timer already
                    // fired) insert fresh and remember the new handle.
                    let moved = match *entry {
                        Some(h) if self.events.reschedule(h, at) => {
                            *self.events.event_mut(h).expect("live: just rescheduled") =
                                Event::Timer { agent, kind };
                            true
                        }
                        _ => false,
                    };
                    if moved {
                        self.metrics.timer_churn.rescheduled += 1;
                    } else {
                        *entry = Some(
                            self.events
                                .schedule_cancelable(at, Event::Timer { agent, kind }),
                        );
                        self.metrics.timer_churn.armed += 1;
                    }
                }
                Effect::CancelTimer { agent, slot } => {
                    let entry = Self::slot_entry(&mut self.timer_slots, agent, slot);
                    if let Some(h) = entry.take() {
                        if self.events.cancel(h).is_some() {
                            self.metrics.timer_churn.canceled += 1;
                        }
                    }
                }
                Effect::Notify { agent, note } => {
                    self.dispatch(now, agent, |a, ctx| a.on_note(note, ctx));
                }
                Effect::FlowDone { flow } => {
                    self.metrics.flow_done(flow, now);
                }
                Effect::Count { counter, amount } => {
                    self.metrics.count(counter, amount);
                }
                Effect::FailoverLatency { flow, latency } => {
                    self.metrics.failover_latency(flow, latency);
                }
            }
        }
        *effects = drained;
    }
}

#[cfg(test)]
mod tests {
    use crate::flows::{install_flow, FlowSpec};
    use crate::packet::HostId;
    use crate::sim::Simulator;
    use crate::time::{SimDuration, SimTime};
    use crate::topology::{two_dc_leaf_spine, TwoDcParams};

    #[test]
    fn port_trace_records_occupancy() {
        let topo = two_dc_leaf_spine(&TwoDcParams::small_test());
        let mut sim = Simulator::new(topo, 3);
        let dst = sim.topology().hosts_in_dc(1)[0];
        let down_tor = sim.topology().down_tor_port(dst);
        sim.trace_port(down_tor);
        install_flow(
            &mut sim,
            FlowSpec::new(HostId(0), dst, 2_000_000),
            SimTime::ZERO,
        );
        sim.run(Some(SimTime::ZERO + SimDuration::from_secs(30)));
        let trace = sim.port_trace(down_tor);
        assert!(!trace.is_empty(), "traced port saw traffic");
        // Timestamps are non-decreasing and occupancy returns to zero.
        assert!(trace.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(trace.last().unwrap().1, 0, "queue drains by completion");
        assert!(trace.iter().any(|&(_, b)| b > 0), "queue actually built");
    }

    #[test]
    fn untraced_ports_record_nothing() {
        let topo = two_dc_leaf_spine(&TwoDcParams::small_test());
        let mut sim = Simulator::new(topo, 3);
        let dst = sim.topology().hosts_in_dc(1)[0];
        let down_tor = sim.topology().down_tor_port(dst);
        install_flow(
            &mut sim,
            FlowSpec::new(HostId(0), dst, 100_000),
            SimTime::ZERO,
        );
        sim.run(None);
        assert!(sim.port_trace(down_tor).is_empty());
    }
}

#[cfg(test)]
mod dispatch_tests {
    use crate::agent::{Agent, Ctx, Note};
    use crate::events::TimerKind;
    use crate::flows::{install_flow, FlowSpec};
    use crate::packet::{AgentId, HostId, Packet};
    use crate::sim::Simulator;
    use crate::time::{SimDuration, SimTime};
    use crate::topology::{two_dc_leaf_spine, TwoDcParams};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// An agent that records when its callbacks fire.
    struct Probe {
        started_at: Arc<AtomicU64>,
        timer_at: Arc<AtomicU64>,
        notified: Arc<AtomicU64>,
        peer: Option<AgentId>,
    }

    impl Agent for Probe {
        fn on_start(&mut self, ctx: &mut Ctx) {
            // ordering: Relaxed — the simulator is single-threaded; atomics
            // here only give the test probes shared mutability.
            self.started_at.store(ctx.now.0, Ordering::Relaxed);
            ctx.arm_timer(
                ctx.now + SimDuration::from_micros(5),
                TimerKind::Custom { tag: 7 },
            );
            if let Some(peer) = self.peer {
                ctx.notify(peer, Note::PacketsGranted { count: 3 });
            }
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx) {}
        fn on_timer(&mut self, kind: TimerKind, ctx: &mut Ctx) {
            if matches!(kind, TimerKind::Custom { tag: 7, .. }) {
                // ordering: Relaxed — single-threaded simulator, see on_start.
                self.timer_at.store(ctx.now.0, Ordering::Relaxed);
            }
        }
        fn on_note(&mut self, note: Note, _ctx: &mut Ctx) {
            if let Note::PacketsGranted { count } = note {
                // ordering: Relaxed — single-threaded simulator, see on_start.
                self.notified.fetch_add(count, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn timers_fire_at_the_armed_time() {
        let mut sim = Simulator::new(two_dc_leaf_spine(&TwoDcParams::small_test()), 1);
        let started = Arc::new(AtomicU64::new(0));
        let fired = Arc::new(AtomicU64::new(0));
        let agent = sim.add_agent(Box::new(Probe {
            started_at: started.clone(),
            timer_at: fired.clone(),
            notified: Arc::new(AtomicU64::new(0)),
            peer: None,
        }));
        let start = SimTime::ZERO + SimDuration::from_micros(3);
        sim.schedule_start(start, agent);
        sim.run(None);
        // ordering: Relaxed — single-threaded readback after the run.
        assert_eq!(started.load(Ordering::Relaxed), start.0);
        assert_eq!(
            // ordering: Relaxed — single-threaded readback after the run.
            fired.load(Ordering::Relaxed),
            (start + SimDuration::from_micros(5)).0
        );
    }

    #[test]
    fn notify_is_delivered_at_the_same_timestamp() {
        let mut sim = Simulator::new(two_dc_leaf_spine(&TwoDcParams::small_test()), 1);
        let notified = Arc::new(AtomicU64::new(0));
        let peer = sim.add_agent(Box::new(Probe {
            started_at: Arc::new(AtomicU64::new(0)),
            timer_at: Arc::new(AtomicU64::new(0)),
            notified: notified.clone(),
            peer: None,
        }));
        let sender = sim.add_agent(Box::new(Probe {
            started_at: Arc::new(AtomicU64::new(0)),
            timer_at: Arc::new(AtomicU64::new(0)),
            notified: Arc::new(AtomicU64::new(0)),
            peer: Some(peer),
        }));
        sim.schedule_start(SimTime::ZERO, sender);
        sim.run(None);
        // ordering: Relaxed — single-threaded readback after the run.
        assert_eq!(notified.load(Ordering::Relaxed), 3);
    }

    /// An agent that re-arms one timer slot on every firing for a fixed
    /// number of rounds, then cancels a second, never-firing slot.
    struct Rearmer {
        rounds_left: u64,
        fired: Arc<AtomicU64>,
    }

    impl Agent for Rearmer {
        fn on_start(&mut self, ctx: &mut Ctx) {
            // Slot 1 is armed once and canceled before it can ever fire.
            ctx.rearm_timer(1, ctx.now + SimDuration::from_secs(1), TimerKind::Rto);
            ctx.rearm_timer(
                0,
                ctx.now + SimDuration::from_micros(1),
                TimerKind::Custom { tag: 1 },
            );
            // Re-arm slot 0 many times within one handler: only the last
            // deadline may fire.
            for k in 2..100u64 {
                ctx.rearm_timer(
                    0,
                    ctx.now + SimDuration::from_micros(k),
                    TimerKind::Custom { tag: k },
                );
            }
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx) {}
        fn on_timer(&mut self, kind: TimerKind, ctx: &mut Ctx) {
            let TimerKind::Custom { tag } = kind else {
                panic!("slot 1 was canceled and must never fire");
            };
            assert_eq!(tag, 99, "only the last re-arm's payload may fire");
            // ordering: Relaxed — single-threaded simulator test probe.
            self.fired.fetch_add(1, Ordering::Relaxed);
            if self.rounds_left > 0 {
                self.rounds_left -= 1;
                ctx.rearm_timer(
                    0,
                    ctx.now + SimDuration::from_micros(99),
                    TimerKind::Custom { tag: 99 },
                );
            } else {
                ctx.cancel_timer(1);
            }
        }
    }

    #[test]
    fn rearmed_slot_fires_once_per_round_at_the_latest_deadline() {
        let mut sim = Simulator::new(two_dc_leaf_spine(&TwoDcParams::small_test()), 1);
        let fired = Arc::new(AtomicU64::new(0));
        let agent = sim.add_agent(Box::new(Rearmer {
            rounds_left: 9,
            fired: fired.clone(),
        }));
        sim.schedule_start(SimTime::ZERO, agent);
        let report = sim.run(None);
        assert_eq!(report.stop, crate::sim::StopReason::Idle);
        // ordering: Relaxed — single-threaded readback after the run.
        assert_eq!(fired.load(Ordering::Relaxed), 10, "one firing per round");
        let churn = sim.metrics().timer_churn;
        // Slot 0: 1 fresh arm, 98 in-place moves in `on_start`, and one
        // fresh arm per firing round (the old handle is stale once the
        // timer pops). Slot 1: 1 fresh arm, canceled at the end.
        assert_eq!(churn.armed, 2 + 9);
        assert_eq!(churn.rescheduled, 98);
        assert_eq!(churn.canceled, 1);
        assert_eq!(churn.fired, 10);
        assert_eq!(churn.discarded_stale, 0);
        // 1 start + 10 timer pops; the 107 re-arms added no heap traffic.
        assert_eq!(sim.metrics().events_processed, 11);
    }

    /// A delayed send (`send_after`) must reach the destination later than
    /// an immediate send issued at the same instant.
    struct DelayedSender {
        dst: HostId,
        src: HostId,
    }
    impl Agent for DelayedSender {
        fn on_start(&mut self, ctx: &mut Ctx) {
            let immediate = Packet::data(crate::packet::FlowId(0), 0, self.src, self.dst, 0);
            let delayed = Packet::data(crate::packet::FlowId(0), 1, self.src, self.dst, 0);
            ctx.send_after(SimDuration::from_micros(50), self.src, delayed);
            ctx.send(self.src, immediate);
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx) {}
    }
    struct ArrivalLog {
        order: Arc<parking::Order>,
    }
    mod parking {
        use std::sync::Mutex;
        #[derive(Default)]
        pub struct Order(pub Mutex<Vec<(u64, u64)>>);
    }
    impl Agent for ArrivalLog {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
            self.order
                .0
                .lock()
                .expect("lock")
                .push((pkt.seq, ctx.now.0));
        }
    }

    #[test]
    fn send_after_delays_injection() {
        let mut sim = Simulator::new(two_dc_leaf_spine(&TwoDcParams::small_test()), 1);
        let order = Arc::new(parking::Order::default());
        let src = HostId(0);
        let dst = HostId(1);
        let flow = sim.new_flow();
        let tx = sim.add_agent(Box::new(DelayedSender { dst, src }));
        let rx = sim.add_agent(Box::new(ArrivalLog {
            order: order.clone(),
        }));
        sim.bind(flow, src, tx);
        sim.bind(flow, dst, rx);
        sim.schedule_start(SimTime::ZERO, tx);
        sim.run(None);
        let log = order.0.lock().expect("lock").clone();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].0, 0, "immediate packet first");
        assert_eq!(log[1].0, 1, "delayed packet second");
        assert!(
            log[1].1 >= log[0].1 + SimDuration::from_micros(50).0,
            "delay must be at least the processing time: {log:?}"
        );
    }

    /// Installing an *empty* fault plan must leave a run bit-identical to
    /// one without the fault machinery: same event count, same end time,
    /// same completion. (The fault RNG is a separate stream only drawn for
    /// ports with impairments, and an empty plan schedules nothing.)
    #[test]
    fn empty_fault_plan_is_bit_identical() {
        let run = |with_plan: bool| {
            let topo = two_dc_leaf_spine(&TwoDcParams::small_test());
            let mut sim = Simulator::new(topo, 42);
            let dst = sim.topology().hosts_in_dc(1)[0];
            let handle = install_flow(
                &mut sim,
                FlowSpec::new(HostId(0), dst, 2_000_000),
                SimTime::ZERO,
            );
            if with_plan {
                sim.install_faults(&crate::faults::FaultPlan::new())
                    .expect("empty plan is valid");
            }
            let report = sim.run(Some(SimTime::ZERO + SimDuration::from_secs(30)));
            let done = sim.metrics().completion(handle.flow).expect("completes");
            (report.events, report.end_time, done)
        };
        assert_eq!(run(false), run(true));
    }

    /// What only the socket shim models is refused by name, and a refused
    /// plan installs nothing.
    #[test]
    fn shim_only_faults_are_refused() {
        use crate::faults::{FaultError, FaultPlan, PortImpairment, SyscallErrors};
        use crate::packet::PortId;
        let later = SimTime::ZERO + SimDuration::from_millis(1);
        let impaired = |imp| FaultPlan {
            impairments: vec![imp],
            ..FaultPlan::new()
        };
        let imp = PortImpairment::none(PortId(0));
        let errors = SyscallErrors {
            port: PortId(0),
            again: 0.1,
            nobufs: 0.0,
        };
        for (plan, entry) in [
            (
                impaired(PortImpairment {
                    duplicate: 0.1,
                    ..imp
                }),
                "packet duplication",
            ),
            (
                impaired(PortImpairment {
                    delay: 0.1,
                    delay_max: later.since(SimTime::ZERO),
                    ..imp
                }),
                "held-back packets",
            ),
            (
                FaultPlan {
                    syscall_errors: vec![errors],
                    ..FaultPlan::new()
                },
                "syscall errors",
            ),
        ] {
            let mut sim = Simulator::new(two_dc_leaf_spine(&TwoDcParams::small_test()), 1);
            let refused = sim.install_faults(&plan.link_down(PortId(1), later));
            let interpreter = "the packet simulator";
            assert_eq!(refused, Err(FaultError::Unsupported { interpreter, entry }));
            assert_eq!(sim.run(None).events, 0, "{entry}: nothing was scheduled");
        }
    }

    /// A link-down window blackholes packets offered to the port while it
    /// is down; the flow still completes after the link returns (RTO-driven
    /// retransmission), and the destroyed packets are counted.
    #[test]
    fn link_flap_blackholes_then_flow_recovers() {
        let topo = two_dc_leaf_spine(&TwoDcParams::small_test());
        let mut sim = Simulator::new(topo, 7);
        let dst = sim.topology().hosts_in_dc(1)[0];
        let down_tor = sim.topology().down_tor_port(dst);
        let handle = install_flow(
            &mut sim,
            FlowSpec::new(HostId(0), dst, 2_000_000),
            SimTime::ZERO,
        );
        let down = SimTime::ZERO + SimDuration::from_micros(50);
        let plan = crate::faults::FaultPlan::new().link_down_window(
            down_tor,
            down,
            down + SimDuration::from_micros(300),
        );
        sim.install_faults(&plan).expect("valid plan");
        let report = sim.run(Some(SimTime::ZERO + SimDuration::from_secs(30)));
        assert_eq!(report.stop, crate::sim::StopReason::Idle);
        assert!(sim.metrics().completion(handle.flow).is_some());
        assert!(
            sim.metrics()
                .counter(crate::agent::Counter::PacketsLostToFault)
                > 0,
            "the outage overlaps the transfer"
        );
    }

    /// The strict auditor (with the liveness watchdog armed) must stay
    /// silent through a faulty but recovering run: link flap, blackholed
    /// packets, RTO retransmissions — everything still conserves.
    #[test]
    fn strict_audit_is_clean_through_a_link_flap() {
        let topo = two_dc_leaf_spine(&TwoDcParams::small_test());
        let mut sim = Simulator::new(topo, 7);
        sim.set_audit(
            crate::audit::AuditConfig::strict()
                .every(Some(1_000))
                .with_liveness(SimDuration::from_secs(10)),
        );
        let dst = sim.topology().hosts_in_dc(1)[0];
        let down_tor = sim.topology().down_tor_port(dst);
        let handle = install_flow(
            &mut sim,
            FlowSpec::new(HostId(0), dst, 2_000_000),
            SimTime::ZERO,
        );
        let down = SimTime::ZERO + SimDuration::from_micros(50);
        let plan = crate::faults::FaultPlan::new().link_down_window(
            down_tor,
            down,
            down + SimDuration::from_micros(300),
        );
        sim.install_faults(&plan).expect("valid plan");
        let report = sim.run(Some(SimTime::ZERO + SimDuration::from_secs(30)));
        assert_eq!(report.stop, crate::sim::StopReason::Idle);
        assert!(report.violations.is_empty());
        assert_eq!(
            report.terminated_reason(),
            crate::sim::TerminatedReason::Completed
        );
        assert!(sim.metrics().completion(handle.flow).is_some());
        // At idle nothing is in flight: the ledger must balance exactly.
        let ledger = *sim.ledger();
        assert_eq!(ledger.created, ledger.terminal());
        assert!(ledger.delivered > 0);
        assert!(ledger.lost_to_fault > 0, "the outage destroyed packets");
    }

    /// A sender that fires one packet and never retransmits wedges its
    /// flow; the collect-mode watchdog must flag it when the simulator
    /// goes idle with the flow incomplete.
    #[test]
    fn collect_mode_flags_a_wedged_flow_at_idle() {
        struct OneShot {
            src: HostId,
            dst: HostId,
        }
        impl Agent for OneShot {
            fn on_start(&mut self, ctx: &mut Ctx) {
                let pkt = Packet::data(crate::packet::FlowId(0), 0, self.src, self.dst, 0);
                ctx.send(self.src, pkt);
            }
            fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx) {}
        }
        struct Swallow;
        impl Agent for Swallow {
            fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx) {}
        }
        let mut sim = Simulator::new(two_dc_leaf_spine(&TwoDcParams::small_test()), 1);
        sim.set_audit(
            crate::audit::AuditConfig::collect().with_liveness(SimDuration::from_secs(1)),
        );
        let (src, dst) = (HostId(0), HostId(1));
        let flow = sim.new_flow();
        let tx = sim.add_agent(Box::new(OneShot { src, dst }));
        let rx = sim.add_agent(Box::new(Swallow));
        sim.bind(flow, src, tx);
        sim.bind(flow, dst, rx);
        sim.schedule_start(SimTime::ZERO, tx);
        let report = sim.run(None);
        assert_eq!(report.stop, crate::sim::StopReason::Idle);
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(
            report.violations[0],
            crate::audit::InvariantViolation::StuckFlow { idle: true, .. }
        ));
        assert_eq!(
            report.terminated_reason(),
            crate::sim::TerminatedReason::InvariantViolation
        );
    }

    /// A crash window on the receiving agent destroys packets on arrival;
    /// after restoration the sender's retransmissions complete the flow.
    #[test]
    fn agent_crash_window_recovers_after_restore() {
        let topo = two_dc_leaf_spine(&TwoDcParams::small_test());
        let mut sim = Simulator::new(topo, 9);
        let dst = sim.topology().hosts_in_dc(1)[0];
        let handle = install_flow(
            &mut sim,
            FlowSpec::new(HostId(0), dst, 2_000_000),
            SimTime::ZERO,
        );
        let crash = SimTime::ZERO + SimDuration::from_micros(50);
        let plan = crate::faults::FaultPlan::new().crash_agent_window(
            handle.receiver,
            crash,
            crash + SimDuration::from_micros(500),
        );
        sim.install_faults(&plan).expect("valid plan");
        let report = sim.run(Some(SimTime::ZERO + SimDuration::from_secs(30)));
        assert_eq!(report.stop, crate::sim::StopReason::Idle);
        assert!(sim.metrics().completion(handle.flow).is_some());
        assert!(
            sim.metrics()
                .counter(crate::agent::Counter::PacketsLostToFault)
                > 0
        );
    }
}

/// Lazy `TxDone` — a port schedules its transmit-complete event only when a
/// packet is waiting for it — and delay-class lanes: the event-queue FIFOs
/// that ports of equal link delay share. Every scenario runs under the
/// strict auditor checking after every event (the queue's own structure
/// included), on a star small enough to time by hand: 1500 B at 100 Gbps
/// serializes in 120 ns, 64 B in 5.12 ns, links propagate in 1 µs.
#[cfg(test)]
mod tx_done_tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::metrics::{LaneChurn, TxChurn};
    use crate::queues::QueueConfig;
    use crate::time::Bandwidth;
    use crate::topology::{LinkProps, TopologyBuilder};
    use std::sync::Mutex;

    const SER: u64 = 120_000;
    const HOP: u64 = 1_000_000;

    /// Sends its script when started: one data packet per `(delay, seq)` —
    /// full-size, or cut to its header for a `seq` of [`HEADER`] or more —
    /// immediately for a zero delay, through an `Inject` event otherwise.
    struct Script {
        flow: FlowId,
        src: HostId,
        dst: HostId,
        sends: Vec<(u64, u64)>,
    }
    const HEADER: u64 = 100;
    /// 64 B at 100 Gbps.
    const HEADER_SER: u64 = 5_120;
    impl Agent for Script {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for &(delay, seq) in &self.sends {
                let mut pkt = Packet::data(self.flow, seq, self.src, self.dst, 0);
                if seq >= HEADER {
                    pkt.trim();
                }
                ctx.send_after(SimDuration(delay), self.src, pkt);
            }
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx) {}
    }

    /// Logs `(flow, seq, arrival time)` of everything delivered to it.
    struct Sink(Arc<Mutex<Vec<(u32, u64, u64)>>>);
    impl Agent for Sink {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
            self.0
                .lock()
                .expect("lock")
                .push((pkt.flow.0, pkt.seq, ctx.now.0));
        }
    }

    /// Hosts 0, 1 (datacenter links) and 2 (a 400 Gbps / 10 ns link) feed
    /// one switch; host 3 hangs off it behind the port under study.
    struct Star {
        sim: Simulator,
        log: Arc<Mutex<Vec<(u32, u64, u64)>>>,
        sink: AgentId,
        /// The switch's port toward host 3.
        down: PortId,
    }

    const SINK: HostId = HostId(3);

    fn star() -> Star {
        let mut b = TopologyBuilder::new();
        let switch = b.add_switch(NodeRole::Leaf, Some(0));
        let fast = LinkProps {
            bandwidth: Bandwidth::gbps(400),
            latency: SimDuration::from_nanos(10),
        };
        for link in [
            LinkProps::datacenter(),
            LinkProps::datacenter(),
            fast,
            LinkProps::datacenter(),
        ] {
            let host = b.add_host(Some(0));
            b.add_duplex(
                b.host_node(host),
                switch,
                link,
                QueueConfig::host(),
                QueueConfig::datacenter(),
            );
        }
        let mut sim = Simulator::new(b.build(), 1);
        sim.set_audit(AuditConfig::strict().every(Some(1)));
        let down = sim.topology().down_tor_port(SINK);
        sim.trace_port(down);
        let log = Arc::new(Mutex::new(Vec::new()));
        let sink = sim.add_agent(Box::new(Sink(log.clone())));
        Star {
            sim,
            log,
            sink,
            down,
        }
    }

    impl Star {
        /// Installs a scripted sender on `src`, started at `start`.
        fn sender(&mut self, src: HostId, start: u64, sends: &[(u64, u64)]) {
            let flow = self.sim.new_flow();
            let agent = self.sim.add_agent(Box::new(Script {
                flow,
                src,
                dst: SINK,
                sends: sends.to_vec(),
            }));
            self.sim.bind(flow, src, agent);
            self.sim.bind(flow, SINK, self.sink);
            self.sim.schedule_start(SimTime(start), agent);
        }

        fn nic(&self, host: HostId) -> PortId {
            let topo = self.sim.topology();
            topo.ports_of(topo.host_node(host))[0]
        }

        /// Runs to idle and returns the delivery log and the `TxDone`
        /// ledger, which must have balanced with nothing left pending.
        fn finish(&mut self) -> (Vec<(u32, u64, u64)>, TxChurn) {
            let report = self.sim.run(None);
            assert_eq!(report.stop, StopReason::Idle);
            let tx = self.sim.metrics().tx_churn;
            assert_eq!(tx.scheduled, tx.fired, "{tx:?}");
            assert_eq!(report.tx_elided, tx.elided());
            let ledger = *self.sim.ledger();
            assert_eq!(ledger.created, ledger.terminal(), "{ledger:?}");
            (self.log.lock().expect("lock").clone(), tx)
        }
    }

    /// (a) Two packets reach the switch in the very picosecond the port's
    /// first transmission completes — one whose `Arrival` is ordered before
    /// the port's reserved `TxDone` key, one after. Store-and-forward by
    /// hand: the first must still queue behind the packet on the wire (and
    /// is what makes that `TxDone` worth scheduling), the second finds the
    /// first already transmitting.
    #[test]
    fn same_picosecond_arrivals_on_both_sides_of_an_elided_tx_done() {
        let mut s = star();
        // p0 reaches the switch at t0 and leaves it at t0 + SER.
        let t0 = SER + HOP;
        s.sender(HostId(0), 0, &[(0, 0)]);
        // p1 leaves its NIC before t0 (so its Arrival is keyed before the
        // port's TxDone) and reaches the switch at exactly t0 + SER.
        s.sender(HostId(1), SER, &[(0, 0)]);
        // p2 leaves its NIC after t0 (keyed after) over the short fast
        // link: 30 ns of serialization plus 10 ns of propagation.
        let fast_hop = 30_000 + 10_000;
        assert!(t0 + SER - fast_hop > t0);
        s.sender(HostId(2), t0 + SER - fast_hop, &[(0, 0)]);
        let (log, tx) = s.finish();
        assert_eq!(
            log,
            vec![
                (0, 0, t0 + SER + HOP),
                (1, 0, t0 + 2 * SER + HOP),
                (2, 0, t0 + 3 * SER + HOP),
            ]
        );
        let trace: Vec<(u64, u64)> = s
            .sim
            .port_trace(s.down)
            .iter()
            .map(|&(t, b)| (t.0, b))
            .collect();
        assert_eq!(
            trace,
            vec![
                (t0, 1500),       // p0 offered to the idle port...
                (t0, 0),          // ...and on the wire at once
                (t0 + SER, 1500), // p1 queues: p0's TxDone is later this ps
                (t0 + SER, 0),    // that TxDone: p1 on the wire
                (t0 + SER, 1500), // p2 queues behind p1
                (t0 + 2 * SER, 0),
            ]
        );
        // Six transmissions (three NICs, three on the port under study);
        // only p0's and p1's on that port had anyone waiting for them.
        assert_eq!(
            tx,
            TxChurn {
                started: 6,
                scheduled: 2,
                fired: 2
            }
        );
        // 3 flow starts + 3 arrivals at the switch + 3 deliveries + 2.
        assert_eq!(s.sim.metrics().events_processed, 11);
    }

    /// (b) The link goes down mid-transmission with packets queued and
    /// comes back after that transmission's `done`: the scheduled `TxDone`
    /// fires into a dead link, `LinkUp` restarts the port, the queue drains.
    #[test]
    fn link_down_across_done_then_link_up_drains_the_queue() {
        let mut s = star();
        s.sender(HostId(0), 0, &[(0, 0), (0, 1), (0, 2)]);
        let nic = s.nic(HostId(0));
        let up = 500_000;
        s.sim
            .install_faults(&FaultPlan::new().link_down_window(nic, SimTime(SER / 2), SimTime(up)))
            .expect("valid plan");
        let (log, tx) = s.finish();
        // p0 was on the wire when the link died and still arrives; p1 and
        // p2 leave the NIC at `up + SER` and `up + 2·SER`, one switch
        // transmission and two propagation delays from the sink.
        assert_eq!(
            log,
            vec![
                (0, 0, SER + HOP + SER + HOP),
                (0, 1, up + SER + HOP + SER + HOP),
                (0, 2, up + 2 * SER + HOP + SER + HOP),
            ]
        );
        // NIC: p0's and p1's TxDones had a queue behind them, p2's did not.
        // Switch port: p2 arrives in the picosecond p1's transmission ends.
        assert_eq!(
            tx,
            TxChurn {
                started: 6,
                scheduled: 3,
                fired: 3
            }
        );
    }

    /// (c) A delayed send (`Inject`) lands on the NIC at exactly `done`.
    /// Emitted before the immediate send its key precedes the port's
    /// reserved one and it must queue for a picosecond; emitted after, it
    /// finds the port idle. Departure is `done` either way.
    #[test]
    fn inject_landing_exactly_at_done() {
        for (sends, scheduled) in [([(SER, 1), (0, 0)], 1), ([(0, 0), (SER, 1)], 0)] {
            let mut s = star();
            s.sender(HostId(0), 0, &sends);
            let (log, tx) = s.finish();
            assert_eq!(
                log,
                vec![
                    (0, 0, SER + HOP + SER + HOP),
                    (0, 1, 2 * SER + HOP + SER + HOP),
                ],
                "{sends:?}"
            );
            // On the switch port the second packet arrives as the first
            // one's transmission ends, keyed before it: one more wake-up.
            assert_eq!(
                tx,
                TxChurn {
                    started: 4,
                    scheduled: scheduled + 1,
                    fired: scheduled + 1
                },
                "{sends:?}"
            );
        }
    }

    /// (d) The same at hybrid fidelity, behind virtual backlog. Two packets
    /// cross the cold NIC analytically (`free_at` = 240 ns); the NIC is then
    /// pinned hot, and at 100 ns a real packet is offered: it is on the wire
    /// at once — an express reservation is not a transmission, there is no
    /// `TxDone` to wait for — but timed behind the backlog, `done` = 360 ns,
    /// which is where the `Inject` (keyed before the reserved `TxDone`)
    /// lands and queues.
    #[test]
    fn inject_landing_exactly_at_done_behind_virtual_backlog() {
        let mut s = star();
        s.sim.set_fidelity(FidelityConfig::default());
        s.sender(HostId(0), 0, &[(0, 0), (0, 1)]);
        s.sender(HostId(0), 100_000, &[(3 * SER - 100_000, 1), (0, 0)]);
        let nic = s.nic(HostId(0));
        let early = s.sim.run(Some(SimTime::ZERO));
        assert_eq!(early.stop, StopReason::TimeLimit);
        assert_eq!(s.sim.fidelity_stats().expect("enabled").packets, 2);
        assert_eq!(s.sim.metrics().tx_churn, TxChurn::default());
        s.sim.pin_hot_port(nic);
        let (log, tx) = s.finish();
        // Back-to-back off the NIC at k·SER whichever path took them; the
        // switch port is cold throughout and adds SER + HOP to each.
        assert_eq!(
            log,
            vec![
                (0, 0, SER + HOP + SER + HOP),
                (0, 1, 2 * SER + HOP + SER + HOP),
                (1, 0, 3 * SER + HOP + SER + HOP),
                (1, 1, 4 * SER + HOP + SER + HOP),
            ]
        );
        // The only real transmissions are the NIC's last two.
        assert_eq!(
            tx,
            TxChurn {
                started: 2,
                scheduled: 1,
                fired: 1
            }
        );
    }

    /// Hosts 0, 1 and the sink hang off datacenter links: one delay class,
    /// whose lanes their NICs and the switch's port toward the sink share.
    /// A header leaves host 1 after host 0's data packet and reaches the
    /// switch before it: sizes have lanes of their own inside the class, so
    /// the overtaking unsorts nothing, and every later data `Arrival` and
    /// `TxDone` of the class queues behind an earlier one, whichever port
    /// sent it.
    #[test]
    fn a_header_overtakes_a_data_packet_inside_one_delay_class() {
        let mut s = star();
        s.sender(HostId(0), 0, &[(0, 0)]);
        // The header at 50 ns; a data packet through an `Inject` at 60 ns,
        // when the NIC is idle again.
        s.sender(HostId(1), 50_000, &[(0, HEADER), (10_000, 1)]);
        let (log, tx) = s.finish();
        let at_switch = [50_000 + HEADER_SER + HOP, SER + HOP, 60_000 + SER + HOP];
        assert!(at_switch[0] < at_switch[1], "sent later, there sooner");
        assert_eq!(
            log,
            vec![
                (1, HEADER, at_switch[0] + HEADER_SER + HOP),
                (0, 0, at_switch[1] + SER + HOP),
                // Reaches the switch 60 ns into the 120 ns of the packet
                // before it: the one transmission with anyone waiting.
                (1, 1, at_switch[1] + 2 * SER + HOP),
            ]
        );
        assert_eq!(
            tx,
            TxChurn {
                started: 6,
                scheduled: 1,
                fired: 1
            }
        );
        // Pushed: two flow starts, the `Inject`, the first data `Arrival`,
        // the header's two `Arrival`s (the header lane is empty each time)
        // and the `TxDone`. Appended: the other three data `Arrival`s, each
        // behind one a different port scheduled.
        assert_eq!(
            s.sim.metrics().lane_churn,
            LaneChurn {
                appended: 3,
                pushed: 7,
                refused: 0
            }
        );
    }

    /// Two NICs of one class start transmitting in the same picosecond, and
    /// the one that reserved its `TxDone` key second needs it first. The
    /// other's key, materialised later for the same instant, is the older
    /// one: behind the lane's tail it would pop after it. The lane refuses
    /// it, and the packets released at that instant keep their order.
    #[test]
    fn a_tx_done_older_than_its_class_lanes_tail_takes_the_heap() {
        let mut s = star();
        // NIC 0 is offered its second packet 100 ns in; NIC 1, which starts
        // second, at once.
        s.sender(HostId(0), 0, &[(0, 0), (100_000, 1)]);
        s.sender(HostId(1), 0, &[(0, 0), (0, 1)]);
        let (log, tx) = s.finish();
        let t0 = SER + HOP;
        assert_eq!(
            log,
            vec![
                (0, 0, t0 + SER + HOP),
                (1, 0, t0 + 2 * SER + HOP),
                // Both second packets left their NICs at 120 ns: host 0's
                // `TxDone` popped first, so its packet is ahead all the way.
                (0, 1, t0 + 3 * SER + HOP),
                (1, 1, t0 + 4 * SER + HOP),
            ]
        );
        assert_eq!(s.sim.metrics().lane_churn.refused, 1);
        // The NICs' first transmissions and the switch port's first three.
        assert_eq!(
            tx,
            TxChurn {
                started: 8,
                scheduled: 5,
                fired: 5
            }
        );
    }

    /// A link flap across a `TxDone` that rides its class's lane with
    /// another port's queued behind it: the head fires into the dead link,
    /// its successor takes the lane over and fires as if nothing had
    /// happened, `LinkUp` restarts the port.
    #[test]
    fn a_link_flap_crosses_a_tx_done_on_a_shared_class_lane() {
        let mut s = star();
        s.sender(HostId(0), 0, &[(0, 0), (0, 1), (0, 2)]);
        s.sender(HostId(1), 0, &[(0, 0), (0, 1)]);
        let nic = s.nic(HostId(0));
        let up = 500_000;
        s.sim
            .install_faults(&FaultPlan::new().link_down_window(nic, SimTime(SER / 2), SimTime(up)))
            .expect("valid plan");
        let early = s.sim.run(Some(SimTime(SER / 2)));
        assert_eq!(early.stop, StopReason::TimeLimit);
        // Two flow starts, the link window, the first data `Arrival` and the
        // first `TxDone` were pushed; NIC 1's `Arrival` and `TxDone` queue
        // behind NIC 0's.
        assert_eq!(
            early.lane_churn,
            LaneChurn {
                appended: 2,
                pushed: 6,
                refused: 0
            }
        );
        let (log, _) = s.finish();
        let t0 = SER + HOP;
        assert_eq!(
            log,
            vec![
                (0, 0, t0 + SER + HOP),
                (1, 0, t0 + 2 * SER + HOP),
                (1, 1, t0 + 3 * SER + HOP),
                (0, 1, up + SER + HOP + SER + HOP),
                (0, 2, up + 2 * SER + HOP + SER + HOP),
            ]
        );
    }

    /// Hybrid fidelity: an express reservation puts a real transmission's
    /// `start` ahead of `now`, and its `Arrival` ahead of what another port
    /// of the class offers next. The class lane refuses that offer, the
    /// port's own lane takes it, and delivery is store-and-forward to the
    /// picosecond.
    #[test]
    fn an_arrival_the_class_lane_refuses_lands_on_the_ports_own() {
        let mut s = star();
        s.sim.set_fidelity(FidelityConfig::default());
        // Two packets cross NIC 0 analytically: its virtual backlog ends at
        // 240 ns.
        s.sender(HostId(0), 0, &[(0, 0), (0, 1)]);
        let early = s.sim.run(Some(SimTime::ZERO));
        assert_eq!(early.stop, StopReason::TimeLimit);
        let (nic0, nic1) = (s.nic(HostId(0)), s.nic(HostId(1)));
        s.sim.pin_hot_port(nic0);
        s.sim.pin_hot_port(nic1);
        // A real packet on NIC 0 at 100 ns is timed behind the backlog: on
        // the wire 240–360 ns. One on NIC 1 at 150 ns leaves at 270 ns.
        s.sender(HostId(0), 100_000, &[(0, 0)]);
        s.sender(HostId(1), 150_000, &[(0, 0)]);
        let before = s.sim.metrics().lane_churn;
        let (log, tx) = s.finish();
        assert_eq!(
            log,
            vec![
                (0, 0, SER + HOP + SER + HOP),
                (0, 1, 2 * SER + HOP + SER + HOP),
                // At the switch at 1.27 µs, behind a port busy to 1.36 µs.
                (2, 0, 3 * SER + HOP + SER + HOP),
                (1, 0, 4 * SER + HOP + SER + HOP),
            ]
        );
        assert_eq!(tx.started, 2, "the NICs' two real transmissions");
        let churn = s.sim.metrics().lane_churn;
        assert_eq!(churn.refused - before.refused, 1, "{churn:?}");
    }

    /// The audit's reason to exist: a port that believes its wake-up is
    /// scheduled when it is not never drains. Corrupt one port's private
    /// state by hand and the very next check names it, long before a
    /// liveness watchdog could notice a stuck flow.
    #[test]
    #[should_panic(expected = "TxDone accounting broken")]
    fn a_wake_up_flagged_but_never_scheduled_is_a_tx_accounting_violation() {
        let mut s = star();
        s.sender(HostId(0), 0, &[(0, 0), (0, 1)]);
        let nic = s.nic(HostId(0));
        s.sim.ports[nic.index()].wake = true;
        s.sim.run(None);
    }

    /// The queue audit covers the pool the ports share: point the
    /// switch's down port's data FIFO at the chain host 0's NIC holds, and
    /// the next check names the down port for running into a block on
    /// another FIFO, and the pool for the blocks the down port's own chain
    /// held, which are now neither free nor on a FIFO, and for the FIFO
    /// lengths, which no longer add up to the packets queued.
    #[test]
    fn a_corrupt_queue_chain_is_a_queue_accounting_violation_naming_the_port() {
        let mut s = star();
        s.sim.set_audit(AuditConfig::collect().every(None));
        let burst: Vec<_> = (0..40).map(|seq| (0, seq)).collect();
        s.sender(HostId(0), 0, &burst);
        s.sender(HostId(1), 0, &burst);
        let report = s.sim.run(Some(SimTime(HOP + 20 * SER)));
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let nic = s.nic(HostId(0));
        assert!(nic < s.down, "the NIC's chain is walked first");
        assert!(s.sim.queues.len(nic) > 0 && s.sim.queues.len(s.down) > 0);
        let nic_chain = *s.sim.queues.data_fifo_mut(nic);
        *s.sim.queues.data_fifo_mut(s.down) = nic_chain;
        s.sim.run_audit_checks(false);
        let found: Vec<_> = s
            .sim
            .violations
            .iter()
            .map(|v| match v {
                InvariantViolation::QueueAccounting { port, detail, .. } => (*port, detail.clone()),
                other => panic!("expected only QueueAccounting violations, got {other}"),
            })
            .collect();
        match found.as_slice() {
            [(Some(port), on_port), (None, in_pool), (None, count)] => {
                assert_eq!(*port, s.down);
                assert!(on_port.contains("data FIFO runs into block"), "{on_port}");
                assert!(on_port.ends_with("on another FIFO"), "{on_port}");
                assert!(
                    in_pool.contains("is neither free nor on a FIFO"),
                    "{in_pool}"
                );
                assert!(count.contains("packets counted queued"), "{count}");
            }
            other => panic!("expected the down port and the pool, got {other:?}"),
        }
    }

    /// The same corruption in collect mode, past the point where it bites:
    /// the second packet is stranded behind a transmission that ended, the
    /// report says which port, and no `StuckFlow` was needed to find it.
    #[test]
    fn collect_mode_reports_the_stranded_port() {
        let mut s = star();
        s.sim.set_audit(AuditConfig::collect().every(None));
        s.sender(HostId(0), 0, &[(0, 0), (0, 1)]);
        let nic = s.nic(HostId(0));
        s.sim.ports[nic.index()].wake = true;
        let report = s.sim.run(None);
        assert_eq!(report.stop, StopReason::Idle);
        match report.violations.as_slice() {
            // The stranded packet also unbalances nothing else: it is
            // still counted as queued.
            [InvariantViolation::TxAccounting {
                churn:
                    TxChurn {
                        scheduled: 0,
                        fired: 0,
                        ..
                    },
                pending: 0,
                waking: 1,
                stranded: Some(port),
                ..
            }] => assert_eq!(*port, nic),
            other => panic!("expected one TxAccounting violation, got {other:?}"),
        }
        assert_eq!(s.log.lock().expect("lock").len(), 1);
    }
}
