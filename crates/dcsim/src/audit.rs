//! Runtime invariant auditing: packet conservation, queue sanity, timer
//! accounting, and flow liveness.
//!
//! The simulator keeps a [`PacketLedger`] of every packet from the moment an
//! agent emits it ([`crate::agent::Effect::Send`]) to its terminal
//! disposition: delivered to a host agent, destroyed on arrival at a crashed
//! agent, blackholed/corrupted/lost by an injected fault, or dropped by a
//! full queue. Trimming is *not* terminal — the header keeps traveling — so
//! it is tracked separately as an informational counter.
//!
//! With an [`AuditConfig`] installed ([`crate::sim::Simulator::set_audit`])
//! the simulator cross-checks the ledger against the actual simulation state
//! at the end of every `run()` call (and optionally every N processed
//! events):
//!
//! * **Conservation** — `created + imported == delivered + lost_to_crash +
//!   lost_to_fault + dropped_queue + exported + in_flight`, where in-flight
//!   packets are counted by summing port-queue occupancy and walking the
//!   event slab for pending `Arrival`/`Inject` events. The
//!   `exported`/`imported` terms account for packets crossing shard
//!   boundaries in fleet runs (zero otherwise), so the balance holds on
//!   both sides of a fidelity or shard boundary mid-flight.
//! * **Queue sanity** — per-port byte counters match the queued packets,
//!   occupancy never exceeds the configured capacities, each FIFO's chain
//!   of pool blocks walks to its tail in exactly its `len`, and every
//!   block of the packet pool is free or on exactly one FIFO.
//! * **Timer accounting** — `armed == fired + canceled + pending`, and the
//!   slot/generation protocol never discards a stale pop
//!   (`discarded_stale == 0`), extending the PR 3 churn counters.
//! * **`TxDone` accounting** — ports schedule their transmit-complete event
//!   lazily (only when a packet waits behind the one on the wire), so the
//!   failure to fear is a lost wake-up. Checked: `scheduled == fired +
//!   pending`, the ports expecting a wake-up number exactly the pending
//!   `TxDone`s, and no link-up port holds packets unless it is transmitting
//!   with its `TxDone` scheduled.
//! * **Flow liveness** (opt-in via [`AuditConfig::with_liveness`]) — a
//!   watchdog flags any bound, started, uncrashed, incomplete flow with no
//!   packet activity for the configured sim-time horizon; when the simulator
//!   goes idle, such flows are flagged regardless of horizon because no
//!   pending event can ever unwedge them.
//!
//! Checks never consult the RNG and never mutate simulation state, so a run
//! is bit-identical with auditing on, off, or at any checkpoint cadence —
//! only the failure behavior differs. [`AuditMode::Strict`] panics with a
//! structured report (tests, fuzzing); [`AuditMode::Collect`] surfaces the
//! violations in [`crate::sim::RunReport::violations`] (the chaos fuzzer
//! uses this to keep searching after a hit).

use crate::metrics::{TimerChurn, TxChurn};
use crate::packet::{FlowId, PortId};
use crate::time::{SimDuration, SimTime};
use std::fmt;

/// What to do when an invariant check fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditMode {
    /// Panic immediately with a structured violation report.
    Strict,
    /// Record violations; they surface in `RunReport::violations`.
    Collect,
}

/// Invariant-auditing configuration for a [`crate::sim::Simulator`].
///
/// Installing one is cheap: the ledger counters are maintained
/// unconditionally (a handful of integer increments per packet), so turning
/// auditing on only adds the checkpoint checks themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditConfig {
    /// Strict (panic) or collect (report) on violation.
    pub mode: AuditMode,
    /// Also run the checks every N processed events, not just at the end of
    /// `run()`. Catches transient violations (e.g. a queue briefly over
    /// capacity) that self-correct before the run ends.
    pub check_every_events: Option<u64>,
    /// Liveness watchdog horizon; `None` disables the watchdog. Must
    /// comfortably exceed the transport's maximum RTO backoff (2 s by
    /// default) or legitimately idle-but-retrying flows get flagged.
    pub liveness_horizon: Option<SimDuration>,
}

impl AuditConfig {
    /// Strict mode with periodic checks every 100k events; no liveness
    /// watchdog. The default for tests and fuzzing.
    pub fn strict() -> Self {
        AuditConfig {
            mode: AuditMode::Strict,
            check_every_events: Some(100_000),
            liveness_horizon: None,
        }
    }

    /// Collect mode with periodic checks every 100k events; no liveness
    /// watchdog. Used by the fuzzer so a violating run still reports how it
    /// terminated.
    pub fn collect() -> Self {
        AuditConfig {
            mode: AuditMode::Collect,
            check_every_events: Some(100_000),
            liveness_horizon: None,
        }
    }

    /// Override the periodic-check cadence (`None` = end of run only).
    pub fn every(mut self, events: Option<u64>) -> Self {
        self.check_every_events = events;
        self
    }

    /// Arm the liveness watchdog with the given silence horizon.
    pub fn with_liveness(mut self, horizon: SimDuration) -> Self {
        self.liveness_horizon = Some(horizon);
        self
    }
}

trace::counters! {
    "dcsim.packet_ledger";
    /// Counts every packet the simulator has seen, by disposition.
    ///
    /// `created` counts `Effect::Send` applications — a proxy forwarding a
    /// packet counts as a fresh creation, so conservation holds regardless of
    /// agent behavior. `trimmed` is informational (a trimmed packet keeps
    /// traveling as a header); it is *not* part of the conservation sum.
    pub struct PacketLedger {
        /// Packets emitted by agents (`Effect::Send`), including forwards.
        created,
        /// Packets dispatched to a live host agent.
        delivered,
        /// Packets destroyed on arrival at a crashed agent.
        lost_to_crash,
        /// Packets blackholed by a downed link, lost to an impairment draw, or
        /// destroyed by corruption of a control packet.
        lost_to_fault,
        /// Packets dropped by a full queue (`EnqueueOutcome::Dropped`).
        dropped_queue,
        /// Payloads cut to headers (queue trim or data corruption); the header
        /// keeps traveling, so this is not a terminal disposition.
        trimmed,
        /// Packets handed to another shard of a fleet run. Terminal for *this*
        /// shard's ledger: conservation becomes `created + imported == terminal
        /// + exported + in_flight`. Zero outside fleet runs.
        exported,
        /// Packets accepted from another shard of a fleet run; they enter this
        /// shard's conservation sum alongside `created`. Zero outside fleet
        /// runs.
        imported,
        /// Packets advanced analytically by the hybrid-fidelity express path
        /// for at least one hop. Informational (such packets still appear in
        /// `delivered`/`in_flight` like any other); not part of the
        /// conservation sum.
        express,
    }
}

impl PacketLedger {
    /// Sum of terminal dispositions.
    pub fn terminal(&self) -> u64 {
        self.delivered + self.lost_to_crash + self.lost_to_fault + self.dropped_queue
    }
}

trace::counters! {
    "dcsim.lease_ledger";
    /// Counts every control-plane lease from grant to terminal disposition.
    ///
    /// The sharded orchestrator (in the `core` crate) maintains one global
    /// ledger across all shards; the invariant is `granted == released +
    /// expired + reclaimed + active` at every step, and `active == 0` once the
    /// control plane has quiesced. Shard crashes move leases around (into the
    /// draining set, to a sibling, or to the decentralized fallback) but never
    /// out of the ledger, so the balance catches both leaks (a lease forgotten
    /// by everyone) and double-frees (a lease released twice).
    pub struct LeaseLedger {
        /// Leases ever granted, including re-grants after a reclaim.
        granted,
        /// Leases released by their holder (the incast completed).
        released,
        /// Leases that ran out their term without renewal.
        expired,
        /// Stale leases taken over from a crashed shard and re-granted.
        reclaimed,
        /// Leases currently live (granted, not yet terminal).
        active,
    }
}

impl LeaseLedger {
    /// Sum of terminal dispositions plus live leases.
    pub fn accounted(&self) -> u64 {
        self.released + self.expired + self.reclaimed + self.active
    }

    /// True when every grant is accounted for.
    pub fn balanced(&self) -> bool {
        self.granted == self.accounted()
    }
}

/// A single invariant violation, with enough context to debug it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// The ledger does not balance: `created != terminal + in_flight`.
    PacketConservation {
        at: SimTime,
        ledger: PacketLedger,
        in_queues: u64,
        in_events: u64,
    },
    /// A port queue's occupancy exceeds its configured capacity.
    QueueOverCapacity {
        at: SimTime,
        port: PortId,
        data_bytes: u64,
        data_capacity: u64,
        ctrl_bytes: u64,
        ctrl_capacity: u64,
    },
    /// The port queues' accounting is inconsistent: byte counters vs the
    /// packets on a port's FIFOs, a FIFO whose chain of pool blocks does
    /// not walk to its tail in `len` slots, a packet in the wrong class, or
    /// a pool block that is neither free nor on exactly one FIFO.
    QueueAccounting {
        at: SimTime,
        /// The port whose FIFOs or counters are wrong; `None` when the
        /// fault is in the packet pool the ports share (a block that is
        /// neither free nor on a FIFO, a corrupt free list).
        port: Option<PortId>,
        detail: String,
    },
    /// Timer churn counters do not balance: `armed != fired + canceled +
    /// pending`, or a stale timer pop was discarded.
    TimerAccounting {
        at: SimTime,
        churn: TimerChurn,
        pending: u64,
    },
    /// The lazy-`TxDone` ledger is off — `scheduled != fired + pending`, or
    /// `waking` (ports whose wake-up flag is set) differs from the pending
    /// `TxDone` events — or `stranded` names a link-up port holding packets
    /// with no scheduled transmit-complete event coming to drain them.
    TxAccounting {
        at: SimTime,
        churn: TxChurn,
        pending: u64,
        waking: u64,
        stranded: Option<PortId>,
    },
    /// The event queue's own structure is broken (an unsorted lane, a lane
    /// head missing from the heap or tagged wrong, `queued` off, a stale
    /// heap index): what is pending may be right and still pop out of order.
    EventQueueAccounting { at: SimTime, detail: String },
    /// A bound, started, uncrashed flow has made no forward progress for
    /// longer than the watchdog horizon (or the simulator went idle with the
    /// flow incomplete).
    StuckFlow {
        at: SimTime,
        flow: FlowId,
        last_activity: SimTime,
        idle: bool,
    },
    /// The control-plane lease ledger does not balance: `granted !=
    /// released + expired + reclaimed + active`, or leases were still
    /// active after quiescence.
    LeaseAccounting {
        at: SimTime,
        ledger: LeaseLedger,
        detail: String,
    },
}

impl InvariantViolation {
    /// Stable short name of the violation class; the fuzzer's shrinker
    /// matches on this to accept a shrunk candidate as "the same failure".
    pub fn kind(&self) -> &'static str {
        match self {
            InvariantViolation::PacketConservation { .. } => "PacketConservation",
            InvariantViolation::QueueOverCapacity { .. } => "QueueOverCapacity",
            InvariantViolation::QueueAccounting { .. } => "QueueAccounting",
            InvariantViolation::TimerAccounting { .. } => "TimerAccounting",
            InvariantViolation::TxAccounting { .. } => "TxAccounting",
            InvariantViolation::EventQueueAccounting { .. } => "EventQueueAccounting",
            InvariantViolation::StuckFlow { .. } => "StuckFlow",
            InvariantViolation::LeaseAccounting { .. } => "LeaseAccounting",
        }
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::PacketConservation {
                at,
                ledger,
                in_queues,
                in_events,
            } => write!(
                f,
                "packet conservation broken at {at}: created + imported != terminal={} \
                 + exported + in_flight={} (queues={in_queues} events={in_events}); {ledger}",
                ledger.terminal(),
                in_queues + in_events,
            ),
            InvariantViolation::QueueOverCapacity {
                at,
                port,
                data_bytes,
                data_capacity,
                ctrl_bytes,
                ctrl_capacity,
            } => write!(
                f,
                "queue over capacity at {at} on {port:?}: \
                 data {data_bytes}/{data_capacity} B, ctrl {ctrl_bytes}/{ctrl_capacity} B",
            ),
            InvariantViolation::QueueAccounting { at, port, detail } => match port {
                Some(port) => write!(f, "queue accounting broken at {at} on {port:?}: {detail}"),
                None => write!(
                    f,
                    "queue accounting broken at {at} in the packet pool: {detail}"
                ),
            },
            InvariantViolation::TimerAccounting { at, churn, pending } => write!(
                f,
                "timer accounting broken at {at}: armed={} != fired={} + canceled={} \
                 + pending={pending} (discarded_stale={}, must be 0)",
                churn.armed, churn.fired, churn.canceled, churn.discarded_stale,
            ),
            InvariantViolation::TxAccounting {
                at,
                churn,
                pending,
                waking,
                stranded,
            } => {
                write!(
                    f,
                    "TxDone accounting broken at {at}: scheduled={} (of {} started) vs \
                     fired={} + pending={pending}; {waking} port(s) expect a wake-up",
                    churn.scheduled, churn.started, churn.fired,
                )?;
                match stranded {
                    Some(port) => write!(f, "; {port:?} holds packets nothing will drain"),
                    None => Ok(()),
                }
            }
            InvariantViolation::EventQueueAccounting { at, detail } => {
                write!(f, "event queue structure broken at {at}: {detail}")
            }
            InvariantViolation::StuckFlow {
                at,
                flow,
                last_activity,
                idle,
            } => write!(
                f,
                "stuck flow {flow:?} at {at}: no activity since {last_activity}{}",
                if *idle {
                    " and the simulator is idle (no pending event can complete it)"
                } else {
                    ""
                },
            ),
            InvariantViolation::LeaseAccounting { at, ledger, detail } => write!(
                f,
                "lease accounting broken at {at}: granted != released + expired + reclaimed \
                 + active ({detail}); {ledger}",
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_violation_names_the_ledger_counters() {
        let v = InvariantViolation::PacketConservation {
            at: SimTime(5),
            ledger: PacketLedger {
                created: 10,
                delivered: 7,
                dropped_queue: 1,
                ..PacketLedger::default()
            },
            in_queues: 1,
            in_events: 0,
        };
        assert!(v.to_string().ends_with(
            "terminal=8 + exported + in_flight=1 (queues=1 events=0); \
             dcsim.packet_ledger.created=10 dcsim.packet_ledger.delivered=7 \
             dcsim.packet_ledger.dropped_queue=1"
        ));
    }
}
