//! # dcsim — packet-level datacenter network simulator
//!
//! A discrete-event, packet-level network simulator equivalent in modelling
//! power to htsim (which the paper *Mitigating Inter-datacenter Incast with
//! a Proxy*, HotNets '25, uses for its evaluation):
//!
//! * store-and-forward output-queued switches with **ECN marking** (RED-
//!   style two-threshold ramp) and **packet trimming** (NDP/EQDS-style:
//!   full data queues cut packets to headers that ride a strict-priority
//!   control queue),
//! * **leaf–spine topologies** and the paper's two-datacenter topology
//!   joined by backbone routers over long-haul links,
//! * **packet spraying** across all equal-cost next hops,
//! * a **DCTCP-like transport** (window reset on timeout, multiplicative
//!   decrease on marked ACK / NACK, additive increase on unmarked ACK,
//!   initial window = 1 BDP) with per-packet ACKs and NACK-driven
//!   retransmission — one sender shell, with the window (or a rate-based
//!   policy) behind a trait,
//! * the building blocks of the **Naive proxy** (receiver-with-grants +
//!   relay sender); the end-to-end proxy agent runs the relay core of the
//!   `incast-core` crate (`incast_core::relay`).
//!
//! Time is integer picoseconds; every run is fully deterministic given a
//! seed. See the `incast-core` crate for the paper's experiment harness
//! built on top of this simulator.
//!
//! ## Example: one flow across the two-DC topology
//!
//! ```
//! use dcsim::prelude::*;
//!
//! let topo = two_dc_leaf_spine(&TwoDcParams::small_test());
//! let mut sim = Simulator::new(topo, 42);
//! let src = HostId(0);
//! let dst = sim.topology().hosts_in_dc(1)[0];
//! let handle = install_flow(&mut sim, FlowSpec::new(src, dst, 1_000_000), SimTime::ZERO);
//! let report = sim.run(None);
//! assert_eq!(report.stop, StopReason::Idle);
//! assert!(sim.metrics().completion(handle.flow).is_some());
//! ```

pub mod agent;
pub mod audit;
pub mod blocks;
pub mod det;
pub mod events;
pub mod faults;
pub mod fidelity;
pub mod fleet;
pub mod flows;
pub mod metrics;
pub mod packet;
pub mod protocol;
pub mod queues;
pub mod sim;
pub mod time;
pub mod topology;
pub mod workload;

/// Convenient glob-import surface for experiment and test code.
pub mod prelude {
    pub use crate::agent::{Agent, Counter, Ctx, Effect, Note};
    pub use crate::audit::{AuditConfig, AuditMode, InvariantViolation, PacketLedger};
    pub use crate::events::{FaultEvent, TimerKind};
    pub use crate::faults::{
        AgentCrash, FaultError, FaultPlan, LinkWindow, PortImpairment, ShardCrash, SyscallErrors,
    };
    pub use crate::fidelity::{ExpressStats, FidelityConfig};
    pub use crate::fleet::{FleetReport, FleetSim};
    pub use crate::flows::{install_flow, FlowHandle, FlowSpec};
    pub use crate::metrics::SimMetrics;
    pub use crate::packet::{
        AgentId, Ecn, FlowId, HostId, NodeId, Packet, PacketKind, PortId, DATA_PKT_SIZE,
        HEADER_SIZE, MSS,
    };
    pub use crate::protocol::{packets_for_bytes, CcConfig, Dctcp, Receiver, RtoConfig, Sender};
    pub use crate::queues::{EnqueueOutcome, PortQueue, QueueConfig};
    pub use crate::sim::{RunReport, Simulator, StopReason, TerminatedReason};
    pub use crate::time::{Bandwidth, SimDuration, SimTime};
    pub use crate::topology::{
        two_dc_leaf_spine, two_dc_unstructured, LinkProps, NodeRole, Topology, TopologyBuilder,
        TwoDcParams, UnstructuredParams,
    };
    pub use crate::workload::{BackgroundTraffic, FlowSizeDist};
}
