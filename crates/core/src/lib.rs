//! # incast-core — inter-datacenter incast mitigation with a proxy
//!
//! Library reproduction of *Mitigating Inter-datacenter Incast with a
//! Proxy: The shortest path is not necessarily the fastest* (HotNets '25).
//!
//! The paper's proposition: route inter-datacenter incast traffic through a
//! proxy in the **sending** datacenter. The extra hop shifts the congestion
//! bottleneck from the receiver's down-ToR (milliseconds of feedback delay
//! away) to the proxy's down-ToR (microseconds away), letting senders
//! converge quickly to the bottleneck rate.
//!
//! What lives here:
//!
//! * [`relay`] — the one relay core: the per-packet decision, the relay
//!   kinds (Naive, Streamlined, and Future Work #1's trimming-free
//!   Detecting) and the clock-free loss detector with its quiescence
//!   sweep, run by the simulator's proxy agent ([`relay::RelayAgent`]) and
//!   by `netproxy`'s socket relay alike.
//! * [`scheme`] — the three evaluation schemes (Baseline, Proxy Naive,
//!   Proxy Streamlined) wired onto the `dcsim` simulator.
//! * [`scenario`] — a simulated run as plain data (fabric, incasts, flows,
//!   faults, engine), its one build and its JSON form.
//! * [`experiment`] — the seeded experiment harness behind every figure.
//! * [`orchestrator`] — proxy selection across concurrent incasts
//!   (§5 Future work #3): one sharded crash-tolerant control plane with
//!   leases, health gossip, and graceful degradation (one shard is the
//!   global orchestrator), and the decentralized trial-based selector it
//!   degrades to.
//! * [`lossdetect`] — reorder-tolerant packet-loss tracking without switch
//!   trimming support (§5 Future work #1), with bounded memory.
//! * [`declare`] — the programming abstraction of §6: applications declare
//!   incast-prone communication; a deployment planner converts declarations
//!   into proxy-assisted routings.
//! * [`detect`] — pattern-aware incast detection of §6: periodicity
//!   detection over per-destination traffic counts for third-party apps.
//! * [`predict`] — the "should this incast use a proxy?" benefit predictor
//!   (§5 FW#3 notes not all incasts benefit; §4.2 shows the 20 MB case),
//!   and `admit`, where every incast request enters the control plane.
//! * [`runtime`] — the §6 operator control loop: observe traffic, detect,
//!   predict, allocate, pre-arm, release — epoch by epoch.

pub mod declare;
pub mod detect;
pub mod experiment;
pub mod lossdetect;
pub mod orchestrator;
pub mod predict;
pub mod relay;
pub mod runtime;
pub mod scenario;
pub mod scheme;

pub use experiment::{run_incast, run_repeated, ExperimentConfig, IncastOutcome};
pub use scheme::{install_incast, IncastHandle, IncastSpec, Scheme};
