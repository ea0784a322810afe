//! Umbrella crate for the reproduction suite of *Mitigating
//! Inter-datacenter Incast with a Proxy* (HotNets '25).
//!
//! The actual functionality lives in the workspace crates:
//!
//! * [`dcsim`] — the packet-level network simulator,
//! * [`incast_core`] — schemes, experiments, orchestration, detection,
//! * [`netproxy`] — the deployable proxies (threads and blocking sockets),
//! * [`trace`] — measurement utilities.
//!
//! This crate hosts the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`); its library surface simply
//! re-exports the member crates for convenient use from those targets.

pub use dcsim;
pub use incast_core;
pub use netproxy;
pub use trace;
