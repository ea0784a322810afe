//! Measurement and statistics utilities shared by the simulator, the live
//! proxy prototype, and the reproduction harness.
//!
//! The paper reports three kinds of numbers and this crate provides the
//! machinery for all of them:
//!
//! * **Incast completion times** over repeated seeded runs (mean/min/max) —
//!   [`Summary`].
//! * **Per-packet latency CDFs** from the testbed experiments (Figs 4–5) —
//!   [`Cdf`] and the thread-safe [`LatencyRecorder`].
//! * **Bounded-memory latency distributions** captured on the data path —
//!   [`LogHistogram`], an HDR-style logarithmic histogram with ≤ ~1% relative
//!   error and O(1) record cost.
//!
//! Counter sets — plain, atomic, or keyed by an enum — are declared once
//! through [`counters!`], which names every counter `crate.set.field`.
//!
//! Determinism helpers live in [`rng`]: every experiment run derives all of
//! its randomness from a single `u64` seed so that the "5 runs, report
//! mean/min/max" protocol of §4.1 is exactly repeatable.

pub mod cdf;
pub mod counters;
pub mod histogram;
pub mod json;
pub mod percentile;
pub mod recorder;
pub mod rng;
pub mod summary;
pub mod table;
pub mod timeseries;

pub use cdf::Cdf;
pub use histogram::LogHistogram;
pub use percentile::percentile_of_sorted;
pub use recorder::LatencyRecorder;
pub use rng::{cases, derive_seed, SplitMix64};
pub use summary::Summary;
pub use table::Table;
