//! Atomic-type shim for model checking the lock-free datapath.
//!
//! Concurrency-critical modules import atomics from here instead of
//! `std::sync::atomic`. A normal build re-exports `std` types with zero
//! overhead; building with `RUSTFLAGS="--cfg loom"` swaps in the
//! vendored `loom` model checker's instrumented atomics, whose every
//! operation is a scheduling point for exhaustive interleaving
//! exploration (see `crates/loom` and `tests/loom.rs`).
//!
//! Only the types the loom models exercise are shimmed. The atomic
//! counter sets `trace::counters!` declares name the shim's `AtomicU64`
//! too, since two of them (`ShardStats`, `FaultStats`) are modeled;
//! outside a loom model their atomics behave as plain ones.

#[cfg(loom)]
pub(crate) use loom::sync::atomic::{AtomicBool, AtomicU64};

#[cfg(not(loom))]
pub(crate) use std::sync::atomic::{AtomicBool, AtomicU64};

pub(crate) use std::sync::atomic::Ordering;
