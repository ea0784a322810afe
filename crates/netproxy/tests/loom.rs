//! Loom models of the relay's two shared counter sets (run with
//! `RUSTFLAGS="--cfg loom" cargo test -p netproxy --test loom`): a shard's
//! per-batch `ShardStats` flush against a `RelayStats` snapshot, and the
//! fault shim's `FaultStats` delay/release pairs against a mid-run
//! snapshot.
//!
//! These drive the *real* counter code — via the `crate::sync` atomic
//! shim — through every interleaving of their atomic operations under
//! the vendored bounded-exhaustive checker (`crates/loom`). Exploration
//! is SeqCst-only; ordering *strength* is audited statically (simlint
//! `unjustified-atomic-ordering`) and dynamically by the TSAN CI job.
//! See DESIGN.md §14.

#![cfg(loom)]

use loom::sync::Arc;
use loom::thread;
use netproxy::fault::FaultStats;
use netproxy::shard::{RelayStats, ShardStats};
use std::sync::atomic::Ordering;

/// The per-batch counter flush racing a `RelayStats::merge` snapshot:
/// a concurrent snapshot may mix counters from different batches but
/// each counter is monotone and bounded by its final value; after the
/// worker joins, a snapshot must be exact.
#[test]
fn shard_stats_flush_vs_snapshot() {
    loom::model(|| {
        let stats = Arc::new(ShardStats::default());
        let s = Arc::clone(&stats);
        let worker = thread::spawn(move || {
            // Two batches of the worker's per-batch flush, reduced to
            // the three counter kinds (add, add, max) to keep the
            // interleaving space small.
            for (got, fwd) in [(4u64, 3u64), (2, 2)] {
                // ordering: Relaxed — mirrors the shard worker's flush exactly;
                // the model explores every interleaving regardless.
                s.forwarded.fetch_add(fwd, Ordering::Relaxed);
                s.batches.fetch_add(1, Ordering::Relaxed);
                s.max_batch.fetch_max(got, Ordering::Relaxed);
            }
        });
        let mut mid = RelayStats::default();
        mid.merge(&stats);
        assert!(mid.forwarded <= 5, "snapshot overshot: {}", mid.forwarded);
        assert!(mid.batches <= 2, "snapshot overshot: {}", mid.batches);
        assert!(mid.max_batch <= 4, "snapshot overshot: {}", mid.max_batch);
        worker.join().expect("worker");
        let mut fin = RelayStats::default();
        fin.merge(&stats);
        assert_eq!((fin.forwarded, fin.batches, fin.max_batch), (5, 2, 4));
    });
}

/// A delayed datagram and its release racing a mid-run
/// `FaultStats::snapshot` (the live ledger reads one while the relay is
/// still up): whatever the interleaving, the snapshot never holds a
/// release without its delay, so `rx_delay_pending` cannot underflow and
/// the snapshot's own pairing checks hold.
#[test]
fn fault_stats_release_vs_snapshot() {
    loom::model(|| {
        let stats = Arc::new(FaultStats::default());
        let s = Arc::clone(&stats);
        let shim = thread::spawn(move || {
            // ordering: Relaxed / Release — mirrors the shim's `bump!`: a
            // delay is a plain count, its release the paired second count.
            s.rx_delayed.fetch_add(1, Ordering::Relaxed);
            s.tx_delayed_data.fetch_add(1, Ordering::Relaxed);
            s.rx_delay_released.fetch_add(1, Ordering::Release);
            s.tx_delay_released_data.fetch_add(1, Ordering::Release);
        });
        let mid = stats.snapshot();
        assert!(mid.rx_delay_pending() <= 1);
        assert!(mid.tx_delay_released_data <= mid.tx_delayed_data);
        shim.join().expect("shim");
        let fin = stats.snapshot();
        assert_eq!((fin.rx_delayed, fin.rx_delay_pending()), (1, 0));
        assert_eq!(fin.tx_delay_released_data, fin.tx_delayed_data);
    });
}
