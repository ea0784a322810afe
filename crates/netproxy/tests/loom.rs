//! Loom models of the lock-free datapath (run with
//! `RUSTFLAGS="--cfg loom" cargo test -p netproxy --test loom`).
//!
//! These drive the *real* `FlowDirectory`, `ShardStats` and `FaultStats`
//! code — via
//! the `crate::sync` atomic shim — through every interleaving of their
//! atomic operations under the vendored bounded-exhaustive checker
//! (`crates/loom`). Exploration is SeqCst-only; ordering *strength* is
//! audited statically (simlint `unjustified-atomic-ordering`) and
//! dynamically by the TSAN CI job. See DESIGN.md §14.

#![cfg(loom)]

use loom::sync::Arc;
use loom::thread;
use netproxy::fault::FaultStats;
use netproxy::shard::{flow_hash, FlowDirectory, RelayStats, ShardStats};
use std::net::SocketAddr;
use std::sync::atomic::Ordering;

fn addr(last_octet: u8, port: u16) -> SocketAddr {
    SocketAddr::from(([10, 0, 0, last_octet], port))
}

/// Two shards race to publish the *same* flow with different senders
/// (the real cross-shard case: retransmits of one flow steered to two
/// sockets). First writer wins the key slot; both values are valid, so
/// any lookup after both publishes must see one of the two — never a
/// torn or foreign value, and never a permanently empty slot.
#[test]
fn directory_first_writer_wins_same_flow() {
    loom::model(|| {
        let dir = Arc::new(FlowDirectory::new(8));
        let a = addr(1, 1111);
        let b = addr(2, 2222);
        let d1 = Arc::clone(&dir);
        let t1 = thread::spawn(move || d1.publish(7, a));
        let d2 = Arc::clone(&dir);
        let t2 = thread::spawn(move || d2.publish(7, b));
        t1.join().expect("publisher 1");
        t2.join().expect("publisher 2");
        let got = dir.lookup(7).expect("published flow resolvable");
        assert!(got == a || got == b, "foreign value {got}");
    });
}

/// Publish racing a lookup: the reader sees `None` (insert in flight —
/// the claimed-key/empty-value window) or the exact published sender,
/// never garbage. After join, the flow must be resolvable.
#[test]
fn directory_lookup_races_publish() {
    loom::model(|| {
        let dir = Arc::new(FlowDirectory::new(8));
        let a = addr(3, 3333);
        let d1 = Arc::clone(&dir);
        let t = thread::spawn(move || d1.publish(5, a));
        match dir.lookup(5) {
            None => {} // not yet visible, or insert in flight
            Some(got) => assert_eq!(got, a, "torn or foreign value"),
        }
        t.join().expect("publisher");
        assert_eq!(dir.lookup(5), Some(a), "publish durable after join");
    });
}

/// Two *different* flows that probe the same slot chain: the loser of
/// the CAS must probe on and land in the next slot, so both flows
/// resolve to their own sender afterwards (no lost publication, no
/// cross-flow value bleed).
#[test]
fn directory_colliding_flows_both_resolve() {
    // Brute-forced outside the model (the closure must be
    // deterministic and cheap): two flows with the same home slot in
    // an 8-slot table under a fixed hash key.
    const KEY: u64 = 0x5EED;
    let slot = |flow: u64| flow_hash(flow, KEY) & 7;
    let f1 = 0u64;
    let f2 = (1..).find(|&f| slot(f) == slot(f1)).expect("collision");
    let a = addr(4, 4444);
    let b = addr(5, 5555);
    loom::model(move || {
        let dir = Arc::new(FlowDirectory::with_key(8, KEY));
        let d1 = Arc::clone(&dir);
        let t1 = thread::spawn(move || d1.publish(f1, a));
        let d2 = Arc::clone(&dir);
        let t2 = thread::spawn(move || d2.publish(f2, b));
        t1.join().expect("publisher 1");
        t2.join().expect("publisher 2");
        assert_eq!(dir.lookup(f1), Some(a), "flow 1 kept its own sender");
        assert_eq!(dir.lookup(f2), Some(b), "flow 2 kept its own sender");
    });
}

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
