//! Shard supervision: crash/wedge detection and bounded-loss restart.
//!
//! The sharded relay's original failure mode was silent: any hard socket
//! error made the shard thread exit, and its share of the
//! `SO_REUSEPORT` steering kept blackholing packets until process exit.
//! This module adds the missing control loop — the datapath twin of the
//! control plane's lease/health machinery (DESIGN.md §11):
//!
//! * every shard owns a [`ShardSlot`] and bumps its **heartbeat** once
//!   per relay-loop iteration;
//! * a dedicated supervisor thread polls the slots, classifying a shard
//!   as **crashed** when its thread finished while `stop` is clear, and
//!   as **wedged** when the thread is alive but the heartbeat has not
//!   moved for `WEDGE_TIMEOUT` (400 ms);
//! * recovery bumps the slot's **generation** (which tells a wedged
//!   orphan to exit and release its socket) and spawns a replacement
//!   worker on a fresh `SO_REUSEPORT` socket bound to the same port.
//!
//! Recovery is **bounded-loss** by construction: packets the kernel had
//! already steered into the dead socket's receive queue are gone (that
//! is the `crash_lost` budget the soak ledger accounts), but everything
//! after the replacement binds flows again. Counters stay **monotone**
//! across restarts because the replacement worker adopts the same
//! `ShardStats` atomics, and in-flight flows survive because the shared
//! [`crate::shard::FlowDirectory`] (and each private table, re-learned
//! from the next data packet) persists outside the worker thread.
//!
//! [`ShardSlot`] is built on the `crate::sync` atomic shim so its
//! heartbeat/generation/chaos protocol can be loom-modeled; the
//! supervisor loop itself uses real threads and wall-clock timeouts.

use crate::sync::{AtomicBool, AtomicU64, Ordering};
use std::io;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const CHAOS_NONE: u64 = 0;
const CHAOS_CRASH: u64 = 1;
const CHAOS_WEDGE: u64 = 2;

/// A fault to inject into a running shard (test/soak API).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// The worker returns immediately, dropping its socket — a clean
    /// thread death, as after a hard socket error.
    Crash,
    /// The worker stops beating but keeps its socket open — the
    /// nastier failure, where the kernel keeps steering flows into a
    /// blackhole until the supervisor notices the stale heartbeat.
    Wedge,
}

/// Per-shard supervision state: heartbeat, generation, pending chaos,
/// restart budget. One per shard, shared between the worker thread, the
/// supervisor, and snapshot readers.
#[derive(Debug, Default)]
pub struct ShardSlot {
    heartbeat: AtomicU64,
    generation: AtomicU64,
    chaos: AtomicU64,
    restarts: AtomicU64,
    failed: AtomicBool,
}

impl ShardSlot {
    /// Fresh slot at generation 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Worker liveness signal, once per relay-loop iteration.
    #[inline]
    pub fn beat(&self) {
        // ordering: Relaxed — a monotone liveness counter compared only
        // against its own previous value; no data is published with it.
        self.heartbeat.fetch_add(1, Ordering::Relaxed);
    }

    /// Current heartbeat value.
    pub fn heartbeat(&self) -> u64 {
        // ordering: Relaxed — see `beat`.
        self.heartbeat.load(Ordering::Relaxed)
    }

    /// The generation the slot's *current* worker should be running.
    pub fn generation(&self) -> u64 {
        // ordering: Acquire — pairs with the Release in
        // `bump_generation`, so a worker observing its supersession also
        // observes everything the supervisor wrote before bumping.
        self.generation.load(Ordering::Acquire)
    }

    /// Supersedes the current worker; returns the new generation. Any
    /// worker still running an older generation exits at its next
    /// generation check and drops its socket.
    pub(crate) fn bump_generation(&self) -> u64 {
        // ordering: Release — pairs with the Acquire in `generation`.
        self.generation.fetch_add(1, Ordering::Release) + 1
    }

    /// Requests chaos on this shard (consumed by the worker at its next
    /// loop iteration). Last writer wins if called twice before the
    /// worker looks.
    pub fn inject(&self, kind: ChaosKind) {
        let v = match kind {
            ChaosKind::Crash => CHAOS_CRASH,
            ChaosKind::Wedge => CHAOS_WEDGE,
        };
        // ordering: Relaxed — a control-flow-only flag; the worker acts
        // on whatever value it reads, no payload accompanies it.
        self.chaos.store(v, Ordering::Relaxed);
    }

    /// Consumes a pending chaos request. Single consumer (the slot's
    /// worker), so load-then-clear does not race with itself; an inject
    /// landing between the two is overwritten, which for a test API is
    /// an acceptable (and documented) last-writer-wins.
    pub(crate) fn take_chaos(&self) -> Option<ChaosKind> {
        // ordering: Relaxed — control-flow-only, see `inject`. (The
        // vendored loom AtomicU64 has no `swap`; load+store is the
        // modelable equivalent under the single-consumer contract.)
        let c = self.chaos.load(Ordering::Relaxed);
        if c == CHAOS_NONE {
            return None;
        }
        // ordering: Relaxed — same control-flow-only contract as the
        // load above; the sole consumer clears its own mailbox.
        self.chaos.store(CHAOS_NONE, Ordering::Relaxed);
        Some(if c == CHAOS_CRASH {
            ChaosKind::Crash
        } else {
            ChaosKind::Wedge
        })
    }

    /// Times this shard has been restarted (or had a restart attempted).
    pub fn restarts(&self) -> u64 {
        // ordering: Relaxed — monotone counter for snapshots.
        self.restarts.load(Ordering::Relaxed)
    }

    fn note_restart_attempt(&self) {
        // ordering: Relaxed — monotone counter for snapshots.
        self.restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// True once the supervisor has given up on this shard
    /// (`MAX_RESTARTS` exhausted).
    pub fn failed(&self) -> bool {
        // ordering: Relaxed — a sticky flag read for reporting; the
        // supervisor is the only writer and acts on its own state.
        self.failed.load(Ordering::Relaxed)
    }

    fn mark_failed(&self) {
        // ordering: Relaxed — see `failed`.
        self.failed.store(true, Ordering::Relaxed);
    }
}

/// How often the supervisor polls the slots.
pub(crate) const POLL: Duration = Duration::from_millis(25);

/// A live thread whose heartbeat is older than this is wedged. It
/// comfortably exceeds the socket poll timeout
/// ([`crate::batch::RECV_POLL`]) plus worst-case batch processing.
pub(crate) const WEDGE_TIMEOUT: Duration = Duration::from_millis(400);

/// Restart attempts per shard before the supervisor gives up on it.
pub(crate) const MAX_RESTARTS: u64 = 8;

trace::counters! {
    "netproxy.supervisor", atomic crate::sync::AtomicU64;
    /// Supervision activity as the supervisor thread counts it.
    pub(crate) struct SupervisorShared;
    /// Snapshot of supervision activity, merged across shards.
    pub struct SupervisorStats {
        /// Restart attempts across all shards (successful or not).
        restarts,
        /// Dead-thread detections.
        crashes_detected,
        /// Stale-heartbeat detections.
        wedges_detected,
        /// Shards abandoned after exhausting the restart budget.
        gave_up,
    }
}

/// The supervisor loop: owns the worker handles, restarts on
/// crash/wedge, joins everything on shutdown. `spawn(shard, generation)`
/// must start a replacement worker for `shard` running `generation`.
pub(crate) fn supervise<F>(
    slots: Vec<Arc<ShardSlot>>,
    mut handles: Vec<thread::JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    shared: Arc<SupervisorShared>,
    mut spawn: F,
) where
    F: FnMut(usize, u64) -> io::Result<thread::JoinHandle<()>>,
{
    debug_assert_eq!(slots.len(), handles.len());
    let mut last_beat: Vec<(u64, Instant)> = slots
        .iter()
        .map(|s| (s.heartbeat(), Instant::now()))
        .collect();
    loop {
        thread::sleep(POLL);
        // ordering: Acquire — pairs with the Release store in
        // `ShardedRelay::shutdown`; re-checked after the sleep so a
        // shard that exited *because of* shutdown is never "recovered".
        if stop.load(Ordering::Acquire) {
            break;
        }
        let now = Instant::now();
        for (i, slot) in slots.iter().enumerate() {
            if slot.failed() {
                continue;
            }
            let hb = slot.heartbeat();
            if hb != last_beat[i].0 {
                last_beat[i] = (hb, now);
            }
            let finished = handles[i].is_finished();
            let wedged = !finished && now.duration_since(last_beat[i].1) >= WEDGE_TIMEOUT;
            if !finished && !wedged {
                continue;
            }
            let give_up = slot.restarts() >= MAX_RESTARTS;
            shared.flush(&SupervisorStats {
                restarts: u64::from(!give_up),
                crashes_detected: u64::from(finished),
                wedges_detected: u64::from(!finished),
                gave_up: u64::from(give_up),
            });
            if give_up {
                slot.mark_failed();
                continue;
            }
            // Supersede first: a wedged orphan exits at its next
            // generation check and only then releases its socket (the
            // kernel keeps steering to a wedged socket until it closes,
            // so this ordering is what ends the blackhole).
            let generation = slot.bump_generation();
            slot.note_restart_attempt();
            match spawn(i, generation) {
                Ok(h) => {
                    let old = std::mem::replace(&mut handles[i], h);
                    if finished {
                        let _ = old.join();
                    }
                    // Wedged: detach the orphan — it exits on its own
                    // via the generation (or stop) check.
                    last_beat[i] = (slot.heartbeat(), Instant::now());
                }
                Err(_) => {
                    // The attempt consumed restart budget; the shard is
                    // still dead/superseded, so the next poll retries
                    // (or gives up) — no silent infinite bind loop.
                }
            }
        }
    }
    for h in handles {
        let _ = h.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_heartbeat_and_generation_are_monotone() {
        let slot = ShardSlot::new();
        assert_eq!(slot.heartbeat(), 0);
        slot.beat();
        slot.beat();
        assert_eq!(slot.heartbeat(), 2);
        assert_eq!(slot.generation(), 0);
        assert_eq!(slot.bump_generation(), 1);
        assert_eq!(slot.generation(), 1);
    }

    #[test]
    fn chaos_is_consumed_once() {
        let slot = ShardSlot::new();
        assert_eq!(slot.take_chaos(), None);
        slot.inject(ChaosKind::Crash);
        assert_eq!(slot.take_chaos(), Some(ChaosKind::Crash));
        assert_eq!(slot.take_chaos(), None);
        slot.inject(ChaosKind::Wedge);
        assert_eq!(slot.take_chaos(), Some(ChaosKind::Wedge));
        assert_eq!(slot.take_chaos(), None);
    }

    #[test]
    fn supervisor_restarts_a_finished_worker() {
        let slots = vec![Arc::new(ShardSlot::new())];
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(SupervisorShared::default());
        let respawns = Arc::new(std::sync::atomic::AtomicU64::new(0));
        // First worker dies immediately.
        let h0 = thread::spawn(|| {});
        let sup = {
            let slots = slots.clone();
            let stop = stop.clone();
            let shared = shared.clone();
            let respawns = respawns.clone();
            let stop_worker = stop.clone();
            let slot = slots[0].clone();
            thread::spawn(move || {
                supervise(slots, vec![h0], stop, shared, move |_, generation| {
                    // ordering: Relaxed — test counter.
                    respawns.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let stop = stop_worker.clone();
                    let slot = slot.clone();
                    thread::Builder::new().spawn(move || {
                        // A healthy replacement: beat until stop or superseded.
                        // ordering: Acquire — mirrors the real worker loop.
                        while !stop.load(Ordering::Acquire) && slot.generation() == generation {
                            slot.beat();
                            thread::sleep(Duration::from_millis(1));
                        }
                    })
                })
            })
        };
        let start = Instant::now();
        // ordering: Relaxed — test counter.
        while respawns.load(std::sync::atomic::Ordering::Relaxed) == 0 {
            assert!(start.elapsed() < Duration::from_secs(2), "no restart");
            thread::sleep(Duration::from_millis(5));
        }
        // The replacement must be healthy: heartbeat advances, no second
        // restart is triggered.
        let hb0 = slots[0].heartbeat();
        let t = Instant::now();
        while slots[0].heartbeat() == hb0 {
            assert!(
                t.elapsed() < Duration::from_secs(2),
                "replacement not beating"
            );
            thread::sleep(Duration::from_millis(2));
        }
        // ordering: Release — mirrors ShardedRelay::shutdown.
        stop.store(true, Ordering::Release);
        sup.join().unwrap();
        assert_eq!(slots[0].restarts(), 1);
        // ordering: Relaxed — monotone event counter snapshot.
        assert_eq!(shared.crashes_detected.load(Ordering::Relaxed), 1);
        assert_eq!(shared.gave_up.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn supervisor_gives_up_after_budget() {
        let slots = vec![Arc::new(ShardSlot::new())];
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(SupervisorShared::default());
        let h0 = thread::spawn(|| {});
        let sup = {
            let slots = slots.clone();
            let stop = stop.clone();
            let shared = shared.clone();
            thread::spawn(move || {
                supervise(slots, vec![h0], stop, shared, |_, _| {
                    // Every replacement dies instantly too.
                    thread::Builder::new().spawn(|| {})
                })
            })
        };
        let start = Instant::now();
        while !slots[0].failed() {
            assert!(start.elapsed() < Duration::from_secs(2), "never gave up");
            thread::sleep(Duration::from_millis(5));
        }
        // ordering: Release — mirrors ShardedRelay::shutdown.
        stop.store(true, Ordering::Release);
        sup.join().unwrap();
        assert_eq!(slots[0].restarts(), MAX_RESTARTS, "budget fully consumed");
        // ordering: Relaxed — monotone event counter snapshot.
        assert_eq!(shared.gave_up.load(Ordering::Relaxed), 1);
    }
}
