//! Per-core sharded relay: N worker threads, each with its own flow state.
//!
//! Each shard owns an `SO_REUSEPORT` socket bound to the same port (the
//! kernel steers every 4-tuple consistently to one shard), a *private*
//! flow table, and a private loss detector — per-flow state never
//! crosses a shard boundary on the hot path.
//!
//! A shard is two parts. Its *step* (`crate::step::ShardStep`) holds the
//! decision state — kind, receiver, detector, private flow table, the
//! directory handle and the shed ladder — and turns one batch of a
//! receive ring into a filled send queue and that batch's [`RelayStats`],
//! with no syscall and no clock of its own. Its *run loop*
//! (`ShardWorker::run`, below) owns the rest: the socket, the heartbeat
//! and chaos mailbox, and the clock. Per batch it receives, takes one
//! clock reading, calls the step with it, takes a second, sends what the
//! step queued, and flushes the counts into the shard's own
//! [`ShardStats`] atomics in one call, then takes a third; the readings
//! split the batch into receive, step and send time
//! ([`RelayStats::recv_ns`], `step_ns`, `send_ns`). Merging across
//! shards happens only in [`ShardedRelay::stats`] snapshots.
//!
//! The one cross-shard wrinkle is the reverse path: receiver feedback
//! arrives on the *receiver's* 4-tuple, which the kernel may steer to a
//! different shard than the one that learned the flow's sender. The
//! [`FlowDirectory`] covers that case: one locked flow→sender map that
//! the owning shard publishes into when it learns a flow's sender, and
//! foreign shards consult only on a private-table miss. So a datagram
//! takes the lock only when it is its flow's first on a shard, or
//! feedback for a flow no shard has learned: the lock is taken about once
//! per flow, not once per packet.
//!
//! On platforms without `SO_REUSEPORT` the relay clamps itself to a
//! single shard over the portable socket layer — same behavior, less
//! parallelism (see `batch.rs`).
//!
//! Every step runs the one per-packet decision,
//! [`crate::streamlined::decide`], on each received datagram; the three
//! relay variants (all over both socket layers) differ in what they do
//! with the [`Action`](crate::streamlined::Action) it returns
//! ([`RelayKind::apply`], in the relay core `incast_core::relay`, which
//! the simulator's proxy runs too):
//!
//! * [`RelayKind::Streamlined`] — the paper's §3 relay: trimmed header →
//!   NACK rewritten **in place** (one flags-byte store) and bounced to
//!   the sender; data forwarded to the receiver straight out of the
//!   receive ring; feedback reversed.
//! * [`RelayKind::Naive`] — the no-insight baseline on the same UDP
//!   datapath: forwards everything (trimmed headers included) to the
//!   receiver and reverses feedback, generating no NACKs. This isolates
//!   the streamlined *decision* from the datapath speed, at line rate.
//! * [`RelayKind::Detecting`] — FW#1: no trimming support assumed; a per-
//!   shard `Detector` (the relay core's, on nanoseconds since the relay
//!   started) NACKs inferred losses, plus a quiescence sweep for tail
//!   losses.

use crate::batch::{self, BatchIo, RecvRing, SendQueue, SocketLayer, BATCH};
use crate::fault::{self, is_data_bytes, FaultSnapshot, FaultStats, FaultedIo};
use crate::step::ShardStep;
use crate::supervisor::{self, ChaosKind, ShardSlot, SupervisorShared, SupervisorStats};
use crate::sync::{AtomicBool, Ordering};
use dcsim::faults::FaultPlan;
use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::io;
use std::net::SocketAddr;
use std::num::NonZeroU64;
use std::sync::{Arc, PoisonError, RwLock};
use std::thread;
use std::time::{Duration, Instant};
use trace::LatencyRecorder;

/// Which relay logic the sharded engine runs: the relay core's kinds,
/// shared with the simulator's proxy.
pub use incast_core::relay::RelayKind;

/// Configuration of a [`ShardedRelay`]. What it does not set is a
/// constant: the loss detector's default tuning and its 50 ms sweep, the
/// shed ladder's NACK budget and bursts, and the supervisor's timing
/// ([`crate::supervisor`]).
#[derive(Debug, Clone)]
pub struct RelayConfig {
    /// Relay logic.
    pub kind: RelayKind,
    /// Worker threads / sockets. 0 = one per available core. Clamped to
    /// 1 on platforms without `SO_REUSEPORT`.
    pub shards: usize,
    /// Socket layer (mmsg or portable fallback).
    pub layer: SocketLayer,
    /// Where data packets are relayed to.
    pub receiver: SocketAddr,
    /// A fault plan and its RNG seed, run by a [`FaultedIo`] wrapped
    /// around every shard socket (`None` = the clean datapath; the hot
    /// path pays nothing). Blackout offsets are measured from
    /// [`ShardedRelay::start`].
    pub faults: Option<(FaultPlan, u64)>,
    /// The shed ladder's per-shard forward budget, datagrams a second
    /// (`None` = forward everything; the hot path pays nothing). Its NACK
    /// budget is a quarter of it (DESIGN.md §15).
    pub overload: Option<NonZeroU64>,
}

impl RelayConfig {
    /// A streamlined relay toward `receiver` with auto shard count.
    pub fn streamlined(receiver: SocketAddr) -> Self {
        RelayConfig {
            kind: RelayKind::Streamlined,
            shards: 0,
            layer: SocketLayer::Auto,
            receiver,
            faults: None,
            overload: None,
        }
    }
}

trace::counters! {
    "netproxy.shard", atomic crate::sync::AtomicU64;
    /// One shard's counters. Flushed once per batch, only by the owning
    /// shard thread; read by snapshots. Public so the loom model
    /// (`tests/loom.rs`) can race a flush against a snapshot.
    pub struct ShardStats;
    /// A merged snapshot of every shard's counters, and one batch's counts
    /// on their way into them ([`ShardStats::flush`]).
    pub struct RelayStats {
        /// Data datagrams forwarded to the receiver.
        forwarded,
        /// NACKs produced (in-place rewrites + generated).
        nacks,
        /// Feedback datagrams forwarded back to a sender.
        reversed,
        /// Malformed / unroutable datagrams dropped.
        dropped,
        /// Outbound datagrams the kernel refused.
        send_errors,
        /// Batches relayed: a receive of up to [`BATCH`] datagrams is one, a
        /// longer one is cut into several.
        batches,
        /// Datagrams received.
        received,
        /// Largest batch relayed (at most [`BATCH`]).
        max_batch: max,
        /// Data datagrams the shed ladder answered with a NACK instead of
        /// forwarding (subset of `nacks`).
        shed_nacked,
        /// Received datagrams the shed ladder dropped outright (budget
        /// exhausted on every rung) — counted, never silent.
        shed_dropped,
        /// NACKs suppressed because the flow was already NACKed in the same
        /// batch (storm suppression).
        nacks_coalesced,
        /// NACKs a Detecting relay generated that the NACK budget refused.
        /// No received datagram is behind them, so unlike `shed_dropped`
        /// they are no outcome of one.
        nacks_refused,
        /// Transient socket errors absorbed by retrying (EAGAIN/ENOBUFS,
        /// synthetic or real) instead of killing the shard.
        io_retries,
        /// Data datagrams lost to a whole-batch send failure (classified
        /// from the unsent queue; subset of `send_errors`).
        send_err_data,
        /// Control datagrams (NACK/ACK) lost to a whole-batch send failure
        /// (subset of `send_errors`).
        send_err_ctrl,
        /// Nanoseconds from the end of one batch to the start of the next:
        /// the receive syscall, and the wait in it. The loop's heartbeat,
        /// retried receives and a Detecting relay's sweep fall in it too.
        recv_ns,
        /// Nanoseconds in the syscall-free step (parse, classify, stage).
        step_ns,
        /// Nanoseconds in the send syscall and the counter flush.
        send_ns,
    }
}

/// The flow → sender map behind the cross-shard reverse path. A shard
/// writes it when it learns a new or moved sender, and reads it only
/// when its private [`SenderTable`] misses, so each shard touches it
/// about once per flow and one lock is enough. Flow ids hash under std's
/// `RandomState` (SipHash under per-process random keys), so an outsider
/// cannot pick ids that collide. Every flow id and every sender, IPv4 or
/// IPv6, is an ordinary entry.
///
/// A shard that panics while it holds the lock leaves the map whole (an
/// insert or a lookup has no half-done state a caller can see), so the
/// other shards read through the poison rather than fail with it.
pub struct FlowDirectory {
    senders: RwLock<HashMap<u64, SocketAddr>>,
}

/// Probe bound of a shard's [`SenderTable`]: it rekeys rather than
/// exceed it, and a lookup stops there too (or at the first empty slot).
const MAX_PROBES: usize = 64;

/// The hash a [`SenderTable`] homes a flow with: SplitMix64's finalizer
/// over `flow ^ key`, with `key` drawn by [`fresh_key`]; the home slot
/// is `flow_hash(flow, key) & mask`.
#[inline]
fn flow_hash(flow: u64, key: u64) -> u64 {
    let mut z = flow ^ key;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A hash key nobody outside the process can predict: std's per-process
/// random SipHash keys (advanced on every draw) applied to a constant.
fn fresh_key() -> u64 {
    RandomState::new().hash_one(0x5EED_u64)
}

impl FlowDirectory {
    /// An empty directory with room for `capacity` flows; it grows as
    /// flows are published.
    pub fn new(capacity: usize) -> Self {
        FlowDirectory {
            senders: RwLock::new(HashMap::with_capacity(capacity)),
        }
    }

    /// Maps `flow` to `sender`, replacing the sender published before.
    pub fn publish(&self, flow: u64, sender: SocketAddr) {
        let mut senders = self.senders.write().unwrap_or_else(PoisonError::into_inner);
        senders.insert(flow, sender);
    }

    /// The flow's sender, if any shard has published it.
    pub fn lookup(&self, flow: u64) -> Option<SocketAddr> {
        let senders = self.senders.read().unwrap_or_else(PoisonError::into_inner);
        senders.get(&flow).copied()
    }
}

/// A shard's private flow → sender table: open addressing, linear
/// probing, a power-of-two slot array kept under half full (the insert
/// that would fill half of it doubles it first) and never shrunk, so
/// most flows sit in their home slot and the probe's one branch
/// predicts. The home slot is [`flow_hash`] under a key of the table's
/// own from [`fresh_key`], and no entry ever sits more than
/// [`MAX_PROBES`] probes from home: an insert that would have to probe
/// further redraws the key and rehashes instead (every further failed
/// draw also doubles the table). Every insert and lookup is therefore
/// at most [`MAX_PROBES`] probes, whatever flow ids arrive. Empty slots
/// are `None`, so every flow id, 0 and `u64::MAX` included, is an
/// ordinary key.
pub(crate) struct SenderTable {
    slots: Box<[Option<(u64, SocketAddr)>]>,
    len: usize,
    key: u64,
}

/// Where a flow is, or would go, in a [`SenderTable`].
enum Probe {
    /// The slot holding the flow.
    Hit(usize),
    /// The first empty slot on the flow's probe run: the flow is absent.
    Vacant(usize),
    /// [`MAX_PROBES`] slots held other flows: the flow is absent, and
    /// inserting it means rekeying.
    Overflow,
}

impl SenderTable {
    const INITIAL_SLOTS: usize = 16;

    pub(crate) fn new() -> Self {
        Self::with_key(fresh_key())
    }

    fn with_key(key: u64) -> Self {
        SenderTable {
            slots: vec![None; Self::INITIAL_SLOTS].into_boxed_slice(),
            len: 0,
            key,
        }
    }

    fn probe(&self, flow: u64) -> Probe {
        let mask = self.slots.len() - 1;
        let mut i = flow_hash(flow, self.key) as usize & mask;
        for _ in 0..MAX_PROBES {
            match self.slots[i] {
                None => return Probe::Vacant(i),
                Some((f, _)) if f == flow => return Probe::Hit(i),
                Some(_) => i = (i + 1) & mask,
            }
        }
        Probe::Overflow
    }

    pub(crate) fn get(&self, flow: u64) -> Option<SocketAddr> {
        match self.probe(flow) {
            Probe::Hit(i) => self.slots[i].map(|(_, addr)| addr),
            _ => None,
        }
    }

    /// Maps `flow` to `addr`; true when that is new or changed.
    #[inline]
    pub(crate) fn insert(&mut self, flow: u64, addr: SocketAddr) -> bool {
        match self.probe(flow) {
            Probe::Hit(i) => match &mut self.slots[i] {
                Some((_, known)) if *known != addr => {
                    *known = addr;
                    true
                }
                _ => false,
            },
            _ => self.insert_new(flow, addr),
        }
    }

    /// [`SenderTable::insert`] of a flow not in the table.
    #[cold]
    #[inline(never)]
    fn insert_new(&mut self, flow: u64, addr: SocketAddr) -> bool {
        loop {
            match self.probe(flow) {
                Probe::Vacant(i) if 2 * (self.len + 1) < self.slots.len() => {
                    self.slots[i] = Some((flow, addr));
                    self.len += 1;
                    return true;
                }
                Probe::Vacant(_) => self.rehash(2 * self.slots.len(), self.key),
                Probe::Overflow => self.rehash(self.slots.len(), fresh_key()),
                Probe::Hit(_) => unreachable!("a rehash keeps the flow absent"),
            }
        }
    }

    /// Moves every entry into `cap` slots under `key`; should one land
    /// past [`MAX_PROBES`], starts over under a fresh key and twice the
    /// slots, so the loop ends even for a table too big for its bound.
    fn rehash(&mut self, mut cap: usize, mut key: u64) {
        let entries: Vec<(u64, SocketAddr)> = self.slots.iter().flatten().copied().collect();
        'draw: loop {
            self.key = key;
            self.slots = vec![None; cap].into_boxed_slice();
            for &(flow, addr) in &entries {
                let Probe::Vacant(i) = self.probe(flow) else {
                    (cap, key) = (2 * cap, fresh_key());
                    continue 'draw;
                };
                self.slots[i] = Some((flow, addr));
            }
            return;
        }
    }
}

/// A running sharded relay.
///
/// Shard threads are owned by a supervisor thread ([`crate::supervisor`]):
/// a crashed or wedged shard is restarted on a fresh socket bound to the
/// same `SO_REUSEPORT` port, under the same [`ShardStats`] handle (so
/// counters stay monotone across restarts) and against the same shared
/// [`FlowDirectory`] (so cross-shard feedback routing for in-flight flows
/// survives; the replacement re-learns private-table entries from each
/// flow's next data packet).
pub struct ShardedRelay {
    local_addr: SocketAddr,
    shard_stats: Vec<Arc<ShardStats>>,
    fault_stats: Arc<FaultStats>,
    directory: Arc<FlowDirectory>,
    recorder: LatencyRecorder,
    stop: Arc<AtomicBool>,
    supervisor: Option<thread::JoinHandle<()>>,
    slots: Vec<Arc<ShardSlot>>,
    shared: Arc<SupervisorShared>,
    layer: SocketLayer,
}

impl ShardedRelay {
    /// Binds `config.shards` sockets on `listen` (one port, kernel
    /// flow steering) and starts one relay thread per shard, plus the
    /// supervisor thread that owns them.
    ///
    /// # Errors
    /// Socket/bind errors, `Unsupported` for a forced-mmsg layer off
    /// Linux, or `InvalidInput` for a fault plan that is invalid, or that
    /// the socket shim cannot run ([`fault::check_plan`]).
    pub fn start(listen: SocketAddr, config: RelayConfig) -> io::Result<ShardedRelay> {
        if let Some((plan, _)) = &config.faults {
            fault::check_plan(plan).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        }
        let shards = effective_shards(config.shards);
        // The blackout schedule (and every shard's fault clock) is
        // anchored here, not per worker spawn, so restarted shards stay
        // on the relay-wide schedule.
        let epoch = Instant::now();
        let first = batch::bind_reuseport(listen)?;
        let local_addr = first.local_addr()?;
        let mut prebound: Vec<Option<std::net::UdpSocket>> = vec![Some(first)];
        for _ in 1..shards {
            prebound.push(Some(batch::bind_reuseport(local_addr)?));
        }

        let directory = Arc::new(FlowDirectory::new(0));
        let recorder = LatencyRecorder::new();
        let stop = Arc::new(AtomicBool::new(false));
        let fault_stats = Arc::new(FaultStats::default());
        let shared = Arc::new(SupervisorShared::default());
        let layer = config.layer.resolved();
        let shard_stats: Vec<Arc<ShardStats>> = (0..shards)
            .map(|_| Arc::new(ShardStats::default()))
            .collect();
        let slots: Vec<Arc<ShardSlot>> = (0..shards).map(|_| Arc::new(ShardSlot::new())).collect();

        // The one spawner, used for the initial generation (prebound
        // sockets) and for every supervisor restart (fresh bind to the
        // same port). Everything a worker needs outlives the worker:
        // stats, slots, the directory.
        let mut spawn = {
            let config = config.clone();
            let directory = directory.clone();
            let recorder = recorder.clone();
            let stop = stop.clone();
            let fault_stats = fault_stats.clone();
            let shard_stats = shard_stats.clone();
            let slots = slots.clone();
            move |shard_id: usize, generation: u64| -> io::Result<thread::JoinHandle<()>> {
                let socket = match prebound[shard_id].take() {
                    Some(s) => s,
                    None => bind_with_retry(local_addr)?,
                };
                let inner = batch::open(socket, config.layer)?;
                let io: Box<dyn BatchIo> = match &config.faults {
                    Some((plan, seed)) => {
                        // Per shard × generation fault stream: a restart
                        // never replays the exact fault sequence that
                        // killed (or starved) the previous incarnation,
                        // while the run stays seed-reproducible.
                        let seed =
                            trace::derive_seed(*seed, ((shard_id as u64) << 32) | generation);
                        Box::new(FaultedIo::new(
                            inner,
                            plan,
                            seed,
                            epoch,
                            fault_stats.clone(),
                        ))
                    }
                    None => inner,
                };
                let worker = ShardWorker {
                    io,
                    step: ShardStep::new(
                        config.kind,
                        config.receiver,
                        directory.clone(),
                        config.overload,
                    ),
                    epoch,
                    stats: shard_stats[shard_id].clone(),
                    stop: stop.clone(),
                    recorder: recorder.clone(),
                    slot: slots[shard_id].clone(),
                    my_gen: generation,
                };
                thread::Builder::new()
                    .name(format!("relay-shard-{shard_id}.g{generation}"))
                    .spawn(move || worker.run())
            }
        };

        let mut handles = Vec::with_capacity(shards);
        for shard_id in 0..shards {
            handles.push(spawn(shard_id, 0)?);
        }
        let supervisor = {
            let slots = slots.clone();
            let stop = stop.clone();
            let shared = shared.clone();
            thread::Builder::new()
                .name("relay-supervisor".into())
                .spawn(move || supervisor::supervise(slots, handles, stop, shared, spawn))?
        };

        Ok(ShardedRelay {
            local_addr,
            shard_stats,
            fault_stats,
            directory,
            recorder,
            stop,
            supervisor: Some(supervisor),
            slots,
            shared,
            layer,
        })
    }

    /// The shared bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of running shards.
    pub fn shards(&self) -> usize {
        self.shard_stats.len()
    }

    /// The socket layer in use.
    pub fn layer(&self) -> SocketLayer {
        self.layer
    }

    /// Merged counters across shards (the only cross-shard read).
    pub fn stats(&self) -> RelayStats {
        let mut merged = RelayStats::default();
        for s in &self.shard_stats {
            merged.merge(s);
        }
        merged
    }

    /// Fault-injection counters (all zero when `faults` was `None`).
    pub fn fault_stats(&self) -> FaultSnapshot {
        self.fault_stats.snapshot()
    }

    /// The shared cross-shard flow directory (survives shard restarts).
    pub fn directory(&self) -> &FlowDirectory {
        &self.directory
    }

    /// Supervision activity so far: restarts, crash/wedge detections,
    /// abandoned shards.
    pub fn supervisor_stats(&self) -> SupervisorStats {
        let mut stats = SupervisorStats::default();
        stats.merge(&self.shared);
        stats
    }

    /// Injects a simulated crash into `shard` (consumed at its next
    /// loop iteration): the worker thread exits, dropping its socket.
    pub fn inject_crash(&self, shard: usize) {
        self.slots[shard].inject(ChaosKind::Crash);
    }

    /// Injects a simulated wedge into `shard`: the worker stops beating
    /// but holds its socket open until the supervisor supersedes it.
    pub fn inject_wedge(&self, shard: usize) {
        self.slots[shard].inject(ChaosKind::Wedge);
    }

    /// The generation `shard` is (supposed to be) running; bumps count
    /// completed supersessions.
    pub fn shard_generation(&self, shard: usize) -> u64 {
        self.slots[shard].generation()
    }

    /// `shard`'s liveness counter (advances once per relay-loop
    /// iteration).
    pub fn shard_heartbeat(&self, shard: usize) -> u64 {
        self.slots[shard].heartbeat()
    }

    /// Per-datagram processing latency: the time from a receive batch's
    /// arrival in user space through classify, the send syscall and the
    /// counter flush, divided by its datagram count (the Figure 5b
    /// analogue; `stats().received / stats().batches` says how much
    /// amortisation that division hides).
    pub fn recorder(&self) -> &LatencyRecorder {
        &self.recorder
    }

    /// Signals every shard to stop and waits (via the supervisor, which
    /// owns the worker handles) for them to exit. Idempotent.
    pub fn shutdown(&mut self) {
        // ordering: Release — pairs with the Acquire polls in
        // `ShardWorker::run` and `supervisor::supervise`, so a thread
        // that observes the flag also observes everything the
        // shutting-down thread did before it.
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ShardedRelay {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds a replacement `SO_REUSEPORT` socket for a restarted shard.
///
/// On Linux this succeeds immediately (the port is shared). On the
/// portable single-shard path there is no `SO_REUSEPORT`, so the port
/// only frees up once the previous incarnation's socket is fully
/// closed — a wedged orphan may hold it for a poll or two. A short
/// bounded retry covers that window; a persistent failure surfaces to
/// the supervisor, which burns restart budget and eventually gives up.
fn bind_with_retry(addr: SocketAddr) -> io::Result<std::net::UdpSocket> {
    const ATTEMPTS: usize = 3;
    let mut last_err = None;
    for attempt in 0..ATTEMPTS {
        if attempt > 0 {
            thread::sleep(Duration::from_millis(5));
        }
        match batch::bind_reuseport(addr) {
            Ok(s) => return Ok(s),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.expect("at least one bind attempt"))
}

/// Shard count after platform clamping: 0 = one per core; >1 requires
/// `SO_REUSEPORT`.
pub fn effective_shards(requested: usize) -> usize {
    let want = if requested == 0 {
        thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    if batch::reuseport_available() {
        want.max(1)
    } else {
        1
    }
}

/// `d` in nanoseconds (saturating: no relay runs 584 years).
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One shard's run loop and what it owns besides its step: the socket,
/// the counters, the supervision slot and the clock.
struct ShardWorker {
    io: Box<dyn BatchIo>,
    step: ShardStep,
    /// The relay's start, shared by every shard and generation: the
    /// step's clock is nanoseconds since it.
    epoch: Instant,
    stats: Arc<ShardStats>,
    stop: Arc<AtomicBool>,
    recorder: LatencyRecorder,
    /// Supervision slot shared with the supervisor thread.
    slot: Arc<ShardSlot>,
    /// The generation this incarnation was spawned as; a bumped slot
    /// generation means we have been superseded and must exit.
    my_gen: u64,
}

/// Errors a shard absorbs by retrying instead of dying: the
/// EAGAIN family (`WouldBlock` / `TimedOut` / `Interrupted`) and ENOBUFS
/// (`OutOfMemory`), whether real or synthesized by the fault shim.
fn is_transient_io(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut
            | io::ErrorKind::Interrupted
            | io::ErrorKind::OutOfMemory
    )
}

impl ShardWorker {
    fn run(mut self) {
        let mut ring = RecvRing::new();
        let mut queue = SendQueue::new();
        // The end of the last batch (its flush included), where the
        // next receive's time starts.
        let mut idle_since = Instant::now();
        loop {
            // ordering: Acquire — pairs with the Release store in
            // `ShardedRelay::shutdown`.
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            // Superseded (wedge recovery): exit and release the socket,
            // which is what actually ends the blackhole.
            if self.slot.generation() != self.my_gen {
                return;
            }
            self.slot.beat();
            match self.slot.take_chaos() {
                None => {}
                // Simulated crash: die as after a hard socket error.
                Some(ChaosKind::Crash) => return,
                // Simulated wedge: stop servicing the socket but keep
                // it open — flows steered here blackhole until the
                // supervisor notices the stale heartbeat.
                Some(ChaosKind::Wedge) => {
                    self.wedge_stall();
                    return;
                }
            }
            let got = match self.io.recv_batch(&mut ring) {
                Ok(n) => n,
                Err(e) if is_transient_io(&e) => {
                    self.stats.flush(&RelayStats {
                        io_retries: 1,
                        ..RelayStats::default()
                    });
                    continue;
                }
                Err(_) => return, // socket died; the supervisor restarts us
            };
            // One batch per slice of at most BATCH datagrams, so that what
            // is sized or scoped by "a batch" — one send flush, one counter
            // flush, one latency sample, the shed ladder's refill and
            // per-flow NACK coalescing — keeps meaning that however many
            // datagrams one receive brought (see `BatchIo::recv_batch`).
            for first in (0..got).step_by(BATCH) {
                let batch = first..got.min(first + BATCH);
                let len = batch.len() as u64;
                let start = Instant::now();
                let mut counts = self
                    .step
                    .step(&mut ring, batch, self.clock(start), &mut queue);
                let stepped = Instant::now();
                counts.recv_ns = nanos(start - idle_since);
                counts.step_ns = nanos(stepped - start);
                let alive = self.send(&ring, &mut queue, counts);
                idle_since = Instant::now();
                // ordering: Relaxed — one more counter of this batch's
                // flush; see `ShardStats::flush`.
                self.stats
                    .send_ns
                    .fetch_add(nanos(idle_since - stepped), Ordering::Relaxed);
                self.recorder.record_nanos(nanos(idle_since - start) / len);
                if !alive {
                    return; // counters flushed; let the supervisor act
                }
            }
            if self.step.kind == RelayKind::Detecting {
                // The sweep queues only scratch NACKs, which never
                // reference `ring`, so what the ring holds is irrelevant
                // to the send.
                let counts = self.step.sweep(self.clock(Instant::now()), &mut queue);
                if !queue.is_empty() && !self.send(&ring, &mut queue, counts) {
                    return;
                }
            }
        }
    }

    /// `t` on the step's clock: nanoseconds since the relay started.
    fn clock(&self, t: Instant) -> u64 {
        nanos(t.duration_since(self.epoch))
    }

    /// Sends `queue` in one `send_batch`, empties it, and flushes `counts`
    /// plus what the send lost into the shard counters — unconditionally,
    /// *before* any error return, so a dying shard never loses a processed
    /// batch from the ledger. False when the socket died (a transient
    /// failure is a counted retry).
    fn send(&mut self, ring: &RecvRing, queue: &mut SendQueue, mut counts: RelayStats) -> bool {
        let alive = match self.io.send_batch(ring, queue) {
            Ok(outcome) => {
                counts.send_errors = outcome.errors;
                true
            }
            Err(e) => {
                // Whole-batch send failure: everything queued was lost.
                // Classify the unsent queue (data vs control) so the soak
                // ledger can account for each datagram even on this path.
                for i in 0..queue.len() {
                    if is_data_bytes(queue.resolve(ring, i).0) {
                        counts.send_err_data += 1;
                    } else {
                        counts.send_err_ctrl += 1;
                    }
                }
                counts.send_errors = queue.len() as u64;
                counts.io_retries = u64::from(is_transient_io(&e));
                is_transient_io(&e)
            }
        };
        queue.clear();
        self.stats.flush(&counts);
        alive
    }

    /// Simulated wedge: hold the socket open without servicing it until
    /// shutdown or supersession. Mirrors a worker stuck in a syscall or
    /// an infinite loop — the kernel keeps steering our share of flows
    /// into the unserviced receive queue the whole time.
    fn wedge_stall(&self) {
        loop {
            // ordering: Acquire — pairs with the Release stores in
            // `ShardedRelay::shutdown` / `ShardSlot::bump_generation`.
            if self.stop.load(Ordering::Acquire) || self.slot.generation() != self.my_gen {
                return;
            }
            thread::sleep(Duration::from_millis(1));
        }
    }
}

// The FlowDirectory and SenderTable tests below are pure (threads, no
// sockets) and run under Miri and TSAN, which check the directory's
// racing publishers and readers. Socket-driven relay tests live in
// `tests` and are skipped under Miri.
#[cfg(test)]
mod directory_tests {
    use super::*;
    use std::net::SocketAddr;
    use std::sync::Barrier;
    use std::thread;

    fn v4(t: u64, flow: u64) -> SocketAddr {
        SocketAddr::from(([10, t as u8, (flow >> 8) as u8, flow as u8], 1000))
    }

    /// Runs `f(i)` on `n` threads released together.
    fn race(n: usize, f: impl Fn(usize) + Sync) {
        let start = Barrier::new(n);
        thread::scope(|s| {
            for i in 0..n {
                let (start, f) = (&start, &f);
                s.spawn(move || {
                    start.wait();
                    f(i);
                });
            }
        });
    }

    /// Two shards publish one flow at once with different senders,
    /// IPv4 and IPv6: the flow ends up with one of them.
    #[test]
    fn racing_publishers_of_one_flow_leave_one_of_their_senders() {
        let senders: [SocketAddr; 2] = [
            "10.0.0.1:1111".parse().unwrap(),
            "[::1]:2222".parse().unwrap(),
        ];
        for flow in [7, 0, u64::MAX] {
            let dir = FlowDirectory::new(8);
            race(2, |i| dir.publish(flow, senders[i]));
            let got = dir.lookup(flow).expect("a published flow resolves");
            assert!(senders.contains(&got), "foreign sender {got}");
        }
    }

    /// A lookup racing the publish of its flow sees no sender or the
    /// exact one, and the publish is there once both are done.
    #[test]
    fn a_lookup_racing_a_publish_sees_none_or_the_exact_sender() {
        let sender: SocketAddr = "[::1]:3333".parse().unwrap();
        let rounds = if cfg!(miri) { 4 } else { 200 };
        for flow in 0..rounds {
            let dir = FlowDirectory::new(8);
            race(2, |i| match i {
                0 => dir.publish(flow, sender),
                _ => match dir.lookup(flow) {
                    None => {}
                    Some(got) => assert_eq!(got, sender, "foreign sender"),
                },
            });
            assert_eq!(dir.lookup(flow), Some(sender));
        }
    }

    /// Ids that collided in earlier directories, and the edge ids, from
    /// two publishers: every one resolves to its own sender. The
    /// families are 200 flows that share a home slot under one
    /// `flow_hash` key, and 65 that shared one under an unkeyed
    /// multiplicative hash; the edges are 0, `u64::MAX` and their
    /// neighbours.
    #[test]
    fn colliding_and_adversarial_ids_all_resolve() {
        const C: u64 = 0x9E37_79B9_7F4A_7C15;
        let inverse = super::sender_table_tests::odd_inverse(C);
        let keyed = (0..200).map(|j| super::sender_table_tests::flow_with_hash(j << 32, 0x5EED));
        let unkeyed = (1..66).map(|j: u64| (j << 32).wrapping_mul(inverse));
        let edges = [0, 1, u64::MAX - 1, u64::MAX];
        let flows: Vec<u64> = keyed.chain(unkeyed).chain(edges).collect();
        assert_eq!(
            flows
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            flows.len()
        );
        let dir = FlowDirectory::new(16);
        race(2, |i| {
            for (n, &flow) in flows.iter().enumerate().skip(i).step_by(2) {
                dir.publish(flow, v4(0, n as u64));
            }
        });
        for (n, &flow) in flows.iter().enumerate() {
            assert_eq!(dir.lookup(flow), Some(v4(0, n as u64)), "flow {flow:#x}");
        }
    }

    /// Three publishers grow an 8-flow directory while two readers look
    /// up: a reader sees only senders published for the flow, and
    /// afterwards every flow is found. Each publisher owns every third
    /// flow and races the next publisher over a quarter of its flows.
    #[test]
    fn growth_past_the_starting_capacity_while_readers_look_up() {
        let flows: u64 = if cfg!(miri) { 48 } else { 4000 };
        let dir = FlowDirectory::new(8);
        race(5, |i| {
            let t = i as u64;
            if t < 3 {
                for flow in (0..flows).filter(|f| f % 3 == t || f % 12 == (t + 1) % 3) {
                    dir.publish(flow, v4(t, flow));
                }
            } else {
                for flow in (0..flows).chain(0..flows) {
                    if let Some(got) = dir.lookup(flow) {
                        assert!((0..3).any(|t| got == v4(t, flow)), "foreign {got}");
                    }
                }
            }
        });
        for flow in 0..flows {
            let got = dir.lookup(flow).expect("every published flow found");
            assert!((0..3).any(|t| got == v4(t, flow)), "foreign {got}");
        }
    }
}

#[cfg(test)]
mod sender_table_tests {
    use super::*;
    use std::collections::BTreeMap;
    use trace::{cases, SplitMix64};

    /// `a^-1 mod 2^64` for odd `a` (Newton: each step doubles the
    /// correct low bits, from the 3 that `a * a = 1 mod 8` gives).
    pub(super) fn odd_inverse(a: u64) -> u64 {
        let mut x = a;
        for _ in 0..5 {
            x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
        }
        assert_eq!(a.wrapping_mul(x), 1);
        x
    }

    /// The `x` with `x ^ (x >> shift) == y`.
    fn unshift(y: u64, shift: u32) -> u64 {
        let (mut x, mut t) = (y, y >> shift);
        while t != 0 {
            x ^= t;
            t >>= shift;
        }
        x
    }

    /// The flow whose [`flow_hash`] under `key` is `hash`.
    pub(super) fn flow_with_hash(hash: u64, key: u64) -> u64 {
        let z = unshift(hash, 31).wrapping_mul(odd_inverse(0x94D0_49BB_1331_11EB));
        let z = unshift(z, 27).wrapping_mul(odd_inverse(0xBF58_476D_1CE4_E5B9));
        unshift(z, 30) ^ key
    }

    /// The longest probe any entry takes to be found.
    fn longest_probe(table: &SenderTable) -> usize {
        let mask = table.slots.len() - 1;
        let home = |flow| flow_hash(flow, table.key) as usize;
        (table.slots.iter().enumerate())
            .filter_map(|(i, slot)| slot.map(|(flow, _)| (i.wrapping_sub(home(flow)) & mask) + 1))
            .max()
            .unwrap_or(0)
    }

    fn addr(n: u64) -> SocketAddr {
        SocketAddr::from(([10, 0, (n >> 8) as u8, n as u8], 1000 + n as u16))
    }

    /// Inserts, changed-address re-inserts and lookups against a
    /// `BTreeMap` model, with the ids a sentinel or a truncation would
    /// trip on, growing from 16 slots past six doublings.
    #[test]
    fn sender_table_matches_a_btreemap() {
        let edges = [
            0,
            1,
            u64::MAX,
            u64::MAX - 1,
            (1 << 31) - 1,
            1 << 31,
            (1 << 31) + 1,
            (1 << 32) | (1 << 31),
            (1 << 63) - 1,
            1 << 63,
            (1 << 63) + 1,
        ];
        cases(29, 24, |_, rng: &mut SplitMix64| {
            let mut table = SenderTable::new();
            let mut model = BTreeMap::new();
            let flows = 32 + rng.next_bounded(1000) as usize;
            let pool: Vec<u64> = edges
                .iter()
                .copied()
                .chain((0..flows).map(|_| rng.next_u64()))
                .collect();
            for _ in 0..3 * pool.len() {
                let flow = pool[rng.next_bounded(pool.len() as u64) as usize];
                if rng.next_bounded(3) == 0 {
                    assert_eq!(table.get(flow), model.get(&flow).copied(), "get {flow}");
                } else {
                    let to = addr(rng.next_bounded(4));
                    let changed = model.insert(flow, to) != Some(to);
                    assert_eq!(table.insert(flow, to), changed, "insert {flow}");
                }
            }
            assert_eq!(table.len, model.len());
            assert!(2 * table.len < table.slots.len());
            assert!(longest_probe(&table) <= MAX_PROBES);
            for &flow in &pool {
                assert_eq!(table.get(flow), model.get(&flow).copied(), "final {flow}");
            }
        });
    }

    /// A flood of ids chosen to share one home slot under a known key
    /// never pushes a probe run past the bound: the insert that would
    /// rekeys, and every id stays findable.
    #[test]
    fn sender_table_rekeys_under_a_colliding_flood() {
        const KEY: u64 = 0x0123_4567_89AB_CDEF;
        // Low 32 hash bits zero: home slot 0 at any table size.
        let flood: Vec<u64> = (1..=300).map(|j| flow_with_hash(j << 32, KEY)).collect();
        assert!(flood.iter().all(|&f| flow_hash(f, KEY) as u32 == 0));
        let mut table = SenderTable::with_key(KEY);
        for (n, &flow) in flood.iter().enumerate() {
            assert!(table.insert(flow, addr(n as u64)));
            assert!(longest_probe(&table) <= MAX_PROBES, "after {n} inserts");
        }
        assert_ne!(table.key, KEY, "the flood forced a rekey");
        for (n, &flow) in flood.iter().enumerate() {
            assert_eq!(table.get(flow), Some(addr(n as u64)));
        }
    }
}

#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;
    use crate::testutil::{loopback, wait_for};
    use crate::wire::{Flags, WireHeader, WIRE_HEADER_LEN};
    use std::net::UdpSocket;

    fn recv_one(sock: &UdpSocket) -> (WireHeader, Vec<u8>, SocketAddr) {
        let mut buf = [0u8; 2048];
        sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let (n, from) = sock.recv_from(&mut buf).expect("timely datagram");
        let (h, p) = WireHeader::decode(&buf[..n]).expect("wire");
        (h, p.to_vec(), from)
    }

    fn layers() -> Vec<SocketLayer> {
        if cfg!(target_os = "linux") {
            vec![SocketLayer::Mmsg, SocketLayer::Fallback]
        } else {
            vec![SocketLayer::Fallback]
        }
    }

    fn start(kind: RelayKind, layer: SocketLayer, receiver: SocketAddr) -> ShardedRelay {
        ShardedRelay::start(
            loopback(),
            RelayConfig {
                kind,
                shards: 2,
                layer,
                ..RelayConfig::streamlined(receiver)
            },
        )
        .expect("relay starts")
    }

    /// A plan the shim cannot run, or an invalid one, stops the relay
    /// before it binds anything.
    #[test]
    fn start_refuses_a_plan_the_shim_cannot_run() {
        use dcsim::packet::{AgentId, PortId};
        use dcsim::time::SimTime;
        for plan in [
            FaultPlan::new().port_loss(PortId(2), 0.1),
            FaultPlan::new().crash_agent(AgentId(0), SimTime::ZERO),
            FaultPlan::new().crash_shard(0, SimTime::ZERO),
            FaultPlan::new().port_loss(fault::INBOUND, 1.5),
        ] {
            let config = RelayConfig {
                faults: Some((plan.clone(), 1)),
                ..RelayConfig::streamlined(loopback())
            };
            let err = ShardedRelay::start(loopback(), config)
                .err()
                .expect("refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{plan:?}");
            let why = fault::check_plan(&plan).unwrap_err().to_string();
            assert_eq!(err.to_string(), why);
        }
    }

    #[test]
    fn streamlined_forwards_data_both_layers() {
        for layer in layers() {
            let receiver = UdpSocket::bind(loopback()).unwrap();
            let relay = start(
                RelayKind::Streamlined,
                layer,
                receiver.local_addr().unwrap(),
            );
            let sender = UdpSocket::bind(loopback()).unwrap();
            let wire = WireHeader::data(3, 1, 4).encode(&[9, 9, 9, 9]);
            sender.send_to(&wire, relay.local_addr()).unwrap();
            let (h, p, _) = recv_one(&receiver);
            assert_eq!(h.flow, 3);
            assert_eq!(p, vec![9, 9, 9, 9]);
            wait_for(|| relay.stats().forwarded == 1);
        }
    }

    #[test]
    fn streamlined_nacks_trimmed_both_layers() {
        for layer in layers() {
            let receiver = UdpSocket::bind(loopback()).unwrap();
            let relay = start(
                RelayKind::Streamlined,
                layer,
                receiver.local_addr().unwrap(),
            );
            let sender = UdpSocket::bind(loopback()).unwrap();
            sender
                .send_to(&WireHeader::trimmed(3, 42).encode(&[]), relay.local_addr())
                .unwrap();
            let (h, _, from) = recv_one(&sender);
            assert_eq!(from, relay.local_addr());
            assert_eq!(h, WireHeader::nack(3, 42));
            wait_for(|| relay.stats().nacks == 1);
        }
    }

    #[test]
    fn incast_burst_conserves_every_datagram_both_layers() {
        for layer in layers() {
            let receiver = UdpSocket::bind(loopback()).unwrap();
            let relay = start(
                RelayKind::Streamlined,
                layer,
                receiver.local_addr().unwrap(),
            );
            // 4 flows (one sender socket each) x 16 equal-size DATA, plus 2
            // trimmed headers per flow, all in flight at once: long
            // same-destination runs to the receiver, short ones back.
            let senders: Vec<UdpSocket> = (0..4)
                .map(|_| UdpSocket::bind(loopback()).unwrap())
                .collect();
            let payload = |flow: u64, seq: u64| -> Vec<u8> {
                (0..64).map(|b| (flow * 16 + seq) as u8 ^ b).collect()
            };
            for seq in 0..18u64 {
                for (flow, sender) in senders.iter().enumerate() {
                    let flow = flow as u64;
                    let wire = if seq < 16 {
                        WireHeader::data(flow, seq, 64).encode(&payload(flow, seq))
                    } else {
                        WireHeader::trimmed(flow, seq).encode(&[])
                    };
                    sender.send_to(&wire, relay.local_addr()).unwrap();
                }
            }
            let mut seen = std::collections::HashSet::new();
            for _ in 0..64 {
                let (h, p, from) = recv_one(&receiver);
                assert_eq!(from, relay.local_addr());
                assert_eq!(p, payload(h.flow, h.seq), "{layer:?}: payload intact");
                assert!(seen.insert((h.flow, h.seq)), "{layer:?}: delivered once");
            }
            for (flow, sender) in senders.iter().enumerate() {
                let mut nacked: Vec<u64> = (0..2)
                    .map(|_| {
                        let (h, _, from) = recv_one(sender);
                        assert_eq!(from, relay.local_addr());
                        assert_eq!((h.flags, h.flow), (Flags::NACK, flow as u64));
                        h.seq
                    })
                    .collect();
                nacked.sort_unstable();
                assert_eq!(nacked, [16, 17], "{layer:?}: flow {flow} NACKs");
            }
            wait_for(|| relay.stats().received == 72);
            let stats = relay.stats();
            assert_eq!(
                (
                    stats.forwarded,
                    stats.nacks,
                    stats.send_errors,
                    stats.dropped
                ),
                (64, 8, 0, 0),
                "{layer:?}"
            );
        }
    }

    #[test]
    fn reverse_path_crosses_shards_via_directory() {
        let kinds = [
            RelayKind::Streamlined,
            RelayKind::Naive,
            RelayKind::Detecting,
        ];
        for (layer, kind) in layers().into_iter().flat_map(|l| kinds.map(|k| (l, k))) {
            let receiver = UdpSocket::bind(loopback()).unwrap();
            let relay = start(kind, layer, receiver.local_addr().unwrap());
            let sender = UdpSocket::bind(loopback()).unwrap();
            // Teach the relay flow 8's sender with a data packet.
            sender
                .send_to(&WireHeader::data(8, 0, 1).encode(&[1]), relay.local_addr())
                .unwrap();
            recv_one(&receiver);
            // The receiver's ACK may land on either shard; the flow
            // directory must route it back regardless.
            receiver
                .send_to(&WireHeader::ack(8, 0).encode(&[]), relay.local_addr())
                .unwrap();
            let (h, _, _) = recv_one(&sender);
            assert_eq!(h, WireHeader::ack(8, 0), "{layer:?} {kind:?}");
            wait_for(|| relay.stats().reversed == 1);
        }
    }

    #[test]
    fn unroutable_receiver_counts_send_errors_and_keeps_the_ledger() {
        // Port 0 is never a valid destination: every forward is refused.
        let unroutable: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let kinds = [RelayKind::Streamlined, RelayKind::Detecting];
        for (layer, kind) in layers().into_iter().flat_map(|l| kinds.map(|k| (l, k))) {
            let relay = start(kind, layer, unroutable);
            let sender = UdpSocket::bind(loopback()).unwrap();
            sender
                .send_to(
                    &WireHeader::data(3, 0, 4).encode(&[9, 9, 9, 9]),
                    relay.local_addr(),
                )
                .unwrap();
            wait_for(|| relay.stats().send_errors == 1);
            // Counted, not swallowed: one in, one forward attempted, and
            // that one attempt is the error.
            let stats = relay.stats();
            assert_eq!(
                (stats.received, stats.forwarded, stats.dropped, stats.nacks),
                (1, 1, 0, 0),
                "{layer:?} {kind:?}"
            );
        }
    }

    /// One flow through one shard: `count` datagrams in paced bursts,
    /// every `trim_every`-th a trimmed header. Whatever the mix, the
    /// receiver sees the data in sequence order and the sender gets back
    /// exactly one NACK per trimmed header, carrying that header's seq.
    #[test]
    fn paced_flow_keeps_order_and_nacks_every_trim() {
        const COUNT: u64 = 600; // its NACKs fit the sender's default receive buffer
        for (layer, trim_every) in layers().into_iter().flat_map(|l| [(l, None), (l, Some(5))]) {
            let receiver = UdpSocket::bind(loopback()).unwrap();
            let relay = ShardedRelay::start(
                loopback(),
                RelayConfig {
                    shards: 1,
                    layer,
                    ..RelayConfig::streamlined(receiver.local_addr().unwrap())
                },
            )
            .unwrap();
            let is_trimmed = |seq: u64| trim_every.is_some_and(|k| seq.is_multiple_of(k));
            let trimmed: Vec<u64> = (0..COUNT).filter(|&s| is_trimmed(s)).collect();
            let data = COUNT as usize - trimmed.len();
            let collector = std::thread::spawn(move || {
                (0..data)
                    .map(|_| recv_one(&receiver).0.seq)
                    .collect::<Vec<u64>>()
            });
            let sender = UdpSocket::bind(loopback()).unwrap();
            for seq in 0..COUNT {
                let wire = if is_trimmed(seq) {
                    WireHeader::trimmed(2, seq).encode(&[])
                } else {
                    WireHeader::data(2, seq, 64).encode(&[0x17; 64])
                };
                sender.send_to(&wire, relay.local_addr()).unwrap();
                if seq % 32 == 31 {
                    std::thread::sleep(Duration::from_millis(1)); // ~32k pkts/s
                }
            }
            let got = collector.join().unwrap();
            assert!(
                got.windows(2).all(|w| w[0] < w[1]),
                "{layer:?}: reordered within the flow: {got:?}"
            );
            let mut nacked: Vec<u64> = trimmed
                .iter()
                .map(|_| {
                    let (h, _, _) = recv_one(&sender);
                    assert_eq!((h.flags, h.flow), (Flags::NACK, 2), "{layer:?}");
                    h.seq
                })
                .collect();
            nacked.sort_unstable();
            assert_eq!(nacked, trimmed, "{layer:?}: one NACK per trim, own seq");
            wait_for(|| relay.stats().received == COUNT);
            let stats = relay.stats();
            assert_eq!(
                (stats.forwarded, stats.nacks, stats.send_errors),
                (data as u64, trimmed.len() as u64, 0),
                "{layer:?}"
            );
        }
    }

    #[test]
    fn garbage_dropped_and_counted() {
        for layer in layers() {
            let receiver = UdpSocket::bind(loopback()).unwrap();
            let relay = start(
                RelayKind::Streamlined,
                layer,
                receiver.local_addr().unwrap(),
            );
            let sender = UdpSocket::bind(loopback()).unwrap();
            sender.send_to(&[0xAB; 50], relay.local_addr()).unwrap();
            wait_for(|| relay.stats().dropped == 1);
            assert_eq!(relay.stats().forwarded, 0);
        }
    }

    /// A datagram longer than the protocol's longest is never forwarded,
    /// bounced or answered — whatever its header says, however it arrived —
    /// and is counted, one drop each.
    #[test]
    fn oversize_datagrams_are_dropped_and_counted_both_layers() {
        use crate::wire::{MAX_DATAGRAM, MAX_PAYLOAD};
        for layer in layers() {
            let receiver = UdpSocket::bind(loopback()).unwrap();
            let relay = start(
                RelayKind::Streamlined,
                layer,
                receiver.local_addr().unwrap(),
            );
            let sender = UdpSocket::bind(loopback()).unwrap();
            // Honest about a payload one byte too long.
            let long = WireHeader::data(3, 0, MAX_PAYLOAD as u16 + 1);
            sender
                .send_to(&long.encode(&[7; MAX_PAYLOAD + 1]), relay.local_addr())
                .unwrap();
            // A trimmed header that would parse, junk behind it.
            let mut padded = WireHeader::trimmed(3, 1).encode(&[]);
            padded.resize(MAX_DATAGRAM + 1, 0xEE);
            sender.send_to(&padded, relay.local_addr()).unwrap();
            let mut oversize = 2;
            // A train of oversize segments, each a header that would parse.
            #[cfg(target_os = "linux")]
            {
                let train = UdpSocket::bind(loopback()).unwrap();
                batch::set_gso_size(&train, 2000).unwrap();
                let mut segment = WireHeader::data(3, 2, 100).encode(&[7; 100]);
                segment.resize(2000, 0xEE);
                train
                    .send_to(&segment.repeat(3), relay.local_addr())
                    .unwrap();
                oversize += 3;
            }
            wait_for(|| relay.stats().dropped == oversize);
            // The relay goes on relaying.
            sender
                .send_to(&WireHeader::data(3, 9, 1).encode(&[1]), relay.local_addr())
                .unwrap();
            let (h, _, _) = recv_one(&receiver);
            assert_eq!(h.seq, 9, "{layer:?}: nothing oversize came first");
            wait_for(|| relay.stats().forwarded == 1);
            let stats = relay.stats();
            assert_eq!(
                (
                    stats.received,
                    stats.dropped,
                    stats.nacks,
                    stats.send_errors
                ),
                (oversize + 1, oversize, 0, 0),
                "{layer:?}"
            );
            for sock in [&sender, &receiver] {
                sock.set_nonblocking(true).unwrap();
                assert!(sock.recv_from(&mut [0u8; 16]).is_err(), "{layer:?}");
            }
        }
    }

    /// One receive may bring more than BATCH datagrams (several trains;
    /// here, every time, a BATCH-segment train whose every datagram the
    /// inbound duplicate fault copies into the same receive): it is
    /// relayed as batches of at most BATCH, and "one NACK per flow per
    /// batch" holds for each.
    #[test]
    fn a_long_receive_is_relayed_in_batches_both_layers() {
        use dcsim::faults::PortImpairment;
        const COUNT: u64 = BATCH as u64;
        let twice = FaultPlan {
            impairments: vec![PortImpairment {
                duplicate: 1.0,
                ..PortImpairment::none(fault::INBOUND)
            }],
            ..FaultPlan::new()
        };
        for layer in layers() {
            let receiver = UdpSocket::bind(loopback()).unwrap();
            let relay = ShardedRelay::start(
                loopback(),
                RelayConfig {
                    shards: 1,
                    layer,
                    overload: NonZeroU64::new(1_000_000_000),
                    faults: Some((twice.clone(), 1)),
                    ..RelayConfig::streamlined(receiver.local_addr().unwrap())
                },
            )
            .unwrap();
            let sender = UdpSocket::bind(loopback()).unwrap();
            let headers: Vec<u8> = (0..COUNT)
                .flat_map(|seq| WireHeader::trimmed(4, seq).encode(&[]))
                .collect();
            // One BATCH-segment train where the kernel takes one (Linux 6.9
            // raised the limit from 64 to 128), plain datagrams otherwise.
            #[cfg(target_os = "linux")]
            let as_train = {
                batch::set_gso_size(&sender, WIRE_HEADER_LEN as u16).unwrap();
                let sent = sender.send_to(&headers, relay.local_addr()).is_ok();
                batch::set_gso_size(&sender, 0).unwrap();
                sent
            };
            #[cfg(not(target_os = "linux"))]
            let as_train = false;
            if !as_train {
                for header in headers.chunks(WIRE_HEADER_LEN) {
                    sender.send_to(header, relay.local_addr()).unwrap();
                }
            }
            wait_for(|| relay.stats().received == 2 * COUNT);
            let stats = relay.stats();
            assert_eq!(relay.fault_stats().rx_duplicated, COUNT, "{layer:?}");
            assert!(stats.max_batch <= BATCH as u64, "{layer:?}: {stats:?}");
            assert!(stats.batches >= 2, "{layer:?}: {stats:?}");
            // Every batch held the flow, so every batch NACKed it once.
            assert_eq!(
                (stats.nacks, stats.nacks + stats.nacks_coalesced),
                (stats.batches, 2 * COUNT),
                "{layer:?}: {stats:?}"
            );
            if as_train && layer == SocketLayer::Mmsg {
                assert_eq!(
                    (stats.batches, stats.max_batch),
                    (2, BATCH as u64),
                    "{stats:?}"
                );
            }
        }
    }

    #[test]
    fn naive_forwards_trimmed_without_nacking() {
        for layer in layers() {
            let receiver = UdpSocket::bind(loopback()).unwrap();
            let relay = start(RelayKind::Naive, layer, receiver.local_addr().unwrap());
            let sender = UdpSocket::bind(loopback()).unwrap();
            sender
                .send_to(&WireHeader::trimmed(3, 42).encode(&[]), relay.local_addr())
                .unwrap();
            let (h, _, _) = recv_one(&receiver);
            assert!(h.flags.contains(Flags::TRIMMED), "trimmed forwarded as-is");
            let stats = relay.stats();
            assert_eq!(stats.nacks, 0, "naive never NACKs");
        }
    }

    #[test]
    fn detecting_nacks_inferred_gap() {
        for layer in layers() {
            let receiver = UdpSocket::bind(loopback()).unwrap();
            let recv_addr = receiver.local_addr().unwrap();
            std::thread::spawn(move || {
                let mut buf = [0u8; 2048];
                while receiver.recv_from(&mut buf).is_ok() {}
            });
            let relay = start(RelayKind::Detecting, layer, recv_addr);
            let sender = UdpSocket::bind(loopback()).unwrap();
            let payload = vec![0u8; 64];
            // An in-order stream gives the detector (and its sweep, two
            // periods here) nothing to infer.
            for seq in 0..50u64 {
                sender
                    .send_to(
                        &WireHeader::data(11, seq, 64).encode(&payload),
                        relay.local_addr(),
                    )
                    .unwrap();
            }
            wait_for(|| relay.stats().forwarded == 50);
            std::thread::sleep(Duration::from_millis(100));
            assert_eq!(relay.stats().nacks, 0, "{layer:?}: in-order, no NACKs");
            // Seq 1 is missing, and eight later ones declare it lost.
            for seq in (0u64..10).filter(|&seq| seq != 1) {
                sender
                    .send_to(
                        &WireHeader::data(7, seq, 64).encode(&payload),
                        relay.local_addr(),
                    )
                    .unwrap();
            }
            let (h, _, _) = recv_one(&sender);
            assert_eq!(h, WireHeader::nack(7, 1), "{layer:?}");
            wait_for(|| relay.stats().nacks >= 1);
        }
    }

    #[test]
    fn detecting_sweep_catches_tail_loss() {
        for layer in layers() {
            let receiver = UdpSocket::bind(loopback()).unwrap();
            let recv_addr = receiver.local_addr().unwrap();
            std::thread::spawn(move || {
                let mut buf = [0u8; 2048];
                while receiver.recv_from(&mut buf).is_ok() {}
            });
            let relay = start(RelayKind::Detecting, layer, recv_addr);
            let sender = UdpSocket::bind(loopback()).unwrap();
            let payload = vec![0u8; 64];
            for seq in [0u64, 2] {
                sender
                    .send_to(
                        &WireHeader::data(9, seq, 64).encode(&payload),
                        relay.local_addr(),
                    )
                    .unwrap();
            }
            let (h, _, _) = recv_one(&sender);
            assert!(h.flags.contains(Flags::NACK));
            assert_eq!(h.seq, 1);
        }
    }

    /// Counted, never silent: when the sweep's one send fails wholesale,
    /// the NACKs it queued are in `nacks`, `send_errors` and
    /// `send_err_ctrl` and the failure is an `io_retries`, as for a batch.
    #[test]
    fn a_failed_sweep_send_is_counted_both_layers() {
        use dcsim::faults::SyscallErrors;
        for layer in layers() {
            let receiver = UdpSocket::bind(loopback()).unwrap();
            let mut relay = ShardedRelay::start(
                loopback(),
                RelayConfig {
                    kind: RelayKind::Detecting,
                    shards: 1,
                    layer,
                    // Every non-empty send fails with the synthetic ENOBUFS.
                    faults: Some((
                        FaultPlan {
                            syscall_errors: vec![SyscallErrors {
                                port: fault::OUTBOUND,
                                again: 0.0,
                                nobufs: 1.0,
                            }],
                            ..FaultPlan::new()
                        },
                        1,
                    )),
                    ..RelayConfig::streamlined(receiver.local_addr().unwrap())
                },
            )
            .unwrap();
            let sender = UdpSocket::bind(loopback()).unwrap();
            // Tail loss: nothing follows seq 2 to reveal the gap at 1, so
            // only the sweep NACKs it.
            for seq in [0u64, 2] {
                sender
                    .send_to(
                        &WireHeader::data(9, seq, 4).encode(&[9; 4]),
                        relay.local_addr(),
                    )
                    .unwrap();
            }
            wait_for(|| relay.stats().send_err_ctrl >= 1);
            relay.shutdown();
            let (stats, faults) = (relay.stats(), relay.fault_stats());
            // Nothing left the socket, and the counters say exactly that.
            assert_eq!(
                (stats.forwarded, stats.send_err_data),
                (2, 2),
                "{layer:?}: {stats:?}"
            );
            assert_eq!(stats.nacks, stats.send_err_ctrl, "{layer:?}: {stats:?}");
            assert_eq!(
                stats.send_errors,
                stats.send_err_data + stats.send_err_ctrl,
                "{layer:?}: {stats:?}"
            );
            assert_eq!(
                stats.io_retries, faults.synth_send_errors,
                "{layer:?}: {stats:?}"
            );
            for sock in [&sender, &receiver] {
                sock.set_nonblocking(true).unwrap();
                assert!(sock.recv_from(&mut [0u8; 16]).is_err(), "{layer:?}");
            }
        }
    }

    /// The detector tracks each 64-bit wire flow on its own: two flows
    /// that differ only above bit 31 neither fill nor open each other's
    /// gaps.
    #[test]
    fn detecting_keeps_flows_apart_above_bit_31_both_layers() {
        const F: u64 = 7;
        const G: u64 = F + (1 << 32);
        for layer in layers() {
            let receiver = UdpSocket::bind(loopback()).unwrap();
            let recv_addr = receiver.local_addr().unwrap();
            std::thread::spawn(move || {
                let mut buf = [0u8; 2048];
                while receiver.recv_from(&mut buf).is_ok() {}
            });
            let relay = ShardedRelay::start(
                loopback(),
                RelayConfig {
                    kind: RelayKind::Detecting,
                    shards: 1, // one detector sees both flows
                    layer,
                    ..RelayConfig::streamlined(recv_addr)
                },
            )
            .unwrap();
            let (f, g) = (
                UdpSocket::bind(loopback()).unwrap(),
                UdpSocket::bind(loopback()).unwrap(),
            );
            let data = |flow, seq| WireHeader::data(flow, seq, 4).encode(&[7; 4]);
            // F loses seq 5; G, in step with it, loses nothing — and its
            // seq 5 must not pass for F's.
            for seq in 0..20u64 {
                if seq != 5 {
                    f.send_to(&data(F, seq), relay.local_addr()).unwrap();
                }
                g.send_to(&data(G, seq), relay.local_addr()).unwrap();
            }
            let (h, _, _) = recv_one(&f);
            assert_eq!(h, WireHeader::nack(F, 5), "{layer:?}");
            // The retransmission settles F, so the sweeps (two periods
            // here) have nothing to repeat.
            f.send_to(&data(F, 5), relay.local_addr()).unwrap();
            wait_for(|| relay.stats().received == 40);
            std::thread::sleep(Duration::from_millis(100));
            assert_eq!(relay.stats().nacks, 1, "{layer:?}");
            for sock in [&f, &g] {
                sock.set_nonblocking(true).unwrap();
                assert!(sock.recv_from(&mut [0u8; 16]).is_err(), "{layer:?}");
            }
        }
    }

    #[test]
    fn records_processing_latency() {
        let receiver = UdpSocket::bind(loopback()).unwrap();
        let relay = start(
            RelayKind::Streamlined,
            SocketLayer::Auto,
            receiver.local_addr().unwrap(),
        );
        let sender = UdpSocket::bind(loopback()).unwrap();
        for seq in 0..20 {
            sender
                .send_to(
                    &WireHeader::data(1, seq, 8).encode(&[0; 8]),
                    relay.local_addr(),
                )
                .unwrap();
        }
        let mut buf = [0u8; 2048];
        receiver
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut got = 0;
        while got < 20 {
            let (n, _) = receiver.recv_from(&mut buf).expect("forwarded");
            got += usize::from(n > 0);
        }
        wait_for(|| relay.recorder().count() >= 1);
        wait_for(|| relay.stats().max_batch >= 1);
    }

    fn one_shard(receiver: SocketAddr) -> ShardedRelay {
        let config = RelayConfig {
            shards: 1,
            ..RelayConfig::streamlined(receiver)
        };
        ShardedRelay::start(loopback(), config).expect("relay starts")
    }

    /// The directory starts empty and grows with what is published: 128
    /// flows fit in 32 KiB of entries.
    #[test]
    fn a_one_shard_relay_of_128_flows_keeps_a_small_directory() {
        let receiver = UdpSocket::bind(loopback()).unwrap();
        let relay = one_shard(receiver.local_addr().unwrap());
        let sender = UdpSocket::bind(loopback()).unwrap();
        for flow in 0..128 {
            let wire = WireHeader::data(flow, 0, 8).encode(&[0; 8]);
            sender.send_to(&wire, relay.local_addr()).unwrap();
        }
        wait_for(|| relay.stats().forwarded == 128);
        let dir = relay.directory();
        assert!((0..128).all(|flow| dir.lookup(flow) == Some(sender.local_addr().unwrap())));
        let entries = dir.senders.read().unwrap().capacity();
        let bytes = entries * std::mem::size_of::<(u64, SocketAddr)>();
        assert!(bytes <= 32 * 1024, "{entries} entries, {bytes} bytes");
    }

    /// The run loop splits each batch into receive, step and send; the
    /// three sums are nonzero after traffic and fit in the shard's life.
    #[test]
    fn receive_step_and_send_time_fit_in_the_shard_lifetime() {
        let born = Instant::now();
        let receiver = UdpSocket::bind(loopback()).unwrap();
        let mut relay = one_shard(receiver.local_addr().unwrap());
        let sender = UdpSocket::bind(loopback()).unwrap();
        for seq in 0..20 {
            let wire = WireHeader::data(1, seq, 8).encode(&[0; 8]);
            sender.send_to(&wire, relay.local_addr()).unwrap();
            recv_one(&receiver);
        }
        wait_for(|| relay.stats().send_ns > 0);
        relay.shutdown();
        let lifetime = born.elapsed().as_nanos() as u64;
        let stats = relay.stats();
        let layers = [stats.recv_ns, stats.step_ns, stats.send_ns];
        assert!(layers.iter().all(|&ns| ns > 0), "{layers:?}");
        assert!(
            layers.iter().sum::<u64>() <= lifetime,
            "{layers:?} > {lifetime}"
        );
    }

    #[test]
    fn shutdown_stops_all_shards() {
        let receiver = UdpSocket::bind(loopback()).unwrap();
        let mut relay = start(
            RelayKind::Streamlined,
            SocketLayer::Auto,
            receiver.local_addr().unwrap(),
        );
        assert!(relay.shards() >= 1);
        relay.shutdown();
        // Idempotent, and Drop after shutdown is fine too.
        relay.shutdown();
    }
}
