//! Deterministic fault injection for the batched datapath — the
//! real-socket twin of dcsim's `FaultPlan` (DESIGN.md §10).
//!
//! [`FaultedIo`] wraps any [`BatchIo`] implementation and perturbs the
//! traffic crossing it according to a declarative, seed-driven
//! [`FaultConfig`]: per-direction drop / corrupt / delay / duplicate
//! probabilities, synthetic transient syscall errors (`EAGAIN`,
//! `ENOBUFS`), and scheduled blackout windows during which the link
//! eats everything. All randomness comes from a [`trace::SplitMix64`]
//! stream derived from the config seed — two runs with the same seed
//! and traffic see the same fault decisions, so soak failures replay.
//!
//! Every perturbation increments a [`FaultStats`] counter, which is
//! what lets the `netproxy_soak` harness close its packet-accounting
//! ledger exactly: a faulted packet is never *lost*, it is *explained*.
//!
//! Fidelity choices (all documented because the ledger depends on
//! them):
//!
//! * **Corruption smashes the wire magic** (first two bytes) rather
//!   than flipping random payload bits, so a corrupted packet
//!   deterministically fails parsing at its receiver (`malformed` /
//!   `dropped` counters) instead of sometimes surviving as valid —
//!   keeping its ledger classification exact.
//! * **Delayed packets bypass blackout checks on release**: they
//!   already "traversed" the link when they were captured.
//! * **The faulted tx path copies.** The clean path forwards straight
//!   out of the receive ring (zero-copy); once tx faults are active the
//!   shim stages surviving datagrams through its own ring so it can
//!   corrupt/duplicate without mutating the caller's buffers. That cost
//!   is acceptable on the chaos path and absent when no tx faults are
//!   configured.

use crate::batch::{BatchIo, RecvRing, SendOutcome, SendQueue, SocketLayer, BATCH};
use crate::wire::{DatagramView, Flags, MAX_DATAGRAM};
use std::io;
use std::net::SocketAddr;
// Plain monotone counters with no cross-thread protocol: std atomics
// directly (the crate::sync shim is reserved for loom-modeled types).
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::SplitMix64;

/// Fault probabilities for one direction (rx = inbound toward the
/// relay, tx = outbound from it). Drop/delay/duplicate are drawn from a
/// single cascade per datagram (mutually exclusive, probabilities must
/// sum to ≤ 1); corruption is an independent draw on survivors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirectionFaults {
    /// P(datagram silently dropped).
    pub drop: f64,
    /// P(wire magic smashed; receiver counts it malformed).
    pub corrupt: f64,
    /// P(datagram duplicated; both copies proceed).
    pub duplicate: f64,
    /// P(datagram held and re-injected later).
    pub delay: f64,
    /// Max hold for a delayed datagram, uniform in `[1, delay_ms]` ms.
    pub delay_ms: u64,
}

impl DirectionFaults {
    /// No faults in this direction.
    pub const fn none() -> Self {
        DirectionFaults {
            drop: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            delay_ms: 0,
        }
    }

    fn any(&self) -> bool {
        self.drop > 0.0 || self.corrupt > 0.0 || self.duplicate > 0.0 || self.delay > 0.0
    }

    fn validate(&self, dir: &str) -> Result<(), String> {
        for (name, p) in [
            ("drop", self.drop),
            ("corrupt", self.corrupt),
            ("duplicate", self.duplicate),
            ("delay", self.delay),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{dir}.{name} probability {p} outside [0, 1]"));
            }
        }
        if self.drop + self.delay + self.duplicate > 1.0 {
            return Err(format!(
                "{dir}: drop+delay+duplicate exceed 1 (single-cascade draw)"
            ));
        }
        if self.delay > 0.0 && self.delay_ms == 0 {
            return Err(format!("{dir}: delay probability set but delay_ms = 0"));
        }
        Ok(())
    }
}

/// A scheduled total outage: while active, every fresh datagram in
/// both directions is blackholed (and counted). Offsets are
/// milliseconds from the shim's shared epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlackoutWindow {
    /// Window start (ms since epoch, inclusive).
    pub start_ms: u64,
    /// Window end (ms since epoch, exclusive).
    pub end_ms: u64,
}

/// Synthetic transient syscall errors, drawn once per call. The relay
/// worker must absorb these by retrying — they are exactly the
/// transient set (`EAGAIN`, `ENOBUFS`) a real kernel produces under
/// pressure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthErrors {
    /// P(`recv_batch` fails with `WouldBlock`) per call.
    pub recv_again: f64,
    /// P(`recv_batch` fails with `OutOfMemory`/ENOBUFS) per call.
    pub recv_nobufs: f64,
    /// P(`send_batch` fails wholesale with ENOBUFS) per non-empty call.
    pub send_nobufs: f64,
}

impl SynthErrors {
    /// No synthetic errors.
    pub const fn none() -> Self {
        SynthErrors {
            recv_again: 0.0,
            recv_nobufs: 0.0,
            send_nobufs: 0.0,
        }
    }

    fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("recv_again", self.recv_again),
            ("recv_nobufs", self.recv_nobufs),
            ("send_nobufs", self.send_nobufs),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("synth.{name} probability {p} outside [0, 1]"));
            }
        }
        if self.recv_again + self.recv_nobufs > 1.0 {
            return Err("synth: recv_again+recv_nobufs exceed 1".to_string());
        }
        Ok(())
    }
}

/// The full declarative fault plan for a relay's sockets. Validated up
/// front, dcsim-`FaultPlan` style, so an impossible plan fails loudly
/// at start rather than silently injecting nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Base RNG seed; each shard × generation derives its own stream
    /// via [`trace::derive_seed`], so restarts do not replay the dead
    /// shard's fault schedule.
    pub seed: u64,
    /// Inbound (toward the relay) faults.
    pub rx: DirectionFaults,
    /// Outbound (from the relay) faults.
    pub tx: DirectionFaults,
    /// Total-outage windows, sorted and non-overlapping.
    pub blackouts: Vec<BlackoutWindow>,
    /// Synthetic syscall errors.
    pub synth: SynthErrors,
}

impl FaultConfig {
    /// A clean plan (useful as a `..` base).
    pub fn none(seed: u64) -> Self {
        FaultConfig {
            seed,
            rx: DirectionFaults::none(),
            tx: DirectionFaults::none(),
            blackouts: Vec::new(),
            synth: SynthErrors::none(),
        }
    }

    /// The canonical soak mix: light drop/delay/duplicate/corrupt in
    /// both directions, occasional synthetic transient errors, and one
    /// blackout window at 35–40% of `duration`.
    pub fn soak(seed: u64, duration: Duration) -> Self {
        let total_ms = duration.as_millis() as u64;
        FaultConfig {
            seed,
            rx: DirectionFaults {
                drop: 0.01,
                corrupt: 0.002,
                duplicate: 0.005,
                delay: 0.01,
                delay_ms: 20,
            },
            tx: DirectionFaults {
                drop: 0.01,
                corrupt: 0.002,
                duplicate: 0.005,
                delay: 0.01,
                delay_ms: 20,
            },
            blackouts: vec![BlackoutWindow {
                start_ms: total_ms * 35 / 100,
                end_ms: total_ms * 40 / 100,
            }],
            synth: SynthErrors {
                recv_again: 0.001,
                recv_nobufs: 0.0005,
                send_nobufs: 0.0005,
            },
        }
    }

    /// Checks probabilities and window layout.
    ///
    /// # Errors
    /// A human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        self.rx.validate("rx")?;
        self.tx.validate("tx")?;
        self.synth.validate()?;
        let mut prev_end = 0u64;
        for (i, w) in self.blackouts.iter().enumerate() {
            if w.start_ms >= w.end_ms {
                return Err(format!("blackout[{i}] is empty or inverted"));
            }
            if w.start_ms < prev_end {
                return Err(format!(
                    "blackout[{i}] overlaps or precedes blackout[{}]",
                    i - 1
                ));
            }
            prev_end = w.end_ms;
        }
        Ok(())
    }

    fn in_blackout(&self, elapsed_ms: u64) -> bool {
        self.blackouts
            .iter()
            .any(|w| (w.start_ms..w.end_ms).contains(&elapsed_ms))
    }
}

/// Everything the shim did, as monotone counters shared across shards.
/// Outbound counters are classified data vs ctrl (DATA flag vs
/// ACK/NACK) because the soak ledger closes the two directions with
/// separate equations.
#[derive(Debug, Default)]
pub struct FaultStats {
    rx_dropped: AtomicU64,
    rx_corrupted: AtomicU64,
    rx_duplicated: AtomicU64,
    rx_delayed: AtomicU64,
    rx_delay_released: AtomicU64,
    rx_blackholed: AtomicU64,
    tx_dropped_data: AtomicU64,
    tx_dropped_ctrl: AtomicU64,
    tx_corrupted_data: AtomicU64,
    tx_corrupted_ctrl: AtomicU64,
    tx_duplicated_data: AtomicU64,
    tx_duplicated_ctrl: AtomicU64,
    tx_delayed_data: AtomicU64,
    tx_delayed_ctrl: AtomicU64,
    tx_delay_released_data: AtomicU64,
    tx_delay_released_ctrl: AtomicU64,
    tx_release_errors: AtomicU64,
    tx_blackholed_data: AtomicU64,
    tx_blackholed_ctrl: AtomicU64,
    synth_recv_errors: AtomicU64,
    synth_send_errors: AtomicU64,
}

macro_rules! bump {
    ($stats:expr, $field:ident, $n:expr) => {
        // ordering: Relaxed — monotone fault counters read only by
        // post-run snapshots; no non-atomic data is published.
        $stats.$field.fetch_add($n, Ordering::Relaxed)
    };
}

impl FaultStats {
    /// A plain-u64 copy of every counter (plus derived pending-delay
    /// gauges). Exact once the relay has shut down.
    pub fn snapshot(&self) -> FaultSnapshot {
        // ordering: Relaxed — see the counter writes; snapshots
        // tolerate mid-batch staleness and are exact after join.
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let s = FaultSnapshot {
            rx_dropped: load(&self.rx_dropped),
            rx_corrupted: load(&self.rx_corrupted),
            rx_duplicated: load(&self.rx_duplicated),
            rx_delayed: load(&self.rx_delayed),
            rx_delay_released: load(&self.rx_delay_released),
            rx_blackholed: load(&self.rx_blackholed),
            tx_dropped_data: load(&self.tx_dropped_data),
            tx_dropped_ctrl: load(&self.tx_dropped_ctrl),
            tx_corrupted_data: load(&self.tx_corrupted_data),
            tx_corrupted_ctrl: load(&self.tx_corrupted_ctrl),
            tx_duplicated_data: load(&self.tx_duplicated_data),
            tx_duplicated_ctrl: load(&self.tx_duplicated_ctrl),
            tx_delayed_data: load(&self.tx_delayed_data),
            tx_delayed_ctrl: load(&self.tx_delayed_ctrl),
            tx_delay_released_data: load(&self.tx_delay_released_data),
            tx_delay_released_ctrl: load(&self.tx_delay_released_ctrl),
            tx_release_errors: load(&self.tx_release_errors),
            tx_blackholed_data: load(&self.tx_blackholed_data),
            tx_blackholed_ctrl: load(&self.tx_blackholed_ctrl),
            synth_recv_errors: load(&self.synth_recv_errors),
            synth_send_errors: load(&self.synth_send_errors),
        };
        debug_assert!(s.rx_delay_released <= s.rx_delayed);
        s
    }
}

/// Plain-u64 snapshot of [`FaultStats`]; see the field docs there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct FaultSnapshot {
    pub rx_dropped: u64,
    pub rx_corrupted: u64,
    pub rx_duplicated: u64,
    pub rx_delayed: u64,
    pub rx_delay_released: u64,
    pub rx_blackholed: u64,
    pub tx_dropped_data: u64,
    pub tx_dropped_ctrl: u64,
    pub tx_corrupted_data: u64,
    pub tx_corrupted_ctrl: u64,
    pub tx_duplicated_data: u64,
    pub tx_duplicated_ctrl: u64,
    pub tx_delayed_data: u64,
    pub tx_delayed_ctrl: u64,
    pub tx_delay_released_data: u64,
    pub tx_delay_released_ctrl: u64,
    pub tx_release_errors: u64,
    pub tx_blackholed_data: u64,
    pub tx_blackholed_ctrl: u64,
    pub synth_recv_errors: u64,
    pub synth_send_errors: u64,
}

impl FaultSnapshot {
    /// Delayed rx datagrams still held by the shim (never re-injected
    /// before shutdown).
    pub fn rx_delay_pending(&self) -> u64 {
        self.rx_delayed - self.rx_delay_released
    }

    /// Total perturbation events across all counters (used by tests to
    /// assert "the shim actually did something").
    pub fn total_events(&self) -> u64 {
        self.rx_dropped
            + self.rx_corrupted
            + self.rx_duplicated
            + self.rx_delayed
            + self.rx_blackholed
            + self.tx_dropped_data
            + self.tx_dropped_ctrl
            + self.tx_corrupted_data
            + self.tx_corrupted_ctrl
            + self.tx_duplicated_data
            + self.tx_duplicated_ctrl
            + self.tx_delayed_data
            + self.tx_delayed_ctrl
            + self.tx_blackholed_data
            + self.tx_blackholed_ctrl
            + self.synth_recv_errors
            + self.synth_send_errors
    }
}

/// A captured in-flight datagram awaiting its delayed (re-)injection.
struct Held {
    release_at: Instant,
    addr: SocketAddr,
    is_data: bool,
    bytes: Box<[u8]>,
}

/// The fault-injecting [`BatchIo`] wrapper. One per shard socket; all
/// shards share a [`FaultStats`] and the blackout epoch, but each gets
/// its own derived RNG stream.
pub struct FaultedIo {
    inner: Box<dyn BatchIo>,
    cfg: FaultConfig,
    rng: SplitMix64,
    epoch: Instant,
    stats: Arc<FaultStats>,
    rx_held: Vec<Held>,
    tx_held: Vec<Held>,
    stage_ring: RecvRing,
    stage_queue: SendQueue,
    dup_scratch: Vec<(SocketAddr, Box<[u8]>)>,
}

impl FaultedIo {
    /// Wraps `inner`. `seed` should already be derived per shard ×
    /// generation; `epoch` anchors the blackout schedule and must be
    /// shared across every shard of a relay.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`FaultConfig::validate`] — construction
    /// sites validate explicitly, so this is a programming error.
    pub fn new(
        inner: Box<dyn BatchIo>,
        cfg: FaultConfig,
        seed: u64,
        epoch: Instant,
        stats: Arc<FaultStats>,
    ) -> Self {
        cfg.validate().expect("validated fault config");
        FaultedIo {
            inner,
            cfg,
            rng: SplitMix64::new(seed),
            epoch,
            stats,
            rx_held: Vec::new(),
            tx_held: Vec::new(),
            stage_ring: RecvRing::new(),
            stage_queue: SendQueue::new(),
            dup_scratch: Vec::new(),
        }
    }

    fn elapsed_ms(&self, now: Instant) -> u64 {
        now.duration_since(self.epoch).as_millis() as u64
    }

    /// Sends every due delayed-tx datagram, one inner flush per class
    /// so kernel refusals stay classified. Called from both directions
    /// so held packets drain even when the relay is idle-receiving.
    fn flush_tx_due(&mut self, now: Instant) -> io::Result<()> {
        if self.tx_held.is_empty() {
            return Ok(());
        }
        for want_data in [true, false] {
            let any_due = self
                .tx_held
                .iter()
                .any(|h| h.is_data == want_data && h.release_at <= now);
            if !any_due {
                continue;
            }
            self.stage_ring.reset();
            self.stage_queue.clear();
            let mut staged = 0u64;
            let mut i = 0;
            while i < self.tx_held.len() {
                let h = &self.tx_held[i];
                if h.is_data != want_data || h.release_at > now {
                    i += 1;
                    continue;
                }
                if self.stage_ring.len() == BATCH {
                    let out = self.inner.send_batch(&self.stage_ring, &self.stage_queue)?;
                    self.note_release(want_data, out);
                    staged = 0;
                    self.stage_ring.reset();
                    self.stage_queue.clear();
                }
                let h = self.tx_held.swap_remove(i);
                let slot = self
                    .stage_ring
                    .stage(|buf| {
                        buf[..h.bytes.len()].copy_from_slice(&h.bytes);
                        h.bytes.len()
                    })
                    .expect("ring flushed when full");
                self.stage_queue.push_slot(slot.0, slot.1, h.addr);
                staged += 1;
            }
            if staged > 0 {
                let out = self.inner.send_batch(&self.stage_ring, &self.stage_queue)?;
                self.note_release(want_data, out);
                self.stage_ring.reset();
                self.stage_queue.clear();
            }
        }
        Ok(())
    }

    fn note_release(&self, is_data: bool, out: SendOutcome) {
        if is_data {
            bump!(self.stats, tx_delay_released_data, out.sent);
        } else {
            bump!(self.stats, tx_delay_released_ctrl, out.sent);
        }
        bump!(self.stats, tx_release_errors, out.errors);
    }

    /// Re-injects due delayed-rx datagrams into `ring` (as many as fit;
    /// the rest wait for the next call).
    fn release_rx_due(&mut self, ring: &mut RecvRing, now: Instant) {
        let mut i = 0;
        while i < self.rx_held.len() {
            if self.rx_held[i].release_at > now {
                i += 1;
                continue;
            }
            let h = &self.rx_held[i];
            if !ring.push_received(&h.bytes, h.addr) {
                return; // ring full; keep holding
            }
            bump!(self.stats, rx_delay_released, 1);
            self.rx_held.swap_remove(i);
        }
    }

    /// Stages `bytes` (optionally magic-smashed) into the tx staging
    /// ring, flushing to `inner` when full. Returns the accumulated
    /// outcome of any intermediate flush.
    fn stage_tx(
        &mut self,
        bytes: &[u8],
        dest: SocketAddr,
        corrupt: bool,
        out: &mut SendOutcome,
    ) -> io::Result<()> {
        if self.stage_ring.len() == BATCH {
            *out += self.inner.send_batch(&self.stage_ring, &self.stage_queue)?;
            self.stage_ring.reset();
            self.stage_queue.clear();
        }
        let slot = self
            .stage_ring
            .stage(|buf| {
                buf[..bytes.len()].copy_from_slice(bytes);
                if corrupt {
                    buf[0] = 0xFF;
                    buf[1] = 0xFF;
                }
                bytes.len()
            })
            .expect("ring flushed when full");
        self.stage_queue.push_slot(slot.0, slot.1, dest);
        Ok(())
    }
}

/// DATA flag (trimmed included) vs ACK/NACK — the ledger's outbound
/// classification. Unparseable bytes never originate from the relay's
/// own queue, but classify as ctrl defensively.
pub(crate) fn is_data_bytes(bytes: &[u8]) -> bool {
    DatagramView::parse(bytes)
        .map(|v| v.flags().contains(Flags::DATA))
        .unwrap_or(false)
}

impl BatchIo for FaultedIo {
    fn recv_batch(&mut self, ring: &mut RecvRing) -> io::Result<usize> {
        let now = Instant::now();
        self.flush_tx_due(now)?;
        let synth = self.cfg.synth;
        if synth.recv_again > 0.0 || synth.recv_nobufs > 0.0 {
            let u = self.rng.next_f64();
            if u < synth.recv_again {
                bump!(self.stats, synth_recv_errors, 1);
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "synthetic EAGAIN",
                ));
            }
            if u < synth.recv_again + synth.recv_nobufs {
                bump!(self.stats, synth_recv_errors, 1);
                return Err(io::Error::new(
                    io::ErrorKind::OutOfMemory,
                    "synthetic ENOBUFS",
                ));
            }
        }
        self.inner.recv_batch(ring)?;
        let f = self.cfg.rx;
        if !ring.is_empty() && self.cfg.in_blackout(self.elapsed_ms(now)) {
            bump!(self.stats, rx_blackholed, ring.len() as u64);
            ring.reset();
        } else if !ring.is_empty() && f.any() {
            self.dup_scratch.clear();
            // Back-to-front so swap_remove only moves already-processed
            // slots into vacated positions.
            for i in (0..ring.len()).rev() {
                if ring.datagram(i).len() > MAX_DATAGRAM {
                    // No datagram of this protocol: the relay drops and
                    // counts it. Holding or copying it would only park
                    // bytes `push_received` can never take back.
                    continue;
                }
                let u = self.rng.next_f64();
                if u < f.drop {
                    bump!(self.stats, rx_dropped, 1);
                    ring.swap_remove(i);
                    continue;
                }
                if u < f.drop + f.delay {
                    let hold_ms = 1 + self.rng.next_bounded(f.delay_ms);
                    self.rx_held.push(Held {
                        release_at: now + Duration::from_millis(hold_ms),
                        addr: ring.source(i),
                        is_data: false, // unused on rx
                        bytes: ring.datagram(i).into(),
                    });
                    bump!(self.stats, rx_delayed, 1);
                    ring.swap_remove(i);
                    continue;
                }
                if u < f.drop + f.delay + f.duplicate {
                    self.dup_scratch
                        .push((ring.source(i), ring.datagram(i).into()));
                }
                if f.corrupt > 0.0 && self.rng.next_f64() < f.corrupt {
                    let d = ring.datagram_mut(i);
                    d[0] = 0xFF;
                    d[1] = 0xFF;
                    bump!(self.stats, rx_corrupted, 1);
                }
            }
            while let Some((addr, bytes)) = self.dup_scratch.pop() {
                if !ring.push_received(&bytes, addr) {
                    break; // ring full: the duplicate simply doesn't happen
                }
                bump!(self.stats, rx_duplicated, 1);
            }
        }
        self.release_rx_due(ring, now);
        Ok(ring.len())
    }

    fn send_batch(&mut self, ring: &RecvRing, queue: &SendQueue) -> io::Result<SendOutcome> {
        let now = Instant::now();
        self.flush_tx_due(now)?;
        if queue.is_empty() {
            return Ok(SendOutcome::default());
        }
        if self.cfg.synth.send_nobufs > 0.0 && self.rng.next_f64() < self.cfg.synth.send_nobufs {
            bump!(self.stats, synth_send_errors, 1);
            return Err(io::Error::new(
                io::ErrorKind::OutOfMemory,
                "synthetic ENOBUFS",
            ));
        }
        let blackout = self.cfg.in_blackout(self.elapsed_ms(now));
        let f = self.cfg.tx;
        if !blackout && !f.any() {
            return self.inner.send_batch(ring, queue); // clean fast path
        }
        self.stage_ring.reset();
        self.stage_queue.clear();
        let mut out = SendOutcome::default();
        for i in 0..queue.len() {
            let (bytes, dest) = queue.resolve(ring, i);
            let is_data = is_data_bytes(bytes);
            if blackout {
                if is_data {
                    bump!(self.stats, tx_blackholed_data, 1);
                } else {
                    bump!(self.stats, tx_blackholed_ctrl, 1);
                }
                // The link ate it, but the kernel "accepted" it from the
                // relay's perspective.
                out.sent += 1;
                continue;
            }
            let u = self.rng.next_f64();
            if u < f.drop {
                if is_data {
                    bump!(self.stats, tx_dropped_data, 1);
                } else {
                    bump!(self.stats, tx_dropped_ctrl, 1);
                }
                out.sent += 1;
                continue;
            }
            if u < f.drop + f.delay {
                let hold_ms = 1 + self.rng.next_bounded(f.delay_ms);
                self.tx_held.push(Held {
                    release_at: now + Duration::from_millis(hold_ms),
                    addr: dest,
                    is_data,
                    bytes: bytes.into(),
                });
                if is_data {
                    bump!(self.stats, tx_delayed_data, 1);
                } else {
                    bump!(self.stats, tx_delayed_ctrl, 1);
                }
                out.sent += 1;
                continue;
            }
            let dup = u < f.drop + f.delay + f.duplicate;
            let corrupt = f.corrupt > 0.0 && self.rng.next_f64() < f.corrupt;
            // Corruption mutates only the staging copy, so a duplicate
            // staged from the same source bytes goes out clean.
            self.stage_tx(bytes, dest, corrupt, &mut out)?;
            if corrupt {
                if is_data {
                    bump!(self.stats, tx_corrupted_data, 1);
                } else {
                    bump!(self.stats, tx_corrupted_ctrl, 1);
                }
            }
            if dup {
                self.stage_tx(bytes, dest, false, &mut out)?;
                if is_data {
                    bump!(self.stats, tx_duplicated_data, 1);
                } else {
                    bump!(self.stats, tx_duplicated_ctrl, 1);
                }
            }
        }
        if !self.stage_queue.is_empty() {
            out += self.inner.send_batch(&self.stage_ring, &self.stage_queue)?;
            self.stage_ring.reset();
            self.stage_queue.clear();
        }
        Ok(out)
    }

    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    fn layer(&self) -> SocketLayer {
        self.inner.layer()
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;

    #[test]
    fn validate_accepts_presets() {
        FaultConfig::none(1).validate().unwrap();
        FaultConfig::soak(1, Duration::from_secs(60))
            .validate()
            .unwrap();
    }

    #[test]
    fn validate_rejects_bad_probabilities() {
        let mut c = FaultConfig::none(1);
        c.rx.drop = 1.5;
        assert!(c.validate().is_err());
        let mut c = FaultConfig::none(1);
        c.tx.drop = 0.6;
        c.tx.delay = 0.6;
        c.tx.delay_ms = 5;
        assert!(c.validate().is_err(), "cascade sum over 1 rejected");
        let mut c = FaultConfig::none(1);
        c.rx.delay = 0.1;
        assert!(c.validate().is_err(), "delay without delay_ms rejected");
        let mut c = FaultConfig::none(1);
        c.synth.recv_again = -0.1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_blackouts() {
        let mut c = FaultConfig::none(1);
        c.blackouts = vec![BlackoutWindow {
            start_ms: 5,
            end_ms: 5,
        }];
        assert!(c.validate().is_err(), "empty window rejected");
        c.blackouts = vec![
            BlackoutWindow {
                start_ms: 0,
                end_ms: 10,
            },
            BlackoutWindow {
                start_ms: 5,
                end_ms: 20,
            },
        ];
        assert!(c.validate().is_err(), "overlap rejected");
        c.blackouts = vec![
            BlackoutWindow {
                start_ms: 0,
                end_ms: 10,
            },
            BlackoutWindow {
                start_ms: 10,
                end_ms: 20,
            },
        ];
        assert!(c.validate().is_ok(), "adjacent windows fine");
    }

    #[test]
    fn blackout_membership() {
        let c = FaultConfig {
            blackouts: vec![BlackoutWindow {
                start_ms: 10,
                end_ms: 20,
            }],
            ..FaultConfig::none(1)
        };
        assert!(!c.in_blackout(9));
        assert!(c.in_blackout(10));
        assert!(c.in_blackout(19));
        assert!(!c.in_blackout(20));
    }

    #[test]
    fn snapshot_pending_arithmetic() {
        let s = FaultSnapshot {
            rx_delayed: 10,
            rx_delay_released: 7,
            ..FaultSnapshot::default()
        };
        assert_eq!(s.rx_delay_pending(), 3);
        assert_eq!(s.total_events(), 10);
    }
}

// Shim behavior tests need real sockets; skipped under Miri.
#[cfg(all(test, not(miri)))]
mod io_tests {
    use super::*;
    use crate::batch::{self, RecvRing, SendQueue};
    use crate::wire::WireHeader;
    use std::net::UdpSocket;

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().expect("addr")
    }

    fn faulted(cfg: FaultConfig) -> (FaultedIo, Arc<FaultStats>, SocketAddr) {
        faulted_on(SocketLayer::Auto, cfg)
    }

    fn faulted_on(
        layer: SocketLayer,
        cfg: FaultConfig,
    ) -> (FaultedIo, Arc<FaultStats>, SocketAddr) {
        let inner = batch::open(UdpSocket::bind(loopback()).unwrap(), layer).unwrap();
        let addr = inner.local_addr().unwrap();
        let stats = Arc::new(FaultStats::default());
        let seed = cfg.seed;
        let io = FaultedIo::new(inner, cfg, seed, Instant::now(), stats.clone());
        (io, stats, addr)
    }

    fn recv_until(io: &mut FaultedIo, ring: &mut RecvRing, deadline: Duration) -> usize {
        let start = Instant::now();
        let mut total = 0;
        while start.elapsed() < deadline {
            match io.recv_batch(ring) {
                Ok(n) => total += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::OutOfMemory
                    ) => {}
                Err(e) => panic!("hard recv error: {e}"),
            }
            if total > 0 && io.rx_held.is_empty() {
                break;
            }
        }
        total
    }

    #[test]
    fn full_drop_eats_everything_and_counts() {
        let (mut io, stats, addr) = faulted(FaultConfig {
            rx: DirectionFaults {
                drop: 1.0,
                ..DirectionFaults::none()
            },
            ..FaultConfig::none(7)
        });
        let sender = UdpSocket::bind(loopback()).unwrap();
        for seq in 0..10u64 {
            sender
                .send_to(&WireHeader::data(1, seq, 1).encode(&[0]), addr)
                .unwrap();
        }
        let mut ring = RecvRing::new();
        let got = recv_until(&mut io, &mut ring, Duration::from_millis(300));
        assert_eq!(got, 0, "every datagram dropped");
        assert_eq!(stats.snapshot().rx_dropped, 10);
    }

    #[test]
    fn delayed_datagrams_arrive_late_but_arrive() {
        let (mut io, stats, addr) = faulted(FaultConfig {
            rx: DirectionFaults {
                delay: 1.0,
                delay_ms: 10,
                ..DirectionFaults::none()
            },
            ..FaultConfig::none(11)
        });
        let sender = UdpSocket::bind(loopback()).unwrap();
        for seq in 0..5u64 {
            sender
                .send_to(&WireHeader::data(1, seq, 1).encode(&[0]), addr)
                .unwrap();
        }
        let mut ring = RecvRing::new();
        let mut total = 0;
        let start = Instant::now();
        while total < 5 && start.elapsed() < Duration::from_secs(2) {
            total += io.recv_batch(&mut ring).unwrap();
        }
        assert_eq!(total, 5, "all delayed datagrams eventually released");
        let snap = stats.snapshot();
        assert_eq!(snap.rx_delayed, 5);
        assert_eq!(snap.rx_delay_released, 5);
        assert_eq!(snap.rx_delay_pending(), 0);
    }

    #[test]
    fn corruption_smashes_magic_deterministically() {
        let (mut io, stats, addr) = faulted(FaultConfig {
            rx: DirectionFaults {
                corrupt: 1.0,
                ..DirectionFaults::none()
            },
            ..FaultConfig::none(13)
        });
        let sender = UdpSocket::bind(loopback()).unwrap();
        sender
            .send_to(&WireHeader::data(1, 0, 1).encode(&[0]), addr)
            .unwrap();
        let mut ring = RecvRing::new();
        let got = recv_until(&mut io, &mut ring, Duration::from_millis(500));
        assert_eq!(got, 1);
        assert!(
            DatagramView::parse(ring.datagram(0)).is_err(),
            "corrupted datagram must fail parsing"
        );
        assert_eq!(stats.snapshot().rx_corrupted, 1);
    }

    #[test]
    fn duplicates_add_extra_copies() {
        let (mut io, stats, addr) = faulted(FaultConfig {
            rx: DirectionFaults {
                duplicate: 1.0,
                ..DirectionFaults::none()
            },
            ..FaultConfig::none(17)
        });
        let sender = UdpSocket::bind(loopback()).unwrap();
        for seq in 0..4u64 {
            sender
                .send_to(&WireHeader::data(1, seq, 1).encode(&[0]), addr)
                .unwrap();
        }
        let mut ring = RecvRing::new();
        let mut total = 0;
        let start = Instant::now();
        while total < 8 && start.elapsed() < Duration::from_secs(2) {
            total += io.recv_batch(&mut ring).unwrap();
        }
        assert_eq!(total, 8, "each datagram duplicated once");
        assert_eq!(stats.snapshot().rx_duplicated, 4);
    }

    /// Trains land as views into one landing area, so the shim steals
    /// (`swap_remove`) and re-injects (`push_received`) datagrams whose
    /// bytes it does not own slot by slot. Whatever it does to them, each
    /// datagram sent is accounted for: dropped, or delivered once, or
    /// twice as a counted duplicate, its bytes its own but for a counted
    /// smashed magic.
    #[test]
    fn faults_over_coalesced_views_keep_the_ledger_exact() {
        const SENT: u64 = 128;
        for layer in [SocketLayer::Auto, SocketLayer::Fallback] {
            let (mut io, stats, addr) = faulted_on(
                layer,
                FaultConfig {
                    rx: DirectionFaults {
                        drop: 0.2,
                        corrupt: 0.2,
                        duplicate: 0.2,
                        delay: 0.2,
                        delay_ms: 5,
                    },
                    ..FaultConfig::none(37)
                },
            );
            // Same-length DATA toward one address, a full flush at a time:
            // on Linux each flush travels (and lands) as one train.
            let mut tx =
                batch::open(UdpSocket::bind(loopback()).unwrap(), SocketLayer::Auto).unwrap();
            let wire = |seq: u64| WireHeader::data(6, seq, 64).encode(&[seq as u8; 64]);
            let mut staged = RecvRing::new();
            let mut queue = SendQueue::new();
            for seq in 0..SENT {
                let (slot, len) = staged
                    .stage(|buf| {
                        buf[..88].copy_from_slice(&wire(seq));
                        88
                    })
                    .unwrap();
                queue.push_slot(slot, len, addr);
                if staged.len() == batch::BATCH {
                    tx.send_batch(&staged, &queue).unwrap();
                    staged.reset();
                    queue.clear();
                }
            }
            let mut ring = RecvRing::new();
            let mut copies = vec![0u64; SENT as usize];
            let (mut delivered, mut smashed) = (0u64, 0u64);
            let start = Instant::now();
            loop {
                let snap = stats.snapshot();
                let due = SENT - snap.rx_dropped + snap.rx_duplicated;
                if delivered == due
                    && snap.rx_delay_pending() == 0
                    && snap.rx_dropped + snap.rx_delayed > 0
                    && start.elapsed() > Duration::from_millis(50)
                {
                    break;
                }
                assert!(
                    start.elapsed() < Duration::from_secs(3),
                    "{layer:?}: {delivered} of {due} delivered, {snap:?}"
                );
                for i in 0..io.recv_batch(&mut ring).unwrap() {
                    let d = ring.datagram(i);
                    assert_eq!(ring.source(i), tx.local_addr().unwrap());
                    let seq = u64::from_be_bytes(d[12..20].try_into().unwrap());
                    let want = wire(seq);
                    assert_eq!(d[2..], want[2..], "{layer:?}: seq {seq} bytes intact");
                    if d[..2] != want[..2] {
                        assert_eq!(d[..2], [0xFF, 0xFF]);
                        smashed += 1;
                    }
                    copies[seq as usize] += 1;
                    delivered += 1;
                }
            }
            let snap = stats.snapshot();
            assert!(copies.iter().all(|&c| c <= 2), "{layer:?}: {copies:?}");
            assert_eq!(
                copies.iter().filter(|&&c| c == 2).count() as u64,
                snap.rx_duplicated,
                "{layer:?}"
            );
            assert_eq!(
                copies.iter().filter(|&&c| c == 0).count() as u64,
                snap.rx_dropped,
                "{layer:?}"
            );
            assert_eq!(smashed, snap.rx_corrupted, "{layer:?}");
            assert_eq!(snap.rx_delay_released, snap.rx_delayed, "{layer:?}");
            assert!(
                snap.rx_dropped > 10 && snap.rx_delayed > 10 && snap.rx_duplicated > 10,
                "{layer:?}: every fault happened: {snap:?}"
            );
        }
    }

    #[test]
    fn blackout_blackholes_and_then_recovers() {
        let (mut io, stats, addr) = faulted(FaultConfig {
            blackouts: vec![BlackoutWindow {
                start_ms: 0,
                end_ms: 100,
            }],
            ..FaultConfig::none(19)
        });
        let sender = UdpSocket::bind(loopback()).unwrap();
        sender
            .send_to(&WireHeader::data(1, 0, 1).encode(&[0]), addr)
            .unwrap();
        let mut ring = RecvRing::new();
        let start = Instant::now();
        let mut during = 0;
        while start.elapsed() < Duration::from_millis(90) {
            during += io.recv_batch(&mut ring).unwrap();
        }
        assert_eq!(during, 0, "blackout eats the datagram");
        assert_eq!(stats.snapshot().rx_blackholed, 1);
        std::thread::sleep(Duration::from_millis(30));
        sender
            .send_to(&WireHeader::data(1, 1, 1).encode(&[0]), addr)
            .unwrap();
        let got = recv_until(&mut io, &mut ring, Duration::from_millis(500));
        assert_eq!(got, 1, "traffic flows after the window");
    }

    #[test]
    fn synthetic_recv_errors_are_transient_kinds() {
        let (mut io, stats, _addr) = faulted(FaultConfig {
            synth: SynthErrors {
                recv_again: 1.0,
                ..SynthErrors::none()
            },
            ..FaultConfig::none(23)
        });
        let mut ring = RecvRing::new();
        let err = io.recv_batch(&mut ring).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(stats.snapshot().synth_recv_errors >= 1);
    }

    #[test]
    fn tx_drop_counts_by_class() {
        let (mut io, stats, _addr) = faulted(FaultConfig {
            tx: DirectionFaults {
                drop: 1.0,
                ..DirectionFaults::none()
            },
            ..FaultConfig::none(29)
        });
        let peer = UdpSocket::bind(loopback()).unwrap();
        let peer_addr = peer.local_addr().unwrap();
        let mut ring = RecvRing::new();
        let mut queue = SendQueue::new();
        let (slot, len) = ring
            .stage(|buf| WireHeader::data(1, 0, 1).encode_into(buf, &[0]))
            .unwrap();
        queue.push_slot(slot, len, peer_addr);
        queue.push_nack(1, 5, peer_addr);
        let out = io.send_batch(&ring, &queue).unwrap();
        assert_eq!(out.sent, 2, "drops are 'accepted' from the caller's view");
        let snap = stats.snapshot();
        assert_eq!(snap.tx_dropped_data, 1);
        assert_eq!(snap.tx_dropped_ctrl, 1);
    }

    #[test]
    fn tx_delay_releases_to_the_wire() {
        let (mut io, stats, _addr) = faulted(FaultConfig {
            tx: DirectionFaults {
                delay: 1.0,
                delay_ms: 10,
                ..DirectionFaults::none()
            },
            ..FaultConfig::none(31)
        });
        let peer = UdpSocket::bind(loopback()).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let peer_addr = peer.local_addr().unwrap();
        let mut ring = RecvRing::new();
        let mut queue = SendQueue::new();
        let (slot, len) = ring
            .stage(|buf| WireHeader::data(9, 3, 1).encode_into(buf, &[7]))
            .unwrap();
        queue.push_slot(slot, len, peer_addr);
        io.send_batch(&ring, &queue).unwrap();
        assert_eq!(stats.snapshot().tx_delayed_data, 1);
        // Pump the shim until the hold expires and the release flushes.
        let mut buf = [0u8; 2048];
        let start = Instant::now();
        loop {
            let mut scratch = RecvRing::new();
            let _ = io.recv_batch(&mut scratch);
            peer.set_read_timeout(Some(Duration::from_millis(5)))
                .unwrap();
            if let Ok((n, _)) = peer.recv_from(&mut buf) {
                let (h, p) = WireHeader::decode(&buf[..n]).unwrap();
                assert_eq!((h.flow, h.seq), (9, 3));
                assert_eq!(p, &[7]);
                break;
            }
            assert!(
                start.elapsed() < Duration::from_secs(2),
                "delayed datagram never released"
            );
        }
        assert_eq!(stats.snapshot().tx_delay_released_data, 1);
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        // Deterministic replay: feed two shims the same traffic shape and
        // seed; their fault decisions must be identical.
        let cfg = FaultConfig {
            rx: DirectionFaults {
                drop: 0.5,
                ..DirectionFaults::none()
            },
            ..FaultConfig::none(42)
        };
        let mut survivors = Vec::new();
        for _run in 0..2 {
            let (mut io, stats, addr) = faulted(cfg.clone());
            let sender = UdpSocket::bind(loopback()).unwrap();
            // One datagram per recv call so both runs batch identically.
            let mut kept = Vec::new();
            let mut ring = RecvRing::new();
            for seq in 0..50u64 {
                sender
                    .send_to(&WireHeader::data(1, seq, 1).encode(&[0]), addr)
                    .unwrap();
                let start = Instant::now();
                loop {
                    let got = io.recv_batch(&mut ring).unwrap();
                    if got > 0 {
                        assert_eq!(got, 1);
                        let v = DatagramView::parse(ring.datagram(0)).unwrap();
                        kept.push(v.seq());
                        break;
                    }
                    // A dropped datagram never shows up: detect via the
                    // counter moving instead of waiting out the clock.
                    if stats.snapshot().rx_dropped + kept.len() as u64 == seq + 1 {
                        break;
                    }
                    assert!(start.elapsed() < Duration::from_secs(2), "stuck at {seq}");
                }
            }
            assert!(stats.snapshot().rx_dropped > 5, "seeded drops happened");
            survivors.push(kept);
        }
        assert_eq!(survivors[0], survivors[1], "same seed, same schedule");
    }
}
