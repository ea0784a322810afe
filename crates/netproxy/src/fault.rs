//! Deterministic fault injection for the batched datapath: the relay's
//! interpreter of a [`dcsim::faults::FaultPlan`], the same plan the
//! simulator runs (DESIGN.md §15).
//!
//! [`FaultedIo`] wraps any [`BatchIo`] implementation and perturbs the
//! traffic crossing it as the plan says. Port 0 ([`INBOUND`]) is the
//! relay's inbound direction, its receives; port 1 ([`OUTBOUND`]) is its
//! outbound one, its sends. Per direction the shim reads:
//!
//! * one [`PortImpairment`]: drop / delay / duplicate drawn from a single
//!   cascade per datagram, corruption an independent draw on survivors;
//! * [`LinkWindow`]s as blackouts, their `SimTime`s offsets from the
//!   relay's epoch: while one is open the direction eats every fresh
//!   datagram (and counts it);
//! * one [`SyscallErrors`] entry: synthetic `EAGAIN` / `ENOBUFS` per call.
//!
//! It also runs the plan's [`ShardCrash`]es for the shard whose socket it
//! wraps, their times offsets from the same epoch. An entry without a
//! `restore_at` fails the shard's next receive with a hard error, so the
//! worker exits and the supervisor restarts it; an entry with one holds
//! the next receive until then, so the worker stops beating with its
//! socket open, and a stall past [`crate::supervisor::WEDGE_TIMEOUT`] is a
//! wedge whose superseded worker wakes late and exits. Each entry fires
//! once, in the incarnation running at its time: a shim built after an
//! entry's time never fires it.
//!
//! It refuses, with a [`FaultError`], what it cannot model: other ports,
//! a second impairment or syscall-error entry on one port, two shard
//! crashes on one shard that overlap, and agent crashes. All randomness
//! comes from a [`trace::SplitMix64`] stream the caller derives from the
//! plan's seed, so two runs with the same seed and traffic see the same
//! fault decisions.
//!
//! Every perturbation increments a [`FaultStats`] counter, which is what
//! lets the soak family (`bench::soak`) close its packet-accounting
//! ledger exactly: a faulted packet is never *lost*, it is *explained*.
//!
//! Fidelity choices (all documented because the ledger depends on
//! them):
//!
//! * **Corruption smashes the wire magic** (first two bytes) rather
//!   than flipping random payload bits, so a corrupted packet
//!   deterministically fails parsing at its receiver (`malformed` /
//!   `dropped` counters) instead of sometimes surviving as valid —
//!   keeping its ledger classification exact. (The simulator's
//!   corruption trims data to a header instead.)
//! * **A receive is judged by the clock after it returns**: the one
//!   reading the shim takes per receive follows the inner receive, which
//!   can block for up to [`crate::batch::RECV_POLL`]. (A shim with shard
//!   crashes still to fire reads the clock before the receive too.)
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
use dcsim::faults::{FaultError, FaultPlan, LinkWindow, PortImpairment, ShardCrash, SyscallErrors};
use dcsim::packet::PortId;
use dcsim::time::SimTime;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::SplitMix64;

/// The relay's inbound direction: datagrams it receives.
pub const INBOUND: PortId = PortId(0);
/// The relay's outbound direction: datagrams it sends.
pub const OUTBOUND: PortId = PortId(1);

/// Checks that `plan` is valid and that the shim can run it; see the
/// module docs for what it refuses.
///
/// # Errors
/// The plan's [`FaultPlan::validate`] error, [`FaultError::UnknownPort`]
/// for a port other than 0 and 1, or [`FaultError::Unsupported`].
pub fn check_plan(plan: &FaultPlan) -> Result<(), FaultError> {
    plan.validate()?;
    let unsupported = |entry| FaultError::Unsupported {
        interpreter: "the relay's socket shim",
        entry,
    };
    if !plan.crashes.is_empty() {
        return Err(unsupported("agent crashes"));
    }
    // Entries on one shard must not overlap: a crash takes its instant,
    // a stall its whole window.
    let mut crashes: Vec<&ShardCrash> = plan.shard_crashes.iter().collect();
    crashes.sort_by_key(|c| (c.shard, c.at));
    for pair in crashes.windows(2) {
        let (prev, next) = (pair[0], pair[1]);
        if prev.shard == next.shard && next.at <= prev.restore_at.unwrap_or(prev.at) {
            return Err(unsupported("overlapping shard crashes on one shard"));
        }
    }
    let ports = (plan.link_windows.iter().map(|w| w.port))
        .chain(plan.impairments.iter().map(|i| i.port))
        .chain(plan.syscall_errors.iter().map(|e| e.port));
    for port in ports {
        if port.index() > OUTBOUND.index() {
            return Err(FaultError::UnknownPort { port, ports: 2 });
        }
    }
    for port in [INBOUND, OUTBOUND] {
        if plan.impairments.iter().filter(|i| i.port == port).count() > 1 {
            return Err(unsupported("two impairments on one port"));
        }
        if plan
            .syscall_errors
            .iter()
            .filter(|e| e.port == port)
            .count()
            > 1
        {
            return Err(unsupported("two syscall-error entries on one port"));
        }
    }
    Ok(())
}

/// What the plan says about one direction.
#[derive(Debug, Clone)]
struct Direction {
    imp: PortImpairment,
    blackouts: Vec<LinkWindow>,
    errors: SyscallErrors,
}

impl Direction {
    fn of(plan: &FaultPlan, port: PortId) -> Self {
        let imp = plan.impairments.iter().find(|i| i.port == port);
        let errors = plan.syscall_errors.iter().find(|e| e.port == port);
        Direction {
            imp: imp.copied().unwrap_or(PortImpairment::none(port)),
            blackouts: plan
                .link_windows
                .iter()
                .filter(|w| w.port == port)
                .copied()
                .collect(),
            errors: errors.copied().unwrap_or(SyscallErrors {
                port,
                again: 0.0,
                nobufs: 0.0,
            }),
        }
    }

    fn impairs(&self) -> bool {
        let i = &self.imp;
        i.loss > 0.0 || i.corrupt > 0.0 || i.duplicate > 0.0 || i.delay > 0.0
    }

    /// True while a blackout window is open at `t`.
    fn in_blackout(&self, t: SimTime) -> bool {
        (self.blackouts.iter()).any(|w| w.down_at <= t && w.up_at.is_none_or(|up| t < up))
    }

    /// This call's synthetic error, if the draw says so.
    fn syscall_error(&self, rng: &mut SplitMix64) -> Option<io::Error> {
        let SyscallErrors { again, nobufs, .. } = self.errors;
        if again + nobufs <= 0.0 {
            return None;
        }
        let u = rng.next_f64();
        if u < again {
            Some(io::Error::new(
                io::ErrorKind::WouldBlock,
                "synthetic EAGAIN",
            ))
        } else if u < again + nobufs {
            Some(io::Error::new(
                io::ErrorKind::OutOfMemory,
                "synthetic ENOBUFS",
            ))
        } else {
            None
        }
    }

    /// How long a delayed datagram is held: uniform in `(0, delay_max]`,
    /// to the nanosecond.
    fn hold(&self, rng: &mut SplitMix64) -> Duration {
        let max_ns = (self.imp.delay_max.0 / 1_000).max(1);
        Duration::from_nanos(1 + rng.next_bounded(max_ns))
    }
}

macro_rules! bump {
    ($stats:expr, $field:ident, $n:expr) => {
        // ordering: Relaxed — monotone fault counters; no non-atomic data
        // is published through them.
        $stats.$field.fetch_add($n, Ordering::Relaxed)
    };
    (release $stats:expr, $field:ident, $n:expr) => {
        // ordering: Release — pairs with `FaultSnapshot::merge`'s Acquire
        // load of this count, declared (so read) before the delay count
        // it follows: no snapshot sees a release before its delay.
        $stats.$field.fetch_add($n, Ordering::Release)
    };
    // One outbound datagram, counted by its class.
    ($stats:expr, $is_data:expr => $data:ident | $ctrl:ident) => {
        if $is_data {
            bump!($stats, $data, 1)
        } else {
            bump!($stats, $ctrl, 1)
        }
    };
}

trace::counters! {
    "netproxy.fault", atomic crate::sync::AtomicU64;
    /// Everything the shim did, as monotone counters shared across
    /// shards. Outbound counters are classified data vs ctrl (DATA flag vs
    /// ACK/NACK) because the soak ledger closes the two directions with
    /// separate equations.
    pub struct FaultStats;
    /// Plain-u64 snapshot of [`FaultStats`]. A release count is declared
    /// before its delay counts, so `merge` reads it first (see `bump!`).
    pub struct FaultSnapshot {
        rx_dropped, rx_corrupted, rx_duplicated, rx_delay_released, rx_delayed, rx_blackholed,
        tx_dropped_data, tx_dropped_ctrl, tx_corrupted_data, tx_corrupted_ctrl,
        tx_duplicated_data, tx_duplicated_ctrl,
        tx_delay_released_data, tx_delay_released_ctrl, tx_release_errors,
        tx_delayed_data, tx_delayed_ctrl,
        tx_blackholed_data, tx_blackholed_ctrl, synth_recv_errors, synth_send_errors,
    }
}

impl FaultStats {
    /// A plain-u64 copy of every counter. Exact once the relay has shut
    /// down.
    pub fn snapshot(&self) -> FaultSnapshot {
        let mut s = FaultSnapshot::default();
        s.merge(self);
        debug_assert!(s.rx_delay_released <= s.rx_delayed);
        debug_assert!(
            s.tx_delay_released_data + s.tx_delay_released_ctrl + s.tx_release_errors
                <= s.tx_delayed_data + s.tx_delayed_ctrl
        );
        s
    }
}

impl FaultSnapshot {
    /// Delayed rx datagrams still held by the shim (never re-injected
    /// before shutdown).
    pub fn rx_delay_pending(&self) -> u64 {
        self.rx_delayed - self.rx_delay_released
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
/// shards share a [`FaultStats`] and the epoch, but each gets its own
/// derived RNG stream and its own shard's crashes.
pub struct FaultedIo {
    inner: Box<dyn BatchIo>,
    rx: Direction,
    tx: Direction,
    rng: SplitMix64,
    epoch: Instant,
    /// This shard's crashes and stalls still to fire, latest first.
    crashes: Vec<ShardCrash>,
    stats: Arc<FaultStats>,
    rx_held: Vec<Held>,
    tx_held: Vec<Held>,
    stage_ring: RecvRing,
    stage_queue: SendQueue,
    dup_scratch: Vec<(SocketAddr, Box<[u8]>)>,
}

impl FaultedIo {
    /// Wraps `inner`, the socket of `shard`. `seed` should already be
    /// derived per shard × generation; `epoch` anchors the plan's times
    /// and must be shared across every shard of a relay. `born` is when
    /// this incarnation's schedule starts (the epoch for a relay's first
    /// workers, the spawn for a replacement): the shard's crashes before
    /// it never fire here.
    ///
    /// # Panics
    /// Panics if `plan` fails [`check_plan`] — construction sites check
    /// explicitly, so this is a programming error.
    pub fn new(
        inner: Box<dyn BatchIo>,
        plan: &FaultPlan,
        shard: u32,
        seed: u64,
        epoch: Instant,
        born: Instant,
        stats: Arc<FaultStats>,
    ) -> Self {
        check_plan(plan).expect("checked fault plan");
        let born = plan_time(epoch, born);
        let mut crashes: Vec<ShardCrash> = (plan.shard_crashes.iter())
            .filter(|c| c.shard == shard && c.at >= born)
            .copied()
            .collect();
        crashes.sort_by_key(|c| std::cmp::Reverse(c.at));
        FaultedIo {
            inner,
            rx: Direction::of(plan, INBOUND),
            tx: Direction::of(plan, OUTBOUND),
            rng: SplitMix64::new(seed),
            epoch,
            crashes,
            stats,
            rx_held: Vec::new(),
            tx_held: Vec::new(),
            stage_ring: RecvRing::new(),
            stage_queue: SendQueue::new(),
            dup_scratch: Vec::new(),
        }
    }

    /// Fires the shard's next crash if its time has come: a crash as a
    /// hard error, a stall by returning only once it ends.
    fn fire_due_crash(&mut self) -> io::Result<()> {
        let Some(&crash) = self.crashes.last() else {
            return Ok(());
        };
        if plan_time(self.epoch, Instant::now()) < crash.at {
            return Ok(());
        }
        self.crashes.pop();
        let Some(restore_at) = crash.restore_at else {
            return Err(io::Error::other("synthetic shard crash"));
        };
        let wake = self.epoch + Duration::from_nanos(restore_at.0 / 1_000);
        std::thread::sleep(wake.saturating_duration_since(Instant::now()));
        Ok(())
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
            bump!(release self.stats, tx_delay_released_data, out.sent);
        } else {
            bump!(release self.stats, tx_delay_released_ctrl, out.sent);
        }
        bump!(release self.stats, tx_release_errors, out.errors);
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
            bump!(release self.stats, rx_delay_released, 1);
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
            out.add(&self.inner.send_batch(&self.stage_ring, &self.stage_queue)?);
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

/// `t` as an offset from `epoch`, on the plan's clock (picoseconds).
fn plan_time(epoch: Instant, t: Instant) -> SimTime {
    SimTime(t.saturating_duration_since(epoch).as_nanos() as u64 * 1_000)
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
        self.fire_due_crash()?;
        if let Some(e) = self.rx.syscall_error(&mut self.rng) {
            bump!(self.stats, synth_recv_errors, 1);
            return Err(e);
        }
        self.inner.recv_batch(ring)?;
        // The one reading, after the receive: what it brought arrived
        // by now, not by when the call began.
        let now = Instant::now();
        self.flush_tx_due(now)?;
        let f = self.rx.imp;
        if !ring.is_empty() && self.rx.in_blackout(plan_time(self.epoch, now)) {
            bump!(self.stats, rx_blackholed, ring.len() as u64);
            ring.reset();
        } else if !ring.is_empty() && self.rx.impairs() {
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
                if u < f.loss {
                    bump!(self.stats, rx_dropped, 1);
                    ring.swap_remove(i);
                    continue;
                }
                if u < f.loss + f.delay {
                    let hold = self.rx.hold(&mut self.rng);
                    self.rx_held.push(Held {
                        release_at: now + hold,
                        addr: ring.source(i),
                        is_data: false, // unused on rx
                        bytes: ring.datagram(i).into(),
                    });
                    bump!(self.stats, rx_delayed, 1);
                    ring.swap_remove(i);
                    continue;
                }
                if u < f.loss + f.delay + f.duplicate {
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
        if let Some(e) = self.tx.syscall_error(&mut self.rng) {
            bump!(self.stats, synth_send_errors, 1);
            return Err(e);
        }
        let blackout = self.tx.in_blackout(plan_time(self.epoch, now));
        let f = self.tx.imp;
        if !blackout && !self.tx.impairs() {
            return self.inner.send_batch(ring, queue); // clean fast path
        }
        self.stage_ring.reset();
        self.stage_queue.clear();
        let mut out = SendOutcome::default();
        for i in 0..queue.len() {
            let (bytes, dest) = queue.resolve(ring, i);
            let is_data = is_data_bytes(bytes);
            if blackout {
                bump!(self.stats, is_data => tx_blackholed_data | tx_blackholed_ctrl);
                // The link ate it, but the kernel "accepted" it from the
                // relay's perspective.
                out.sent += 1;
                continue;
            }
            let u = self.rng.next_f64();
            if u < f.loss {
                bump!(self.stats, is_data => tx_dropped_data | tx_dropped_ctrl);
                out.sent += 1;
                continue;
            }
            if u < f.loss + f.delay {
                let hold = self.tx.hold(&mut self.rng);
                self.tx_held.push(Held {
                    release_at: now + hold,
                    addr: dest,
                    is_data,
                    bytes: bytes.into(),
                });
                bump!(self.stats, is_data => tx_delayed_data | tx_delayed_ctrl);
                out.sent += 1;
                continue;
            }
            let dup = u < f.loss + f.delay + f.duplicate;
            let corrupt = f.corrupt > 0.0 && self.rng.next_f64() < f.corrupt;
            // Corruption mutates only the staging copy, so a duplicate
            // staged from the same source bytes goes out clean.
            self.stage_tx(bytes, dest, corrupt, &mut out)?;
            if corrupt {
                bump!(self.stats, is_data => tx_corrupted_data | tx_corrupted_ctrl);
            }
            if dup {
                self.stage_tx(bytes, dest, false, &mut out)?;
                bump!(self.stats, is_data => tx_duplicated_data | tx_duplicated_ctrl);
            }
        }
        if !self.stage_queue.is_empty() {
            out.add(&self.inner.send_batch(&self.stage_ring, &self.stage_queue)?);
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
mod plan_tests {
    use super::*;
    use dcsim::packet::AgentId;
    use dcsim::time::SimDuration;

    fn ms(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// Ports past the outbound one, a second entry on one port, shard
    /// crashes that overlap on one shard and agent crashes are refused by
    /// name; an invalid plan by its own error. Shard crashes are run.
    #[test]
    fn the_shim_refuses_what_it_cannot_model() {
        assert_eq!(check_plan(&FaultPlan::new()), Ok(()));
        let crashes = FaultPlan::new()
            .crash_shard(0, ms(10))
            .crash_shard_window(0, ms(20), ms(30))
            .crash_shard(0, ms(31))
            .crash_shard_window(1, ms(10), ms(40));
        assert_eq!(check_plan(&crashes), Ok(()));
        assert_eq!(
            check_plan(&FaultPlan::new().port_loss(PortId(2), 0.1)),
            Err(FaultError::UnknownPort {
                port: PortId(2),
                ports: 2
            })
        );
        let errors = SyscallErrors {
            port: INBOUND,
            again: 0.1,
            nobufs: 0.0,
        };
        let overlapping = "overlapping shard crashes on one shard";
        let stall = |from, to| FaultPlan::new().crash_shard_window(1, ms(from), ms(to));
        for (plan, entry) in [
            (
                FaultPlan::new().crash_agent(AgentId(0), ms(1)),
                "agent crashes",
            ),
            (
                FaultPlan::new().crash_shard(1, ms(5)).crash_shard(1, ms(5)),
                overlapping,
            ),
            (stall(5, 10).crash_shard(1, ms(10)), overlapping),
            (
                stall(8, 20).crash_shard_window(1, ms(5), ms(9)),
                overlapping,
            ),
            (
                FaultPlan::new()
                    .port_loss(OUTBOUND, 0.1)
                    .port_corruption(OUTBOUND, 0.1),
                "two impairments on one port",
            ),
            (
                FaultPlan {
                    syscall_errors: vec![errors, errors],
                    ..FaultPlan::new()
                },
                "two syscall-error entries on one port",
            ),
        ] {
            let interpreter = "the relay's socket shim";
            let refused = Err(FaultError::Unsupported { interpreter, entry });
            assert_eq!(check_plan(&plan), refused, "{plan:?}");
        }
        let invalid = FaultPlan::new().port_loss(INBOUND, 1.5);
        assert_eq!(check_plan(&invalid), invalid.validate());
    }

    #[test]
    fn blackout_membership() {
        let plan = FaultPlan::new()
            .link_down_window(INBOUND, ms(10), ms(20))
            .link_down(OUTBOUND, ms(30));
        let (rx, tx) = (
            Direction::of(&plan, INBOUND),
            Direction::of(&plan, OUTBOUND),
        );
        assert!(!rx.in_blackout(ms(9)));
        assert!(rx.in_blackout(ms(10)));
        assert!(rx.in_blackout(SimTime(ms(20).0 - 1)));
        assert!(!rx.in_blackout(ms(20)));
        assert!(
            !tx.in_blackout(ms(15)),
            "a window darkens its own direction"
        );
        assert!(tx.in_blackout(ms(30)) && tx.in_blackout(ms(60_000)));
    }

    #[test]
    fn snapshot_pending_arithmetic() {
        let s = FaultSnapshot {
            rx_delayed: 10,
            rx_delay_released: 7,
            ..FaultSnapshot::default()
        };
        assert_eq!(s.rx_delay_pending(), 3);
    }
}

// Shim behavior tests need real sockets; skipped under Miri.
#[cfg(all(test, not(miri)))]
mod io_tests {
    use super::*;
    use crate::batch::{self, RecvRing, SendQueue};
    use crate::wire::WireHeader;
    use dcsim::time::SimDuration;
    use std::net::UdpSocket;

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().expect("addr")
    }

    /// A plan holding one impairment.
    fn impaired(imp: PortImpairment) -> FaultPlan {
        FaultPlan {
            impairments: vec![imp],
            ..FaultPlan::new()
        }
    }

    fn faulted(plan: FaultPlan, seed: u64) -> (FaultedIo, Arc<FaultStats>, SocketAddr) {
        faulted_on(SocketLayer::Auto, plan, seed)
    }

    fn faulted_on(
        layer: SocketLayer,
        plan: FaultPlan,
        seed: u64,
    ) -> (FaultedIo, Arc<FaultStats>, SocketAddr) {
        let inner = batch::open(UdpSocket::bind(loopback()).unwrap(), layer).unwrap();
        let addr = inner.local_addr().unwrap();
        let stats = Arc::new(FaultStats::default());
        let epoch = Instant::now();
        let io = FaultedIo::new(inner, &plan, 0, seed, epoch, epoch, stats.clone());
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
        let (mut io, stats, addr) = faulted(FaultPlan::new().port_loss(INBOUND, 1.0), 7);
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
        let (mut io, stats, addr) = faulted(
            impaired(PortImpairment {
                delay: 1.0,
                delay_max: SimDuration::from_millis(10),
                ..PortImpairment::none(INBOUND)
            }),
            11,
        );
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
        let (mut io, stats, addr) = faulted(FaultPlan::new().port_corruption(INBOUND, 1.0), 13);
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
        let (mut io, stats, addr) = faulted(
            impaired(PortImpairment {
                duplicate: 1.0,
                ..PortImpairment::none(INBOUND)
            }),
            17,
        );
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
                impaired(PortImpairment {
                    loss: 0.2,
                    corrupt: 0.2,
                    duplicate: 0.2,
                    delay: 0.2,
                    delay_max: SimDuration::from_millis(5),
                    ..PortImpairment::none(INBOUND)
                }),
                37,
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
        let window = FaultPlan::new().link_down_window(
            INBOUND,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_millis(100),
        );
        let (mut io, stats, addr) = faulted(window, 19);
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

    /// A receive that blocks until a datagram arrives, as one on a socket
    /// with a longer timeout than [`crate::batch::RECV_POLL`] would.
    struct BlockingRecv(Box<dyn BatchIo>);

    impl BatchIo for BlockingRecv {
        fn recv_batch(&mut self, ring: &mut RecvRing) -> io::Result<usize> {
            loop {
                let got = self.0.recv_batch(ring)?;
                if got > 0 {
                    return Ok(got);
                }
            }
        }

        fn send_batch(&mut self, ring: &RecvRing, queue: &SendQueue) -> io::Result<SendOutcome> {
            self.0.send_batch(ring, queue)
        }

        fn local_addr(&self) -> io::Result<SocketAddr> {
            self.0.local_addr()
        }

        fn layer(&self) -> SocketLayer {
            self.0.layer()
        }
    }

    /// A receive is judged by when its datagrams arrived: one that starts
    /// before a blackout opens and returns with a datagram sent during it
    /// is blackholed, however long the receive blocked.
    #[test]
    fn a_receive_spanning_the_blackout_start_is_blackholed() {
        let inner = batch::open(UdpSocket::bind(loopback()).unwrap(), SocketLayer::Auto).unwrap();
        let addr = inner.local_addr().unwrap();
        let stats = Arc::new(FaultStats::default());
        let t0 = Duration::from_millis(50);
        let window = FaultPlan::new().link_down_window(
            INBOUND,
            SimTime::ZERO + SimDuration::from_millis(50),
            SimTime::ZERO + SimDuration::from_secs(30),
        );
        let epoch = Instant::now();
        let mut io = FaultedIo::new(
            Box::new(BlockingRecv(inner)),
            &window,
            0,
            5,
            epoch,
            epoch,
            stats.clone(),
        );
        let sender = std::thread::spawn(move || {
            std::thread::sleep(t0 * 2);
            UdpSocket::bind(loopback())
                .unwrap()
                .send_to(&WireHeader::data(1, 0, 1).encode(&[0]), addr)
                .unwrap();
        });
        let mut ring = RecvRing::new();
        assert!(
            epoch.elapsed() < t0,
            "the receive starts before the blackout"
        );
        let got = io.recv_batch(&mut ring).unwrap();
        sender.join().unwrap();
        assert_eq!(got, 0, "the datagram arrived inside the blackout");
        assert_eq!(stats.snapshot().rx_blackholed, 1);
    }

    /// A shard crash fails one receive of its shard's incarnation running
    /// at its time, and no other: not a later one of that incarnation,
    /// not another shard's, and not a replacement started after it, so
    /// the same crash never happens twice.
    #[test]
    fn a_shard_crash_fires_once_in_the_incarnation_running_at_its_time() {
        let plan = FaultPlan::new().crash_shard(0, SimTime::ZERO + SimDuration::from_millis(20));
        let epoch = Instant::now();
        // How many receives of `shard`'s shim, born at `born`, fail hard
        // until `until_ms` into the run.
        let failures = |shard, born, until_ms| {
            let inner = batch::open(UdpSocket::bind(loopback()).unwrap(), SocketLayer::Auto);
            let stats = Arc::new(FaultStats::default());
            let mut io = FaultedIo::new(inner.unwrap(), &plan, shard, 3, epoch, born, stats);
            let (mut ring, mut failed) = (RecvRing::new(), 0);
            while epoch.elapsed() < Duration::from_millis(until_ms) {
                if let Err(e) = io.recv_batch(&mut ring) {
                    assert_eq!(e.kind(), io::ErrorKind::Other, "{e}");
                    failed += 1;
                }
            }
            failed
        };
        assert_eq!(failures(1, epoch, 30), 0);
        assert_eq!(failures(0, epoch, 60), 1);
        assert_eq!(failures(0, Instant::now(), 90), 0);
    }

    #[test]
    fn synthetic_recv_errors_are_transient_kinds() {
        let errors = FaultPlan {
            syscall_errors: vec![SyscallErrors {
                port: INBOUND,
                again: 1.0,
                nobufs: 0.0,
            }],
            ..FaultPlan::new()
        };
        let (mut io, stats, _addr) = faulted(errors, 23);
        let mut ring = RecvRing::new();
        let err = io.recv_batch(&mut ring).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(stats.snapshot().synth_recv_errors >= 1);
    }

    /// An outbound drop, or a blackout of the outbound direction, eats a
    /// DATA datagram and a NACK, counts each by its class, and reports
    /// both sent, as the kernel would have taken them.
    #[test]
    fn tx_drop_counts_by_class() {
        let blackout = FaultPlan::new().link_down(OUTBOUND, SimTime::ZERO);
        for plan in [FaultPlan::new().port_loss(OUTBOUND, 1.0), blackout] {
            let (mut io, stats, _addr) = faulted(plan, 29);
            let peer = UdpSocket::bind(loopback()).unwrap().local_addr().unwrap();
            let mut ring = RecvRing::new();
            let mut queue = SendQueue::new();
            let (slot, len) = ring
                .stage(|buf| WireHeader::data(1, 0, 1).encode_into(buf, &[0]))
                .unwrap();
            queue.push_slot(slot, len, peer);
            queue.push_nack(1, 5, peer);
            let out = io.send_batch(&ring, &queue).unwrap();
            assert_eq!(out.sent, 2, "drops are 'accepted' from the caller's view");
            let s = stats.snapshot();
            let eaten = [
                s.tx_dropped_data + s.tx_blackholed_data,
                s.tx_dropped_ctrl + s.tx_blackholed_ctrl,
            ];
            assert_eq!(eaten, [1, 1], "{s:?}");
        }
    }

    #[test]
    fn tx_delay_releases_to_the_wire() {
        let (mut io, stats, _addr) = faulted(
            impaired(PortImpairment {
                delay: 1.0,
                delay_max: SimDuration::from_millis(10),
                ..PortImpairment::none(OUTBOUND)
            }),
            31,
        );
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
        let plan = FaultPlan::new().port_loss(INBOUND, 0.5);
        let mut survivors = Vec::new();
        for _run in 0..2 {
            let (mut io, stats, addr) = faulted(plan.clone(), 42);
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
