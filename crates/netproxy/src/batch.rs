//! Batched UDP socket layer: many datagrams per syscall.
//!
//! The single-datagram relay pays two syscalls and a buffer copy per
//! packet — the dominant cost of the Figure 5b upper bound. This module
//! drains up to [`RECV_ENTRIES`] messages per `recvmmsg` into a
//! preallocated ring and coalesces every outbound forward/NACK of a
//! batch of up to [`BATCH`] datagrams into one `sendmmsg` flush, cutting
//! the syscall count per packet from two to ~2/[`BATCH`] — and, within
//! that flush, every same-destination run into one message, which the
//! receiving end reads back as the datagrams it holds (both below).
//!
//! Two implementations sit behind the same [`BatchIo`] trait:
//!
//! * [`MmsgIo`] (Linux): `recvmmsg`/`sendmmsg` via hand-rolled FFI —
//!   deliberately no `libc` crate dependency; the five syscalls and two
//!   sockaddr layouts we need are declared locally.
//! * [`FallbackIo`] (portable): the same ring/flush interface over
//!   single-datagram `recv_from`/`send_to`, so every relay variant runs
//!   unchanged on non-Linux hosts (and the fallback path stays testable
//!   on Linux).
//!
//! Receive buffers are only recycled after the batch's sends are
//! flushed, which is what lets the relay forward straight out of the
//! receive ring (zero-copy, see [`crate::wire::DatagramView`]).
//!
//! # Run coalescing (UDP GSO)
//!
//! An incast is many senders toward one receiver, so a relay's flush is
//! mostly equal-size datagrams for one address. [`MmsgIo`] sends each
//! run of queued datagrams with the same destination and length as
//! **one** `sendmmsg` entry: its `msg_iov` gathers the run's bytes in
//! place and a `SOL_UDP/UDP_SEGMENT` cmsg carries the length, so the
//! kernel does route lookup → IP output → device → IP input once per
//! run and cuts the datagrams apart at the far end of that walk. A run
//! of one is a plain entry, and everything still leaves in the one
//! `sendmmsg`. Which datagrams join a run is decided by the queue's
//! contents alone — there is no switch.
//!
//! * **One iovec per contiguous range.** A datagram that joins a run
//!   extends the run's last iovec when its first byte is the address that
//!   iovec ends at, and gets an iovec of its own otherwise. Adjacency is
//!   a fact about two addresses, checked at the moment of joining — no
//!   slot, ring or queue records it — so a train that landed whole and is
//!   forwarded in order, datagrams packed by [`RecvRing::stage`] and the
//!   queue's packed scratch NACKs each leave as the one byte range they
//!   already are, while a hole, a slot sent shorter than it is long, a
//!   re-injected copy or the next landing area simply fails the
//!   comparison. A message's iovec count therefore says nothing about
//!   its datagrams: those are its bytes over its segment size (a run of
//!   one carries no cmsg and counts one).
//! * **Two passes.** The queue is walked twice, payload-bearing entries
//!   first, header-only ones (NACKs, reversed ACKs, bounced trimmed
//!   headers: at most [`WIRE_HEADER_LEN`] bytes) second, so interleaved
//!   forwards and NACKs form two long runs, not many two-datagram ones.
//!   Order is kept per (destination, length); across a batch it carries
//!   no meaning (see `RecvRing::swap_remove`).
//! * **Limits.** A message holds at most the socket's learned segment
//!   limit — [`BATCH`] at first, so a full batch of one destination and
//!   length leaves as one message — and 65,408 bytes (one packet until it
//!   is segmented, and only under 64 KB with its headers does a device
//!   take it whole), so a longer run continues in a new message; empty
//!   datagrams cannot be segmented and go alone; each segment plus
//!   headers must fit the path MTU, which [`MAX_DATAGRAM`] does on a
//!   1500-byte link.
//! * **Refusal.** The segment limit is a rung of `[BATCH, 64, 1]`: the
//!   kernel's `UDP_MAX_SEGMENTS` is 128 since Linux 6.9 and 64 before,
//!   and rung 1 is no coalescing at all. When the kernel refuses a
//!   multi-segment message with one of the errors a missing capability
//!   produces (`EINVAL`, `EIO`, `ENOPROTOOPT`, `EOPNOTSUPP`, `EMSGSIZE`:
//!   more segments than the kernel takes, kernel before 4.18, device
//!   without checksum offload, segment over the path MTU), the run is cut
//!   to the next rung below its length and re-sent within the same call,
//!   its datagrams each counted on its own; a first message of the cut
//!   refused the same way is cut again, down to rung 1. The rung whose
//!   first message is accepted is latched for that socket: a kernel
//!   before 6.9 goes on coalescing 64 at a time. If even a plain datagram
//!   is refused, it was the destination (port 0, say) and nothing is
//!   latched.
//!
//! [`SendOutcome`] counts datagrams in `sent`/`errors` either way, and
//! kernel entries in `messages` and `iovecs`.
//!
//! # Run splitting (UDP GRO)
//!
//! A train sent as one message is cut back into datagrams at the far end
//! of the kernel walk only if the receiving socket never asked for it
//! whole. [`MmsgIo`] asks (`SOL_UDP/UDP_GRO`): a train — from a peer's
//! `UDP_SEGMENT` send over loopback, or coalesced by a NIC's receive
//! offload — then lands as **one** `recvmmsg` entry with a control message
//! carrying its segment size, and [`RecvRing`] exposes it as one
//! `(offset, length, source)` view per datagram. Nothing is copied; the
//! relay reads, rewrites and forwards each view in place as it did each
//! buffer. Again there is no switch: what arrives coalesced is split,
//! what arrives plain is one view.
//!
//! * **Landing areas.** A coalesced message is up to 64 KB, so every one
//!   of the [`RECV_ENTRIES`] receive entries gets a 64 KB landing area:
//!   fewer, or smaller, and either many-sender traffic (nothing to
//!   coalesce — the paper's incast on a real NIC) would drain fewer
//!   datagrams per syscall, or a train would be cut short. On Linux the
//!   arena is reserved address space, resident only where bytes have
//!   landed (see [`RecvRing::new`]).
//! * **What a batch is.** One `recv_batch` returns at most
//!   [`RECV_ENTRIES`] messages but up to 128 datagrams for each (64 from
//!   a sender before Linux 6.9), so a whole [`BATCH`]-datagram train is
//!   one receive entry. The relay walks a receive in batches of at most
//!   [`BATCH`] datagrams, so everything scoped to "a batch" is the same
//!   however many datagrams one receive brought.
//! * **Oversize and damage.** A landing area cannot cut a message short,
//!   so a datagram (or train segment) longer than [`MAX_DATAGRAM`] is seen
//!   whole — and dropped by [`crate::streamlined::decide`], counted, as
//!   the cut-short copy was when it failed to parse. A message the kernel
//!   flags `MSG_TRUNC`/`MSG_CTRUNC` has unknown datagram boundaries and
//!   is handed on as one such oversize datagram.
//! * **Refusal.** A kernel before 5.0 refuses the option; nothing is
//!   latched, every message is then one view.

use crate::wire::{write_nack_into, MAX_DATAGRAM, WIRE_HEADER_LEN};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

/// Datagrams per batch: staged per ring, relayed between two counter
/// flushes, flushed per `sendmmsg`, and the most segments one coalesced
/// message is first tried with (the kernel's limit since Linux 6.9). A
/// receive can hold more datagrams than this (a coalesced message is one
/// entry, many datagrams); the relay takes it [`BATCH`] at a time.
pub const BATCH: usize = 128;

/// Messages drained per `recvmmsg`: receive entries, each with a landing
/// area of its own. Fewer than [`BATCH`]: a train is one entry however
/// many datagrams it carries, and each landing area in use costs resident
/// pages.
pub const RECV_ENTRIES: usize = 64;

/// How long a `recv_batch` blocks waiting for the first datagram before
/// returning an empty batch (keeps shutdown + sweep timers responsive).
pub const RECV_POLL: Duration = Duration::from_millis(2);

/// Which socket layer a relay / load generator runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketLayer {
    /// `recvmmsg`/`sendmmsg` on Linux, fallback elsewhere.
    Auto,
    /// Force the Linux mmsg path (errors off-Linux).
    Mmsg,
    /// Force the portable single-datagram path.
    Fallback,
}

impl SocketLayer {
    /// The layer `Auto` resolves to on this platform.
    pub fn resolved(self) -> SocketLayer {
        match self {
            SocketLayer::Auto => {
                if cfg!(target_os = "linux") {
                    SocketLayer::Mmsg
                } else {
                    SocketLayer::Fallback
                }
            }
            other => other,
        }
    }

    /// Short name for logs and JSON.
    pub fn name(self) -> &'static str {
        match self.resolved() {
            SocketLayer::Mmsg => "mmsg",
            SocketLayer::Fallback => "fallback",
            SocketLayer::Auto => unreachable!("resolved"),
        }
    }
}

/// The source of a datagram nobody sent (staged, or from an address
/// family the relay does not speak): unroutable, so nothing answers it.
const NOWHERE: SocketAddr =
    SocketAddr::new(std::net::IpAddr::V4(std::net::Ipv4Addr::UNSPECIFIED), 0);

/// One datagram of a [`RecvRing`]: where its bytes sit in the arena and
/// who sent it.
#[derive(Clone, Copy)]
struct Slot {
    off: u32,
    len: u32,
    from: SocketAddr,
}

/// The portable arena: [`RECV_ENTRIES`] landing areas on the heap, each
/// one datagram (and a little more, so an oversize datagram shows as one)
/// long. The ring off Linux and under Miri.
#[cfg(any(not(target_os = "linux"), miri))]
struct Arena(Box<[u8]>);

#[cfg(any(not(target_os = "linux"), miri))]
impl Arena {
    /// Bytes per landing area: room to see that a datagram is longer than
    /// [`MAX_DATAGRAM`], rounded to keep the areas 8-byte aligned.
    const LANDING: usize = MAX_DATAGRAM + 8;

    fn new() -> Self {
        Arena(vec![0u8; ARENA_BYTES].into_boxed_slice())
    }
}

#[cfg(any(not(target_os = "linux"), miri))]
impl std::ops::Deref for Arena {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(any(not(target_os = "linux"), miri))]
impl std::ops::DerefMut for Arena {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

#[cfg(all(target_os = "linux", not(miri)))]
use linux::Arena;

/// Bytes per landing area of a ring's arena.
const LANDING: usize = Arena::LANDING;
/// Where the arena's spill area starts, behind the landing areas: room
/// for [`BATCH`] datagrams appended to a receive (`push_received`).
const SPILL: usize = RECV_ENTRIES * LANDING;
/// Bytes of an arena.
const ARENA_BYTES: usize = SPILL + BATCH * MAX_DATAGRAM;

/// Received (or staged) datagrams, read in place by the relay loop: one
/// flat byte arena — [`RECV_ENTRIES`] landing areas and a spill area —
/// behind a table of per-datagram `(offset, length, source)` views.
///
/// [`BatchIo::recv_batch`] lands one kernel message per landing area and
/// records one view per datagram in it — several when the message is a
/// coalesced train (see the module docs, "Run splitting"). So a receive
/// holds at most [`RECV_ENTRIES`] *messages* but up to 128 datagrams for
/// each; [`RecvRing::len`] counts datagrams. Staging ([`RecvRing::stage`])
/// packs outbound datagrams from the arena's start, at most [`BATCH`] of
/// them, within its first `BATCH × MAX_DATAGRAM` bytes.
///
/// A view longer than [`MAX_DATAGRAM`] is a datagram this protocol never
/// sends (or one the kernel delivered damaged); the relay drops and
/// counts it ([`crate::streamlined::decide`]).
pub struct RecvRing {
    arena: Arena,
    slots: Vec<Slot>,
    /// Where the next appended datagram goes: behind the last one staged,
    /// or — after a receive — in the spill area.
    tail: usize,
}

impl Default for RecvRing {
    fn default() -> Self {
        Self::new()
    }
}

impl RecvRing {
    /// An empty ring. On Linux the arena is [`RECV_ENTRIES`] × 64 KB of
    /// reserved address space, resident only where datagrams have landed;
    /// elsewhere [`RECV_ENTRIES`] MTU-sized heap buffers.
    ///
    /// # Panics
    /// Panics if the address space cannot be reserved, as an allocation
    /// failure would.
    pub fn new() -> Self {
        RecvRing {
            arena: Arena::new(),
            slots: Vec::with_capacity(BATCH),
            tail: 0,
        }
    }

    /// Datagrams held by the last `recv_batch` (or staged since the last
    /// `reset`).
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the last `recv_batch` returned nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The `i`-th received datagram (immutable).
    #[inline]
    pub fn datagram(&self, i: usize) -> &[u8] {
        let s = self.slots[i];
        &self.arena[s.off as usize..][..s.len as usize]
    }

    /// The `i`-th received datagram (mutable, for in-place rewrites).
    #[inline]
    pub fn datagram_mut(&mut self, i: usize) -> &mut [u8] {
        let s = self.slots[i];
        &mut self.arena[s.off as usize..][..s.len as usize]
    }

    /// Source address of the `i`-th datagram.
    #[inline]
    pub fn source(&self, i: usize) -> SocketAddr {
        self.slots[i].from
    }

    /// Stages an outbound datagram in the next free slot: `write` fills
    /// the buffer and returns the wire length. Returns the slot index
    /// (push it into a [`SendQueue`] and flush), or `None` when the
    /// ring holds [`BATCH`] datagrams. This runs the batched path in
    /// reverse — senders (loadgen) coalesce into the same `sendmmsg`
    /// flush the relay uses.
    #[inline]
    pub fn stage(
        &mut self,
        write: impl FnOnce(&mut [u8; MAX_DATAGRAM]) -> usize,
    ) -> Option<(usize, usize)> {
        if self.slots.len() >= BATCH {
            return None;
        }
        let buf = self.arena.get_mut(self.tail..self.tail + MAX_DATAGRAM)?;
        let len = write(buf.try_into().expect("MAX_DATAGRAM bytes"));
        debug_assert!(len <= MAX_DATAGRAM);
        Some((self.append(len, NOWHERE), len))
    }

    /// Empties the ring (between staged send batches).
    #[inline]
    pub fn reset(&mut self) {
        self.slots.clear();
        self.tail = 0;
    }

    /// Removes datagram `i` by swapping it with the last slot (datagram
    /// order within a batch carries no meaning — each is routed
    /// independently). Used by the fault shim to drop/steal inbound
    /// datagrams before the relay sees them. Must not be called while a
    /// [`SendQueue`] holds slot references into this ring.
    #[inline]
    pub(crate) fn swap_remove(&mut self, i: usize) {
        self.slots.swap_remove(i);
    }

    /// Appends a received datagram (bytes + source address) to what the
    /// last receive landed — the fault shim's delay-release path, which
    /// re-injects previously stolen datagrams as if they had just
    /// arrived. Returns false when the spill area is used up (it has room
    /// for [`BATCH`] datagrams per receive, however many landed) or
    /// `bytes` is no datagram of ours.
    #[inline]
    pub(crate) fn push_received(&mut self, bytes: &[u8], from: SocketAddr) -> bool {
        if bytes.len() > MAX_DATAGRAM {
            return false;
        }
        let Some(buf) = self.arena.get_mut(self.tail..self.tail + bytes.len()) else {
            return false;
        };
        buf.copy_from_slice(bytes);
        self.append(bytes.len(), from);
        true
    }

    /// Records the `len` bytes at `tail` as the next datagram; returns its
    /// slot index.
    #[inline]
    fn append(&mut self, len: usize, from: SocketAddr) -> usize {
        self.slots.push(Slot {
            off: self.tail as u32,
            len: len as u32,
            from,
        });
        self.tail += len;
        self.slots.len() - 1
    }

    /// Landing area `area`: where a socket layer has the kernel write one
    /// message.
    #[inline]
    pub(crate) fn landing_mut(&mut self, area: usize) -> &mut [u8] {
        &mut self.arena[area * LANDING..][..LANDING]
    }

    /// Records the message of `len` bytes the kernel wrote into landing
    /// area `area`: one view per `segment`-byte datagram of a coalesced
    /// train (the last may be shorter), one view for the whole of a plain
    /// message (`segment` 0).
    #[inline]
    pub(crate) fn land(&mut self, area: usize, len: usize, segment: usize, from: SocketAddr) {
        debug_assert!(len <= LANDING);
        let base = area * LANDING;
        // A plain message is its own (only) segment; so is an empty one.
        let segment = if segment == 0 { len.max(1) } else { segment };
        let mut at = 0;
        loop {
            let n = segment.min(len - at);
            self.slots.push(Slot {
                off: (base + at) as u32,
                len: n as u32,
                from,
            });
            at += n;
            if at >= len {
                break;
            }
        }
        self.tail = SPILL;
    }
}

// Offsets are stored as u32.
const _: () = assert!(ARENA_BYTES <= u32::MAX as usize);

/// Where a queued outbound datagram's bytes live.
#[derive(Debug, Clone, Copy)]
enum SendSrc {
    /// A slice of a receive-ring slot (zero-copy forward / in-place NACK).
    Slot { slot: u32, len: u32 },
    /// A freshly built header in the scratch ring (generated NACKs).
    Scratch(u32),
}

/// Outbound datagrams coalesced for one `sendmmsg` flush.
///
/// Entries reference the receive ring by slot index (no copies) or a
/// scratch ring of generated headers; both stay valid until
/// [`SendQueue::clear`], which the relay calls only after the flush.
pub struct SendQueue {
    entries: Vec<(SendSrc, SocketAddr)>,
    scratch: Vec<[u8; WIRE_HEADER_LEN]>,
}

impl Default for SendQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl SendQueue {
    /// An empty queue with capacity for a full batch plus NACKs.
    pub fn new() -> Self {
        SendQueue {
            entries: Vec::with_capacity(2 * BATCH),
            scratch: Vec::with_capacity(BATCH),
        }
    }

    /// Discards all queued datagrams (after a flush).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.scratch.clear();
    }

    /// Queued datagram count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Queues the first `len` bytes of receive-ring slot `slot` for
    /// `dest` — the zero-copy forward path.
    #[inline]
    pub fn push_slot(&mut self, slot: usize, len: usize, dest: SocketAddr) {
        self.entries.push((
            SendSrc::Slot {
                slot: slot as u32,
                len: len as u32,
            },
            dest,
        ));
    }

    /// Builds a NACK header in the scratch ring and queues it for `dest`
    /// (no allocation in steady state).
    #[inline]
    pub fn push_nack(&mut self, flow: u64, seq: u64, dest: SocketAddr) {
        let mut buf = [0u8; WIRE_HEADER_LEN];
        write_nack_into(&mut buf, flow, seq);
        self.scratch.push(buf);
        self.entries
            .push((SendSrc::Scratch(self.scratch.len() as u32 - 1), dest));
    }

    /// Resolves entry `i` to its bytes and destination. `pub(crate)` so
    /// the fault shim can inspect/copy queued datagrams before deciding
    /// their fate.
    #[inline]
    pub(crate) fn resolve<'a>(&'a self, ring: &'a RecvRing, i: usize) -> (&'a [u8], SocketAddr) {
        let (src, dest) = self.entries[i];
        let bytes = match src {
            SendSrc::Slot { slot, len } => &ring.datagram(slot as usize)[..len as usize],
            SendSrc::Scratch(idx) => &self.scratch[idx as usize][..],
        };
        (bytes, dest)
    }
}

trace::counters! {
    "netproxy.send";
    /// Result of a batch flush: datagrams handed to the kernel and hard
    /// send errors (counted, never silently dropped — see `RelayStats`).
    /// `sent` and `errors` count **datagrams**, however few kernel entries
    /// carried them.
    pub struct SendOutcome {
        /// Datagrams accepted by the kernel.
        sent,
        /// Datagrams the kernel refused (per-datagram errors).
        errors,
        /// Entries the kernel accepted: one per coalesced run on [`MmsgIo`]
        /// (so `messages < sent` means coalescing happened), one per
        /// datagram on [`FallbackIo`].
        messages,
        /// Iovecs of the accepted entries: one per contiguous byte range on
        /// [`MmsgIo`] (so `iovecs < sent` means datagrams adjacent in memory
        /// left as one range), one per datagram on [`FallbackIo`].
        iovecs,
    }
}

/// A batched datagram socket: drain many per receive call, flush many
/// per send call. Implementations are used from exactly one shard
/// thread at a time (`&mut self`).
pub trait BatchIo: Send {
    /// Blocks up to [`RECV_POLL`] for the first message, then drains
    /// whatever else is ready, up to [`RECV_ENTRIES`] messages. Returns the
    /// number of datagrams now in `ring` (0 on timeout): at most
    /// [`RECV_ENTRIES`] on [`FallbackIo`], up to 128 (what the sender's
    /// kernel allows a train) per message on [`MmsgIo`] — a caller that
    /// sizes anything by [`BATCH`] walks the ring in slices.
    fn recv_batch(&mut self, ring: &mut RecvRing) -> io::Result<usize>;

    /// Flushes every queued datagram. Per-datagram failures are counted
    /// in the outcome; only unrecoverable socket errors return `Err`.
    fn send_batch(&mut self, ring: &RecvRing, queue: &SendQueue) -> io::Result<SendOutcome>;

    /// The bound address.
    fn local_addr(&self) -> io::Result<SocketAddr>;

    /// Which layer this is (for stats/logs).
    fn layer(&self) -> SocketLayer;
}

/// Opens the batched layer over `socket` according to `layer`.
///
/// # Errors
/// `Unsupported` when `Mmsg` is forced on a non-Linux platform.
pub fn open(socket: UdpSocket, layer: SocketLayer) -> io::Result<Box<dyn BatchIo>> {
    match layer.resolved() {
        SocketLayer::Mmsg => {
            #[cfg(target_os = "linux")]
            {
                Ok(Box::new(MmsgIo::new(socket)?))
            }
            #[cfg(not(target_os = "linux"))]
            {
                Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "mmsg layer requires Linux",
                ))
            }
        }
        SocketLayer::Fallback => Ok(Box::new(FallbackIo::new(socket)?)),
        SocketLayer::Auto => unreachable!("resolved"),
    }
}

/// True when `recv`'s error just means "nothing ready before the poll
/// timeout" rather than a broken socket.
pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// The portable single-datagram implementation: same ring/flush
/// interface, one syscall per datagram underneath.
pub struct FallbackIo {
    socket: UdpSocket,
}

impl FallbackIo {
    /// Wraps `socket`, configuring the receive-poll timeout.
    pub fn new(socket: UdpSocket) -> io::Result<Self> {
        socket.set_read_timeout(Some(RECV_POLL))?;
        Ok(FallbackIo { socket })
    }

    /// Where datagram `i` of a receive lands: one byte more than the
    /// longest datagram the protocol sends, so a longer one is seen to be
    /// longer (and dropped) instead of being cut to a length that parses.
    fn landing(ring: &mut RecvRing, i: usize) -> &mut [u8] {
        &mut ring.landing_mut(i)[..MAX_DATAGRAM + 1]
    }
}

impl BatchIo for FallbackIo {
    fn recv_batch(&mut self, ring: &mut RecvRing) -> io::Result<usize> {
        ring.reset();
        // First datagram: block up to the poll timeout.
        match self.socket.recv_from(FallbackIo::landing(ring, 0)) {
            Ok((n, from)) => ring.land(0, n, 0, from),
            Err(e) if is_timeout(&e) => return Ok(0),
            Err(e) => return Err(e),
        }
        // Drain whatever else is already queued without blocking again.
        self.socket.set_nonblocking(true)?;
        while ring.len() < RECV_ENTRIES {
            let i = ring.len();
            match self.socket.recv_from(FallbackIo::landing(ring, i)) {
                Ok((n, from)) => ring.land(i, n, 0, from),
                Err(e) if is_timeout(&e) => break,
                Err(e) => {
                    self.socket.set_nonblocking(false)?;
                    return Err(e);
                }
            }
        }
        self.socket.set_nonblocking(false)?;
        Ok(ring.len())
    }

    fn send_batch(&mut self, ring: &RecvRing, queue: &SendQueue) -> io::Result<SendOutcome> {
        let mut outcome = SendOutcome::default();
        for i in 0..queue.len() {
            let (bytes, dest) = queue.resolve(ring, i);
            loop {
                match self.socket.send_to(bytes, dest) {
                    Ok(_) => outcome.sent += 1,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => outcome.errors += 1,
                }
                break;
            }
        }
        outcome.messages = outcome.sent;
        outcome.iovecs = outcome.sent;
        Ok(outcome)
    }

    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    fn layer(&self) -> SocketLayer {
        SocketLayer::Fallback
    }
}

/// Binds a UDP socket with `SO_REUSEPORT` (Linux), so N shard sockets
/// can share one port and the kernel steers each 4-tuple consistently
/// to one of them. Asked for port 0, it gets a port no other socket
/// holds; asked for an explicit port, it joins the group there. Off
/// Linux this is a plain bind — callers clamp their shard count to 1
/// there (see `shard.rs`).
pub fn bind_reuseport(addr: SocketAddr) -> io::Result<UdpSocket> {
    bind_udp(addr, true)
}

/// Binds a UDP socket that shares its port with nobody, with the
/// enlarged buffers [`bind_reuseport`] asks for: what a load generator
/// binds.
pub fn bind_buffered(addr: SocketAddr) -> io::Result<UdpSocket> {
    bind_udp(addr, false)
}

#[cfg(target_os = "linux")]
use linux::bind_udp;

#[cfg(not(target_os = "linux"))]
fn bind_udp(addr: SocketAddr, _reuseport: bool) -> io::Result<UdpSocket> {
    UdpSocket::bind(addr)
}

/// Whether multi-shard port sharing is available on this platform.
pub fn reuseport_available() -> bool {
    cfg!(target_os = "linux")
}

#[cfg(all(test, target_os = "linux"))]
pub(crate) use linux::set_gso_size;
#[cfg(target_os = "linux")]
pub use linux::MmsgIo;

/// Linux `recvmmsg`/`sendmmsg` implementation with local FFI
/// declarations (no external crate; these link against the system libc).
#[cfg(target_os = "linux")]
mod linux {
    #[cfg(not(miri))]
    use super::ARENA_BYTES;
    use super::{
        is_timeout, BatchIo, RecvRing, SendOutcome, SendQueue, SocketLayer, BATCH, LANDING,
        MAX_DATAGRAM, NOWHERE, RECV_ENTRIES, RECV_POLL, WIRE_HEADER_LEN,
    };
    use std::io;
    use std::mem;
    use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, SocketAddrV4, SocketAddrV6, UdpSocket};
    use std::os::fd::{AsRawFd, FromRawFd, RawFd};

    use std::ffi::{c_int, c_uint, c_void};

    // ---- minimal libc surface ------------------------------------------

    const AF_INET: c_int = 2;
    const AF_INET6: c_int = 10;
    const SOCK_DGRAM: c_int = 2;
    const SOCK_CLOEXEC: c_int = 0x80000;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEPORT: c_int = 15;
    const SO_RCVBUF: c_int = 8;
    const SO_SNDBUF: c_int = 7;
    const MSG_WAITFORONE: c_int = 0x10000;
    const MSG_DONTWAIT: c_int = 0x40;
    const MSG_TRUNC: c_int = 0x20;
    const MSG_CTRUNC: c_int = 0x8;
    const SOL_UDP: c_int = 17;
    const UDP_SEGMENT: c_int = 103;
    const UDP_GRO: c_int = 104;
    const EIO: i32 = 5;
    const EINVAL: i32 = 22;
    const EMSGSIZE: i32 = 90;
    const ENOPROTOOPT: i32 = 92;
    const EOPNOTSUPP: i32 = 95;

    /// Segments one `UDP_SEGMENT` message may carry on a kernel before 6.9
    /// (its `UDP_MAX_SEGMENTS`; 6.9 raised it to 128): the middle rung of
    /// a socket's segment limit, `[BATCH, 64, 1]`.
    const OLD_MAX_SEGS: usize = 64;
    /// Most bytes one `UDP_SEGMENT` message may carry. A coalesced message
    /// is one packet until it is segmented, and a device — loopback
    /// included — takes it unsegmented only while the packet, link header
    /// and all, stays under its `gso_max_size` (65,536 unless raised): past
    /// that the stack cuts it apart in software on the way out and it
    /// arrives as plain datagrams. 128 bytes cover UDP, IPv6 and a tagged
    /// Ethernet header.
    const GSO_MAX_BYTES: usize = (1 << 16) - 128;

    /// The ring's arena on Linux: [`RECV_ENTRIES`] landing areas of 64 KB —
    /// no UDP message, coalesced or not, is longer — and the spill area, as
    /// *reserved address space*.
    /// An anonymous `MAP_NORESERVE` mapping costs no memory until a page is
    /// written, so the ring is resident only where datagrams have landed:
    /// a page or two per landing area in use, not 4 MB (DESIGN.md §13,
    /// "Run splitting").
    #[cfg(not(miri))]
    pub(super) struct Arena {
        base: std::ptr::NonNull<u8>,
    }

    #[cfg(not(miri))]
    impl Arena {
        /// Bytes per landing area.
        pub(super) const LANDING: usize = 1 << 16;

        pub(super) fn new() -> Self {
            const PROT_READ: c_int = 1;
            const PROT_WRITE: c_int = 2;
            const MAP_PRIVATE: c_int = 0x02;
            const MAP_ANONYMOUS: c_int = 0x20;
            const MAP_NORESERVE: c_int = 0x4000;
            const MADV_NOHUGEPAGE: c_int = 15;
            // SAFETY: a fresh anonymous mapping at an address of the
            // kernel's choosing aliases nothing.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    ARENA_BYTES,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                    -1,
                    0,
                )
            };
            // MAP_FAILED is (void *)-1.
            let base = match std::ptr::NonNull::new(ptr as *mut u8) {
                Some(base) if ptr as isize != -1 => base,
                _ => panic!(
                    "RecvRing: reserving {} bytes of address space failed: {}",
                    ARENA_BYTES,
                    io::Error::last_os_error()
                ),
            };
            // A transparent huge page would make 2 MB resident at the first
            // byte landed.
            // SAFETY: advises on exactly the mapping made above.
            let rc = unsafe { madvise(ptr, ARENA_BYTES, MADV_NOHUGEPAGE) };
            // EINVAL: a kernel built without THP has nothing to opt out of.
            debug_assert!(rc == 0 || io::Error::last_os_error().raw_os_error() == Some(EINVAL));
            Arena { base }
        }
    }

    #[cfg(not(miri))]
    impl Drop for Arena {
        fn drop(&mut self) {
            // SAFETY: unmaps exactly the mapping `new` made; every borrow of
            // its bytes went through `&self`/`&mut self` and has ended.
            let rc = unsafe { munmap(self.base.as_ptr() as *mut c_void, ARENA_BYTES) };
            debug_assert_eq!(rc, 0, "munmap of the ring arena");
        }
    }

    #[cfg(not(miri))]
    impl std::ops::Deref for Arena {
        type Target = [u8];
        fn deref(&self) -> &[u8] {
            // SAFETY: `base` is a live read-write mapping of `ARENA_BYTES` bytes
            // (zero-filled where untouched), owned by `self` alone.
            unsafe { std::slice::from_raw_parts(self.base.as_ptr(), ARENA_BYTES) }
        }
    }

    #[cfg(not(miri))]
    impl std::ops::DerefMut for Arena {
        fn deref_mut(&mut self) -> &mut [u8] {
            // SAFETY: as `deref`; `&mut self` makes the borrow exclusive.
            unsafe { std::slice::from_raw_parts_mut(self.base.as_ptr(), ARENA_BYTES) }
        }
    }

    #[cfg(not(miri))]
    // SAFETY: the mapping is plain memory owned by the `Arena` alone (no
    // thread affinity, no other handle to it); moving the owner to another
    // thread moves the only access with it.
    unsafe impl Send for Arena {}

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct IoVec {
        iov_base: *mut c_void,
        iov_len: usize,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct MsgHdr {
        msg_name: *mut c_void,
        msg_namelen: c_uint,
        msg_iov: *mut IoVec,
        msg_iovlen: usize,
        msg_control: *mut c_void,
        msg_controllen: usize,
        msg_flags: c_int,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct MMsgHdr {
        msg_hdr: MsgHdr,
        msg_len: c_uint,
    }

    /// A `cmsghdr` carrying `UDP_SEGMENT`'s u16 segment size, padded to
    /// `CMSG_SPACE(2)`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct GsoCmsg {
        cmsg_len: usize,
        cmsg_level: c_int,
        cmsg_type: c_int,
        gso_size: u16,
        _pad: [u8; 6],
    }

    /// `CMSG_LEN(2)`: the struct without its tail padding.
    const GSO_CMSG_LEN: usize = mem::size_of::<GsoCmsg>() - 6;

    /// Bytes of a `cmsghdr` (`cmsg_len`, `cmsg_level`, `cmsg_type`); its
    /// data follows, and the next header starts 8-byte aligned.
    const CMSG_HDR: usize = mem::size_of::<usize>() + 2 * mem::size_of::<c_int>();

    /// Control-message room of one receive entry: `UDP_GRO`'s
    /// `CMSG_SPACE(4)` is 24 bytes; the rest is slack for whatever else the
    /// socket's owner switched on before handing it over.
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    struct RecvCtrl([u8; 64]);

    impl RecvCtrl {
        const EMPTY: RecvCtrl = RecvCtrl([0; 64]);
    }

    /// The `UDP_GRO` segment size among the control messages the kernel
    /// wrote into `ctrl`, if it sent one: the length of every datagram of
    /// the coalesced message but the last.
    fn gro_segment(ctrl: &[u8]) -> Option<usize> {
        let int = |at: usize| {
            ctrl.get(at..at + mem::size_of::<c_int>())
                .map(|b| c_int::from_ne_bytes(b.try_into().expect("sliced to size")))
        };
        let mut at = 0;
        while let Some(len) = ctrl.get(at..at + mem::size_of::<usize>()) {
            let len = usize::from_ne_bytes(len.try_into().expect("sliced to size"));
            if len < CMSG_HDR || len > ctrl.len() - at {
                break;
            }
            let level = at + mem::size_of::<usize>();
            let ty = level + mem::size_of::<c_int>();
            if int(level) == Some(SOL_UDP) && int(ty) == Some(UDP_GRO) {
                return int(at + CMSG_HDR).and_then(|size| usize::try_from(size).ok());
            }
            at += len.next_multiple_of(mem::size_of::<usize>());
        }
        None
    }
    // `gso_size` is a u16.
    const _: () = assert!(MAX_DATAGRAM <= u16::MAX as usize);

    /// How many `len`-byte datagrams one message may carry under a limit
    /// of `segments`: 1 (no coalescing) for empty datagrams, which cannot
    /// be segmented.
    fn max_segments(len: usize, segments: usize) -> usize {
        GSO_MAX_BYTES
            .checked_div(len)
            .map_or(1, |n| n.clamp(1, segments))
    }

    /// The rung a refused message of `n` segments is cut to: the next of
    /// `[BATCH, 64, 1]` below `n`.
    fn rung_below(n: usize) -> usize {
        if n > OLD_MAX_SEGS {
            OLD_MAX_SEGS
        } else {
            1
        }
    }

    /// The errors a multi-segment message can fail with when fewer
    /// segments, or the datagrams alone, might be sendable: more segments
    /// than the kernel takes, kernel without `UDP_SEGMENT`, device without
    /// checksum offload, segment + headers over the path MTU.
    fn gso_refused(e: &io::Error) -> bool {
        matches!(
            e.raw_os_error(),
            Some(EINVAL | EIO | ENOPROTOOPT | EOPNOTSUPP | EMSGSIZE)
        )
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct SockAddrIn {
        sin_family: u16,
        sin_port: u16, // network order
        sin_addr: u32, // network order
        sin_zero: [u8; 8],
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct SockAddrIn6 {
        sin6_family: u16,
        sin6_port: u16, // network order
        sin6_flowinfo: u32,
        sin6_addr: [u8; 16],
        sin6_scope_id: u32,
    }

    /// Generic storage big enough for either family, like sockaddr_storage.
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    struct SockAddrStorage {
        bytes: [u8; 128],
    }

    impl SockAddrStorage {
        fn zeroed() -> Self {
            SockAddrStorage { bytes: [0; 128] }
        }
    }

    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn bind(fd: c_int, addr: *const c_void, addrlen: c_uint) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: c_uint,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
        #[cfg(not(miri))]
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        #[cfg(not(miri))]
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        #[cfg(not(miri))]
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        fn recvmmsg(
            fd: c_int,
            msgvec: *mut MMsgHdr,
            vlen: c_uint,
            flags: c_int,
            timeout: *mut c_void,
        ) -> c_int;
        fn sendmmsg(fd: c_int, msgvec: *mut MMsgHdr, vlen: c_uint, flags: c_int) -> c_int;
    }

    fn encode_addr(addr: SocketAddr, storage: &mut SockAddrStorage) -> c_uint {
        match addr {
            SocketAddr::V4(v4) => {
                let raw = SockAddrIn {
                    sin_family: AF_INET as u16,
                    sin_port: v4.port().to_be(),
                    sin_addr: u32::from(*v4.ip()).to_be(),
                    sin_zero: [0; 8],
                };
                // SAFETY: SockAddrIn is plain-old-data smaller than storage.
                unsafe {
                    std::ptr::write(storage.bytes.as_mut_ptr() as *mut SockAddrIn, raw);
                }
                mem::size_of::<SockAddrIn>() as c_uint
            }
            SocketAddr::V6(v6) => {
                let raw = SockAddrIn6 {
                    sin6_family: AF_INET6 as u16,
                    sin6_port: v6.port().to_be(),
                    sin6_flowinfo: v6.flowinfo().to_be(),
                    sin6_addr: v6.ip().octets(),
                    sin6_scope_id: v6.scope_id(),
                };
                // SAFETY: SockAddrIn6 is plain-old-data smaller than storage.
                unsafe {
                    std::ptr::write(storage.bytes.as_mut_ptr() as *mut SockAddrIn6, raw);
                }
                mem::size_of::<SockAddrIn6>() as c_uint
            }
        }
    }

    fn decode_addr(storage: &SockAddrStorage) -> Option<SocketAddr> {
        let family = u16::from_ne_bytes([storage.bytes[0], storage.bytes[1]]);
        if family == AF_INET as u16 {
            // SAFETY: kernel wrote a sockaddr_in for AF_INET.
            let raw = unsafe { std::ptr::read(storage.bytes.as_ptr() as *const SockAddrIn) };
            Some(SocketAddr::V4(SocketAddrV4::new(
                Ipv4Addr::from(u32::from_be(raw.sin_addr)),
                u16::from_be(raw.sin_port),
            )))
        } else if family == AF_INET6 as u16 {
            // SAFETY: kernel wrote a sockaddr_in6 for AF_INET6.
            let raw = unsafe { std::ptr::read(storage.bytes.as_ptr() as *const SockAddrIn6) };
            Some(SocketAddr::V6(SocketAddrV6::new(
                Ipv6Addr::from(raw.sin6_addr),
                u16::from_be(raw.sin6_port),
                u32::from_be(raw.sin6_flowinfo),
                raw.sin6_scope_id,
            )))
        } else {
            None
        }
    }

    fn set_opt_i32(fd: RawFd, level: c_int, opt: c_int, value: c_int) -> io::Result<()> {
        // SAFETY: passes a valid pointer/size pair for a c_int option.
        let rc = unsafe {
            setsockopt(
                fd,
                level,
                opt,
                &value as *const c_int as *const c_void,
                mem::size_of::<c_int>() as c_uint,
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Turns UDP transmit checksums off/on (`SO_NO_CHECK`): the kernel
    /// refuses `UDP_SEGMENT` on such a socket but sends plain datagrams, a
    /// capability miss tests can provoke on loopback.
    #[cfg(test)]
    pub(super) fn set_no_check(socket: &UdpSocket, on: bool) -> io::Result<()> {
        const SO_NO_CHECK: c_int = 11;
        set_opt_i32(socket.as_raw_fd(), SOL_SOCKET, SO_NO_CHECK, on as c_int)
    }

    /// Makes every `send` on `socket` a `UDP_SEGMENT` train of `size`-byte
    /// datagrams (the last may be shorter): trains `send_batch` itself
    /// never builds — a short tail, oversize segments — for tests.
    #[cfg(test)]
    pub(crate) fn set_gso_size(socket: &UdpSocket, size: u16) -> io::Result<()> {
        set_opt_i32(socket.as_raw_fd(), SOL_UDP, UDP_SEGMENT, size as c_int)
    }

    /// Whether this kernel grants `UDP_GRO` (Linux 5.0): what tests may
    /// expect of the message count, never of the datagrams.
    #[cfg(test)]
    pub(super) fn gro_available() -> bool {
        UdpSocket::bind("127.0.0.1:0")
            .and_then(|probe| set_opt_i32(probe.as_raw_fd(), SOL_UDP, UDP_GRO, 1))
            .is_ok()
    }

    /// `socket() + large buffers + bind()`, with `SO_REUSEPORT` if asked,
    /// returned as a std socket (who owns the fd from here on).
    ///
    /// On an explicit port the option goes on before `bind`, so the
    /// socket joins the group that holds the port. On port 0 it goes on
    /// after: the kernel's port pick does not count a port that a
    /// same-user reuseport group holds as taken, so a socket that asked
    /// with the option set could land in that group and take a share of
    /// its traffic. Bound first, the socket holds a port of its own, which
    /// its siblings then join.
    pub(super) fn bind_udp(addr: SocketAddr, reuseport: bool) -> io::Result<UdpSocket> {
        let family = match addr {
            SocketAddr::V4(_) => AF_INET,
            SocketAddr::V6(_) => AF_INET6,
        };
        // SAFETY: plain socket(2) call.
        let fd = unsafe { socket(family, SOCK_DGRAM | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let guard_close = |e: io::Error| {
            // SAFETY: fd came from socket(2) above and is not yet owned.
            // simlint: allow(ffi-unchecked-return) — error-path drop guard; a failed close of a never-used fd has no recovery
            unsafe { close(fd) };
            e
        };
        let autobind = addr.port() == 0;
        if reuseport && !autobind {
            set_opt_i32(fd, SOL_SOCKET, SO_REUSEPORT, 1).map_err(guard_close)?;
        }
        // Loopback line-rate bursts overflow the default buffers long
        // before the datapath is the bottleneck; ask for more (the kernel
        // clamps to net.core.*mem_max on its own).
        let _ = set_opt_i32(fd, SOL_SOCKET, SO_RCVBUF, 4 << 20);
        let _ = set_opt_i32(fd, SOL_SOCKET, SO_SNDBUF, 4 << 20);
        let mut storage = SockAddrStorage::zeroed();
        let len = encode_addr(addr, &mut storage);
        // SAFETY: storage holds a valid sockaddr of length `len`.
        let rc = unsafe { bind(fd, storage.bytes.as_ptr() as *const c_void, len) };
        if rc < 0 {
            return Err(guard_close(io::Error::last_os_error()));
        }
        if reuseport && autobind {
            set_opt_i32(fd, SOL_SOCKET, SO_REUSEPORT, 1).map_err(guard_close)?;
        }
        // SAFETY: fd is a freshly bound, unowned UDP socket.
        Ok(unsafe { UdpSocket::from_raw_fd(fd) })
    }

    /// One flush as the kernel is handed it: message `m` is header `m`,
    /// address `m`, cmsg `m` and the next `msg_iovlen` iovecs. Planning
    /// ([`SendPlan::build`]) needs no socket.
    ///
    /// A header's `msg_len` holds its message's bytes: ours going in (the
    /// kernel does not read it), the kernel's count of what it sent coming
    /// out — the same number, a datagram send being all or nothing.
    #[derive(Default)]
    struct SendPlan {
        addrs: Vec<SockAddrStorage>,
        ctrl: Vec<GsoCmsg>,
        iovs: Vec<IoVec>,
        hdrs: Vec<MMsgHdr>,
    }

    impl SendPlan {
        /// Plans the flush of `queue`: runs per the module docs ("Run
        /// coalescing"; at most `segments` datagrams a message, so 1 makes
        /// every datagram its own), one iovec per contiguous byte range of
        /// a run.
        fn build(&mut self, ring: &RecvRing, queue: &SendQueue, segments: usize) {
            // At most one iovec and one message per datagram.
            self.clear(queue.len());
            // Payload-bearing entries, then header-only ones, so a batch of
            // mixed traffic forms two long runs instead of many short ones.
            for header_only in [false, true] {
                let mut run = None; // (destination, length) of the open run
                let mut room = 0; // segments the open run can still take
                for i in 0..queue.len() {
                    let (bytes, dest) = queue.resolve(ring, i);
                    let len = bytes.len();
                    if (len <= WIRE_HEADER_LEN) != header_only {
                        continue;
                    }
                    let iov = IoVec {
                        iov_base: bytes.as_ptr() as *mut c_void,
                        iov_len: len,
                    };
                    if room > 0 && run == Some((dest, len)) {
                        room -= 1;
                        self.join(iov);
                        continue;
                    }
                    run = Some((dest, len));
                    room = max_segments(len, segments) - 1;
                    let mut addr = SockAddrStorage::zeroed();
                    let addr_len = encode_addr(dest, &mut addr);
                    let ctrl = GsoCmsg {
                        cmsg_len: GSO_CMSG_LEN,
                        cmsg_level: SOL_UDP,
                        cmsg_type: UDP_SEGMENT,
                        gso_size: len as u16,
                        _pad: [0; 6],
                    };
                    self.open(addr, addr_len, ctrl, iov);
                }
            }
            self.link();
        }

        /// Plans message `m` of `whole` over again, cut to at most
        /// `segments` datagrams a message: its ranges cut back at the
        /// segment size and regrouped, adjacent ones merged as `build`
        /// merges them (so at rung 1, one plain message per datagram).
        fn cut(&mut self, whole: &SendPlan, m: usize, segments: usize) {
            let run = whole.hdrs[m].msg_hdr;
            let ctrl = whole.ctrl[m];
            let segment = ctrl.gso_size as usize;
            let first: usize = whole.hdrs[..m].iter().map(|h| h.msg_hdr.msg_iovlen).sum();
            self.clear(whole.datagrams(m..m + 1) as usize);
            let mut room = 0;
            for iov in &whole.iovs[first..first + run.msg_iovlen] {
                // Whole datagrams of one length went into every iovec.
                for at in (0..iov.iov_len).step_by(segment) {
                    let datagram = IoVec {
                        iov_base: iov.iov_base.wrapping_byte_add(at),
                        iov_len: segment,
                    };
                    if room > 0 {
                        room -= 1;
                        self.join(datagram);
                    } else {
                        room = segments - 1;
                        self.open(whole.addrs[m], run.msg_namelen, ctrl, datagram);
                    }
                }
            }
            self.link();
        }

        /// Empties the plan, with room for `datagrams` messages.
        fn clear(&mut self, datagrams: usize) {
            self.addrs.clear();
            self.ctrl.clear();
            self.iovs.clear();
            self.hdrs.clear();
            self.addrs.reserve(datagrams);
            self.ctrl.reserve(datagrams);
            self.iovs.reserve(datagrams);
            self.hdrs.reserve(datagrams);
        }

        /// Opens a message holding the one datagram `iov`, for the address
        /// in `addr` (`addr_len` bytes of it); `ctrl` goes along once a
        /// second datagram joins.
        fn open(&mut self, addr: SockAddrStorage, addr_len: c_uint, ctrl: GsoCmsg, iov: IoVec) {
            self.addrs.push(addr);
            self.ctrl.push(ctrl);
            self.iovs.push(iov);
            self.hdrs.push(MMsgHdr {
                msg_hdr: MsgHdr {
                    msg_namelen: addr_len,
                    msg_iovlen: 1,
                    ..zero_msghdr()
                },
                msg_len: iov.iov_len as c_uint,
            });
        }

        /// Adds the datagram `iov` to the last message opened: as more of
        /// that message's last iovec when it starts where that one ends.
        fn join(&mut self, iov: IoVec) {
            let open = self.hdrs.last_mut().expect("a run is open");
            open.msg_len += iov.iov_len as c_uint;
            // More than one datagram: the cmsg goes along.
            open.msg_hdr.msg_controllen = mem::size_of::<GsoCmsg>();
            let last = self.iovs.last_mut().expect("a run has an iovec");
            if last.iov_base.wrapping_byte_add(last.iov_len) == iov.iov_base {
                last.iov_len += iov.iov_len;
            } else {
                self.iovs.push(iov);
                open.msg_hdr.msg_iovlen += 1;
            }
        }

        /// Points every header at its address, its iovecs and — a train —
        /// its cmsg. Pointers are taken only now, after the last push
        /// (`wrapping_add` stays in bounds by the layout above).
        fn link(&mut self) {
            let addrs = self.addrs.as_mut_ptr();
            let ctrl = self.ctrl.as_mut_ptr();
            let iovs = self.iovs.as_mut_ptr();
            let mut first = 0;
            for (m, hdr) in self.hdrs.iter_mut().enumerate() {
                let h = &mut hdr.msg_hdr;
                h.msg_name = addrs.wrapping_add(m) as *mut c_void;
                h.msg_iov = iovs.wrapping_add(first);
                if h.msg_controllen != 0 {
                    h.msg_control = ctrl.wrapping_add(m) as *mut c_void;
                }
                first += h.msg_iovlen;
            }
        }

        /// Datagrams carried by messages `msgs`: a message with the cmsg
        /// holds its bytes over its segment size (every datagram of a run
        /// has that length), one without is one datagram.
        fn datagrams(&self, msgs: std::ops::Range<usize>) -> u64 {
            msgs.map(|m| {
                let hdr = &self.hdrs[m];
                if hdr.msg_hdr.msg_controllen == 0 {
                    1
                } else {
                    u64::from(hdr.msg_len) / u64::from(self.ctrl[m].gso_size)
                }
            })
            .sum()
        }

        /// Iovecs of messages `msgs`.
        fn iovecs(&self, msgs: std::ops::Range<usize>) -> u64 {
            self.hdrs[msgs]
                .iter()
                .map(|h| h.msg_hdr.msg_iovlen)
                .sum::<usize>() as u64
        }
    }

    /// The `recvmmsg`/`sendmmsg` implementation of [`BatchIo`].
    pub struct MmsgIo {
        socket: UdpSocket,
        // Receive scaffolding: entry `i` names address slot `i`, control
        // slot `i` and landing area `i` of the ring whose arena starts at
        // `recv_base`. Built when a call brings a ring with another base,
        // not per call.
        recv_addrs: Box<[SockAddrStorage; RECV_ENTRIES]>,
        recv_ctrl: Box<[RecvCtrl; RECV_ENTRIES]>,
        recv_iovs: Box<[IoVec; RECV_ENTRIES]>,
        recv_hdrs: Box<[MMsgHdr; RECV_ENTRIES]>,
        recv_base: *mut u8,
        /// The flush being sent, and the one run of it the kernel refused,
        /// re-sent cut to a lower rung.
        send: SendPlan,
        resend: SendPlan,
        /// Most datagrams one `UDP_SEGMENT` message carries: a rung of
        /// `[BATCH, 64, 1]` (1: no coalescing), lowered for good to the
        /// rung whose first message the kernel accepts after refusing a
        /// longer one.
        pub(super) segments: usize,
    }

    // SAFETY: the raw pointers inside the preallocated scaffolding point
    // into the same struct's boxes, into borrows passed to the current
    // call, or — the receive iovecs and `recv_base`, kept across calls —
    // at a ring's arena. Those are addresses only: nothing reads or writes
    // through them but the kernel, during a `recv_batch` that holds that
    // very ring `&mut` (the base is compared first). The type is used from
    // one thread at a time.
    unsafe impl Send for MmsgIo {}

    fn zero_msghdr() -> MsgHdr {
        MsgHdr {
            msg_name: std::ptr::null_mut(),
            msg_namelen: 0,
            msg_iov: std::ptr::null_mut(),
            msg_iovlen: 0,
            msg_control: std::ptr::null_mut(),
            msg_controllen: 0,
            msg_flags: 0,
        }
    }

    impl MmsgIo {
        /// Wraps `socket`, configuring the receive-poll timeout and asking
        /// for coalesced trains whole (`UDP_GRO`).
        pub fn new(socket: UdpSocket) -> io::Result<Self> {
            socket.set_read_timeout(Some(RECV_POLL))?;
            // Refused before Linux 5.0: the kernel then keeps delivering
            // one datagram per message, which `recv_batch` reads the same.
            let _ = set_opt_i32(socket.as_raw_fd(), SOL_UDP, UDP_GRO, 1);
            let zero_mmsg = MMsgHdr {
                msg_hdr: zero_msghdr(),
                msg_len: 0,
            };
            Ok(MmsgIo {
                socket,
                recv_addrs: Box::new([SockAddrStorage::zeroed(); RECV_ENTRIES]),
                recv_ctrl: Box::new([RecvCtrl::EMPTY; RECV_ENTRIES]),
                recv_iovs: Box::new(
                    [IoVec {
                        iov_base: std::ptr::null_mut(),
                        iov_len: 0,
                    }; RECV_ENTRIES],
                ),
                recv_hdrs: Box::new([zero_mmsg; RECV_ENTRIES]),
                recv_base: std::ptr::null_mut(),
                send: SendPlan::default(),
                resend: SendPlan::default(),
                segments: BATCH,
            })
        }

        /// As [`MmsgIo::new`] with the segment limit at `segments`: 1 is
        /// coalescing latched off, as after a refused `UDP_SEGMENT` message
        /// whose datagrams went one by one (the parity reference for
        /// tests); over 128 is a top rung no kernel takes.
        #[cfg(test)]
        pub(crate) fn at_rung(socket: UdpSocket, segments: usize) -> io::Result<Self> {
            let mut io = Self::new(socket)?;
            io.segments = segments;
            Ok(io)
        }

        /// As [`MmsgIo::new`] on a socket that never asked for `UDP_GRO`
        /// (a kernel before 5.0): every message is one datagram. The
        /// parity reference for the receive side.
        #[cfg(test)]
        pub(crate) fn without_gro(socket: UdpSocket) -> io::Result<Self> {
            let io = Self::new(socket)?;
            set_opt_i32(io.socket.as_raw_fd(), SOL_UDP, UDP_GRO, 0)?;
            Ok(io)
        }

        /// Points receive entry `i` at landing area `i` of the arena at
        /// `base`, for every `i`.
        fn aim_at(&mut self, base: *mut u8) {
            for i in 0..RECV_ENTRIES {
                self.recv_iovs[i] = IoVec {
                    iov_base: base.wrapping_add(i * LANDING) as *mut c_void,
                    iov_len: LANDING,
                };
                self.recv_hdrs[i] = MMsgHdr {
                    msg_hdr: MsgHdr {
                        msg_name: self.recv_addrs[i].bytes.as_mut_ptr() as *mut c_void,
                        msg_namelen: mem::size_of::<SockAddrStorage>() as c_uint,
                        msg_iov: &mut self.recv_iovs[i],
                        msg_iovlen: 1,
                        msg_control: self.recv_ctrl[i].0.as_mut_ptr() as *mut c_void,
                        msg_controllen: mem::size_of::<RecvCtrl>(),
                        msg_flags: 0,
                    },
                    msg_len: 0,
                };
            }
            self.recv_base = base;
        }
    }

    impl BatchIo for MmsgIo {
        fn recv_batch(&mut self, ring: &mut RecvRing) -> io::Result<usize> {
            ring.reset();
            let base = ring.arena.as_mut_ptr();
            if base != self.recv_base {
                self.aim_at(base);
            }
            // MSG_WAITFORONE: block (≤ SO_RCVTIMEO) for the first message,
            // then drain whatever is already queued — one syscall total.
            // SAFETY: every header names an address slot, a control slot
            // and an iovec inside `self`'s boxes, of the advertised sizes;
            // the iovecs name the `RECV_ENTRIES` disjoint landing areas of
            // `ring`'s arena (`aim_at(base)` ran for this very base, and
            // every arena begins with `RECV_ENTRIES * LANDING` bytes of them),
            // which `ring`, borrowed `&mut` for the whole call, keeps alive
            // and unaliased.
            let got = unsafe {
                recvmmsg(
                    self.socket.as_raw_fd(),
                    self.recv_hdrs.as_mut_ptr(),
                    RECV_ENTRIES as c_uint,
                    MSG_WAITFORONE,
                    std::ptr::null_mut(),
                )
            };
            if got < 0 {
                let e = io::Error::last_os_error();
                if is_timeout(&e) {
                    return Ok(0);
                }
                return Err(e);
            }
            for area in 0..got as usize {
                let len = self.recv_hdrs[area].msg_len as usize;
                let hdr = &mut self.recv_hdrs[area].msg_hdr;
                // Cut short, or its control message was: where its
                // datagrams end is not known. Hand it on as one datagram
                // longer than any the relay accepts — dropped, and counted.
                let damaged = hdr.msg_flags & (MSG_TRUNC | MSG_CTRUNC) != 0;
                let (len, segment) = if damaged {
                    (len.max(MAX_DATAGRAM + 1), 0)
                } else {
                    let ctrl = &self.recv_ctrl[area].0;
                    let ctrl = &ctrl[..hdr.msg_controllen.min(ctrl.len())];
                    (len, gro_segment(ctrl).unwrap_or(0))
                };
                // The kernel replaced both lengths with what it wrote.
                hdr.msg_namelen = mem::size_of::<SockAddrStorage>() as c_uint;
                hdr.msg_controllen = mem::size_of::<RecvCtrl>();
                // An unparsable family is not our protocol; keep the
                // datagrams but give them an unroutable source so the relay
                // drops them.
                let from = decode_addr(&self.recv_addrs[area]).unwrap_or(NOWHERE);
                ring.land(area, len, segment, from);
            }
            Ok(ring.len())
        }

        fn send_batch(&mut self, ring: &RecvRing, queue: &SendQueue) -> io::Result<SendOutcome> {
            let mut outcome = SendOutcome::default();
            if queue.is_empty() {
                return Ok(outcome);
            }
            self.send.build(ring, queue, self.segments);
            // Messages of `send` dealt with; and, while message `done` is
            // being re-sent cut to a rung, those of `resend` and that rung.
            let mut done = 0;
            let mut redone: Option<(usize, usize)> = None;
            loop {
                let (plan, at) = match redone {
                    Some((at, _)) => (&mut self.resend, at),
                    None => (&mut self.send, done),
                };
                let end = plan.hdrs.len();
                if at == end {
                    if redone.take().is_none() {
                        break;
                    }
                    done += 1;
                    continue;
                }
                let pending = &mut plan.hdrs[at..];
                // SAFETY: every pointer in `pending` was taken by `link` (the
                // end of `build` and `cut`) after the vectors of address, cmsg
                // and iovec it points into reached their final length, and
                // nothing touches those until the plan is next built or cut —
                // `send` at the next call, `resend` only to be sent again from
                // its first message — so none has moved; the iovecs point into
                // `ring` and `queue`, which are borrowed for the whole call.
                let rc = unsafe {
                    sendmmsg(
                        self.socket.as_raw_fd(),
                        pending.as_mut_ptr(),
                        pending.len() as c_uint,
                        MSG_DONTWAIT,
                    )
                };
                let step = if rc >= 0 {
                    let accepted = at..at + rc as usize;
                    outcome.messages += rc as u64;
                    outcome.iovecs += plan.iovecs(accepted.clone());
                    outcome.sent += plan.datagrams(accepted);
                    if let Some((0, rung)) = redone {
                        // The cut run's first message left: the refusal was
                        // about its segments, not about the destination.
                        self.segments = rung;
                    }
                    rc as usize
                } else {
                    let e = io::Error::last_os_error();
                    if e.kind() == io::ErrorKind::Interrupted {
                        continue;
                    }
                    if is_timeout(&e) {
                        // Kernel send queue full: brief blocking retry of
                        // the remainder via the same syscall without
                        // DONTWAIT would stall the shard; count and move on.
                        outcome.errors += plan.datagrams(at..end);
                        if redone.is_some() {
                            let rest = done + 1..self.send.hdrs.len();
                            outcome.errors += self.send.datagrams(rest);
                        }
                        break;
                    }
                    let datagrams = plan.datagrams(at..at + 1);
                    // A run of `send`, or the first message of its cut
                    // (nothing of which has left): down one rung.
                    if datagrams > 1 && gso_refused(&e) && redone.is_none_or(|(at, _)| at == 0) {
                        let rung = rung_below(datagrams as usize);
                        self.resend.cut(&self.send, done, rung);
                        redone = Some((0, rung));
                        continue;
                    }
                    // Per-datagram refusal (e.g. unroutable dest): skip it,
                    // count it, keep flushing the rest.
                    outcome.errors += datagrams;
                    1
                };
                match &mut redone {
                    Some((at, _)) => *at += step,
                    None => done += step,
                }
            }
            Ok(outcome)
        }

        fn local_addr(&self) -> io::Result<SocketAddr> {
            self.socket.local_addr()
        }

        fn layer(&self) -> SocketLayer {
            SocketLayer::Mmsg
        }
    }

    /// The run planner without a socket (so under Miri too): adversarial
    /// queues against the run rules written down a second time, one iovec
    /// per datagram.
    #[cfg(test)]
    mod plan_tests {
        use super::super::SPILL;
        use super::*;

        /// A flush as the module docs give it, unmerged: per message its
        /// destination and its datagrams.
        type Runs<'a> = Vec<(SocketAddr, Vec<&'a [u8]>)>;

        /// The flush of `queue` at a limit of `segments` a message.
        fn runs<'a>(ring: &'a RecvRing, queue: &'a SendQueue, segments: usize) -> Runs<'a> {
            let mut msgs: Runs = Vec::new();
            for header_only in [false, true] {
                let mut open = false; // the last message is this pass's open run
                for i in 0..queue.len() {
                    let (bytes, dest) = queue.resolve(ring, i);
                    if (bytes.len() <= WIRE_HEADER_LEN) != header_only {
                        continue;
                    }
                    match msgs.last_mut() {
                        Some((to, run))
                            if open
                                && (*to, run[0].len()) == (dest, bytes.len())
                                && run.len() < max_segments(bytes.len(), segments) =>
                        {
                            run.push(bytes)
                        }
                        _ => msgs.push((dest, vec![bytes])),
                    }
                    open = true;
                }
            }
            msgs
        }

        /// `iov` as (address, length).
        fn span(iov: &IoVec) -> (usize, usize) {
            (iov.iov_base.addr(), iov.iov_len)
        }

        /// `iov` cut at `segment`, as (address, length) pieces.
        fn pieces(iov: &IoVec, segment: usize) -> Vec<(usize, usize)> {
            let base = iov.iov_base.addr();
            if iov.iov_len == 0 {
                return vec![span(iov)];
            }
            assert_eq!(iov.iov_len % segment, 0, "whole datagrams per iovec");
            (0..iov.iov_len)
                .step_by(segment)
                .map(|at| (base + at, segment))
                .collect()
        }

        /// The bytes `iov` names, read through the buffer it was built
        /// from: the ring's arena or the queue's scratch headers.
        fn bytes_of<'a>(ring: &'a RecvRing, queue: &'a SendQueue, iov: &IoVec) -> &'a [u8] {
            let at = iov.iov_base.addr();
            [&ring.arena[..], queue.scratch.as_flattened()]
                .into_iter()
                .find_map(|buf| {
                    let off = at.checked_sub(buf.as_ptr().addr())?;
                    buf.get(off..off + iov.iov_len)
                })
                .expect("an iovec stays inside the buffer it was built from")
        }

        /// Checks that `plan` is the flush `want`, at most `segments`
        /// datagrams a message.
        fn check_plan(
            plan: &SendPlan,
            ring: &RecvRing,
            queue: &SendQueue,
            want: &Runs,
            segments: usize,
        ) {
            assert_eq!(plan.hdrs.len(), want.len());
            let total: usize = want.iter().map(|(_, run)| run.len()).sum();
            assert_eq!(plan.datagrams(0..want.len()), total as u64);
            let mut first = 0;
            for (m, (dest, run)) in want.iter().enumerate() {
                let MMsgHdr { msg_hdr, msg_len } = plan.hdrs[m];
                let segment = run[0].len();
                assert_eq!(decode_addr(&plan.addrs[m]), Some(*dest));
                let addr_len = encode_addr(*dest, &mut SockAddrStorage::zeroed());
                assert_eq!(msg_hdr.msg_namelen, addr_len);
                assert_eq!(plan.ctrl[m].gso_size as usize, segment);
                assert_eq!(plan.datagrams(m..m + 1), run.len() as u64);
                assert_eq!(msg_len as usize, run.len() * segment);
                assert!(run.len() <= segments && msg_len as usize <= GSO_MAX_BYTES);
                // Linked to its own address, iovecs and — a train — cmsg.
                assert_eq!(msg_hdr.msg_name.addr(), (&raw const plan.addrs[m]).addr());
                assert_eq!(msg_hdr.msg_iov.addr(), (&raw const plan.iovs[first]).addr());
                if run.len() > 1 {
                    assert_eq!(msg_hdr.msg_controllen, mem::size_of::<GsoCmsg>());
                    assert_eq!(msg_hdr.msg_control.addr(), (&raw const plan.ctrl[m]).addr());
                } else {
                    assert_eq!(msg_hdr.msg_controllen, 0);
                    assert!(msg_hdr.msg_control.is_null());
                }
                // The iovecs, cut at the segment size, are the run's
                // datagrams in the run's order: each queued datagram is
                // covered once, and the wire bytes are the unmerged plan's.
                let iovs = &plan.iovs[first..first + msg_hdr.msg_iovlen];
                let datagrams: Vec<_> = run.iter().map(|d| (d.as_ptr().addr(), d.len())).collect();
                let cut: Vec<_> = iovs.iter().flat_map(|v| pieces(v, segment)).collect();
                assert_eq!(cut, datagrams);
                let wire: Vec<u8> = iovs
                    .iter()
                    .flat_map(|v| bytes_of(ring, queue, v))
                    .copied()
                    .collect();
                assert_eq!(wire, run.concat());
                // Merged where adjacent, and only there.
                let breaks = run
                    .windows(2)
                    .filter(|w| w[0].as_ptr_range().end != w[1].as_ptr())
                    .count();
                assert_eq!(iovs.len(), 1 + breaks);
                first += msg_hdr.msg_iovlen;
            }
            assert_eq!(first, plan.iovs.len());
        }

        fn check(ring: &RecvRing, queue: &SendQueue, segments: usize) {
            let mut plan = SendPlan::default();
            plan.build(ring, queue, segments);
            let want = runs(ring, queue, segments);
            check_plan(&plan, ring, queue, &want, segments);
            assert_eq!(plan.datagrams(0..want.len()), queue.len() as u64);
            // Refused, a message goes again cut to each rung below it, as
            // exactly its datagrams in runs of at most that rung.
            for (m, (dest, run)) in want.iter().enumerate() {
                let mut rung = run.len();
                while rung > 1 {
                    rung = rung_below(rung);
                    let mut again = SendPlan::default();
                    again.cut(&plan, m, rung);
                    let cut: Runs = run.chunks(rung).map(|c| (*dest, c.to_vec())).collect();
                    check_plan(&again, ring, queue, &cut, rung);
                }
            }
            // No two iovecs share a byte (no slot is queued twice below).
            let mut spans: Vec<_> = plan.iovs.iter().map(span).collect();
            spans.retain(|&(_, len)| len > 0);
            spans.sort_unstable();
            assert!(spans.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0));
        }

        #[test]
        fn adversarial_queues_plan_as_the_unmerged_runs_do() {
            const LENS: [usize; 4] = [0, WIRE_HEADER_LEN, 88, MAX_DATAGRAM];
            let dests: [SocketAddr; 2] =
                ["127.0.0.1:9".parse().unwrap(), "[::1]:9".parse().unwrap()];
            let mut ring = RecvRing::new();
            let mut queue = SendQueue::new();
            trace::cases(24, if cfg!(miri) { 8 } else { 256 }, |_, rng| {
                let mut draw = |n: usize| rng.next_bounded(n as u64) as usize;
                ring.reset();
                queue.clear();
                if draw(4) == 0 {
                    // Packed by `stage`, in runs of equal length.
                    let mut len = 88;
                    while ring.len() < BATCH && ring.tail + MAX_DATAGRAM <= SPILL {
                        if draw(4) == 0 {
                            len = LENS[draw(4)];
                        }
                        ring.stage(|_| len).expect("room was checked");
                    }
                } else {
                    // Up to three messages landed, trains and plain ones,
                    // a short tail now and then; some views stolen, some
                    // copies re-injected behind them.
                    for area in 0..1 + draw(3) {
                        let segment = LENS[1 + draw(3)];
                        let most = (LANDING / segment).min(BATCH) * segment;
                        match draw(3) {
                            0 => ring.land(area, LENS[draw(4)], 0, NOWHERE),
                            1 => ring.land(area, most, segment, NOWHERE),
                            _ => ring.land(area, 1 + draw(most), segment, NOWHERE),
                        }
                    }
                    for _ in 0..draw(4).min(ring.len()) {
                        ring.swap_remove(draw(ring.len()));
                    }
                    for _ in 0..draw(4) {
                        assert!(ring.push_received(&[0; MAX_DATAGRAM][..LENS[draw(4)]], NOWHERE));
                    }
                }
                for slot in 0..ring.len() {
                    ring.datagram_mut(slot).fill(slot as u8);
                }
                // Each slot at most once: in order, reversed, or with holes
                // and out of order; a header bounced in place of its datagram
                // and a scratch NACK now and then; one destination or two.
                let mut slots: Vec<usize> = (0..ring.len()).collect();
                match draw(3) {
                    0 => {}
                    1 => slots.reverse(),
                    _ => {
                        slots.retain(|_| draw(8) != 0);
                        for _ in 0..draw(4).min(slots.len()) {
                            let (a, b) = (draw(slots.len()), draw(slots.len()));
                            slots.swap(a, b);
                        }
                    }
                }
                let two = draw(2) == 0;
                for slot in slots {
                    let dest = dests[if two { draw(2) } else { 0 }];
                    let len = ring.datagram(slot).len();
                    if draw(6) == 0 {
                        queue.push_nack(7, slot as u64, dest);
                    }
                    if len > WIRE_HEADER_LEN && draw(8) == 0 {
                        queue.push_slot(slot, WIRE_HEADER_LEN, dest);
                    } else {
                        queue.push_slot(slot, len, dest);
                    }
                    if queue.len() >= 2 * BATCH {
                        break;
                    }
                }
                // The rungs of a socket's segment limit.
                for segments in [BATCH, OLD_MAX_SEGS, 1] {
                    check(&ring, &queue, segments);
                }
            });
        }
    }
}

// Socket tests are skipped under Miri (real sockets need real syscalls).
#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;
    use crate::wire::WireHeader;
    use std::net::UdpSocket;
    use std::time::Duration;

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().expect("addr")
    }

    fn layers() -> Vec<SocketLayer> {
        if cfg!(target_os = "linux") {
            vec![SocketLayer::Mmsg, SocketLayer::Fallback]
        } else {
            vec![SocketLayer::Fallback]
        }
    }

    #[test]
    fn roundtrip_single_datagram_both_layers() {
        for layer in layers() {
            let mut io = open(UdpSocket::bind(loopback()).unwrap(), layer).unwrap();
            let addr = io.local_addr().unwrap();
            let sender = UdpSocket::bind(loopback()).unwrap();
            let wire = WireHeader::data(1, 2, 3).encode(&[7, 8, 9]);
            sender.send_to(&wire, addr).unwrap();
            let mut ring = RecvRing::new();
            let mut got = 0;
            for _ in 0..500 {
                got = io.recv_batch(&mut ring).unwrap();
                if got > 0 {
                    break;
                }
            }
            assert_eq!(got, 1, "layer {:?}", layer);
            assert_eq!(ring.datagram(0), &wire[..]);
            assert_eq!(ring.source(0), sender.local_addr().unwrap());
        }
    }

    #[test]
    fn drains_many_datagrams_per_batch() {
        for layer in layers() {
            let mut io = open(UdpSocket::bind(loopback()).unwrap(), layer).unwrap();
            let addr = io.local_addr().unwrap();
            let sender = UdpSocket::bind(loopback()).unwrap();
            for seq in 0..40u64 {
                let wire = WireHeader::data(5, seq, 2).encode(&[1, 2]);
                sender.send_to(&wire, addr).unwrap();
            }
            let mut ring = RecvRing::new();
            let mut total = 0;
            let mut max_batch = 0;
            for _ in 0..1000 {
                let got = io.recv_batch(&mut ring).unwrap();
                max_batch = max_batch.max(got);
                total += got;
                if total >= 40 {
                    break;
                }
            }
            assert_eq!(total, 40, "layer {:?}", layer);
            assert!(
                max_batch > 1,
                "{:?}: batching never drained more than one ({max_batch})",
                layer
            );
        }
    }

    #[test]
    fn send_batch_flushes_ring_slots_and_nacks() {
        for layer in layers() {
            let mut io = open(UdpSocket::bind(loopback()).unwrap(), layer).unwrap();
            let addr = io.local_addr().unwrap();
            let peer = UdpSocket::bind(loopback()).unwrap();
            peer.set_read_timeout(Some(std::time::Duration::from_secs(2)))
                .unwrap();
            let peer_addr = peer.local_addr().unwrap();

            // Load one datagram into the ring via a real receive so the
            // slot path is exercised end to end.
            let probe = UdpSocket::bind(loopback()).unwrap();
            let wire = WireHeader::data(9, 1, 4).encode(&[1, 2, 3, 4]);
            probe.send_to(&wire, addr).unwrap();
            let mut ring = RecvRing::new();
            while io.recv_batch(&mut ring).unwrap() == 0 {}

            let mut queue = SendQueue::new();
            queue.push_slot(0, ring.datagram(0).len(), peer_addr);
            queue.push_nack(9, 42, peer_addr);
            let got = io.send_batch(&ring, &queue).unwrap();
            // Payload-bearing and header-only entries never share a message.
            assert_eq!(got, outcome(2, 0, 2, 2), "{:?}", layer);
            queue.clear();

            let mut buf = [0u8; 2048];
            let (n, _) = peer.recv_from(&mut buf).unwrap();
            let (h, p) = WireHeader::decode(&buf[..n]).unwrap();
            assert_eq!((h.flow, h.seq), (9, 1));
            assert_eq!(p, &[1, 2, 3, 4]);
            let (n, _) = peer.recv_from(&mut buf).unwrap();
            let (h, _) = WireHeader::decode(&buf[..n]).unwrap();
            assert_eq!(h, WireHeader::nack(9, 42));
        }
    }

    /// Every implementation under its name, bound to `bind`: both layers,
    /// plus the mmsg layer with send coalescing latched off and with
    /// receive coalescing never asked for (the parity references).
    fn ios_on(bind: &str) -> Vec<(&'static str, Box<dyn BatchIo>)> {
        let sock = || UdpSocket::bind(bind).unwrap();
        let mut all: Vec<(&'static str, Box<dyn BatchIo>)> = Vec::new();
        #[cfg(target_os = "linux")]
        {
            all.push(("mmsg", Box::new(MmsgIo::new(sock()).unwrap())));
            all.push(("mmsg-no-gso", Box::new(MmsgIo::at_rung(sock(), 1).unwrap())));
            all.push((
                "mmsg-no-gro",
                Box::new(MmsgIo::without_gro(sock()).unwrap()),
            ));
        }
        all.push(("fallback", Box::new(FallbackIo::new(sock()).unwrap())));
        all
    }

    fn ios() -> Vec<(&'static str, Box<dyn BatchIo>)> {
        ios_on("127.0.0.1:0")
    }

    /// Does `name` send a same-destination, same-length run as one message?
    fn sends_trains(name: &str) -> bool {
        matches!(name, "mmsg" | "mmsg-no-gro")
    }

    /// Does `name` receive a train as one message?
    fn lands_trains(name: &str) -> bool {
        #[cfg(target_os = "linux")]
        let gro = linux::gro_available();
        #[cfg(not(target_os = "linux"))]
        let gro = false;
        gro && matches!(name, "mmsg" | "mmsg-no-gso")
    }

    fn peer(bind: &str) -> (UdpSocket, SocketAddr) {
        let sock = UdpSocket::bind(bind).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let addr = sock.local_addr().unwrap();
        (sock, addr)
    }

    /// Queues one datagram per `plan` entry (destination, length; bytes
    /// distinct per entry), flushes them through `io` in one call, and
    /// checks what each peer received: exactly its datagrams, intact, from
    /// `io`'s address, in queue order within each length (the order
    /// `send_batch` promises).
    fn flush_and_check(
        io: &mut dyn BatchIo,
        peers: &[&UdpSocket],
        plan: &[(SocketAddr, usize)],
    ) -> SendOutcome {
        let mut ring = RecvRing::new();
        let mut queue = SendQueue::new();
        for (i, &(dest, len)) in plan.iter().enumerate() {
            let bytes: Vec<u8> = (0..len).map(|b| (i as u8).wrapping_add(b as u8)).collect();
            let (slot, len) = ring
                .stage(|buf| {
                    buf[..len].copy_from_slice(&bytes);
                    len
                })
                .expect("plan fits the ring");
            queue.push_slot(slot, len, dest);
        }
        flush_queue_and_check(io, peers, &ring, &queue)
    }

    /// Flushes `queue` through `io` in one call and checks what each peer
    /// received, as [`flush_and_check`] says; every queued datagram is
    /// counted, as sent or as an error.
    fn flush_queue_and_check(
        io: &mut dyn BatchIo,
        peers: &[&UdpSocket],
        ring: &RecvRing,
        queue: &SendQueue,
    ) -> SendOutcome {
        let outcome = io.send_batch(ring, queue).unwrap();
        assert_eq!(outcome.sent + outcome.errors, queue.len() as u64);
        for peer in peers {
            let addr = peer.local_addr().unwrap();
            let mut want: Vec<Vec<u8>> = (0..queue.len())
                .map(|i| queue.resolve(ring, i))
                .filter(|(_, dest)| *dest == addr)
                .map(|(bytes, _)| bytes.to_vec())
                .collect();
            let mut got = Vec::new();
            let mut buf = [0u8; 2048];
            for _ in 0..want.len() {
                let (n, from) = peer.recv_from(&mut buf).expect("every datagram arrives");
                assert_eq!(from, io.local_addr().unwrap());
                got.push(buf[..n].to_vec());
            }
            // Stable sorts by length keep the order within each length.
            want.sort_by_key(Vec::len);
            got.sort_by_key(Vec::len);
            assert_eq!(got, want);
        }
        outcome
    }

    fn outcome(sent: u64, errors: u64, messages: u64, iovecs: u64) -> SendOutcome {
        SendOutcome {
            sent,
            errors,
            messages,
            iovecs,
        }
    }

    /// What flushing `n` datagrams of one destination and length reports
    /// on `name`: one message of `ranges` iovecs where runs leave whole.
    fn run_outcome(name: &str, n: u64, ranges: u64) -> SendOutcome {
        if sends_trains(name) {
            outcome(n, 0, 1, ranges)
        } else {
            outcome(n, 0, n, n)
        }
    }

    #[test]
    fn same_destination_run_leaves_as_one_message() {
        for (name, mut io) in ios() {
            let (sock, addr) = peer("127.0.0.1:0");
            let got = flush_and_check(io.as_mut(), &[&sock], &[(addr, 88); 32]);
            // Staged back to back: the run is one byte range.
            assert_eq!(got, run_outcome(name, 32, 1), "{name}");
        }
    }

    #[test]
    fn long_run_splits_at_the_kernel_limits() {
        for (name, mut io) in ios() {
            let (sock, addr) = peer("127.0.0.1:0");
            // 64 x 1424 B is 91 KB: over the 65,408-byte message bound.
            let got = flush_and_check(io.as_mut(), &[&sock], &[(addr, MAX_DATAGRAM); 64]);
            // 45 + 19, each one byte range.
            let messages = if sends_trains(name) { 2 } else { 64 };
            assert_eq!(got, outcome(64, 0, messages, messages), "{name}");
        }
    }

    #[test]
    fn zero_length_and_mixed_length_queues() {
        for (name, mut io) in ios() {
            let (sock, addr) = peer("127.0.0.1:0");
            let lens = [0, 0, 88, 88, 24, 24, 100, 100, 100, 0, 88];
            let plan: Vec<_> = lens.iter().map(|&len| (addr, len)).collect();
            let got = flush_and_check(io.as_mut(), &[&sock], &plan);
            // 88,88 | 100,100,100 | 88, then 0 | 0 | 24,24 | 0: empty
            // datagrams never coalesce. Every run was staged back to back.
            let messages = if sends_trains(name) { 7 } else { 11 };
            assert_eq!(got, outcome(11, 0, messages, messages), "{name}");
        }
    }

    #[test]
    fn alternating_destinations_each_get_their_own() {
        for (name, mut io) in ios() {
            let (a, a_addr) = peer("127.0.0.1:0");
            let (b, b_addr) = peer("127.0.0.1:0");
            let plan: Vec<_> = (0..16)
                .map(|i| (if i % 2 == 0 { a_addr } else { b_addr }, 88))
                .collect();
            let got = flush_and_check(io.as_mut(), &[&a, &b], &plan);
            assert_eq!(got, outcome(16, 0, 16, 16), "{name}");
        }
    }

    #[test]
    fn ipv6_loopback_run() {
        let Ok(sock) = UdpSocket::bind("[::1]:0") else {
            return; // no IPv6 loopback on this host
        };
        let mut io = open(sock, SocketLayer::Auto).unwrap();
        let (sock, addr) = peer("[::1]:0");
        let got = flush_and_check(io.as_mut(), &[&sock], &[(addr, 88); 32]);
        let messages = if io.layer() == SocketLayer::Mmsg {
            1
        } else {
            32
        };
        assert_eq!(got, outcome(32, 0, messages, messages));
    }

    #[test]
    fn send_errors_are_counted_not_dropped() {
        // Port 0 is never a valid destination: the kernel refuses it.
        let nowhere: SocketAddr = "127.0.0.1:0".parse().unwrap();
        for (name, mut io) in ios() {
            let mut queue = SendQueue::new();
            queue.push_nack(1, 2, nowhere);
            let got = io.send_batch(&RecvRing::new(), &queue).unwrap();
            assert_eq!(got, outcome(0, 1, 0, 0), "{name}");

            // A refused run in the middle of a same-size batch: each of its
            // datagrams is counted once, the runs around it are delivered.
            let (sock, addr) = peer("127.0.0.1:0");
            let mut plan = vec![(addr, 88); 4];
            plan.extend([(nowhere, 88); 3]);
            plan.extend([(addr, 88); 4]);
            let got = flush_and_check(io.as_mut(), &[&sock], &plan);
            let messages = if sends_trains(name) { 2 } else { 8 };
            assert_eq!(got, outcome(8, 3, messages, messages), "{name}");

            // A bad destination is not a missing capability: still coalescing.
            let got = flush_and_check(io.as_mut(), &[&sock], &[(addr, 88); 32]);
            assert_eq!(got, run_outcome(name, 32, 1), "{name}");
        }
    }

    /// Stages `n` datagrams of 88 B for `dest` back to back, leaving slot
    /// `hole` out of the queue: a run of one byte range, or of two.
    fn staged_run(n: usize, hole: Option<usize>, dest: SocketAddr) -> (RecvRing, SendQueue) {
        let mut ring = RecvRing::new();
        let mut queue = SendQueue::new();
        for i in 0..n + hole.iter().len() {
            let (slot, len) = ring
                .stage(|buf| {
                    buf[..88].fill(i as u8);
                    88
                })
                .unwrap();
            if Some(i) != hole {
                queue.push_slot(slot, len, dest);
            }
        }
        (ring, queue)
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn refused_gso_is_resent_plain_and_latched_off() {
        // A run under every kernel's segment limit, as one byte range and
        // with a hole in it (two ranges); then one over the limit of a
        // kernel before 6.9, which steps down through rung 64 to rung 1.
        for (n, hole) in [(32, None), (32, Some(16)), (BATCH - 8, Some(BATCH / 2))] {
            let sock = UdpSocket::bind(loopback()).unwrap();
            let knob = sock.try_clone().unwrap();
            let mut io = MmsgIo::new(sock).unwrap();
            let (sock, addr) = peer("127.0.0.1:0");
            let (ring, queue) = staged_run(n, hole, addr);
            // Without transmit checksums the kernel refuses every coalesced
            // message (EINVAL) and takes the same datagrams one by one.
            linux::set_no_check(&knob, true).unwrap();
            let got = flush_queue_and_check(&mut io, &[&sock], &ring, &queue);
            let n = n as u64;
            assert_eq!(got, outcome(n, 0, n, n), "{n} hole {hole:?}");
            assert_eq!(io.segments, 1, "{n} hole {hole:?}");
            // Latched: the socket would coalesce again now, but is not asked to.
            linux::set_no_check(&knob, false).unwrap();
            let got = flush_and_check(&mut io, &[&sock], &[(addr, 88); 32]);
            assert_eq!(got, outcome(32, 0, 32, 32), "{n} hole {hole:?}");
        }
    }

    /// A run over every kernel's segment limit steps down a rung and goes
    /// on coalescing: 200 NACKs are refused as one message (EINVAL: 6.9
    /// takes 128 segments, earlier kernels 64), leave as 64 + 64 + 64 + 8,
    /// and the socket keeps rung 64.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_run_over_the_kernel_limit_steps_down_a_rung() {
        let mut io = MmsgIo::at_rung(UdpSocket::bind(loopback()).unwrap(), 256).unwrap();
        let (sock, addr) = peer("127.0.0.1:0");
        let mut queue = SendQueue::new();
        for seq in 0..200 {
            queue.push_nack(5, seq, addr);
        }
        let got = flush_queue_and_check(&mut io, &[&sock], &RecvRing::new(), &queue);
        assert_eq!(got, outcome(200, 0, 4, 4));
        assert_eq!(io.segments, 64);
        let got = flush_and_check(&mut io, &[&sock], &[(addr, 88); BATCH]);
        assert_eq!(got, outcome(BATCH as u64, 0, 2, 2));
    }

    /// A full batch of one destination and length is as few messages as
    /// the kernel's segment limit allows: one where it takes [`BATCH`]
    /// (Linux 6.9), two where it takes 64 — whose refusal of the first
    /// never latches coalescing off.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_full_batch_leaves_as_one_message_per_rung() {
        let mut io = MmsgIo::new(UdpSocket::bind(loopback()).unwrap()).unwrap();
        let (sock, addr) = peer("127.0.0.1:0");
        let (ring, queue) = staged_run(BATCH, None, addr);
        let got = flush_queue_and_check(&mut io, &[&sock], &ring, &queue);
        assert!([BATCH, 64].contains(&io.segments), "{}", io.segments);
        let messages = BATCH.div_ceil(io.segments) as u64;
        assert_eq!(got, outcome(BATCH as u64, 0, messages, messages));
    }

    /// One non-empty `recv_batch`: the datagrams it returned (bytes and
    /// source, in ring order) and the kernel messages they arrived in.
    struct Receive {
        datagrams: Vec<(Vec<u8>, SocketAddr)>,
        messages: usize,
    }

    /// Landing areas the last receive used.
    fn messages_landed(ring: &RecvRing) -> usize {
        let mut areas: Vec<u32> = ring.slots.iter().map(|s| s.off / LANDING as u32).collect();
        areas.dedup();
        areas.len()
    }

    /// Calls `recv_batch` until `want` datagrams have arrived.
    fn recv_all(io: &mut dyn BatchIo, ring: &mut RecvRing, want: usize) -> Vec<Receive> {
        let mut receives = Vec::new();
        let mut got = 0;
        let mut idle = 0;
        while got < want {
            let n = io.recv_batch(ring).unwrap();
            assert_eq!(n, ring.len());
            if n == 0 {
                idle += 1;
                assert!(idle < 500, "{got} of {want} datagrams arrived");
                continue;
            }
            got += n;
            receives.push(Receive {
                datagrams: (0..n)
                    .map(|i| (ring.datagram(i).to_vec(), ring.source(i)))
                    .collect(),
                messages: messages_landed(ring),
            });
        }
        receives
    }

    /// Sends one datagram per `lens` entry (bytes distinct per entry) from
    /// `tx` to `io` in one flush — so each same-length run travels as a
    /// `UDP_SEGMENT` train where `tx` builds them — and checks that `io`
    /// receives exactly those datagrams: bytes, source, and order within
    /// each length (the order `send_batch` promises). Returns the receives.
    fn send_and_check(tx: &mut dyn BatchIo, io: &mut dyn BatchIo, lens: &[usize]) -> Vec<Receive> {
        let dest = io.local_addr().unwrap();
        let mut staged = RecvRing::new();
        let mut queue = SendQueue::new();
        let mut want = Vec::new();
        for (i, &len) in lens.iter().enumerate() {
            let bytes: Vec<u8> = (0..len).map(|b| (i as u8).wrapping_add(b as u8)).collect();
            let (slot, len) = staged
                .stage(|buf| {
                    buf[..len].copy_from_slice(&bytes);
                    len
                })
                .expect("lens fit the ring");
            queue.push_slot(slot, len, dest);
            want.push(bytes);
        }
        let sent = tx.send_batch(&staged, &queue).unwrap();
        assert_eq!((sent.sent, sent.errors), (lens.len() as u64, 0));
        let mut ring = RecvRing::new();
        let receives = recv_all(io, &mut ring, lens.len());
        let from = tx.local_addr().unwrap();
        let mut got = Vec::new();
        for (bytes, source) in receives.iter().flat_map(|r| &r.datagrams) {
            assert_eq!(*source, from);
            got.push(bytes.clone());
        }
        // Stable sorts by length keep the order within each length.
        want.sort_by_key(Vec::len);
        got.sort_by_key(Vec::len);
        assert_eq!(got, want);
        receives
    }

    /// A sender on the platform's layer: on Linux it builds trains.
    fn train_sender(bind: &str) -> Box<dyn BatchIo> {
        open(UdpSocket::bind(bind).unwrap(), SocketLayer::Auto).unwrap()
    }

    fn messages(receives: &[Receive]) -> usize {
        receives.iter().map(|r| r.messages).sum()
    }

    #[test]
    fn trains_arrive_as_the_datagrams_sent() {
        let mut tx = train_sender("127.0.0.1:0");
        for (name, mut io) in ios() {
            // 64 x 88 B: one train.
            let got = send_and_check(tx.as_mut(), io.as_mut(), &[88; 64]);
            if lands_trains(name) {
                assert_eq!((got.len(), messages(&got)), (1, 1), "{name}");
            }
            // 64 x 1424 B is over one message's 65,408 bytes: 45 + 19.
            let got = send_and_check(tx.as_mut(), io.as_mut(), &[MAX_DATAGRAM; 64]);
            if lands_trains(name) {
                assert_eq!((got.len(), messages(&got)), (1, 2), "{name}");
            }
        }
    }

    #[test]
    fn mixed_data_and_headers_arrive_as_two_runs() {
        let mut tx = train_sender("127.0.0.1:0");
        // DATA with trimmed headers in between, as an incast under trimming
        // reaches the relay: the sender's two passes make two trains.
        let lens: Vec<usize> = (0..60)
            .map(|i| if i % 4 == 3 { WIRE_HEADER_LEN } else { 88 })
            .collect();
        for (name, mut io) in ios() {
            let got = send_and_check(tx.as_mut(), io.as_mut(), &lens);
            if lands_trains(name) {
                assert_eq!((got.len(), messages(&got)), (1, 2), "{name}");
                let lens: Vec<usize> = got[0].datagrams.iter().map(|d| d.0.len()).collect();
                let want = [vec![88; 45], vec![WIRE_HEADER_LEN; 15]].concat();
                assert_eq!(lens, want, "{name}: payload-bearing run first");
            }
        }
    }

    #[test]
    fn ipv6_loopback_train() {
        if UdpSocket::bind("[::1]:0").is_err() {
            return; // no IPv6 loopback on this host
        }
        let mut tx = train_sender("[::1]:0");
        for (name, mut io) in ios_on("[::1]:0") {
            let got = send_and_check(tx.as_mut(), io.as_mut(), &[88; 32]);
            if lands_trains(name) {
                assert_eq!((got.len(), messages(&got)), (1, 1), "{name}");
            }
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn train_with_a_short_last_datagram() {
        // 5 x 88 B and 40 B behind them, cut apart by the kernel.
        let sender = UdpSocket::bind(loopback()).unwrap();
        set_gso_size(&sender, 88).unwrap();
        let bytes: Vec<u8> = (0..5 * 88 + 40).map(|b| b as u8).collect();
        for (name, mut io) in ios() {
            sender.send_to(&bytes, io.local_addr().unwrap()).unwrap();
            let mut ring = RecvRing::new();
            let got = recv_all(io.as_mut(), &mut ring, 6);
            let datagrams: Vec<&[u8]> = got
                .iter()
                .flat_map(|r| &r.datagrams)
                .map(|d| &d.0[..])
                .collect();
            let want: Vec<&[u8]> = bytes.chunks(88).collect();
            assert_eq!(datagrams, want, "{name}");
            if lands_trains(name) {
                assert_eq!(messages(&got), 1, "{name}");
            }
        }
    }

    #[test]
    fn many_senders_still_drain_in_one_receive() {
        // The paper's incast on a real NIC: one datagram from each of as
        // many sockets as a receive has entries, nothing for the kernel to
        // coalesce.
        let senders: Vec<UdpSocket> = (0..RECV_ENTRIES)
            .map(|_| UdpSocket::bind(loopback()).unwrap())
            .collect();
        for (name, mut io) in ios() {
            let dest = io.local_addr().unwrap();
            for (i, sender) in senders.iter().enumerate() {
                let wire = WireHeader::data(i as u64, 0, 2).encode(&[i as u8, 7]);
                sender.send_to(&wire, dest).unwrap();
            }
            let mut ring = RecvRing::new();
            let got = recv_all(io.as_mut(), &mut ring, RECV_ENTRIES);
            assert_eq!((got.len(), messages(&got)), (1, RECV_ENTRIES), "{name}");
            for (i, (bytes, source)) in got[0].datagrams.iter().enumerate() {
                let (h, p) = WireHeader::decode(bytes).unwrap();
                assert_eq!((h.flow, p), (i as u64, &[i as u8, 7][..]), "{name}");
                assert_eq!(*source, senders[i].local_addr().unwrap(), "{name}");
            }
        }
    }

    #[test]
    fn oversize_message_is_seen_whole_and_oversize() {
        // The longest UDP payload IPv4 carries, as one plain datagram.
        let sender = UdpSocket::bind(loopback()).unwrap();
        let bytes: Vec<u8> = (0..65507).map(|b| (b % 251) as u8).collect();
        let after = WireHeader::data(1, 2, 1).encode(&[3]);
        for (name, mut io) in ios() {
            let dest = io.local_addr().unwrap();
            if sender.send_to(&bytes, dest).is_err() {
                return; // loopback MTU below 64 KB on this host
            }
            sender.send_to(&after, dest).unwrap();
            let mut ring = RecvRing::new();
            let got = recv_all(io.as_mut(), &mut ring, 2);
            let datagrams: Vec<&[u8]> = got
                .iter()
                .flat_map(|r| &r.datagrams)
                .map(|d| &d.0[..])
                .collect();
            if name == "fallback" {
                // Cut, but to a length that still says "too long".
                assert_eq!(datagrams[0], &bytes[..MAX_DATAGRAM + 1], "{name}");
            } else {
                assert_eq!(datagrams[0], &bytes[..], "{name}: landed intact");
            }
            assert!(datagrams[0].len() > MAX_DATAGRAM);
            assert_eq!(datagrams[1], &after[..], "{name}: the next one is whole");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn oversize_segments_of_a_train_are_each_oversize() {
        let sender = UdpSocket::bind(loopback()).unwrap();
        set_gso_size(&sender, 2000).unwrap();
        let bytes: Vec<u8> = (0..3 * 2000).map(|b| (b % 251) as u8).collect();
        for (name, mut io) in ios() {
            sender.send_to(&bytes, io.local_addr().unwrap()).unwrap();
            let mut ring = RecvRing::new();
            let got = recv_all(io.as_mut(), &mut ring, 3);
            for (k, (datagram, _)) in got.iter().flat_map(|r| &r.datagrams).enumerate() {
                let want = &bytes[k * 2000..(k + 1) * 2000];
                let seen = if name == "fallback" {
                    MAX_DATAGRAM + 1
                } else {
                    2000
                };
                assert_eq!(&datagram[..], &want[..seen], "{name}");
            }
        }
    }

    #[test]
    fn nack_rewritten_in_place_inside_a_train() {
        use crate::wire::rewrite_trimmed_to_nack;
        let mut tx = train_sender("127.0.0.1:0");
        let (sock, addr) = peer("127.0.0.1:0");
        for (name, mut io) in ios() {
            // Eight trimmed headers, back to back in one landing area where
            // trains land whole.
            let dest = io.local_addr().unwrap();
            let mut staged = RecvRing::new();
            let mut queue = SendQueue::new();
            for seq in 0..8u64 {
                let (slot, len) = staged
                    .stage(|buf| WireHeader::trimmed(5, seq).encode_into(buf, &[]))
                    .unwrap();
                queue.push_slot(slot, len, dest);
            }
            tx.send_batch(&staged, &queue).unwrap();
            let mut ring = RecvRing::new();
            let mut got = 0;
            while got < 8 {
                got = io.recv_batch(&mut ring).unwrap();
            }
            rewrite_trimmed_to_nack(ring.datagram_mut(3)).unwrap();
            let mut bounce = SendQueue::new();
            bounce.push_slot(3, WIRE_HEADER_LEN, addr);
            let sent = io.send_batch(&ring, &bounce).unwrap();
            assert_eq!(sent, outcome(1, 0, 1, 1), "{name}");
            let mut buf = [0u8; 2048];
            let (n, _) = sock.recv_from(&mut buf).unwrap();
            let (h, _) = WireHeader::decode(&buf[..n]).unwrap();
            assert_eq!(h, WireHeader::nack(5, 3), "{name}: the right 24 bytes");
            for seq in [0u64, 1, 2, 4, 5, 6, 7] {
                let (h, _) = WireHeader::decode(ring.datagram(seq as usize)).unwrap();
                assert_eq!(h, WireHeader::trimmed(5, seq), "{name}: neighbours intact");
                rewrite_trimmed_to_nack(ring.datagram_mut(seq as usize)).unwrap();
            }
            // All eight bounced: where the train landed whole, one range.
            bounce.clear();
            for slot in 0..8 {
                bounce.push_slot(slot, WIRE_HEADER_LEN, addr);
            }
            let sent = flush_queue_and_check(io.as_mut(), &[&sock], &ring, &bounce);
            let ranges = if lands_trains(name) { 1 } else { 8 };
            assert_eq!(sent, run_outcome(name, 8, ranges), "{name}");
        }
    }

    /// Lands 64 DATA datagrams of 88 B (flow 5, seq = slot) on `io` in one
    /// receive, sent from `tx` in one flush — a train where `tx` builds
    /// them, one landing area where `io` takes them whole.
    fn land_train(tx: &mut dyn BatchIo, io: &mut dyn BatchIo, ring: &mut RecvRing) {
        let dest = io.local_addr().unwrap();
        let mut staged = RecvRing::new();
        let mut queue = SendQueue::new();
        for seq in 0..64u64 {
            let (slot, len) = staged
                .stage(|buf| WireHeader::data(5, seq, 64).encode_into(buf, &[seq as u8; 64]))
                .unwrap();
            queue.push_slot(slot, len, dest);
        }
        tx.send_batch(&staged, &queue).unwrap();
        assert_eq!(recv_all(io, ring, 64).len(), 1, "one receive");
        for slot in 0..64 {
            let (h, _) = WireHeader::decode(ring.datagram(slot)).unwrap();
            assert_eq!(h, WireHeader::data(5, slot as u64, 64));
        }
    }

    #[test]
    fn train_forwarded_in_order_leaves_as_one_range() {
        let mut tx = train_sender("127.0.0.1:0");
        for (name, mut io) in ios() {
            let (sock, addr) = peer("127.0.0.1:0");
            let mut ring = RecvRing::new();
            land_train(tx.as_mut(), io.as_mut(), &mut ring);
            let mut queue = SendQueue::new();
            for slot in 0..64 {
                queue.push_slot(slot, 88, addr);
            }
            let got = flush_queue_and_check(io.as_mut(), &[&sock], &ring, &queue);
            let ranges = if lands_trains(name) { 1 } else { 64 };
            assert_eq!(got, run_outcome(name, 64, ranges), "{name}");
        }
    }

    #[test]
    fn train_forwarded_in_reverse_leaves_as_its_datagrams() {
        let mut tx = train_sender("127.0.0.1:0");
        for (name, mut io) in ios() {
            let (sock, addr) = peer("127.0.0.1:0");
            let mut ring = RecvRing::new();
            land_train(tx.as_mut(), io.as_mut(), &mut ring);
            let mut queue = SendQueue::new();
            for slot in (0..64).rev() {
                queue.push_slot(slot, 88, addr);
            }
            // No datagram starts where the one queued before it ends.
            let got = flush_queue_and_check(io.as_mut(), &[&sock], &ring, &queue);
            assert_eq!(got, run_outcome(name, 64, 64), "{name}");
        }
    }

    #[test]
    fn shed_datagram_splits_the_range_it_sat_in() {
        use crate::wire::rewrite_data_to_nack;
        let mut tx = train_sender("127.0.0.1:0");
        for (name, mut io) in ios() {
            let (sock, addr) = peer("127.0.0.1:0");
            let (sender_sock, sender) = peer("127.0.0.1:0");
            let mut ring = RecvRing::new();
            land_train(tx.as_mut(), io.as_mut(), &mut ring);
            // The overload ladder's rung 2: datagram 20 goes back to its
            // sender as a NACK, its header rewritten where it landed.
            let mut queue = SendQueue::new();
            for slot in 0..64 {
                if slot == 20 {
                    rewrite_data_to_nack(ring.datagram_mut(slot)).unwrap();
                    queue.push_slot(slot, WIRE_HEADER_LEN, sender);
                } else {
                    queue.push_slot(slot, 88, addr);
                }
            }
            let got = flush_queue_and_check(io.as_mut(), &[&sock, &sender_sock], &ring, &queue);
            // 63 payload datagrams in the ranges before and after the hole,
            // and the header.
            let want = match (sends_trains(name), lands_trains(name)) {
                (true, true) => outcome(64, 0, 2, 3),
                (true, false) => outcome(64, 0, 2, 64),
                (false, _) => outcome(64, 0, 64, 64),
            };
            assert_eq!(got, want, "{name}");
        }
    }

    #[test]
    fn scratch_nacks_leave_as_one_range() {
        for (name, mut io) in ios() {
            let (sock, addr) = peer("127.0.0.1:0");
            let mut queue = SendQueue::new();
            for seq in 0..32 {
                queue.push_nack(5, seq, addr);
            }
            let got = flush_queue_and_check(io.as_mut(), &[&sock], &RecvRing::new(), &queue);
            assert_eq!(got, run_outcome(name, 32, 1), "{name}");
        }
    }

    #[test]
    fn ring_appends_behind_what_landed_and_swaps_by_index() {
        let mut tx = train_sender("127.0.0.1:0");
        let elsewhere: SocketAddr = "127.0.0.1:9".parse().unwrap();
        for (name, mut io) in ios() {
            let dest = io.local_addr().unwrap();
            let mut staged = RecvRing::new();
            let mut queue = SendQueue::new();
            for seq in 0..4u64 {
                let (slot, len) = staged
                    .stage(|buf| WireHeader::data(5, seq, 2).encode_into(buf, &[seq as u8; 2]))
                    .unwrap();
                queue.push_slot(slot, len, dest);
            }
            tx.send_batch(&staged, &queue).unwrap();
            let mut ring = RecvRing::new();
            let mut got = 0;
            while got < 4 {
                got = io.recv_batch(&mut ring).unwrap();
            }
            // What the fault shim does: steal one, re-inject a copy.
            let stolen = ring.datagram(1).to_vec();
            ring.swap_remove(1);
            assert_eq!(ring.len(), 3, "{name}");
            assert!(ring.push_received(&stolen, elsewhere), "{name}");
            assert!(!ring.push_received(&[0; MAX_DATAGRAM + 1], elsewhere));
            let seqs: Vec<u64> = (0..ring.len())
                .map(|i| {
                    let (h, p) = WireHeader::decode(ring.datagram(i)).unwrap();
                    assert_eq!(p, &[h.seq as u8; 2], "{name}: bytes follow their view");
                    h.seq
                })
                .collect();
            assert_eq!(seqs, [0, 3, 2, 1], "{name}");
            assert_eq!(ring.source(3), elsewhere, "{name}");
            assert_eq!(ring.source(1), tx.local_addr().unwrap(), "{name}");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn reuseport_shares_a_port() {
        let a = bind_reuseport(loopback()).unwrap();
        let addr = a.local_addr().unwrap();
        let b = bind_reuseport(addr).unwrap();
        assert_eq!(b.local_addr().unwrap(), addr);
        // What a load generator binds never joins the group.
        let taken = bind_buffered(addr).unwrap_err();
        assert_eq!(taken.kind(), io::ErrorKind::AddrInUse);
        assert_ne!(
            bind_buffered(loopback()).unwrap().local_addr().unwrap(),
            addr
        );
    }

    /// An autobound reuseport socket never lands on a port a reuseport
    /// group already holds. Bound with the option set first, 11 to 24 of
    /// these 30,000 did (Linux 6.18), each taking a share of that group's
    /// traffic.
    #[cfg(target_os = "linux")]
    #[test]
    fn an_autobound_reuseport_socket_joins_no_group() {
        let held: Vec<UdpSocket> = (0..20)
            .map(|_| bind_reuseport(loopback()).unwrap())
            .collect();
        let ports: Vec<u16> = held
            .iter()
            .map(|s| s.local_addr().unwrap().port())
            .collect();
        let joined = (0..30_000)
            .map(|_| bind_reuseport(loopback()).unwrap())
            .filter(|s| ports.contains(&s.local_addr().unwrap().port()))
            .count();
        assert_eq!(joined, 0, "autobinds that joined one of {ports:?}");
        // The option is on all the same: a sibling joins each held port.
        for socket in &held {
            let addr = socket.local_addr().unwrap();
            assert_eq!(bind_reuseport(addr).unwrap().local_addr().unwrap(), addr);
        }
    }

    #[test]
    fn empty_recv_times_out_quickly() {
        for layer in layers() {
            let mut io = open(UdpSocket::bind(loopback()).unwrap(), layer).unwrap();
            let mut ring = RecvRing::new();
            let start = std::time::Instant::now();
            let got = io.recv_batch(&mut ring).unwrap();
            assert_eq!(got, 0);
            assert!(
                start.elapsed() < std::time::Duration::from_secs(1),
                "poll timeout not honored for {:?}",
                layer
            );
        }
    }
}
