//! Batched UDP socket layer: many datagrams per syscall.
//!
//! The single-datagram relay pays two syscalls and a buffer copy per
//! packet — the dominant cost of the Figure 5b upper bound. This module
//! drains up to [`BATCH`] datagrams per `recvmmsg` into a preallocated
//! ring of buffers and coalesces every outbound forward/NACK of a batch
//! into one `sendmmsg` flush, cutting the syscall count per packet from
//! two to ~2/[`BATCH`] — and, within that flush, every same-destination
//! run into one message (below).
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
//! **one** `sendmmsg` entry: its `msg_iov` gathers the run's ring slots
//! in place and a `SOL_UDP/UDP_SEGMENT` cmsg carries the length, so the
//! kernel does route lookup → IP output → device → IP input once per
//! run and cuts the datagrams apart at the far end of that walk. A run
//! of one is a plain entry, and everything still leaves in the one
//! `sendmmsg`. Which datagrams join a run is decided by the queue's
//! contents alone — there is no switch.
//!
//! * **Two passes.** The queue is walked twice, payload-bearing entries
//!   first, header-only ones (NACKs, reversed ACKs, bounced trimmed
//!   headers: at most [`WIRE_HEADER_LEN`] bytes) second, so interleaved
//!   forwards and NACKs form two long runs, not many two-datagram ones.
//!   Order is kept per (destination, length); across a batch it carries
//!   no meaning (see `RecvRing::swap_remove`).
//! * **Limits.** A message holds at most 64 segments and 65507 bytes
//!   (one UDP datagram until it is segmented), so a longer run continues
//!   in a new message; empty datagrams cannot be segmented and go alone;
//!   each segment plus headers must fit the path MTU, which
//!   [`MAX_DATAGRAM`] does on a 1500-byte link.
//! * **Refusal.** When the kernel refuses a multi-segment message with
//!   one of the errors a missing capability produces (`EINVAL`, `EIO`,
//!   `ENOPROTOOPT`, `EOPNOTSUPP`, `EMSGSIZE`: kernel before 4.18, device
//!   without checksum offload, segment over the path MTU), the run is
//!   re-sent as plain entries within the same call, each counted on its
//!   own. If the first of them is accepted, the refusal was about GSO and
//!   coalescing stays off for that socket; if it is refused too, it was
//!   the destination (port 0, say) and nothing is latched.
//!
//! [`SendOutcome`] counts datagrams in `sent`/`errors` either way, and
//! kernel entries in `messages`.

use crate::wire::{write_nack_into, MAX_DATAGRAM, WIRE_HEADER_LEN};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

/// Datagrams drained per `recvmmsg` / flushed per `sendmmsg`.
pub const BATCH: usize = 64;

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

/// A preallocated ring of receive buffers, filled by
/// [`BatchIo::recv_batch`] and consumed in place by the relay loop.
pub struct RecvRing {
    bufs: Box<[[u8; MAX_DATAGRAM]]>,
    lens: [usize; BATCH],
    addrs: [SocketAddr; BATCH],
    count: usize,
}

impl Default for RecvRing {
    fn default() -> Self {
        Self::new()
    }
}

impl RecvRing {
    /// A ring of [`BATCH`] MTU-sized buffers.
    pub fn new() -> Self {
        let placeholder: SocketAddr = SocketAddr::from(([0, 0, 0, 0], 0));
        RecvRing {
            bufs: vec![[0u8; MAX_DATAGRAM]; BATCH].into_boxed_slice(),
            lens: [0; BATCH],
            addrs: [placeholder; BATCH],
            count: 0,
        }
    }

    /// Datagrams held by the last `recv_batch`.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the last `recv_batch` returned nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `i`-th received datagram (immutable).
    #[inline]
    pub fn datagram(&self, i: usize) -> &[u8] {
        &self.bufs[i][..self.lens[i]]
    }

    /// The `i`-th received datagram (mutable, for in-place rewrites).
    #[inline]
    pub fn datagram_mut(&mut self, i: usize) -> &mut [u8] {
        &mut self.bufs[i][..self.lens[i]]
    }

    /// Source address of the `i`-th datagram.
    #[inline]
    pub fn source(&self, i: usize) -> SocketAddr {
        self.addrs[i]
    }

    /// Stages an outbound datagram in the next free slot: `write` fills
    /// the buffer and returns the wire length. Returns the slot index
    /// (push it into a [`SendQueue`] and flush), or `None` when the
    /// ring is full. This runs the batched path in reverse — senders
    /// (loadgen) coalesce into the same `sendmmsg` flush the relay uses.
    #[inline]
    pub fn stage(
        &mut self,
        write: impl FnOnce(&mut [u8; MAX_DATAGRAM]) -> usize,
    ) -> Option<(usize, usize)> {
        if self.count == BATCH {
            return None;
        }
        let i = self.count;
        let len = write(&mut self.bufs[i]);
        debug_assert!(len <= MAX_DATAGRAM);
        self.lens[i] = len;
        self.count += 1;
        Some((i, len))
    }

    /// Empties the ring (between staged send batches).
    #[inline]
    pub fn reset(&mut self) {
        self.count = 0;
    }

    /// Removes datagram `i` by swapping it with the last slot (datagram
    /// order within a batch carries no meaning — each is routed
    /// independently). Used by the fault shim to drop/steal inbound
    /// datagrams before the relay sees them. Must not be called while a
    /// [`SendQueue`] holds slot references into this ring.
    #[inline]
    pub(crate) fn swap_remove(&mut self, i: usize) {
        debug_assert!(i < self.count);
        let last = self.count - 1;
        if i != last {
            self.bufs.swap(i, last);
            self.lens.swap(i, last);
            self.addrs.swap(i, last);
        }
        self.count = last;
    }

    /// Appends a received datagram (bytes + source address) into the next
    /// free slot — the fault shim's delay-release path, which re-injects
    /// previously stolen datagrams as if they had just arrived. Returns
    /// false when the ring is full.
    #[inline]
    pub(crate) fn push_received(&mut self, bytes: &[u8], from: SocketAddr) -> bool {
        if self.count == BATCH || bytes.len() > MAX_DATAGRAM {
            return false;
        }
        let i = self.count;
        self.bufs[i][..bytes.len()].copy_from_slice(bytes);
        self.lens[i] = bytes.len();
        self.addrs[i] = from;
        self.count += 1;
        true
    }
}

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
            SendSrc::Slot { slot, len } => &ring.bufs[slot as usize][..len as usize],
            SendSrc::Scratch(idx) => &self.scratch[idx as usize][..],
        };
        (bytes, dest)
    }
}

/// Result of a batch flush: datagrams handed to the kernel and hard
/// send errors (counted, never silently dropped — see `RelayStats`).
/// `sent` and `errors` count **datagrams**, however few kernel entries
/// carried them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendOutcome {
    /// Datagrams accepted by the kernel.
    pub sent: u64,
    /// Datagrams the kernel refused (per-datagram errors).
    pub errors: u64,
    /// Entries the kernel accepted: one per coalesced run on [`MmsgIo`]
    /// (so `messages < sent` means coalescing happened), one per
    /// datagram on [`FallbackIo`].
    pub messages: u64,
}

impl std::ops::AddAssign for SendOutcome {
    fn add_assign(&mut self, o: SendOutcome) {
        self.sent += o.sent;
        self.errors += o.errors;
        self.messages += o.messages;
    }
}

/// A batched datagram socket: drain many per receive call, flush many
/// per send call. Implementations are used from exactly one shard
/// thread at a time (`&mut self`).
pub trait BatchIo: Send {
    /// Blocks up to [`RECV_POLL`] for the first datagram, then drains
    /// whatever else is ready, up to [`BATCH`]. Returns the number of
    /// datagrams now in `ring` (0 on timeout).
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
}

impl BatchIo for FallbackIo {
    fn recv_batch(&mut self, ring: &mut RecvRing) -> io::Result<usize> {
        ring.count = 0;
        // First datagram: block up to the poll timeout.
        match self.socket.recv_from(&mut ring.bufs[0]) {
            Ok((n, from)) => {
                ring.lens[0] = n;
                ring.addrs[0] = from;
                ring.count = 1;
            }
            Err(e) if is_timeout(&e) => return Ok(0),
            Err(e) => return Err(e),
        }
        // Drain whatever else is already queued without blocking again.
        self.socket.set_nonblocking(true)?;
        while ring.count < BATCH {
            let i = ring.count;
            match self.socket.recv_from(&mut ring.bufs[i]) {
                Ok((n, from)) => {
                    ring.lens[i] = n;
                    ring.addrs[i] = from;
                    ring.count += 1;
                }
                Err(e) if is_timeout(&e) => break,
                Err(e) => {
                    self.socket.set_nonblocking(false)?;
                    return Err(e);
                }
            }
        }
        self.socket.set_nonblocking(false)?;
        Ok(ring.count)
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
/// to one of them. Off Linux this is a plain bind — callers clamp their
/// shard count to 1 there (see `shard.rs`).
pub fn bind_reuseport(addr: SocketAddr) -> io::Result<UdpSocket> {
    #[cfg(target_os = "linux")]
    {
        linux::bind_reuseport(addr)
    }
    #[cfg(not(target_os = "linux"))]
    {
        UdpSocket::bind(addr)
    }
}

/// Whether multi-shard port sharing is available on this platform.
pub fn reuseport_available() -> bool {
    cfg!(target_os = "linux")
}

#[cfg(target_os = "linux")]
pub use linux::MmsgIo;

/// Linux `recvmmsg`/`sendmmsg` implementation with local FFI
/// declarations (no external crate; these link against the system libc).
#[cfg(target_os = "linux")]
mod linux {
    use super::{
        is_timeout, BatchIo, RecvRing, SendOutcome, SendQueue, SocketLayer, BATCH, MAX_DATAGRAM,
        RECV_POLL, WIRE_HEADER_LEN,
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
    const SOL_UDP: c_int = 17;
    const UDP_SEGMENT: c_int = 103;
    const EIO: i32 = 5;
    const EINVAL: i32 = 22;
    const EMSGSIZE: i32 = 90;
    const ENOPROTOOPT: i32 = 92;
    const EOPNOTSUPP: i32 = 95;

    /// Segments one `UDP_SEGMENT` message may carry (the kernel's
    /// `UDP_MAX_SEGMENTS` before 6.9; later kernels allow more).
    const GSO_MAX_SEGS: usize = 64;
    /// Largest UDP payload over IPv4; a coalesced message is one UDP
    /// datagram until the kernel segments it, so its total is bound by it.
    const UDP_MAX_PAYLOAD: usize = 65507;

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
    // `gso_size` is a u16.
    const _: () = assert!(MAX_DATAGRAM <= u16::MAX as usize);

    /// How many `len`-byte datagrams one message may carry: 1 (no
    /// coalescing) for empty datagrams, which cannot be segmented.
    fn max_segments(len: usize) -> usize {
        UDP_MAX_PAYLOAD
            .checked_div(len)
            .map_or(1, |n| n.clamp(1, GSO_MAX_SEGS))
    }

    /// Datagrams carried by `hdrs` (one iovec each).
    fn segments(hdrs: &[MMsgHdr]) -> u64 {
        hdrs.iter().map(|h| h.msg_hdr.msg_iovlen as u64).sum()
    }

    /// The errors a multi-segment message can fail with when the datagrams
    /// themselves might be sendable: kernel without `UDP_SEGMENT`, device
    /// without checksum offload, segment + headers over the path MTU.
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

    /// `socket() + SO_REUSEPORT + large buffers + bind()`, returned as a
    /// std socket (who owns the fd from here on).
    pub fn bind_reuseport(addr: SocketAddr) -> io::Result<UdpSocket> {
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
        set_opt_i32(fd, SOL_SOCKET, SO_REUSEPORT, 1).map_err(guard_close)?;
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
        // SAFETY: fd is a freshly bound, unowned UDP socket.
        Ok(unsafe { UdpSocket::from_raw_fd(fd) })
    }

    /// The `recvmmsg`/`sendmmsg` implementation of [`BatchIo`].
    pub struct MmsgIo {
        socket: UdpSocket,
        // Preallocated syscall scaffolding, rebuilt (cheaply) per call.
        recv_addrs: Box<[SockAddrStorage; BATCH]>,
        recv_iovs: Box<[IoVec; BATCH]>,
        recv_hdrs: Box<[MMsgHdr; BATCH]>,
        // Send side, sized to the queue: one iovec per datagram; one
        // header, address and cmsg per message. A header's `msg_iovlen`
        // is its datagram count.
        send_addrs: Vec<SockAddrStorage>,
        send_ctrl: Vec<GsoCmsg>,
        send_iovs: Vec<IoVec>,
        send_hdrs: Vec<MMsgHdr>,
        /// Coalesce same-destination, same-length runs into `UDP_SEGMENT`
        /// messages; cleared for good once the kernel refuses one whose
        /// datagrams it then accepts uncoalesced.
        gso: bool,
    }

    // SAFETY: the raw pointers inside the preallocated scaffolding only
    // ever point into the same struct (or into borrows passed to the
    // current call); the type is used from one thread at a time.
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
        /// Wraps `socket`, configuring the receive-poll timeout.
        pub fn new(socket: UdpSocket) -> io::Result<Self> {
            socket.set_read_timeout(Some(RECV_POLL))?;
            let zero_mmsg = MMsgHdr {
                msg_hdr: zero_msghdr(),
                msg_len: 0,
            };
            Ok(MmsgIo {
                socket,
                recv_addrs: Box::new([SockAddrStorage::zeroed(); BATCH]),
                recv_iovs: Box::new(
                    [IoVec {
                        iov_base: std::ptr::null_mut(),
                        iov_len: 0,
                    }; BATCH],
                ),
                recv_hdrs: Box::new([zero_mmsg; BATCH]),
                send_addrs: Vec::new(),
                send_ctrl: Vec::new(),
                send_iovs: Vec::new(),
                send_hdrs: Vec::new(),
                gso: true,
            })
        }

        /// As [`MmsgIo::new`] with coalescing latched off, as after a
        /// refused `UDP_SEGMENT` message: the parity reference for tests.
        #[cfg(test)]
        pub(crate) fn without_gso(socket: UdpSocket) -> io::Result<Self> {
            let mut io = Self::new(socket)?;
            io.gso = false;
            Ok(io)
        }
    }

    impl BatchIo for MmsgIo {
        fn recv_batch(&mut self, ring: &mut RecvRing) -> io::Result<usize> {
            ring.count = 0;
            for i in 0..BATCH {
                self.recv_iovs[i] = IoVec {
                    iov_base: ring.bufs[i].as_mut_ptr() as *mut c_void,
                    iov_len: ring.bufs[i].len(),
                };
                self.recv_hdrs[i] = MMsgHdr {
                    msg_hdr: MsgHdr {
                        msg_name: self.recv_addrs[i].bytes.as_mut_ptr() as *mut c_void,
                        msg_namelen: std::mem::size_of::<SockAddrStorage>() as c_uint,
                        msg_iov: &mut self.recv_iovs[i],
                        msg_iovlen: 1,
                        ..zero_msghdr()
                    },
                    msg_len: 0,
                };
            }
            // MSG_WAITFORONE: block (≤ SO_RCVTIMEO) for the first datagram,
            // then drain whatever is already queued — one syscall total.
            // SAFETY: hdrs/iovs/addrs all outlive the call and point into
            // live buffers of the advertised sizes.
            let got = unsafe {
                recvmmsg(
                    self.socket.as_raw_fd(),
                    self.recv_hdrs.as_mut_ptr(),
                    BATCH as c_uint,
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
            let got = got as usize;
            for i in 0..got {
                ring.lens[i] = self.recv_hdrs[i].msg_len as usize;
                // An unparsable family is not our protocol; keep the slot
                // but give it an unroutable source so the relay drops it.
                ring.addrs[i] = decode_addr(&self.recv_addrs[i])
                    .unwrap_or_else(|| SocketAddr::from(([0, 0, 0, 0], 0)));
            }
            ring.count = got;
            Ok(got)
        }

        fn send_batch(&mut self, ring: &RecvRing, queue: &SendQueue) -> io::Result<SendOutcome> {
            let total = queue.len();
            let mut outcome = SendOutcome::default();
            if total == 0 {
                return Ok(outcome);
            }
            self.send_addrs.clear();
            self.send_ctrl.clear();
            self.send_iovs.clear();
            self.send_hdrs.clear();
            // One iovec per datagram, at most one message per datagram.
            self.send_addrs.reserve(total);
            self.send_ctrl.reserve(total);
            self.send_iovs.reserve(total);
            self.send_hdrs.reserve(total);
            // Payload-bearing entries, then header-only ones, so a batch of
            // mixed traffic forms two long runs instead of many short ones.
            for header_only in [false, true] {
                let mut run = None; // (destination, length) of the open run
                let mut room = 0; // segments the open run can still take
                for i in 0..total {
                    let (bytes, dest) = queue.resolve(ring, i);
                    let len = bytes.len();
                    if (len <= WIRE_HEADER_LEN) != header_only {
                        continue;
                    }
                    self.send_iovs.push(IoVec {
                        iov_base: bytes.as_ptr() as *mut c_void,
                        iov_len: len,
                    });
                    if room > 0 && run == Some((dest, len)) {
                        room -= 1;
                        let open = self.send_hdrs.last_mut().expect("a run is open");
                        open.msg_hdr.msg_iovlen += 1;
                        continue;
                    }
                    run = Some((dest, len));
                    room = if self.gso { max_segments(len) - 1 } else { 0 };
                    let mut addr = SockAddrStorage::zeroed();
                    let addr_len = encode_addr(dest, &mut addr);
                    self.send_addrs.push(addr);
                    self.send_ctrl.push(GsoCmsg {
                        cmsg_len: GSO_CMSG_LEN,
                        cmsg_level: SOL_UDP,
                        cmsg_type: UDP_SEGMENT,
                        gso_size: len as u16,
                        _pad: [0; 6],
                    });
                    self.send_hdrs.push(MMsgHdr {
                        msg_hdr: MsgHdr {
                            msg_namelen: addr_len,
                            msg_iovlen: 1,
                            ..zero_msghdr()
                        },
                        msg_len: 0,
                    });
                }
            }
            // Pointers are taken only now, after the last push: message `m`
            // owns address and cmsg `m` and the next `msg_iovlen` iovecs
            // (`wrapping_add` stays in bounds by that construction).
            let addrs = self.send_addrs.as_mut_ptr();
            let ctrl = self.send_ctrl.as_mut_ptr();
            let iovs = self.send_iovs.as_mut_ptr();
            let mut first = 0;
            for (m, hdr) in self.send_hdrs.iter_mut().enumerate() {
                let h = &mut hdr.msg_hdr;
                h.msg_name = addrs.wrapping_add(m) as *mut c_void;
                h.msg_iov = iovs.wrapping_add(first);
                if h.msg_iovlen > 1 {
                    h.msg_control = ctrl.wrapping_add(m) as *mut c_void;
                    h.msg_controllen = mem::size_of::<GsoCmsg>();
                }
                first += h.msg_iovlen;
            }
            let mut done = 0;
            // First plain entry of a run re-sent after the kernel refused
            // it coalesced.
            let mut probe = usize::MAX;
            while done < self.send_hdrs.len() {
                let pending = &mut self.send_hdrs[done..];
                // SAFETY: every pointer in `pending` was taken above, after
                // the address/cmsg/iovec vectors reached their final length
                // (reserved up front, untouched until the next call), so
                // none has moved; the iovecs point into `ring` and `queue`,
                // which are borrowed for the whole call.
                let rc = unsafe {
                    sendmmsg(
                        self.socket.as_raw_fd(),
                        pending.as_mut_ptr(),
                        pending.len() as c_uint,
                        MSG_DONTWAIT,
                    )
                };
                if rc < 0 {
                    let e = io::Error::last_os_error();
                    if e.kind() == io::ErrorKind::Interrupted {
                        continue;
                    }
                    if is_timeout(&e) {
                        // Kernel send queue full: brief blocking retry of
                        // the remainder via the same syscall without
                        // DONTWAIT would stall the shard; count and move on.
                        outcome.errors += segments(pending);
                        return Ok(outcome);
                    }
                    let run = pending[0].msg_hdr;
                    if run.msg_iovlen > 1 && gso_refused(&e) {
                        // Re-send the run as plain entries, in place.
                        probe = done;
                        let plain = (0..run.msg_iovlen).map(|k| MMsgHdr {
                            msg_hdr: MsgHdr {
                                msg_iov: run.msg_iov.wrapping_add(k),
                                msg_iovlen: 1,
                                msg_control: std::ptr::null_mut(),
                                msg_controllen: 0,
                                ..run
                            },
                            msg_len: 0,
                        });
                        self.send_hdrs.splice(done..=done, plain);
                        continue;
                    }
                    // Per-datagram refusal (e.g. unroutable dest): skip it,
                    // count it, keep flushing the rest.
                    outcome.errors += run.msg_iovlen as u64;
                    done += 1;
                    continue;
                }
                let rc = rc as usize;
                if (done..done + rc).contains(&probe) {
                    // The same datagram left without the cmsg: the refusal
                    // was about GSO, not about the destination.
                    self.gso = false;
                }
                outcome.messages += rc as u64;
                outcome.sent += segments(&pending[..rc]);
                done += rc;
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
            assert_eq!(got, outcome(2, 0, 2), "{:?}", layer);
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

    /// Every implementation under its name: both layers, plus the mmsg
    /// layer with coalescing latched off (the parity reference).
    fn ios() -> Vec<(&'static str, Box<dyn BatchIo>)> {
        let sock = || UdpSocket::bind(loopback()).unwrap();
        let mut all: Vec<(&'static str, Box<dyn BatchIo>)> = Vec::new();
        #[cfg(target_os = "linux")]
        {
            all.push(("mmsg", Box::new(MmsgIo::new(sock()).unwrap())));
            all.push((
                "mmsg-no-gso",
                Box::new(MmsgIo::without_gso(sock()).unwrap()),
            ));
        }
        all.push(("fallback", Box::new(FallbackIo::new(sock()).unwrap())));
        all
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
        let mut queued = Vec::new();
        for (i, &(dest, len)) in plan.iter().enumerate() {
            let bytes: Vec<u8> = (0..len).map(|b| (i as u8).wrapping_add(b as u8)).collect();
            let (slot, len) = ring
                .stage(|buf| {
                    buf[..len].copy_from_slice(&bytes);
                    len
                })
                .expect("plan fits the ring");
            queue.push_slot(slot, len, dest);
            queued.push((dest, bytes));
        }
        let outcome = io.send_batch(&ring, &queue).unwrap();
        for peer in peers {
            let addr = peer.local_addr().unwrap();
            let mut want: Vec<Vec<u8>> = queued
                .iter()
                .filter(|(dest, _)| *dest == addr)
                .map(|(_, bytes)| bytes.clone())
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

    fn outcome(sent: u64, errors: u64, messages: u64) -> SendOutcome {
        SendOutcome {
            sent,
            errors,
            messages,
        }
    }

    #[test]
    fn same_destination_run_leaves_as_one_message() {
        for (name, mut io) in ios() {
            let (sock, addr) = peer("127.0.0.1:0");
            let got = flush_and_check(io.as_mut(), &[&sock], &[(addr, 88); 32]);
            let messages = if name == "mmsg" { 1 } else { 32 };
            assert_eq!(got, outcome(32, 0, messages), "{name}");
        }
    }

    #[test]
    fn long_run_splits_at_the_kernel_limits() {
        for (name, mut io) in ios() {
            let (sock, addr) = peer("127.0.0.1:0");
            // 64 x 1424 B is 91 KB: over the 65507-byte message bound.
            let got = flush_and_check(io.as_mut(), &[&sock], &[(addr, MAX_DATAGRAM); 64]);
            let messages = if name == "mmsg" { 2 } else { 64 };
            assert_eq!(got, outcome(64, 0, messages), "{name}");
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
            // datagrams never coalesce.
            let messages = if name == "mmsg" { 7 } else { 11 };
            assert_eq!(got, outcome(11, 0, messages), "{name}");
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
            assert_eq!(got, outcome(16, 0, 16), "{name}");
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
        assert_eq!(got, outcome(32, 0, messages));
    }

    #[test]
    fn send_errors_are_counted_not_dropped() {
        // Port 0 is never a valid destination: the kernel refuses it.
        let nowhere: SocketAddr = "127.0.0.1:0".parse().unwrap();
        for (name, mut io) in ios() {
            let mut queue = SendQueue::new();
            queue.push_nack(1, 2, nowhere);
            let got = io.send_batch(&RecvRing::new(), &queue).unwrap();
            assert_eq!(got, outcome(0, 1, 0), "{name}");

            // A refused run in the middle of a same-size batch: each of its
            // datagrams is counted once, the runs around it are delivered.
            let (sock, addr) = peer("127.0.0.1:0");
            let mut plan = vec![(addr, 88); 4];
            plan.extend([(nowhere, 88); 3]);
            plan.extend([(addr, 88); 4]);
            let got = flush_and_check(io.as_mut(), &[&sock], &plan);
            let messages = if name == "mmsg" { 2 } else { 8 };
            assert_eq!(got, outcome(8, 3, messages), "{name}");

            // A bad destination is not a missing capability: still coalescing.
            let got = flush_and_check(io.as_mut(), &[&sock], &[(addr, 88); 32]);
            let messages = if name == "mmsg" { 1 } else { 32 };
            assert_eq!(got, outcome(32, 0, messages), "{name}");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn refused_gso_is_resent_plain_and_latched_off() {
        let sock = UdpSocket::bind(loopback()).unwrap();
        let knob = sock.try_clone().unwrap();
        let mut io = MmsgIo::new(sock).unwrap();
        let (sock, addr) = peer("127.0.0.1:0");
        // Without transmit checksums the kernel refuses the coalesced
        // message (EINVAL) and takes the same datagrams one by one.
        linux::set_no_check(&knob, true).unwrap();
        let got = flush_and_check(&mut io, &[&sock], &[(addr, 88); 32]);
        assert_eq!(got, outcome(32, 0, 32));
        // Latched: the socket would coalesce again now, but is not asked to.
        linux::set_no_check(&knob, false).unwrap();
        let got = flush_and_check(&mut io, &[&sock], &[(addr, 88); 32]);
        assert_eq!(got, outcome(32, 0, 32));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn reuseport_shares_a_port() {
        let a = bind_reuseport(loopback()).unwrap();
        let addr = a.local_addr().unwrap();
        let b = bind_reuseport(addr).unwrap();
        assert_eq!(b.local_addr().unwrap(), addr);
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
