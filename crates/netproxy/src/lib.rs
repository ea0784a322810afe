//! # netproxy — deployable incast proxies (the paper's §5 prototype)
//!
//! Runnable counterparts of the two proxy designs, on blocking sockets
//! and OS threads:
//!
//! * [`naive`] — the split-connection user-space proxy: a TCP listener
//!   that terminates each sender connection and relays bytes over a second
//!   connection to the receiver, with per-chunk latency instrumentation.
//!   This is the design whose user-space overhead Figure 4 measures.
//! * [`streamlined`] — the per-packet decision over a small custom UDP
//!   wire format ([`wire`]): header-only (trimmed) packets are answered
//!   with an immediate NACK to the sender; everything else is forwarded.
//!   [`decide`] is pure (no I/O), so its runtime can be measured in
//!   isolation — the Figure 5a "lower bound" (the paper's eBPF bytecode
//!   runtime analogue) — and it is the function the relay calls, so the
//!   full socket path around it is the Figure 5b "upper bound".
//! * [`shard`] / [`batch`] / [`supervisor`] — the one UDP relay,
//!   [`ShardedRelay`]: a batched socket layer (`recvmmsg`/`sendmmsg` on
//!   Linux, portable fallback elsewhere), zero-copy [`wire::DatagramView`]
//!   parsing, and a per-core `SO_REUSEPORT`-sharded, supervised engine
//!   with no cross-shard locks, each shard a run loop around a
//!   syscall-free, clock-free step. [`RelayKind`] selects what it does with
//!   each decision: Streamlined as above, Naive (forwards trimmed headers
//!   too, never NACKs), or Detecting — the FW#1 variant for networks
//!   *without* trimming support: early NACKs from gap inference
//!   (`incast-core`'s bounded-memory loss detector) plus a quiescence
//!   sweep for tail losses. See DESIGN.md §13 and §15.
//! * [`loadgen`] — iperf-like load generators for both transports,
//!   including the *virtual trimming switch* that stands in for hardware
//!   trimming support on the UDP path.
//! * [`fault`] — a deterministic fault-injecting socket layer for soaks.
//!
//! ## Substitutions versus the paper's testbed
//!
//! The paper measures two x86 servers with ConnectX-5 NICs, TC/eBPF hooks
//! and switch trimming. Here everything runs over loopback sockets: the
//! kernel network stack traversal that dominates the paper's upper bound
//! (syscalls, context switches, skb processing) is exercised for real,
//! while trimming is emulated by the load generator sending a share of
//! its datagrams as trimmed headers. See DESIGN.md §3 for the
//! substitution table.

// netproxy is the one workspace crate allowed to contain `unsafe` (the
// libc FFI in `batch`); every block must carry a `// SAFETY:` comment
// (simlint `unsafe-without-safety`) and unsafe operations inside unsafe
// fns still need their own blocks.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod batch;
pub mod fault;
pub mod loadgen;
pub mod naive;
pub mod shard;
mod step;
pub mod streamlined;
pub mod supervisor;
pub(crate) mod sync;
#[cfg(all(test, not(miri)))]
pub(crate) mod testutil;
pub mod wire;

pub use batch::{BatchIo, RecvRing, SendQueue, SocketLayer, BATCH};
pub use fault::{FaultSnapshot, FaultStats, FaultedIo};
pub use loadgen::{BatchLoadGen, BatchLoadReport, BatchSink, SinkStats, TcpLoadGen, TcpSink};
pub use naive::NaiveProxy;
pub use shard::{FlowDirectory, RelayConfig, RelayKind, RelayStats, ShardStats, ShardedRelay};
pub use streamlined::{decide, Action};
pub use supervisor::{ChaosKind, ShardSlot, SupervisorStats};
pub use wire::{DatagramView, Flags, WireHeader, MAX_DATAGRAM, WIRE_HEADER_LEN};
