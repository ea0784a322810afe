//! A minimal reliable transport over the wire format, for closed-loop
//! demonstrations through the live relay ([`crate::shard::ShardedRelay`]).
//!
//! This is deliberately a *small* NACK-driven ARQ, not a congestion-
//! controlled stack: a fixed window, per-packet ACKs, retransmission on
//! NACK (the proxy's early loss signal) and a retransmission timer as the
//! last resort — just enough machinery to show a real transfer surviving
//! virtual-switch trimming end to end over sockets. Each side is one
//! sequential loop on one blocking socket.

use crate::batch::is_timeout;
use crate::wire::{Flags, WireHeader, MAX_PAYLOAD};
use std::collections::BTreeSet;
use std::fmt;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

/// Why a transfer failed — typed so callers can distinguish "the network
/// never delivered" from "the socket broke" without parsing error strings.
#[derive(Debug)]
pub enum TransportError {
    /// The deadline expired with the transfer incomplete.
    Deadline {
        /// Packets finished (acked on the sender, received on the receiver).
        done: u64,
        /// Packets in the flow.
        total: u64,
    },
    /// A socket operation failed.
    Io(io::Error),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Deadline { done, total } => {
                write!(f, "deadline expired with {done}/{total} packets done")
            }
            TransportError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            TransportError::Deadline { .. } => None,
        }
    }
}

impl From<io::Error> for TransportError {
    fn from(e: io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// Degradation policy for [`ReliableSender::run_with_fallback`]: when the
/// proxy path stays silent too long, abandon it for the direct path and
/// re-probe the proxy with exponential backoff — the real-socket mirror of
/// the simulator's sender-side failover.
#[derive(Debug, Clone, Copy)]
pub struct FallbackConfig {
    /// Consecutive RTO-lengths of feedback silence before failing over.
    pub rto_threshold: u32,
    /// Cap on the exponential probe backoff while degraded.
    pub probe_backoff_max: Duration,
}

impl Default for FallbackConfig {
    fn default() -> Self {
        FallbackConfig {
            rto_threshold: 3,
            probe_backoff_max: Duration::from_secs(1),
        }
    }
}

/// Transfer statistics returned by [`ReliableSender::run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TransferStats {
    /// Distinct packets in the flow.
    pub total_packets: u64,
    /// Transmissions (first sends + retransmissions).
    pub transmissions: u64,
    /// Retransmissions triggered by NACKs.
    pub nack_retransmits: u64,
    /// Retransmissions triggered by the timer.
    pub timeout_retransmits: u64,
    /// Failovers from the proxy path to the direct path.
    pub failovers: u64,
    /// Probe packets sent through the proxy while degraded.
    pub proxy_probes: u64,
    /// Failbacks onto a recovered proxy.
    pub failbacks: u64,
    /// Wall-clock completion time.
    pub elapsed: Duration,
}

/// Configuration of the reliable sender.
#[derive(Debug, Clone, Copy)]
pub struct ReliableSender {
    /// Flow id stamped on every packet.
    pub flow: u64,
    /// Packets to transfer.
    pub total_packets: u64,
    /// Maximum unacknowledged packets in flight.
    pub window: usize,
    /// Retransmission timeout (last resort; NACKs normally arrive first).
    pub rto: Duration,
    /// Give up after this long.
    pub deadline: Duration,
}

impl ReliableSender {
    /// Runs the transfer through `proxy` (which forwards to the receiver
    /// and reflects NACKs), driven by `socket` (whose read timeout this
    /// sets).
    ///
    /// # Errors
    /// [`TransportError::Io`] on socket failure, [`TransportError::Deadline`]
    /// if the deadline expires.
    pub fn run(
        &self,
        socket: &UdpSocket,
        proxy: SocketAddr,
    ) -> Result<TransferStats, TransportError> {
        self.run_inner(socket, proxy, None, FallbackConfig::default())
    }

    /// Like [`ReliableSender::run`], but degrades gracefully when the proxy
    /// dies: after `fallback.rto_threshold` RTO-lengths of feedback silence
    /// the sender retransmits everything outstanding straight to `direct`
    /// (the receiver), keeps probing the proxy with exponential backoff, and
    /// fails back the moment feedback arrives from the proxy again.
    ///
    /// # Errors
    /// [`TransportError::Io`] on socket failure, [`TransportError::Deadline`]
    /// if the deadline expires even on the direct path.
    pub fn run_with_fallback(
        &self,
        socket: &UdpSocket,
        proxy: SocketAddr,
        direct: SocketAddr,
        fallback: FallbackConfig,
    ) -> Result<TransferStats, TransportError> {
        assert!(
            fallback.rto_threshold > 0,
            "threshold 0 would never use the proxy"
        );
        self.run_inner(socket, proxy, Some(direct), fallback)
    }

    fn run_inner(
        &self,
        socket: &UdpSocket,
        proxy: SocketAddr,
        direct: Option<SocketAddr>,
        fallback: FallbackConfig,
    ) -> Result<TransferStats, TransportError> {
        assert!(
            self.total_packets > 0 && self.window > 0,
            "invalid transfer"
        );
        // Bounded waits for feedback so the timers below stay responsive.
        socket.set_read_timeout(Some(Duration::from_millis(5)))?;
        let payload = vec![0x3Cu8; MAX_PAYLOAD];
        let start = Instant::now();
        let mut stats = TransferStats {
            total_packets: self.total_packets,
            ..Default::default()
        };
        let mut next_new: u64 = 0;
        let mut acked: BTreeSet<u64> = BTreeSet::new();
        // (seq, last transmission time) of in-flight packets.
        let mut inflight: Vec<(u64, Instant)> = Vec::new();
        let mut rtx: BTreeSet<u64> = BTreeSet::new();
        let mut buf = [0u8; 2048];
        // Degradation state (active only when a direct path is given).
        let mut degraded = false;
        let mut last_feedback = Instant::now();
        let mut probe_backoff = self.rto.min(fallback.probe_backoff_max);
        let mut next_probe = Instant::now();

        while (acked.len() as u64) < self.total_packets {
            if start.elapsed() > self.deadline {
                return Err(TransportError::Deadline {
                    done: acked.len() as u64,
                    total: self.total_packets,
                });
            }
            let dest = if degraded {
                direct.expect("degraded implies direct")
            } else {
                proxy
            };
            // Fill the window: retransmissions first.
            while inflight.len() < self.window {
                let seq = if let Some(&seq) = rtx.iter().next() {
                    rtx.remove(&seq);
                    seq
                } else if next_new < self.total_packets {
                    next_new += 1;
                    next_new - 1
                } else {
                    break;
                };
                if acked.contains(&seq) {
                    continue;
                }
                let wire = WireHeader::data(self.flow, seq, MAX_PAYLOAD as u16).encode(&payload);
                socket.send_to(&wire, dest)?;
                stats.transmissions += 1;
                inflight.push((seq, Instant::now()));
            }
            // While degraded, keep asking the proxy whether it is back: one
            // duplicate data packet per backoff interval. The receiver acks
            // duplicates, so a live proxy relays proof of life.
            if degraded && Instant::now() >= next_probe {
                let probe_seq = (0..self.total_packets)
                    .find(|s| !acked.contains(s))
                    .unwrap_or(0);
                let wire =
                    WireHeader::data(self.flow, probe_seq, MAX_PAYLOAD as u16).encode(&payload);
                socket.send_to(&wire, proxy)?;
                stats.proxy_probes += 1;
                probe_backoff = (probe_backoff * 2).min(fallback.probe_backoff_max);
                next_probe = Instant::now() + probe_backoff;
            }
            // Reap feedback (the read timeout bounds the wait).
            match socket.recv_from(&mut buf) {
                Ok((n, from)) => {
                    if let Ok((header, _)) = WireHeader::decode(&buf[..n]) {
                        if header.flow != self.flow {
                            continue;
                        }
                        let feedback =
                            header.flags.contains(Flags::ACK) || header.flags.contains(Flags::NACK);
                        if feedback {
                            last_feedback = Instant::now();
                            if degraded && from == proxy {
                                // The proxy relayed feedback: it is alive
                                // again. Fail back onto the shared path.
                                degraded = false;
                                stats.failbacks += 1;
                                probe_backoff = self.rto.min(fallback.probe_backoff_max);
                            }
                        }
                        if header.flags.contains(Flags::ACK) {
                            acked.insert(header.seq);
                            inflight.retain(|&(s, _)| s != header.seq);
                        } else if header.flags.contains(Flags::NACK) && !acked.contains(&header.seq)
                        {
                            inflight.retain(|&(s, _)| s != header.seq);
                            stats.nack_retransmits += 1;
                            rtx.insert(header.seq);
                        }
                    }
                }
                Err(e) if is_timeout(&e) => {}
                Err(e) => return Err(e.into()),
            }
            // Timer-based recovery for anything silent past the RTO.
            let now = Instant::now();
            let rto = self.rto;
            inflight.retain(|&(seq, sent)| {
                if now.duration_since(sent) > rto && !acked.contains(&seq) {
                    stats.timeout_retransmits += 1;
                    rtx.insert(seq);
                    false
                } else {
                    true
                }
            });
            // Sustained silence on the proxy path: give up on it and move
            // everything outstanding to the direct path.
            if !degraded
                && direct.is_some()
                && last_feedback.elapsed() >= self.rto * fallback.rto_threshold
            {
                degraded = true;
                stats.failovers += 1;
                for &(seq, _) in &inflight {
                    rtx.insert(seq);
                }
                inflight.clear();
                probe_backoff = self.rto.min(fallback.probe_backoff_max);
                next_probe = Instant::now() + probe_backoff;
                last_feedback = Instant::now();
            }
        }
        stats.elapsed = start.elapsed();
        Ok(stats)
    }
}

/// The matching receiver: acks every data packet back through the proxy
/// and completes once it holds every sequence.
pub struct ReliableReceiver {
    /// Flow id to serve.
    pub flow: u64,
    /// Packets expected.
    pub total_packets: u64,
}

impl ReliableReceiver {
    /// Serves the flow on `socket` until complete (acks are addressed to
    /// the datagram source — the proxy when relayed, the sender itself when
    /// it has failed over to the direct path; sets `socket`'s read timeout).
    /// Returns the number of duplicate data packets seen.
    pub fn run(&self, socket: &UdpSocket, deadline: Duration) -> Result<u64, TransportError> {
        socket.set_read_timeout(Some(Duration::from_millis(100)))?;
        let start = Instant::now();
        let mut received: BTreeSet<u64> = BTreeSet::new();
        let mut duplicates = 0u64;
        let mut buf = [0u8; 2048];
        while (received.len() as u64) < self.total_packets {
            if start.elapsed() > deadline {
                return Err(TransportError::Deadline {
                    done: received.len() as u64,
                    total: self.total_packets,
                });
            }
            let (n, from) = match socket.recv_from(&mut buf) {
                Ok(got) => got,
                Err(e) if is_timeout(&e) => continue,
                Err(e) => return Err(e.into()),
            };
            let Ok((header, _payload)) = WireHeader::decode(&buf[..n]) else {
                continue;
            };
            if header.flow != self.flow || !header.flags.contains(Flags::DATA) {
                continue;
            }
            if !received.insert(header.seq) {
                duplicates += 1;
            }
            let ack = WireHeader::ack(self.flow, header.seq).encode(&[]);
            socket.send_to(&ack, from)?;
        }
        Ok(duplicates)
    }
}

// Socket tests are skipped under Miri (real sockets need real syscalls).
// They drive the relay that ships: sender -> ShardedRelay -> receiver, ACKs
// back through the relay.
#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;
    use crate::shard::{RelayConfig, ShardedRelay};
    use crate::testutil::{loopback, wait_for};
    use std::thread;

    /// A receiver thread for `flow` plus a streamlined relay toward it.
    fn relay_to_receiver(
        flow: u64,
        total_packets: u64,
    ) -> (
        ShardedRelay,
        SocketAddr,
        thread::JoinHandle<Result<u64, TransportError>>,
    ) {
        let recv_sock = UdpSocket::bind(loopback()).unwrap();
        let recv_addr = recv_sock.local_addr().unwrap();
        let relay = ShardedRelay::start(loopback(), RelayConfig::streamlined(recv_addr)).unwrap();
        let receiver = thread::spawn(move || {
            ReliableReceiver {
                flow,
                total_packets,
            }
            .run(&recv_sock, Duration::from_secs(15))
        });
        (relay, recv_addr, receiver)
    }

    /// Full closed loop: sender -> relay -> receiver, acks back through
    /// the relay, no loss.
    #[test]
    fn lossless_transfer_completes() {
        let (relay, _, receiver) = relay_to_receiver(1, 200);
        let send_sock = UdpSocket::bind(loopback()).unwrap();
        let stats = ReliableSender {
            flow: 1,
            total_packets: 200,
            window: 32,
            rto: Duration::from_millis(200),
            deadline: Duration::from_secs(10),
        }
        .run(&send_sock, relay.local_addr())
        .unwrap();
        receiver.join().unwrap().unwrap(); // duplicates possible under kernel-buffer pressure
        assert_eq!(stats.total_packets, 200);
        assert!(stats.transmissions >= 200);
        // The relay flushes a batch's counters after the send the sender
        // was waiting for, so the last ACK's count can trail it.
        wait_for(|| relay.stats().reversed >= 200);
    }

    /// Datagrams trimmed before the relay must be recovered via the
    /// relay's NACKs, not the RTO.
    #[test]
    fn trimmed_packets_recovered_by_nacks() {
        let (relay, _, receiver) = relay_to_receiver(2, 100);
        let switch = trimming_switch(relay.local_addr());
        let send_sock = UdpSocket::bind(loopback()).unwrap();
        let stats = ReliableSender {
            flow: 2,
            total_packets: 100,
            window: 16,
            rto: Duration::from_secs(5), // long: force NACK recovery
            deadline: Duration::from_secs(15),
        }
        .run(&send_sock, switch)
        .unwrap();
        receiver.join().unwrap().unwrap();
        assert_eq!(stats.nack_retransmits, 20, "{stats:?}");
        assert_eq!(
            stats.timeout_retransmits, 0,
            "NACKs must beat the RTO: {stats:?}"
        );
        assert_eq!(relay.stats().nacks, 20, "one NACK per trimmed header");
    }

    /// A dead proxy (bound socket that never answers) must not stall the
    /// transfer: the sender fails over to the direct path and completes.
    #[test]
    fn dead_proxy_fails_over_to_direct() {
        let recv_sock = UdpSocket::bind(loopback()).unwrap();
        let recv_addr = recv_sock.local_addr().unwrap();
        // Bound but never read: every datagram to it disappears.
        let dead_proxy = UdpSocket::bind(loopback()).unwrap();
        let receiver = thread::spawn(move || {
            ReliableReceiver {
                flow: 3,
                total_packets: 50,
            }
            .run(&recv_sock, Duration::from_secs(15))
        });
        let send_sock = UdpSocket::bind(loopback()).unwrap();
        let stats = ReliableSender {
            flow: 3,
            total_packets: 50,
            window: 16,
            rto: Duration::from_millis(50),
            deadline: Duration::from_secs(15),
        }
        .run_with_fallback(
            &send_sock,
            dead_proxy.local_addr().unwrap(),
            recv_addr,
            FallbackConfig {
                rto_threshold: 2,
                probe_backoff_max: Duration::from_secs(1),
            },
        )
        .unwrap();
        receiver.join().unwrap().unwrap();
        assert!(stats.failovers >= 1, "{stats:?}");
        assert_eq!(stats.failbacks, 0, "dead proxy cannot recover: {stats:?}");
    }

    /// With a healthy relay the fallback machinery must stay dormant.
    #[test]
    fn healthy_proxy_never_fails_over() {
        let (relay, recv_addr, receiver) = relay_to_receiver(4, 100);
        let send_sock = UdpSocket::bind(loopback()).unwrap();
        let stats = ReliableSender {
            flow: 4,
            total_packets: 100,
            window: 32,
            rto: Duration::from_millis(500),
            deadline: Duration::from_secs(10),
        }
        .run_with_fallback(
            &send_sock,
            relay.local_addr(),
            recv_addr,
            FallbackConfig::default(),
        )
        .unwrap();
        receiver.join().unwrap().unwrap();
        assert_eq!(stats.failovers, 0, "{stats:?}");
        assert_eq!(stats.proxy_probes, 0, "{stats:?}");
    }

    /// The sender's deadline error carries typed progress, not a string.
    #[test]
    fn deadline_error_is_typed() {
        // No proxy, no direct path: nothing can ever be acked.
        let dead_proxy = UdpSocket::bind(loopback()).unwrap();
        let send_sock = UdpSocket::bind(loopback()).unwrap();
        let err = ReliableSender {
            flow: 5,
            total_packets: 10,
            window: 4,
            rto: Duration::from_millis(20),
            deadline: Duration::from_millis(200),
        }
        .run(&send_sock, dead_proxy.local_addr().unwrap())
        .unwrap_err();
        match err {
            TransportError::Deadline { done, total } => {
                assert_eq!(done, 0);
                assert_eq!(total, 10);
            }
            other => panic!("expected Deadline, got {other}"),
        }
    }

    /// The virtual trimming switch: a hop in front of `relay` that cuts
    /// the first transmission of every 5th sequence number down to its
    /// header. Feedback from the relay goes back to whoever sent last.
    /// Its thread ends with the test process.
    fn trimming_switch(relay: SocketAddr) -> SocketAddr {
        let sock = UdpSocket::bind(loopback()).unwrap();
        let addr = sock.local_addr().unwrap();
        thread::spawn(move || {
            let mut buf = [0u8; 2048];
            let mut sender = None;
            let mut trimmed_once = BTreeSet::new();
            while let Ok((n, from)) = sock.recv_from(&mut buf) {
                if from == relay {
                    let _ = sock.send_to(&buf[..n], sender.expect("feedback follows data"));
                    continue;
                }
                sender = Some(from);
                let (h, _) = WireHeader::decode(&buf[..n]).expect("sender speaks the wire format");
                if h.seq % 5 == 0 && trimmed_once.insert(h.seq) {
                    let _ = sock.send_to(&WireHeader::trimmed(h.flow, h.seq).encode(&[]), relay);
                } else {
                    let _ = sock.send_to(&buf[..n], relay);
                }
            }
        });
        addr
    }
}
