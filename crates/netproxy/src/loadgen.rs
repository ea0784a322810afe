//! iperf-like load generation for the testbed experiments (§5).
//!
//! The paper drives its proxies with "a 10Gbps line rate for 30 seconds"
//! of iperf traffic. [`TcpLoadGen`] reproduces that shape for the Naive
//! proxy (constant-rate byte stream over TCP, into a [`TcpSink`]).
//!
//! The UDP relay is driven by [`BatchLoadGen`]: M OS threads drive
//! thousands of concurrent flows **open-loop** (packets leave on schedule
//! whether or not earlier ones were answered — the methodology that
//! exposes coordinated-omission-free tail latency) through the same
//! batched socket layer the sharded relay uses, stamping each payload
//! with a send timestamp. Its `trim_fraction` emulates **switch
//! trimming**: that share of datagrams leaves as trimmed headers,
//! standing in for the trimming hardware the paper assumes (the relay's
//! decision is stateless per packet, so which packets are trimmed does
//! not matter to it). [`BatchSink`] is the receiving end: it parses the
//! stamps and accumulates one-way latency into an HDR-style histogram,
//! so runs report p50/p99/p999 added latency rather than means.

use crate::batch::{self, BatchIo, RecvRing, SendQueue, SocketLayer, BATCH};
use crate::naive::TcpServer;
use crate::wire::{DatagramView, Flags, WireHeader, MAX_PAYLOAD};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use trace::LatencyRecorder;

trace::counters! {
    "netproxy.tcp_load";
    /// Outcome of a [`TcpLoadGen`] run.
    pub struct LoadStats {
        /// Chunks written.
        sent_packets,
        /// Bytes of payload sent.
        sent_bytes,
    }
}

/// A rate-paced TCP byte-stream generator (the Naive-proxy workload).
#[derive(Debug, Clone, Copy)]
pub struct TcpLoadGen {
    /// Target rate in bits per second.
    pub rate_bps: u64,
    /// How long to transmit.
    pub duration: Duration,
    /// Write chunk size in bytes.
    pub chunk: usize,
}

impl TcpLoadGen {
    /// Connects to `target` and streams at the configured rate (blocking).
    pub fn run(&self, target: SocketAddr) -> io::Result<LoadStats> {
        assert!(self.rate_bps > 0 && self.chunk > 0, "invalid load config");
        let mut stream = TcpStream::connect(target)?;
        stream.set_nodelay(true)?;
        let payload = vec![0x42u8; self.chunk];
        let interval = Duration::from_secs_f64(self.chunk as f64 * 8.0 / self.rate_bps as f64);
        let start = Instant::now();
        let mut stats = LoadStats::default();
        // Paced against the wall clock: chunk k is due at k × interval
        // after the start whatever earlier sleeps overshot by, so a coarse
        // sleep delays one chunk instead of stretching the schedule.
        loop {
            let due = interval.mul_f64(stats.sent_packets as f64);
            if due >= self.duration {
                break;
            }
            if let Some(early) = due.checked_sub(start.elapsed()) {
                thread::sleep(early);
            }
            stream.write_all(&payload)?;
            stats.sent_bytes += self.chunk as u64;
            stats.sent_packets += 1;
        }
        stream.shutdown(Shutdown::Write)?;
        Ok(stats)
    }
}

trace::counters! {
    "netproxy.tcp_sink", atomic crate::sync::AtomicU64;
    /// The sink's counter, bumped once per read.
    struct TcpSinkCounters;
    /// A snapshot of everything a [`TcpSink`] has absorbed.
    pub struct TcpSinkStats {
        /// Payload bytes absorbed.
        bytes,
    }
}

/// A byte-counting TCP sink (the receiving end of a [`TcpLoadGen`] run).
pub struct TcpSink {
    server: TcpServer,
    counters: Arc<TcpSinkCounters>,
}

impl TcpSink {
    /// Binds an ephemeral loopback port and starts absorbing.
    pub fn start() -> io::Result<TcpSink> {
        let counters = Arc::new(TcpSinkCounters::default());
        let shared = counters.clone();
        let server =
            TcpServer::start(SocketAddr::from(([127, 0, 0, 1], 0)), move |mut conn, _| {
                let mut buf = vec![0u8; 64 * 1024];
                while let Ok(n @ 1..) = conn.read(&mut buf) {
                    shared.flush(&TcpSinkStats { bytes: n as u64 });
                }
            })?;
        Ok(TcpSink { server, counters })
    }

    /// The sink's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Everything the sink has counted so far.
    pub fn stats(&self) -> TcpSinkStats {
        let mut s = TcpSinkStats::default();
        s.merge(&self.counters);
        s
    }
}

/// Bytes of payload reserved for the send timestamp (nanos since the
/// run's shared epoch, big-endian).
pub const TIMESTAMP_LEN: usize = 8;

/// A multi-threaded open-loop batched datagram generator — thousands of
/// flows, `sendmmsg` bursts, per-payload send timestamps.
///
/// Open-loop means the schedule never waits for the network: if the
/// datapath under test stalls, packets queue and their measured latency
/// grows, exactly as a real sender population would experience it.
/// `rate_pps == 0` disables pacing entirely (send as fast as the socket
/// accepts) — the mode used to find a datapath's saturation throughput.
///
/// NACK backflow (trimmed datagrams bounced by the streamlined relay)
/// is drained opportunistically whenever a worker is ahead of its
/// schedule, so paced runs account for every packet; unpaced runs with
/// `trim_fraction > 0` may shed backflow at the kernel buffer instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchLoadGen {
    /// Worker (client population) threads.
    pub threads: usize,
    /// Concurrent flows per worker; total flows = `threads × this`.
    pub flows_per_thread: usize,
    /// Aggregate target packet rate across all workers; 0 = unthrottled.
    pub rate_pps: u64,
    /// How long to transmit.
    pub duration: Duration,
    /// Fraction of datagrams sent as trimmed headers (virtual switch).
    pub trim_fraction: f64,
    /// Payload bytes per data datagram (≥ [`TIMESTAMP_LEN`]).
    pub payload_len: usize,
    /// Socket layer (mmsg or portable fallback).
    pub layer: SocketLayer,
    /// How long each worker keeps draining NACK backflow after its send
    /// clock runs out. Fault-injected relays (delay faults, restart
    /// windows) can hold feedback far longer than a clean datapath, so
    /// soak runs need a real grace period for the ledger to balance.
    pub drain_grace: Duration,
}

impl BatchLoadGen {
    /// A CI-sized smoke shape: 2 workers × 64 flows at 20k pkts/sec
    /// aggregate for `duration`, no trimming.
    pub fn smoke(duration: Duration) -> Self {
        BatchLoadGen {
            threads: 2,
            flows_per_thread: 64,
            rate_pps: 20_000,
            duration,
            trim_fraction: 0.0,
            payload_len: 64,
            layer: SocketLayer::Auto,
            drain_grace: Duration::from_millis(10),
        }
    }

    /// Drives `target` from `threads` workers and merges their reports.
    /// `epoch` is the timestamp base shared with the [`BatchSink`].
    ///
    /// # Errors
    /// Socket setup errors; send errors are *counted*, not returned.
    ///
    /// # Panics
    /// Panics on a zero thread/flow count or a payload shorter than
    /// [`TIMESTAMP_LEN`] / longer than [`MAX_PAYLOAD`].
    pub fn run(&self, target: SocketAddr, epoch: Instant) -> io::Result<BatchLoadReport> {
        assert!(self.threads >= 1 && self.flows_per_thread >= 1);
        assert!((TIMESTAMP_LEN..=MAX_PAYLOAD).contains(&self.payload_len));
        let start = Instant::now();
        let mut joins = Vec::with_capacity(self.threads);
        for w in 0..self.threads {
            let cfg = *self;
            joins.push(
                thread::Builder::new()
                    .name(format!("loadgen-{w}"))
                    .spawn(move || cfg.worker(w, target, epoch))?,
            );
        }
        let mut report = BatchLoadReport::default();
        for j in joins {
            report.add(&j.join().expect("loadgen worker panicked")?);
        }
        report.elapsed_ns = start.elapsed().as_nanos() as u64;
        Ok(report)
    }

    /// One worker: a private socket, a private flow range, open-loop
    /// pacing against its share of the aggregate rate. Its report's
    /// `elapsed_ns` stays zero.
    fn worker(
        self,
        index: usize,
        target: SocketAddr,
        epoch: Instant,
    ) -> io::Result<BatchLoadReport> {
        let bind: SocketAddr = if target.is_ipv4() {
            SocketAddr::from(([127, 0, 0, 1], 0))
        } else {
            "[::1]:0".parse().expect("addr")
        };
        let mut io = batch::open(batch::bind_buffered(bind)?, self.layer)?;
        let mut ring = RecvRing::new();
        let mut queue = SendQueue::new();
        let mut rng = trace::SplitMix64::new(0xC0FF_EE00 ^ index as u64);
        let pps = if self.rate_pps == 0 {
            0
        } else {
            (self.rate_pps / self.threads as u64).max(1)
        };
        let first_flow = (index * self.flows_per_thread) as u64 + 1;
        let mut seqs = vec![0u64; self.flows_per_thread];
        let mut payload = vec![0x17u8; self.payload_len];
        let mut cursor = 0usize;
        let mut out = BatchLoadReport::default();
        let start = Instant::now();
        while start.elapsed() < self.duration {
            let due = if pps == 0 {
                u64::MAX
            } else {
                (start.elapsed().as_secs_f64() * pps as f64) as u64
            };
            if out.sent_packets >= due {
                // Ahead of schedule: spend the slack draining backflow
                // (recv_batch blocks at most its 2 ms poll quantum).
                drain_feedback(io.as_mut(), &mut ring, &mut out.nacks_received);
                continue;
            }
            let burst = (due - out.sent_packets).min(BATCH as u64) as usize;
            ring.reset();
            queue.clear();
            for _ in 0..burst {
                let flow = first_flow + cursor as u64;
                let seq = seqs[cursor];
                seqs[cursor] += 1;
                cursor = (cursor + 1) % self.flows_per_thread;
                let trim = self.trim_fraction > 0.0
                    && (rng.next_u64() as f64 / u64::MAX as f64) < self.trim_fraction;
                let (slot, len) = ring
                    .stage(|buf| {
                        if trim {
                            WireHeader::trimmed(flow, seq).encode_into(buf, &[])
                        } else {
                            let ts = epoch.elapsed().as_nanos() as u64;
                            payload[..TIMESTAMP_LEN].copy_from_slice(&ts.to_be_bytes());
                            WireHeader::data(flow, seq, self.payload_len as u16)
                                .encode_into(buf, &payload)
                        }
                    })
                    .expect("burst <= BATCH");
                queue.push_slot(slot, len, target);
                if trim {
                    out.trimmed_sent += 1;
                } else {
                    out.sent_bytes += self.payload_len as u64;
                }
            }
            let outcome = io.send_batch(&ring, &queue)?;
            out.sent_packets += burst as u64;
            out.send_errors += outcome.errors;
        }
        // Catch NACKs still in flight when the clock ran out (each
        // drain round blocks at most the 2 ms recv poll quantum).
        let grace_until = Instant::now() + self.drain_grace;
        while Instant::now() < grace_until {
            drain_feedback(io.as_mut(), &mut ring, &mut out.nacks_received);
        }
        Ok(out)
    }
}

/// Counts NACKs sitting in the worker socket's receive queue.
fn drain_feedback(io: &mut dyn BatchIo, ring: &mut RecvRing, nacks: &mut u64) {
    if let Ok(n) = io.recv_batch(ring) {
        for i in 0..n {
            if let Ok(view) = DatagramView::parse(ring.datagram(i)) {
                if view.flags().contains(Flags::NACK) {
                    *nacks += 1;
                }
            }
        }
    }
}

trace::counters! {
    "netproxy.generator";
    /// Merged outcome of a [`BatchLoadGen`] run.
    pub struct BatchLoadReport {
        /// Datagrams handed to the kernel (including failed attempts).
        sent_packets,
        /// Payload bytes in successful data datagrams.
        sent_bytes,
        /// Datagrams sent as trimmed headers.
        trimmed_sent,
        /// NACKs drained from the backflow path.
        nacks_received,
        /// Sends the kernel refused (surfaced, never swallowed).
        send_errors,
        /// Wall-clock nanoseconds of the whole run (a fold keeps the longest).
        elapsed_ns: max,
    }
}

impl BatchLoadReport {
    /// Successfully sent datagrams per second.
    pub fn achieved_pps(&self) -> f64 {
        let delivered = self.sent_packets - self.send_errors;
        delivered as f64 * 1e9 / self.elapsed_ns.max(1) as f64
    }

    /// Datagrams the kernel accepted.
    pub fn delivered(&self) -> u64 {
        self.sent_packets - self.send_errors
    }
}

trace::counters! {
    "netproxy.sink", atomic crate::sync::AtomicU64;
    /// The sink's counters, flushed once per batch.
    struct SinkCounters;
    /// A snapshot of everything a [`BatchSink`] has absorbed.
    pub struct SinkStats {
        /// Data datagrams received.
        received,
        /// Payload bytes received.
        bytes,
        /// Trimmed headers received (naive relay forwards these).
        trimmed,
        /// ACK/NACK datagrams received.
        feedback,
        /// Datagrams that failed wire parsing.
        malformed,
    }
}

/// The batched receiving end of a [`BatchLoadGen`] run: one socket on
/// one thread that parses payload timestamps into a one-way latency
/// histogram.
pub struct BatchSink {
    local_addr: SocketAddr,
    counters: Arc<SinkCounters>,
    recorder: LatencyRecorder,
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl BatchSink {
    /// Binds a socket on an ephemeral loopback port and starts absorbing.
    /// `epoch` must match the load generator's.
    ///
    /// # Errors
    /// Socket/bind errors.
    pub fn start(layer: SocketLayer, epoch: Instant) -> io::Result<BatchSink> {
        let socket = batch::bind_buffered(SocketAddr::from(([127, 0, 0, 1], 0)))?;
        let local_addr = socket.local_addr()?;
        let mut io = batch::open(socket, layer)?;
        let recorder = LatencyRecorder::new();
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(SinkCounters::default());
        let handle = {
            let (counters, recorder, stop) = (counters.clone(), recorder.clone(), stop.clone());
            thread::Builder::new().name("sink".into()).spawn(move || {
                let mut ring = RecvRing::new();
                // ordering: Acquire — pairs with shutdown()'s Release store
                // so work done before the stop request is visible here.
                while !stop.load(Ordering::Acquire) {
                    let got = match io.recv_batch(&mut ring) {
                        Ok(n) => n,
                        Err(_) => break,
                    };
                    if got == 0 {
                        continue;
                    }
                    let now = epoch.elapsed().as_nanos() as u64;
                    let mut batch = SinkStats::default();
                    for i in 0..got {
                        match DatagramView::parse(ring.datagram(i)) {
                            Ok(v) if v.flags().contains(Flags::DATA) => {
                                if v.flags().contains(Flags::TRIMMED) {
                                    batch.trimmed += 1;
                                    continue;
                                }
                                batch.received += 1;
                                batch.bytes += v.payload_len() as u64;
                                let p = v.payload();
                                if p.len() >= TIMESTAMP_LEN {
                                    let ts = u64::from_be_bytes(
                                        p[..TIMESTAMP_LEN].try_into().expect("len"),
                                    );
                                    recorder.record_nanos(now.saturating_sub(ts));
                                }
                            }
                            Ok(_) => batch.feedback += 1,
                            Err(_) => batch.malformed += 1,
                        }
                    }
                    counters.flush(&batch);
                }
            })?
        };
        Ok(BatchSink {
            local_addr,
            counters,
            recorder,
            stop,
            handle: Some(handle),
        })
    }

    /// The sink's bound address (hand this to the relay / loadgen).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Everything the sink has counted so far.
    pub fn stats(&self) -> SinkStats {
        let mut s = SinkStats::default();
        s.merge(&self.counters);
        s
    }

    /// One-way latency samples (nanos since the shared epoch's stamps).
    pub fn recorder(&self) -> &LatencyRecorder {
        &self.recorder
    }

    /// Stops and joins the sink thread.
    pub fn shutdown(&mut self) {
        // ordering: Release — pairs with the sink thread's Acquire poll.
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for BatchSink {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// Socket tests are skipped under Miri (real loopback sockets).
#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;
    use crate::testutil::wait_for;

    #[test]
    fn tcp_loadgen_hits_approximate_rate() {
        let sink = TcpSink::start().unwrap();
        let gen = TcpLoadGen {
            rate_bps: 80_000_000, // 10 MB/s
            duration: Duration::from_millis(500),
            chunk: 8192,
        };
        let stats = gen.run(sink.local_addr()).unwrap();
        // Expect ~5 MB ± 40% (CI machines jitter).
        assert!(
            (3_000_000..8_000_000).contains(&stats.sent_bytes),
            "sent {}",
            stats.sent_bytes
        );
        wait_for(|| sink.stats().bytes == stats.sent_bytes);
    }

    #[test]
    fn batch_loadgen_direct_to_sink_accounts_for_every_packet() {
        let epoch = Instant::now();
        let sink = BatchSink::start(SocketLayer::Auto, epoch).unwrap();
        let gen = BatchLoadGen::smoke(Duration::from_millis(300));
        let report = gen.run(sink.local_addr(), epoch).unwrap();
        assert!(report.sent_packets > 1_000, "{report:?}");
        assert_eq!(report.send_errors, 0, "{report:?}");
        wait_for(|| sink.stats().received == report.delivered());
        assert!(
            sink.recorder().count() >= report.delivered(),
            "every data payload carries a timestamp"
        );
        assert_eq!(sink.stats().malformed, 0);
    }

    #[test]
    fn batch_loadgen_counts_nack_backflow_through_relay() {
        use crate::shard::{RelayConfig, ShardedRelay};
        let epoch = Instant::now();
        let sink = BatchSink::start(SocketLayer::Auto, epoch).unwrap();
        let relay = ShardedRelay::start(
            SocketAddr::from(([127, 0, 0, 1], 0)),
            RelayConfig {
                shards: 2,
                ..RelayConfig::streamlined(sink.local_addr())
            },
        )
        .unwrap();
        let gen = BatchLoadGen {
            threads: 2,
            flows_per_thread: 16,
            rate_pps: 10_000,
            duration: Duration::from_millis(400),
            trim_fraction: 0.3,
            payload_len: 64,
            layer: SocketLayer::Auto,
            drain_grace: Duration::from_millis(10),
        };
        let report = gen.run(relay.local_addr(), epoch).unwrap();
        assert!(report.trimmed_sent > 0, "{report:?}");
        assert!(
            report.nacks_received > 0,
            "paced run drains NACK backflow: {report:?}"
        );
        // Every packet is accounted for: data reaches the sink, trimmed
        // headers come back as NACKs, and the relay surfaces (rather
        // than swallows) any send errors.
        wait_for(|| {
            let stats = relay.stats();
            sink.stats().received + stats.nacks + stats.send_errors + stats.dropped
                >= report.delivered()
        });
        assert!(sink.recorder().count() > 0, "latency histogram populated");
    }

    #[test]
    fn batch_loadgen_unthrottled_mode_floods() {
        let epoch = Instant::now();
        let sink = BatchSink::start(SocketLayer::Auto, epoch).unwrap();
        let gen = BatchLoadGen {
            rate_pps: 0,
            duration: Duration::from_millis(100),
            ..BatchLoadGen::smoke(Duration::from_millis(100))
        };
        let report = gen.run(sink.local_addr(), epoch).unwrap();
        // Unthrottled on loopback must dwarf the 20k-pps smoke pace.
        assert!(report.achieved_pps() > 50_000.0, "{report:?}");
        wait_for(|| sink.stats().received > 0);
    }
}
