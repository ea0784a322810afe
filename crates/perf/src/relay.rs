//! The three relay workloads: an ACK-clocked closed loop over loopback.
//!
//! The paper's senders are window-limited DCTCP flows — callers that wait
//! for feedback — so the load model is a closed loop: one harness thread
//! owns one UDP socket (opened through `netproxy::batch::open`, the same
//! batched layer the relay uses), is sender *and* receiver, and keeps `W`
//! datagrams in flight. A forwarded DATA copy, a bounced NACK or a
//! reversed ACK arriving back credits the window. `W` fits the socket
//! buffer, so zero loss is by construction; a datagram unresolved after
//! one second is a failed operation. The harness thread and the relay's
//! single shard share one CPU (`cli::rerun_pinned` says why), so they
//! alternate: `ops_per_s` is datagrams resolved per wall second, which is
//! 1 / (harness cost + relay cost + time both waited) per datagram, and
//! `cpu_ns_per_op` is the relay's share alone. Traffic crosses the host's
//! loopback interface, not a real link.

use crate::clock::{self, timed, Lap, Scaled, Stopwatch};
use crate::report::Outcome;
use crate::span::Tracer;
use crate::spec::{self, Better};
use crate::stats::{grouped_quantile, median, Stat};
use crate::sys;
use crate::RunPlan;
use netproxy::batch::{self, BatchIo, RecvRing, SendQueue, SocketLayer, BATCH};
use netproxy::wire::{DatagramView, Flags, WireHeader};
use netproxy::{RelayConfig, RelayKind, RelayStats, ShardedRelay};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};
use trace::{derive_seed, SplitMix64};

/// An in-flight datagram unresolved for this long is a failed operation.
const RESOLVE_TIMEOUT: Duration = Duration::from_secs(1);

/// Length of one slice of the measured section. Every metric is
/// computed per slice and the best decile is reported (see `stats`): long
/// enough for thousands of datagrams, short enough to fall inside a
/// quiet moment of the host and for a run to hold hundreds of them.
const SLICE: Duration = Duration::from_millis(25);

/// The frozen shape of one relay workload.
#[derive(Debug, Clone, Copy)]
pub struct RelayShape {
    pub flows: usize,
    /// Datagrams kept in flight (at most 256: the slot rides in the low
    /// byte of the sequence number).
    pub window: usize,
    pub payload: usize,
    /// One datagram in `trim_one_in` is sent as a trimmed header (0 = none).
    pub trim_one_in: u64,
    /// The harness ACKs every DATA copy back through the relay.
    pub ack: bool,
    /// Closed-loop datagrams sent before measuring (part of set-up).
    pub warmup_ops: u64,
}

pub fn shape_of(workload: &str) -> RelayShape {
    match workload {
        spec::RELAY_BULK => RelayShape {
            flows: 128,
            window: 128,
            payload: 64,
            trim_one_in: 0,
            ack: false,
            warmup_ops: 20_000,
        },
        spec::RELAY_INCAST => RelayShape {
            flows: 128,
            window: 64,
            payload: 1400,
            trim_one_in: 4,
            ack: true,
            warmup_ops: 10_000,
        },
        spec::RELAY_PINGPONG => RelayShape {
            flows: 1,
            window: 1,
            payload: 64,
            trim_one_in: 0,
            ack: false,
            warmup_ops: 2_000,
        },
        other => panic!("{other} is not a relay workload"),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Await {
    Free,
    /// Sent as DATA; waiting for the forwarded copy.
    Data,
    /// Sent as a trimmed header; waiting for the bounced NACK.
    Nack,
    /// Copy arrived and was ACKed; waiting for the reversed ACK.
    Ack,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    seq: u64,
    flow: u64,
    sent_ns: u64,
    state: Await,
}

/// What the harness itself counted since its relay started (the relay's
/// own counters must agree with these at the end).
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    sent_data: u64,
    sent_trimmed: u64,
    sent_acks: u64,
    got_copies: u64,
    got_nacks: u64,
    got_acks: u64,
    resolved: u64,
    timed_out: u64,
    /// Arrivals that do not parse, come from elsewhere, or carry the
    /// wrong length or payload.
    malformed: u64,
    /// Well-formed arrivals matching no open slot (only legitimate after
    /// a timeout freed the slot).
    unexpected: u64,
    send_refused: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.sent_data += o.sent_data;
        self.sent_trimmed += o.sent_trimmed;
        self.sent_acks += o.sent_acks;
        self.got_copies += o.got_copies;
        self.got_nacks += o.got_nacks;
        self.got_acks += o.got_acks;
        self.resolved += o.resolved;
        self.timed_out += o.timed_out;
        self.malformed += o.malformed;
        self.unexpected += o.unexpected;
        self.send_refused += o.send_refused;
    }
}

struct Harness {
    shape: RelayShape,
    io: Box<dyn BatchIo>,
    relay: ShardedRelay,
    relay_addr: SocketAddr,
    rx: RecvRing,
    tx: RecvRing,
    txq: SendQueue,
    /// Slots staged since the last flush (stamped when it happens).
    staged: Vec<usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    flows: Vec<u64>,
    rng: SplitMix64,
    counter: u64,
    payload: Vec<u8>,
    epoch: Instant,
    counts: Counts,
}

impl Harness {
    /// Binds the harness socket, starts the relay toward it, installs
    /// every flow (one datagram each, so the relay's flow table and
    /// directory are populated) and runs the warm-up. This is the
    /// workload's set-up; the caller times it.
    fn start(shape: RelayShape, seed: u64, tracer: &mut Tracer) -> io::Result<Harness> {
        assert!(
            (1..=256).contains(&shape.window),
            "window must fit the slot byte"
        );
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        let harness_addr = socket.local_addr()?;
        let io = batch::open(socket, SocketLayer::Auto)?;
        let config = RelayConfig {
            kind: RelayKind::Streamlined,
            shards: 1,
            faults: None,
            overload: None,
            ..RelayConfig::streamlined(harness_addr)
        };
        let span = tracer.enter("netproxy.shard.start");
        let relay = ShardedRelay::start("127.0.0.1:0".parse().expect("literal"), config)?;
        tracer.exit(span);
        let relay_addr = relay.local_addr();
        let mut rng = SplitMix64::new(derive_seed(seed, 0x51A7));
        // Nonzero, below u64::MAX (FlowDirectory's unpublishable id).
        let flows = (0..shape.flows)
            .map(|_| (rng.next_u64() >> 1) | 1)
            .collect();
        let mut h = Harness {
            shape,
            io,
            relay,
            relay_addr,
            rx: RecvRing::new(),
            tx: RecvRing::new(),
            txq: SendQueue::new(),
            staged: Vec::with_capacity(BATCH),
            slots: vec![
                Slot {
                    seq: 0,
                    flow: 0,
                    sent_ns: 0,
                    state: Await::Free,
                };
                shape.window
            ],
            free: (0..shape.window).rev().collect(),
            flows,
            rng,
            counter: 0,
            payload: vec![0xA5; shape.payload],
            epoch: clock::now(),
            counts: Counts::default(),
        };
        let mut scratch = Vec::new();
        // Flow install: the first `flows` datagrams walk the flow list in
        // order (see `next_flow`), so this touches each flow once.
        h.pump_until(shape.flows as u64, &mut scratch, tracer)?;
        h.pump_until(shape.flows as u64 + shape.warmup_ops, &mut scratch, tracer)?;
        Ok(h)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn next_flow(&mut self) -> u64 {
        // Round-robin for the first pass (flow install), seeded after.
        let i = if (self.counter as usize) < self.flows.len() {
            self.counter as usize
        } else {
            self.rng.next_bounded(self.flows.len() as u64) as usize
        };
        self.flows[i]
    }

    /// Sends what is staged in one `send_batch`, stamping the new
    /// datagrams with the time of the flush.
    fn flush(&mut self, tracer: &mut Tracer) -> io::Result<()> {
        if self.txq.is_empty() {
            return Ok(());
        }
        let now = self.now_ns();
        for &s in &self.staged {
            self.slots[s].sent_ns = now;
        }
        self.staged.clear();
        let span = tracer.enter("netproxy.batch.send_batch");
        let outcome = self.io.send_batch(&self.tx, &self.txq)?;
        tracer.exit(span);
        // A refused datagram never left; its slot times out as a failed op.
        self.counts.send_refused += outcome.errors;
        self.txq.clear();
        self.tx.reset();
        Ok(())
    }

    fn stage(
        &mut self,
        header: WireHeader,
        with_payload: bool,
        tracer: &mut Tracer,
    ) -> io::Result<()> {
        if self.tx.len() == BATCH {
            self.flush(tracer)?;
        }
        let payload: &[u8] = if with_payload { &self.payload } else { &[] };
        let (slot, len) = self
            .tx
            .stage(|buf| header.encode_into(buf, payload))
            .expect("ring flushed when full");
        self.txq.push_slot(slot, len, self.relay_addr);
        Ok(())
    }

    /// Originates datagrams until the window is full.
    fn refill(&mut self, tracer: &mut Tracer) -> io::Result<()> {
        while let Some(s) = self.free.pop() {
            let flow = self.next_flow();
            self.counter += 1;
            let seq = (self.counter << 8) | s as u64;
            let trimmed = self.shape.trim_one_in > 0
                && self.counter as usize > self.flows.len()
                && self.rng.next_bounded(self.shape.trim_one_in) == 0;
            if trimmed {
                self.stage(WireHeader::trimmed(flow, seq), false, tracer)?;
                self.counts.sent_trimmed += 1;
            } else {
                // The copy that comes back must carry its own sequence.
                self.payload[..8].copy_from_slice(&seq.to_be_bytes());
                let header = WireHeader::data(flow, seq, self.shape.payload as u16);
                self.stage(header, true, tracer)?;
                self.counts.sent_data += 1;
            }
            self.slots[s] = Slot {
                seq,
                flow,
                sent_ns: 0,
                state: if trimmed { Await::Nack } else { Await::Data },
            };
            self.staged.push(s);
        }
        Ok(())
    }

    fn resolve(&mut self, s: usize) {
        self.slots[s].state = Await::Free;
        self.free.push(s);
        self.counts.resolved += 1;
    }

    /// Handles arrival `i` of the receive ring.
    fn arrival(
        &mut self,
        i: usize,
        now: u64,
        lat: &mut Vec<u32>,
        tracer: &mut Tracer,
    ) -> io::Result<()> {
        let view = match DatagramView::parse(self.rx.datagram(i)) {
            Ok(v) if self.rx.source(i) == self.relay_addr => v,
            _ => {
                self.counts.malformed += 1;
                return Ok(());
            }
        };
        let (flags, flow, seq) = (view.flags(), view.flow(), view.seq());
        let s = (seq & 0xFF) as usize;
        let open = s < self.slots.len()
            && self.slots[s].state != Await::Free
            && self.slots[s].seq == seq
            && self.slots[s].flow == flow;
        if !open {
            self.counts.unexpected += 1;
            return Ok(());
        }
        match (self.slots[s].state, flags) {
            (Await::Data, f) if f == Flags::DATA => {
                let intact = view.payload().len() == self.shape.payload
                    && view.payload()[..8] == seq.to_be_bytes();
                if !intact {
                    self.counts.malformed += 1;
                    return Ok(());
                }
                self.counts.got_copies += 1;
                lat.push(
                    now.saturating_sub(self.slots[s].sent_ns)
                        .min(u32::MAX as u64) as u32,
                );
                if self.shape.ack {
                    self.stage(WireHeader::ack(flow, seq), false, tracer)?;
                    self.counts.sent_acks += 1;
                    self.slots[s].state = Await::Ack;
                } else {
                    self.resolve(s);
                }
            }
            (Await::Nack, f) if f == Flags::NACK => {
                self.counts.got_nacks += 1;
                self.resolve(s);
            }
            (Await::Ack, f) if f == Flags::ACK => {
                self.counts.got_acks += 1;
                self.resolve(s);
            }
            _ => self.counts.unexpected += 1,
        }
        Ok(())
    }

    /// Frees slots unresolved for [`RESOLVE_TIMEOUT`]; each is a failed op.
    fn reap(&mut self, now: u64) {
        let limit = RESOLVE_TIMEOUT.as_nanos() as u64;
        for s in 0..self.slots.len() {
            let slot = self.slots[s];
            if slot.state != Await::Free
                && slot.sent_ns != 0
                && now.saturating_sub(slot.sent_ns) > limit
            {
                self.slots[s].state = Await::Free;
                self.free.push(s);
                self.counts.timed_out += 1;
            }
        }
    }

    /// One turn of the loop: fill the window, flush, receive a batch,
    /// credit the window (staging ACKs for the next flush).
    fn turn(&mut self, originate: bool, lat: &mut Vec<u32>, tracer: &mut Tracer) -> io::Result<()> {
        if originate {
            self.refill(tracer)?;
        }
        self.flush(tracer)?;
        let span = tracer.enter("netproxy.batch.recv_batch");
        let got = self.io.recv_batch(&mut self.rx)?;
        tracer.exit(span);
        let now = self.now_ns();
        if got == 0 {
            // The poll timed out with datagrams still out: look for strays.
            self.reap(now);
        }
        for i in 0..got {
            self.arrival(i, now, lat, tracer)?;
        }
        Ok(())
    }

    /// Runs the closed loop until `resolved + timed_out` reaches `target`.
    fn pump_until(
        &mut self,
        target: u64,
        lat: &mut Vec<u32>,
        tracer: &mut Tracer,
    ) -> io::Result<()> {
        while self.counts.resolved + self.counts.timed_out < target {
            let room = target - (self.counts.resolved + self.counts.timed_out);
            let in_flight = (self.slots.len() - self.free.len()) as u64;
            self.turn(in_flight < room, lat, tracer)?;
        }
        self.drain(lat, tracer)
    }

    /// Stops originating and waits for everything in flight to resolve
    /// (or time out).
    fn drain(&mut self, lat: &mut Vec<u32>, tracer: &mut Tracer) -> io::Result<()> {
        while self.free.len() < self.slots.len() {
            self.turn(false, lat, tracer)?;
            let now = self.now_ns();
            self.reap(now);
        }
        Ok(())
    }

    /// Ends the harness's life: drains, then returns its own counts and
    /// the relay's. The relay flushes its counters after the send the
    /// harness has already seen arrive, so the last batch's flush gets a
    /// moment to land.
    fn finish(mut self, tracer: &mut Tracer) -> io::Result<(Counts, RelayStats)> {
        self.drain(&mut Vec::new(), tracer)?;
        let c = self.counts;
        let expected = c.sent_data + c.sent_trimmed + c.sent_acks;
        let settle = clock::now();
        while self.relay.stats().received < expected && settle.elapsed() < RESOLVE_TIMEOUT {
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((c, self.relay.stats()))
    }
}

/// Per-slice measurements.
struct Slice {
    traced: bool,
    /// Wall time of the slice and the meter readings around it.
    lap: Lap,
    resolved: u64,
    relay_received: u64,
    relay_cpu_ns: u64,
    harness_cpu_ns: u64,
    /// Forwarded-copy latency, ns: (p50, p99, samples).
    latency: Option<(f64, f64, usize)>,
}

impl Slice {
    /// Originated datagrams fully resolved per wall second.
    fn pps(&self) -> Scaled {
        let (wall_ns, steady) = self.lap.wall();
        (self.resolved as f64 * 1e9 / wall_ns.max(1.0), steady)
    }

    /// A time taken inside the slice, scaled like the slice.
    fn scaled(&self, ns: f64) -> Scaled {
        (ns * self.lap.factor(), self.lap.steady())
    }
}

/// CPU ns so far of (every other thread of the process, this thread).
fn cpu_split() -> (u64, u64) {
    let me = sys::thread_cpu_ns().unwrap_or(0);
    let all = sys::process_cpu_ns().unwrap_or(me);
    (all.saturating_sub(me), me)
}

/// Runs one relay workload and fills `out`.
pub fn run(
    workload: &str,
    plan: &RunPlan,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> io::Result<()> {
    let mut shape = shape_of(workload);
    if plan.smoke {
        shape.warmup_ops = shape.warmup_ops.min(500);
    }
    // Zero loss is by construction only if a full window fits the default
    // receive buffer (an skb for an MTU datagram accounts ~2.3 KB): if it
    // does not on this box, halve the window once and say so.
    let rmem = sys::rmem_default().unwrap_or(212_992);
    let per_dgram = if shape.payload > 512 { 2_304 } else { 768 };
    if (shape.window as u64) * per_dgram * 5 / 4 > rmem && shape.window > 1 {
        shape.window /= 2;
        out.notes.push(format!(
            "window halved to {} (rmem_default {rmem} B)",
            shape.window
        ));
    }

    // Measured section, in epochs: each begins with a fresh set-up (new
    // sockets, new relay, flows installed, warm-up), so the set-ups whose
    // median is `setup_s` are spread over the run. A traced run
    // alternates untraced and traced slices of the same loop, so its own
    // cost is measured in-process.
    let section = plan.seconds;
    let n_slices = ((section / SLICE.as_secs_f64()).round() as usize).max(2);
    let epoch_slices = n_slices.div_ceil(plan.setups());
    let mut slices: Vec<Slice> = Vec::with_capacity(n_slices);
    let mut setups: Vec<Lap> = Vec::new();
    let mut totals = (Counts::default(), RelayStats::default());
    let mut retire = |h: Harness, tracer: &mut Tracer| -> io::Result<()> {
        let (c, r) = h.finish(tracer)?;
        totals.0.add(&c);
        let t = &mut totals.1;
        t.forwarded += r.forwarded;
        t.nacks += r.nacks;
        t.reversed += r.reversed;
        t.dropped += r.dropped;
        t.send_errors += r.send_errors;
        t.batches += r.batches;
        t.received += r.received;
        t.shed_dropped += r.shed_dropped;
        t.io_retries += r.io_retries;
        Ok(())
    };
    let mut harness: Option<Harness> = None;
    // Sized once, so peak memory does not depend on how fast a slice ran.
    let mut lat: Vec<u32> = Vec::with_capacity(1 << 18);
    let mut meter = clock::read_meter();
    for k in 0..n_slices {
        let traced = plan.traced && k % 2 == 1;
        if k % epoch_slices == 0 {
            if let Some(h) = harness.take() {
                tracer.set_enabled(false);
                retire(h, tracer)?; // joins the previous relay's threads
            }
            tracer.set_enabled(plan.traced && k == 0);
            let (h, lap) = timed(|| Harness::start(shape, plan.seed, tracer));
            harness = Some(h?);
            setups.push(lap);
            meter = lap.meter_after;
        }
        let h = harness.as_mut().expect("slice 0 begins an epoch");
        tracer.set_enabled(traced);
        tracer.set_run(k as u32);
        lat.clear();
        let (relay_cpu0, harness_cpu0) = cpu_split();
        let received0 = h.relay.stats().received;
        let resolved0 = h.counts.resolved;
        let watch = Stopwatch::start_after(meter);
        let start = clock::now();
        while start.elapsed() < SLICE {
            h.turn(true, &mut lat, tracer)?;
        }
        let lap = watch.lap();
        meter = lap.meter_after;
        let (relay_cpu1, harness_cpu1) = cpu_split();
        let latency = (!lat.is_empty()).then(|| {
            (
                grouped_quantile(&mut lat, 0.50),
                grouped_quantile(&mut lat, 0.99),
                lat.len(),
            )
        });
        slices.push(Slice {
            traced,
            lap,
            resolved: h.counts.resolved - resolved0,
            relay_received: h.relay.stats().received - received0,
            relay_cpu_ns: relay_cpu1.saturating_sub(relay_cpu0),
            harness_cpu_ns: harness_cpu1.saturating_sub(harness_cpu0),
            latency,
        });
    }
    tracer.set_enabled(false);
    let last = harness.take().expect("at least one epoch");
    let layer_name = last.io.layer().name();
    let busy = last.relay.recorder().snapshot();
    retire(last, tracer)?;
    let (c, stats) = totals;

    // End-to-end numbers come from untraced slices only.
    let untraced: Vec<&Slice> = slices.iter().filter(|s| !s.traced).collect();
    let per =
        |f: &dyn Fn(&Slice) -> Scaled| -> Vec<Scaled> { untraced.iter().map(|s| f(s)).collect() };
    let setup_secs: Vec<f64> = setups.iter().map(|lap| lap.wall().0 / 1e9).collect();
    out.e2e.insert(spec::SETUP_S, Stat::median(&setup_secs));
    out.e2e.insert(
        spec::OPS_PER_S,
        Stat::best(&per(&Slice::pps), Better::Higher),
    );
    // The relay's side only: CPU ns of every thread but the harness's,
    // per datagram the relay received (reads 0 where there is no
    // per-thread CPU clock: the wall figure would count the harness too).
    let cpu = per(&|s| s.scaled(s.relay_cpu_ns as f64 / s.relay_received.max(1) as f64));
    out.e2e
        .insert(spec::CPU_NS_PER_OP, Stat::best(&cpu, Better::Lower));
    let latency = |pick: &dyn Fn((f64, f64, usize)) -> f64| -> Vec<Scaled> {
        untraced
            .iter()
            .filter_map(|s| s.latency.map(|l| s.scaled(pick(l))))
            .collect()
    };
    let p50 = latency(&|l| l.0);
    if !p50.is_empty() {
        out.e2e.insert(
            spec::LAT_P50_US,
            Stat::best(&p50, Better::Lower).scaled(1e-3),
        );
        out.set_layer(
            spec::LAT_TAIL_US,
            Stat::best(&latency(&|l| l.1), Better::Lower).value / 1e3,
        );
        let fewest = untraced
            .iter()
            .filter_map(|s| s.latency.map(|l| l.2))
            .min()
            .unwrap_or(0);
        out.notes.push(format!(
            "e2e.lat_tail_us = p99 per {} ms slice, at least {} samples beyond it{}",
            SLICE.as_millis(),
            fewest / 100,
            if fewest < 1000 {
                " (too few: read it as a maximum)"
            } else {
                ""
            }
        ));
    }

    let harness_cpu: u64 = untraced.iter().map(|s| s.harness_cpu_ns).sum();
    let wall: u64 = untraced.iter().map(|s| s.lap.wall_ns).sum();
    let resolved: u64 = untraced.iter().map(|s| s.resolved).sum();
    let relay_cpu: u64 = untraced.iter().map(|s| s.relay_cpu_ns).sum();
    let idle_share = 1.0 - harness_cpu as f64 / wall.max(1) as f64;
    // The harness shares the box with the relay: when it uses more CPU
    // than the relay, it, not the relay, limits the rate.
    out.notes.push(format!(
        "closed loop over loopback: {} flows, window {}, {} B payload, socket layer {}, relay shards 1; harness off-CPU {:.1}%, CPU harness:relay = {:.2}{}",
        shape.flows,
        shape.window,
        shape.payload,
        layer_name,
        idle_share * 100.0,
        harness_cpu as f64 / relay_cpu.max(1) as f64,
        if harness_cpu > relay_cpu { "  driver_bound" } else { "" }
    ));

    // Correctness: the harnesses' own counts against the relays', summed
    // over the epochs.
    let expected = c.sent_data + c.sent_trimmed + c.sent_acks;
    out.attempted = c.sent_data + c.sent_trimmed;
    out.failed = c.timed_out;
    out.check(
        "originated = copies + nacks",
        c.sent_data == c.got_copies && c.sent_trimmed == c.got_nacks,
        format!(
            "data {} copies {} | trimmed {} nacks {}",
            c.sent_data, c.got_copies, c.sent_trimmed, c.got_nacks
        ),
    );
    out.check(
        "acks matched",
        c.sent_acks == c.got_acks && (!shape.ack || c.sent_acks == c.got_copies),
        format!("sent {} back {}", c.sent_acks, c.got_acks),
    );
    out.check(
        "relay counters agree",
        stats.forwarded == c.sent_data
            && stats.nacks == c.sent_trimmed
            && stats.reversed == c.sent_acks
            && stats.received == expected,
        format!(
            "forwarded {} nacks {} reversed {} received {}",
            stats.forwarded, stats.nacks, stats.reversed, stats.received
        ),
    );
    out.check(
        "nothing dropped or refused",
        stats.dropped == 0
            && stats.send_errors == 0
            && c.send_refused == 0
            && stats.shed_dropped == 0,
        format!(
            "relay dropped {} send_errors {} shed {} | harness refused {}",
            stats.dropped, stats.send_errors, stats.shed_dropped, c.send_refused
        ),
    );
    out.check(
        "no malformed datagram",
        c.malformed == 0 && (c.unexpected == 0 || c.timed_out > 0),
        format!("malformed {} unexpected {}", c.malformed, c.unexpected),
    );

    // Per-layer: counters read from the relay's public accessors, and the
    // harness's own cost.
    out.set_layer(
        "netproxy.shard.avg_batch",
        stats.received as f64 / stats.batches.max(1) as f64,
    );
    out.set_layer(
        "netproxy.shard.batches_per_kpkt",
        stats.batches as f64 * 1e3 / stats.received.max(1) as f64,
    );
    if !busy.is_empty() {
        out.set_layer(
            "netproxy.shard.busy_ns_per_pkt_p50",
            busy.quantile(0.5) as f64,
        );
    }
    out.set_layer("netproxy.shard.forwarded", stats.forwarded as f64);
    out.set_layer("netproxy.shard.nacks", stats.nacks as f64);
    out.set_layer("netproxy.shard.reversed", stats.reversed as f64);
    out.set_layer("netproxy.shard.dropped", stats.dropped as f64);
    out.set_layer("netproxy.shard.send_errors", stats.send_errors as f64);
    out.set_layer("netproxy.shard.io_retries", stats.io_retries as f64);
    out.set_layer(
        "harness.cpu_ns_per_pkt",
        harness_cpu as f64 / resolved.max(1) as f64,
    );
    out.set_layer("harness.idle_share", idle_share);
    if plan.traced {
        let rate = |want: bool| -> f64 {
            let v: Vec<f64> = slices
                .iter()
                .filter(|s| s.traced == want)
                .map(|s| s.pps().0)
                .collect();
            median(&v)
        };
        out.set_layer(
            "trace_overhead_pct",
            (rate(false) / rate(true) - 1.0) * 100.0,
        );
    }
    Ok(())
}
