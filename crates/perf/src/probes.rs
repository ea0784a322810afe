//! Per-layer probe loops: public functions of each layer, timed from
//! outside in a loop, no product code touched.
//!
//! A traced run of any workload runs every probe (they do not depend on
//! the workload), so every per-layer time is printed by every traced run.
//! Each probe is one span and one metered stretch; its value is the best
//! decile over chunks of the chunk's wall ns per operation, scaled like
//! every other timing (see `clock`, `stats`).

use crate::clock::{self, Scaled};
use crate::report::Outcome;
use crate::span::Tracer;
use crate::spec::Better;
use crate::stats::best_decile;
use dcsim::events::{Event, EventQueue, TimerKind};
use dcsim::packet::{AgentId, FlowId, HostId, Packet};
use dcsim::queues::{PortQueue, QueueConfig};
use dcsim::time::SimTime;
use incast_core::lossdetect::{LossDetector, LossDetectorConfig};
use incast_core::orchestrator::gossip::HealthView;
use incast_core::orchestrator::lease::{Lease, LeaseTable};
use netproxy::batch::{self, BatchIo, RecvRing, SendQueue, SocketLayer, BATCH};
use netproxy::wire::{
    rewrite_trimmed_to_nack, DatagramView, WireHeader, MAX_DATAGRAM, WIRE_HEADER_LEN,
};
use netproxy::{decide, FlowDirectory};
use std::hint::black_box;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;
use trace::{LatencyRecorder, LogHistogram, SplitMix64};

/// The best decile of per-chunk values taken inside one metered stretch.
fn best(lap: clock::Lap, per_call: &[f64]) -> f64 {
    let scaled: Vec<Scaled> = per_call
        .iter()
        .map(|ns| (ns * lap.factor(), true))
        .collect();
    best_decile(&scaled, Better::Lower)
}

/// Runs `op` in chunks of `chunk` calls until `budget` has passed (at
/// least three chunks) and returns each chunk's ns per call.
fn chunks(budget: Duration, chunk: u64, mut op: impl FnMut()) -> Vec<f64> {
    let mut per_call = Vec::new();
    let start = clock::now();
    while per_call.len() < 3 || start.elapsed() < budget {
        let t = clock::now();
        for _ in 0..chunk {
            op();
        }
        per_call.push(t.elapsed().as_nanos() as f64 / chunk as f64);
    }
    per_call
}

struct Probes<'a> {
    tracer: &'a mut Tracer,
    out: &'a mut Outcome,
    budget: Duration,
}

impl Probes<'_> {
    fn run(&mut self, name: &'static str, chunk: u64, op: impl FnMut()) {
        let span = self.tracer.enter(name);
        let (per_call, lap) = clock::timed(|| chunks(self.budget, chunk, op));
        self.tracer.exit(span);
        self.out.set_layer(name, best(lap, &per_call));
    }
}

/// Two loopback sockets behind the batched layer: `a` sends to `b`.
struct Pair {
    a: Box<dyn BatchIo>,
    b: Box<dyn BatchIo>,
    b_addr: SocketAddr,
}

fn pair() -> io::Result<Pair> {
    let a = UdpSocket::bind("127.0.0.1:0")?;
    let b = UdpSocket::bind("127.0.0.1:0")?;
    let b_addr = b.local_addr()?;
    Ok(Pair {
        a: batch::open(a, SocketLayer::Auto)?,
        b: batch::open(b, SocketLayer::Auto)?,
        b_addr,
    })
}

/// Stages `n` DATA datagrams of `payload` bytes for `dest`.
fn stage_batch(
    ring: &mut RecvRing,
    queue: &mut SendQueue,
    n: usize,
    payload: usize,
    dest: SocketAddr,
) {
    ring.reset();
    queue.clear();
    let body = vec![0x5A; payload];
    for i in 0..n {
        let header = WireHeader::data(7, i as u64, payload as u16);
        let (slot, len) = ring
            .stage(|buf| header.encode_into(buf, &body))
            .expect("room");
        queue.push_slot(slot, len, dest);
    }
}

/// `send_batch` and `recv_batch` per datagram, `n` ready datagrams per
/// call. Returns (send ns, recv ns) per datagram.
fn batch_io(p: &mut Pair, n: usize, payload: usize, budget: Duration) -> io::Result<(f64, f64)> {
    let watch = clock::Stopwatch::start();
    let mut tx = RecvRing::new();
    let mut txq = SendQueue::new();
    let mut rx = RecvRing::new();
    stage_batch(&mut tx, &mut txq, n, payload, p.b_addr);
    let (mut send, mut recv) = (Vec::new(), Vec::new());
    let start = clock::now();
    while send.len() < 50 || start.elapsed() < budget {
        let t = clock::now();
        let sent = p.a.send_batch(&tx, &txq)?.sent as usize;
        send.push(t.elapsed().as_nanos() as f64 / n as f64);
        // Loopback delivery is synchronous: everything sent is queued on
        // `b` by now, so one recv_batch finds `sent` ready datagrams.
        let mut got = 0;
        while got < sent {
            let t = clock::now();
            let k = p.b.recv_batch(&mut rx)?;
            if k == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "probe datagram lost on loopback",
                ));
            }
            recv.push(t.elapsed().as_nanos() as f64 / k as f64);
            got += k;
        }
    }
    let lap = watch.lap();
    Ok((best(lap, &send), best(lap, &recv)))
}

/// Runs every probe and stores each under its per-layer metric name.
pub fn run_all(tracer: &mut Tracer, out: &mut Outcome, smoke: bool) -> io::Result<()> {
    let budget = Duration::from_millis(if smoke { 2 } else { 25 });
    let outer = tracer.enter("probes");

    // netproxy.batch: the syscall layer, full batches and batches of one.
    let mut p = pair()?;
    for (payload, send_name, recv_name) in [
        (
            64,
            "netproxy.batch.send_ns_per_dgram_64B",
            "netproxy.batch.recv_ns_per_dgram_64B",
        ),
        (
            1400,
            "netproxy.batch.send_ns_per_dgram_1400B",
            "netproxy.batch.recv_ns_per_dgram_1400B",
        ),
    ] {
        let span = tracer.enter(send_name);
        let io = batch_io(&mut p, BATCH, payload, budget);
        tracer.exit(span);
        let (send, recv) = io?;
        out.set_layer(send_name, send);
        out.set_layer(recv_name, recv);
    }
    let span = tracer.enter("netproxy.batch.send1_ns");
    let io = batch_io(&mut p, 1, 64, budget);
    tracer.exit(span);
    let (send1, recv1) = io?;
    out.set_layer("netproxy.batch.send1_ns", send1);
    out.set_layer("netproxy.batch.recv1_ns", recv1);

    let mut probes = Probes {
        tracer,
        out,
        budget,
    };
    let dest: SocketAddr = "127.0.0.1:9".parse().expect("literal");
    {
        let mut ring = RecvRing::new();
        let mut queue = SendQueue::new();
        let header = WireHeader::data(7, 1, 64);
        let body = [0x5A; 64];
        probes.run("netproxy.batch.stage_ns", BATCH as u64, || {
            if ring.len() == BATCH {
                ring.reset();
                queue.clear();
            }
            let (slot, len) = ring
                .stage(|buf| header.encode_into(buf, &body))
                .expect("room");
            queue.push_slot(slot, len, dest);
        });
        black_box(queue.len());
    }

    // netproxy.wire / streamlined: the per-packet decision itself.
    let body = [0x5A; 1400];
    let mut data = [0u8; MAX_DATAGRAM];
    let data_len = WireHeader::data(7, 42, 1400).encode_into(&mut data, &body);
    probes.run("netproxy.wire.parse_ns", 4096, || {
        black_box(DatagramView::parse(black_box(&data[..data_len])).is_ok());
    });
    probes.run("netproxy.streamlined.decide_ns", 4096, || {
        black_box(decide(black_box(&data[..data_len])));
    });
    let mut trimmed = [0u8; WIRE_HEADER_LEN];
    let trimmed_header = WireHeader::trimmed(7, 42);
    probes.run("netproxy.wire.rewrite_nack_ns", 4096, || {
        trimmed_header.encode_into(&mut trimmed, &[]);
        black_box(rewrite_trimmed_to_nack(black_box(&mut trimmed)).is_ok());
    });
    let mut scratch = [0u8; MAX_DATAGRAM];
    let data_header = WireHeader::data(7, 42, 1400);
    probes.run("netproxy.wire.encode_into_ns", 1024, || {
        black_box(data_header.encode_into(black_box(&mut scratch), &body));
    });

    // netproxy.shard: the cross-shard flow directory, 4,096 flows in it.
    let directory = FlowDirectory::new(64 * 1024);
    let mut rng = SplitMix64::new(0xD1EC);
    let flows: Vec<u64> = (0..4096).map(|_| (rng.next_u64() >> 1) | 1).collect();
    let sender: SocketAddr = "127.0.0.1:4242".parse().expect("literal");
    for &f in &flows {
        directory.publish(f, sender);
    }
    let mut i = 0usize;
    probes.run("netproxy.shard.directory_publish_ns", 4096, || {
        directory.publish(flows[i & 4095], sender);
        i += 1;
    });
    probes.run("netproxy.shard.directory_lookup_ns", 4096, || {
        black_box(directory.lookup(flows[i & 4095]));
        i += 1;
    });

    // incast_core.lossdetect: in-order stream, nothing to declare.
    let mut detector = LossDetector::new(LossDetectorConfig::default());
    let mut seq = 0u64;
    probes.run("incast_core.lossdetect.observe_ns", 4096, || {
        seq += 1;
        black_box(detector.observe(FlowId(0), seq));
    });

    // dcsim.events: pop + schedule against 100 k pending (the pattern of
    // the `event_queue_churn/100000` criterion bench: the successor lands
    // just after the popped event), and an RTO re-arm in place.
    let timer = || Event::Timer {
        agent: AgentId(0),
        kind: TimerKind::Rto,
    };
    let mut rng = SplitMix64::new(42);
    let mut q = EventQueue::with_capacity(100_001);
    let mut t = 0u64;
    for _ in 0..100_000 {
        t += rng.next_bounded(1000);
        q.schedule(SimTime(t), timer());
    }
    probes.run("dcsim.events.push_pop_ns", 4096, || {
        let (at, _event) = q.pop().expect("non-empty");
        q.schedule(SimTime(at.0 + 1 + rng.next_bounded(1000)), timer());
    });
    let now = q.now().0;
    let handle = q.schedule_cancelable(SimTime(now + 1), timer());
    probes.run("dcsim.events.reschedule_ns", 4096, || {
        black_box(q.reschedule(handle, SimTime(now + 1 + rng.next_bounded(1_000_000_000))));
    });

    // dcsim.queues: below the ECN low watermark, and above the trim
    // threshold (every enqueue trims; the header drains from the control
    // queue).
    let pkt = Packet::data(FlowId(0), 0, HostId(0), HostId(1), 0);
    let mut port = PortQueue::new(QueueConfig::datacenter());
    probes.run("dcsim.queues.enqueue_dequeue_ns", 4096, || {
        port.enqueue(black_box(pkt), &mut rng);
        black_box(port.dequeue());
    });
    let mut full = PortQueue::new(QueueConfig {
        capacity_bytes: 1500,
        ctrl_capacity_bytes: 1_000_000_000,
        mark_low_bytes: 0,
        mark_high_bytes: 1500,
        trim: true,
    });
    full.enqueue(pkt, &mut rng);
    probes.run("dcsim.queues.trim_ns", 4096, || {
        full.enqueue(black_box(pkt), &mut rng);
        black_box(full.dequeue());
    });

    // incast_core.lease / gossip: the structures under the orchestrator.
    let mut table = LeaseTable::new();
    let mut ledger = dcsim::audit::LeaseLedger::default();
    let lease = Lease {
        proxy: HostId(3),
        epoch: 1,
        granted_at: SimTime::ZERO,
        expires_at: SimTime(5_000_000_000),
        bytes: 1 << 20,
    };
    for id in 0..256 {
        table.grant(id, lease, &mut ledger);
    }
    let mut id = 256u64;
    probes.run("incast_core.lease.grant_release_ns", 4096, || {
        table.grant(id, lease, &mut ledger);
        black_box(table.release(id - 256, &mut ledger));
        id += 1;
    });
    let mut view = HealthView::fresh(4, SimTime::ZERO);
    let mut peer = HealthView::fresh(4, SimTime::ZERO);
    let mut tick = 0u64;
    probes.run("incast_core.gossip.merge_ns", 4096, || {
        tick += 1;
        peer.observe((tick % 4) as u32, SimTime(tick));
        view.merge(black_box(&peer));
    });

    // trace: what the harness and the relay pay to record one sample.
    let mut hist = LogHistogram::with_precision(10);
    probes.run("trace.histogram.record_ns", 4096, || {
        hist.record(black_box(rng.next_bounded(1_000_000_000)));
    });
    let recorder = LatencyRecorder::new();
    probes.run("trace.recorder.record_ns", 4096, || {
        recorder.record_nanos(black_box(rng.next_bounded(1_000_000_000)));
    });

    // dcsim.sim.other_ns_per_event: what is left of an event once one
    // queue pop+push and (at most) one port enqueue+dequeue are taken out
    // — agent dispatch and the rest. Only meaningful when the workload
    // measured ns_per_event; reads 0 when the probes, at their own
    // operating point, cost more than a whole event does in the run.
    let layer = |out: &Outcome, name: &str| out.layers.get(name).copied().unwrap_or(0.0);
    let per_event = layer(probes.out, "dcsim.sim.ns_per_event");
    if per_event > 0.0 {
        let rest = per_event
            - layer(probes.out, "dcsim.events.push_pop_ns")
            - layer(probes.out, "dcsim.queues.enqueue_dequeue_ns");
        probes
            .out
            .set_layer("dcsim.sim.other_ns_per_event", rest.max(0.0));
    }
    tracer.exit(outer);
    Ok(())
}
