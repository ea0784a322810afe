//! Criterion benchmarks of end-to-end simulator throughput: how many
//! events per second the engine processes for representative incasts.
//! These keep the figure binaries' runtimes honest as the code evolves.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dcsim::events::{Event, EventQueue, TimerKind};
use dcsim::packet::{AgentId, FlowId, HostId, NodeId, Packet};
use dcsim::time::SimTime;
use dcsim::topology::TwoDcParams;
use incast_core::{run_incast, ExperimentConfig, Scheme};
use trace::SplitMix64;

/// Schedule/pop churn with a large standing population of pending events:
/// the steady state of a big simulation, where every pop is followed by a
/// re-schedule further in the future. Sweeps the pending-set size from
/// 10k to 1M to expose cache effects in the queue's layout (plain
/// `schedule`, everything in the heap), then runs the two lane-shaped cases.
fn bench_event_queue_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_churn");
    group.throughput(Throughput::Elements(1));
    for pending in [10_000u64, 100_000, 1_000_000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(pending),
            &pending,
            |b, &pending| {
                let mut q = EventQueue::with_capacity(pending as usize);
                let mut rng = SplitMix64::new(42);
                let mut t = 0u64;
                for _ in 0..pending {
                    t += rng.next_bounded(1000);
                    q.schedule(
                        SimTime(t),
                        Event::Timer {
                            agent: AgentId(0),
                            kind: TimerKind::Rto,
                        },
                    );
                }
                b.iter(|| {
                    let (at, _e) = q.pop().expect("non-empty");
                    q.schedule(
                        SimTime(at.0 + 1 + rng.next_bounded(1000)),
                        Event::Timer {
                            agent: AgentId(0),
                            kind: TimerKind::Rto,
                        },
                    );
                    at
                });
            },
        );
    }
    // The same churn in the shape a simulation's packets have: a 10k-packet
    // in-flight window spread over 64 links, each delivering in transmit
    // order. Every pop takes a link's earliest arrival and the link's next
    // packet is offered behind its last, so the heap holds 64 lane heads
    // while the other ~9.9k events wait on the lanes.
    group.bench_function("in_flight_lanes_10k", |b| {
        const LANES: usize = 64;
        const WINDOW: usize = 10_000;
        let arrival = |lane: usize| Event::Arrival {
            node: NodeId(lane as u32),
            packet: Packet::data(FlowId(0), 0, HostId(0), HostId(1), 0),
        };
        let mut q = EventQueue::with_lanes(WINDOW, LANES);
        let mut rng = SplitMix64::new(42);
        let mut last = [0u64; LANES];
        for k in 0..WINDOW {
            let lane = k % LANES;
            last[lane] += 1 + rng.next_bounded(1000);
            q.schedule_on_lane(lane, SimTime(last[lane]), arrival(lane));
        }
        b.iter(|| {
            let (at, event) = q.pop().expect("non-empty");
            let Event::Arrival { node, .. } = event else {
                unreachable!("only arrivals are scheduled")
            };
            let lane = node.index();
            last[lane] += 1 + rng.next_bounded(1000);
            q.schedule_on_lane(lane, SimTime(last[lane]), arrival(lane));
            at
        });
    });
    // The same window as the simulator schedules it: 64 ports in two delay
    // classes, packets of two sizes. The port a popped arrival came from
    // sends its next packet *now*, to arrive a delay later that only its
    // class and size decide, and offers it to the class's lane for the size
    // first and to its own second. Offers reach a class lane in the order
    // they fire, so it takes them all and the heap holds four heads.
    group.bench_function("delay_class_lanes", |b| {
        const PORTS: usize = 64;
        const WINDOW: u64 = 10_000;
        // Serialization + propagation in ps, [class][size]: 100 Gbps / 1 µs
        // and 400 Gbps / 10 ns links, 1500 B and 64 B packets.
        const DELAY: [[u64; 2]; 2] = [[1_120_000, 1_005_120], [40_000, 11_280]];
        let mut q = EventQueue::with_lanes(WINDOW as usize, PORTS + 4);
        let mut rng = SplitMix64::new(42);
        let mut offer = |q: &mut EventQueue, now: u64, port: usize| {
            let class = port % 2;
            let size = (rng.next_bounded(4) == 0) as usize;
            q.schedule_on_lanes(
                [PORTS + 2 * class + size, port],
                SimTime(now + DELAY[class][size]),
                Event::Arrival {
                    node: NodeId(port as u32),
                    packet: Packet::data(FlowId(0), 0, HostId(0), HostId(1), 0),
                },
            );
        };
        for k in 0..WINDOW {
            offer(&mut q, 100 * k, k as usize % PORTS);
        }
        b.iter(|| {
            let (at, event) = q.pop().expect("non-empty");
            let Event::Arrival { node, .. } = event else {
                unreachable!("only arrivals are scheduled")
            };
            offer(&mut q, at.0, node.index());
            at
        });
    });
    group.finish();
}

/// The hot path the cancelable-timer-slot rework targets. Two views of
/// it: the raw queue operation (reschedule-in-place against a large
/// standing population, which replaced push + eventual stale pop), and
/// an ACK-heavy incast where every arriving ACK moves the sender's RTO.
fn bench_timer_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("timer_churn");
    group.throughput(Throughput::Elements(1));
    group.bench_function("reschedule_in_place_100k_pending", |b| {
        let mut q = EventQueue::with_capacity(100_001);
        let mut rng = SplitMix64::new(7);
        for _ in 0..100_000 {
            q.schedule(
                SimTime(1 + rng.next_bounded(1_000_000_000)),
                Event::Timer {
                    agent: AgentId(0),
                    kind: TimerKind::Rto,
                },
            );
        }
        let h = q.schedule_cancelable(
            SimTime(1),
            Event::Timer {
                agent: AgentId(1),
                kind: TimerKind::Rto,
            },
        );
        b.iter(|| {
            let at = SimTime(1 + rng.next_bounded(1_000_000_000));
            black_box(q.reschedule(h, at))
        });
    });
    group.sample_size(10);
    group.bench_function("ack_heavy_incast_deg7_1MB", |b| {
        // Max fan-in the small topology supports (8 hosts per DC, one of
        // which is the proxy): every ACK rearms that sender's RTO slot.
        let config = ExperimentConfig {
            topo: TwoDcParams::small_test(),
            scheme: Scheme::ProxyStreamlined,
            degree: 7,
            total_bytes: 1_000_000,
            ..Default::default()
        };
        b.iter(|| run_incast(&config, 1));
    });
    group.finish();
}

fn bench_incast_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_incast");
    group.sample_size(10);
    for scheme in Scheme::ALL {
        group.bench_with_input(
            BenchmarkId::new("small_topo_2MB_deg3", scheme.label()),
            &scheme,
            |b, &scheme| {
                let config = ExperimentConfig {
                    topo: TwoDcParams::small_test(),
                    scheme,
                    degree: 3,
                    total_bytes: 2_000_000,
                    ..Default::default()
                };
                b.iter(|| run_incast(&config, 1));
            },
        );
    }
    group.finish();
}

fn bench_event_rate(c: &mut Criterion) {
    // Measure raw engine throughput on a fixed mid-size run and report it
    // as events/second via Criterion's throughput machinery.
    let config = ExperimentConfig {
        topo: TwoDcParams::small_test(),
        scheme: Scheme::Baseline,
        degree: 3,
        total_bytes: 5_000_000,
        ..Default::default()
    };
    let events = run_incast(&config, 1).events;
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events));
    group.bench_function("events_per_second_baseline_5MB", |b| {
        b.iter(|| run_incast(&config, 1));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue_churn,
    bench_timer_churn,
    bench_incast_simulation,
    bench_event_rate
);
criterion_main!(benches);
