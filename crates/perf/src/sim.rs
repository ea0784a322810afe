//! The two simulator workloads: single-threaded fixed work.
//!
//! `sim_incast_full` runs full-fidelity incasts on the paper's §4.1
//! topology, where event-queue pops, agent dispatch and port-queue
//! operations do all the work. `sim_fleet_hybrid` rebuilds the `fleet`
//! binary's scenario at hybrid fidelity, where most events are elided and
//! the express walk and the windowed cross-shard exchange dominate.
//!
//! Host time is what the simulator takes to run and is what the
//! end-to-end metrics report; simulated time (`e2e.sim_ict_ms`) is what
//! the modelled network would take, repeats exactly per seed, and must
//! not move under a change that only speeds the simulator up.

use crate::clock::{self, timed, Lap, Laps, Scaled};
use crate::report::Outcome;
use crate::span::Tracer;
use crate::spec;
use crate::stats::{best_sum, median, Stat};
use crate::RunPlan;
use dcsim::prelude::*;
use dcsim::topology::TopologyBuilder;
use incast_core::experiment::ExperimentConfig;
use incast_core::scheme::install_incast;
use incast_core::Scheme;
use trace::derive_seed;

/// The frozen shape of `sim_incast_full`: every scheme × degree pair is
/// one run; the six runs are one round.
const INCAST_SCHEMES: [Scheme; 3] = [
    Scheme::Baseline,
    Scheme::ProxyNaive,
    Scheme::ProxyStreamlined,
];
const INCAST_DEGREES: [usize; 2] = [8, 32];
/// Total incast bytes per run. The paper's Fig 2 point is 100 MB; 20 MB
/// keeps a six-run round near one second so a fifteen-second run holds
/// enough rounds for a median, and overloads the 100 Gbps receiver link
/// the same way (a 1 BDP initial window per sender is 25 MB in flight).
const INCAST_BYTES: u64 = 20_000_000;
const SMOKE_INCAST_BYTES: u64 = 5_000_000;
/// Warm-up incast (part of set-up).
const WARMUP_BYTES: u64 = 2_000_000;

/// Pieces one incast run is timed in, in order: topology build, flow
/// install, `Simulator::run`, and the rest (harvest, dropping the
/// simulator).
const LAP_BUILD: usize = 0;
const LAP_INSTALL: usize = 1;
const LAP_RUN: usize = 2;
const INCAST_LAPS: usize = 4;

struct IncastRun {
    scheme: Scheme,
    degree: usize,
    pieces: Vec<Lap>,
    events: u64,
    packets: u64,
    flows: u64,
    flows_completed: u64,
    /// Simulated incast completion time, seconds (`None`: did not complete).
    ict_s: Option<f64>,
    /// Serialisation floor: total bytes over the receiver's link rate.
    floor_s: f64,
    clean_finish: bool,
}

fn incast_config(scheme: Scheme, degree: usize, bytes: u64) -> ExperimentConfig {
    ExperimentConfig {
        topo: TwoDcParams::default(),
        scheme,
        degree,
        total_bytes: bytes,
        ..Default::default()
    }
}

/// One incast, the pieces `incast_core::experiment::run_incast` is made
/// of, each under its own span and timed as its own piece so set-up and
/// run time separate.
fn one_incast(
    cfg: &ExperimentConfig,
    seed: u64,
    audit: Option<AuditConfig>,
    tracer: &mut Tracer,
) -> IncastRun {
    let outer = tracer.enter("sim_incast_full.run");
    let mut laps = Laps::start();
    let params = cfg.topo.with_trim(cfg.trim.enabled_for(cfg.scheme));
    let span = tracer.enter("dcsim.topology.two_dc_leaf_spine");
    let topo = two_dc_leaf_spine(&params);
    tracer.exit(span);
    laps.lap();
    let mut sim = Simulator::new(topo, seed);
    if let Some(audit) = audit {
        sim.set_audit(audit);
    }
    let spec = cfg.placement(sim.topology());
    let span = tracer.enter("incast_core.scheme.install_incast");
    let handle = install_incast(&mut sim, &spec, cfg.scheme);
    tracer.exit(span);
    laps.lap();
    let span = tracer.enter("dcsim.sim.run");
    let report = sim.run(Some(spec.start + cfg.time_limit));
    tracer.exit(span);
    laps.lap();
    let metrics = sim.metrics();
    let flows_completed = handle
        .all_flows
        .iter()
        .filter(|f| metrics.completion(**f).is_some())
        .count() as u64;
    let packets = (0..spec.senders.len())
        .map(|i| packets_for_bytes(spec.bytes_for_sender(i)))
        .sum();
    let ict_s = handle.completion(metrics).map(|d| d.as_secs_f64());
    drop(sim);
    laps.lap();
    tracer.exit(outer);
    IncastRun {
        scheme: cfg.scheme,
        degree: cfg.degree,
        pieces: laps.pieces,
        events: report.events,
        packets,
        flows: handle.all_flows.len() as u64,
        flows_completed,
        ict_s,
        floor_s: params
            .dc_link
            .bandwidth
            .serialize_time(cfg.total_bytes)
            .as_secs_f64(),
        clean_finish: report.terminated_reason() == TerminatedReason::Completed,
    }
}

/// One round of a simulator workload, as the pieces it was timed in.
/// Every round does the same work with the same seeds, so piece `i` of
/// every round is a repetition of one slice: the repetitions differ only
/// by what the host did to them, each piece's time is the best decile of
/// its repetitions (see `stats`), and the time of any stretch of the
/// round is the sum over its pieces.
struct Round {
    traced: bool,
    pieces: Vec<Lap>,
}

type Pick = fn(&Lap) -> Scaled;

/// The pieces of every round that was (or was not) traced.
fn pieces_of(rounds: &[Round], traced: bool) -> Vec<&[Lap]> {
    rounds
        .iter()
        .filter(|r| r.traced == traced)
        .map(|r| r.pieces.as_slice())
        .collect()
}

/// Throughput and CPU metrics of a simulator workload from its rounds.
/// `packets` is the simulated data packets of one round, a constant of
/// the workload: `ops_per_s` is packets per wall second (1e9 /
/// sim_ns_per_pkt), `cpu_ns_per_op` the thread's CPU ns per packet; on
/// this single-threaded work the two differ only by what the thread
/// waited, which the best decile leaves little of.
fn finish_e2e(out: &mut Outcome, setups: &[Lap], rounds: &[Round], packets: u64) {
    let untraced = pieces_of(rounds, false);
    let all = 0..untraced[0].len();
    // Whole rounds as they ran, for the spread printed beside the value.
    let whole = |r: &[Lap], pick: Pick| -> f64 { r.iter().map(|l| pick(l).0).sum() };
    let wall = best_sum(&untraced, all.clone(), Lap::wall);
    let cpu = best_sum(&untraced, all.clone(), Lap::cpu);
    let setup_secs: Vec<f64> = setups.iter().map(|lap| lap.wall().0 / 1e9).collect();
    out.e2e.insert(spec::SETUP_S, Stat::median(&setup_secs));
    out.e2e.insert(
        spec::OPS_PER_S,
        Stat::over(
            packets as f64 * 1e9 / wall,
            untraced
                .iter()
                .map(|r| packets as f64 * 1e9 / whole(r, Lap::wall)),
        ),
    );
    out.e2e.insert(
        spec::CPU_NS_PER_OP,
        Stat::over(
            cpu / packets as f64,
            untraced.iter().map(|r| whole(r, Lap::cpu) / packets as f64),
        ),
    );
    let traced = pieces_of(rounds, true);
    if !traced.is_empty() {
        let traced_wall = best_sum(&traced, all, Lap::wall);
        out.set_layer("trace_overhead_pct", (traced_wall / wall - 1.0) * 100.0);
    }
}

pub fn run_incast_full(plan: &RunPlan, tracer: &mut Tracer, out: &mut Outcome) {
    let bytes = if plan.smoke {
        SMOKE_INCAST_BYTES
    } else {
        INCAST_BYTES
    };
    let degrees = INCAST_DEGREES;
    let cases: Vec<(Scheme, usize)> = INCAST_SCHEMES
        .iter()
        .flat_map(|&s| degrees.iter().map(move |&d| (s, d)))
        .collect();

    // Set-up: a warm-up incast (build, install, run). Nothing from it is
    // reused — every run builds its own topology — so it is what a user
    // pays before the first result. Repeated ahead of a round every so
    // often, so the set-ups are spread over the measured section.
    let mut setups: Vec<Lap> = Vec::new();

    let budget = plan.seconds;
    let section = clock::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut runs: Vec<IncastRun> = Vec::new();
    let min_rounds = if plan.traced { 2 } else { 1 };
    while rounds.len() < min_rounds || section.elapsed().as_secs_f64() < budget {
        let k = rounds.len();
        if plan.setup_due(setups.len(), section.elapsed().as_secs_f64(), budget) {
            tracer.set_enabled(false);
            let warm = incast_config(Scheme::ProxyStreamlined, degrees[0], WARMUP_BYTES);
            let seed = derive_seed(plan.seed, 0xA000 + setups.len() as u64);
            let (_, lap) = timed(|| one_incast(&warm, seed, None, tracer));
            setups.push(lap);
        }
        let traced = plan.traced && k % 2 == 1;
        tracer.set_enabled(traced);
        tracer.set_run(k as u32);
        for (i, &(scheme, degree)) in cases.iter().enumerate() {
            let cfg = incast_config(scheme, degree, bytes);
            runs.push(one_incast(
                &cfg,
                derive_seed(plan.seed, i as u64),
                None,
                tracer,
            ));
        }
        rounds.push(Round {
            traced,
            pieces: runs[k * cases.len()..]
                .iter()
                .flat_map(|r| r.pieces.iter().copied())
                .collect(),
        });
        if plan.smoke && rounds.len() >= min_rounds {
            break;
        }
    }
    tracer.set_enabled(false);
    let first: Vec<&IncastRun> = runs.iter().take(cases.len()).collect();
    let packets: u64 = first.iter().map(|r| r.packets).sum();
    finish_e2e(out, &setups, &rounds, packets);
    // Time to result of one simulated run: the median case and the
    // slowest case.
    let untraced = pieces_of(&rounds, false);
    let case_laps = |c: usize| c * INCAST_LAPS..(c + 1) * INCAST_LAPS;
    let case_us: Vec<f64> = (0..cases.len())
        .map(|c| best_sum(&untraced, case_laps(c), Lap::wall) / 1e3)
        .collect();
    out.e2e.insert(
        spec::LAT_P50_US,
        Stat::over(
            median(&case_us),
            untraced.iter().flat_map(|r| {
                r.chunks(INCAST_LAPS)
                    .map(|c| c.iter().map(|l| l.wall().0).sum::<f64>() / 1e3)
            }),
        ),
    );
    out.set_layer(
        spec::LAT_TAIL_US,
        case_us.iter().copied().fold(0.0, f64::max),
    );
    out.notes.push(format!(
        "{} rounds of {} runs, {} MB per incast, full fidelity, 1 thread; lat_p50_us = median case, e2e.lat_tail_us = slowest case",
        rounds.len(),
        cases.len(),
        bytes / 1_000_000
    ));

    // Correctness.
    out.attempted = runs.iter().map(|r| r.flows).sum();
    out.failed = runs.iter().map(|r| r.flows - r.flows_completed).sum();
    out.check(
        "every flow completed",
        runs.iter()
            .all(|r| r.clean_finish && r.ict_s.is_some() && r.flows == r.flows_completed),
        format!("{} runs, {} flows", runs.len(), out.attempted),
    );
    let below_floor = runs
        .iter()
        .filter(|r| r.ict_s.is_some_and(|ict| ict < r.floor_s))
        .count();
    out.check(
        "ICT >= bytes / bottleneck rate",
        below_floor == 0,
        format!(
            "{below_floor} runs below the {:.3} ms floor",
            runs[0].floor_s * 1e3
        ),
    );
    let mean_ict = |scheme: Scheme, degree: usize| -> f64 {
        let v: Vec<f64> = runs
            .iter()
            .filter(|r| r.scheme == scheme && r.degree == degree)
            .filter_map(|r| r.ict_s)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let mut worst_ratio = 0.0f64;
    for &d in &degrees {
        worst_ratio =
            worst_ratio.max(mean_ict(Scheme::ProxyStreamlined, d) / mean_ict(Scheme::Baseline, d));
    }
    // The paper's claim holds for incasts that overload the receiver's
    // link; a smoke-size incast fits the buffers and gains nothing.
    let limit = if plan.smoke { 1.1 } else { 0.2 };
    out.check(
        "Streamlined ICT < 0.2 x Baseline",
        worst_ratio < limit,
        format!("worst ratio {worst_ratio:.4} (limit {limit})"),
    );
    let repeats = runs.chunks(cases.len()).all(|round| {
        round
            .iter()
            .zip(&first)
            .all(|(a, b)| a.events == b.events && a.ict_s == b.ict_s)
    });
    out.check(
        "every round repeats the first exactly",
        repeats,
        "same seeds: same events, same simulated times".to_string(),
    );
    let streamlined: Vec<f64> = first
        .iter()
        .filter(|r| r.scheme == Scheme::ProxyStreamlined)
        .filter_map(|r| r.ict_s)
        .collect();
    out.set_layer(
        "e2e.sim_ict_ms",
        streamlined.iter().sum::<f64>() / streamlined.len() as f64 * 1e3,
    );

    // Per-layer numbers from the same runs: Simulator::run over the
    // events it processed (identical every round).
    let events: u64 = first.iter().map(|r| r.events).sum();
    let lap_sum = |lap: usize| {
        let which = (0..cases.len()).map(|c| c * INCAST_LAPS + lap);
        best_sum(&untraced, which, Lap::wall)
    };
    let run_ns = lap_sum(LAP_RUN);
    out.set_layer("dcsim.sim.ns_per_event", run_ns / events as f64);
    out.set_layer("dcsim.sim.events_per_pkt", events as f64 / packets as f64);
    out.notes.push(format!(
        "ns_per_event x events_per_pkt = {:.1} ns/pkt inside Simulator::run; sim_ns_per_pkt (whole run) = {:.1}",
        run_ns / packets as f64,
        1e9 / out.e2e[spec::OPS_PER_S].value
    ));
    // Per run of one case, averaged over the six cases.
    out.set_layer(
        "dcsim.topology.build_ms",
        lap_sum(LAP_BUILD) / cases.len() as f64 / 1e6,
    );
    out.set_layer(
        "incast_core.scheme.install_ms",
        lap_sum(LAP_INSTALL) / cases.len() as f64 / 1e6,
    );

    if plan.traced && !plan.smoke {
        // What strict auditing costs: one audited round against the
        // unaudited rounds (audit is off in every measured run).
        tracer.set_enabled(true);
        let mut audited = 0.0;
        for (i, &(scheme, degree)) in cases.iter().enumerate() {
            let cfg = incast_config(scheme, degree, bytes);
            let span = tracer.enter("dcsim.audit.strict_round");
            let r = one_incast(
                &cfg,
                derive_seed(plan.seed, i as u64),
                Some(AuditConfig::strict()),
                tracer,
            );
            tracer.exit(span);
            assert!(r.clean_finish, "strict audit would have panicked");
            audited += r.pieces.iter().map(|l| l.wall().0).sum::<f64>();
        }
        tracer.set_enabled(false);
        // Against the median round, not its best decile: the audited
        // round ran once, under whatever interference there was.
        let plain: Vec<f64> = rounds
            .iter()
            .map(|r| r.pieces.iter().map(|l| l.wall().0).sum())
            .collect();
        out.set_layer("dcsim.audit.overhead_share", audited / median(&plain) - 1.0);
    }
}

// ---------------------------------------------------------------------
// sim_fleet_hybrid
// ---------------------------------------------------------------------

/// The frozen shape of the fleet: the `fleet` binary's scenario with
/// half its pods, so one run takes about a second and a fifteen-second
/// measured section holds enough identical runs for a median.
#[derive(Debug, Clone, Copy)]
struct FleetShape {
    pods: usize,
    degree: usize,
    background: usize,
    bytes_per_sender: u64,
}

const FLEET: FleetShape = FleetShape {
    pods: 4,
    degree: 16,
    background: 256,
    bytes_per_sender: 2_000_000,
};
const SMOKE_FLEET: FleetShape = FleetShape {
    pods: 2,
    degree: 8,
    background: 16,
    bytes_per_sender: 1_000_000,
};
const MOUSE_BYTES: u64 = 256_000;

const SPINES: usize = 2;
const LEAVES: usize = 4;
const HOSTS_PER_LEAF: usize = 5;
const HOSTS_PER_DC: usize = LEAVES * HOSTS_PER_LEAF;

/// The `fleet` binary's topology: `pods` two-DC leaf-spine pairs in one
/// graph, pod `i` owning datacenters `2i` and `2i + 1` (one shard each),
/// backbone routers chained by long-haul links for reachability only.
fn build_fleet(pods: usize) -> (Topology, Vec<Vec<HostId>>) {
    let p = TwoDcParams::small_test();
    let mut b = TopologyBuilder::new();
    let mut pod_hosts = Vec::with_capacity(pods);
    let mut backbones = Vec::with_capacity(pods);
    for pod in 0..pods as u32 {
        let dcs = [2 * pod, 2 * pod + 1];
        let mut spines = vec![Vec::new(); 2];
        let mut hosts = Vec::new();
        for (side, &dc) in dcs.iter().enumerate() {
            let leaves: Vec<_> = (0..LEAVES)
                .map(|_| b.add_switch(NodeRole::Leaf, Some(dc)))
                .collect();
            spines[side] = (0..SPINES)
                .map(|_| b.add_switch(NodeRole::Spine, Some(dc)))
                .collect();
            for &leaf in &leaves {
                for _ in 0..HOSTS_PER_LEAF {
                    let h = b.add_host(Some(dc));
                    hosts.push(h);
                    b.add_duplex(b.host_node(h), leaf, p.dc_link, p.host_queue, p.dc_queue);
                }
                for &spine in &spines[side] {
                    b.add_duplex(leaf, spine, p.dc_link, p.dc_queue, p.dc_queue);
                }
            }
        }
        let mut pod_bbs = Vec::new();
        for (&s0, &s1) in spines[0].iter().zip(&spines[1]) {
            let bb = b.add_switch(NodeRole::Backbone, Some(dcs[0]));
            b.add_duplex(s0, bb, p.wan_link, p.dc_queue, p.backbone_queue);
            b.add_duplex(s1, bb, p.wan_link, p.dc_queue, p.backbone_queue);
            pod_bbs.push(bb);
        }
        backbones.push(pod_bbs);
        pod_hosts.push(hosts);
    }
    for w in backbones.windows(2) {
        b.add_duplex(
            w[0][0],
            w[1][0],
            LinkProps::long_haul(),
            p.backbone_queue,
            p.backbone_queue,
        );
    }
    (b.build(), pod_hosts)
}

/// Simulated time per timed piece of a fleet run. `FleetSim::run` takes
/// a time limit and resumes where it stopped, so one run is cut into
/// pieces of identical work across repetitions, each short enough to fall
/// inside a quiet moment of the host.
const FLEET_SEGMENT: SimDuration = SimDuration::from_micros(250);

struct FleetRun {
    /// The run's pieces: topology build, flow install, then one per
    /// `FleetSim::run` segment, then the rest (harvest, dropping the fleet).
    pieces: Vec<Lap>,
    /// How many of the pieces are `FleetSim::run` segments.
    segments: usize,
    packets: u64,
    flows: u64,
    flows_completed: u64,
    report: FleetReport,
    /// Simulated incast FCT per pod, seconds (NaN: did not complete).
    pod_fct_s: Vec<f64>,
    /// Mean simulated FCT over every completed flow, seconds.
    mean_fct_s: f64,
}

fn one_fleet(
    shape: FleetShape,
    seed: u64,
    hybrid: bool,
    threads: usize,
    tracer: &mut Tracer,
) -> FleetRun {
    let outer = tracer.enter("sim_fleet_hybrid.run");
    let mut laps = Laps::start();
    let span = tracer.enter("dcsim.topology.build_fleet");
    let (topo, pod_hosts) = build_fleet(shape.pods);
    tracer.exit(span);
    laps.lap();
    let mut fleet = FleetSim::new(topo, seed);
    fleet.set_threads(threads);
    fleet.set_event_cap(u64::MAX);
    if hybrid {
        fleet.set_fidelity(FidelityConfig::default());
    }
    let span = tracer.enter("dcsim.fleet.install_flow");
    let mut flows: Vec<(FlowId, SimTime)> = Vec::new();
    let mut incasts: Vec<(SimTime, Vec<FlowId>)> = Vec::new();
    let mut packets = 0;
    for (pod, hosts) in pod_hosts.iter().enumerate() {
        let receiver = hosts[HOSTS_PER_DC];
        if hybrid {
            let tor = fleet.topology().down_tor_port(receiver);
            fleet.pin_hot_port(tor);
        }
        let pod_start = SimTime(pod as u64 * 50_000_000);
        let mut members = Vec::new();
        for (s, &src) in hosts.iter().enumerate().take(shape.degree) {
            let start = SimTime(pod_start.0 + s as u64 * 1_000_000);
            let flow =
                fleet.install_flow(FlowSpec::new(src, receiver, shape.bytes_per_sender), start);
            members.push(flow);
            flows.push((flow, start));
            packets += packets_for_bytes(shape.bytes_per_sender);
        }
        incasts.push((pod_start, members));
        for side in 0..2 {
            let dc = &hosts[side * HOSTS_PER_DC..(side + 1) * HOSTS_PER_DC];
            for i in 0..shape.background {
                let src = dc[(i + 1) % HOSTS_PER_DC];
                let dst = dc[(i + 8) % HOSTS_PER_DC];
                let start = SimTime(pod_start.0 + i as u64 * 50_000_000);
                flows.push((
                    fleet.install_flow(FlowSpec::new(src, dst, MOUSE_BYTES), start),
                    start,
                ));
                packets += packets_for_bytes(MOUSE_BYTES);
            }
        }
    }
    tracer.exit(span);
    laps.lap();
    let mut segments = 0;
    let mut limit = SimTime::ZERO + FLEET_SEGMENT;
    // Counts are per call, express statistics cumulative: fold the
    // segments into one report of the whole run.
    let (mut events, mut windows, mut exchanged, mut violations) = (0, 0, 0, Vec::new());
    let report = loop {
        let span = tracer.enter("dcsim.fleet.run");
        let mut r = fleet.run(Some(limit));
        tracer.exit(span);
        laps.lap();
        segments += 1;
        events += r.events;
        windows += r.windows;
        exchanged += r.exchanged;
        violations.append(&mut r.violations);
        if r.stop != StopReason::TimeLimit {
            break FleetReport {
                events,
                windows,
                exchanged,
                violations,
                ..r
            };
        }
        limit += FLEET_SEGMENT;
    };
    let fcts: Vec<f64> = flows
        .iter()
        .filter_map(|(f, start)| fleet.completion(*f).map(|t| t.since(*start).as_secs_f64()))
        .collect();
    let flows_completed = fcts.len() as u64;
    let pod_fct_s = incasts
        .iter()
        .map(|(start, members)| {
            members
                .iter()
                .map(|f| {
                    fleet
                        .completion(*f)
                        .map_or(f64::NAN, |t| t.since(*start).as_secs_f64())
                })
                .fold(0.0, f64::max)
        })
        .collect();
    let mean_fct_s = fcts.iter().sum::<f64>() / fcts.len().max(1) as f64;
    drop(fleet);
    laps.lap();
    tracer.exit(outer);
    FleetRun {
        pieces: laps.pieces,
        segments,
        packets,
        flows: flows.len() as u64,
        flows_completed,
        report,
        pod_fct_s,
        mean_fct_s,
    }
}

impl FleetRun {
    /// Scaled wall ns inside `FleetSim::run` (the segment pieces).
    fn run_ns(&self) -> f64 {
        self.pieces[2..2 + self.segments]
            .iter()
            .map(|l| l.wall().0)
            .sum()
    }
}

pub fn run_fleet_hybrid(plan: &RunPlan, tracer: &mut Tracer, out: &mut Outcome) {
    let shape = if plan.smoke { SMOKE_FLEET } else { FLEET };
    assert!(
        shape.degree < HOSTS_PER_DC,
        "degree must leave the DC0 hosts distinct"
    );
    let fleet_seed = derive_seed(plan.seed, 0);

    // Set-up: topology build + flow install + a small warm-up fleet run.
    // Repeated ahead of a run every so often, so the set-ups are spread
    // over the measured section.
    let mut setups: Vec<Lap> = Vec::new();
    tracer.set_enabled(false);

    // The accuracy reference: one full-fidelity run of the same fleet.
    // It checks the simulator; it is not part of what is timed.
    let reference = one_fleet(shape, fleet_seed, false, 1, tracer);

    let budget = plan.seconds;
    let section = clock::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut runs: Vec<FleetRun> = Vec::new();
    let min_rounds = if plan.traced { 2 } else { 1 };
    while rounds.len() < min_rounds || section.elapsed().as_secs_f64() < budget {
        let k = rounds.len();
        if plan.setup_due(setups.len(), section.elapsed().as_secs_f64(), budget) {
            tracer.set_enabled(false);
            let seed = derive_seed(plan.seed, 0xF000 + setups.len() as u64);
            let (warm, lap) = timed(|| {
                drop(build_fleet(shape.pods));
                one_fleet(SMOKE_FLEET, seed, true, 1, tracer)
            });
            setups.push(lap);
            assert_eq!(
                warm.flows, warm.flows_completed,
                "warm-up fleet did not drain"
            );
        }
        let traced = plan.traced && k % 2 == 1;
        tracer.set_enabled(traced);
        tracer.set_run(k as u32);
        let r = one_fleet(shape, fleet_seed, true, 1, tracer);
        rounds.push(Round {
            traced,
            pieces: r.pieces.clone(),
        });
        runs.push(r);
        if plan.smoke && rounds.len() >= min_rounds {
            break;
        }
    }
    tracer.set_enabled(false);
    let hybrid = &runs[0];
    finish_e2e(out, &setups, &rounds, hybrid.packets);
    let untraced = pieces_of(&rounds, false);
    // Time to result: one run is the only unit, so the typical and the
    // slowest case read the same — the whole run.
    let whole_us = best_sum(&untraced, 0..hybrid.pieces.len(), Lap::wall) / 1e3;
    out.e2e.insert(
        spec::LAT_P50_US,
        Stat::over(
            whole_us,
            untraced
                .iter()
                .map(|r| r.iter().map(|l| l.wall().0).sum::<f64>() / 1e3),
        ),
    );
    out.set_layer(spec::LAT_TAIL_US, whole_us);
    out.notes.push(format!(
        "{} runs of one fleet in {} pieces each: {} pods / {} shards, {}-way {} MB incasts + {} mice per DC, hybrid fidelity, threads=1",
        runs.len(),
        hybrid.pieces.len(),
        shape.pods,
        2 * shape.pods,
        shape.degree,
        shape.bytes_per_sender / 1_000_000,
        shape.background
    ));

    // Correctness.
    out.attempted = runs.iter().map(|r| r.flows).sum::<u64>() + reference.flows;
    out.failed = runs
        .iter()
        .map(|r| r.flows - r.flows_completed)
        .sum::<u64>()
        + (reference.flows - reference.flows_completed);
    out.check(
        "every flow completed",
        out.failed == 0
            && runs
                .iter()
                .all(|r| r.report.stop == StopReason::Idle && r.report.violations.is_empty())
            && reference.report.stop == StopReason::Idle,
        format!("{} runs + reference, {} flows", runs.len(), out.attempted),
    );
    out.check(
        "every run repeats the first exactly",
        runs.iter().all(|r| {
            r.report.events == hybrid.report.events
                && r.pod_fct_s == hybrid.pod_fct_s
                && r.segments == hybrid.segments
        }),
        "same seed: same events, same simulated times".to_string(),
    );
    let floor_s = TwoDcParams::small_test()
        .dc_link
        .bandwidth
        .serialize_time(shape.degree as u64 * shape.bytes_per_sender)
        .as_secs_f64();
    let below = hybrid
        .pod_fct_s
        .iter()
        .filter(|fct| **fct < floor_s)
        .count();
    out.check(
        "incast FCT >= bytes / bottleneck rate",
        below == 0,
        format!("{below} pods below the {:.3} ms floor", floor_s * 1e3),
    );
    // Accuracy against the more detailed model: the mean FCT over every
    // flow of the fleet. The incasts alone cannot carry this check: their
    // FCTs are set by which packets the overloaded port happens to trim,
    // and differ between the fidelities the way two seeds differ — up to
    // 26 % per pod and 12 % in the four-pod mean, in either direction,
    // over twelve seeds at the parent commit. They are printed beside it.
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let err_pct = (hybrid.mean_fct_s - reference.mean_fct_s).abs() / reference.mean_fct_s * 100.0;
    let (incast_hybrid, incast_full) = (mean(&hybrid.pod_fct_s), mean(&reference.pod_fct_s));
    let pod_max_pct = hybrid
        .pod_fct_s
        .iter()
        .zip(&reference.pod_fct_s)
        .map(|(h, f)| (h - f).abs() / f * 100.0)
        .fold(0.0, f64::max);
    out.check(
        "hybrid mean FCT within 5% of full fidelity",
        err_pct <= 5.0,
        format!(
            "all flows {:.4} us vs {:.4} us: {err_pct:.4}%; incasts alone {:.4} ms vs {:.4} ms (largest single-pod deviation {pod_max_pct:.2}%)",
            hybrid.mean_fct_s * 1e6,
            reference.mean_fct_s * 1e6,
            incast_hybrid * 1e3,
            incast_full * 1e3
        ),
    );
    out.set_layer("e2e.sim_fct_err_pct", err_pct);
    out.set_layer("e2e.sim_ict_ms", incast_hybrid * 1e3);

    // Per-layer numbers: exact counts of the fleet, over its pieces.
    let x = hybrid.report.express;
    let effective = hybrid.report.events + x.saved_events;
    out.set_layer(
        "dcsim.fidelity.saved_event_share",
        x.saved_events as f64 / effective as f64,
    );
    out.set_layer(
        "dcsim.fidelity.fallback_share",
        x.fallbacks as f64 / x.packets.max(1) as f64,
    );
    out.set_layer(
        "dcsim.fidelity.deferral_share",
        x.deferrals as f64 / x.packets.max(1) as f64,
    );
    out.set_layer("dcsim.fleet.windows", hybrid.report.windows as f64);
    out.set_layer(
        "dcsim.fleet.exchanged_per_window",
        hybrid.report.exchanged as f64 / hybrid.report.windows.max(1) as f64,
    );
    out.set_layer(
        "dcsim.sim.events_per_pkt",
        hybrid.report.events as f64 / hybrid.packets as f64,
    );
    let run_ns = best_sum(&untraced, 2..2 + hybrid.segments, Lap::wall);
    out.set_layer(
        "dcsim.sim.ns_per_event",
        run_ns / hybrid.report.events as f64,
    );
    out.set_layer(
        "dcsim.fleet.ns_per_effective_event",
        run_ns / effective as f64,
    );
    out.set_layer(
        "dcsim.topology.build_ms",
        best_sum(&untraced, 0..1, Lap::wall) / 1e6,
    );
    out.set_layer(
        "incast_core.scheme.install_ms",
        best_sum(&untraced, 1..2, Lap::wall) / 1e6,
    );

    if plan.traced && !plan.smoke {
        // The recorded answer to "threads 2 slower than 1": the same
        // fleet with two worker threads, three times, the best of them
        // against the best single-thread run — whole `FleetSim::run`s on
        // both sides, threads=2 having run only three times. Wall time: with two threads the work runs
        // on `FleetSim`'s workers and the calling thread only joins them,
        // so its own CPU time says nothing.
        tracer.set_enabled(true);
        let mut t2_ns = f64::INFINITY;
        for _ in 0..3 {
            let span = tracer.enter("dcsim.fleet.run_threads2");
            let t2 = one_fleet(shape, fleet_seed, true, 2, tracer);
            tracer.exit(span);
            t2_ns = t2_ns.min(t2.run_ns());
            out.check(
                "threads=2 repeats threads=1 exactly",
                t2.report.events == hybrid.report.events && t2.pod_fct_s == hybrid.pod_fct_s,
                format!("events {} vs {}", t2.report.events, hybrid.report.events),
            );
        }
        tracer.set_enabled(false);
        let t1_ns = runs
            .iter()
            .map(FleetRun::run_ns)
            .fold(f64::INFINITY, f64::min);
        let speedup = t1_ns / t2_ns;
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Two threads cannot be more than twice as fast: a larger
        // figure is a fault in how one side was timed.
        out.check(
            "t2_speedup at most the thread count",
            speedup <= 2.0,
            format!("{speedup:.3}x with 2 threads on {nproc} CPUs"),
        );
        out.set_layer("dcsim.fleet.t2_speedup", speedup);
    }
}
