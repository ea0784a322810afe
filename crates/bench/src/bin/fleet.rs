//! Fleet-scale throughput benchmark for the hybrid-fidelity sharded
//! engine: a fleet of inter-datacenter pods, each running a cross-DC
//! incast, partitioned one shard per datacenter and driven by
//! [`FleetSim`].
//!
//! The headline number is **effective packet-events per second**:
//! `(events processed + TxDones never scheduled + events elided by the
//! express path) / wall-clock` — the events an engine scheduling a TxDone
//! and an Arrival for every hop would have processed, so full and hybrid
//! fidelity are rated on the same work.
//! The repo's perf target (ISSUE 7) is ≥ 10M effective events/sec. The
//! timed record of this engine is the benchmark's `sim_fleet_hybrid`
//! workload (`dcsim.fleet.t2_speedup` is its two-thread over one-thread
//! ratio); EXPERIMENTS.md keeps a `--threads 1` / `--threads 2` pair from
//! this binary's output.
//!
//! ```console
//! $ cargo run --release -p bench --bin fleet -- --pods 8 --threads 1
//! ```
//!
//! Flags:
//!   --pods N      independent two-DC pods in the fleet (default 8)
//!   --degree N    incast senders per pod (default 16)
//!   --background N  intra-DC background mice per datacenter (default 256)
//!   --mb N        megabytes per sender (default 2)
//!   --threads N   worker threads for the windowed run (default 1)
//!   --seed N      fleet seed (default 7)
//!   --no-fidelity run at full packet fidelity (engine comparison)
//!   --quick       small configuration for smoke tests
//!
//! The last line is the process's peak RSS, where `/proc/self/status`
//! reports one.

use dcsim::prelude::*;
use dcsim::topology::{LinkProps, TopologyBuilder, TwoDcParams};

#[derive(Debug, Clone)]
struct Cli {
    pods: usize,
    degree: usize,
    background: usize,
    mb: u64,
    threads: usize,
    seed: u64,
    fidelity: bool,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            pods: 8,
            degree: 16,
            background: 256,
            mb: 2,
            threads: 1,
            seed: 7,
            fidelity: true,
        }
    }
}

fn parse_args() -> Cli {
    let mut cli = Cli::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let usage = "see the module docs: --pods --degree --background --mb --threads --seed \
                 --no-fidelity --quick";
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| panic!("{arg} needs a value; {usage}"))
                .clone()
        };
        match arg.as_str() {
            "--pods" => cli.pods = value().parse().expect("--pods N"),
            "--degree" => cli.degree = value().parse().expect("--degree N"),
            "--background" => cli.background = value().parse().expect("--background N"),
            "--mb" => cli.mb = value().parse().expect("--mb N"),
            "--threads" => cli.threads = value().parse().expect("--threads N"),
            "--seed" => cli.seed = value().parse().expect("--seed N"),
            "--no-fidelity" => cli.fidelity = false,
            "--quick" => {
                cli.pods = 2;
                cli.degree = 8;
                cli.background = 16;
                cli.mb = 1;
            }
            other => panic!("unknown argument {other}; {usage}"),
        }
    }
    cli
}

/// Pod shape: each pod is a paper-scale two-DC leaf-spine pair. The
/// palette of link/queue parameters comes from [`TwoDcParams`] so pods
/// match the §4.1 fabric (100 Gbps links, 1 µs intra-DC, 1 ms long-haul).
const SPINES: usize = 2;
const LEAVES: usize = 4;
const HOSTS_PER_LEAF: usize = 5;

/// Builds a fleet of `pods` two-DC pods in one topology. Pod `i`'s
/// datacenters get dc ids `2i` and `2i + 1`, so [`FleetSim::new`]'s
/// per-datacenter partition yields `2 * pods` shards. Each pod's backbone
/// router is assigned to its DC0 so the only cross-shard links are
/// long-haul. Backbone routers of consecutive pods are chained with
/// long-haul links purely for reachability (routes must exist fleet-wide;
/// no flow crosses pods, and shortest paths never detour through the
/// chain), which also keeps the fleet lookahead at the WAN latency.
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
        // One backbone router per spine pair, owned by the pod's DC0 shard.
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
            TwoDcParams::small_test().backbone_queue,
            TwoDcParams::small_test().backbone_queue,
        );
    }
    (b.build(), pod_hosts)
}

fn main() {
    let cli = parse_args();
    let hosts_per_dc = LEAVES * HOSTS_PER_LEAF;
    assert!(
        cli.degree < hosts_per_dc,
        "--degree must leave the DC0 hosts distinct (max {})",
        hosts_per_dc - 1
    );
    let (topo, pod_hosts) = build_fleet(cli.pods);
    let mut fleet = FleetSim::new(topo, cli.seed);
    fleet.set_threads(cli.threads);
    fleet.set_event_cap(u64::MAX);
    if cli.fidelity {
        fleet.set_fidelity(FidelityConfig::default());
    }
    let mut flows = Vec::new();
    for (pod, hosts) in pod_hosts.iter().enumerate() {
        // Cross-DC incast: `degree` DC0 senders converge on one DC1 host.
        let receiver = hosts[hosts_per_dc];
        if cli.fidelity {
            let tor = fleet.topology().down_tor_port(receiver);
            fleet.pin_hot_port(tor);
        }
        for (s, &src) in hosts.iter().enumerate().take(cli.degree) {
            let spec = FlowSpec::new(src, receiver, cli.mb * 1_000_000);
            // Stagger pods slightly so windows are not lockstep-identical.
            let start = SimTime(pod as u64 * 50_000_000 + s as u64 * 1_000_000);
            flows.push(fleet.install_flow(spec, start));
        }
        // Intra-DC background mice: short transfers staggered in time so
        // the fabric between incast hotspots stays mostly uncontended —
        // the regime the express path is built for. 256 KB at 100 Gbps is
        // ~20 us of wire time against a 50 us stagger, so roughly one
        // mouse is active per datacenter at any instant.
        for side in 0..2 {
            let dc = &hosts[side * hosts_per_dc..(side + 1) * hosts_per_dc];
            for i in 0..cli.background {
                // Offset 7 is coprime to the 20-host DC, so src and dst
                // always land on different leaves and never collide with
                // the pod's incast receiver (dc[0] in DC1 is skipped).
                let src = dc[(i + 1) % hosts_per_dc];
                let dst = dc[(i + 8) % hosts_per_dc];
                let spec = FlowSpec::new(src, dst, 256_000);
                let start = SimTime(pod as u64 * 50_000_000 + i as u64 * 50_000_000);
                flows.push(fleet.install_flow(spec, start));
            }
        }
    }
    // simlint: allow(wall-clock) — a throughput benchmark measures real elapsed time
    let wall = std::time::Instant::now();
    let report = fleet.run(None);
    let wall_secs = wall.elapsed().as_secs_f64();
    assert_eq!(report.stop, StopReason::Idle, "fleet did not drain");
    let completed = flows
        .iter()
        .filter(|f| fleet.completion(**f).is_some())
        .count();
    assert_eq!(completed, flows.len(), "not all flows completed");
    let effective = report.events + report.tx_elided + report.express.saved_events;
    let raw_rate = report.events as f64 / wall_secs;
    let effective_rate = effective as f64 / wall_secs;
    println!(
        "fleet: {} pods ({} shards, {} threads), {} flows of {} MB, fidelity {}",
        cli.pods,
        fleet.num_shards(),
        cli.threads,
        flows.len(),
        cli.mb,
        if cli.fidelity { "hybrid" } else { "full" },
    );
    println!(
        "  {} events + {} TxDones never scheduled + {} saved = {} effective in {:.3}s wall ({} windows, {} cross-shard packets)",
        report.events, report.tx_elided, report.express.saved_events, effective, wall_secs,
        report.windows, report.exchanged,
    );
    println!(
        "  event queue: {} inserts appended to a lane, {} pushed into the heap; lanes refused an offer {} times",
        report.lane_churn.appended, report.lane_churn.pushed, report.lane_churn.refused,
    );
    println!(
        "  {:.2}M events/sec raw, {:.2}M events/sec effective",
        raw_rate / 1e6,
        effective_rate / 1e6,
    );
    if let Some(mb) = peak_rss_mb() {
        println!("  peak RSS {mb:.1} MB");
    }
}

/// The process's peak resident set size (`VmHWM`), where
/// `/proc/self/status` exists.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}
