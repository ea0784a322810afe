//! Fleet-scale throughput benchmark for the hybrid-fidelity sharded
//! engine: a fleet of inter-datacenter pods, each running a cross-DC
//! incast, partitioned one shard per datacenter and driven by
//! [`FleetSim`], built from one [`Scenario`].
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

use bench::take;
use dcsim::prelude::*;
use incast_core::scenario::{Fabric, Flow, Scenario};

/// The flags; an explicit flag wins over what `--quick` implies.
struct Cli {
    pods: usize,
    degree: usize,
    background: usize,
    mb: u64,
    threads: usize,
    seed: u64,
    fidelity: bool,
}

fn parse_args() -> Cli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut args: Vec<&str> = args.iter().map(String::as_str).collect();
    let mut switch = |name| {
        let at = args.iter().position(|&arg| arg == name);
        at.map(|at| args.remove(at)).is_some()
    };
    let (quick, fidelity) = (switch("--quick"), !switch("--no-fidelity"));
    let pick = |full, quick_value| if quick { quick_value } else { full };
    let cli = Cli {
        pods: take(&mut args, "--pods", pick(8, 2)),
        degree: take(&mut args, "--degree", pick(16, 8)),
        background: take(&mut args, "--background", pick(256, 16)),
        mb: take(&mut args, "--mb", pick(2, 1) as u64),
        threads: take(&mut args, "--threads", 1),
        seed: take(&mut args, "--seed", 7),
        fidelity,
    };
    assert!(
        args.is_empty(),
        "unknown argument {args:?}; see the module docs: --pods --degree --background --mb \
         --threads --seed --no-fidelity --quick"
    );
    cli
}

/// The fleet: `--pods` two-DC pods ([`Fabric::Pods`], each pod 2 spines ×
/// 4 leaves × 5 hosts per datacenter on the small-test links and buffers),
/// partitioned one shard per datacenter and run on `--threads` workers.
/// Every flow is a plain flow: each pod's cross-DC incast senders, then its
/// intra-DC mice.
fn scenario(cli: &Cli) -> Scenario {
    let params = TwoDcParams {
        spines_per_dc: 2,
        leaves_per_dc: 4,
        hosts_per_leaf: 5,
        ..TwoDcParams::small_test()
    };
    let fabric = Fabric::Pods {
        pods: cli.pods,
        params,
    };
    let hosts_per_dc = params.hosts_per_dc();
    assert!(
        cli.degree < hosts_per_dc,
        "--degree must leave the DC0 hosts distinct (max {})",
        hosts_per_dc - 1
    );
    let mut flows = Vec::new();
    let mut flow = |src, dst, bytes, start| {
        flows.push(Flow {
            spec: FlowSpec::new(src, dst, bytes),
            start: SimTime(start),
        })
    };
    let topo = fabric.topology();
    for pod in 0..cli.pods as u32 {
        let pod_start = pod as u64 * 50_000_000;
        let dcs = [topo.hosts_in_dc(2 * pod), topo.hosts_in_dc(2 * pod + 1)];
        // Cross-DC incast: `degree` DC0 senders converge on one DC1 host,
        // staggered slightly so windows are not lockstep-identical.
        for (s, &src) in dcs[0].iter().enumerate().take(cli.degree) {
            flow(
                src,
                dcs[1][0],
                cli.mb * 1_000_000,
                pod_start + s as u64 * 1_000_000,
            );
        }
        // Intra-DC background mice: short transfers staggered in time so
        // the fabric between incast hotspots stays mostly uncontended —
        // the regime the express path is built for. 256 KB at 100 Gbps is
        // ~20 us of wire time against a 50 us stagger, so roughly one
        // mouse is active per datacenter at any instant.
        for dc in &dcs {
            for i in 0..cli.background {
                // src and dst are 7 hosts apart in the 20-host DC (5 per
                // leaf), so they always sit on different leaves. The mice
                // do reach the pod's incast receiver (dc[0] of DC1): it is
                // the dst at i = 12 and the src at i = 19, and `--quick`'s
                // 16 mice include i = 12. `check.sh`'s FLEET_EXPECTED pins
                // this placement.
                let (src, dst) = (dc[(i + 1) % hosts_per_dc], dc[(i + 8) % hosts_per_dc]);
                flow(src, dst, 256_000, pod_start + i as u64 * 50_000_000);
            }
        }
    }
    Scenario {
        flows,
        fidelity: cli.fidelity,
        threads: Some(cli.threads),
        ..Scenario::new(fabric)
    }
}

fn main() {
    let cli = parse_args();
    let sc = scenario(&cli);
    let (mut fleet, flows) = sc.build_fleet(cli.seed).expect("the fleet builds");
    fleet.set_event_cap(u64::MAX);
    // simlint: allow(wall-clock) — a throughput benchmark measures real elapsed time
    let wall = std::time::Instant::now();
    let report = fleet.run(Some(sc.deadline()));
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
        "  port queues: {} packets queued at once at peak, {} pool blocks, summed over the shards",
        report.queue_peak.packets, report.queue_peak.blocks,
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
