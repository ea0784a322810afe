//! The benchmark's definition: workloads, end-to-end metrics with their
//! bounds, per-layer metrics with the end-to-end metric each should move.
//!
//! `BENCHMARK.json` at the repo root is generated from these tables
//! (`incast-perf spec`) and a test keeps the two equal. The tables are
//! data, not configuration: a change that claims a gain may not edit them.

use crate::json;

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// The command the driver runs from a checkout root.
pub const COMMAND: [&str; 2] = ["bash", "crates/perf/bench.sh"];

/// The directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["crates/perf"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `old`, as a share of `old`
    /// (negative = better).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        if old == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (new - old) / old.abs(),
            Better::Higher => (old - new) / old.abs(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line, at most 200 characters: why the workload exists.
    pub why: &'static str,
}

pub const RELAY_BULK: &str = "relay_bulk_64B";
pub const RELAY_INCAST: &str = "relay_incast_1400B";
pub const RELAY_PINGPONG: &str = "relay_pingpong_64B";
pub const SIM_INCAST: &str = "sim_incast_full";
pub const SIM_FLEET: &str = "sim_fleet_hybrid";
pub const CTRL_CHURN: &str = "ctrl_lease_churn";

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: RELAY_BULK,
        why: "Relay on one CPU, 128 flows, window 128, 64 B payload, no trim: smallest packet, full batches, so syscall and per-datagram cost do all the work; what a batching, GSO or io_uring change must move.",
    },
    Workload {
        name: RELAY_INCAST,
        why: "Relay on one CPU, 128 flows, window 64, 1400 B, 25% trimmed, every DATA copy ACKed back through the relay: the paper's traffic; bytes copied and the NACK/reverse paths dominate.",
    },
    Workload {
        name: RELAY_PINGPONG,
        why: "Relay on one CPU, 1 flow, window 1, 64 B: every batch is 1, so batching buys nothing; wake-up plus two syscalls. Catches throughput bought by waiting for fuller batches.",
    },
    Workload {
        name: SIM_INCAST,
        why: "Full-fidelity incasts on the paper topology, {Baseline, Naive, Streamlined} x degree {8, 32}: event-queue pop, agent dispatch and port-queue ops do all the work; the express walk does none.",
    },
    Workload {
        name: SIM_FLEET,
        why: "Hybrid-fidelity fleet (4 pods, 8 shards, incasts plus mice): most events are elided, so the express walk and the windowed cross-shard exchange dominate; mirror image of sim_incast_full.",
    },
    Workload {
        name: CTRL_CHURN,
        why: "Sharded lease plane holding 1,024 leases: release+select churn and renew sweeps, healthy then with a shard crashed; pure CPU, the only workload where lease table, shard lookup and gossip are the cost.",
    },
];

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// What the value means on the relay / simulator / control-plane
    /// workloads (every workload reports every metric).
    pub meaning: &'static str,
}

pub const SETUP_S: &str = "setup_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";
pub const OPS_PER_S: &str = "ops_per_s";
pub const CPU_NS_PER_OP: &str = "cpu_ns_per_op";
pub const LAT_P50_US: &str = "lat_p50_us";
/// A per-layer metric: see `END_TO_END`'s note on why it is not gated.
pub const LAT_TAIL_US: &str = "e2e.lat_tail_us";

/// Every timing is the median of the run's slices, as measured: wall time
/// for what a user sees (`setup_s`, `ops_per_s`, `lat_p50_us`), thread CPU
/// time for `cpu_ns_per_op`. The timing bounds are the 25 % a bound may
/// be: the judging box is a two-vCPU guest whose speed moves by up to a
/// quarter with what the host's other tenants do, and a gate tighter than
/// the box's own noise rejects innocent changes (survey: README.md).
///
/// Tail latency is not here: a per-slice p99 spreads too close to the
/// 25 % a bound may be between runs of one binary, so by ISSUE 11's own
/// rule it is the per-layer `e2e.lat_tail_us`.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: "wall s, median of fifteen set-ups spread over the run: relay = bind, relay start, flow install, warm-up; sim = topology build, flow install, warm-up run; ctrl = plane construction, 1,024 grants, warm-up churn",
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MB",
        better: Better::Lower,
        // A 3-4 MB process moves by 4-5 % with where ASLR puts its pages.
        bound: 0.15,
        meaning: "VmHWM of the workload process at exit",
    },
    EndToEnd {
        name: OPS_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        meaning: "per wall second: relay = originated datagrams fully resolved (relay_pps); sim = simulated data packets (1e9 / sim_ns_per_pkt); ctrl = select+release+renew decisions (ctrl_decisions_per_s)",
    },
    EndToEnd {
        name: CPU_NS_PER_OP,
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
        meaning: "relay = CPU ns of every non-harness thread per datagram the relay received (relay_cpu_ns_per_pkt); sim, ctrl = CPU ns of the one thread per simulated data packet / per decision (time it waited or was pre-empted is in ops_per_s, not here)",
    },
    EndToEnd {
        name: LAT_P50_US,
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        meaning: "wall us: relay = send stamp to arrival of the forwarded copy, p50; sim = host time per simulated run (time to result), median case; ctrl = individually timed select call, p50",
    },
];

#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this should move, and on which workload.
    pub moves: &'static str,
    /// An exact count of the workload's inputs: repeats bit for bit for a
    /// seed, so `repeat` compares it exactly instead of against a bound.
    pub exact: bool,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
        exact: false,
    }
}

const fn exact(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics, layer = module path. Every traced run prints every
/// one of them; a counter of a layer the workload never entered reads 0.
pub const PER_LAYER: [Layer; 56] = [
    layer("netproxy.batch.send_ns_per_dgram_64B", "ns", Lower, "cpu_ns_per_op, ops_per_s -> relay_bulk_64B; no move on relay_pingpong_64B"),
    layer("netproxy.batch.send_ns_per_dgram_1400B", "ns", Lower, "cpu_ns_per_op, ops_per_s -> relay_incast_1400B"),
    layer("netproxy.batch.recv_ns_per_dgram_64B", "ns", Lower, "cpu_ns_per_op, ops_per_s -> relay_bulk_64B; no move on relay_pingpong_64B"),
    layer("netproxy.batch.recv_ns_per_dgram_1400B", "ns", Lower, "cpu_ns_per_op, ops_per_s -> relay_incast_1400B"),
    layer("netproxy.batch.send1_ns", "ns", Lower, "lat_p50_us -> relay_pingpong_64B"),
    layer("netproxy.batch.recv1_ns", "ns", Lower, "lat_p50_us -> relay_pingpong_64B"),
    layer("netproxy.batch.stage_ns", "ns", Lower, "cpu_ns_per_op -> relay_bulk_64B (predicted: below resolution)"),
    layer("netproxy.wire.parse_ns", "ns", Lower, "cpu_ns_per_op -> relay_incast_1400B; predicted no visible move (ns of us)"),
    layer("netproxy.wire.rewrite_nack_ns", "ns", Lower, "cpu_ns_per_op -> relay_incast_1400B; predicted no visible move"),
    layer("netproxy.wire.encode_into_ns", "ns", Lower, "harness cost only; predicted no visible move anywhere"),
    layer("netproxy.streamlined.decide_ns", "ns", Lower, "cpu_ns_per_op -> relay_incast_1400B; predicted no visible move"),
    layer("netproxy.shard.directory_publish_ns", "ns", Lower, "setup_s -> relay_* (once per flow); cpu_ns_per_op -> relay_incast_1400B only"),
    layer("netproxy.shard.directory_lookup_ns", "ns", Lower, "cpu_ns_per_op -> relay_incast_1400B only (reverse path)"),
    layer("netproxy.shard.avg_batch", "count", Higher, "bigger batch -> lower cpu_ns_per_op but higher lat_p50_us on relay_bulk_64B; pinned at 1 on relay_pingpong_64B"),
    layer("netproxy.shard.batches_per_kpkt", "count", Lower, "same as avg_batch, inverted"),
    layer("netproxy.shard.busy_ns_per_pkt_p50", "ns", Lower, "cpu_ns_per_op -> relay_* (classify + send + flush per datagram, from ShardedRelay::recorder)"),
    layer("netproxy.shard.forwarded", "count", Higher, "must equal the harness's DATA count; ops_per_s -> relay_*"),
    layer("netproxy.shard.nacks", "count", Higher, "must equal the harness's trimmed count -> relay_incast_1400B"),
    layer("netproxy.shard.reversed", "count", Higher, "must equal the harness's ACK count -> relay_incast_1400B"),
    layer("netproxy.shard.dropped", "count", Lower, "failed ops -> relay_*"),
    layer("netproxy.shard.send_errors", "count", Lower, "failed ops -> relay_*"),
    layer("netproxy.shard.io_retries", "count", Lower, "failed ops, e2e.lat_tail_us -> relay_*"),
    layer("harness.cpu_ns_per_pkt", "ns", Lower, "explains ops_per_s on relay_* when driver_bound"),
    layer("harness.idle_share", "share", Higher, "share of the section the harness thread was off the CPU (about half on one CPU shared with the relay); driver_bound when the harness uses more CPU than the relay"),
    layer("incast_core.lossdetect.observe_ns", "ns", Lower, "none of the six (Detecting kind is in no workload yet); baseline for a later workload"),
    layer("dcsim.events.push_pop_ns", "ns", Lower, "ops_per_s -> sim_incast_full; small on sim_fleet_hybrid"),
    layer("dcsim.events.reschedule_ns", "ns", Lower, "ops_per_s -> sim_incast_full (RTO re-arm per ACK)"),
    layer("dcsim.queues.enqueue_dequeue_ns", "ns", Lower, "ops_per_s -> sim_incast_full"),
    layer("dcsim.queues.trim_ns", "ns", Lower, "ops_per_s -> sim_incast_full (Streamlined runs trim)"),
    layer("dcsim.sim.ns_per_event", "ns", Lower, "ops_per_s -> sim_incast_full; times events_per_pkt it reproduces sim_ns_per_pkt"),
    exact("dcsim.sim.events_per_pkt", "count", Lower, "exact count; a move means behaviour, not speed, changed -> sim_*"),
    layer("dcsim.sim.other_ns_per_event", "ns", Lower, "ns_per_event minus the two probes above = agent dispatch and the rest -> sim_incast_full"),
    layer("dcsim.topology.build_ms", "ms", Lower, "setup_s -> sim_*"),
    layer("incast_core.scheme.install_ms", "ms", Lower, "setup_s -> sim_*"),
    exact("dcsim.fidelity.saved_event_share", "share", Higher, "ops_per_s and e2e.sim_fct_err_pct -> sim_fleet_hybrid; zero on sim_incast_full"),
    exact("dcsim.fidelity.fallback_share", "share", Lower, "ops_per_s -> sim_fleet_hybrid; zero on sim_incast_full"),
    exact("dcsim.fidelity.deferral_share", "share", Lower, "ops_per_s -> sim_fleet_hybrid; zero on sim_incast_full"),
    layer("dcsim.fleet.ns_per_effective_event", "ns", Lower, "ops_per_s -> sim_fleet_hybrid"),
    exact("dcsim.fleet.windows", "count", Lower, "exact count; ops_per_s -> sim_fleet_hybrid"),
    exact("dcsim.fleet.exchanged_per_window", "count", Lower, "exact count; ops_per_s -> sim_fleet_hybrid"),
    layer("dcsim.fleet.t2_speedup", "x", Higher, "wall time of FleetSim::run, threads=1 over threads=2, same seed; the recorded answer to 'threads 2 slower than 1'"),
    layer("dcsim.audit.overhead_share", "share", Lower, "none (audit is off in measured runs); the number ROADMAP aim 4 asks for"),
    layer("incast_core.orchestrator.select_release_ns", "ns", Lower, "ops_per_s, e2e.lat_tail_us -> ctrl_lease_churn"),
    layer("incast_core.orchestrator.renew_ns", "ns", Lower, "ops_per_s -> ctrl_lease_churn"),
    layer("incast_core.orchestrator.advance_tick_us", "us", Lower, "ops_per_s -> ctrl_lease_churn"),
    exact("incast_core.orchestrator.fallback_share", "share", Lower, "exact count; e2e.lat_tail_us -> ctrl_lease_churn"),
    exact("incast_core.orchestrator.takeovers", "count", Lower, "exact count; crashed-phase grants served by the ring successor -> ctrl_lease_churn"),
    layer("incast_core.lease.grant_release_ns", "ns", Lower, "its share of select_release_ns -> ctrl_lease_churn"),
    layer("incast_core.gossip.merge_ns", "ns", Lower, "its share of advance_tick_us -> ctrl_lease_churn"),
    layer("trace.histogram.record_ns", "ns", Lower, "harness overhead on relay_*; what aim 4's registry must not exceed"),
    layer("trace.recorder.record_ns", "ns", Lower, "cpu_ns_per_op -> relay_* (one record per batch inside the relay)"),
    layer("trace_overhead_pct", "%", Lower, "cost of the benchmark's own spans: traced vs untraced slices of the same run"),
    layer(LAT_TAIL_US, "us", Lower, "relay_*: median slice's p99, send stamp to forwarded copy; ctrl: p99 of one timed select; sim_*: time to result of the slowest case. Too unsteady for a bound (see spec.rs)"),
    layer("e2e.failed_ops_share", "share", Lower, "failed / attempted (unresolved datagrams, flows not completed, refused grants, failed checks); 0 on every workload, which is why it cannot be an end-to-end metric here"),
    exact("e2e.sim_ict_ms", "ms", Lower, "simulated ms, repeats exactly per seed: mean Streamlined ICT / mean fleet incast FCT; a speed-only change must leave it identical"),
    exact("e2e.sim_fct_err_pct", "%", Lower, "relative deviation of the mean FCT over every flow, hybrid vs the full-fidelity reference of the same fleet; repeats exactly -> sim_fleet_hybrid"),
];

/// Renders `BENCHMARK.json`: exactly the keys the driver's contract names.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    let strings = |items: &[&str]| {
        items
            .iter()
            .map(|s| json::quote(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    out.push_str(&format!("  \"command\": [{}],\n", strings(&COMMAND)));
    out.push_str(&format!("  \"paths\": [{}],\n", strings(&PATHS)));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{comma}\n",
            json::quote(w.name),
            json::quote(w.why)
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}\n",
            json::quote(m.name),
            json::quote(m.unit),
            json::quote(m.better.name()),
            json::number(m.bound)
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}\n",
            json::quote(m.name),
            json::quote(m.unit),
            json::quote(m.better.name())
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn tables_meet_the_driver_contract() {
        let mut names: Vec<&str> = Vec::new();
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
            names.push(w.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        for m in END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            names.push(m.name);
        }
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            names.push(m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == SETUP_S)
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_parses_back() {
        let v = json::parse(&benchmark_json()).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_obj()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((Better::Lower.worsening(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(Better::Higher.worsening(100.0, 120.0) < 0.0);
    }
}
