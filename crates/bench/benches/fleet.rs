//! Criterion benchmarks of the sharded hybrid-fidelity fleet engine: a
//! small two-pod fleet (4 shards) run end-to-end, once at full packet
//! fidelity and once hybrid. Throughput is reported in *effective*
//! events (processed + `TxDone`s never scheduled + elided by the express
//! path) so the two configurations are comparable; `scripts/perfgate.sh`
//! holds the medians against the committed `BENCH_fleet.json` baseline.
//! The headline 10M-events/sec measurement lives in the `fleet` binary —
//! this suite exists to catch regressions cheaply.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dcsim::prelude::*;
use dcsim::topology::{TopologyBuilder, TwoDcParams};

const PODS: usize = 2;
const SPINES: usize = 2;
const LEAVES: usize = 4;
const HOSTS_PER_LEAF: usize = 5;
const DEGREE: usize = 8;
const MICE_PER_DC: usize = 16;

/// Miniature of the `fleet` binary's topology: `PODS` two-DC leaf-spine
/// pods, backbone routers owned by each pod's DC0 shard, consecutive
/// pods' backbones chained long-haul for reachability.
fn build_fleet() -> (Topology, Vec<Vec<HostId>>) {
    let p = TwoDcParams::small_test();
    let mut b = TopologyBuilder::new();
    let mut pod_hosts = Vec::new();
    let mut backbones: Vec<Vec<NodeId>> = Vec::new();
    for pod in 0..PODS as u32 {
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
            dcsim::topology::LinkProps::long_haul(),
            p.backbone_queue,
            p.backbone_queue,
        );
    }
    (b.build(), pod_hosts)
}

fn run_fleet(topo: &Topology, pod_hosts: &[Vec<HostId>], hybrid: bool) -> u64 {
    let hosts_per_dc = LEAVES * HOSTS_PER_LEAF;
    let mut fleet = FleetSim::new(topo.clone(), 7);
    fleet.set_threads(1);
    fleet.set_event_cap(u64::MAX);
    if hybrid {
        fleet.set_fidelity(FidelityConfig::default());
    }
    for (pod, hosts) in pod_hosts.iter().enumerate() {
        let receiver = hosts[hosts_per_dc];
        if hybrid {
            let tor = fleet.topology().down_tor_port(receiver);
            fleet.pin_hot_port(tor);
        }
        for (s, &src) in hosts.iter().enumerate().take(DEGREE) {
            let spec = FlowSpec::new(src, receiver, 1_000_000);
            let start = SimTime(pod as u64 * 50_000_000 + s as u64 * 1_000_000);
            fleet.install_flow(spec, start);
        }
        for side in 0..2 {
            let dc = &hosts[side * hosts_per_dc..(side + 1) * hosts_per_dc];
            for i in 0..MICE_PER_DC {
                let spec = FlowSpec::new(
                    dc[(i + 1) % hosts_per_dc],
                    dc[(i + 8) % hosts_per_dc],
                    256_000,
                );
                let start = SimTime(pod as u64 * 50_000_000 + i as u64 * 50_000_000);
                fleet.install_flow(spec, start);
            }
        }
    }
    let report = fleet.run(None);
    assert_eq!(report.stop, StopReason::Idle);
    report.events + report.tx_elided + report.express.saved_events
}

fn bench_fleet(c: &mut Criterion) {
    let (topo, pod_hosts) = build_fleet();
    // Both configurations process the same traffic, so both are rated in
    // effective events (identical within ~1% between the two modes).
    let effective = run_fleet(&topo, &pod_hosts, true);
    let mut group = c.benchmark_group("fleet");
    group.sample_size(10);
    group.throughput(Throughput::Elements(effective));
    for hybrid in [false, true] {
        let label = if hybrid { "hybrid" } else { "full_fidelity" };
        group.bench_with_input(BenchmarkId::from_parameter(label), &hybrid, |b, &hybrid| {
            b.iter(|| run_fleet(&topo, &pod_hosts, hybrid));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fleet);
criterion_main!(benches);
