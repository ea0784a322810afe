//! Integration tests for the research-agenda extensions: the FW#1
//! detector-based proxy, the rate-based transport, background traffic,
//! and the §6 operator runtime — all exercised end to end through the
//! simulator.

use dcsim::prelude::*;
use incast_core::experiment::TrimPolicy;
use incast_core::lossdetect::LossDetectorConfig;
use incast_core::orchestrator::{ShardedConfig, ShardedOrchestrator};
use incast_core::runtime::{OperatorRuntime, RuntimeAction};
use incast_core::scenario::{Fabric, Scenario};
use incast_core::scheme::{IncastSpec, Scheme, Transport};

/// A small-topology incast of `bytes` from four DC 0 senders, the last DC 0
/// host as proxy.
fn small_incast(scheme: Scheme, trim: bool, bytes: u64) -> Scenario {
    let fabric = Fabric::TwoDc(TwoDcParams::small_test().with_trim(trim));
    let spec = fabric.placement(4, bytes);
    Scenario::incast(fabric, scheme, spec)
}

fn run(scheme: Scheme, bytes: u64, transport: Transport, seed: u64) -> (f64, u64 /* rtos */) {
    let mut sc = small_incast(scheme, TrimPolicy::SchemeDefault.enabled_for(scheme), bytes);
    let knobs = &mut sc.incasts[0].spec.knobs;
    knobs.transport = transport;
    knobs.detector = LossDetectorConfig {
        reorder_threshold: 8,
        max_pending: 4096,
    };
    let (sim, report, icts) = sc.run(seed).expect("builds");
    assert_eq!(report.stop, StopReason::Idle, "{scheme}: {report:?}");
    (
        icts[0].expect("completes").as_secs_f64(),
        sim.metrics().counter(Counter::RtoFires),
    )
}

#[test]
fn detecting_proxy_lands_between_streamlined_and_baseline() {
    let bytes = 30_000_000;
    let (baseline, _) = run(Scheme::Baseline, bytes, Transport::WindowedDctcp, 1);
    let (streamlined, _) = run(Scheme::ProxyStreamlined, bytes, Transport::WindowedDctcp, 1);
    let (detecting, _) = run(Scheme::ProxyDetecting, bytes, Transport::WindowedDctcp, 1);
    assert!(
        detecting < baseline * 0.8,
        "no-trim inference must still beat the baseline: {detecting} vs {baseline}"
    );
    assert!(
        detecting >= streamlined,
        "inference cannot beat exact trimming evidence: {detecting} vs {streamlined}"
    );
}

#[test]
fn detecting_proxy_generates_nacks_without_trimming() {
    let sc = small_incast(Scheme::ProxyDetecting, false, 30_000_000);
    let (sim, _, icts) = sc.run(2).expect("builds");
    assert!(icts[0].is_some());
    assert!(
        sim.metrics().counter(Counter::ProxyNacks) > 0,
        "losses must be inferred and NACKed despite drop-tail switches"
    );
    assert_eq!(sim.metrics().counter(Counter::ReceiverNacks), 0);
}

#[test]
fn rate_based_transport_completes_under_every_scheme() {
    for scheme in Scheme::EXTENDED {
        let (ict, _) = run(scheme, 10_000_000, Transport::RateBased, 3);
        assert!(ict > 0.0 && ict < 10.0, "{scheme}: {ict}");
    }
}

#[test]
fn pacing_softens_the_baseline_collapse() {
    let bytes = 30_000_000;
    let (windowed, _) = run(Scheme::Baseline, bytes, Transport::WindowedDctcp, 4);
    let (paced, _) = run(Scheme::Baseline, bytes, Transport::RateBased, 4);
    assert!(
        paced < windowed,
        "paced start must avoid the first-RTT catastrophe: {paced} vs {windowed}"
    );
}

#[test]
fn proxy_still_wins_under_rate_based_transport() {
    let bytes = 30_000_000;
    let (baseline, _) = run(Scheme::Baseline, bytes, Transport::RateBased, 5);
    let (streamlined, _) = run(Scheme::ProxyStreamlined, bytes, Transport::RateBased, 5);
    assert!(
        streamlined < baseline,
        "the feedback-loop argument is transport-independent: {streamlined} vs {baseline}"
    );
}

#[test]
fn incast_completes_amid_background_traffic() {
    let sc = small_incast(Scheme::ProxyStreamlined, true, 10_000_000);
    let (mut sim, handles, _) = sc.build(6).expect("builds");
    // Background over hosts not in the incast, on the receiver's and the
    // proxy's leaves, all started while the incast runs.
    let (dc0, dc1) = (sc.fabric.hosts_in_dc(0), sc.fabric.hosts_in_dc(1));
    BackgroundTraffic {
        flows: 30,
        sizes: FlowSizeDist::WebSearch,
        start_window: SimDuration::from_millis(2),
        hosts: vec![dc0[4], dc0[5], dc0[6], dc1[1], dc1[2], dc1[3]],
        seed: 77,
    }
    .install(&mut sim);
    let report = sim.run(Some(sc.deadline()));
    assert_eq!(report.stop, StopReason::Idle);
    assert!(handles[0].completion(sim.metrics()).is_some());
    // All background flows also finish.
    assert_eq!(sim.metrics().completed_flows(), 30 + 4);
}

#[test]
fn operator_runtime_drives_a_simulated_reroute() {
    // The full §6 loop against the simulator: observe epoch traffic,
    // receive a Reroute action, install the incast through the allocated
    // proxy, and verify it beats the direct route. The topology tells the
    // runtime the datacenters, the RTT and the bottleneck buffer.
    let topo = two_dc_leaf_spine(&TwoDcParams::small_test().with_trim(true));
    let dc0 = topo.hosts_in_dc(0);
    let dc1 = topo.hosts_in_dc(1);
    let global = ShardedConfig {
        shards: 1,
        ..ShardedConfig::default()
    };
    let mut rt = OperatorRuntime::new(
        incast_core::detect::SignatureConfig {
            min_degree: 3,
            min_bytes: 5_000_000,
        },
        topo,
        ShardedOrchestrator::new(dc0[4..].to_vec(), global, 0),
    );
    // The operator sees one epoch of incast traffic toward dc1[0].
    for &s in &dc0[..4] {
        rt.observe(s, dc1[0], 7_500_000);
    }
    let actions = rt.end_epoch();
    let RuntimeAction::Reroute { proxy, .. } = actions[0] else {
        panic!("expected a reroute, got {actions:?}");
    };

    // Apply the action: the next occurrence runs through the proxy.
    let run_with = |proxy: Option<HostId>, scheme: Scheme| {
        let mut sc = small_incast(scheme, scheme == Scheme::ProxyStreamlined, 30_000_000);
        sc.incasts[0].spec = IncastSpec {
            proxy,
            ..sc.incasts[0].spec.clone()
        };
        let (_, _, icts) = sc.run(9).expect("builds");
        icts[0].expect("completes").as_secs_f64()
    };
    let direct = run_with(None, Scheme::Baseline);
    let rerouted = run_with(Some(proxy), Scheme::ProxyStreamlined);
    assert!(
        rerouted < direct,
        "the operator's reroute must pay off: {rerouted} vs {direct}"
    );
}
