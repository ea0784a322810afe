//! Integration tests for the research-agenda extensions: the FW#1
//! detector-based proxy, the rate-based transport, background traffic,
//! and the §6 operator runtime — all exercised end to end through the
//! simulator.

use dcsim::prelude::*;
use incast_core::experiment::TrimPolicy;
use incast_core::lossdetect::LossDetectorConfig;
use incast_core::orchestrator::{ShardedConfig, ShardedOrchestrator};
use incast_core::runtime::{OperatorRuntime, RuntimeAction};
use incast_core::scheme::{install_incast, IncastSpec, Scheme, Transport};

fn run(scheme: Scheme, bytes: u64, transport: Transport, seed: u64) -> (f64, u64 /* rtos */) {
    let trim = TrimPolicy::SchemeDefault.enabled_for(scheme);
    let params = TwoDcParams::small_test().with_trim(trim);
    let mut sim = Simulator::new(two_dc_leaf_spine(&params), seed);
    let dc0 = sim.topology().hosts_in_dc(0);
    let dc1 = sim.topology().hosts_in_dc(1);
    let mut spec =
        IncastSpec::new(dc0[..4].to_vec(), dc1[0], bytes).with_proxy(*dc0.last().unwrap());
    spec.knobs.transport = transport;
    spec.knobs.detector = LossDetectorConfig {
        reorder_threshold: 8,
        max_pending: 4096,
    };
    let handle = install_incast(&mut sim, &spec, scheme);
    let report = sim.run(Some(SimTime::ZERO + SimDuration::from_secs(600)));
    assert_eq!(report.stop, StopReason::Idle, "{scheme}: {report:?}");
    (
        handle
            .completion(sim.metrics())
            .expect("completes")
            .as_secs_f64(),
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
    let params = TwoDcParams::small_test().with_trim(false);
    let mut sim = Simulator::new(two_dc_leaf_spine(&params), 2);
    let dc0 = sim.topology().hosts_in_dc(0);
    let dc1 = sim.topology().hosts_in_dc(1);
    let spec =
        IncastSpec::new(dc0[..4].to_vec(), dc1[0], 30_000_000).with_proxy(*dc0.last().unwrap());
    let handle = install_incast(&mut sim, &spec, Scheme::ProxyDetecting);
    sim.run(Some(SimTime::ZERO + SimDuration::from_secs(600)));
    assert!(handle.completion(sim.metrics()).is_some());
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
    let params = TwoDcParams::small_test().with_trim(true);
    let mut sim = Simulator::new(two_dc_leaf_spine(&params), 6);
    let dc0 = sim.topology().hosts_in_dc(0);
    let dc1 = sim.topology().hosts_in_dc(1);
    // Background over hosts not in the incast.
    BackgroundTraffic {
        flows: 30,
        sizes: FlowSizeDist::WebSearch,
        start_window: SimDuration::from_millis(2),
        hosts: vec![dc0[4], dc0[5], dc0[6], dc1[1], dc1[2], dc1[3]],
        seed: 77,
    }
    .install(&mut sim);
    let spec =
        IncastSpec::new(dc0[..4].to_vec(), dc1[0], 10_000_000).with_proxy(*dc0.last().unwrap());
    let handle = install_incast(&mut sim, &spec, Scheme::ProxyStreamlined);
    let report = sim.run(Some(SimTime::ZERO + SimDuration::from_secs(600)));
    assert_eq!(report.stop, StopReason::Idle);
    assert!(handle.completion(sim.metrics()).is_some());
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
        let params = TwoDcParams::small_test().with_trim(scheme == Scheme::ProxyStreamlined);
        let mut sim = Simulator::new(two_dc_leaf_spine(&params), 9);
        let dc0 = sim.topology().hosts_in_dc(0);
        let dc1 = sim.topology().hosts_in_dc(1);
        let mut spec = IncastSpec::new(dc0[..4].to_vec(), dc1[0], 30_000_000);
        if let Some(p) = proxy {
            spec = spec.with_proxy(p);
        }
        let handle = install_incast(&mut sim, &spec, scheme);
        sim.run(Some(SimTime::ZERO + SimDuration::from_secs(600)));
        handle
            .completion(sim.metrics())
            .expect("completes")
            .as_secs_f64()
    };
    let direct = run_with(None, Scheme::Baseline);
    let rerouted = run_with(Some(proxy), Scheme::ProxyStreamlined);
    assert!(
        rerouted < direct,
        "the operator's reroute must pay off: {rerouted} vs {direct}"
    );
}
