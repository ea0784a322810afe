//! End-to-end simulation integration tests: flows and incasts across the
//! full stack (topology → switches → transport → schemes → metrics).
//!
//! Paper-scale runs live in the bench binaries; these tests use the
//! scaled-down topology so they stay fast in debug builds while still
//! exercising every code path (ECN, trimming, NACKs, RTO, proxy relays).

use dcsim::prelude::*;
use incast_core::scenario::{Fabric, Scenario};
use incast_core::Scheme;

/// The standard small-scale incast: 3 senders in DC 0, the receiver in
/// DC 1, the last DC 0 host as proxy.
fn small(scheme: Scheme, trim: bool, bytes: u64) -> Scenario {
    let fabric = Fabric::TwoDc(TwoDcParams::small_test().with_trim(trim));
    let spec = fabric.placement(3, bytes);
    Scenario::incast(fabric, scheme, spec)
}

#[test]
fn single_flow_delivers_every_byte() {
    let fabric = Fabric::TwoDc(TwoDcParams::small_test().with_trim(true));
    let (mut sim, _, _) = Scenario::new(fabric).build(1).expect("builds");
    let dst = sim.topology().hosts_in_dc(1)[0];
    let bytes = 3_333_333; // deliberately not a packet multiple
    let handle = dcsim::flows::install_flow(
        &mut sim,
        dcsim::flows::FlowSpec::new(HostId(0), dst, bytes),
        SimTime::ZERO,
    );
    let report = sim.run(Some(SimTime::ZERO + SimDuration::from_secs(30)));
    assert_eq!(report.stop, StopReason::Idle);
    assert!(sim.metrics().completion(handle.flow).is_some());
    assert_eq!(handle.packets, bytes.div_ceil(MSS));
}

#[test]
fn incast_completes_under_every_scheme() {
    for scheme in Scheme::ALL {
        let (_, report, icts) = small(scheme, scheme == Scheme::ProxyStreamlined, 10_000_000)
            .run(2)
            .expect("builds");
        assert_eq!(report.stop, StopReason::Idle, "{scheme}: {report:?}");
        let ict = icts[0].expect("completes");
        assert!(ict > SimDuration::ZERO);
        assert!(ict < SimDuration::from_secs(120), "{scheme}: {ict}");
    }
}

#[test]
fn overloaded_incast_prefers_the_proxy() {
    // 30 MB over 3 senders with ~50 MB initial windows into a 17 MB
    // buffer: heavy first-RTT overload. Both proxies must beat baseline.
    let mut results = Vec::new();
    for scheme in Scheme::ALL {
        let sc = small(scheme, scheme == Scheme::ProxyStreamlined, 30_000_000);
        let (_, _, icts) = sc.run(3).expect("builds");
        results.push(icts[0].expect("completes").as_secs_f64());
    }
    let (baseline, naive, streamlined) = (results[0], results[1], results[2]);
    assert!(
        naive < baseline * 0.5,
        "naive {naive} vs baseline {baseline}"
    );
    assert!(
        streamlined < baseline * 0.5,
        "streamlined {streamlined} vs baseline {baseline}"
    );
}

#[test]
fn congestion_point_moves_to_the_proxy() {
    // Under Streamlined, trims happen in the sending DC (the proxy's
    // down-ToR); the receiver must see no trimmed packets at all.
    let sc = small(Scheme::ProxyStreamlined, true, 30_000_000);
    let (sim, _, icts) = sc.run(4).expect("builds");
    assert!(icts[0].is_some());
    let m = sim.metrics();
    assert!(
        m.counter(Counter::ProxyNacks) > 0,
        "proxy must observe trims"
    );
    assert_eq!(
        m.counter(Counter::ReceiverNacks),
        0,
        "no loss evidence may reach the receiver"
    );
}

#[test]
fn baseline_congestion_stays_at_the_receiver() {
    // Trim on even for baseline here.
    let (sim, _, icts) = small(Scheme::Baseline, true, 30_000_000)
        .run(4)
        .expect("builds");
    assert!(icts[0].is_some());
    assert!(
        sim.metrics().counter(Counter::ReceiverNacks) > 0,
        "with trimming switches the receiver NACKs the trimmed packets"
    );
    assert_eq!(sim.metrics().counter(Counter::ProxyNacks), 0);
}

#[test]
fn naive_proxy_grants_pace_the_relay() {
    // The relay leg can never have received more than the ingress
    // delivered: completion order is ingress flow then relay flow.
    let sc = small(Scheme::ProxyNaive, false, 5_000_000);
    let (mut sim, handles, _) = sc.build(5).expect("builds");
    sim.run(Some(sc.deadline()));
    let m = sim.metrics();
    // all_flows alternates [legA, legB] per sender.
    for pair in handles[0].all_flows.chunks(2) {
        let (leg_a, leg_b) = (pair[0], pair[1]);
        let a_done = m.completion(leg_a).expect("ingress completes");
        let b_done = m.completion(leg_b).expect("relay completes");
        assert!(
            a_done <= b_done,
            "relay cannot finish before its ingress: {a_done} vs {b_done}"
        );
    }
}

#[test]
fn simultaneous_senders_share_fairly_under_streamlined() {
    // With identical flows and the fast local loop, per-flow completions
    // should cluster: max/min below 2x.
    let sc = small(Scheme::ProxyStreamlined, true, 15_000_000);
    let (mut sim, handles, _) = sc.build(6).expect("builds");
    sim.run(Some(sc.deadline()));
    let m = sim.metrics();
    let times: Vec<f64> = handles[0]
        .watch_flows
        .iter()
        .map(|&f| m.completion(f).expect("completes").0 as f64)
        .collect();
    let max = times.iter().cloned().fold(0.0, f64::max);
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(max / min < 2.0, "unfair completions: min={min} max={max}");
}

#[test]
fn run_respects_time_limit() {
    let sc = Scenario {
        time_limit: SimDuration::from_micros(100),
        ..small(Scheme::Baseline, false, 50_000_000)
    };
    let (sim, report, _) = sc.run(7).expect("builds");
    assert_eq!(report.stop, StopReason::TimeLimit);
    assert!(sim.now() <= sc.deadline());
}

#[test]
fn event_cap_stops_runaway_runs() {
    let sc = small(Scheme::Baseline, false, 50_000_000);
    let (mut sim, _, _) = sc.build(8).expect("builds");
    sim.set_event_cap(10_000);
    let report = sim.run(None);
    assert_eq!(report.stop, StopReason::EventCap);
    assert_eq!(report.events, 10_000);
}
