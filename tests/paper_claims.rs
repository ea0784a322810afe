//! Integration tests pinning the paper's qualitative claims at reduced
//! scale — the assertions EXPERIMENTS.md relies on, kept green by CI.
//!
//! Each test mirrors one sentence of §3/§4 and fails if the corresponding
//! mechanism stops producing the claimed direction.

use dcsim::prelude::*;
use incast_core::scenario::{Fabric, Scenario};
use incast_core::Scheme;

/// One small-topology incast: 3 senders, the last DC 0 host as proxy.
fn scenario(scheme: Scheme, bytes: u64, wan: SimDuration, early_nack: bool) -> Scenario {
    let params = TwoDcParams::small_test()
        .with_wan_latency(wan)
        .with_trim(scheme == Scheme::ProxyStreamlined);
    let fabric = Fabric::TwoDc(params);
    let mut spec = fabric.placement(3, bytes);
    spec.knobs.early_nack = early_nack;
    Scenario::incast(fabric, scheme, spec)
}

/// Runs one small-topology incast, returns the ICT in seconds.
fn run(scheme: Scheme, bytes: u64, wan: SimDuration, early_nack: bool, seed: u64) -> f64 {
    let (_, _, icts) = scenario(scheme, bytes, wan, early_nack)
        .run(seed)
        .expect("builds");
    icts[0].expect("incast completes").as_secs_f64()
}

const WAN_1MS: SimDuration = SimDuration(1_000_000_000);

#[test]
fn claim_adding_a_hop_reduces_completion_time() {
    // §1: "Surprisingly, adding this extra hop reduces incast latency!"
    let baseline = run(Scheme::Baseline, 30_000_000, WAN_1MS, true, 1);
    let naive = run(Scheme::ProxyNaive, 30_000_000, WAN_1MS, true, 1);
    let streamlined = run(Scheme::ProxyStreamlined, 30_000_000, WAN_1MS, true, 1);
    assert!(naive < baseline, "naive {naive} !< baseline {baseline}");
    assert!(
        streamlined < baseline,
        "streamlined {streamlined} !< baseline {baseline}"
    );
}

#[test]
fn claim_small_incasts_see_no_benefit() {
    // §4.2: the under-BDP incast "starts with a reasonable collective
    // sending rate, sees no packet loss ... all three schemes are on par".
    let bytes = 1_000_000;
    let baseline = run(Scheme::Baseline, bytes, WAN_1MS, true, 2);
    let naive = run(Scheme::ProxyNaive, bytes, WAN_1MS, true, 2);
    let streamlined = run(Scheme::ProxyStreamlined, bytes, WAN_1MS, true, 2);
    for (name, t) in [("naive", naive), ("streamlined", streamlined)] {
        let ratio = t / baseline;
        assert!(
            (0.6..=1.6).contains(&ratio),
            "{name} should be on par with baseline: {t} vs {baseline}"
        );
    }
}

#[test]
fn claim_benefit_grows_with_latency_gap() {
    // §4.2 / Figure 3: "The incast latency savings are more pronounced
    // with larger link latencies."
    let mut reductions = Vec::new();
    for wan_us in [100u64, 1_000, 10_000] {
        let wan = SimDuration::from_micros(wan_us);
        let baseline = run(Scheme::Baseline, 30_000_000, wan, true, 3);
        let naive = run(Scheme::ProxyNaive, 30_000_000, wan, true, 3);
        reductions.push((baseline - naive) / baseline);
    }
    assert!(
        reductions[0] < reductions[2],
        "savings must grow with latency: {reductions:?}"
    );
}

#[test]
fn claim_no_benefit_when_datacenters_are_adjacent() {
    // Figure 3's left edge: with a 1 µs "long-haul" link there is no gap
    // to exploit; the proxy must not win meaningfully.
    let wan = SimDuration::from_micros(1);
    let baseline = run(Scheme::Baseline, 30_000_000, wan, true, 4);
    let naive = run(Scheme::ProxyNaive, 30_000_000, wan, true, 4);
    assert!(
        naive > baseline * 0.8,
        "no latency gap, no meaningful win: naive {naive} vs baseline {baseline}"
    );
}

#[test]
fn claim_relay_only_proxy_does_not_accelerate() {
    // §3 Insight #2: "a proxy that simply relays packets ... does not
    // accelerate convergence".
    let with_nacks = run(Scheme::ProxyStreamlined, 30_000_000, WAN_1MS, true, 5);
    let relay_only = run(Scheme::ProxyStreamlined, 30_000_000, WAN_1MS, false, 5);
    assert!(
        relay_only > with_nacks * 1.5,
        "early feedback is the mechanism: relay {relay_only} vs nacks {with_nacks}"
    );
}

#[test]
fn claim_feedback_delay_is_what_shrinks() {
    // §3 Insight #1: the proxy moves the congestion point microseconds
    // from the senders. Verify via the loss-signal path: under
    // Streamlined every loss signal is generated in the sending DC.
    let wan = TwoDcParams::small_test().wan_link.latency;
    let sc = scenario(Scheme::ProxyStreamlined, 30_000_000, wan, true);
    let (sim, _, icts) = sc.run(6).expect("builds");
    assert!(icts[0].is_some());
    let m = sim.metrics();
    assert!(m.counter(Counter::ProxyNacks) > 0);
    assert_eq!(m.counter(Counter::ReceiverNacks), 0);
}

#[test]
fn claim_determinism_across_runs() {
    // The §4.1 protocol (5 seeded runs, mean/min/max) requires exact
    // repeatability per seed.
    for scheme in Scheme::ALL {
        let a = run(scheme, 10_000_000, WAN_1MS, true, 42);
        let b = run(scheme, 10_000_000, WAN_1MS, true, 42);
        assert_eq!(a, b, "{scheme} must be deterministic");
    }
}

#[test]
fn claim_different_seeds_vary_but_agree_in_direction() {
    let mut baselines = Vec::new();
    let mut naives = Vec::new();
    for seed in 10..13 {
        baselines.push(run(Scheme::Baseline, 30_000_000, WAN_1MS, true, seed));
        naives.push(run(Scheme::ProxyNaive, 30_000_000, WAN_1MS, true, seed));
    }
    for (b, n) in baselines.iter().zip(&naives) {
        assert!(n < b, "proxy wins on every seed: {n} vs {b}");
    }
}
