//! Targeted crash-timing edge cases for the Streamlined proxy, run under
//! the strict invariant auditor with the liveness watchdog armed.
//!
//! The chaos fuzzer explores these transitions randomly; these tests pin
//! the nastiest timings deterministically:
//!
//! * the proxy is dead **during the first flight** (it crashes at the
//!   exact incast start, so every sender's initial window arrives at a
//!   black hole),
//! * the proxy crashes **while its early NACKs are in flight** back to
//!   the senders (trims happened, NACKs left the proxy, then it died —
//!   the senders act on feedback from a proxy that no longer exists), and
//! * the proxy dies **for good** under rate-based senders, which only
//!   failover to the direct path can save.
//!
//! In every case the incast must still complete (the paper's §3 argument:
//! the proxy holds no hard state, so end-to-end retransmission plus
//! restore recovers everything) and the strict auditor must stay silent —
//! any leaked packet, broken queue accounting, or wedged flow panics.

use dcsim::prelude::*;
use incast_core::scheme::{IncastHandle, IncastKnobs, Transport};
use incast_core::{ExperimentConfig, Scheme};

fn config(total_bytes: u64, degree: usize) -> ExperimentConfig {
    ExperimentConfig {
        scheme: Scheme::ProxyStreamlined,
        degree,
        total_bytes,
        topo: TwoDcParams::small_test().with_wan_latency(SimDuration::from_micros(200)),
        knobs: IncastKnobs {
            failover: true,
            ..Default::default()
        },
        audit: Some(
            AuditConfig::strict()
                .every(Some(10_000))
                .with_liveness(SimDuration::from_secs(8)),
        ),
        ..Default::default()
    }
}

fn run_to_completion(sim: &mut Simulator, handle: &IncastHandle) -> RunReport {
    let report = sim.run(Some(SimTime::ZERO + SimDuration::from_secs(120)));
    assert_eq!(report.stop, StopReason::Idle, "must drain: {report:?}");
    assert_eq!(report.terminated_reason(), TerminatedReason::Completed);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(
        handle.completion(sim.metrics()).is_some(),
        "incast must complete despite the crash"
    );
    report
}

#[test]
fn proxy_crash_during_first_flight_recovers_clean() {
    let config = config(400_000, 4);
    let (mut sim, _, handle) = config.build(7);
    let proxy = handle.proxy_agent.expect("streamlined exposes its proxy");
    // Down at the exact start: every sender's initial window arrives at a
    // crashed proxy and is destroyed. Restore half a millisecond later.
    let plan = FaultPlan::new().crash_agent_window(
        proxy,
        handle.start,
        handle.start + SimDuration::from_micros(500),
    );
    sim.install_faults(&plan).expect("valid plan");
    run_to_completion(&mut sim, &handle);
    let lost = sim.metrics().counter(Counter::PacketsLostToFault);
    assert!(lost > 0, "the first flight must have hit the dead proxy");
    // Conservation, belt and braces on top of the auditor: every packet
    // ever created reached a terminal disposition.
    let ledger = sim.ledger();
    assert_eq!(ledger.created, ledger.terminal(), "{ledger:?}");
}

#[test]
fn proxy_crash_with_nacks_in_flight_recovers_clean() {
    // Overload the proxy's downlink so the first flight trims and the
    // proxy emits early NACKs immediately, then kill it while those NACKs
    // are still flying back to the senders.
    let mut config = config(1_200_000, 6);
    config.topo.dc_queue.capacity_bytes = 30_000;
    let (mut sim, _, handle) = config.build(11);
    let proxy = handle.proxy_agent.expect("streamlined exposes its proxy");
    let crash_at = handle.start + SimDuration::from_micros(30);
    let plan = FaultPlan::new().crash_agent_window(
        proxy,
        crash_at,
        crash_at + SimDuration::from_micros(500),
    );
    sim.install_faults(&plan).expect("valid plan");
    // The proxy must already have NACKed before the crash for the test to
    // exercise the intended interleaving.
    sim.run(Some(crash_at));
    assert!(
        sim.metrics().counter(Counter::ProxyNacks) > 0,
        "first flight must trim and NACK before the crash ({} queued bytes)",
        config.topo.dc_queue.capacity_bytes,
    );
    run_to_completion(&mut sim, &handle);
    let ledger = sim.ledger();
    assert_eq!(ledger.created, ledger.terminal(), "{ledger:?}");
    assert!(ledger.trimmed > 0, "trimming was the point: {ledger:?}");
}

#[test]
fn rate_senders_fail_over_when_the_proxy_never_returns() {
    // Failover belongs to the sender shell, not to the window: paced
    // senders must leave a dead proxy for the direct path too.
    let mut config = config(400_000, 4);
    config.knobs.transport = Transport::RateBased;
    let (mut sim, _, handle) = config.build(7);
    let proxy = handle.proxy_agent.expect("streamlined exposes its proxy");
    let plan = FaultPlan::new().crash_agent(proxy, handle.start);
    sim.install_faults(&plan).expect("valid plan");
    run_to_completion(&mut sim, &handle);
    assert!(
        sim.metrics().counter(Counter::FailoverActivations) > 0,
        "only failover can finish an incast whose proxy never returns"
    );
    let ledger = sim.ledger();
    assert_eq!(ledger.created, ledger.terminal(), "{ledger:?}");
}
