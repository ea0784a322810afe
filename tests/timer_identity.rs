//! Regression tests for the cancelable-timer-slot rework.
//!
//! The conversion from epoch-invalidated timers to indexed cancel /
//! reschedule-in-place must be *semantically invisible*: only the latest
//! armed deadline ever fired before, so flow-completion times and queue
//! traces have to come out bit-identical — the only observable change is
//! fewer events processed (no stale pops) and a smaller heap. The golden
//! values below were captured from the epoch-based implementation
//! immediately before the conversion; any drift is a correctness bug, not
//! noise.
//!
//! The lazy-`TxDone` change (a port schedules its transmit-complete event
//! only when a packet is waiting for it) is pinned the same way against the
//! commit before it: every row carries that commit's `events_processed`,
//! and `events + tx_churn.elided()` must equal it exactly — the events that
//! went are the no-op `TxDone`s and nothing else moved.
//!
//! Delay-class lanes (links of equal delay share one event-queue FIFO)
//! change only what scheduling costs, so they must leave every row above
//! untouched; three more rows pin the topologies and the fidelity mode the
//! rows above do not reach against the commit before them, event counts
//! included.

use dcsim::prelude::*;
use dcsim::topology::{two_dc_unstructured, UnstructuredParams};
use incast_core::scheme::Transport;
use incast_core::{install_incast, ExperimentConfig, IncastHandle, IncastSpec, Scheme};

/// Per-flow completion times, an FNV-1a hash of the receiver down-ToR
/// occupancy trace, the events processed and the `TxDone`s elided for one
/// small-config run.
fn run_traced(config: &ExperimentConfig, seed: u64) -> (Vec<u64>, u64, u64, u64) {
    let params = config
        .topo
        .with_trim(config.trim.enabled_for(config.scheme));
    let topo = two_dc_leaf_spine(&params);
    let mut sim = Simulator::new(topo, seed);
    let spec = config.placement(sim.topology());
    let port = sim.topology().down_tor_port(spec.receiver);
    sim.trace_port(port);
    let handle = install_incast(&mut sim, &spec, config.scheme);
    let (fcts, h, events) = harvest(&mut sim, &handle, port, spec.start + config.time_limit);
    let churn = sim.metrics().timer_churn;
    assert_eq!(
        churn.discarded_stale, 0,
        "no timer event may pop dead after the rework"
    );
    assert!(churn.rescheduled > 0, "senders must move RTOs in place");
    assert!(
        churn.fired <= churn.armed,
        "every firing timer was once armed: {churn:?}"
    );
    assert_eq!(
        churn.armed,
        churn.fired + churn.canceled,
        "armed timers either fire or are canceled by idle: {churn:?}"
    );
    (fcts, h, events, sim.metrics().tx_churn.elided())
}

/// Runs an installed incast to `limit`: per-flow completion times, an
/// FNV-1a hash of `port`'s occupancy trace (the caller called `trace_port`),
/// events processed.
fn harvest(
    sim: &mut Simulator,
    handle: &IncastHandle,
    port: PortId,
    limit: SimTime,
) -> (Vec<u64>, u64, u64) {
    let report = sim.run(Some(limit));
    assert!(report.stop != StopReason::EventCap, "event cap");
    let fcts: Vec<u64> = handle
        .watch_flows
        .iter()
        .map(|f| sim.metrics().completion(*f).expect("flow completed").0)
        .collect();
    let mut h: u64 = 0xcbf29ce484222325;
    for &(t, b) in sim.port_trace(port) {
        for v in [t.0, b] {
            h ^= v;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    (fcts, h, sim.metrics().events_processed)
}

fn windowed_config(scheme: Scheme) -> ExperimentConfig {
    ExperimentConfig {
        topo: TwoDcParams::small_test(),
        scheme,
        degree: 3,
        total_bytes: 2_000_000,
        seed: 42,
        ..Default::default()
    }
}

fn rate_config(scheme: Scheme) -> ExperimentConfig {
    let mut config = windowed_config(scheme);
    config.knobs.transport = Transport::RateBased;
    config
}

/// One row pinned against the last eager-`TxDone` commit: (config, expected
/// FCTs, expected trace hash, events that commit processed). FCTs and hashes
/// must match exactly, and the event count must differ by exactly the
/// `TxDone`s elided. Returns the events processed.
fn check_against_eager_tx_done(
    config: &ExperimentConfig,
    want_fcts: &[u64],
    want_hash: u64,
    eager_tx_done_events: u64,
) -> u64 {
    let (fcts, hash, events, elided) = run_traced(config, 42);
    assert_eq!(fcts, want_fcts, "FCT drift under {:?}", config.scheme);
    assert_eq!(
        hash, want_hash,
        "queue-trace drift under {:?}",
        config.scheme
    );
    assert_eq!(
        events + elided,
        eager_tx_done_events,
        "{:?}: {events} events + {elided} elided TxDones must be exactly \
         what the eager-TxDone engine processed",
        config.scheme
    );
    events
}

/// One golden row: the eager-`TxDone` pin above plus the events processed
/// by the *epoch-based* implementation, which the event count must come in
/// strictly below.
fn check(
    config: &ExperimentConfig,
    want_fcts: &[u64],
    want_hash: u64,
    old_events: u64,
    eager_tx_done_events: u64,
) {
    let events = check_against_eager_tx_done(config, want_fcts, want_hash, eager_tx_done_events);
    assert!(
        events < old_events,
        "{:?}: {events} events, expected strictly fewer than the \
         epoch-based implementation's {old_events}",
        config.scheme
    );
}

#[test]
fn windowed_schemes_are_bit_identical_to_pre_rework_goldens() {
    check(
        &windowed_config(Scheme::Baseline),
        &[372_000_000, 371_880_000, 371_640_000],
        0x5366c312027f8b01,
        34_878,
        33_483,
    );
    check(
        &windowed_config(Scheme::ProxyNaive),
        &[383_622_400, 379_662_400, 383_262_400],
        0x0e452dd942163a81,
        59_988,
        55_806,
    );
    check(
        &windowed_config(Scheme::ProxyStreamlined),
        &[376_660_000, 376_780_000, 376_900_000],
        0x5b3b8dfb27605a01,
        59_988,
        58_593,
    );
    check(
        &windowed_config(Scheme::ProxyDetecting),
        &[377_831_200, 378_071_200, 378_191_200],
        0x6f81574b5c042fe5,
        67_017,
        65_482,
    );
}

#[test]
fn rate_based_schemes_are_bit_identical_to_pre_rework_goldens() {
    check(
        &rate_config(Scheme::Baseline),
        &[483_120_000, 483_360_000, 483_240_000],
        0xe4d396e545e6e901,
        39_054,
        34_875,
    );
    check(
        &rate_config(Scheme::ProxyStreamlined),
        &[488_020_000, 488_140_000, 488_260_000],
        0x11a2e4f818244e01,
        64_164,
        59_985,
    );
}

/// The two rate-based rows the epoch-era goldens never covered, so both
/// transports × all four schemes are pinned against the eager-`TxDone`
/// engine (values captured from the commit before the lazy-`TxDone` change).
#[test]
fn remaining_rate_based_schemes_match_the_eager_tx_done_engine() {
    check_against_eager_tx_done(
        &rate_config(Scheme::ProxyNaive),
        &[395_986_803, 364_395_517, 397_321_425],
        0x371a6ccd7d4f9cd1,
        57_201,
    );
    check_against_eager_tx_done(
        &rate_config(Scheme::ProxyDetecting),
        &[488_020_000, 488_140_000, 488_260_000],
        0x11a2e4f818244e01,
        59_991,
    );
}

/// Two identical configs must produce identical runs — the timer-slot
/// machinery (slab reuse, generation tags) introduces no hidden state.
#[test]
fn timer_slots_preserve_determinism() {
    let a = run_traced(&windowed_config(Scheme::ProxyStreamlined), 42);
    let b = run_traced(&windowed_config(Scheme::ProxyStreamlined), 42);
    assert_eq!(a, b);
}

/// Traces the receiver's down-ToR port and runs the incast `config` built.
fn run_built(config: &ExperimentConfig) -> (Vec<u64>, u64, u64) {
    let (mut sim, spec, handle) = config.build(42);
    let port = sim.topology().down_tor_port(spec.receiver);
    sim.trace_port(port);
    harvest(&mut sim, &handle, port, spec.start + config.time_limit)
}

/// Delay-class lanes against the per-port-lane engine (values captured from
/// the commit before them), where the rows above do not reach: a random
/// graph, a leaf–spine whose every leaf↔spine link has a latency — hence a
/// class — of its own, and hybrid fidelity, whose express reservations
/// unsort a class lane and send the offer on to the port's. Events processed
/// must be equal too: nothing is elided, only scheduled differently.
#[test]
fn delay_class_lanes_match_the_per_port_lane_engine() {
    let mut params = UnstructuredParams {
        switches_per_dc: 6,
        extra_links_per_dc: 6,
        hosts_per_dc: 8,
        gateways: 2,
        seed: 5,
        ..Default::default()
    };
    params.dc_queue.trim = true;
    let mut sim = Simulator::new(two_dc_unstructured(&params), 42);
    let (dc0, dc1) = (sim.topology().hosts_in_dc(0), sim.topology().hosts_in_dc(1));
    let spec = IncastSpec::new(dc0[..3].to_vec(), dc1[0], 2_000_000).with_proxy(dc0[7]);
    let port = sim.topology().down_tor_port(spec.receiver);
    sim.trace_port(port);
    let handle = install_incast(&mut sim, &spec, Scheme::ProxyStreamlined);
    let limit = spec.start + SimDuration::from_secs(60);
    assert_eq!(
        harvest(&mut sim, &handle, port, limit),
        (
            vec![1_175_540_000, 1_173_260_000, 1_175_660_000],
            0x8821295eea99d681,
            37_496
        ),
        "two_dc_unstructured"
    );

    let jittered = ExperimentConfig {
        topo: TwoDcParams::small_test().with_path_jitter(0.5, 9),
        ..windowed_config(Scheme::ProxyStreamlined)
    };
    assert_eq!(
        run_built(&jittered),
        (
            vec![377_543_471, 377_663_471, 377_423_471],
            0xc7e82c484ef69d4f,
            41_125
        ),
        "jittered"
    );

    let hybrid = ExperimentConfig {
        fidelity: true,
        ..windowed_config(Scheme::ProxyStreamlined)
    };
    assert_eq!(
        run_built(&hybrid),
        (
            vec![376_780_000, 376_900_000, 376_660_000],
            0x5b3b8dfb27605a01,
            26_327
        ),
        "hybrid"
    );
}
