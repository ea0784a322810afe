//! Mixture-of-Experts dispatch across datacenters (§2's motivating ML
//! workload) with pattern-aware rerouting (§6).
//!
//! An MoE training job shards experts across two datacenters. Every
//! synchronization step, the gating function dispatches token batches
//! from all local workers to each remote expert — many concurrent
//! inter-datacenter incasts, repeating with the step period.
//!
//! The cloud operator does not see the application; it sees per-
//! destination traffic counters. This example:
//!
//! 1. replays several training steps and feeds the observed byte counts
//!    into the periodicity detector,
//! 2. shows the detector recovering the step period and predicting the
//!    next dispatch,
//! 3. simulates one dispatch step with and without the pre-armed proxy
//!    reroute and reports the speedup.
//!
//! Run with: `cargo run --release --example moe_training`

use dcsim::prelude::*;
use incast_core::detect::{IncastSignatureDetector, PeriodicityDetector, SignatureConfig};
use incast_core::scenario::{Fabric, Scenario};
use incast_core::Scheme;
use trace::table::fmt_secs;

/// One expert's dispatch: every local worker sends its token batch.
const WORKERS: usize = 16;
const BATCH_BYTES: u64 = 4_000_000; // 4 MB of routed tokens per worker
const STEP_PERIOD_BINS: usize = 12; // training step = 12 observation bins

fn simulate_dispatch(scheme: Scheme, seed: u64) -> f64 {
    let trim = scheme == Scheme::ProxyStreamlined;
    let fabric = Fabric::TwoDc(TwoDcParams::default().with_trim(trim));
    // Workers (the first WORKERS hosts of DC 0) dispatch to expert host
    // dc1[0]; the operator repurposes an idle container on dc0's last host
    // as the proxy.
    let spec = fabric.placement(WORKERS, WORKERS as u64 * BATCH_BYTES);
    let sc = Scenario {
        time_limit: SimDuration::from_secs(120),
        ..Scenario::incast(fabric, scheme, spec)
    };
    let (_, _, icts) = sc.run(seed).expect("dispatch builds");
    icts[0].expect("dispatch completes").as_secs_f64()
}

fn main() {
    println!("== Phase 1: the operator watches traffic ==\n");

    // Replay 6 training steps of per-bin byte counts toward the expert.
    let mut periodicity = PeriodicityDetector::new(STEP_PERIOD_BINS * 6);
    let mut signature = IncastSignatureDetector::new(SignatureConfig {
        min_degree: 8,
        min_bytes: 32_000_000,
    });
    let expert = HostId(64); // first host of DC 1 in the default topology
    for bin in 0..STEP_PERIOD_BINS * 6 {
        let dispatching = bin % STEP_PERIOD_BINS == 0;
        let mut bin_bytes = 0u64;
        if dispatching {
            for w in 0..WORKERS {
                signature.record(HostId(w as u32), expert, BATCH_BYTES);
                bin_bytes += BATCH_BYTES;
            }
        } else {
            bin_bytes += 50_000; // background chatter
        }
        let incasts = signature.end_bin();
        if dispatching {
            assert_eq!(incasts.len(), 1, "dispatch bins show the incast signature");
        }
        periodicity.push(bin_bytes);
    }

    let period = periodicity
        .dominant_period(0.5)
        .expect("training steps are periodic");
    println!(
        "detected incast signature: degree {WORKERS}, {} per step",
        trace::table::fmt_bytes(WORKERS as u64 * BATCH_BYTES)
    );
    println!(
        "detected period: {} bins (confidence {:.2})",
        period.period_bins, period.confidence
    );
    println!(
        "next dispatch predicted in {} bins -> pre-arm the proxy route\n",
        periodicity.next_burst_in(&period, 5)
    );

    println!("== Phase 2: one dispatch step, rerouted vs direct ==\n");
    let direct = simulate_dispatch(Scheme::Baseline, 7);
    let proxied = simulate_dispatch(Scheme::ProxyStreamlined, 7);
    println!("direct dispatch completion:   {}", fmt_secs(direct));
    println!("proxied dispatch completion:  {}", fmt_secs(proxied));
    println!(
        "speedup: {:.1}x ({:.1}% reduction)",
        direct / proxied,
        (direct - proxied) / direct * 100.0
    );
    assert!(proxied < direct, "the proxy must win at this scale");
}
