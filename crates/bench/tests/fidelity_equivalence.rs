//! Hybrid-fidelity equivalence (ISSUE 7, satellite 3).
//!
//! The express path advances packets through uncontended queues
//! analytically. Cold ports draw no ECN randomness and the virtual
//! horizon reproduces exact FIFO store-and-forward timing, but the
//! *interleaving* of RNG draws across flows shifts once spray decisions
//! collapse into a single walk, so hybrid runs are statistically — not
//! bit — equivalent to full packet fidelity. These tests pin that claim
//! down to a concrete tolerance at small scale, for every scheme, under
//! the strict invariant auditor (ledger conservation across the fidelity
//! boundary included).

use dcsim::prelude::*;
use incast_core::experiment::{run_incast, ExperimentConfig};
use incast_core::Scheme;

/// Maximum relative FCT deviation hybrid fidelity may introduce at small
/// scale. Documented in DESIGN.md §12; tightening it is welcome, loosening
/// it needs a written justification.
const FCT_TOLERANCE: f64 = 0.05;

fn config(scheme: Scheme, degree: usize) -> ExperimentConfig {
    ExperimentConfig {
        topo: TwoDcParams {
            spines_per_dc: 2,
            leaves_per_dc: 4,
            hosts_per_leaf: 5, // 20 hosts/DC: room for degree 16 + proxy
            ..TwoDcParams::small_test()
        },
        scheme,
        degree,
        total_bytes: 4_000_000,
        seed: 21,
        audit: Some(AuditConfig::strict()),
        ..Default::default()
    }
}

#[test]
fn hybrid_fct_matches_full_fidelity_within_tolerance() {
    for scheme in Scheme::ALL {
        for degree in [3, 16] {
            let full = run_incast(&config(scheme, degree), 2);
            let mut hybrid_cfg = config(scheme, degree);
            hybrid_cfg.fidelity = true;
            let hybrid = run_incast(&hybrid_cfg, 2);
            assert!(
                hybrid.express_saved_events > 0,
                "{scheme}/deg{degree}: express path never engaged"
            );
            let rel = (hybrid.completion_secs - full.completion_secs).abs() / full.completion_secs;
            println!(
                "{scheme}/deg{degree}: full={:.6}s hybrid={:.6}s rel={:.4} \
                 events {} -> {} (saved {})",
                full.completion_secs,
                hybrid.completion_secs,
                rel,
                full.events,
                hybrid.events,
                hybrid.express_saved_events
            );
            assert!(
                rel <= FCT_TOLERANCE,
                "{scheme}/deg{degree}: hybrid FCT {:.6}s deviates {:.2}% from \
                 full-fidelity {:.6}s (tolerance {:.0}%)",
                hybrid.completion_secs,
                rel * 100.0,
                full.completion_secs,
                FCT_TOLERANCE * 100.0
            );
        }
    }
}

#[test]
fn hybrid_runs_clean_under_strict_audit_with_faults() {
    // Strict audit panics on any violation; a receiver link flap forces
    // packets to die and ports to flip hot mid-flight, crossing the
    // fidelity boundary with the ledger watching.
    use incast_core::experiment::FaultScenario;
    let mut cfg = config(Scheme::ProxyStreamlined, 6);
    cfg.fidelity = true;
    cfg.faults = FaultScenario::ReceiverLinkFlap {
        after: SimDuration::from_micros(100),
        up_after: SimDuration::from_micros(500),
    };
    let out = run_incast(&cfg, 9);
    assert!(out.completion_secs > 0.0, "{out:?}");
    assert!(out.counters.packets_lost_to_fault > 0, "{out:?}");
}

#[test]
fn hybrid_saves_a_meaningful_event_fraction() {
    // The point of the engine: most events on an uncontended fabric
    // shouldn't exist. At degree 3 the only contended port is the
    // receiver's down-ToR; the express path must elide a large share of
    // the per-hop events.
    let mut cfg = config(Scheme::Baseline, 3);
    cfg.fidelity = true;
    let out = run_incast(&cfg, 4);
    let effective = out.events + out.tx_elided_events + out.express_saved_events;
    let saved_frac = out.express_saved_events as f64 / effective as f64;
    println!(
        "events={} tx_elided={} saved={} ({:.1}% of effective)",
        out.events,
        out.tx_elided_events,
        out.express_saved_events,
        saved_frac * 100.0
    );
    assert!(
        saved_frac > 0.2,
        "express path saved only {:.1}% of effective events",
        saved_frac * 100.0
    );
}
