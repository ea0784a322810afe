//! Regression test for the sweep runner's determinism contract: a grid
//! of simulations executed in parallel must produce results that are
//! *byte-identical* to a serial walk of the same grid — same seeds, same
//! order, same floating-point values. This is what lets `figures`
//! default to all cores without anyone re-validating outputs.

use bench::figures::{Axis, Extra, Grid, Relative, Study, PAPER_SCHEMES};
use bench::{sweep_experiments, RunOptions, SweepRunner};
use incast_core::{ExperimentConfig, IncastOutcome, Scheme};
use trace::json::Json;

/// One small, fast cell on the test topology.
fn cell(degree: u64, scheme: Scheme, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        topo: dcsim::topology::TwoDcParams::small_test(),
        scheme,
        degree: degree as usize,
        total_bytes: 2_000_000,
        seed,
        ..Default::default()
    }
}

/// Small, fast grid covering every scheme and two degrees — enough cells
/// (6) to exercise real thread interleaving without taking CI minutes.
fn grid() -> Vec<ExperimentConfig> {
    let mut configs = Vec::new();
    for degree in [2, 3] {
        for scheme in Scheme::ALL {
            configs.push(cell(degree, scheme, 7));
        }
    }
    configs
}

/// The same grid as a study, with every optional column switched on.
static SMALL_STUDY: Grid<u64, Scheme> = Grid {
    min_max: true,
    relative: Some(Relative::Reduction),
    extras: &[Extra::RtosPerRun, Extra::ExpressSaved],
    paper_average: Some("n/a"),
    note: &["closing note"],
    ..Grid::new(
        "small_study",
        (
            "Small study",
            "the test topology through the figures driver",
        ),
        Axis {
            header: "degree",
            key: "degree",
            quick: &[2],
            full: &[2, 3],
            label: |degree| degree.to_string(),
            json: Json::u64,
        },
        PAPER_SCHEMES,
        cell,
    )
};

/// Exact textual fingerprint of an outcome. Floats are rendered through
/// `to_bits`, so the comparison is bit-level, not approximate.
fn fingerprint(outcomes: &[(trace::Summary, Vec<IncastOutcome>)]) -> String {
    let mut out = String::new();
    for (summary, runs) in outcomes {
        out.push_str(&format!(
            "summary {:x} {:x} {:x}\n",
            summary.mean.to_bits(),
            summary.min.to_bits(),
            summary.max.to_bits(),
        ));
        for o in runs {
            out.push_str(&format!(
                "run {:x} {} {} {} {} {} {} {} {} {} {:x} {}\n",
                o.completion_secs.to_bits(),
                o.counters.proxy_nacks,
                o.counters.receiver_nacks,
                o.counters.rto_fires,
                o.counters.retransmits,
                o.counters.window_decreases,
                o.counters.failover_activations,
                o.counters.failbacks,
                o.counters.proxy_probes,
                o.counters.packets_lost_to_fault,
                o.failover_latency_max_secs.to_bits(),
                o.events,
            ));
        }
    }
    out
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let configs = grid();
    let runs = 2;
    let serial = fingerprint(&sweep_experiments(&SweepRunner::serial(), &configs, runs));
    for jobs in [2, 4, 16] {
        let parallel = fingerprint(&sweep_experiments(&SweepRunner::new(jobs), &configs, runs));
        assert_eq!(
            serial, parallel,
            "parallel sweep with {jobs} jobs diverged from the serial reference"
        );
    }
}

#[test]
fn parallel_sweep_matches_core_run_repeated() {
    // The parallel helper must be a drop-in for incast_core::run_repeated
    // applied per config: same seed derivation, same ordering.
    let configs = grid();
    let reference: Vec<_> = configs
        .iter()
        .map(|c| incast_core::run_repeated(c, 2))
        .collect();
    let swept = sweep_experiments(&SweepRunner::new(4), &configs, 2);
    assert_eq!(fingerprint(&reference), fingerprint(&swept));
}

#[test]
fn rendered_study_is_byte_identical_at_any_job_count() {
    let opts = |jobs| RunOptions {
        runs: 2,
        quick: false,
        seed: 7,
        jobs,
    };
    let serial = SMALL_STUDY.render(&opts(1));
    let json_rows = serial.lines().filter(|l| l.starts_with("JSON {")).count();
    assert_eq!(json_rows, 6, "one JSON row per cell:\n{serial}");
    assert!(serial.ends_with("closing note\n"), "{serial}");
    for jobs in [2, 4, 16] {
        assert_eq!(
            SMALL_STUDY.render(&opts(jobs)),
            serial,
            "study rendered with {jobs} jobs diverged from the serial reference"
        );
    }
}
