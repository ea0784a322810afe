//! `incast-perf` — the repo's benchmark (see `BENCHMARK.json` and this
//! crate's `README.md`).
//!
//! Six workloads over the three products: the UDP relay (`netproxy`), the
//! packet simulator (`dcsim` + `incast-core` schemes) and the sharded lease
//! control plane (`incast-core::orchestrator`). Every workload checks its
//! own outputs, reports the same five end-to-end metrics, and — in a
//! separate traced run — per-layer numbers measured from outside the
//! products: probe loops over public functions, public stats accessors,
//! and spans around every call the harness makes into a layer.
//!
//! This crate defines the measurement; it claims no gain and changes no
//! product code.

pub mod cli;
pub mod clock;
pub mod ctrl;
pub mod json;
pub mod probes;
pub mod relay;
pub mod report;
pub mod sim;
pub mod span;
pub mod spec;
pub mod stats;
pub mod sys;

/// What one workload run was asked to do (the driver's arguments).
#[derive(Debug, Clone, Copy)]
pub struct RunPlan {
    /// Every input — flow ids, trim pattern, simulator seeds, victim
    /// hosts — derives from this; the programs under test see only the
    /// generated inputs.
    pub seed: u64,
    /// Length of the measured section.
    pub seconds: f64,
    /// Tiny sizes, every check on (tests and `smoke.sh`).
    pub smoke: bool,
    /// The separate traced run: spans, probes, per-layer metrics.
    pub traced: bool,
}

impl RunPlan {
    /// Set-ups per run. `setup_s` is their median, and they are spread
    /// over the measured section so that one disturbed second of the host
    /// cannot sit under all of them.
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            15
        }
    }

    /// Whether set-up number `done` (0-based) is due `elapsed` seconds
    /// into a measured section of `budget` seconds.
    pub fn setup_due(&self, done: usize, elapsed: f64, budget: f64) -> bool {
        done < self.setups() && elapsed >= done as f64 * budget / self.setups() as f64
    }
}
