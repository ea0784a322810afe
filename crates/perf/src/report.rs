//! What a workload run returns and how it is printed.
//!
//! The human-readable table goes first (every metric by name with its
//! unit, the median, quartiles and count of the slices behind it, every
//! correctness check); the last line of standard output is the one JSON object the
//! driver reads.

use crate::json;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::Stat;
use std::collections::BTreeMap;

/// One correctness check. A failed check fails the run.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted / failed (unresolved datagrams, flows not
    /// completed, refused grants). A failed check also counts as one
    /// failed operation, so `failed == 0` means everything held.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// End-to-end metric name → value (every one, every workload).
    pub e2e: BTreeMap<&'static str, Stat>,
    /// Per-layer metrics this run measured; the rest read 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Facts printed beside the numbers (socket layer, window, loopback,
    /// `driver_bound`, sample counts behind a tail percentile, ...).
    pub notes: Vec<String>,
    /// Traced runs: one line per span name (count, total ms, self ms).
    pub span_table: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check { name, ok, detail });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    pub fn set_layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|l| l.name == name),
            "{name} is not in spec::PER_LAYER"
        );
        self.layers.insert(name, value);
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Prints the table a person reads.
pub fn print_human(workload: &str, seed: u64, traced: bool, out: &Outcome) {
    println!(
        "== {workload}  seed {seed}  {}",
        if traced {
            "traced run (per-layer)"
        } else {
            "untraced run (end-to-end)"
        }
    );
    for note in &out.notes {
        println!("   {note}");
    }
    if traced {
        for l in PER_LAYER {
            let v = out.layers.get(l.name).copied().unwrap_or(0.0);
            println!("   {:<44} {:>16.4} {:<6}", l.name, v, l.unit);
        }
    } else {
        for m in END_TO_END {
            match out.e2e.get(m.name) {
                Some(s) => println!(
                    "   {:<16} {:>16.4} {:<4} ({} slices: median {:.4}, q1 {:.4}, q3 {:.4})",
                    m.name, s.value, m.unit, s.n, s.median, s.q1, s.q3
                ),
                None => println!("   {:<16} {:>16} {:<4}", m.name, "unmeasured", m.unit),
            }
        }
    }
    if !out.span_table.is_empty() {
        println!(
            "   {:<44} {:>9} {:>14} {:>14}",
            "span", "count", "total_ms", "self_ms"
        );
        for line in &out.span_table {
            println!("   {line}");
        }
    }
    println!(
        "   failed_ops_share {:.6} ({} of {})",
        out.failed_share(),
        out.failed,
        out.attempted
    );
    for c in &out.checks {
        println!(
            "   check {:<34} {}  {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
}

/// The driver's result line: `correct`, `attempted`, `failed`, `metrics`.
///
/// # Panics
/// Panics if an end-to-end metric is missing from an untraced outcome —
/// every workload must report all of them.
pub fn contract_line(traced: bool, out: &Outcome) -> String {
    let metrics: Vec<String> = if traced {
        PER_LAYER
            .iter()
            .map(|l| {
                let v = out.layers.get(l.name).copied().unwrap_or(0.0);
                metric_json(l.name, v, l.unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let s = out
                    .e2e
                    .get(m.name)
                    .unwrap_or_else(|| panic!("workload did not report {}", m.name));
                metric_json(m.name, s.value, m.unit)
            })
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}}}",
        json::quote(name),
        json::number(value),
        json::quote(unit)
    )
}
