//! Quickstart: one inter-datacenter incast under all three schemes.
//!
//! Builds the paper's two-datacenter topology, runs a 100 MB degree-8
//! incast under Baseline, Proxy (Naive) and Proxy (Streamlined), and
//! prints the completion times — the paper's headline comparison in
//! one screen of code.
//!
//! Run with: `cargo run --release --example quickstart`

use incast_core::{run_incast, ExperimentConfig, Scheme};
use trace::table::fmt_secs;
use trace::Table;

fn main() {
    let mut table = Table::new(vec![
        "scheme",
        "completion",
        "vs baseline",
        "rtos",
        "retransmits",
    ]);
    let mut baseline_secs = None;

    for scheme in Scheme::ALL {
        let config = ExperimentConfig {
            scheme,
            degree: 8,
            total_bytes: 100_000_000,
            ..Default::default()
        };
        eprintln!("running {scheme} ...");
        let outcome = run_incast(&config, 1);
        let reduction = match baseline_secs {
            None => {
                baseline_secs = Some(outcome.completion_secs);
                "—".to_string()
            }
            Some(base) => format!("-{:.1}%", (base - outcome.completion_secs) / base * 100.0),
        };
        table.row(vec![
            scheme.label().to_string(),
            fmt_secs(outcome.completion_secs),
            reduction,
            outcome.counters.rto_fires.to_string(),
            outcome.counters.retransmits.to_string(),
        ]);
    }

    println!();
    println!("100 MB incast, 8 senders, two datacenters 1 ms apart (§4.1 topology):");
    println!();
    print!("{}", table.render());
    println!();
    println!("The extra proxy hop *shortens* completion time: congestion now");
    println!("builds at the proxy's down-ToR, microseconds from the senders,");
    println!("so their congestion control converges in microsecond rounds");
    println!("instead of millisecond rounds.");
}
