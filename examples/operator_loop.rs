//! The cloud operator's control loop (§6), end to end.
//!
//! A tenant's application fires periodic cross-datacenter incasts the
//! operator knows nothing about. Epoch by epoch, the operator:
//!
//! 1. watches per-destination traffic counters ([`OperatorRuntime::observe`]),
//! 2. detects the many-to-one signature and, when the benefit model says
//!    the incast qualifies, allocates a proxy and installs a reroute,
//! 3. learns the workload's period and keeps the reroute pre-armed
//!    between bursts,
//! 4. releases the proxy when the workload stops.
//!
//! The effect of each decision is validated in the simulator: bursts that
//! ran direct vs bursts that ran through the operator's chosen proxy.
//!
//! Run with: `cargo run --release --example operator_loop`

use dcsim::prelude::*;
use incast_core::detect::SignatureConfig;
use incast_core::orchestrator::{ShardedConfig, ShardedOrchestrator};
use incast_core::runtime::{OperatorRuntime, RuntimeAction};
use incast_core::scenario::{Fabric, Scenario};
use incast_core::{IncastSpec, Scheme};
use trace::table::fmt_secs;

const DEGREE: usize = 8;
const BURST_BYTES: u64 = 100_000_000;
const PERIOD_EPOCHS: u64 = 5;

fn simulate_burst(proxy: Option<HostId>, seed: u64) -> f64 {
    let scheme = if proxy.is_some() {
        Scheme::ProxyStreamlined
    } else {
        Scheme::Baseline
    };
    let fabric = Fabric::TwoDc(TwoDcParams::default().with_trim(proxy.is_some()));
    let (dc0, dc1) = (fabric.hosts_in_dc(0), fabric.hosts_in_dc(1));
    let spec = IncastSpec {
        proxy,
        ..IncastSpec::new(dc0[..DEGREE].to_vec(), dc1[0], BURST_BYTES)
    };
    let sc = Scenario::incast(fabric, scheme, spec);
    let (_, _, icts) = sc.run(seed).expect("burst builds");
    icts[0].expect("burst completes").as_secs_f64()
}

fn main() {
    let topo = two_dc_leaf_spine(&TwoDcParams::default());
    let dc0 = topo.hosts_in_dc(0);
    let dc1 = topo.hosts_in_dc(1);
    let expert = dc1[0];

    // A global orchestrator — the lease plane with one shard — owns the
    // idle DC-0 hosts.
    let global = ShardedConfig {
        shards: 1,
        ..ShardedConfig::default()
    };
    let mut operator = OperatorRuntime::new(
        SignatureConfig {
            min_degree: 4,
            min_bytes: 50_000_000,
        },
        topo,
        ShardedOrchestrator::new(dc0[DEGREE..].to_vec(), global, 0),
    );

    println!("epoch | traffic        | operator action             | burst completion");
    println!("------+----------------+-----------------------------+-----------------");
    let mut burst_no = 0u64;
    for epoch in 0..26u64 {
        let bursting = epoch % PERIOD_EPOCHS == 0 && epoch < 20;
        if bursting {
            for &w in &dc0[..DEGREE] {
                operator.observe(w, expert, BURST_BYTES / DEGREE as u64);
            }
        }
        // What route does this burst take? Whatever the operator installed
        // so far (the reroute applies from the epoch after detection).
        let route = operator.reroute_of(expert);
        let completion = if bursting {
            burst_no += 1;
            Some(simulate_burst(route, burst_no))
        } else {
            None
        };
        let actions = operator.end_epoch();
        let action_str = match actions.first() {
            Some(RuntimeAction::Reroute {
                proxy,
                estimated_reduction,
                ..
            }) => {
                format!("reroute via {proxy} (-{:.0}%)", estimated_reduction * 100.0)
            }
            Some(RuntimeAction::PreArm { epochs, .. }) => {
                format!("pre-armed (next in {epochs})")
            }
            Some(RuntimeAction::Release { .. }) => "released proxy".to_string(),
            None => String::new(),
        };
        println!(
            "{epoch:5} | {:14} | {action_str:27} | {}",
            if bursting {
                format!(
                    "burst #{burst_no} ({})",
                    trace::table::fmt_bytes(BURST_BYTES)
                )
            } else {
                "quiet".to_string()
            },
            completion.map(fmt_secs).unwrap_or_default(),
        );
    }
    println!();
    println!("the first bursts ran direct: each reroute was installed after the");
    println!("burst that triggered it and torn down during the quiet epochs that");
    println!("followed. Once enough history accumulated for the periodicity");
    println!("detector, the pre-arm actions kept the reroute alive between");
    println!("bursts and burst #4 rode the proxy (~12x faster). After the");
    println!("workload stopped, the predicted burst never came and the proxy");
    println!("was released.");
}
