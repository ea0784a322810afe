//! Erasure-coded fragment reconstruction across datacenters (§2's storage
//! workload) using the declaration abstraction (§6).
//!
//! A storage cluster keeps erasure-coded fragments spread over servers in
//! DC 0; the reconstruction orchestrator lives in DC 1. When a fragment
//! is lost, the orchestrator reads the surviving k fragments — a classic
//! incast, now crossing the long-haul link.
//!
//! The storage team *declares* the exchange once with [`IncastDecl`];
//! at deployment time the planner decides — from the declared volume and
//! the placement — whether to reroute it through a proxy, and the
//! simulation shows the effect of that decision.
//!
//! Run with: `cargo run --release --example storage_reconstruction`

use dcsim::prelude::*;
use incast_core::declare::{compile, IncastDecl, Routing};
use incast_core::orchestrator::{ShardedConfig, ShardedOrchestrator};
use incast_core::scenario::{Fabric, Scenario};
use incast_core::{IncastSpec, Scheme};
use std::collections::BTreeMap;
use trace::table::{fmt_bytes, fmt_secs};

/// Reed-Solomon (k = 12, m = 4): 12 surviving fragments rebuild one lost
/// fragment of a 768 MB stripe -> 64 MB per fragment read.
const K: usize = 12;
const FRAGMENT_BYTES: u64 = 8_000_000; // scaled stripe: 8 MB per fragment

fn simulate(scheme: Scheme, proxy: Option<HostId>, seed: u64) -> f64 {
    let params = TwoDcParams::default().with_trim(scheme == Scheme::ProxyStreamlined);
    let fabric = Fabric::TwoDc(params);
    let (dc0, dc1) = (fabric.hosts_in_dc(0), fabric.hosts_in_dc(1));
    let spec = IncastSpec {
        proxy,
        ..IncastSpec::new(dc0[..K].to_vec(), dc1[0], K as u64 * FRAGMENT_BYTES)
    };
    let sc = Scenario {
        time_limit: SimDuration::from_secs(120),
        ..Scenario::incast(fabric, scheme, spec)
    };
    let (_, _, icts) = sc.run(seed).expect("reconstruction builds");
    icts[0].expect("reconstruction completes").as_secs_f64()
}

fn main() {
    // --- Declaration time (written by the storage team, once) ---
    let decl = IncastDecl::named("fragment-reconstruction")
        .sources((0..K).map(|i| format!("frag-server-{i}")))
        .sink("reconstructor")
        .expected_bytes(K as u64 * FRAGMENT_BYTES)
        .build()
        .expect("well-formed declaration");

    // --- Deployment time (resolved by the cloud provider) ---
    let topo = two_dc_leaf_spine(&TwoDcParams::default());
    let dc0 = topo.hosts_in_dc(0);
    let dc1 = topo.hosts_in_dc(1);
    let mut placement: BTreeMap<String, HostId> = (0..K)
        .map(|i| (format!("frag-server-{i}"), dc0[i]))
        .collect();
    placement.insert("reconstructor".into(), dc1[0]);
    // Idle capacity in the storage datacenter is the proxy candidate pool
    // of a global orchestrator: the lease plane with one shard.
    let global = ShardedConfig {
        shards: 1,
        ..ShardedConfig::default()
    };
    let mut orchestrator = ShardedOrchestrator::new(dc0[K..].to_vec(), global, 0);

    let plans = compile(&[decl], &placement, &topo, &mut orchestrator).expect("plannable");
    let plan = &plans[0];
    println!(
        "declared: {} x {} -> reconstructor (total {})",
        K,
        fmt_bytes(FRAGMENT_BYTES),
        fmt_bytes(K as u64 * FRAGMENT_BYTES)
    );
    match &plan.routing {
        Routing::ViaProxy(proxy) => {
            println!(
                "planner: cross-DC, predicted reduction {:.0}% -> relay via proxy {proxy}",
                plan.estimated_reduction * 100.0
            );
            // --- Run time: compare what the planner chose against direct. ---
            let direct = simulate(Scheme::Baseline, None, 3);
            let naive = simulate(Scheme::ProxyNaive, Some(*proxy), 3);
            let streamlined = simulate(Scheme::ProxyStreamlined, Some(*proxy), 3);
            println!();
            println!(
                "reconstruction latency, direct:               {}",
                fmt_secs(direct)
            );
            println!(
                "reconstruction latency, proxy (naive):        {}",
                fmt_secs(naive)
            );
            println!(
                "reconstruction latency, proxy (streamlined):  {}",
                fmt_secs(streamlined)
            );
            println!(
                "degraded-read speedup: {:.1}x (naive) / {:.1}x (streamlined)",
                direct / naive,
                direct / streamlined
            );
            assert!(naive < direct && streamlined < direct);
        }
        Routing::Direct => {
            println!(
                "planner: no expected benefit -> direct (increase the stripe to see a reroute)"
            );
        }
    }
}
