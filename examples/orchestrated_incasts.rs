//! Orchestrating proxy selection across concurrent incasts (§5, FW#3).
//!
//! Two tenant jobs fire 100 MB incasts at the same time from the same
//! datacenter. If both relay through the *same* proxy host, its down-ToR
//! becomes a shared bottleneck and both jobs suffer; an orchestrator
//! placing them on distinct proxies restores the full benefit. This
//! example quantifies that contention and shows both orchestration
//! designs (global — the lease plane with one shard — and decentralized)
//! avoiding it.
//!
//! Run with: `cargo run --release --example orchestrated_incasts`

use dcsim::prelude::*;
use incast_core::orchestrator::{
    DecentralizedSelector, IncastRequest, ProxySelector, ShardedConfig, ShardedOrchestrator,
};
use incast_core::scenario::{Fabric, Incast, Scenario};
use incast_core::{IncastSpec, Scheme};
use trace::table::fmt_secs;
use trace::Table;

const DEGREE: usize = 8;
const BYTES: u64 = 100_000_000;

/// Runs two concurrent incasts through the given proxies; returns both
/// completion times (seconds).
fn run_pair(proxy_a: HostId, proxy_b: HostId, seed: u64) -> (f64, f64) {
    let fabric = Fabric::TwoDc(TwoDcParams::default().with_trim(true));
    let (dc0, dc1) = (fabric.hosts_in_dc(0), fabric.hosts_in_dc(1));
    let incast = |i: usize, proxy| Incast {
        scheme: Scheme::ProxyStreamlined,
        spec: IncastSpec::new(dc0[i * DEGREE..(i + 1) * DEGREE].to_vec(), dc1[i], BYTES)
            .with_proxy(proxy),
    };
    let sc = Scenario {
        incasts: vec![incast(0, proxy_a), incast(1, proxy_b)],
        time_limit: SimDuration::from_secs(300),
        ..Scenario::new(fabric)
    };
    let (_, _, icts) = sc.run(seed).expect("both incasts build");
    let secs = |i: usize| icts[i].expect("both incasts complete").as_secs_f64();
    (secs(0), secs(1))
}

fn main() {
    let topo = two_dc_leaf_spine(&TwoDcParams::default());
    let dc0 = topo.hosts_in_dc(0);
    let dc1 = topo.hosts_in_dc(1);
    // Hosts not sending are proxy candidates.
    let candidates: Vec<HostId> = dc0[2 * DEGREE..].to_vec();

    let request = |id: u64, lo: usize| IncastRequest {
        id,
        senders: dc0[lo..lo + DEGREE].to_vec(),
        receiver: dc1[id as usize],
        expected_bytes: BYTES,
    };

    // Global orchestrator: distinct proxies by construction.
    let one_shard = ShardedConfig {
        shards: 1,
        ..ShardedConfig::default()
    };
    let mut global = ShardedOrchestrator::new(candidates.clone(), one_shard, 42);
    let ga = global.select(&request(0, 0)).expect("assignment");
    let gb = global.select(&request(1, DEGREE)).expect("assignment");

    // Decentralized: power-of-two-choices with a lossy view.
    let mut dec =
        DecentralizedSelector::new(candidates.clone(), 2, 42).with_conflict_probability(0.3);
    let da = dec.select(&request(0, 0)).expect("assignment");
    let db = dec.select(&request(1, DEGREE)).expect("assignment");

    println!("candidate pool: {} idle hosts in DC 0", candidates.len());
    println!(
        "global orchestrator:      incast A -> {}, incast B -> {} (1 trial each)",
        ga.proxy, gb.proxy
    );
    println!(
        "decentralized (k=2):      incast A -> {} ({} trials), incast B -> {} ({} trials), {} conflicts",
        da.proxy, da.trials, db.proxy, db.trials, dec.conflicts
    );
    println!();

    eprintln!("simulating contended placement (both incasts on one proxy) ...");
    let shared = candidates[0];
    let (ca, cb) = run_pair(shared, shared, 9);
    eprintln!("simulating orchestrated placement (distinct proxies) ...");
    let (oa, ob) = run_pair(ga.proxy, gb.proxy, 9);

    let mut table = Table::new(vec!["placement", "incast A", "incast B", "max (job ICT)"]);
    table.row(vec![
        "one shared proxy".to_string(),
        fmt_secs(ca),
        fmt_secs(cb),
        fmt_secs(ca.max(cb)),
    ]);
    table.row(vec![
        "orchestrated (distinct)".to_string(),
        fmt_secs(oa),
        fmt_secs(ob),
        fmt_secs(oa.max(ob)),
    ]);
    print!("{}", table.render());
    println!();
    println!(
        "contention penalty avoided: {:.1}x",
        ca.max(cb) / oa.max(ob)
    );
    assert!(
        oa.max(ob) < ca.max(cb),
        "orchestration must beat the shared proxy"
    );
}
