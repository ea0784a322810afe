//! Integration tests spanning the declaration abstraction, the benefit
//! predictor, the orchestrator, and the simulator: declare → plan →
//! simulate, end to end.

use dcsim::prelude::*;
use incast_core::declare::{compile, IncastDecl, Routing};
use incast_core::orchestrator::{ProxySelector, ShardedConfig, ShardedOrchestrator};
use incast_core::predict::{paper_profile, predict};
use incast_core::scenario::{Fabric, Incast, Scenario};
use incast_core::{IncastSpec, Scheme};
use std::collections::BTreeMap;

/// A small-topology incast of `bytes` from four DC 0 senders, the last DC 0
/// host as proxy.
fn small_incast(scheme: Scheme, bytes: u64) -> Scenario {
    let fabric =
        Fabric::TwoDc(TwoDcParams::small_test().with_trim(scheme == Scheme::ProxyStreamlined));
    let spec = fabric.placement(4, bytes);
    Scenario::incast(fabric, scheme, spec)
}

fn full_topology() -> Topology {
    two_dc_leaf_spine(&TwoDcParams::default())
}

/// The global orchestrator: the lease plane with one shard.
fn global(candidates: Vec<HostId>) -> ShardedOrchestrator {
    let config = ShardedConfig {
        shards: 1,
        ..ShardedConfig::default()
    };
    ShardedOrchestrator::new(candidates, config, 0)
}

#[test]
fn declare_plan_simulate_roundtrip() {
    // Declaration.
    let decl = IncastDecl::named("pipeline")
        .sources(["w0", "w1", "w2", "w3"])
        .sink("agg")
        .expected_bytes(100_000_000)
        .build()
        .expect("valid declaration");

    // Placement + planning.
    let topo = full_topology();
    let dc0 = topo.hosts_in_dc(0);
    let dc1 = topo.hosts_in_dc(1);
    let mut placement: BTreeMap<String, HostId> =
        (0..4).map(|i| (format!("w{i}"), dc0[i])).collect();
    placement.insert("agg".into(), dc1[0]);
    let mut orch = global(dc0[4..].to_vec());
    let plans = compile(&[decl], &placement, &topo, &mut orch).expect("plannable");
    let Routing::ViaProxy(proxy) = plans[0].routing else {
        panic!("100 MB cross-DC must be proxied");
    };

    // Simulation of the planned routing on a small topology (the proxy
    // host index carries over: use the small topo's own placement).
    let sc = Scenario {
        time_limit: SimDuration::from_secs(300),
        ..small_incast(Scheme::ProxyStreamlined, 20_000_000)
    };
    let (_, _, icts) = sc.run(1).expect("builds");
    assert!(icts[0].is_some());
    // The planner's chosen proxy is a real DC-0 host.
    assert_eq!(topo.host_dc(proxy), Some(0));
}

#[test]
fn predictor_matches_simulated_benefit_boundary() {
    // Sim the boundary the predictor draws (degree 4, 1 ms links): the
    // predictor says 20 MB gains nothing and 100 MB gains a lot; check
    // both directions against actual small-topology runs scaled to the
    // same BDP ratio (30 MB ≈ overload, 1 MB ≈ no loss).
    let no_benefit = predict(&paper_profile(20_000_000, 4, SimDuration::from_millis(1)));
    let benefit = predict(&paper_profile(100_000_000, 4, SimDuration::from_millis(1)));
    assert!(!no_benefit.use_proxy);
    assert!(benefit.use_proxy);

    let run = |scheme: Scheme, bytes: u64| {
        let (_, _, icts) = small_incast(scheme, bytes).run(5).expect("builds");
        icts[0].expect("completes").as_secs_f64()
    };
    // Overloaded case: simulated benefit agrees with prediction.
    let base = run(Scheme::Baseline, 30_000_000);
    let prox = run(Scheme::ProxyStreamlined, 30_000_000);
    assert!(prox < base * 0.6, "predicted benefit must materialize");
    // Tiny case: no meaningful benefit.
    let base = run(Scheme::Baseline, 1_000_000);
    let prox = run(Scheme::ProxyStreamlined, 1_000_000);
    assert!(prox > base * 0.7, "no benefit expected below the boundary");
}

#[test]
fn orchestrated_concurrent_incasts_all_complete() {
    // Two jobs, distinct proxies from the orchestrator, one simulator.
    let fabric = Fabric::TwoDc(TwoDcParams::small_test().with_trim(true));
    let (dc0, dc1) = (fabric.hosts_in_dc(0), fabric.hosts_in_dc(1));
    let mut orch = global(dc0[4..].to_vec());
    let mut incasts = Vec::new();
    for i in 0..2u64 {
        let senders = dc0[(i as usize) * 2..(i as usize) * 2 + 2].to_vec();
        let receiver = dc1[i as usize];
        let assignment = orch
            .select(&incast_core::orchestrator::IncastRequest {
                id: i,
                senders: senders.clone(),
                receiver,
                expected_bytes: 8_000_000,
            })
            .expect("proxy available");
        let spec = IncastSpec::new(senders, receiver, 8_000_000).with_proxy(assignment.proxy);
        incasts.push(Incast {
            scheme: Scheme::ProxyStreamlined,
            spec,
        });
    }
    let sc = Scenario {
        incasts,
        time_limit: SimDuration::from_secs(300),
        ..Scenario::new(fabric)
    };
    let (_, report, icts) = sc.run(7).expect("builds");
    assert_eq!(report.stop, StopReason::Idle, "{report:?}");
    assert!(icts.iter().all(Option::is_some));
    assert_eq!(orch.ledger().active, 2);
    orch.release(0);
    orch.release(1);
    assert_eq!(orch.ledger().active, 0);
}

#[test]
fn plan_errors_are_reported_not_guessed() {
    let topo = full_topology();
    let dc0 = topo.hosts_in_dc(0);
    let decl = IncastDecl::named("broken")
        .sources(["a", "missing"])
        .sink("s")
        .expected_bytes(1_000_000)
        .build()
        .expect("declaration itself is fine");
    let placement: BTreeMap<String, HostId> =
        [("a".to_string(), dc0[0]), ("s".to_string(), dc0[1])].into();
    let mut orch = global(vec![dc0[5]]);
    let err = compile(&[decl], &placement, &topo, &mut orch).unwrap_err();
    assert!(matches!(
        err,
        incast_core::declare::PlanError::Unplaced(ref c) if c == "missing"
    ));
}
