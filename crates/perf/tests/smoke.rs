//! Smoke tests: every workload at smoke size in its own process, every
//! correctness check on; the result line parses and names exactly the
//! metrics `BENCHMARK.json` lists, with finite values. Simulated
//! statistics repeat exactly for a seed.

use incast_perf::json::{self, Value};
use incast_perf::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::process::Command;

/// Runs `incast-perf bench --smoke` and returns (correct, failed, metrics).
fn bench(workload: &str, seed: u64, traced: bool) -> (bool, u64, BTreeMap<String, (f64, String)>) {
    let output = Command::new(env!("CARGO_BIN_EXE_incast-perf"))
        .args(["bench", "--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            if traced { "1" } else { "0" },
            "--smoke",
        ])
        .output()
        .expect("spawn incast-perf");
    assert!(
        output.status.success(),
        "{workload}: {}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("a result line");
    let v = json::parse(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"));
    let keys: Vec<&str> = v
        .as_obj()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{workload}"
    );
    assert!(
        v.get("attempted")
            .and_then(Value::as_f64)
            .expect("attempted")
            >= 1.0
    );
    let metrics = v
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics")
        .iter()
        .map(|(name, m)| {
            let keys: Vec<&str> = m
                .as_obj()
                .expect("metric")
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["unit", "value"], "{workload}/{name}");
            let value = m.get("value").and_then(Value::as_f64).expect("value");
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .expect("unit")
                .to_string();
            assert!(value.is_finite(), "{workload}/{name} = {value}");
            (name.clone(), (value, unit))
        })
        .collect();
    (
        v.get("correct").and_then(Value::as_bool).expect("correct"),
        v.get("failed").and_then(Value::as_f64).expect("failed") as u64,
        metrics,
    )
}

fn sorted<'a>(names: impl Iterator<Item = &'a str>) -> Vec<String> {
    let mut v: Vec<String> = names.map(str::to_string).collect();
    v.sort();
    v
}

fn untraced_smoke(workload: &str) {
    let (correct, failed, metrics) = bench(workload, 3, false);
    assert!(
        correct && failed == 0,
        "{workload}: correct={correct} failed={failed}"
    );
    assert_eq!(
        metrics.keys().cloned().collect::<Vec<_>>(),
        sorted(END_TO_END.iter().map(|m| m.name)),
        "{workload}"
    );
    for m in END_TO_END {
        let (value, unit) = &metrics[m.name];
        assert_eq!(unit, m.unit, "{workload}/{}", m.name);
        assert!(
            *value > 0.0,
            "{workload}/{} = {value}: end-to-end metrics are never 0",
            m.name
        );
    }
}

fn traced_smoke(workload: &str) -> BTreeMap<String, (f64, String)> {
    let (correct, failed, metrics) = bench(workload, 3, true);
    assert!(
        correct && failed == 0,
        "{workload}: correct={correct} failed={failed}"
    );
    assert_eq!(
        metrics.keys().cloned().collect::<Vec<_>>(),
        sorted(PER_LAYER.iter().map(|m| m.name)),
        "{workload}"
    );
    for l in PER_LAYER {
        assert_eq!(metrics[l.name].1, l.unit, "{workload}/{}", l.name);
    }
    // Every probe ran: its layer time is there whatever the workload.
    for probe in [
        "netproxy.batch.send_ns_per_dgram_64B",
        "netproxy.wire.parse_ns",
        "dcsim.events.push_pop_ns",
        "incast_core.lease.grant_release_ns",
        "trace.histogram.record_ns",
    ] {
        assert!(metrics[probe].0 > 0.0, "{workload}/{probe}");
    }
    metrics
}

#[test]
fn relay_bulk_smoke() {
    untraced_smoke(spec::RELAY_BULK);
    let layers = traced_smoke(spec::RELAY_BULK);
    assert!(layers["netproxy.shard.forwarded"].0 > 0.0);
    assert_eq!(layers["netproxy.shard.nacks"].0, 0.0);
}

#[test]
fn relay_incast_smoke() {
    untraced_smoke(spec::RELAY_INCAST);
    let layers = traced_smoke(spec::RELAY_INCAST);
    assert!(layers["netproxy.shard.nacks"].0 > 0.0 && layers["netproxy.shard.reversed"].0 > 0.0);
}

#[test]
fn relay_pingpong_smoke() {
    untraced_smoke(spec::RELAY_PINGPONG);
    let layers = traced_smoke(spec::RELAY_PINGPONG);
    assert_eq!(
        layers["netproxy.shard.avg_batch"].0, 1.0,
        "window 1 pins the batch at 1"
    );
}

#[test]
fn ctrl_lease_churn_smoke() {
    untraced_smoke(spec::CTRL_CHURN);
    let layers = traced_smoke(spec::CTRL_CHURN);
    assert!(
        layers["incast_core.orchestrator.takeovers"].0 > 0.0,
        "crashed phase takes over"
    );
    assert_eq!(layers["incast_core.orchestrator.fallback_share"].0, 0.0);
}

/// Simulated statistics are exact counts: same seed, same values, bit
/// for bit.
fn exact_metrics_repeat(workload: &str, exact: &[&str]) -> BTreeMap<String, (f64, String)> {
    untraced_smoke(workload);
    let first = traced_smoke(workload);
    let second = traced_smoke(workload);
    for name in exact {
        assert_eq!(
            first[*name].0.to_bits(),
            second[*name].0.to_bits(),
            "{workload}/{name}: {} vs {}",
            first[*name].0,
            second[*name].0
        );
    }
    first
}

#[test]
fn sim_incast_full_smoke_repeats_exactly() {
    exact_metrics_repeat(
        spec::SIM_INCAST,
        &["e2e.sim_ict_ms", "dcsim.sim.events_per_pkt"],
    );
}

#[test]
fn sim_fleet_hybrid_smoke_repeats_exactly() {
    let first = exact_metrics_repeat(
        spec::SIM_FLEET,
        &[
            "e2e.sim_ict_ms",
            "e2e.sim_fct_err_pct",
            "dcsim.sim.events_per_pkt",
            "dcsim.fidelity.saved_event_share",
            "dcsim.fidelity.fallback_share",
            "dcsim.fidelity.deferral_share",
            "dcsim.fleet.windows",
            "dcsim.fleet.exchanged_per_window",
        ],
    );
    // Another seed, another fleet: the seed reaches the simulator. (A
    // smoke-size incast loses no packet, so its ICT does not depend on
    // which paths the seed sprays over; the fleet's overloaded incasts do.)
    let (_, _, other_seed) = bench(spec::SIM_FLEET, 4, true);
    assert_ne!(first["e2e.sim_ict_ms"].0, other_seed["e2e.sim_ict_ms"].0);
}

#[test]
fn benchmark_json_matches_the_spec_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        on_disk,
        spec::benchmark_json(),
        "regenerate with `incast-perf spec > BENCHMARK.json`"
    );
    let v = json::parse(&on_disk).expect("valid JSON");
    assert_eq!(
        v.get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .len(),
        WORKLOADS.len()
    );
}

#[test]
fn unknown_arguments_are_refused() {
    let status = Command::new(env!("CARGO_BIN_EXE_incast-perf"))
        .args(["bench", "--workload", "no_such_workload"])
        .output()
        .expect("spawn incast-perf");
    assert!(!status.status.success());
    assert!(status.stdout.is_empty(), "no result line on a usage error");
}
