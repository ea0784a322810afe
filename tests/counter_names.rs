//! Every counter set in dcsim, incast_core and netproxy is declared
//! through `trace::counters!`, which names each counter
//! `crate.set.field`. These tests pin the scheme: the names are unique
//! and well formed, and the plain counts BENCHMARK.json reports under
//! its per-layer names are generated names, not strings kept by hand.

use std::collections::BTreeSet;

/// Every generated name, set by set.
fn generated() -> Vec<&'static str> {
    macro_rules! all {
        ($($set:ty),* $(,)?) => {
            [$(<$set>::default().iter().map(|(name, _)| name).collect::<Vec<_>>()),*].concat()
        };
    }
    all![
        netproxy::RelayStats,
        netproxy::FaultSnapshot,
        netproxy::SinkStats,
        netproxy::TcpSinkStats,
        netproxy::NaiveStats,
        netproxy::SupervisorStats,
        netproxy::BatchLoadReport,
        netproxy::batch::SendOutcome,
        netproxy::loadgen::LoadStats,
        dcsim::metrics::ProtocolCounters,
        dcsim::metrics::TimerChurn,
        dcsim::metrics::TxChurn,
        dcsim::metrics::LaneChurn,
        dcsim::fidelity::ExpressStats,
        dcsim::queues::QueuePeak,
        dcsim::events::EventCensus,
        dcsim::audit::PacketLedger,
        dcsim::audit::LeaseLedger,
        incast_core::orchestrator::sharded::ShardedStats,
        incast_core::lossdetect::LossDetectorStats,
    ]
}

/// `^[a-z_]+(\.[a-z0-9_]+)+$`: a crate, then one or more dotted parts.
fn well_formed(name: &str) -> bool {
    let mut parts = name.split('.');
    let first = parts.next().unwrap_or("");
    let rest: Vec<&str> = parts.collect();
    let in_set = |s: &str, digits: bool| {
        !s.is_empty()
            && s.bytes()
                .all(|b| b.is_ascii_lowercase() || b == b'_' || (digits && b.is_ascii_digit()))
    };
    in_set(first, false) && !rest.is_empty() && rest.iter().all(|p| in_set(p, true))
}

#[test]
fn generated_names_are_unique_and_well_formed() {
    let names = generated();
    let unique: BTreeSet<_> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "a name is generated twice");
    for name in &names {
        assert!(well_formed(name), "{name} is not crate.set.field");
    }
    assert!(!well_formed("Dcsim.x") && !well_formed("dcsim") && !well_formed("dcsim..x"));
}

#[test]
fn benchmark_plain_counts_are_generated_names() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCHMARK.json"))
        .expect("BENCHMARK.json");
    // One per-layer entry per line: `{"name": "...", "unit": "count", ...}`.
    let counts: BTreeSet<&str> = spec
        .lines()
        .filter(|l| l.contains(r#""unit": "count""#))
        .filter_map(|l| l.split('"').nth(3))
        .collect();
    let names = generated();
    for plain in [
        "netproxy.shard.forwarded",
        "netproxy.shard.nacks",
        "netproxy.shard.reversed",
        "netproxy.shard.dropped",
        "netproxy.shard.send_errors",
        "netproxy.shard.io_retries",
        "incast_core.orchestrator.takeovers",
    ] {
        assert!(
            counts.contains(plain),
            "BENCHMARK.json has no count {plain}"
        );
        assert!(names.contains(&plain), "{plain} is not a generated name");
    }
}
