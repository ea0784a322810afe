//! Integration acceptance for the sharded control plane: **any single
//! shard crash mid-incast completes every in-flight incast** — via sibling
//! takeover, owner restore, or decentralized fallback — with the lease
//! ledger balanced and zero active leases at quiescence.

use dcsim::packet::HostId;
use dcsim::time::{SimDuration, SimTime};
use incast_core::orchestrator::{
    IncastRequest, ProxySelector, RenewOutcome, ShardedConfig, ShardedOrchestrator,
};

fn t(us: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(us)
}

fn plane() -> ShardedOrchestrator {
    ShardedOrchestrator::new((32..64).map(HostId).collect(), ShardedConfig::default(), 17)
}

fn request(id: u64, receiver: u32) -> IncastRequest {
    IncastRequest {
        id,
        senders: (0..8).map(HostId).collect(),
        receiver: HostId(receiver),
        expected_bytes: 1 << 20,
    }
}

/// Issues 16 incasts spread over all 4 shards, crashes `victim` mid-flight,
/// and keeps renewing on a 1 ms epoch cadence until every incast completes
/// (10 epochs), optionally restoring the victim halfway.
fn run_incasts_through_crash(victim: u32, restore: bool) {
    let mut orch = plane();
    let mut in_flight = Vec::new();
    for id in 0..16u64 {
        // Receivers 64..80: home shards cycle 0,1,2,3.
        let a = orch
            .select(&request(id, 64 + id as u32))
            .expect("grant must succeed on a healthy plane");
        in_flight.push((id, a.proxy));
    }
    assert_eq!(orch.ledger().active, 16);
    orch.crash_shard(victim);

    for epoch in 1..=10u64 {
        let now = t(epoch * 1_000);
        orch.advance_to(now);
        if restore && epoch == 5 {
            orch.restore_shard(victim, now);
        }
        for &(id, _) in &in_flight {
            match orch.renew(id, now) {
                RenewOutcome::Renewed | RenewOutcome::Reclaimed | RenewOutcome::Pending => {}
                RenewOutcome::Expired => panic!("incast {id} lost its lease mid-flight"),
            }
        }
    }

    // Every incast completes; every release must find its lease.
    for &(id, _) in &in_flight {
        orch.release(id);
    }
    assert_eq!(
        orch.release_unknown(),
        0,
        "every completion found its lease"
    );
    assert!(orch.ledger().balanced(), "{:?}", orch.ledger());
    assert_eq!(orch.ledger().active, 0, "{:?}", orch.ledger());
    assert_eq!(orch.draining_leases(), 0);
    // The 4 incasts homed on the victim were all adopted (or re-adopted by
    // the restored owner) rather than silently dropped.
    assert_eq!(orch.stats().reclaims, 4, "{:?}", orch.stats());
    assert!(orch.health_converged() || restore);
}

#[test]
fn any_single_shard_crash_completes_all_in_flight_incasts() {
    for victim in 0..4 {
        run_incasts_through_crash(victim, false);
    }
}

#[test]
fn crash_then_restore_also_completes_everything() {
    for victim in 0..4 {
        run_incasts_through_crash(victim, true);
    }
}

#[test]
fn new_incasts_keep_flowing_during_the_outage() {
    let mut orch = plane();
    orch.crash_shard(2);
    // Before gossip converges: fallback. After: takeover. Either way every
    // request gets a proxy.
    let mut granted = 0;
    for id in 0..12u64 {
        let now = t(id * 1_000);
        orch.advance_to(now);
        if orch.select(&request(id, 66)).is_some() {
            granted += 1;
        }
    }
    assert_eq!(granted, 12, "no request goes unserved during the outage");
    let stats = orch.stats();
    assert!(stats.fallback_selections > 0, "early requests degrade");
    assert!(stats.takeovers > 0, "late requests take over: {stats:?}");
    for id in 0..12u64 {
        orch.release(id);
    }
    assert_eq!(orch.ledger().active, 0);
    assert!(orch.ledger().balanced());
}
