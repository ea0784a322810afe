//! The lease plane's placements, pinned as one digest.
//!
//! Seeded schedules drive the public API of [`ShardedOrchestrator`] with
//! 1, 3 and 4 shards — select, release, renew, `advance_to`, crash and
//! restore, with incast ids granted in scrambled order — and a
//! [`DecentralizedSelector`] on its own. Every return value, and each
//! plane's final `stats()` and `ledger()`, folds into one 64-bit digest.
//!
//! The constant below was recorded before the plane's tables moved off
//! B-trees; a change to the plane's data structures that alters any
//! placement, renewal outcome, counter or ledger entry fails here. Health
//! reports are left out of the schedule on purpose: selection under them
//! is checked against a linear scan in `control_plane_props.rs`.

use dcsim::packet::HostId;
use dcsim::time::{SimDuration, SimTime};
use incast_core::orchestrator::{
    Assignment, DecentralizedSelector, IncastRequest, ProxySelector, RenewOutcome, ShardedConfig,
    ShardedOrchestrator, ShardedStats,
};
use trace::{derive_seed, SplitMix64};

/// The digest of every schedule below.
const PLANE_DIGEST: u64 = 0x7311_7f16_14cb_7736;

/// Folds values into a running 64-bit digest.
struct Digest(u64);

impl Digest {
    fn fold(&mut self, value: u64) {
        self.0 = SplitMix64::new(self.0 ^ value).next_u64();
    }

    fn assignment(&mut self, granted: Option<Assignment>) {
        match granted {
            Some(a) => {
                self.fold(1 + u64::from(a.proxy.0));
                self.fold(u64::from(a.trials));
            }
            None => self.fold(0),
        }
    }

    fn renewal(&mut self, outcome: RenewOutcome) {
        self.fold(match outcome {
            RenewOutcome::Renewed => 11,
            RenewOutcome::Reclaimed => 12,
            RenewOutcome::Pending => 13,
            RenewOutcome::Expired => 14,
        });
    }
}

/// Scrambled, distinct incast ids: an odd multiplier is a bijection on
/// `u64`, so consecutive counters land far apart and out of order, and
/// the extremes (0 and values near `u64::MAX`) come up too.
fn scrambled(k: u64, salt: u64) -> u64 {
    k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt
}

fn t(us: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(us)
}

/// Candidates 3, 7, 11, ... given in a shuffled order.
fn candidates(rng: &mut SplitMix64, n: u32) -> Vec<HostId> {
    let mut hosts: Vec<HostId> = (0..n).map(|i| HostId(3 + 4 * i)).collect();
    for i in (1..hosts.len()).rev() {
        let j = rng.next_bounded(i as u64 + 1) as usize;
        hosts.swap(i, j);
    }
    hosts
}

fn request(rng: &mut SplitMix64, id: u64, pool: &[HostId]) -> IncastRequest {
    let pick = |rng: &mut SplitMix64| pool[rng.next_bounded(pool.len() as u64) as usize];
    let senders = (0..rng.next_bounded(3))
        .map(|_| pick(rng))
        .chain([HostId(900)]);
    IncastRequest {
        id,
        senders: senders.collect(),
        receiver: if rng.next_bounded(6) == 0 {
            pick(rng)
        } else {
            HostId(200 + rng.next_bounded(13) as u32)
        },
        expected_bytes: [10, 10, 20, 35][rng.next_bounded(4) as usize],
    }
}

/// Runs one seeded schedule and returns the plane's final counters.
fn plane_schedule(shards: u32, case: u64, digest: &mut Digest) -> ShardedStats {
    let mut rng = SplitMix64::new(derive_seed(0x9_1A7E, u64::from(shards) << 32 | case));
    let n = 4 + rng.next_bounded(9) as u32;
    let pool = candidates(&mut rng, n);
    let config = ShardedConfig {
        shards,
        lease_ttl: SimDuration::from_micros(150 + rng.next_bounded(400)),
        heartbeat_every: SimDuration::from_micros(50),
        suspect_after: SimDuration::from_micros(160 + rng.next_bounded(100)),
        gossip_delay: SimDuration::from_micros(10),
        fallback_probes: 1 + rng.next_bounded(3) as usize,
    };
    let mut orch = ShardedOrchestrator::new(pool.clone(), config, rng.next_u64());
    let salt = rng.next_u64();
    let mut issued: Vec<u64> = Vec::new();
    let mut now_us = 0u64;
    for _ in 0..300 {
        match rng.next_bounded(20) {
            0..=6 => {
                let id = scrambled(issued.len() as u64, salt);
                let req = request(&mut rng, id, &pool);
                let granted = orch.select(&req);
                digest.assignment(granted);
                digest.fold(orch.serves_via_fallback(id) as u64);
                issued.push(id);
            }
            7..=9 if !issued.is_empty() => {
                let id = issued[rng.next_bounded(issued.len() as u64) as usize];
                orch.release(id);
                digest.fold(orch.release_unknown());
            }
            10..=12 if !issued.is_empty() => {
                let id = issued[rng.next_bounded(issued.len() as u64) as usize];
                digest.renewal(orch.renew(id, t(now_us)));
            }
            13 => {
                // An id the plane never granted.
                let id = scrambled(1 << 40 | rng.next_bounded(64), salt);
                digest.renewal(orch.renew(id, t(now_us)));
            }
            14..=16 => {
                now_us += rng.next_bounded(120);
                orch.advance_to(t(now_us));
                digest.fold(orch.ledger().expired);
            }
            17 => orch.crash_shard(rng.next_bounded(u64::from(shards)) as u32),
            18 => orch.restore_shard(rng.next_bounded(u64::from(shards)) as u32, t(now_us)),
            _ => {
                for &c in &pool {
                    digest.fold(orch.load_of(c));
                }
                digest.fold(u64::from(orch.alive_shards()));
                digest.fold(orch.draining_leases() as u64);
                digest.fold(orch.health_converged() as u64);
                for s in 0..shards {
                    for suspect in orch.suspects_of(s) {
                        digest.fold(u64::from(suspect));
                    }
                }
            }
        }
        assert!(orch.ledger().balanced(), "{:?}", orch.ledger());
        if let Err(broken) = orch.check_invariants() {
            panic!("{shards} shards, case {case}: {broken}");
        }
    }
    for &c in &pool {
        digest.fold(orch.load_of(c));
    }
    let s = orch.stats();
    for v in [
        s.takeovers,
        s.fallback_selections,
        s.stale_conflicts,
        s.reclaims,
        s.expirations,
        s.release_unknown,
    ] {
        digest.fold(v);
    }
    let l = orch.ledger();
    for v in [l.granted, l.released, l.expired, l.reclaimed, l.active] {
        digest.fold(v);
    }
    s
}

fn decentralized_schedule(case: u64, digest: &mut Digest) {
    let mut rng = SplitMix64::new(derive_seed(0xDEC_E27, case));
    let n = 3 + rng.next_bounded(10) as u32;
    let pool = candidates(&mut rng, n);
    let probes = 1 + rng.next_bounded(4) as usize;
    let p = [0.0, 0.25, 0.9][rng.next_bounded(3) as usize];
    let mut sel = DecentralizedSelector::new(pool.clone(), probes, rng.next_u64())
        .with_conflict_probability(p);
    let salt = rng.next_u64();
    let mut issued: Vec<u64> = Vec::new();
    for _ in 0..200 {
        if rng.next_bounded(5) < 3 || issued.is_empty() {
            let id = scrambled(issued.len() as u64, salt);
            let req = request(&mut rng, id, &pool);
            digest.assignment(sel.select(&req));
            issued.push(id);
        } else {
            sel.release(issued[rng.next_bounded(issued.len() as u64) as usize]);
        }
        for &c in &pool {
            digest.fold(sel.load_of(c));
        }
    }
    digest.fold(sel.conflicts);
    digest.fold(sel.release_unknown());
}

#[test]
fn placements_match_the_recorded_digest() {
    let mut digest = Digest(0);
    let mut reached = ShardedStats::default();
    for shards in [1, 3, 4] {
        for case in 0..24 {
            reached.add(&plane_schedule(shards, case, &mut digest));
        }
    }
    // Every rung of the ladder and every counter is exercised.
    let s = reached;
    assert!(
        [
            s.takeovers,
            s.fallback_selections,
            s.stale_conflicts,
            s.reclaims,
            s.expirations,
            s.release_unknown
        ]
        .iter()
        .all(|&n| n > 0),
        "{reached:?}"
    );
    for case in 0..24 {
        decentralized_schedule(case, &mut digest);
    }
    assert_eq!(
        digest.0, PLANE_DIGEST,
        "a placement, renewal outcome or counter moved: {:#018x}",
        digest.0
    );
}
