//! Property tests for the sharded control plane.
//!
//! Three families:
//!
//! * **Lease lifecycle vs oracle** — [`LeaseTable`] (and the full
//!   [`ShardedOrchestrator`] under random crash/restore interleavings) is
//!   model-checked against a `BTreeMap` oracle of live leases; the
//!   [`LeaseLedger`] balance `granted == released + expired + reclaimed +
//!   active` must hold after every operation, and `active` must reach
//!   zero once every lease is released or allowed to run out.
//! * **Selection vs a linear scan** — every grant a shard serves names the
//!   proxy a scan over the candidates would (`min` of `(load, HostId)` over
//!   the eligible, healthy ones), and no grant the fallback serves names
//!   a proxy reported unhealthy, under the same chaos plus health
//!   reports, with the load book's and the lease table's own invariants
//!   checked after every operation. The [`LoadBook`] alone is checked the
//!   same way with its k lightest candidates made inadmissible, for every
//!   k, so the heap's root is rejected in every way a request can reject
//!   it; and once more at the edges of its packed key.
//! * **Gossip convergence** — after an arbitrary crash/restore schedule
//!   ends, every live shard's failure detector converges on exactly the
//!   dead set within a bounded number of heartbeat rounds (the extra
//!   gossip partner cycles deterministically, so any live pair exchanges
//!   a direct heartbeat at least once every `shards` periods).

use dcsim::audit::LeaseLedger;
use dcsim::packet::HostId;
use dcsim::time::{SimDuration, SimTime};
use incast_core::orchestrator::lease::{Lease, LeaseTable};
use incast_core::orchestrator::{
    IncastRequest, LoadBook, ProxySelector, RenewOutcome, ShardedConfig, ShardedOrchestrator, Slot,
};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use trace::{cases, SplitMix64};

/// Between `len.start` and `len.end - 1` fuzzed words.
fn words(rng: &mut SplitMix64, len: Range<u64>) -> Vec<u64> {
    let n = len.start + rng.next_bounded(len.end - len.start);
    (0..n).map(|_| rng.next_u64()).collect()
}
/// Decodes one fuzzed word into (op, id, tick). Ids live in a small space
/// so grants, renewals, and releases of the *same* lease actually collide.
fn decode(word: u64) -> (u64, u64, u64) {
    (word % 8, (word >> 3) % 24, (word >> 8) % 64)
}

fn t(us: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(us)
}

/// LeaseTable agrees with a BTreeMap oracle of live leases under a
/// random grant / extend / release / expire interleaving, and the
/// ledger balances after every operation.
#[test]
fn lease_table_matches_oracle() {
    cases(101, 256, |_, rng| {
        let ops = words(rng, 1..300);
        let mut table = LeaseTable::new();
        let mut oracle: BTreeMap<u64, SimTime> = BTreeMap::new();
        let mut ledger = LeaseLedger::default();
        let mut now_us = 0u64;
        for &word in &ops {
            let (op, id, tick) = decode(word);
            now_us += tick;
            let now = t(now_us);
            match op {
                0..=2 => {
                    if let std::collections::btree_map::Entry::Vacant(slot) = oracle.entry(id) {
                        let expires_at = now + SimDuration::from_micros(40);
                        table.grant(
                            id,
                            Lease {
                                proxy: HostId(1),
                                epoch: 1,
                                granted_at: now,
                                expires_at,
                                bytes: 10,
                            },
                            &mut ledger,
                        );
                        slot.insert(expires_at);
                    }
                }
                3 | 4 => {
                    // Op 4 renews to a short term, usually moving the
                    // expiry *earlier* than the one it replaces.
                    let term = if op == 3 { 40 } else { tick % 8 };
                    let expires_at = now + SimDuration::from_micros(term);
                    let extended = table.extend(id, expires_at);
                    assert_eq!(extended, oracle.contains_key(&id));
                    if extended {
                        oracle.insert(id, expires_at);
                    }
                }
                5 | 6 => {
                    let released = table.release(id, &mut ledger);
                    assert_eq!(released.is_some(), oracle.remove(&id).is_some());
                }
                _ => {
                    let due = table.expire_due(now, &mut ledger);
                    let mut want: Vec<u64> = oracle
                        .iter()
                        .filter(|(_, &exp)| exp <= now)
                        .map(|(&id, _)| id)
                        .collect();
                    want.sort_unstable();
                    let mut got: Vec<u64> = due.iter().map(|(id, _)| *id).collect();
                    got.sort_unstable();
                    assert_eq!(got, want.clone());
                    for id in want {
                        oracle.remove(&id);
                    }
                }
            }
            assert!(ledger.balanced(), "unbalanced: {:?}", ledger);
            assert_eq!(ledger.active as usize, oracle.len());
            assert_eq!(table.len(), oracle.len());
            table.check_invariants().unwrap();
        }
        // Drain to quiescence: release everything still live.
        let live: Vec<u64> = oracle.keys().copied().collect();
        for id in live {
            assert!(table.release(id, &mut ledger).is_some());
        }
        assert!(ledger.balanced());
        assert_eq!(ledger.active, 0);
    });
}

/// The full sharded orchestrator keeps its ledger balanced under a
/// random select / renew / release / crash / restore interleaving, and
/// drains to zero active leases once the dust settles.
#[test]
fn sharded_ledger_balances_under_chaos() {
    cases(102, 256, |_, rng| {
        let ops = words(rng, 1..200);
        let candidates: Vec<HostId> = (0..8).map(HostId).collect();
        let config = ShardedConfig {
            shards: 4,
            lease_ttl: SimDuration::from_micros(400),
            heartbeat_every: SimDuration::from_micros(50),
            suspect_after: SimDuration::from_micros(150),
            gossip_delay: SimDuration::from_micros(10),
            fallback_probes: 2,
        };
        let mut orch = ShardedOrchestrator::new(candidates, config, 9);
        let mut next_id = 0u64;
        let mut issued: Vec<u64> = Vec::new();
        let mut now_us = 0u64;
        for &word in &ops {
            let (op, pick, tick) = decode(word);
            now_us += tick;
            orch.advance_to(t(now_us));
            match op {
                0 | 1 => {
                    let id = next_id;
                    next_id += 1;
                    let selected = orch.select(&IncastRequest {
                        id,
                        senders: vec![HostId(100)],
                        receiver: HostId(64 + (pick as u32 % 7)),
                        expected_bytes: 50,
                    });
                    if selected.is_some() {
                        issued.push(id);
                    }
                }
                2 | 3 => {
                    if !issued.is_empty() {
                        let id = issued[pick as usize % issued.len()];
                        let _ = orch.renew(id, t(now_us));
                    }
                }
                4 | 5 => {
                    if !issued.is_empty() {
                        let id = issued[pick as usize % issued.len()];
                        orch.release(id); // Repeats audit as release_unknown.
                    }
                }
                6 => orch.crash_shard(pick as u32 % 4),
                _ => orch.restore_shard(pick as u32 % 4, t(now_us)),
            }
            assert!(
                orch.ledger().balanced(),
                "unbalanced after op {}: {:?}",
                word,
                orch.ledger()
            );
        }
        // Quiescence: release every id ever issued (repeats and already-
        // expired ones are audited, not lost), then run the clock far past
        // the TTL so stragglers expire.
        for &id in &issued {
            orch.release(id);
        }
        now_us += 2_000;
        orch.advance_to(t(now_us));
        assert!(orch.ledger().balanced(), "{:?}", orch.ledger());
        assert_eq!(orch.ledger().active, 0, "{:?}", orch.ledger());
        assert_eq!(orch.draining_leases(), 0);
    });
}

/// Whatever has happened to the plane, a grant served by a shard lands
/// on the proxy a linear scan picks: the eligible, healthy candidate
/// with the least `(load, HostId)`; one the fallback serves lands on a
/// proxy not reported unhealthy. Loads collide on purpose (few
/// candidates, three sizes) so ties are the common case. Half the cases
/// run the one-shard plane, the global orchestrator.
#[test]
fn selection_matches_a_linear_scan() {
    cases(103, 256, |_, rng| {
        let ops = words(rng, 1..400);
        let shards = [1, 3][rng.next_bounded(2) as usize];
        let candidates: Vec<HostId> = [5, 2, 9, 4, 7, 1].map(HostId).to_vec();
        let config = ShardedConfig {
            shards,
            lease_ttl: SimDuration::from_micros(400),
            heartbeat_every: SimDuration::from_micros(50),
            suspect_after: SimDuration::from_micros(280),
            gossip_delay: SimDuration::from_micros(10),
            fallback_probes: 2,
        };
        let mut orch = ShardedOrchestrator::new(candidates.clone(), config, 21);
        let mut unhealthy: BTreeSet<HostId> = BTreeSet::new();
        // Live fallback claims: `load_of` includes them, shards do not see them.
        let mut claims: BTreeMap<u64, (HostId, u64)> = BTreeMap::new();
        let mut issued: Vec<u64> = Vec::new();
        let mut now_us = 0u64;
        for &word in &ops {
            let (op, pick, tick) = (word % 16, (word >> 4) as usize % 64, (word >> 10) % 64);
            now_us += tick;
            orch.advance_to(t(now_us));
            match op {
                0..=5 => {
                    let id = issued.len() as u64;
                    let request = IncastRequest {
                        id,
                        senders: vec![candidates[pick % 6], HostId(100)],
                        receiver: if pick % 5 == 0 {
                            candidates[pick / 5 % 6]
                        } else {
                            HostId(64 + pick as u32 % 7)
                        },
                        expected_bytes: [10, 10, 20][(word >> 16) as usize % 3],
                    };
                    let scan = candidates
                        .iter()
                        .filter(|c| {
                            **c != request.receiver
                                && !request.senders.contains(c)
                                && !unhealthy.contains(c)
                        })
                        .map(|&c| {
                            let claimed: u64 = claims
                                .values()
                                .filter(|(proxy, _)| *proxy == c)
                                .map(|(_, bytes)| bytes)
                                .sum();
                            (orch.load_of(c) - claimed, c)
                        })
                        .min()
                        .map(|(_, c)| c);
                    let granted = orch.select(&request).map(|a| a.proxy);
                    issued.push(id);
                    if orch.serves_via_fallback(id) {
                        let proxy = granted.unwrap();
                        assert!(
                            !unhealthy.contains(&proxy),
                            "select {id}: {proxy} unhealthy"
                        );
                        claims.insert(id, (proxy, request.expected_bytes));
                    } else if granted.is_some() {
                        assert_eq!(granted, scan, "select {}", id);
                    } else {
                        // Unserved: not even the scan found a candidate.
                        assert_eq!(scan, None);
                    }
                }
                6..=8 if !issued.is_empty() => {
                    let _ = orch.renew(issued[pick % issued.len()], t(now_us));
                }
                9..=11 if !issued.is_empty() => {
                    let id = issued[pick % issued.len()];
                    orch.release(id);
                    claims.remove(&id);
                }
                12 => orch.crash_shard(pick as u32 % shards),
                13 => orch.restore_shard(pick as u32 % shards, t(now_us)),
                14 => {
                    orch.report_unhealthy(candidates[pick % 6]);
                    unhealthy.insert(candidates[pick % 6]);
                }
                15 => {
                    orch.report_healthy(candidates[pick % 6]);
                    unhealthy.remove(&candidates[pick % 6]);
                }
                _ => {}
            }
            assert!(orch.ledger().balanced(), "{:?}", orch.ledger());
            if let Err(broken) = orch.check_invariants() {
                panic!("after op {} of word {}: {}", op, word, broken);
            }
        }
    });
}

/// The load book's pick is the linear scan's: the least `(load, HostId)`
/// among the candidates the request admits. Loads collide on purpose, and
/// for every k the k lightest candidates are shut out — as senders, as
/// the receiver, or reported unhealthy — so the pick is the (k+1)-th
/// lightest, not the heap's root, whenever k > 0.
#[test]
fn load_book_matches_a_linear_scan() {
    cases(106, 128, |_, rng| {
        let n = 1 + rng.next_bounded(40) as usize;
        let mut hosts: Vec<HostId> = (0..n as u32).map(|i| HostId(1 + 7 * i)).collect();
        for i in (1..n).rev() {
            hosts.swap(i, rng.next_bounded(i as u64 + 1) as usize);
        }
        let mut book = LoadBook::new(hosts.clone());
        let mut load: BTreeMap<HostId, u64> = hosts.iter().map(|&h| (h, 0)).collect();
        for _round in 0..4 {
            // Churn: few distinct sizes, so many candidates tie.
            for _ in 0..rng.next_bounded(3 * n as u64) {
                let h = hosts[rng.next_bounded(n as u64) as usize];
                let bytes = [1, 2, 4][rng.next_bounded(3) as usize];
                if rng.next_bounded(3) == 0 {
                    book.sub(h, bytes);
                    let l = load.get_mut(&h).unwrap();
                    *l = l.saturating_sub(bytes);
                } else {
                    book.add(h, bytes);
                    *load.get_mut(&h).unwrap() += bytes;
                }
            }
            book.check_invariants().unwrap();
            let mut by_load: Vec<(u64, HostId)> = load.iter().map(|(&h, &l)| (l, h)).collect();
            by_load.sort_unstable();
            for k in 0..=n {
                let mut request = IncastRequest {
                    id: 0,
                    senders: vec![HostId(10_000)],
                    receiver: HostId(10_001),
                    expected_bytes: 1,
                };
                for (i, &(_, h)) in by_load[..k].iter().enumerate() {
                    match (i + k) % 3 {
                        0 => request.senders.push(h),
                        1 if request.receiver == HostId(10_001) => request.receiver = h,
                        _ => book.report_unhealthy(h),
                    }
                }
                let scan = by_load.get(k).map(|&(_, h)| h);
                assert_eq!(book.least_loaded(&request), scan, "k = {k} of {n}");
                for &h in &hosts {
                    assert_eq!(book.load_of(h), load[&h]);
                    book.report_healthy(h);
                }
            }
        }
    });
}

/// The same scan at the packed key's edges: host ids from `1 << 31` up to
/// `u32::MAX`, loads within `1 << 20` of `u64::MAX` that `sub` drops back
/// to zero, and half of the adds going to the book's own pick through the
/// slot it hands out, as a grant does. A key that packs the host into
/// fewer than 32 bits, or the load into fewer than 64, orders some pair
/// of these wrongly.
#[test]
fn load_book_matches_a_linear_scan_at_the_key_edges() {
    cases(107, 128, |_, rng| {
        let n = 1 + rng.next_bounded(40) as usize;
        let mut ids: BTreeSet<u32> = BTreeSet::from([u32::MAX]);
        while ids.len() < n {
            ids.insert((1 << 31) | rng.next_u64() as u32);
        }
        let mut hosts: Vec<HostId> = ids.into_iter().map(HostId).collect();
        for i in (1..n).rev() {
            hosts.swap(i, rng.next_bounded(i as u64 + 1) as usize);
        }
        let mut book = LoadBook::new(hosts.clone());
        let mut load: BTreeMap<HostId, u64> = hosts.iter().map(|&h| (h, 0)).collect();
        let anyone = IncastRequest {
            id: 0,
            senders: vec![],
            receiver: HostId(0),
            expected_bytes: 1,
        };
        for _ in 0..8 * n {
            if rng.next_bounded(4) == 0 {
                // Often more than it carries: saturates to zero.
                let h = hosts[rng.next_bounded(n as u64) as usize];
                let bytes = [1, 1 << 20, u64::MAX][rng.next_bounded(3) as usize];
                book.sub(h, bytes);
                let l = load.get_mut(&h).unwrap();
                *l = l.saturating_sub(bytes);
            } else {
                let (h, slot) = if rng.next_bounded(2) == 0 {
                    let (h, slot): (HostId, Slot) = book.least_loaded(&anyone).unwrap();
                    assert_eq!(
                        Some(h),
                        load.iter().map(|(&h, &l)| (l, h)).min().map(|(_, h)| h)
                    );
                    (h, Some(slot))
                } else {
                    (hosts[rng.next_bounded(n as u64) as usize], None)
                };
                // Idle candidates jump to the edge; loaded ones creep by a
                // byte or two, so loads tie and differ by one.
                let l = load.get_mut(&h).unwrap();
                let bytes = if *l == 0 {
                    u64::MAX - (1 << 20) + rng.next_bounded(4)
                } else {
                    [1, 2][rng.next_bounded(2) as usize]
                };
                match slot {
                    Some(slot) => book.add_at(slot, bytes),
                    None => book.add(h, bytes),
                }
                *l += bytes;
            }
            book.check_invariants().unwrap();
            for &h in &hosts {
                assert_eq!(book.load_of(h), load[&h]);
            }
            let mut by_load: Vec<(u64, HostId)> = load.iter().map(|(&h, &l)| (l, h)).collect();
            by_load.sort_unstable();
            // Shut out the k lightest as unhealthy: the pick is the next.
            let k = rng.next_bounded(n as u64 + 1) as usize;
            for &(_, h) in &by_load[..k] {
                book.report_unhealthy(h);
            }
            let scan = by_load.get(k).map(|&(_, h)| h);
            assert_eq!(book.least_loaded(&anyone), scan, "k = {k} of {n}");
            for &(_, h) in &by_load[..k] {
                book.report_healthy(h);
            }
        }
    });
}

/// After the last crash/restore event, every live shard's suspect set
/// converges on exactly the dead set within a bounded number of
/// heartbeat rounds.
#[test]
fn gossip_converges_within_bounded_rounds() {
    cases(104, 256, |_, rng| {
        let shards = 2 + rng.next_bounded(8) as u32;
        let events = words(rng, 0..12);
        let heartbeat_us = 50u64;
        let config = ShardedConfig {
            shards,
            lease_ttl: SimDuration::from_millis(100),
            heartbeat_every: SimDuration::from_micros(heartbeat_us),
            // A live pair exchanges a direct heartbeat at least once every
            // `shards` periods, so this horizon never flags a live shard.
            suspect_after: SimDuration::from_micros(heartbeat_us * (shards as u64 + 2) + 20),
            gossip_delay: SimDuration::from_micros(10),
            fallback_probes: 2,
        };
        let mut orch = ShardedOrchestrator::new(vec![HostId(0)], config, 3);
        // Random crash/restore schedule, one event per heartbeat period.
        let mut now_us = 0;
        for &word in &events {
            now_us += heartbeat_us;
            orch.advance_to(t(now_us));
            let shard = (word >> 1) as u32 % shards;
            if word % 2 == 0 {
                orch.crash_shard(shard);
            } else {
                orch.restore_shard(shard, t(now_us));
            }
        }
        if orch.alive_shards() == 0 {
            return; // Nobody left to converge.
        }
        // Bounded convergence: enough rounds for a full partner cycle plus
        // the suspicion horizon, stepped at heartbeat granularity.
        let rounds = 2 * (shards as u64 + 2) + 4;
        for _ in 0..rounds {
            now_us += heartbeat_us;
            orch.advance_to(t(now_us));
        }
        assert!(
            orch.health_converged(),
            "live shards disagree after {} rounds (alive={})",
            rounds,
            orch.alive_shards()
        );
    });
}

/// Renewing within the term always succeeds on a healthy plane, and
/// the outcome ladder never invents a lease: an id that was never
/// granted renews as Expired, as does one after its release.
#[test]
fn renewal_ladder_is_sound() {
    cases(105, 256, |_, rng| {
        let id = rng.next_bounded(1000);
        let ticks = 1 + rng.next_bounded(9);
        let mut orch =
            ShardedOrchestrator::new((0..4).map(HostId).collect(), ShardedConfig::default(), 5);
        assert_eq!(orch.renew(id, t(0)), RenewOutcome::Expired);
        orch.select(&IncastRequest {
            id,
            senders: vec![HostId(100)],
            receiver: HostId(200),
            expected_bytes: 10,
        })
        .unwrap();
        let mut now_us = 0;
        for _ in 0..ticks {
            now_us += 2_000; // Well within the 5 ms TTL.
            orch.advance_to(t(now_us));
            assert_eq!(orch.renew(id, t(now_us)), RenewOutcome::Renewed);
        }
        orch.release(id);
        assert_eq!(orch.renew(id, t(now_us)), RenewOutcome::Expired);
        assert_eq!(orch.ledger().active, 0);
        assert!(orch.ledger().balanced());
    });
}
