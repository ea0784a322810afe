//! The sharded, crash-tolerant incast control plane.
//!
//! [`ShardedOrchestrator`] splits the orchestrator's assignment state into
//! shards keyed by victim (receiver) host, so one shard crash orphans only
//! the incasts homed on it. Assignments are [`Lease`]s that expire in sim
//! time unless renewed; shards monitor each other with heartbeat-driven
//! health [`gossip`](super::gossip) and degrade gracefully along a ladder:
//!
//! 1. **Home shard alive** — grant and renew there; the fast path takes the
//!    least-loaded candidate off the root of the [`LoadBook`] heap, and
//!    finds the lease to renew or release in one hash lookup of the
//!    id-keyed [`LeaseTable`]. With `shards: 1` this rung is all there is
//!    while the shard lives: that plane *is* the global orchestrator of
//!    §5 FW#3, and it expires nothing until someone advances its clock.
//! 2. **Home shard dead, gossip converged** — the ring successor suspects
//!    the corpse and serves in its place (takeover); orphaned leases are
//!    adopted one by one as their holders renew.
//! 3. **Home shard dead, gossip not yet converged** — the successor cannot
//!    distinguish a crash from slow gossip, so the request falls back to
//!    decentralized power-of-k probing rather than risking a split brain.
//!    Health reports reach that rung too: the plane forwards every
//!    [`ProxySelector::report_unhealthy`] / `report_healthy` to the
//!    fallback's own book.
//!    Renewals of orphaned leases return [`RenewOutcome::Pending`] until
//!    suspicion firms up.
//! 4. **Majority of shards dead** — the control plane stops pretending:
//!    every request takes the decentralized path until shards restore.
//!
//! A crashed shard's leases are *orphaned* in place ([`Holder::Orphan`];
//! "draining"): still `active` in the global [`LeaseLedger`], but their
//! load and membership view are lost, which is precisely the
//! stale-placement hazard the fuzzer hunts — a fresh grant landing on a
//! proxy that an orphaned lease also pins (a per-proxy count the table
//! keeps, not a scan) is counted as a [`ShardedStats::stale_conflicts`].
//! The ledger balance `granted == released + expired + reclaimed + active`
//! holds after every operation, and `active` drains to zero at quiescence.

use std::collections::{BTreeMap, VecDeque};

use super::gossip::{HealthView, Heartbeat};
use super::lease::{Holder, Lease, LeaseTable, RenewOutcome};
use super::{Assignment, DecentralizedSelector, IncastRequest, LoadBook, ProxySelector};
use dcsim::audit::LeaseLedger;
use dcsim::packet::HostId;
use dcsim::time::{SimDuration, SimTime};

/// Timing and sizing knobs of the sharded control plane.
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Number of shards the assignment state is split into.
    pub shards: u32,
    /// Lease term; a lease not renewed within this window expires.
    pub lease_ttl: SimDuration,
    /// Heartbeat (and piggybacked gossip) period per shard.
    pub heartbeat_every: SimDuration,
    /// Silence horizon after which a shard is suspected dead. Must exceed
    /// `heartbeat_every + gossip_delay` or healthy shards get suspected.
    pub suspect_after: SimDuration,
    /// One-way delivery delay of a heartbeat.
    pub gossip_delay: SimDuration,
    /// Probes per trial of the decentralized fallback.
    pub fallback_probes: usize,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 4,
            lease_ttl: SimDuration::from_millis(5),
            heartbeat_every: SimDuration::from_millis(1),
            suspect_after: SimDuration::from_millis(3),
            gossip_delay: SimDuration::from_micros(200),
            fallback_probes: 2,
        }
    }
}

trace::counters! {
    "incast_core.orchestrator";
    /// Observable behavior counters of the degradation ladder.
    pub struct ShardedStats {
        /// Grants served by a ring successor on behalf of a dead home shard.
        takeovers,
        /// Grants routed to the decentralized fallback (ladder rungs 3–4).
        fallback_selections,
        /// Fresh grants that landed on a proxy also named by a draining lease
        /// (a placement conflict with state a dead shard lost track of).
        stale_conflicts,
        /// Orphaned leases adopted by a live shard on renewal.
        reclaims,
        /// Leases that ran out their term without renewal.
        expirations,
        /// Releases that named no active assignment.
        release_unknown,
    }
}

#[derive(Debug, Clone)]
struct Shard {
    /// Bumped on every restart; stamps the leases this shard grants.
    epoch: u64,
    /// Heartbeats sent since (re)start; cycles the extra gossip partner.
    beats: u64,
    alive: bool,
    view: HealthView,
    next_heartbeat: SimTime,
}

/// Sharded control plane; see the module docs for the design.
#[derive(Debug, Clone)]
pub struct ShardedOrchestrator {
    /// Load per candidate across all shard-held leases (the fallback
    /// keeps its own books), and the health marks.
    book: LoadBook,
    shards: Vec<Shard>,
    /// Every lease, with where it lives: on a live shard, orphaned by a
    /// crashed one (owner recorded for adoption), or on the fallback.
    leases: LeaseTable,
    fallback: DecentralizedSelector,
    in_flight: VecDeque<Heartbeat>,
    ledger: LeaseLedger,
    stats: ShardedStats,
    config: ShardedConfig,
    now: SimTime,
}

impl ShardedOrchestrator {
    /// Creates a sharded control plane over the given candidate set.
    ///
    /// # Panics
    /// Panics on an empty candidate set, duplicates, or zero shards.
    pub fn new(candidates: Vec<HostId>, config: ShardedConfig, seed: u64) -> Self {
        assert!(config.shards > 0, "need at least one shard");
        let shards = (0..config.shards)
            .map(|_| Shard {
                epoch: 1,
                beats: 0,
                alive: true,
                view: HealthView::fresh(config.shards, SimTime::ZERO),
                next_heartbeat: SimTime::ZERO + config.heartbeat_every,
            })
            .collect();
        ShardedOrchestrator {
            fallback: DecentralizedSelector::new(
                candidates.clone(),
                config.fallback_probes,
                seed ^ 0xFA11_BACC,
            ),
            book: LoadBook::new(candidates),
            shards,
            leases: LeaseTable::new(),
            in_flight: VecDeque::new(),
            ledger: LeaseLedger::default(),
            stats: ShardedStats::default(),
            config,
            now: SimTime::ZERO,
        }
    }

    /// The shard a victim's incasts are homed on.
    pub fn shard_of(&self, receiver: HostId) -> u32 {
        receiver.0 % self.config.shards
    }

    /// The global lease ledger (audited by the chaos fuzzer).
    pub fn ledger(&self) -> &LeaseLedger {
        &self.ledger
    }

    /// Degradation-ladder counters.
    pub fn stats(&self) -> ShardedStats {
        self.stats
    }

    /// Number of shards currently alive.
    pub fn alive_shards(&self) -> u32 {
        self.shards.iter().filter(|s| s.alive).count() as u32
    }

    /// Leases orphaned by crashed shards and not yet adopted or expired.
    pub fn draining_leases(&self) -> usize {
        self.leases.orphaned()
    }

    /// True when `id` is currently served by the decentralized fallback
    /// (such claims carry no lease term). Lets a harness model expiry.
    pub fn serves_via_fallback(&self, id: u64) -> bool {
        matches!(self.leases.get(id), Some((Holder::Fallback, _)))
    }

    /// The shards a given live shard currently suspects dead.
    pub fn suspects_of(&self, shard: u32) -> Vec<u32> {
        let s = &self.shards[shard as usize];
        (0..self.config.shards)
            .filter(|&other| {
                other != shard && s.view.suspects(other, self.now, self.config.suspect_after)
            })
            .collect()
    }

    /// True when every live shard suspects exactly the dead shards — the
    /// gossip-converged steady state.
    pub fn health_converged(&self) -> bool {
        let dead: Vec<u32> = (0..self.config.shards)
            .filter(|&s| !self.shards[s as usize].alive)
            .collect();
        (0..self.config.shards)
            .filter(|&s| self.shards[s as usize].alive)
            .all(|s| self.suspects_of(s) == dead)
    }

    fn majority_dead(&self) -> bool {
        (self.alive_shards() as usize) * 2 < self.shards.len()
    }

    /// First live shard on the ring after `from` (exclusive).
    fn successor(&self, from: u32) -> Option<u32> {
        let n = self.config.shards;
        (1..n)
            .map(|step| (from + step) % n)
            .find(|&s| self.shards[s as usize].alive)
    }

    /// Crashes a shard: its leases are orphaned in place (the ledger keeps
    /// them active), its load view and health view die with it.
    pub fn crash_shard(&mut self, shard: u32) {
        let idx = shard as usize;
        if !self.shards[idx].alive {
            return;
        }
        self.shards[idx].alive = false;
        for lease in self.leases.orphan_shard(shard) {
            self.book.sub(lease.proxy, lease.bytes);
        }
    }

    /// Restores a crashed shard under a fresh epoch with a conservative
    /// (suspect-nobody) health view. Its orphaned leases stay orphaned
    /// until their holders renew (adoption) or the term runs out.
    pub fn restore_shard(&mut self, shard: u32, now: SimTime) {
        let idx = shard as usize;
        if self.shards[idx].alive {
            return;
        }
        // Clamped like `advance_to`: a stale `now` would date the fresh
        // view in the past (live peers suspected early) and owe catch-up
        // heartbeats.
        let now = now.max(self.now);
        self.now = now;
        let shards = self.config.shards;
        let heartbeat = self.config.heartbeat_every;
        let s = &mut self.shards[idx];
        s.alive = true;
        s.epoch += 1;
        s.view = HealthView::fresh(shards, now);
        s.next_heartbeat = now + heartbeat;
    }

    fn deliver_due_gossip(&mut self, now: SimTime) {
        while let Some(hb) = self.in_flight.front() {
            if hb.deliver_at > now {
                break;
            }
            let hb = self.in_flight.pop_front().expect("peeked");
            let to = &mut self.shards[hb.to as usize];
            if !to.alive {
                continue; // Delivered to a corpse: dropped on the floor.
            }
            to.view.observe(hb.from, hb.sent_at);
            for (shard, at) in hb.view {
                to.view.observe(shard, at);
            }
        }
    }

    fn expire_due(&mut self, now: SimTime) {
        for (_, (holder, lease)) in self.leases.expire_due(now, &mut self.ledger) {
            // An orphan's load was already written off at the crash.
            if let Holder::Shard(_) = holder {
                self.book.sub(lease.proxy, lease.bytes);
            }
            self.stats.expirations += 1;
        }
    }

    fn send_heartbeats(&mut self, now: SimTime) {
        let n = self.config.shards;
        for idx in 0..self.shards.len() {
            if !self.shards[idx].alive {
                continue;
            }
            // A shard far behind (e.g. the clock jumped past many periods)
            // collapses the backlog into one beat rather than spamming.
            if now
                >= self.shards[idx].next_heartbeat + SimDuration(self.config.heartbeat_every.0 * 8)
            {
                self.shards[idx].next_heartbeat = now;
            }
            while self.shards[idx].next_heartbeat <= now {
                let sent_at = self.shards[idx].next_heartbeat;
                let from = idx as u32;
                self.shards[idx].view.observe(from, sent_at);
                let view = self.shards[idx].view.snapshot();
                // Both ring neighbors (so views flow in either direction
                // even when one neighbor is dead) plus one extra partner
                // cycling deterministically, in id order, through the
                // remaining `n - 3` shards — any live pair exchanges a
                // direct heartbeat at least once every `n` periods, which
                // bounds convergence time even when crashes sever the ring.
                // No allocation: at most three targets, in that order.
                let successor = (from + 1) % n;
                let predecessor = (from + n - 1) % n;
                let ring = [predecessor, from, successor];
                let nth = self.shards[idx].beats % u64::from(n.saturating_sub(3).max(1));
                let extra = (0..n).filter(|s| !ring.contains(s)).nth(nth as usize);
                self.shards[idx].beats += 1;
                let predecessor = Some(predecessor).filter(|&p| p != successor);
                for to in [Some(successor), predecessor, extra].into_iter().flatten() {
                    if to == from {
                        continue; // Single-shard plane: nobody to gossip with.
                    }
                    self.in_flight.push_back(Heartbeat {
                        from,
                        to,
                        sent_at,
                        deliver_at: sent_at + self.config.gossip_delay,
                        view: view.clone(),
                    });
                }
                self.shards[idx].next_heartbeat = sent_at + self.config.heartbeat_every;
            }
        }
    }

    fn grant_at_shard(
        &mut self,
        shard: u32,
        request: &IncastRequest,
        now: SimTime,
    ) -> Option<Assignment> {
        let (proxy, slot) = self.book.least_loaded(request)?;
        let lease = Lease {
            proxy,
            epoch: self.shards[shard as usize].epoch,
            granted_at: now,
            expires_at: now + self.config.lease_ttl,
            bytes: request.expected_bytes,
        };
        self.grant(Holder::Shard(shard), request.id, lease);
        self.book.add_at(slot, request.expected_bytes);
        Some(Assignment { proxy, trials: 1 })
    }

    fn fallback_select(&mut self, request: &IncastRequest) -> Option<Assignment> {
        let assignment = self.fallback.select(request)?;
        // No epoch and no term: `expires_at` is never read.
        let claim = Lease {
            proxy: assignment.proxy,
            epoch: 0,
            granted_at: self.now,
            expires_at: self.now,
            bytes: request.expected_bytes,
        };
        self.grant(Holder::Fallback, request.id, claim);
        self.stats.fallback_selections += 1;
        Some(assignment)
    }

    /// Files a fresh grant and flags it when an orphaned lease pins the
    /// same proxy — a placement the dead owner can no longer coordinate.
    fn grant(&mut self, holder: Holder, id: u64, lease: Lease) {
        self.leases.grant_to(holder, id, lease, &mut self.ledger);
        if self.leases.orphan_pins(lease.proxy) {
            self.stats.stale_conflicts += 1;
        }
    }

    /// Renewal of a lease orphaned by `owner`: the restored owner, or the
    /// ring successor once it suspects the crash, adopts it.
    fn renew_orphan(&mut self, id: u64, owner: u32, orphan: Lease, now: SimTime) -> RenewOutcome {
        let adopter = if self.shards[owner as usize].alive {
            // The owner restored (new epoch) and re-learns the lease from
            // its holder's renewal.
            owner
        } else {
            match self.successor(owner) {
                Some(successor)
                    if self.shards[successor as usize].view.suspects(
                        owner,
                        now,
                        self.config.suspect_after,
                    ) =>
                {
                    successor
                }
                _ => return RenewOutcome::Pending,
            }
        };
        let adopted = Lease {
            epoch: self.shards[adopter as usize].epoch,
            granted_at: now,
            expires_at: now + self.config.lease_ttl,
            ..orphan
        };
        self.leases.adopt(id, adopter, adopted, &mut self.ledger);
        self.book.add(adopted.proxy, adopted.bytes);
        self.stats.reclaims += 1;
        RenewOutcome::Reclaimed
    }

    /// Checks the load book and the lease table each against itself, and
    /// against each other: a proxy's load is the bytes of the leases live
    /// shards hold on it, and the ledger's `active` counts the table.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.book.check_invariants()?;
        self.leases.check_invariants()?;
        let mut held: BTreeMap<HostId, u64> = BTreeMap::new();
        for (_, (holder, lease)) in self.leases.iter() {
            if let Holder::Shard(_) = holder {
                *held.entry(lease.proxy).or_insert(0) += lease.bytes;
            }
        }
        for &c in self.book.candidates() {
            let held = held.get(&c).copied().unwrap_or(0);
            if held != self.book.load_of(c) {
                return Err(format!(
                    "{c} carries {} but live shards hold {held} on it",
                    self.book.load_of(c)
                ));
            }
        }
        if self.ledger.active != self.leases.len() as u64 {
            return Err(format!(
                "ledger counts {} active leases, the table holds {}",
                self.ledger.active,
                self.leases.len()
            ));
        }
        Ok(())
    }
}

impl ProxySelector for ShardedOrchestrator {
    fn select(&mut self, request: &IncastRequest) -> Option<Assignment> {
        // A duplicate id panics where the grant is filed: `LeaseTable`'s one
        // insert is also the "already has a proxy" guard.
        let now = self.now;
        if self.majority_dead() {
            return self.fallback_select(request);
        }
        let home = self.shard_of(request.receiver);
        if self.shards[home as usize].alive {
            return self.grant_at_shard(home, request, now);
        }
        match self.successor(home) {
            Some(successor)
                if self.shards[successor as usize].view.suspects(
                    home,
                    now,
                    self.config.suspect_after,
                ) =>
            {
                let assignment = self.grant_at_shard(successor, request, now);
                if assignment.is_some() {
                    self.stats.takeovers += 1;
                }
                assignment
            }
            // Gossip has not converged on the crash (or no shard is left):
            // rather than grant from a shard that may be wrong, degrade to
            // the coordination-free path.
            _ => self.fallback_select(request),
        }
    }

    fn release(&mut self, id: u64) {
        match self.leases.release(id, &mut self.ledger) {
            Some((Holder::Shard(_), lease)) => self.book.sub(lease.proxy, lease.bytes),
            // The holder finished before anyone adopted the orphan; load
            // was already written off at the crash.
            Some((Holder::Orphan(_), _)) => {}
            Some((Holder::Fallback, _)) => self.fallback.release(id),
            None => self.stats.release_unknown += 1,
        }
    }

    fn load_of(&self, proxy: HostId) -> u64 {
        self.book.load_of(proxy) + self.fallback.load_of(proxy)
    }

    fn report_unhealthy(&mut self, proxy: HostId) {
        self.book.report_unhealthy(proxy);
        self.fallback.report_unhealthy(proxy);
    }

    fn report_healthy(&mut self, proxy: HostId) {
        self.book.report_healthy(proxy);
        self.fallback.report_healthy(proxy);
    }

    fn advance_to(&mut self, now: SimTime) {
        let now = now.max(self.now);
        self.now = now;
        self.deliver_due_gossip(now);
        self.expire_due(now);
        self.send_heartbeats(now);
    }

    fn renew(&mut self, id: u64, now: SimTime) -> RenewOutcome {
        let now = now.max(self.now);
        if self.leases.extend(id, now + self.config.lease_ttl) {
            return RenewOutcome::Renewed;
        }
        match self.leases.get(id) {
            Some(&(Holder::Orphan(owner), orphan)) => self.renew_orphan(id, owner, orphan, now),
            // Fallback claims carry no term (a shard's lease renewed above).
            Some(_) => RenewOutcome::Renewed,
            None => RenewOutcome::Expired,
        }
    }

    fn release_unknown(&self) -> u64 {
        self.stats.release_unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts(n: u32) -> Vec<HostId> {
        (0..n).map(HostId).collect()
    }

    fn request(id: u64, receiver: u32) -> IncastRequest {
        IncastRequest {
            id,
            senders: vec![HostId(100), HostId(101)],
            receiver: HostId(receiver),
            expected_bytes: 100,
        }
    }

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn plane(shards: u32) -> ShardedOrchestrator {
        ShardedOrchestrator::new(
            hosts(8),
            ShardedConfig {
                shards,
                ..ShardedConfig::default()
            },
            42,
        )
    }

    #[test]
    fn grants_home_and_releases_clean() {
        let mut orch = plane(4);
        let a = orch.select(&request(1, 201)).unwrap();
        assert_eq!(orch.shard_of(HostId(201)), 1);
        assert_eq!(orch.load_of(a.proxy), 100);
        assert!(orch.ledger().balanced());
        orch.release(1);
        assert_eq!(orch.load_of(a.proxy), 0);
        assert_eq!(orch.ledger().active, 0);
        assert!(orch.ledger().balanced());
    }

    #[test]
    fn unrenewed_leases_expire() {
        let mut orch = plane(4);
        orch.select(&request(1, 200)).unwrap();
        orch.advance_to(t(10_000)); // Past the 5 ms TTL.
        assert_eq!(orch.ledger().expired, 1);
        assert_eq!(orch.ledger().active, 0);
        assert!(orch.ledger().balanced());
        // The plane keeps no record of a lapsed id: it renews as one it
        // never granted.
        assert_eq!(orch.renew(1, t(10_001)), RenewOutcome::Expired);
        assert_eq!(orch.renew(2, t(10_001)), RenewOutcome::Expired);
        orch.release(1); // The holder's late release is audited, not lost.
        assert_eq!(orch.release_unknown(), 1);
    }

    #[test]
    fn renewal_extends_the_term() {
        let mut orch = plane(4);
        orch.select(&request(1, 200)).unwrap();
        for step in 1..=4u64 {
            orch.advance_to(t(step * 2_000));
            assert_eq!(orch.renew(1, t(step * 2_000)), RenewOutcome::Renewed);
        }
        // 8 ms elapsed, well past the original 5 ms term.
        assert_eq!(orch.ledger().expired, 0);
        assert_eq!(orch.ledger().active, 1);
    }

    #[test]
    fn crash_orphans_then_successor_reclaims_after_gossip() {
        let mut orch = plane(4);
        let a = orch.select(&request(1, 200)).unwrap(); // Home shard 0.
        orch.crash_shard(0);
        assert_eq!(orch.draining_leases(), 1);
        assert_eq!(orch.load_of(a.proxy), 0, "crash loses the load view");
        assert!(orch.ledger().balanced());
        // Before gossip converges the renewal parks.
        assert_eq!(orch.renew(1, t(100)), RenewOutcome::Pending);
        // Let silence accumulate past suspect_after (3 ms) with heartbeats
        // flowing among the survivors — but renew within the 5 ms term:
        // parked (Pending) renewals do not stop the TTL clock.
        for step in 1..=4u64 {
            orch.advance_to(t(step * 1_000));
        }
        assert_eq!(orch.renew(1, t(4_000)), RenewOutcome::Reclaimed);
        assert_eq!(orch.draining_leases(), 0);
        assert_eq!(orch.ledger().reclaimed, 1);
        assert_eq!(orch.load_of(a.proxy), 100, "adoption restores the load");
        assert!(orch.ledger().balanced());
        orch.release(1);
        assert_eq!(orch.ledger().active, 0);
        assert!(orch.ledger().balanced());
    }

    #[test]
    fn dead_home_with_slow_gossip_falls_back() {
        let mut orch = plane(4);
        orch.crash_shard(0);
        // Immediately after the crash nobody suspects shard 0 yet.
        let a = orch.select(&request(1, 200)).unwrap();
        assert_eq!(orch.stats().fallback_selections, 1);
        assert_eq!(orch.stats().takeovers, 0);
        assert!(orch.ledger().balanced());
        orch.release(1);
        assert_eq!(orch.ledger().active, 0);
        let _ = a;
    }

    #[test]
    fn dead_home_with_converged_gossip_takes_over() {
        let mut orch = plane(4);
        orch.crash_shard(0);
        for step in 1..=8u64 {
            orch.advance_to(t(step * 1_000));
        }
        assert!(orch.health_converged());
        orch.select(&request(1, 200)).unwrap();
        assert_eq!(orch.stats().takeovers, 1);
        assert_eq!(orch.stats().fallback_selections, 0);
    }

    #[test]
    fn majority_dead_degrades_to_decentralized() {
        let mut orch = plane(4);
        orch.crash_shard(0);
        orch.crash_shard(1);
        orch.crash_shard(2);
        orch.select(&request(1, 203)).unwrap(); // Home shard 3 is alive...
        assert_eq!(
            orch.stats().fallback_selections,
            1,
            "...but a minority control plane must not pretend to coordinate"
        );
        orch.release(1);
        assert!(orch.ledger().balanced());
        assert_eq!(orch.ledger().active, 0);
    }

    #[test]
    fn restored_owner_reclaims_its_own_orphans() {
        let mut orch = plane(4);
        orch.select(&request(1, 200)).unwrap();
        orch.crash_shard(0);
        orch.restore_shard(0, t(500));
        assert_eq!(orch.renew(1, t(600)), RenewOutcome::Reclaimed);
        assert_eq!(orch.ledger().reclaimed, 1);
        assert!(orch.ledger().balanced());
        // The re-granted lease is stamped with the post-restart epoch.
        let (holder, lease) = orch.leases.get(1).unwrap();
        assert_eq!((*holder, lease.epoch), (Holder::Shard(0), 2));
    }

    #[test]
    fn stale_draining_placement_flags_conflicts() {
        let mut orch = ShardedOrchestrator::new(
            vec![HostId(0)], // One candidate: collisions guaranteed.
            ShardedConfig {
                shards: 2,
                ..ShardedConfig::default()
            },
            7,
        );
        orch.select(&request(1, 200)).unwrap();
        orch.crash_shard(0);
        for step in 1..=8u64 {
            orch.advance_to(t(step * 1_000));
        }
        // Shard 0's lease on host 0 is draining (and by now expired);
        // regrant before expiry would conflict. Re-check within the term:
        let mut orch2 = ShardedOrchestrator::new(
            vec![HostId(0)],
            ShardedConfig {
                shards: 2,
                suspect_after: SimDuration::from_micros(100),
                ..ShardedConfig::default()
            },
            7,
        );
        orch2.select(&request(1, 200)).unwrap();
        orch2.crash_shard(0);
        for step in 1..=4u64 {
            orch2.advance_to(t(step * 500));
        }
        orch2.select(&request(2, 201)).unwrap();
        assert_eq!(orch2.stats().stale_conflicts, 1);
        let _ = orch;
    }

    /// The per-proxy orphan count answers exactly what a scan over every
    /// orphaned lease would, through release, adoption and expiry.
    #[test]
    fn stale_conflicts_match_a_scan_over_a_thousand_orphans() {
        fn pinned_by_scan(orch: &ShardedOrchestrator, proxy: HostId) -> bool {
            orch.leases.iter().any(|(_, (holder, lease))| {
                matches!(holder, Holder::Orphan(_)) && lease.proxy == proxy
            })
        }
        let mut orch = ShardedOrchestrator::new(
            hosts(16),
            ShardedConfig {
                lease_ttl: SimDuration::from_millis(50),
                ..ShardedConfig::default()
            },
            3,
        );
        // 1,200 leases homed on shard 0, all on proxies 0..8.
        for c in 8..16 {
            orch.report_unhealthy(HostId(c));
        }
        for id in 0..1_200 {
            orch.select(&request(id, 200)).unwrap();
        }
        for c in 8..16 {
            orch.report_healthy(HostId(c));
        }
        orch.crash_shard(0);
        assert_eq!(orch.draining_leases(), 1_200);
        let on = |orch: &ShardedOrchestrator, proxy: u32| -> Vec<u64> {
            (0..1_200)
                .filter(|&id| matches!(orch.leases.get(id), Some((_, l)) if l.proxy.0 == proxy))
                .collect()
        };
        let mut next = 1_200;
        let mut expected = 0;
        let mut grant_some = |orch: &mut ShardedOrchestrator, expected: &mut u64| {
            for _ in 0..48 {
                let a = orch.select(&request(next, 201)).unwrap(); // Home shard 1.
                next += 1;
                *expected += pinned_by_scan(orch, a.proxy) as u64;
            }
            assert_eq!(orch.stats().stale_conflicts, *expected);
            orch.check_invariants().unwrap();
        };
        grant_some(&mut orch, &mut expected);
        assert!(expected > 0 && expected < 48, "some pinned, some not");
        // Released orphans stop pinning proxies 0 and 1 ...
        for id in on(&orch, 0).into_iter().chain(on(&orch, 1)) {
            orch.release(id);
        }
        grant_some(&mut orch, &mut expected);
        // ... adopted ones proxy 2 ...
        orch.restore_shard(0, t(100));
        for id in on(&orch, 2) {
            assert_eq!(orch.renew(id, t(100)), RenewOutcome::Reclaimed);
        }
        assert!(!pinned_by_scan(&orch, HostId(2)));
        grant_some(&mut orch, &mut expected);
        // ... and once the rest run out their term nothing conflicts.
        orch.advance_to(t(60_000));
        assert_eq!(orch.draining_leases(), 0);
        let before = expected;
        grant_some(&mut orch, &mut expected);
        assert_eq!(expected, before);
    }

    #[test]
    fn gossip_converges_after_restore() {
        let mut orch = plane(4);
        orch.crash_shard(2);
        for step in 1..=8u64 {
            orch.advance_to(t(step * 1_000));
        }
        assert!(orch.health_converged());
        orch.restore_shard(2, t(8_000));
        for step in 9..=20u64 {
            orch.advance_to(t(step * 1_000));
        }
        assert!(orch.health_converged(), "no shard suspected after heal");
        assert_eq!(orch.suspects_of(0), Vec::<u32>::new());
    }

    #[test]
    fn restore_behind_the_clock_takes_the_planes_time() {
        let mut orch = plane(4);
        orch.crash_shard(2);
        for step in 1..=8u64 {
            orch.advance_to(t(step * 1_000));
        }
        orch.restore_shard(2, t(1_000)); // 7 ms behind the plane's clock.
        assert_eq!(
            orch.suspects_of(2),
            Vec::<u32>::new(),
            "peers heard at 8 ms, not 1 ms"
        );
        assert_eq!(
            orch.shards[2].next_heartbeat,
            t(9_000),
            "no catch-up beats owed"
        );
    }

    #[test]
    #[should_panic(expected = "already has a proxy")]
    fn double_select_panics() {
        let mut orch = plane(2);
        orch.select(&request(1, 200)).unwrap();
        orch.select(&request(1, 200)).unwrap();
    }
}
