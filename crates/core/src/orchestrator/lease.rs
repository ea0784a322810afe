//! Epoch-stamped proxy leases, and the one table that holds them.
//!
//! A sharded control plane cannot hand out permanent assignments: a shard
//! that crashes takes its assignment state with it, and a permanent
//! assignment nobody remembers is a leak (the proxy's capacity is gone
//! until a human notices). Leases bound that damage in sim time — an
//! assignment the holder stops renewing becomes reclaimable the moment it
//! expires, no matter which shard granted it or whether that shard still
//! exists.
//!
//! Every lease is stamped with the granting shard's epoch (bumped on each
//! restart), so a lease surviving from before a crash is distinguishable
//! from one granted after. Ledger entries flow through
//! [`dcsim::audit::LeaseLedger`], the audit-layer balance
//! `granted == released + expired + reclaimed + active` that the chaos
//! fuzzer checks after every operation.
//!
//! [`LeaseTable`] is keyed by incast id alone; *where* a lease lives — a
//! live shard, the orphans of a crashed one, the decentralized fallback —
//! is the [`Holder`] stored beside it. An id resolves in one lookup
//! whatever has happened to its shard, and a crash or an adoption flips
//! the holder of an entry in place instead of moving the entry between
//! tables. The table also counts orphaned leases per proxy, so "does a
//! stale placement pin this proxy?" never scans.
//!
//! The leases sit in a [`dcsim::det::IdMap`], a hash table: grant,
//! extend, release and the lookup behind every renewal are one hash probe
//! each. What needs more than one lease at a time — the leases a crash
//! orphans, the leases due to expire, [`LeaseTable::iter`] — sorts their
//! ids and works in id order, at crash, expiry and audit time only.

use dcsim::audit::LeaseLedger;
use dcsim::det::IdMap;
use dcsim::packet::HostId;
use dcsim::time::SimTime;
use std::collections::BTreeMap;

/// One proxy assignment with an expiry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// The proxy host the incast was steered to.
    pub proxy: HostId,
    /// Granting shard's epoch at grant (or re-grant) time.
    pub epoch: u64,
    /// When the lease was granted.
    pub granted_at: SimTime,
    /// When it lapses unless renewed.
    pub expires_at: SimTime,
    /// Load the assignment pins on the proxy.
    pub bytes: u64,
}

/// Result of a renewal attempt against the sharded control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RenewOutcome {
    /// The owning shard extended the lease in place.
    Renewed,
    /// The owner is gone; a sibling (or the restored owner under a new
    /// epoch) re-granted the lease. The placement is unchanged but the
    /// holder should treat it as fresh.
    Reclaimed,
    /// The owner is gone and no live shard suspects it yet — gossip has
    /// not converged. The lease still counts as active (draining); the
    /// holder should retry next epoch.
    Pending,
    /// The plane holds no lease under this id: it ran out, was released,
    /// or was never granted. The holder must request a fresh selection.
    Expired,
}

/// Where a lease lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Holder {
    /// Held by this live shard: its bytes are on the load book and it
    /// renews in place.
    Shard(u32),
    /// Orphaned by the crash of this shard: still `active` in the ledger,
    /// but its load was written off with the crash. Adopted when its holder
    /// renews, else expired at the end of its term.
    Orphan(u32),
    /// Served by the decentralized fallback, which keeps its own books;
    /// such a claim carries no term and never expires.
    Fallback,
}

/// Every lease of the control plane, by incast id. All mutations feed the
/// shared ledger so the global balance holds however leases change hands.
#[derive(Debug, Clone, Default)]
pub struct LeaseTable {
    leases: IdMap<u64, (Holder, Lease)>,
    /// Orphaned leases per proxy; a proxy with none has no entry (so this
    /// is empty on a healthy plane).
    orphans_on: BTreeMap<HostId, usize>,
    /// A lower bound on the earliest expiry of a lease that has a term
    /// (not a fallback claim): [`LeaseTable::expire_due`] skips its scan
    /// while the clock is below it. Every site that sets an expiry lowers
    /// it; removals leave it, since a lower bound stays one.
    next_expiry: SimTime,
}

impl LeaseTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live leases in this table.
    pub fn len(&self) -> usize {
        self.leases.len()
    }

    /// True when no leases are held.
    pub fn is_empty(&self) -> bool {
        self.leases.is_empty()
    }

    /// The lease for `id` and where it lives, if the table holds it.
    pub fn get(&self, id: u64) -> Option<&(Holder, Lease)> {
        self.leases.get(&id)
    }

    /// Number of orphaned leases.
    pub fn orphaned(&self) -> usize {
        self.orphans_on.values().sum()
    }

    /// True when an orphaned lease pins `proxy` — a fresh grant there may
    /// contend with a placement the dead owner can no longer coordinate.
    pub fn orphan_pins(&self, proxy: HostId) -> bool {
        self.orphans_on.contains_key(&proxy)
    }

    /// Records a fresh grant held by shard 0 (a single-shard table).
    ///
    /// # Panics
    /// As [`LeaseTable::grant_to`].
    pub fn grant(&mut self, id: u64, lease: Lease, ledger: &mut LeaseLedger) {
        self.grant_to(Holder::Shard(0), id, lease, ledger);
    }

    /// Records a fresh grant held by `holder` (a shard or the fallback).
    ///
    /// # Panics
    /// Panics if `id` already holds a lease: this insert is the sharded
    /// plane's "already has a proxy" guard, so a select costs one lookup.
    pub fn grant_to(&mut self, holder: Holder, id: u64, lease: Lease, ledger: &mut LeaseLedger) {
        debug_assert!(
            !matches!(holder, Holder::Orphan(_)),
            "orphans are made by crashes"
        );
        let prior = self.leases.insert(id, (holder, lease));
        assert!(prior.is_none(), "incast {id} already has a proxy");
        if holder != Holder::Fallback {
            self.next_expiry = self.next_expiry.min(lease.expires_at);
        }
        ledger.granted += 1;
        ledger.active += 1;
    }

    /// Orphans every lease `shard` holds (shard crash), in id order, and
    /// returns them so the caller can write off their load. The leases stay
    /// `active` in the ledger — they are not gone, merely orphaned.
    pub fn orphan_shard(&mut self, shard: u32) -> Vec<Lease> {
        let held = self
            .leases
            .sorted_keys_where(|&(holder, _)| holder == Holder::Shard(shard));
        held.into_iter()
            .map(|id| {
                let (holder, lease) = self.leases.get_mut(&id).expect("collected above");
                *holder = Holder::Orphan(shard);
                *self.orphans_on.entry(lease.proxy).or_insert(0) += 1;
                *lease
            })
            .collect()
    }

    /// Re-homes an orphaned lease on shard `adopter`: the old grant is
    /// retired as `reclaimed` and `lease` (same proxy, the adopter's epoch,
    /// a fresh term) is granted in its place.
    ///
    /// # Panics
    /// Panics if `id` is not an orphaned lease.
    pub fn adopt(&mut self, id: u64, adopter: u32, lease: Lease, ledger: &mut LeaseLedger) {
        let entry = self.leases.get_mut(&id).expect("adopting an unknown lease");
        assert!(
            matches!(entry.0, Holder::Orphan(_)),
            "adopting a lease that is not orphaned"
        );
        let proxy = entry.1.proxy;
        *entry = (Holder::Shard(adopter), lease);
        self.forget_orphan(proxy);
        self.next_expiry = self.next_expiry.min(lease.expires_at);
        ledger.reclaimed += 1;
        ledger.granted += 1;
    }

    fn forget_orphan(&mut self, proxy: HostId) {
        let count = self.orphans_on.get_mut(&proxy).expect("counted orphan");
        *count -= 1;
        if *count == 0 {
            self.orphans_on.remove(&proxy);
        }
    }

    /// Extends `id`'s lease to `expires_at` if a live shard holds it; false
    /// when the table has no such lease, or has it orphaned (it must be
    /// adopted first) or on the fallback (no term to extend).
    pub fn extend(&mut self, id: u64, expires_at: SimTime) -> bool {
        match self.leases.get_mut(&id) {
            Some((Holder::Shard(_), lease)) => {
                lease.expires_at = expires_at;
                self.next_expiry = self.next_expiry.min(expires_at);
                true
            }
            _ => false,
        }
    }

    /// Releases `id`'s lease, returning it and where it lived; `None` if
    /// the table does not hold it.
    pub fn release(&mut self, id: u64, ledger: &mut LeaseLedger) -> Option<(Holder, Lease)> {
        let (holder, lease) = self.leases.remove(&id)?;
        if let Holder::Orphan(_) = holder {
            self.forget_orphan(lease.proxy);
        }
        ledger.released += 1;
        ledger.active -= 1;
        Some((holder, lease))
    }

    /// Removes and returns, in id order, every lease due at or before
    /// `now`, marking them expired in the ledger. Fallback claims carry no
    /// term and are never due. Before the earliest expiry this is one
    /// comparison; otherwise one pass to collect the due ids (then sorted),
    /// and one to find the next expiry.
    pub fn expire_due(
        &mut self,
        now: SimTime,
        ledger: &mut LeaseLedger,
    ) -> Vec<(u64, (Holder, Lease))> {
        if now < self.next_expiry {
            return Vec::new();
        }
        let has_term = |holder: Holder| holder != Holder::Fallback;
        let due = self
            .leases
            .sorted_keys_where(|&(holder, lease)| has_term(holder) && lease.expires_at <= now);
        self.next_expiry = self
            .leases
            .min_of(|&(holder, lease)| {
                (has_term(holder) && lease.expires_at > now).then_some(lease.expires_at)
            })
            .unwrap_or(SimTime(u64::MAX));
        due.into_iter()
            .map(|id| {
                let (holder, lease) = self.leases.remove(&id).expect("collected above");
                if let Holder::Orphan(_) = holder {
                    self.forget_orphan(lease.proxy);
                }
                ledger.expired += 1;
                ledger.active -= 1;
                (id, (holder, lease))
            })
            .collect()
    }

    /// Every held lease, in id order (a sort: audit time, not a
    /// per-decision path).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &(Holder, Lease))> {
        self.leases.sorted().into_iter()
    }

    /// Checks the orphan counts against the entries: per proxy they equal
    /// the orphaned leases actually held, and no proxy is filed with a zero
    /// count. Also checks that no lease with a term expires before the
    /// bound [`LeaseTable::expire_due`] trusts.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut counted: BTreeMap<HostId, usize> = BTreeMap::new();
        for (id, (holder, lease)) in self.iter() {
            if let Holder::Orphan(_) = holder {
                *counted.entry(lease.proxy).or_insert(0) += 1;
            }
            if *holder != Holder::Fallback && lease.expires_at < self.next_expiry {
                return Err(format!(
                    "lease {id} expires at {:?}, before the bound {:?}",
                    lease.expires_at, self.next_expiry
                ));
            }
        }
        if counted != self.orphans_on {
            return Err(format!(
                "orphans per proxy {:?}, but the entries say {counted:?}",
                self.orphans_on
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lease(expires_at: u64) -> Lease {
        Lease {
            proxy: HostId(3),
            epoch: 1,
            granted_at: SimTime(0),
            expires_at: SimTime(expires_at),
            bytes: 100,
        }
    }

    #[test]
    fn grant_release_balances() {
        let mut table = LeaseTable::new();
        let mut ledger = LeaseLedger::default();
        table.grant(7, lease(1000), &mut ledger);
        assert!(ledger.balanced());
        assert_eq!(ledger.active, 1);
        assert!(table.release(7, &mut ledger).is_some());
        assert!(ledger.balanced());
        assert_eq!(ledger.active, 0);
        assert_eq!(ledger.released, 1);
        assert!(table.release(7, &mut ledger).is_none(), "idempotent");
        assert!(ledger.balanced());
    }

    #[test]
    fn expiry_is_time_driven() {
        let mut table = LeaseTable::new();
        let mut ledger = LeaseLedger::default();
        table.grant(1, lease(1000), &mut ledger);
        table.grant(2, lease(2000), &mut ledger);
        assert!(table.expire_due(SimTime(999), &mut ledger).is_empty());
        let due = table.expire_due(SimTime(1000), &mut ledger);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].0, 1);
        assert_eq!(ledger.expired, 1);
        assert_eq!(ledger.active, 1);
        assert!(ledger.balanced());
        assert!(table.extend(2, SimTime(5000)));
        assert!(table.expire_due(SimTime(2000), &mut ledger).is_empty());
    }

    #[test]
    fn crash_keeps_leases_active_and_adopt_reclaims() {
        let mut table = LeaseTable::new();
        let mut ledger = LeaseLedger::default();
        table.grant_to(Holder::Shard(2), 1, lease(1000), &mut ledger);
        table.grant_to(Holder::Shard(3), 2, lease(1000), &mut ledger);
        assert!(!table.orphan_pins(HostId(3)));
        let orphans = table.orphan_shard(2);
        assert_eq!(orphans, vec![lease(1000)], "only shard 2's lease");
        assert_eq!(table.get(1).unwrap().0, Holder::Orphan(2));
        assert_eq!(table.get(2).unwrap().0, Holder::Shard(3));
        assert_eq!(table.orphaned(), 1);
        assert!(table.orphan_pins(HostId(3)));
        assert_eq!(ledger.active, 2, "orphaned is not terminal");
        assert!(ledger.balanced());
        assert!(!table.extend(1, SimTime(5000)), "adopt before extending");
        let adopted = Lease {
            epoch: 4,
            ..lease(2000)
        };
        table.adopt(1, 3, adopted, &mut ledger);
        assert_eq!(table.get(1), Some(&(Holder::Shard(3), adopted)));
        assert!(!table.orphan_pins(HostId(3)));
        assert_eq!(table.orphaned(), 0);
        assert!(ledger.balanced());
        assert_eq!(ledger.reclaimed, 1);
        assert_eq!(ledger.granted, 3, "reclaim re-grants");
        assert_eq!(ledger.active, 2);
        table.check_invariants().unwrap();
    }

    #[test]
    fn orphans_leave_the_count_however_they_end() {
        let mut table = LeaseTable::new();
        let mut ledger = LeaseLedger::default();
        for id in 0..3 {
            table.grant_to(Holder::Shard(1), id, lease(1000 + id), &mut ledger);
        }
        table.grant_to(Holder::Fallback, 9, lease(0), &mut ledger);
        assert_eq!(table.orphan_shard(1).len(), 3);
        table.check_invariants().unwrap();
        // One released, one expired, one left pinning the proxy.
        assert_eq!(table.release(0, &mut ledger).unwrap().0, Holder::Orphan(1));
        let due = table.expire_due(SimTime(1001), &mut ledger);
        assert_eq!(due.len(), 1, "the fallback claim has no term to run out");
        assert_eq!(due[0].0, 1);
        assert_eq!(table.orphaned(), 1);
        assert!(table.orphan_pins(HostId(3)));
        table.check_invariants().unwrap();
        assert!(table.release(2, &mut ledger).is_some());
        assert!(!table.orphan_pins(HostId(3)));
        assert_eq!(table.len(), 1);
        assert!(ledger.balanced());
        table.check_invariants().unwrap();
    }

    /// The table hashes its ids, but every view over several leases still
    /// comes out in id order, whatever order the grants arrived in.
    #[test]
    fn ordered_views_are_in_id_order_whatever_the_grant_order() {
        let mut ids: Vec<u64> = (0..40u64).map(|k| k << 32 | k).collect();
        ids.extend([1 << 63, u64::MAX]);
        let mut descending = ids.clone();
        descending.reverse();
        let mut scrambled = ids.clone();
        scrambled.sort_by_key(|&id| trace::SplitMix64::new(id).next_u64());
        let in_order = |keep: &dyn Fn(u64) -> bool| -> Vec<u64> {
            ids.iter().copied().filter(|&id| keep(id)).collect()
        };
        for order in [descending, scrambled] {
            let mut table = LeaseTable::new();
            let mut ledger = LeaseLedger::default();
            for &id in &order {
                // The lease's bytes name its id; a third of the terms run
                // out first.
                let lease = Lease {
                    bytes: id,
                    ..lease(1000 + 500 * u64::from(id % 3 != 0))
                };
                table.grant_to(Holder::Shard((id % 2) as u32), id, lease, &mut ledger);
            }
            let listed: Vec<u64> = table.iter().map(|(id, _)| id).collect();
            assert_eq!(listed, ids);
            let orphaned: Vec<u64> = table.orphan_shard(1).iter().map(|l| l.bytes).collect();
            assert_eq!(orphaned, in_order(&|id| id % 2 == 1));
            let due: Vec<u64> = table
                .expire_due(SimTime(1000), &mut ledger)
                .iter()
                .map(|&(id, (_, lease))| {
                    assert_eq!(lease.bytes, id);
                    id
                })
                .collect();
            assert_eq!(due, in_order(&|id| id % 3 == 0));
            table.check_invariants().unwrap();
            assert!(ledger.balanced());
        }
    }

    #[test]
    #[should_panic(expected = "already has a proxy")]
    fn double_grant_panics() {
        let mut table = LeaseTable::new();
        let mut ledger = LeaseLedger::default();
        table.grant(1, lease(1000), &mut ledger);
        table.grant(1, lease(1000), &mut ledger);
    }
}
