//! Deterministic health gossip between orchestrator shards.
//!
//! Shards learn about each other exclusively through heartbeats: each live
//! shard periodically sends its whole health view (a map from shard id to
//! the latest sim time it is known to have been alive) to its ring
//! successor plus one seed-derived extra partner. Views merge by taking
//! the per-shard maximum, so information only ever moves forward in time
//! and convergence needs no coordination. A shard whose freshest known
//! timestamp is older than `suspect_after` is *suspected* — the failure
//! detector that gates lease takeover in
//! [`super::sharded::ShardedOrchestrator`].
//!
//! Everything is sim-clocked and deterministic: messages travel with a
//! constant configured delay, are delivered in send order, and no wall
//! clock or ambient randomness is consulted anywhere.
//!
//! Shard ids are dense (`0..shards`), so a view is a vector indexed by
//! shard.

use dcsim::time::{SimDuration, SimTime};

/// What one shard believes about the liveness of all shards.
#[derive(Debug, Clone, Default)]
pub struct HealthView {
    /// Freshest sim time each shard is known to have been alive, by shard
    /// id; `None` for a shard never heard from.
    last_heard: Vec<Option<SimTime>>,
}

impl HealthView {
    /// A view that heard from every one of `shards` at `now` — the
    /// conservative starting point of a fresh or restarted shard (suspect
    /// nobody until silence accumulates).
    pub fn fresh(shards: u32, now: SimTime) -> Self {
        HealthView {
            last_heard: vec![Some(now); shards as usize],
        }
    }

    /// Records direct evidence that `shard` was alive at `at`.
    pub fn observe(&mut self, shard: u32, at: SimTime) {
        let idx = shard as usize;
        if idx >= self.last_heard.len() {
            self.last_heard.resize(idx + 1, None);
        }
        let slot = &mut self.last_heard[idx];
        *slot = (*slot).max(Some(at));
    }

    /// Merges a peer's view: per-shard maximum of the two.
    pub fn merge(&mut self, other: &HealthView) {
        for (shard, at) in other.heard() {
            self.observe(shard, at);
        }
    }

    /// Freshest known liveness timestamp for `shard`.
    pub fn last_heard(&self, shard: u32) -> Option<SimTime> {
        self.last_heard.get(shard as usize).copied().flatten()
    }

    /// True when this view has heard nothing from `shard` for longer than
    /// `suspect_after`.
    pub fn suspects(&self, shard: u32, now: SimTime, suspect_after: SimDuration) -> bool {
        match self.last_heard(shard) {
            Some(at) => now > at + suspect_after,
            None => true,
        }
    }

    /// Snapshot of the view as (shard, last_heard) pairs in shard order —
    /// the payload a heartbeat carries.
    pub fn snapshot(&self) -> Vec<(u32, SimTime)> {
        self.heard().collect()
    }

    /// The shards heard from, in shard order, with when.
    fn heard(&self) -> impl Iterator<Item = (u32, SimTime)> + '_ {
        self.last_heard
            .iter()
            .enumerate()
            .filter_map(|(shard, at)| Some((shard as u32, (*at)?)))
    }
}

/// One heartbeat in flight between shards.
#[derive(Debug, Clone)]
pub struct Heartbeat {
    /// Sending shard.
    pub from: u32,
    /// Receiving shard.
    pub to: u32,
    /// Send time (doubles as the sender's liveness proof).
    pub sent_at: SimTime,
    /// Delivery time (`sent_at` + the configured gossip delay).
    pub deliver_at: SimTime,
    /// The sender's full health view, piggybacked.
    pub view: Vec<(u32, SimTime)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn merge_takes_the_maximum() {
        let mut a = HealthView::fresh(3, t(0));
        let mut b = HealthView::fresh(3, t(0));
        a.observe(1, t(50));
        b.observe(1, t(20));
        b.observe(2, t(70));
        a.merge(&b);
        assert_eq!(a.last_heard(1), Some(t(50)), "merge never rewinds");
        assert_eq!(a.last_heard(2), Some(t(70)));
    }

    #[test]
    fn silence_grows_into_suspicion() {
        let mut view = HealthView::fresh(2, t(0));
        let horizon = SimDuration::from_micros(100);
        assert!(!view.suspects(1, t(100), horizon), "exactly at horizon");
        assert!(view.suspects(1, t(101), horizon));
        view.observe(1, t(90));
        assert!(!view.suspects(1, t(101), horizon), "fresh evidence clears");
    }

    #[test]
    fn unknown_shards_are_suspect() {
        let view = HealthView::default();
        assert!(view.suspects(0, t(0), SimDuration::from_micros(1)));
    }
}
