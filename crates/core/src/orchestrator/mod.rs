//! Proxy orchestration across concurrent incasts (§5, Future work #3).
//!
//! "The proxy needs to be selected quickly and avoid contention with other
//! incasts. It can be selected either by a global orchestrator, which
//! requires frequent updates on proxy status, or in a decentralized manner
//! with repeated trials by individual incast."
//!
//! There is one control plane, [`sharded::ShardedOrchestrator`], and both
//! of the paper's designs are configurations of it. Each keeps its
//! per-candidate load in a [`LoadBook`] (an indexed min-heap over
//! `(load, HostId)`, see [`load`]):
//!
//! * **Global** — the plane with `shards: 1`: a central allocator with a
//!   complete load view that picks the least-loaded eligible proxy off the
//!   root of the book's heap (a scan of the heap when the root is
//!   ineligible), zero conflicts by construction. Its leases expire only when its
//!   clock is advanced.
//! * **Sharded** — more shards: state is sharded by victim ToR,
//!   assignments are epoch-stamped [`lease::Lease`]s that expire in sim
//!   time unless renewed, shards exchange [`gossip`] health views
//!   piggybacked on heartbeats, and shard failure degrades gracefully
//!   (sibling takeover when gossip has converged, per-request
//!   decentralized fallback when it has not, wholesale decentralized
//!   fallback when a majority of shards is dead). Every lease lives in one
//!   id-keyed [`lease::LeaseTable`] that records where it is held, so
//!   finding one is a single lookup. A global
//!   [`dcsim::audit::LeaseLedger`] balances
//!   `granted == released + expired + reclaimed + active` at every step.
//! * **Decentralized** — [`DecentralizedSelector`], the plane's last
//!   degradation rung: each incast probes `k` random candidates
//!   (power-of-k-choices) and claims the least loaded; claims can conflict
//!   under stale views, counted and retried.
//!
//! Requests enter the plane through [`crate::predict::admit`], which both
//! §6 front ends (the declaration planner and the operator loop) call.

pub mod gossip;
pub mod lease;
pub mod load;
pub mod sharded;

pub use lease::{Lease, RenewOutcome};
pub use load::{LoadBook, Pick, Slot};
pub use sharded::{ShardedConfig, ShardedOrchestrator, ShardedStats};

use dcsim::det::IdMap;
use dcsim::packet::HostId;
use dcsim::time::SimTime;
use trace::SplitMix64;

/// A request to allocate a proxy for one incast.
#[derive(Debug, Clone)]
pub struct IncastRequest {
    /// Caller-chosen identifier (unique per active incast).
    pub id: u64,
    /// The incast senders; the proxy must not be one of them.
    pub senders: Vec<HostId>,
    /// The remote receiver (informational; never eligible).
    pub receiver: HostId,
    /// Expected total bytes — the load the proxy will carry.
    pub expected_bytes: u64,
}

/// Outcome of a selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// The chosen proxy host.
    pub proxy: HostId,
    /// Probe/claim attempts it took (1 for a grant from a shard).
    pub trials: u32,
}

/// What a selector does: implemented by the plane and by its
/// decentralized rung, so the orchestration ablation drives both through
/// one interface.
pub trait ProxySelector {
    /// Allocates a proxy for `request`, or `None` if no candidate is
    /// eligible.
    fn select(&mut self, request: &IncastRequest) -> Option<Assignment>;

    /// Releases the allocation of a finished incast. Unknown ids are
    /// ignored (release is idempotent).
    fn release(&mut self, id: u64);

    /// Current load (bytes of active incasts) on a proxy candidate.
    fn load_of(&self, proxy: HostId) -> u64;

    /// Marks a proxy as unhealthy (e.g. a sender reported failover away
    /// from it); unhealthy proxies are skipped by future selections until
    /// [`ProxySelector::report_healthy`] clears them. Default: no-op, for
    /// selectors without health tracking.
    fn report_unhealthy(&mut self, _proxy: HostId) {}

    /// Clears an unhealthy mark (e.g. a sender failed back after the proxy
    /// recovered). Default: no-op.
    fn report_healthy(&mut self, _proxy: HostId) {}

    /// Advances the selector's control-plane clock: delivers due gossip,
    /// expires overdue leases, emits heartbeats. Default: no-op, for
    /// selectors without a clock (their assignments never expire).
    fn advance_to(&mut self, _now: SimTime) {}

    /// Renews the lease of a still-running incast. Selectors without
    /// leases hold assignments forever, so the default renewal always
    /// succeeds in place.
    fn renew(&mut self, _id: u64, _now: SimTime) -> RenewOutcome {
        RenewOutcome::Renewed
    }

    /// Number of [`ProxySelector::release`] calls that named an id with no
    /// active assignment — double releases, releases after lease expiry,
    /// or plain bugs. Audited by the control-plane fuzzer: an unexpected
    /// count means an assignment leaked somewhere.
    fn release_unknown(&self) -> u64 {
        0
    }
}

fn eligible(candidate: HostId, request: &IncastRequest) -> bool {
    candidate != request.receiver && !request.senders.contains(&candidate)
}

/// Decentralized selection: probe `k` random candidates, claim the least
/// loaded. A claim conflicts when another incast claimed the same proxy
/// since the probe (modelled by a configurable conflict probability that
/// stands in for update-propagation staleness); conflicts retry with fresh
/// probes, which is the communication overhead the paper warns about.
#[derive(Debug, Clone)]
pub struct DecentralizedSelector {
    book: LoadBook,
    active: IdMap<u64, (HostId, u64)>,
    /// Number of candidates probed per trial (power of k choices).
    probes_per_trial: usize,
    /// Probability that a concurrent claim races ours.
    conflict_probability: f64,
    rng: SplitMix64,
    /// Total conflicts observed (for the orchestration ablation).
    pub conflicts: u64,
    /// Releases that named no active assignment.
    release_unknown: u64,
}

impl DecentralizedSelector {
    /// Creates a selector probing `probes_per_trial` candidates per trial.
    ///
    /// # Panics
    /// Panics on an empty candidate set, duplicates, or
    /// `probes_per_trial == 0`.
    pub fn new(candidates: Vec<HostId>, probes_per_trial: usize, seed: u64) -> Self {
        assert!(probes_per_trial > 0, "need at least one probe per trial");
        DecentralizedSelector {
            book: LoadBook::new(candidates),
            active: IdMap::new(),
            probes_per_trial,
            conflict_probability: 0.0,
            rng: SplitMix64::new(seed),
            conflicts: 0,
            release_unknown: 0,
        }
    }

    /// Sets the probability that a claim races a concurrent incast's claim
    /// and must retry (0.0 ..= 1.0).
    pub fn with_conflict_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.conflict_probability = p;
        self
    }

    /// The least loaded of `probes_per_trial` random draws among the
    /// healthy candidates the request admits.
    fn probe(&mut self, request: &IncastRequest) -> Option<HostId> {
        let admitted = || self.book.admitted(request);
        let count = admitted().count();
        let mut best: Option<HostId> = None;
        for _ in 0..self.probes_per_trial.min(count) {
            let nth = self.rng.next_bounded(count as u64) as usize;
            let pick = admitted().nth(nth).expect("nth < count");
            match best {
                Some(b) if self.book.load_of(pick) >= self.book.load_of(b) => {}
                _ => best = Some(pick),
            }
        }
        best
    }
}

impl ProxySelector for DecentralizedSelector {
    fn select(&mut self, request: &IncastRequest) -> Option<Assignment> {
        assert!(
            self.active.get(&request.id).is_none(),
            "incast {} already has a proxy",
            request.id
        );
        const MAX_TRIALS: u32 = 16;
        for trial in 1..=MAX_TRIALS {
            let proxy = self.probe(request)?;
            // A conflicting concurrent claim forces a retry (except on the
            // final trial, where we accept the contention — liveness over
            // optimality, as a real deployment would).
            if trial < MAX_TRIALS && self.rng.next_f64() < self.conflict_probability {
                self.conflicts += 1;
                continue;
            }
            self.book.add(proxy, request.expected_bytes);
            self.active
                .insert(request.id, (proxy, request.expected_bytes));
            return Some(Assignment {
                proxy,
                trials: trial,
            });
        }
        unreachable!("loop always returns by the final trial");
    }

    fn release(&mut self, id: u64) {
        match self.active.remove(&id) {
            Some((proxy, bytes)) => self.book.sub(proxy, bytes),
            None => self.release_unknown += 1,
        }
    }

    fn load_of(&self, proxy: HostId) -> u64 {
        self.book.load_of(proxy)
    }

    fn report_unhealthy(&mut self, proxy: HostId) {
        self.book.report_unhealthy(proxy);
    }

    fn report_healthy(&mut self, proxy: HostId) {
        self.book.report_healthy(proxy);
    }

    fn release_unknown(&self) -> u64 {
        self.release_unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts(n: u32) -> Vec<HostId> {
        (0..n).map(HostId).collect()
    }

    fn request(id: u64, bytes: u64) -> IncastRequest {
        IncastRequest {
            id,
            senders: vec![HostId(100), HostId(101)],
            receiver: HostId(200),
            expected_bytes: bytes,
        }
    }

    #[test]
    fn unknown_releases_are_counted_not_ignored() {
        let mut sel = DecentralizedSelector::new(hosts(4), 2, 7);
        sel.release(99); // Never assigned.
        assert_eq!(sel.release_unknown(), 1);
        sel.select(&request(1, 10)).unwrap();
        sel.release(1);
        sel.release(1); // Double release.
        assert_eq!(sel.release_unknown(), 2);
    }

    #[test]
    fn decentralized_selects_and_releases() {
        let mut sel = DecentralizedSelector::new(hosts(8), 2, 7);
        let a = sel.select(&request(1, 100)).unwrap();
        assert!(a.proxy.0 < 8);
        assert_eq!(sel.load_of(a.proxy), 100);
        sel.release(1);
        assert_eq!(sel.load_of(a.proxy), 0);
    }

    #[test]
    fn decentralized_conflicts_force_retries() {
        let mut sel = DecentralizedSelector::new(hosts(8), 2, 7).with_conflict_probability(0.5);
        let mut total_trials = 0;
        for id in 0..100 {
            let a = sel.select(&request(id, 10)).unwrap();
            total_trials += a.trials;
        }
        assert!(sel.conflicts > 0, "p=0.5 must cause conflicts");
        // Expected trials per select ≈ 1/(1-p) = 2.
        assert!(total_trials > 120, "trials={total_trials}");
        assert_eq!(sel.conflicts as u32, total_trials - 100);
    }

    #[test]
    fn decentralized_always_terminates_under_certain_conflict() {
        let mut sel = DecentralizedSelector::new(hosts(4), 2, 3).with_conflict_probability(1.0);
        let a = sel.select(&request(1, 10)).unwrap();
        assert_eq!(a.trials, 16, "accepts contention on the final trial");
    }

    #[test]
    fn decentralized_spreads_load_with_two_choices() {
        let mut sel = DecentralizedSelector::new(hosts(16), 2, 11);
        for id in 0..160 {
            sel.select(&request(id, 1)).unwrap();
        }
        let max_load = (0..16).map(|i| sel.load_of(HostId(i))).max().unwrap();
        // Power-of-two-choices keeps the max far below worst-case 160.
        assert!(max_load <= 20, "max_load={max_load}");
    }

    #[test]
    fn every_selector_rejects_duplicate_candidates() {
        let dup = || vec![HostId(1), HostId(2), HostId(1)];
        let panics = |f: &dyn Fn()| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                .err()
                .and_then(|e| e.downcast_ref::<String>().cloned())
                .is_some_and(|msg| msg.contains("duplicate candidates"))
        };
        assert!(panics(&|| drop(DecentralizedSelector::new(dup(), 2, 7))));
        assert!(panics(&|| drop(ShardedOrchestrator::new(
            dup(),
            ShardedConfig::default(),
            7
        ))));
    }

    #[test]
    #[should_panic(expected = "no proxy candidates")]
    fn empty_candidates_panics() {
        DecentralizedSelector::new(vec![], 2, 7);
    }
}
