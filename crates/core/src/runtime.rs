//! The operator control loop of §6 ("pattern-aware rerouting"),
//! assembled: watch per-destination traffic, detect incast signatures,
//! decide benefit, allocate proxies, pre-arm before predicted bursts,
//! and release when traffic subsides.
//!
//! "The cloud operator can proactively detect incast and route traffic
//! through a local proxy, naturally throttling it before it traverses
//! long-haul links. However, this is extremely challenging, as it demands
//! highly accurate, low-latency detection and near-instantaneous
//! intervention."
//!
//! [`OperatorRuntime`] is epoch-driven: traffic counters stream in via
//! [`OperatorRuntime::observe`]; [`OperatorRuntime::end_epoch`] closes
//! the observation bin and returns the actions the operator should apply
//! (install a reroute, pre-arm one for a predicted burst, or tear one
//! down). All policy pieces are the library's own: the signature detector
//! and periodicity detector from [`crate::detect`], and
//! [`crate::predict::admit`], through which a detected incast enters the
//! [`ShardedOrchestrator`] exactly as a declared one does. The deployment's
//! [`Topology`] answers everything the benefit model asks (datacenters,
//! RTTs, the bottleneck and its buffer); the runtime renews its reroutes'
//! leases on the plane every epoch.

use crate::detect::{IncastSignatureDetector, PeriodicityDetector, SignatureConfig};
use crate::orchestrator::{IncastRequest, ProxySelector, RenewOutcome, ShardedOrchestrator};
use crate::predict::{admit, Routing};
use dcsim::packet::HostId;
use dcsim::time::{SimDuration, SimTime};
use dcsim::topology::Topology;
use std::collections::BTreeMap;

/// Tear a reroute down after this many epochs without the signature.
const RELEASE_AFTER_QUIET_EPOCHS: u32 = 3;
/// Epochs of history for periodicity analysis.
const HISTORY_EPOCHS: usize = 64;
/// Minimum autocorrelation to trust a predicted period.
const MIN_CONFIDENCE: f64 = 0.5;
/// Sim-time length of one observation epoch; positions the epoch boundary
/// on the plane's clock so leases expire and health gossip flows in step
/// with the control loop.
const EPOCH_DURATION: SimDuration = SimDuration::from_millis(1);

/// An action the operator should apply at an epoch boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeAction {
    /// Route traffic toward `destination` through `proxy` from now on.
    Reroute {
        /// The incast destination.
        destination: HostId,
        /// The allocated proxy (in the senders' datacenter).
        proxy: HostId,
        /// The benefit model's estimated completion-time reduction.
        estimated_reduction: f64,
    },
    /// A periodic incast toward `destination` is predicted to fire in
    /// `epochs` epochs; keep its reroute armed.
    PreArm {
        /// The incast destination.
        destination: HostId,
        /// Epochs until the predicted burst.
        epochs: usize,
    },
    /// Tear down the reroute for `destination` (traffic subsided).
    Release {
        /// The incast destination.
        destination: HostId,
    },
}

#[derive(Debug)]
struct ActiveReroute {
    proxy: HostId,
    quiet_epochs: u32,
    request_id: u64,
}

/// The epoch-driven operator control loop.
pub struct OperatorRuntime {
    signature: IncastSignatureDetector,
    /// Per-destination byte history for periodicity analysis.
    periodicity: BTreeMap<HostId, PeriodicityDetector>,
    /// Per-destination bytes in the current epoch (kept alongside the
    /// signature detector, which consumes its bins).
    epoch_bytes: BTreeMap<HostId, u64>,
    /// Sources seen per destination this epoch (for the reroute request).
    epoch_sources: BTreeMap<HostId, Vec<HostId>>,
    topology: Topology,
    plane: ShardedOrchestrator,
    active: BTreeMap<HostId, ActiveReroute>,
    next_request_id: u64,
    epoch: u64,
}

impl OperatorRuntime {
    /// Creates a runtime over the deployment's `topology` (the operator
    /// knows its placement); `plane` owns the proxy pool.
    pub fn new(signature: SignatureConfig, topology: Topology, plane: ShardedOrchestrator) -> Self {
        OperatorRuntime {
            signature: IncastSignatureDetector::new(signature),
            periodicity: BTreeMap::new(),
            epoch_bytes: BTreeMap::new(),
            epoch_sources: BTreeMap::new(),
            topology,
            plane,
            active: BTreeMap::new(),
            next_request_id: 0,
            epoch: 0,
        }
    }

    /// Current epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The control plane (for inspecting ledgers and stats).
    pub fn plane(&self) -> &ShardedOrchestrator {
        &self.plane
    }

    /// Mutable plane access — how a harness injects control-plane faults
    /// (shard crashes) between epochs.
    pub fn plane_mut(&mut self) -> &mut ShardedOrchestrator {
        &mut self.plane
    }

    /// The proxy currently serving `destination`, if rerouted.
    pub fn reroute_of(&self, destination: HostId) -> Option<HostId> {
        self.active.get(&destination).map(|a| a.proxy)
    }

    /// Feeds one traffic observation (src sent `bytes` toward `dst`).
    pub fn observe(&mut self, src: HostId, dst: HostId, bytes: u64) {
        self.signature.record(src, dst, bytes);
        *self.epoch_bytes.entry(dst).or_insert(0) += bytes;
        let sources = self.epoch_sources.entry(dst).or_default();
        if !sources.contains(&src) {
            sources.push(src);
        }
    }

    /// Closes the epoch: returns the actions to apply.
    pub fn end_epoch(&mut self) -> Vec<RuntimeAction> {
        self.epoch += 1;
        let now = SimTime::ZERO + SimDuration(EPOCH_DURATION.0 * self.epoch);
        let mut actions = Vec::new();

        // Lease upkeep first: advance the plane's clock (expiry, health
        // gossip), then renew every active reroute. The plane may have lost
        // one to a crash or expiry while we slept; a lapsed reroute is torn
        // down here and — if its signature still fires — re-granted below
        // under a fresh request id. Placements reclaimed by a sibling shard
        // keep the same proxy, so the data plane sees nothing.
        self.plane.advance_to(now);
        let mut lapsed = Vec::new();
        for (&dst, reroute) in &self.active {
            match self.plane.renew(reroute.request_id, now) {
                RenewOutcome::Renewed | RenewOutcome::Reclaimed | RenewOutcome::Pending => {}
                RenewOutcome::Expired => lapsed.push(dst),
            }
        }
        for dst in lapsed {
            self.active.remove(&dst).expect("collected above");
            actions.push(RuntimeAction::Release { destination: dst });
        }

        let incasts = self.signature.end_bin();
        let flagged: BTreeMap<HostId, usize> =
            incasts.iter().map(|s| (s.destination, s.degree)).collect();

        // Periodicity bookkeeping for every destination we ever saw:
        // active destinations push their epoch bytes, quiet ones a zero
        // (their series must still age for autocorrelation).
        for (&dst, &bytes) in &self.epoch_bytes {
            self.periodicity
                .entry(dst)
                .or_insert_with(|| PeriodicityDetector::new(HISTORY_EPOCHS))
                .push(bytes);
        }
        for (dst, detector) in self.periodicity.iter_mut() {
            if !self.epoch_bytes.contains_key(dst) {
                detector.push(0);
            }
        }

        // New incasts: admit them to the plane. The signature's degree and
        // bytes are this epoch's sources and bytes toward the destination.
        for sig in &incasts {
            if self.active.contains_key(&sig.destination) {
                continue;
            }
            let Some(sources) = self.epoch_sources.get(&sig.destination) else {
                continue;
            };
            let request = IncastRequest {
                id: self.next_request_id,
                senders: sources.clone(),
                receiver: sig.destination,
                expected_bytes: sig.bytes,
            };
            let Some((Routing::ViaProxy(proxy), estimated_reduction)) =
                admit(&self.topology, &mut self.plane, &request)
            else {
                continue;
            };
            self.next_request_id += 1;
            self.active.insert(
                sig.destination,
                ActiveReroute {
                    proxy,
                    quiet_epochs: 0,
                    request_id: request.id,
                },
            );
            actions.push(RuntimeAction::Reroute {
                destination: sig.destination,
                proxy,
                estimated_reduction,
            });
        }

        // Active reroutes: pre-arm on predictions, release when quiet.
        let mut to_release = Vec::new();
        for (&dst, reroute) in &mut self.active {
            if flagged.contains_key(&dst) {
                reroute.quiet_epochs = 0;
                continue;
            }
            reroute.quiet_epochs += 1;
            // Predicted to fire again soon? Keep it armed.
            if let Some(detector) = self.periodicity.get(&dst) {
                if let Some(period) = detector.dominant_period(MIN_CONFIDENCE) {
                    let next = detector.next_burst_in(&period, reroute.quiet_epochs as usize);
                    if next <= RELEASE_AFTER_QUIET_EPOCHS as usize {
                        actions.push(RuntimeAction::PreArm {
                            destination: dst,
                            epochs: next,
                        });
                        continue;
                    }
                }
            }
            if reroute.quiet_epochs >= RELEASE_AFTER_QUIET_EPOCHS {
                to_release.push(dst);
            }
        }
        for dst in to_release {
            let reroute = self.active.remove(&dst).expect("present");
            self.plane.release(reroute.request_id);
            actions.push(RuntimeAction::Release { destination: dst });
        }

        self.epoch_bytes.clear();
        self.epoch_sources.clear();
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::ShardedConfig;
    use dcsim::topology::{two_dc_leaf_spine, TwoDcParams};

    /// A runtime on the standard topology (hosts 0..63 are DC 0, 64.. are
    /// DC 1) whose plane offers the upper half of DC 0 as proxies.
    fn runtime_with(shards: u32) -> OperatorRuntime {
        let config = ShardedConfig {
            shards,
            ..ShardedConfig::default()
        };
        OperatorRuntime::new(
            SignatureConfig {
                min_degree: 4,
                min_bytes: 10_000_000,
            },
            two_dc_leaf_spine(&TwoDcParams::default()),
            ShardedOrchestrator::new((32..64).map(HostId).collect(), config, 11),
        )
    }

    /// Behind the global orchestrator: the plane with one shard.
    fn runtime() -> OperatorRuntime {
        runtime_with(1)
    }

    const EXPERT: HostId = HostId(64);

    fn burst(rt: &mut OperatorRuntime, bytes_per_sender: u64) {
        for w in 0..8u32 {
            rt.observe(HostId(w), EXPERT, bytes_per_sender);
        }
    }

    #[test]
    fn reroutes_large_cross_dc_incast() {
        let mut rt = runtime();
        burst(&mut rt, 15_000_000); // 120 MB total
        let actions = rt.end_epoch();
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            RuntimeAction::Reroute {
                destination,
                proxy,
                estimated_reduction,
            } => {
                assert_eq!(*destination, EXPERT);
                assert!(proxy.0 < 64, "proxy in the senders' DC");
                assert!(*estimated_reduction > 0.0);
            }
            other => panic!("expected reroute, got {other:?}"),
        }
        assert!(rt.reroute_of(EXPERT).is_some());
    }

    #[test]
    fn ignores_small_incasts() {
        let mut rt = runtime();
        burst(&mut rt, 1_500_000); // 12 MB total: signature fires, no benefit
        let actions = rt.end_epoch();
        assert!(actions.is_empty(), "{actions:?}");
        assert!(rt.reroute_of(EXPERT).is_none());
    }

    #[test]
    fn ignores_same_dc_incasts() {
        let mut rt = runtime();
        let local_dst = HostId(20);
        for w in 0..8u32 {
            rt.observe(HostId(w), local_dst, 20_000_000);
        }
        let actions = rt.end_epoch();
        assert!(actions.is_empty(), "{actions:?}");
    }

    #[test]
    fn releases_after_quiet_epochs() {
        let mut rt = runtime();
        burst(&mut rt, 15_000_000);
        rt.end_epoch();
        // RELEASE_AFTER_QUIET_EPOCHS quiet epochs -> release (no
        // periodicity seen yet).
        for _ in 1..RELEASE_AFTER_QUIET_EPOCHS {
            assert!(rt.end_epoch().is_empty());
        }
        let actions = rt.end_epoch();
        assert_eq!(
            actions,
            vec![RuntimeAction::Release {
                destination: EXPERT
            }]
        );
        assert!(rt.reroute_of(EXPERT).is_none());
    }

    #[test]
    fn reroute_again_after_release_reuses_pool() {
        let mut rt = runtime();
        burst(&mut rt, 15_000_000);
        rt.end_epoch();
        for _ in 0..RELEASE_AFTER_QUIET_EPOCHS {
            rt.end_epoch(); // the last one releases
        }
        assert!(rt.reroute_of(EXPERT).is_none());
        burst(&mut rt, 15_000_000);
        let actions = rt.end_epoch();
        assert!(matches!(actions[0], RuntimeAction::Reroute { .. }));
    }

    #[test]
    fn periodic_incast_stays_armed() {
        let mut rt = runtime();
        // Period 4: burst every 4th epoch, for 8 cycles to build history.
        let mut rerouted = false;
        let mut prearms = 0;
        let mut releases = 0;
        for epoch in 0..32 {
            if epoch % 4 == 0 {
                burst(&mut rt, 15_000_000);
            }
            for action in rt.end_epoch() {
                match action {
                    RuntimeAction::Reroute { .. } => rerouted = true,
                    RuntimeAction::PreArm { .. } => prearms += 1,
                    RuntimeAction::Release { .. } => releases += 1,
                }
            }
        }
        assert!(rerouted);
        assert!(
            prearms > 0,
            "periodicity must keep the reroute pre-armed between bursts"
        );
        // Once the period is learned, the reroute should stay armed (the
        // release budget of RELEASE_AFTER_QUIET_EPOCHS never trips because
        // the next burst is always predicted within it).
        assert!(
            rt.reroute_of(EXPERT).is_some() || releases <= 2,
            "late-phase releases should stop: {releases}"
        );
    }

    /// These tests watch the lease lifecycle, not the traffic lifecycle:
    /// the incast fires every epoch, so quiet-release never trips.
    fn sharded_runtime() -> OperatorRuntime {
        runtime_with(4)
    }

    #[test]
    fn shard_crash_mid_reroute_heals_by_reclaim() {
        let mut rt = sharded_runtime();
        burst(&mut rt, 15_000_000);
        let actions = rt.end_epoch();
        assert!(matches!(actions[0], RuntimeAction::Reroute { .. }));
        let proxy = rt.reroute_of(EXPERT).unwrap();
        // EXPERT (host 64) is homed on shard 64 % 4 == 0; kill it.
        rt.plane_mut().crash_shard(0);
        for _ in 0..5 {
            burst(&mut rt, 15_000_000);
            let actions = rt.end_epoch();
            assert!(
                !actions
                    .iter()
                    .any(|a| matches!(a, RuntimeAction::Release { .. })),
                "the reroute must survive the crash: {actions:?}"
            );
        }
        assert_eq!(rt.reroute_of(EXPERT), Some(proxy), "placement unchanged");
        assert_eq!(rt.plane().stats().reclaims, 1, "sibling adopted it");
        assert!(rt.plane().ledger().balanced());
    }

    #[test]
    fn total_control_plane_loss_lapses_then_regrants_via_fallback() {
        let mut rt = sharded_runtime();
        burst(&mut rt, 15_000_000);
        rt.end_epoch();
        for shard in 0..4 {
            rt.plane_mut().crash_shard(shard);
        }
        // Renewals park (nobody can adopt), so the 5 ms lease runs out
        // around epoch 6; the runtime tears the lapsed reroute down and —
        // because the incast is still firing — re-grants it in the same
        // epoch through the decentralized fallback (majority dead).
        let mut lapse_epoch = None;
        for _ in 0..8 {
            burst(&mut rt, 15_000_000);
            let actions = rt.end_epoch();
            if actions
                .iter()
                .any(|a| matches!(a, RuntimeAction::Release { .. }))
            {
                assert!(
                    actions
                        .iter()
                        .any(|a| matches!(a, RuntimeAction::Reroute { .. })),
                    "a still-firing incast must be re-granted immediately: {actions:?}"
                );
                lapse_epoch = Some(rt.epoch());
                break;
            }
        }
        assert!(
            lapse_epoch.is_some(),
            "an unrenewable lease must eventually lapse"
        );
        assert!(rt.reroute_of(EXPERT).is_some(), "re-granted via fallback");
        assert!(rt.plane().stats().fallback_selections >= 1);
        assert_eq!(rt.plane().ledger().expired, 1);
        assert!(rt.plane().ledger().balanced());
    }

    #[test]
    fn concurrent_destinations_get_distinct_proxies() {
        let mut rt = runtime();
        for w in 0..8u32 {
            rt.observe(HostId(w), HostId(64), 15_000_000);
            rt.observe(HostId(w + 8), HostId(65), 15_000_000);
        }
        let actions = rt.end_epoch();
        let proxies: Vec<HostId> = actions
            .iter()
            .filter_map(|a| match a {
                RuntimeAction::Reroute { proxy, .. } => Some(*proxy),
                _ => None,
            })
            .collect();
        assert_eq!(proxies.len(), 2);
        assert_ne!(proxies[0], proxies[1]);
    }
}
