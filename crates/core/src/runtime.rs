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
//! and periodicity detector from [`crate::detect`], the benefit model
//! from [`crate::predict`], and any [`crate::orchestrator::ProxySelector`].

use crate::detect::{IncastSignatureDetector, PeriodicityDetector, SignatureConfig};
use crate::orchestrator::{IncastRequest, ProxySelector, RenewOutcome};
use crate::predict::{predict, IncastProfile};
use dcsim::det::DetMap;
use dcsim::packet::HostId;
use dcsim::time::{Bandwidth, SimDuration, SimTime};

/// Static context the runtime needs about the deployment.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Inter-datacenter base RTT (for the benefit model).
    pub inter_rtt: SimDuration,
    /// Intra-datacenter base RTT.
    pub intra_rtt: SimDuration,
    /// Bottleneck (down-ToR) bandwidth.
    pub bottleneck: Bandwidth,
    /// Bottleneck buffer in bytes.
    pub bottleneck_buffer: u64,
    /// Tear a reroute down after this many epochs without the signature.
    pub release_after_quiet_epochs: u32,
    /// Epochs of history for periodicity analysis.
    pub history_epochs: usize,
    /// Minimum autocorrelation to trust a predicted period.
    pub min_confidence: f64,
    /// Sim-time length of one observation epoch; positions the epoch
    /// boundary on the selector's clock so leases expire and health
    /// gossip flows in step with the control loop.
    pub epoch_duration: SimDuration,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            inter_rtt: SimDuration::from_millis(4),
            intra_rtt: SimDuration::from_micros(10),
            bottleneck: Bandwidth::gbps(100),
            bottleneck_buffer: 17_015_000,
            release_after_quiet_epochs: 3,
            history_epochs: 64,
            min_confidence: 0.5,
            epoch_duration: SimDuration::from_millis(1),
        }
    }
}

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
pub struct OperatorRuntime<S: ProxySelector> {
    config: RuntimeConfig,
    signature: IncastSignatureDetector,
    /// Per-destination byte history for periodicity analysis.
    periodicity: DetMap<HostId, PeriodicityDetector>,
    /// Per-destination bytes in the current epoch (kept alongside the
    /// signature detector, which consumes its bins).
    epoch_bytes: DetMap<HostId, u64>,
    /// Sources seen per destination this epoch (for the reroute request).
    epoch_sources: DetMap<HostId, Vec<HostId>>,
    /// Datacenter lookup for hosts.
    dc_of: fn(HostId) -> u32,
    selector: S,
    active: DetMap<HostId, ActiveReroute>,
    next_request_id: u64,
    epoch: u64,
}

impl<S: ProxySelector> OperatorRuntime<S> {
    /// Creates a runtime. `dc_of` maps hosts to datacenter ids (the
    /// operator knows its placement); `selector` owns the proxy pool.
    pub fn new(
        config: RuntimeConfig,
        signature: SignatureConfig,
        dc_of: fn(HostId) -> u32,
        selector: S,
    ) -> Self {
        OperatorRuntime {
            config,
            signature: IncastSignatureDetector::new(signature),
            periodicity: DetMap::new(),
            epoch_bytes: DetMap::new(),
            epoch_sources: DetMap::new(),
            dc_of,
            selector,
            active: DetMap::new(),
            next_request_id: 0,
            epoch: 0,
        }
    }

    /// Current epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The proxy selector (for inspecting ledgers and stats).
    pub fn selector(&self) -> &S {
        &self.selector
    }

    /// Mutable selector access — how a harness injects control-plane
    /// faults (shard crashes) between epochs.
    pub fn selector_mut(&mut self) -> &mut S {
        &mut self.selector
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
        let now = SimTime::ZERO + SimDuration(self.config.epoch_duration.0 * self.epoch);
        let mut actions = Vec::new();

        // Lease upkeep first: advance the selector's clock (expiry, health
        // gossip), then renew every active reroute. A selector that leases
        // its assignments (the sharded control plane) may have lost one to
        // a crash or expiry while we slept; a lapsed reroute is torn down
        // here and — if its signature still fires — re-granted below under
        // a fresh request id. Placements reclaimed by a sibling shard keep
        // the same proxy, so the data plane sees nothing.
        self.selector.advance_to(now);
        let mut lapsed = Vec::new();
        for (&dst, reroute) in &self.active {
            match self.selector.renew(reroute.request_id, now) {
                RenewOutcome::Renewed | RenewOutcome::Reclaimed | RenewOutcome::Pending => {}
                RenewOutcome::Expired | RenewOutcome::Unknown => lapsed.push(dst),
            }
        }
        for dst in lapsed {
            self.active.remove(&dst).expect("collected above");
            actions.push(RuntimeAction::Release { destination: dst });
        }

        let incasts = self.signature.end_bin();
        let flagged: DetMap<HostId, usize> =
            incasts.iter().map(|s| (s.destination, s.degree)).collect();

        // Periodicity bookkeeping for every destination we ever saw:
        // active destinations push their epoch bytes, quiet ones a zero
        // (their series must still age for autocorrelation).
        let history = self.config.history_epochs;
        for (&dst, &bytes) in &self.epoch_bytes {
            self.periodicity
                .entry(dst)
                .or_insert_with(|| PeriodicityDetector::new(history))
                .push(bytes);
        }
        for (dst, detector) in self.periodicity.iter_mut() {
            if !self.epoch_bytes.contains_key(dst) {
                detector.push(0);
            }
        }

        // New incasts: decide and allocate.
        for sig in &incasts {
            if self.active.contains_key(&sig.destination) {
                continue;
            }
            let sources = self
                .epoch_sources
                .get(&sig.destination)
                .cloned()
                .unwrap_or_default();
            let Some(&first) = sources.first() else {
                continue;
            };
            let cross_dc = (self.dc_of)(first) != (self.dc_of)(sig.destination);
            if !cross_dc {
                continue;
            }
            let profile = IncastProfile {
                total_bytes: sig.bytes,
                degree: sig.degree,
                inter_rtt: self.config.inter_rtt,
                intra_rtt: self.config.intra_rtt,
                bottleneck: self.config.bottleneck,
                bottleneck_buffer: self.config.bottleneck_buffer,
            };
            let prediction = predict(&profile);
            if !prediction.use_proxy {
                continue;
            }
            let request_id = self.next_request_id;
            self.next_request_id += 1;
            let request = IncastRequest {
                id: request_id,
                senders: sources,
                receiver: sig.destination,
                expected_bytes: sig.bytes,
            };
            if let Some(assignment) = self.selector.select(&request) {
                self.active.insert(
                    sig.destination,
                    ActiveReroute {
                        proxy: assignment.proxy,
                        quiet_epochs: 0,
                        request_id,
                    },
                );
                actions.push(RuntimeAction::Reroute {
                    destination: sig.destination,
                    proxy: assignment.proxy,
                    estimated_reduction: prediction.estimated_reduction,
                });
            }
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
                if let Some(period) = detector.dominant_period(self.config.min_confidence) {
                    let next = detector.next_burst_in(&period, reroute.quiet_epochs as usize);
                    if next <= self.config.release_after_quiet_epochs as usize {
                        actions.push(RuntimeAction::PreArm {
                            destination: dst,
                            epochs: next,
                        });
                        continue;
                    }
                }
            }
            if reroute.quiet_epochs >= self.config.release_after_quiet_epochs {
                to_release.push(dst);
            }
        }
        for dst in to_release {
            let reroute = self.active.remove(&dst).expect("present");
            self.selector.release(reroute.request_id);
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
    use crate::orchestrator::{GlobalOrchestrator, ShardedConfig, ShardedOrchestrator};

    /// Hosts 0..63 are DC 0, 64.. are DC 1 (the standard layout).
    fn dc_of(h: HostId) -> u32 {
        u32::from(h.0 >= 64)
    }

    fn runtime() -> OperatorRuntime<GlobalOrchestrator> {
        let candidates: Vec<HostId> = (32..64).map(HostId).collect();
        OperatorRuntime::new(
            RuntimeConfig {
                release_after_quiet_epochs: 2,
                history_epochs: 64,
                ..Default::default()
            },
            SignatureConfig {
                min_degree: 4,
                min_bytes: 10_000_000,
            },
            dc_of,
            GlobalOrchestrator::new(candidates),
        )
    }

    const EXPERT: HostId = HostId(64);

    fn burst(rt: &mut OperatorRuntime<GlobalOrchestrator>, bytes_per_sender: u64) {
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
                assert_eq!(dc_of(*proxy), 0, "proxy in the senders' DC");
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
        // Two quiet epochs -> release (no periodicity seen yet).
        assert!(rt.end_epoch().is_empty());
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
        rt.end_epoch();
        rt.end_epoch(); // released
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
        // release budget of 2 quiet epochs never trips because the next
        // burst is always predicted within it).
        assert!(
            rt.reroute_of(EXPERT).is_some() || releases <= 2,
            "late-phase releases should stop: {releases}"
        );
    }

    fn sharded_runtime() -> OperatorRuntime<ShardedOrchestrator> {
        let candidates: Vec<HostId> = (32..64).map(HostId).collect();
        OperatorRuntime::new(
            RuntimeConfig {
                // Keep quiet-release out of the picture: these tests watch
                // the lease lifecycle, not the traffic lifecycle.
                release_after_quiet_epochs: 100,
                ..Default::default()
            },
            SignatureConfig {
                min_degree: 4,
                min_bytes: 10_000_000,
            },
            dc_of,
            ShardedOrchestrator::new(candidates, ShardedConfig::default(), 11),
        )
    }

    fn burst_sharded(rt: &mut OperatorRuntime<ShardedOrchestrator>) {
        for w in 0..8u32 {
            rt.observe(HostId(w), EXPERT, 15_000_000);
        }
    }

    #[test]
    fn shard_crash_mid_reroute_heals_by_reclaim() {
        let mut rt = sharded_runtime();
        burst_sharded(&mut rt);
        let actions = rt.end_epoch();
        assert!(matches!(actions[0], RuntimeAction::Reroute { .. }));
        let proxy = rt.reroute_of(EXPERT).unwrap();
        // EXPERT (host 64) is homed on shard 64 % 4 == 0; kill it.
        rt.selector_mut().crash_shard(0);
        for _ in 0..5 {
            burst_sharded(&mut rt);
            let actions = rt.end_epoch();
            assert!(
                !actions
                    .iter()
                    .any(|a| matches!(a, RuntimeAction::Release { .. })),
                "the reroute must survive the crash: {actions:?}"
            );
        }
        assert_eq!(rt.reroute_of(EXPERT), Some(proxy), "placement unchanged");
        assert_eq!(rt.selector().stats().reclaims, 1, "sibling adopted it");
        assert!(rt.selector().ledger().balanced());
    }

    #[test]
    fn total_control_plane_loss_lapses_then_regrants_via_fallback() {
        let mut rt = sharded_runtime();
        burst_sharded(&mut rt);
        rt.end_epoch();
        for shard in 0..4 {
            rt.selector_mut().crash_shard(shard);
        }
        // Renewals park (nobody can adopt), so the 5 ms lease runs out
        // around epoch 6; the runtime tears the lapsed reroute down and —
        // because the incast is still firing — re-grants it in the same
        // epoch through the decentralized fallback (majority dead).
        let mut lapse_epoch = None;
        for _ in 0..8 {
            burst_sharded(&mut rt);
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
        assert!(rt.selector().stats().fallback_selections >= 1);
        assert_eq!(rt.selector().ledger().expired, 1);
        assert!(rt.selector().ledger().balanced());
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
