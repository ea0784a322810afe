//! Workload generation beyond the single incast: background traffic.
//!
//! The paper's evaluation runs incasts on an otherwise idle network; its
//! production motivation (§2) is datacenters full of other traffic. This
//! module generates that other traffic so experiments can check that the
//! proxy's benefit survives realistic conditions: random pairwise flows
//! with heavy-tailed sizes and staggered starts.

use crate::flows::{install_flow, FlowHandle, FlowSpec};
use crate::packet::HostId;
use crate::sim::Simulator;
use crate::time::{SimDuration, SimTime};
use trace::{derive_seed, SplitMix64};

/// Draws one background flow size from a coarse web-search-style mix:
/// 60% mice (≤100 KB), 30% medium (≤1 MB), 10% elephants (≤10 MB),
/// log-uniform within each band.
fn web_search_size(rng: &mut SplitMix64) -> u64 {
    let band = rng.next_f64();
    if band < 0.6 {
        log_uniform(rng, 10_000, 100_000)
    } else if band < 0.9 {
        log_uniform(rng, 100_000, 1_000_000)
    } else {
        log_uniform(rng, 1_000_000, 10_000_000)
    }
}

/// Log-uniform between the bounds (heavy-tailed-ish, the standard
/// stand-in for datacenter flow-size distributions).
fn log_uniform(rng: &mut SplitMix64, min: u64, max: u64) -> u64 {
    assert!(min >= 1 && max >= min, "invalid size bounds");
    let (ln_min, ln_max) = ((min as f64).ln(), (max as f64).ln());
    (ln_min + rng.next_f64() * (ln_max - ln_min)).exp() as u64
}

/// A batch of random background flows, web-search sized (`web_search_size`).
#[derive(Debug, Clone)]
pub struct BackgroundTraffic {
    /// Number of flows to create.
    pub flows: usize,
    /// Starts are uniform in `[0, start_window)`.
    pub start_window: SimDuration,
    /// Hosts allowed as endpoints (e.g. exclude the incast participants).
    pub hosts: Vec<HostId>,
    /// Base seed (flow `i` derives its own stream).
    pub seed: u64,
}

impl BackgroundTraffic {
    /// Installs the flows; returns their handles (completion of each is
    /// recorded in the simulator metrics as usual).
    ///
    /// # Panics
    /// Panics with fewer than two candidate hosts.
    pub fn install(&self, sim: &mut Simulator) -> Vec<FlowHandle> {
        assert!(self.hosts.len() >= 2, "need at least two hosts");
        let mut rng = SplitMix64::new(derive_seed(self.seed, 0xBA5E));
        let mut handles = Vec::with_capacity(self.flows);
        for _ in 0..self.flows {
            let src = self.hosts[rng.next_bounded(self.hosts.len() as u64) as usize];
            let dst = loop {
                let d = self.hosts[rng.next_bounded(self.hosts.len() as u64) as usize];
                if d != src {
                    break d;
                }
            };
            let bytes = web_search_size(&mut rng);
            let start =
                SimTime::ZERO + SimDuration((self.start_window.0 as f64 * rng.next_f64()) as u64);
            handles.push(install_flow(sim, FlowSpec::new(src, dst, bytes), start));
        }
        handles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::StopReason;
    use crate::topology::{two_dc_leaf_spine, TwoDcParams};

    #[test]
    fn log_uniform_respects_bounds() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..10_000 {
            let v = log_uniform(&mut rng, 100, 10_000);
            assert!((100..=10_000).contains(&v), "v={v}");
        }
    }

    #[test]
    fn websearch_mix_is_mostly_mice() {
        let mut rng = SplitMix64::new(2);
        let sizes: Vec<u64> = (0..10_000).map(|_| web_search_size(&mut rng)).collect();
        let mice = sizes.iter().filter(|&&s| s <= 100_000).count();
        let elephants = sizes.iter().filter(|&&s| s > 1_000_000).count();
        assert!((5000..7000).contains(&mice), "mice={mice}");
        assert!((600..1400).contains(&elephants), "elephants={elephants}");
    }

    #[test]
    fn background_flows_complete() {
        let topo = two_dc_leaf_spine(&TwoDcParams::small_test());
        let mut sim = Simulator::new(topo, 3);
        let hosts: Vec<HostId> = (0..16).map(HostId).collect();
        let handles = BackgroundTraffic {
            flows: 20,
            start_window: SimDuration::from_millis(1),
            hosts,
            seed: 9,
        }
        .install(&mut sim);
        assert_eq!(handles.len(), 20);
        let report = sim.run(Some(SimTime::ZERO + SimDuration::from_secs(60)));
        assert_eq!(report.stop, StopReason::Idle);
        for h in &handles {
            assert!(sim.metrics().completion(h.flow).is_some());
        }
    }

    #[test]
    fn background_is_deterministic() {
        let sizes = |seed: u64| {
            let topo = two_dc_leaf_spine(&TwoDcParams::small_test());
            let mut sim = Simulator::new(topo, 1);
            BackgroundTraffic {
                flows: 10,
                start_window: SimDuration::from_millis(1),
                hosts: (0..8).map(HostId).collect(),
                seed,
            }
            .install(&mut sim)
            .iter()
            .map(|h| h.packets)
            .collect::<Vec<_>>()
        };
        assert_eq!(sizes(5), sizes(5));
        assert_ne!(sizes(5), sizes(6));
    }

    #[test]
    #[should_panic(expected = "at least two hosts")]
    fn single_host_panics() {
        let topo = two_dc_leaf_spine(&TwoDcParams::small_test());
        let mut sim = Simulator::new(topo, 1);
        BackgroundTraffic {
            flows: 1,
            start_window: SimDuration::ZERO,
            hosts: vec![HostId(0)],
            seed: 1,
        }
        .install(&mut sim);
    }
}
