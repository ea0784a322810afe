//! Flow installation helpers: wire a sender and a receiver into the
//! simulator with path-derived congestion-control parameters.

use crate::packet::{AgentId, FlowId, HostId, DATA_PKT_SIZE, HEADER_SIZE};
use crate::protocol::{packets_for_bytes, CcConfig, Dctcp, RateCcConfig, Receiver, Sender};
use crate::sim::Simulator;
use crate::time::{Bandwidth, SimDuration, SimTime};
use crate::topology::Topology;

/// Description of a plain (unproxied) flow. Its congestion control comes
/// from the path, per §4.1 ([`PathProfile::windowed`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpec {
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Application bytes to transfer.
    pub bytes: u64,
}

impl FlowSpec {
    /// A flow of `bytes` from `src` to `dst`.
    pub fn new(src: HostId, dst: HostId, bytes: u64) -> Self {
        FlowSpec { src, dst, bytes }
    }
}

/// Handles to an installed flow's pieces.
#[derive(Debug, Clone, Copy)]
pub struct FlowHandle {
    /// The flow id (completion is recorded against it).
    pub flow: FlowId,
    /// The sending agent.
    pub sender: AgentId,
    /// The receiving agent.
    pub receiver: AgentId,
    /// Number of data packets the flow carries.
    pub packets: u64,
}

/// What a path looks like to a sender: its base RTT and its bottleneck.
/// Both congestion policies derive their parameters from this one profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathProfile {
    /// Round trip of one data packet and its ACK on an idle path.
    base_rtt: SimDuration,
    /// The slowest link on the forward path.
    bottleneck: Bandwidth,
}

impl PathProfile {
    /// One connection through `hosts` in order (a relayed one names the
    /// relay): the legs' base RTTs add up, the slowest link is the
    /// bottleneck.
    pub fn through(topo: &Topology, hosts: &[HostId]) -> Self {
        assert!(hosts.len() >= 2, "a path needs two ends");
        let start = PathProfile {
            base_rtt: SimDuration::ZERO,
            bottleneck: Bandwidth(u64::MAX),
        };
        hosts.windows(2).fold(start, |p, leg| PathProfile {
            base_rtt: p.base_rtt + topo.base_rtt(leg[0], leg[1], DATA_PKT_SIZE, HEADER_SIZE),
            bottleneck: p.bottleneck.min(topo.path_bottleneck(leg[0], leg[1])),
        })
    }

    /// The windowed policy's §4.1 parameters: initial window = 1 BDP
    /// (bottleneck bandwidth × base RTT), RTO floor scaled to the base RTT.
    pub fn windowed(&self) -> CcConfig {
        CcConfig::for_rtt(self.base_rtt, self.bottleneck.bdp_bytes(self.base_rtt))
    }

    /// The rate-based policy's parameters for this path.
    pub fn rate(&self) -> RateCcConfig {
        RateCcConfig::for_path(self.base_rtt, self.bottleneck)
    }
}

/// Installs a sender/receiver pair for `spec`, scheduling the sender to
/// start at `start`. Completion is recorded in the simulator metrics under
/// the returned flow id when the receiver holds every byte.
pub fn install_flow(sim: &mut Simulator, spec: FlowSpec, start: SimTime) -> FlowHandle {
    assert_ne!(spec.src, spec.dst, "flow to self");
    let cc = Dctcp::new(PathProfile::through(sim.topology(), &[spec.src, spec.dst]).windowed());
    let packets = packets_for_bytes(spec.bytes);
    let flow = sim.new_flow();
    // Inline arena slots: a million-flow fleet install stays two dense
    // pushes per flow, no per-agent boxing.
    let sender = sim.add_dctcp_sender(Sender::new(flow, spec.src, spec.dst, packets, cc));
    let receiver = sim.add_receiver(Receiver::new(flow, spec.dst, packets));
    sim.bind(flow, spec.src, sender);
    sim.bind(flow, spec.dst, receiver);
    sim.schedule_start(start, sender);
    FlowHandle {
        flow,
        sender,
        receiver,
        packets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::MSS;
    use crate::sim::StopReason;
    use crate::time::SimDuration;
    use crate::topology::{two_dc_leaf_spine, TwoDcParams};

    fn sim() -> Simulator {
        Simulator::new(two_dc_leaf_spine(&TwoDcParams::small_test()), 7)
    }

    #[test]
    fn windowed_profile_intra_vs_inter() {
        let s = sim();
        let t = s.topology();
        let intra = PathProfile::through(t, &[HostId(0), HostId(1)]).windowed();
        let far = t.hosts_in_dc(1)[0];
        let inter = PathProfile::through(t, &[HostId(0), far]).windowed();
        // Inter-DC BDP (100 µs links in the test topology) dwarfs the
        // intra-DC BDP (µs-scale).
        assert!(inter.init_cwnd_bytes > 20 * intra.init_cwnd_bytes);
        assert!(inter.rto.min_rto > intra.rto.min_rto);
        assert!(inter.base_feedback_delay > SimDuration::from_micros(400));
    }

    #[test]
    fn single_intra_dc_flow_completes() {
        let mut s = sim();
        let h = install_flow(
            &mut s,
            FlowSpec::new(crate::packet::HostId(0), crate::packet::HostId(1), 100_000),
            SimTime::ZERO,
        );
        let report = s.run(Some(SimTime::ZERO + SimDuration::from_secs(5)));
        assert_eq!(report.stop, StopReason::Idle, "flow must drain: {report:?}");
        let done = s.metrics().completion(h.flow).expect("completed");
        // 100 KB at 100 Gbps ≈ 8 µs + RTT; must be well under a millisecond.
        assert!(
            done < SimTime::ZERO + SimDuration::from_millis(1),
            "done at {done}"
        );
        assert_eq!(h.packets, 100_000u64.div_ceil(MSS));
    }

    #[test]
    fn single_inter_dc_flow_completes() {
        let mut s = sim();
        let far = s.topology().hosts_in_dc(1)[0];
        let h = install_flow(
            &mut s,
            FlowSpec::new(crate::packet::HostId(0), far, 1_000_000),
            SimTime::ZERO,
        );
        let report = s.run(Some(SimTime::ZERO + SimDuration::from_secs(10)));
        assert_eq!(report.stop, StopReason::Idle);
        let done = s.metrics().completion(h.flow).expect("completed");
        // Must take at least one one-way trip (~200 µs) but finish promptly
        // (1 MB fits in the 1-BDP initial window).
        assert!(done > SimTime::ZERO + SimDuration::from_micros(200));
        assert!(
            done < SimTime::ZERO + SimDuration::from_millis(20),
            "done at {done}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut s = Simulator::new(two_dc_leaf_spine(&TwoDcParams::small_test()), seed);
            let far = s.topology().hosts_in_dc(1)[0];
            let h = install_flow(
                &mut s,
                FlowSpec::new(crate::packet::HostId(0), far, 500_000),
                SimTime::ZERO,
            );
            s.run(None);
            s.metrics().completion(h.flow).unwrap()
        };
        assert_eq!(run(1), run(1));
        assert_eq!(run(2), run(2));
    }

    #[test]
    #[should_panic(expected = "flow to self")]
    fn self_flow_panics() {
        let mut s = sim();
        install_flow(
            &mut s,
            FlowSpec::new(crate::packet::HostId(0), crate::packet::HostId(0), 1),
            SimTime::ZERO,
        );
    }
}
