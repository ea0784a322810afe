//! Which incasts benefit from a proxy? (§5 FW#3, §4.2)
//!
//! "As shown in Figure 2 (Right), not all incasts benefit from using a
//! proxy and future work needs to understand how to identify incasts that
//! should be routed through a proxy."
//!
//! The predictor applies the mechanism the paper identifies: the proxy
//! helps exactly when the incast's **first-RTT traffic overwhelms the
//! bottleneck** — i.e. when the aggregate initial windows exceed what the
//! receiver down-ToR can absorb (its buffer plus what it drains in one
//! round-trip). Below that point there is no loss, feedback delay is
//! irrelevant, and the extra hop is pure overhead (the paper's 20 MB
//! case); above it, completion time is governed by the feedback loop and
//! the proxy wins, increasingly so as the loss multiple and the
//! inter/intra latency gap grow.
//!
//! [`admit`] is the one place an [`IncastRequest`] enters the control
//! plane; the declaration planner and the operator loop both call it.

use crate::orchestrator::{IncastRequest, ProxySelector, ShardedOrchestrator};
use dcsim::packet::HostId;
use dcsim::time::{Bandwidth, SimDuration};
use dcsim::topology::Topology;

/// Intra-datacenter base RTT the model charges a proxied incast: a local
/// proxy is a couple of intra-DC hops away.
const INTRA_RTT: SimDuration = SimDuration::from_micros(10);

/// Inputs to the benefit prediction — all obtainable by a cloud operator
/// from topology knowledge plus the incast declaration.
#[derive(Debug, Clone, Copy)]
pub struct IncastProfile {
    /// Total incast bytes.
    pub total_bytes: u64,
    /// Number of senders.
    pub degree: usize,
    /// End-to-end (inter-datacenter) base RTT.
    pub inter_rtt: SimDuration,
    /// Intra-datacenter base RTT (sender to a local proxy).
    pub intra_rtt: SimDuration,
    /// Bottleneck link bandwidth (receiver down-ToR).
    pub bottleneck: Bandwidth,
    /// Buffer of the bottleneck queue in bytes.
    pub bottleneck_buffer: u64,
}

/// The prediction.
#[derive(Debug, Clone, Copy)]
pub struct BenefitPrediction {
    /// Whether the first-RTT burst overflows the bottleneck (the paper's
    /// criterion for the proxy to matter at all).
    pub first_rtt_loss: bool,
    /// Bytes the first RTT can absorb without loss.
    pub absorbable_bytes: u64,
    /// Bytes the senders emit in the first RTT.
    pub first_rtt_bytes: u64,
    /// Crude estimated completion-time reduction (0.0 when no loss is
    /// expected; otherwise grows with the latency gap and overload factor,
    /// saturating below 1).
    pub estimated_reduction: f64,
    /// The recommendation.
    pub use_proxy: bool,
}

/// Predicts whether routing this incast through a local proxy will reduce
/// its completion time.
pub fn predict(profile: &IncastProfile) -> BenefitPrediction {
    assert!(profile.degree > 0, "degree must be positive");
    // Each sender's initial window is 1 BDP of the end-to-end path (§4.1),
    // capped by its share of the flow.
    let bdp = profile.bottleneck.bdp_bytes(profile.inter_rtt);
    let per_sender = profile.total_bytes / profile.degree as u64;
    let first_rtt_bytes = (profile.degree as u64).saturating_mul(per_sender.min(bdp));
    // The burst arrives at up to `degree` line rates while the bottleneck
    // drains one: of B burst bytes, the queue must hold B·(1 − 1/degree)
    // beyond its drainage. Loss occurs when that exceeds the buffer.
    let queued = first_rtt_bytes.saturating_sub(first_rtt_bytes / profile.degree as u64);
    let absorbable = profile.bottleneck_buffer + first_rtt_bytes / profile.degree as u64;
    let first_rtt_loss = queued > profile.bottleneck_buffer;

    let estimated_reduction = if !first_rtt_loss {
        0.0
    } else {
        // Completion under loss is dominated by recovery rounds of length
        // `rtt`: baseline pays O(log overload) rounds of the inter-DC RTT,
        // the proxy pays the same rounds of the intra-DC RTT plus the
        // unavoidable serialization. Reduction ≈ 1 − (ideal + proxy rounds)
        // / (ideal + baseline rounds).
        let ideal = profile.total_bytes as f64 * 8.0 / profile.bottleneck.bps() as f64;
        let overload = first_rtt_bytes as f64 / absorbable as f64;
        let rounds = overload.log2().max(1.0) + 2.0;
        let base_time = ideal + rounds * profile.inter_rtt.as_secs_f64() * 4.0;
        let proxy_time = ideal
            + rounds * profile.intra_rtt.as_secs_f64() * 4.0
            + profile.inter_rtt.as_secs_f64();
        ((base_time - proxy_time) / base_time).clamp(0.0, 1.0)
    };

    BenefitPrediction {
        first_rtt_loss,
        absorbable_bytes: absorbable,
        first_rtt_bytes,
        estimated_reduction,
        use_proxy: first_rtt_loss && estimated_reduction > 0.05,
    }
}

/// How an admitted incast is routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Same-datacenter or no expected benefit: shortest path.
    Direct,
    /// Cross-datacenter with expected benefit: relay via this proxy.
    ViaProxy(HostId),
}

/// Admits one incast to the control plane, returning its route and the
/// benefit model's estimated completion-time reduction. A same-datacenter
/// request stays direct (reduction 0). Otherwise its [`IncastProfile`]
/// comes from `topo` — the base RTT and bottleneck of the path from its
/// first sender to the receiver, and the capacity of the receiver's
/// down-ToR queue — and, when [`predict`] says a proxy helps, `plane`
/// leases one under the request's id. `None` when a proxy would help but
/// the plane has no eligible candidate.
///
/// # Panics
/// Panics on a request without senders.
pub fn admit(
    topo: &Topology,
    plane: &mut ShardedOrchestrator,
    request: &IncastRequest,
) -> Option<(Routing, f64)> {
    let (probe, receiver) = (request.senders[0], request.receiver);
    if topo.host_dc(probe) == topo.host_dc(receiver) {
        return Some((Routing::Direct, 0.0));
    }
    let prediction = predict(&IncastProfile {
        total_bytes: request.expected_bytes,
        degree: request.senders.len(),
        inter_rtt: topo.base_rtt(probe, receiver, 1500, 64),
        intra_rtt: INTRA_RTT,
        bottleneck: topo.path_bottleneck(probe, receiver),
        bottleneck_buffer: topo.port(topo.down_tor_port(receiver)).queue.capacity_bytes,
    });
    let routing = if prediction.use_proxy {
        Routing::ViaProxy(plane.select(request)?.proxy)
    } else {
        Routing::Direct
    };
    Some((routing, prediction.estimated_reduction))
}

/// Builds a profile from the standard §4.1 evaluation topology parameters.
pub fn paper_profile(total_bytes: u64, degree: usize, wan_latency: SimDuration) -> IncastProfile {
    // Base RTTs of the two-DC leaf-spine topology: 4 intra hops of 1 µs
    // plus 2 long-haul hops each way, plus serialization (small).
    let inter_one_way = SimDuration(4 * SimDuration::from_micros(1).0 + 2 * wan_latency.0);
    IncastProfile {
        total_bytes,
        degree,
        inter_rtt: SimDuration(2 * inter_one_way.0),
        intra_rtt: INTRA_RTT,
        bottleneck: Bandwidth::gbps(100),
        bottleneck_buffer: 17_015_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_1ms(total_mb: u64, degree: usize) -> BenefitPrediction {
        predict(&paper_profile(
            total_mb * 1_000_000,
            degree,
            SimDuration::from_millis(1),
        ))
    }

    #[test]
    fn small_incast_gets_no_proxy() {
        // The paper's 20 MB case: no first-RTT loss, no benefit.
        let p = at_1ms(20, 4);
        assert!(!p.first_rtt_loss, "{p:?}");
        assert!(!p.use_proxy);
        assert_eq!(p.estimated_reduction, 0.0);
    }

    #[test]
    fn large_incast_gets_a_proxy() {
        let p = at_1ms(100, 4);
        assert!(p.first_rtt_loss, "{p:?}");
        assert!(p.use_proxy);
        assert!(p.estimated_reduction > 0.3, "{p:?}");
    }

    #[test]
    fn reduction_grows_with_degree() {
        let lo = at_1ms(100, 4).estimated_reduction;
        let hi = at_1ms(100, 32).estimated_reduction;
        assert!(hi >= lo, "lo={lo} hi={hi}");
    }

    #[test]
    fn reduction_grows_with_latency_gap() {
        let near = predict(&paper_profile(
            100_000_000,
            4,
            SimDuration::from_micros(100),
        ));
        let far = predict(&paper_profile(100_000_000, 4, SimDuration::from_millis(10)));
        assert!(far.estimated_reduction > near.estimated_reduction);
    }

    #[test]
    fn tiny_latency_gap_means_no_proxy() {
        // Long-haul links as fast as intra-DC: nothing to shorten.
        let p = predict(&paper_profile(100_000_000, 4, SimDuration::from_micros(1)));
        assert!(
            !p.use_proxy || p.estimated_reduction < 0.3,
            "no meaningful win without a latency gap: {p:?}"
        );
    }

    #[test]
    fn first_rtt_bytes_capped_by_flow_size() {
        // Degree 1000 of 1 MB total: each sender has ~1 KB, far below BDP.
        let p = at_1ms(1, 1000);
        assert!(p.first_rtt_bytes <= 1_000_000);
    }

    #[test]
    fn predictor_agrees_with_simulation_boundary() {
        // §4.2: "any incast larger than 20MB" benefits at degree 4; 20 MB
        // itself does not. The predictor's boundary must match.
        assert!(!at_1ms(20, 4).use_proxy);
        assert!(at_1ms(40, 4).use_proxy);
        assert!(at_1ms(100, 4).use_proxy);
    }

    #[test]
    #[should_panic(expected = "degree must be positive")]
    fn zero_degree_panics() {
        predict(&paper_profile(1, 0, SimDuration::from_millis(1)));
    }
}
