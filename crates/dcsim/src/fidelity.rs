//! Hybrid-fidelity engine state: packet-level events only where it matters.
//!
//! The full-fidelity simulator schedules three events per packet per hop
//! (enqueue → TxDone → Arrival).  On an uncontended path that is pure
//! overhead: an empty FIFO port with no marking, trimming, or impairment is
//! a deterministic delay line, so the packet's departure time can be
//! computed in closed form.  The hybrid engine exploits this with an
//! *express cut-through*: when a packet is offered to a **cold** port it
//! walks the remaining cold hops analytically — advancing a per-port
//! virtual serialization horizon (`free_at`) instead of materializing
//! TxDone events — and schedules exactly one event: the Arrival at the
//! destination host, or an `Inject` on the first **hot** port it meets.
//!
//! A port is *cold* when all of the following hold (see
//! `Simulator::port_is_cold`):
//!
//! - fidelity is enabled and the port is not pinned always-hot (receiver
//!   and proxy down-ToRs, backbone links under fault windows),
//! - the link is up and carries no loss/corruption impairment,
//! - the port's queue is empty (a packet still on the wire is fine — the
//!   `free_at` horizon tracks its TxDone, so express departures serialize
//!   behind it exactly as FIFO would),
//! - no congestion signal was observed within the last `COLD_DWELL`
//!   (hysteresis, tracked in `hot_until`),
//! - the virtual backlog `free_at - now` is below `HOT_BACKLOG`.
//!
//! The `free_at` horizon reproduces FIFO store-and-forward timing exactly:
//! `depart = max(now, free_at) + serialize; free_at' = depart`.  Because
//! `PortQueues::enqueue` only draws from the RNG once `data_bytes` crosses
//! the ECN low watermark, a cold hop consumes the same number of RNG draws
//! (one per multi-candidate spray decision, zero otherwise) as the
//! packet-level path, keeping per-flow behaviour statistically equivalent.
//! The one approximation: an express walk claims downstream horizons at
//! processing time rather than arrival time.  That lookahead is capped by
//! `MAX_LOOKAHEAD` — a walk whose virtual clock runs further ahead of the
//! wall clock (crossing a long-haul link, say) defers to an `Inject` and
//! resumes against fresh port state — so horizons are only ever claimed
//! near the present and `tests/fidelity_equivalence.rs` bounds the
//! resulting FCT error.  With fidelity disabled the engine is bit-identical to the
//! full-fidelity simulator (golden-locked by `tests/timer_identity.rs`).

use crate::time::{SimDuration, SimTime};

/// Virtual-backlog ceiling: a port whose `free_at` horizon is further than
/// this ahead of now is treated as hot.  Kept below the serialize time of
/// the ECN low watermark (33.2 KB at 100 Gbps ≈ 2.65 µs) so a cold port
/// can never have accumulated enough virtual backlog to have marked
/// packets had it run at full fidelity.
pub(crate) const HOT_BACKLOG: SimDuration = SimDuration::from_micros(2);

/// Hysteresis: after a congestion signal (queue build-up past the ECN low
/// watermark, a trim, or a drop) the port stays hot for this long.
pub(crate) const COLD_DWELL: SimDuration = SimDuration::from_micros(10);

/// Staleness ceiling on express walks: a walk whose packet would reach the
/// next port more than this far ahead of the wall clock stops and
/// schedules an `Inject` there instead (the packet re-enters the express
/// path when the event fires, against fresh port state).
///
/// Coldness checks read *current* queue/busy state and `free_at`
/// reservations feed back into packet-level transmissions via
/// `try_start_tx`, so both are only meaningful near the present.  Without
/// this bound a walk crossing a long-haul link would reserve a port's
/// horizon ~100 µs in the future and stall every real packet transiting it
/// until then — enough to fire spurious RTOs.  Must exceed the fabric's
/// accumulated intra-DC path latency (a few µs) so in-DC walks stay
/// unbroken, and sit well below WAN latencies and protocol RTO timescales.
/// 20 µs clears the worst intra-DC walk — 4 hops, each waiting up to
/// `HOT_BACKLOG` behind a virtual backlog plus 1 µs of propagation —
/// with margin, while staying 50× below the 1 ms long-haul latency.
pub(crate) const MAX_LOOKAHEAD: SimDuration = SimDuration::from_micros(20);

/// The hybrid-fidelity engine's settings: none are left (`HOT_BACKLOG`,
/// `COLD_DWELL` and `MAX_LOOKAHEAD` are constants), so the only value
/// is `FidelityConfig::default()`. The type stays for the callers that
/// pass it to `set_fidelity`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FidelityConfig {
    _none: (),
}

trace::counters! {
    "dcsim.express";
    /// Counters describing how much work the express path saved.
    pub struct ExpressStats {
        /// Packets that took at least one express hop.
        packets,
        /// Total cold hops traversed analytically.
        hops,
        /// Events an engine that schedules every hop's TxDone and Arrival
        /// would have processed but the walk did not: two per express hop,
        /// minus the single event actually scheduled at the end of the walk.
        /// (Full fidelity itself no longer schedules every TxDone — see
        /// `TxChurn::elided` — so compare `events + elided + saved_events`
        /// across fidelities, not `events + saved_events`.)
        saved_events,
        /// Express walks that hit a hot port and fell back to packet fidelity
        /// mid-path (the scheduled `Inject` re-enters the normal queue path).
        fallbacks,
        /// Express walks cut short by the `MAX_LOOKAHEAD` staleness ceiling
        /// (typically once per long-haul crossing); the packet re-enters the
        /// express path at the deferred port when its `Inject` fires.
        deferrals,
    }
}

/// Per-port hybrid-fidelity state, dense-indexed by `PortId`.
#[derive(Debug)]
pub struct FidelityState {
    /// Virtual serialization horizon per port (picoseconds): the earliest
    /// time the port's transmitter is free.  Also consulted by
    /// `try_start_tx` so packet-level transmissions serialize behind
    /// virtually-advanced ones.
    pub free_at: Vec<u64>,
    /// Hysteresis deadline per port: the port is hot until this instant.
    pub hot_until: Vec<u64>,
    /// Ports pinned permanently hot (contended or fault-prone by
    /// construction: receiver/proxy down-ToRs, links with fault windows).
    pub always_hot: Vec<bool>,
    pub stats: ExpressStats,
}

impl FidelityState {
    pub fn new(ports: usize) -> Self {
        FidelityState {
            free_at: vec![0; ports],
            hot_until: vec![0; ports],
            always_hot: vec![false; ports],
            stats: ExpressStats::default(),
        }
    }

    /// Marks a port hot for the dwell window; returns true when the port
    /// was cold before (a cold→hot fidelity transition).
    pub fn mark_hot(&mut self, port: usize, now: SimTime) -> bool {
        let was_cold = self.hot_until[port] <= now.0 && !self.always_hot[port];
        self.hot_until[port] = now.0 + COLD_DWELL.0;
        was_cold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_hot_backlog_is_below_ecn_watermark_serialize_time() {
        // 33_200 bytes at 100 Gbps = 2.656 µs; the virtual-backlog ceiling
        // must sit below it so cold ports can never have marked.
        let mark_low_serialize = crate::time::Bandwidth::gbps(100).serialize_time(33_200);
        assert!(HOT_BACKLOG < mark_low_serialize);
    }

    #[test]
    fn mark_hot_reports_transition_once_per_dwell() {
        let mut st = FidelityState::new(4);
        let t0 = SimTime(1_000_000);
        assert!(st.mark_hot(2, t0));
        // Within the dwell window: already hot, no transition.
        assert!(!st.mark_hot(2, SimTime(t0.0 + 1)));
        // After the dwell expires the port cools down and can transition
        // again.
        let later = SimTime(t0.0 + COLD_DWELL.0 + 2);
        assert!(st.mark_hot(2, later));
    }

    #[test]
    fn pinned_ports_never_report_transitions() {
        let mut st = FidelityState::new(2);
        st.always_hot[1] = true;
        assert!(!st.mark_hot(1, SimTime(5)));
    }
}
