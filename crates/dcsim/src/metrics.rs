//! Run-level metrics: flow completion times and protocol counters.
//!
//! Storage is dense and index-addressed: counters live in one
//! [`ProtocolCounters`] set and per-flow data in `Vec`s indexed by
//! `FlowId` (flow ids are small dense integers handed out sequentially by
//! the simulator). The per-event hot paths — `count` and `flow_done` —
//! are field writes, not hash-map probes.

use crate::packet::FlowId;
use crate::time::{SimDuration, SimTime};
use trace::Summary;

trace::counters! {
    "dcsim.protocol";
    /// Counters agents can bump (an `Effect::Count` carries one);
    /// aggregated in [`SimMetrics`].
    pub enum Counter;
    /// The protocol counters of one run, one per [`Counter`].
    pub struct ProtocolCounters {
        /// NACKs generated by a proxy on behalf of the receiver.
        proxy_nacks as ProxyNacks,
        /// NACKs generated by the actual receiver.
        receiver_nacks as ReceiverNacks,
        /// Retransmission timeouts fired.
        rto_fires as RtoFires,
        /// Data packets retransmitted.
        retransmits as Retransmits,
        /// ECN-marked ACKs processed by senders.
        marked_acks as MarkedAcks,
        /// Multiplicative decreases applied by senders.
        window_decreases as WindowDecreases,
        /// Packets forwarded by a proxy (either direction).
        proxy_forwarded as ProxyForwarded,
        /// Sender-side failovers: a sender gave up on its proxy and switched
        /// to the direct path.
        failover_activations as FailoverActivations,
        /// Sender-side failbacks: a sender returned to its recovered proxy.
        failbacks as Failbacks,
        /// Probe packets sent through a proxy believed dead.
        proxy_probes as ProxyProbes,
        /// Packets destroyed by an injected fault (downed link, impaired port,
        /// or crashed agent).
        packets_lost_to_fault as PacketsLostToFault,
        /// Packets a proxy dropped because the flow was not registered (e.g.
        /// state lost to a crash, or misrouted traffic).
        proxy_unknown_flow_drops as ProxyUnknownFlowDrops,
        /// Fidelity-shift notes received by senders: a port on the flow's path
        /// crossed from analytic to packet-level modeling (hybrid engine only).
        fidelity_hot_signals as FidelityHotSignals,
    }
}

trace::counters! {
    "dcsim.timers";
    /// Timer lifecycle counters: how many timer events were armed, moved in
    /// place, canceled, and actually fired during a run.
    ///
    /// With cancelable timer slots, `armed` counts heap insertions only — a
    /// rearm that finds a live slot moves the existing entry and bumps
    /// `rescheduled` instead. `discarded_stale` counts timer events that popped
    /// dead (the pre-handle epoch-invalidation cost); it must stay zero now
    /// that invalidation is explicit, and `scripts/check.sh` asserts that.
    pub struct TimerChurn {
        /// Timer events inserted into the heap (fresh slots).
        armed,
        /// Rearms resolved by moving a live heap entry in place.
        rescheduled,
        /// Live timers removed from the heap by an explicit cancel.
        canceled,
        /// Timer events that popped and were dispatched to an agent.
        fired,
        /// Timer events that popped dead and were thrown away. Always zero
        /// since epoch-based invalidation was retired; kept as a tripwire.
        discarded_stale,
    }
}

trace::counters! {
    "dcsim.tx";
    /// Transmit-complete (`TxDone`) lifecycle counters. A port reserves its
    /// `TxDone`'s place in the event order at every transmit start but only
    /// schedules the event when a packet is waiting for it (see
    /// `Simulator::try_start_tx`), so the three counts differ.
    pub struct TxChurn {
        /// Transmissions started: `TxDone` keys reserved.
        started,
        /// `TxDone` events actually inserted into the event queue.
        scheduled,
        /// `TxDone` events that popped.
        fired,
    }
}

impl TxChurn {
    /// Transmissions whose `TxDone` was never scheduled: events an
    /// eager-`TxDone` engine would have processed for nothing. Exact once
    /// the simulator is idle; mid-run it also counts transmissions still on
    /// the wire that may yet need their wake-up.
    pub fn elided(&self) -> u64 {
        self.started - self.scheduled
    }
}

trace::counters! {
    "dcsim.lanes";
    /// What scheduling cost the event queue, by where each insert landed (see
    /// the "Lanes" section of [`crate::events`]). `appended + pushed` is every
    /// insert; the counts depend only on the event sequence, so they repeat
    /// exactly per seed.
    pub struct LaneChurn {
        /// Inserts appended behind a non-empty lane: O(1), the heap untouched.
        appended,
        /// Inserts that pushed a heap entry: plain events, heads of lanes that
        /// were empty, and offers no lane would take.
        pushed,
        /// Times a lane turned an offer down because it would have unsorted it
        /// (the offer went on to its second lane, or to the plain heap): reserved
        /// `TxDone` keys materialised late, and under hybrid fidelity arrivals
        /// timed behind an express reservation.
        refused,
    }
}

/// Metrics collected during one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimMetrics {
    /// Completion timestamp per flow, indexed by `FlowId` (set by the
    /// receiving endpoint once it has every byte); grown lazily.
    completions: Vec<Option<SimTime>>,
    /// Number of `Some` entries in `completions`.
    completed: usize,
    /// Protocol counters bumped by agents.
    counters: ProtocolCounters,
    /// Per-flow proxy-failover latencies (silence start → path switch),
    /// indexed by `FlowId`; grown lazily. A flow can fail over more than
    /// once if the proxy flaps.
    failover_latencies: Vec<Vec<SimDuration>>,
    /// Number of events processed.
    pub events_processed: u64,
    /// Timer lifecycle counters (armed / rescheduled / canceled / fired).
    pub timer_churn: TimerChurn,
    /// `TxDone` lifecycle counters (started / scheduled / fired).
    pub tx_churn: TxChurn,
    /// Event-queue insert counters (appended / pushed / refused), as of the
    /// last return of [`Simulator::run`](crate::sim::Simulator::run).
    pub lane_churn: LaneChurn,
}

impl SimMetrics {
    /// Records a flow completion. First completion wins; duplicate
    /// completions (e.g. duplicate final ACKs) are ignored.
    pub(crate) fn flow_done(&mut self, flow: FlowId, at: SimTime) {
        let i = flow.index();
        if i >= self.completions.len() {
            self.completions.resize(i + 1, None);
        }
        if self.completions[i].is_none() {
            self.completions[i] = Some(at);
            self.completed += 1;
        }
    }

    /// Bumps a counter.
    #[inline]
    pub(crate) fn count(&mut self, counter: Counter, amount: u64) {
        self.counters.bump(counter, amount);
    }

    /// Records one proxy-failover latency sample for `flow`.
    pub(crate) fn failover_latency(&mut self, flow: FlowId, latency: SimDuration) {
        let i = flow.index();
        if i >= self.failover_latencies.len() {
            self.failover_latencies.resize_with(i + 1, Vec::new);
        }
        self.failover_latencies[i].push(latency);
    }

    /// Completion time of a flow, if it completed.
    pub fn completion(&self, flow: FlowId) -> Option<SimTime> {
        self.completions.get(flow.index()).copied().flatten()
    }

    /// Number of completed flows.
    pub fn completed_flows(&self) -> usize {
        self.completed
    }

    /// Latest completion among the given flows — the incast completion time
    /// when passed the incast's receiver-side flows. `None` if any flow has
    /// not completed.
    pub fn completion_of_all(&self, flows: &[FlowId]) -> Option<SimTime> {
        flows
            .iter()
            .map(|f| self.completion(*f))
            .collect::<Option<Vec<_>>>()
            .map(|ts| ts.into_iter().max().expect("non-empty flow set"))
    }

    /// Value of a counter (0 if never bumped).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters.get(counter)
    }

    /// Every protocol counter of the run.
    pub fn counters(&self) -> &ProtocolCounters {
        &self.counters
    }

    /// Every protocol counter with a non-zero value, by dotted name, in
    /// declaration order — the exhaustive report form.
    pub fn nonzero_counters(&self) -> Vec<(&'static str, u64)> {
        self.counters.iter().filter(|&(_, v)| v > 0).collect()
    }

    /// Flow completion times relative to `start`, for the given flows,
    /// skipping flows that have not completed.
    pub fn completion_durations(&self, flows: &[FlowId], start: SimTime) -> Vec<SimDuration> {
        flows
            .iter()
            .filter_map(|f| self.completion(*f))
            .map(|t| t.since(start))
            .collect()
    }

    /// Failover latencies recorded for `flow` (empty if it never failed
    /// over). Each sample is the gap between the last feedback heard via
    /// the proxy and the moment the sender switched to the direct path.
    pub fn failover_latencies(&self, flow: FlowId) -> &[SimDuration] {
        self.failover_latencies
            .get(flow.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All failover-latency samples across flows, in flow-id order.
    pub fn all_failover_latencies(&self) -> Vec<SimDuration> {
        self.failover_latencies
            .iter()
            .flat_map(|v| v.iter().copied())
            .collect()
    }

    /// Summary (count/mean/min/max/std, in seconds) of the completion
    /// times of the given flows relative to `start` — the FCT statistics
    /// of a flow group (e.g. the victims of an incast, or the incast's
    /// own per-sender completions).
    ///
    /// Returns `None` when none of the flows completed.
    pub fn fct_summary(&self, flows: &[FlowId], start: SimTime) -> Option<Summary> {
        let secs: Vec<f64> = self
            .completion_durations(flows, start)
            .into_iter()
            .map(|d| d.as_secs_f64())
            .collect();
        (!secs.is_empty()).then(|| Summary::of(&secs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_completion_wins() {
        let mut m = SimMetrics::default();
        m.flow_done(FlowId(1), SimTime(100));
        m.flow_done(FlowId(1), SimTime(200));
        assert_eq!(m.completion(FlowId(1)), Some(SimTime(100)));
        assert_eq!(m.completed_flows(), 1);
    }

    #[test]
    fn completion_of_all_requires_every_flow() {
        let mut m = SimMetrics::default();
        m.flow_done(FlowId(1), SimTime(100));
        m.flow_done(FlowId(2), SimTime(300));
        assert_eq!(
            m.completion_of_all(&[FlowId(1), FlowId(2)]),
            Some(SimTime(300))
        );
        assert_eq!(m.completion_of_all(&[FlowId(1), FlowId(3)]), None);
    }

    #[test]
    fn fct_summary_over_group() {
        let mut m = SimMetrics::default();
        m.flow_done(FlowId(0), SimTime(2_000_000));
        m.flow_done(FlowId(1), SimTime(4_000_000));
        let s = m
            .fct_summary(&[FlowId(0), FlowId(1), FlowId(9)], SimTime(1_000_000))
            .expect("two completed");
        assert_eq!(s.count, 2);
        assert!((s.min - 1e-6).abs() < 1e-12);
        assert!((s.max - 3e-6).abs() < 1e-12);
        assert!(m.fct_summary(&[FlowId(9)], SimTime::ZERO).is_none());
    }

    #[test]
    fn counters_accumulate() {
        let mut m = SimMetrics::default();
        m.count(Counter::Retransmits, 2);
        m.count(Counter::Retransmits, 3);
        assert_eq!(m.counter(Counter::Retransmits), 5);
        assert_eq!(m.counter(Counter::RtoFires), 0);
    }

    #[test]
    fn nonzero_counters_report_in_declaration_order() {
        let mut m = SimMetrics::default();
        m.count(Counter::PacketsLostToFault, 4);
        m.count(Counter::ProxyNacks, 1);
        assert_eq!(
            m.nonzero_counters(),
            vec![
                ("dcsim.protocol.proxy_nacks", 1),
                ("dcsim.protocol.packets_lost_to_fault", 4)
            ]
        );
    }

    #[test]
    fn timer_churn_defaults_to_zero() {
        let m = SimMetrics::default();
        assert_eq!(m.timer_churn, TimerChurn::default());
        assert_eq!(m.timer_churn.armed, 0);
        assert_eq!(m.timer_churn.discarded_stale, 0);
    }

    #[test]
    fn sparse_flow_ids_grow_lazily() {
        let mut m = SimMetrics::default();
        m.flow_done(FlowId(70), SimTime(9));
        m.failover_latency(FlowId(5), SimDuration(300));
        assert_eq!(m.completion(FlowId(70)), Some(SimTime(9)));
        assert_eq!(m.completion(FlowId(0)), None);
        assert_eq!(m.completion(FlowId(1000)), None);
        assert_eq!(m.failover_latencies(FlowId(5)), &[SimDuration(300)]);
        assert!(m.failover_latencies(FlowId(1000)).is_empty());
        assert_eq!(m.all_failover_latencies(), vec![SimDuration(300)]);
        assert_eq!(m.completed_flows(), 1);
    }
}
