//! Conservative parallel discrete-event execution over topology shards.
//!
//! A [`FleetSim`] splits one simulation across several [`Simulator`] shards
//! — by default one per datacenter, with backbone routers living in shard 0
//! — and runs them in lockstep windows of width equal to the **lookahead**:
//! the minimum propagation latency of any link that crosses a shard
//! boundary. A packet handed to a cross-shard link at time `t` cannot
//! arrive before `t + lookahead`, so every event a shard processes inside
//! the window `[W, W + lookahead)` is causally independent of the other
//! shards' events in the same window. That is the classic conservative
//! (CMB-style) synchronization argument; no rollback is ever needed.
//!
//! ## Determinism
//!
//! * Each shard owns a private RNG seeded from the fleet seed and the
//!   shard index, and every spray decision for a node is made by the shard
//!   that owns the node (the express path stops at shard boundaries before
//!   picking a next hop). Shard-local event order is therefore independent
//!   of wall-clock thread scheduling.
//! * Cross-shard packets are exchanged between windows on the coordinator
//!   thread, iterating shards in index order and each outbox in emission
//!   order, so heap tie-breaking sequence numbers are reproducible.
//! * Consequently `threads = 1` and `threads = N` produce byte-identical
//!   results, and a single-shard fleet is exactly a plain [`Simulator`]
//!   run (same seed, same events, same completions).
//! * Changing the shard **count** changes which RNG serves which node, so
//!   results across different partitions are statistically equivalent, not
//!   bit-equal — same as changing the seed. See DESIGN.md §12.
//!
//! ## Accounting
//!
//! Exports and imports are tracked in each shard's [`PacketLedger`]
//! (`created + imported == terminal + in_flight + exported`), so packet
//! conservation holds per shard even while packets are in transit between
//! shards; fleet-wide, total exports equal total imports once idle.
//!
//! [`PacketLedger`]: crate::audit::PacketLedger

use std::sync::Arc;

use crate::audit::{AuditConfig, InvariantViolation};
use crate::fidelity::{ExpressStats, FidelityConfig};
use crate::flows::{FlowSpec, PathProfile};
use crate::metrics::LaneChurn;
use crate::packet::{FlowId, NodeId, PortId};
use crate::protocol::{packets_for_bytes, Dctcp, Receiver, Sender};
use crate::sim::{Simulator, StopReason};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;

/// Outcome of a fleet run: the per-shard [`crate::sim::RunReport`]s folded
/// together with exchange statistics.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Why the fleet stopped ([`StopReason::Idle`] means every shard
    /// drained and no packets were left in transit between shards).
    pub stop: StopReason,
    /// Latest simulated time reached by any shard.
    pub end_time: SimTime,
    /// Total events processed across all shards and windows.
    pub events: u64,
    /// Number of synchronization windows executed.
    pub windows: u64,
    /// Packets exchanged across shard boundaries.
    pub exchanged: u64,
    /// Transmissions across all shards whose `TxDone` was never scheduled
    /// (cumulative over the fleet's life, like `express`); see
    /// [`crate::sim::RunReport::tx_elided`].
    pub tx_elided: u64,
    /// What scheduling cost the shards' event queues, summed (cumulative,
    /// as of each shard's last window); see
    /// [`crate::sim::RunReport::lane_churn`].
    pub lane_churn: LaneChurn,
    /// Aggregated express-path statistics (zero when hybrid fidelity is
    /// off). `events + tx_elided + express.saved_events` — what an engine
    /// that schedules a `TxDone` and an `Arrival` for every hop would have
    /// processed — is the effective packet-event rate numerator used by
    /// the fleet bench, comparable between full and hybrid fidelity.
    pub express: ExpressStats,
    /// Invariant violations collected by any shard (empty unless a
    /// collect-mode audit was enabled with [`FleetSim::set_audit`]).
    pub violations: Vec<InvariantViolation>,
}

/// A set of [`Simulator`] shards covering one topology, run in conservative
/// lockstep windows. See the module docs for the synchronization and
/// determinism arguments.
pub struct FleetSim {
    shards: Vec<Simulator>,
    shard_of: Arc<Vec<u32>>,
    lookahead: SimDuration,
    threads: usize,
}

/// Derives shard `k`'s RNG seed. Shard 0 keeps the fleet seed verbatim so
/// a single-shard fleet is bit-identical to a plain [`Simulator`].
fn shard_seed(seed: u64, shard: u32) -> u64 {
    seed.wrapping_add((shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

impl FleetSim {
    /// Partitions `topo` by datacenter (nodes without a DC — backbone
    /// routers — join shard 0) and builds one simulator per shard.
    pub fn new(topo: impl Into<Arc<Topology>>, seed: u64) -> Self {
        let topo = topo.into();
        let shard_of = (0..topo.node_count())
            .map(|n| topo.dc_of(NodeId(n as u32)).unwrap_or(0))
            .collect();
        Self::with_partition(topo, seed, shard_of)
    }

    /// Builds a fleet over an explicit node → shard map. Shard ids must be
    /// dense from 0. The lookahead is derived as the minimum latency of
    /// any cross-shard link; with no cross-shard links (a single shard)
    /// an arbitrary 1 ms stride is used, which cannot affect results.
    /// Every shard shares the one `topo`; none holds a copy.
    pub fn with_partition(topo: impl Into<Arc<Topology>>, seed: u64, shard_of: Vec<u32>) -> Self {
        let topo = topo.into();
        assert_eq!(
            shard_of.len(),
            topo.node_count(),
            "shard map must cover every node"
        );
        let num_shards = shard_of.iter().copied().max().map_or(1, |m| m + 1);
        let mut lookahead: Option<SimDuration> = None;
        for i in 0..topo.port_count() {
            let p = topo.port(PortId(i as u32));
            if shard_of[p.from.index()] != shard_of[p.to.index()] {
                let l = p.link.latency;
                lookahead = Some(lookahead.map_or(l, |c| if l < c { l } else { c }));
            }
        }
        let lookahead = lookahead.unwrap_or_else(|| SimDuration::from_millis(1));
        assert!(
            lookahead.0 > 0,
            "cross-shard links must have nonzero latency (lookahead would be 0)"
        );
        let shard_of = Arc::new(shard_of);
        let shards = (0..num_shards)
            .map(|k| {
                let mut s = Simulator::new(Arc::clone(&topo), shard_seed(seed, k));
                s.set_shard(Arc::clone(&shard_of), k);
                s
            })
            .collect();
        FleetSim {
            shards,
            shard_of,
            lookahead,
            threads: 1,
        }
    }

    /// Number of worker threads for the windowed run (1 = serial). Each
    /// window runs on at most `threads` workers, worker `w` taking shards
    /// `w, w + threads, …` in index order. Thread count never changes
    /// results — only wall-clock time.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Number of shards in this fleet.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The synchronization window width.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// The topology every shard shares.
    pub fn topology(&self) -> &Topology {
        self.shards[0].topology()
    }

    /// Read access to a shard's simulator (metrics, ledger, stats).
    pub fn shard(&self, i: usize) -> &Simulator {
        &self.shards[i]
    }

    /// Enables the hybrid-fidelity engine on every shard.
    pub fn set_fidelity(&mut self, cfg: FidelityConfig) {
        for s in &mut self.shards {
            s.set_fidelity(cfg);
        }
    }

    /// Pins a port permanently hot on every shard (only the owning shard
    /// simulates it, but the map is shared for simplicity).
    pub fn pin_hot_port(&mut self, port: PortId) {
        for s in &mut self.shards {
            s.pin_hot_port(port);
        }
    }

    /// Installs the invariant auditor on every shard: each shard checks its
    /// own ledger (exports and imports included) and event queue, at the
    /// configured cadence and at the end of every window.
    pub fn set_audit(&mut self, config: AuditConfig) {
        for s in &mut self.shards {
            s.set_audit(config);
        }
    }

    /// Raises each shard's event-count safety cap.
    pub fn set_event_cap(&mut self, cap: u64) {
        for s in &mut self.shards {
            s.set_event_cap(cap);
        }
    }

    /// Installs a sender/receiver pair for `spec`. Flow ids are allocated
    /// in every shard (so ids agree fleet-wide), but the agents live only
    /// in the shards owning the endpoint hosts.
    pub fn install_flow(&mut self, spec: FlowSpec, start: SimTime) -> FlowId {
        assert_ne!(spec.src, spec.dst, "flow to self");
        let cc = PathProfile::through(self.shards[0].topology(), &[spec.src, spec.dst]).windowed();
        let packets = packets_for_bytes(spec.bytes);
        let (src_shard, dst_shard) = {
            let topo = self.shards[0].topology();
            (
                self.shard_of[topo.host_node(spec.src).index()] as usize,
                self.shard_of[topo.host_node(spec.dst).index()] as usize,
            )
        };
        let mut flow = None;
        for s in &mut self.shards {
            let f = s.new_flow();
            match flow {
                None => flow = Some(f),
                Some(prev) => assert_eq!(prev, f, "shards disagree on flow ids"),
            }
        }
        let flow = flow.expect("fleet has at least one shard");
        let sender = Sender::new(flow, spec.src, spec.dst, packets, Dctcp::new(cc));
        let sender = self.shards[src_shard].add_dctcp_sender(sender);
        self.shards[src_shard].bind(flow, spec.src, sender);
        let receiver = self.shards[dst_shard].add_receiver(Receiver::new(flow, spec.dst, packets));
        self.shards[dst_shard].bind(flow, spec.dst, receiver);
        self.shards[src_shard].schedule_start(start, sender);
        flow
    }

    /// Completion time of `flow`, if any shard recorded one (only the
    /// receiver's shard ever does).
    pub fn completion(&self, flow: FlowId) -> Option<SimTime> {
        self.shards
            .iter()
            .find_map(|s| s.metrics().completion(flow))
    }

    /// Runs the fleet until idle, the optional time limit, or a shard's
    /// event cap. Windows advance by the lookahead; windows with no
    /// pending events anywhere are skipped in one step.
    pub fn run(&mut self, limit: Option<SimTime>) -> FleetReport {
        let stride = self.lookahead.0;
        let mut events = 0u64;
        let mut windows = 0u64;
        let mut exchanged = 0u64;
        // A call that runs no window has still reached where earlier calls
        // left the shards.
        let mut end_time = self
            .shards
            .iter()
            .map(Simulator::now)
            .max()
            .unwrap_or(SimTime::ZERO);
        let mut violations = Vec::new();
        // Scratch for the exchange: holds one shard's outbox while it is
        // drained, never allocates itself (see `Simulator::swap_outbox`).
        let mut out = Vec::new();
        let stop = loop {
            // Earliest pending event anywhere. Outboxes are always empty
            // here (drained at the bottom of the loop), so an empty fleet
            // queue really means idle.
            let next = self.shards.iter().filter_map(|s| s.next_event_time()).min();
            let Some(next) = next else {
                break StopReason::Idle;
            };
            if let Some(limit) = limit {
                if next > limit {
                    break StopReason::TimeLimit;
                }
            }
            // Skip ahead to the window containing the earliest event, so
            // quiet stretches (e.g. a long backbone RTT) cost one window.
            let window_start = (next.0 / stride) * stride;
            let mut horizon = SimTime(window_start.saturating_add(stride - 1));
            if let Some(limit) = limit {
                if limit < horizon {
                    horizon = limit;
                }
            }
            windows += 1;
            let reports: Vec<_> = if self.threads > 1 {
                let shards = self.shards.len();
                let workers = self.threads.min(shards);
                let mut groups: Vec<Vec<&mut Simulator>> =
                    (0..workers).map(|_| Vec::new()).collect();
                for (k, s) in self.shards.iter_mut().enumerate() {
                    groups[k % workers].push(s);
                }
                std::thread::scope(|scope| {
                    let handles: Vec<_> = groups
                        .into_iter()
                        .map(|group| {
                            scope.spawn(move || {
                                group
                                    .into_iter()
                                    .map(|s| s.run(Some(horizon)))
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    let mut done: Vec<_> = handles
                        .into_iter()
                        .map(|h| h.join().expect("shard worker panicked").into_iter())
                        .collect();
                    // Back in shard order: shard k's report is its worker's
                    // next one.
                    (0..shards)
                        .map(|k| done[k % workers].next().expect("a report per shard"))
                        .collect()
                })
            } else {
                self.shards
                    .iter_mut()
                    .map(|s| s.run(Some(horizon)))
                    .collect()
            };
            let mut capped = false;
            for r in reports {
                events += r.events;
                if r.end_time > end_time {
                    end_time = r.end_time;
                }
                violations.extend(r.violations);
                capped |= r.stop == StopReason::EventCap;
            }
            if capped {
                break StopReason::EventCap;
            }
            // Deterministic exchange: shard index order, emission order
            // within each outbox. Every export was stamped at least one
            // lookahead past its emission time, so it lands strictly after
            // `horizon` and never violates the receiving shard's clock.
            for k in 0..self.shards.len() {
                self.shards[k].swap_outbox(&mut out);
                exchanged += out.len() as u64;
                for (at, via, packet) in out.drain(..) {
                    let node = self.shards[k].topology().port(via).to;
                    let dst = self.shard_of[node.index()] as usize;
                    debug_assert_ne!(dst, k, "export to own shard");
                    debug_assert!(at > horizon, "export inside its own window");
                    self.shards[dst].import_packet(at, via, packet);
                }
                // Hand the emptied buffer, and its capacity, back.
                self.shards[k].swap_outbox(&mut out);
            }
        };
        let mut express = ExpressStats::default();
        let mut tx_elided = 0;
        let mut lane_churn = LaneChurn::default();
        for s in &self.shards {
            tx_elided += s.metrics().tx_churn.elided();
            let churn = s.metrics().lane_churn;
            lane_churn.appended += churn.appended;
            lane_churn.pushed += churn.pushed;
            lane_churn.refused += churn.refused;
            if let Some(e) = s.fidelity_stats() {
                express.packets += e.packets;
                express.hops += e.hops;
                express.saved_events += e.saved_events;
                express.fallbacks += e.fallbacks;
                express.deferrals += e.deferrals;
            }
        }
        FleetReport {
            stop,
            end_time,
            events,
            windows,
            exchanged,
            tx_elided,
            lane_churn,
            express,
            violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fidelity::FidelityConfig;
    use crate::flows::install_flow;
    use crate::packet::HostId;
    use crate::sim::StopReason;
    use crate::topology::{two_dc_leaf_spine, TwoDcParams};

    fn flows(topo: &Topology) -> Vec<(HostId, HostId, u64)> {
        let far = topo.hosts_in_dc(1);
        vec![
            (HostId(0), far[0], 400_000),
            (HostId(1), far[1], 250_000),
            (HostId(2), HostId(3), 120_000),
            (far[2], HostId(0), 90_000),
        ]
    }

    #[test]
    fn single_shard_fleet_matches_plain_simulator_exactly() {
        let topo = two_dc_leaf_spine(&TwoDcParams::small_test());
        let specs = flows(&topo);

        let mut plain = Simulator::new(topo.clone(), 42);
        let handles: Vec<_> = specs
            .iter()
            .map(|&(s, d, b)| install_flow(&mut plain, FlowSpec::new(s, d, b), SimTime::ZERO))
            .collect();
        let plain_report = plain.run(None);
        assert_eq!(plain_report.stop, StopReason::Idle);

        let n = topo.node_count();
        let mut fleet = FleetSim::with_partition(topo, 42, vec![0; n]);
        let flows: Vec<_> = specs
            .iter()
            .map(|&(s, d, b)| fleet.install_flow(FlowSpec::new(s, d, b), SimTime::ZERO))
            .collect();
        let fleet_report = fleet.run(None);
        assert_eq!(fleet_report.stop, StopReason::Idle);

        // Bit-exact: same events, same end time, same completion stamps.
        assert_eq!(fleet_report.events, plain_report.events);
        assert_eq!(fleet_report.end_time, plain_report.end_time);
        assert_eq!(fleet_report.exchanged, 0);
        for (h, f) in handles.iter().zip(&flows) {
            assert_eq!(
                plain.metrics().completion(h.flow),
                fleet.completion(*f),
                "flow {f} completion diverged"
            );
        }
    }

    #[test]
    fn thread_count_never_changes_results() {
        let topo = Arc::new(two_dc_leaf_spine(&TwoDcParams::small_test()));
        // By datacenter, then with the backbone routers in a third shard,
        // which two workers split unevenly.
        for (backbone_shard, shards) in [(0, 2), (2, 3)] {
            let partition: Vec<u32> = (0..topo.node_count())
                .map(|n| topo.dc_of(NodeId(n as u32)).unwrap_or(backbone_shard))
                .collect();
            let run = |threads: usize| {
                let mut fleet = FleetSim::with_partition(Arc::clone(&topo), 7, partition.clone());
                assert_eq!(fleet.num_shards(), shards);
                fleet.set_threads(threads);
                let ids: Vec<_> = flows(fleet.topology())
                    .iter()
                    .map(|&(s, d, b)| fleet.install_flow(FlowSpec::new(s, d, b), SimTime::ZERO))
                    .collect();
                let report = fleet.run(None);
                assert_eq!(report.stop, StopReason::Idle);
                assert!(report.exchanged > 0, "inter-DC flows must cross shards");
                let fcts: Vec<_> = ids.iter().map(|f| fleet.completion(*f)).collect();
                (report.events, report.end_time, report.exchanged, fcts)
            };
            assert_eq!(run(1), run(2));
            assert_eq!(run(1), run(4));
        }
    }

    #[test]
    fn fleet_shards_share_one_topology() {
        let fleet = FleetSim::new(two_dc_leaf_spine(&TwoDcParams::small_test()), 1);
        assert_eq!(fleet.num_shards(), 2);
        for k in 1..fleet.num_shards() {
            assert!(
                std::ptr::eq(fleet.shard(0).topology(), fleet.shard(k).topology()),
                "shard {k} holds its own copy"
            );
        }
    }

    #[test]
    fn fleet_ledgers_balance_exports_against_imports() {
        let topo = two_dc_leaf_spine(&TwoDcParams::small_test());
        let mut fleet = FleetSim::new(topo, 11);
        let ids: Vec<_> = flows(fleet.topology())
            .iter()
            .map(|&(s, d, b)| fleet.install_flow(FlowSpec::new(s, d, b), SimTime::ZERO))
            .collect();
        let report = fleet.run(None);
        assert_eq!(report.stop, StopReason::Idle);
        for f in &ids {
            assert!(fleet.completion(*f).is_some(), "flow {f} never completed");
        }
        let (mut exported, mut imported) = (0, 0);
        for k in 0..fleet.num_shards() {
            exported += fleet.shard(k).ledger().exported;
            imported += fleet.shard(k).ledger().imported;
        }
        assert_eq!(exported, imported, "packets lost in transit between shards");
        assert_eq!(exported, report.exchanged);
    }

    #[test]
    fn fleet_respects_time_limits() {
        let topo = two_dc_leaf_spine(&TwoDcParams::small_test());
        let mut fleet = FleetSim::new(topo, 3);
        let far = fleet.topology().hosts_in_dc(1)[0];
        fleet.install_flow(FlowSpec::new(HostId(0), far, 10_000_000), SimTime::ZERO);
        let early = fleet.run(Some(SimTime(1_000_000))); // 1 µs: nothing crosses yet
        assert_eq!(early.stop, StopReason::TimeLimit);
        assert!(early.end_time > SimTime::ZERO);
        // Nothing is pending before the limit any more, so this call runs
        // no window; it has still reached where the first one stopped.
        let again = fleet.run(Some(SimTime(1_000_000)));
        assert_eq!((again.stop, again.windows), (StopReason::TimeLimit, 0));
        assert!(
            again.end_time >= early.end_time,
            "{} reported after {}",
            again.end_time,
            early.end_time
        );
        let done = fleet.run(None);
        assert_eq!(done.stop, StopReason::Idle);
    }

    /// A hybrid fleet under the strict auditor, checking every 1,000 events
    /// and at every window's end: each shard's packet ledger, exports and
    /// imports included, and its event queue's structure. The incast keeps
    /// hundreds of packets in flight on the WAN, so the port lanes that
    /// take a window's imports chain blocks.
    #[test]
    fn audited_hybrid_fleet_runs_clean_at_any_thread_count() {
        let topo = two_dc_leaf_spine(&TwoDcParams::small_test());
        let run = |threads: usize| {
            let mut fleet = FleetSim::new(topo.clone(), 5);
            fleet.set_threads(threads);
            fleet.set_fidelity(FidelityConfig::default());
            fleet.set_audit(AuditConfig::strict().every(Some(1_000)));
            let sink = fleet.topology().hosts_in_dc(1)[0];
            let mut specs = flows(fleet.topology());
            specs.extend((0..8).map(|h| (HostId(h), sink, 1_000_000)));
            let ids: Vec<_> = specs
                .iter()
                .map(|&(s, d, b)| fleet.install_flow(FlowSpec::new(s, d, b), SimTime::ZERO))
                .collect();
            // Stop every 50 µs to look at the queues mid-run.
            let (mut events, mut chained) = (0, false);
            for step in 1.. {
                let report = fleet.run(Some(SimTime(step * 50_000_000)));
                events += report.events;
                chained |= (0..fleet.num_shards())
                    .any(|k| fleet.shard(k).event_queue().some_lane_chains());
                if report.stop == StopReason::Idle {
                    break;
                }
                assert_eq!(report.stop, StopReason::TimeLimit);
            }
            assert!(chained, "threads={threads}: no lane ever chained a block");
            let fcts: Vec<_> = ids.iter().map(|f| fleet.completion(*f)).collect();
            assert!(
                fcts.iter().all(Option::is_some),
                "threads={threads}: {fcts:?}"
            );
            (events, fcts)
        };
        assert_eq!(run(1), run(2));
    }
}
