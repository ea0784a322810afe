//! Loss tracking at the proxy **without** switch trimming support
//! (§5, Future work #1).
//!
//! "A generalizable proxy design needs to keep track of packet loss without
//! special router support. The challenge lies in disambiguating reordered
//! packets from lost packets within eBPF's constrained memory and limited
//! primitives."
//!
//! [`LossDetector`] watches the sequence numbers of each flow passing
//! through the proxy and declares a gap *lost* once `reorder_threshold`
//! packets with higher sequence numbers have been seen (a generalized
//! dup-ack / RACK-style count threshold, which is what packet spraying
//! demands — time thresholds misfire under bursty arrivals). Memory is
//! strictly bounded: at most `max_pending` gaps are tracked per flow;
//! overflow evicts the *oldest* gap undetected (a potential false
//! negative), mirroring an eBPF map's fixed size.
//!
//! The `ablation_loss_detector` bench sweeps thresholds against synthetic
//! spraying-induced reordering to answer the paper's question of how many
//! false positives/negatives the constrained detector incurs.

use dcsim::packet::FlowId;
use std::collections::BTreeMap;

/// Configuration of the reorder-tolerant detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossDetectorConfig {
    /// A missing sequence is declared lost after this many higher-sequence
    /// packets arrive.
    pub reorder_threshold: u32,
    /// Maximum gaps tracked per flow (eBPF-style fixed map size). When the
    /// map overflows, the evicted (oldest) gap is declared at once rather
    /// than forgotten: an old gap is almost surely a loss, and a premature
    /// NACK costs one spurious retransmission while a silent eviction
    /// costs a full RTO. §5 FW#1's "which packets are more important to
    /// keep track of?" — the newest gaps; old ones can be declared eagerly.
    pub max_pending: usize,
}

impl Default for LossDetectorConfig {
    fn default() -> Self {
        LossDetectorConfig {
            // Spraying over 8 equal-length paths reorders within a small
            // window; 3 is the classic dup-ack threshold, 8+ is safer under
            // spraying. The ablation sweeps this.
            reorder_threshold: 8,
            max_pending: 1024,
        }
    }
}

/// Re-declarations per declared sequence before the detector stops
/// re-NACKing it and leaves it to the sender's RTO.
pub const MAX_RENACKS: u32 = 16;

/// Declared-but-unseen sequences tracked per flow; re-NACK and
/// false-positive bookkeeping stop beyond it.
const MAX_DECLARED: usize = 65_536;

/// A loss verdict emitted by the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LossEvent<K = FlowId> {
    /// Flow the loss belongs to.
    pub flow: K,
    /// The sequence declared lost.
    pub seq: u64,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    seq: u64,
    /// Higher-sequence packets seen since the gap appeared.
    higher_seen: u32,
}

#[derive(Debug, Default)]
struct FlowState {
    /// Highest sequence observed.
    highest: Option<u64>,
    /// Gaps awaiting resolution, ordered by sequence (oldest first).
    pending: Vec<Pending>,
}

trace::counters! {
    "incast_core.lossdetect";
    /// Per-flow counters for evaluating detector quality.
    pub struct LossDetectorStats {
        /// Packets observed.
        observed,
        /// Losses declared (first declarations only).
        declared,
        /// Sweep re-declarations of still-missing sequences.
        renacks,
        /// Declared losses whose packet later arrived (false positives,
        /// observable only in hindsight).
        late_arrivals,
        /// Gaps evicted undetected due to the memory bound (potential false
        /// negatives).
        evicted,
    }
}

/// A declared-but-not-yet-rearrived sequence, re-NACKed by the sweep.
#[derive(Debug, Clone, Copy)]
struct Declared {
    seq: u64,
    /// Sweeps of this flow since (re-)declaration.
    since: u32,
    /// Re-declarations so far.
    renacks: u32,
    /// Current re-declaration gap (doubles after every re-NACK —
    /// exponential backoff, so a fixed budget spans the whole recovery
    /// episode instead of burning out in the first millisecond).
    gap: u32,
}

/// Bounded-memory, reorder-tolerant loss detector, keyed by whatever names
/// a flow where it runs (the simulator's [`FlowId`], the relay's 64-bit
/// wire flow id).
#[derive(Debug)]
pub struct LossDetector<K = FlowId> {
    config: LossDetectorConfig,
    flows: BTreeMap<K, FlowState>,
    stats: LossDetectorStats,
    /// Sequences already declared lost, kept (bounded) to recognize false
    /// positives when the "lost" packet shows up after all, and to drive
    /// the sweep's re-NACKs.
    declared: BTreeMap<K, Vec<Declared>>,
}

impl<K: Ord + Copy> LossDetector<K> {
    /// Creates a detector.
    ///
    /// # Panics
    /// Panics if `reorder_threshold` is 0 or `max_pending` is 0.
    pub fn new(config: LossDetectorConfig) -> Self {
        assert!(config.reorder_threshold > 0, "zero reorder threshold");
        assert!(config.max_pending > 0, "zero pending capacity");
        LossDetector {
            config,
            flows: BTreeMap::new(),
            stats: LossDetectorStats::default(),
            declared: BTreeMap::new(),
        }
    }

    /// The configuration this detector was built with.
    pub fn config(&self) -> LossDetectorConfig {
        self.config
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LossDetectorStats {
        self.stats
    }

    /// Number of gaps currently tracked for a flow.
    pub fn pending_of(&self, flow: K) -> usize {
        self.flows.get(&flow).map_or(0, |f| f.pending.len())
    }

    /// Feeds one observed data packet; returns any sequences newly declared
    /// lost.
    pub fn observe(&mut self, flow: K, seq: u64) -> Vec<LossEvent<K>> {
        self.stats.observed += 1;
        let state = self.flows.entry(flow).or_default();
        let mut losses = Vec::new();

        let mut evicted = Vec::new();
        match state.highest {
            None => {
                // First packet: everything below it is a gap.
                evicted = Self::push_gaps(state, 0, seq, self.config.max_pending, &mut self.stats);
                state.highest = Some(seq);
            }
            Some(h) if seq > h => {
                // New in-order frontier: gap for skipped sequences, and one
                // more "higher" observation for every pending gap.
                evicted =
                    Self::push_gaps(state, h + 1, seq, self.config.max_pending, &mut self.stats);
                for p in &mut state.pending {
                    p.higher_seen += 1;
                }
                state.highest = Some(seq);
            }
            Some(_) => {
                // Reordered (or retransmitted) packet: resolve its gap if
                // tracked; it still counts as "higher" for older gaps.
                if let Some(pos) = state.pending.iter().position(|p| p.seq == seq) {
                    state.pending.remove(pos);
                } else if let Some(decl) = self.declared.get_mut(&flow) {
                    if let Some(pos) = decl.iter().position(|d| d.seq == seq) {
                        let entry = decl.swap_remove(pos);
                        // An arrival after a *first* declaration means the
                        // declaration was premature (reordering); after a
                        // re-NACK it is the expected retransmission.
                        if entry.renacks == 0 {
                            self.stats.late_arrivals += 1;
                        }
                    }
                }
                for p in &mut state.pending {
                    if p.seq < seq {
                        p.higher_seen += 1;
                    }
                }
            }
        }

        // Declare evicted gaps, then gaps past the threshold. Re-NACKs are
        // the quiescence sweep's job ([`LossDetector::sweep`]): it fires
        // when the flow has gone silent, when a missing retransmission
        // really is missing. Re-NACKing on further arrivals would hit
        // retransmissions merely window-delayed at the sender.
        let threshold = self.config.reorder_threshold;
        let declared_list = self.declared.entry(flow).or_default();
        for seq in evicted {
            Self::declare(flow, seq, &mut losses, declared_list, &mut self.stats);
        }
        state.pending.retain(|p| {
            let lost = p.higher_seen >= threshold;
            if lost {
                Self::declare(flow, p.seq, &mut losses, declared_list, &mut self.stats);
            }
            !lost
        });
        losses
    }

    /// True while a sweep of the flow could still produce NACKs: it has
    /// unresolved gaps, or a declared-but-unseen sequence with re-NACK
    /// budget left. A sequence that has spent its budget is the sender's
    /// RTO's business, not sweep work.
    pub fn has_state(&self, flow: K) -> bool {
        self.flows.get(&flow).is_some_and(|f| !f.pending.is_empty())
            || self
                .declared
                .get(&flow)
                .is_some_and(|d| d.iter().any(|d| d.renacks < MAX_RENACKS))
    }

    /// Quiescence sweep: declares every pending gap immediately (bypassing
    /// the count threshold) and re-declares every declared-but-unseen
    /// sequence (at most [`MAX_RENACKS`] times, at doubling intervals).
    /// Called by a timer when a flow goes quiet — the count-based machinery
    /// is blind to *tail* losses (the flow's last packets have no
    /// successors to reveal the gap), and to retransmissions lost while no
    /// new data flows.
    pub fn sweep(&mut self, flow: K) -> Vec<LossEvent<K>> {
        let mut losses = Vec::new();
        let declared_list = self.declared.entry(flow).or_default();
        if let Some(state) = self.flows.get_mut(&flow) {
            for p in state.pending.drain(..) {
                Self::declare(flow, p.seq, &mut losses, declared_list, &mut self.stats);
            }
        }
        for d in declared_list.iter_mut() {
            d.since += 1;
            if d.since > d.gap && d.renacks < MAX_RENACKS {
                d.since = 0;
                d.renacks += 1;
                d.gap = d.gap.saturating_mul(2);
                self.stats.renacks += 1;
                losses.push(LossEvent { flow, seq: d.seq });
            }
        }
        losses
    }

    /// First declaration of `seq`: report it, count it, and track it for
    /// re-NACKs and false-positive accounting (bounded by
    /// [`MAX_DECLARED`]).
    fn declare(
        flow: K,
        seq: u64,
        losses: &mut Vec<LossEvent<K>>,
        declared: &mut Vec<Declared>,
        stats: &mut LossDetectorStats,
    ) {
        losses.push(LossEvent { flow, seq });
        stats.declared += 1;
        if declared.len() < MAX_DECLARED {
            declared.push(Declared {
                seq,
                since: 0,
                renacks: 0,
                gap: 1,
            });
        }
    }

    /// Adds gaps `from..to` to the pending list, returning the sequences
    /// evicted by the memory bound (oldest first).
    fn push_gaps(
        state: &mut FlowState,
        from: u64,
        to: u64,
        max_pending: usize,
        stats: &mut LossDetectorStats,
    ) -> Vec<u64> {
        let mut evicted = Vec::new();
        for seq in from..to {
            if state.pending.len() >= max_pending {
                // eBPF-style fixed map: evict the oldest gap.
                evicted.push(state.pending.remove(0).seq);
                stats.evicted += 1;
            }
            state.pending.push(Pending {
                seq,
                higher_seen: 0,
            });
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector(threshold: u32) -> LossDetector {
        LossDetector::new(LossDetectorConfig {
            reorder_threshold: threshold,
            max_pending: 64,
        })
    }

    const F: FlowId = FlowId(0);

    #[test]
    fn in_order_stream_declares_nothing() {
        let mut d = detector(3);
        for seq in 0..100 {
            assert!(d.observe(F, seq).is_empty());
        }
        assert_eq!(d.stats().declared, 0);
        assert_eq!(d.pending_of(F), 0);
    }

    #[test]
    fn gap_declared_after_threshold_higher() {
        let mut d = detector(3);
        d.observe(F, 0);
        // Seq 1 missing; 2, 3 are two "higher" observations.
        assert!(d.observe(F, 2).is_empty());
        assert!(d.observe(F, 3).is_empty());
        // Third higher observation crosses the threshold.
        let losses = d.observe(F, 4);
        assert_eq!(losses, vec![LossEvent { flow: F, seq: 1 }]);
    }

    #[test]
    fn mild_reordering_not_declared() {
        let mut d = detector(3);
        // 0, 2, 1: one-packet reorder resolves before the threshold.
        d.observe(F, 0);
        d.observe(F, 2);
        let l = d.observe(F, 1);
        assert!(l.is_empty());
        assert_eq!(d.pending_of(F), 0);
        assert_eq!(d.stats().declared, 0);
    }

    #[test]
    fn deep_reordering_is_a_false_positive() {
        let mut d = detector(2);
        d.observe(F, 0);
        d.observe(F, 2);
        let losses = d.observe(F, 3); // threshold 2 reached for seq 1
        assert_eq!(losses.len(), 1);
        // Seq 1 arrives late after being declared: counted as FP.
        d.observe(F, 1);
        assert_eq!(d.stats().late_arrivals, 1);
    }

    #[test]
    fn multiple_gaps_declared_in_order() {
        let mut d = detector(2);
        d.observe(F, 0);
        // The revealing packet itself counts as one "higher" observation.
        d.observe(F, 5); // gaps 1..=4, each at higher_seen = 1
        assert_eq!(d.pending_of(F), 4);
        let losses = d.observe(F, 6); // higher_seen = 2 = threshold
        assert_eq!(losses.len(), 4);
        assert_eq!(losses[0].seq, 1);
        assert_eq!(losses[3].seq, 4);
    }

    #[test]
    fn memory_bound_evicts_oldest() {
        let mut d = LossDetector::new(LossDetectorConfig {
            reorder_threshold: 100,
            max_pending: 4,
        });
        d.observe(F, 0);
        d.observe(F, 10); // 9 gaps; only 4 tracked
        assert_eq!(d.pending_of(F), 4);
        assert_eq!(d.stats().evicted, 5);
    }

    #[test]
    fn flows_are_independent() {
        let mut d = detector(2);
        let f1 = FlowId(1);
        d.observe(F, 0);
        d.observe(f1, 0);
        d.observe(F, 2); // gap 1 at higher_seen = 1
        let losses = d.observe(F, 3); // higher_seen = 2 = threshold
        assert_eq!(losses.len(), 1);
        assert_eq!(losses[0].seq, 1);
        assert_eq!(d.pending_of(f1), 0, "flow 1 unaffected");
    }

    #[test]
    fn first_packet_not_zero_creates_leading_gaps() {
        let mut d = detector(1);
        let losses = d.observe(F, 2); // gaps 0, 1 pending, no higher yet
        assert!(losses.is_empty());
        let losses = d.observe(F, 3);
        assert_eq!(losses.len(), 2, "both leading gaps cross threshold 1");
    }

    #[test]
    fn no_false_negatives_without_reordering() {
        // Property-style check: random loss pattern, in-order otherwise.
        let mut rng = trace::SplitMix64::new(42);
        let mut d = detector(3);
        let mut lost = Vec::new();
        for seq in 0..1000u64 {
            if rng.next_f64() < 0.1 && seq < 990 {
                lost.push(seq);
            } else {
                d.observe(F, seq);
            }
        }
        let declared = d.stats().declared;
        assert_eq!(
            declared as usize,
            lost.len(),
            "every dropped packet must be declared"
        );
        assert_eq!(d.stats().late_arrivals, 0, "no false positives in-order");
    }
}
