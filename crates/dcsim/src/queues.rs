//! Output-port queues: ECN marking, packet trimming, strict-priority
//! control queue.
//!
//! Each switch/host output port has two FIFOs, following the NDP/EQDS
//! switch model the paper builds on:
//!
//! * a **data queue** holding full-size data packets, with RED-style ECN
//!   marking between a low and a high threshold (§4.1 gives two marking
//!   thresholds per buffer class), and
//! * a **control queue** served at strict priority, holding ACKs, NACKs and
//!   trimmed (header-only) packets.
//!
//! When the data queue is full and trimming is enabled, an arriving data
//! packet is cut to its 64-byte header and enqueued on the control queue
//! instead of being dropped — the header's arrival downstream is the early
//! loss signal the Streamlined proxy converts into a NACK.
//!
//! A simulator holds all of its ports' queues in one [`PortQueues`]: per
//! port a configuration, byte counters and the two FIFOs, as [`Fifo`]
//! handles over one pool of fixed packet blocks ([`crate::blocks`]).
//! [`PortQueue`] is a `PortQueues` of one port, for code that drives a
//! queue on its own.
//!
//! Why blocks and not a `VecDeque` per FIFO: each deque keeps its own
//! high-water capacity for the whole run, so a simulator's queue memory
//! was the *sum* of every port's peak — 51,848 deque slots for
//! `sim_incast_full`'s Streamlined × 32 case, whose ports never held more
//! than 13,920 packets at once. The pool holds the packets queued at
//! once plus at most one part-filled block per busy FIFO
//! ([`PortQueues::peak`] reports both), the same bound the event queue's
//! lanes get from the same pool type.

use crate::blocks::{Blocks, Fifo, Holders};
use crate::packet::{Packet, PortId};
use trace::SplitMix64;

/// Configuration of one port queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueConfig {
    /// Data-queue capacity in bytes.
    pub capacity_bytes: u64,
    /// Control-queue capacity in bytes (headers/acks/nacks).
    pub ctrl_capacity_bytes: u64,
    /// ECN marking ramp: no marks below this occupancy (bytes).
    pub mark_low_bytes: u64,
    /// ECN marking ramp: every packet marked at or above this occupancy.
    pub mark_high_bytes: u64,
    /// Trim data packets to headers instead of dropping when full.
    pub trim: bool,
}

impl QueueConfig {
    /// Leaf/spine switch buffers from §4.1: 17.015 MB, marking thresholds
    /// 33.2 KB and 136.95 KB.
    pub fn datacenter() -> Self {
        QueueConfig {
            capacity_bytes: 17_015_000,
            ctrl_capacity_bytes: 2_000_000,
            mark_low_bytes: 33_200,
            mark_high_bytes: 136_950,
            trim: true,
        }
    }

    /// Backbone router buffers from §4.1: 49.8 MB, thresholds 9.96 MB and
    /// 39.84 MB.
    pub fn backbone() -> Self {
        QueueConfig {
            capacity_bytes: 49_800_000,
            ctrl_capacity_bytes: 4_000_000,
            mark_low_bytes: 9_960_000,
            mark_high_bytes: 39_840_000,
            trim: true,
        }
    }

    /// Host NIC egress queue: deep (backed by host memory, so a 1-BDP
    /// first-window burst queues rather than drops), no ECN marking (hosts
    /// do not mark their own qdisc in the §4.1 model), no trimming.
    pub fn host() -> Self {
        const GB: u64 = 1_000_000_000;
        QueueConfig {
            capacity_bytes: GB,
            ctrl_capacity_bytes: 64_000_000,
            mark_low_bytes: GB,
            mark_high_bytes: GB,
            trim: false,
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.mark_low_bytes > self.mark_high_bytes {
            return Err(format!(
                "mark_low ({}) > mark_high ({})",
                self.mark_low_bytes, self.mark_high_bytes
            ));
        }
        if self.capacity_bytes == 0 {
            return Err("zero data capacity".into());
        }
        Ok(())
    }
}

/// What happened to a packet offered to [`PortQueue::enqueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Queued intact (possibly ECN-marked).
    Queued,
    /// Data queue full; payload trimmed, header queued on the control queue.
    Trimmed,
    /// Dropped (data queue full without trimming, or control queue full).
    Dropped,
}

trace::counters! {
    "dcsim.queue_peak";
    /// The high-water marks of a [`PortQueues`]: what its queue memory
    /// follows. Both are deterministic, whatever the allocator. Two peaks
    /// fold by sum, not `: max`: a fleet's is its shards' peaks summed.
    pub struct QueuePeak {
        /// Most packets queued at once, over every port.
        packets,
        /// Blocks the packet pool holds: its high-water mark, since it never
        /// shrinks.
        blocks,
    }
}

/// One port of a [`PortQueues`]: its configuration, byte counters and the
/// two FIFOs it serves at strict priority.
#[derive(Debug, Clone)]
struct Port {
    config: QueueConfig,
    data_bytes: u64,
    ctrl_bytes: u64,
    ctrl: Fifo,
    data: Fifo,
}

impl Port {
    /// ECN mark probability at occupancy `qlen` (bytes): 0 below the low
    /// threshold, 1 at or above the high threshold, linear ramp between.
    fn mark_probability(&self, qlen: u64) -> f64 {
        let lo = self.config.mark_low_bytes;
        let hi = self.config.mark_high_bytes;
        if qlen < lo {
            0.0
        } else if qlen >= hi || hi == lo {
            1.0
        } else {
            (qlen - lo) as f64 / (hi - lo) as f64
        }
    }

    #[inline]
    fn enqueue_ctrl(&mut self, pool: &mut Blocks<Packet>, pkt: Packet) -> EnqueueOutcome {
        if self.ctrl_bytes + pkt.size() > self.config.ctrl_capacity_bytes {
            return EnqueueOutcome::Dropped;
        }
        self.ctrl_bytes += pkt.size();
        self.ctrl.push_back(pool, pkt);
        EnqueueOutcome::Queued
    }

    #[inline]
    fn enqueue(
        &mut self,
        pool: &mut Blocks<Packet>,
        mut pkt: Packet,
        rng: &mut SplitMix64,
    ) -> EnqueueOutcome {
        if pkt.is_control() {
            return self.enqueue_ctrl(pool, pkt);
        }
        if self.data_bytes + pkt.size() > self.config.capacity_bytes {
            if self.config.trim {
                pkt.trim();
                return match self.enqueue_ctrl(pool, pkt) {
                    EnqueueOutcome::Queued => EnqueueOutcome::Trimmed,
                    other => other,
                };
            }
            return EnqueueOutcome::Dropped;
        }
        let p = self.mark_probability(self.data_bytes);
        if p > 0.0 && rng.next_f64() < p {
            pkt.set_ecn(crate::packet::Ecn::Ce);
        }
        self.data_bytes += pkt.size();
        self.data.push_back(pool, pkt);
        EnqueueOutcome::Queued
    }

    /// This port's share of [`PortQueues::check_invariants`]: both chains
    /// check out against the pool (claiming their blocks as `2 * port` and
    /// `2 * port + 1`), the byte counters match what the chains hold, and
    /// each class holds only its own packets.
    fn check(&self, pool: &Blocks<Packet>, holders: &mut Holders, port: u32) -> Result<(), String> {
        let classes = [
            ("data", &self.data, self.data_bytes, false),
            ("ctrl", &self.ctrl, self.ctrl_bytes, true),
        ];
        for (owner, (class, fifo, bytes, control)) in (2 * port..).zip(classes) {
            fifo.check(pool, holders, owner)
                .map_err(|e| format!("{class} FIFO {e}"))?;
            let sum: u64 = fifo.iter(pool).map(|p| p.size()).sum();
            if sum != bytes {
                return Err(format!(
                    "{class} byte counter {bytes} != queued {class} bytes {sum}"
                ));
            }
            if let Some(p) = fifo.iter(pool).find(|p| p.is_control() != control) {
                return Err(format!(
                    "{:?} packet seq {} in the {class} queue",
                    p.kind, p.seq
                ));
            }
        }
        Ok(())
    }
}

/// Every output queue of a simulator: per port a configuration, byte
/// counters and a two-class FIFO pair (strict-priority control + ECN /
/// trimming data), all of whose packets sit in one pool of fixed blocks
/// (see [`crate::blocks`]).
#[derive(Debug, Clone)]
pub struct PortQueues {
    ports: Vec<Port>,
    pool: Blocks<Packet>,
    /// Packets queued right now, over every port.
    queued: u64,
    /// The most `queued` has been.
    peak: u64,
}

impl PortQueues {
    /// Empty queues, one per configuration, port `i` built with the `i`th.
    ///
    /// # Panics
    /// Panics if a configuration is invalid.
    pub fn new(configs: impl IntoIterator<Item = QueueConfig>) -> Self {
        let ports = configs
            .into_iter()
            .map(|config| {
                config.validate().expect("invalid queue config");
                Port {
                    config,
                    data_bytes: 0,
                    ctrl_bytes: 0,
                    ctrl: Fifo::new(),
                    data: Fifo::new(),
                }
            })
            .collect();
        PortQueues {
            ports,
            pool: Blocks::new(),
            queued: 0,
            peak: 0,
        }
    }

    /// Bytes `port` holds in its data queue.
    #[inline]
    pub fn data_bytes(&self, port: PortId) -> u64 {
        self.ports[port.index()].data_bytes
    }

    /// Bytes `port` holds in its control queue.
    #[inline]
    pub fn ctrl_bytes(&self, port: PortId) -> u64 {
        self.ports[port.index()].ctrl_bytes
    }

    /// Bytes `port` holds across both classes.
    #[inline]
    pub fn total_bytes(&self, port: PortId) -> u64 {
        let q = &self.ports[port.index()];
        q.data_bytes + q.ctrl_bytes
    }

    /// Packets `port` holds across both classes.
    #[inline]
    pub fn len(&self, port: PortId) -> usize {
        let q = &self.ports[port.index()];
        q.data.len() + q.ctrl.len()
    }

    /// True when both of `port`'s classes are empty.
    #[inline]
    pub fn is_empty(&self, port: PortId) -> bool {
        let q = &self.ports[port.index()];
        q.data.is_empty() && q.ctrl.is_empty()
    }

    /// The configuration `port` was built with.
    #[inline]
    pub fn config(&self, port: PortId) -> &QueueConfig {
        &self.ports[port.index()].config
    }

    /// Packets queued right now, over every port.
    pub fn queued(&self) -> u64 {
        self.queued
    }

    /// The most packets ever queued at once, and the pool's block count.
    pub fn peak(&self) -> QueuePeak {
        QueuePeak {
            packets: self.peak,
            blocks: self.pool.blocks() as u64,
        }
    }

    /// Offers a packet to `port`. Control packets (acks, nacks, trimmed
    /// headers) go to the strict-priority queue; data packets go to the
    /// data queue with ECN marking, and are trimmed or dropped when it is
    /// full.
    #[inline]
    pub fn enqueue(&mut self, port: PortId, pkt: Packet, rng: &mut SplitMix64) -> EnqueueOutcome {
        let outcome = self.ports[port.index()].enqueue(&mut self.pool, pkt, rng);
        if outcome != EnqueueOutcome::Dropped {
            self.queued += 1;
            self.peak = self.peak.max(self.queued);
        }
        outcome
    }

    /// Removes the next packet `port` transmits: control queue first
    /// (strict priority), then data.
    #[inline]
    pub fn dequeue(&mut self, port: PortId) -> Option<Packet> {
        // One `Option`, made here: every rewrap on the way out would copy
        // the packet once more.
        let q = &mut self.ports[port.index()];
        let (fifo, bytes) = if !q.ctrl.is_empty() {
            (&mut q.ctrl, &mut q.ctrl_bytes)
        } else if !q.data.is_empty() {
            (&mut q.data, &mut q.data_bytes)
        } else {
            return None;
        };
        *bytes -= fifo.front(&self.pool).map_or(0, Packet::size);
        self.queued -= 1;
        Some(fifo.take_front(&mut self.pool))
    }

    /// Cross-checks the queues against the pool (for the invariant
    /// auditor; O(queued packets + blocks)): every block is free or on
    /// exactly one port's FIFO; each FIFO's walk takes exactly its `len`
    /// and ends at its tail; each port's byte counters equal what its
    /// chains hold, and each class holds only its own packets; `queued`
    /// is the sum of the lengths. Returns what is broken, naming the port
    /// where one is to blame. (Capacity bounds are checked by the
    /// simulator against [`PortQueues::config`], as a separate violation
    /// class.)
    pub fn check_invariants(&self) -> Vec<(Option<PortId>, String)> {
        let mut holders = match self.pool.holders() {
            Ok(holders) => holders,
            Err(detail) => return vec![(None, detail)],
        };
        let mut found = Vec::new();
        for (i, q) in self.ports.iter().enumerate() {
            if let Err(detail) = q.check(&self.pool, &mut holders, i as u32) {
                found.push((Some(PortId(i as u32)), detail));
            }
        }
        if let Some(block) = holders.unheld() {
            found.push((None, format!("block {block} is neither free nor on a FIFO")));
        }
        let lens: u64 = self
            .ports
            .iter()
            .map(|q| (q.data.len() + q.ctrl.len()) as u64)
            .sum();
        if lens != self.queued {
            found.push((
                None,
                format!(
                    "{} packets counted queued, {lens} on the FIFOs",
                    self.queued
                ),
            ));
        }
        found
    }

    /// Port `port`'s data FIFO, for tests that corrupt it.
    #[cfg(test)]
    pub(crate) fn data_fifo_mut(&mut self, port: PortId) -> &mut Fifo {
        &mut self.ports[port.index()].data
    }
}

/// A two-class output queue (strict-priority control + ECN/trimming data):
/// a [`PortQueues`] of one port, for code that drives a queue on its own.
#[derive(Debug, Clone)]
pub struct PortQueue(PortQueues);

/// The one port of a [`PortQueue`].
const ONLY: PortId = PortId(0);

impl PortQueue {
    /// Creates an empty queue.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(config: QueueConfig) -> Self {
        PortQueue(PortQueues::new([config]))
    }

    /// Bytes currently held in the data queue.
    pub fn data_bytes(&self) -> u64 {
        self.0.data_bytes(ONLY)
    }

    /// Bytes currently held in the control queue.
    pub fn ctrl_bytes(&self) -> u64 {
        self.0.ctrl_bytes(ONLY)
    }

    /// Total queued bytes across both classes.
    pub fn total_bytes(&self) -> u64 {
        self.0.total_bytes(ONLY)
    }

    /// Total queued packets across both classes.
    pub fn len(&self) -> usize {
        self.0.len(ONLY)
    }

    /// True when both classes are empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty(ONLY)
    }

    /// The configuration this queue was built with.
    pub fn config(&self) -> &QueueConfig {
        self.0.config(ONLY)
    }

    /// [`PortQueues::check_invariants`] for the one port: the first thing
    /// found broken.
    pub fn check_invariants(&self) -> Result<(), String> {
        match self.0.check_invariants().into_iter().next() {
            Some((_, detail)) => Err(detail),
            None => Ok(()),
        }
    }

    /// Offers a packet to the queue (see [`PortQueues::enqueue`]).
    pub fn enqueue(&mut self, pkt: Packet, rng: &mut SplitMix64) -> EnqueueOutcome {
        self.0.enqueue(ONLY, pkt, rng)
    }

    /// Removes the next packet to transmit: control queue first (strict
    /// priority), then data.
    pub fn dequeue(&mut self) -> Option<Packet> {
        self.0.dequeue(ONLY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Ecn, FlowId, HostId, Packet, PacketKind, DATA_PKT_SIZE, HEADER_SIZE};

    fn data_pkt(seq: u64) -> Packet {
        Packet::data(FlowId(0), seq, HostId(0), HostId(1), 0)
    }

    fn small_config(trim: bool) -> QueueConfig {
        QueueConfig {
            capacity_bytes: 3 * DATA_PKT_SIZE,
            ctrl_capacity_bytes: 4 * HEADER_SIZE,
            mark_low_bytes: DATA_PKT_SIZE,
            mark_high_bytes: 2 * DATA_PKT_SIZE,
            trim,
        }
    }

    #[test]
    fn fifo_order_within_data_class() {
        let mut q = PortQueue::new(small_config(true));
        let mut rng = SplitMix64::new(1);
        for seq in 0..3 {
            assert_eq!(q.enqueue(data_pkt(seq), &mut rng), EnqueueOutcome::Queued);
        }
        for seq in 0..3 {
            assert_eq!(q.dequeue().unwrap().seq, seq);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn control_has_strict_priority() {
        let mut q = PortQueue::new(small_config(true));
        let mut rng = SplitMix64::new(1);
        q.enqueue(data_pkt(0), &mut rng);
        let ack = Packet::ack_for(&data_pkt(9), HostId(1));
        q.enqueue(ack, &mut rng);
        assert_eq!(q.dequeue().unwrap().kind, PacketKind::Ack);
        assert_eq!(q.dequeue().unwrap().kind, PacketKind::Data);
    }

    #[test]
    fn trims_when_full() {
        let mut q = PortQueue::new(small_config(true));
        let mut rng = SplitMix64::new(1);
        for seq in 0..3 {
            assert_eq!(q.enqueue(data_pkt(seq), &mut rng), EnqueueOutcome::Queued);
        }
        assert_eq!(q.enqueue(data_pkt(3), &mut rng), EnqueueOutcome::Trimmed);
        // The trimmed header jumps the data queue.
        let first = q.dequeue().unwrap();
        assert!(first.trimmed());
        assert_eq!(first.seq, 3);
        assert_eq!(first.size(), HEADER_SIZE);
    }

    #[test]
    fn drops_when_full_without_trim() {
        let mut q = PortQueue::new(small_config(false));
        let mut rng = SplitMix64::new(1);
        for seq in 0..3 {
            q.enqueue(data_pkt(seq), &mut rng);
        }
        assert_eq!(q.enqueue(data_pkt(3), &mut rng), EnqueueOutcome::Dropped);
        assert_eq!(q.len(), 3);
        assert_eq!(q.total_bytes(), 3 * DATA_PKT_SIZE);
    }

    #[test]
    fn ctrl_overflow_drops_even_with_trim() {
        let mut q = PortQueue::new(small_config(true));
        let mut rng = SplitMix64::new(1);
        // Fill data queue.
        for seq in 0..3 {
            q.enqueue(data_pkt(seq), &mut rng);
        }
        // Ctrl capacity = 4 headers; the 5th trimmed packet must drop.
        for seq in 3..7 {
            assert_eq!(q.enqueue(data_pkt(seq), &mut rng), EnqueueOutcome::Trimmed);
        }
        assert_eq!(q.enqueue(data_pkt(7), &mut rng), EnqueueOutcome::Dropped);
    }

    #[test]
    fn byte_accounting_balances() {
        let mut q = PortQueue::new(small_config(true));
        let mut rng = SplitMix64::new(2);
        for seq in 0..6 {
            q.enqueue(data_pkt(seq), &mut rng);
        }
        let mut dequeued = 0;
        while let Some(p) = q.dequeue() {
            dequeued += p.size();
        }
        assert_eq!(q.total_bytes(), 0);
        // 3 full + 3 trimmed.
        assert_eq!(dequeued, 3 * DATA_PKT_SIZE + 3 * HEADER_SIZE);
    }

    #[test]
    fn no_marks_below_low_threshold() {
        let mut q = PortQueue::new(small_config(true));
        let mut rng = SplitMix64::new(3);
        // First packet sees an empty queue -> below low threshold.
        q.enqueue(data_pkt(0), &mut rng);
        let p = q.dequeue().unwrap();
        assert_eq!(p.ecn(), Ecn::Ect);
    }

    #[test]
    fn always_marks_above_high_threshold() {
        let cfg = QueueConfig {
            capacity_bytes: 100 * DATA_PKT_SIZE,
            ctrl_capacity_bytes: 10 * HEADER_SIZE,
            mark_low_bytes: 0,
            mark_high_bytes: 0, // degenerate ramp: always mark
            trim: true,
        };
        let mut q = PortQueue::new(cfg);
        let mut rng = SplitMix64::new(4);
        for seq in 0..10 {
            q.enqueue(data_pkt(seq), &mut rng);
        }
        let marked = std::iter::from_fn(|| q.dequeue()).filter(|p| p.ecn() == Ecn::Ce);
        assert_eq!(marked.count(), 10);
    }

    #[test]
    fn ramp_marks_roughly_half_at_midpoint() {
        let cfg = QueueConfig {
            capacity_bytes: 10_000 * DATA_PKT_SIZE,
            ctrl_capacity_bytes: 10 * HEADER_SIZE,
            mark_low_bytes: 0,
            mark_high_bytes: 2 * DATA_PKT_SIZE * 5000,
            trim: true,
        };
        // Hold occupancy near the midpoint of the ramp: fill 5000 packets,
        // then alternate enqueue/dequeue. The packets still queued at the
        // end are the ones offered at the midpoint.
        let mut q = PortQueue::new(cfg);
        let mut rng = SplitMix64::new(5);
        for seq in 0..5000 {
            q.enqueue(data_pkt(seq), &mut rng);
        }
        for seq in 5000..10_000 {
            q.enqueue(data_pkt(seq), &mut rng);
            q.dequeue();
        }
        let at_midpoint = std::iter::from_fn(|| q.dequeue());
        let marked = at_midpoint
            .filter(|p| p.seq >= 5000 && p.ecn() == Ecn::Ce)
            .count();
        // At ~50% occupancy the ramp marks ~50% of arrivals.
        assert!((1500..3500).contains(&marked), "marked={marked}");
    }

    /// Ports of one `PortQueues` share its pool: each keeps its own FIFO
    /// order and bytes, the peak counts packets queued at once over all
    /// ports, and the pool grows to what was queued at once, not to the
    /// sum of each port's peak.
    #[test]
    fn ports_share_one_pool() {
        let mut q = PortQueues::new([small_config(true), QueueConfig::host(), QueueConfig::host()]);
        let mut rng = SplitMix64::new(7);
        let (a, b, c) = (PortId(0), PortId(1), PortId(2));
        for seq in 0..3 {
            q.enqueue(a, data_pkt(seq), &mut rng);
            q.enqueue(b, data_pkt(10 + seq), &mut rng);
        }
        assert_eq!(q.enqueue(a, data_pkt(3), &mut rng), EnqueueOutcome::Trimmed);
        assert_eq!((q.len(a), q.len(b), q.queued()), (4, 3, 7));
        assert_eq!(q.data_bytes(b), 3 * DATA_PKT_SIZE);
        assert_eq!(q.dequeue(a).map(|p| (p.seq, p.trimmed())), Some((3, true)));
        assert_eq!(q.dequeue(b).map(|p| p.seq), Some(10));
        assert!(q.check_invariants().is_empty());
        while q.dequeue(a).is_some() || q.dequeue(b).is_some() {}
        assert_eq!(
            q.peak(),
            QueuePeak {
                packets: 7,
                blocks: 3
            }
        );
        // Two 64-packet bursts, one after the other on different ports,
        // reuse the same blocks.
        for port in [b, c] {
            for seq in 0..64 {
                q.enqueue(port, data_pkt(seq), &mut rng);
            }
            assert_eq!(q.check_invariants(), vec![]);
            while q.dequeue(port).is_some() {}
        }
        assert_eq!(
            q.peak(),
            QueuePeak {
                packets: 64,
                blocks: 3
            }
        );
        assert!(q.is_empty(a) && q.is_empty(b) && q.is_empty(c));
    }

    /// The audit names the port whose chain or counters are wrong.
    #[test]
    fn check_invariants_names_the_port() {
        let build = || {
            let mut q = PortQueues::new([QueueConfig::host(); 3]);
            let mut rng = SplitMix64::new(8);
            for seq in 0..40 {
                q.enqueue(PortId(1), data_pkt(seq), &mut rng);
            }
            q.enqueue(PortId(2), data_pkt(0), &mut rng);
            assert!(q.check_invariants().is_empty());
            q
        };
        let mut q = build();
        let fifo = *q.data_fifo_mut(PortId(1));
        *q.data_fifo_mut(PortId(2)) = fifo;
        let found = q.check_invariants();
        assert_eq!(found[0].0, Some(PortId(2)), "{found:?}");
        assert!(
            found[0].1.starts_with("data FIFO runs into block 0"),
            "{found:?}"
        );

        let mut q = build();
        q.ports[1].data_bytes += 1;
        assert_eq!(
            q.check_invariants(),
            vec![(
                Some(PortId(1)),
                format!(
                    "data byte counter {} != queued data bytes {}",
                    40 * DATA_PKT_SIZE + 1,
                    40 * DATA_PKT_SIZE
                )
            )]
        );

        let mut q = build();
        q.queued += 1;
        assert_eq!(
            q.check_invariants(),
            vec![(
                None,
                "42 packets counted queued, 41 on the FIFOs".to_string()
            )]
        );
    }

    #[test]
    #[should_panic(expected = "invalid queue config")]
    fn invalid_config_panics() {
        PortQueue::new(QueueConfig {
            capacity_bytes: 10,
            ctrl_capacity_bytes: 10,
            mark_low_bytes: 100,
            mark_high_bytes: 50,
            trim: true,
        });
    }

    #[test]
    fn paper_configs_are_valid() {
        assert!(QueueConfig::datacenter().validate().is_ok());
        assert!(QueueConfig::backbone().validate().is_ok());
    }
}
