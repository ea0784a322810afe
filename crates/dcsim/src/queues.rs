//! Output-port queues: ECN marking, packet trimming, strict-priority
//! control queue.
//!
//! Each switch/host output port owns one [`PortQueue`] with two internal
//! FIFOs, following the NDP/EQDS switch model the paper builds on:
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

use crate::packet::Packet;
use std::collections::VecDeque;
use trace::SplitMix64;

/// Configuration of one port queue.
#[derive(Debug, Clone, Copy)]
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

    /// Same as [`QueueConfig::datacenter`] but with trimming disabled
    /// (drop-tail): the `no_trim` ablation.
    pub fn datacenter_no_trim() -> Self {
        QueueConfig {
            trim: false,
            ..Self::datacenter()
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

/// Per-queue counters, exposed through the simulator's metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueStats {
    pub enqueued_pkts: u64,
    pub dequeued_pkts: u64,
    pub marked_pkts: u64,
    pub trimmed_pkts: u64,
    pub dropped_pkts: u64,
    pub max_data_bytes: u64,
}

/// A two-class output queue (strict-priority control + ECN/trimming data).
#[derive(Debug, Clone)]
pub struct PortQueue {
    config: QueueConfig,
    data: VecDeque<Packet>,
    ctrl: VecDeque<Packet>,
    data_bytes: u64,
    ctrl_bytes: u64,
    stats: QueueStats,
}

impl PortQueue {
    /// Creates an empty queue.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(config: QueueConfig) -> Self {
        config.validate().expect("invalid queue config");
        PortQueue {
            config,
            data: VecDeque::new(),
            ctrl: VecDeque::new(),
            data_bytes: 0,
            ctrl_bytes: 0,
            stats: QueueStats::default(),
        }
    }

    /// Bytes currently held in the data queue.
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// Bytes currently held in the control queue.
    pub fn ctrl_bytes(&self) -> u64 {
        self.ctrl_bytes
    }

    /// Total queued bytes across both classes.
    pub fn total_bytes(&self) -> u64 {
        self.data_bytes + self.ctrl_bytes
    }

    /// Total queued packets across both classes.
    pub fn len(&self) -> usize {
        self.data.len() + self.ctrl.len()
    }

    /// True when both classes are empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty() && self.ctrl.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// The configuration this queue was built with.
    pub fn config(&self) -> &QueueConfig {
        &self.config
    }

    /// Cross-checks the queue's internal accounting (for the invariant
    /// auditor): tracked byte counters must match the queued packets, each
    /// class must hold only its own packets, and the enqueue/dequeue
    /// counters must agree with the current length. (Capacity bounds are
    /// checked by the simulator against [`PortQueue::config`], as a
    /// separate violation class.) O(len), so callers should only invoke it
    /// at audit checkpoints.
    pub fn check_invariants(&self) -> Result<(), String> {
        let data_sum: u64 = self.data.iter().map(|p| p.size()).sum();
        let ctrl_sum: u64 = self.ctrl.iter().map(|p| p.size()).sum();
        if data_sum != self.data_bytes {
            return Err(format!(
                "data byte counter {} != queued data bytes {data_sum}",
                self.data_bytes
            ));
        }
        if ctrl_sum != self.ctrl_bytes {
            return Err(format!(
                "ctrl byte counter {} != queued ctrl bytes {ctrl_sum}",
                self.ctrl_bytes
            ));
        }
        if let Some(p) = self.data.iter().find(|p| p.is_control()) {
            return Err(format!(
                "control packet {:?} seq {} in the data queue",
                p.kind, p.seq
            ));
        }
        if let Some(p) = self.ctrl.iter().find(|p| !p.is_control()) {
            return Err(format!(
                "data packet {:?} seq {} in the control queue",
                p.kind, p.seq
            ));
        }
        let net = self
            .stats
            .enqueued_pkts
            .checked_sub(self.stats.dequeued_pkts)
            .ok_or_else(|| {
                format!(
                    "dequeued {} exceeds enqueued {}",
                    self.stats.dequeued_pkts, self.stats.enqueued_pkts
                )
            })?;
        if net != self.len() as u64 {
            return Err(format!(
                "enqueued - dequeued = {net} but {} packets are queued",
                self.len()
            ));
        }
        Ok(())
    }

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

    fn enqueue_ctrl(&mut self, pkt: Packet) -> EnqueueOutcome {
        if self.ctrl_bytes + pkt.size() > self.config.ctrl_capacity_bytes {
            self.stats.dropped_pkts += 1;
            return EnqueueOutcome::Dropped;
        }
        self.ctrl_bytes += pkt.size();
        self.ctrl.push_back(pkt);
        self.stats.enqueued_pkts += 1;
        EnqueueOutcome::Queued
    }

    /// Offers a packet to the queue. Control packets (acks, nacks, trimmed
    /// headers) go to the strict-priority queue; data packets go to the data
    /// queue with ECN marking, and are trimmed or dropped when it is full.
    pub fn enqueue(&mut self, mut pkt: Packet, rng: &mut SplitMix64) -> EnqueueOutcome {
        if pkt.is_control() {
            return self.enqueue_ctrl(pkt);
        }
        if self.data_bytes + pkt.size() > self.config.capacity_bytes {
            if self.config.trim {
                pkt.trim();
                self.stats.trimmed_pkts += 1;
                return match self.enqueue_ctrl(pkt) {
                    EnqueueOutcome::Queued => EnqueueOutcome::Trimmed,
                    other => other,
                };
            }
            self.stats.dropped_pkts += 1;
            return EnqueueOutcome::Dropped;
        }
        let p = self.mark_probability(self.data_bytes);
        if p > 0.0 && rng.next_f64() < p {
            pkt.set_ecn(crate::packet::Ecn::Ce);
            self.stats.marked_pkts += 1;
        }
        self.data_bytes += pkt.size();
        self.data.push_back(pkt);
        self.stats.enqueued_pkts += 1;
        self.stats.max_data_bytes = self.stats.max_data_bytes.max(self.data_bytes);
        EnqueueOutcome::Queued
    }

    /// Removes the next packet to transmit: control queue first (strict
    /// priority), then data.
    pub fn dequeue(&mut self) -> Option<Packet> {
        if let Some(p) = self.ctrl.pop_front() {
            self.ctrl_bytes -= p.size();
            self.stats.dequeued_pkts += 1;
            return Some(p);
        }
        let p = self.data.pop_front()?;
        self.data_bytes -= p.size();
        self.stats.dequeued_pkts += 1;
        Some(p)
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
        assert_eq!(q.stats().trimmed_pkts, 1);
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
        assert_eq!(q.stats().dropped_pkts, 1);
        assert_eq!(q.len(), 3);
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
        assert_eq!(q.stats().marked_pkts, 0);
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
        assert_eq!(q.stats().marked_pkts, 10);
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
        // then alternate enqueue/dequeue.
        let mut q = PortQueue::new(cfg);
        let mut rng = SplitMix64::new(5);
        for seq in 0..5000 {
            q.enqueue(data_pkt(seq), &mut rng);
        }
        let before = q.stats().marked_pkts;
        for seq in 5000..10_000 {
            q.enqueue(data_pkt(seq), &mut rng);
            q.dequeue();
        }
        let marked = q.stats().marked_pkts - before;
        // At ~50% occupancy the ramp marks ~50% of arrivals.
        assert!((1500..3500).contains(&marked), "marked={marked}");
    }

    #[test]
    fn max_occupancy_tracked() {
        let mut q = PortQueue::new(small_config(true));
        let mut rng = SplitMix64::new(6);
        q.enqueue(data_pkt(0), &mut rng);
        q.enqueue(data_pkt(1), &mut rng);
        q.dequeue();
        assert_eq!(q.stats().max_data_bytes, 2 * DATA_PKT_SIZE);
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
        assert!(QueueConfig::datacenter_no_trim().validate().is_ok());
        assert!(!QueueConfig::datacenter_no_trim().trim);
    }
}
