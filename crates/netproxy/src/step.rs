//! One shard's per-batch work, with no socket and no clock of its own.
//!
//! A [`ShardStep`] is everything a relay shard decides with: its
//! [`RelayKind`], the receiver, the Detecting kind's [`Detector`], the
//! private [`SenderTable`], the shared [`FlowDirectory`] and the shed
//! ladder. [`ShardStep::step`] runs one batch of a receive ring through
//! [`decide`] and [`RelayKind::apply`], the ladder and the detector, and
//! fills a [`SendQueue`]; [`ShardStep::sweep`] is the Detecting kind's
//! quiescence sweep. Neither makes a syscall or reads a clock: time is the
//! `now_ns` the caller passes in, nanoseconds on one clock that never runs
//! backwards. The shard's run loop (`shard.rs`) owns the socket, the
//! heartbeat and the clock; it receives, takes its reading, calls `step`,
//! sends the queue and flushes the counts `step` returns. So a test can
//! drive a shard's whole decision from a hand-filled ring at chosen times,
//! and Miri can run it.

use crate::batch::{RecvRing, SendQueue, BATCH};
use crate::shard::{FlowDirectory, RelayKind, RelayStats, SenderTable};
use crate::streamlined::{decide, Action};
use crate::wire::{rewrite_data_to_nack, rewrite_trimmed_to_nack, WireHeader, WIRE_HEADER_LEN};
use incast_core::lossdetect::LossDetectorConfig;
use incast_core::relay::Detector;
use std::net::SocketAddr;
use std::num::NonZeroU64;
use std::ops::Range;
use std::sync::Arc;

/// How often a Detecting shard sweeps, and how long a flow must have
/// been silent for the sweep to act on it: 50 ms.
const SWEEP_NS: u64 = 50_000_000;

/// A token bucket on the caller's clock: `rate` tokens a second up to
/// `burst`, refilled from the nanoseconds passed since the last refill.
#[derive(Debug)]
struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last_ns: u64,
}

impl TokenBucket {
    /// A full bucket.
    fn new(rate: f64, burst: f64) -> Self {
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            last_ns: 0,
        }
    }

    fn refill(&mut self, now_ns: u64) {
        let dt = now_ns.saturating_sub(self.last_ns) as f64 * 1e-9;
        self.last_ns = now_ns;
        self.tokens = (self.tokens + dt * self.rate).min(self.burst);
    }

    fn take(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// What the NACK budget says about one would-be NACK.
enum NackVerdict {
    /// Queue it.
    Send,
    /// Suppressed: this flow was already NACKed in this batch.
    Coalesced,
    /// Suppressed: NACK budget exhausted.
    Shed,
}

/// The shed ladder of one shard, built from its one number, the forward
/// budget (DESIGN.md §15). A data datagram that finds the forward bucket
/// empty is not forwarded but answered with a NACK — explicit overload
/// notification, Pulser's insight (PAPERS.md) — and when the NACK bucket
/// is empty too it is dropped, with a counter. Every NACK the budget
/// lets out suppresses the flow's further NACKs in the same batch
/// (coalescing), so feedback stays O(flows) under incast. Refilled once
/// per batch, so the per-datagram cost is a float compare.
struct ShedLadder {
    /// The forward budget and a burst of two batches.
    forward: TokenBucket,
    /// A quarter of the forward budget and a burst of one batch; trim-,
    /// shed- and generated NACKs share it.
    nack: TokenBucket,
    /// Flows NACKed in the current batch: at most [`BATCH`], since a batch
    /// is at most [`BATCH`] datagrams however long the receive it was cut
    /// from; a linear scan beats hashing at this size.
    nacked_flows: Vec<u64>,
}

impl ShedLadder {
    fn new(forward_pps: NonZeroU64) -> Self {
        let rate = forward_pps.get() as f64;
        ShedLadder {
            forward: TokenBucket::new(rate, (2 * BATCH) as f64),
            nack: TokenBucket::new(rate / 4.0, BATCH as f64),
            nacked_flows: Vec::with_capacity(BATCH),
        }
    }

    fn begin_batch(&mut self, now_ns: u64) {
        self.forward.refill(now_ns);
        self.nack.refill(now_ns);
        self.nacked_flows.clear();
    }

    fn nack_verdict(&mut self, flow: u64) -> NackVerdict {
        if self.nacked_flows.contains(&flow) {
            NackVerdict::Coalesced
        } else if self.nack.take() {
            self.nacked_flows.push(flow);
            NackVerdict::Send
        } else {
            NackVerdict::Shed
        }
    }
}

/// One shard's decision state; private to the shard's thread.
pub(crate) struct ShardStep {
    pub(crate) kind: RelayKind,
    receiver: SocketAddr,
    /// Keyed by the 64-bit wire flow id, whole; on the step's clock.
    detector: Detector<u64>,
    senders: SenderTable,
    directory: Arc<FlowDirectory>,
    /// `None`: no admission control, and the hot path pays nothing.
    ladder: Option<ShedLadder>,
    /// When the next sweep is due (the first call sweeps).
    next_sweep: u64,
}

impl ShardStep {
    /// A step of `kind` toward `receiver`, publishing the senders it
    /// learns into `directory`; `overload` is the shed ladder's per-shard
    /// forward budget in datagrams a second.
    pub(crate) fn new(
        kind: RelayKind,
        receiver: SocketAddr,
        directory: Arc<FlowDirectory>,
        overload: Option<NonZeroU64>,
    ) -> Self {
        ShardStep {
            kind,
            receiver,
            detector: Detector::new(LossDetectorConfig::default(), SWEEP_NS),
            senders: SenderTable::new(),
            directory,
            ladder: overload.map(ShedLadder::new),
            next_sweep: 0,
        }
    }

    /// Decides the datagrams `batch` of `ring` at `now_ns` and queues what
    /// each calls for: forwards and in-place NACKs as ring slots,
    /// generated NACKs in the queue's scratch. Returns the batch's counts,
    /// send errors aside.
    pub(crate) fn step(
        &mut self,
        ring: &mut RecvRing,
        batch: Range<usize>,
        now_ns: u64,
        queue: &mut SendQueue,
    ) -> RelayStats {
        let got = batch.len() as u64;
        let mut counts = RelayStats {
            batches: 1,
            received: got,
            max_batch: got,
            ..RelayStats::default()
        };
        if let Some(ladder) = self.ladder.as_mut() {
            ladder.begin_batch(now_ns);
        }
        for i in batch {
            self.classify(ring, i, now_ns, queue, &mut counts);
        }
        counts
    }

    /// Rungs 2–3: may a NACK for `flow` be emitted (or is it coalesced /
    /// shed)?
    fn nack_verdict(&mut self, flow: u64) -> NackVerdict {
        match self.ladder.as_mut() {
            None => NackVerdict::Send,
            Some(l) => l.nack_verdict(flow),
        }
    }

    /// Learns (and publishes once) a data packet's sender address.
    fn learn_sender(&mut self, flow: u64, from: SocketAddr) {
        if self.senders.insert(flow, from) {
            self.directory.publish(flow, from);
        }
    }

    /// Runs [`decide`] on ring slot `i` — as this relay kind reads it —
    /// and queues the datagrams the [`Action`] calls for.
    fn classify(
        &mut self,
        ring: &mut RecvRing,
        i: usize,
        now_ns: u64,
        queue: &mut SendQueue,
        counts: &mut RelayStats,
    ) {
        let from = ring.source(i);
        match self.kind.apply(decide(ring.datagram(i))) {
            Action::Drop => counts.dropped += 1,
            Action::NackToSender(WireHeader { flow, .. }) => {
                self.learn_sender(flow, from);
                // Trim-NACKs share the NACK budget: a NACK storm is a
                // NACK storm regardless of what provoked it.
                match self.nack_verdict(flow) {
                    NackVerdict::Send => {
                        // The NACK shares flow and seq with the trimmed
                        // header: rewrite the one differing byte in place
                        // and bounce the buffer back whence it came.
                        rewrite_trimmed_to_nack(ring.datagram_mut(i)).expect("parsed trimmed");
                        queue.push_slot(i, WIRE_HEADER_LEN, from);
                        counts.nacks += 1;
                    }
                    NackVerdict::Coalesced => counts.nacks_coalesced += 1,
                    NackVerdict::Shed => counts.shed_dropped += 1,
                }
            }
            Action::ForwardToReceiver(header) => {
                let (flow, seq) = (header.flow, header.seq);
                self.learn_sender(flow, from);
                // Rung 1 of the shed ladder: may this datagram be forwarded?
                if !self.ladder.as_mut().is_none_or(|l| l.forward.take()) {
                    if self.kind != RelayKind::Streamlined {
                        // Naive has no NACK concept, and Detecting's NACKs
                        // come from its detector: shedding *before* the
                        // detector observes the seq makes this look like
                        // network loss downstream (observing it would
                        // suppress the very NACK that gets it
                        // retransmitted). Either way a counted drop.
                        counts.shed_dropped += 1;
                        return;
                    }
                    // Ladder rung 2: no forward budget → tell the sender
                    // *now* with a NACK (in-place rewrite, header-only
                    // bounce) instead of dropping silently and waiting
                    // out an RTO.
                    match self.nack_verdict(flow) {
                        NackVerdict::Send => {
                            rewrite_data_to_nack(ring.datagram_mut(i)).expect("parsed data");
                            queue.push_slot(i, WIRE_HEADER_LEN, from);
                            counts.nacks += 1;
                            counts.shed_nacked += 1;
                        }
                        NackVerdict::Coalesced => counts.nacks_coalesced += 1,
                        // Rung 3: both buckets dry — drop, counted.
                        NackVerdict::Shed => counts.shed_dropped += 1,
                    }
                    return;
                }
                if self.kind == RelayKind::Detecting {
                    for loss in self.detector.observe(flow, seq, now_ns) {
                        // Generated NACKs ride the same budget. One arrival
                        // can yield several, and none of them answers a
                        // received datagram, so a refused one has a
                        // counter of its own.
                        match self.nack_verdict(flow) {
                            NackVerdict::Send => {
                                queue.push_nack(flow, loss.seq, from);
                                counts.nacks += 1;
                            }
                            NackVerdict::Coalesced => counts.nacks_coalesced += 1,
                            NackVerdict::Shed => counts.nacks_refused += 1,
                        }
                    }
                }
                queue.push_slot(i, header.wire_len(), self.receiver);
                counts.forwarded += 1;
            }
            Action::ForwardToSender(header) => {
                let flow = header.flow;
                // Feedback (ACK/NACK): reverse toward the flow's sender.
                // Private table first; the shared directory covers
                // flows whose feedback was steered to a foreign shard.
                let dest = self.senders.get(flow).or_else(|| {
                    let found = self.directory.lookup(flow);
                    if let Some(addr) = found {
                        self.senders.insert(flow, addr); // cache for next time
                    }
                    found
                });
                match dest {
                    Some(sender) => {
                        queue.push_slot(i, header.wire_len(), sender);
                        counts.reversed += 1;
                    }
                    None => counts.dropped += 1,
                }
            }
        }
    }

    /// The quiescence sweep ([`RelayKind::Detecting`]), due every
    /// [`SWEEP_NS`]: before that it does nothing. Re-NACKs the tail losses
    /// of flows silent for [`SWEEP_NS`] at `now_ns`, in scratch NACKs that
    /// reference no ring. Returns the NACKs it queued.
    ///
    /// Sweep NACKs deliberately bypass the shed ladder: they fire on
    /// quiescence (so never during a storm), are the last recovery line
    /// for tail losses, and are bounded by the detector's own
    /// pending-loss memory.
    pub(crate) fn sweep(&mut self, now_ns: u64, queue: &mut SendQueue) -> RelayStats {
        let mut counts = RelayStats::default();
        if now_ns < self.next_sweep {
            return counts;
        }
        self.next_sweep = now_ns + SWEEP_NS;
        for loss in self.detector.sweep(now_ns) {
            // Every flow the detector observed had its sender learned first.
            if let Some(sender) = self.senders.get(loss.flow) {
                queue.push_nack(loss.flow, loss.seq, sender);
                counts.nacks += 1;
            }
        }
        counts
    }
}

// No socket and no clock, so these run under Miri too.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardStats;
    use crate::wire::{MAX_DATAGRAM, MAX_PAYLOAD};

    const KINDS: [RelayKind; 3] = [
        RelayKind::Streamlined,
        RelayKind::Naive,
        RelayKind::Detecting,
    ];

    fn addr(n: u8) -> SocketAddr {
        SocketAddr::from(([10, 0, 0, n], 1000 + u16::from(n)))
    }

    fn receiver() -> SocketAddr {
        addr(200)
    }

    fn data(flow: u64, seq: u64) -> Vec<u8> {
        WireHeader::data(flow, seq, 4).encode(&[7; 4])
    }

    fn nack(flow: u64, seq: u64) -> Vec<u8> {
        WireHeader::nack(flow, seq).encode(&[])
    }

    /// A step with a forward budget of `overload` a second (0: no ladder).
    fn step_with(kind: RelayKind, overload: u64) -> ShardStep {
        let directory = Arc::new(FlowDirectory::new(64));
        ShardStep::new(kind, receiver(), directory, NonZeroU64::new(overload))
    }

    /// A ring and a queue to step batches through.
    struct Bench {
        ring: RecvRing,
        queue: SendQueue,
    }

    type Sent = Vec<(Vec<u8>, SocketAddr)>;

    impl Bench {
        fn new() -> Self {
            Bench {
                ring: RecvRing::new(),
                queue: SendQueue::new(),
            }
        }

        /// Steps `datagrams` as one batch at `now_ns`: the counts, and
        /// what the queue then holds, in order.
        fn batch(
            &mut self,
            step: &mut ShardStep,
            datagrams: &[(Vec<u8>, SocketAddr)],
            now_ns: u64,
        ) -> (RelayStats, Sent) {
            self.ring.reset();
            for (bytes, from) in datagrams {
                assert!(self.ring.push_received(bytes, *from));
            }
            self.step_ring(step, now_ns)
        }

        /// Steps whatever the ring holds as one batch at `now_ns`.
        fn step_ring(&mut self, step: &mut ShardStep, now_ns: u64) -> (RelayStats, Sent) {
            self.queue.clear();
            let batch = 0..self.ring.len();
            let counts = step.step(&mut self.ring, batch, now_ns, &mut self.queue);
            (counts, self.queued())
        }

        fn sweep(&mut self, step: &mut ShardStep, now_ns: u64) -> (RelayStats, Sent) {
            self.queue.clear();
            let counts = step.sweep(now_ns, &mut self.queue);
            (counts, self.queued())
        }

        fn queued(&self) -> Sent {
            (0..self.queue.len())
                .map(|i| {
                    let (bytes, dest) = self.queue.resolve(&self.ring, i);
                    (bytes.to_vec(), dest)
                })
                .collect()
        }
    }

    /// The counts of one batch of `received` datagrams, before its outcomes.
    fn batch_of(received: u64) -> RelayStats {
        RelayStats {
            batches: 1,
            received,
            max_batch: received,
            ..RelayStats::default()
        }
    }

    /// Data goes to the receiver whole; a trimmed header comes back to its
    /// sender as a NACK on Streamlined and travels on as data otherwise;
    /// garbage is dropped.
    #[test]
    fn each_kind_forwards_nacks_and_drops_as_it_reads_the_decision() {
        let trimmed = WireHeader::trimmed(3, 1).encode(&[]);
        let garbage = vec![0xAB; 50];
        let batch = [
            (data(3, 0), addr(1)),
            (trimmed.clone(), addr(1)),
            (garbage, addr(2)),
        ];
        for kind in KINDS {
            let (counts, sent) = Bench::new().batch(&mut step_with(kind, 0), &batch, 0);
            let (forwarded, nacks, bounced) = match kind {
                RelayKind::Streamlined => (1, 1, (nack(3, 1), addr(1))),
                _ => (2, 0, (trimmed.clone(), receiver())),
            };
            assert_eq!(
                counts,
                RelayStats {
                    forwarded,
                    nacks,
                    dropped: 1,
                    ..batch_of(3)
                },
                "{kind:?}"
            );
            assert_eq!(sent, [(data(3, 0), receiver()), bounced], "{kind:?}");
        }
    }

    /// A datagram longer than the protocol's longest is dropped whatever
    /// its header says: an honest one a byte too long, and a trimmed
    /// header with junk behind it.
    #[test]
    fn oversize_datagrams_are_dropped() {
        let long = WireHeader::data(3, 0, MAX_PAYLOAD as u16 + 1).encode(&[7; MAX_PAYLOAD + 1]);
        let mut padded = WireHeader::trimmed(3, 1).encode(&[]);
        padded.resize(MAX_DATAGRAM + 1, 0xEE);
        for kind in KINDS {
            let mut bench = Bench::new();
            bench.ring.reset();
            for (area, bytes) in [&long, &padded].into_iter().enumerate() {
                assert_eq!(bytes.len(), MAX_DATAGRAM + 1);
                bench.ring.landing_mut(area)[..bytes.len()].copy_from_slice(bytes);
                bench.ring.land(area, bytes.len(), 0, addr(1));
            }
            assert!(bench.ring.push_received(&data(3, 2), addr(1)));
            let (counts, sent) = bench.step_ring(&mut step_with(kind, 0), 0);
            assert_eq!(
                counts,
                RelayStats {
                    forwarded: 1,
                    dropped: 2,
                    ..batch_of(3)
                },
                "{kind:?}"
            );
            assert_eq!(sent, [(data(3, 2), receiver())], "{kind:?}");
        }
    }

    /// Feedback reverses to the flow's sender even when another shard's
    /// step learned it: through the directory that step published into,
    /// for an IPv4 or an IPv6 sender and for flow `u64::MAX` too.
    /// Feedback for a flow nobody learned is dropped.
    #[test]
    fn feedback_reverses_through_a_directory_another_step_published_into() {
        let v6: SocketAddr = "[::1]:4000".parse().unwrap();
        for (flow, sender) in [(8, addr(1)), (8, v6), (u64::MAX, addr(1))] {
            for kind in KINDS {
                let directory = Arc::new(FlowDirectory::new(64));
                let mut home = ShardStep::new(kind, receiver(), directory.clone(), None);
                let mut foreign = ShardStep::new(kind, receiver(), directory, None);
                let mut bench = Bench::new();
                bench.batch(&mut home, &[(data(flow, 0), sender)], 0);
                let ack = WireHeader::ack(flow, 0).encode(&[]);
                let stray = WireHeader::ack(flow.wrapping_add(1), 0).encode(&[]);
                let feedback = [(ack.clone(), receiver()), (stray, receiver())];
                let (counts, sent) = bench.batch(&mut foreign, &feedback, 0);
                assert_eq!(
                    counts,
                    RelayStats {
                        reversed: 1,
                        dropped: 1,
                        ..batch_of(2)
                    },
                    "{kind:?} {flow} {sender}"
                );
                assert_eq!(sent, [(ack, sender)], "{kind:?} {flow} {sender}");
            }
        }
    }

    /// The ladder at one `now_ns`, so no bucket refills: 128 forwards (a
    /// burst of two batches), then NACKs instead (one per flow per batch,
    /// the rest coalesced) until the 64-token NACK burst is spent, then
    /// counted drops. 100 ms later the forward budget of 1,000 a second
    /// has refilled 100 tokens.
    #[test]
    fn the_shed_ladder_climbs_its_three_rungs_and_refills() {
        let mut step = step_with(RelayKind::Streamlined, 1_000);
        let mut bench = Bench::new();
        let t = 1_000_000_000;
        let flows = |flows: std::ops::Range<u64>, seq: u64| -> Vec<(Vec<u8>, SocketAddr)> {
            flows.map(|f| (data(f, seq), addr(1))).collect()
        };
        for seq in 0..2 {
            let (counts, sent) = bench.batch(&mut step, &flows(0..64, seq), t);
            assert_eq!(
                counts,
                RelayStats {
                    forwarded: 64,
                    ..batch_of(64)
                }
            );
            assert!(sent.iter().all(|(_, dest)| *dest == receiver()));
        }
        // Rung 2: two datagrams each of 32 flows, one NACKed, one coalesced.
        let twice: Vec<_> = (0..32)
            .flat_map(|f| [(data(f, 2), addr(1)), (data(f, 3), addr(1))])
            .collect();
        let (counts, sent) = bench.batch(&mut step, &twice, t);
        assert_eq!(
            counts,
            RelayStats {
                nacks: 32,
                shed_nacked: 32,
                nacks_coalesced: 32,
                ..batch_of(64)
            }
        );
        let nacked: Vec<_> = (0..32).map(|f| (nack(f, 2), addr(1))).collect();
        assert_eq!(sent, nacked);
        // Rung 3: the NACK bucket's last 32 tokens, then drops.
        let (counts, sent) = bench.batch(&mut step, &flows(0..64, 4), t);
        assert_eq!(
            counts,
            RelayStats {
                nacks: 32,
                shed_nacked: 32,
                shed_dropped: 32,
                ..batch_of(64)
            }
        );
        assert_eq!(sent.len(), 32);
        // The refill.
        let later = t + 100_000_000;
        let (counts, _) = bench.batch(&mut step, &flows(0..64, 5), later);
        assert_eq!(
            counts,
            RelayStats {
                forwarded: 64,
                ..batch_of(64)
            }
        );
        let (counts, _) = bench.batch(&mut step, &flows(0..64, 6), later);
        assert_eq!(
            counts,
            RelayStats {
                forwarded: 36,
                nacks: 25,
                shed_nacked: 25,
                shed_dropped: 3,
                ..batch_of(64)
            }
        );
    }

    /// Seq 1 of flow 7 is missing: the eighth later arrival declares it,
    /// and the NACK goes to the sender in the same batch as that arrival
    /// goes on to the receiver.
    #[test]
    fn detecting_nacks_an_inferred_gap() {
        let mut step = step_with(RelayKind::Detecting, 0);
        let batch: Vec<_> = (0..10)
            .filter(|&seq| seq != 1)
            .map(|seq| (data(7, seq), addr(1)))
            .collect();
        let (counts, sent) = Bench::new().batch(&mut step, &batch, 1_000);
        assert_eq!(
            counts,
            RelayStats {
                forwarded: 9,
                nacks: 1,
                ..batch_of(9)
            }
        );
        assert_eq!(sent.iter().filter(|(_, to)| *to == receiver()).count(), 9);
        assert!(sent.contains(&(nack(7, 1), addr(1))), "{sent:?}");
    }

    /// A tail loss has no later arrival to reveal it: only the sweep NACKs
    /// it, once the flow has been silent for [`SWEEP_NS`] and a sweep is
    /// due.
    #[test]
    fn detecting_sweep_nacks_a_tail_loss_when_due() {
        let mut step = step_with(RelayKind::Detecting, 0);
        let mut bench = Bench::new();
        let batch = [(data(9, 0), addr(2)), (data(9, 2), addr(2))];
        let (counts, _) = bench.batch(&mut step, &batch, 0);
        assert_eq!(counts.nacks, 0);
        // Due (the first call always is), but the flow is not yet silent
        // long enough; the next sweep is due a period later.
        assert_eq!(bench.sweep(&mut step, SWEEP_NS - 1), Default::default());
        // Silent long enough, but not due.
        assert_eq!(bench.sweep(&mut step, 2 * SWEEP_NS - 2), Default::default());
        let swept = (
            RelayStats {
                nacks: 1,
                ..RelayStats::default()
            },
            vec![(nack(9, 1), addr(2))],
        );
        assert_eq!(bench.sweep(&mut step, 2 * SWEEP_NS - 1), swept);
    }

    /// The NACK budget refuses generated NACKs on a counter of their own:
    /// none of them answers a received datagram, so `received` stays the
    /// sum of `forwarded` and the data the ladder shed. One flow loses
    /// every odd seq and each datagram is its own batch, at one `now_ns`:
    /// the first 128 are forwarded, and from the ninth on each declares a
    /// loss, so 120 generated NACKs meet the 64-token NACK burst; the four
    /// past the forward burst are shed.
    #[test]
    fn a_refused_generated_nack_is_no_shed_datagram() {
        let mut step = step_with(RelayKind::Detecting, 1_000);
        let mut bench = Bench::new();
        let stats = ShardStats::default();
        for k in 0..132 {
            let (counts, _) = bench.batch(&mut step, &[(data(5, 2 * k), addr(1))], 7);
            stats.flush(&counts);
        }
        let mut total = RelayStats::default();
        total.merge(&stats);
        assert_eq!(
            total,
            RelayStats {
                batches: 132,
                received: 132,
                max_batch: 1,
                forwarded: 128,
                nacks: 64,
                nacks_refused: 56,
                shed_dropped: 4,
                ..RelayStats::default()
            }
        );
        assert_eq!(total.received, total.forwarded + total.shed_dropped);
    }
}
