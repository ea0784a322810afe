//! Property-based tests (seeded cases from `trace::cases`) over the core
//! data structures and invariants: event ordering, queue conservation,
//! sequence tracking, loss detection, wire-format round-trips, statistics,
//! and simulator determinism.

use dcsim::events::{Event, EventQueue, TimerKind};
use dcsim::packet::{AgentId, FlowId, HostId, Packet};
use dcsim::protocol::SeqSet;
use dcsim::queues::{EnqueueOutcome, PortQueue, QueueConfig};
use dcsim::time::SimTime;
use incast_core::lossdetect::{LossDetector, LossDetectorConfig};
use netproxy::wire::{Flags, WireHeader};
use std::collections::BTreeSet;
use std::ops::Range;
use trace::{cases, LogHistogram, SplitMix64};

/// A uniform draw from a half-open range.
fn draw(rng: &mut SplitMix64, range: Range<u64>) -> u64 {
    range.start + rng.next_bounded(range.end - range.start)
}

fn coin(rng: &mut SplitMix64) -> bool {
    rng.next_bounded(2) == 1
}

/// A vector whose length is drawn from `len` and whose elements come from `elem`.
fn vec_of<T>(
    rng: &mut SplitMix64,
    len: Range<u64>,
    mut elem: impl FnMut(&mut SplitMix64) -> T,
) -> Vec<T> {
    (0..draw(rng, len)).map(|_| elem(rng)).collect()
}

/// Events pop in non-decreasing time order and same-time events keep
/// insertion order, for any schedule.
#[test]
fn event_queue_total_order() {
    cases(1, 256, |_, rng| {
        let times = vec_of(rng, 1..200, |r| draw(r, 0..1_000_000));
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(
                SimTime(t),
                Event::Timer {
                    agent: AgentId(i as u32),
                    kind: TimerKind::Rto,
                },
            );
        }
        let mut last: Option<(SimTime, u32)> = None;
        while let Some((at, Event::Timer { agent, .. })) = q.pop() {
            if let Some((lt, lagent)) = last {
                assert!(at >= lt, "time went backwards");
                if at == lt {
                    assert!(agent.0 > lagent, "tie broke out of insertion order");
                }
            }
            assert_eq!(at.0, times[agent.0 as usize]);
            last = Some((at, agent.0));
        }
        assert!(q.is_empty());
    });
}

/// Conservation: every packet offered to a port queue is eventually
/// dequeued (possibly trimmed) or dropped — never duplicated or lost.
#[test]
fn port_queue_conserves_packets() {
    cases(2, 256, |_, rng| {
        let seed = rng.next_u64();
        let ops = vec_of(rng, 1..500, coin);
        let capacity_pkts = draw(rng, 1..16);
        let cfg = QueueConfig {
            capacity_bytes: capacity_pkts * 1500,
            ctrl_capacity_bytes: 4 * 64,
            mark_low_bytes: 1500,
            mark_high_bytes: 3000,
            trim: true,
        };
        let mut q = PortQueue::new(cfg);
        let mut rng = SplitMix64::new(seed);
        let mut offered = 0u64;
        let mut dequeued = 0u64;
        let mut dropped = 0u64;
        for (i, &enq) in ops.iter().enumerate() {
            if enq {
                let pkt = Packet::data(FlowId(0), i as u64, HostId(0), HostId(1), 0);
                offered += 1;
                if q.enqueue(pkt, &mut rng) == EnqueueOutcome::Dropped {
                    dropped += 1;
                }
            } else if q.dequeue().is_some() {
                dequeued += 1;
            }
        }
        while q.dequeue().is_some() {
            dequeued += 1;
        }
        assert_eq!(offered, dequeued + dropped);
        assert_eq!(q.total_bytes(), 0);
    });
}

/// ECN marking only upgrades Ect -> Ce; it never clears a mark, and
/// trimmed packets keep their sequence number.
#[test]
fn queue_never_unmarks_or_renumbers() {
    cases(3, 256, |_, rng| {
        let seed = rng.next_u64();
        let n = draw(rng, 1..100) as usize;
        let mut q = PortQueue::new(QueueConfig {
            capacity_bytes: 3 * 1500,
            ctrl_capacity_bytes: 1_000_000,
            mark_low_bytes: 0,
            mark_high_bytes: 1500,
            trim: true,
        });
        let mut rng = SplitMix64::new(seed);
        for i in 0..n {
            let pkt = Packet::data(FlowId(0), i as u64, HostId(0), HostId(1), 0);
            q.enqueue(pkt, &mut rng);
        }
        let mut seen = BTreeSet::new();
        while let Some(p) = q.dequeue() {
            assert!(seen.insert(p.seq), "duplicate seq {}", p.seq);
            assert!((p.seq as usize) < n);
        }
    });
}

/// SeqSet behaves exactly like a BTreeSet under arbitrary operations.
#[test]
fn seqset_matches_model() {
    cases(4, 256, |_, rng| {
        let ops = vec_of(rng, 1..400, |r| (draw(r, 0..256), coin(r)));
        let mut real = SeqSet::new(256);
        let mut model = BTreeSet::new();
        for (seq, insert) in ops {
            if insert {
                assert_eq!(real.insert(seq), model.insert(seq));
            } else {
                assert_eq!(real.remove(seq), model.remove(&seq));
            }
            assert_eq!(real.len(), model.len() as u64);
        }
        let drained: Vec<u64> = real.iter().collect();
        let expected: Vec<u64> = model.into_iter().collect();
        assert_eq!(drained, expected);
    });
}

/// Without reordering, the loss detector finds exactly the dropped
/// sequences (no false positives, no false negatives) provided enough
/// packets follow each gap.
#[test]
fn loss_detector_exact_in_order() {
    cases(5, 256, |_, rng| {
        let drop_mask = vec_of(rng, 32..300, coin);
        let n = drop_mask.len() as u64;
        let mut det = LossDetector::new(LossDetectorConfig {
            reorder_threshold: 3,
            max_pending: 4096,
        });
        let mut declared = Vec::new();
        let mut dropped = Vec::new();
        for seq in 0..n {
            // Keep the last 8 packets so every gap gets enough successors.
            if drop_mask[seq as usize] && seq < n - 8 {
                dropped.push(seq);
            } else {
                declared.extend(det.observe(FlowId(0), seq).into_iter().map(|e| e.seq));
            }
        }
        declared.sort_unstable();
        assert_eq!(declared, dropped);
    });
}

/// Wire format round-trips arbitrary valid headers and payloads.
#[test]
fn wire_roundtrip() {
    cases(6, 256, |_, rng| {
        let (flow, seq) = (rng.next_u64(), rng.next_u64());
        let payload = vec_of(rng, 0..1400, |r| r.next_u64() as u8);
        let kind = draw(rng, 0..4);
        let header = match kind {
            0 => WireHeader::data(flow, seq, payload.len() as u16),
            1 => WireHeader::ack(flow, seq),
            2 => WireHeader::nack(flow, seq),
            _ => WireHeader::trimmed(flow, seq),
        };
        let body: &[u8] = if kind == 0 { &payload } else { &[] };
        let wire = header.encode(body);
        let (decoded, p) = WireHeader::decode(&wire).expect("roundtrip");
        assert_eq!(decoded, header);
        assert_eq!(p, body);
        assert!(decoded.flags.is_valid());
    });
}

/// Arbitrary byte blobs never panic the decoder and never round-trip
/// into TRIMMED-without-DATA or multi-type flags.
#[test]
fn wire_decoder_is_total() {
    cases(7, 256, |_, rng| {
        let blob = vec_of(rng, 0..200, |r| r.next_u64() as u8);
        if let Ok((h, _)) = WireHeader::decode(&blob) {
            assert!(h.flags.is_valid());
            assert!(!h.flags.contains(Flags::TRIMMED) || h.flags.contains(Flags::DATA));
        }
    });
}

/// Histogram quantiles stay within the recorded min/max and respect
/// the relative-error bound at the median.
#[test]
fn histogram_bounded_error() {
    let check = |values: &[u64]| {
        let mut h = LogHistogram::new();
        for &v in values {
            h.record(v);
        }
        let q50 = h.quantile(0.5);
        assert!(q50 >= h.min() && q50 <= h.max());
        // Compare against the same rank definition the histogram uses
        // (the ceil(q·n)-th smallest sample), within the bucketing error.
        let exact = {
            let mut s = values.to_vec();
            s.sort_unstable();
            s[(values.len().div_ceil(2)) - 1] as f64
        };
        assert!(
            (q50 as f64) <= exact * 1.02 + 2.0,
            "q50={q50} exact={exact}"
        );
        assert!(
            (q50 as f64) >= exact * 0.98 - 2.0,
            "q50={q50} exact={exact}"
        );
    };
    // The one case proptest ever recorded for this property: half the
    // samples at each end of the range, the median on the low side.
    const BIG: u64 = 431_095_752;
    check(&[
        1, BIG, 1, BIG, BIG, 1, 1, BIG, 1, BIG, 1, BIG, 1, BIG, BIG, 1, BIG, BIG, BIG, 1, 1, 1,
    ]);
    cases(9, 256, |_, rng| {
        check(&vec_of(rng, 8..200, |r| draw(r, 1..1_000_000_000)))
    });
}

/// Histogram quantiles are non-decreasing over 21 steps of `q` and stay
/// within `[min, max]`; the extreme quantiles are the extreme samples,
/// exactly below 128 (one bucket per value), else to within the 2^-7
/// bucketing error (buckets report their midpoints).
#[test]
fn histogram_quantiles_monotone() {
    cases(8, 256, |_, rng| {
        let top = [128, 1_000_000, 1_000_000_000][draw(rng, 0..3) as usize];
        let mut h = LogHistogram::new();
        for v in vec_of(rng, 1..300, |r| draw(r, 0..top)) {
            h.record(v);
        }
        let qs: Vec<u64> = (0..=20).map(|i| h.quantile(f64::from(i) / 20.0)).collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
        assert!(qs.iter().all(|q| (h.min()..=h.max()).contains(q)), "{qs:?}");
        // 2^-7 of a value below 128 is 0: those must be exact.
        let near = |q: u64, v: u64| q.abs_diff(v) <= v >> 7;
        let (min, max) = (h.min(), h.max());
        assert!(near(qs[0], min) && near(qs[20], max), "{qs:?} {min} {max}");
    });
}

/// Any (seed, degree, size) combination completes under every scheme
/// on the small topology, and the same seed reproduces the same ICT.
#[test]
fn incasts_always_complete_and_replay() {
    cases(10, 8, |_, rng| {
        let seed = draw(rng, 0..1000);
        let degree = draw(rng, 1..5) as usize;
        let mb = draw(rng, 1..12);
        use dcsim::prelude::*;
        use incast_core::scenario::{Fabric, Scenario};
        use incast_core::Scheme;
        for scheme in Scheme::ALL {
            let run = || {
                let params =
                    TwoDcParams::small_test().with_trim(scheme == Scheme::ProxyStreamlined);
                let fabric = Fabric::TwoDc(params);
                let spec = fabric.placement(degree, mb * 1_000_000);
                let sc = Scenario::incast(fabric, scheme, spec);
                let (_, report, icts) = sc.run(seed).expect("builds");
                assert_eq!(report.stop, StopReason::Idle);
                icts[0].expect("completes")
            };
            let a = run();
            let b = run();
            assert_eq!(a, b, "seed {} must replay identically", seed);
        }
    });
}

/// The unstructured random topology always routes every cross-DC pair
/// and is deterministic per seed.
#[test]
fn unstructured_topology_always_routes() {
    cases(11, 16, |_, rng| {
        let seed = rng.next_u64();
        use dcsim::topology::{two_dc_unstructured, UnstructuredParams};
        let params = UnstructuredParams {
            switches_per_dc: 5,
            extra_links_per_dc: 4,
            hosts_per_dc: 6,
            gateways: 2,
            seed,
            ..Default::default()
        };
        let t = two_dc_unstructured(&params);
        let src = t.hosts_in_dc(0)[0];
        for &dst in &t.hosts_in_dc(1) {
            assert!(t.path_hops(src, dst) >= 3);
            assert!(t.path_hops(src, dst) <= t.node_count());
        }
        // Determinism: rebuilding yields identical path lengths.
        let t2 = two_dc_unstructured(&params);
        for &dst in &t.hosts_in_dc(1) {
            assert_eq!(t.path_hops(src, dst), t2.path_hops(src, dst));
        }
    });
}

/// The rate policy's pacing rate stays within its bounds as delivery-rate
/// samples arrive: never under `MIN_RATE`, never over the largest sample
/// so far (or the initial rate) times the STARTUP gain.
#[test]
fn rate_sender_pacing_bounded() {
    cases(12, 16, |_, rng| {
        let samples = vec_of(rng, 1..64, |r| draw(r, 1..1_000_000_000_000));
        use dcsim::agent::Ctx;
        use dcsim::packet::DATA_PKT_SIZE;
        use dcsim::protocol::rate::{MIN_RATE, STARTUP_GAIN};
        use dcsim::protocol::{CongestionControl, Rate, RateCcConfig};
        use dcsim::time::{Bandwidth, SimDuration, PS_PER_SEC};
        let config = RateCcConfig::for_path(SimDuration::from_micros(100), Bandwidth::gbps(100));
        let mut rate = Rate::new(config);
        let srtt = Some(SimDuration::from_micros(100));
        // A packet acked `elapsed` ps after it left, with nothing else
        // delivered meanwhile, is a sample of `bits / elapsed` bps.
        let bits = DATA_PKT_SIZE * 8 * PS_PER_SEC;
        let (mut now, mut peak, mut fx) = (SimTime(0), config.initial_rate.bps(), Vec::new());
        for (seq, &bps) in (0u64..).zip(&samples) {
            let elapsed = bits / bps;
            rate.on_send(seq, now);
            now = SimTime(now.0 + elapsed);
            let ack = Packet::ack_for(
                &Packet::data(FlowId(0), seq, HostId(0), HostId(1), 0),
                HostId(1),
            );
            rate.on_ack(&ack, srtt, &mut Ctx::harness(now, AgentId(0), &mut fx));
            peak = peak.max(bits / elapsed);
            let pacing = rate.pacing_rate().bps();
            assert!(pacing >= MIN_RATE.bps(), "{pacing} under the floor");
            assert!(
                pacing <= (peak as f64 * STARTUP_GAIN) as u64 + 1,
                "{pacing} over {peak} x startup gain"
            );
        }
        assert!(rate.btl_bw().bps() > 0);
    });
}

/// RTO backoff is monotone non-decreasing across consecutive timeouts
/// and always clamped to `max_rto`, for any interleaving of RTT samples
/// and expiries.
#[test]
fn rto_backoff_monotone_and_clamped() {
    cases(13, 16, |_, rng| {
        let ops = vec_of(rng, 1..200, |r| (coin(r), draw(r, 1..10_000)));
        use dcsim::protocol::rto::{RtoConfig, RttEstimator};
        use dcsim::time::SimDuration;
        let config = RtoConfig {
            min_rto: SimDuration::from_micros(100),
            max_rto: SimDuration::from_millis(10),
            initial_rto: SimDuration::from_micros(300),
        };
        let mut est = RttEstimator::new(config);
        let mut last_rto: Option<SimDuration> = None;
        // (true, us): an RTT sample arrives (resets backoff).
        // (false, _): a timeout expires.
        for (is_sample, us) in ops {
            if is_sample {
                est.sample(SimDuration::from_micros(us));
                last_rto = None;
            } else {
                est.on_timeout();
                let rto = est.rto();
                if let Some(prev) = last_rto {
                    assert!(rto >= prev, "backoff went backwards: {prev:?} -> {rto:?}");
                }
                last_rto = Some(rto);
            }
            assert!(
                est.rto() <= config.max_rto,
                "rto above max: {:?}",
                est.rto()
            );
            assert!(est.rto() > SimDuration::ZERO);
        }
    });
}

/// The loss detector's sweep never reports a sequence that already
/// arrived, for any loss/arrival interleaving.
#[test]
fn sweep_never_renacks_arrived_seqs() {
    cases(14, 16, |_, rng| {
        let drop_mask = vec_of(rng, 16..120, coin);
        use incast_core::lossdetect::{LossDetector, LossDetectorConfig};
        let mut det = LossDetector::new(LossDetectorConfig {
            reorder_threshold: 4,
            max_pending: 256,
        });
        let mut arrived = Vec::new();
        for (seq, &dropped) in drop_mask.iter().enumerate() {
            if !dropped {
                det.observe(FlowId(0), seq as u64);
                arrived.push(seq as u64);
            }
        }
        for _ in 0..4 {
            for loss in det.sweep(FlowId(0)) {
                assert!(
                    !arrived.contains(&loss.seq),
                    "sweep re-NACKed an arrived sequence {}",
                    loss.seq
                );
            }
        }
    });
}

/// An incast survives a mid-run down/up window on the receiver's
/// down-ToR link — the hop every flow crosses — for any flap timing:
/// every flow completes, which the receiver only reports once its
/// sequence set holds every range exactly once (duplicates are
/// deduplicated, losses are retransmitted; neither can fake
/// completion).
#[test]
fn incast_survives_receiver_link_flap() {
    cases(15, 6, |_, rng| {
        let seed = draw(rng, 0..1000);
        let down_us = draw(rng, 10..400);
        let outage_us = draw(rng, 10..500);
        use dcsim::prelude::*;
        use incast_core::experiment::{run_incast, ExperimentConfig, FaultScenario};
        use incast_core::Scheme;
        for scheme in [Scheme::Baseline, Scheme::ProxyStreamlined] {
            let config = ExperimentConfig {
                topo: TwoDcParams::small_test(),
                scheme,
                degree: 3,
                total_bytes: 2_000_000,
                seed,
                faults: FaultScenario::ReceiverLinkFlap {
                    after: SimDuration::from_micros(down_us),
                    up_after: SimDuration::from_micros(outage_us),
                },
                ..Default::default()
            };
            // run_incast panics if any flow stalls permanently.
            let out = run_incast(&config, seed);
            assert!(out.completion_secs > 0.0, "{scheme}: {out:?}");
        }
    });
}
