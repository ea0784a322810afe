//! Criterion benchmarks of the batched netproxy datapath's per-packet
//! CPU work: zero-copy [`DatagramView`] parsing vs. the owned
//! [`WireHeader::decode`] it replaced, the in-place TRIMMED→NACK header
//! rewrite vs. building a fresh NACK allocation, and zero-alloc
//! [`WireHeader::encode_into`] staging vs. allocating `encode`.
//!
//! Every benchmark processes one full receive ring ([`BATCH`] = 64
//! datagrams) per iteration — the datapath's actual unit of work — so
//! the per-iteration time sits in the microsecond range where scheduler
//! jitter amortizes instead of dominating; single-datagram times on
//! these paths are 2–50 ns and ungateable on a shared runner.
//! `scripts/perfgate.sh` holds the medians against the committed
//! `BENCH_netproxy.json` baseline; the throughput numbers (pkts/sec
//! through the sharded relay) live in `scripts/bench_netproxy.sh`'s
//! loadgen sweep.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use netproxy::wire::{rewrite_trimmed_to_nack, MAX_PAYLOAD};
use netproxy::{decide, Action, DatagramView, SendQueue, WireHeader, BATCH, MAX_DATAGRAM};

fn bench_parse(c: &mut Criterion) {
    let mut group = c.benchmark_group("netproxy_parse");
    group.throughput(Throughput::Elements(BATCH as u64));
    let wire = WireHeader::data(7, 42, MAX_PAYLOAD as u16).encode(&vec![0u8; MAX_PAYLOAD]);

    // The batched datapath's hot path: borrow each receive-ring slot,
    // read the four header fields, never copy the payload.
    group.bench_function("view_batch64_1400B", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..BATCH {
                let v = DatagramView::parse(black_box(&wire)).expect("valid");
                acc = acc.wrapping_add(v.flow() ^ v.seq() ^ u64::from(v.payload_len()));
            }
            black_box(acc)
        })
    });
    // What the per-datagram proxies do: decode into an owned header
    // (field copies) plus a borrowed payload slice.
    group.bench_function("owned_decode_batch64_1400B", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..BATCH {
                let (h, _p) = WireHeader::decode(black_box(&wire)).expect("valid");
                acc = acc.wrapping_add(h.flow ^ h.seq);
            }
            black_box(acc)
        })
    });
    // Rejection must be as cheap as acceptance — garbage floods the
    // proxy port in the incast scenarios.
    let junk = [0xA5u8; 64];
    group.bench_function("view_reject_batch64_garbage", |b| {
        b.iter(|| {
            let mut rejected = 0u32;
            for _ in 0..BATCH {
                rejected += u32::from(DatagramView::parse(black_box(&junk)).is_err());
            }
            black_box(rejected)
        })
    });
    group.finish();
}

fn bench_nack_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("netproxy_nack");
    group.throughput(Throughput::Elements(BATCH as u64));
    let trimmed = WireHeader::trimmed(7, 42).encode(&[]);

    // In-place: flip the flags byte of the TRIMMED header already
    // sitting in the receive ring and send the same buffer back.
    group.bench_function("rewrite_in_place_batch64", |b| {
        let mut ring = vec![[0u8; MAX_DATAGRAM]; BATCH];
        b.iter(|| {
            let mut acc = 0u32;
            for slot in ring.iter_mut() {
                slot[..trimmed.len()].copy_from_slice(&trimmed);
                rewrite_trimmed_to_nack(black_box(&mut slot[..trimmed.len()])).expect("trimmed");
                acc += u32::from(slot[2]);
            }
            black_box(acc)
        })
    });
    // Allocating: what the per-datagram streamlined proxy does — decode
    // the TRIMMED header, build a fresh NACK, encode into a new Bytes.
    group.bench_function("decode_then_encode_batch64", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..BATCH {
                let (h, _) = WireHeader::decode(black_box(&trimmed)).expect("valid");
                acc += WireHeader::nack(h.flow, h.seq).encode(&[]).len();
            }
            black_box(acc)
        })
    });
    // Detector-driven NACKs (no inbound TRIMMED buffer to reuse): stage
    // a full batch of inline NACKs into the send queue and recycle it —
    // the shard worker's actual path (write_nack_into + queue entry).
    group.bench_function("queue_inline_nacks_batch64", |b| {
        let mut queue = SendQueue::new();
        let dest: std::net::SocketAddr = "127.0.0.1:9".parse().unwrap();
        b.iter(|| {
            queue.clear();
            for i in 0..BATCH as u64 {
                queue.push_nack(black_box(7), black_box(i), black_box(dest));
            }
            black_box(queue.is_empty())
        })
    });
    group.finish();
}

fn bench_stage(c: &mut Criterion) {
    let mut group = c.benchmark_group("netproxy_stage");
    group.throughput(Throughput::Elements(BATCH as u64));
    let payload = vec![0u8; 64];
    let header = WireHeader::data(7, 42, 64);

    // Zero-alloc: serialize straight into ring slots (the loadgen's
    // staging path — one of these per generated packet).
    group.bench_function("encode_into_batch64_64B", |b| {
        let mut ring = vec![[0u8; MAX_DATAGRAM]; BATCH];
        b.iter(|| {
            let mut total = 0usize;
            for slot in ring.iter_mut() {
                total += header.encode_into(black_box(slot), black_box(&payload));
            }
            black_box(total)
        })
    });
    // Allocating equivalent for comparison.
    group.bench_function("encode_alloc_batch64_64B", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for _ in 0..BATCH {
                total += header.encode(black_box(&payload)).len();
            }
            black_box(total)
        })
    });
    group.finish();
}

/// The composed per-batch relay decision as the shard worker runs it:
/// `decide` on each slot, then rewrite or pass through. This bounds
/// single-shard pkts/sec from above.
fn bench_classify(c: &mut Criterion) {
    let mut group = c.benchmark_group("netproxy_classify");
    group.throughput(Throughput::Elements(BATCH as u64));
    let data = WireHeader::data(7, 42, 64).encode(&[0u8; 64]);
    let trimmed = WireHeader::trimmed(7, 42).encode(&[]);

    group.bench_function("data_passthrough_batch64", |b| {
        b.iter(|| {
            let mut forwards = 0u32;
            for _ in 0..BATCH {
                let action = decide(black_box(&data));
                forwards += u32::from(matches!(action, Action::ForwardToReceiver(_)));
            }
            black_box(forwards)
        })
    });
    group.bench_function("trimmed_to_nack_batch64", |b| {
        let mut ring = vec![[0u8; MAX_DATAGRAM]; BATCH];
        b.iter(|| {
            let mut acc = 0u32;
            for slot in ring.iter_mut() {
                slot[..trimmed.len()].copy_from_slice(&trimmed);
                if let Action::NackToSender(_) = decide(&slot[..trimmed.len()]) {
                    rewrite_trimmed_to_nack(&mut slot[..trimmed.len()]).expect("trimmed");
                }
                acc += u32::from(slot[2]);
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_parse,
    bench_nack_path,
    bench_stage,
    bench_classify
);
criterion_main!(benches);
