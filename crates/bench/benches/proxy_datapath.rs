//! Criterion benchmark of the streamlined proxy's critical-path logic —
//! the rigorous version of Figure 5a's lower bound: header parse + the
//! forward/NACK decision, no I/O. `decide` is the function the relay's
//! shard workers call per datagram.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use netproxy::wire::WireHeader;
use netproxy::{decide, Action};

fn bench_decide(c: &mut Criterion) {
    let data = WireHeader::data(1, 1, 1000).encode(&vec![0u8; 1000]);
    let trimmed = WireHeader::trimmed(1, 2).encode(&[]);
    let ack = WireHeader::ack(1, 3).encode(&[]);

    let mut group = c.benchmark_group("streamlined_decision");
    group.throughput(Throughput::Elements(1));
    group.bench_function("data_forward", |b| {
        b.iter(|| {
            let a = decide(black_box(&data));
            debug_assert!(matches!(a, Action::ForwardToReceiver(_)));
            black_box(a)
        })
    });
    group.bench_function("trimmed_nack", |b| {
        b.iter(|| {
            let a = decide(black_box(&trimmed));
            debug_assert!(matches!(a, Action::NackToSender(_)));
            black_box(a)
        })
    });
    group.bench_function("ack_reverse", |b| {
        b.iter(|| black_box(decide(black_box(&ack))))
    });
    group.bench_function("garbage_drop", |b| {
        let junk = [0u8; 64];
        b.iter(|| black_box(decide(black_box(&junk))))
    });
    group.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_format");
    group.throughput(Throughput::Elements(1));
    let payload = vec![0u8; 1400];
    group.bench_function("encode_data_1400B", |b| {
        let h = WireHeader::data(1, 1, 1400);
        b.iter(|| black_box(h.encode(black_box(&payload))))
    });
    let wire = WireHeader::data(1, 1, 1400).encode(&payload);
    group.bench_function("decode_data_1400B", |b| {
        b.iter(|| black_box(WireHeader::decode(black_box(&wire)).expect("valid")))
    });
    group.finish();
}

criterion_group!(benches, bench_decide, bench_wire);
criterion_main!(benches);
