//! Run the real proxies on loopback and measure their per-packet
//! overhead — a miniature of the paper's §5 testbed study.
//!
//! Starts the Naive TCP split-connection proxy and the sharded UDP
//! trim/NACK relay, drives each with its load generator, and prints their
//! processing-latency distributions: the user-space relay overhead
//! (Fig. 4's measurand) next to the streamlined datapath's through-stack
//! cost (Fig. 5b, per datagram of a receive batch) and its pure
//! decision-logic cost (Fig. 5a, measured here over a quick in-process
//! loop).
//!
//! Run with: `cargo run --release --example live_proxy`

use netproxy::wire::WireHeader;
use netproxy::{
    decide, Action, BatchLoadGen, BatchSink, NaiveProxy, RelayConfig, ShardedRelay, SocketLayer,
    TcpLoadGen, TcpSink,
};
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use trace::Table;

fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().expect("addr")
}

/// Polls until `done` or 2 s pass (relays trail the generators a moment).
fn settle(done: impl Fn() -> bool) {
    // simlint: allow(wall-clock) — drain deadline for live sockets
    let start = Instant::now();
    while !done() && start.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn main() {
    // --- Naive TCP proxy under load ---
    let tcp_sink = TcpSink::start().expect("sink");
    let naive = NaiveProxy::start(loopback(), tcp_sink.local_addr()).expect("naive proxy");
    let tcp_stats = TcpLoadGen::scaled_default()
        .run(naive.local_addr())
        .expect("tcp load");
    settle(|| tcp_sink.bytes() == tcp_stats.sent_bytes);
    let naive_cdf = naive.recorder().cdf_micros().expect("naive samples");

    // --- Streamlined UDP relay under load (with virtual trimming) ---
    // simlint: allow(wall-clock) — timestamp base of a live-socket run
    let epoch = Instant::now();
    let udp_sink = BatchSink::start(1, SocketLayer::Auto, epoch).expect("sink");
    let streamlined = ShardedRelay::start(
        loopback(),
        RelayConfig {
            shards: 1,
            ..RelayConfig::streamlined(udp_sink.local_addr())
        },
    )
    .expect("streamlined relay");
    // 100 Mbit/s of 1400 B datagrams on one flow, a fifth of them trimmed.
    let udp_stats = BatchLoadGen {
        threads: 1,
        flows_per_thread: 1,
        rate_pps: 8_900,
        duration: Duration::from_secs(1),
        trim_fraction: 0.2,
        payload_len: 1400,
        layer: SocketLayer::Auto,
        drain_grace: Duration::from_millis(10),
    }
    .run(streamlined.local_addr(), epoch)
    .expect("udp load");
    settle(|| streamlined.stats().received == udp_stats.delivered());
    let stream_cdf = streamlined.recorder().cdf_micros().expect("samples");
    let relay = streamlined.stats();

    // --- Pure decision logic (the Fig. 5a lower bound analogue) ---
    let data = WireHeader::data(1, 1, 1000).encode(&vec![0u8; 1000]);
    let trimmed = WireHeader::trimmed(1, 2).encode(&[]);
    let iters = 2_000_000u64;
    // simlint: allow(wall-clock) — times the real proxy decision loop, not sim state
    let start = Instant::now();
    let mut keep = 0u64;
    for i in 0..iters {
        let wire = if i % 4 == 0 { &trimmed } else { &data };
        match decide(std::hint::black_box(wire)) {
            Action::ForwardToReceiver(_) => keep += 1,
            Action::NackToSender(_) => keep += 2,
            _ => {}
        }
    }
    let per_packet_ns = start.elapsed().as_nanos() as f64 / iters as f64;
    assert!(keep > 0);

    println!();
    println!(
        "naive proxy relayed {} over TCP ({} connections); sink saw {}",
        trace::table::fmt_bytes(tcp_stats.sent_bytes),
        naive.connections(),
        trace::table::fmt_bytes(tcp_sink.bytes()),
    );
    println!(
        "streamlined relay: {} datagrams offered, {} trimmed -> {} NACKs generated, {} came back; {:.2} datagrams per receive batch",
        udp_stats.sent_packets,
        udp_stats.trimmed_sent,
        relay.nacks,
        udp_stats.nacks_received,
        relay.received as f64 / relay.batches.max(1) as f64,
    );
    println!();
    assert_eq!(
        tcp_sink.bytes(),
        tcp_stats.sent_bytes,
        "naive relay lost bytes"
    );
    assert_eq!(
        relay.nacks, udp_stats.trimmed_sent,
        "one NACK per trimmed header"
    );

    let mut table = Table::new(vec!["path", "p50", "p90", "p99", "samples"]);
    table.row(vec![
        "naive user-space relay (us)".to_string(),
        format!("{:.2}", naive_cdf.median()),
        format!("{:.2}", naive_cdf.quantile(0.9)),
        format!("{:.2}", naive_cdf.quantile(0.99)),
        naive_cdf.len().to_string(),
    ]);
    table.row(vec![
        "streamlined through-stack (us)".to_string(),
        format!("{:.2}", stream_cdf.median()),
        format!("{:.2}", stream_cdf.quantile(0.9)),
        format!("{:.2}", stream_cdf.quantile(0.99)),
        stream_cdf.len().to_string(),
    ]);
    table.row(vec![
        "streamlined decision only (us)".to_string(),
        format!("{:.3}", per_packet_ns / 1000.0),
        "—".to_string(),
        "—".to_string(),
        iters.to_string(),
    ]);
    print!("{}", table.render());
    println!();
    println!("The decision logic costs well under a microsecond — the rest is");
    println!("network-stack overhead, which is the paper's argument for");
    println!("hooking the proxy low in the stack (eBPF/XDP/NIC offload).");
}
