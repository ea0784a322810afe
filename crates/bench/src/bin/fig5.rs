//! Figure 5: streamlined-proxy processing overhead, lower bound vs upper
//! bound.
//!
//! §5: "we measure the lower bound (including runtime of eBPF bytecode
//! without kernel overhead from NIC to TC) and upper bound (including
//! proxy processing and forwarding in addition to packet-to-wire,
//! physical transmission, packet reception) of the processing overhead.
//! The median lower-bound overhead of merely 0.42us highlights the
//! potential of having an eBPF-based proxy on critical path. ... The
//! disproportionally large upper-bound overhead, with a median of
//! 325.92us, highlights the minute impact of the proxy logic itself."
//!
//! Substitution (DESIGN.md §3): the lower bound is the runtime of the
//! pure decision function [`netproxy::decide`] (the entire critical-path
//! logic, our eBPF-bytecode analogue), sampled per packet; the upper
//! bound is the same function where it runs in production — inside a
//! one-shard `ShardedRelay` behind real UDP sockets over loopback,
//! through the full host network stack, in one [`live::run`] whose ledger
//! must balance. Its samples run from a receive batch's arrival in user
//! space through classify, the send syscall and the counter flush,
//! divided by the batch's datagram count: the table's
//! upper-bound column is that amortised per-datagram share, and the
//! average batch size is printed beside it (the open-loop generator
//! releases its schedule in bursts of up to 2 ms, so batches are tens of
//! datagrams, not one). The paper's upper bound is what one datagram
//! waits, and a datagram waits for its whole batch — from arrival in
//! user space to the one send call returning — so the figure's assertion
//! reads the un-amortised batch span (amortised median × that run's mean
//! batch size) against the decision; the retired per-datagram relay
//! stamped the same span, `recv_from` return → `send_to` return. Both
//! distributions come from the same mix (80 % data, 20 % trimmed headers,
//! the load generator's virtual trimming switch).
//!
//! Run with: `cargo run --release -p bench --bin fig5 [--quick]`

use bench::live::{self, LiveRun, Path};
use bench::{banner, json_line, RunOptions};
use netproxy::wire::WireHeader;
use netproxy::{decide, Action, BatchLoadGen, RelayKind, RelayStats, SocketLayer};
use std::time::{Duration, Instant};
use trace::json::Json;
use trace::{LogHistogram, SplitMix64, Table};

/// Lower bound: per-packet runtime of the decision logic alone, over the
/// same data/trimmed mix the live proxy sees. One timed call per sample
/// (like per-packet eBPF instrumentation). Nanoseconds.
fn lower_bound(samples: usize) -> LogHistogram {
    let mut hist = LogHistogram::new();
    let data = WireHeader::data(1, 1, 1000).encode(&vec![0u8; 1000]);
    let trimmed = WireHeader::trimmed(1, 2).encode(&[]);
    let ack = WireHeader::ack(1, 3).encode(&[]);
    let mut rng = SplitMix64::new(7);
    let mut sink = 0u64;
    for _ in 0..samples {
        let wire = match rng.next_bounded(10) {
            0..=1 => &trimmed,
            2 => &ack,
            _ => &data,
        };
        // simlint: allow(wall-clock) — measures real eBPF-datapath decision latency
        let start = Instant::now();
        let action = decide(wire);
        hist.record(start.elapsed().as_nanos() as u64);
        sink += match action {
            Action::ForwardToReceiver(_) => 1,
            Action::NackToSender(header) => header.seq,
            Action::ForwardToSender(_) => 2,
            Action::Drop => 0,
        };
    }
    assert!(sink > 0, "keep the optimizer honest");
    hist
}

/// Upper bound: the same decisions where the relay makes them — one shard
/// behind real UDP sockets (full stack), one live run judged by the live
/// ledger: the relay's per-datagram share of each batch's span,
/// nanoseconds, and its counters.
fn upper_bound(duration: Duration) -> (LogHistogram, RelayStats) {
    // The paper's iperf shape, rate-scaled: 200 Mbit/s of 1400 B datagrams
    // on one flow, a fifth of them trimmed on the way.
    let load = BatchLoadGen {
        threads: 1,
        flows_per_thread: 1,
        payload_len: 1400,
        rate_pps: 17_900,
        trim_fraction: 0.2,
        duration,
        layer: SocketLayer::Auto,
        drain_grace: Duration::from_millis(10),
    };
    eprintln!(
        "driving {} datagrams/s (1400 B, 20% trimmed) for {duration:?} ...",
        load.rate_pps
    );
    let path = Path::Sharded {
        kind: RelayKind::Streamlined,
        shards: 1,
    };
    let outcome = live::run(&LiveRun::clean(path, load));
    assert!(
        outcome.ledger.passed(),
        "the upper-bound run lost datagrams: {:?}\n{}",
        outcome.ledger.failed,
        outcome.ledger
    );
    (outcome.batch_share, outcome.counts.relay)
}

fn main() {
    let opts = RunOptions::from_args();
    print!(
        "{}",
        banner(
            "Figure 5",
            "streamlined proxy overhead: decision-logic lower bound vs through-stack upper bound",
        )
    );
    let lower = lower_bound(if opts.quick { 200_000 } else { 2_000_000 });
    let (upper, relay) = upper_bound(Duration::from_secs(if opts.quick { 1 } else { 10 }));
    let micros = |h: &LogHistogram, q: f64| h.quantile(q) as f64 / 1000.0;
    let (lower_median, upper_median) = (micros(&lower, 0.5), micros(&upper, 0.5));

    let mut table = Table::new(vec!["percentile", "lower bound (us)", "upper bound (us)"]);
    for q in [0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99] {
        table.row(vec![
            format!("p{:.0}", q * 100.0),
            format!("{:.3}", micros(&lower, q)),
            format!("{:.2}", micros(&upper, q)),
        ]);
        for (bound, hist) in [("lower", &lower), ("upper", &upper)] {
            let point = vec![
                ("bound", Json::str(bound)),
                ("quantile", Json::f64(q)),
                ("latency_us", Json::f64(micros(hist, q))),
            ];
            println!("{}", json_line("fig5", point));
        }
    }
    print!("{}", table.render());
    println!();
    let mean_batch = relay.received as f64 / relay.batches.max(1) as f64;
    println!(
        "median lower bound {:.3} us vs median upper bound {:.2} us per datagram, amortised ({}x apart)",
        lower_median,
        upper_median,
        (upper_median / lower_median).round()
    );
    println!(
        "upper bound: {} datagrams in {} receive batches ({mean_batch:.2} per batch, largest {});",
        relay.received, relay.batches, relay.max_batch
    );
    println!("each sample is one batch's time divided by its datagram count.");
    // What one datagram waits: its batch's whole span, arrival in user
    // space to the send returning.
    let batch_span = upper_median * mean_batch;
    let ratio = batch_span / lower_median;
    println!(
        "un-amortised: a datagram waits its whole batch, {batch_span:.2} us at the median \
         (amortised median x mean batch) — {}x the decision; the assertion reads this ratio (>= 10x)",
        ratio.round()
    );
    assert!(
        ratio >= 10.0,
        "the stack must dwarf the decision: {ratio:.1}x"
    );
    println!("paper: 0.42 us vs 325.92 us — the proxy logic is negligible next");
    println!("to stack traversal, hence the push toward eBPF/XDP/NIC offload.");
}
