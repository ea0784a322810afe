//! Figure 4: per-packet latency CDF of the naive user-space proxy.
//!
//! §5: "Figure 4 shows the per-packet latency of our naive proxy design
//! implemented in user space, which captures the packet transmission time
//! from the TC hook to user space, user-space processing latency, and
//! back. The 99th percentile latency gets as high as 359.17us."
//!
//! Substitution (see DESIGN.md §3): we run the split-connection relay
//! (`netproxy::NaiveProxy`: blocking sockets, a thread per direction) over
//! loopback TCP. One sample per relayed 16 KiB chunk, from the completion
//! of the read that brought it into user space to the completion of the
//! write that handed it back to the kernel — the same user-space
//! traversal, minus the NIC, and not counting the wait for the next chunk.
//! The load is the paper's iperf shape, rate-scaled and paced against the
//! wall clock.
//!
//! Run with: `cargo run --release -p bench --bin fig4 [--quick]`

use bench::{banner, json_line, RunOptions};
use netproxy::{NaiveProxy, TcpLoadGen, TcpSink};
use std::time::Duration;
use trace::json::Json;
use trace::Table;

fn main() {
    let opts = RunOptions::from_args();
    print!(
        "{}",
        banner(
            "Figure 4",
            "per-packet latency CDF of the naive user-space proxy (loopback testbed)",
        )
    );
    let load = TcpLoadGen {
        rate_bps: 500_000_000,
        duration: Duration::from_secs(if opts.quick { 1 } else { 10 }),
        chunk: 16 * 1024,
    };

    let sink = TcpSink::start().expect("sink");
    let proxy =
        NaiveProxy::start("127.0.0.1:0".parse().expect("addr"), sink.local_addr()).expect("proxy");
    eprintln!(
        "driving {} Mbit/s for {:?} through the naive proxy ...",
        load.rate_bps / 1_000_000,
        load.duration
    );
    let stats = load.run(proxy.local_addr()).expect("load");
    // The relay is done once the sink has absorbed every byte sent.
    // simlint: allow(wall-clock) — drain deadline for live sockets
    let drain = std::time::Instant::now();
    while sink.stats().bytes < stats.sent_bytes && drain.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(sink.stats().bytes, stats.sent_bytes, "relay lost bytes");

    let hist = proxy.recorder().snapshot();
    let micros = |q: f64| hist.quantile(q) as f64 / 1000.0;
    let mut table = Table::new(vec!["percentile", "latency (us)"]);
    for q in [0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999] {
        let v = micros(q);
        table.row(vec![format!("p{:.1}", q * 100.0), format!("{v:.2}")]);
        let point = vec![("quantile", Json::f64(q)), ("latency_us", Json::f64(v))];
        println!("{}", json_line("fig4", point));
    }
    print!("{}", table.render());
    println!();
    println!("CDF plot points (latency_us, cumulative):");
    for i in 1..=20 {
        let f = f64::from(i) / 20.0;
        println!("  {:10.2}  {f:.3}", micros(f));
    }
    println!();
    println!(
        "{} chunks sent, {} relay samples (read completion -> write completion);",
        stats.sent_packets,
        hist.count()
    );
    println!("paper reports p99 = 359.17 us on its ConnectX-5 testbed (TC hook -> user");
    println!("space -> back). Loopback has no NIC or hook to cross, so the absolute");
    println!("numbers are far smaller; the point is the microseconds every chunk pays");
    println!("for two copies and two syscalls, against Figure 5's ~0.03 us of logic.");
}
