//! Line-rate datapath load driver for the netproxy relays (ROADMAP
//! item 3): drives a [`ShardedRelay`] (or the sink directly) with the
//! multi-threaded open-loop [`BatchLoadGen`] and reports throughput plus
//! p50/p99/p999 one-way latency from the [`BatchSink`] histogram.
//!
//! ```console
//! $ cargo run --release -p bench --bin netproxy_load -- --variant streamlined --rate 0
//! ```
//!
//! Flags:
//!   --variant V      direct | naive | streamlined | detecting (default streamlined)
//!   --threads N      load-generator worker threads (default 2)
//!   --flows N        flows per worker thread (default 128)
//!   --shards N       relay shards, 0 = one per core (default 0)
//!   --sink-threads N sink reuseport threads (default 1)
//!   --rate N         aggregate pkts/sec, 0 = unthrottled (default 0)
//!   --duration-ms N  transmit window (default 1000)
//!   --trim F         fraction of datagrams sent as trimmed headers (default 0)
//!   --payload N      payload bytes per data datagram (default 64)
//!   --layer L        auto | mmsg | fallback (default auto)
//!   --smoke          CI mode: paced run of every relay variant on every
//!                    available layer (plus the `single` reference once),
//!                    asserting zero unexplained loss
//!   --json           emit one JSON object per run instead of prose
//!
//! `--smoke` is what `scripts/check.sh` runs on every PR; the sweep in
//! `scripts/bench_netproxy.sh` uses the plain mode with `--json`.

use netproxy::loadgen::{BatchLoadGen, BatchSink};
use netproxy::shard::{RelayConfig, RelayKind, ShardedRelay};
use netproxy::streamlined::{decide, Action};
use netproxy::wire::WireHeader;
use netproxy::{RelayStats, SocketLayer};
// simlint: allow(hash-collections) — keyed lookups only, the relay never iterates the map
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    Direct,
    Naive,
    Streamlined,
    Detecting,
    /// The seed's architecture: one thread, one datagram per
    /// `recv_from`/`send_to` round-trip, allocating NACK serialization.
    /// The baseline the batched datapath is held against.
    Single,
}

impl Variant {
    fn name(self) -> &'static str {
        match self {
            Variant::Direct => "direct",
            Variant::Naive => "naive",
            Variant::Streamlined => "streamlined",
            Variant::Detecting => "detecting",
            Variant::Single => "single",
        }
    }

    fn relay_kind(self) -> Option<RelayKind> {
        match self {
            Variant::Direct | Variant::Single => None,
            Variant::Naive => Some(RelayKind::Naive),
            Variant::Streamlined => Some(RelayKind::Streamlined),
            Variant::Detecting => Some(RelayKind::Detecting),
        }
    }
}

/// The pre-batching streamlined relay, verbatim in architecture: a
/// single blocking socket, one datagram per syscall pair, and a freshly
/// allocated NACK per trimmed header.
struct SingleDatagramRelay {
    local_addr: SocketAddr,
    stats: Arc<RelayStats2>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Counters for [`SingleDatagramRelay`] (mirrors the sharded
/// `RelayStats` fields the accounting needs).
#[derive(Default)]
struct RelayStats2 {
    forwarded: AtomicU64,
    nacks: AtomicU64,
    reversed: AtomicU64,
    dropped: AtomicU64,
    send_errors: AtomicU64,
}

impl SingleDatagramRelay {
    fn start(receiver: SocketAddr) -> std::io::Result<Self> {
        let socket = UdpSocket::bind(SocketAddr::from(([127, 0, 0, 1], 0)))?;
        socket.set_read_timeout(Some(Duration::from_millis(20)))?;
        let local_addr = socket.local_addr()?;
        let stats = Arc::new(RelayStats2::default());
        let st = stats.clone();
        let handle = std::thread::Builder::new()
            .name("single-relay".into())
            .spawn(move || {
                let mut buf = vec![0u8; 2048];
                // simlint: allow(hash-collections) — flow→sender lookups, never iterated
                let mut senders: HashMap<u64, SocketAddr> = HashMap::new();
                let mut idle = 0u32;
                loop {
                    let (n, from) = match socket.recv_from(&mut buf) {
                        Ok(r) => {
                            idle = 0;
                            r
                        }
                        Err(_) => {
                            idle += 1;
                            // The driver drops its handle and the stats Arc
                            // count reaches 1; exit once quiet.
                            if idle > 250 && Arc::strong_count(&st) == 1 {
                                break;
                            }
                            continue;
                        }
                    };
                    let datagram = &buf[..n];
                    match decide(datagram) {
                        Action::ForwardToReceiver(WireHeader { flow, .. }) => {
                            senders.insert(flow, from);
                            match socket.send_to(datagram, receiver) {
                                // ordering: Relaxed — monotone stats counters, read
                                // by a snapshot that tolerates staleness.
                                Ok(_) => st.forwarded.fetch_add(1, Ordering::Relaxed),
                                Err(_) => st.send_errors.fetch_add(1, Ordering::Relaxed),
                            };
                        }
                        Action::NackToSender(WireHeader { flow, seq, .. }) => {
                            senders.insert(flow, from);
                            let nack = WireHeader::nack(flow, seq).encode(&[]);
                            match socket.send_to(&nack, from) {
                                // ordering: Relaxed — monotone stats counters.
                                Ok(_) => st.nacks.fetch_add(1, Ordering::Relaxed),
                                Err(_) => st.send_errors.fetch_add(1, Ordering::Relaxed),
                            };
                        }
                        Action::ForwardToSender(WireHeader { flow, .. }) => {
                            if let Some(&sender) = senders.get(&flow) {
                                match socket.send_to(datagram, sender) {
                                    // ordering: Relaxed — monotone stats counters.
                                    Ok(_) => st.reversed.fetch_add(1, Ordering::Relaxed),
                                    Err(_) => st.send_errors.fetch_add(1, Ordering::Relaxed),
                                };
                            } else {
                                // ordering: Relaxed — monotone stats counter.
                                st.dropped.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Action::Drop => {
                            // ordering: Relaxed — monotone stats counter.
                            st.dropped.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })?;
        Ok(SingleDatagramRelay {
            local_addr,
            stats,
            handle: Some(handle),
        })
    }

    fn stats(&self) -> RelayStats {
        RelayStats {
            // ordering: Relaxed — end-of-run snapshot; the relay thread has
            // quiesced by the time anyone reads these.
            forwarded: self.stats.forwarded.load(Ordering::Relaxed),
            nacks: self.stats.nacks.load(Ordering::Relaxed),
            reversed: self.stats.reversed.load(Ordering::Relaxed),
            dropped: self.stats.dropped.load(Ordering::Relaxed),
            send_errors: self.stats.send_errors.load(Ordering::Relaxed),
            ..RelayStats::default()
        }
    }
}

impl Drop for SingleDatagramRelay {
    fn drop(&mut self) {
        // Detach; the thread exits on its idle check.
        drop(self.handle.take());
    }
}

#[derive(Debug, Clone, Copy)]
struct Cli {
    variant: Variant,
    threads: usize,
    flows: usize,
    shards: usize,
    sink_threads: usize,
    rate: u64,
    duration: Duration,
    trim: f64,
    payload: usize,
    layer: SocketLayer,
    smoke: bool,
    json: bool,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            variant: Variant::Streamlined,
            threads: 2,
            flows: 128,
            shards: 0,
            sink_threads: 1,
            rate: 0,
            duration: Duration::from_secs(1),
            trim: 0.0,
            payload: 64,
            layer: SocketLayer::Auto,
            smoke: false,
            json: false,
        }
    }
}

fn parse_args() -> Cli {
    let mut cli = Cli::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let usage = "see the module docs: --variant --threads --flows --shards --sink-threads \
                 --rate --duration-ms --trim --payload --layer --smoke --json";
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| panic!("{arg} needs a value; {usage}"))
                .clone()
        };
        match arg.as_str() {
            "--variant" => {
                cli.variant = match value().as_str() {
                    "direct" => Variant::Direct,
                    "naive" => Variant::Naive,
                    "streamlined" => Variant::Streamlined,
                    "detecting" => Variant::Detecting,
                    "single" => Variant::Single,
                    other => panic!("unknown variant {other}; {usage}"),
                }
            }
            "--threads" => cli.threads = value().parse().expect("--threads N"),
            "--flows" => cli.flows = value().parse().expect("--flows N"),
            "--shards" => cli.shards = value().parse().expect("--shards N"),
            "--sink-threads" => cli.sink_threads = value().parse().expect("--sink-threads N"),
            "--rate" => cli.rate = value().parse().expect("--rate N"),
            "--duration-ms" => {
                cli.duration = Duration::from_millis(value().parse().expect("--duration-ms N"))
            }
            "--trim" => cli.trim = value().parse().expect("--trim F"),
            "--payload" => cli.payload = value().parse().expect("--payload N"),
            "--layer" => {
                cli.layer = match value().as_str() {
                    "auto" => SocketLayer::Auto,
                    "mmsg" => SocketLayer::Mmsg,
                    "fallback" => SocketLayer::Fallback,
                    other => panic!("unknown layer {other}; {usage}"),
                }
            }
            "--smoke" => cli.smoke = true,
            "--json" => cli.json = true,
            other => panic!("unknown argument {other}; {usage}"),
        }
    }
    cli
}

/// Retries `op` with bounded backoff while it fails with `AddrInUse`.
///
/// The smoke mode starts dozens of reuseport groups back to back; on
/// some kernels a just-closed group's port lingers briefly and an
/// unlucky ephemeral-port reuse fails with EADDRINUSE. That's a startup
/// race, not a datapath bug, so it gets a handful of spaced retries
/// before it is allowed to kill the run.
fn retry_addr_in_use<T>(mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    const ATTEMPTS: u32 = 5;
    let mut backoff = Duration::from_millis(10);
    let mut attempt = 0;
    loop {
        match op() {
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse && attempt + 1 < ATTEMPTS => {
                attempt += 1;
                std::thread::sleep(backoff);
                backoff *= 2; // 10/20/40/80 ms, then give up
            }
            other => return other,
        }
    }
}

/// Outcome of one measured run, flattened for reporting.
struct RunResult {
    sent: u64,
    delivered: u64,
    trimmed: u64,
    nacks_received: u64,
    gen_send_errors: u64,
    achieved_pps: f64,
    sink_received: u64,
    sink_trimmed: u64,
    sink_malformed: u64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    relay: Option<netproxy::RelayStats>,
    relay_shards: usize,
    layer: &'static str,
}

/// Runs one loadgen → (relay →) sink pass and waits for in-flight
/// datagrams to settle before snapshotting counters.
fn run_once(cli: Cli) -> RunResult {
    // simlint: allow(wall-clock) — a throughput benchmark measures real elapsed time
    let epoch = Instant::now();
    let sink =
        retry_addr_in_use(|| BatchSink::start(cli.sink_threads, cli.layer, epoch)).expect("sink");
    let single = (cli.variant == Variant::Single).then(|| {
        retry_addr_in_use(|| SingleDatagramRelay::start(sink.local_addr())).expect("single relay")
    });
    let relay = cli.variant.relay_kind().map(|kind| {
        retry_addr_in_use(|| {
            ShardedRelay::start(
                SocketAddr::from(([127, 0, 0, 1], 0)),
                RelayConfig {
                    kind,
                    shards: cli.shards,
                    layer: cli.layer,
                    ..RelayConfig::streamlined(sink.local_addr())
                },
            )
        })
        .expect("relay")
    });
    let target = single
        .as_ref()
        .map(|s| s.local_addr)
        .or_else(|| relay.as_ref().map(|r| r.local_addr()))
        .unwrap_or_else(|| sink.local_addr());
    let gen = BatchLoadGen {
        threads: cli.threads,
        flows_per_thread: cli.flows,
        rate_pps: cli.rate,
        duration: cli.duration,
        trim_fraction: cli.trim,
        payload_len: cli.payload,
        layer: cli.layer,
        drain_grace: Duration::from_millis(10),
    };
    let report = gen.run(target, epoch).expect("loadgen run");

    // Let queued datagrams drain: stop once counters go quiet (or after
    // a 2 s grace for pathological stalls).
    // simlint: allow(wall-clock) — real-time drain deadline for live sockets
    let settle = Instant::now();
    let mut last = (0u64, 0u64);
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let s = sink.stats();
        let now = (
            s.received + s.trimmed,
            relay
                .as_ref()
                .map(|r| r.stats().nacks)
                .or_else(|| single.as_ref().map(|r| r.stats().nacks))
                .unwrap_or(0),
        );
        if now == last || settle.elapsed() > Duration::from_secs(2) {
            break;
        }
        last = now;
    }

    let sink_stats = sink.stats();
    let hist = sink.recorder().snapshot();
    let q = |p: f64| {
        if hist.is_empty() {
            0.0
        } else {
            hist.quantile(p) as f64 / 1000.0
        }
    };
    RunResult {
        sent: report.sent_packets,
        delivered: report.delivered(),
        trimmed: report.trimmed_sent,
        nacks_received: report.nacks_received,
        gen_send_errors: report.send_errors,
        achieved_pps: report.achieved_pps(),
        sink_received: sink_stats.received,
        sink_trimmed: sink_stats.trimmed,
        sink_malformed: sink_stats.malformed,
        p50_us: q(0.50),
        p99_us: q(0.99),
        p999_us: q(0.999),
        relay: relay
            .as_ref()
            .map(|r| r.stats())
            .or_else(|| single.as_ref().map(|r| r.stats())),
        relay_shards: relay
            .as_ref()
            .map_or(usize::from(single.is_some()), |r| r.shards()),
        layer: if single.is_some() {
            "single"
        } else {
            cli.layer.resolved().name()
        },
    }
}

fn print_result(cli: Cli, r: &RunResult) {
    let relay = r.relay.unwrap_or_default();
    if cli.json {
        println!(
            "{{\"suite\":\"netproxy\",\"variant\":\"{}\",\"layer\":\"{}\",\"threads\":{},\"flows\":{},\"shards\":{},\"sink_threads\":{},\"rate_pps\":{},\"duration_ms\":{},\"trim\":{},\"payload\":{},\"sent\":{},\"delivered\":{},\"trimmed_sent\":{},\"nacks_received\":{},\"gen_send_errors\":{},\"achieved_pps\":{:.0},\"sink_received\":{},\"sink_trimmed\":{},\"sink_malformed\":{},\"p50_us\":{:.2},\"p99_us\":{:.2},\"p999_us\":{:.2},\"relay_forwarded\":{},\"relay_nacks\":{},\"relay_reversed\":{},\"relay_dropped\":{},\"relay_send_errors\":{},\"relay_batches\":{},\"relay_max_batch\":{},\"relay_shed_nacked\":{},\"relay_shed_dropped\":{},\"relay_nacks_coalesced\":{},\"relay_io_retries\":{}}}",
            cli.variant.name(),
            r.layer,
            cli.threads,
            cli.flows,
            r.relay_shards,
            cli.sink_threads,
            cli.rate,
            cli.duration.as_millis(),
            cli.trim,
            cli.payload,
            r.sent,
            r.delivered,
            r.trimmed,
            r.nacks_received,
            r.gen_send_errors,
            r.achieved_pps,
            r.sink_received,
            r.sink_trimmed,
            r.sink_malformed,
            r.p50_us,
            r.p99_us,
            r.p999_us,
            relay.forwarded,
            relay.nacks,
            relay.reversed,
            relay.dropped,
            relay.send_errors,
            relay.batches,
            relay.max_batch,
            relay.shed_nacked,
            relay.shed_dropped,
            relay.nacks_coalesced,
            relay.io_retries,
        );
    } else {
        println!(
            "netproxy_load: {} via {} layer, {} gen threads x {} flows, {} shard(s)",
            cli.variant.name(),
            r.layer,
            cli.threads,
            cli.flows,
            r.relay_shards,
        );
        println!(
            "  {} sent ({} trimmed), {:.0} pkts/sec achieved, {} NACKs back, {} send errors",
            r.sent, r.trimmed, r.achieved_pps, r.nacks_received, r.gen_send_errors,
        );
        println!(
            "  sink: {} data + {} trimmed, one-way p50 {:.1}us p99 {:.1}us p999 {:.1}us",
            r.sink_received, r.sink_trimmed, r.p50_us, r.p99_us, r.p999_us,
        );
        if r.relay.is_some() {
            println!(
                "  relay: {} forwarded, {} nacks, {} dropped, {} send errors, max batch {}",
                relay.forwarded, relay.nacks, relay.dropped, relay.send_errors, relay.max_batch,
            );
        }
    }
}

/// Accounts for every datagram the generator delivered; returns an
/// error description when any are unexplained.
fn account(cli: Cli, r: &RunResult) -> Result<(), String> {
    let relay = r.relay.unwrap_or_default();
    let explained = match cli.variant {
        // Direct: everything lands at the sink (trims arrive as trimmed).
        Variant::Direct => r.sink_received + r.sink_trimmed,
        // Streamlined (batched or single-datagram baseline): data
        // forwarded, trims converted to NACKs, plus relay-level
        // drops/errors — and, when the shed ladder is armed, datagrams
        // it coalesced or dropped (counted, never silent).
        Variant::Streamlined | Variant::Single => {
            r.sink_received
                + relay.nacks
                + relay.dropped
                + relay.send_errors
                + relay.nacks_coalesced
                + relay.shed_dropped
        }
        // Naive and Detecting forward everything, trimmed included.
        Variant::Naive | Variant::Detecting => {
            r.sink_received
                + r.sink_trimmed
                + relay.dropped
                + relay.send_errors
                + relay.shed_dropped
        }
    };
    if explained != r.delivered {
        return Err(format!(
            "{} on {}: {} delivered but only {} explained (sink {} + trimmed-at-sink {}, relay nacks {}, dropped {}, send_errors {})",
            cli.variant.name(),
            r.layer,
            r.delivered,
            explained,
            r.sink_received,
            r.sink_trimmed,
            relay.nacks,
            relay.dropped,
            relay.send_errors,
        ));
    }
    if r.sink_malformed != 0 {
        return Err(format!(
            "{} on {}: sink saw {} malformed datagrams",
            cli.variant.name(),
            r.layer,
            r.sink_malformed
        ));
    }
    Ok(())
}

/// The CI smoke: a gentle paced run of every variant on every available
/// socket layer, a few thousand packets each, zero unexplained loss.
fn smoke(json: bool) {
    let layers: &[SocketLayer] = if cfg!(target_os = "linux") {
        &[SocketLayer::Mmsg, SocketLayer::Fallback]
    } else {
        &[SocketLayer::Fallback]
    };
    let variants = [
        Variant::Direct,
        Variant::Naive,
        Variant::Streamlined,
        Variant::Detecting,
    ];
    let mut runs: Vec<(Variant, SocketLayer, u64)> = layers
        .iter()
        .flat_map(|&layer| variants.map(|variant| (variant, layer, 20_000)))
        .collect();
    // The bench-only single-datagram reference has no socket layer to vary
    // and one default-sized socket buffer: once, well under the 17k pkts/s
    // zero-loss ceiling BENCH_netproxy.json records for it (above it, its
    // kernel-buffer drops are loss no counter can explain).
    runs.push((Variant::Single, SocketLayer::Auto, 5_000));
    let mut failures = Vec::new();
    for (variant, layer, rate) in runs {
        let cli = Cli {
            variant,
            layer,
            threads: 2,
            flows: 32,
            shards: 2,
            sink_threads: 1,
            rate,
            duration: Duration::from_millis(250),
            // Trim only where the variant NACKs trimmed headers.
            trim: if matches!(variant, Variant::Streamlined | Variant::Single) {
                0.2
            } else {
                0.0
            },
            payload: 64,
            smoke: true,
            json,
        };
        let r = run_once(cli);
        print_result(cli, &r);
        if let Err(e) = account(cli, &r) {
            failures.push(e);
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("netproxy_load smoke FAILED: {f}");
        }
        std::process::exit(1);
    }
    println!("netproxy_load smoke: all variants/layers accounted for every packet");
}

fn main() {
    let cli = parse_args();
    if cli.smoke {
        smoke(cli.json);
        return;
    }
    let r = run_once(cli);
    print_result(cli, &r);
}
