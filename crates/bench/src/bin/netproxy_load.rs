//! Line-rate datapath load driver for the netproxy relays: drives a
//! [`ShardedRelay`] (or the sink directly) with the multi-threaded
//! open-loop [`BatchLoadGen`] and reports throughput plus p50/p99/p999
//! one-way latency from the [`BatchSink`] histogram.
//!
//! ```console
//! $ cargo run --release -p bench --bin netproxy_load -- --variant streamlined --rate 0
//! ```
//!
//! Flags:
//!   --variant V      direct | naive | streamlined | detecting | single (default streamlined)
//!   --threads N      load-generator worker threads (default 2)
//!   --flows N        flows per worker thread (default 128)
//!   --shards N       relay shards, 0 = one per core (default 0)
//!   --sink-threads N sink reuseport threads (default 1)
//!   --rate N         aggregate pkts/sec, 0 = unthrottled (default 0)
//!   --duration-ms N  transmit window (default 1000)
//!   --trim F         fraction of datagrams sent as trimmed headers (default 0)
//!   --payload N      payload bytes per data datagram (default 64)
//!   --layer L        auto | mmsg | fallback (default auto)
//!
//! Two modes stand alone (any other flag beside them is refused):
//!   --smoke          CI mode: paced run of every relay variant on every
//!                    available layer (plus the `single` reference once),
//!                    asserting zero unexplained loss
//!   --sweep          the committed live-socket record: single-datagram
//!                    reference vs batched relay each at its zero-loss
//!                    ceiling (asserted >= 5x apart), shard scaling, and
//!                    naive / streamlined / detecting under 20 % trimming;
//!                    every run accounted for like the smoke's
//!
//! `--smoke` is what `scripts/check.sh` runs on every PR;
//! `netproxy_load --sweep | tee results/netproxy_load.txt` regenerates the
//! committed record.

use bench::fuzz::mini_json::Json;
use bench::{banner, json_line, retry_addr_in_use};
use netproxy::loadgen::{BatchLoadGen, BatchSink};
use netproxy::shard::{RelayConfig, RelayKind, ShardedRelay};
use netproxy::streamlined::{decide, Action};
use netproxy::wire::WireHeader;
use netproxy::{RelayStats, SocketLayer};
// simlint: allow(hash-collections) — keyed lookups only, the relay never iterates the map
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Table;

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
    shared: Arc<SingleShared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// What [`SingleDatagramRelay`]'s thread shares with its handle: the stop
/// flag and the counters the accounting needs (the sharded `RelayStats`
/// fields of the same names).
#[derive(Default)]
struct SingleShared {
    stop: AtomicBool,
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
        let shared = Arc::new(SingleShared::default());
        let st = shared.clone();
        let handle = std::thread::Builder::new()
            .name("single-relay".into())
            .spawn(move || {
                let mut buf = vec![0u8; 2048];
                // simlint: allow(hash-collections) — flow→sender lookups, never iterated
                let mut senders: HashMap<u64, SocketAddr> = HashMap::new();
                // ordering: Acquire — pairs with the Release store in `drop`;
                // the 20 ms read timeout bounds how long a quiet socket
                // keeps the thread from seeing it.
                while !st.stop.load(Ordering::Acquire) {
                    let Ok((n, from)) = socket.recv_from(&mut buf) else {
                        continue;
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
            shared,
            handle: Some(handle),
        })
    }

    fn stats(&self) -> RelayStats {
        RelayStats {
            // ordering: Relaxed — end-of-run snapshot; the relay thread has
            // quiesced by the time anyone reads these.
            forwarded: self.shared.forwarded.load(Ordering::Relaxed),
            nacks: self.shared.nacks.load(Ordering::Relaxed),
            reversed: self.shared.reversed.load(Ordering::Relaxed),
            dropped: self.shared.dropped.load(Ordering::Relaxed),
            send_errors: self.shared.send_errors.load(Ordering::Relaxed),
            ..RelayStats::default()
        }
    }
}

impl Drop for SingleDatagramRelay {
    fn drop(&mut self) {
        // ordering: Release — pairs with the Acquire load in the relay loop.
        self.shared.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
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
}

/// What the command line asks for.
enum Mode {
    /// One run of the given configuration, reported as prose.
    Run(Cli),
    Smoke,
    Sweep,
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
        }
    }
}

/// Parses the command line.
///
/// # Panics
/// Panics with the usage text on an unknown flag, a missing or unreadable
/// value, or `--smoke` / `--sweep` beside any other flag.
fn parse_args(args: &[String]) -> Mode {
    let usage = "see the module docs: --variant --threads --flows --shards --sink-threads \
                 --rate --duration-ms --trim --payload --layer, or --smoke / --sweep alone";
    match args {
        [only] if only == "--smoke" => return Mode::Smoke,
        [only] if only == "--sweep" => return Mode::Sweep,
        _ => {}
    }
    let mut cli = Cli::default();
    let mut it = args.iter();
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
            "--smoke" | "--sweep" => panic!("{arg} takes no other flag; {usage}"),
            other => panic!("unknown argument {other}; {usage}"),
        }
    }
    Mode::Run(cli)
}

/// Outcome of one measured run, flattened for reporting.
#[derive(Debug, Clone, Default, PartialEq)]
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
fn smoke() {
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
    // zero-loss ceiling results/netproxy_load.txt records for it (above it,
    // its kernel-buffer drops are loss no counter can explain).
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
        };
        let r = run_once(cli);
        print_result(cli, &r);
        if let Err(e) = account(cli, &r) {
            failures.push(e);
        }
    }
    exit_if_failed("smoke", &failures);
    println!("netproxy_load smoke: all variants/layers accounted for every packet");
}

/// Prints each failure and exits non-zero when there is one.
fn exit_if_failed(mode: &str, failures: &[String]) {
    for f in failures {
        eprintln!("netproxy_load {mode} FAILED: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// Offered rates of the sweep. The single-datagram reference (one
/// `recv_from`/`send_to` per packet) holds zero loss up to ~18 k pkts/s on
/// the 2-vCPU reference box and saturates just past it; the batched relay
/// holds it at 1 M with loadgen, relay and sink sharing the two vCPUs.
/// Driving each architecture at its own ceiling compares sustained
/// zero-loss throughput rather than drop behaviour.
const SWEEP_SINGLE_RATE: u64 = 18_000;
const SWEEP_BATCHED_RATE: u64 = 1_000_000;
/// Offered rate of the naive / streamlined / detecting comparison, a fifth
/// of it trimmed (the live-socket rerun of the Figs 4–5 gap).
const SWEEP_COMPARE_RATE: u64 = 60_000;
const SWEEP_DURATION: Duration = Duration::from_millis(800);
/// Runs per sweep row; the row reports the one that relayed fastest.
const SWEEP_RUNS: usize = 3;
/// The batched relay must sustain at least this multiple of the
/// single-datagram reference.
const SWEEP_MIN_SPEEDUP: f64 = 5.0;

/// Datagrams per second through the relay: its forwarded count over the
/// generator's transmit window (`sent / achieved_pps`).
fn relayed_pps(r: &RunResult) -> u64 {
    let forwarded = r.relay.unwrap_or_default().forwarded;
    (forwarded as f64 * r.achieved_pps / r.sent.max(1) as f64).round() as u64
}

/// The run that relayed fastest, whole.
fn best_of(runs: impl IntoIterator<Item = RunResult>) -> RunResult {
    runs.into_iter()
        .max_by_key(relayed_pps)
        .expect("at least one run")
}

/// Shard counts of the scaling section: four shards only where four cores
/// can run them.
fn shard_points(cores: usize) -> &'static [usize] {
    if cores >= 4 {
        &[1, 2, 4]
    } else {
        &[1, 2]
    }
}

/// The batched-over-single ratio, or why it fails the sweep.
fn check_speedup(single_pps: u64, batched_pps: u64) -> Result<f64, String> {
    let speedup = batched_pps as f64 / single_pps.max(1) as f64;
    if speedup < SWEEP_MIN_SPEEDUP {
        return Err(format!(
            "batched relay sustained {batched_pps} pkts/s against the single-datagram \
             reference's {single_pps}: {speedup:.1}x, below the {SWEEP_MIN_SPEEDUP}x target"
        ));
    }
    Ok(speedup)
}

/// `git describe --always --dirty`, CPU model and core count: the numbers
/// are only comparable to a record from the same box.
fn stamp(cores: usize) -> String {
    let rev = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|line| line.starts_with("model name"))
        .and_then(|line| line.split_once(':'))
        .map(|(_, model)| model.trim());
    format!(
        "stamp: git {}, {}, {cores} cores",
        rev.as_deref().unwrap_or("unknown"),
        cpu.unwrap_or("unknown cpu"),
    )
}

/// One sweep row: best of [`SWEEP_RUNS`] runs of `cli`, each accounted
/// for; the row is added to `table` and printed as a `JSON ` line.
/// Returns the row's relayed pkts/s.
fn sweep_row(section: &str, cli: Cli, table: &mut Table, failures: &mut Vec<String>) -> u64 {
    let best = best_of((0..SWEEP_RUNS).map(|_| {
        let r = run_once(cli);
        failures.extend(account(cli, &r).err());
        r
    }));
    let relay = best.relay.unwrap_or_default();
    let relayed = relayed_pps(&best);
    table.row(vec![
        cli.variant.name().to_string(),
        best.relay_shards.to_string(),
        cli.rate.to_string(),
        best.sent.to_string(),
        relayed.to_string(),
        best.trimmed.to_string(),
        relay.nacks.to_string(),
        best.sink_trimmed.to_string(),
        format!("{:.1}", best.p50_us),
        format!("{:.1}", best.p99_us),
    ]);
    let point = vec![
        ("section", Json::str(section)),
        ("variant", Json::str(cli.variant.name())),
        ("layer", Json::str(best.layer)),
        ("shards", Json::u64(best.relay_shards as u64)),
        ("rate_pps", Json::u64(cli.rate)),
        ("trim", Json::f64(cli.trim)),
        ("sent", Json::u64(best.sent)),
        ("delivered", Json::u64(best.delivered)),
        ("trimmed_sent", Json::u64(best.trimmed)),
        ("nacks_received", Json::u64(best.nacks_received)),
        ("achieved_pps", Json::u64(best.achieved_pps.round() as u64)),
        ("relayed_pps", Json::u64(relayed)),
        ("sink_received", Json::u64(best.sink_received)),
        ("sink_trimmed", Json::u64(best.sink_trimmed)),
        ("p50_us", Json::f64(best.p50_us)),
        ("p99_us", Json::f64(best.p99_us)),
        ("p999_us", Json::f64(best.p999_us)),
        ("relay_forwarded", Json::u64(relay.forwarded)),
        ("relay_nacks", Json::u64(relay.nacks)),
        ("relay_dropped", Json::u64(relay.dropped)),
        ("relay_send_errors", Json::u64(relay.send_errors)),
        ("relay_max_batch", Json::u64(relay.max_batch)),
    ];
    println!("{}", json_line("netproxy_load", point));
    relayed
}

/// The committed live-socket record (`results/netproxy_load.txt`): three
/// sections, every run accounted for, the ceiling gap asserted.
fn sweep() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    print!(
        "{}",
        banner(
            "netproxy_load --sweep",
            "live-socket relay throughput, 64 B payloads over loopback",
        )
    );
    println!("{}", stamp(cores));
    println!(
        "each row: best of {SWEEP_RUNS} runs of {} ms by relayed pkts/s, one generator thread x 128 \
         flows; every run accounted for (delivered = sink + NACKs + counted drops)",
        SWEEP_DURATION.as_millis(),
    );
    let header = || {
        Table::new(vec![
            "variant",
            "shards",
            "offered pkts/s",
            "sent",
            "relayed pkts/s",
            "trimmed sent",
            "NACKs",
            "trimmed at sink",
            "p50 (us)",
            "p99 (us)",
        ])
    };
    let base = Cli {
        threads: 1,
        shards: 1,
        duration: SWEEP_DURATION,
        ..Cli::default()
    };
    let mut failures = Vec::new();

    println!(
        "\n-- ceiling: single-datagram reference vs batched relay, each at its zero-loss ceiling"
    );
    let mut table = header();
    let single = Cli {
        variant: Variant::Single,
        rate: SWEEP_SINGLE_RATE,
        ..base
    };
    let batched = Cli {
        rate: SWEEP_BATCHED_RATE,
        ..base
    };
    let single_pps = sweep_row("ceiling", single, &mut table, &mut failures);
    let batched_pps = sweep_row("ceiling", batched, &mut table, &mut failures);
    print!("{}", table.render());
    match check_speedup(single_pps, batched_pps) {
        Ok(speedup) => {
            println!("batched / single = {speedup:.1}x (asserted >= {SWEEP_MIN_SPEEDUP}x)")
        }
        Err(e) => failures.push(e),
    }

    println!(
        "\n-- shard scaling: batched relay at {SWEEP_BATCHED_RATE} pkts/s offered ({cores} cores)"
    );
    let mut table = header();
    for &shards in shard_points(cores) {
        sweep_row(
            "shard_scaling",
            Cli { shards, ..batched },
            &mut table,
            &mut failures,
        );
    }
    print!("{}", table.render());

    println!(
        "\n-- proxy comparison: {SWEEP_COMPARE_RATE} pkts/s offered, 20% trimmed \
         (streamlined answers a trimmed header with a NACK; naive and detecting forward it)"
    );
    let mut table = header();
    for variant in [Variant::Naive, Variant::Streamlined, Variant::Detecting] {
        let cli = Cli {
            variant,
            rate: SWEEP_COMPARE_RATE,
            trim: 0.2,
            ..base
        };
        sweep_row("proxy_comparison", cli, &mut table, &mut failures);
    }
    print!("{}", table.render());

    exit_if_failed("sweep", &failures);
    println!("\nnetproxy_load sweep: every run accounted for every packet; ceiling gap holds");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Mode::Smoke => smoke(),
        Mode::Sweep => sweep(),
        Mode::Run(cli) => print_result(cli, &run_once(cli)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(sent: u64, forwarded: u64, achieved_pps: f64) -> RunResult {
        RunResult {
            sent,
            achieved_pps,
            relay: Some(RelayStats {
                forwarded,
                ..RelayStats::default()
            }),
            ..RunResult::default()
        }
    }

    #[test]
    fn relayed_pps_scales_forwarded_by_the_transmit_window() {
        // 800 sent at 1000/s is a 0.8 s window; 400 forwarded in it is 500/s.
        assert_eq!(relayed_pps(&run(800, 400, 1000.0)), 500);
        assert_eq!(relayed_pps(&run(0, 0, 0.0)), 0);
        assert_eq!(relayed_pps(&run(0, 7, 1000.0)), 7000);
        // No relay in the path (direct): nothing relayed.
        assert_eq!(relayed_pps(&RunResult::default()), 0);
    }

    #[test]
    fn best_of_keeps_the_whole_fastest_row() {
        let fastest = RunResult {
            p99_us: 42.0,
            sink_received: 9,
            ..run(100, 90, 1000.0)
        };
        let runs = [run(100, 50, 1000.0), fastest.clone(), run(100, 80, 1000.0)];
        assert_eq!(best_of(runs), fastest);
    }

    #[test]
    fn speedup_below_target_fails_with_both_rates() {
        assert_eq!(check_speedup(17_500, 984_000).map(f64::round), Ok(56.0));
        assert_eq!(check_speedup(10_000, 50_000), Ok(5.0));
        let err = check_speedup(17_500, 80_000).unwrap_err();
        assert!(err.contains("17500") && err.contains("80000"), "{err}");
        assert!(check_speedup(0, 0).is_err());
    }

    #[test]
    fn four_shards_need_four_cores() {
        assert_eq!(shard_points(1), [1, 2]);
        assert_eq!(shard_points(3), [1, 2]);
        assert_eq!(shard_points(4), [1, 2, 4]);
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn modes_parse() {
        assert!(matches!(parse_args(&args(&["--sweep"])), Mode::Sweep));
        assert!(matches!(parse_args(&args(&["--smoke"])), Mode::Smoke));
        let Mode::Run(cli) = parse_args(&args(&["--variant", "single", "--rate", "18000"])) else {
            panic!("plain flags are one run");
        };
        assert_eq!((cli.variant, cli.rate), (Variant::Single, 18_000));
    }

    #[test]
    #[should_panic(expected = "--sweep takes no other flag; see the module docs")]
    fn sweep_refuses_any_other_flag() {
        parse_args(&args(&["--rate", "5", "--sweep"]));
    }

    #[test]
    #[should_panic(expected = "unknown argument --json")]
    fn json_flag_is_gone() {
        parse_args(&args(&["--json"]));
    }
}
