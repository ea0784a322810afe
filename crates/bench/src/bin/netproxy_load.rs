//! The live-socket relay load driver. Two modes, each alone on the
//! command line (anything else is refused with the usage text):
//!
//!   --smoke   CI mode: a paced run of the direct path and of every relay
//!             kind on every available socket layer
//!   --sweep   the committed live-socket record: the one-shard relay on
//!             the batched layer vs on the single-datagram fallback, each
//!             at its zero-loss ceiling (asserted >= 5x apart), shard
//!             scaling, and naive / streamlined / detecting under 20 %
//!             trimming
//!
//! Every run is one [`live::run`]: the multi-threaded open-loop
//! `BatchLoadGen` drives the path into a `BatchSink`, which reports
//! p50/p99/p999 one-way latency, and the live ledger accounts for every
//! datagram. A run whose ledger fails prints it whole and fails the mode.
//!
//! `--smoke` is what `scripts/check.sh` runs;
//! `netproxy_load --sweep | tee results/netproxy_load.txt` regenerates the
//! committed record.

use bench::live::{self, LiveOutcome, LiveRun, Path};
use bench::{banner, json_line};
use netproxy::loadgen::BatchLoadGen;
use netproxy::shard::RelayKind;
use netproxy::SocketLayer;
use std::time::Duration;
use trace::json::Json;
use trace::Table;

/// Every relay kind, in the order both modes run them.
const KINDS: [RelayKind; 3] = [
    RelayKind::Naive,
    RelayKind::Streamlined,
    RelayKind::Detecting,
];

/// What the command line asks for.
enum Mode {
    Smoke,
    Sweep,
}

/// Parses the command line.
///
/// # Panics
/// Panics with the usage text on anything but `--smoke` or `--sweep`
/// alone.
fn parse_args(args: &[String]) -> Mode {
    match args {
        [only] if only == "--smoke" => Mode::Smoke,
        [only] if only == "--sweep" => Mode::Sweep,
        _ => {
            panic!("{args:?}: netproxy_load takes --smoke or --sweep, alone (see the module docs)")
        }
    }
}

/// One-way latency at the sink at quantile `q`, microseconds (0 without
/// a sample).
fn latency_us(o: &LiveOutcome, q: f64) -> f64 {
    if o.latency.is_empty() {
        0.0
    } else {
        o.latency.quantile(q) as f64 / 1000.0
    }
}

/// Relay shards the run had (none on the direct path).
fn shards(o: &LiveOutcome) -> usize {
    o.counts.generations.len()
}

/// The columns of the smoke's and the sweep's tables.
fn new_table() -> Table {
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
}

/// One run as a table row, under `label`.
fn row(label: &str, run: &LiveRun, o: &LiveOutcome) -> Vec<String> {
    let g = &o.counts.generator;
    vec![
        label.to_string(),
        shards(o).to_string(),
        run.load.rate_pps.to_string(),
        g.sent_packets.to_string(),
        relayed_pps(o).to_string(),
        g.trimmed_sent.to_string(),
        o.counts.relay.nacks.to_string(),
        o.counts.sink.trimmed.to_string(),
        format!("{:.1}", latency_us(o, 0.50)),
        format!("{:.1}", latency_us(o, 0.99)),
    ]
}

/// A run's path and the socket layer it ran on.
fn label(run: &LiveRun, o: &LiveOutcome) -> String {
    format!("{} on {}", run.path.name(), o.counts.layer)
}

/// A failed run in words: its label, then its whole ledger.
fn failure(run: &LiveRun, o: &LiveOutcome) -> String {
    format!("{}: {:?}\n{}", label(run, o), o.ledger.failed, o.ledger)
}

/// A smoke run: two generator threads x 32 flows of 64 B for 250 ms, a
/// fifth of them trimmed headers (NACKed or forwarded, by path).
fn smoke_run(path: Path, layer: SocketLayer, rate_pps: u64) -> LiveRun {
    let load = BatchLoadGen {
        flows_per_thread: 32,
        rate_pps,
        trim_fraction: 0.2,
        layer,
        ..BatchLoadGen::smoke(Duration::from_millis(250))
    };
    LiveRun::clean(path, load)
}

/// The CI smoke: a gentle paced run of every path on every available
/// socket layer, a few thousand packets each, zero unexplained loss.
fn smoke() {
    let layers: &[SocketLayer] = if cfg!(target_os = "linux") {
        &[SocketLayer::Mmsg, SocketLayer::Fallback]
    } else {
        &[SocketLayer::Fallback]
    };
    let runs = layers.iter().flat_map(|&layer| {
        let relays = KINDS.map(|kind| Path::Sharded { kind, shards: 2 });
        let paths = std::iter::once(Path::Direct).chain(relays);
        paths.map(move |path| smoke_run(path, layer, 20_000))
    });
    let (mut table, mut failures) = (new_table(), Vec::new());
    for run in runs {
        let outcome = live::run(&run);
        table.row(row(&label(&run, &outcome), &run, &outcome));
        if !outcome.ledger.passed() {
            failures.push(failure(&run, &outcome));
        }
    }
    print!("{}", table.render());
    exit_if_failed("smoke", &failures);
    println!("netproxy_load smoke: every path on every layer balanced its ledger");
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

/// Offered rates of the sweep. On the fallback layer (one `recv_from` /
/// `send_to` per datagram, in the generator and the sink too) the relay
/// holds zero loss at 100 k pkts/s on the 2-vCPU reference box and loses
/// datagrams in most runs at 150 k; on the batched layer it holds it at
/// 1 M, with loadgen, relay and sink sharing the two vCPUs. Driving each
/// layer at its own ceiling compares sustained zero-loss throughput
/// rather than drop behaviour.
const SWEEP_FALLBACK_RATE: u64 = 100_000;
const SWEEP_BATCHED_RATE: u64 = 1_000_000;
/// Offered rate of the naive / streamlined / detecting comparison, a fifth
/// of it trimmed (the live-socket rerun of the Figs 4–5 gap).
const SWEEP_COMPARE_RATE: u64 = 60_000;
const SWEEP_DURATION: Duration = Duration::from_millis(800);
/// Runs per sweep row; the row reports the one that relayed fastest.
const SWEEP_RUNS: usize = 3;
/// The relay on the batched layer must sustain at least this multiple of
/// itself on the fallback layer.
const SWEEP_MIN_SPEEDUP: f64 = 5.0;

/// Datagrams per second through the relay: its forwarded count over the
/// generator's transmit window (`sent / achieved_pps`).
fn relayed_pps(o: &LiveOutcome) -> u64 {
    let g = &o.counts.generator;
    let forwarded = o.counts.relay.forwarded as f64;
    (forwarded * g.achieved_pps() / g.sent_packets.max(1) as f64).round() as u64
}

/// The run that relayed fastest, whole.
fn best_of(runs: impl IntoIterator<Item = LiveOutcome>) -> LiveOutcome {
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

/// The batched-over-fallback ratio, or why it fails the sweep.
fn check_speedup(fallback_pps: u64, batched_pps: u64) -> Result<f64, String> {
    let speedup = batched_pps as f64 / fallback_pps.max(1) as f64;
    if speedup < SWEEP_MIN_SPEEDUP {
        return Err(format!(
            "the relay sustained {batched_pps} pkts/s on the batched layer against \
             {fallback_pps} on the fallback: {speedup:.1}x, below the {SWEEP_MIN_SPEEDUP}x target"
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

/// The sweep's load: one generator thread x 128 flows of 64 B on `layer`.
fn sweep_load(layer: SocketLayer, rate_pps: u64, trim_fraction: f64) -> BatchLoadGen {
    BatchLoadGen {
        threads: 1,
        flows_per_thread: 128,
        rate_pps,
        trim_fraction,
        layer,
        ..BatchLoadGen::smoke(SWEEP_DURATION)
    }
}

/// `ns` spread over `received` datagrams, to a tenth of a nanosecond (0
/// without a datagram).
fn per_datagram(ns: u64, received: u64) -> f64 {
    (ns as f64 / received.max(1) as f64 * 10.0).round() / 10.0
}

/// One sweep row: best of [`SWEEP_RUNS`] runs of `run`, each judged by
/// the ledger; the row is added to `table` and printed as a `JSON ` line.
/// Returns the row's relayed pkts/s.
fn sweep_row(section: &str, run: &LiveRun, table: &mut Table, failures: &mut Vec<String>) -> u64 {
    let best = best_of((0..SWEEP_RUNS).map(|_| {
        let outcome = live::run(run);
        if !outcome.ledger.passed() {
            failures.push(failure(run, &outcome));
        }
        outcome
    }));
    table.row(row(&label(run, &best), run, &best));
    let (g, s, relay) = (
        &best.counts.generator,
        &best.counts.sink,
        &best.counts.relay,
    );
    let relayed = relayed_pps(&best);
    let per_dgram = |ns: u64| Json::f64(per_datagram(ns, relay.received));
    let point = vec![
        ("section", Json::str(section)),
        ("variant", Json::str(run.path.name())),
        ("layer", Json::str(best.counts.layer)),
        ("shards", Json::u64(shards(&best) as u64)),
        ("rate_pps", Json::u64(run.load.rate_pps)),
        ("trim", Json::f64(run.load.trim_fraction)),
        ("sent", Json::u64(g.sent_packets)),
        ("delivered", Json::u64(g.delivered())),
        ("trimmed_sent", Json::u64(g.trimmed_sent)),
        ("nacks_received", Json::u64(g.nacks_received)),
        ("achieved_pps", Json::u64(g.achieved_pps().round() as u64)),
        ("relayed_pps", Json::u64(relayed)),
        ("sink_received", Json::u64(s.received)),
        ("sink_trimmed", Json::u64(s.trimmed)),
        ("p50_us", Json::f64(latency_us(&best, 0.50))),
        ("p99_us", Json::f64(latency_us(&best, 0.99))),
        ("p999_us", Json::f64(latency_us(&best, 0.999))),
        ("relay_forwarded", Json::u64(relay.forwarded)),
        ("relay_nacks", Json::u64(relay.nacks)),
        ("relay_dropped", Json::u64(relay.dropped)),
        ("relay_send_errors", Json::u64(relay.send_errors)),
        ("relay_max_batch", Json::u64(relay.max_batch)),
        ("relay_step_ns_per_dgram", per_dgram(relay.step_ns)),
        ("relay_send_ns_per_dgram", per_dgram(relay.send_ns)),
    ];
    println!("{}", json_line("netproxy_load", point));
    relayed
}

/// The committed live-socket record (`results/netproxy_load.txt`): three
/// sections, every run judged by the ledger, the ceiling gap asserted.
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
         flows; every run's ledger balanced (bench::live: every datagram delivered is explained)",
        SWEEP_DURATION.as_millis(),
    );
    let relay = |kind, shards| Path::Sharded { kind, shards };
    let streamlined = |shards, layer, rate| {
        let path = relay(RelayKind::Streamlined, shards);
        LiveRun::clean(path, sweep_load(layer, rate, 0.0))
    };
    let batched = |shards| streamlined(shards, SocketLayer::Mmsg, SWEEP_BATCHED_RATE);
    let mut failures = Vec::new();

    println!(
        "\n-- ceiling: the one-shard relay on mmsg vs on fallback (one datagram per syscall), \
         each at its zero-loss ceiling; the generator and the sink run on the relay's layer"
    );
    let mut table = new_table();
    let fallback = streamlined(1, SocketLayer::Fallback, SWEEP_FALLBACK_RATE);
    let fallback_pps = sweep_row("ceiling", &fallback, &mut table, &mut failures);
    let batched_pps = sweep_row("ceiling", &batched(1), &mut table, &mut failures);
    print!("{}", table.render());
    match check_speedup(fallback_pps, batched_pps) {
        Ok(speedup) => {
            println!("mmsg / fallback = {speedup:.1}x (asserted >= {SWEEP_MIN_SPEEDUP}x)")
        }
        Err(e) => failures.push(e),
    }

    println!(
        "\n-- shard scaling: the relay on mmsg at {SWEEP_BATCHED_RATE} pkts/s offered ({cores} cores)"
    );
    let mut table = new_table();
    for &shards in shard_points(cores) {
        sweep_row("shard_scaling", &batched(shards), &mut table, &mut failures);
    }
    print!("{}", table.render());

    println!(
        "\n-- proxy comparison: {SWEEP_COMPARE_RATE} pkts/s offered, 20% trimmed \
         (streamlined answers a trimmed header with a NACK; naive and detecting forward it)"
    );
    let mut table = new_table();
    for kind in KINDS {
        let load = sweep_load(SocketLayer::Mmsg, SWEEP_COMPARE_RATE, 0.2);
        let run = LiveRun::clean(relay(kind, 1), load);
        sweep_row("proxy_comparison", &run, &mut table, &mut failures);
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::live::{Counts, Ledger};
    use netproxy::{BatchLoadReport, RelayStats};
    use trace::LogHistogram;

    /// A run that sent `sent` datagrams in `elapsed_ms` and relayed
    /// `forwarded` of them.
    fn run(sent: u64, forwarded: u64, elapsed_ms: u64) -> LiveOutcome {
        let counts = Counts {
            generator: BatchLoadReport {
                sent_packets: sent,
                elapsed_ns: elapsed_ms * 1_000_000,
                ..BatchLoadReport::default()
            },
            relay: RelayStats {
                forwarded,
                ..RelayStats::default()
            },
            ..Counts::default()
        };
        LiveOutcome {
            counts,
            ledger: Ledger {
                failed: Vec::new(),
                lines: Vec::new(),
            },
            latency: LogHistogram::new(),
            batch_share: LogHistogram::new(),
        }
    }

    #[test]
    fn relayed_pps_scales_forwarded_by_the_transmit_window() {
        // 800 sent in 0.8 s is 1000/s; 400 forwarded in that window is 500/s.
        assert_eq!(relayed_pps(&run(800, 400, 800)), 500);
        assert_eq!(relayed_pps(&run(0, 0, 0)), 0);
        // No relay in the path (direct): nothing relayed.
        assert_eq!(relayed_pps(&run(800, 0, 800)), 0);
    }

    #[test]
    fn best_of_keeps_the_whole_fastest_row() {
        let mut fastest = run(100, 90, 100);
        fastest.counts.sink.received = 9;
        let runs = [run(100, 50, 100), fastest, run(100, 80, 100)];
        let best = best_of(runs);
        assert_eq!(
            (best.counts.relay.forwarded, best.counts.sink.received),
            (90, 9)
        );
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
    fn per_datagram_time_is_rounded_to_a_tenth() {
        assert_eq!(per_datagram(3_928_912, 1_000), 3928.9);
        assert_eq!(per_datagram(0, 0), 0.0);
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

    /// The two modes parse; nothing else does, the retired single-run
    /// mode's flags included.
    #[test]
    fn modes_parse() {
        assert!(matches!(parse_args(&args(&["--sweep"])), Mode::Sweep));
        assert!(matches!(parse_args(&args(&["--smoke"])), Mode::Smoke));
        let retired = [
            "--variant",
            "--threads",
            "--flows",
            "--shards",
            "--sink-threads",
            "--rate",
            "--duration-ms",
            "--trim",
            "--payload",
            "--layer",
            "--json",
        ];
        for flag in retired {
            let refused = std::panic::catch_unwind(|| parse_args(&args(&[flag, "1"])));
            assert!(refused.is_err(), "{flag} must be refused");
        }
        assert!(std::panic::catch_unwind(|| parse_args(&[])).is_err());
    }

    #[test]
    #[should_panic(
        expected = "netproxy_load takes --smoke or --sweep, alone (see the module docs)"
    )]
    fn sweep_refuses_any_other_flag() {
        parse_args(&args(&["--rate", "5", "--sweep"]));
    }
}
