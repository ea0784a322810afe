//! One live-relay run: the load generator, the path under test and the
//! sink on loopback sockets, judged by one packet-accounting ledger.
//!
//! [`run`] starts a [`BatchSink`] and the path under test ([`Path`]),
//! runs the caller's [`BatchLoadGen`], waits for the counters to settle
//! and judges the run with [`judge`]. Shard crashes and stalls are
//! entries of the run's fault plan, which the relay's socket shim runs.
//! `netproxy_load --smoke` / `--sweep`, the soak family
//! ([`crate::soak::Soak`]) and `fig5`'s upper bound all drive the relay
//! through it; `scripts/check.sh` refuses a second place in `bench` or
//! the examples that starts a sink or a relay.
//!
//! The ledger demands **zero unexplained loss**. Every datagram the
//! generator delivered must be explained by a sink arrival, a NACK, a
//! counted relay-side decision (drop / shed / coalesce), a counted fault
//! event (drop / blackhole / pending delay / corruption), a counted send
//! error, or, when the plan crashes or stalls a shard, the bounded
//! crash-loss budget (one second of traffic). It is a pure function of
//! the run and its [`Counts`], so its rules are unit-tested on synthetic
//! counts. The ingress check also prints how many datagrams the kernel
//! dropped machine-wide over the run ([`KernelDrops`]), which the ledger
//! cannot attribute to the run but which says where unexplained loss
//! most likely went, and under chaos the plan's total stall time and
//! what that much of the load comes to, beside the budget.

use dcsim::faults::FaultPlan;
use dcsim::time::SimDuration;
use netproxy::fault::{FaultSnapshot, INBOUND, OUTBOUND};
use netproxy::loadgen::{BatchLoadGen, BatchLoadReport, BatchSink, SinkStats};
use netproxy::shard::{RelayConfig, RelayKind, RelayStats, ShardedRelay};
use netproxy::supervisor::{SupervisorStats, WEDGE_TIMEOUT};
use std::fmt;
use std::net::SocketAddr;
use std::num::NonZeroU64;
use std::time::{Duration, Instant};
use trace::LogHistogram;

/// What carries the load from the generator to the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// No relay: the generator sends straight to the sink.
    Direct,
    /// A [`ShardedRelay`] of `kind` on `shards` workers (0 = one per core).
    /// On `SocketLayer::Fallback` one shard is the single-datagram
    /// baseline: one `recv_from` and one `send_to` per datagram.
    Sharded {
        /// Relay logic.
        kind: RelayKind,
        /// Worker threads / sockets.
        shards: usize,
    },
}

impl Path {
    /// Short name for tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Path::Direct => "direct",
            Path::Sharded { kind, .. } => kind.name(),
        }
    }
}

/// One live run: the path, the load it carries and the chaos it suffers.
/// Faults (shard crashes and stalls included) and the shed ladder act on
/// the sharded relay only.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveRun {
    /// The path under test.
    pub path: Path,
    /// The load, drain grace included. Its socket layer is the relay's
    /// and the sink's too.
    pub load: BatchLoadGen,
    /// What the relay's fault shim does: port 0 inbound, port 1 outbound,
    /// and the shard crashes and stalls (empty = the clean datapath).
    pub faults: FaultPlan,
    /// Base seed of the shim's fault streams (one per shard × generation).
    pub fault_seed: u64,
    /// Per-shard forward budget of the shed ladder; 0 = ladder off.
    pub overload_pps: u64,
}

impl LiveRun {
    /// `load` over `path`, with no fault or shed ladder.
    pub fn clean(path: Path, load: BatchLoadGen) -> Self {
        LiveRun {
            path,
            load,
            faults: FaultPlan::new(),
            fault_seed: 0,
            overload_pps: 0,
        }
    }

    /// Whether the plan crashes or stalls a shard.
    fn chaos_on(&self) -> bool {
        !self.faults.shard_crashes.is_empty()
    }

    /// The shards the supervisor must recover: those the plan crashes,
    /// and those it stalls for longer than [`WEDGE_TIMEOUT`] (wedges), one
    /// entry per crash or wedge. A shorter stall is ridden out.
    fn recoveries(&self) -> (Vec<u32>, Vec<u32>) {
        let (mut crashed, mut wedged) = (Vec::new(), Vec::new());
        for c in &self.faults.shard_crashes {
            match c.restore_at {
                None => crashed.push(c.shard),
                Some(r) if r.since(c.at) > wedge_timeout() => wedged.push(c.shard),
                Some(_) => {}
            }
        }
        (crashed, wedged)
    }
}

/// The supervisor's [`WEDGE_TIMEOUT`] on the fault plan's clock.
pub(crate) fn wedge_timeout() -> SimDuration {
    SimDuration::from_millis(WEDGE_TIMEOUT.as_millis() as u64)
}

trace::counters! {
    "bench.kernel";
    /// Machine-wide kernel drop counters: UDP receive-buffer and input
    /// errors (`/proc/net/snmp`) and softnet backlog drops
    /// (`/proc/net/softnet_stat`, column 2 summed over CPUs). [`run`] reads
    /// them before the generator starts and after the run settles; the
    /// difference is every such drop on the machine in between, this
    /// run's and anyone else's. (The UDP counters are the network
    /// namespace's, which in a container is narrower than the machine.)
    pub struct KernelDrops {
        /// UDP datagrams dropped for a full socket receive buffer.
        udp_rcvbuf_errors,
        /// UDP datagrams that failed delivery (receive-buffer drops
        /// included).
        udp_in_errors,
        /// Packets dropped for a full per-CPU input backlog.
        softnet_dropped,
    }
}

impl KernelDrops {
    /// The counters now; `None` off Linux or when they cannot be read.
    fn read() -> Option<KernelDrops> {
        let snmp = std::fs::read_to_string("/proc/net/snmp").ok()?;
        let softnet = std::fs::read_to_string("/proc/net/softnet_stat").ok()?;
        KernelDrops::parse(&snmp, &softnet)
    }

    fn parse(snmp: &str, softnet: &str) -> Option<KernelDrops> {
        // Two `Udp:` lines: the counter names, then their values.
        let mut udp = snmp.lines().filter(|line| line.starts_with("Udp: "));
        let (names, values) = (udp.next()?, udp.next()?);
        let udp = |name: &str| -> Option<u64> {
            let i = names.split_whitespace().position(|n| n == name)?;
            values.split_whitespace().nth(i)?.parse().ok()
        };
        let softnet_dropped = (softnet.lines())
            .map(|line| u64::from_str_radix(line.split_whitespace().nth(1)?, 16).ok())
            .sum::<Option<u64>>()?;
        Some(KernelDrops {
            udp_rcvbuf_errors: udp("RcvbufErrors")?,
            udp_in_errors: udp("InErrors")?,
            softnet_dropped,
        })
    }

    /// What the counters moved by since `before`.
    fn since(self, before: KernelDrops) -> KernelDrops {
        KernelDrops {
            udp_rcvbuf_errors: self
                .udp_rcvbuf_errors
                .saturating_sub(before.udp_rcvbuf_errors),
            udp_in_errors: self.udp_in_errors.saturating_sub(before.udp_in_errors),
            softnet_dropped: self.softnet_dropped.saturating_sub(before.softnet_dropped),
        }
    }
}

/// Every count the ledger reads, snapshotted once the run settled.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Socket layer the path ran on.
    pub layer: &'static str,
    /// What the generator sent and drained.
    pub generator: BatchLoadReport,
    /// The relay's counters (all zero on the direct path).
    pub relay: RelayStats,
    /// What the sink absorbed.
    pub sink: SinkStats,
    /// The fault shim's counters (all zero without faults).
    pub faults: FaultSnapshot,
    /// The relay's supervisor.
    pub supervisor: SupervisorStats,
    /// Each relay shard's generation; the direct path has none.
    pub generations: Vec<u64>,
    /// Each sharded-relay shard's heartbeat at settle.
    pub heartbeats: Vec<u64>,
    /// The same heartbeats 50 ms later (runs with shard crashes only).
    pub heartbeats_later: Vec<u64>,
    /// The machine's kernel drops over the run; `None` off Linux.
    pub kernel: Option<KernelDrops>,
}

/// A run's verdict: the checks that failed, and every count and check in
/// words.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Names of the checks that failed, in ledger order.
    pub failed: Vec<&'static str>,
    /// The run's counts, then every check with the numbers behind it.
    pub lines: Vec<String>,
}

/// Two ledgers agree when the same checks failed; the counts behind them
/// come from real sockets and real clocks and never repeat.
impl PartialEq for Ledger {
    fn eq(&self, other: &Self) -> bool {
        self.failed == other.failed
    }
}

impl Ledger {
    /// Whether every check held.
    pub fn passed(&self) -> bool {
        self.failed.is_empty()
    }

    /// Writes one check into the ledger: its name, verdict and numbers.
    fn check(&mut self, name: &'static str, pass: bool, detail: String) {
        if !pass {
            self.failed.push(name);
        }
        let verdict = if pass { "ok" } else { "FAIL" };
        self.lines.push(format!("[{verdict}] {name}: {detail}"));
    }
}

/// The whole ledger, one line each.
impl fmt::Display for Ledger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.lines.iter().try_for_each(|line| writeln!(f, "{line}"))
    }
}

/// What one live run came to.
#[derive(Debug, Clone)]
pub struct LiveOutcome {
    /// Every count the ledger read.
    pub counts: Counts,
    /// The ledger's verdict.
    pub ledger: Ledger,
    /// One-way latency of data datagrams at the sink, nanoseconds.
    pub latency: LogHistogram,
    /// The relay's per-datagram share of each batch's span
    /// ([`ShardedRelay::recorder`]), nanoseconds; empty on the direct path.
    pub batch_share: LogHistogram,
}

/// Runs `run` and judges it.
///
/// # Panics
/// Panics when a socket cannot be set up, or when faults or the shed
/// ladder are asked of the direct path.
pub fn run(run: &LiveRun) -> LiveOutcome {
    let sharded = matches!(run.path, Path::Sharded { .. });
    assert!(
        sharded || (run.faults.is_empty() && run.overload_pps == 0),
        "faults and the shed ladder need the relay"
    );
    let layer = run.load.layer;
    // simlint: allow(wall-clock) — a live run measures real elapsed time
    let epoch = Instant::now();
    let sink = BatchSink::start(layer, epoch).expect("sink");
    let relay = match run.path {
        Path::Direct => None,
        Path::Sharded { kind, shards } => {
            let config = RelayConfig {
                kind,
                shards,
                layer,
                faults: (!run.faults.is_empty()).then(|| (run.faults.clone(), run.fault_seed)),
                overload: NonZeroU64::new(run.overload_pps),
                ..RelayConfig::streamlined(sink.local_addr())
            };
            let loopback = SocketAddr::from(([127, 0, 0, 1], 0));
            Some(ShardedRelay::start(loopback, config).expect("relay"))
        }
    };
    let target = relay
        .as_ref()
        .map_or(sink.local_addr(), ShardedRelay::local_addr);
    let relay_stats = || {
        relay
            .as_ref()
            .map_or_else(RelayStats::default, ShardedRelay::stats)
    };

    let kernel_before = KernelDrops::read();
    let generator = run.load.run(target, epoch).expect("loadgen run");

    // Settle: wait for in-flight datagrams (kernel queues, delayed
    // releases) to quiesce before snapshotting — two identical samples
    // 100 ms apart, capped at 3 s.
    // simlint: allow(wall-clock) — real-time drain deadline for live sockets
    let settle = Instant::now();
    let mut last = (0u64, 0u64, 0u64);
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let (s, r) = (sink.stats(), relay_stats());
        let now = (s.received + s.trimmed + s.malformed, r.received, r.nacks);
        if now == last || settle.elapsed() > Duration::from_secs(3) {
            break;
        }
        last = now;
    }

    let mut counts = Counts {
        layer: layer.resolved().name(),
        generator,
        relay: relay_stats(),
        sink: sink.stats(),
        kernel: KernelDrops::read()
            .zip(kernel_before)
            .map(|(a, b)| a.since(b)),
        ..Counts::default()
    };
    let mut batch_share = LogHistogram::new();
    if let Some(relay) = &relay {
        counts.layer = relay.layer().name();
        counts.faults = relay.fault_stats();
        counts.supervisor = relay.supervisor_stats();
        let shards = 0..relay.shards();
        counts.generations = shards.clone().map(|i| relay.shard_generation(i)).collect();
        counts.heartbeats = shards.clone().map(|i| relay.shard_heartbeat(i)).collect();
        if run.chaos_on() {
            std::thread::sleep(Duration::from_millis(50));
            counts.heartbeats_later = shards.map(|i| relay.shard_heartbeat(i)).collect();
        }
        batch_share = relay.recorder().snapshot();
    }
    LiveOutcome {
        ledger: judge(run, &counts),
        counts,
        latency: sink.recorder().snapshot(),
        batch_share,
    }
}

/// The per-path rule of `relay_conservation`: how many received datagrams
/// the relay's outcomes account for, and that sum in words. A
/// Streamlined NACK, or a NACK coalesced away, answers one received
/// trimmed header; a Detecting NACK is generated from a sequence gap and
/// consumes nothing, and neither does one it coalesced or refused. The
/// relay counts an outcome when it queues the datagram, so its send
/// errors stay out (`send_errors_classified` and `egress_accounted`
/// account for them).
fn consumed(path: Path, r: &RelayStats) -> (u64, &'static str) {
    let passed_on = r.forwarded + r.reversed + r.dropped;
    match path {
        Path::Sharded {
            kind: RelayKind::Detecting,
            ..
        } => (
            passed_on + r.shed_dropped,
            "forwarded + reversed + dropped + shed_dropped",
        ),
        Path::Direct | Path::Sharded { .. } => (
            passed_on + r.nacks + r.nacks_coalesced + r.shed_dropped,
            "forwarded + reversed + dropped + nacks + coalesced + shed_dropped",
        ),
    }
}

/// The fault kinds `faults_engaged` reads, per direction, in the order
/// of its counters.
const KINDS: [&str; 6] = [
    "dropped",
    "corrupted",
    "duplicated",
    "delayed",
    "blackholed",
    "errors",
];

/// Judges a run by its counts: every count, then every check with the
/// numbers behind it.
pub fn judge(run: &LiveRun, c: &Counts) -> Ledger {
    // The direct path has no relay: the wire receives and forwards what
    // the generator delivered, so the ledger balances it against the sink.
    let delivered = c.generator.delivered();
    let r = match run.path {
        Path::Direct => RelayStats {
            received: delivered,
            forwarded: delivered,
            ..RelayStats::default()
        },
        _ => c.relay,
    };
    let (fs, sup) = (&c.faults, &c.supervisor);
    let mut ledger = Ledger {
        failed: Vec::new(),
        lines: vec![
            format!("generator: {}", c.generator),
            format!("{} on {}: {}", run.path.name(), c.layer, c.relay),
            format!("sink: {}", c.sink),
            format!("faults: {fs}"),
            format!("supervisor: {sup}"),
        ],
    };

    // eqB — relay-internal conservation (exact, always): every received
    // datagram lands in exactly one outcome bucket.
    let (consumed, outcomes) = consumed(run.path, &r);
    ledger.check(
        "relay_conservation",
        r.received == consumed,
        format!("received {} == {outcomes} {consumed}", r.received),
    );

    // Strict send-error classification: every kernel refusal is either
    // a classified whole-batch loss or did not happen. Partial
    // (per-datagram) refusals would be unclassifiable — on loopback at
    // these rates they must not occur.
    let classified = r.send_err_data + r.send_err_ctrl;
    ledger.check(
        "send_errors_classified",
        r.send_errors == classified,
        format!("send_errors {} == data + ctrl {classified}", r.send_errors),
    );
    ledger.check(
        "no_release_errors",
        fs.tx_release_errors == 0,
        format!("tx_release_errors {}", fs.tx_release_errors),
    );

    // eqA — generator → relay, adjusted for counted rx fault events.
    // What's left over is crash/stall loss: packets the kernel steered
    // into a socket that died (queue lost on close) or stalled (queue
    // overflowed while unserviced). The kernel's own drop counters say
    // where it went, machine-wide. Under chaos the line also says how
    // long the plan stalls shards (`restore_at − at` summed over the
    // entries that have a restore time) and what that much load comes to.
    let arrived_adj = delivered + fs.rx_duplicated;
    let rx_explained = fs.rx_dropped + fs.rx_blackholed + fs.rx_delay_pending() + r.received;
    let crash_lost = arrived_adj as i64 - rx_explained as i64;
    let (name_a, budget, stalls) = if run.chaos_on() {
        let stalls = run.faults.shard_crashes.iter();
        let stalls = stalls.filter_map(|c| Some(c.restore_at?.since(c.at)));
        let stalled = stalls.fold(SimDuration::ZERO, |total, stall| total + stall);
        let rate = run.load.rate_pps;
        let at_rate = (stalled.as_secs_f64() * rate as f64).round() as u64;
        let stalls = format!("; plan stalls {stalled} = {at_rate} datagrams at {rate} pps");
        ("ingress_loss_within_crash_budget", rate as i64, stalls)
    } else {
        ("ingress_zero_unexplained", 0, String::new())
    };
    let kernel = c.kernel.map_or("n/a".to_string(), |k| k.to_string());
    ledger.check(
        name_a,
        (0..=budget).contains(&crash_lost),
        format!(
            "crash_lost {crash_lost} = delivered + rx_dup {arrived_adj} - rx_dropped - \
             rx_blackholed - rx_delay_pending - relay_received {rx_explained}; budget {budget}\
             {stalls}; kernel drops (machine-wide) {kernel}"
        ),
    );

    // eqC — relay → sink, adjusted for counted tx fault events on the
    // data class. Corrupted data still arrives (as sink malformation),
    // so corruption does not enter the balance; sink_total includes
    // every arrival class.
    let s = c.sink;
    let sink_total = s.received + s.trimmed + s.feedback + s.malformed;
    let egress_expected = (r.forwarded + fs.tx_duplicated_data + fs.tx_delay_released_data) as i64
        - (fs.tx_dropped_data + fs.tx_blackholed_data + fs.tx_delayed_data + r.send_err_data)
            as i64;
    ledger.check(
        "egress_accounted",
        sink_total as i64 == egress_expected,
        format!(
            "sink_total {sink_total} == forwarded + tx_dup_data + released - tx_dropped_data - \
             tx_blackholed_data - tx_delayed_data - send_err_data {egress_expected}"
        ),
    );

    // NACK backflow — relay NACKs minus counted ctrl-class tx losses
    // bound what the generator can see; slack covers backflow still in
    // a worker's kernel queue when its drain grace expired.
    let nack_expected = (r.nacks + fs.tx_duplicated_ctrl + fs.tx_delay_released_ctrl) as i64
        - (fs.tx_dropped_ctrl
            + fs.tx_blackholed_ctrl
            + fs.tx_delayed_ctrl
            + fs.tx_corrupted_ctrl
            + r.send_err_ctrl) as i64;
    let nack_slack = (nack_expected / 20).max(128);
    let nack_gap = nack_expected - c.generator.nacks_received as i64;
    ledger.check(
        "nack_backflow_accounted",
        (0..=nack_slack).contains(&nack_gap),
        format!(
            "expected {nack_expected} - received {} = gap {nack_gap} (slack {nack_slack})",
            c.generator.nacks_received
        ),
    );

    // Fault shim engagement: every fault kind the plan turns on must have
    // moved its counter — a fault that injected nothing proves nothing.
    if !run.faults.is_empty() {
        let f = &run.faults;
        // Per direction, what moved for each kind: loss, corruption,
        // duplication, delay, blackout, syscall errors.
        let moved = [
            [
                fs.rx_dropped,
                fs.rx_corrupted,
                fs.rx_duplicated,
                fs.rx_delayed,
                fs.rx_blackholed,
                fs.synth_recv_errors,
            ],
            [
                fs.tx_dropped_data + fs.tx_dropped_ctrl,
                fs.tx_corrupted_data + fs.tx_corrupted_ctrl,
                fs.tx_duplicated_data + fs.tx_duplicated_ctrl,
                fs.tx_delayed_data + fs.tx_delayed_ctrl,
                fs.tx_blackholed_data + fs.tx_blackholed_ctrl,
                fs.synth_send_errors,
            ],
        ];
        let mut engaged = Vec::new();
        for ((port, dir), moved) in [(INBOUND, "rx"), (OUTBOUND, "tx")].into_iter().zip(moved) {
            let imp = f.impairments.iter().find(|i| i.port == port);
            let p = imp.map_or([0.0; 4], |i| [i.loss, i.corrupt, i.duplicate, i.delay]);
            let windows = f.link_windows.iter().any(|w| w.port == port);
            let errors = f.syscall_errors.iter().any(|e| e.port == port);
            let on = p.map(|p| p > 0.0).into_iter().chain([windows, errors]);
            for ((kind, on), n) in KINDS.into_iter().zip(on).zip(moved) {
                if on {
                    engaged.push((format!("{dir}_{kind} {n}"), n));
                }
            }
        }
        let detail: Vec<&str> = engaged.iter().map(|(line, _)| line.as_str()).collect();
        ledger.check(
            "faults_engaged",
            engaged.iter().all(|&(_, n)| n > 0),
            detail.join(", "),
        );
    }

    // Recovery: every crash and wedge the plan holds was detected and its
    // shard came back (generation advanced, nothing abandoned).
    let (crashed, wedged) = run.recoveries();
    for (name, what, shards, detected) in [
        ("crash_recovered", "crashes", &crashed, sup.crashes_detected),
        ("wedge_recovered", "wedges", &wedged, sup.wedges_detected),
    ] {
        if shards.is_empty() {
            continue;
        }
        let gens: Vec<u64> = (shards.iter())
            .map(|&s| c.generations.get(s as usize).copied().unwrap_or(0))
            .collect();
        ledger.check(
            name,
            detected >= shards.len() as u64 && gens.iter().all(|&g| g >= 1),
            format!(
                "{what}_detected {detected} of {}; gen of shards {shards:?} {gens:?}",
                shards.len()
            ),
        );
    }
    if run.chaos_on() {
        let recoveries = (crashed.len() + wedged.len()) as u64;
        ledger.check(
            "all_shards_alive",
            sup.gave_up == 0 && sup.restarts >= recoveries,
            format!(
                "restarts {} of {recoveries} gave_up {}",
                sup.restarts, sup.gave_up
            ),
        );
        // Liveness at the end of the run: heartbeats still advance.
        let (before, after) = (&c.heartbeats, &c.heartbeats_later);
        let beating = before.iter().zip(after).any(|(b, a)| a > b);
        ledger.check(
            "replacement_shards_beating",
            beating,
            format!("heartbeats {before:?} -> {after:?}, advancing {beating}"),
        );
    }

    // Overload ladder engagement under deliberate overload.
    if run.overload_pps > 0 {
        ledger.check(
            "shed_ladder_engaged",
            r.shed_nacked + r.shed_dropped > 0 && r.nacks_coalesced > 0,
            format!(
                "shed_nacked {} shed_dropped {} nacks_coalesced {}",
                r.shed_nacked, r.shed_dropped, r.nacks_coalesced
            ),
        );
    }

    // The shim corrupts by smashing the wire magic, so every corrupted
    // data datagram, and nothing else, arrives at the sink malformed.
    ledger.check(
        "sink_malformed_is_corruption",
        s.malformed == fs.tx_corrupted_data,
        format!(
            "sink malformed {} == tx_corrupted_data {}",
            s.malformed, fs.tx_corrupted_data
        ),
    );
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::faults::PortImpairment;
    use dcsim::time::SimTime;
    use netproxy::SocketLayer;

    const NAIVE: Path = Path::Sharded {
        kind: RelayKind::Naive,
        shards: 2,
    };
    const STREAMLINED: Path = Path::Sharded {
        kind: RelayKind::Streamlined,
        shards: 2,
    };
    const DETECTING: Path = Path::Sharded {
        kind: RelayKind::Detecting,
        shards: 2,
    };

    fn paths() -> [Path; 4] {
        [Path::Direct, NAIVE, STREAMLINED, DETECTING]
    }

    fn clean(path: Path) -> LiveRun {
        let load = BatchLoadGen {
            layer: SocketLayer::Mmsg,
            ..BatchLoadGen::smoke(Duration::from_millis(250))
        };
        LiveRun::clean(path, load)
    }

    /// 1,000 datagrams, 200 of them trimmed headers, each accounted for as
    /// `path` handles it.
    fn balanced(path: Path) -> Counts {
        let mut c = Counts {
            layer: "mmsg",
            generator: BatchLoadReport {
                sent_packets: 1_000,
                trimmed_sent: 200,
                ..BatchLoadReport::default()
            },
            ..Counts::default()
        };
        let (relay, sink, nacks) = (&mut c.relay, &mut c.sink, &mut c.generator.nacks_received);
        relay.received = 1_000;
        match path {
            Path::Direct => {
                relay.received = 0;
                (sink.received, sink.trimmed) = (800, 200);
            }
            // Trimmed headers travel on to the sink; Detecting adds three
            // NACKs of its own.
            Path::Sharded {
                kind: RelayKind::Naive | RelayKind::Detecting,
                ..
            } => {
                relay.forwarded = 1_000;
                (sink.received, sink.trimmed) = (800, 200);
                if path == DETECTING {
                    (relay.nacks, *nacks) = (3, 3);
                }
            }
            // Each trimmed header comes back as a NACK.
            Path::Sharded { .. } => {
                (relay.forwarded, relay.nacks) = (800, 200);
                (sink.received, *nacks) = (800, 200);
            }
        }
        c
    }

    fn failed(run: &LiveRun, c: &Counts) -> Vec<&'static str> {
        judge(run, c).failed
    }

    #[test]
    fn a_balanced_run_passes_on_every_path() {
        for path in paths() {
            let ledger = judge(&clean(path), &balanced(path));
            assert!(ledger.passed(), "{}:\n{ledger}", path.name());
        }
    }

    #[test]
    fn count_lines_name_the_nonzero_counters() {
        let ledger = judge(&clean(STREAMLINED), &balanced(STREAMLINED));
        assert_eq!(
            ledger.lines[..5],
            [
                "generator: netproxy.generator.sent_packets=1000 \
                 netproxy.generator.trimmed_sent=200 netproxy.generator.nacks_received=200",
                "streamlined on mmsg: netproxy.shard.forwarded=800 netproxy.shard.nacks=200 \
                 netproxy.shard.received=1000",
                "sink: netproxy.sink.received=800",
                "faults: none",
                "supervisor: none",
            ]
        );
    }

    /// A count change per check that breaks that check alone on `path`.
    /// The direct path has no relay, so conservation, ingress and send
    /// errors cannot break there: the wire takes what was delivered.
    type Breaker = (&'static str, fn(&mut Counts));
    fn breakers(path: Path) -> Vec<Breaker> {
        let mut out: Vec<Breaker> = vec![
            ("no_release_errors", |c| c.faults.tx_release_errors = 1),
            ("egress_accounted", |c| c.sink.received -= 1),
            ("nack_backflow_accounted", |c| {
                c.generator.nacks_received += 1
            }),
            // A data datagram arrives mangled with no corruption counted.
            ("sink_malformed_is_corruption", |c| {
                c.sink.received -= 1;
                c.sink.malformed += 1;
            }),
        ];
        if path != Path::Direct {
            out.push(("relay_conservation", |c| c.relay.dropped += 1));
            out.push(("ingress_zero_unexplained", |c| {
                c.generator.sent_packets += 1
            }));
            // A per-datagram refusal, which no whole-batch loss explains.
            out.push(("send_errors_classified", |c| c.relay.send_errors += 1));
        }
        out
    }

    #[test]
    fn each_check_fails_alone_by_name_on_every_path() {
        for path in paths() {
            for (name, break_it) in breakers(path) {
                let mut c = balanced(path);
                break_it(&mut c);
                assert_eq!(failed(&clean(path), &c), [name], "{}", path.name());
            }
        }
    }

    /// A NACK the kernel refused is counted once when the relay queues it
    /// and once as a classified whole-batch loss: the books still balance,
    /// for a Streamlined NACK and for a Detecting one.
    #[test]
    fn a_refused_nack_balances() {
        for path in [STREAMLINED, DETECTING] {
            let mut c = balanced(path);
            (c.relay.send_errors, c.relay.send_err_ctrl) = (1, 1);
            c.generator.nacks_received -= 1;
            let ledger = judge(&clean(path), &c);
            assert!(ledger.passed(), "{}:\n{ledger}", path.name());
        }
    }

    #[test]
    fn detecting_nacks_consume_no_received_datagram() {
        let c = balanced(DETECTING);
        assert!(judge(&clean(DETECTING), &c).passed());
        assert_eq!(failed(&clean(STREAMLINED), &c), ["relay_conservation"]);
    }

    /// The shed ladder on a Detecting relay: data it shed consumed a
    /// received datagram each, a generated NACK it coalesced or refused
    /// consumed none, and the books balance. Counted the old way, with
    /// refused NACKs among the shed datagrams, they do not.
    #[test]
    fn a_detecting_run_with_the_shed_ladder_balances() {
        let run = LiveRun {
            overload_pps: 500,
            ..clean(DETECTING)
        };
        let mut c = balanced(DETECTING);
        (c.relay.forwarded, c.relay.shed_dropped) = (950, 50);
        c.sink.received -= 50;
        (c.relay.nacks_coalesced, c.relay.nacks_refused) = (2, 4);
        let ledger = judge(&run, &c);
        assert!(ledger.passed(), "{ledger}");
        c.relay.shed_dropped += std::mem::take(&mut c.relay.nacks_refused);
        assert_eq!(failed(&run, &c), ["relay_conservation"]);
    }

    fn ms(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// Inbound loss, a crash, a wedge and the shed ladder on a streamlined
    /// relay, with 10 datagrams lost to the fault shim and 5 to the crash.
    fn chaos() -> (LiveRun, Counts) {
        let mut faults =
            FaultPlan::new()
                .crash_shard(0, ms(100))
                .crash_shard_window(1, ms(150), ms(1_150));
        faults.impairments.push(PortImpairment {
            loss: 0.01,
            ..PortImpairment::none(INBOUND)
        });
        let run = LiveRun {
            faults,
            fault_seed: 1,
            overload_pps: 500,
            ..clean(STREAMLINED)
        };
        let mut c = balanced(STREAMLINED);
        c.faults.rx_dropped = 10;
        (c.relay.shed_nacked, c.relay.nacks_coalesced) = (4, 2);
        c.relay.received += 2;
        c.generator.sent_packets += 2 + 10 + 5;
        c.supervisor = SupervisorStats {
            restarts: 2,
            crashes_detected: 1,
            wedges_detected: 1,
            gave_up: 0,
        };
        c.generations = vec![1, 1];
        c.heartbeats = vec![10, 20];
        c.heartbeats_later = vec![11, 20];
        (run, c)
    }

    /// The soak's thirteen checks keep their names and order; the malformed
    /// check comes last.
    #[test]
    fn a_chaos_run_passes_every_check_in_ledger_order() {
        let (run, c) = chaos();
        let ledger = judge(&run, &c);
        assert!(ledger.passed(), "{ledger}");
        let names: Vec<&str> = ledger.lines[5..]
            .iter()
            .map(|line| line["[ok] ".len()..].split(':').next().expect("named"))
            .collect();
        assert_eq!(
            names,
            [
                "relay_conservation",
                "send_errors_classified",
                "no_release_errors",
                "ingress_loss_within_crash_budget",
                "egress_accounted",
                "nack_backflow_accounted",
                "faults_engaged",
                "crash_recovered",
                "wedge_recovered",
                "all_shards_alive",
                "replacement_shards_beating",
                "shed_ladder_engaged",
                "sink_malformed_is_corruption",
            ]
        );
    }

    #[test]
    fn each_chaos_check_fails_alone_by_name() {
        let breakers: [Breaker; 7] = [
            ("ingress_loss_within_crash_budget", |c| {
                c.generator.sent_packets += 20_000
            }),
            ("faults_engaged", |c| c.faults.rx_dropped = 0),
            ("crash_recovered", |c| c.generations[0] = 0),
            ("wedge_recovered", |c| c.supervisor.wedges_detected = 0),
            ("all_shards_alive", |c| c.supervisor.gave_up = 1),
            ("replacement_shards_beating", |c| {
                c.heartbeats_later = c.heartbeats.clone()
            }),
            ("shed_ladder_engaged", |c| c.relay.shed_nacked = 0),
        ];
        for (name, break_it) in breakers {
            let (run, mut c) = chaos();
            break_it(&mut c);
            assert_eq!(failed(&run, &c), [name]);
        }
    }

    /// A stall the supervisor rides out is no wedge: the crash-loss budget
    /// and the liveness checks are armed, `wedge_recovered` is not, and
    /// no restart is owed for it.
    #[test]
    fn a_short_stall_arms_the_budget_but_no_wedge() {
        let run = LiveRun {
            faults: FaultPlan::new().crash_shard_window(0, ms(100), ms(300)),
            ..clean(STREAMLINED)
        };
        let mut c = balanced(STREAMLINED);
        c.generator.sent_packets += 5;
        (c.heartbeats, c.heartbeats_later) = (vec![10, 20], vec![11, 20]);
        let ledger = judge(&run, &c);
        assert!(ledger.passed(), "{ledger}");
        let armed = |name: &str| ledger.lines.iter().any(|l| l.contains(name));
        assert!(armed("ingress_loss_within_crash_budget") && armed("all_shards_alive"));
        assert!(!armed("wedge_recovered") && !armed("crash_recovered"));
    }

    /// The crash-budget line says how long the plan stalls shards (a crash
    /// without a restore time adds nothing) and what that much of the
    /// load comes to; the clean line names no stall.
    #[test]
    fn the_crash_budget_line_names_the_plans_stalls() {
        let ingress = |run: &LiveRun, c: &Counts| {
            let mut lines = judge(run, c).lines.into_iter();
            lines
                .find(|l| l.contains("ingress_"))
                .expect("an ingress line")
        };
        let (run, c) = chaos();
        let want = "budget 20000; plan stalls 1.000s = 20000 datagrams at 20000 pps; kernel";
        assert!(ingress(&run, &c).contains(want), "{}", ingress(&run, &c));
        let faults = run.faults.crash_shard_window(0, ms(1_200), ms(1_300));
        let line = ingress(&LiveRun { faults, ..run }, &c);
        assert!(line.contains("stalls 1.100s = 22000 datagrams"), "{line}");
        let line = ingress(&clean(STREAMLINED), &balanced(STREAMLINED));
        assert!(!line.contains("stalls"), "{line}");
    }

    /// The counters parse from `/proc`'s formats, and the ingress line
    /// prints their deltas, or `n/a` without them.
    #[test]
    fn kernel_drops_parse_and_print_on_the_ingress_line() {
        let snmp = "Udp: InDatagrams InErrors RcvbufErrors\nUdp: 100 7 5\n\
                    UdpLite: InDatagrams InErrors RcvbufErrors\nUdpLite: 0 9 9\n";
        let now = KernelDrops::parse(snmp, "0000726c 00000003\n00000827 0000000a\n");
        let before = KernelDrops {
            udp_rcvbuf_errors: 1,
            udp_in_errors: 2,
            softnet_dropped: 3,
        };
        assert_eq!(KernelDrops::parse("Udp: InErrors\n", ""), None);
        let ingress = |kernel| {
            let c = Counts {
                kernel,
                ..balanced(STREAMLINED)
            };
            let ledger = judge(&clean(STREAMLINED), &c);
            ledger.lines.into_iter().find(|l| l.contains("ingress_"))
        };
        assert!(ingress(None).unwrap().ends_with("(machine-wide) n/a"));
        let delta = ingress(now.map(|now| now.since(before))).unwrap();
        let want = "(machine-wide) bench.kernel.udp_rcvbuf_errors=4 \
                    bench.kernel.udp_in_errors=5 bench.kernel.softnet_dropped=10";
        assert!(delta.ends_with(want), "{delta}");
    }
}
