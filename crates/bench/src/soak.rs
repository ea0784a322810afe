//! The soak family (`"soak"`): the live sharded relay on loopback
//! sockets, under a [`FaultPlan`] run by its socket shim, a mid-run shard
//! crash and wedge and the overload shed ladder, judged by a strict
//! packet-accounting ledger — **zero unexplained loss**. Every datagram
//! the generator delivered must be explained by a sink arrival, a NACK, a
//! counted relay-side decision (drop / shed / coalesce), a counted fault
//! event (drop / blackhole / pending delay / corruption), a counted send
//! error, or the bounded crash-loss budget (one second of traffic).
//!
//! A run's outcome is the set of ledger checks that failed. Only that set
//! is compared when a replay runs a scenario twice: the counts behind the
//! checks come from real sockets and real clocks and never repeat, so
//! they go to [`Family::details`] and nowhere else. A campaign runs one
//! scenario at a time ([`Family::SERIAL`]) for the same reason.
//!
//! The ledger is streamlined-relay-only: streamlined is the only
//! datagram-conserving variant (detecting can emit several NACKs per
//! arrival), so it is the one whose books can be balanced exactly.

use crate::fuzz::mini_json::Json;
use crate::fuzz::{plan_fields, plan_from_value, Family};
use crate::retry_addr_in_use;
use dcsim::faults::{FaultPlan, PortImpairment, SyscallErrors};
use dcsim::time::{SimDuration, SimTime};
use netproxy::fault::{check_plan, INBOUND, OUTBOUND};
use netproxy::loadgen::{BatchLoadGen, BatchSink};
use netproxy::shard::{OverloadConfig, RelayConfig, ShardedRelay};
use netproxy::supervisor::SupervisorConfig;
use netproxy::SocketLayer;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use trace::{derive_seed, SplitMix64};

/// One soak: the relay's faults, its shape, the load it carries and the
/// chaos it suffers.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakScenario {
    /// Base seed of the shim's fault streams (one per shard × generation).
    pub fault_seed: u64,
    /// What the shim does: port 0 inbound, port 1 outbound.
    pub faults: FaultPlan,
    /// Socket layer of the relay, the generator and the sink.
    pub layer: SocketLayer,
    /// Relay shards.
    pub shards: usize,
    /// Load-generator worker threads.
    pub threads: usize,
    /// Flows per worker thread.
    pub flows_per_thread: usize,
    /// Aggregate offered load, datagrams per second.
    pub rate_pps: u64,
    /// Fraction of datagrams sent as trimmed headers.
    pub trim: f64,
    /// Payload bytes per data datagram.
    pub payload: usize,
    /// How long the generator sends.
    pub duration_ms: u64,
    /// When shard 0 crashes (`None`: never).
    pub crash_at_ms: Option<u64>,
    /// When the last shard wedges (`None`: never).
    pub wedge_at_ms: Option<u64>,
    /// Per-shard forward budget of the shed ladder; 0 = ladder off.
    pub overload_pps: u64,
}

impl SoakScenario {
    /// Checks that the scenario runs as written: the shim accepts its
    /// plan, and every blackout opens and every chaos event fires inside
    /// the run. (The load generator asserts its own shape.)
    ///
    /// # Errors
    /// What is wrong, in words.
    pub fn validate(&self) -> Result<(), String> {
        check_plan(&self.faults).map_err(|e| e.to_string())?;
        let end = SimTime::ZERO + SimDuration::from_millis(self.duration_ms);
        let late = |at: Option<u64>| at.is_some_and(|at| at >= self.duration_ms);
        if self.faults.link_windows.iter().any(|w| w.down_at >= end)
            || late(self.crash_at_ms)
            || late(self.wedge_at_ms)
        {
            return Err(format!(
                "a blackout, crash or wedge comes after the run ends at {end}"
            ));
        }
        Ok(())
    }

    fn chaos_on(&self) -> bool {
        self.crash_at_ms.is_some() || self.wedge_at_ms.is_some()
    }
}

/// What one soak came to.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// Names of the ledger checks that failed, in ledger order.
    pub failed: Vec<&'static str>,
    /// The run's counts, then every check with the numbers behind it.
    pub ledger: Vec<String>,
}

/// Two soaks agree when the same checks failed; their counts never do.
impl PartialEq for SoakOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.failed == other.failed
    }
}

impl SoakOutcome {
    /// Writes one check into the ledger: its name, verdict and numbers.
    fn check(&mut self, name: &'static str, pass: bool, detail: String) {
        if !pass {
            self.failed.push(name);
        }
        let verdict = if pass { "ok" } else { "FAIL" };
        self.ledger.push(format!("[{verdict}] {name}: {detail}"));
    }
}

fn run_soak(sc: &SoakScenario) -> SoakOutcome {
    let duration = Duration::from_millis(sc.duration_ms);
    // simlint: allow(wall-clock) — a soak measures real elapsed time
    let epoch = Instant::now();
    let sink = retry_addr_in_use(|| BatchSink::start(1, sc.layer, epoch)).expect("sink");
    let faults = (!sc.faults.is_empty()).then(|| (sc.faults.clone(), sc.fault_seed));
    let relay = retry_addr_in_use(|| {
        ShardedRelay::start(
            SocketAddr::from(([127, 0, 0, 1], 0)),
            RelayConfig {
                shards: sc.shards,
                layer: sc.layer,
                faults: faults.clone(),
                overload: (sc.overload_pps > 0)
                    .then(|| OverloadConfig::shed_at(sc.overload_pps as f64)),
                supervisor: SupervisorConfig {
                    poll: Duration::from_millis(25),
                    wedge_timeout: Duration::from_millis(400),
                    ..SupervisorConfig::default()
                },
                ..RelayConfig::streamlined(sink.local_addr())
            },
        )
    })
    .expect("relay");
    let shards = relay.shards();

    // Chaos, each event on a timer thread while the generator pushes
    // load: shard 0 crashes, the last shard wedges.
    let chaos = (sc.crash_at_ms.map(|at| (at, true)).into_iter())
        .chain(sc.wedge_at_ms.map(|at| (at, false)));
    let report = std::thread::scope(|scope| {
        let relay = &relay;
        for (at, crash) in chaos {
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(at));
                if crash {
                    relay.inject_crash(0);
                } else {
                    relay.inject_wedge(shards - 1);
                }
            });
        }
        let gen = BatchLoadGen {
            threads: sc.threads,
            flows_per_thread: sc.flows_per_thread,
            rate_pps: sc.rate_pps,
            duration,
            trim_fraction: sc.trim,
            payload_len: sc.payload,
            layer: sc.layer,
            // Faulted relays hold feedback (delay faults, restart
            // windows); give backflow a real chance to land.
            drain_grace: Duration::from_millis(500),
        };
        gen.run(relay.local_addr(), epoch).expect("loadgen run")
    });

    // Settle: wait for in-flight datagrams (kernel queues, delayed
    // releases) to quiesce before snapshotting — two identical samples
    // 100 ms apart, capped at 3 s.
    // simlint: allow(wall-clock) — real-time drain deadline for live sockets
    let settle = Instant::now();
    let mut last = (0u64, 0u64, 0u64);
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let s = sink.stats();
        let r = relay.stats();
        let now = (s.received + s.trimmed + s.malformed, r.received, r.nacks);
        if now == last || settle.elapsed() > Duration::from_secs(3) {
            break;
        }
        last = now;
    }

    let (r, fs, sup) = (relay.stats(), relay.fault_stats(), relay.supervisor_stats());
    let sink_stats = sink.stats();
    let heartbeats: Vec<u64> = (0..shards).map(|i| relay.shard_heartbeat(i)).collect();
    let generations: Vec<u64> = (0..shards).map(|i| relay.shard_generation(i)).collect();
    // Every count the checks read, then the checks, each with its sides.
    let mut ledger = SoakOutcome {
        failed: Vec::new(),
        ledger: vec![
            format!("generator: {report:?}"),
            format!("relay on {}: {r:?}", relay.layer().name()),
            format!("sink: {sink_stats:?}"),
            format!("faults: {fs:?}"),
            format!("supervisor: {sup:?}"),
        ],
    };

    // eqB — relay-internal conservation (exact, always): every received
    // datagram lands in exactly one outcome bucket.
    let explained_b =
        r.forwarded + r.reversed + r.dropped + r.nacks + r.nacks_coalesced + r.shed_dropped;
    ledger.check(
        "relay_conservation",
        r.received == explained_b,
        format!(
            "received {} == forwarded + reversed + dropped + nacks + coalesced + shed_dropped {explained_b}",
            r.received
        ),
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
    // What's left over is crash/wedge loss: packets the kernel steered
    // into a socket that died (queue lost on close) or wedged (queue
    // overflowed while unserviced).
    let arrived_adj = report.delivered() + fs.rx_duplicated;
    let rx_explained = fs.rx_dropped + fs.rx_blackholed + fs.rx_delay_pending() + r.received;
    let crash_lost = arrived_adj as i64 - rx_explained as i64;
    let budget = if sc.chaos_on() { sc.rate_pps as i64 } else { 0 };
    let name_a = if sc.chaos_on() {
        "ingress_loss_within_crash_budget"
    } else {
        "ingress_zero_unexplained"
    };
    ledger.check(
        name_a,
        (0..=budget).contains(&crash_lost),
        format!(
            "crash_lost {crash_lost} = delivered + rx_dup {arrived_adj} - rx_dropped - \
             rx_blackholed - rx_delay_pending - relay_received {rx_explained}; budget {budget}"
        ),
    );

    // eqC — relay → sink, adjusted for counted tx fault events on the
    // data class. Corrupted data still arrives (as sink malformation),
    // so corruption does not enter the balance; sink_total includes
    // every arrival class.
    let s = sink_stats;
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
    let nack_gap = nack_expected - report.nacks_received as i64;
    ledger.check(
        "nack_backflow_accounted",
        (0..=nack_slack).contains(&nack_gap),
        format!(
            "expected {nack_expected} - received {} = gap {nack_gap} (slack {nack_slack})",
            report.nacks_received
        ),
    );

    // Fault shim engagement: every fault kind the plan turns on must have
    // moved its counter — a fault that injected nothing proves nothing.
    if !sc.faults.is_empty() {
        let f = &sc.faults;
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

    // Recovery: every injected chaos event was detected and the shard
    // came back (generation advanced, nothing abandoned).
    if sc.crash_at_ms.is_some() {
        ledger.check(
            "crash_recovered",
            sup.crashes_detected >= 1 && generations[0] >= 1,
            format!(
                "crashes_detected {} gen[0] {}",
                sup.crashes_detected, generations[0]
            ),
        );
    }
    if sc.wedge_at_ms.is_some() {
        let last = generations[shards - 1];
        ledger.check(
            "wedge_recovered",
            sup.wedges_detected >= 1 && last >= 1,
            format!("wedges_detected {} gen[last] {last}", sup.wedges_detected),
        );
    }
    if sc.chaos_on() {
        ledger.check(
            "all_shards_alive",
            sup.gave_up == 0 && sup.restarts >= 1,
            format!("restarts {} gave_up {}", sup.restarts, sup.gave_up),
        );
        // Liveness at the end of the run: heartbeats still advance.
        std::thread::sleep(Duration::from_millis(50));
        let beating = (0..shards).any(|s| relay.shard_heartbeat(s) > heartbeats[s]);
        ledger.check(
            "replacement_shards_beating",
            beating,
            format!("heartbeats {heartbeats:?} -> advancing {beating}"),
        );
    }

    // Overload ladder engagement under deliberate overload.
    if sc.overload_pps > 0 {
        ledger.check(
            "shed_ladder_engaged",
            r.shed_nacked + r.shed_dropped > 0 && r.nacks_coalesced > 0,
            format!(
                "shed_nacked {} shed_dropped {} nacks_coalesced {}",
                r.shed_nacked, r.shed_dropped, r.nacks_coalesced
            ),
        );
    }
    ledger
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

const LAYER_NAMES: &[(&str, SocketLayer)] = &[
    ("auto", SocketLayer::Auto),
    ("mmsg", SocketLayer::Mmsg),
    ("fallback", SocketLayer::Fallback),
];

/// The live relay under a fault plan, crash, wedge and overload.
#[derive(Debug, Clone, PartialEq)]
pub struct Soak;

impl Family for Soak {
    const TAG: Option<&'static str> = Some("soak");
    const SERIAL: bool = true;
    type Scenario = SoakScenario;
    type Outcome = SoakOutcome;

    /// Two to three seconds of the recipe's shape, each fault kind on or
    /// off per direction at rates that engage within the run (a relay
    /// shard makes only some hundreds of socket calls a second), each
    /// direction's blackout in its own part of the run before the chaos,
    /// so both see traffic, and the crash, wedge and shed ladder each on
    /// or off.
    fn generate(fuzz_seed: u64) -> SoakScenario {
        let mut rng = SplitMix64::new(derive_seed(fuzz_seed, 0x50A4));
        let coin = |rng: &mut SplitMix64| rng.next_bounded(2) == 0;
        let layer = if coin(&mut rng) {
            SocketLayer::Auto
        } else {
            SocketLayer::Fallback
        };
        let shards = 1 + rng.next_bounded(2) as usize;
        let rate_pps = 20_000 + 1_000 * rng.next_bounded(21);
        let duration_ms = 2_000 + 100 * rng.next_bounded(11);
        let at =
            |percent: u64| SimTime::ZERO + SimDuration::from_millis(duration_ms * percent / 100);
        let mut faults = FaultPlan::new();
        for (port, opens) in [(INBOUND, 10), (OUTBOUND, 25)] {
            let p = |rng: &mut SplitMix64, lo: f64, hi: f64| {
                if coin(rng) {
                    lo + (hi - lo) * rng.next_f64()
                } else {
                    0.0
                }
            };
            let imp = PortImpairment {
                loss: p(&mut rng, 0.002, 0.02),
                corrupt: p(&mut rng, 0.002, 0.01),
                duplicate: p(&mut rng, 0.002, 0.01),
                delay: p(&mut rng, 0.002, 0.02),
                delay_max: SimDuration::from_millis(1 + rng.next_bounded(20)),
                ..PortImpairment::none(port)
            };
            if imp.loss + imp.corrupt + imp.duplicate + imp.delay > 0.0 {
                faults.impairments.push(imp);
            }
            if coin(&mut rng) {
                let down = opens + rng.next_bounded(10);
                faults =
                    faults.link_down_window(port, at(down), at(down + 3 + rng.next_bounded(4)));
            }
            if coin(&mut rng) {
                faults.syscall_errors.push(SyscallErrors {
                    port,
                    again: p(&mut rng, 0.005, 0.02),
                    nobufs: 0.005 + 0.015 * rng.next_f64(),
                });
            }
        }
        let crash_at_ms =
            (rng.next_bounded(4) != 0).then(|| duration_ms * (40 + rng.next_bounded(15)) / 100);
        let wedge_at_ms = coin(&mut rng).then(|| duration_ms * (55 + rng.next_bounded(10)) / 100);
        // The ladder coalesces a flow's second NACK in one batch; fewer,
        // busier flows and a budget well under the offered load make
        // that happen within the run.
        let per_shard = rate_pps / shards as u64;
        let overload_pps = coin(&mut rng).then(|| per_shard * (3 + rng.next_bounded(3)) / 10);
        let flows_per_thread = match overload_pps {
            Some(_) => 32,
            None => [32, 64][rng.next_bounded(2) as usize],
        };
        let sc = SoakScenario {
            fault_seed: derive_seed(fuzz_seed, 0xFA17),
            faults,
            layer,
            shards,
            threads: 2,
            flows_per_thread,
            rate_pps,
            trim: 0.1 + 0.15 * rng.next_f64(),
            payload: [64, 256, 1024][rng.next_bounded(3) as usize],
            duration_ms,
            crash_at_ms,
            wedge_at_ms,
            overload_pps: overload_pps.unwrap_or(0),
        };
        debug_assert_eq!(sc.validate(), Ok(()), "generated soak must validate");
        sc
    }

    fn run(sc: &SoakScenario) -> SoakOutcome {
        run_soak(sc)
    }

    fn failure_kind(outcome: &SoakOutcome) -> Option<String> {
        outcome.failed.first().map(|name| name.to_string())
    }

    /// Faults first (an impairment, then each of its draws; a blackout;
    /// a syscall-error entry), then the crash, the wedge and the shed
    /// ladder, then a run half as long with every time in it halved.
    fn candidates(sc: &SoakScenario) -> Vec<SoakScenario> {
        let mut out = Vec::new();
        let mut push = |f: &dyn Fn(&mut SoakScenario)| {
            let mut c = sc.clone();
            f(&mut c);
            out.push(c);
        };
        for (i, imp) in sc.faults.impairments.iter().enumerate() {
            push(&|c: &mut SoakScenario| {
                c.faults.impairments.remove(i);
            });
            if imp.loss > 0.0 {
                push(&|c: &mut SoakScenario| c.faults.impairments[i].loss = 0.0);
            }
            if imp.corrupt > 0.0 {
                push(&|c: &mut SoakScenario| c.faults.impairments[i].corrupt = 0.0);
            }
            if imp.duplicate > 0.0 {
                push(&|c: &mut SoakScenario| c.faults.impairments[i].duplicate = 0.0);
            }
            if imp.delay > 0.0 {
                push(&|c: &mut SoakScenario| {
                    let imp = &mut c.faults.impairments[i];
                    (imp.delay, imp.delay_max) = (0.0, SimDuration::ZERO);
                });
            }
        }
        for i in 0..sc.faults.link_windows.len() {
            push(&|c: &mut SoakScenario| {
                c.faults.link_windows.remove(i);
            });
        }
        for i in 0..sc.faults.syscall_errors.len() {
            push(&|c: &mut SoakScenario| {
                c.faults.syscall_errors.remove(i);
            });
        }
        if sc.crash_at_ms.is_some() {
            push(&|c: &mut SoakScenario| c.crash_at_ms = None);
        }
        if sc.wedge_at_ms.is_some() {
            push(&|c: &mut SoakScenario| c.wedge_at_ms = None);
        }
        if sc.overload_pps > 0 {
            push(&|c: &mut SoakScenario| c.overload_pps = 0);
        }
        if sc.duration_ms >= 1_000 {
            push(&|c: &mut SoakScenario| {
                c.duration_ms /= 2;
                c.crash_at_ms = c.crash_at_ms.map(|at| at / 2);
                c.wedge_at_ms = c.wedge_at_ms.map(|at| at / 2);
                for w in &mut c.faults.link_windows {
                    w.down_at = SimTime(w.down_at.0 / 2);
                    w.up_at = w.up_at.map(|up| SimTime(up.0 / 2));
                }
            });
        }
        out
    }

    fn describe(sc: &SoakScenario) -> String {
        let (f, layer) = (&sc.faults, sc.layer.name());
        let faults = [
            f.impairments.len(),
            f.link_windows.len(),
            f.syscall_errors.len(),
        ];
        format!(
            "{} ms on {layer}, {} shard(s), {} pps; faults (impairments, windows, errors) \
             {faults:?}, crash {:?} ms, wedge {:?} ms, overload {} pps",
            sc.duration_ms, sc.shards, sc.rate_pps, sc.crash_at_ms, sc.wedge_at_ms, sc.overload_pps
        )
    }

    fn details(outcome: &SoakOutcome) -> Vec<String> {
        outcome.ledger.clone()
    }

    fn to_value(sc: &SoakScenario) -> Json {
        let ms = |t: Option<u64>| t.map_or(Json::Null, Json::u64);
        let layer = LAYER_NAMES.iter().find(|(_, l)| *l == sc.layer);
        Json::obj(vec![
            ("fault_seed", Json::u64(sc.fault_seed)),
            ("layer", Json::str(layer.expect("every layer has a name").0)),
            ("shards", Json::u64(sc.shards as u64)),
            ("threads", Json::u64(sc.threads as u64)),
            ("flows_per_thread", Json::u64(sc.flows_per_thread as u64)),
            ("rate_pps", Json::u64(sc.rate_pps)),
            ("trim", Json::f64(sc.trim)),
            ("payload", Json::u64(sc.payload as u64)),
            ("duration_ms", Json::u64(sc.duration_ms)),
            ("crash_at_ms", ms(sc.crash_at_ms)),
            ("wedge_at_ms", ms(sc.wedge_at_ms)),
            ("overload_pps", Json::u64(sc.overload_pps)),
            ("faults", Json::obj(plan_fields(&sc.faults))),
        ])
    }

    fn from_value(v: &Json) -> Result<SoakScenario, String> {
        let ms = |key| match v.get(key) {
            Some(Json::Null) | None => Ok(None),
            Some(t) => t.u64_value().map(Some),
        };
        let sc = SoakScenario {
            fault_seed: v.get_u64("fault_seed")?,
            faults: plan_from_value(v.get("faults").ok_or("missing faults")?)?,
            layer: crate::fuzz::from_name(LAYER_NAMES, "socket layer", v.get_str("layer")?)?,
            shards: v.get_u64("shards")? as usize,
            threads: v.get_u64("threads")? as usize,
            flows_per_thread: v.get_u64("flows_per_thread")? as usize,
            rate_pps: v.get_u64("rate_pps")?,
            trim: v.get_f64("trim")?,
            payload: v.get_u64("payload")? as usize,
            duration_ms: v.get_u64("duration_ms")?,
            crash_at_ms: ms("crash_at_ms")?,
            wedge_at_ms: ms("wedge_at_ms")?,
            overload_pps: v.get_u64("overload_pps")?,
        };
        sc.validate()?;
        Ok(sc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::ReproFile;

    /// The committed 20 s soak recipe.
    fn recipe() -> SoakScenario {
        let text = include_str!("../soak-recipes/recipe-fallback.json");
        ReproFile::<Soak>::from_json(text)
            .expect("the recipe parses")
            .scenario
    }

    #[test]
    fn generation_is_deterministic_and_valid() {
        assert_eq!(Soak::generate(7), Soak::generate(7));
        assert_ne!(Soak::generate(7), Soak::generate(8));
        for seed in 0..200 {
            assert_eq!(Soak::generate(seed).validate(), Ok(()), "seed {seed}");
        }
    }

    #[test]
    fn scenario_json_round_trips() {
        let scenarios = (1..=5).map(Soak::generate);
        for sc in scenarios.chain([recipe()]) {
            let json = Soak::to_value(&sc).render();
            let back = Soak::from_value(&Json::parse(&json).unwrap()).expect("parse back");
            assert_eq!(sc, back, "{json}");
        }
        let repro = ReproFile::<Soak> {
            found_with_seed: 3,
            expect: "egress_accounted".to_string(),
            note: String::new(),
            scenario: Soak::generate(3),
        };
        let json = repro.to_json();
        assert!(json.contains("\"type\": \"soak\""), "{json}");
        assert_eq!(ReproFile::from_json(&json), Ok(repro));
    }

    /// Shrinking sheds every fault before it touches the crash, the wedge,
    /// the shed ladder or the length of the run, and every step it can
    /// take is a scenario that runs as written.
    #[test]
    fn candidates_drop_faults_first_and_stay_valid() {
        let full = recipe();
        let keeps_chaos = |c: &SoakScenario| {
            (c.crash_at_ms, c.wedge_at_ms, c.overload_pps, c.duration_ms)
                == (
                    full.crash_at_ms,
                    full.wedge_at_ms,
                    full.overload_pps,
                    full.duration_ms,
                )
        };
        let mut sc = full.clone();
        while !sc.faults.is_empty() {
            let candidates = Soak::candidates(&sc);
            assert!(candidates.iter().all(|c| c.validate().is_ok()));
            let first = candidates[0].clone();
            assert!(keeps_chaos(&first), "{first:?}");
            assert_ne!(first.faults, sc.faults);
            sc = first;
        }
        let candidates = Soak::candidates(&sc);
        assert!(candidates.iter().all(|c| c.validate().is_ok()));
        assert_eq!(candidates.len(), 4, "crash, wedge, overload, length");
        assert_eq!(candidates[0].crash_at_ms, None);
        assert_eq!(candidates[1].wedge_at_ms, None);
        assert_eq!(candidates[2].overload_pps, 0);
        assert_eq!(candidates[3].duration_ms, 10_000);
        // Every single step off the full recipe, in order: all fault
        // removals come before the first step that changes anything else
        // (halving the run halves its windows, but keeps each one).
        let steps = Soak::candidates(&full);
        let keeps_faults = |c: &SoakScenario| {
            let (f, g) = (&c.faults, &full.faults);
            (&f.impairments, &f.syscall_errors, f.link_windows.len())
                == (&g.impairments, &g.syscall_errors, g.link_windows.len())
        };
        let first_other = steps.iter().position(keeps_faults).unwrap();
        assert!(steps[..first_other].iter().all(keeps_chaos));
        assert!(steps[first_other..].iter().all(keeps_faults));
        assert!(steps.iter().all(|c| c.validate().is_ok()));
    }

    #[test]
    fn an_invalid_scenario_is_refused_on_read() {
        let mut sc = recipe();
        sc.crash_at_ms = Some(sc.duration_ms);
        let err = Soak::from_value(&Soak::to_value(&sc)).unwrap_err();
        assert!(err.contains("after the run ends"), "{err}");
    }
}
