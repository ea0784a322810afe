//! Chaos scenario fuzzer for the incast experiment surface.
//!
//! Generates seeded random scenarios — topology size, incast workload,
//! scheme, transport, and a [`FaultPlan`] that passes `validate()` — and
//! runs each with the collect-mode invariant auditor
//! ([`dcsim::audit::AuditConfig`]). A scenario *fails* when the run
//! panics, trips an invariant, or hits the event cap. Failures are
//! delta-debugged ([`shrink`]) to a minimal scenario that still fails the
//! same way, and written out as a self-contained JSON repro file that
//! `fuzz --replay <file>` re-executes deterministically (twice, comparing
//! the two runs, so every replay doubles as a determinism check).
//!
//! Everything here is deterministic: the only randomness is
//! [`SplitMix64`] streams derived from the fuzz seed, and the campaign is
//! bounded by scenario count, never wall-clock time.
//!
//! Repro files are hand-rolled JSON, emitted *and* parsed by the
//! [`mini_json`] module — the workspace's one JSON implementation.

use dcsim::prelude::*;
use incast_core::experiment::TrimPolicy;
use incast_core::scheme::{IncastHandle, Transport};
use incast_core::{ExperimentConfig, Scheme};
use std::panic::{catch_unwind, AssertUnwindSafe};
use trace::{derive_seed, SplitMix64};

/// Audit cadence for fuzz runs (events between mid-run invariant sweeps).
pub const AUDIT_EVERY: u64 = 50_000;
/// Liveness watchdog horizon. Far above the 2 s RTO ceiling, so a flow is
/// only flagged when nothing at all is retrying it.
pub const LIVENESS_HORIZON_SECS: u64 = 8;
/// Event cap per scenario. Small topologies and ≤ 3 MB incasts finish in
/// well under a million events; 20 M means "livelock".
pub const EVENT_CAP: u64 = 20_000_000;
/// Simulated-time budget per scenario.
pub const DEFAULT_TIME_LIMIT_MS: u64 = 30_000;
/// Default per-finding budget of extra runs spent shrinking.
pub const DEFAULT_SHRINK_BUDGET: usize = 200;

// ---------------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------------

/// One self-contained fuzz scenario: everything needed to rebuild and
/// re-run a simulation bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Simulator seed (drives spraying, jitter, impairment draws, ...).
    pub sim_seed: u64,
    pub scheme: Scheme,
    pub transport: Transport,
    pub trim: TrimPolicy,
    /// Incast senders.
    pub degree: usize,
    /// Total incast bytes, split across senders.
    pub total_bytes: u64,
    /// WAN one-way latency in microseconds.
    pub wan_us: u64,
    pub spines_per_dc: usize,
    pub leaves_per_dc: usize,
    pub hosts_per_leaf: usize,
    /// Background flows sharing the fabric (0 = none).
    pub background_flows: usize,
    pub early_nack: bool,
    /// Sender-side proxy failover enabled (default config).
    pub failover: bool,
    /// Arm the stuck-flow watchdog. Only sound when every fault heals
    /// (permanent outages legitimately strand flows).
    pub liveness: bool,
    /// Run under the hybrid-fidelity engine (uncontended hops advanced
    /// analytically). Absent from older repro files, defaulting to false,
    /// so committed repros keep replaying bit-identically.
    pub fidelity: bool,
    /// Simulated-time budget counted from the incast start.
    pub time_limit_ms: u64,
    pub faults: FaultPlan,
}

impl Scenario {
    /// Hosts per datacenter implied by the topology knobs.
    pub fn hosts_per_dc(&self) -> usize {
        self.leaves_per_dc * self.hosts_per_leaf
    }
}

/// The experiment a scenario describes: the shared config→simulator path
/// ([`ExperimentConfig::build`]) runs it under the collect-mode auditor.
/// The fault plan stays with the scenario — it names raw ports and agents,
/// which exist only once the simulator is built.
impl From<&Scenario> for ExperimentConfig {
    fn from(sc: &Scenario) -> Self {
        let mut audit = AuditConfig::collect().every(Some(AUDIT_EVERY));
        if sc.liveness {
            audit = audit.with_liveness(SimDuration::from_secs(LIVENESS_HORIZON_SECS));
        }
        ExperimentConfig {
            topo: TwoDcParams {
                spines_per_dc: sc.spines_per_dc,
                leaves_per_dc: sc.leaves_per_dc,
                hosts_per_leaf: sc.hosts_per_leaf,
                ..TwoDcParams::small_test()
            }
            .with_wan_latency(SimDuration::from_micros(sc.wan_us)),
            scheme: sc.scheme,
            degree: sc.degree,
            total_bytes: sc.total_bytes,
            transport: sc.transport,
            trim: sc.trim,
            early_nack: sc.early_nack,
            failover: sc.failover.then(FailoverConfig::default),
            background_flows: sc.background_flows,
            fidelity: sc.fidelity,
            time_limit: SimDuration::from_millis(sc.time_limit_ms),
            audit: Some(audit),
            ..Default::default()
        }
    }
}

/// True when every fault in the plan heals (links come back up, crashed
/// agents restore) — the precondition for arming the liveness watchdog.
pub fn plan_heals(plan: &FaultPlan) -> bool {
    plan.link_windows.iter().all(|w| w.up_at.is_some())
        && plan.crashes.iter().all(|c| c.restore_at.is_some())
}

// ---------------------------------------------------------------------------
// Building and running one scenario
// ---------------------------------------------------------------------------

/// Builds the simulator for a scenario. Returns `Err` (not a panic) for
/// scenarios that are structurally impossible — shrinking uses this to
/// reject candidates that mutated themselves out of validity.
pub fn build(sc: &Scenario) -> Result<(Simulator, IncastHandle), String> {
    if sc.degree == 0 || sc.total_bytes == 0 {
        return Err("degenerate incast (degree or bytes = 0)".into());
    }
    if sc.degree + 1 > sc.hosts_per_dc() {
        return Err(format!(
            "degree {} + proxy needs more than {} hosts per DC",
            sc.degree,
            sc.hosts_per_dc()
        ));
    }
    let (mut sim, _, handle) = ExperimentConfig::from(sc).build(sc.sim_seed);
    sim.set_event_cap(EVENT_CAP);
    sim.install_faults(&sc.faults)
        .map_err(|e| format!("fault plan rejected: {e}"))?;
    Ok((sim, handle))
}

/// Everything observable about one scenario run, comparable across runs
/// for the determinism check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// `"idle"`, `"time-limit"`, `"event-cap"`, or `"setup-error"`.
    pub stop: String,
    pub events: u64,
    pub end_time_ps: u64,
    /// All watched incast flows completed.
    pub completed: bool,
    /// Invariant-violation kind names, in detection order.
    pub violations: Vec<String>,
    /// Human-readable violation details (or the setup error).
    pub details: Vec<String>,
    /// Panic message, if the run panicked.
    pub panic: Option<String>,
}

fn stop_name(stop: StopReason) -> &'static str {
    match stop {
        StopReason::Idle => "idle",
        StopReason::TimeLimit => "time-limit",
        StopReason::EventCap => "event-cap",
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one scenario under the collect-mode auditor, catching panics.
pub fn run_scenario(sc: &Scenario) -> RunOutcome {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let (mut sim, handle) = build(sc)?;
        let limit = handle.start + SimDuration::from_millis(sc.time_limit_ms);
        let report = sim.run(Some(limit));
        let completed = handle.completion(sim.metrics()).is_some();
        Ok::<_, String>((report, completed))
    }));
    match result {
        Ok(Ok((report, completed))) => RunOutcome {
            stop: stop_name(report.stop).to_string(),
            events: report.events,
            end_time_ps: report.end_time.0,
            completed,
            violations: report
                .violations
                .iter()
                .map(|v| v.kind().to_string())
                .collect(),
            details: report.violations.iter().map(|v| v.to_string()).collect(),
            panic: None,
        },
        Ok(Err(setup)) => RunOutcome {
            stop: "setup-error".to_string(),
            events: 0,
            end_time_ps: 0,
            completed: false,
            violations: Vec::new(),
            details: vec![setup],
            panic: None,
        },
        Err(payload) => RunOutcome {
            stop: "panic".to_string(),
            events: 0,
            end_time_ps: 0,
            completed: false,
            violations: Vec::new(),
            details: Vec::new(),
            panic: Some(panic_message(payload)),
        },
    }
}

/// Classifies an outcome. `None` = the scenario passed. A time-limit stop
/// with incomplete flows is *not* a failure by itself: permanent faults
/// legitimately strand flows, and the liveness watchdog (armed exactly
/// when every fault heals) is the stall detector.
pub fn failure_kind(outcome: &RunOutcome) -> Option<String> {
    if outcome.panic.is_some() {
        return Some("Panic".to_string());
    }
    if let Some(kind) = outcome.violations.first() {
        return Some(kind.clone());
    }
    if outcome.stop == "event-cap" {
        return Some("EventCap".to_string());
    }
    None
}

/// Runs the scenario twice and checks the outcomes are identical — the
/// replay determinism guarantee.
pub fn check_replay(sc: &Scenario) -> (RunOutcome, bool) {
    let a = run_scenario(sc);
    let b = run_scenario(sc);
    let same = a == b;
    (a, same)
}

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

/// Generates the scenario for a fuzz seed. Pure function of the seed.
pub fn generate(fuzz_seed: u64) -> Scenario {
    let mut rng = SplitMix64::new(derive_seed(fuzz_seed, 0xF022));
    let spines_per_dc = 1 + rng.next_bounded(2) as usize;
    let leaves_per_dc = 1 + rng.next_bounded(3) as usize;
    let hosts_per_leaf = 2 + rng.next_bounded(3) as usize;
    let hosts_per_dc = leaves_per_dc * hosts_per_leaf;
    let degree = 1 + rng.next_bounded((hosts_per_dc as u64 - 1).min(6)) as usize;
    let scheme = match rng.next_bounded(5) {
        0 => Scheme::Baseline,
        1 => Scheme::ProxyNaive,
        2 | 3 => Scheme::ProxyStreamlined,
        _ => Scheme::ProxyDetecting,
    };
    let transport = if rng.next_bounded(4) == 0 {
        Transport::RateBased
    } else {
        Transport::WindowedDctcp
    };
    let trim = match rng.next_bounded(4) {
        0 | 1 => TrimPolicy::SchemeDefault,
        2 => TrimPolicy::ForceOn,
        _ => TrimPolicy::ForceOff,
    };
    let mut sc = Scenario {
        sim_seed: derive_seed(fuzz_seed, 0x51ED),
        scheme,
        transport,
        trim,
        degree,
        total_bytes: 100_000 + rng.next_bounded(2_900_000),
        wan_us: 50 + rng.next_bounded(1_000),
        spines_per_dc,
        leaves_per_dc,
        hosts_per_leaf,
        background_flows: rng.next_bounded(4) as usize,
        early_nack: rng.next_bounded(8) != 0,
        failover: rng.next_bounded(2) == 0,
        liveness: false,
        fidelity: false,
        time_limit_ms: DEFAULT_TIME_LIMIT_MS,
        faults: FaultPlan::new(),
    };
    // Half the campaign exercises the hybrid-fidelity engine, so the
    // auditor's ledger checks cover express-advanced packets too.
    sc.fidelity = rng.next_bounded(2) == 1;
    // Build once (faultless) to learn how many ports and agents exist,
    // then roll a validate()-clean fault plan against those bounds.
    let (sim, _) = build(&sc).expect("faultless generated scenario must build");
    let ports = sim.topology().port_count() as u64;
    let agents = sim.agent_count() as u64;
    drop(sim);

    let mut plan = FaultPlan::new();
    // Link windows on distinct ports (distinctness sidesteps the overlap
    // rule by construction).
    let mut used_ports: Vec<u64> = Vec::new();
    for _ in 0..rng.next_bounded(3) {
        let port = loop {
            let p = rng.next_bounded(ports);
            if !used_ports.contains(&p) {
                break p;
            }
        };
        used_ports.push(port);
        let down_at = SimTime::ZERO + SimDuration::from_nanos(rng.next_bounded(3_000_000));
        if rng.next_bounded(4) == 0 {
            plan = plan.link_down(PortId(port as u32), down_at);
        } else {
            let dur = SimDuration::from_nanos(50_000 + rng.next_bounded(750_000));
            plan = plan.link_down_window(PortId(port as u32), down_at, down_at + dur);
        }
    }
    // Impairments: small loss/corruption rates, any port.
    for _ in 0..rng.next_bounded(3) {
        plan.impairments.push(PortImpairment {
            port: PortId(rng.next_bounded(ports) as u32),
            loss: rng.next_f64() * 0.15,
            corrupt: rng.next_f64() * 0.10,
        });
    }
    // Agent crashes on distinct agents.
    let mut used_agents: Vec<u64> = Vec::new();
    for _ in 0..rng.next_bounded(3) {
        let agent = loop {
            let a = rng.next_bounded(agents);
            if !used_agents.contains(&a) {
                break a;
            }
        };
        used_agents.push(agent);
        let at = SimTime::ZERO + SimDuration::from_nanos(rng.next_bounded(3_000_000));
        if rng.next_bounded(4) == 0 {
            plan = plan.crash_agent(AgentId(agent as u32), at);
        } else {
            let dur = SimDuration::from_nanos(100_000 + rng.next_bounded(4_900_000));
            plan = plan.crash_agent_window(AgentId(agent as u32), at, at + dur);
        }
    }
    debug_assert!(plan.validate().is_ok(), "generated plan must validate");
    sc.liveness = plan_heals(&plan);
    sc.faults = plan;
    sc
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

/// One-step simplifications of a scenario, most aggressive first.
fn candidates(sc: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    let mut push = |f: &dyn Fn(&mut Scenario)| {
        let mut c = sc.clone();
        f(&mut c);
        out.push(c);
    };
    for i in 0..sc.faults.crashes.len() {
        push(&|c: &mut Scenario| {
            c.faults.crashes.remove(i);
        });
    }
    for i in 0..sc.faults.link_windows.len() {
        push(&|c: &mut Scenario| {
            c.faults.link_windows.remove(i);
        });
    }
    for i in 0..sc.faults.impairments.len() {
        push(&|c: &mut Scenario| {
            c.faults.impairments.remove(i);
        });
    }
    if sc.fidelity {
        // Dropping fidelity first tells us whether the hybrid engine
        // itself (vs. the underlying scenario) caused the failure.
        push(&|c: &mut Scenario| c.fidelity = false);
    }
    if sc.background_flows > 0 {
        push(&|c: &mut Scenario| c.background_flows = 0);
    }
    if sc.failover {
        push(&|c: &mut Scenario| c.failover = false);
    }
    if sc.total_bytes > 100_000 {
        push(&|c: &mut Scenario| c.total_bytes = (c.total_bytes / 2).max(100_000));
    }
    if sc.degree > 1 {
        push(&|c: &mut Scenario| c.degree /= 2);
    }
    if sc.spines_per_dc > 1 {
        push(&|c: &mut Scenario| c.spines_per_dc -= 1);
    }
    if sc.leaves_per_dc > 1 {
        push(&|c: &mut Scenario| c.leaves_per_dc -= 1);
    }
    if sc.hosts_per_leaf > 2 {
        push(&|c: &mut Scenario| c.hosts_per_leaf -= 1);
    }
    out
}

/// Greedy delta-debugging: repeatedly applies the first simplification
/// that still fails with the same kind, until none does or the run budget
/// is spent. Returns the shrunk scenario and how many runs were used.
///
/// Shrinking topology knobs renumbers ports/agents; candidates whose
/// fault plan no longer fits are rejected naturally (setup-error is never
/// a failure kind).
pub fn shrink(sc: &Scenario, kind: &str, budget: usize) -> (Scenario, usize) {
    let mut current = sc.clone();
    let mut runs = 0;
    'outer: loop {
        for cand in candidates(&current) {
            if runs >= budget {
                break 'outer;
            }
            runs += 1;
            if failure_kind(&run_scenario(&cand)).as_deref() == Some(kind) {
                current = cand;
                continue 'outer;
            }
        }
        break;
    }
    (current, runs)
}

// ---------------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------------

/// One failing scenario found by a campaign, after shrinking.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Fuzz seed that produced it.
    pub seed: u64,
    /// Failure classification ([`failure_kind`]).
    pub kind: String,
    /// The scenario as generated.
    pub original: Scenario,
    /// The shrunk scenario (still fails with `kind`).
    pub shrunk: Scenario,
    /// Outcome of the shrunk scenario.
    pub outcome: RunOutcome,
    /// Runs spent shrinking.
    pub shrink_runs: usize,
}

/// Runs `count` seeded scenarios in parallel, then shrinks each failure
/// serially. Fully deterministic for a given `(start_seed, count)`.
pub fn run_campaign(
    start_seed: u64,
    count: u64,
    jobs: usize,
    shrink_budget: usize,
) -> Vec<Finding> {
    let seeds: Vec<u64> = (start_seed..start_seed + count).collect();
    let results = crate::SweepRunner::new(jobs).run(&seeds, |&seed| {
        let sc = generate(seed);
        let outcome = run_scenario(&sc);
        (seed, sc, outcome)
    });
    let mut findings = Vec::new();
    for (seed, sc, outcome) in results {
        if let Some(kind) = failure_kind(&outcome) {
            let (shrunk, shrink_runs) = shrink(&sc, &kind, shrink_budget);
            let outcome = run_scenario(&shrunk);
            findings.push(Finding {
                seed,
                kind,
                original: sc,
                shrunk,
                outcome,
                shrink_runs,
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Repro files (hand-rolled JSON, see module docs)
// ---------------------------------------------------------------------------

/// A committed repro: the scenario plus what a replay is expected to see.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproFile {
    /// Fuzz seed the finding came from (provenance only).
    pub found_with_seed: u64,
    /// `"clean"` (bug since fixed — replay must pass) or a failure kind
    /// (known issue — replay must still fail that way).
    pub expect: String,
    /// Free-text description of the bug / issue.
    pub note: String,
    pub scenario: Scenario,
}

impl ReproFile {
    /// Checks a replay outcome against `expect`.
    pub fn matches(&self, outcome: &RunOutcome) -> bool {
        match failure_kind(outcome) {
            None => self.expect == "clean",
            Some(kind) => self.expect == kind,
        }
    }
}

/// How repro files (and `figures adhoc`) spell the enum-valued fields.
pub(crate) const SCHEME_NAMES: &[(&str, Scheme)] = &[
    ("baseline", Scheme::Baseline),
    ("naive", Scheme::ProxyNaive),
    ("streamlined", Scheme::ProxyStreamlined),
    ("detecting", Scheme::ProxyDetecting),
];
const TRANSPORT_NAMES: &[(&str, Transport)] = &[
    ("windowed", Transport::WindowedDctcp),
    ("rate", Transport::RateBased),
];
pub(crate) const TRIM_NAMES: &[(&str, TrimPolicy)] = &[
    ("default", TrimPolicy::SchemeDefault),
    ("on", TrimPolicy::ForceOn),
    ("off", TrimPolicy::ForceOff),
];

fn name_of<T: PartialEq>(names: &[(&'static str, T)], value: T) -> &'static str {
    let named = names.iter().find(|(_, v)| *v == value);
    named.expect("every variant has a name").0
}

/// The value `name` spells in `names`; `what` words the error.
pub(crate) fn from_name<T: Copy>(names: &[(&str, T)], what: &str, name: &str) -> Result<T, String> {
    let named = names.iter().find(|(n, _)| *n == name);
    named
        .map(|&(_, value)| value)
        .ok_or_else(|| format!("unknown {what} {name:?}"))
}

use mini_json::Json;

impl Scenario {
    fn to_value(&self) -> Json {
        let windows = self
            .faults
            .link_windows
            .iter()
            .map(|w| {
                Json::obj(vec![
                    ("port", Json::u64(w.port.index() as u64)),
                    ("down_at_ps", Json::u64(w.down_at.0)),
                    ("up_at_ps", w.up_at.map_or(Json::Null, |t| Json::u64(t.0))),
                ])
            })
            .collect();
        let impairments = self
            .faults
            .impairments
            .iter()
            .map(|i| {
                Json::obj(vec![
                    ("port", Json::u64(i.port.index() as u64)),
                    ("loss", Json::f64(i.loss)),
                    ("corrupt", Json::f64(i.corrupt)),
                ])
            })
            .collect();
        let crashes = self
            .faults
            .crashes
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("agent", Json::u64(c.agent.index() as u64)),
                    ("at_ps", Json::u64(c.at.0)),
                    (
                        "restore_at_ps",
                        c.restore_at.map_or(Json::Null, |t| Json::u64(t.0)),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("sim_seed", Json::u64(self.sim_seed)),
            ("scheme", Json::str(name_of(SCHEME_NAMES, self.scheme))),
            (
                "transport",
                Json::str(name_of(TRANSPORT_NAMES, self.transport)),
            ),
            ("trim", Json::str(name_of(TRIM_NAMES, self.trim))),
            ("degree", Json::u64(self.degree as u64)),
            ("total_bytes", Json::u64(self.total_bytes)),
            ("wan_us", Json::u64(self.wan_us)),
            ("spines_per_dc", Json::u64(self.spines_per_dc as u64)),
            ("leaves_per_dc", Json::u64(self.leaves_per_dc as u64)),
            ("hosts_per_leaf", Json::u64(self.hosts_per_leaf as u64)),
            ("background_flows", Json::u64(self.background_flows as u64)),
            ("early_nack", Json::Bool(self.early_nack)),
            ("failover", Json::Bool(self.failover)),
            ("liveness", Json::Bool(self.liveness)),
            ("fidelity", Json::Bool(self.fidelity)),
            ("time_limit_ms", Json::u64(self.time_limit_ms)),
            (
                "faults",
                Json::obj(vec![
                    ("link_windows", Json::Arr(windows)),
                    ("impairments", Json::Arr(impairments)),
                    ("crashes", Json::Arr(crashes)),
                ]),
            ),
        ])
    }

    fn from_value(v: &Json) -> Result<Scenario, String> {
        let faults_v = v.get("faults").ok_or("missing faults")?;
        let mut faults = FaultPlan::new();
        for w in faults_v
            .get("link_windows")
            .ok_or("missing link_windows")?
            .arr()?
        {
            let port = PortId(w.get_u64("port")? as u32);
            let down_at = SimTime(w.get_u64("down_at_ps")?);
            match w.get("up_at_ps") {
                Some(Json::Null) | None => faults = faults.link_down(port, down_at),
                Some(up) => {
                    faults = faults.link_down_window(port, down_at, SimTime(up.u64_value()?))
                }
            }
        }
        for i in faults_v
            .get("impairments")
            .ok_or("missing impairments")?
            .arr()?
        {
            faults.impairments.push(PortImpairment {
                port: PortId(i.get_u64("port")? as u32),
                loss: i.get_f64("loss")?,
                corrupt: i.get_f64("corrupt")?,
            });
        }
        for c in faults_v.get("crashes").ok_or("missing crashes")?.arr()? {
            let agent = AgentId(c.get_u64("agent")? as u32);
            let at = SimTime(c.get_u64("at_ps")?);
            match c.get("restore_at_ps") {
                Some(Json::Null) | None => faults = faults.crash_agent(agent, at),
                Some(r) => faults = faults.crash_agent_window(agent, at, SimTime(r.u64_value()?)),
            }
        }
        Ok(Scenario {
            sim_seed: v.get_u64("sim_seed")?,
            scheme: from_name(SCHEME_NAMES, "scheme", v.get_str("scheme")?)?,
            transport: from_name(TRANSPORT_NAMES, "transport", v.get_str("transport")?)?,
            trim: from_name(TRIM_NAMES, "trim policy", v.get_str("trim")?)?,
            degree: v.get_u64("degree")? as usize,
            total_bytes: v.get_u64("total_bytes")?,
            wan_us: v.get_u64("wan_us")?,
            spines_per_dc: v.get_u64("spines_per_dc")? as usize,
            leaves_per_dc: v.get_u64("leaves_per_dc")? as usize,
            hosts_per_leaf: v.get_u64("hosts_per_leaf")? as usize,
            background_flows: v.get_u64("background_flows")? as usize,
            early_nack: v.get_bool("early_nack")?,
            failover: v.get_bool("failover")?,
            liveness: v.get_bool("liveness")?,
            // Older repro files predate the hybrid-fidelity engine.
            fidelity: match v.get("fidelity") {
                Some(Json::Bool(b)) => *b,
                Some(other) => return Err(format!("fidelity: expected bool, got {other:?}")),
                None => false,
            },
            time_limit_ms: v.get_u64("time_limit_ms")?,
            faults,
        })
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_value().render()
    }

    /// Parses a scenario from JSON text.
    pub fn from_json(text: &str) -> Result<Scenario, String> {
        Scenario::from_value(&Json::parse(text)?)
    }
}

impl ReproFile {
    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        Json::obj(vec![
            ("found_with_seed", Json::u64(self.found_with_seed)),
            ("expect", Json::str(&self.expect)),
            ("note", Json::str(&self.note)),
            ("scenario", self.scenario.to_value()),
        ])
        .render()
    }

    /// Parses a repro file from JSON text.
    pub fn from_json(text: &str) -> Result<ReproFile, String> {
        let v = Json::parse(text)?;
        Ok(ReproFile {
            found_with_seed: v.get_u64("found_with_seed")?,
            expect: v.get_str("expect")?.to_string(),
            note: v.get_str("note")?.to_string(),
            scenario: Scenario::from_value(v.get("scenario").ok_or("missing scenario")?)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON (the workspace depends on no JSON crate)
// ---------------------------------------------------------------------------

/// Tiny JSON emitter + recursive-descent parser. Numbers keep their
/// source token so `u64` values round-trip exactly (no f64 detour).
pub mod mini_json {
    /// A parsed or to-be-emitted JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        /// Number as its literal token (exact round-trip).
        Num(String),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        pub fn u64(v: u64) -> Json {
            Json::Num(v.to_string())
        }
        pub fn f64(v: f64) -> Json {
            // JSON has no NaN / infinity token; like serde_json, emit null.
            if !v.is_finite() {
                return Json::Null;
            }
            // Rust's shortest-round-trip Display; force a decimal point so
            // the token reads back as the same f64 unambiguously.
            let s = format!("{v}");
            if s.contains('.') {
                Json::Num(s)
            } else {
                Json::Num(format!("{s}.0"))
            }
        }
        pub fn str(v: &str) -> Json {
            Json::Str(v.to_string())
        }
        pub fn obj(fields: Vec<(&str, Json)>) -> Json {
            Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        }

        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
        pub fn arr(&self) -> Result<&[Json], String> {
            match self {
                Json::Arr(items) => Ok(items),
                other => Err(format!("expected array, got {other:?}")),
            }
        }
        pub fn u64_value(&self) -> Result<u64, String> {
            match self {
                Json::Num(tok) => tok.parse().map_err(|e| format!("bad u64 {tok:?}: {e}")),
                other => Err(format!("expected number, got {other:?}")),
            }
        }
        pub fn f64_value(&self) -> Result<f64, String> {
            match self {
                Json::Num(tok) => tok.parse().map_err(|e| format!("bad f64 {tok:?}: {e}")),
                other => Err(format!("expected number, got {other:?}")),
            }
        }
        pub fn get_u64(&self, key: &str) -> Result<u64, String> {
            self.get(key).ok_or(format!("missing {key}"))?.u64_value()
        }
        pub fn get_f64(&self, key: &str) -> Result<f64, String> {
            self.get(key).ok_or(format!("missing {key}"))?.f64_value()
        }
        pub fn get_bool(&self, key: &str) -> Result<bool, String> {
            match self.get(key).ok_or(format!("missing {key}"))? {
                Json::Bool(b) => Ok(*b),
                other => Err(format!("{key}: expected bool, got {other:?}")),
            }
        }
        pub fn get_str(&self, key: &str) -> Result<&str, String> {
            match self.get(key).ok_or(format!("missing {key}"))? {
                Json::Str(s) => Ok(s),
                other => Err(format!("{key}: expected string, got {other:?}")),
            }
        }

        /// Pretty-prints with two-space indentation.
        pub fn render(&self) -> String {
            let mut out = String::new();
            self.render_into(&mut out, Some(0));
            out.push('\n');
            out
        }

        /// Renders on one line with no whitespace, as `serde_json::to_string`
        /// does (`tests/results_format.rs` holds the figures' rows to the
        /// bytes `serde_json` once wrote).
        pub fn render_line(&self) -> String {
            let mut out = String::new();
            self.render_into(&mut out, None);
            out
        }

        /// `depth` is the pretty-printer's nesting level; `None` renders
        /// compactly.
        fn render_into(&self, out: &mut String, depth: Option<usize>) {
            let inner = depth.map(|d| d + 1);
            match self {
                Json::Null => out.push_str("null"),
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::Num(tok) => out.push_str(tok),
                Json::Str(s) => render_string(s, out),
                Json::Arr(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        newline(out, inner);
                        item.render_into(out, inner);
                    }
                    if !items.is_empty() {
                        newline(out, depth);
                    }
                    out.push(']');
                }
                Json::Obj(fields) => {
                    out.push('{');
                    for (i, (k, v)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        newline(out, inner);
                        render_string(k, out);
                        out.push_str(if depth.is_some() { ": " } else { ":" });
                        v.render_into(out, inner);
                    }
                    if !fields.is_empty() {
                        newline(out, depth);
                    }
                    out.push('}');
                }
            }
        }

        /// Parses one JSON document (trailing whitespace allowed).
        pub fn parse(text: &str) -> Result<Json, String> {
            let bytes = text.as_bytes();
            let mut pos = 0;
            let value = parse_value(bytes, &mut pos)?;
            skip_ws(bytes, &mut pos);
            if pos != bytes.len() {
                return Err(format!("trailing garbage at byte {pos}"));
            }
            Ok(value)
        }
    }

    /// Line break plus indentation when pretty-printing; nothing otherwise.
    fn newline(out: &mut String, depth: Option<usize>) {
        if let Some(depth) = depth {
            out.push('\n');
            for _ in 0..depth {
                out.push_str("  ");
            }
        }
    }

    fn render_string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
        skip_ws(bytes, pos);
        let Some(&b) = bytes.get(*pos) else {
            return Err("unexpected end of input".to_string());
        };
        match b {
            b'n' => parse_keyword(bytes, pos, "null", Json::Null),
            b't' => parse_keyword(bytes, pos, "true", Json::Bool(true)),
            b'f' => parse_keyword(bytes, pos, "false", Json::Bool(false)),
            b'"' => Ok(Json::Str(parse_string(bytes, pos)?)),
            b'[' => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(parse_value(bytes, pos)?);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        other => return Err(format!("expected , or ] in array, got {other:?}")),
                    }
                }
            }
            b'{' => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    skip_ws(bytes, pos);
                    let key = parse_string(bytes, pos)?;
                    skip_ws(bytes, pos);
                    if bytes.get(*pos) != Some(&b':') {
                        return Err(format!("expected : after key {key:?}"));
                    }
                    *pos += 1;
                    fields.push((key, parse_value(bytes, pos)?));
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        other => return Err(format!("expected , or }} in object, got {other:?}")),
                    }
                }
            }
            b'-' | b'0'..=b'9' => {
                let start = *pos;
                while *pos < bytes.len()
                    && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    *pos += 1;
                }
                let tok = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| "invalid utf-8 in number".to_string())?;
                // Validate the token parses as a number at all.
                tok.parse::<f64>()
                    .map_err(|e| format!("bad number {tok:?}: {e}"))?;
                Ok(Json::Num(tok.to_string()))
            }
            other => Err(format!("unexpected byte {:?} at {pos:?}", other as char)),
        }
    }

    fn parse_keyword(
        bytes: &[u8],
        pos: &mut usize,
        word: &str,
        value: Json,
    ) -> Result<Json, String> {
        if bytes[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected {word:?} at byte {pos:?}"))
        }
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {pos:?}"));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            let Some(&b) = bytes.get(*pos) else {
                return Err("unterminated string".to_string());
            };
            *pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = bytes.get(*pos) else {
                        return Err("unterminated escape".to_string());
                    };
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = bytes
                                .get(*pos..*pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            *pos += 4;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|e| format!("bad \\u escape {hex:?}: {e}"))?;
                            out.push(
                                char::from_u32(code).ok_or("surrogate \\u escape unsupported")?,
                            );
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                _ => {
                    // Collect the full UTF-8 sequence starting at b.
                    let start = *pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let chunk = bytes
                        .get(start..end)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or("invalid utf-8 in string")?;
                    out.push_str(chunk);
                    *pos = end;
                }
            }
        }
    }

    fn utf8_len(first: u8) -> usize {
        match first {
            0x00..=0x7F => 1,
            0xC0..=0xDF => 2,
            0xE0..=0xEF => 3,
            _ => 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate(7), generate(7));
        assert_ne!(generate(7), generate(8));
    }

    #[test]
    fn scenario_json_round_trips() {
        for seed in [1, 2, 3, 4, 5] {
            let sc = generate(seed);
            let json = sc.to_json();
            let back = Scenario::from_json(&json).expect("parse back");
            assert_eq!(sc, back, "round-trip for seed {seed}\n{json}");
        }
    }

    #[test]
    fn repro_file_round_trips() {
        let repro = ReproFile {
            found_with_seed: 42,
            expect: "clean".to_string(),
            note: "weird \"quotes\" and\nnewlines — unicode too".to_string(),
            scenario: generate(42),
        };
        let json = repro.to_json();
        let back = ReproFile::from_json(&json).expect("parse back");
        assert_eq!(repro, back);
    }

    #[test]
    fn faultless_scenario_replays_deterministically() {
        let mut sc = generate(3);
        sc.faults = FaultPlan::new();
        sc.liveness = true;
        let (outcome, same) = check_replay(&sc);
        assert!(same, "replay diverged: {outcome:?}");
        assert!(outcome.panic.is_none(), "{outcome:?}");
    }

    #[test]
    fn non_finite_floats_round_trip_as_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let row = Json::obj(vec![
                ("crash_fraction", Json::f64(v)),
                ("ok", Json::f64(0.5)),
            ]);
            for text in [row.render(), row.render_line()] {
                let back = Json::parse(&text).expect("emitted JSON parses back");
                assert_eq!(back, row, "{text}");
                assert_eq!(back.get("crash_fraction"), Some(&Json::Null));
            }
        }
        assert_eq!(
            Json::obj(vec![("a", Json::f64(2.0)), ("b", Json::Arr(vec![]))]).render_line(),
            r#"{"a":2.0,"b":[]}"#
        );
    }

    #[test]
    fn mini_json_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("{} extra").is_err());
    }
}
