//! The fuzz engine, and the chaos family it was first written for.
//!
//! **Engine.** A fuzzer *family* ([`Family`]) says what a scenario is:
//! how a seed expands into one, how one runs, what counts as failing, how
//! one simplifies and how it reads and writes as JSON. Everything else
//! exists once, generic over the family: panic capture
//! ([`run_scenario`]), the twice-run determinism check
//! ([`check_replay`]), greedy delta-debugging to a minimal scenario that
//! still fails the same way ([`shrink`]), the parallel campaign
//! ([`run_campaign`]), and self-contained JSON repro files
//! ([`ReproFile`]) that `fuzz --replay <file>` re-executes twice through
//! [`replay`], dispatching on the file's `"type"` tag. Three families
//! exist: [`Chaos`] (untagged), [`crate::cpfuzz::ControlPlane`]
//! (`"control-plane"`) and [`crate::soak::Soak`] (`"soak"`). Their
//! scenarios all carry a [`FaultPlan`], read and written by one codec
//! (`plan_fields`, `plan_from_value`).
//!
//! **Chaos family.** Seeded random scenarios — topology size, incast
//! workload, scheme, transport, and a [`FaultPlan`] that passes
//! `validate()` — run under the collect-mode invariant auditor
//! ([`dcsim::audit::AuditConfig`]). A scenario *fails* when the run
//! panics, trips an invariant, hits the event cap, or — every fault
//! healed and every flow complete — is still busy at its time limit
//! (`NeverIdle`).
//!
//! Everything here is deterministic: the only randomness is
//! [`SplitMix64`] streams derived from the fuzz seed, and a campaign is
//! bounded by scenario count, never wall-clock time.
//!
//! Repro files are hand-rolled JSON, emitted *and* parsed by the
//! [`mini_json`] module, which also writes the figures' `JSON` rows.
//! `crates/perf/src/json.rs` is a second JSON module, on purpose: the
//! benchmark does not depend on `bench`.

use dcsim::prelude::*;
use incast_core::experiment::TrimPolicy;
use incast_core::scheme::{IncastHandle, IncastKnobs, Transport};
use incast_core::{ExperimentConfig, Scheme};
use mini_json::Json;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use trace::{derive_seed, SplitMix64};

/// Default per-finding budget of extra runs spent shrinking.
pub const DEFAULT_SHRINK_BUDGET: usize = 200;

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// A fuzzer family: what its scenarios are and how one runs. The engine
/// functions below are generic over it.
pub trait Family {
    /// The repro file's `"type"` tag; `None` writes and reads untagged.
    const TAG: Option<&'static str>;
    type Scenario: Clone + Debug + PartialEq + Send + Sync;
    /// Everything observable about one run, compared across runs for the
    /// determinism check.
    type Outcome: Clone + Debug + PartialEq + Send;

    /// The scenario for a fuzz seed. Pure function of the seed.
    fn generate(seed: u64) -> Self::Scenario;
    /// Runs one scenario. Panics unwind out; [`run_scenario`] catches them.
    fn run(sc: &Self::Scenario) -> Self::Outcome;
    /// The failure kind of a run that returned; `None` = it passed.
    fn failure_kind(outcome: &Self::Outcome) -> Option<String>;
    /// One-step simplifications of a scenario, most aggressive first.
    fn candidates(sc: &Self::Scenario) -> Vec<Self::Scenario>;
    /// One line saying what the scenario is.
    fn describe(sc: &Self::Scenario) -> String;
    /// Lines saying what a run came to: a summary, then failure details.
    fn details(outcome: &Self::Outcome) -> Vec<String>;
    fn to_value(sc: &Self::Scenario) -> Json;
    fn from_value(v: &Json) -> Result<Self::Scenario, String>;
    /// The census cell a scenario falls in; a campaign reports how many of
    /// its scenarios each cell got (`None`: the family keeps no census).
    fn cell(_sc: &Self::Scenario) -> Option<String> {
        None
    }
    /// A campaign runs one scenario at a time, whatever its `jobs`: the
    /// family's runs time real sockets, which a second run would disturb.
    const SERIAL: bool = false;
}

/// One run of a scenario: the family's outcome, or the panic message.
pub type Run<F> = Result<<F as Family>::Outcome, String>;

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one scenario, catching panics.
pub fn run_scenario<F: Family>(sc: &F::Scenario) -> Run<F> {
    catch_unwind(AssertUnwindSafe(|| F::run(sc))).map_err(panic_message)
}

/// Classifies a run: `"Panic"`, the family's failure kind, or `None` when
/// the scenario passed.
pub fn failure_kind<F: Family>(run: &Run<F>) -> Option<String> {
    match run {
        Ok(outcome) => F::failure_kind(outcome),
        Err(_) => Some("Panic".to_string()),
    }
}

/// Lines saying what a run came to ([`Family::details`], or the panic).
pub fn details<F: Family>(run: &Run<F>) -> Vec<String> {
    match run {
        Ok(outcome) => F::details(outcome),
        Err(panic) => vec![format!("panic: {panic}")],
    }
}

/// Runs the scenario twice and checks the runs are identical — the
/// replay determinism guarantee.
pub fn check_replay<F: Family>(sc: &F::Scenario) -> (Run<F>, bool) {
    let a = run_scenario::<F>(sc);
    let b = run_scenario::<F>(sc);
    let same = a == b;
    (a, same)
}

/// Greedy delta-debugging: repeatedly adopts the first candidate that
/// still fails with the same kind, until none does or the run budget is
/// spent. Returns the shrunk scenario and how many runs were used.
///
/// A candidate the family cannot run (the chaos family's setup errors) is
/// simply one that does not fail with `kind`.
pub fn shrink<F: Family>(sc: &F::Scenario, kind: &str, budget: usize) -> (F::Scenario, usize) {
    let mut current = sc.clone();
    let mut runs = 0;
    'outer: loop {
        for cand in F::candidates(&current) {
            if runs >= budget {
                break 'outer;
            }
            runs += 1;
            if failure_kind::<F>(&run_scenario::<F>(&cand)).as_deref() == Some(kind) {
                current = cand;
                continue 'outer;
            }
        }
        break;
    }
    (current, runs)
}

/// One failing scenario found by a campaign, after shrinking.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding<F: Family> {
    /// Fuzz seed that produced it.
    pub seed: u64,
    /// Failure classification ([`failure_kind`]).
    pub kind: String,
    /// The scenario as generated.
    pub original: F::Scenario,
    /// The shrunk scenario (still fails with `kind`).
    pub shrunk: F::Scenario,
    /// Run of the shrunk scenario.
    pub outcome: Run<F>,
    /// Runs spent shrinking.
    pub shrink_runs: usize,
}

impl<F: Family> Finding<F> {
    /// The repro file that pins this finding as a known issue.
    pub fn repro(&self) -> ReproFile<F> {
        ReproFile {
            found_with_seed: self.seed,
            expect: self.kind.clone(),
            note: format!(
                "found by fuzz campaign; shrunk in {} runs; {}",
                self.shrink_runs,
                details::<F>(&self.outcome).join("; ")
            ),
            scenario: self.shrunk.clone(),
        }
    }
}

/// What a campaign came to.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign<F: Family> {
    /// Every failing scenario, shrunk.
    pub findings: Vec<Finding<F>>,
    /// Scenarios per census cell ([`Family::cell`]), in cell order.
    pub census: BTreeMap<String, u64>,
}

/// Runs `count` seeded scenarios in parallel (one at a time for a
/// [`Family::SERIAL`] family), then shrinks each failure serially. Fully
/// deterministic for a given `(start_seed, count)`, at any `jobs`.
pub fn run_campaign<F: Family>(
    start_seed: u64,
    count: u64,
    jobs: usize,
    shrink_budget: usize,
) -> Campaign<F> {
    let seeds: Vec<u64> = (start_seed..start_seed + count).collect();
    let jobs = if F::SERIAL { 1 } else { jobs };
    let results = crate::SweepRunner::new(jobs).run(&seeds, |&seed| {
        let sc = F::generate(seed);
        let outcome = run_scenario::<F>(&sc);
        (seed, sc, outcome)
    });
    let mut findings = Vec::new();
    let mut census = BTreeMap::new();
    for (seed, sc, outcome) in results {
        if let Some(cell) = F::cell(&sc) {
            *census.entry(cell).or_insert(0) += 1;
        }
        if let Some(kind) = failure_kind::<F>(&outcome) {
            let (shrunk, shrink_runs) = shrink::<F>(&sc, &kind, shrink_budget);
            let outcome = run_scenario::<F>(&shrunk);
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
    Campaign { findings, census }
}

/// A committed repro: the scenario plus what a replay is expected to see.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproFile<F: Family> {
    /// Fuzz seed the finding came from (provenance only).
    pub found_with_seed: u64,
    /// `"clean"` (bug since fixed — replay must pass) or a failure kind
    /// (known issue — replay must still fail that way).
    pub expect: String,
    /// Free-text description of the bug / issue.
    pub note: String,
    pub scenario: F::Scenario,
}

impl<F: Family> ReproFile<F> {
    /// Checks a replay against `expect`.
    pub fn matches(&self, run: &Run<F>) -> bool {
        self.expect == failure_kind::<F>(run).as_deref().unwrap_or("clean")
    }

    /// Serializes to pretty-printed JSON, tagged with the family's
    /// `"type"` when it has one.
    pub fn to_json(&self) -> String {
        let tag = F::TAG.map(|tag| ("type", Json::str(tag)));
        let fields = tag.into_iter().chain([
            ("found_with_seed", Json::u64(self.found_with_seed)),
            ("expect", Json::str(&self.expect)),
            ("note", Json::str(&self.note)),
            ("scenario", F::to_value(&self.scenario)),
        ]);
        Json::obj(fields.collect()).render()
    }

    /// Parses a repro file from JSON text (the `"type"` tag is
    /// [`replay`]'s business).
    pub fn from_json(text: &str) -> Result<ReproFile<F>, String> {
        Self::from_value(&Json::parse(text)?)
    }

    fn from_value(v: &Json) -> Result<ReproFile<F>, String> {
        Ok(ReproFile {
            found_with_seed: v.get_u64("found_with_seed")?,
            expect: v.get_str("expect")?.to_string(),
            note: v.get_str("note")?.to_string(),
            scenario: F::from_value(v.get("scenario").ok_or("missing scenario")?)?,
        })
    }
}

/// A family's replay entry point: `(path, parsed file) -> passed`.
type ReplayFn = fn(&str, &Json) -> Result<bool, String>;

/// Every family a repro file can name, by `"type"` tag.
const FAMILIES: &[(Option<&str>, ReplayFn)] = &[
    (Chaos::TAG, replay_as::<Chaos>),
    (
        crate::cpfuzz::ControlPlane::TAG,
        replay_as::<crate::cpfuzz::ControlPlane>,
    ),
    (crate::soak::Soak::TAG, replay_as::<crate::soak::Soak>),
];

/// Replays the repro file at `path` — or an untagged bare chaos scenario
/// — twice, printing what ran. `Ok(true)` when the two runs are identical
/// and meet the file's `expect` (a bare scenario: pass); `Err` when the
/// file cannot be read, parsed, or names no known family.
pub fn replay(path: &str) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let v = Json::parse(&text)?;
    let tag = v.get("type").map(|_| v.get_str("type")).transpose()?;
    let Some(&(_, replay_family)) = FAMILIES.iter().find(|(known, _)| *known == tag) else {
        let known: Vec<String> = FAMILIES
            .iter()
            .map(|(known, _)| known.map_or("untagged (chaos)".into(), |t| format!("{t:?}")))
            .collect();
        return Err(format!(
            "unknown repro type {:?}; known families: {}",
            tag.unwrap_or_default(),
            known.join(", ")
        ));
    };
    replay_family(path, &v)
}

fn replay_as<F: Family>(path: &str, v: &Json) -> Result<bool, String> {
    let (repro, bare) = match ReproFile::<F>::from_value(v) {
        Ok(repro) => (repro, false),
        Err(repro_err) => {
            let scenario = F::from_value(v).map_err(|sc_err| {
                format!("neither a repro file ({repro_err}) nor a scenario ({sc_err})")
            })?;
            let (expect, note) = (String::new(), String::new());
            let repro = ReproFile {
                found_with_seed: 0,
                expect,
                note,
                scenario,
            };
            (repro, true)
        }
    };
    let family = F::TAG.map_or(String::new(), |tag| format!(" ({tag})"));
    println!("replaying {path}{family}");
    println!("  {}", F::describe(&repro.scenario));
    if !repro.note.is_empty() {
        println!("  note: {}", repro.note);
    }
    let (outcome, deterministic) = check_replay::<F>(&repro.scenario);
    let observed = failure_kind::<F>(&outcome);
    println!("  outcome: {}", observed.as_deref().unwrap_or("clean"));
    for line in details::<F>(&outcome) {
        println!("    {line}");
    }
    if !deterministic {
        eprintln!("fuzz: REPLAY DIVERGED — two runs of the same scenario differed");
        return Ok(false);
    }
    println!("  deterministic: two consecutive runs identical");
    if bare {
        // No expectation recorded; determinism was the whole check.
        return Ok(observed.is_none());
    }
    if repro.matches(&outcome) {
        println!("  expectation {:?}: satisfied", repro.expect);
        Ok(true)
    } else {
        eprintln!(
            "fuzz: expectation {:?} NOT met (observed {:?})",
            repro.expect,
            observed.as_deref().unwrap_or("clean")
        );
        Ok(false)
    }
}

// ---------------------------------------------------------------------------
// The chaos family: the packet simulator under fault plans
// ---------------------------------------------------------------------------

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

/// One self-contained chaos scenario: everything needed to rebuild and
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
            trim: sc.trim,
            knobs: IncastKnobs {
                transport: sc.transport,
                early_nack: sc.early_nack,
                failover: sc.failover,
                ..Default::default()
            },
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
    /// Invariant-violation kind names, in detection order, then
    /// `NeverIdle` when the run should have gone idle and did not.
    pub violations: Vec<String>,
    /// Human-readable violation details (or the setup error).
    pub details: Vec<String>,
    /// The packet ledger's and the protocol's nonzero counters, as
    /// `dotted.name=value` (empty on a setup error).
    pub counters: String,
}

fn stop_name(stop: StopReason) -> &'static str {
    match stop {
        StopReason::Idle => "idle",
        StopReason::TimeLimit => "time-limit",
        StopReason::EventCap => "event-cap",
    }
}

/// The packet simulator under fault plans and the collect-mode auditor.
#[derive(Debug, Clone, PartialEq)]
pub struct Chaos;

impl Family for Chaos {
    const TAG: Option<&'static str> = None;
    type Scenario = Scenario;
    type Outcome = RunOutcome;

    fn generate(fuzz_seed: u64) -> Scenario {
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
            let port = PortId(rng.next_bounded(ports) as u32);
            plan.impairments.push(PortImpairment {
                loss: rng.next_f64() * 0.15,
                corrupt: rng.next_f64() * 0.10,
                ..PortImpairment::none(port)
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

    fn run(sc: &Scenario) -> RunOutcome {
        let (mut sim, handle) = match build(sc) {
            Ok(built) => built,
            Err(setup) => {
                return RunOutcome {
                    stop: "setup-error".to_string(),
                    events: 0,
                    end_time_ps: 0,
                    completed: false,
                    violations: Vec::new(),
                    details: vec![setup],
                    counters: String::new(),
                }
            }
        };
        let limit = handle.start + SimDuration::from_millis(sc.time_limit_ms);
        let report = sim.run(Some(limit));
        let completed = handle.completion(sim.metrics()).is_some();
        let mut violations: Vec<String> = report
            .violations
            .iter()
            .map(|v| v.kind().to_string())
            .collect();
        let mut details: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
        // NeverIdle: with every fault healed and every flow done, nothing
        // is left to do, so a run still busy at the time limit is one some
        // agent keeps alive on its own (a timer that re-arms forever).
        if sc.liveness && completed && report.stop == StopReason::TimeLimit {
            violations.push("NeverIdle".to_string());
            details.push(format!(
                "NeverIdle: every fault healed and every flow completed, yet the run was \
                 still busy at the {} ms time limit after {} events",
                sc.time_limit_ms, report.events
            ));
        }
        let protocol = sim.metrics().nonzero_counters().into_iter();
        let protocol: String = protocol.map(|(name, v)| format!(" {name}={v}")).collect();
        RunOutcome {
            stop: stop_name(report.stop).to_string(),
            events: report.events,
            end_time_ps: report.end_time.0,
            completed,
            violations,
            details,
            counters: format!("{}{protocol}", sim.ledger()),
        }
    }

    /// A time-limit stop with incomplete flows is *not* a failure by
    /// itself: permanent faults legitimately strand flows, and the
    /// liveness watchdog (armed exactly when every fault heals) is the
    /// stall detector. A time-limit stop with every flow complete under a
    /// healing plan is `NeverIdle`.
    fn failure_kind(outcome: &RunOutcome) -> Option<String> {
        if let Some(kind) = outcome.violations.first() {
            return Some(kind.clone());
        }
        (outcome.stop == "event-cap").then(|| "EventCap".to_string())
    }

    /// Shrinking topology knobs renumbers ports/agents; candidates whose
    /// fault plan no longer fits are rejected naturally (setup-error is
    /// never a failure kind).
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

    /// Transport × failover: the failover census shows that rate-based
    /// senders with failover on are exercised. A scenario counts as
    /// "+failover" only under a scheme whose senders can fail over (the
    /// end-to-end proxy schemes); Baseline and Naive ignore the flag.
    fn cell(sc: &Scenario) -> Option<String> {
        let fails_over =
            sc.failover && matches!(sc.scheme, Scheme::ProxyStreamlined | Scheme::ProxyDetecting);
        let failover = if fails_over { "+failover" } else { "" };
        Some(format!(
            "{}{failover}",
            name_of(TRANSPORT_NAMES, sc.transport)
        ))
    }

    fn describe(sc: &Scenario) -> String {
        format!(
            "scheme={:?} transport={:?} degree={} bytes={} topo={}x{}x{} bg={} faults={}w/{}i/{}c",
            sc.scheme,
            sc.transport,
            sc.degree,
            sc.total_bytes,
            sc.spines_per_dc,
            sc.leaves_per_dc,
            sc.hosts_per_leaf,
            sc.background_flows,
            sc.faults.link_windows.len(),
            sc.faults.impairments.len(),
            sc.faults.crashes.len(),
        )
    }

    fn details(o: &RunOutcome) -> Vec<String> {
        let summary = format!(
            "stop={} events={} completed={}",
            o.stop, o.events, o.completed
        );
        [summary, format!("counters: {}", o.counters)]
            .into_iter()
            .chain(o.details.iter().cloned())
            .collect()
    }

    fn to_value(sc: &Scenario) -> Json {
        Json::obj(vec![
            ("sim_seed", Json::u64(sc.sim_seed)),
            ("scheme", Json::str(name_of(SCHEME_NAMES, sc.scheme))),
            (
                "transport",
                Json::str(name_of(TRANSPORT_NAMES, sc.transport)),
            ),
            ("trim", Json::str(name_of(TRIM_NAMES, sc.trim))),
            ("degree", Json::u64(sc.degree as u64)),
            ("total_bytes", Json::u64(sc.total_bytes)),
            ("wan_us", Json::u64(sc.wan_us)),
            ("spines_per_dc", Json::u64(sc.spines_per_dc as u64)),
            ("leaves_per_dc", Json::u64(sc.leaves_per_dc as u64)),
            ("hosts_per_leaf", Json::u64(sc.hosts_per_leaf as u64)),
            ("background_flows", Json::u64(sc.background_flows as u64)),
            ("early_nack", Json::Bool(sc.early_nack)),
            ("failover", Json::Bool(sc.failover)),
            ("liveness", Json::Bool(sc.liveness)),
            ("fidelity", Json::Bool(sc.fidelity)),
            ("time_limit_ms", Json::u64(sc.time_limit_ms)),
            ("faults", Json::obj(plan_fields(&sc.faults))),
        ])
    }

    fn from_value(v: &Json) -> Result<Scenario, String> {
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
            faults: plan_from_value(v.get("faults").ok_or("missing faults")?)?,
        })
    }
}

// ---------------------------------------------------------------------------
// The fault plan's JSON codec, shared by every family
// ---------------------------------------------------------------------------

/// A [`FaultPlan`]'s JSON fields, for a family to place in an object of
/// its own: one per non-empty list, times in picoseconds, and an
/// impairment's `duplicate`, `delay` and `delay_max_ps` only when nonzero.
pub(crate) fn plan_fields(plan: &FaultPlan) -> Vec<(&'static str, Json)> {
    let ps = |t: Option<SimTime>| t.map_or(Json::Null, |t| Json::u64(t.0));
    let windows = plan.link_windows.iter().map(|w| {
        Json::obj(vec![
            ("port", Json::u64(w.port.index() as u64)),
            ("down_at_ps", Json::u64(w.down_at.0)),
            ("up_at_ps", ps(w.up_at)),
        ])
    });
    let impairments = plan.impairments.iter().map(|i| {
        let mut fields = vec![
            ("port", Json::u64(i.port.index() as u64)),
            ("loss", Json::f64(i.loss)),
            ("corrupt", Json::f64(i.corrupt)),
        ];
        if i.duplicate != 0.0 {
            fields.push(("duplicate", Json::f64(i.duplicate)));
        }
        if i.delay != 0.0 {
            fields.push(("delay", Json::f64(i.delay)));
        }
        if i.delay_max != SimDuration::ZERO {
            fields.push(("delay_max_ps", Json::u64(i.delay_max.0)));
        }
        Json::obj(fields)
    });
    let errors = plan.syscall_errors.iter().map(|e| {
        Json::obj(vec![
            ("port", Json::u64(e.port.index() as u64)),
            ("again", Json::f64(e.again)),
            ("nobufs", Json::f64(e.nobufs)),
        ])
    });
    let crashes = plan.crashes.iter().map(|c| {
        Json::obj(vec![
            ("agent", Json::u64(c.agent.index() as u64)),
            ("at_ps", Json::u64(c.at.0)),
            ("restore_at_ps", ps(c.restore_at)),
        ])
    });
    let shard_crashes = plan.shard_crashes.iter().map(|c| {
        Json::obj(vec![
            ("shard", Json::u64(c.shard as u64)),
            ("at_ps", Json::u64(c.at.0)),
            ("restore_at_ps", ps(c.restore_at)),
        ])
    });
    let lists: [(&'static str, Vec<Json>); 5] = [
        ("link_windows", windows.collect()),
        ("impairments", impairments.collect()),
        ("syscall_errors", errors.collect()),
        ("crashes", crashes.collect()),
        ("shard_crashes", shard_crashes.collect()),
    ];
    (lists.into_iter())
        .filter(|(_, list)| !list.is_empty())
        .map(|(key, list)| (key, Json::Arr(list)))
        .collect()
}

/// The [`FaultPlan`] in `v`'s fields, as [`plan_fields`] writes them. A
/// list `v` lacks reads as empty, a missing impairment field as zero, and
/// a missing or `null` restore or up time as never.
pub(crate) fn plan_from_value(v: &Json) -> Result<FaultPlan, String> {
    let list = |key| v.get(key).map_or(Ok(&[][..]), Json::arr);
    let time = |v: &Json, key| match v.get(key) {
        Some(Json::Null) | None => Ok(None),
        Some(t) => t.u64_value().map(|t| Some(SimTime(t))),
    };
    let zero_or = |v: &Json, key| v.get(key).map_or(Ok(0.0), Json::f64_value);
    let port = |v: &Json| v.get_u64("port").map(|p| PortId(p as u32));
    let mut plan = FaultPlan::new();
    for w in list("link_windows")? {
        plan.link_windows.push(LinkWindow {
            port: port(w)?,
            down_at: SimTime(w.get_u64("down_at_ps")?),
            up_at: time(w, "up_at_ps")?,
        });
    }
    for i in list("impairments")? {
        plan.impairments.push(PortImpairment {
            port: port(i)?,
            loss: zero_or(i, "loss")?,
            corrupt: zero_or(i, "corrupt")?,
            duplicate: zero_or(i, "duplicate")?,
            delay: zero_or(i, "delay")?,
            delay_max: SimDuration(i.get("delay_max_ps").map_or(Ok(0), Json::u64_value)?),
        });
    }
    for e in list("syscall_errors")? {
        plan.syscall_errors.push(SyscallErrors {
            port: port(e)?,
            again: zero_or(e, "again")?,
            nobufs: zero_or(e, "nobufs")?,
        });
    }
    for c in list("crashes")? {
        plan.crashes.push(AgentCrash {
            agent: AgentId(c.get_u64("agent")? as u32),
            at: SimTime(c.get_u64("at_ps")?),
            restore_at: time(c, "restore_at_ps")?,
        });
    }
    for c in list("shard_crashes")? {
        plan.shard_crashes.push(ShardCrash {
            shard: c.get_u64("shard")? as u32,
            at: SimTime(c.get_u64("at_ps")?),
            restore_at: time(c, "restore_at_ps")?,
        });
    }
    Ok(plan)
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

    use std::cell::Cell;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(Chaos::generate(7), Chaos::generate(7));
        assert_ne!(Chaos::generate(7), Chaos::generate(8));
    }

    #[test]
    fn scenario_json_round_trips() {
        for seed in [1, 2, 3, 4, 5] {
            let sc = Chaos::generate(seed);
            let json = Chaos::to_value(&sc).render();
            let back = Chaos::from_value(&Json::parse(&json).unwrap()).expect("parse back");
            assert_eq!(sc, back, "round-trip for seed {seed}\n{json}");
        }
    }

    #[test]
    fn census_counts_failover_only_where_senders_can_fail_over() {
        let mut sc = Chaos::generate(1);
        sc.transport = Transport::RateBased;
        sc.failover = true;
        for (scheme, cell) in [
            (Scheme::Baseline, "rate"),
            (Scheme::ProxyNaive, "rate"),
            (Scheme::ProxyStreamlined, "rate+failover"),
            (Scheme::ProxyDetecting, "rate+failover"),
        ] {
            sc.scheme = scheme;
            assert_eq!(Chaos::cell(&sc).as_deref(), Some(cell), "{scheme:?}");
        }
    }

    #[test]
    fn repro_file_round_trips() {
        let repro = ReproFile::<Chaos> {
            found_with_seed: 42,
            expect: "clean".to_string(),
            note: "weird \"quotes\" and\nnewlines — unicode too".to_string(),
            scenario: Chaos::generate(42),
        };
        let json = repro.to_json();
        assert!(!json.contains("\"type\""), "the chaos family is untagged");
        let back = ReproFile::from_json(&json).expect("parse back");
        assert_eq!(repro, back);
    }

    #[test]
    fn faultless_scenario_replays_deterministically() {
        let mut sc = Chaos::generate(3);
        sc.faults = FaultPlan::new();
        sc.liveness = true;
        let (outcome, same) = check_replay::<Chaos>(&sc);
        assert!(same, "replay diverged: {outcome:?}");
        assert!(outcome.is_ok(), "{outcome:?}");
        // The counters line names every nonzero count, ledger first.
        let lines = details::<Chaos>(&outcome);
        assert!(
            lines[1].starts_with("counters: dcsim.packet_ledger.created="),
            "{lines:?}"
        );
    }

    /// A family with no simulator behind it, to test the engine alone: a
    /// scenario fails as `"Big"` when it holds three or more values over
    /// 10, and otherwise as `"Odd"` when its sum is odd.
    #[derive(Debug, Clone, PartialEq)]
    struct Toy;

    thread_local! {
        /// Runs of `Toy` on this thread.
        static TOY_RUNS: Cell<usize> = const { Cell::new(0) };
    }

    impl Family for Toy {
        const TAG: Option<&'static str> = Some("toy");
        type Scenario = Vec<u32>;
        type Outcome = Option<String>;

        fn generate(seed: u64) -> Vec<u32> {
            let mut rng = SplitMix64::new(seed);
            let len = rng.next_bounded(8);
            (0..len).map(|_| rng.next_bounded(40) as u32).collect()
        }

        fn run(sc: &Vec<u32>) -> Option<String> {
            TOY_RUNS.with(|runs| runs.set(runs.get() + 1));
            if sc.iter().filter(|&&v| v > 10).count() >= 3 {
                Some("Big".to_string())
            } else if sc.iter().sum::<u32>() % 2 == 1 {
                Some("Odd".to_string())
            } else {
                None
            }
        }

        fn failure_kind(outcome: &Option<String>) -> Option<String> {
            outcome.clone()
        }

        /// Drop one value, then halve one value.
        fn candidates(sc: &Vec<u32>) -> Vec<Vec<u32>> {
            let with = |i: usize, f: fn(&mut Vec<u32>, usize)| {
                let mut c = sc.clone();
                f(&mut c, i);
                c
            };
            let drops = (0..sc.len()).map(|i| {
                with(i, |c, i| {
                    c.remove(i);
                })
            });
            let halves = (0..sc.len()).filter(|&i| sc[i] > 0);
            drops
                .chain(halves.map(|i| with(i, |c, i| c[i] /= 2)))
                .collect()
        }

        fn describe(sc: &Vec<u32>) -> String {
            format!("{sc:?}")
        }

        fn details(outcome: &Option<String>) -> Vec<String> {
            outcome.iter().cloned().collect()
        }

        fn to_value(sc: &Vec<u32>) -> Json {
            Json::Arr(sc.iter().map(|&v| Json::u64(v.into())).collect())
        }

        fn from_value(v: &Json) -> Result<Vec<u32>, String> {
            v.arr()?.iter().map(|v| Ok(v.u64_value()? as u32)).collect()
        }
    }

    /// `shrink` for `Big` on this thread: the result, the runs it says it
    /// spent, and the runs it actually spent.
    fn shrink_big(sc: &[u32], budget: usize) -> (Vec<u32>, usize, usize) {
        TOY_RUNS.with(|runs| runs.set(0));
        let (shrunk, runs) = shrink::<Toy>(&sc.to_vec(), "Big", budget);
        (shrunk, runs, TOY_RUNS.with(Cell::get))
    }

    #[test]
    fn shrink_keeps_the_kind_and_the_budget() {
        // The first candidate (drop the 40) fails as "Odd": passed over.
        let start = [40, 3, 25, 12, 9];
        let (shrunk, runs, spent) = shrink_big(&start, 1_000);
        assert_eq!(shrunk, [20, 12, 12]);
        assert_eq!(runs, spent);
        let big = |sc: &Vec<u32>| Toy::run(sc).as_deref() == Some("Big");
        assert!(big(&shrunk));
        assert!(
            !Toy::candidates(&shrunk).iter().any(big),
            "minimal: no candidate of {shrunk:?} still fails as Big"
        );
        // Every candidate fails as "Odd" or passes: nothing is adopted.
        assert_eq!(shrink_big(&[11, 12, 13], 1_000), (vec![11, 12, 13], 6, 6));
        // Cut short at any budget, shrinking has spent at most the budget
        // and holds a scenario that still fails as Big.
        for budget in 0..=runs + 1 {
            let (partial, used, spent) = shrink_big(&start, budget);
            assert!(
                used <= budget && used == spent,
                "{budget}: {used} / {spent}"
            );
            assert!(big(&partial), "{budget}: adopted {partial:?}");
        }
        assert_eq!(shrink_big(&start, 0).0, start);
    }

    #[test]
    fn campaign_findings_do_not_depend_on_jobs() {
        let serial = run_campaign::<Toy>(0, 64, 1, 50);
        assert_eq!(serial, run_campaign::<Toy>(0, 64, 4, 50));
        assert!(serial.census.is_empty(), "the toy keeps no census");
        let serial = serial.findings;
        for kind in ["Big", "Odd"] {
            assert!(serial.iter().any(|f| f.kind == kind), "no {kind} finding");
        }
        for f in &serial {
            assert_eq!(failure_kind::<Toy>(&f.outcome).as_deref(), Some(&*f.kind));
        }
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
