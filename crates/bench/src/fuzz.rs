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
//! scenarios all carry a [`FaultPlan`], read and written, like the chaos
//! scenario itself, by [`incast_core::scenario::Codec`].
//!
//! **Chaos family.** Seeded random [`Scenario`]s, each with its simulator
//! seed ([`Case`]). Most are one incast on a small two-DC leaf–spine —
//! topology size, workload, scheme, transport, and a [`FaultPlan`] that
//! passes `validate()` — run under the collect-mode invariant auditor
//! ([`dcsim::audit::AuditConfig`]). Such a case *fails* when the run
//! panics, trips an invariant, hits the event cap, completes an incast
//! faster than its floor ([`Scenario::ict_floors`]: `BelowFloor`), or —
//! every fault healed and every incast complete — is still busy at its
//! time limit (`NeverIdle`). The outcome counts the plain and background
//! flows still open at the stop, but no verdict reads that count. One
//! seed in eight draws a small pod fleet instead: plain incast flows and
//! mice on two pods, no faults, run on a [`FleetSim`] at one and at two
//! threads under the collect-mode auditor. It fails on a violation, on
//! not draining, or when the two runs differ at all (`ThreadVariance`).
//!
//! Everything here is deterministic: the only randomness is
//! [`SplitMix64`] streams derived from the fuzz seed, and a campaign is
//! bounded by scenario count, never wall-clock time.
//!
//! Repro files are JSON, emitted *and* parsed by [`trace::json`], which
//! also writes the figures' `JSON` rows. `crates/perf/src/json.rs` is a
//! second JSON module, on purpose: the benchmark does not depend on
//! `bench`.

use dcsim::prelude::*;
use incast_core::experiment::TrimPolicy;
use incast_core::scenario::{Fabric, Flow, Incast, Scenario, TRANSPORT_NAMES};
use incast_core::scheme::{IncastKnobs, IncastSpec, Transport};
use incast_core::Scheme;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use trace::json::{name_of, Json};
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

/// One chaos case: a [`Scenario`] and the seed its engine is built with.
/// Its JSON is the scenario's, plus `sim_seed`.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// Simulator seed (drives spraying, jitter, impairment draws, ...).
    pub seed: u64,
    /// Everything else about the run.
    pub scenario: Scenario,
}

/// True when every fault in the plan heals (links come back up, crashed
/// agents restore) — the precondition for arming the liveness watchdog.
pub fn plan_heals(plan: &FaultPlan) -> bool {
    plan.link_windows.iter().all(|w| w.up_at.is_some())
        && plan.crashes.iter().all(|c| c.restore_at.is_some())
}

/// Everything observable about one scenario run, comparable across runs
/// for the determinism check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// `"idle"`, `"time-limit"`, `"event-cap"`, or `"setup-error"`.
    pub stop: String,
    pub events: u64,
    pub end_time_ps: u64,
    /// Every incast (or, in a fleet, every flow) completed.
    pub completed: bool,
    /// Flows outside the incasts still open at the stop: the scenario's
    /// plain and background flows (in a fleet, every flow).
    pub open_flows: usize,
    /// Invariant-violation kind names, in detection order, then the
    /// family's own: `BelowFloor`, `NeverIdle`, `ThreadVariance`.
    pub violations: Vec<String>,
    /// Human-readable violation details (or the setup error).
    pub details: Vec<String>,
    /// The run's nonzero counters as `dotted.name=value`: the packet
    /// ledger and the protocol counters, or a fleet's report (empty on a
    /// setup error).
    pub counters: String,
}

impl RunOutcome {
    fn setup_error(error: String) -> Self {
        RunOutcome {
            stop: "setup-error".to_string(),
            events: 0,
            end_time_ps: 0,
            completed: false,
            open_flows: 0,
            violations: Vec::new(),
            details: vec![error],
            counters: String::new(),
        }
    }

    fn violation(&mut self, kind: &str, detail: String) {
        self.violations.push(kind.to_string());
        self.details.push(format!("{kind}: {detail}"));
    }
}

fn stop_name(stop: StopReason) -> &'static str {
    match stop {
        StopReason::Idle => "idle",
        StopReason::TimeLimit => "time-limit",
        StopReason::EventCap => "event-cap",
    }
}

/// The packet simulator under fault plans and the collect-mode auditor,
/// and small pod fleets under thread-count changes.
#[derive(Debug, Clone, PartialEq)]
pub struct Chaos;

/// A seed draws a pod fleet one time in this many.
const FLEET_ONE_IN: u64 = 8;

/// The collect-mode audit every chaos case runs under.
fn chaos_audit(liveness: bool) -> AuditConfig {
    let audit = AuditConfig::collect().every(Some(AUDIT_EVERY));
    match liveness {
        true => audit.with_liveness(SimDuration::from_secs(LIVENESS_HORIZON_SECS)),
        false => audit,
    }
}

/// The leaf–spine shape the chaos family draws for a two-DC case or a pod.
fn draw_params(rng: &mut SplitMix64) -> TwoDcParams {
    TwoDcParams {
        spines_per_dc: 1 + rng.next_bounded(2) as usize,
        leaves_per_dc: 1 + rng.next_bounded(3) as usize,
        hosts_per_leaf: 2 + rng.next_bounded(3) as usize,
        ..TwoDcParams::small_test()
    }
}

/// A fleet of two small pods: in each, a few DC0 senders converge on the
/// first DC1 host, and a few mice run inside each datacenter.
fn generate_fleet(fuzz_seed: u64) -> Case {
    let mut rng = SplitMix64::new(derive_seed(fuzz_seed, 0xF1EE));
    let params = draw_params(&mut rng);
    let per_dc = params.hosts_per_dc() as u64;
    let fabric = Fabric::Pods { pods: 2, params };
    let mut flows = Vec::new();
    let mut flow = |src, dst, bytes, start| {
        let spec = FlowSpec::new(src, dst, bytes);
        flows.push(Flow {
            spec,
            start: SimTime::ZERO + SimDuration::from_nanos(start),
        });
    };
    let topo = fabric.topology();
    for pod in 0..2 {
        let dcs = [topo.hosts_in_dc(2 * pod), topo.hosts_in_dc(2 * pod + 1)];
        let bytes = 50_000 + rng.next_bounded(950_000);
        for &src in &dcs[0][..1 + rng.next_bounded((per_dc - 1).min(4)) as usize] {
            flow(src, dcs[1][0], bytes, rng.next_bounded(1_000_000));
        }
        for dc in &dcs {
            for _ in 0..rng.next_bounded(4) {
                let src = rng.next_bounded(per_dc);
                let dst = (src + 1 + rng.next_bounded(per_dc - 1)) % per_dc;
                let bytes = 10_000 + rng.next_bounded(250_000);
                flow(
                    dc[src as usize],
                    dc[dst as usize],
                    bytes,
                    rng.next_bounded(5_000_000),
                );
            }
        }
    }
    let scenario = Scenario {
        flows,
        fidelity: rng.next_bounded(2) == 1,
        threads: Some(1),
        time_limit: SimDuration::from_millis(DEFAULT_TIME_LIMIT_MS),
        audit: Some(chaos_audit(false)),
        ..Scenario::new(fabric)
    };
    Case {
        seed: derive_seed(fuzz_seed, 0x51ED),
        scenario,
    }
}

/// The leaf–spine shape and the incast of a two-DC incast case (`None`
/// for a fleet).
fn two_dc(sc: &Scenario) -> Option<(TwoDcParams, &Incast)> {
    match (&sc.fabric, sc.incasts.first()) {
        (Fabric::TwoDc(p), Some(incast)) => Some((*p, incast)),
        _ => None,
    }
}

/// Runs a fleet case at one and two threads: the audit, the drain, and
/// exact thread-count invariance (every completion to the picosecond,
/// every count of the report).
fn run_fleet(case: &Case) -> RunOutcome {
    let run = |threads| {
        let sc = Scenario {
            threads: Some(threads),
            ..case.scenario.clone()
        };
        let (mut fleet, flows) = sc.build_fleet(case.seed)?;
        fleet.set_event_cap(EVENT_CAP);
        let report = fleet.run(Some(sc.deadline()));
        let done: Vec<Option<SimTime>> = flows.iter().map(|&f| fleet.completion(f)).collect();
        Ok::<_, String>((report, done))
    };
    let (one, two) = match (run(1), run(2)) {
        (Ok(one), Ok(two)) => (one, two),
        (Err(e), _) | (_, Err(e)) => return RunOutcome::setup_error(e),
    };
    let ((report, done), (report2, done2)) = (&one, &two);
    let counts = |r: &FleetReport| {
        format!(
            "dcsim.fleet.windows={} dcsim.fleet.exchanged={} dcsim.fleet.tx_elided={} {} {} {}",
            r.windows, r.exchanged, r.tx_elided, r.lane_churn, r.queue_peak, r.express
        )
    };
    let mut out = RunOutcome {
        stop: stop_name(report.stop).to_string(),
        events: report.events,
        end_time_ps: report.end_time.0,
        completed: done.iter().all(Option::is_some),
        open_flows: done.iter().filter(|d| d.is_none()).count(),
        violations: report
            .violations
            .iter()
            .map(|v| v.kind().to_string())
            .collect(),
        details: report.violations.iter().map(|v| v.to_string()).collect(),
        counters: counts(report),
    };
    if report.stop == StopReason::TimeLimit {
        let detail = format!(
            "a faultless fleet was still busy at its time limit after {} events",
            report.events
        );
        out.violation("NeverIdle", detail);
    }
    let same_report = (report.stop, report.end_time, report.events)
        == (report2.stop, report2.end_time, report2.events)
        && counts(report) == counts(report2)
        && report.violations.len() == report2.violations.len();
    if !same_report || done != done2 {
        let detail = format!(
            "threads 1 and 2 differ: {} events, {done:?} vs {} events, {done2:?}; {} vs {}",
            report.events,
            report2.events,
            counts(report),
            counts(report2)
        );
        out.violation("ThreadVariance", detail);
    }
    out
}

impl Family for Chaos {
    const TAG: Option<&'static str> = None;
    type Scenario = Case;
    type Outcome = RunOutcome;

    fn generate(fuzz_seed: u64) -> Case {
        if derive_seed(fuzz_seed, 0xF1E0).is_multiple_of(FLEET_ONE_IN) {
            return generate_fleet(fuzz_seed);
        }
        let mut rng = SplitMix64::new(derive_seed(fuzz_seed, 0xF022));
        let params = draw_params(&mut rng);
        let hosts_per_dc = params.hosts_per_dc();
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
        let total_bytes = 100_000 + rng.next_bounded(2_900_000);
        let wan = SimDuration::from_micros(50 + rng.next_bounded(1_000));
        let fabric = Fabric::TwoDc(
            params
                .with_wan_latency(wan)
                .with_trim(trim.enabled_for(scheme)),
        );
        let mut spec = fabric.placement(degree, total_bytes);
        let background_flows = rng.next_bounded(4) as usize;
        spec.knobs = IncastKnobs {
            transport,
            early_nack: rng.next_bounded(8) != 0,
            failover: rng.next_bounded(2) == 0,
            ..Default::default()
        };
        let mut case = Case {
            seed: derive_seed(fuzz_seed, 0x51ED),
            scenario: Scenario {
                background_flows,
                // Half the campaign exercises the hybrid-fidelity engine, so
                // the auditor's ledger checks cover express-advanced packets
                // too.
                fidelity: rng.next_bounded(2) == 1,
                time_limit: SimDuration::from_millis(DEFAULT_TIME_LIMIT_MS),
                ..Scenario::incast(fabric, scheme, spec)
            },
        };
        // Build once (faultless) to learn how many ports and agents exist,
        // then roll a validate()-clean fault plan against those bounds.
        let built = case.scenario.build(case.seed);
        let (sim, _, _) = built.expect("faultless generated scenario must build");
        let (ports, agents) = (sim.topology().port_count() as u64, sim.agent_count() as u64);
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
        case.scenario.audit = Some(chaos_audit(plan_heals(&plan)));
        case.scenario.faults = plan;
        case
    }

    fn run(case: &Case) -> RunOutcome {
        let sc = &case.scenario;
        if sc.threads.is_some() {
            return run_fleet(case);
        }
        let (mut sim, incasts, flows) = match sc.build(case.seed) {
            Ok(built) => built,
            Err(setup) => return RunOutcome::setup_error(setup),
        };
        sim.set_event_cap(EVENT_CAP);
        let report = sim.run(Some(sc.deadline()));
        let completions: Vec<_> = incasts
            .iter()
            .map(|h| h.completion(sim.metrics()))
            .collect();
        let protocol = sim.metrics().nonzero_counters().into_iter();
        let protocol: String = protocol.map(|(name, v)| format!(" {name}={v}")).collect();
        let mut out = RunOutcome {
            stop: stop_name(report.stop).to_string(),
            events: report.events,
            end_time_ps: report.end_time.0,
            completed: completions.iter().all(Option::is_some),
            open_flows: flows
                .iter()
                .filter(|&&f| sim.metrics().completion(f).is_none())
                .count(),
            violations: report
                .violations
                .iter()
                .map(|v| v.kind().to_string())
                .collect(),
            details: report.violations.iter().map(|v| v.to_string()).collect(),
            counters: format!("{}{protocol}", sim.ledger()),
        };
        for (i, (ict, floor)) in completions
            .iter()
            .zip(sc.ict_floors(sim.topology()))
            .enumerate()
        {
            if let Some(ict) = ict.filter(|&ict| ict < floor) {
                out.violation(
                    "BelowFloor",
                    format!("incast {i} completed in {ict}, below its floor {floor}"),
                );
            }
        }
        // NeverIdle: with every fault healed and every incast done, a run
        // still busy at the time limit is one some agent keeps alive on its
        // own (a timer that re-arms forever), or one whose other flows are
        // still open; the detail counts those.
        let liveness = sc.audit.is_some_and(|a| a.liveness_horizon.is_some());
        if liveness && out.completed && report.stop == StopReason::TimeLimit {
            let detail = format!(
                "every fault healed and every incast completed, yet the run was \
                 still busy at the {} time limit after {} events, with {} other \
                 flows open",
                sc.time_limit, report.events, out.open_flows
            );
            out.violation("NeverIdle", detail);
        }
        out
    }

    /// A time-limit stop with incomplete flows is *not* a failure by
    /// itself: permanent faults legitimately strand flows, and the
    /// liveness watchdog (armed exactly when every fault heals) is the
    /// stall detector. A time-limit stop with every incast complete under
    /// a healing plan is `NeverIdle`.
    fn failure_kind(outcome: &RunOutcome) -> Option<String> {
        if let Some(kind) = outcome.violations.first() {
            return Some(kind.clone());
        }
        (outcome.stop == "event-cap").then(|| "EventCap".to_string())
    }

    /// Shrinking the fabric renumbers hosts, ports and agents: the incast
    /// is placed again, and candidates whose fault plan or flows no longer
    /// fit are rejected naturally (setup-error is never a failure kind).
    fn candidates(case: &Case) -> Vec<Case> {
        let sc = &case.scenario;
        let mut out = Vec::new();
        let mut push = |f: &dyn Fn(&mut Scenario)| {
            let mut c = case.clone();
            f(&mut c.scenario);
            out.push(c);
        };
        if let Fabric::Pods { pods, params } = sc.fabric {
            if pods > 1 {
                let hosts = (pods - 1) * 2 * params.hosts_per_dc();
                push(&|c: &mut Scenario| {
                    c.fabric = Fabric::Pods {
                        pods: pods - 1,
                        params,
                    };
                    c.flows.retain(|f| {
                        (f.spec.src.0 as usize) < hosts && (f.spec.dst.0 as usize) < hosts
                    });
                });
            }
            let topo = sc.fabric.topology();
            let mouse = |f: &Flow| topo.host_dc(f.spec.src) == topo.host_dc(f.spec.dst);
            if sc.flows.iter().any(mouse) {
                push(&|c: &mut Scenario| c.flows.retain(|f| !mouse(f)));
            }
            for i in 0..sc.flows.len() {
                push(&|c: &mut Scenario| {
                    c.flows.remove(i);
                });
            }
        }
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
        let Some((params, incast)) = two_dc(sc) else {
            return out;
        };
        if sc.background_flows > 0 {
            push(&|c: &mut Scenario| c.background_flows = 0);
        }
        let spec = &incast.spec;
        if spec.knobs.failover {
            push(&|c: &mut Scenario| c.incasts[0].spec.knobs.failover = false);
        }
        // Each reshaped candidate places the incast again, as generated.
        let reshape = |params: TwoDcParams, degree: usize, bytes: u64| {
            move |c: &mut Scenario| {
                c.fabric = Fabric::TwoDc(params);
                let knobs = c.incasts[0].spec.knobs;
                c.incasts[0].spec = IncastSpec {
                    knobs,
                    ..c.fabric.placement(degree, bytes)
                };
            }
        };
        let (degree, bytes) = (spec.senders.len(), spec.total_bytes);
        if bytes > 100_000 {
            push(&reshape(params, degree, (bytes / 2).max(100_000)));
        }
        if degree > 1 {
            push(&reshape(params, degree / 2, bytes));
        }
        if params.spines_per_dc > 1 {
            push(&reshape(
                TwoDcParams {
                    spines_per_dc: params.spines_per_dc - 1,
                    ..params
                },
                degree,
                bytes,
            ));
        }
        if params.leaves_per_dc > 1 {
            push(&reshape(
                TwoDcParams {
                    leaves_per_dc: params.leaves_per_dc - 1,
                    ..params
                },
                degree,
                bytes,
            ));
        }
        if params.hosts_per_leaf > 2 {
            push(&reshape(
                TwoDcParams {
                    hosts_per_leaf: params.hosts_per_leaf - 1,
                    ..params
                },
                degree,
                bytes,
            ));
        }
        out
    }

    /// Transport × failover: the failover census shows that rate-based
    /// senders with failover on are exercised. A scenario counts as
    /// "+failover" only under a scheme whose senders can fail over (the
    /// end-to-end proxy schemes); Baseline and Naive ignore the flag.
    /// Pod fleets are a cell of their own.
    fn cell(case: &Case) -> Option<String> {
        let Some((_, incast)) = two_dc(&case.scenario) else {
            return Some("fleet".to_string());
        };
        let knobs = incast.spec.knobs;
        let fails_over = knobs.failover
            && matches!(
                incast.scheme,
                Scheme::ProxyStreamlined | Scheme::ProxyDetecting
            );
        let failover = if fails_over { "+failover" } else { "" };
        Some(format!(
            "{}{failover}",
            name_of(TRANSPORT_NAMES, knobs.transport)
        ))
    }

    fn describe(case: &Case) -> String {
        let sc = &case.scenario;
        let faults = format!(
            "faults={}w/{}i/{}c",
            sc.faults.link_windows.len(),
            sc.faults.impairments.len(),
            sc.faults.crashes.len(),
        );
        let shape = |p: &TwoDcParams| {
            format!(
                "{}x{}x{}",
                p.spines_per_dc, p.leaves_per_dc, p.hosts_per_leaf
            )
        };
        match (&sc.fabric, two_dc(sc)) {
            (_, Some((params, incast))) => format!(
                "scheme={:?} transport={:?} degree={} bytes={} topo={} bg={} {faults}",
                incast.scheme,
                incast.spec.knobs.transport,
                incast.spec.senders.len(),
                incast.spec.total_bytes,
                shape(&params),
                sc.background_flows,
            ),
            (Fabric::Pods { pods, params }, None) => format!(
                "fleet pods={pods} topo={} flows={} fidelity={}",
                shape(params),
                sc.flows.len(),
                sc.fidelity
            ),
            (fabric, None) => format!(
                "{fabric:?} incasts={} flows={} {faults}",
                sc.incasts.len(),
                sc.flows.len()
            ),
        }
    }

    fn details(o: &RunOutcome) -> Vec<String> {
        let summary = format!(
            "stop={} events={} completed={} open_flows={}",
            o.stop, o.events, o.completed, o.open_flows
        );
        [summary, format!("counters: {}", o.counters)]
            .into_iter()
            .chain(o.details.iter().cloned())
            .collect()
    }

    fn to_value(case: &Case) -> Json {
        let Json::Obj(fields) = case.scenario.to_json() else {
            unreachable!("a scenario is a JSON object")
        };
        let seed = ("sim_seed".to_string(), Json::u64(case.seed));
        Json::Obj([seed].into_iter().chain(fields).collect())
    }

    fn from_value(v: &Json) -> Result<Case, String> {
        Ok(Case {
            seed: v.get_u64("sim_seed")?,
            scenario: Scenario::from_json(v)?,
        })
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
    fn every_generated_case_round_trips_through_json() {
        let mut fleets = 0;
        for seed in 0..1000 {
            let case = Chaos::generate(seed);
            fleets += usize::from(case.scenario.threads.is_some());
            let json = Chaos::to_value(&case).render();
            let back = Chaos::from_value(&Json::parse(&json).unwrap()).expect("parse back");
            assert_eq!(case, back, "round-trip for seed {seed}\n{json}");
        }
        assert!(
            (60..200).contains(&fleets),
            "{fleets} pod fleets in 1000 seeds"
        );
    }

    #[test]
    fn census_counts_failover_only_where_senders_can_fail_over() {
        let mut case = (0..)
            .map(Chaos::generate)
            .find(|c| c.scenario.threads.is_none())
            .unwrap();
        let knobs = &mut case.scenario.incasts[0].spec.knobs;
        knobs.transport = Transport::RateBased;
        knobs.failover = true;
        for (scheme, cell) in [
            (Scheme::Baseline, "rate"),
            (Scheme::ProxyNaive, "rate"),
            (Scheme::ProxyStreamlined, "rate+failover"),
            (Scheme::ProxyDetecting, "rate+failover"),
        ] {
            case.scenario.incasts[0].scheme = scheme;
            assert_eq!(Chaos::cell(&case).as_deref(), Some(cell), "{scheme:?}");
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
        let mut case = Chaos::generate(3);
        case.scenario.faults = FaultPlan::new();
        case.scenario.audit = Some(chaos_audit(true));
        let (outcome, same) = check_replay::<Chaos>(&case);
        assert!(same, "replay diverged: {outcome:?}");
        assert!(outcome.is_ok(), "{outcome:?}");
        // The counters line names every nonzero count, ledger first.
        let lines = details::<Chaos>(&outcome);
        assert!(
            lines[1].starts_with("counters: dcsim.packet_ledger.created="),
            "{lines:?}"
        );
    }

    /// Background flows whose hosts' down-ToR ports drop every packet
    /// never finish, though the incast does. The plan counts as healing
    /// (impairments are no outage), so the run is `NeverIdle`; its detail
    /// claims only the incast, and the outcome and the replay line count
    /// the stranded flows.
    #[test]
    fn stranded_background_flows_are_counted_open_not_called_complete() {
        let fabric = Fabric::TwoDc(TwoDcParams::small_test());
        let spec = fabric.placement(2, 200_000);
        let busy = [
            spec.senders.clone(),
            vec![spec.receiver],
            spec.proxy.into_iter().collect(),
        ];
        let topo = fabric.topology();
        let mut faults = FaultPlan::new();
        for host in (0..topo.host_count() as u32).map(HostId) {
            if !busy.iter().flatten().any(|&h| h == host) {
                let port = topo.down_tor_port(host);
                faults.impairments.push(PortImpairment {
                    loss: 1.0,
                    ..PortImpairment::none(port)
                });
            }
        }
        assert!(plan_heals(&faults));
        let case = Case {
            seed: 1,
            scenario: Scenario {
                background_flows: 2,
                faults,
                time_limit: SimDuration::from_millis(200),
                audit: Some(chaos_audit(true)),
                ..Scenario::incast(fabric, Scheme::ProxyStreamlined, spec)
            },
        };
        let outcome = Chaos::run(&case);
        assert!(
            outcome.completed && outcome.stop == "time-limit",
            "{outcome:?}"
        );
        assert_eq!(outcome.open_flows, 2, "{outcome:?}");
        assert_eq!(outcome.violations, ["NeverIdle"], "{outcome:?}");
        let detail = &outcome.details[0];
        assert!(detail.contains("every incast completed"), "{detail}");
        assert!(detail.contains("with 2 other flows open"), "{detail}");
        let lines = Chaos::details(&outcome);
        assert!(
            lines[0].ends_with("completed=true open_flows=2"),
            "{lines:?}"
        );
    }

    #[test]
    fn a_pod_fleet_runs_clean_and_shrinks_to_fewer_pods_and_flows() {
        let case = (0..)
            .map(Chaos::generate)
            .find(|c| c.scenario.threads.is_some())
            .unwrap();
        let outcome = Chaos::run(&case);
        assert_eq!(Chaos::failure_kind(&outcome), None, "{outcome:?}");
        assert!(outcome.completed && outcome.stop == "idle", "{outcome:?}");
        let candidates = Chaos::candidates(&case);
        let pods = |c: &Case| match c.scenario.fabric {
            Fabric::Pods { pods, .. } => pods,
            _ => unreachable!("a fleet case"),
        };
        assert!(candidates.iter().any(|c| pods(c) == 1));
        let flows = case.scenario.flows.len();
        assert!(candidates
            .iter()
            .any(|c| c.scenario.flows.len() == flows - 1));
    }

    #[test]
    fn a_fleet_below_its_partition_is_a_setup_error() {
        let mut case = (0..)
            .map(Chaos::generate)
            .find(|c| c.scenario.threads.is_some())
            .unwrap();
        case.scenario.background_flows = 1;
        assert_eq!(Chaos::run(&case).stop, "setup-error");
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
}
