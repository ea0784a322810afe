//! Control-plane scenario fuzzer: shard crashes mid-incast, stale
//! placements, gossip delayed past lease expiry.
//!
//! The companion of [`crate::fuzz`] for the *control plane*: instead of
//! driving the packet simulator, each scenario drives a
//! [`ShardedOrchestrator`] through a deterministic, time-ordered schedule
//! of select / renew / release / double-release operations interleaved
//! with shard-crash windows from a [`FaultPlan`], while a model tracks
//! what every operation *should* observe (lease terms, fallback claims,
//! expected unknown-release count). Checked invariants:
//!
//! * **LeaseAccounting** — the [`LeaseLedger`] balance `granted ==
//!   released + expired + reclaimed + active` after every operation, and
//!   the plane's own [`ShardedOrchestrator::check_invariants`] (load index
//!   ≡ load map ≡ bytes live shards hold, orphan counts ≡ orphaned
//!   entries, `active` ≡ the lease table).
//! * **LeaseStateMismatch** — a renewal disagrees with the model: a lease
//!   inside its term reports `Expired`/`Unknown`, or a lapsed one reports
//!   `Renewed`/`Reclaimed`.
//! * **NoAssignment** — a select goes unserved (the degradation ladder
//!   must always produce a proxy while any candidate exists).
//! * **UnreclaimedLease** — leases still `active` (or draining) after
//!   quiescence.
//! * **HealthDivergence** — live shards' failure detectors have not
//!   converged on exactly the dead set after a bounded settle period.
//! * **ReleaseUnknownMismatch** — the audited [`release_unknown`]
//!   counter differs from the model's expected count (a lost lease or a
//!   double-free the audit missed).
//! * **Panic** — anything that unwinds.
//!
//! Failures shrink ([`shrink`]) to a minimal scenario preserving the
//! failure kind and serialize as self-contained JSON repros (tagged
//! `"type": "control-plane"` so `fuzz --replay` dispatches here; replays
//! run twice and compare, doubling as a determinism check).
//!
//! [`release_unknown`]: incast_core::orchestrator::ProxySelector::release_unknown

use crate::fuzz::mini_json::Json;
use dcsim::det::DetMap;
use dcsim::faults::{FaultPlan, ShardCrash};
use dcsim::packet::HostId;
use dcsim::time::{SimDuration, SimTime};
use incast_core::orchestrator::{
    IncastRequest, ProxySelector, RenewOutcome, ShardedConfig, ShardedOrchestrator, ShardedStats,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use trace::{derive_seed, SplitMix64};

/// Default per-finding budget of extra runs spent shrinking.
pub const DEFAULT_SHRINK_BUDGET: usize = 200;

// ---------------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------------

/// One self-contained control-plane fuzz scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct CpScenario {
    /// Seeds the orchestrator's decentralized fallback.
    pub sim_seed: u64,
    pub shards: u32,
    /// Proxy candidates `HostId(0..candidates)`.
    pub candidates: u32,
    /// Concurrent incast count.
    pub incasts: u64,
    /// Gap between consecutive incast arrivals (µs).
    pub arrival_gap_us: u64,
    /// Incast lifetime from select to release (µs).
    pub duration_us: u64,
    /// Holder renewal cadence (µs).
    pub renew_every_us: u64,
    pub lease_ttl_us: u64,
    pub heartbeat_us: u64,
    pub suspect_after_us: u64,
    /// Heartbeat delivery delay (µs) — may exceed the lease TTL, the
    /// "gossip slower than expiry" hazard.
    pub gossip_delay_us: u64,
    /// Every k-th incast is released twice (0 = never): the idempotence
    /// audit must count each duplicate, and nothing else.
    pub double_release_every: u64,
    /// Shard-crash windows (only `shard_crashes` is used).
    pub faults: FaultPlan,
}

impl CpScenario {
    fn config(&self) -> ShardedConfig {
        ShardedConfig {
            shards: self.shards,
            lease_ttl: SimDuration::from_micros(self.lease_ttl_us),
            heartbeat_every: SimDuration::from_micros(self.heartbeat_us),
            suspect_after: SimDuration::from_micros(self.suspect_after_us),
            gossip_delay: SimDuration::from_micros(self.gossip_delay_us),
            fallback_probes: 2,
        }
    }
}

// ---------------------------------------------------------------------------
// Running one scenario against the model
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Crash(u32),
    Restore(u32),
    Select(u64),
    Renew(u64),
    Release(u64),
}

/// The deterministic operation schedule a scenario expands into.
fn schedule(sc: &CpScenario) -> Vec<(u64, u8, Op)> {
    let mut ops = Vec::new();
    for crash in &sc.faults.shard_crashes {
        ops.push((crash.at.0 / 1_000_000, 0, Op::Crash(crash.shard)));
        if let Some(restore) = crash.restore_at {
            ops.push((restore.0 / 1_000_000, 1, Op::Restore(crash.shard)));
        }
    }
    for i in 0..sc.incasts {
        let start = i * sc.arrival_gap_us;
        ops.push((start, 2, Op::Select(i)));
        let mut at = sc.renew_every_us;
        while at < sc.duration_us {
            ops.push((start + at, 3, Op::Renew(i)));
            at += sc.renew_every_us;
        }
        ops.push((start + sc.duration_us, 4, Op::Release(i)));
        if sc.double_release_every > 0 && i % sc.double_release_every == 0 {
            ops.push((start + sc.duration_us + 1, 4, Op::Release(i)));
        }
    }
    ops.sort_by_key(|&(t, order, op)| {
        let id = match op {
            Op::Crash(s) | Op::Restore(s) => s as u64,
            Op::Select(i) | Op::Renew(i) | Op::Release(i) => i,
        };
        (t, order, id)
    });
    ops
}

/// What the model believes about one issued lease.
#[derive(Debug, Clone, Copy)]
struct IdModel {
    expires_at_us: u64,
    fallback: bool,
    dead: bool,
}

/// Everything observable about one scenario run, comparable across runs
/// for the determinism check.
#[derive(Debug, Clone)]
pub struct CpOutcome {
    /// Operations executed (schedule length).
    pub ops: u64,
    /// Final degradation-ladder counters.
    pub stats: ShardedStats,
    /// First violation, as `(kind, detail)` — `None` when clean.
    pub violation: Option<(String, String)>,
    /// Panic message, if the run panicked.
    pub panic: Option<String>,
}

fn stats_tuple(s: &ShardedStats) -> (u64, u64, u64, u64, u64, u64) {
    (
        s.takeovers,
        s.fallback_selections,
        s.stale_conflicts,
        s.reclaims,
        s.expirations,
        s.release_unknown,
    )
}

fn run_inner(sc: &CpScenario) -> CpOutcome {
    let candidates: Vec<HostId> = (0..sc.candidates).map(HostId).collect();
    let mut orch = ShardedOrchestrator::new(candidates, sc.config(), sc.sim_seed);
    let mut model: DetMap<u64, IdModel> = DetMap::new();
    let mut expected_unknown = 0u64;
    let t = |us: u64| SimTime::ZERO + SimDuration::from_micros(us);

    let ops = schedule(sc);
    let mut fail: Option<(String, String)> = None;
    let mut executed = 0u64;
    let mut last_us = 0u64;
    'drive: for &(at_us, _, op) in &ops {
        last_us = last_us.max(at_us);
        orch.advance_to(t(at_us));
        match op {
            Op::Crash(shard) => orch.crash_shard(shard % sc.shards),
            Op::Restore(shard) => orch.restore_shard(shard % sc.shards, t(at_us)),
            Op::Select(id) => {
                let selected = orch.select(&IncastRequest {
                    id,
                    senders: vec![HostId(2_000)],
                    receiver: HostId(1_000 + (id as u32 % 24)),
                    expected_bytes: 1 << 16,
                });
                if selected.is_none() {
                    fail = Some((
                        "NoAssignment".into(),
                        format!("select({id}) unserved with {} candidates", sc.candidates),
                    ));
                    break 'drive;
                }
                model.insert(
                    id,
                    IdModel {
                        expires_at_us: at_us + sc.lease_ttl_us,
                        fallback: orch.serves_via_fallback(id),
                        dead: false,
                    },
                );
            }
            Op::Renew(id) => {
                let outcome = orch.renew(id, t(at_us));
                if let Some(m) = model.get_mut(&id) {
                    let live = m.fallback || (!m.dead && m.expires_at_us > at_us);
                    match outcome {
                        RenewOutcome::Renewed | RenewOutcome::Reclaimed => {
                            if !live {
                                fail = Some((
                                    "LeaseStateMismatch".into(),
                                    format!(
                                        "lapsed lease {id} renewed as {outcome:?} at {at_us}us"
                                    ),
                                ));
                                break 'drive;
                            }
                            if !m.fallback {
                                m.expires_at_us = at_us + sc.lease_ttl_us;
                            }
                        }
                        RenewOutcome::Pending => {
                            if !live {
                                fail = Some((
                                    "LeaseStateMismatch".into(),
                                    format!("lapsed lease {id} parked as Pending at {at_us}us"),
                                ));
                                break 'drive;
                            }
                        }
                        RenewOutcome::Expired | RenewOutcome::Unknown => {
                            if live {
                                fail = Some((
                                    "LeaseStateMismatch".into(),
                                    format!(
                                        "lease {id} (term to {}us) lost as {outcome:?} at {at_us}us",
                                        m.expires_at_us
                                    ),
                                ));
                                break 'drive;
                            }
                            m.dead = true;
                        }
                    }
                }
            }
            Op::Release(id) => {
                let live = model
                    .remove(&id)
                    .map(|m| m.fallback || (!m.dead && m.expires_at_us > at_us))
                    .unwrap_or(false);
                if !live {
                    expected_unknown += 1;
                }
                orch.release(id);
            }
        }
        executed += 1;
        if !orch.ledger().balanced() {
            fail = Some((
                "LeaseAccounting".into(),
                format!("unbalanced after op {executed}: {:?}", orch.ledger()),
            ));
            break 'drive;
        }
        if let Err(broken) = orch.check_invariants() {
            fail = Some((
                "LeaseAccounting".into(),
                format!("after op {executed}: {broken}"),
            ));
            break 'drive;
        }
    }

    // Quiescence: long enough for every lease to expire or drain and for
    // one full gossip partner cycle plus the suspicion horizon.
    if fail.is_none() {
        let settle = sc.lease_ttl_us
            + sc.suspect_after_us
            + sc.gossip_delay_us
            + sc.heartbeat_us * (sc.shards as u64 + 16);
        let end = last_us + settle;
        let mut now = last_us;
        while now < end {
            now += sc.heartbeat_us.max(1);
            orch.advance_to(t(now));
        }
        if !orch.ledger().balanced() {
            fail = Some((
                "LeaseAccounting".into(),
                format!("unbalanced at quiescence: {:?}", orch.ledger()),
            ));
        } else if orch.ledger().active != 0 || orch.draining_leases() != 0 {
            fail = Some((
                "UnreclaimedLease".into(),
                format!(
                    "{} active / {} draining leases at quiescence: {:?}",
                    orch.ledger().active,
                    orch.draining_leases(),
                    orch.ledger()
                ),
            ));
        } else if !orch.health_converged() {
            fail = Some((
                "HealthDivergence".into(),
                format!(
                    "live shards disagree after {settle}us settle (alive={})",
                    orch.alive_shards()
                ),
            ));
        } else if orch.release_unknown() != expected_unknown {
            fail = Some((
                "ReleaseUnknownMismatch".into(),
                format!(
                    "audited {} unknown releases, model expected {expected_unknown}",
                    orch.release_unknown()
                ),
            ));
        }
    }

    CpOutcome {
        ops: executed,
        stats: orch.stats(),
        violation: fail,
        panic: None,
    }
}

impl PartialEq for CpOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.ops == other.ops
            && stats_tuple(&self.stats) == stats_tuple(&other.stats)
            && self.violation == other.violation
            && self.panic == other.panic
    }
}

/// Runs one scenario against the model, catching panics.
pub fn run_scenario(sc: &CpScenario) -> CpOutcome {
    match catch_unwind(AssertUnwindSafe(|| run_inner(sc))) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            CpOutcome {
                ops: 0,
                stats: ShardedStats::default(),
                violation: None,
                panic: Some(msg),
            }
        }
    }
}

/// Classifies an outcome. `None` = the scenario passed.
pub fn failure_kind(outcome: &CpOutcome) -> Option<String> {
    if outcome.panic.is_some() {
        return Some("Panic".to_string());
    }
    outcome.violation.as_ref().map(|(kind, _)| kind.clone())
}

/// Runs the scenario twice and checks the outcomes are identical.
pub fn check_replay(sc: &CpScenario) -> (CpOutcome, bool) {
    let a = run_scenario(sc);
    let b = run_scenario(sc);
    let same = a == b;
    (a, same)
}

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

/// Generates the scenario for a fuzz seed. Pure function of the seed.
pub fn generate(fuzz_seed: u64) -> CpScenario {
    let mut rng = SplitMix64::new(derive_seed(fuzz_seed, 0xC0DE));
    let shards = 1 + rng.next_bounded(8) as u32;
    let heartbeat_us = 40 + rng.next_bounded(200);
    let lease_ttl_us = 300 + rng.next_bounded(1_800);
    // Mostly sane delivery delays, sometimes pathological: slower than
    // the lease TTL, so suspicion can form only after orphans expire.
    let gossip_delay_us = if rng.next_bounded(5) == 0 {
        lease_ttl_us + rng.next_bounded(lease_ttl_us)
    } else {
        5 + rng.next_bounded(heartbeat_us)
    };
    // Enough slack that a live pair's direct-heartbeat gap (one partner
    // cycle) never reads as silence.
    let suspect_after_us =
        heartbeat_us * (shards as u64 + 2) + gossip_delay_us + 10 + rng.next_bounded(500);
    let incasts = 4 + rng.next_bounded(120);
    let span_us = incasts * (10 + rng.next_bounded(80));
    let mut faults = FaultPlan::new();
    for _ in 0..rng.next_bounded(4) {
        let shard = rng.next_bounded(shards as u64) as u32;
        let at = SimTime::ZERO + SimDuration::from_micros(rng.next_bounded(span_us.max(1)));
        if rng.next_bounded(3) == 0 {
            faults = faults.crash_shard(shard, at);
        } else {
            let dur = SimDuration::from_micros(100 + rng.next_bounded(span_us.max(1)));
            faults = faults.crash_shard_window(shard, at, at + dur);
        }
    }
    debug_assert!(faults.validate().is_ok(), "generated plan must validate");
    CpScenario {
        sim_seed: derive_seed(fuzz_seed, 0x51ED),
        shards,
        candidates: 1 + rng.next_bounded(16) as u32,
        incasts,
        arrival_gap_us: 10 + rng.next_bounded(80),
        duration_us: 200 + rng.next_bounded(3_000),
        renew_every_us: (lease_ttl_us / 4).max(1) + rng.next_bounded((lease_ttl_us / 4).max(1)),
        lease_ttl_us,
        heartbeat_us,
        suspect_after_us,
        gossip_delay_us,
        double_release_every: [0, 0, 3, 7][rng.next_bounded(4) as usize],
        faults,
    }
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

/// One-step simplifications of a scenario, most aggressive first.
fn candidates_of(sc: &CpScenario) -> Vec<CpScenario> {
    let mut out = Vec::new();
    let mut push = |f: &dyn Fn(&mut CpScenario)| {
        let mut c = sc.clone();
        f(&mut c);
        out.push(c);
    };
    for i in 0..sc.faults.shard_crashes.len() {
        push(&|c: &mut CpScenario| {
            c.faults.shard_crashes.remove(i);
        });
    }
    if sc.incasts > 1 {
        push(&|c: &mut CpScenario| c.incasts /= 2);
        push(&|c: &mut CpScenario| c.incasts -= 1);
    }
    if sc.double_release_every > 0 {
        push(&|c: &mut CpScenario| c.double_release_every = 0);
    }
    if sc.shards > 1 {
        push(&|c: &mut CpScenario| c.shards -= 1);
    }
    if sc.candidates > 1 {
        push(&|c: &mut CpScenario| c.candidates = 1);
    }
    if sc.duration_us > 200 {
        push(&|c: &mut CpScenario| c.duration_us /= 2);
    }
    if sc.gossip_delay_us > 5 {
        push(&|c: &mut CpScenario| c.gossip_delay_us /= 2);
    }
    out
}

/// Greedy delta-debugging, mirroring [`crate::fuzz::shrink`].
pub fn shrink(sc: &CpScenario, kind: &str, budget: usize) -> (CpScenario, usize) {
    let mut current = sc.clone();
    let mut runs = 0;
    'outer: loop {
        for cand in candidates_of(&current) {
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
pub struct CpFinding {
    pub seed: u64,
    pub kind: String,
    pub original: CpScenario,
    pub shrunk: CpScenario,
    pub outcome: CpOutcome,
    pub shrink_runs: usize,
}

/// Runs `count` seeded scenarios in parallel, then shrinks each failure
/// serially. Fully deterministic for a given `(start_seed, count)`.
pub fn run_campaign(
    start_seed: u64,
    count: u64,
    jobs: usize,
    shrink_budget: usize,
) -> Vec<CpFinding> {
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
            findings.push(CpFinding {
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
// Repro files
// ---------------------------------------------------------------------------

/// A committed control-plane repro, tagged `"type": "control-plane"` so
/// the replay entry point dispatches between fuzzer families.
#[derive(Debug, Clone, PartialEq)]
pub struct CpReproFile {
    pub found_with_seed: u64,
    /// `"clean"` or a failure kind (see [`failure_kind`]).
    pub expect: String,
    pub note: String,
    pub scenario: CpScenario,
}

impl CpReproFile {
    /// Checks a replay outcome against `expect`.
    pub fn matches(&self, outcome: &CpOutcome) -> bool {
        match failure_kind(outcome) {
            None => self.expect == "clean",
            Some(kind) => self.expect == kind,
        }
    }
}

/// True when `text` is a control-plane repro (vs a simulator repro).
pub fn is_control_plane_repro(text: &str) -> bool {
    Json::parse(text)
        .ok()
        .and_then(|v| v.get_str("type").ok().map(|t| t == "control-plane"))
        .unwrap_or(false)
}

impl CpScenario {
    fn to_value(&self) -> Json {
        let crashes = self
            .faults
            .shard_crashes
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("shard", Json::u64(c.shard as u64)),
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
            ("shards", Json::u64(self.shards as u64)),
            ("candidates", Json::u64(self.candidates as u64)),
            ("incasts", Json::u64(self.incasts)),
            ("arrival_gap_us", Json::u64(self.arrival_gap_us)),
            ("duration_us", Json::u64(self.duration_us)),
            ("renew_every_us", Json::u64(self.renew_every_us)),
            ("lease_ttl_us", Json::u64(self.lease_ttl_us)),
            ("heartbeat_us", Json::u64(self.heartbeat_us)),
            ("suspect_after_us", Json::u64(self.suspect_after_us)),
            ("gossip_delay_us", Json::u64(self.gossip_delay_us)),
            ("double_release_every", Json::u64(self.double_release_every)),
            ("shard_crashes", Json::Arr(crashes)),
        ])
    }

    fn from_value(v: &Json) -> Result<CpScenario, String> {
        let mut faults = FaultPlan::new();
        for c in v
            .get("shard_crashes")
            .ok_or("missing shard_crashes")?
            .arr()?
        {
            faults.shard_crashes.push(ShardCrash {
                shard: c.get_u64("shard")? as u32,
                at: SimTime(c.get_u64("at_ps")?),
                restore_at: match c.get("restore_at_ps") {
                    Some(Json::Null) | None => None,
                    Some(r) => Some(SimTime(r.u64_value()?)),
                },
            });
        }
        Ok(CpScenario {
            sim_seed: v.get_u64("sim_seed")?,
            shards: v.get_u64("shards")? as u32,
            candidates: v.get_u64("candidates")? as u32,
            incasts: v.get_u64("incasts")?,
            arrival_gap_us: v.get_u64("arrival_gap_us")?,
            duration_us: v.get_u64("duration_us")?,
            renew_every_us: v.get_u64("renew_every_us")?,
            lease_ttl_us: v.get_u64("lease_ttl_us")?,
            heartbeat_us: v.get_u64("heartbeat_us")?,
            suspect_after_us: v.get_u64("suspect_after_us")?,
            gossip_delay_us: v.get_u64("gossip_delay_us")?,
            double_release_every: v.get_u64("double_release_every")?,
            faults,
        })
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_value().render()
    }

    /// Parses a scenario from JSON text.
    pub fn from_json(text: &str) -> Result<CpScenario, String> {
        CpScenario::from_value(&Json::parse(text)?)
    }
}

impl CpReproFile {
    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        Json::obj(vec![
            ("type", Json::str("control-plane")),
            ("found_with_seed", Json::u64(self.found_with_seed)),
            ("expect", Json::str(&self.expect)),
            ("note", Json::str(&self.note)),
            ("scenario", self.scenario.to_value()),
        ])
        .render()
    }

    /// Parses a repro file from JSON text.
    pub fn from_json(text: &str) -> Result<CpReproFile, String> {
        let v = Json::parse(text)?;
        if v.get_str("type")? != "control-plane" {
            return Err("not a control-plane repro".to_string());
        }
        Ok(CpReproFile {
            found_with_seed: v.get_u64("found_with_seed")?,
            expect: v.get_str("expect")?.to_string(),
            note: v.get_str("note")?.to_string(),
            scenario: CpScenario::from_value(v.get("scenario").ok_or("missing scenario")?)?,
        })
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
            let back = CpScenario::from_json(&json).expect("parse back");
            assert_eq!(sc, back, "round-trip for seed {seed}\n{json}");
        }
    }

    #[test]
    fn repro_type_tag_dispatches() {
        let repro = CpReproFile {
            found_with_seed: 1,
            expect: "clean".to_string(),
            note: "tag check".to_string(),
            scenario: generate(1),
        };
        let json = repro.to_json();
        assert!(is_control_plane_repro(&json));
        assert_eq!(CpReproFile::from_json(&json).unwrap(), repro);
        // A simulator repro (no tag) must not dispatch here.
        assert!(!is_control_plane_repro("{\"found_with_seed\": 1}"));
    }

    #[test]
    fn crash_free_scenarios_pass() {
        for seed in 0..10 {
            let mut sc = generate(seed);
            sc.faults = FaultPlan::new();
            let outcome = run_scenario(&sc);
            assert!(
                failure_kind(&outcome).is_none(),
                "seed {seed} failed: {outcome:?}"
            );
        }
    }

    #[test]
    fn crashing_scenarios_replay_deterministically() {
        for seed in 0..10 {
            let sc = generate(seed);
            let (outcome, same) = check_replay(&sc);
            assert!(same, "seed {seed} diverged: {outcome:?}");
        }
    }
}
