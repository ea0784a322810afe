//! Control-plane fuzzer family: shard crashes mid-incast, stale
//! placements, gossip delayed past lease expiry.
//!
//! The [`crate::fuzz`] engine's family for the *control plane*: instead
//! of driving the packet simulator, each scenario drives a
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
//!   inside its term reports `Expired`, or a lapsed one reports
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
//! * **Panic** — anything that unwinds (caught by the engine).
//!
//! The engine shrinks failures and writes them as repro files tagged
//! `"type": "control-plane"`, which is how `fuzz --replay` finds this
//! family.
//!
//! [`release_unknown`]: incast_core::orchestrator::ProxySelector::release_unknown

use crate::fuzz::Family;
use dcsim::faults::FaultPlan;
use dcsim::packet::HostId;
use dcsim::time::{SimDuration, SimTime};
use incast_core::orchestrator::{
    IncastRequest, ProxySelector, RenewOutcome, ShardedConfig, ShardedOrchestrator, ShardedStats,
};
use incast_core::scenario::Codec;
use std::collections::BTreeMap;
use trace::json::Json;
use trace::{derive_seed, SplitMix64};

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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpOutcome {
    /// Operations executed (schedule length).
    pub ops: u64,
    /// Final degradation-ladder counters.
    pub stats: ShardedStats,
    /// First violation, as `(kind, detail)` — `None` when clean.
    pub violation: Option<(String, String)>,
}

/// Drives one scenario against the lifecycle model.
fn run_inner(sc: &CpScenario) -> CpOutcome {
    let candidates: Vec<HostId> = (0..sc.candidates).map(HostId).collect();
    let mut orch = ShardedOrchestrator::new(candidates, sc.config(), sc.sim_seed);
    let mut model: BTreeMap<u64, IdModel> = BTreeMap::new();
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
                        RenewOutcome::Expired => {
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
                format!("unbalanced after op {executed}: {}", orch.ledger()),
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
                format!("unbalanced at quiescence: {}", orch.ledger()),
            ));
        } else if orch.ledger().active != 0 || orch.draining_leases() != 0 {
            fail = Some((
                "UnreclaimedLease".into(),
                format!(
                    "{} active / {} draining leases at quiescence: {}",
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
    }
}

/// The sharded lease plane against its lease-lifecycle model.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlPlane;

impl Family for ControlPlane {
    const TAG: Option<&'static str> = Some("control-plane");
    type Scenario = CpScenario;
    type Outcome = CpOutcome;

    fn generate(fuzz_seed: u64) -> CpScenario {
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

    fn run(sc: &CpScenario) -> CpOutcome {
        run_inner(sc)
    }

    fn failure_kind(outcome: &CpOutcome) -> Option<String> {
        outcome.violation.as_ref().map(|(kind, _)| kind.clone())
    }

    fn candidates(sc: &CpScenario) -> Vec<CpScenario> {
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

    fn describe(sc: &CpScenario) -> String {
        format!(
            "shards={} candidates={} incasts={} ttl={}us heartbeat={}us \
             suspect={}us gossip_delay={}us dup_release_every={} crashes={}",
            sc.shards,
            sc.candidates,
            sc.incasts,
            sc.lease_ttl_us,
            sc.heartbeat_us,
            sc.suspect_after_us,
            sc.gossip_delay_us,
            sc.double_release_every,
            sc.faults.shard_crashes.len(),
        )
    }

    fn details(o: &CpOutcome) -> Vec<String> {
        let summary = format!("ops={} {}", o.ops, o.stats);
        let violation = o.violation.iter().map(|(kind, d)| format!("{kind}: {d}"));
        std::iter::once(summary).chain(violation).collect()
    }

    fn to_value(sc: &CpScenario) -> Json {
        sc.enc()
    }

    fn from_value(v: &Json) -> Result<CpScenario, String> {
        Codec::dec(v)
    }
}

incast_core::codec! {
    CpScenario {
        sim_seed, shards, candidates, incasts, arrival_gap_us, duration_us, renew_every_us,
        lease_ttl_us, heartbeat_us, suspect_after_us, gossip_delay_us, double_release_every,
        faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::{check_replay, failure_kind, run_scenario, ReproFile};

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(ControlPlane::generate(7), ControlPlane::generate(7));
        assert_ne!(ControlPlane::generate(7), ControlPlane::generate(8));
    }

    #[test]
    fn scenario_json_round_trips() {
        for seed in [1, 2, 3, 4, 5] {
            let sc = ControlPlane::generate(seed);
            let json = ControlPlane::to_value(&sc).render();
            let back = ControlPlane::from_value(&Json::parse(&json).unwrap()).expect("parse back");
            assert_eq!(sc, back, "round-trip for seed {seed}\n{json}");
        }
    }

    #[test]
    fn repro_file_is_tagged_and_round_trips() {
        let repro = ReproFile::<ControlPlane> {
            found_with_seed: 1,
            expect: "clean".to_string(),
            note: "tag check".to_string(),
            scenario: ControlPlane::generate(1),
        };
        let json = repro.to_json();
        assert!(
            json.starts_with("{\n  \"type\": \"control-plane\",\n"),
            "{json}"
        );
        assert_eq!(ReproFile::from_json(&json).unwrap(), repro);
    }

    #[test]
    fn crash_free_scenarios_pass() {
        for seed in 0..10 {
            let mut sc = ControlPlane::generate(seed);
            sc.faults = FaultPlan::new();
            let outcome = run_scenario::<ControlPlane>(&sc);
            assert!(
                failure_kind::<ControlPlane>(&outcome).is_none(),
                "seed {seed} failed: {outcome:?}"
            );
        }
    }

    #[test]
    fn crashing_scenarios_replay_deterministically() {
        for seed in 0..10 {
            let sc = ControlPlane::generate(seed);
            let (outcome, same) = check_replay::<ControlPlane>(&sc);
            assert!(same, "seed {seed} diverged: {outcome:?}");
        }
    }
}
