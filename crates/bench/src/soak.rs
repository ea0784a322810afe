//! The soak family (`"soak"`): the live streamlined [`ShardedRelay`] on
//! loopback sockets, under a [`FaultPlan`] run by its socket shim (shard
//! crashes and stalls included) and the overload shed ladder. A soak is
//! one [`LiveRun`], run by [`live::run`] and judged by the live ledger
//! ([`live::judge`]): zero unexplained loss, with one second of traffic as
//! the crash-loss budget.
//!
//! A run's outcome is the set of ledger checks that failed. Only that set
//! is compared when a replay runs a scenario twice: the counts behind the
//! checks come from real sockets and real clocks and never repeat, so
//! they go to [`Family::details`] and nowhere else. A campaign runs one
//! scenario at a time ([`Family::SERIAL`]) for the same reason.
//!
//! [`ShardedRelay`]: netproxy::shard::ShardedRelay

use crate::fuzz::Family;
use crate::live::{self, wedge_timeout, Ledger, LiveRun, Path};
use dcsim::faults::{FaultPlan, PortImpairment, SyscallErrors};
use dcsim::time::{SimDuration, SimTime};
use incast_core::scenario::{field, Codec};
use netproxy::fault::{check_plan, INBOUND, OUTBOUND};
use netproxy::loadgen::BatchLoadGen;
use netproxy::shard::{effective_shards, RelayKind};
use netproxy::SocketLayer;
use std::time::Duration;
use trace::json::{from_name, name_of, Json};
use trace::{derive_seed, SplitMix64};

/// How long the generator's workers keep draining backflow after they
/// stop sending: faulted relays hold feedback (delay faults, restart
/// windows), so it gets a real chance to land.
const DRAIN_GRACE: Duration = Duration::from_millis(500);

/// A soak's relay: streamlined, on `shards` workers.
fn relay(shards: usize) -> Path {
    Path::Sharded {
        kind: RelayKind::Streamlined,
        shards,
    }
}

/// Checks that a soak runs as written: a streamlined relay with the
/// soak's drain grace, a plan the shim accepts on shards the relay runs,
/// every blackout and crash inside the run, and every stall a wedge that
/// ends inside it: at least twice [`netproxy::supervisor::WEDGE_TIMEOUT`]
/// long, so the supervisor surely supersedes the stalled worker. (The load
/// generator asserts its own shape.)
///
/// # Errors
/// What is wrong, in words.
pub fn validate(run: &LiveRun) -> Result<(), String> {
    let Path::Sharded {
        kind: RelayKind::Streamlined,
        shards,
    } = run.path
    else {
        return Err("a soak runs a streamlined relay".to_string());
    };
    if run.load.drain_grace != DRAIN_GRACE {
        return Err(format!("a soak drains for {DRAIN_GRACE:?}"));
    }
    check_plan(&run.faults).map_err(|e| e.to_string())?;
    let (f, shards) = (&run.faults, effective_shards(shards) as u32);
    let end = SimTime::ZERO + SimDuration::from_millis(run.load.duration.as_millis() as u64);
    if f.link_windows.iter().any(|w| w.down_at >= end) {
        return Err(format!("a blackout comes after the run ends at {end}"));
    }
    for c in &f.shard_crashes {
        let stall = |p: &dyn Fn(SimTime) -> bool| c.restore_at.is_some_and(p);
        let why = if c.shard >= shards {
            format!("of {shards} shards")
        } else if stall(&|until| until.since(c.at) < wedge_timeout().saturating_mul(2)) {
            "a stall shorter than two wedge timeouts".to_string()
        } else if c.at >= end || stall(&|until| until > end) {
            format!("after the run ends at {end}")
        } else {
            continue;
        };
        return Err(format!("shard crash {c:?}: {why}"));
    }
    Ok(())
}

const LAYER_NAMES: &[(&str, SocketLayer)] = &[
    ("auto", SocketLayer::Auto),
    ("mmsg", SocketLayer::Mmsg),
    ("fallback", SocketLayer::Fallback),
];

/// The live relay under a fault plan, shard crashes and stalls, and
/// overload.
#[derive(Debug, Clone, PartialEq)]
pub struct Soak;

impl Family for Soak {
    const TAG: Option<&'static str> = Some("soak");
    const SERIAL: bool = true;
    type Scenario = LiveRun;
    type Outcome = Ledger;

    /// Two to three seconds of the recipe's shape, each fault kind on or
    /// off per direction at rates that engage within the run (a relay
    /// shard makes only some hundreds of socket calls a second), each
    /// direction's blackout in its own part of the run before the shard
    /// crashes, so both see traffic, and shard 0's crash, the last shard's
    /// stall of two wedge timeouts and the shed ladder each on or off.
    fn generate(fuzz_seed: u64) -> LiveRun {
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
        // Shard 0 crashes at 40-47 % of the run; the last shard stalls
        // from 52-56 % for two wedge timeouts, which ends inside even the
        // shortest run. When that is shard 0 too, the stall comes at least
        // 100 ms after the crash, when the replacement surely runs: an
        // entry whose time falls before its shard's restart never fires.
        if rng.next_bounded(4) != 0 {
            faults = faults.crash_shard(0, at(40 + rng.next_bounded(8)));
        }
        if coin(&mut rng) {
            let from = at(52 + rng.next_bounded(5));
            let last = effective_shards(shards) as u32 - 1;
            faults =
                faults.crash_shard_window(last, from, from + wedge_timeout().saturating_mul(2));
        }
        // The ladder coalesces a flow's second NACK in one batch; fewer,
        // busier flows and a budget well under the offered load make
        // that happen within the run.
        let per_shard = rate_pps / shards as u64;
        let overload_pps = coin(&mut rng).then(|| per_shard * (3 + rng.next_bounded(3)) / 10);
        let flows_per_thread = match overload_pps {
            Some(_) => 32,
            None => [32, 64][rng.next_bounded(2) as usize],
        };
        let load = BatchLoadGen {
            threads: 2,
            flows_per_thread,
            rate_pps,
            duration: Duration::from_millis(duration_ms),
            trim_fraction: 0.1 + 0.15 * rng.next_f64(),
            payload_len: [64, 256, 1024][rng.next_bounded(3) as usize],
            layer,
            drain_grace: DRAIN_GRACE,
        };
        let run = LiveRun {
            faults,
            fault_seed: derive_seed(fuzz_seed, 0xFA17),
            overload_pps: overload_pps.unwrap_or(0),
            ..LiveRun::clean(relay(shards), load)
        };
        debug_assert_eq!(validate(&run), Ok(()), "generated soak must validate");
        run
    }

    fn run(run: &LiveRun) -> Ledger {
        live::run(run).ledger
    }

    fn failure_kind(outcome: &Ledger) -> Option<String> {
        outcome.failed.first().map(|name| name.to_string())
    }

    /// Faults first (an impairment, then each of its draws; a blackout;
    /// a syscall-error entry), then each shard crash or stall and the
    /// shed ladder, then a run half as long with every time in it halved
    /// but each stall as long as it was. A step that would not run as
    /// written (a stall that no longer fits the halved run) is left out.
    fn candidates(run: &LiveRun) -> Vec<LiveRun> {
        let mut out = Vec::new();
        let mut push = |f: &dyn Fn(&mut LiveRun)| {
            let mut c = run.clone();
            f(&mut c);
            out.push(c);
        };
        for (i, imp) in run.faults.impairments.iter().enumerate() {
            push(&|c: &mut LiveRun| {
                c.faults.impairments.remove(i);
            });
            if imp.loss > 0.0 {
                push(&|c: &mut LiveRun| c.faults.impairments[i].loss = 0.0);
            }
            if imp.corrupt > 0.0 {
                push(&|c: &mut LiveRun| c.faults.impairments[i].corrupt = 0.0);
            }
            if imp.duplicate > 0.0 {
                push(&|c: &mut LiveRun| c.faults.impairments[i].duplicate = 0.0);
            }
            if imp.delay > 0.0 {
                push(&|c: &mut LiveRun| {
                    let imp = &mut c.faults.impairments[i];
                    (imp.delay, imp.delay_max) = (0.0, SimDuration::ZERO);
                });
            }
        }
        for i in 0..run.faults.link_windows.len() {
            push(&|c: &mut LiveRun| {
                c.faults.link_windows.remove(i);
            });
        }
        for i in 0..run.faults.syscall_errors.len() {
            push(&|c: &mut LiveRun| {
                c.faults.syscall_errors.remove(i);
            });
        }
        for i in 0..run.faults.shard_crashes.len() {
            push(&|c: &mut LiveRun| {
                c.faults.shard_crashes.remove(i);
            });
        }
        if run.overload_pps > 0 {
            push(&|c: &mut LiveRun| c.overload_pps = 0);
        }
        if run.load.duration >= Duration::from_secs(1) {
            let half = |t: SimTime| SimTime(t.0 / 2);
            push(&|c: &mut LiveRun| {
                c.load.duration /= 2;
                for w in &mut c.faults.link_windows {
                    w.down_at = half(w.down_at);
                    w.up_at = w.up_at.map(half);
                }
                for s in &mut c.faults.shard_crashes {
                    let stall = s.restore_at.map(|until| until.since(s.at));
                    s.at = half(s.at);
                    s.restore_at = stall.map(|stall| s.at + stall);
                }
            });
        }
        out.retain(|c| validate(c).is_ok());
        out
    }

    fn describe(run: &LiveRun) -> String {
        let (f, load) = (&run.faults, &run.load);
        let faults = [
            f.impairments.len(),
            f.link_windows.len(),
            f.syscall_errors.len(),
        ];
        let ms = |t: SimTime| t.0 / 1_000_000_000;
        let chaos: Vec<String> = (f.shard_crashes.iter())
            .map(|c| match c.restore_at {
                None => format!("shard {} crashes at {} ms", c.shard, ms(c.at)),
                Some(r) => format!("shard {} stalls {}-{} ms", c.shard, ms(c.at), ms(r)),
            })
            .collect();
        format!(
            "{} ms on {}, {} shard(s), {} pps; faults (impairments, windows, errors) \
             {faults:?}; shard crashes [{}]; overload {} pps",
            load.duration.as_millis(),
            load.layer.name(),
            shards(run),
            load.rate_pps,
            chaos.join(", "),
            run.overload_pps
        )
    }

    fn details(outcome: &Ledger) -> Vec<String> {
        outcome.lines.clone()
    }

    /// The socket layer and the chaos: `crash`, `stall`, `crash+stall`
    /// or `none`.
    fn cell(run: &LiveRun) -> Option<String> {
        let crashes = &run.faults.shard_crashes;
        let crash = crashes.iter().any(|c| c.restore_at.is_none());
        let stall = crashes.iter().any(|c| c.restore_at.is_some());
        let chaos = match (crash, stall) {
            (true, true) => "crash+stall",
            (true, false) => "crash",
            (false, true) => "stall",
            (false, false) => "none",
        };
        Some(format!("{} {chaos}", name_of(LAYER_NAMES, run.load.layer)))
    }

    fn to_value(run: &LiveRun) -> Json {
        let load = &run.load;
        Json::obj(vec![
            ("fault_seed", run.fault_seed.enc()),
            ("layer", Json::str(name_of(LAYER_NAMES, load.layer))),
            ("shards", shards(run).enc()),
            ("threads", load.threads.enc()),
            ("flows_per_thread", load.flows_per_thread.enc()),
            ("rate_pps", load.rate_pps.enc()),
            ("trim", load.trim_fraction.enc()),
            ("payload", load.payload_len.enc()),
            ("duration_ms", (load.duration.as_millis() as u64).enc()),
            ("overload_pps", run.overload_pps.enc()),
            ("faults", run.faults.enc()),
        ])
    }

    fn from_value(v: &Json) -> Result<LiveRun, String> {
        let load = BatchLoadGen {
            threads: field(v, "threads")?,
            flows_per_thread: field(v, "flows_per_thread")?,
            rate_pps: field(v, "rate_pps")?,
            duration: Duration::from_millis(field(v, "duration_ms")?),
            trim_fraction: field(v, "trim")?,
            payload_len: field(v, "payload")?,
            layer: from_name(LAYER_NAMES, "socket layer", v.get_str("layer")?)?,
            drain_grace: DRAIN_GRACE,
        };
        let run = LiveRun {
            faults: field(v, "faults")?,
            fault_seed: field(v, "fault_seed")?,
            overload_pps: field(v, "overload_pps")?,
            ..LiveRun::clean(relay(field(v, "shards")?), load)
        };
        validate(&run)?;
        Ok(run)
    }
}

/// The relay's shard count as the scenario asks for it (0 for a path
/// without a relay, which [`validate`] refuses).
fn shards(run: &LiveRun) -> usize {
    match run.path {
        Path::Sharded { shards, .. } => shards,
        Path::Direct => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::ReproFile;

    /// The committed 20 s soak recipe.
    fn recipe() -> LiveRun {
        let text = include_str!("../soak-recipes/recipe-fallback.json");
        ReproFile::<Soak>::from_json(text)
            .expect("the recipe parses")
            .scenario
    }

    fn ms(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn generation_is_deterministic_and_valid() {
        assert_eq!(Soak::generate(7), Soak::generate(7));
        assert_ne!(Soak::generate(7), Soak::generate(8));
        // A generated stall no longer fits a run half as long, so its
        // shrinker offers no halving.
        for seed in 0..200 {
            let run = Soak::generate(seed);
            assert_eq!(validate(&run), Ok(()), "seed {seed}");
            let stalls = run
                .faults
                .shard_crashes
                .iter()
                .any(|c| c.restore_at.is_some());
            let candidates = Soak::candidates(&run);
            assert!(candidates.iter().all(|c| validate(c).is_ok()));
            let halved = candidates
                .iter()
                .any(|c| c.load.duration < run.load.duration);
            assert_eq!(halved, !stalls, "seed {seed}");
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

    /// Shrinking sheds every fault before it touches a shard crash or
    /// stall, the shed ladder or the length of the run; halving the run
    /// keeps each stall's length; and every step it can take is a
    /// scenario that runs as written.
    #[test]
    fn candidates_drop_faults_first_and_stay_valid() {
        let full = recipe();
        assert_eq!(Soak::cell(&full).as_deref(), Some("fallback crash+stall"));
        let has_faults = |c: &LiveRun| {
            let f = &c.faults;
            !(f.impairments.is_empty() && f.link_windows.is_empty() && f.syscall_errors.is_empty())
        };
        let keeps_chaos = |c: &LiveRun| {
            (&c.faults.shard_crashes, c.overload_pps, c.load.duration)
                == (
                    &full.faults.shard_crashes,
                    full.overload_pps,
                    full.load.duration,
                )
        };
        let mut sc = full.clone();
        while has_faults(&sc) {
            let candidates = Soak::candidates(&sc);
            assert!(candidates.iter().all(|c| validate(c).is_ok()));
            let first = candidates[0].clone();
            assert!(keeps_chaos(&first), "{first:?}");
            assert_ne!(first.faults, sc.faults);
            sc = first;
        }
        let candidates = Soak::candidates(&sc);
        assert!(candidates.iter().all(|c| validate(c).is_ok()));
        assert_eq!(candidates.len(), 4, "crash, stall, overload, length");
        let crashes = |c: &LiveRun| c.faults.shard_crashes.clone();
        assert_eq!(crashes(&candidates[0]), full.faults.shard_crashes[1..]);
        assert_eq!(crashes(&candidates[1]), full.faults.shard_crashes[..1]);
        assert_eq!(candidates[2].overload_pps, 0);
        assert_eq!(candidates[3].load.duration, Duration::from_secs(10));
        assert_eq!(
            crashes(&candidates[3]),
            FaultPlan::new()
                .crash_shard(0, ms(5_000))
                .crash_shard_window(1, ms(6_000), ms(6_800))
                .shard_crashes
        );
        // Every single step off the full recipe, in order: all fault
        // removals come before the first step that changes anything else
        // (halving the run halves its windows, but keeps each one).
        let steps = Soak::candidates(&full);
        let keeps_faults = |c: &LiveRun| {
            let (f, g) = (&c.faults, &full.faults);
            (&f.impairments, &f.syscall_errors, f.link_windows.len())
                == (&g.impairments, &g.syscall_errors, g.link_windows.len())
        };
        let first_other = steps.iter().position(keeps_faults).unwrap();
        assert!(steps[..first_other].iter().all(keeps_chaos));
        assert!(steps[first_other..].iter().all(keeps_faults));
        assert!(steps.iter().all(|c| validate(c).is_ok()));
    }

    #[test]
    fn an_invalid_scenario_is_refused_on_read() {
        let end = recipe().load.duration.as_millis() as u64;
        let stall = |at, until| FaultPlan::new().crash_shard_window(1, ms(at), ms(until));
        for (faults, why) in [
            (
                FaultPlan::new().crash_shard(0, ms(end)),
                "after the run ends",
            ),
            (FaultPlan::new().crash_shard(2, ms(100)), "of 2 shards"),
            (stall(100, 899), "shorter than two wedge timeouts"),
            (stall(end - 900, end + 1), "after the run"),
        ] {
            let mut sc = recipe();
            sc.faults = faults;
            let err = Soak::from_value(&Soak::to_value(&sc)).unwrap_err();
            assert!(err.contains(why), "{err}");
        }
    }
}
