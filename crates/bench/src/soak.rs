//! The soak family (`"soak"`): the live streamlined [`ShardedRelay`] on
//! loopback sockets, under a [`FaultPlan`] run by its socket shim, a
//! mid-run shard crash and wedge and the overload shed ladder. A soak is
//! one [`live::run`], judged by the live ledger ([`live::judge`]): zero
//! unexplained loss, with one second of traffic as the crash-loss budget.
//!
//! A run's outcome is the set of ledger checks that failed. Only that set
//! is compared when a replay runs a scenario twice: the counts behind the
//! checks come from real sockets and real clocks and never repeat, so
//! they go to [`Family::details`] and nowhere else. A campaign runs one
//! scenario at a time ([`Family::SERIAL`]) for the same reason.
//!
//! [`ShardedRelay`]: netproxy::shard::ShardedRelay

use crate::fuzz::Family;
use crate::live::{self, Ledger, LiveRun, Path};
use dcsim::faults::{FaultPlan, PortImpairment, SyscallErrors};
use dcsim::time::{SimDuration, SimTime};
use incast_core::scenario::{field, Codec};
use netproxy::fault::{check_plan, INBOUND, OUTBOUND};
use netproxy::loadgen::BatchLoadGen;
use netproxy::shard::RelayKind;
use netproxy::SocketLayer;
use std::time::Duration;
use trace::json::{from_name, name_of, Json};
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
}

/// The live run a soak is: a streamlined relay carrying the scenario's
/// load under its faults, shed ladder, crash and wedge.
impl From<&SoakScenario> for LiveRun {
    fn from(sc: &SoakScenario) -> Self {
        let load = BatchLoadGen {
            threads: sc.threads,
            flows_per_thread: sc.flows_per_thread,
            rate_pps: sc.rate_pps,
            duration: Duration::from_millis(sc.duration_ms),
            trim_fraction: sc.trim,
            payload_len: sc.payload,
            layer: sc.layer,
            // Faulted relays hold feedback (delay faults, restart
            // windows); give backflow a real chance to land.
            drain_grace: Duration::from_millis(500),
        };
        let path = Path::Sharded {
            kind: RelayKind::Streamlined,
            shards: sc.shards,
        };
        LiveRun {
            faults: sc.faults.clone(),
            fault_seed: sc.fault_seed,
            overload_pps: sc.overload_pps,
            crash_at_ms: sc.crash_at_ms,
            wedge_at_ms: sc.wedge_at_ms,
            ..LiveRun::clean(path, load)
        }
    }
}

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
    type Outcome = Ledger;

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

    fn run(sc: &SoakScenario) -> Ledger {
        live::run(&sc.into()).ledger
    }

    fn failure_kind(outcome: &Ledger) -> Option<String> {
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

    fn details(outcome: &Ledger) -> Vec<String> {
        outcome.lines.clone()
    }

    fn to_value(sc: &SoakScenario) -> Json {
        Json::obj(vec![
            ("fault_seed", sc.fault_seed.enc()),
            ("layer", Json::str(name_of(LAYER_NAMES, sc.layer))),
            ("shards", sc.shards.enc()),
            ("threads", sc.threads.enc()),
            ("flows_per_thread", sc.flows_per_thread.enc()),
            ("rate_pps", sc.rate_pps.enc()),
            ("trim", sc.trim.enc()),
            ("payload", sc.payload.enc()),
            ("duration_ms", sc.duration_ms.enc()),
            ("crash_at_ms", sc.crash_at_ms.enc()),
            ("wedge_at_ms", sc.wedge_at_ms.enc()),
            ("overload_pps", sc.overload_pps.enc()),
            ("faults", sc.faults.enc()),
        ])
    }

    fn from_value(v: &Json) -> Result<SoakScenario, String> {
        let sc = SoakScenario {
            fault_seed: field(v, "fault_seed")?,
            faults: field(v, "faults")?,
            layer: from_name(LAYER_NAMES, "socket layer", v.get_str("layer")?)?,
            shards: field(v, "shards")?,
            threads: field(v, "threads")?,
            flows_per_thread: field(v, "flows_per_thread")?,
            rate_pps: field(v, "rate_pps")?,
            trim: field(v, "trim")?,
            payload: field(v, "payload")?,
            duration_ms: field(v, "duration_ms")?,
            crash_at_ms: field(v, "crash_at_ms")?,
            wedge_at_ms: field(v, "wedge_at_ms")?,
            overload_pps: field(v, "overload_pps")?,
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
