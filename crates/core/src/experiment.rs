//! Experiment harness: configure an incast on the §4.1 topology, run it
//! under a scheme, repeat over seeds, and summarize — the machinery behind
//! every simulation figure (Figs 2–3) and ablation.

use crate::scenario::{self, Fabric, Scenario};
use crate::scheme::{IncastHandle, IncastKnobs, IncastSpec, Scheme};
use dcsim::prelude::*;
use trace::{derive_seed, Summary};

/// An infrastructure fault injected into an experiment run, expressed
/// relative to the incast start so one scenario applies across sweeps.
/// Translated into a concrete [`FaultPlan`] once the incast is installed
/// and the proxy agent / relevant ports are known.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultScenario {
    /// No faults (the default; keeps runs bit-identical to builds without
    /// fault support).
    #[default]
    None,
    /// Crash the proxy host `after` the incast starts; restore it
    /// `restore_after` the crash (`None`: stays dead). Ignored by schemes
    /// without a shared proxy agent (Baseline, Naive).
    ProxyCrash {
        /// Crash time relative to the incast start.
        after: SimDuration,
        /// Restart delay relative to the crash (`None`: no restart).
        restore_after: Option<SimDuration>,
    },
    /// Take the receiver's down-ToR link (the last hop every incast flow
    /// crosses) down `after` the incast starts, back up `up_after` the
    /// outage began.
    ReceiverLinkFlap {
        /// Outage start relative to the incast start.
        after: SimDuration,
        /// Outage duration.
        up_after: SimDuration,
    },
}

/// Whether switches trim packets to headers instead of dropping.
///
/// §4.1 enables trimming only for the Streamlined scheme; Baseline and
/// Naive run drop-tail and recover losses by RTO. `ForceOn`/`ForceOff`
/// exist for the trimming ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrimPolicy {
    /// Trimming on for Streamlined, off otherwise (the paper's setup).
    SchemeDefault,
    /// Trimming on for every scheme.
    ForceOn,
    /// Trimming off for every scheme.
    ForceOff,
}

impl TrimPolicy {
    /// Resolves the policy for a scheme.
    pub fn enabled_for(&self, scheme: Scheme) -> bool {
        match self {
            TrimPolicy::SchemeDefault => scheme == Scheme::ProxyStreamlined,
            TrimPolicy::ForceOn => true,
            TrimPolicy::ForceOff => false,
        }
    }
}

/// Full description of one experiment point.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Topology parameters (§4.1 defaults via `TwoDcParams::default()`).
    pub topo: TwoDcParams,
    /// Scheme to run.
    pub scheme: Scheme,
    /// Number of incast senders.
    pub degree: usize,
    /// Total incast bytes (split equally).
    pub total_bytes: u64,
    /// Base seed; repetition `r` runs with `derive_seed(seed, r)`.
    pub seed: u64,
    /// Switch trimming policy (paper default: Streamlined only).
    pub trim: TrimPolicy,
    /// How the senders and the proxy behave (the paper's setup by
    /// default); [`placement`](Self::placement) hands it to the spec.
    pub knobs: IncastKnobs,
    /// Web-search-style background flows sharing the two datacenters with
    /// the incast (default: 0). Endpoints are drawn from every host that
    /// is not an incast participant, starts are uniform in the first 10 ms.
    pub background_flows: usize,
    /// Fault scenario injected into each run (default: none).
    pub faults: FaultScenario,
    /// Hybrid-fidelity engine (default: off — off keeps every run
    /// bit-identical to historical builds). When on, uncontended hops are
    /// advanced analytically and only the contended queues — receiver and
    /// proxy down-ToRs, plus any port that ever congests — run at packet
    /// fidelity. FCTs then agree with full fidelity statistically, not
    /// bit-exactly; see `fidelity_equivalence` for the enforced tolerance.
    pub fidelity: bool,
    /// Safety limit on simulated time (a run exceeding it is a bug or a
    /// pathological configuration — the harness panics loudly).
    pub time_limit: SimDuration,
    /// Invariant auditing for each run (default: none).
    pub audit: Option<AuditConfig>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            topo: TwoDcParams::default(),
            scheme: Scheme::Baseline,
            degree: 4,
            total_bytes: 100_000_000, // the paper's 100 MB default
            seed: 1,
            trim: TrimPolicy::SchemeDefault,
            knobs: IncastKnobs::default(),
            background_flows: 0,
            faults: FaultScenario::None,
            fidelity: false,
            time_limit: SimDuration::from_secs(600),
            audit: None,
        }
    }
}

impl ExperimentConfig {
    /// Placement used by all figures ([`scenario::placement`]): senders
    /// are the first `degree` hosts of DC 0, the proxy is the last host of
    /// DC 0 (a different rack for small degrees), and the receiver is the
    /// first host of DC 1.
    ///
    /// # Panics
    /// Panics if the degree exceeds the hosts available in DC 0 minus the
    /// proxy.
    pub fn placement(&self, topo: &Topology) -> IncastSpec {
        assert!(
            self.degree < topo.hosts_in_dc(0).len(),
            "degree {} needs {} hosts in DC0 (one is the proxy)",
            self.degree,
            self.degree + 1
        );
        let spec = scenario::placement(topo, self.degree, self.total_bytes);
        IncastSpec {
            knobs: self.knobs,
            ..spec
        }
    }

    /// The run this config describes, as a [`Scenario`]: one incast, with
    /// the [`placement`](Self::placement), on the §4.1 leaf–spine with this
    /// scheme's trimming. Its fault plan is empty: [`run_incast`] places
    /// the config's [`FaultScenario`] once the incast is installed.
    ///
    /// # Panics
    /// As [`placement`](Self::placement).
    pub fn scenario(&self) -> Scenario {
        let fabric = Fabric::TwoDc(self.topo.with_trim(self.trim.enabled_for(self.scheme)));
        let spec = self.placement(&fabric.topology());
        Scenario {
            background_flows: self.background_flows,
            fidelity: self.fidelity,
            time_limit: self.time_limit,
            audit: self.audit,
            ..Scenario::incast(fabric, self.scheme, spec)
        }
    }

    /// Builds the simulator for one seeded run through
    /// [`Scenario::build`]. Every figure and [`run_incast`] start here;
    /// callers add what is theirs (faults, traces, extra flows) and run.
    ///
    /// # Panics
    /// As [`placement`](Self::placement).
    pub fn build(&self, seed: u64) -> (Simulator, IncastSpec, IncastHandle) {
        let mut sc = self.scenario();
        let (sim, mut handles, _) = sc.build(seed).unwrap_or_else(|e| panic!("{e}"));
        (sim, sc.incasts.remove(0).spec, handles.remove(0))
    }
}

/// Result of one simulated incast.
#[derive(Debug, Clone, Copy)]
pub struct IncastOutcome {
    /// Incast completion time in seconds.
    pub completion_secs: f64,
    /// NACKs generated by the proxy.
    pub proxy_nacks: u64,
    /// NACKs generated by the receiver.
    pub receiver_nacks: u64,
    /// RTO expirations across all senders.
    pub rto_fires: u64,
    /// Data packets retransmitted.
    pub retransmits: u64,
    /// Multiplicative decreases applied.
    pub window_decreases: u64,
    /// Sender-side proxy failovers activated.
    pub failover_activations: u64,
    /// Sender-side failbacks to a recovered proxy.
    pub failbacks: u64,
    /// Probe packets sent through a proxy believed dead.
    pub proxy_probes: u64,
    /// Packets destroyed by injected faults.
    pub packets_lost_to_fault: u64,
    /// Largest failover latency across flows, in seconds (0 if no flow
    /// failed over): silence start to path switch.
    pub failover_latency_max_secs: f64,
    /// Events processed (simulator work, useful for perf tracking).
    pub events: u64,
    /// Transmissions whose `TxDone` the simulator never scheduled because
    /// nothing queued behind them (`TxChurn::elided`).
    pub tx_elided_events: u64,
    /// Events elided by the hybrid-fidelity express path (0 when the
    /// engine is off). `events + tx_elided_events + express_saved_events`
    /// is the effective packet-event count the run covered: what an engine
    /// scheduling a TxDone and an Arrival for every hop would have
    /// processed, at either fidelity.
    pub express_saved_events: u64,
    /// How the run terminated (completion is separately guaranteed by the
    /// harness, so this distinguishes a clean `Completed` from a completed
    /// run that the collect-mode auditor flagged).
    pub terminated_reason: TerminatedReason,
}

/// Runs one seeded incast to completion.
///
/// # Panics
/// Panics if the incast does not complete within `config.time_limit` —
/// experiments are sized so that completion is guaranteed; not completing
/// indicates a bug.
pub fn run_incast(config: &ExperimentConfig, seed: u64) -> IncastOutcome {
    let (mut sim, spec, handle) = config.build(seed);
    if let Some(plan) = fault_plan_for(config, &spec, &handle, &sim) {
        sim.install_faults(&plan)
            .unwrap_or_else(|e| panic!("invalid fault scenario {:?}: {e}", config.faults));
    }
    let limit = spec.start + config.time_limit;
    let report = sim.run(Some(limit));
    if report.stop == StopReason::EventCap {
        // The cap exists to catch livelocks (e.g. two agents ping-ponging
        // packets forever). Hitting it is always a bug, never a result.
        panic!(
            "event cap exhausted (livelock?): scheme={} degree={} bytes={} \
             events={} at {} — raise the cap only if the workload is \
             legitimately this large",
            config.scheme, config.degree, config.total_bytes, report.events, report.end_time
        );
    }
    let completion = handle.completion(sim.metrics()).unwrap_or_else(|| {
        panic!(
            "incast did not complete: scheme={} degree={} bytes={} stop={:?} at {}",
            config.scheme, config.degree, config.total_bytes, report.stop, report.end_time
        )
    });
    let m = sim.metrics();
    IncastOutcome {
        completion_secs: completion.as_secs_f64(),
        proxy_nacks: m.counter(Counter::ProxyNacks),
        receiver_nacks: m.counter(Counter::ReceiverNacks),
        rto_fires: m.counter(Counter::RtoFires),
        retransmits: m.counter(Counter::Retransmits),
        window_decreases: m.counter(Counter::WindowDecreases),
        failover_activations: m.counter(Counter::FailoverActivations),
        failbacks: m.counter(Counter::Failbacks),
        proxy_probes: m.counter(Counter::ProxyProbes),
        packets_lost_to_fault: m.counter(Counter::PacketsLostToFault),
        failover_latency_max_secs: m
            .all_failover_latencies()
            .iter()
            .map(|d| d.as_secs_f64())
            .fold(0.0, f64::max),
        events: m.events_processed,
        tx_elided_events: report.tx_elided,
        express_saved_events: sim.fidelity_stats().map_or(0, |e| e.saved_events),
        terminated_reason: report.terminated_reason(),
    }
}

/// Translates the config's [`FaultScenario`] into a concrete [`FaultPlan`]
/// against the installed incast. Returns `None` when there is nothing to
/// inject — including a proxy crash under a scheme with no shared proxy
/// agent — so fault-free runs never touch the fault machinery.
fn fault_plan_for(
    config: &ExperimentConfig,
    spec: &IncastSpec,
    handle: &IncastHandle,
    sim: &Simulator,
) -> Option<FaultPlan> {
    match config.faults {
        FaultScenario::None => None,
        FaultScenario::ProxyCrash {
            after,
            restore_after,
        } => {
            let agent = handle.proxy_agent?;
            let at = spec.start + after;
            Some(match restore_after {
                Some(r) => FaultPlan::new().crash_agent_window(agent, at, at + r),
                None => FaultPlan::new().crash_agent(agent, at),
            })
        }
        FaultScenario::ReceiverLinkFlap { after, up_after } => {
            let port = sim.topology().down_tor_port(spec.receiver);
            let down = spec.start + after;
            Some(FaultPlan::new().link_down_window(port, down, down + up_after))
        }
    }
}

/// Runs `runs` repetitions with derived seeds and summarizes the incast
/// completion times — the paper's "run each setup 5 times and report the
/// average, minimum and maximum".
pub fn run_repeated(config: &ExperimentConfig, runs: usize) -> (Summary, Vec<IncastOutcome>) {
    assert!(runs > 0, "need at least one run");
    let outcomes: Vec<IncastOutcome> = (0..runs)
        .map(|r| run_incast(config, derive_seed(config.seed, r as u64)))
        .collect();
    let summary = Summary::of(
        &outcomes
            .iter()
            .map(|o| o.completion_secs)
            .collect::<Vec<_>>(),
    );
    (summary, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config(scheme: Scheme) -> ExperimentConfig {
        ExperimentConfig {
            topo: TwoDcParams::small_test(),
            scheme,
            degree: 3,
            total_bytes: 2_000_000,
            seed: 5,
            ..Default::default()
        }
    }

    #[test]
    fn run_incast_completes_for_all_schemes() {
        for scheme in Scheme::ALL {
            let out = run_incast(&fast_config(scheme), 1);
            assert!(out.completion_secs > 0.0, "{scheme}: {out:?}");
            assert!(out.completion_secs < 1.0, "{scheme}: {out:?}");
        }
    }

    #[test]
    fn run_incast_is_deterministic() {
        let cfg = fast_config(Scheme::ProxyStreamlined);
        let a = run_incast(&cfg, 99);
        let b = run_incast(&cfg, 99);
        assert_eq!(a.completion_secs, b.completion_secs);
        assert_eq!(a.events, b.events);
        assert_eq!(a.retransmits, b.retransmits);
    }

    #[test]
    fn repeated_runs_summarize() {
        let (summary, outcomes) = run_repeated(&fast_config(Scheme::Baseline), 3);
        assert_eq!(summary.count, 3);
        assert_eq!(outcomes.len(), 3);
        assert!(summary.min <= summary.mean && summary.mean <= summary.max);
    }

    #[test]
    fn hybrid_fidelity_completes_deterministically_for_all_schemes() {
        for scheme in Scheme::ALL {
            let mut cfg = fast_config(scheme);
            cfg.fidelity = true;
            let a = run_incast(&cfg, 13);
            let b = run_incast(&cfg, 13);
            assert!(a.completion_secs > 0.0, "{scheme}: {a:?}");
            assert!(
                a.express_saved_events > 0,
                "{scheme}: express path never engaged"
            );
            assert_eq!(a.completion_secs, b.completion_secs, "{scheme}");
            assert_eq!(a.events, b.events, "{scheme}");
            assert_eq!(a.express_saved_events, b.express_saved_events, "{scheme}");
        }
    }

    #[test]
    fn fidelity_off_reports_zero_saved_events() {
        let out = run_incast(&fast_config(Scheme::Baseline), 1);
        assert_eq!(out.express_saved_events, 0);
    }

    #[test]
    fn proxy_crash_with_failover_completes() {
        for scheme in [Scheme::ProxyStreamlined, Scheme::ProxyDetecting] {
            let mut cfg = fast_config(scheme);
            cfg.faults = FaultScenario::ProxyCrash {
                after: SimDuration::from_micros(50),
                restore_after: None,
            };
            cfg.knobs.failover = true;
            let out = run_incast(&cfg, 7);
            // `completion` returning Some means zero permanently-stalled
            // flows: every sender finished despite the dead proxy.
            assert!(out.completion_secs > 0.0, "{scheme}: {out:?}");
            assert!(out.failover_activations > 0, "{scheme}: {out:?}");
            assert!(out.failover_latency_max_secs > 0.0, "{scheme}: {out:?}");
        }
    }

    #[test]
    #[should_panic(expected = "did not complete")]
    fn proxy_crash_without_failover_stalls() {
        let mut cfg = fast_config(Scheme::ProxyStreamlined);
        cfg.faults = FaultScenario::ProxyCrash {
            after: SimDuration::from_micros(50),
            restore_after: None,
        };
        cfg.time_limit = SimDuration::from_millis(50);
        run_incast(&cfg, 7);
    }

    #[test]
    fn proxy_crash_ignored_without_proxy_agent() {
        let mut cfg = fast_config(Scheme::Baseline);
        cfg.faults = FaultScenario::ProxyCrash {
            after: SimDuration::from_micros(50),
            restore_after: None,
        };
        cfg.knobs.failover = true;
        let out = run_incast(&cfg, 1);
        let base = run_incast(&fast_config(Scheme::Baseline), 1);
        // Baseline has no shared proxy agent: the scenario is a no-op and
        // the run stays bit-identical to a fault-free one.
        assert_eq!(out.completion_secs, base.completion_secs);
        assert_eq!(out.events, base.events);
        assert_eq!(out.failover_activations, 0);
        assert_eq!(out.packets_lost_to_fault, 0);
    }

    #[test]
    fn receiver_link_flap_completes() {
        let mut cfg = fast_config(Scheme::ProxyStreamlined);
        cfg.faults = FaultScenario::ReceiverLinkFlap {
            after: SimDuration::from_micros(100),
            up_after: SimDuration::from_micros(500),
        };
        let out = run_incast(&cfg, 3);
        assert!(out.completion_secs > 0.0, "{out:?}");
        assert!(out.packets_lost_to_fault > 0, "{out:?}");
    }

    #[test]
    fn placement_respects_topology() {
        use crate::lossdetect::LossDetectorConfig;
        use crate::scheme::Transport;
        use dcsim::protocol::EcnResponse;
        // Every knob away from its default: the spec must carry each one.
        let defaults = IncastKnobs::default();
        let knobs = IncastKnobs {
            iw_scale: 2.5,
            early_nack: false,
            ecn_response: EcnResponse::HalvePerRound,
            detector: LossDetectorConfig {
                reorder_threshold: 3,
                max_pending: 16,
            },
            transport: Transport::RateBased,
            failover: true,
        };
        assert_ne!(knobs.iw_scale, defaults.iw_scale);
        assert_ne!(knobs.early_nack, defaults.early_nack);
        assert_ne!(knobs.ecn_response, defaults.ecn_response);
        assert_ne!(
            knobs.detector.reorder_threshold,
            defaults.detector.reorder_threshold
        );
        assert_ne!(knobs.detector.max_pending, defaults.detector.max_pending);
        assert_ne!(knobs.transport, defaults.transport);
        assert_ne!(knobs.failover, defaults.failover);
        let cfg = ExperimentConfig {
            knobs,
            ..fast_config(Scheme::ProxyNaive)
        };
        let topo = two_dc_leaf_spine(&cfg.topo);
        let spec = cfg.placement(&topo);
        assert_eq!(spec.senders.len(), 3);
        assert_eq!(topo.host_dc(spec.receiver), Some(1));
        assert_eq!(topo.host_dc(spec.proxy.unwrap()), Some(0));
        assert!(!spec.senders.contains(&spec.proxy.unwrap()));
        let got = spec.knobs;
        assert_eq!(got.iw_scale, knobs.iw_scale);
        assert_eq!(got.early_nack, knobs.early_nack);
        assert_eq!(got.ecn_response, knobs.ecn_response);
        assert_eq!(got.detector.reorder_threshold, 3);
        assert_eq!(got.detector.max_pending, 16);
        assert_eq!(got.transport, knobs.transport);
        assert_eq!(got.failover, knobs.failover);
    }

    #[test]
    #[should_panic(expected = "degree")]
    fn oversized_degree_panics() {
        let mut cfg = fast_config(Scheme::Baseline);
        cfg.degree = 8; // small_test has 8 hosts per DC; proxy needs one.
        let topo = two_dc_leaf_spine(&cfg.topo);
        cfg.placement(&topo);
    }
}
