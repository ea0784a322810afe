//! Deterministic, seed-driven fault injection: the one fault vocabulary.
//!
//! A [`FaultPlan`] is a declarative schedule of infrastructure faults —
//! link down/up windows, per-port random impairments, synthetic syscall
//! errors, and agent (proxy-host) and control-plane shard crashes. Two
//! interpreters read it, and each refuses with a [`FaultError`] what it
//! cannot model:
//!
//! - the packet simulator turns a plan into ordinary events on its queue
//!   via [`crate::sim::Simulator::install_faults`]. An empty plan leaves
//!   the simulator bit-identical to a run without fault support, and its
//!   impairment draws come from a dedicated RNG stream derived from the
//!   simulation seed, so faulty runs replay exactly;
//! - the relay's socket shim, `netproxy::fault::FaultedIo`, reads port 0
//!   as the relay's inbound direction and port 1 as its outbound one,
//!   shard `n` as the relay's shard `n`, and `SimTime`s as offsets from
//!   the relay's start.
//!
//! Semantics:
//! - **Link down**: while a port is down it blackholes every packet offered
//!   to it (counted as [`Counter::PacketsLostToFault`]) and stops draining
//!   its queue; packets already queued survive and drain after link-up.
//! - **Impairment**: each packet offered to the port is lost with `loss`
//!   probability or corrupted with `corrupt` probability. The simulator
//!   trims corrupted data packets to headers (the NDP-style loss signal)
//!   and destroys corrupted control packets outright; the shim overwrites
//!   the wire magic, so the receiver counts the datagram malformed. Only
//!   the shim models `duplicate` (the packet goes out twice) and `delay`
//!   (the packet is held up to `delay_max`, then released).
//! - **Syscall errors**: transient `EAGAIN` / `ENOBUFS` failures of a
//!   socket call, drawn once per call. Only the shim models them.
//! - **Agent crash**: the agent's handlers stop running — packets addressed
//!   to it are destroyed, its timers go dead — and
//!   [`crate::agent::Agent::on_crash`] lets it drop in-flight soft state.
//!   An optional restore time models a process restart.
//! - **Shard crash**: read by the control-plane harness, where it crashes
//!   an orchestrator shard, and by the relay's shim, where it crashes a
//!   relay shard (no restore time: its next receive fails hard, and the
//!   supervisor restarts it) or stalls one (its next receive returns only
//!   at the restore time). The simulator ignores it.
//!
//! [`Counter::PacketsLostToFault`]: crate::agent::Counter::PacketsLostToFault

use crate::packet::{AgentId, PortId};
use crate::time::{SimDuration, SimTime};
use std::fmt;

/// A link outage on one port: down at `down_at`, optionally back up at
/// `up_at` (`None` = down for the rest of the run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkWindow {
    /// The affected output port.
    pub port: PortId,
    /// When the port stops transmitting.
    pub down_at: SimTime,
    /// When it resumes (`None`: never).
    pub up_at: Option<SimTime>,
}

/// Random per-packet impairment of one port, active for the whole run.
///
/// One draw decides loss, delay or duplication, so `loss + delay +
/// duplicate` is at most 1; the simulator draws loss and corruption
/// together, so `loss + corrupt` is at most 1 too.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortImpairment {
    /// The affected output port.
    pub port: PortId,
    /// Probability in `[0, 1]` that an offered packet is destroyed.
    pub loss: f64,
    /// Probability in `[0, 1]` that an offered packet is corrupted
    /// (see the module docs for what each interpreter does).
    pub corrupt: f64,
    /// Probability in `[0, 1]` that an offered packet goes out twice.
    pub duplicate: f64,
    /// Probability in `[0, 1]` that an offered packet is held back.
    pub delay: f64,
    /// A held packet's hold is uniform in `(0, delay_max]`.
    pub delay_max: SimDuration,
}

impl PortImpairment {
    /// An impairment of `port` that impairs nothing (a `..` base).
    pub fn none(port: PortId) -> Self {
        PortImpairment {
            port,
            loss: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            delay_max: SimDuration::ZERO,
        }
    }
}

/// Synthetic transient syscall errors on one port's socket calls, drawn
/// once per call: port 0's receives, port 1's sends. Only the socket shim
/// reads these.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyscallErrors {
    /// The affected port.
    pub port: PortId,
    /// Probability in `[0, 1]` that a call fails with `EAGAIN`.
    pub again: f64,
    /// Probability in `[0, 1]` that a call fails with `ENOBUFS`.
    pub nobufs: f64,
}

/// A scheduled agent crash, optionally followed by a restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgentCrash {
    /// The agent that crashes (e.g. a proxy).
    pub agent: AgentId,
    /// Crash time.
    pub at: SimTime,
    /// Restart time (`None`: stays dead).
    pub restore_at: Option<SimTime>,
}

/// A scheduled shard crash, optionally followed by a restart. Shards are
/// a concept of the orchestration layer (the `core` crate) and of the
/// relay, not of the packet simulator: [`crate::sim::Simulator::install_faults`]
/// ignores these entries. The control-plane harness crashes an
/// orchestrator shard with one and drives its own clock; the relay's
/// socket shim crashes a relay shard at `at`, or, with a `restore_at`,
/// stalls the shard's receive until then. They live in the [`FaultPlan`]
/// so one plan (and one fuzzer repro file) can describe a whole incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCrash {
    /// The orchestrator or relay shard that crashes.
    pub shard: u32,
    /// Crash time.
    pub at: SimTime,
    /// Restart time (`None`: stays dead). On a relay shard, when its
    /// stall ends (`None`: a crash, which the relay's supervisor recovers
    /// from on its own).
    pub restore_at: Option<SimTime>,
}

/// Why a fault plan was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// A probability was outside `[0, 1]` (or NaN).
    InvalidProbability { port: PortId, value: f64 },
    /// Probabilities drawn together on one port sum past 1: loss +
    /// corruption, loss + delay + duplication, or `EAGAIN` + `ENOBUFS`.
    CombinedProbabilityTooHigh { port: PortId, total: f64 },
    /// A port delays packets, but its `delay_max` is zero.
    UnboundedDelay { port: PortId },
    /// A link window ends at or before it starts.
    EmptyLinkWindow {
        port: PortId,
        down_at: SimTime,
        up_at: SimTime,
    },
    /// A crash restore time is at or before the crash time.
    EmptyCrashWindow {
        agent: AgentId,
        at: SimTime,
        restore_at: SimTime,
    },
    /// A shard-crash restore time is at or before the crash time.
    EmptyShardCrashWindow {
        shard: u32,
        at: SimTime,
        restore_at: SimTime,
    },
    /// Two link windows on the same port overlap in time (a permanent
    /// outage — `up_at: None` — overlaps every later window on its port).
    /// Overlapping windows would interleave their down/up transitions and
    /// leave the port in a state neither window describes.
    OverlappingLinkWindows {
        port: PortId,
        first_down_at: SimTime,
        second_down_at: SimTime,
    },
    /// The plan names a port the topology does not have.
    UnknownPort { port: PortId, ports: usize },
    /// The plan names an agent the simulator does not have.
    UnknownAgent { agent: AgentId, agents: usize },
    /// A fault is scheduled before the simulator's current time.
    InThePast { at: SimTime, now: SimTime },
    /// The interpreter the plan was handed to cannot model one of its
    /// entries (see the module docs for which reads what).
    Unsupported {
        interpreter: &'static str,
        entry: &'static str,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::InvalidProbability { port, value } => {
                write!(
                    f,
                    "impairment probability {value} on {port} is outside [0, 1]"
                )
            }
            FaultError::CombinedProbabilityTooHigh { port, total } => {
                write!(
                    f,
                    "probabilities drawn together on {port} sum to {total}, past 1"
                )
            }
            FaultError::UnboundedDelay { port } => {
                write!(f, "{port} delays packets but its delay_max is zero")
            }
            FaultError::EmptyLinkWindow {
                port,
                down_at,
                up_at,
            } => {
                write!(
                    f,
                    "link window on {port} is empty: down at {down_at}, up at {up_at}"
                )
            }
            FaultError::EmptyCrashWindow {
                agent,
                at,
                restore_at,
            } => {
                write!(
                    f,
                    "crash window for {agent} is empty: crash at {at}, restore at {restore_at}"
                )
            }
            FaultError::EmptyShardCrashWindow {
                shard,
                at,
                restore_at,
            } => {
                write!(
                    f,
                    "shard-crash window for shard {shard} is empty: \
                     crash at {at}, restore at {restore_at}"
                )
            }
            FaultError::OverlappingLinkWindows {
                port,
                first_down_at,
                second_down_at,
            } => {
                write!(
                    f,
                    "link windows on {port} overlap: window starting at {first_down_at} \
                     is still down when the window starting at {second_down_at} begins"
                )
            }
            FaultError::UnknownPort { port, ports } => {
                write!(f, "{port} does not exist (topology has {ports} ports)")
            }
            FaultError::UnknownAgent { agent, agents } => {
                write!(f, "{agent} does not exist (simulator has {agents} agents)")
            }
            FaultError::InThePast { at, now } => {
                write!(
                    f,
                    "fault scheduled at {at} but the simulator is already at {now}"
                )
            }
            FaultError::Unsupported { interpreter, entry } => {
                write!(f, "{interpreter} cannot model {entry}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// A declarative schedule of infrastructure faults.
///
/// Build one with the chainable constructors, then hand it to
/// [`crate::sim::Simulator::install_faults`]:
///
/// ```
/// use dcsim::prelude::*;
///
/// let plan = FaultPlan::new()
///     .link_down_window(
///         PortId(3),
///         SimTime::ZERO + SimDuration::from_millis(1),
///         SimTime::ZERO + SimDuration::from_millis(2),
///     )
///     .port_loss(PortId(7), 0.01)
///     .crash_agent(AgentId(2), SimTime::ZERO + SimDuration::from_millis(5));
/// assert!(plan.validate().is_ok());
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Link outage windows.
    pub link_windows: Vec<LinkWindow>,
    /// Per-port random impairments.
    pub impairments: Vec<PortImpairment>,
    /// Synthetic syscall errors (read only by the socket shim).
    pub syscall_errors: Vec<SyscallErrors>,
    /// Agent crashes.
    pub crashes: Vec<AgentCrash>,
    /// Control-plane shard crashes (ignored by the packet simulator;
    /// consumed by the orchestration layer). Defaults to empty so plans
    /// serialized before this field existed still deserialize.
    pub shard_crashes: Vec<ShardCrash>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.link_windows.is_empty()
            && self.impairments.is_empty()
            && self.syscall_errors.is_empty()
            && self.crashes.is_empty()
            && self.shard_crashes.is_empty()
    }

    /// Takes `port` down at `at` **for the rest of the run** — a permanent
    /// outage. No `LinkUp` is ever scheduled: the port blackholes
    /// everything offered to it from `at` on, and packets queued behind it
    /// never drain. Because the outage extends to the end of the run,
    /// [`FaultPlan::validate`] rejects any later window on the same port as
    /// overlapping.
    pub fn link_down(mut self, port: PortId, at: SimTime) -> Self {
        self.link_windows.push(LinkWindow {
            port,
            down_at: at,
            up_at: None,
        });
        self
    }

    /// Takes `port` down at `down_at` and back up at `up_at` (a link flap).
    pub fn link_down_window(mut self, port: PortId, down_at: SimTime, up_at: SimTime) -> Self {
        self.link_windows.push(LinkWindow {
            port,
            down_at,
            up_at: Some(up_at),
        });
        self
    }

    /// Destroys each packet offered to `port` with probability `loss`.
    pub fn port_loss(mut self, port: PortId, loss: f64) -> Self {
        self.impairments.push(PortImpairment {
            loss,
            ..PortImpairment::none(port)
        });
        self
    }

    /// Corrupts each packet offered to `port` with probability `corrupt`
    /// (data packets are trimmed to headers, control packets destroyed).
    pub fn port_corruption(mut self, port: PortId, corrupt: f64) -> Self {
        self.impairments.push(PortImpairment {
            corrupt,
            ..PortImpairment::none(port)
        });
        self
    }

    /// Crashes `agent` at `at` for the rest of the run.
    pub fn crash_agent(mut self, agent: AgentId, at: SimTime) -> Self {
        self.crashes.push(AgentCrash {
            agent,
            at,
            restore_at: None,
        });
        self
    }

    /// Crashes `agent` at `at` and restarts it at `restore_at`.
    pub fn crash_agent_window(mut self, agent: AgentId, at: SimTime, restore_at: SimTime) -> Self {
        self.crashes.push(AgentCrash {
            agent,
            at,
            restore_at: Some(restore_at),
        });
        self
    }

    /// Crashes orchestrator shard `shard` at `at` for the rest of the run.
    pub fn crash_shard(mut self, shard: u32, at: SimTime) -> Self {
        self.shard_crashes.push(ShardCrash {
            shard,
            at,
            restore_at: None,
        });
        self
    }

    /// Crashes orchestrator shard `shard` at `at`, restoring it at
    /// `restore_at`.
    pub fn crash_shard_window(mut self, shard: u32, at: SimTime, restore_at: SimTime) -> Self {
        self.shard_crashes.push(ShardCrash {
            shard,
            at,
            restore_at: Some(restore_at),
        });
        self
    }

    /// Checks internal consistency (probability ranges and sums, delay
    /// bounds, window ordering, no overlapping link windows per port). This
    /// is the one fault validator; each interpreter then checks only what
    /// it can model and, for the simulator, index bounds against a concrete
    /// topology ([`crate::sim::Simulator::install_faults`]).
    ///
    /// Link windows on the same port must be disjoint; a window may begin
    /// exactly when the previous one ends (`down_at == up_at` is a
    /// back-to-back flap, not an overlap). A permanent outage
    /// (`up_at: None`) covers the rest of the run, so any later window on
    /// that port is an overlap.
    pub fn validate(&self) -> Result<(), FaultError> {
        for w in &self.link_windows {
            if let Some(up) = w.up_at {
                if up <= w.down_at {
                    return Err(FaultError::EmptyLinkWindow {
                        port: w.port,
                        down_at: w.down_at,
                        up_at: up,
                    });
                }
            }
        }
        // Overlap check: sort (port, window) pairs so windows on the same
        // port become adjacent, then compare neighbors.
        let mut windows: Vec<&LinkWindow> = self.link_windows.iter().collect();
        windows.sort_by_key(|w| (w.port.index(), w.down_at));
        for pair in windows.windows(2) {
            let (prev, next) = (pair[0], pair[1]);
            if prev.port != next.port {
                continue;
            }
            let overlaps = match prev.up_at {
                None => true, // permanent outage: down until the end of the run
                Some(up) => next.down_at < up,
            };
            if overlaps {
                return Err(FaultError::OverlappingLinkWindows {
                    port: prev.port,
                    first_down_at: prev.down_at,
                    second_down_at: next.down_at,
                });
            }
        }
        for imp in &self.impairments {
            check_probabilities(imp.port, &[imp.loss, imp.corrupt])?;
            check_probabilities(imp.port, &[imp.loss, imp.delay, imp.duplicate])?;
            if imp.delay > 0.0 && imp.delay_max == SimDuration::ZERO {
                return Err(FaultError::UnboundedDelay { port: imp.port });
            }
        }
        for e in &self.syscall_errors {
            check_probabilities(e.port, &[e.again, e.nobufs])?;
        }
        for c in &self.crashes {
            if let Some(r) = c.restore_at {
                if r <= c.at {
                    return Err(FaultError::EmptyCrashWindow {
                        agent: c.agent,
                        at: c.at,
                        restore_at: r,
                    });
                }
            }
        }
        for c in &self.shard_crashes {
            if let Some(r) = c.restore_at {
                if r <= c.at {
                    return Err(FaultError::EmptyShardCrashWindow {
                        shard: c.shard,
                        at: c.at,
                        restore_at: r,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Each of `ps` is a probability, and one draw can decide among them all:
/// they sum to at most 1.
fn check_probabilities(port: PortId, ps: &[f64]) -> Result<(), FaultError> {
    if let Some(&value) = ps.iter().find(|p| !(0.0..=1.0).contains(*p)) {
        return Err(FaultError::InvalidProbability { port, value });
    }
    let total: f64 = ps.iter().sum();
    if total > 1.0 {
        return Err(FaultError::CombinedProbabilityTooHigh { port, total });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn builder_accumulates_faults() {
        let plan = FaultPlan::new()
            .link_down_window(PortId(1), t(10), t(20))
            .link_down(PortId(2), t(30))
            .port_loss(PortId(3), 0.05)
            .port_corruption(PortId(3), 0.01)
            .crash_agent(AgentId(0), t(40))
            .crash_agent_window(AgentId(1), t(50), t(60));
        assert!(!plan.is_empty());
        assert_eq!(plan.link_windows.len(), 2);
        assert_eq!(plan.impairments.len(), 2);
        assert_eq!(plan.crashes.len(), 2);
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn rejects_probability_out_of_range() {
        let plan = FaultPlan::new().port_loss(PortId(0), 1.5);
        assert!(matches!(
            plan.validate(),
            Err(FaultError::InvalidProbability {
                port: PortId(0),
                ..
            })
        ));
        let nan = FaultPlan::new().port_corruption(PortId(1), f64::NAN);
        assert!(nan.validate().is_err());
    }

    /// A plan impairing port 0 as `f` says.
    fn impaired(f: impl FnOnce(&mut PortImpairment)) -> FaultPlan {
        let mut imp = PortImpairment::none(PortId(0));
        f(&mut imp);
        FaultPlan {
            impairments: vec![imp],
            ..Default::default()
        }
    }

    /// Every per-packet draw and syscall error is range-checked, draws
    /// decided together sum to at most 1 (loss + corrupt for the
    /// simulator, loss + delay + duplicate for the shim's one cascade),
    /// and a delay needs a bound. The relay soak's mix, every kind at
    /// once, passes.
    #[test]
    fn validate_checks_every_draw_and_passes_the_soak_mix() {
        let too_high = |p: FaultPlan| {
            matches!(
                p.validate(),
                Err(FaultError::CombinedProbabilityTooHigh { .. })
            )
        };
        let out_of_range =
            |p: FaultPlan| matches!(p.validate(), Err(FaultError::InvalidProbability { .. }));
        let ms = SimDuration::from_millis;
        assert!(too_high(impaired(|i| (i.loss, i.corrupt) = (0.7, 0.7))));
        assert!(too_high(impaired(|i| {
            (i.loss, i.delay, i.delay_max) = (0.6, 0.6, ms(5))
        })));
        assert!(too_high(impaired(|i| {
            (i.duplicate, i.delay, i.delay_max) = (0.6, 0.5, ms(5))
        })));
        assert!(out_of_range(impaired(|i| i.duplicate = 1.5)));
        assert!(out_of_range(impaired(
            |i| (i.delay, i.delay_max) = (-0.1, ms(5))
        )));
        assert_eq!(
            impaired(|i| i.delay = 0.1).validate(),
            Err(FaultError::UnboundedDelay { port: PortId(0) })
        );
        let errors = |again, nobufs| {
            vec![SyscallErrors {
                port: PortId(0),
                again,
                nobufs,
            }]
        };
        let with_errors = |syscall_errors| FaultPlan {
            syscall_errors,
            ..Default::default()
        };
        assert!(out_of_range(with_errors(errors(-0.1, 0.0))));
        assert!(too_high(with_errors(errors(0.6, 0.6))));
        let mut mix = impaired(|i| {
            (i.loss, i.corrupt, i.duplicate) = (0.01, 0.002, 0.005);
            (i.delay, i.delay_max) = (0.01, ms(20));
        })
        .link_down_window(PortId(0), t(350), t(400))
        .link_down_window(PortId(1), t(350), t(400));
        mix.syscall_errors = errors(0.001, 0.0005);
        assert!(!mix.is_empty());
        assert_eq!(mix.validate(), Ok(()));
    }

    #[test]
    fn rejects_inverted_windows() {
        let flap = FaultPlan::new().link_down_window(PortId(0), t(20), t(10));
        assert!(matches!(
            flap.validate(),
            Err(FaultError::EmptyLinkWindow { .. })
        ));
        let instant = FaultPlan::new().link_down_window(PortId(0), t(5), t(5));
        assert!(matches!(
            instant.validate(),
            Err(FaultError::EmptyLinkWindow { .. })
        ));
        let crash = FaultPlan::new().crash_agent_window(AgentId(0), t(20), t(20));
        assert!(matches!(
            crash.validate(),
            Err(FaultError::EmptyCrashWindow { .. })
        ));
    }

    #[test]
    fn rejects_overlapping_link_windows_on_one_port() {
        // Plain overlap: [10, 30) and [20, 40).
        let plan = FaultPlan::new()
            .link_down_window(PortId(5), t(10), t(30))
            .link_down_window(PortId(5), t(20), t(40));
        assert_eq!(
            plan.validate(),
            Err(FaultError::OverlappingLinkWindows {
                port: PortId(5),
                first_down_at: t(10),
                second_down_at: t(20),
            })
        );
        // Containment counts as overlap, regardless of builder order.
        let contained = FaultPlan::new()
            .link_down_window(PortId(5), t(20), t(25))
            .link_down_window(PortId(5), t(10), t(40));
        assert!(matches!(
            contained.validate(),
            Err(FaultError::OverlappingLinkWindows {
                port: PortId(5),
                ..
            })
        ));
    }

    #[test]
    fn permanent_outage_overlaps_any_later_window() {
        let plan = FaultPlan::new()
            .link_down(PortId(2), t(10))
            .link_down_window(PortId(2), t(500), t(600));
        assert!(matches!(
            plan.validate(),
            Err(FaultError::OverlappingLinkWindows {
                port: PortId(2),
                ..
            })
        ));
    }

    #[test]
    fn disjoint_and_back_to_back_windows_are_accepted() {
        // Disjoint windows on one port, a back-to-back flap (up == next
        // down), and a window on a different port are all fine.
        let plan = FaultPlan::new()
            .link_down_window(PortId(1), t(10), t(20))
            .link_down_window(PortId(1), t(20), t(30))
            .link_down_window(PortId(1), t(50), t(60))
            .link_down(PortId(2), t(5));
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn errors_render_useful_messages() {
        let e = FaultError::UnknownPort {
            port: PortId(9),
            ports: 4,
        };
        assert!(e.to_string().contains("PortId(9)"));
        assert!(e.to_string().contains("4 ports"));
    }
}
