//! Deterministic, seed-driven fault injection.
//!
//! A [`FaultPlan`] is a declarative schedule of infrastructure faults —
//! link down/up windows, per-port random loss or corruption, and agent
//! (proxy-host) crashes — that the simulator turns into ordinary events on
//! its queue via [`crate::sim::Simulator::install_faults`]. Faults are part
//! of the scenario, not the protocol: an empty plan leaves the simulator
//! bit-identical to a run without fault support, and all randomness (port
//! impairment draws) comes from a dedicated RNG stream derived from the
//! simulation seed, so faulty runs replay exactly.
//!
//! Semantics:
//! - **Link down**: while a port is down it blackholes every packet offered
//!   to it (counted as [`Counter::PacketsLostToFault`]) and stops draining
//!   its queue; packets already queued survive and drain after link-up.
//! - **Impairment**: each packet offered to the port is independently lost
//!   with `loss` probability or corrupted with `corrupt` probability.
//!   Corruption trims data packets to headers (the NDP-style loss signal)
//!   and destroys control packets outright.
//! - **Agent crash**: the agent's handlers stop running — packets addressed
//!   to it are destroyed, its timers go dead — and
//!   [`crate::agent::Agent::on_crash`] lets it drop in-flight soft state.
//!   An optional restore time models a process restart.
//!
//! [`Counter::PacketsLostToFault`]: crate::agent::Counter::PacketsLostToFault

use crate::packet::{AgentId, PortId};
use crate::time::SimTime;
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortImpairment {
    /// The affected output port.
    pub port: PortId,
    /// Probability in `[0, 1]` that an offered packet is destroyed.
    pub loss: f64,
    /// Probability in `[0, 1]` that an offered packet is corrupted
    /// (data → trimmed header, control → destroyed).
    pub corrupt: f64,
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

/// A scheduled control-plane shard crash, optionally followed by a
/// restart. Shards are a concept of the orchestration layer (the `core`
/// crate), not of the packet simulator: [`crate::sim::Simulator::install_faults`]
/// ignores these entries, and the control-plane harness consumes them to
/// drive its own clock. They live in the [`FaultPlan`] so one plan (and one
/// fuzzer repro file) can describe a whole incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCrash {
    /// The orchestrator shard that crashes.
    pub shard: u32,
    /// Crash time.
    pub at: SimTime,
    /// Restart time (`None`: stays dead).
    pub restore_at: Option<SimTime>,
}

/// Why a fault plan was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// A probability was outside `[0, 1]` (or NaN).
    InvalidProbability { port: PortId, value: f64 },
    /// Combined loss + corruption probability exceeds 1 on one port.
    CombinedProbabilityTooHigh { port: PortId, total: f64 },
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
                    "loss + corruption probability {total} on {port} exceeds 1"
                )
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
            port,
            loss,
            corrupt: 0.0,
        });
        self
    }

    /// Corrupts each packet offered to `port` with probability `corrupt`
    /// (data packets are trimmed to headers, control packets destroyed).
    pub fn port_corruption(mut self, port: PortId, corrupt: f64) -> Self {
        self.impairments.push(PortImpairment {
            port,
            loss: 0.0,
            corrupt,
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

    /// Checks internal consistency (probability ranges, window ordering,
    /// no overlapping link windows per port). Index bounds against a
    /// concrete topology are checked by
    /// [`crate::sim::Simulator::install_faults`].
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
            for p in [imp.loss, imp.corrupt] {
                if !(0.0..=1.0).contains(&p) {
                    return Err(FaultError::InvalidProbability {
                        port: imp.port,
                        value: p,
                    });
                }
            }
            let total = imp.loss + imp.corrupt;
            if total > 1.0 {
                return Err(FaultError::CombinedProbabilityTooHigh {
                    port: imp.port,
                    total,
                });
            }
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

    #[test]
    fn rejects_combined_probability_above_one() {
        let plan = FaultPlan {
            impairments: vec![PortImpairment {
                port: PortId(0),
                loss: 0.7,
                corrupt: 0.7,
            }],
            ..Default::default()
        };
        assert!(matches!(
            plan.validate(),
            Err(FaultError::CombinedProbabilityTooHigh { .. })
        ));
    }

    #[test]
    fn rejects_inverted_windows() {
        let flap = FaultPlan::new().link_down_window(PortId(0), t(20), t(10));
        assert!(matches!(
            flap.validate(),
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
