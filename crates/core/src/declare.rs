//! The incast programming abstraction (§6, "Proxying incast through
//! programming abstraction").
//!
//! "We need a programming abstraction that allows developers to declare
//! when their application creates incast-like communication across
//! components that could be remote. At deployment time, the cloud provider
//! can use this information to convert an inter-datacenter incast into a
//! proxy-assisted one, without requiring any changes or permission from
//! the application."
//!
//! Applications describe traffic in terms of **logical components**
//! ([`IncastDecl`]); the provider supplies the physical placement and the
//! planner ([`compile`]) resolves each declaration into an
//! [`IncastRequest`] and hands it to [`admit`], the control plane's one
//! door: it stays direct, or gets a proxy leased from the
//! [`ShardedOrchestrator`] — but only when the [`crate::predict`] model
//! expects a benefit on the deployment's topology (§4.2's small incasts
//! stay on the shortest path). The paper warns that "a poorly designed
//! abstraction may introduce new semantic violations"; the planner
//! therefore *fails closed* — any ambiguity (unknown component, sink among
//! sources, missing placement) is a hard [`PlanError`], never a guess.

use crate::orchestrator::{IncastRequest, ShardedOrchestrator};
use crate::predict::admit;
pub use crate::predict::Routing;
use dcsim::packet::HostId;
use dcsim::time::SimDuration;
use dcsim::topology::Topology;
use std::collections::BTreeMap;

/// A logical application component (the unit of placement).
pub type Component = String;

/// A developer's declaration of one incast-prone exchange.
#[derive(Debug, Clone)]
pub struct IncastDecl {
    /// Human-readable name ("moe-dispatch", "shard-rebuild", ...).
    pub name: String,
    /// Components that transmit.
    pub sources: Vec<Component>,
    /// The component that receives.
    pub sink: Component,
    /// Expected bytes per occurrence.
    pub expected_bytes: u64,
    /// Expected period between occurrences, if the exchange is periodic
    /// (lets the operator pre-arm rerouting; see [`crate::detect`]).
    pub period: Option<SimDuration>,
}

/// Builder for [`IncastDecl`] — the developer-facing API surface.
#[derive(Debug, Clone)]
pub struct IncastDeclBuilder {
    name: String,
    sources: Vec<Component>,
    sink: Option<Component>,
    expected_bytes: Option<u64>,
    period: Option<SimDuration>,
}

impl IncastDecl {
    /// Starts declaring an incast-prone exchange.
    pub fn named(name: impl Into<String>) -> IncastDeclBuilder {
        IncastDeclBuilder {
            name: name.into(),
            sources: Vec::new(),
            sink: None,
            expected_bytes: None,
            period: None,
        }
    }
}

impl IncastDeclBuilder {
    /// Adds a transmitting component.
    pub fn source(mut self, component: impl Into<Component>) -> Self {
        self.sources.push(component.into());
        self
    }

    /// Adds many transmitting components.
    pub fn sources<I, C>(mut self, components: I) -> Self
    where
        I: IntoIterator<Item = C>,
        C: Into<Component>,
    {
        self.sources.extend(components.into_iter().map(Into::into));
        self
    }

    /// Sets the receiving component.
    pub fn sink(mut self, component: impl Into<Component>) -> Self {
        self.sink = Some(component.into());
        self
    }

    /// Sets the expected bytes per occurrence.
    pub fn expected_bytes(mut self, bytes: u64) -> Self {
        self.expected_bytes = Some(bytes);
        self
    }

    /// Declares the exchange periodic.
    pub fn periodic(mut self, period: SimDuration) -> Self {
        self.period = Some(period);
        self
    }

    /// Finalizes the declaration.
    ///
    /// # Errors
    /// Ambiguous declarations are rejected outright (the paper's semantic-
    /// violation concern): no sources, no sink, sink listed as a source,
    /// duplicate sources, or missing volume.
    pub fn build(self) -> Result<IncastDecl, PlanError> {
        let sink = self.sink.ok_or(PlanError::MissingSink)?;
        if self.sources.is_empty() {
            return Err(PlanError::NoSources);
        }
        if self.sources.contains(&sink) {
            return Err(PlanError::SinkIsSource(sink));
        }
        let mut dedup = self.sources.clone();
        dedup.sort();
        dedup.dedup();
        if dedup.len() != self.sources.len() {
            return Err(PlanError::DuplicateSource);
        }
        let expected_bytes = self.expected_bytes.ok_or(PlanError::MissingVolume)?;
        if expected_bytes == 0 {
            return Err(PlanError::MissingVolume);
        }
        Ok(IncastDecl {
            name: self.name,
            sources: self.sources,
            sink,
            expected_bytes,
            period: self.period,
        })
    }
}

/// Why a plan could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The declaration has no sink.
    MissingSink,
    /// The declaration has no sources.
    NoSources,
    /// The sink also appears as a source.
    SinkIsSource(Component),
    /// A source appears twice.
    DuplicateSource,
    /// No expected volume declared.
    MissingVolume,
    /// A declared component has no physical placement.
    Unplaced(Component),
    /// Sources span multiple datacenters — one proxy cannot cover them;
    /// the planner refuses rather than silently splitting.
    SourcesSpanDatacenters,
    /// The orchestrator had no eligible proxy.
    NoProxyAvailable,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::MissingSink => write!(f, "declaration has no sink"),
            PlanError::NoSources => write!(f, "declaration has no sources"),
            PlanError::SinkIsSource(c) => write!(f, "sink {c:?} also listed as a source"),
            PlanError::DuplicateSource => write!(f, "duplicate source component"),
            PlanError::MissingVolume => write!(f, "expected_bytes missing or zero"),
            PlanError::Unplaced(c) => write!(f, "component {c:?} has no placement"),
            PlanError::SourcesSpanDatacenters => {
                write!(f, "sources span multiple datacenters")
            }
            PlanError::NoProxyAvailable => write!(f, "no eligible proxy host"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A compiled deployment decision.
#[derive(Debug, Clone)]
pub struct PlannedIncast {
    /// Declaration name.
    pub name: String,
    /// Resolved sender hosts.
    pub senders: Vec<HostId>,
    /// Resolved receiver host.
    pub receiver: HostId,
    /// The routing decision.
    pub routing: Routing,
    /// The predictor's estimated completion-time reduction.
    pub estimated_reduction: f64,
}

/// Compiles declarations against a placement, admitting each incast to
/// `plane` under its index as the request id.
pub fn compile(
    decls: &[IncastDecl],
    placement: &BTreeMap<Component, HostId>,
    topo: &Topology,
    plane: &mut ShardedOrchestrator,
) -> Result<Vec<PlannedIncast>, PlanError> {
    let mut plans = Vec::with_capacity(decls.len());
    for (i, decl) in decls.iter().enumerate() {
        let resolve = |c: &Component| -> Result<HostId, PlanError> {
            placement
                .get(c)
                .copied()
                .ok_or_else(|| PlanError::Unplaced(c.clone()))
        };
        let senders: Vec<HostId> = decl.sources.iter().map(resolve).collect::<Result<_, _>>()?;
        let receiver = resolve(&decl.sink)?;

        let sender_dcs: Vec<_> = senders.iter().map(|&h| topo.host_dc(h)).collect();
        if sender_dcs.windows(2).any(|w| w[0] != w[1]) {
            return Err(PlanError::SourcesSpanDatacenters);
        }
        let request = IncastRequest {
            id: i as u64,
            senders,
            receiver,
            expected_bytes: decl.expected_bytes,
        };
        let (routing, estimated_reduction) =
            admit(topo, plane, &request).ok_or(PlanError::NoProxyAvailable)?;
        plans.push(PlannedIncast {
            name: decl.name.clone(),
            senders: request.senders,
            receiver,
            routing,
            estimated_reduction,
        });
    }
    Ok(plans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::ShardedConfig;
    use dcsim::topology::{two_dc_leaf_spine, TwoDcParams};

    fn decl(bytes: u64) -> IncastDecl {
        IncastDecl::named("test")
            .sources(["a", "b", "c", "d"])
            .sink("agg")
            .expected_bytes(bytes)
            .build()
            .unwrap()
    }

    /// Places `a`..`d` on DC 0, `agg` on DC 1 and `local-agg` on DC 0,
    /// with the upper half of DC 0 as candidates of the global
    /// orchestrator: the plane with one shard.
    fn setup(params: &TwoDcParams) -> (Topology, BTreeMap<Component, HostId>, ShardedOrchestrator) {
        let topo = two_dc_leaf_spine(params);
        let dc0 = topo.hosts_in_dc(0);
        let dc1 = topo.hosts_in_dc(1);
        let placement: BTreeMap<Component, HostId> = [
            ("a".to_string(), dc0[0]),
            ("b".to_string(), dc0[1]),
            ("c".to_string(), dc0[2]),
            ("d".to_string(), dc0[3]),
            ("agg".to_string(), dc1[0]),
            ("local-agg".to_string(), dc0[4]),
        ]
        .into();
        let config = ShardedConfig {
            shards: 1,
            ..ShardedConfig::default()
        };
        let orch = ShardedOrchestrator::new(dc0[dc0.len() / 2..].to_vec(), config, 0);
        (topo, placement, orch)
    }

    #[test]
    fn builder_happy_path() {
        let d = decl(100_000_000);
        assert_eq!(d.sources.len(), 4);
        assert_eq!(d.sink, "agg");
    }

    #[test]
    fn builder_rejects_ambiguity() {
        assert_eq!(
            IncastDecl::named("x")
                .source("a")
                .expected_bytes(1)
                .build()
                .unwrap_err(),
            PlanError::MissingSink
        );
        assert_eq!(
            IncastDecl::named("x")
                .sink("s")
                .expected_bytes(1)
                .build()
                .unwrap_err(),
            PlanError::NoSources
        );
        assert_eq!(
            IncastDecl::named("x")
                .source("s")
                .sink("s")
                .expected_bytes(1)
                .build()
                .unwrap_err(),
            PlanError::SinkIsSource("s".into())
        );
        assert_eq!(
            IncastDecl::named("x")
                .sources(["a", "a"])
                .sink("s")
                .expected_bytes(1)
                .build()
                .unwrap_err(),
            PlanError::DuplicateSource
        );
        assert_eq!(
            IncastDecl::named("x")
                .source("a")
                .sink("s")
                .build()
                .unwrap_err(),
            PlanError::MissingVolume
        );
    }

    #[test]
    fn cross_dc_large_incast_gets_proxy() {
        let (topo, placement, mut orch) = setup(&TwoDcParams::default());
        let plans = compile(&[decl(100_000_000)], &placement, &topo, &mut orch).unwrap();
        assert_eq!(plans.len(), 1);
        match plans[0].routing {
            Routing::ViaProxy(p) => {
                assert_eq!(topo.host_dc(p), Some(0), "proxy in the senders' DC");
            }
            ref other => panic!("expected proxy routing, got {other:?}"),
        }
        assert!(plans[0].estimated_reduction > 0.0);
    }

    /// The planner sizes the bottleneck buffer from the topology: on
    /// `small_test` (1.7 MB down-ToR buffer) 4 × 7.5 MB overflows the first
    /// RTT, and `predictor_matches_simulated_benefit_boundary` simulates
    /// the proxy finishing that size in under 0.6× the direct time.
    #[test]
    fn buffer_comes_from_the_topology() {
        let (topo, placement, mut orch) = setup(&TwoDcParams::small_test());
        let plans = compile(&[decl(30_000_000)], &placement, &topo, &mut orch).unwrap();
        assert!(
            matches!(plans[0].routing, Routing::ViaProxy(_)),
            "{:?}",
            plans[0]
        );
        assert!(plans[0].estimated_reduction > 0.0);
    }

    #[test]
    fn cross_dc_small_incast_stays_direct() {
        let (topo, placement, mut orch) = setup(&TwoDcParams::default());
        let plans = compile(&[decl(20_000_000)], &placement, &topo, &mut orch).unwrap();
        assert_eq!(
            plans[0].routing,
            Routing::Direct,
            "§4.2: 20 MB gains nothing"
        );
    }

    #[test]
    fn same_dc_incast_stays_direct() {
        let (topo, mut placement, mut orch) = setup(&TwoDcParams::default());
        // Move the sink into DC 0.
        let local = placement["local-agg"];
        placement.insert("agg".to_string(), local);
        let plans = compile(&[decl(100_000_000)], &placement, &topo, &mut orch).unwrap();
        assert_eq!(plans[0].routing, Routing::Direct);
    }

    #[test]
    fn unplaced_component_fails_closed() {
        let (topo, mut placement, mut orch) = setup(&TwoDcParams::default());
        placement.remove("c");
        let err = compile(&[decl(1_000_000)], &placement, &topo, &mut orch).unwrap_err();
        assert_eq!(err, PlanError::Unplaced("c".into()));
    }

    #[test]
    fn spanning_sources_fail_closed() {
        let (topo, mut placement, mut orch) = setup(&TwoDcParams::default());
        let far = topo.hosts_in_dc(1)[5];
        placement.insert("d".to_string(), far);
        let err = compile(&[decl(100_000_000)], &placement, &topo, &mut orch).unwrap_err();
        assert_eq!(err, PlanError::SourcesSpanDatacenters);
    }

    #[test]
    fn concurrent_declarations_get_distinct_proxies() {
        let (topo, mut placement, mut orch) = setup(&TwoDcParams::default());
        let dc0 = topo.hosts_in_dc(0);
        let dc1 = topo.hosts_in_dc(1);
        for (i, c) in ["e", "f", "g", "h"].iter().enumerate() {
            placement.insert(c.to_string(), dc0[8 + i]);
        }
        placement.insert("agg2".to_string(), dc1[1]);
        let d1 = decl(100_000_000);
        let d2 = IncastDecl::named("second")
            .sources(["e", "f", "g", "h"])
            .sink("agg2")
            .expected_bytes(100_000_000)
            .build()
            .unwrap();
        let plans = compile(&[d1, d2], &placement, &topo, &mut orch).unwrap();
        let proxies: Vec<_> = plans
            .iter()
            .filter_map(|p| match p.routing {
                Routing::ViaProxy(h) => Some(h),
                Routing::Direct => None,
            })
            .collect();
        assert_eq!(proxies.len(), 2);
        assert_ne!(proxies[0], proxies[1], "orchestrator avoids contention");
    }

    #[test]
    fn periodic_metadata_is_preserved() {
        let d = IncastDecl::named("sync")
            .sources(["a", "b"])
            .sink("s")
            .expected_bytes(1)
            .periodic(SimDuration::from_millis(250))
            .build()
            .unwrap();
        assert_eq!(d.period, Some(SimDuration::from_millis(250)));
    }
}
