//! Scenarios are data: one [`Scenario`] says everything a simulated run is,
//! and [`Scenario::build`] (or [`Scenario::build_fleet`] for a partition)
//! is the one path from it to an engine ready to run. Every figure, the
//! fleet benchmark, the chaos fuzzer, the examples and the integration
//! tests build their runs here; a scenario reads and writes as JSON
//! ([`Scenario::to_json`], [`Scenario::from_json`]), so any of them can be
//! replayed as a repro.

use crate::lossdetect::LossDetectorConfig;
use crate::scheme::{install_incast, validate, IncastHandle, IncastKnobs, IncastSpec};
use crate::scheme::{Scheme, Transport};
use dcsim::prelude::*;
use dcsim::protocol::EcnResponse;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use trace::derive_seed;
pub use trace::json::Json;
use trace::json::{from_name, name_of};

/// The network a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fabric {
    /// The §4.1 two-datacenter leaf–spine ([`two_dc_leaf_spine`]).
    TwoDc(TwoDcParams),
    /// FW#1's random-graph two-datacenter fabric ([`two_dc_unstructured`]).
    Unstructured(UnstructuredParams),
    /// `pods` independent leaf–spine pairs in one topology
    /// ([`dcsim::topology::pods`]); pod `i` holds datacenters `2i` and
    /// `2i + 1`.
    Pods {
        /// Number of pods.
        pods: usize,
        /// The shape of every pod.
        params: TwoDcParams,
    },
}

impl Fabric {
    /// Builds the topology.
    pub fn topology(&self) -> Topology {
        match self {
            Fabric::TwoDc(p) => two_dc_leaf_spine(p),
            Fabric::Unstructured(p) => two_dc_unstructured(p),
            Fabric::Pods { pods, params } => dcsim::topology::pods(*pods, params),
        }
    }

    /// The hosts of datacenter `dc`, in id order.
    pub fn hosts_in_dc(&self, dc: u32) -> Vec<HostId> {
        self.topology().hosts_in_dc(dc)
    }

    /// The figures' [`placement`] on this fabric.
    pub fn placement(&self, degree: usize, total_bytes: u64) -> IncastSpec {
        placement(&self.topology(), degree, total_bytes)
    }
}

/// The figures' placement on `topo`: the first `degree` hosts of DC 0 send
/// `total_bytes` to the first host of DC 1, through the last host of DC 0.
/// A degree that leaves no DC 0 host for the proxy places a sender there,
/// which [`Scenario::build`] refuses.
pub fn placement(topo: &Topology, degree: usize, total_bytes: u64) -> IncastSpec {
    let dc0 = topo.hosts_in_dc(0);
    let senders = dc0.iter().copied().take(degree).collect();
    IncastSpec::new(senders, topo.hosts_in_dc(1)[0], total_bytes)
        .with_proxy(*dc0.last().expect("hosts in DC 0"))
}

/// One incast of a scenario: `spec` installed under `scheme`.
#[derive(Debug, Clone, PartialEq)]
pub struct Incast {
    /// The scheme the incast runs under.
    pub scheme: Scheme,
    /// Who sends how much to whom, through which proxy, and how.
    pub spec: IncastSpec,
}

/// One plain flow of a scenario ([`install_flow`]), started at `start`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Endpoints and bytes.
    pub spec: FlowSpec,
    /// When the sender starts.
    pub start: SimTime,
}

/// Everything a simulated run is. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The network.
    pub fabric: Fabric,
    /// Incasts, installed in order.
    pub incasts: Vec<Incast>,
    /// Plain flows, installed in order after the incasts.
    pub flows: Vec<Flow>,
    /// Web-search background flows ([`BackgroundTraffic`]) between hosts
    /// that take part in no incast, started uniformly in the first 10 ms.
    /// Fewer than two such hosts: none.
    pub background_flows: usize,
    /// Faults injected into the run (ports and agents by index).
    pub faults: FaultPlan,
    /// Hybrid fidelity: uncontended hops are advanced analytically. The
    /// receiver and proxy down-ToRs of every incast, and the receiver
    /// down-ToR of every plain flow between datacenters, are pinned at
    /// packet fidelity from the start.
    pub fidelity: bool,
    /// `None`: one [`Simulator`] ([`build`](Self::build)). `Some(n)`: a
    /// [`FleetSim`] partitioned by datacenter, run on `n` worker threads
    /// ([`build_fleet`](Self::build_fleet)); it takes plain flows only.
    pub threads: Option<usize>,
    /// Simulated-time budget from zero.
    pub time_limit: SimDuration,
    /// Invariant auditing (`None`: off).
    pub audit: Option<AuditConfig>,
}

impl Scenario {
    /// An empty run on `fabric`: no traffic, no faults, full fidelity, one
    /// simulator, a 600 s time limit, no audit.
    pub fn new(fabric: Fabric) -> Self {
        Scenario {
            fabric,
            incasts: Vec::new(),
            flows: Vec::new(),
            background_flows: 0,
            faults: FaultPlan::new(),
            fidelity: false,
            threads: None,
            time_limit: SimDuration::from_secs(600),
            audit: None,
        }
    }

    /// One incast of `spec` under `scheme` on `fabric`, otherwise as
    /// [`new`](Self::new).
    pub fn incast(fabric: Fabric, scheme: Scheme, spec: IncastSpec) -> Self {
        Scenario {
            incasts: vec![Incast { scheme, spec }],
            ..Scenario::new(fabric)
        }
    }

    /// The end of the time budget.
    pub fn deadline(&self) -> SimTime {
        SimTime::ZERO + self.time_limit
    }

    /// Builds the simulator for one seeded run: the topology, the auditor,
    /// the background flows, the incasts, the plain flows, hybrid fidelity
    /// with its pinned ports, and the fault plan, in that order. It returns
    /// a handle per incast, and an id per plain flow in scenario order
    /// followed by an id per background flow.
    /// `Err` says why the simulator cannot run the scenario: a partition
    /// (see [`build_fleet`](Self::build_fleet)), an incast `install_incast`
    /// would refuse, a degenerate flow, or a fault plan it rejects.
    pub fn build(&self, seed: u64) -> Result<(Simulator, Vec<IncastHandle>, Vec<FlowId>), String> {
        if self.threads.is_some() {
            return Err("a partitioned scenario builds a FleetSim (build_fleet)".to_string());
        }
        let (topo, pinned) = self.checked()?;
        let mut sim = Simulator::new(topo, seed);
        if let Some(audit) = self.audit {
            sim.set_audit(audit);
        }
        let busy = |h: &HostId| {
            self.incasts.iter().any(|i| {
                i.spec.senders.contains(h) || i.spec.receiver == *h || i.spec.proxy == Some(*h)
            })
        };
        let hosts = (0..sim.topology().host_count() as u32).map(HostId);
        let hosts: Vec<HostId> = hosts.filter(|h| !busy(h)).collect();
        let mut background = Vec::new();
        if self.background_flows > 0 && hosts.len() >= 2 {
            background = BackgroundTraffic {
                flows: self.background_flows,
                start_window: SimDuration::from_millis(10),
                hosts,
                seed: derive_seed(seed, 0xB6),
            }
            .install(&mut sim);
        }
        let incasts = self.incasts.iter();
        let incasts = incasts.map(|i| install_incast(&mut sim, &i.spec, i.scheme));
        let incasts = incasts.collect();
        let flows = self.flows.iter();
        let flows = flows.map(|f| install_flow(&mut sim, f.spec, f.start).flow);
        let flows = flows.chain(background.iter().map(|h| h.flow)).collect();
        if self.fidelity {
            // Before the fault plan, whose ports get pinned hot too.
            sim.set_fidelity(FidelityConfig::default());
            for port in pinned {
                sim.pin_hot_port(port);
            }
        }
        sim.install_faults(&self.faults)
            .map_err(|e| format!("fault plan rejected: {e}"))?;
        Ok((sim, incasts, flows))
    }

    /// Builds the fleet of a partitioned scenario: the topology, the
    /// auditor, hybrid fidelity with its pinned ports, and the plain flows,
    /// with an id per flow. `Err` for anything else: no partition, or
    /// incasts, background flows or faults, which `FleetSim` does not
    /// install.
    pub fn build_fleet(&self, seed: u64) -> Result<(FleetSim, Vec<FlowId>), String> {
        let Some(threads) = self.threads.filter(|&t| t > 0) else {
            return Err("a fleet needs a partition of at least one thread".to_string());
        };
        if !self.incasts.is_empty() || self.background_flows > 0 || !self.faults.is_empty() {
            return Err(
                "a partitioned scenario takes plain flows only: FleetSim installs \
                 no incast agents, background traffic or fault plan"
                    .to_string(),
            );
        }
        let (topo, pinned) = self.checked()?;
        let mut fleet = FleetSim::new(topo, seed);
        fleet.set_threads(threads);
        if let Some(audit) = self.audit {
            fleet.set_audit(audit);
        }
        if self.fidelity {
            fleet.set_fidelity(FidelityConfig::default());
            for port in pinned {
                fleet.pin_hot_port(port);
            }
        }
        let flows = self.flows.iter();
        let flows = flows.map(|f| fleet.install_flow(f.spec, f.start)).collect();
        Ok((fleet, flows))
    }

    /// Builds and runs the scenario's simulator to its deadline: the
    /// simulator after the run, its report, and each incast's completion
    /// time (`None`: not completed).
    pub fn run(
        &self,
        seed: u64,
    ) -> Result<(Simulator, RunReport, Vec<Option<SimDuration>>), String> {
        let (mut sim, incasts, _) = self.build(seed)?;
        let report = sim.run(Some(self.deadline()));
        let icts = incasts.iter().map(|h| h.completion(sim.metrics()));
        let icts = icts.collect();
        Ok((sim, report, icts))
    }

    /// The topology, once every incast and flow is checked against it, and
    /// the ports hybrid fidelity keeps at packet fidelity from the start:
    /// where the scenario's traffic congests. That is each incast's
    /// receiver and proxy down-ToR, and the receiver down-ToR of each plain
    /// flow between datacenters (a fleet's incasts are plain flows).
    fn checked(&self) -> Result<(Topology, Vec<PortId>), String> {
        let topo = self.fabric.topology();
        for incast in &self.incasts {
            validate(&incast.spec, incast.scheme, &topo)?;
        }
        let hosts = topo.host_count() as u32;
        for f in &self.flows {
            if f.spec.src == f.spec.dst || f.spec.bytes == 0 {
                return Err(format!("degenerate flow {:?}", f.spec));
            }
            if f.spec.src.0 >= hosts || f.spec.dst.0 >= hosts {
                return Err(format!("flow {:?} names a host the topology lacks", f.spec));
            }
        }
        let incasts = self.incasts.iter();
        let incast_hosts = incasts.flat_map(|i| [Some(i.spec.receiver), i.spec.proxy]);
        let flows = self.flows.iter().map(|f| f.spec);
        let crossing = flows.filter(|f| topo.host_dc(f.src) != topo.host_dc(f.dst));
        let hosts = incast_hosts.flatten().chain(crossing.map(|f| f.dst));
        let pinned = hosts.map(|h| topo.down_tor_port(h)).collect();
        Ok((topo, pinned))
    }

    /// The least completion time each incast can have on `topo`, the
    /// scenario's topology, in scenario order.
    ///
    /// Every byte of an incast reaches its receiver over the receiver's
    /// down-ToR link, so that link serializes at least `total_bytes`
    /// (packets carry headers too, and retransmissions only add). It
    /// cannot start before the first packet has come from the nearest
    /// sender up to the down-ToR switch, and the last packet still has the
    /// link's own latency to cross. Links are store-and-forward and every
    /// latency is positive, so the completion time, counted from the
    /// incast's start, is at least
    ///
    /// `total_bytes / receiver link rate + one-way base latency`,
    ///
    /// where the base latency is the least sum of link latencies over any
    /// path from a sender to the receiver (the proxy's detour only adds).
    /// A completed incast below its floor is a simulator bug.
    pub fn ict_floors(&self, topo: &Topology) -> Vec<SimDuration> {
        let floor = |spec: &IncastSpec| {
            let link = topo.port(topo.down_tor_port(spec.receiver)).link;
            let senders = spec.senders.iter();
            let latency = senders.map(|&s| min_latency(topo, s, spec.receiver)).min();
            link.bandwidth.serialize_time(spec.total_bytes) + latency.unwrap_or_default()
        };
        self.incasts.iter().map(|i| floor(&i.spec)).collect()
    }

    /// The scenario as JSON: each field by its name, times and durations
    /// in picoseconds, rates in bits per second, enums by name.
    /// [`from_json`](Self::from_json) reads it back to an equal value.
    pub fn to_json(&self) -> Json {
        self.enc()
    }

    /// Reads a scenario [`to_json`](Self::to_json) wrote.
    pub fn from_json(v: &Json) -> Result<Scenario, String> {
        Codec::dec(v)
    }
}

/// The least sum of link latencies over any path from `from` to `to`
/// (Dijkstra over every port, whatever the routes).
fn min_latency(topo: &Topology, from: HostId, to: HostId) -> SimDuration {
    let mut best = vec![u64::MAX; topo.node_count()];
    let (from, to) = (topo.host_node(from), topo.host_node(to));
    best[from.index()] = 0;
    let mut heap = BinaryHeap::from([Reverse((0u64, from.0))]);
    while let Some(Reverse((d, node))) = heap.pop() {
        if node == to.0 {
            return SimDuration(d);
        }
        for &p in topo.ports_of(NodeId(node)) {
            let port = topo.port(p);
            let next = d + port.link.latency.0;
            if next < best[port.to.index()] {
                best[port.to.index()] = next;
                heap.push(Reverse((next, port.to.0)));
            }
        }
    }
    panic!("no path from {from:?} to {to:?}")
}

/// How scenarios (and `figures adhoc`) spell the schemes.
pub const SCHEME_NAMES: &[(&str, Scheme)] = &[
    ("baseline", Scheme::Baseline),
    ("naive", Scheme::ProxyNaive),
    ("streamlined", Scheme::ProxyStreamlined),
    ("detecting", Scheme::ProxyDetecting),
];
/// How scenarios spell the transports.
pub const TRANSPORT_NAMES: &[(&str, Transport)] = &[
    ("windowed", Transport::WindowedDctcp),
    ("rate", Transport::RateBased),
];
const AUDIT_MODES: &[(&str, AuditMode)] = &[
    ("collect", AuditMode::Collect),
    ("strict", AuditMode::Strict),
];

/// A value's JSON form in a scenario or a repro file.
pub trait Codec: Sized {
    /// The value as JSON.
    fn enc(&self) -> Json;
    /// Reads back what [`enc`](Self::enc) wrote.
    fn dec(v: &Json) -> Result<Self, String>;
}

/// `v[key]`, decoded; the error names the key.
pub fn field<T: Codec>(v: &Json, key: &str) -> Result<T, String> {
    let value = v.get(key).ok_or_else(|| format!("missing {key}"))?;
    T::dec(value).map_err(|e| format!("{key}: {e}"))
}

/// Implements [`Codec`]: `int` types as JSON numbers, `wrap` newtypes as
/// their one field, `name` enums by the names in a table, and structs as
/// objects of the listed fields, each under its own name. The struct form
/// works from any crate; the others only here.
#[macro_export]
macro_rules! codec {
    (int $($t:ty),*) => {$(
        impl Codec for $t {
            fn enc(&self) -> Json {
                Json::u64(*self as u64)
            }
            fn dec(v: &Json) -> Result<Self, String> {
                Ok(v.u64_value()? as $t)
            }
        }
    )*};
    (wrap $($t:ident),*) => {$(
        impl Codec for $t {
            fn enc(&self) -> Json {
                self.0.enc()
            }
            fn dec(v: &Json) -> Result<Self, String> {
                Codec::dec(v).map($t)
            }
        }
    )*};
    (name $($t:ty = $names:expr),*) => {$(
        impl Codec for $t {
            fn enc(&self) -> Json {
                Json::str(name_of($names, *self))
            }
            fn dec(v: &Json) -> Result<Self, String> {
                match v {
                    Json::Str(name) => from_name($names, stringify!($t), name),
                    other => Err(format!("expected a name, got {other:?}")),
                }
            }
        }
    )*};
    ($($t:ident { $($f:ident),* })*) => {$(
        impl $crate::scenario::Codec for $t {
            fn enc(&self) -> $crate::scenario::Json {
                let fields = vec![$((stringify!($f), $crate::scenario::Codec::enc(&self.$f))),*];
                $crate::scenario::Json::obj(fields)
            }
            fn dec(v: &$crate::scenario::Json) -> Result<Self, String> {
                Ok($t { $($f: $crate::scenario::field(v, stringify!($f))?),* })
            }
        }
    )*};
}

codec!(int u64, u32, usize);
codec!(wrap SimDuration, SimTime, Bandwidth, HostId, PortId, AgentId);
codec!(name Scheme = SCHEME_NAMES, Transport = TRANSPORT_NAMES, AuditMode = AUDIT_MODES);
codec! {
    Scenario { fabric, incasts, flows, background_flows, faults, fidelity, threads, time_limit, audit }
    Incast { scheme, spec }
    IncastSpec { senders, receiver, proxy, total_bytes, start, knobs }
    IncastKnobs { iw_scale, early_nack, ecn_response, detector, transport, failover }
    LossDetectorConfig { reorder_threshold, max_pending }
    Flow { spec, start }
    FlowSpec { src, dst, bytes }
    AuditConfig { mode, check_every_events, liveness_horizon }
    TwoDcParams {
        spines_per_dc, leaves_per_dc, hosts_per_leaf, backbones_per_spine, dc_link,
        intra_latency_jitter, jitter_seed, wan_link, dc_queue, backbone_queue, host_queue
    }
    UnstructuredParams {
        switches_per_dc, extra_links_per_dc, hosts_per_dc, gateways, dc_link, wan_link,
        dc_queue, host_queue, seed
    }
    LinkProps { bandwidth, latency }
    QueueConfig { capacity_bytes, ctrl_capacity_bytes, mark_low_bytes, mark_high_bytes, trim }
    FaultPlan { link_windows, impairments, syscall_errors, crashes, shard_crashes }
    LinkWindow { port, down_at, up_at }
    PortImpairment { port, loss, corrupt, duplicate, delay, delay_max }
    SyscallErrors { port, again, nobufs }
    AgentCrash { agent, at, restore_at }
    ShardCrash { shard, at, restore_at }
}

impl Codec for bool {
    fn enc(&self) -> Json {
        Json::Bool(*self)
    }
    fn dec(v: &Json) -> Result<Self, String> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, got {other:?}")),
        }
    }
}

impl Codec for f64 {
    fn enc(&self) -> Json {
        Json::f64(*self)
    }
    fn dec(v: &Json) -> Result<Self, String> {
        v.f64_value()
    }
}

/// `null` for `None`.
impl<T: Codec> Codec for Option<T> {
    fn enc(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::enc)
    }
    fn dec(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            v => T::dec(v).map(Some),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn enc(&self) -> Json {
        Json::Arr(self.iter().map(T::enc).collect())
    }
    fn dec(v: &Json) -> Result<Self, String> {
        v.arr()?.iter().map(T::dec).collect()
    }
}

/// `{"dctcp_alpha": g}` or `"halve_per_round"`.
impl Codec for EcnResponse {
    fn enc(&self) -> Json {
        match self {
            EcnResponse::DctcpAlpha { g } => Json::obj(vec![("dctcp_alpha", g.enc())]),
            EcnResponse::HalvePerRound => Json::str("halve_per_round"),
        }
    }
    fn dec(v: &Json) -> Result<Self, String> {
        match v {
            Json::Str(s) if s == "halve_per_round" => Ok(EcnResponse::HalvePerRound),
            v => Ok(EcnResponse::DctcpAlpha {
                g: field(v, "dctcp_alpha")?,
            }),
        }
    }
}

/// One key naming the variant: `{"two_dc": params}`, `{"unstructured":
/// params}` or `{"pods": {"pods": n, "params": params}}`.
impl Codec for Fabric {
    fn enc(&self) -> Json {
        Json::obj(vec![match self {
            Fabric::TwoDc(p) => ("two_dc", p.enc()),
            Fabric::Unstructured(p) => ("unstructured", p.enc()),
            Fabric::Pods { pods, params } => (
                "pods",
                Json::obj(vec![("pods", pods.enc()), ("params", params.enc())]),
            ),
        }])
    }
    fn dec(v: &Json) -> Result<Self, String> {
        if let Some(p) = v.get("two_dc") {
            Ok(Fabric::TwoDc(Codec::dec(p)?))
        } else if let Some(p) = v.get("unstructured") {
            Ok(Fabric::Unstructured(Codec::dec(p)?))
        } else if let Some(p) = v.get("pods") {
            let (pods, params) = (field(p, "pods")?, field(p, "params")?);
            Ok(Fabric::Pods { pods, params })
        } else {
            Err(format!("unknown fabric {v:?}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Fabric {
        Fabric::TwoDc(TwoDcParams::small_test())
    }

    #[test]
    fn build_refuses_what_the_engines_cannot_run() {
        let proxied = Incast {
            scheme: Scheme::ProxyStreamlined,
            spec: small().placement(3, 1_000_000),
        };
        let partitioned = Scenario {
            incasts: vec![proxied.clone()],
            threads: Some(2),
            ..Scenario::new(small())
        };
        let err = partitioned.build_fleet(1).err().expect("a proxied incast");
        assert!(err.contains("plain flows only"), "{err}");
        let err = partitioned.build(1).err().expect("a partition");
        assert!(err.contains("build_fleet"), "{err}");
        // small_test has 8 hosts per DC: degree 8 leaves none for the proxy.
        let crowded = Scenario {
            incasts: vec![Incast {
                spec: small().placement(8, 1_000_000),
                ..proxied.clone()
            }],
            ..Scenario::new(small())
        };
        let err = crowded.build(1).err().expect("no host left for the proxy");
        assert!(err.contains("proxy cannot be a sender"), "{err}");
        let alone = Scenario {
            incasts: vec![proxied],
            ..Scenario::new(small())
        };
        assert!(alone.build(1).is_ok());
        assert!(alone.build_fleet(1).is_err(), "no partition");
    }

    #[test]
    fn every_fabric_round_trips_through_json() {
        let spec = small().placement(3, 2_000_000);
        let mut knobs = IncastKnobs {
            ecn_response: EcnResponse::HalvePerRound,
            ..IncastKnobs::default()
        };
        knobs.iw_scale = 0.3;
        let scenarios = [
            Scenario {
                incasts: vec![Incast {
                    scheme: Scheme::ProxyDetecting,
                    spec: IncastSpec { knobs, ..spec },
                }],
                background_flows: 3,
                faults: FaultPlan::new().crash_agent(AgentId(2), SimTime(5)),
                fidelity: true,
                audit: Some(AuditConfig::collect().with_liveness(SimDuration(7))),
                ..Scenario::new(Fabric::TwoDc(
                    TwoDcParams::small_test().with_path_jitter(0.25, 3),
                ))
            },
            Scenario::new(Fabric::Unstructured(UnstructuredParams::default())),
            Scenario {
                flows: vec![Flow {
                    spec: FlowSpec::new(HostId(0), HostId(9), 1_000),
                    start: SimTime(17),
                }],
                threads: Some(2),
                ..Scenario::new(Fabric::Pods {
                    pods: 2,
                    params: TwoDcParams::small_test(),
                })
            },
        ];
        for sc in scenarios {
            let text = sc.to_json().render();
            let back = Scenario::from_json(&Json::parse(&text).expect("parses"));
            assert_eq!(back.as_ref(), Ok(&sc), "{text}");
        }
    }

    #[test]
    fn an_incast_completes_above_its_floor_and_near_it_when_alone() {
        let sc = Scenario {
            incasts: vec![Incast {
                scheme: Scheme::Baseline,
                spec: IncastSpec::new(vec![HostId(0)], HostId(8), 1_000_000),
            }],
            ..Scenario::new(small())
        };
        let (sim, _, icts) = sc.run(1).expect("builds");
        let ict = icts[0].expect("completes");
        let floor = sc.ict_floors(sim.topology())[0];
        // One sender, 1 MB at 100 Gbps (80 us) over a 100 us WAN plus four
        // 1 us hops: a lone flow's ramp and headers keep it above, not far.
        assert_eq!(floor, SimDuration::from_micros(80 + 2 * 100 + 4));
        assert!(
            ict >= floor && ict < floor.saturating_mul(4),
            "{ict} vs {floor}"
        );
    }
}
