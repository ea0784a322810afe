//! Topology description and route computation.
//!
//! A topology is a directed graph of nodes (hosts and switches) connected by
//! ports (queue + link pairs). Routes are computed once at build time by a
//! breadth-first search per destination host: each node stores *all*
//! equal-cost next-hop ports toward each host, and switches spray packets
//! uniformly across them at forwarding time (§4.1: "We use packet
//! spraying").
//!
//! [`two_dc_leaf_spine`] builds the exact §4.1 evaluation topology: two
//! leaf–spine datacenters (8 spines × 8 leaves × 8 hosts/leaf) joined by 64
//! backbone routers, each backbone peering one spine in each datacenter over
//! a long-haul link.

use crate::packet::{HostId, NodeId, PortId};
use crate::queues::QueueConfig;
use crate::time::{Bandwidth, SimDuration};
use std::collections::VecDeque;

/// Physical properties of a unidirectional link.
#[derive(Debug, Clone, Copy)]
pub struct LinkProps {
    /// Link rate.
    pub bandwidth: Bandwidth,
    /// One-way propagation delay.
    pub latency: SimDuration,
}

impl LinkProps {
    /// 100 Gbps / 1 µs: the intra-datacenter links of §4.1.
    pub fn datacenter() -> Self {
        LinkProps {
            bandwidth: Bandwidth::gbps(100),
            latency: SimDuration::from_micros(1),
        }
    }

    /// 100 Gbps / 1 ms: the spine↔backbone long-haul links of §4.1.
    pub fn long_haul() -> Self {
        LinkProps {
            bandwidth: Bandwidth::gbps(100),
            latency: SimDuration::from_millis(1),
        }
    }
}

/// What a node is; used for diagnostics and by experiment code that needs
/// to pick hosts per datacenter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// A server. Carries its host index.
    Host(HostId),
    /// A top-of-rack (leaf) switch.
    Leaf,
    /// A spine switch.
    Spine,
    /// A backbone (long-haul) router.
    Backbone,
    /// A switch in a hand-built topology.
    Generic,
}

/// A unidirectional port: the queue and link from `from` to `to`.
#[derive(Debug, Clone, Copy)]
pub struct PortSpec {
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Link properties.
    pub link: LinkProps,
    /// Queue configuration at the transmitting side.
    pub queue: QueueConfig,
}

#[derive(Debug, Clone)]
pub(crate) struct NodeSpec {
    pub role: NodeRole,
    /// Datacenter index for structured topologies (None for generic nodes).
    pub dc: Option<u32>,
    /// Output ports of this node.
    pub ports: Vec<PortId>,
}

/// Dimensions of a structured two-DC leaf–spine topology, for closed-form
/// routing. With these, candidate sets are arithmetic over each node's
/// in-order port list instead of a BFS-filled `nodes × hosts` table — the
/// table is what caps the dense representation at a few hundred hosts
/// (10k hosts × 20k nodes would be 200M rows), while the closed
/// form is O(1) memory at any scale.
#[derive(Debug, Clone, Copy)]
pub struct TwoDcLayout {
    /// Spines per datacenter.
    pub spines: usize,
    /// Leaves per datacenter.
    pub leaves: usize,
    /// Hosts per leaf.
    pub hosts_per_leaf: usize,
    /// Backbone routers per spine pair.
    pub backbones_per_spine: usize,
}

impl TwoDcLayout {
    fn nodes_per_dc(&self) -> usize {
        self.leaves + self.spines + self.leaves * self.hosts_per_leaf
    }

    fn hosts_per_dc(&self) -> usize {
        self.leaves * self.hosts_per_leaf
    }
}

/// Route representation: a dense BFS table for arbitrary graphs, or the
/// closed form for structured two-DC topologies. The closed form returns
/// exactly the slices the BFS would have stored (same ports, same order),
/// verified exhaustively by `structured_routes_match_bfs`.
#[derive(Debug, Clone)]
enum Routes {
    /// A compressed-row table, host-major: row `k = host * nodes + node`
    /// holds the equal-cost output ports at `node` toward `host`, in
    /// `ports[start[k]..start[k + 1]]` (`start` has `hosts * nodes + 1`
    /// entries). Within a row the ports keep the node's port-addition
    /// order — the order the spray draw indexes into — and a host's own
    /// row toward itself is empty.
    Dense {
        /// Row offsets into `ports`.
        start: Vec<u32>,
        /// Every row's candidates, back to back.
        ports: Vec<PortId>,
    },
    /// Arithmetic candidates over the two-DC layout.
    TwoDc(TwoDcLayout),
}

/// An immutable, route-annotated topology.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<NodeSpec>,
    ports: Vec<PortSpec>,
    /// host index -> node id.
    hosts: Vec<NodeId>,
    routes: Routes,
    /// host index -> the switch port transmitting to that host.
    down_tor: Vec<PortId>,
}

/// Incrementally builds a [`Topology`].
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    nodes: Vec<NodeSpec>,
    ports: Vec<PortSpec>,
    hosts: Vec<NodeId>,
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a host and returns its id.
    pub fn add_host(&mut self, dc: Option<u32>) -> HostId {
        let host = HostId(self.hosts.len() as u32);
        let node = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeSpec {
            role: NodeRole::Host(host),
            dc,
            ports: Vec::new(),
        });
        self.hosts.push(node);
        host
    }

    /// Adds a switch and returns its node id.
    pub fn add_switch(&mut self, role: NodeRole, dc: Option<u32>) -> NodeId {
        assert!(!matches!(role, NodeRole::Host(_)), "use add_host for hosts");
        let node = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeSpec {
            role,
            dc,
            ports: Vec::new(),
        });
        node
    }

    /// Node id of a host.
    pub fn host_node(&self, host: HostId) -> NodeId {
        self.hosts[host.index()]
    }

    /// Adds a unidirectional port from `from` to `to`.
    ///
    /// # Panics
    /// Panics on unknown nodes or an invalid queue config — catching a bad
    /// config at construction, with the offending link named, instead of
    /// deep inside [`crate::sim::Simulator::new`].
    pub fn add_port(
        &mut self,
        from: NodeId,
        to: NodeId,
        link: LinkProps,
        queue: QueueConfig,
    ) -> PortId {
        assert!(from.index() < self.nodes.len(), "unknown node {from}");
        assert!(to.index() < self.nodes.len(), "unknown node {to}");
        if let Err(e) = queue.validate() {
            panic!("invalid queue config on port {from} -> {to}: {e}");
        }
        let port = PortId(self.ports.len() as u32);
        self.ports.push(PortSpec {
            from,
            to,
            link,
            queue,
        });
        self.nodes[from.index()].ports.push(port);
        port
    }

    /// Adds a bidirectional link: one port in each direction, with possibly
    /// different queue configs per side (e.g. a shallow host NIC queue
    /// facing a deep switch buffer).
    pub fn add_duplex(
        &mut self,
        a: NodeId,
        b: NodeId,
        link: LinkProps,
        queue_a: QueueConfig,
        queue_b: QueueConfig,
    ) -> (PortId, PortId) {
        let ab = self.add_port(a, b, link, queue_a);
        let ba = self.add_port(b, a, link, queue_b);
        (ab, ba)
    }

    /// Computes routes and freezes the topology.
    ///
    /// # Panics
    /// Panics if some host is unreachable from some node (a disconnected
    /// topology is always a construction bug in this repository).
    pub fn build(self) -> Topology {
        let n = self.nodes.len();
        // Reverse adjacency: for BFS from each destination host.
        let mut rev: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for p in &self.ports {
            rev[p.to.index()].push(p.from);
        }
        let mut start = Vec::with_capacity(self.hosts.len() * n + 1);
        start.push(0u32);
        let mut ports = Vec::new();
        let mut dist = vec![u32::MAX; n];
        let mut q = VecDeque::with_capacity(n);
        for (h, &host_node) in self.hosts.iter().enumerate() {
            dist.fill(u32::MAX);
            dist[host_node.index()] = 0;
            q.push_back(host_node);
            while let Some(node) = q.pop_front() {
                let d = dist[node.index()];
                for &prev in &rev[node.index()] {
                    if dist[prev.index()] == u32::MAX {
                        dist[prev.index()] = d + 1;
                        q.push_back(prev);
                    }
                }
            }
            // Host `h`'s rows, one per node in index order.
            for (i, node) in self.nodes.iter().enumerate() {
                if i != host_node.index() {
                    assert!(dist[i] != u32::MAX, "node {} cannot reach host {}", i, h);
                    let row = ports.len();
                    ports.extend(
                        node.ports
                            .iter()
                            .filter(|p| dist[self.ports[p.index()].to.index()] == dist[i] - 1),
                    );
                    debug_assert!(ports.len() > row);
                }
                start.push(u32::try_from(ports.len()).expect("route table outgrows u32 offsets"));
            }
        }
        Topology::finish(
            self.nodes,
            self.ports,
            self.hosts,
            Routes::Dense { start, ports },
        )
    }

    /// Freezes a topology constructed by [`two_dc_leaf_spine`] with
    /// closed-form routing — no BFS and no `nodes × hosts` table, which is
    /// what makes 10k+ host fleets constructible. The builder's contents
    /// must match `layout` exactly (checked).
    fn build_two_dc(self, layout: TwoDcLayout) -> Topology {
        assert_eq!(self.nodes.len(), {
            2 * layout.nodes_per_dc() + layout.spines * layout.backbones_per_spine
        });
        assert_eq!(self.hosts.len(), 2 * layout.hosts_per_dc());
        Topology::finish(self.nodes, self.ports, self.hosts, Routes::TwoDc(layout))
    }
}

impl Topology {
    /// Finalizes a topology: precomputes the dense host → down-ToR port
    /// map (first port transmitting to each host, matching the historical
    /// linear-scan order).
    fn finish(
        nodes: Vec<NodeSpec>,
        ports: Vec<PortSpec>,
        hosts: Vec<NodeId>,
        routes: Routes,
    ) -> Topology {
        let mut host_of_node: Vec<Option<HostId>> = vec![None; nodes.len()];
        for (h, &node) in hosts.iter().enumerate() {
            host_of_node[node.index()] = Some(HostId(h as u32));
        }
        let mut down_tor: Vec<Option<PortId>> = vec![None; hosts.len()];
        for (i, p) in ports.iter().enumerate() {
            if let Some(host) = host_of_node[p.to.index()] {
                let slot = &mut down_tor[host.index()];
                if slot.is_none() {
                    *slot = Some(PortId(i as u32));
                }
            }
        }
        let down_tor = down_tor
            .into_iter()
            .map(|p| p.expect("every host hangs off a switch"))
            .collect();
        Topology {
            nodes,
            ports,
            hosts,
            routes,
            down_tor,
        }
    }

    /// Number of nodes (hosts + switches).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of unidirectional ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Node id of a host.
    pub fn host_node(&self, host: HostId) -> NodeId {
        self.hosts[host.index()]
    }

    /// Role of a node.
    pub fn role(&self, node: NodeId) -> NodeRole {
        self.nodes[node.index()].role
    }

    /// Datacenter index of a node, if it belongs to a structured topology.
    pub fn dc_of(&self, node: NodeId) -> Option<u32> {
        self.nodes[node.index()].dc
    }

    /// Datacenter index of a host.
    pub fn host_dc(&self, host: HostId) -> Option<u32> {
        self.dc_of(self.host_node(host))
    }

    /// All hosts in a given datacenter.
    pub fn hosts_in_dc(&self, dc: u32) -> Vec<HostId> {
        (0..self.hosts.len() as u32)
            .map(HostId)
            .filter(|&h| self.host_dc(h) == Some(dc))
            .collect()
    }

    /// Port descriptor.
    pub fn port(&self, port: PortId) -> &PortSpec {
        &self.ports[port.index()]
    }

    /// Output ports of a node.
    pub fn ports_of(&self, node: NodeId) -> &[PortId] {
        &self.nodes[node.index()].ports
    }

    /// The "down-ToR" port of a host: the switch port transmitting *to*
    /// the host. This is where incast congestion materializes (the
    /// receiver's down-ToR in the baseline, the proxy's under the proxy
    /// schemes).
    pub fn down_tor_port(&self, host: HostId) -> PortId {
        self.down_tor[host.index()]
    }

    /// Equal-cost candidate ports at `node` toward `dst`.
    ///
    /// Empty exactly when `node` *is* the destination host.
    #[inline]
    pub fn candidates(&self, node: NodeId, dst: HostId) -> &[PortId] {
        match &self.routes {
            Routes::Dense { start, ports } => {
                let k = dst.index() * self.nodes.len() + node.index();
                &ports[start[k] as usize..start[k + 1] as usize]
            }
            Routes::TwoDc(l) => self.two_dc_candidates(*l, node, dst),
        }
    }

    /// Closed-form equal-cost candidates for the structured two-DC
    /// topology. Relies on the port-addition order of [`two_dc_leaf_spine`]:
    /// leaves hold `[down_0..down_{K-1}, up_spine_0..up_spine_{S-1}]`,
    /// spines `[to_leaf_0..to_leaf_{L-1}, to_bb_0..to_bb_{B-1}]`, backbones
    /// `[to_spine_dc0, to_spine_dc1]`, hosts their single NIC — so every
    /// BFS candidate set is a contiguous slice of the node's in-order port
    /// list, and this returns those exact slices.
    fn two_dc_candidates(&self, l: TwoDcLayout, node: NodeId, dst: HostId) -> &[PortId] {
        let per_dc = l.nodes_per_dc();
        let hosts_per_dc = l.hosts_per_dc();
        let dst_dc = dst.index() / hosts_per_dc;
        let local = dst.index() % hosts_per_dc;
        let dst_leaf = local / l.hosts_per_leaf;
        let dst_slot = local % l.hosts_per_leaf;
        let ports = &self.nodes[node.index()].ports;
        let i = node.index();
        if i >= 2 * per_dc {
            // Backbone router: one way on, toward the destination DC's
            // peer spine.
            return &ports[dst_dc..dst_dc + 1];
        }
        let dc = i / per_dc;
        let off = i % per_dc;
        if off < l.leaves {
            // Leaf switch.
            if dc == dst_dc && off == dst_leaf {
                &ports[dst_slot..dst_slot + 1]
            } else {
                &ports[l.hosts_per_leaf..l.hosts_per_leaf + l.spines]
            }
        } else if off < l.leaves + l.spines {
            // Spine switch.
            if dc == dst_dc {
                &ports[dst_leaf..dst_leaf + 1]
            } else {
                &ports[l.leaves..l.leaves + l.backbones_per_spine]
            }
        } else {
            // Host: its single NIC, or nothing if it *is* the destination.
            if self.hosts[dst.index()] == node {
                &[]
            } else {
                ports
            }
        }
    }

    /// Number of hops (links) on a shortest path between two hosts.
    pub fn path_hops(&self, src: HostId, dst: HostId) -> usize {
        self.walk_path(src, dst).len()
    }

    /// One-way propagation latency along a shortest path (all equal-cost
    /// paths in the structured topologies have identical latency).
    pub fn path_latency(&self, src: HostId, dst: HostId) -> SimDuration {
        self.walk_path(src, dst)
            .iter()
            .fold(SimDuration::ZERO, |acc, &p| {
                acc + self.ports[p.index()].link.latency
            })
    }

    /// Minimum link bandwidth along a shortest path.
    pub fn path_bottleneck(&self, src: HostId, dst: HostId) -> Bandwidth {
        self.walk_path(src, dst)
            .iter()
            .map(|&p| self.ports[p.index()].link.bandwidth)
            .min()
            .expect("empty path")
    }

    /// Base RTT estimate between two hosts: propagation both ways plus one
    /// serialization of `data_bytes` and `ack_bytes` per hop (store-and-
    /// forward).
    pub fn base_rtt(
        &self,
        src: HostId,
        dst: HostId,
        data_bytes: u64,
        ack_bytes: u64,
    ) -> SimDuration {
        let fwd = self.walk_path(src, dst);
        let rev = self.walk_path(dst, src);
        let mut rtt = SimDuration::ZERO;
        for &p in &fwd {
            let spec = &self.ports[p.index()];
            rtt = rtt + spec.link.latency + spec.link.bandwidth.serialize_time(data_bytes);
        }
        for &p in &rev {
            let spec = &self.ports[p.index()];
            rtt = rtt + spec.link.latency + spec.link.bandwidth.serialize_time(ack_bytes);
        }
        rtt
    }

    /// Follows first-candidate ports from `src` to `dst`, returning the port
    /// sequence. Used for path metrics, not for forwarding.
    fn walk_path(&self, src: HostId, dst: HostId) -> Vec<PortId> {
        assert_ne!(src, dst, "path to self");
        let mut node = self.host_node(src);
        let dst_node = self.host_node(dst);
        let mut path = Vec::new();
        while node != dst_node {
            let cands = self.candidates(node, dst);
            let port = *cands.first().expect("no route");
            path.push(port);
            node = self.ports[port.index()].to;
            assert!(path.len() <= self.nodes.len(), "routing loop");
        }
        path
    }
}

/// Parameters for the §4.1 two-datacenter topology.
#[derive(Debug, Clone, Copy)]
pub struct TwoDcParams {
    /// Spine switches per datacenter (paper: 8).
    pub spines_per_dc: usize,
    /// Leaf switches per datacenter (paper: 8).
    pub leaves_per_dc: usize,
    /// Servers per leaf (paper: 8).
    pub hosts_per_leaf: usize,
    /// Backbone routers connected to each spine (paper: 8; total backbone
    /// routers = spines_per_dc × this).
    pub backbones_per_spine: usize,
    /// Intra-datacenter links (paper: 100 Gbps / 1 µs).
    pub dc_link: LinkProps,
    /// Relative jitter applied to each leaf↔spine link's latency
    /// (multiplied by `1 + jitter·u`, u uniform per link): models
    /// unequal-depth equal-cost paths, which make packet spraying reorder.
    /// 0.0 (the paper's symmetric topology) by default.
    pub intra_latency_jitter: f64,
    /// Seed for the jitter draw (topology construction stays
    /// deterministic).
    pub jitter_seed: u64,
    /// Spine↔backbone long-haul links (paper: 100 Gbps / 1 ms).
    pub wan_link: LinkProps,
    /// Switch buffers inside the datacenter.
    pub dc_queue: QueueConfig,
    /// Backbone router buffers.
    pub backbone_queue: QueueConfig,
    /// Host NIC egress queue.
    pub host_queue: QueueConfig,
}

impl Default for TwoDcParams {
    fn default() -> Self {
        TwoDcParams {
            spines_per_dc: 8,
            leaves_per_dc: 8,
            hosts_per_leaf: 8,
            backbones_per_spine: 8,
            dc_link: LinkProps::datacenter(),
            intra_latency_jitter: 0.0,
            jitter_seed: 0,
            wan_link: LinkProps::long_haul(),
            dc_queue: QueueConfig::datacenter(),
            backbone_queue: QueueConfig::backbone(),
            host_queue: QueueConfig::host(),
        }
    }
}

impl TwoDcParams {
    /// A scaled-down topology (2 spines × 2 leaves × 4 hosts/leaf) for fast
    /// unit and integration tests. Links and buffers shrink together so the
    /// paper's regime is preserved: the long-haul latency drops to 100 µs
    /// (BDP ≈ 5 MB) and switch buffers to ~1.7 MB, keeping the
    /// buffer-to-BDP ratio of §4.1 (~0.34) — a few-MB incast overloads the
    /// bottleneck exactly like 100 MB does at paper scale.
    pub fn small_test() -> Self {
        let dc_queue = QueueConfig {
            capacity_bytes: 1_700_000,
            ctrl_capacity_bytes: 500_000,
            ..QueueConfig::datacenter()
        };
        let backbone_queue = QueueConfig {
            capacity_bytes: 5_000_000,
            ctrl_capacity_bytes: 500_000,
            mark_low_bytes: 1_000_000,
            mark_high_bytes: 4_000_000,
            trim: true,
        };
        TwoDcParams {
            spines_per_dc: 2,
            leaves_per_dc: 2,
            hosts_per_leaf: 4,
            backbones_per_spine: 2,
            wan_link: LinkProps {
                bandwidth: Bandwidth::gbps(100),
                latency: SimDuration::from_micros(100),
            },
            dc_queue,
            backbone_queue,
            ..Default::default()
        }
    }

    /// Sets the long-haul link latency (the Figure 3 sweep variable).
    pub fn with_wan_latency(mut self, latency: SimDuration) -> Self {
        self.wan_link.latency = latency;
        self
    }

    /// Enables or disables packet trimming on every switch queue (§4.1
    /// enables trimming for the Streamlined scheme only; Baseline and
    /// Naive run drop-tail).
    pub fn with_trim(mut self, trim: bool) -> Self {
        self.dc_queue.trim = trim;
        self.backbone_queue.trim = trim;
        self
    }

    /// Sets the leaf↔spine latency jitter (see `intra_latency_jitter`).
    pub fn with_path_jitter(mut self, jitter: f64, seed: u64) -> Self {
        assert!(
            (0.0..=10.0).contains(&jitter),
            "unreasonable jitter {jitter}"
        );
        self.intra_latency_jitter = jitter;
        self.jitter_seed = seed;
        self
    }

    /// Hosts per datacenter.
    pub fn hosts_per_dc(&self) -> usize {
        self.leaves_per_dc * self.hosts_per_leaf
    }
}

/// Scales a link's latency by `1 + jitter·u`, u uniform in [0, 1).
fn jittered(link: LinkProps, jitter: f64, rng: &mut trace::SplitMix64) -> LinkProps {
    if jitter == 0.0 {
        return link;
    }
    LinkProps {
        bandwidth: link.bandwidth,
        latency: crate::time::SimDuration(
            (link.latency.0 as f64 * (1.0 + jitter * rng.next_f64())) as u64,
        ),
    }
}

/// Builds the two-datacenter leaf–spine topology of §4.1.
///
/// Hosts `0 .. hosts_per_dc` are in DC 0, the rest in DC 1. Host `i` of a
/// datacenter sits under leaf `i / hosts_per_leaf`. Routing is closed-form
/// (no BFS table), so fleet-scale parameter choices (10k+ hosts) build in
/// milliseconds and O(nodes + ports) memory.
pub fn two_dc_leaf_spine(p: &TwoDcParams) -> Topology {
    let (b, layout) = two_dc_builder(p);
    b.build_two_dc(layout)
}

/// The builder half of [`two_dc_leaf_spine`], shared with the route-
/// equivalence test (which freezes the same construction with BFS routes).
fn two_dc_builder(p: &TwoDcParams) -> (TopologyBuilder, TwoDcLayout) {
    let mut b = TopologyBuilder::new();
    let mut jitter_rng = trace::SplitMix64::new(trace::derive_seed(p.jitter_seed, 0x70B0));
    let mut leaves = vec![Vec::new(); 2];
    let mut spines = vec![Vec::new(); 2];
    for dc in 0..2u32 {
        for _ in 0..p.leaves_per_dc {
            leaves[dc as usize].push(b.add_switch(NodeRole::Leaf, Some(dc)));
        }
        for _ in 0..p.spines_per_dc {
            spines[dc as usize].push(b.add_switch(NodeRole::Spine, Some(dc)));
        }
        for &leaf in &leaves[dc as usize] {
            for _ in 0..p.hosts_per_leaf {
                let h = b.add_host(Some(dc));
                let hn = b.host_node(h);
                b.add_duplex(hn, leaf, p.dc_link, p.host_queue, p.dc_queue);
            }
        }
        for &leaf in &leaves[dc as usize] {
            for &spine in &spines[dc as usize] {
                let link = jittered(p.dc_link, p.intra_latency_jitter, &mut jitter_rng);
                b.add_duplex(leaf, spine, link, p.dc_queue, p.dc_queue);
            }
        }
    }
    // Backbone routers: backbone (s, k) peers spine s in both DCs.
    for (&spine0, &spine1) in spines[0].iter().zip(&spines[1]) {
        for _ in 0..p.backbones_per_spine {
            let bb = b.add_switch(NodeRole::Backbone, None);
            b.add_duplex(spine0, bb, p.wan_link, p.dc_queue, p.backbone_queue);
            b.add_duplex(spine1, bb, p.wan_link, p.dc_queue, p.backbone_queue);
        }
    }
    let layout = TwoDcLayout {
        spines: p.spines_per_dc,
        leaves: p.leaves_per_dc,
        hosts_per_leaf: p.hosts_per_leaf,
        backbones_per_spine: p.backbones_per_spine,
    };
    (b, layout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::HostId;

    #[test]
    #[should_panic(expected = "invalid queue config")]
    fn add_port_rejects_invalid_queue_config() {
        let mut b = TopologyBuilder::new();
        let ha = b.add_host(None);
        let hc = b.add_host(None);
        let a = b.host_node(ha);
        let c = b.host_node(hc);
        let bad = QueueConfig {
            capacity_bytes: 0,
            ..QueueConfig::datacenter()
        };
        b.add_port(a, c, LinkProps::datacenter(), bad);
    }

    #[test]
    fn paper_topology_dimensions() {
        let t = two_dc_leaf_spine(&TwoDcParams::default());
        // 128 hosts + 16 leaves + 16 spines + 64 backbones.
        assert_eq!(t.host_count(), 128);
        assert_eq!(t.node_count(), 128 + 16 + 16 + 64);
        assert_eq!(t.hosts_in_dc(0).len(), 64);
        assert_eq!(t.hosts_in_dc(1).len(), 64);
    }

    #[test]
    fn inter_dc_path_shape() {
        let t = two_dc_leaf_spine(&TwoDcParams::default());
        let src = HostId(0);
        let dst = t.hosts_in_dc(1)[0];
        // host -> leaf -> spine -> backbone -> spine -> leaf -> host = 6 links.
        assert_eq!(t.path_hops(src, dst), 6);
        // One-way propagation: 4 x 1us + 2 x 1ms.
        assert_eq!(
            t.path_latency(src, dst),
            SimDuration::from_micros(4) + SimDuration::from_millis(2)
        );
    }

    #[test]
    fn intra_dc_paths() {
        let t = two_dc_leaf_spine(&TwoDcParams::default());
        // Same leaf: host -> leaf -> host.
        assert_eq!(t.path_hops(HostId(0), HostId(1)), 2);
        // Different leaves, same DC: host -> leaf -> spine -> leaf -> host.
        assert_eq!(t.path_hops(HostId(0), HostId(8)), 4);
    }

    #[test]
    fn spraying_candidates_match_fan_out() {
        let p = TwoDcParams::default();
        let t = two_dc_leaf_spine(&p);
        let src = HostId(0);
        let dst = t.hosts_in_dc(1)[0];
        // At the source leaf, all spines are equal-cost.
        let leaf = t.port(t.candidates(t.host_node(src), dst)[0]).to;
        assert_eq!(t.candidates(leaf, dst).len(), p.spines_per_dc);
        // At a spine, all its backbones are equal-cost.
        let spine = t.port(t.candidates(leaf, dst)[0]).to;
        assert_eq!(t.candidates(spine, dst).len(), p.backbones_per_spine);
        // At a backbone, exactly one way on: its peer spine in DC 1.
        let bb = t.port(t.candidates(spine, dst)[0]).to;
        assert_eq!(t.candidates(bb, dst).len(), 1);
    }

    #[test]
    fn all_pairs_reachable_in_small_topology() {
        let t = two_dc_leaf_spine(&TwoDcParams::small_test());
        for a in 0..t.host_count() as u32 {
            for b in 0..t.host_count() as u32 {
                if a == b {
                    continue;
                }
                assert!(t.path_hops(HostId(a), HostId(b)) >= 2);
            }
        }
    }

    #[test]
    fn base_rtt_includes_serialization() {
        let t = two_dc_leaf_spine(&TwoDcParams::small_test());
        let src = HostId(0);
        let dst = t.hosts_in_dc(1)[0];
        let rtt = t.base_rtt(src, dst, 1500, 64);
        let prop = SimDuration(t.path_latency(src, dst).0 * 2);
        assert!(rtt > prop);
        // 6 hops x 120ns (data) + 6 hops x 5.12ns (ack) on 100G links.
        let ser = SimDuration::from_nanos(6 * 120) + SimDuration(6 * 5_120);
        assert_eq!(rtt, prop + ser);
    }

    #[test]
    fn wan_latency_override() {
        let p = TwoDcParams::default().with_wan_latency(SimDuration::from_micros(100));
        let t = two_dc_leaf_spine(&p);
        let dst = t.hosts_in_dc(1)[0];
        assert_eq!(
            t.path_latency(HostId(0), dst),
            SimDuration::from_micros(4) + SimDuration::from_micros(200)
        );
    }

    #[test]
    fn generic_builder_line_topology() {
        let mut b = TopologyBuilder::new();
        let h0 = b.add_host(None);
        let h1 = b.add_host(None);
        let sw = b.add_switch(NodeRole::Generic, None);
        let n0 = b.host_node(h0);
        let n1 = b.host_node(h1);
        let q = QueueConfig::datacenter();
        b.add_duplex(n0, sw, LinkProps::datacenter(), q, q);
        b.add_duplex(sw, n1, LinkProps::datacenter(), q, q);
        let t = b.build();
        assert_eq!(t.path_hops(h0, h1), 2);
        assert_eq!(t.candidates(sw, h1).len(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot reach")]
    fn disconnected_topology_panics() {
        let mut b = TopologyBuilder::new();
        b.add_host(None);
        b.add_host(None);
        b.build();
    }

    /// The closed-form two-DC router must return exactly the candidate
    /// slices BFS would have stored — same ports, same order — so packet
    /// spraying draws identical picks and every golden stays bit-exact.
    #[test]
    fn structured_routes_match_bfs() {
        let shapes = [
            TwoDcParams::small_test(),
            // Deliberately asymmetric to catch transposed dimensions.
            TwoDcParams {
                spines_per_dc: 3,
                leaves_per_dc: 2,
                hosts_per_leaf: 4,
                backbones_per_spine: 2,
                ..TwoDcParams::small_test()
            },
            TwoDcParams {
                spines_per_dc: 2,
                leaves_per_dc: 4,
                hosts_per_leaf: 1,
                backbones_per_spine: 3,
                ..TwoDcParams::small_test()
            },
        ];
        for p in shapes {
            let structured = two_dc_leaf_spine(&p);
            let (builder, _) = super::two_dc_builder(&p);
            let dense = builder.build();
            assert_eq!(structured.node_count(), dense.node_count());
            for n in 0..structured.node_count() as u32 {
                for h in 0..structured.host_count() as u32 {
                    assert_eq!(
                        structured.candidates(NodeId(n), HostId(h)),
                        dense.candidates(NodeId(n), HostId(h)),
                        "candidates diverge at node {n} toward host {h} \
                         (shape {}x{}x{}x{})",
                        p.spines_per_dc,
                        p.leaves_per_dc,
                        p.hosts_per_leaf,
                        p.backbones_per_spine,
                    );
                }
            }
            for h in 0..structured.host_count() as u32 {
                assert_eq!(
                    structured.down_tor_port(HostId(h)),
                    dense.down_tor_port(HostId(h))
                );
            }
        }
    }

    /// The flat route table holds, at every (node, host), exactly the ports
    /// a table of per-pair vectors filled by one BFS per host holds, in the
    /// same order: the spray draw indexes into these slices. Random
    /// connected graphs (parallel links and multi-homed hosts make ECMP
    /// ties) and random unstructured two-DC fabrics.
    #[test]
    fn flat_routes_match_a_nested_bfs_table() {
        fn nested(t: &Topology) -> Vec<Vec<Vec<PortId>>> {
            let n = t.node_count();
            let mut rev = vec![Vec::new(); n];
            for i in 0..t.port_count() {
                let p = t.port(PortId(i as u32));
                rev[p.to.index()].push(p.from);
            }
            let mut routes = vec![vec![Vec::new(); t.host_count()]; n];
            for h in 0..t.host_count() {
                let target = t.host_node(HostId(h as u32));
                let mut dist = vec![usize::MAX; n];
                dist[target.index()] = 0;
                let mut q = VecDeque::from([target]);
                while let Some(v) = q.pop_front() {
                    for &u in &rev[v.index()] {
                        if dist[u.index()] == usize::MAX {
                            dist[u.index()] = dist[v.index()] + 1;
                            q.push_back(u);
                        }
                    }
                }
                for (i, row) in routes.iter_mut().enumerate() {
                    if i != target.index() {
                        row[h] = t
                            .ports_of(NodeId(i as u32))
                            .iter()
                            .copied()
                            .filter(|&p| dist[t.port(p).to.index()] + 1 == dist[i])
                            .collect();
                    }
                }
            }
            routes
        }
        fn random_graph(rng: &mut trace::SplitMix64) -> Topology {
            let (l, q) = (LinkProps::datacenter(), QueueConfig::datacenter());
            let mut b = TopologyBuilder::new();
            let (mut switches, mut hosts) = (Vec::new(), Vec::new());
            let (want_switches, want_hosts) = (2 + rng.next_bounded(7), 1 + rng.next_bounded(8));
            // Hosts and switches interleave in node-id order.
            while (switches.len() as u64) < want_switches || (hosts.len() as u64) < want_hosts {
                let host = (hosts.len() as u64) < want_hosts
                    && ((switches.len() as u64) == want_switches || rng.next_bounded(2) == 0);
                if host {
                    let h = b.add_host(None);
                    hosts.push(b.host_node(h));
                } else {
                    switches.push(b.add_switch(NodeRole::Generic, None));
                }
            }
            let pick = |rng: &mut trace::SplitMix64| {
                switches[rng.next_bounded(switches.len() as u64) as usize]
            };
            for i in 1..switches.len() {
                let j = rng.next_bounded(i as u64) as usize;
                b.add_duplex(switches[i], switches[j], l, q, q);
            }
            // Chords, parallel links among them.
            for _ in 0..rng.next_bounded(2 * switches.len() as u64) {
                let (a, z) = (pick(rng), pick(rng));
                if a != z {
                    b.add_duplex(a, z, l, q, q);
                }
            }
            for &h in &hosts {
                for _ in 0..1 + rng.next_bounded(2) {
                    let sw = pick(rng);
                    b.add_duplex(h, sw, l, q, q);
                }
            }
            b.build()
        }
        let mut ties = 0;
        trace::cases(0x70B5, 48, |case, rng| {
            let t = if case % 4 == 3 {
                two_dc_unstructured(&UnstructuredParams {
                    switches_per_dc: 3 + rng.next_bounded(6) as usize,
                    extra_links_per_dc: rng.next_bounded(10) as usize,
                    hosts_per_dc: 1 + rng.next_bounded(8) as usize,
                    gateways: 1 + rng.next_bounded(3) as usize,
                    seed: rng.next_u64(),
                    ..UnstructuredParams::default()
                })
            } else {
                random_graph(rng)
            };
            let reference = nested(&t);
            for (n, row) in reference.iter().enumerate() {
                for (h, want) in row.iter().enumerate() {
                    let got = t.candidates(NodeId(n as u32), HostId(h as u32));
                    assert_eq!(got, &want[..], "node {n} toward host {h}");
                    ties += usize::from(got.len() > 1);
                }
            }
        });
        assert!(ties > 0, "no case had an equal-cost tie");
    }

    #[test]
    fn fleet_scale_topology_builds_cheaply() {
        // 2 DCs x (16 leaves x 64 hosts) = 2048 hosts; with the dense BFS
        // table this would be ~2100 nodes x 2048 hosts of route rows.
        let p = TwoDcParams {
            spines_per_dc: 8,
            leaves_per_dc: 16,
            hosts_per_leaf: 64,
            backbones_per_spine: 8,
            ..TwoDcParams::default()
        };
        let t = two_dc_leaf_spine(&p);
        assert_eq!(t.host_count(), 2048);
        let dst = t.hosts_in_dc(1)[0];
        assert_eq!(t.path_hops(HostId(0), dst), 6);
        assert_eq!(t.candidates(t.host_node(HostId(0)), dst).len(), 1);
    }

    #[test]
    fn host_roles_and_dcs() {
        let t = two_dc_leaf_spine(&TwoDcParams::small_test());
        let h = HostId(0);
        assert!(matches!(t.role(t.host_node(h)), NodeRole::Host(x) if x == h));
        assert_eq!(t.host_dc(h), Some(0));
        let far = t.hosts_in_dc(1)[0];
        assert_eq!(t.host_dc(far), Some(1));
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::packet::HostId;

    #[test]
    fn down_tor_port_points_at_the_host() {
        let t = two_dc_leaf_spine(&TwoDcParams::small_test());
        for h in 0..t.host_count() as u32 {
            let port = t.down_tor_port(HostId(h));
            assert_eq!(t.port(port).to, t.host_node(HostId(h)));
            assert!(matches!(t.role(t.port(port).from), NodeRole::Leaf));
        }
    }

    #[test]
    fn jitter_spreads_leaf_spine_latencies() {
        let p = TwoDcParams::small_test().with_path_jitter(0.5, 7);
        let t = two_dc_leaf_spine(&p);
        // Collect the latencies of leaf->spine ports.
        let mut latencies = Vec::new();
        for i in 0..t.port_count() as u32 {
            let spec = t.port(crate::packet::PortId(i));
            if matches!(t.role(spec.from), NodeRole::Leaf)
                && matches!(t.role(spec.to), NodeRole::Spine)
            {
                latencies.push(spec.link.latency);
            }
        }
        assert!(!latencies.is_empty());
        let min = latencies.iter().min().unwrap();
        let max = latencies.iter().max().unwrap();
        assert!(max > min, "jitter must create unequal paths");
        assert!(
            max.0 <= SimDuration::from_micros(1).0 * 3 / 2,
            "bounded by 1.5x"
        );
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let latencies = |seed: u64| {
            let t = two_dc_leaf_spine(&TwoDcParams::small_test().with_path_jitter(0.5, seed));
            (0..t.port_count() as u32)
                .map(|i| t.port(crate::packet::PortId(i)).link.latency)
                .collect::<Vec<_>>()
        };
        assert_eq!(latencies(1), latencies(1));
        assert_ne!(latencies(1), latencies(2));
    }

    #[test]
    fn zero_jitter_keeps_symmetric_paths() {
        let t = two_dc_leaf_spine(&TwoDcParams::small_test());
        for i in 0..t.port_count() as u32 {
            let spec = t.port(crate::packet::PortId(i));
            if matches!(t.role(spec.from), NodeRole::Leaf)
                && matches!(t.role(spec.to), NodeRole::Spine)
            {
                assert_eq!(spec.link.latency, SimDuration::from_micros(1));
            }
        }
    }
}

/// Parameters for the unstructured (random-graph) two-datacenter topology
/// of [`two_dc_unstructured`].
#[derive(Debug, Clone, Copy)]
pub struct UnstructuredParams {
    /// Switches per datacenter.
    pub switches_per_dc: usize,
    /// Random switch↔switch links per datacenter beyond the connectivity
    /// ring.
    pub extra_links_per_dc: usize,
    /// Hosts per datacenter (attached to switches round-robin).
    pub hosts_per_dc: usize,
    /// Gateway switch pairs joined across datacenters by long-haul links.
    pub gateways: usize,
    /// Intra-datacenter links.
    pub dc_link: LinkProps,
    /// Long-haul links between gateway switches.
    pub wan_link: LinkProps,
    /// Switch buffers.
    pub dc_queue: QueueConfig,
    /// Host NIC egress queues.
    pub host_queue: QueueConfig,
    /// Seed for the random wiring.
    pub seed: u64,
}

impl Default for UnstructuredParams {
    fn default() -> Self {
        UnstructuredParams {
            switches_per_dc: 16,
            extra_links_per_dc: 24,
            hosts_per_dc: 32,
            gateways: 4,
            dc_link: LinkProps::datacenter(),
            wan_link: LinkProps::long_haul(),
            dc_queue: QueueConfig::datacenter(),
            host_queue: QueueConfig::host(),
            seed: 1,
        }
    }
}

/// Builds an *unstructured* two-datacenter topology: per datacenter, a
/// connected random graph of switches (a ring for connectivity plus
/// random chords) with hosts attached round-robin; random gateway pairs
/// joined across the long haul.
///
/// §5 FW#1 calls out that "unstructured topology can cause more reordered
/// packets with varied-length paths" — shortest paths here genuinely vary
/// in hop count across equal-cost choices' downstream continuations, so
/// packet spraying produces the reordering that study needs.
pub fn two_dc_unstructured(p: &UnstructuredParams) -> Topology {
    assert!(p.switches_per_dc >= 3, "need at least 3 switches per DC");
    assert!(p.hosts_per_dc >= 1, "need hosts");
    assert!(p.gateways >= 1, "need at least one gateway pair");
    let mut rng = trace::SplitMix64::new(trace::derive_seed(p.seed, 0x0457));
    let mut b = TopologyBuilder::new();
    let mut switches = [Vec::new(), Vec::new()];
    for dc in 0..2u32 {
        for _ in 0..p.switches_per_dc {
            switches[dc as usize].push(b.add_switch(NodeRole::Generic, Some(dc)));
        }
        let sw = &switches[dc as usize];
        // Connectivity ring.
        for i in 0..sw.len() {
            let j = (i + 1) % sw.len();
            b.add_duplex(sw[i], sw[j], p.dc_link, p.dc_queue, p.dc_queue);
        }
        // Random chords (dedup against the ring is unnecessary: parallel
        // links are legal and just add equal-cost capacity).
        for _ in 0..p.extra_links_per_dc {
            let i = rng.next_bounded(sw.len() as u64) as usize;
            let mut j = rng.next_bounded(sw.len() as u64) as usize;
            while j == i {
                j = rng.next_bounded(sw.len() as u64) as usize;
            }
            b.add_duplex(sw[i], sw[j], p.dc_link, p.dc_queue, p.dc_queue);
        }
        // Hosts round-robin across switches.
        for h in 0..p.hosts_per_dc {
            let host = b.add_host(Some(dc));
            let hn = b.host_node(host);
            b.add_duplex(hn, sw[h % sw.len()], p.dc_link, p.host_queue, p.dc_queue);
        }
    }
    // Gateways: random pairs across the two DCs.
    for _ in 0..p.gateways {
        let a = switches[0][rng.next_bounded(p.switches_per_dc as u64) as usize];
        let z = switches[1][rng.next_bounded(p.switches_per_dc as u64) as usize];
        b.add_duplex(a, z, p.wan_link, p.dc_queue, p.dc_queue);
    }
    b.build()
}

#[cfg(test)]
mod unstructured_tests {
    use super::*;
    use crate::packet::HostId;

    #[test]
    fn builds_and_routes() {
        let t = two_dc_unstructured(&UnstructuredParams::default());
        assert_eq!(t.host_count(), 64);
        assert_eq!(t.hosts_in_dc(0).len(), 32);
        // Every cross-DC pair is reachable.
        let src = t.hosts_in_dc(0)[0];
        let dst = t.hosts_in_dc(1)[0];
        assert!(t.path_hops(src, dst) >= 3);
    }

    #[test]
    fn deterministic_per_seed() {
        let hops = |seed| {
            let t = two_dc_unstructured(&UnstructuredParams {
                seed,
                ..Default::default()
            });
            let src = t.hosts_in_dc(0)[0];
            (0..32u32)
                .map(|i| t.path_hops(src, t.hosts_in_dc(1)[i as usize % 32]))
                .collect::<Vec<_>>()
        };
        assert_eq!(hops(3), hops(3));
    }

    #[test]
    fn paths_vary_in_length() {
        // The defining property: different destinations (and different
        // equal-cost choices) see different hop counts.
        let t = two_dc_unstructured(&UnstructuredParams::default());
        let src = HostId(0);
        let mut lengths: Vec<usize> = t
            .hosts_in_dc(1)
            .iter()
            .map(|&d| t.path_hops(src, d))
            .collect();
        lengths.sort_unstable();
        lengths.dedup();
        assert!(lengths.len() > 1, "all paths equal length: {lengths:?}");
    }

    #[test]
    fn flows_complete_on_unstructured_topology() {
        use crate::flows::{install_flow, FlowSpec};
        use crate::sim::{Simulator, StopReason};
        use crate::time::SimTime;
        let params = UnstructuredParams {
            switches_per_dc: 6,
            extra_links_per_dc: 6,
            hosts_per_dc: 8,
            gateways: 2,
            wan_link: LinkProps {
                bandwidth: Bandwidth::gbps(100),
                latency: SimDuration::from_micros(100),
            },
            ..Default::default()
        };
        let mut sim = Simulator::new(two_dc_unstructured(&params), 4);
        let dst = sim.topology().hosts_in_dc(1)[0];
        let h = install_flow(
            &mut sim,
            FlowSpec::new(HostId(0), dst, 2_000_000),
            SimTime::ZERO,
        );
        let report = sim.run(Some(SimTime::ZERO + SimDuration::from_secs(60)));
        assert_eq!(report.stop, StopReason::Idle, "{report:?}");
        assert!(sim.metrics().completion(h.flow).is_some());
    }
}
