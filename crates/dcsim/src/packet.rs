//! Packets and the identifier newtypes used across the simulator.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index.
            #[inline]
            pub fn index(&self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_type!(
    /// A host (server) in the topology.
    HostId
);
id_type!(
    /// Any node: host or switch. Hosts and switches share one node space.
    NodeId
);
id_type!(
    /// An output port (queue + link) attached to a node.
    PortId
);
id_type!(
    /// A transport-level flow (one direction of one connection).
    FlowId
);
id_type!(
    /// A protocol agent (sender, receiver, or proxy endpoint).
    AgentId
);

/// On-the-wire packet kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// A data segment carrying payload bytes.
    Data,
    /// Per-packet acknowledgment (NDP-style: acks a specific sequence
    /// number, echoes the ECN mark seen on the data packet).
    Ack,
    /// Negative acknowledgment for a trimmed or otherwise lost packet.
    Nack,
}

/// ECN codepoint carried by a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ecn {
    /// ECN-capable transport, not marked.
    Ect,
    /// Congestion experienced (marked by a queue past its threshold).
    Ce,
}

/// Wire size of a full data packet (payload + headers), bytes.
pub const DATA_PKT_SIZE: u64 = 1500;
/// Wire size of a header-only (trimmed) packet or a control packet, bytes.
pub const HEADER_SIZE: u64 = 64;
/// Payload bytes carried by one full data packet.
pub const MSS: u64 = DATA_PKT_SIZE - HEADER_SIZE;

/// A simulated packet.
///
/// Packets are plain values: the simulator moves them by copy between
/// queues and agents. There is no payload buffer — only byte counts — since
/// the experiments measure timing, not content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Kind: data, ack or nack.
    pub kind: PacketKind,
    /// Sequence number (packet index within the flow for Data; the acked /
    /// nacked sequence for Ack/Nack).
    pub seq: u64,
    /// Host the packet is currently routed toward. Proxies rewrite this
    /// when forwarding.
    pub dst: HostId,
    /// Originating host (for returning feedback).
    pub src: HostId,
    /// Current wire size in bytes (shrinks to [`HEADER_SIZE`] on trimming).
    pub size: u64,
    /// ECN codepoint; queues set [`Ecn::Ce`] past their marking threshold.
    pub ecn: Ecn,
    /// True once the payload has been trimmed (header-only packet).
    pub trimmed: bool,
    /// For Ack packets: echoes whether the acked data packet was CE-marked.
    pub ece: bool,
    /// Timestamp echo: the data packet's send time, reflected in Acks for
    /// RTT measurement (picoseconds).
    pub ts_echo: u64,
    /// True when a proxied flow's sender deliberately routed this packet on
    /// the direct path (proxy failover). Feedback copies the flag so the
    /// receiver knows to reply directly instead of via the proxy, and so
    /// the sender can tell proxy-path feedback from direct-path feedback.
    pub direct: bool,
}

impl Packet {
    /// Builds a full-size data packet.
    pub fn data(flow: FlowId, seq: u64, src: HostId, dst: HostId, ts: u64) -> Self {
        Packet {
            flow,
            kind: PacketKind::Data,
            seq,
            dst,
            src,
            size: DATA_PKT_SIZE,
            ecn: Ecn::Ect,
            trimmed: false,
            ece: false,
            ts_echo: ts,
            direct: false,
        }
    }

    /// Builds an ACK for a received data packet: swaps src/dst, carries the
    /// acked seq, echoes ECN mark and the sender timestamp.
    pub fn ack_for(data: &Packet, from: HostId) -> Self {
        Packet {
            flow: data.flow,
            kind: PacketKind::Ack,
            seq: data.seq,
            dst: data.src,
            src: from,
            size: HEADER_SIZE,
            ecn: Ecn::Ect,
            trimmed: false,
            ece: data.ecn == Ecn::Ce,
            ts_echo: data.ts_echo,
            direct: data.direct,
        }
    }

    /// Builds a NACK for a trimmed data packet: swaps src/dst, carries the
    /// lost seq.
    pub fn nack_for(data: &Packet, from: HostId) -> Self {
        Packet {
            flow: data.flow,
            kind: PacketKind::Nack,
            seq: data.seq,
            dst: data.src,
            src: from,
            size: HEADER_SIZE,
            ecn: Ecn::Ect,
            trimmed: false,
            ece: false,
            ts_echo: data.ts_echo,
            direct: data.direct,
        }
    }

    /// Trims the payload, leaving a header-only packet (NDP-style).
    ///
    /// Idempotent: trimming a trimmed packet is a no-op.
    pub fn trim(&mut self) {
        self.size = HEADER_SIZE;
        self.trimmed = true;
    }

    /// True for small control packets (acks/nacks) and trimmed headers,
    /// which ride the switch priority queue.
    pub fn is_control(&self) -> bool {
        self.trimmed || self.kind != PacketKind::Data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt() -> Packet {
        Packet::data(FlowId(1), 7, HostId(2), HostId(3), 123)
    }

    #[test]
    fn data_packet_defaults() {
        let p = pkt();
        assert_eq!(p.size, DATA_PKT_SIZE);
        assert_eq!(p.kind, PacketKind::Data);
        assert!(!p.trimmed);
        assert!(!p.is_control());
        assert_eq!(p.ecn, Ecn::Ect);
    }

    #[test]
    fn trim_shrinks_and_flags() {
        let mut p = pkt();
        p.trim();
        assert_eq!(p.size, HEADER_SIZE);
        assert!(p.trimmed);
        assert!(p.is_control());
        // Idempotent.
        p.trim();
        assert_eq!(p.size, HEADER_SIZE);
    }

    #[test]
    fn ack_swaps_direction_and_echoes() {
        let mut p = pkt();
        p.ecn = Ecn::Ce;
        let ack = Packet::ack_for(&p, HostId(3));
        assert_eq!(ack.kind, PacketKind::Ack);
        assert_eq!(ack.dst, HostId(2));
        assert_eq!(ack.src, HostId(3));
        assert_eq!(ack.seq, 7);
        assert!(ack.ece, "ECN mark must be echoed");
        assert_eq!(ack.ts_echo, 123);
        assert_eq!(ack.size, HEADER_SIZE);
        assert!(ack.is_control());
    }

    #[test]
    fn unmarked_data_yields_unmarked_ack() {
        let ack = Packet::ack_for(&pkt(), HostId(3));
        assert!(!ack.ece);
    }

    #[test]
    fn feedback_preserves_direct_flag() {
        let mut p = pkt();
        assert!(!p.direct, "data packets default to the configured path");
        p.direct = true;
        assert!(Packet::ack_for(&p, HostId(3)).direct);
        assert!(Packet::nack_for(&p, HostId(3)).direct);
    }

    #[test]
    fn nack_carries_lost_seq() {
        let mut p = pkt();
        p.trim();
        let nack = Packet::nack_for(&p, HostId(9));
        assert_eq!(nack.kind, PacketKind::Nack);
        assert_eq!(nack.seq, 7);
        assert_eq!(nack.dst, HostId(2));
        assert!(nack.is_control());
    }

    #[test]
    fn mss_is_consistent() {
        assert_eq!(MSS + HEADER_SIZE, DATA_PKT_SIZE);
        const { assert!(MSS > 0) };
    }
}
