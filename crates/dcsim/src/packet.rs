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

/// The bits of a [`Packet`]'s private `flags` byte.
const CE: u8 = 1 << 0;
const TRIMMED: u8 = 1 << 1;
const ECE: u8 = 1 << 2;
const DIRECT: u8 = 1 << 3;

/// A simulated packet.
///
/// Packets are plain values: the simulator moves them by copy between
/// queues and agents. There is no payload buffer — only byte counts — since
/// the experiments measure timing, not content.
///
/// A packet has one of two wire sizes, and its size is derived rather
/// than stored: [`HEADER_SIZE`] for control packets and trimmed headers
/// ([`is_control`](Self::is_control)), [`DATA_PKT_SIZE`] for everything
/// else. The four one-bit attributes share one private `flags` byte, read
/// through [`ecn`](Self::ecn), [`trimmed`](Self::trimmed),
/// [`ece`](Self::ece) and [`direct`](Self::direct). It is private so that
/// nothing but [`trim`](Self::trim) can make a packet trimmed. Together
/// they keep a packet at 32 bytes, and every event and queue slot that
/// holds one smaller with it.
#[derive(Clone, Copy, PartialEq, Eq)]
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
    /// Timestamp echo: the data packet's send time, reflected in Acks for
    /// RTT measurement (picoseconds).
    pub ts_echo: u64,
    /// `CE | TRIMMED | ECE | DIRECT`, one bit each.
    flags: u8,
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
            ts_echo: ts,
            flags: 0,
        }
    }

    /// Builds an ACK for a received data packet: swaps src/dst, carries the
    /// acked seq, echoes ECN mark and the sender timestamp.
    pub fn ack_for(data: &Packet, from: HostId) -> Self {
        let ece = if data.ecn() == Ecn::Ce { ECE } else { 0 };
        Packet {
            kind: PacketKind::Ack,
            flags: ece | (data.flags & DIRECT),
            ..Packet::nack_for(data, from)
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
            ts_echo: data.ts_echo,
            flags: data.flags & DIRECT,
        }
    }

    /// Trims the payload, leaving a header-only packet (NDP-style).
    ///
    /// Idempotent: trimming a trimmed packet is a no-op.
    pub fn trim(&mut self) {
        self.flags |= TRIMMED;
    }

    /// True for small control packets (acks/nacks) and trimmed headers,
    /// which ride the switch priority queue.
    #[inline]
    pub fn is_control(&self) -> bool {
        self.trimmed() || self.kind != PacketKind::Data
    }

    /// Current wire size in bytes: [`HEADER_SIZE`] for a control packet
    /// or a trimmed header, [`DATA_PKT_SIZE`] otherwise.
    #[inline]
    pub fn size(&self) -> u64 {
        if self.is_control() {
            HEADER_SIZE
        } else {
            DATA_PKT_SIZE
        }
    }

    /// ECN codepoint; queues set [`Ecn::Ce`] past their marking threshold.
    #[inline]
    pub fn ecn(&self) -> Ecn {
        if self.flags & CE != 0 {
            Ecn::Ce
        } else {
            Ecn::Ect
        }
    }

    /// Sets the ECN codepoint.
    #[inline]
    pub fn set_ecn(&mut self, ecn: Ecn) {
        self.set_flag(CE, ecn == Ecn::Ce);
    }

    /// True once the payload has been trimmed (header-only packet).
    #[inline]
    pub fn trimmed(&self) -> bool {
        self.flags & TRIMMED != 0
    }

    /// For Ack packets: echoes whether the acked data packet was CE-marked.
    #[inline]
    pub fn ece(&self) -> bool {
        self.flags & ECE != 0
    }

    /// True when a proxied flow's sender deliberately routed this packet on
    /// the direct path (proxy failover). Feedback copies the flag so the
    /// receiver knows to reply directly instead of via the proxy, and so
    /// the sender can tell proxy-path feedback from direct-path feedback.
    #[inline]
    pub fn direct(&self) -> bool {
        self.flags & DIRECT != 0
    }

    /// Sets or clears the [`direct`](Self::direct) flag.
    #[inline]
    pub fn set_direct(&mut self, direct: bool) {
        self.set_flag(DIRECT, direct);
    }

    #[inline]
    fn set_flag(&mut self, bit: u8, on: bool) {
        if on {
            self.flags |= bit;
        } else {
            self.flags &= !bit;
        }
    }
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Packet")
            .field("flow", &self.flow)
            .field("kind", &self.kind)
            .field("seq", &self.seq)
            .field("dst", &self.dst)
            .field("src", &self.src)
            .field("size", &self.size())
            .field("ecn", &self.ecn())
            .field("trimmed", &self.trimmed())
            .field("ece", &self.ece())
            .field("ts_echo", &self.ts_echo)
            .field("direct", &self.direct())
            .finish()
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
        assert_eq!(p.size(), DATA_PKT_SIZE);
        assert_eq!(p.kind, PacketKind::Data);
        assert!(!p.trimmed());
        assert!(!p.is_control());
        assert_eq!(p.ecn(), Ecn::Ect);
    }

    #[test]
    fn trim_shrinks_and_flags() {
        let mut p = pkt();
        p.trim();
        assert_eq!(p.size(), HEADER_SIZE);
        assert!(p.trimmed());
        assert!(p.is_control());
        // Idempotent.
        p.trim();
        assert_eq!(p.size(), HEADER_SIZE);
    }

    #[test]
    fn ack_swaps_direction_and_echoes() {
        let mut p = pkt();
        p.set_ecn(Ecn::Ce);
        let ack = Packet::ack_for(&p, HostId(3));
        assert_eq!(ack.kind, PacketKind::Ack);
        assert_eq!(ack.dst, HostId(2));
        assert_eq!(ack.src, HostId(3));
        assert_eq!(ack.seq, 7);
        assert!(ack.ece(), "ECN mark must be echoed");
        assert_eq!(ack.ts_echo, 123);
        assert_eq!(ack.size(), HEADER_SIZE);
        assert!(ack.is_control());
    }

    #[test]
    fn unmarked_data_yields_unmarked_ack() {
        let ack = Packet::ack_for(&pkt(), HostId(3));
        assert!(!ack.ece());
    }

    #[test]
    fn feedback_preserves_direct_flag() {
        let mut p = pkt();
        assert!(!p.direct(), "data packets default to the configured path");
        p.set_direct(true);
        assert!(Packet::ack_for(&p, HostId(3)).direct());
        assert!(Packet::nack_for(&p, HostId(3)).direct());
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

    /// The packet as it was before its size was derived and its flags
    /// packed: every attribute a field of its own, written by the same
    /// constructors and setters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Reference {
        flow: FlowId,
        kind: PacketKind,
        seq: u64,
        dst: HostId,
        src: HostId,
        size: u64,
        ecn: Ecn,
        trimmed: bool,
        ece: bool,
        ts_echo: u64,
        direct: bool,
    }

    impl Reference {
        fn data(flow: FlowId, seq: u64, src: HostId, dst: HostId, ts: u64) -> Self {
            Reference {
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

        fn feedback(&self, kind: PacketKind, from: HostId) -> Self {
            Reference {
                flow: self.flow,
                kind,
                seq: self.seq,
                dst: self.src,
                src: from,
                size: HEADER_SIZE,
                ecn: Ecn::Ect,
                trimmed: false,
                ece: kind == PacketKind::Ack && self.ecn == Ecn::Ce,
                ts_echo: self.ts_echo,
                direct: self.direct,
            }
        }

        fn trim(&mut self) {
            self.size = HEADER_SIZE;
            self.trimmed = true;
        }

        /// What `p`'s readers say, in the reference's shape.
        fn read(p: &Packet) -> Self {
            Reference {
                flow: p.flow,
                kind: p.kind,
                seq: p.seq,
                dst: p.dst,
                src: p.src,
                size: p.size(),
                ecn: p.ecn(),
                trimmed: p.trimmed(),
                ece: p.ece(),
                ts_echo: p.ts_echo,
                direct: p.direct(),
            }
        }
    }

    /// Random sequences of every constructor and writer, applied to a
    /// `Packet` and to the unpacked reference: after each step every
    /// reader, `size()` and `is_control()` agree, so no writer touches
    /// another's bit.
    #[test]
    fn packed_flags_match_the_unpacked_reference() {
        trace::cases(0xF1A6, 256, |_, rng| {
            let host = |rng: &mut trace::SplitMix64| HostId(rng.next_bounded(8) as u32);
            let (src, dst) = (host(rng), host(rng));
            let mut p = Packet::data(FlowId(3), 0, src, dst, 0);
            let mut r = Reference::data(FlowId(3), 0, src, dst, 0);
            for step in 0..64 {
                match rng.next_bounded(6) {
                    0 => {
                        let (flow, seq, ts) = (FlowId(step), rng.next_u64(), rng.next_u64());
                        let (src, dst) = (host(rng), host(rng));
                        p = Packet::data(flow, seq, src, dst, ts);
                        r = Reference::data(flow, seq, src, dst, ts);
                    }
                    1 => {
                        let ecn = if rng.next_bounded(2) == 0 {
                            Ecn::Ect
                        } else {
                            Ecn::Ce
                        };
                        p.set_ecn(ecn);
                        r.ecn = ecn;
                    }
                    2 => {
                        let direct = rng.next_bounded(2) == 1;
                        p.set_direct(direct);
                        r.direct = direct;
                    }
                    3 => {
                        p.trim();
                        r.trim();
                    }
                    4 => {
                        let from = host(rng);
                        p = Packet::ack_for(&p, from);
                        r = r.feedback(PacketKind::Ack, from);
                    }
                    _ => {
                        let from = host(rng);
                        p = Packet::nack_for(&p, from);
                        r = r.feedback(PacketKind::Nack, from);
                    }
                }
                assert_eq!(Reference::read(&p), r, "step {step}");
                assert_eq!(p.is_control(), r.trimmed || r.kind != PacketKind::Data);
            }
        });
    }
}
