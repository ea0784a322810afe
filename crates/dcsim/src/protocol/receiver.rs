//! The receiving endpoint: per-packet ACKs with ECN echo, NACKs for
//! trimmed packets, completion detection, and (for the Naive proxy's
//! ingress side) packet grants to a colocated relay sender.

use crate::agent::{Agent, Counter, Ctx, Note};
use crate::packet::{AgentId, FlowId, HostId, Packet, PacketKind};
use crate::protocol::seqtrack::SeqSet;

/// The receiving endpoint of one flow.
pub struct Receiver {
    flow: FlowId,
    /// This receiver's host.
    host: HostId,
    /// Where to address feedback: the sender directly, or the proxy when
    /// the return path is proxied (Streamlined routes ACKs back through the
    /// proxy, which forwards them to the sender).
    reply_via: Option<HostId>,
    received: SeqSet,
    /// Colocated relay sender to grant packets to (Naive proxy ingress).
    grant_to: Option<AgentId>,
    done_signaled: bool,
}

impl Receiver {
    /// Plain receiver: replies directly to the packet source.
    pub fn new(flow: FlowId, host: HostId, total_packets: u64) -> Self {
        Receiver {
            flow,
            host,
            reply_via: None,
            received: SeqSet::new(total_packets),
            grant_to: None,
            done_signaled: false,
        }
    }

    /// Routes feedback through `proxy` instead of directly to the sender.
    pub fn with_reply_via(mut self, proxy: HostId) -> Self {
        self.reply_via = Some(proxy);
        self
    }

    /// Grants each newly received packet to a colocated relay sender
    /// (the Naive proxy's ingress→egress coupling).
    pub fn with_grants_to(mut self, agent: AgentId) -> Self {
        self.grant_to = Some(agent);
        self
    }

    /// Packets received so far (distinct).
    pub fn received_packets(&self) -> u64 {
        self.received.len()
    }

    /// True once every packet arrived.
    pub fn is_complete(&self) -> bool {
        self.received.is_full()
    }

    fn addressed(&self, mut feedback: Packet) -> Packet {
        // Data flagged `direct` arrived on the fallback path because the
        // sender gave up on the proxy — replying through the proxy would
        // blackhole the feedback on the very path that failed, so reply
        // straight to the source instead.
        if !feedback.direct() {
            if let Some(via) = self.reply_via {
                feedback.dst = via;
            }
        }
        feedback
    }
}

impl Agent for Receiver {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        assert_eq!(pkt.kind, PacketKind::Data, "receiver expects data packets");
        debug_assert!(pkt.seq < self.received.capacity(), "seq out of range");
        if pkt.trimmed() {
            // The payload was cut by a full queue somewhere on the path:
            // tell the sender which sequence to retransmit.
            ctx.count(Counter::ReceiverNacks, 1);
            let nack = self.addressed(Packet::nack_for(&pkt, self.host));
            ctx.send(self.host, nack);
            return;
        }
        // Per-packet ACK (duplicates included: the sender dedups, and the
        // ECN echo is informative regardless).
        let ack = self.addressed(Packet::ack_for(&pkt, self.host));
        ctx.send(self.host, ack);
        if self.received.insert(pkt.seq) {
            if let Some(agent) = self.grant_to {
                ctx.notify(agent, Note::PacketsGranted { count: 1 });
            }
            if self.received.is_full() && !self.done_signaled {
                self.done_signaled = true;
                ctx.flow_done(self.flow);
            }
        }
    }

    fn on_note(&mut self, note: Note, ctx: &mut Ctx) {
        // A restored relay asking where the grant watermark stands: reply
        // with the absolute count of distinct packets received, which is
        // exactly the number of `PacketsGranted { count: 1 }` notes ever
        // issued (some of which may have died against a crashed relay).
        if note == Note::GrantSync {
            if let Some(agent) = self.grant_to {
                ctx.notify(
                    agent,
                    Note::GrantWatermark {
                        granted: self.received.len(),
                    },
                );
            }
        }
    }

    fn on_restore(&mut self, ctx: &mut Ctx) {
        // If the relay restored first, its `GrantSync` died against this
        // crashed ingress; push the watermark unprompted. Harmless when
        // nothing was lost: the watermark never lowers the relay's count.
        if let Some(agent) = self.grant_to {
            ctx.notify(
                agent,
                Note::GrantWatermark {
                    granted: self.received.len(),
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Effect;
    use crate::packet::{Ecn, DATA_PKT_SIZE};
    use crate::time::SimTime;

    fn ctx_with<'a>(effects: &'a mut Vec<Effect>) -> Ctx<'a> {
        Ctx {
            now: SimTime(0),
            self_id: AgentId(1),
            effects,
        }
    }

    fn data(seq: u64) -> Packet {
        Packet::data(FlowId(0), seq, HostId(0), HostId(1), 42)
    }

    #[test]
    fn acks_every_data_packet() {
        let mut r = Receiver::new(FlowId(0), HostId(1), 10);
        let mut fx = Vec::new();
        r.on_packet(data(3), &mut ctx_with(&mut fx));
        let acks: Vec<&Packet> = fx
            .iter()
            .filter_map(|e| match e {
                Effect::Send { packet, .. } if packet.kind == PacketKind::Ack => Some(packet),
                _ => None,
            })
            .collect();
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].seq, 3);
        assert_eq!(acks[0].dst, HostId(0));
        assert_eq!(acks[0].ts_echo, 42);
        assert_eq!(r.received_packets(), 1);
    }

    #[test]
    fn echoes_ecn_mark() {
        let mut r = Receiver::new(FlowId(0), HostId(1), 10);
        let mut fx = Vec::new();
        let mut p = data(0);
        p.set_ecn(Ecn::Ce);
        r.on_packet(p, &mut ctx_with(&mut fx));
        match &fx[0] {
            Effect::Send { packet, .. } => assert!(packet.ece()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nacks_trimmed_packets_without_counting_them() {
        let mut r = Receiver::new(FlowId(0), HostId(1), 10);
        let mut fx = Vec::new();
        let mut p = data(7);
        p.trim();
        r.on_packet(p, &mut ctx_with(&mut fx));
        assert_eq!(r.received_packets(), 0, "trimmed packets carry no payload");
        match &fx[1] {
            Effect::Send { packet, .. } => {
                assert_eq!(packet.kind, PacketKind::Nack);
                assert_eq!(packet.seq, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            fx[0],
            Effect::Count {
                counter: Counter::ReceiverNacks,
                amount: 1
            }
        ));
    }

    #[test]
    fn completion_signaled_once() {
        let mut r = Receiver::new(FlowId(0), HostId(1), 2);
        let mut fx = Vec::new();
        r.on_packet(data(0), &mut ctx_with(&mut fx));
        assert!(!fx.iter().any(|e| matches!(e, Effect::FlowDone { .. })));
        r.on_packet(data(1), &mut ctx_with(&mut fx));
        assert!(r.is_complete());
        let dones = fx
            .iter()
            .filter(|e| matches!(e, Effect::FlowDone { .. }))
            .count();
        assert_eq!(dones, 1);
        // A duplicate of the last packet must not re-signal.
        r.on_packet(data(1), &mut ctx_with(&mut fx));
        let dones = fx
            .iter()
            .filter(|e| matches!(e, Effect::FlowDone { .. }))
            .count();
        assert_eq!(dones, 1);
    }

    #[test]
    fn reply_via_redirects_feedback() {
        let proxy = HostId(9);
        let mut r = Receiver::new(FlowId(0), HostId(1), 4).with_reply_via(proxy);
        let mut fx = Vec::new();
        r.on_packet(data(0), &mut ctx_with(&mut fx));
        match &fx[0] {
            Effect::Send { packet, .. } => assert_eq!(packet.dst, proxy),
            other => panic!("unexpected {other:?}"),
        }
        let mut t = data(1);
        t.trim();
        r.on_packet(t, &mut ctx_with(&mut fx));
        match &fx[2] {
            Effect::Send { packet, .. } => assert_eq!(packet.dst, proxy),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn direct_data_bypasses_reply_via() {
        let proxy = HostId(9);
        let mut r = Receiver::new(FlowId(0), HostId(1), 4).with_reply_via(proxy);
        let mut fx = Vec::new();
        let mut p = data(0);
        p.set_direct(true);
        r.on_packet(p, &mut ctx_with(&mut fx));
        match &fx[0] {
            Effect::Send { packet, .. } => {
                assert_eq!(packet.dst, HostId(0), "direct data must be acked directly");
                assert!(packet.direct(), "the flag must survive into the feedback");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn grants_flow_to_relay_once_per_distinct_packet() {
        let relay = AgentId(5);
        let mut r = Receiver::new(FlowId(0), HostId(1), 4).with_grants_to(relay);
        let mut fx = Vec::new();
        r.on_packet(data(0), &mut ctx_with(&mut fx));
        r.on_packet(data(0), &mut ctx_with(&mut fx)); // duplicate
        r.on_packet(data(1), &mut ctx_with(&mut fx));
        let grants = fx
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Effect::Notify {
                        agent,
                        note: Note::PacketsGranted { count: 1 }
                    } if *agent == relay
                )
            })
            .count();
        assert_eq!(grants, 2, "one grant per distinct data packet");
    }

    #[test]
    fn grant_sync_replies_with_the_absolute_watermark() {
        let relay = AgentId(5);
        let mut r = Receiver::new(FlowId(0), HostId(1), 4).with_grants_to(relay);
        let mut fx = Vec::new();
        r.on_packet(data(0), &mut ctx_with(&mut fx));
        r.on_packet(data(0), &mut ctx_with(&mut fx)); // duplicate: not re-granted
        r.on_packet(data(2), &mut ctx_with(&mut fx));
        fx.clear();
        r.on_note(Note::GrantSync, &mut ctx_with(&mut fx));
        assert!(
            fx.iter().any(|e| matches!(
                e,
                Effect::Notify {
                    agent,
                    note: Note::GrantWatermark { granted: 2 }
                } if *agent == relay
            )),
            "watermark must equal distinct packets received: {fx:?}"
        );
    }

    #[test]
    fn restore_pushes_the_watermark_unprompted() {
        let relay = AgentId(5);
        let mut r = Receiver::new(FlowId(0), HostId(1), 4).with_grants_to(relay);
        let mut fx = Vec::new();
        r.on_packet(data(1), &mut ctx_with(&mut fx));
        fx.clear();
        // A relay that restored while this ingress was down got no reply to
        // its sync query; the ingress re-states the watermark on restore.
        r.on_restore(&mut ctx_with(&mut fx));
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Notify {
                agent,
                note: Note::GrantWatermark { granted: 1 }
            } if *agent == relay
        )));
    }

    #[test]
    fn grantless_receiver_ignores_sync_and_restore() {
        let mut r = Receiver::new(FlowId(0), HostId(1), 4);
        let mut fx = Vec::new();
        r.on_note(Note::GrantSync, &mut ctx_with(&mut fx));
        r.on_restore(&mut ctx_with(&mut fx));
        assert!(fx.is_empty());
    }

    #[test]
    fn ack_size_is_header_only() {
        let mut r = Receiver::new(FlowId(0), HostId(1), 1);
        let mut fx = Vec::new();
        r.on_packet(data(0), &mut ctx_with(&mut fx));
        match &fx[0] {
            Effect::Send { packet, .. } => assert!(packet.size() < DATA_PKT_SIZE),
            other => panic!("unexpected {other:?}"),
        }
    }
}
