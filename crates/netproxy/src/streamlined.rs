//! The streamlined per-packet decision: trim-aware forwarding with early
//! NACKs.
//!
//! The per-packet logic is deliberately tiny — the paper's point is that
//! *this* is all a proxy needs on the critical path, small enough for eBPF
//! (Fig. 5a: median 0.42 µs of bytecode runtime on their testbed). The
//! pure function [`decide`] is that logic with no I/O attached, and it is
//! the function the relay runs: [`crate::shard::ShardedRelay`]'s workers
//! call it once per received datagram and act on the [`Action`] it
//! returns, read through the relay kind (`RelayKind::apply`, in
//! `incast_core::relay`, the relay core the simulator's proxy runs too).
//! So the benchmark's `netproxy.streamlined.decide_ns` probe
//! (`crates/perf`) and `fig5`'s lower bound time exactly what sits on the
//! datapath, and the relay's socket path around it is the Figure 5b
//! through-stack upper bound.

use crate::wire::{DatagramView, Flags, WireHeader, MAX_DATAGRAM};

/// What the relay does with an incoming datagram: the relay core's
/// decision ([`incast_core::relay::Action`]) carrying the parsed header,
/// so a datagram is parsed once. `ForwardToReceiver` sends the
/// datagram's first [`WireHeader::wire_len`] bytes on; `Drop` is a
/// datagram of another protocol, malformed, or longer than
/// [`MAX_DATAGRAM`].
pub type Action = incast_core::relay::Action<WireHeader>;

/// The streamlined per-packet decision — §3 Insight #3 verbatim:
/// header-only packet → NACK to the sender; other data → forward to the
/// receiver; feedback from the receiver → forward to the sender.
///
/// Pure function: this is the entire critical-path logic, the Figure 5a
/// "lower bound" measurand, and the only place the relay consults
/// [`Flags::TRIMMED`] to choose between forwarding and NACKing.
///
/// A datagram longer than [`MAX_DATAGRAM`] is dropped whatever its header
/// says: no sender of this protocol makes one, and the relay forwards
/// nothing a 1500-byte link would have to fragment.
#[inline]
pub fn decide(datagram: &[u8]) -> Action {
    if datagram.len() > MAX_DATAGRAM {
        return Action::Drop;
    }
    let Ok(view) = DatagramView::parse(datagram) else {
        return Action::Drop;
    };
    let header = view.header();
    if !header.flags.contains(Flags::DATA) {
        // ACK or NACK from the receiver side.
        Action::ForwardToSender(header)
    } else if header.flags.contains(Flags::TRIMMED) {
        Action::NackToSender(header)
    } else {
        Action::ForwardToReceiver(header)
    }
}

#[cfg(test)]
mod decide_tests {
    use super::*;
    use crate::shard::RelayKind;
    use crate::wire::MAX_PAYLOAD;

    const KINDS: [RelayKind; 3] = [
        RelayKind::Naive,
        RelayKind::Streamlined,
        RelayKind::Detecting,
    ];

    #[test]
    fn decide_forwards_data() {
        let header = WireHeader::data(1, 5, 3);
        // Bytes past the declared payload are not part of the datagram.
        let mut wire = header.encode(&[1, 2, 3]);
        wire.extend_from_slice(&[0xEE; 5]);
        for kind in KINDS {
            let action = kind.apply(decide(&wire));
            assert_eq!(action, Action::ForwardToReceiver(header), "{kind:?}");
        }
        assert_eq!(header.wire_len(), wire.len() - 5);
    }

    #[test]
    fn decide_nacks_trimmed() {
        let header = WireHeader::trimmed(9, 77);
        let nack = decide(&header.encode(&[]));
        assert_eq!(nack, Action::NackToSender(header));
        assert_eq!(RelayKind::Streamlined.apply(nack), nack);
        // No trimming support assumed: the header travels on as data.
        let forward = Action::ForwardToReceiver(header);
        assert_eq!(RelayKind::Naive.apply(nack), forward);
        assert_eq!(RelayKind::Detecting.apply(nack), forward);
    }

    #[test]
    fn decide_reverses_feedback() {
        for header in [WireHeader::ack(1, 2), WireHeader::nack(1, 2)] {
            for kind in KINDS {
                let action = kind.apply(decide(&header.encode(&[])));
                assert_eq!(action, Action::ForwardToSender(header), "{kind:?}");
            }
        }
    }

    #[test]
    fn decide_drops_garbage() {
        for kind in KINDS {
            assert_eq!(kind.apply(decide(&[0u8; 4])), Action::Drop, "{kind:?}");
            assert_eq!(kind.apply(decide(&[0xFFu8; 64])), Action::Drop, "{kind:?}");
        }
    }

    #[test]
    fn decide_drops_oversize() {
        // Well-formed up to the last byte it may have, dropped one past it:
        // with an honest header, and with junk behind a short one.
        let full = WireHeader::data(1, 5, MAX_PAYLOAD as u16);
        let wire = full.encode(&vec![7; MAX_PAYLOAD]);
        assert_eq!(decide(&wire), Action::ForwardToReceiver(full));
        let honest = WireHeader::data(1, 5, MAX_PAYLOAD as u16 + 1);
        assert_eq!(
            decide(&honest.encode(&vec![7; MAX_PAYLOAD + 1])),
            Action::Drop
        );
        let mut padded = WireHeader::trimmed(1, 5).encode(&[]);
        padded.resize(MAX_DATAGRAM + 1, 0xEE);
        assert_eq!(decide(&padded), Action::Drop);
        assert!(matches!(
            decide(&padded[..MAX_DATAGRAM]),
            Action::NackToSender(_)
        ));
    }
}
