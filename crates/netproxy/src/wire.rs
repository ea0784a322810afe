//! The UDP wire format of the streamlined proxy.
//!
//! A fixed 24-byte header followed by an optional payload. Switch trimming
//! (which the paper borrows from NDP/EQDS/Ultra Ethernet) is represented
//! by the [`Flags::TRIMMED`] bit: a trimming hop cuts the payload and sets
//! the bit; the proxy answers such headers with a NACK.
//!
//! ```text
//!  0        2        3        4            12           20      22
//!  +--------+--------+--------+------------+------------+-------+
//!  | magic  | flags  |  rsvd  |  flow id   |    seq     |  len  |
//!  +--------+--------+--------+------------+------------+-------+
//!  |              payload (len bytes, absent if trimmed)        |
//!  +------------------------------------------------------------+
//! ```

/// Wire magic ("IC" for incast).
pub const MAGIC: u16 = 0x4943;
/// Encoded header length in bytes.
pub const WIRE_HEADER_LEN: usize = 24;
/// Largest payload carried per datagram (fits a 1500 B MTU with headroom).
pub const MAX_PAYLOAD: usize = 1400;
/// Largest whole datagram (header + payload).
pub const MAX_DATAGRAM: usize = WIRE_HEADER_LEN + MAX_PAYLOAD;

// Fixed header byte offsets (see the layout diagram above).
const OFF_MAGIC: usize = 0;
const OFF_FLAGS: usize = 2;
const OFF_FLOW: usize = 4;
const OFF_SEQ: usize = 12;
const OFF_LEN: usize = 20;

/// Packet-type flags. Exactly one of DATA/ACK/NACK is set; TRIMMED may
/// accompany DATA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flags(pub u8);

impl Flags {
    /// Payload-bearing data packet.
    pub const DATA: Flags = Flags(0b0001);
    /// Acknowledgment.
    pub const ACK: Flags = Flags(0b0010);
    /// Negative acknowledgment (loss signal).
    pub const NACK: Flags = Flags(0b0100);
    /// Payload was trimmed by a (virtual) switch.
    pub const TRIMMED: Flags = Flags(0b1000);

    /// Tests whether all bits of `other` are set.
    pub fn contains(&self, other: Flags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two flag sets.
    pub fn union(&self, other: Flags) -> Flags {
        Flags(self.0 | other.0)
    }

    /// Exactly one primary type bit (DATA/ACK/NACK) is set.
    pub fn is_valid(&self) -> bool {
        let primary = self.0 & 0b0111;
        primary.count_ones() == 1 && (self.0 & !0b1111) == 0
            // TRIMMED only makes sense on DATA.
            && (!self.contains(Flags::TRIMMED) || self.contains(Flags::DATA))
    }
}

/// A decoded packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireHeader {
    /// Packet-type flags.
    pub flags: Flags,
    /// Flow identifier (assigned by the load generator / application).
    pub flow: u64,
    /// Sequence number within the flow.
    pub seq: u64,
    /// Payload length in bytes (0 for control and trimmed packets).
    pub payload_len: u16,
}

/// Decode errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Datagram shorter than a header.
    Truncated,
    /// Magic mismatch (not our protocol).
    BadMagic,
    /// Flag combination invalid.
    BadFlags,
    /// Header claims more payload than the datagram carries.
    BadLength,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WireError::Truncated => "datagram shorter than header",
            WireError::BadMagic => "bad magic",
            WireError::BadFlags => "invalid flag combination",
            WireError::BadLength => "payload length exceeds datagram",
        };
        f.write_str(s)
    }
}

impl std::error::Error for WireError {}

/// A zero-copy view of a validated datagram: header fields read in place
/// from the receive buffer, payload borrowed, nothing materialized.
///
/// This is the parse path: one bounds check and five unaligned
/// big-endian loads, no allocation. [`WireHeader::decode`], for senders
/// and tests, is this parse plus a copy of the header.
#[derive(Debug, Clone, Copy)]
pub struct DatagramView<'a> {
    bytes: &'a [u8],
    flags: Flags,
    flow: u64,
    seq: u64,
    payload_len: u16,
}

impl<'a> DatagramView<'a> {
    /// Validates `datagram` and reads the header fields in place.
    ///
    /// # Errors
    /// What makes `datagram` invalid: too short, a bad magic, invalid
    /// flags, or a payload length past its end.
    #[inline]
    pub fn parse(datagram: &'a [u8]) -> Result<DatagramView<'a>, WireError> {
        if datagram.len() < WIRE_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let magic = u16::from_be_bytes([datagram[OFF_MAGIC], datagram[OFF_MAGIC + 1]]);
        if magic != MAGIC {
            return Err(WireError::BadMagic);
        }
        let flags = Flags(datagram[OFF_FLAGS]);
        if !flags.is_valid() {
            return Err(WireError::BadFlags);
        }
        let flow = u64::from_be_bytes(datagram[OFF_FLOW..OFF_FLOW + 8].try_into().expect("len"));
        let seq = u64::from_be_bytes(datagram[OFF_SEQ..OFF_SEQ + 8].try_into().expect("len"));
        let payload_len = u16::from_be_bytes([datagram[OFF_LEN], datagram[OFF_LEN + 1]]);
        if datagram.len() - WIRE_HEADER_LEN < payload_len as usize {
            return Err(WireError::BadLength);
        }
        Ok(DatagramView {
            bytes: datagram,
            flags,
            flow,
            seq,
            payload_len,
        })
    }

    /// Packet-type flags.
    #[inline]
    pub fn flags(&self) -> Flags {
        self.flags
    }

    /// Flow identifier.
    #[inline]
    pub fn flow(&self) -> u64 {
        self.flow
    }

    /// Sequence number.
    #[inline]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Payload length claimed by the header.
    #[inline]
    pub fn payload_len(&self) -> u16 {
        self.payload_len
    }

    /// The payload bytes (empty for control and trimmed packets).
    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        &self.bytes[WIRE_HEADER_LEN..WIRE_HEADER_LEN + self.payload_len as usize]
    }

    /// Materializes the owned header (for interop with the owned path).
    #[inline]
    pub fn header(&self) -> WireHeader {
        WireHeader {
            flags: self.flags,
            flow: self.flow,
            seq: self.seq,
            payload_len: self.payload_len,
        }
    }
}

/// Rewrites a trimmed-data header **in place** into the NACK the proxy
/// answers it with. Flow and sequence are already right; only the flags
/// byte changes — this is the "rewrite only the bytes that differ"
/// forwarding path (one store instead of a 24-byte re-serialization).
///
/// # Errors
/// [`WireError`] if `datagram` is not a valid trimmed-data header
/// (`BadFlags` when valid but not TRIMMED).
#[inline]
pub fn rewrite_trimmed_to_nack(datagram: &mut [u8]) -> Result<(), WireError> {
    let view = DatagramView::parse(datagram)?;
    if !view.flags().contains(Flags::TRIMMED) {
        return Err(WireError::BadFlags);
    }
    datagram[OFF_FLAGS] = Flags::NACK.0;
    Ok(())
}

/// Rewrites a full (untrimmed) data datagram **in place** into the NACK
/// the overload shed ladder answers it with: the relay has no forwarding
/// budget left, so instead of forwarding the payload it tells the sender
/// to retransmit later — the Pulser-style "explicit notification beats
/// silent loss" rung. Flow and sequence are already right; the flags byte
/// and the payload-length field change (the length must be zeroed so the
/// header-only send parses as a well-formed NACK). The caller sends only
/// the first [`WIRE_HEADER_LEN`] bytes.
///
/// # Errors
/// [`WireError`] if `datagram` is not a valid data datagram (`BadFlags`
/// when valid but not DATA).
#[inline]
pub fn rewrite_data_to_nack(datagram: &mut [u8]) -> Result<(), WireError> {
    let view = DatagramView::parse(datagram)?;
    if !view.flags().contains(Flags::DATA) {
        return Err(WireError::BadFlags);
    }
    datagram[OFF_FLAGS] = Flags::NACK.0;
    datagram[OFF_LEN] = 0;
    datagram[OFF_LEN + 1] = 0;
    Ok(())
}

/// Serializes a NACK header into a caller-provided buffer without
/// allocating (the batched datapath's NACK scratch ring).
#[inline]
pub fn write_nack_into(buf: &mut [u8; WIRE_HEADER_LEN], flow: u64, seq: u64) {
    buf[OFF_MAGIC..OFF_MAGIC + 2].copy_from_slice(&MAGIC.to_be_bytes());
    buf[OFF_FLAGS] = Flags::NACK.0;
    buf[OFF_FLAGS + 1] = 0;
    buf[OFF_FLOW..OFF_FLOW + 8].copy_from_slice(&flow.to_be_bytes());
    buf[OFF_SEQ..OFF_SEQ + 8].copy_from_slice(&seq.to_be_bytes());
    buf[OFF_LEN..OFF_LEN + 2].copy_from_slice(&0u16.to_be_bytes());
    buf[OFF_LEN + 2..OFF_LEN + 4].copy_from_slice(&0u16.to_be_bytes());
}

impl WireHeader {
    /// A data header for `payload_len` bytes.
    pub fn data(flow: u64, seq: u64, payload_len: u16) -> Self {
        WireHeader {
            flags: Flags::DATA,
            flow,
            seq,
            payload_len,
        }
    }

    /// A trimmed-data header (payload removed by a switch).
    pub fn trimmed(flow: u64, seq: u64) -> Self {
        WireHeader {
            flags: Flags::DATA.union(Flags::TRIMMED),
            flow,
            seq,
            payload_len: 0,
        }
    }

    /// An ACK for `seq`.
    pub fn ack(flow: u64, seq: u64) -> Self {
        WireHeader {
            flags: Flags::ACK,
            flow,
            seq,
            payload_len: 0,
        }
    }

    /// A NACK for `seq`.
    pub fn nack(flow: u64, seq: u64) -> Self {
        WireHeader {
            flags: Flags::NACK,
            flow,
            seq,
            payload_len: 0,
        }
    }

    /// Length of the whole datagram this header describes.
    #[inline]
    pub fn wire_len(&self) -> usize {
        WIRE_HEADER_LEN + self.payload_len as usize
    }

    /// Encodes the header (and payload, if any) into a datagram.
    pub fn encode(&self, payload: &[u8]) -> Vec<u8> {
        let mut buf = vec![0; WIRE_HEADER_LEN + payload.len()];
        self.encode_into(&mut buf, payload);
        buf
    }

    /// Serializes the header and `payload` into `out` without
    /// allocating (the batched sender's staging path); returns the wire
    /// length written.
    ///
    /// # Panics
    /// Panics if `out` is shorter than `WIRE_HEADER_LEN + payload.len()`.
    pub fn encode_into(&self, out: &mut [u8], payload: &[u8]) -> usize {
        debug_assert_eq!(payload.len(), self.payload_len as usize);
        out[OFF_MAGIC..OFF_MAGIC + 2].copy_from_slice(&MAGIC.to_be_bytes());
        out[OFF_FLAGS] = self.flags.0;
        out[OFF_FLAGS + 1] = 0;
        out[OFF_FLOW..OFF_FLOW + 8].copy_from_slice(&self.flow.to_be_bytes());
        out[OFF_SEQ..OFF_SEQ + 8].copy_from_slice(&self.seq.to_be_bytes());
        out[OFF_LEN..OFF_LEN + 2].copy_from_slice(&self.payload_len.to_be_bytes());
        out[OFF_LEN + 2..OFF_LEN + 4].copy_from_slice(&0u16.to_be_bytes());
        out[WIRE_HEADER_LEN..WIRE_HEADER_LEN + payload.len()].copy_from_slice(payload);
        WIRE_HEADER_LEN + payload.len()
    }

    /// Decodes a datagram into a header and its payload slice.
    pub fn decode(datagram: &[u8]) -> Result<(WireHeader, &[u8]), WireError> {
        let view = DatagramView::parse(datagram)?;
        Ok((view.header(), view.payload()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_data() {
        let payload = vec![0xAB; 100];
        let h = WireHeader::data(7, 42, 100);
        let wire = h.encode(&payload);
        assert_eq!(wire.len(), WIRE_HEADER_LEN + 100);
        let (decoded, p) = WireHeader::decode(&wire).unwrap();
        assert_eq!(decoded, h);
        assert_eq!(p, &payload[..]);
    }

    #[test]
    fn roundtrip_control() {
        for h in [
            WireHeader::ack(1, 2),
            WireHeader::nack(3, 4),
            WireHeader::trimmed(5, 6),
        ] {
            let wire = h.encode(&[]);
            assert_eq!(wire.len(), WIRE_HEADER_LEN);
            let (decoded, p) = WireHeader::decode(&wire).unwrap();
            assert_eq!(decoded, h);
            assert!(p.is_empty());
        }
    }

    #[test]
    fn rejects_truncated() {
        let wire = WireHeader::ack(1, 2).encode(&[]);
        assert_eq!(
            WireHeader::decode(&wire[..WIRE_HEADER_LEN - 1]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn rejects_bad_magic() {
        let mut wire = WireHeader::ack(1, 2).encode(&[]);
        wire[0] ^= 0xFF;
        assert_eq!(WireHeader::decode(&wire), Err(WireError::BadMagic));
    }

    #[test]
    fn rejects_bad_flags() {
        // DATA|ACK set together.
        let mut wire = WireHeader::ack(1, 2).encode(&[]);
        wire[2] = 0b0011;
        assert_eq!(WireHeader::decode(&wire), Err(WireError::BadFlags));
        // TRIMMED without DATA.
        wire[2] = 0b1010;
        assert_eq!(WireHeader::decode(&wire), Err(WireError::BadFlags));
        // No primary bit.
        wire[2] = 0b1000;
        assert_eq!(WireHeader::decode(&wire), Err(WireError::BadFlags));
    }

    #[test]
    fn rejects_short_payload() {
        let h = WireHeader::data(1, 2, 50);
        let wire = h.encode(&[0u8; 50]);
        // Chop ten payload bytes off.
        assert_eq!(
            WireHeader::decode(&wire[..wire.len() - 10]),
            Err(WireError::BadLength)
        );
    }

    #[test]
    fn extra_bytes_beyond_len_ignored() {
        let h = WireHeader::data(1, 2, 3);
        let mut wire = h.encode(&[9, 9, 9]);
        wire.extend_from_slice(&[7; 20]); // trailing junk
        let (decoded, p) = WireHeader::decode(&wire).unwrap();
        assert_eq!(decoded.payload_len, 3);
        assert_eq!(p, &[9, 9, 9]);
    }

    #[test]
    fn view_matches_decode_on_valid_datagrams() {
        let payload = vec![0x5A; 300];
        for h in [
            WireHeader::data(7, 42, 300),
            WireHeader::trimmed(1, 2),
            WireHeader::ack(3, 4),
            WireHeader::nack(u64::MAX, u64::MAX),
        ] {
            let wire = h.encode(&payload[..h.payload_len as usize]);
            let view = DatagramView::parse(&wire).unwrap();
            assert_eq!(view.header(), h);
            let (decoded, p) = WireHeader::decode(&wire).unwrap();
            assert_eq!(view.header(), decoded);
            assert_eq!(view.payload(), p);
        }
    }

    #[test]
    fn rewrite_trimmed_to_nack_in_place() {
        let mut wire = WireHeader::trimmed(9, 77).encode(&[]);
        rewrite_trimmed_to_nack(&mut wire).unwrap();
        let (h, p) = WireHeader::decode(&wire).unwrap();
        assert_eq!(h, WireHeader::nack(9, 77));
        assert!(p.is_empty());
        // Only the flags byte moved.
        let orig = WireHeader::trimmed(9, 77).encode(&[]);
        let diff: Vec<usize> = (0..WIRE_HEADER_LEN)
            .filter(|&i| wire[i] != orig[i])
            .collect();
        assert_eq!(diff, vec![OFF_FLAGS]);
    }

    #[test]
    fn rewrite_rejects_untrimmed_and_garbage() {
        let mut data = WireHeader::data(1, 2, 1).encode(&[0]);
        assert_eq!(rewrite_trimmed_to_nack(&mut data), Err(WireError::BadFlags));
        let mut junk = vec![0u8; 50];
        assert_eq!(rewrite_trimmed_to_nack(&mut junk), Err(WireError::BadMagic));
        let mut short = vec![0u8; 3];
        assert_eq!(
            rewrite_trimmed_to_nack(&mut short),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn rewrite_data_to_nack_yields_valid_header_only_nack() {
        let mut wire = WireHeader::data(9, 77, 5).encode(&[1, 2, 3, 4, 5]);
        rewrite_data_to_nack(&mut wire).unwrap();
        // The shed ladder sends only the header prefix.
        let (h, p) = WireHeader::decode(&wire[..WIRE_HEADER_LEN]).unwrap();
        assert_eq!(h, WireHeader::nack(9, 77));
        assert!(p.is_empty());
        // Trimmed data is still DATA — the rewrite accepts it too.
        let mut trimmed = WireHeader::trimmed(3, 4).encode(&[]);
        rewrite_data_to_nack(&mut trimmed).unwrap();
        let (h, _) = WireHeader::decode(&trimmed).unwrap();
        assert_eq!(h, WireHeader::nack(3, 4));
    }

    #[test]
    fn rewrite_data_to_nack_rejects_control_and_garbage() {
        let mut ack = WireHeader::ack(1, 2).encode(&[]);
        assert_eq!(rewrite_data_to_nack(&mut ack), Err(WireError::BadFlags));
        let mut junk = vec![0u8; 50];
        assert_eq!(rewrite_data_to_nack(&mut junk), Err(WireError::BadMagic));
    }

    #[test]
    fn write_nack_into_matches_owned_encoding() {
        let mut buf = [0u8; WIRE_HEADER_LEN];
        write_nack_into(&mut buf, 1234, 5678);
        assert_eq!(&buf[..], &WireHeader::nack(1234, 5678).encode(&[])[..]);
    }

    /// Fuzz equivalence: on arbitrary random valid headers the borrowed
    /// and owned parse paths agree field-for-field; encode∘parse is the
    /// identity on both.
    #[test]
    fn fuzz_view_owned_equivalence_on_valid_headers() {
        let mut rng = trace::SplitMix64::new(0xD15EA5E);
        for _ in 0..2000 {
            let flow = rng.next_u64();
            let seq = rng.next_u64();
            let kind = rng.next_u64() % 4;
            let h = match kind {
                0 => WireHeader::data(
                    flow,
                    seq,
                    (rng.next_u64() % (MAX_PAYLOAD as u64 + 1)) as u16,
                ),
                1 => WireHeader::trimmed(flow, seq),
                2 => WireHeader::ack(flow, seq),
                _ => WireHeader::nack(flow, seq),
            };
            let payload: Vec<u8> = (0..h.payload_len).map(|_| rng.next_u64() as u8).collect();
            let wire = h.encode(&payload);
            let view = DatagramView::parse(&wire).expect("valid header parses");
            let (decoded, p) = WireHeader::decode(&wire).expect("valid header decodes");
            assert_eq!(view.header(), h);
            assert_eq!(decoded, h);
            assert_eq!(view.payload(), &payload[..]);
            assert_eq!(p, &payload[..]);
        }
    }

    /// Fuzz rejection: truncated, garbage, and single-byte-mutated
    /// datagrams never panic, and both paths return the identical verdict
    /// (same error or same success) on every input.
    #[test]
    fn fuzz_mutations_rejected_identically_without_panic() {
        let mut rng = trace::SplitMix64::new(0xBADC0DE);
        for round in 0..2000u32 {
            let base = match round % 3 {
                0 => WireHeader::data(rng.next_u64(), rng.next_u64(), 64).encode(&[0xAB; 64]),
                1 => WireHeader::trimmed(rng.next_u64(), rng.next_u64()).encode(&[]),
                _ => (0..(rng.next_u64() % 100) as usize)
                    .map(|_| rng.next_u64() as u8)
                    .collect(),
            };
            let mut mutated = base.clone();
            if !mutated.is_empty() {
                match rng.next_u64() % 3 {
                    0 => {
                        let i = (rng.next_u64() as usize) % mutated.len();
                        mutated[i] ^= (rng.next_u64() as u8) | 1;
                    }
                    1 => {
                        let cut = (rng.next_u64() as usize) % mutated.len();
                        mutated.truncate(cut);
                    }
                    _ => mutated.extend_from_slice(&[0xEE; 7]),
                }
            }
            let via_view =
                DatagramView::parse(&mutated).map(|v| (v.header(), v.payload().to_vec()));
            let via_owned = WireHeader::decode(&mutated).map(|(h, p)| (h, p.to_vec()));
            assert_eq!(via_view, via_owned, "paths disagree on {mutated:?}");
        }
    }

    #[test]
    fn flag_predicates() {
        assert!(Flags::DATA.is_valid());
        assert!(Flags::DATA.union(Flags::TRIMMED).is_valid());
        assert!(!Flags::DATA.union(Flags::ACK).is_valid());
        assert!(Flags::DATA.union(Flags::TRIMMED).contains(Flags::TRIMMED));
        assert!(!Flags::ACK.contains(Flags::DATA));
    }
}
