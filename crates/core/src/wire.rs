//! [`WireCodec`] for netFilter frames over the real transport.
//!
//! The payload encoding is the existing paper-width [`Codec`] — the same
//! `s_a`/`s_g`/`s_i` field widths the cost model prices — wrapped in a
//! one-byte envelope tag for the reliability variants:
//!
//! ```text
//! 0x00  Plain  | payload
//! 0x01  Data   | inc u32 BE | seq u64 BE | payload
//! 0x02  Ack    | inc u32 BE | seq u64 BE
//! ```
//!
//! The envelope (tag, incarnation, sequence number) is framing in the
//! paper's sense — needed to decode a stream, excluded from the byte
//! metric — which is exactly how the DES meters it too: acks and
//! retransmissions are charged in their own `retransmit` class at
//! configured constants, never as phase payload.

use bytes::{Buf, BufMut, BytesMut};

use ifi_sim::ReliableMsg;
use ifi_transport::{WireCodec, WireError};

use crate::codec::Codec;
use crate::protocol::NfMsg;
use crate::WireSizes;

const TAG_PLAIN: u8 = 0x00;
const TAG_DATA: u8 = 0x01;
const TAG_ACK: u8 = 0x02;

/// A [`WireCodec`] carrying [`ReliableMsg`]`<`[`NfMsg`]`>` frames at the
/// paper's field widths.
#[derive(Debug, Clone, Copy)]
pub struct NfWire {
    codec: Codec,
}

impl NfWire {
    /// A wire codec over the given field widths.
    pub fn new(sizes: WireSizes) -> Self {
        NfWire {
            codec: Codec::new(sizes),
        }
    }

    /// The payload codec in use.
    pub fn codec(&self) -> &Codec {
        &self.codec
    }
}

impl WireCodec<ReliableMsg<NfMsg>> for NfWire {
    fn encode(&self, msg: &ReliableMsg<NfMsg>) -> Result<Vec<u8>, WireError> {
        // `Codec::encode_into` clears its buffer, so the payload is framed
        // on its own and appended after the envelope.
        let mut buf = BytesMut::new();
        match msg {
            ReliableMsg::Plain(m) => {
                let payload = self.codec.encode(m).map_err(|e| WireError(e.to_string()))?;
                buf.put_u8(TAG_PLAIN);
                buf.put_slice(&payload);
            }
            ReliableMsg::Data { inc, seq, payload } => {
                let body = self
                    .codec
                    .encode(payload)
                    .map_err(|e| WireError(e.to_string()))?;
                buf.put_u8(TAG_DATA);
                buf.put_u32(*inc);
                buf.put_uint(*seq, 8);
                buf.put_slice(&body);
            }
            ReliableMsg::Ack { inc, seq } => {
                buf.put_u8(TAG_ACK);
                buf.put_u32(*inc);
                buf.put_uint(*seq, 8);
            }
        }
        Ok(buf.to_vec())
    }

    fn decode(&self, bytes: &[u8]) -> Result<ReliableMsg<NfMsg>, WireError> {
        let mut b = bytes;
        if b.is_empty() {
            return Err(WireError("empty frame".into()));
        }
        let tag = b.get_u8();
        match tag {
            TAG_PLAIN => {
                let m = self.codec.decode(b).map_err(|e| WireError(e.to_string()))?;
                Ok(ReliableMsg::Plain(m))
            }
            TAG_DATA => {
                if b.remaining() < 12 {
                    return Err(WireError("truncated data envelope".into()));
                }
                let inc = b.get_u32();
                let seq = b.get_uint(8);
                let payload = self.codec.decode(b).map_err(|e| WireError(e.to_string()))?;
                Ok(ReliableMsg::Data { inc, seq, payload })
            }
            TAG_ACK => {
                if b.remaining() != 12 {
                    return Err(WireError("malformed ack".into()));
                }
                let inc = b.get_u32();
                let seq = b.get_uint(8);
                Ok(ReliableMsg::Ack { inc, seq })
            }
            t => Err(WireError(format!("unknown envelope tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifi_agg::{MapSum, VecSum};
    use ifi_workload::ItemId;

    fn wire() -> NfWire {
        NfWire::new(WireSizes::default())
    }

    fn sample_msgs() -> Vec<NfMsg> {
        vec![
            NfMsg::GroupAgg(VecSum::from(vec![0, 3, 0, 7, 11])),
            NfMsg::Heavy(vec![vec![1, 3], vec![], vec![4]].into()),
            NfMsg::CandidateAgg(MapSum(
                [(ItemId(5), 9u64), (ItemId(7), 2u64)].into_iter().collect(),
            )),
        ]
    }

    fn assert_eq_msg(a: &NfMsg, b: &NfMsg) {
        match (a, b) {
            (NfMsg::GroupAgg(x), NfMsg::GroupAgg(y)) => assert_eq!(x, y),
            (NfMsg::Heavy(x), NfMsg::Heavy(y)) => assert_eq!(x, y),
            (NfMsg::CandidateAgg(x), NfMsg::CandidateAgg(y)) => assert_eq!(x.0, y.0),
            _ => panic!("variant mismatch after round-trip"),
        }
    }

    #[test]
    fn plain_frames_round_trip() {
        let w = wire();
        for m in sample_msgs() {
            let enc = w.encode(&ReliableMsg::Plain(m.clone())).unwrap();
            match w.decode(&enc).unwrap() {
                ReliableMsg::Plain(back) => assert_eq_msg(&m, &back),
                other => panic!("expected Plain, got {other:?}"),
            }
        }
    }

    #[test]
    fn sequenced_frames_round_trip_with_envelope() {
        let w = wire();
        for m in sample_msgs() {
            let frame = ReliableMsg::Data {
                inc: 3,
                seq: u64::MAX - 1,
                payload: m.clone(),
            };
            let enc = w.encode(&frame).unwrap();
            match w.decode(&enc).unwrap() {
                ReliableMsg::Data { inc, seq, payload } => {
                    assert_eq!((inc, seq), (3, u64::MAX - 1));
                    assert_eq_msg(&m, &payload);
                }
                other => panic!("expected Data, got {other:?}"),
            }
        }
    }

    #[test]
    fn acks_round_trip() {
        let w = wire();
        let enc = w.encode(&ReliableMsg::Ack { inc: 9, seq: 42 }).unwrap();
        match w.decode(&enc).unwrap() {
            ReliableMsg::Ack { inc, seq } => assert_eq!((inc, seq), (9, 42)),
            other => panic!("expected Ack, got {other:?}"),
        }
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        let w = wire();
        assert!(w.decode(&[]).is_err());
        assert!(w.decode(&[0x7f, 1, 2]).is_err());
        assert!(w.decode(&[TAG_DATA, 0, 0]).is_err());
        assert!(w.decode(&[TAG_ACK, 0]).is_err());
    }
}
