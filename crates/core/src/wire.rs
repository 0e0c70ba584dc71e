//! The netFilter wire codec: every protocol message at the paper's field
//! widths, in a reliability envelope for the real transport.
//!
//! The paper's cost model prices messages in units of `s_a`, `s_g`, and
//! `s_i` bytes (Table II). [`NfWire`] *actually encodes* every [`NfMsg`]
//! at those widths, so the byte counts the engines charge are grounded in
//! real serialized lengths rather than formulas: the
//! [`NfWire::payload_len`] of a message equals what the DES protocol
//! charges for it (asserted by tests here and in the integration suite).
//! Framing (a 1-byte message tag plus explicit element counts) is needed
//! to *decode* a stream but is excluded from the paper metric; it is
//! reported separately by [`NfWire::frame_len`].
//!
//! As a [`WireCodec`], the message follows a one-byte envelope tag for
//! the reliability variants:
//!
//! ```text
//! 0x00  Plain  | message
//! 0x01  Data   | inc u32 BE | seq u64 BE | message
//! 0x02  Ack    | inc u32 BE | seq u64 BE
//! ```
//!
//! The envelope (tag, incarnation, sequence number) is framing in the
//! paper's sense — needed to decode a stream, excluded from the byte
//! metric — which is exactly how the DES meters it too: acks and
//! retransmissions are charged in their own `retransmit` class at
//! configured constants, never as phase payload.

use ifi_agg::{MapSum, VecSum};
use ifi_sim::ReliableMsg;
use ifi_transport::{WireCodec, WireError};
use ifi_workload::ItemId;

use crate::protocol::NfMsg;
use crate::resilient::{Census, CENSUS_BYTES};
use crate::WireSizes;

/// Errors arising while encoding or decoding protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// A value does not fit in the configured field width.
    ValueOverflow {
        /// The value that did not fit.
        value: u64,
        /// The configured field width in bytes.
        width: u64,
    },
    /// The buffer ended before the message was complete.
    Truncated,
    /// An unknown message tag was encountered.
    BadTag(u8),
    /// Bytes remained after a complete message was decoded.
    TrailingBytes(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::ValueOverflow { value, width } => {
                write!(f, "value {value} does not fit in {width} bytes")
            }
            CodecError::Truncated => write!(f, "message truncated"),
            CodecError::BadTag(t) => write!(f, "unknown message tag {t}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for CodecError {}

const TAG_GROUP_AGG: u8 = 1;
const TAG_HEAVY: u8 = 2;
const TAG_CANDIDATE_AGG: u8 = 3;
const TAG_CENSUS: u8 = 4;

const TAG_PLAIN: u8 = 0x00;
const TAG_DATA: u8 = 0x01;
const TAG_ACK: u8 = 0x02;

/// Appends `value` big-endian in `width` bytes.
fn put(buf: &mut Vec<u8>, value: u64, width: u64) -> Result<(), CodecError> {
    if width < 8 && value >= 1u64 << (8 * width) {
        return Err(CodecError::ValueOverflow { value, width });
    }
    buf.extend_from_slice(&value.to_be_bytes()[8 - width as usize..]);
    Ok(())
}

/// Takes a big-endian `width`-byte value off the front of `buf`.
fn take(buf: &mut &[u8], width: u64) -> Result<u64, CodecError> {
    let Some((head, rest)) = buf.split_at_checked(width as usize) else {
        return Err(CodecError::Truncated);
    };
    *buf = rest;
    Ok(head.iter().fold(0, |acc, &b| acc << 8 | b as u64))
}

/// Takes a reliability envelope's incarnation and sequence number.
fn header(buf: &mut &[u8]) -> Result<(u32, u64), CodecError> {
    Ok((take(buf, 4)? as u32, take(buf, 8)?))
}

/// Takes an element count, and the capacity its elements may reserve:
/// no more than the `width`-byte elements the rest of `buf` can hold, so
/// a frame that claims more than it carries allocates in proportion to
/// its length, not to its claim.
fn take_count(buf: &mut &[u8], width: u64) -> Result<(usize, usize), CodecError> {
    let count = take(buf, 4)? as usize;
    Ok((count, count.min(buf.len() / width as usize)))
}

/// The netFilter codec: [`NfMsg`] at configured field widths, and the
/// [`WireCodec`] carrying [`ReliableMsg`]`<`[`NfMsg`]`>` frames over the
/// real transport.
#[derive(Debug, Clone, Copy)]
pub struct NfWire {
    sizes: WireSizes,
}

impl NfWire {
    /// A codec over the given field widths.
    ///
    /// # Panics
    ///
    /// Panics if any width is 0 or exceeds 8 bytes.
    pub fn new(sizes: WireSizes) -> Self {
        for w in [sizes.sa, sizes.sg, sizes.si] {
            assert!((1..=8).contains(&w), "field width {w} out of 1..=8");
        }
        NfWire { sizes }
    }

    /// The paper-metric payload size of `msg`: `s_a` per aggregate slot,
    /// `s_g` per heavy-group id, `(s_a + s_i)` per candidate pair. This is
    /// exactly what the engines charge.
    pub fn payload_len(&self, msg: &NfMsg) -> u64 {
        match msg {
            NfMsg::GroupAgg(v) => self.sizes.sa * v.len() as u64,
            NfMsg::Heavy(lists) => {
                self.sizes.sg * lists.iter().map(|l| l.len() as u64).sum::<u64>()
            }
            NfMsg::CandidateAgg(m) => self.sizes.pair() * m.0.len() as u64,
            NfMsg::PhaseCensus { .. } => CENSUS_BYTES,
        }
    }

    /// Framing overhead of `msg`: tag byte plus element counts (u32 each).
    pub fn frame_len(&self, msg: &NfMsg) -> u64 {
        match msg {
            NfMsg::GroupAgg(_) => 1 + 4,
            NfMsg::Heavy(lists) => 1 + 4 + 4 * lists.len() as u64,
            NfMsg::CandidateAgg(_) => 1 + 4,
            NfMsg::PhaseCensus { .. } => 1 + 1,
        }
    }

    /// Appends the encoding of `msg` to `buf`: `frame_len + payload_len`
    /// bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::ValueOverflow`] if any aggregate value, group
    /// id, or item id does not fit its configured width; `buf` then ends
    /// in a partial encoding.
    pub fn encode_msg(&self, msg: &NfMsg, buf: &mut Vec<u8>) -> Result<(), CodecError> {
        let start = buf.len();
        buf.reserve((self.frame_len(msg) + self.payload_len(msg)) as usize);
        match msg {
            NfMsg::GroupAgg(v) => {
                buf.push(TAG_GROUP_AGG);
                put(buf, v.len() as u64, 4)?;
                for &slot in v.to_dense().iter() {
                    put(buf, slot, self.sizes.sa)?;
                }
            }
            NfMsg::Heavy(lists) => {
                buf.push(TAG_HEAVY);
                put(buf, lists.len() as u64, 4)?;
                for list in lists.iter() {
                    put(buf, list.len() as u64, 4)?;
                    for &grp in list {
                        put(buf, grp as u64, self.sizes.sg)?;
                    }
                }
            }
            NfMsg::CandidateAgg(m) => {
                buf.push(TAG_CANDIDATE_AGG);
                put(buf, m.0.len() as u64, 4)?;
                for (&id, &value) in &m.0 {
                    put(buf, id.0, self.sizes.si)?;
                    put(buf, value, self.sizes.sa)?;
                }
            }
            NfMsg::PhaseCensus { phase, census } => {
                buf.push(TAG_CENSUS);
                buf.push(*phase);
                put(buf, census.count as u64, 4)?;
                put(buf, census.digest, 8)?;
            }
        }
        debug_assert_eq!(
            (buf.len() - start) as u64,
            self.frame_len(msg) + self.payload_len(msg),
            "encoded length must equal frame + payload"
        );
        Ok(())
    }

    /// Deserializes one message, requiring the buffer to be fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`], [`CodecError::BadTag`], or
    /// [`CodecError::TrailingBytes`] on malformed input.
    pub fn decode_msg(&self, mut buf: &[u8]) -> Result<NfMsg, CodecError> {
        let msg = match take(&mut buf, 1)? as u8 {
            TAG_GROUP_AGG => {
                let (len, cap) = take_count(&mut buf, self.sizes.sa)?;
                let mut slots = Vec::with_capacity(cap);
                for _ in 0..len {
                    slots.push(take(&mut buf, self.sizes.sa)?);
                }
                NfMsg::GroupAgg(VecSum::from(slots))
            }
            TAG_HEAVY => {
                // Each list carries at least its own 4-byte count.
                let (filters, cap) = take_count(&mut buf, 4)?;
                let mut lists = Vec::with_capacity(cap);
                for _ in 0..filters {
                    let (len, cap) = take_count(&mut buf, self.sizes.sg)?;
                    let mut list = Vec::with_capacity(cap);
                    for _ in 0..len {
                        list.push(take(&mut buf, self.sizes.sg)? as u32);
                    }
                    lists.push(list);
                }
                NfMsg::Heavy(lists.into())
            }
            TAG_CANDIDATE_AGG => {
                let (len, cap) = take_count(&mut buf, self.sizes.pair())?;
                let mut pairs = Vec::with_capacity(cap);
                for _ in 0..len {
                    let id = take(&mut buf, self.sizes.si)?;
                    let value = take(&mut buf, self.sizes.sa)?;
                    pairs.push((ItemId(id), value));
                }
                NfMsg::CandidateAgg(MapSum::from_pairs(pairs))
            }
            TAG_CENSUS => NfMsg::PhaseCensus {
                phase: take(&mut buf, 1)? as u8,
                census: Census {
                    count: take(&mut buf, 4)? as u32,
                    digest: take(&mut buf, 8)?,
                },
            },
            other => return Err(CodecError::BadTag(other)),
        };
        if !buf.is_empty() {
            return Err(CodecError::TrailingBytes(buf.len()));
        }
        Ok(msg)
    }
}

impl WireCodec<ReliableMsg<NfMsg>> for NfWire {
    fn encode(&self, msg: &ReliableMsg<NfMsg>) -> Result<Vec<u8>, WireError> {
        let (tag, header, payload) = match msg {
            ReliableMsg::Plain(m) => (TAG_PLAIN, None, Some(m)),
            ReliableMsg::Data { inc, seq, payload } => {
                (TAG_DATA, Some((*inc, *seq)), Some(payload))
            }
            ReliableMsg::Ack { inc, seq } => (TAG_ACK, Some((*inc, *seq)), None),
        };
        let len = payload.map_or(0, |m| self.frame_len(m) + self.payload_len(m));
        let mut buf = Vec::with_capacity(1 + 12 + len as usize);
        buf.push(tag);
        if let Some((inc, seq)) = header {
            buf.extend_from_slice(&inc.to_be_bytes());
            buf.extend_from_slice(&seq.to_be_bytes());
        }
        if let Some(m) = payload {
            self.encode_msg(m, &mut buf)
                .map_err(|e| WireError(e.to_string()))?;
        }
        Ok(buf)
    }

    fn decode(&self, bytes: &[u8]) -> Result<ReliableMsg<NfMsg>, WireError> {
        let Some((&tag, mut b)) = bytes.split_first() else {
            return Err(WireError("empty frame".into()));
        };
        let msg = |b: &[u8]| self.decode_msg(b).map_err(|e| WireError(e.to_string()));
        match tag {
            TAG_PLAIN => Ok(ReliableMsg::Plain(msg(b)?)),
            TAG_DATA => match header(&mut b) {
                Ok((inc, seq)) => Ok(ReliableMsg::Data {
                    inc,
                    seq,
                    payload: msg(b)?,
                }),
                Err(_) => Err(WireError("truncated data envelope".into())),
            },
            TAG_ACK => match header(&mut b) {
                Ok((inc, seq)) if b.is_empty() => Ok(ReliableMsg::Ack { inc, seq }),
                _ => Err(WireError("malformed ack".into())),
            },
            t => Err(WireError(format!("unknown envelope tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire() -> NfWire {
        NfWire::new(WireSizes::default())
    }

    fn encode(w: &NfWire, msg: &NfMsg) -> Result<Vec<u8>, CodecError> {
        let mut buf = Vec::new();
        w.encode_msg(msg, &mut buf).map(|()| buf)
    }

    fn msgs() -> Vec<NfMsg> {
        vec![
            NfMsg::GroupAgg(VecSum::from(vec![0, 1, 2, u32::MAX as u64])),
            NfMsg::GroupAgg(VecSum::from(vec![])),
            NfMsg::Heavy(vec![vec![1, 5, 9], vec![], vec![0]].into()),
            NfMsg::Heavy(vec![].into()),
            NfMsg::CandidateAgg(MapSum::from_pairs([
                (ItemId(7), 100),
                (ItemId(0), 1),
                (ItemId(65_000), 42),
            ])),
            NfMsg::CandidateAgg(MapSum::from_pairs([])),
            NfMsg::PhaseCensus {
                phase: 1,
                census: Census {
                    count: 40,
                    digest: 0xDEAD_BEEF_CAFE_F00D,
                },
            },
            NfMsg::PhaseCensus {
                phase: 2,
                census: Census::empty(),
            },
        ]
    }

    #[test]
    fn round_trips_every_message_kind_at_frame_plus_payload_bytes() {
        let w = wire();
        for msg in msgs() {
            let enc = encode(&w, &msg).expect("encodes");
            assert_eq!(
                enc.len() as u64,
                w.frame_len(&msg) + w.payload_len(&msg),
                "length identity failed for {msg:?}"
            );
            let dec = w.decode_msg(&enc).expect("decodes");
            // NfMsg has no PartialEq (MapSum inside an enum across crates);
            // compare via re-encoding.
            assert_eq!(encode(&w, &dec).unwrap(), enc, "round-trip mismatch");
        }
    }

    #[test]
    fn encode_msg_appends_to_one_buffer() {
        let w = wire();
        let mut buf = Vec::new();
        let mut each = Vec::new();
        for msg in msgs() {
            w.encode_msg(&msg, &mut buf).expect("encodes");
            each.extend(encode(&w, &msg).unwrap());
        }
        assert_eq!(buf, each, "appended encodings differ from fresh ones");
        // An error leaves a partial encoding behind but does not poison
        // the next encode after a clear.
        let too_big = NfMsg::GroupAgg(VecSum::from(vec![1u64 << 32]));
        assert!(w.encode_msg(&too_big, &mut buf).is_err());
        buf.clear();
        let ok = NfMsg::Heavy(vec![vec![1, 2]].into());
        w.encode_msg(&ok, &mut buf).expect("recovers");
        assert_eq!(buf, encode(&w, &ok).unwrap());
    }

    #[test]
    fn payload_matches_the_engines_and_the_paper_cost_model() {
        use ifi_agg::Aggregate;
        let w = wire();
        let sizes = WireSizes::default();
        // GroupAgg: sa·(f·g), as `VecSum` charges it.
        let v = VecSum::from(vec![3; 300]);
        assert_eq!(w.payload_len(&NfMsg::GroupAgg(v.clone())), 4 * 300);
        assert_eq!(v.encoded_bytes(&sizes), 4 * 300);
        // Heavy: sg·Σw.
        assert_eq!(
            w.payload_len(&NfMsg::Heavy(vec![vec![1, 2], vec![3]].into())),
            4 * 3
        );
        // CandidateAgg: (sa+si)·pairs, as `MapSum` charges it.
        let m = MapSum::from_pairs([(ItemId(1), 2), (ItemId(3), 4)]);
        assert_eq!(w.payload_len(&NfMsg::CandidateAgg(m.clone())), 8 * 2);
        assert_eq!(m.encoded_bytes(&sizes), 8 * 2);
        // PhaseCensus: fixed census width, independent of field sizes.
        assert_eq!(
            w.payload_len(&NfMsg::PhaseCensus {
                phase: 1,
                census: Census::empty()
            }),
            CENSUS_BYTES
        );
    }

    #[test]
    fn overflow_is_rejected_not_truncated() {
        let w = wire(); // 4-byte fields
        let too_big = NfMsg::GroupAgg(VecSum::from(vec![1u64 << 32]));
        assert_eq!(
            encode(&w, &too_big),
            Err(CodecError::ValueOverflow {
                value: 1 << 32,
                width: 4
            })
        );
        // 8-byte aggregates accept the same value.
        let wide = NfWire::new(WireSizes {
            sa: 8,
            sg: 4,
            si: 4,
        });
        assert!(encode(&wide, &too_big).is_ok());
    }

    #[test]
    fn truncated_and_garbage_inputs_error() {
        let w = wire();
        let enc = encode(
            &w,
            &NfMsg::CandidateAgg(MapSum::from_pairs([(ItemId(1), 2)])),
        )
        .unwrap();
        assert_eq!(
            w.decode_msg(&enc[..enc.len() - 1]).err(),
            Some(CodecError::Truncated)
        );
        assert_eq!(w.decode_msg(&[]).err(), Some(CodecError::Truncated));
        assert_eq!(
            w.decode_msg(&[99, 0, 0, 0, 0]).err(),
            Some(CodecError::BadTag(99))
        );
        let mut trailing = enc;
        trailing.push(0);
        assert_eq!(
            w.decode_msg(&trailing).err(),
            Some(CodecError::TrailingBytes(1))
        );
    }

    #[test]
    fn non_default_widths_round_trip() {
        let w = NfWire::new(WireSizes {
            sa: 2,
            sg: 1,
            si: 3,
        });
        let msg = NfMsg::CandidateAgg(MapSum::from_pairs([(ItemId(0xFFFFFF), 0xFFFF)]));
        let enc = encode(&w, &msg).unwrap();
        assert_eq!(enc.len() as u64, w.frame_len(&msg) + 5);
        let dec = w.decode_msg(&enc).unwrap();
        assert_eq!(encode(&w, &dec).unwrap(), enc);
        // One past the width fails.
        let past = NfMsg::CandidateAgg(MapSum::from_pairs([(ItemId(0x1_000_000), 1)]));
        assert!(encode(&w, &past).is_err());
    }

    #[test]
    #[should_panic(expected = "out of 1..=8")]
    fn zero_width_panics() {
        let _ = NfWire::new(WireSizes {
            sa: 0,
            sg: 4,
            si: 4,
        });
    }

    #[test]
    fn error_display_is_informative() {
        let e = CodecError::ValueOverflow {
            value: 300,
            width: 1,
        };
        assert_eq!(e.to_string(), "value 300 does not fit in 1 bytes");
        assert!(!CodecError::Truncated.to_string().is_empty());
    }

    fn assert_same_msg(w: &NfWire, a: &NfMsg, b: &NfMsg) {
        assert_eq!(encode(w, a).unwrap(), encode(w, b).unwrap());
    }

    #[test]
    fn plain_and_sequenced_frames_round_trip_behind_their_envelope() {
        let w = wire();
        for m in msgs() {
            let enc = w.encode(&ReliableMsg::Plain(m.clone())).unwrap();
            assert_eq!(enc[0], TAG_PLAIN);
            assert_eq!(enc[1..], encode(&w, &m).unwrap()[..]);
            match w.decode(&enc).unwrap() {
                ReliableMsg::Plain(back) => assert_same_msg(&w, &m, &back),
                other => panic!("expected Plain, got {other:?}"),
            }
            let frame = ReliableMsg::Data {
                inc: 3,
                seq: u64::MAX - 1,
                payload: m.clone(),
            };
            let enc = w.encode(&frame).unwrap();
            assert_eq!(enc.len() as u64, 13 + w.frame_len(&m) + w.payload_len(&m));
            match w.decode(&enc).unwrap() {
                ReliableMsg::Data { inc, seq, payload } => {
                    assert_eq!((inc, seq), (3, u64::MAX - 1));
                    assert_same_msg(&w, &m, &payload);
                }
                other => panic!("expected Data, got {other:?}"),
            }
        }
    }

    #[test]
    fn acks_round_trip() {
        let w = wire();
        let enc = w.encode(&ReliableMsg::Ack { inc: 9, seq: 42 }).unwrap();
        assert_eq!(enc.len(), 13);
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
        assert!(w
            .decode(&[TAG_ACK, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0])
            .is_err());
    }
}
