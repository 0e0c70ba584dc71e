//! Wire encoding of the netFilter protocol messages.
//!
//! The paper's cost model prices messages in units of `s_a`, `s_g`, and
//! `s_i` bytes (Table II). This module *actually encodes* every protocol
//! message at those widths, so the byte counts the engines charge are
//! grounded in real serialized lengths rather than formulas: the
//! [`Codec::payload_len`] of a message equals what the DES protocol
//! charges for it (asserted by tests here and in the integration suite).
//!
//! Framing (a 1-byte message tag plus explicit element counts) is needed
//! to *decode* a stream but is excluded from the paper metric; it is
//! reported separately by [`Codec::frame_len`].

use bytes::{Buf, BufMut, Bytes, BytesMut};

use ifi_agg::{MapSum, VecSum};
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

/// Encoder/decoder for [`NfMsg`] at configured field widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Codec {
    sizes: WireSizes,
}

impl Codec {
    /// Creates a codec using the given wire sizes.
    ///
    /// # Panics
    ///
    /// Panics if any width is 0 or exceeds 8 bytes.
    pub fn new(sizes: WireSizes) -> Self {
        for w in [sizes.sa, sizes.sg, sizes.si] {
            assert!((1..=8).contains(&w), "field width {w} out of 1..=8");
        }
        Codec { sizes }
    }

    /// The wire sizes in use.
    pub fn sizes(&self) -> WireSizes {
        self.sizes
    }

    fn put_uint(buf: &mut BytesMut, value: u64, width: u64) -> Result<(), CodecError> {
        if width < 8 && value >= 1u64 << (8 * width) {
            return Err(CodecError::ValueOverflow { value, width });
        }
        buf.put_uint(value, width as usize);
        Ok(())
    }

    fn get_uint(buf: &mut &[u8], width: u64) -> Result<u64, CodecError> {
        if buf.remaining() < width as usize {
            return Err(CodecError::Truncated);
        }
        Ok(buf.get_uint(width as usize))
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

    /// Serializes `msg`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::ValueOverflow`] if any aggregate value, group
    /// id, or item id does not fit its configured width.
    pub fn encode(&self, msg: &NfMsg) -> Result<Bytes, CodecError> {
        let mut buf =
            BytesMut::with_capacity((self.frame_len(msg) + self.payload_len(msg)) as usize);
        self.encode_into(msg, &mut buf)?;
        Ok(buf.freeze())
    }

    /// Serializes `msg` into a caller-supplied buffer, clearing it first.
    ///
    /// The allocation-free sibling of [`encode`](Self::encode): callers on
    /// hot paths keep one scratch [`BytesMut`] and reuse its capacity
    /// across messages instead of allocating (and refcounting) a fresh
    /// buffer per encode.
    ///
    /// # Errors
    ///
    /// Same as [`encode`](Self::encode).
    pub fn encode_into(&self, msg: &NfMsg, buf: &mut BytesMut) -> Result<(), CodecError> {
        buf.clear();
        buf.reserve((self.frame_len(msg) + self.payload_len(msg)) as usize);
        match msg {
            NfMsg::GroupAgg(v) => {
                buf.put_u8(TAG_GROUP_AGG);
                buf.put_u32(v.len() as u32);
                for &slot in v.to_dense().iter() {
                    Self::put_uint(buf, slot, self.sizes.sa)?;
                }
            }
            NfMsg::Heavy(lists) => {
                buf.put_u8(TAG_HEAVY);
                buf.put_u32(lists.len() as u32);
                for list in lists.iter() {
                    buf.put_u32(list.len() as u32);
                    for &grp in list {
                        Self::put_uint(buf, grp as u64, self.sizes.sg)?;
                    }
                }
            }
            NfMsg::CandidateAgg(m) => {
                buf.put_u8(TAG_CANDIDATE_AGG);
                buf.put_u32(m.0.len() as u32);
                for (&id, &value) in &m.0 {
                    Self::put_uint(buf, id.0, self.sizes.si)?;
                    Self::put_uint(buf, value, self.sizes.sa)?;
                }
            }
            NfMsg::PhaseCensus { phase, census } => {
                buf.put_u8(TAG_CENSUS);
                buf.put_u8(*phase);
                buf.put_u32(census.count);
                buf.put_uint(census.digest, 8);
            }
        }
        debug_assert_eq!(
            buf.len() as u64,
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
    pub fn decode(&self, bytes: &[u8]) -> Result<NfMsg, CodecError> {
        let mut buf = bytes;
        if buf.remaining() < 1 {
            return Err(CodecError::Truncated);
        }
        let tag = buf.get_u8();
        let msg = match tag {
            TAG_GROUP_AGG => {
                if buf.remaining() < 4 {
                    return Err(CodecError::Truncated);
                }
                let len = buf.get_u32() as usize;
                let mut slots = Vec::with_capacity(len.min(1 << 20));
                for _ in 0..len {
                    slots.push(Self::get_uint(&mut buf, self.sizes.sa)?);
                }
                NfMsg::GroupAgg(VecSum::from(slots))
            }
            TAG_HEAVY => {
                if buf.remaining() < 4 {
                    return Err(CodecError::Truncated);
                }
                let filters = buf.get_u32() as usize;
                let mut lists = Vec::with_capacity(filters.min(1 << 10));
                for _ in 0..filters {
                    if buf.remaining() < 4 {
                        return Err(CodecError::Truncated);
                    }
                    let len = buf.get_u32() as usize;
                    let mut list = Vec::with_capacity(len.min(1 << 20));
                    for _ in 0..len {
                        list.push(Self::get_uint(&mut buf, self.sizes.sg)? as u32);
                    }
                    lists.push(list);
                }
                NfMsg::Heavy(lists.into())
            }
            TAG_CANDIDATE_AGG => {
                if buf.remaining() < 4 {
                    return Err(CodecError::Truncated);
                }
                let len = buf.get_u32() as usize;
                let mut pairs = Vec::with_capacity(len.min(1 << 20));
                for _ in 0..len {
                    let id = Self::get_uint(&mut buf, self.sizes.si)?;
                    let value = Self::get_uint(&mut buf, self.sizes.sa)?;
                    pairs.push((ItemId(id), value));
                }
                NfMsg::CandidateAgg(MapSum::from_pairs(pairs))
            }
            TAG_CENSUS => {
                if buf.remaining() < 1 + 4 + 8 {
                    return Err(CodecError::Truncated);
                }
                let phase = buf.get_u8();
                let count = buf.get_u32();
                let digest = buf.get_uint(8);
                NfMsg::PhaseCensus {
                    phase,
                    census: Census { count, digest },
                }
            }
            other => return Err(CodecError::BadTag(other)),
        };
        if buf.remaining() > 0 {
            return Err(CodecError::TrailingBytes(buf.remaining()));
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec() -> Codec {
        Codec::new(WireSizes::default())
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
    fn round_trips_every_message_kind() {
        let c = codec();
        for msg in msgs() {
            let enc = c.encode(&msg).expect("encodes");
            let dec = c.decode(&enc).expect("decodes");
            // NfMsg has no PartialEq (MapSum inside an enum across crates);
            // compare via re-encoding.
            assert_eq!(c.encode(&dec).unwrap(), enc, "round-trip mismatch");
        }
    }

    #[test]
    fn encode_into_reuses_one_buffer_across_messages() {
        let c = codec();
        let mut scratch = BytesMut::new();
        for msg in msgs() {
            c.encode_into(&msg, &mut scratch).expect("encodes");
            let fresh = c.encode(&msg).unwrap();
            assert_eq!(&scratch[..], &fresh[..], "scratch encoding differs");
            // The scratch keeps only the latest message.
            assert_eq!(scratch.len(), fresh.len());
        }
        // Errors leave the buffer in a cleared-then-partial state but do
        // not poison subsequent encodes.
        let too_big = NfMsg::GroupAgg(VecSum::from(vec![1u64 << 32]));
        assert!(c.encode_into(&too_big, &mut scratch).is_err());
        let ok = NfMsg::Heavy(vec![vec![1, 2]].into());
        c.encode_into(&ok, &mut scratch).expect("recovers");
        assert_eq!(&scratch[..], &c.encode(&ok).unwrap()[..]);
    }

    #[test]
    fn encoded_length_is_frame_plus_payload() {
        let c = codec();
        for msg in msgs() {
            let enc = c.encode(&msg).unwrap();
            assert_eq!(
                enc.len() as u64,
                c.frame_len(&msg) + c.payload_len(&msg),
                "length identity failed for {msg:?}"
            );
        }
    }

    #[test]
    fn payload_matches_what_the_engines_charge() {
        use ifi_agg::Aggregate;
        let c = codec();
        let sizes = WireSizes::default();
        let v = VecSum::from(vec![3; 17]);
        assert_eq!(
            c.payload_len(&NfMsg::GroupAgg(v.clone())),
            v.encoded_bytes(&sizes)
        );
        let m = MapSum::from_pairs([(ItemId(1), 2), (ItemId(9), 1)]);
        assert_eq!(
            c.payload_len(&NfMsg::CandidateAgg(m.clone())),
            m.encoded_bytes(&sizes)
        );
    }

    #[test]
    fn payload_matches_the_paper_cost_model() {
        let c = codec();
        // GroupAgg: sa·(f·g).
        assert_eq!(
            c.payload_len(&NfMsg::GroupAgg(VecSum::from(vec![0; 300]))),
            4 * 300
        );
        // Heavy: sg·Σw.
        assert_eq!(
            c.payload_len(&NfMsg::Heavy(vec![vec![1, 2], vec![3]].into())),
            4 * 3
        );
        // CandidateAgg: (sa+si)·pairs.
        assert_eq!(
            c.payload_len(&NfMsg::CandidateAgg(MapSum::from_pairs([
                (ItemId(1), 2),
                (ItemId(3), 4)
            ]))),
            8 * 2
        );
        // PhaseCensus: fixed census width, independent of field sizes.
        assert_eq!(
            c.payload_len(&NfMsg::PhaseCensus {
                phase: 1,
                census: Census::empty()
            }),
            CENSUS_BYTES
        );
    }

    #[test]
    fn overflow_is_rejected_not_truncated() {
        let c = codec(); // 4-byte fields
        let too_big = NfMsg::GroupAgg(VecSum::from(vec![1u64 << 32]));
        assert_eq!(
            c.encode(&too_big),
            Err(CodecError::ValueOverflow {
                value: 1 << 32,
                width: 4
            })
        );
        // 8-byte aggregates accept the same value.
        let wide = Codec::new(WireSizes {
            sa: 8,
            sg: 4,
            si: 4,
        });
        assert!(wide.encode(&too_big).is_ok());
    }

    #[test]
    fn truncated_and_garbage_inputs_error() {
        let c = codec();
        let enc = c
            .encode(&NfMsg::CandidateAgg(MapSum::from_pairs([(ItemId(1), 2)])))
            .unwrap();
        assert!(matches!(
            c.decode(&enc[..enc.len() - 1]),
            Err(CodecError::Truncated)
        ));
        assert!(matches!(c.decode(&[]), Err(CodecError::Truncated)));
        assert!(matches!(
            c.decode(&[99, 0, 0, 0, 0]),
            Err(CodecError::BadTag(99))
        ));

        let mut trailing = enc.to_vec();
        trailing.push(0);
        assert!(matches!(
            c.decode(&trailing),
            Err(CodecError::TrailingBytes(1))
        ));
    }

    #[test]
    fn non_default_widths_round_trip() {
        let c = Codec::new(WireSizes {
            sa: 2,
            sg: 1,
            si: 3,
        });
        let msg = NfMsg::CandidateAgg(MapSum::from_pairs([(ItemId(0xFFFFFF), 0xFFFF)]));
        let enc = c.encode(&msg).unwrap();
        assert_eq!(enc.len() as u64, c.frame_len(&msg) + 5);
        let dec = c.decode(&enc).unwrap();
        assert_eq!(c.encode(&dec).unwrap(), enc);
        // One past the width fails.
        assert!(c
            .encode(&NfMsg::CandidateAgg(MapSum::from_pairs([(
                ItemId(0x1_000_000),
                1
            )])))
            .is_err());
    }

    #[test]
    #[should_panic(expected = "out of 1..=8")]
    fn zero_width_panics() {
        let _ = Codec::new(WireSizes {
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
}
