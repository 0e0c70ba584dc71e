//! A frame's element counts cannot make the decoder allocate: a frame
//! that claims more elements than it carries fails `Truncated` after
//! reserving no more than its own bytes can hold, measured on the
//! counting allocator.
//!
//! One test in this binary, so nothing else allocates inside the window.

use ifi_perf::alloc::{self, Counting};
use ifi_sim::ReliableMsg;
use ifi_transport::WireCodec;
use netfilter::protocol::NfMsg;
use netfilter::wire::{CodecError, NfWire};
use netfilter::WireSizes;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Most bytes a rejected frame may allocate, per byte of the frame: a
/// `Heavy` list header is 24 bytes of `Vec` per 4-byte count, and
/// rendering the error message costs a few dozen bytes.
const BYTES_PER_FRAME_BYTE: u64 = 8;

#[test]
fn frames_claiming_more_than_they_carry_allocate_no_more_than_they_hold() {
    const GROUP_AGG: u8 = 1;
    const HEAVY: u8 = 2;
    const CANDIDATE_AGG: u8 = 3;
    const MAX: [u8; 4] = u32::MAX.to_be_bytes();
    let frame = |parts: &[&[u8]]| parts.concat();
    let frames = [
        ("group vector", frame(&[&[GROUP_AGG], &MAX])),
        (
            "group vector, a slot carried",
            frame(&[&[GROUP_AGG], &MAX, &[0; 4]]),
        ),
        ("heavy filters", frame(&[&[HEAVY], &MAX])),
        ("heavy list", frame(&[&[HEAVY], &[0, 0, 0, 1], &MAX])),
        (
            "heavy lists, counts carried",
            frame(&[&[HEAVY], &MAX, &[0; 64]]),
        ),
        ("candidates", frame(&[&[CANDIDATE_AGG], &MAX])),
        (
            "candidates, a pair carried",
            frame(&[&[CANDIDATE_AGG], &MAX, &[0; 8]]),
        ),
    ];
    let wire = NfWire::new(WireSizes::default());
    for (what, frame) in &frames {
        let budget = BYTES_PER_FRAME_BYTE * (1 + frame.len() as u64);

        alloc::reset();
        let decoded = wire.decode_msg(frame);
        let used = alloc::snapshot();
        assert_eq!(decoded.err(), Some(CodecError::Truncated), "{what}");
        assert!(used.bytes <= budget, "{what}: {used:?} over {budget} B");

        // The same frame as a transport peer sends it.
        let plain = [&[0u8][..], frame].concat();
        alloc::reset();
        let decoded: Result<ReliableMsg<NfMsg>, _> = wire.decode(&plain);
        let used = alloc::snapshot();
        assert!(decoded.is_err(), "{what}: plain envelope");
        assert!(
            used.bytes <= budget + 64,
            "{what}: plain envelope, {used:?} over {} B",
            budget + 64
        );
    }
}
