//! Wire encoding boundary for the TCP transport.
//!
//! The in-process channel transport moves `P::Msg` values directly; only
//! the TCP loopback hub needs bytes on a wire. [`WireCodec`] is the
//! pluggable (de)serializer a protocol supplies for its message type —
//! the `netfilter` crate's `NfWire` encodes at the paper's field widths,
//! so the bytes on the loopback socket are the very bytes the cost model
//! prices.

use std::fmt;

/// An encode/decode failure at the wire boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire codec error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// A thread-safe (de)serializer for protocol messages crossing the TCP
/// transport. Implementations must round-trip: `decode(encode(m)) == m`
/// up to protocol equivalence.
pub trait WireCodec<M>: Send + Sync + 'static {
    /// Serializes `msg` to bytes.
    fn encode(&self, msg: &M) -> Result<Vec<u8>, WireError>;
    /// Deserializes a message from `bytes` (the exact slice a peer
    /// framed, no trailing data).
    fn decode(&self, bytes: &[u8]) -> Result<M, WireError>;
}
