//! Peer identifiers.

use std::fmt;

/// Identifier of a peer in the simulated system.
///
/// Peers are numbered densely from `0..N`, which lets every per-peer table
/// in the workspace be a flat `Vec` indexed by [`PeerId::index`].
///
/// ```
/// use ifi_sim::PeerId;
/// let p = PeerId::new(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(format!("{p}"), "P3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(u32);

impl PeerId {
    /// Creates a peer id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    pub fn new(index: usize) -> Self {
        PeerId(u32::try_from(index).expect("peer index exceeds u32"))
    }

    /// The dense index of this peer, suitable for `Vec` indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` value.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<u32> for PeerId {
    fn from(v: u32) -> Self {
        PeerId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_index() {
        for i in [0usize, 1, 999, 1_000_000] {
            assert_eq!(PeerId::new(i).index(), i);
        }
    }

    #[test]
    fn display_and_from() {
        assert_eq!(format!("{}", PeerId::from(7u32)), "P7");
        assert_eq!(PeerId::from(7u32).raw(), 7);
    }

    #[test]
    #[should_panic(expected = "peer index exceeds u32")]
    fn rejects_huge_index() {
        let _ = PeerId::new(usize::MAX);
    }

    #[test]
    fn is_ordered_by_index() {
        assert!(PeerId::new(1) < PeerId::new(2));
    }
}
