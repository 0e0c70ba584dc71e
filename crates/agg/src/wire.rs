//! Wire-size model: the paper's `s_a`, `s_g`, `s_i` constants.

/// Encoded sizes of the three primitive wire quantities (Table II/III).
///
/// * `sa` — size of the value representing an aggregate,
/// * `sg` — size of the identifier of an item group,
/// * `si` — size of the identifier of an item.
///
/// The paper's evaluation uses 4-byte integers for all three; that is the
/// [`Default`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WireSizes {
    /// `s_a` — bytes per aggregate value.
    pub sa: u64,
    /// `s_g` — bytes per item-group identifier.
    pub sg: u64,
    /// `s_i` — bytes per item identifier.
    pub si: u64,
}

impl Default for WireSizes {
    fn default() -> Self {
        WireSizes {
            sa: 4,
            sg: 4,
            si: 4,
        }
    }
}

impl WireSizes {
    /// Bytes for one `(item identifier, aggregate value)` pair — the unit
    /// of candidate aggregation cost, `s_a + s_i`.
    pub fn pair(&self) -> u64 {
        self.sa + self.si
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_iii() {
        let w = WireSizes::default();
        assert_eq!((w.sa, w.sg, w.si), (4, 4, 4));
        assert_eq!(w.pair(), 8);
    }
}
