//! netFilter configuration.

use ifi_agg::WireSizes;

/// How the IFI threshold `t` is specified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Threshold {
    /// An absolute global-value threshold.
    Absolute(u64),
    /// The paper's threshold ratio `φ`: `t = φ·v` where `v` is the total
    /// mass in the system (obtained by a preliminary scalar aggregate
    /// computation).
    Ratio(f64),
}

impl Threshold {
    /// Resolves to an absolute threshold given the system's total mass `v`
    /// (rounded up so `v_x ≥ t ⇔ v_x/v ≥ φ` for integers).
    ///
    /// # Panics
    ///
    /// Panics if a ratio is outside `(0, 1]` or an absolute threshold is 0.
    pub fn resolve(self, total_value: u64) -> u64 {
        match self {
            Threshold::Absolute(t) => {
                assert!(t > 0, "absolute threshold must be positive");
                t
            }
            Threshold::Ratio(phi) => {
                assert!(phi > 0.0 && phi <= 1.0, "threshold ratio out of (0, 1]");
                ((phi * total_value as f64).ceil() as u64).max(1)
            }
        }
    }
}

/// Full parameterization of a netFilter run (Table II symbols).
#[derive(Debug, Clone, PartialEq)]
pub struct NetFilterConfig {
    /// `g` — the filter size: number of item groups per filter.
    pub filter_size: u32,
    /// `f` — the number of filters (independent hash partitions).
    pub filters: u32,
    /// The IFI threshold.
    pub threshold: Threshold,
    /// Wire sizes `s_a`, `s_g`, `s_i`.
    pub sizes: WireSizes,
    /// Seed of the hash family (all peers must agree on it; in a
    /// deployment the root picks it and ships it with the query).
    pub hash_seed: u64,
}

impl NetFilterConfig {
    /// Starts a builder with the paper's default evaluation setting
    /// (`g = 100`, `f = 3`, `φ = 0.01`, 4-byte wire sizes).
    pub fn builder() -> NetFilterConfigBuilder {
        NetFilterConfigBuilder::new()
    }

    /// Total number of item groups across all filters, `f·g`.
    pub fn total_groups(&self) -> usize {
        self.filters as usize * self.filter_size as usize
    }
}

impl Default for NetFilterConfig {
    fn default() -> Self {
        NetFilterConfig::builder().build()
    }
}

/// Builder for [`NetFilterConfig`].
#[derive(Debug, Clone)]
pub struct NetFilterConfigBuilder {
    filter_size: u32,
    filters: u32,
    threshold: Threshold,
    sizes: WireSizes,
    hash_seed: u64,
}

impl NetFilterConfigBuilder {
    /// Creates a builder with the paper's defaults.
    pub fn new() -> Self {
        NetFilterConfigBuilder {
            filter_size: 100,
            filters: 3,
            threshold: Threshold::Ratio(0.01),
            sizes: WireSizes::default(),
            hash_seed: 0x6E65_7446_696C,
        }
    }

    /// Sets `g`, the number of item groups per filter.
    pub fn filter_size(mut self, g: u32) -> Self {
        self.filter_size = g;
        self
    }

    /// Sets `f`, the number of filters.
    pub fn filters(mut self, f: u32) -> Self {
        self.filters = f;
        self
    }

    /// Sets the threshold.
    pub fn threshold(mut self, t: Threshold) -> Self {
        self.threshold = t;
        self
    }

    /// Sets the wire sizes.
    pub fn sizes(mut self, sizes: WireSizes) -> Self {
        self.sizes = sizes;
        self
    }

    /// Sets the hash-family seed.
    pub fn hash_seed(mut self, seed: u64) -> Self {
        self.hash_seed = seed;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `filter_size == 0` or `filters == 0`.
    pub fn build(self) -> NetFilterConfig {
        assert!(self.filter_size > 0, "filter size g must be positive");
        assert!(self.filters > 0, "number of filters f must be positive");
        NetFilterConfig {
            filter_size: self.filter_size,
            filters: self.filters,
            threshold: self.threshold,
            sizes: self.sizes,
            hash_seed: self.hash_seed,
        }
    }
}

impl Default for NetFilterConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_paper() {
        let c = NetFilterConfig::default();
        assert_eq!(c.filter_size, 100);
        assert_eq!(c.filters, 3);
        assert_eq!(c.threshold, Threshold::Ratio(0.01));
        assert_eq!(c.sizes, WireSizes::default());
        assert_eq!(c.total_groups(), 300);
    }

    #[test]
    fn builder_overrides() {
        let c = NetFilterConfig::builder()
            .filter_size(10)
            .filters(6)
            .threshold(Threshold::Absolute(500))
            .hash_seed(9)
            .build();
        assert_eq!((c.filter_size, c.filters), (10, 6));
        assert_eq!(c.threshold.resolve(12345), 500);
        assert_eq!(c.hash_seed, 9);
    }

    #[test]
    fn ratio_resolution_rounds_up() {
        assert_eq!(Threshold::Ratio(0.01).resolve(1000), 10);
        assert_eq!(Threshold::Ratio(0.015).resolve(1000), 15);
        assert_eq!(Threshold::Ratio(0.0151).resolve(1000), 16);
        // Tiny systems still get a positive threshold.
        assert_eq!(Threshold::Ratio(0.01).resolve(0), 1);
    }

    #[test]
    #[should_panic(expected = "out of (0, 1]")]
    fn bad_ratio_panics() {
        let _ = Threshold::Ratio(1.5).resolve(100);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_filter_size_panics() {
        let _ = NetFilterConfig::builder().filter_size(0).build();
    }
}
