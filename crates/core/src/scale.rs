//! Input scaling: the paper's baseline × {1,4,8,16,32} sweep, shrunk to
//! library scale.

/// How much input to generate for one run.
///
/// The paper fixes a per-workload baseline (Table 6: 32 GB of text, 2^15
/// vertices, 10^6 pages, 100 requests/s) and multiplies it by 1/4/8/16/32.
/// We keep the multipliers and shrink the baselines: `fraction` scales
/// every workload's library-scale baseline: `RunScale::baseline()` is
/// the library scale itself and `RunScale::quick()` a sixteenth of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunScale {
    /// The paper's data-volume multiplier (1, 4, 8, 16 or 32).
    pub multiplier: u32,
    /// Global shrink factor applied to native baselines (1.0 = the
    /// library-scale default).
    pub fraction: f64,
    /// Deterministic seed for generators.
    pub seed: u64,
}

impl RunScale {
    /// The paper's multiplier sweep.
    pub const MULTIPLIERS: [u32; 5] = [1, 4, 8, 16, 32];

    /// Baseline input (multiplier 1) at the default fraction.
    pub fn baseline() -> Self {
        Self { multiplier: 1, fraction: 1.0, seed: 0xB1D_DA7A }
    }

    /// Baseline scaled by `multiplier`.
    pub fn at(multiplier: u32) -> Self {
        Self { multiplier, ..Self::baseline() }
    }

    /// A tiny configuration for tests: 1/16 of the library baseline.
    pub fn quick() -> Self {
        Self { multiplier: 1, fraction: 1.0 / 16.0, seed: 0xB1D_DA7A }
    }

    /// Replaces the shrink fraction.
    pub fn with_fraction(mut self, fraction: f64) -> Self {
        assert!(fraction > 0.0, "fraction must be positive");
        self.fraction = fraction;
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Native input size: `baseline_units × fraction × multiplier`,
    /// at least 1 and at most `u64::MAX`.
    pub fn native_units(&self, baseline_units: u64) -> u64 {
        let base = (baseline_units as f64 * self.fraction).max(1.0) as u64;
        base.saturating_mul(u64::from(self.multiplier)).max(1)
    }

    /// Traced input size: a quarter of native (simulation is ~100×
    /// slower per byte than native execution), still multiplier-scaled,
    /// at least 1 and at most `u64::MAX`.
    pub fn traced_units(&self, baseline_units: u64) -> u64 {
        let base = (baseline_units as f64 * self.fraction / 4.0).max(1.0) as u64;
        base.saturating_mul(u64::from(self.multiplier)).max(1)
    }

    /// A seed derived for sub-component `tag` so generators stay
    /// independent but deterministic.
    pub fn seed_for(&self, tag: u64) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(tag)
            .wrapping_add(self.multiplier as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_scale_linearly_with_multiplier() {
        let base = RunScale::at(1).native_units(1000);
        let x4 = RunScale::at(4).native_units(1000);
        let x32 = RunScale::at(32).native_units(1000);
        assert_eq!(x4, base * 4);
        assert_eq!(x32, base * 32);
    }

    #[test]
    fn fraction_shrinks() {
        let full = RunScale::baseline().native_units(1600);
        let quick = RunScale::quick().native_units(1600);
        assert_eq!(full, 1600);
        assert_eq!(quick, 100);
    }

    #[test]
    fn traced_is_smaller_but_scales() {
        let s = RunScale::at(8);
        assert!(s.traced_units(1000) < s.native_units(1000));
        assert_eq!(s.traced_units(1000), RunScale::at(1).traced_units(1000) * 8);
    }

    #[test]
    fn never_zero() {
        let s = RunScale::quick();
        assert_eq!(s.native_units(1), 1);
        assert!(s.traced_units(1) >= 1);
    }

    #[test]
    fn seeds_differ_per_tag_and_multiplier() {
        let s = RunScale::baseline();
        assert_ne!(s.seed_for(1), s.seed_for(2));
        assert_ne!(RunScale::at(1).seed_for(1), RunScale::at(4).seed_for(1));
    }

    #[test]
    fn huge_fractions_saturate_instead_of_overflowing() {
        let s = RunScale::at(32).with_fraction(1e300);
        assert_eq!(s.native_units(1000), u64::MAX);
        assert_eq!(s.traced_units(1000), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_fraction_panics() {
        RunScale::baseline().with_fraction(0.0);
    }
}
