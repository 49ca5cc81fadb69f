//! The operating corners of the localization campaigns.
//!
//! An [`AtlasCorner`] is one VDD/temperature point plus the seed its
//! baseline and every placement at it derive from. The atlas and the
//! K-emitter sweeps both run as
//! [`MultilocCampaign`](crate::multiloc::MultilocCampaign)s over a
//! corner list: the atlas's placements are one-emitter tuples.

use psa_core::scenario::Scenario;

/// One operating corner of the atlas: supply, temperature, and the
/// per-corner seed the baseline and every placement at this corner
/// derive from.
#[derive(Debug, Clone, PartialEq)]
pub struct AtlasCorner {
    /// Corner label reproduced in reports.
    pub label: String,
    /// Supply voltage, V.
    pub vdd: f64,
    /// Ambient temperature, °C.
    pub temp_c: f64,
    /// Base seed for this corner's scenarios.
    pub seed: u64,
}

impl AtlasCorner {
    /// A corner.
    pub fn new(label: impl Into<String>, vdd: f64, temp_c: f64, seed: u64) -> Self {
        AtlasCorner {
            label: label.into(),
            vdd,
            temp_c,
            seed,
        }
    }

    /// The quiet-chip scenario of this corner (what the baseline is
    /// learned from and what the emitter is superposed on).
    pub fn scenario(&self) -> Scenario {
        Scenario::baseline()
            .with_seed(self.seed)
            .with_vdd(self.vdd)
            .with_temp_c(self.temp_c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corner_scenario_applies_operating_point() {
        let c = AtlasCorner::new("hot", 1.1, 85.0, 42);
        let s = c.scenario();
        assert_eq!(s.vdd, 1.1);
        assert_eq!(s.temp_c, 85.0);
        assert_eq!(s.seed, 42);
        assert_eq!(s.trojan, None, "corner scenarios are Trojan-quiet");
    }
}
