//! Measurement scenarios: what the chip is doing while traces are
//! collected.
//!
//! The paper's evaluation records traces under five conditions — each
//! Trojan individually activated, and no Trojan active (Sec. VI-D) —
//! plus the "powered-up, no encryption" noise condition of the SNR
//! measurement (Sec. VI-B), across supply and temperature corners
//! (Sec. VI-C).

use psa_gatesim::activity::{AesMode, ChipConfig};
use psa_gatesim::trojan::TrojanKind;

/// One measurement scenario.
///
/// # Example
///
/// ```
/// use psa_core::scenario::Scenario;
/// use psa_gatesim::trojan::TrojanKind;
///
/// let s = Scenario::trojan_active(TrojanKind::T3).with_seed(9).with_vdd(1.1);
/// assert_eq!(s.trojan, Some(TrojanKind::T3));
/// assert_eq!(s.vdd, 1.1);
///
/// // Several Trojans can be activated at once (each chip pin is
/// // independent):
/// let multi = Scenario {
///     extra_trojans: vec![TrojanKind::T4],
///     ..Scenario::trojan_active(TrojanKind::T1)
/// };
/// assert_eq!(multi.active_trojans(), vec![TrojanKind::T1, TrojanKind::T4]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The (primary) Trojan whose payload is activated (via its trigger
    /// condition or external enable pin), if any.
    pub trojan: Option<TrojanKind>,
    /// Additional concurrently-activated Trojans (extension beyond the
    /// paper's one-at-a-time evaluation; the enable pins are
    /// independent).
    pub extra_trojans: Vec<TrojanKind>,
    /// AES operating mode.
    pub aes_mode: AesMode,
    /// AES key.
    pub key: [u8; 16],
    /// Seed for plaintexts and noise.
    pub seed: u64,
    /// Supply voltage, V.
    pub vdd: f64,
    /// Ambient temperature, °C.
    pub temp_c: f64,
    /// Cycles simulated before the first record (trigger settling, T4's
    /// thermal ramp, baseline drift).
    pub warmup_cycles: usize,
}

impl Scenario {
    /// The default key (the FIPS-197 example key).
    pub const DEFAULT_KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];

    /// Encryption running, no Trojan active — the run-time baseline the
    /// detector learns from (golden-model free: same chip, Trojans
    /// dormant).
    pub fn baseline() -> Self {
        Scenario {
            trojan: None,
            extra_trojans: Vec::new(),
            aes_mode: AesMode::Continuous,
            key: Self::DEFAULT_KEY,
            seed: 1,
            vdd: 1.0,
            temp_c: 25.0,
            warmup_cycles: 2048,
        }
    }

    /// Encryption running with one Trojan activated.
    pub fn trojan_active(kind: TrojanKind) -> Self {
        Scenario {
            trojan: Some(kind),
            ..Scenario::baseline()
        }
    }

    /// Powered up, clock gated, no encryption — the SNR noise condition.
    pub fn noise() -> Self {
        Scenario {
            aes_mode: AesMode::Idle,
            ..Scenario::baseline()
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the AES key.
    pub fn with_key(mut self, key: [u8; 16]) -> Self {
        self.key = key;
        self
    }

    /// Sets the supply voltage.
    pub fn with_vdd(mut self, vdd: f64) -> Self {
        self.vdd = vdd;
        self
    }

    /// Sets the ambient temperature.
    pub fn with_temp_c(mut self, temp_c: f64) -> Self {
        self.temp_c = temp_c;
        self
    }

    /// The deduplicated active-Trojan set: the primary first, then the
    /// extras in first-occurrence order with repeats (including a kind
    /// listed both as primary *and* extra) removed.
    ///
    /// The fields are public and schedule code rebuilds them record by
    /// record — every consumer of "which Trojans are on" goes through
    /// this so a duplicated kind activates once.
    pub fn active_trojans(&self) -> Vec<TrojanKind> {
        let mut seen = [false; 4];
        let mut out = Vec::with_capacity(1 + self.extra_trojans.len());
        for &k in self.trojan.iter().chain(self.extra_trojans.iter()) {
            if !seen[k.index()] {
                seen[k.index()] = true;
                out.push(k);
            }
        }
        out
    }

    /// Builds the gate-level simulator configuration for this scenario.
    ///
    /// T2's activation is driven by its plaintext trigger (`16'hAAAA`
    /// prefix), matching the paper; the other Trojans use their
    /// enable pins / internal triggers.
    pub fn chip_config(&self) -> ChipConfig {
        let mut enables = [false; 4];
        let mut force_t2 = false;
        for kind in self.active_trojans() {
            match kind {
                TrojanKind::T2 => force_t2 = true,
                other => enables[other.index()] = true,
            }
        }
        ChipConfig {
            clk_hz: crate::calib::CLK_HZ,
            key: self.key,
            aes_mode: self.aes_mode,
            trojan_enables: enables,
            force_t2_trigger: force_t2,
            uart_baud: 1_000_000,
            seed: self.seed,
            cell_counts: (21_200, 800, 283),
        }
    }
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_has_no_trojan() {
        let s = Scenario::baseline();
        assert_eq!(s.trojan, None);
        let cfg = s.chip_config();
        assert_eq!(cfg.trojan_enables, [false; 4]);
        assert!(!cfg.force_t2_trigger);
    }

    #[test]
    fn t2_uses_plaintext_trigger() {
        let cfg = Scenario::trojan_active(TrojanKind::T2).chip_config();
        assert!(cfg.force_t2_trigger);
        assert_eq!(cfg.trojan_enables, [false; 4]);
    }

    #[test]
    fn multi_trojan_sets_all_pins() {
        let s = Scenario {
            trojan: Some(TrojanKind::T1),
            extra_trojans: vec![TrojanKind::T4, TrojanKind::T2],
            ..Scenario::baseline()
        };
        let cfg = s.chip_config();
        assert!(cfg.trojan_enables[TrojanKind::T1.index()]);
        assert!(cfg.trojan_enables[TrojanKind::T4.index()]);
        assert!(cfg.force_t2_trigger);
        assert!(!cfg.trojan_enables[TrojanKind::T3.index()]);
    }

    #[test]
    fn kind_listed_as_primary_and_extra_activates_once() {
        // The fields are public: direct construction can duplicate a
        // kind across primary and extras. The active set must collapse
        // it to one activation.
        let s = Scenario {
            trojan: Some(TrojanKind::T1),
            extra_trojans: vec![TrojanKind::T1, TrojanKind::T3, TrojanKind::T3],
            ..Scenario::baseline()
        };
        assert_eq!(s.active_trojans(), vec![TrojanKind::T1, TrojanKind::T3]);
        let cfg = s.chip_config();
        assert_eq!(cfg.trojan_enables.iter().filter(|&&e| e).count(), 2);
        assert!(cfg.trojan_enables[TrojanKind::T1.index()]);
        assert!(cfg.trojan_enables[TrojanKind::T3.index()]);
        // T2 duplicated the same way is one trigger force.
        let t2 = Scenario {
            trojan: Some(TrojanKind::T2),
            extra_trojans: vec![TrojanKind::T2],
            ..Scenario::baseline()
        };
        assert_eq!(t2.active_trojans(), vec![TrojanKind::T2]);
        assert!(t2.chip_config().force_t2_trigger);
    }

    #[test]
    fn active_trojans_orders_primary_first() {
        let s = Scenario {
            trojan: Some(TrojanKind::T4),
            extra_trojans: vec![TrojanKind::T1, TrojanKind::T4, TrojanKind::T2],
            ..Scenario::baseline()
        };
        assert_eq!(
            s.active_trojans(),
            vec![TrojanKind::T4, TrojanKind::T1, TrojanKind::T2]
        );
        assert!(Scenario::baseline().active_trojans().is_empty());
    }

    #[test]
    fn warmup_does_not_reach_the_chip_config() {
        // Warm-up is an acquisition-loop concern: a zero-warm-up
        // scenario configures the chip exactly as the default one.
        let t2 = Scenario::trojan_active(TrojanKind::T2).with_seed(3);
        let cold = Scenario {
            warmup_cycles: 0,
            ..t2.clone()
        };
        let (a, b) = (cold.chip_config(), t2.chip_config());
        assert_eq!((a.seed, a.key, a.aes_mode), (b.seed, b.key, b.aes_mode));
        assert_eq!(a.trojan_enables, b.trojan_enables);
        assert!(a.force_t2_trigger && b.force_t2_trigger);
    }

    #[test]
    fn others_use_enable_pins() {
        for kind in [TrojanKind::T1, TrojanKind::T3, TrojanKind::T4] {
            let cfg = Scenario::trojan_active(kind).chip_config();
            assert!(cfg.trojan_enables[kind.index()], "{kind}");
            assert!(!cfg.force_t2_trigger);
        }
    }

    #[test]
    fn noise_scenario_idles() {
        let cfg = Scenario::noise().chip_config();
        assert_eq!(cfg.aes_mode, AesMode::Idle);
    }

    #[test]
    fn builder_methods_chain() {
        let s = Scenario::baseline()
            .with_seed(7)
            .with_vdd(0.8)
            .with_temp_c(125.0)
            .with_key([9; 16]);
        assert_eq!(s.seed, 7);
        assert_eq!(s.vdd, 0.8);
        assert_eq!(s.temp_c, 125.0);
        assert_eq!(s.chip_config().key, [9; 16]);
    }

    #[test]
    fn cell_counts_total_matches_table2() {
        let cfg = Scenario::baseline().chip_config();
        let (aes, uart, ctrl) = cfg.cell_counts;
        let trojans: usize = TrojanKind::ALL.iter().map(|k| k.cell_count()).sum();
        assert_eq!(aes + uart + ctrl + trojans, 28_806);
    }
}
