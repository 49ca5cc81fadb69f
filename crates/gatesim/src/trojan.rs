//! The four hardware Trojans of the test chip (paper Sec. V, Table II).
//!
//! Each Trojan follows the paper's triggering condition and produces a
//! per-cycle switching-activity value with two multiplicative parts:
//!
//! 1. a common **11-cycle chip pattern** carried by the Trojans'
//!    counter/shift logic. Its dominant 5/11 harmonic puts a 15 MHz
//!    modulation on the clock-edge current pulses, which is what creates
//!    the 48 MHz (33+15) and 84 MHz (99−15) sidebands the paper observes
//!    in Fig 4 for *all four* Trojans;
//! 2. a Trojan-specific **envelope** — the per-Trojan fingerprint that
//!    zero-span recovers in Fig 5: a 750 kHz AM sine for T1, key-schedule
//!    bursts for T2, PN-code chipping for T3, and a near-constant level
//!    (with a slow thermal ramp) for T4.
//!
//! Dormant Trojans are not perfectly silent: trigger counters tick a few
//! gates per cycle, which is far below the detection floor — matching the
//! paper's run-time threat model where a Trojan must *activate* before it
//! can be seen.

use crate::aes::Aes128;
use crate::lfsr::Lfsr;
use std::f64::consts::PI;
use std::fmt;

/// The common 11-cycle activity pattern of the Trojan payload logic
/// (binarized 5/11-cycle tone; see module docs).
pub const CHIP_PATTERN_11: [f64; 11] = [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0];

/// T1's counter width: triggers when the counter reaches `21'h1F_FFFF`.
pub const T1_COUNTER_BITS: u32 = 21;
/// T1's trigger value (all ones).
pub const T1_TRIGGER_VALUE: u64 = 0x1F_FFFF;
/// Cycles T1's payload stays active after its counter trigger fires.
pub const T1_ACTIVE_CYCLES: u64 = 1 << 20;
/// T1's AM carrier frequency (paper: 750 kHz).
pub const T1_CARRIER_HZ: f64 = 750.0e3;
/// T2's plaintext trigger: first two bytes equal `16'hAAAA`.
pub const T2_TRIGGER_PREFIX: [u8; 2] = [0xAA, 0xAA];
/// T3's PN chip period in clock cycles (chip rate ≈ 2.06 MHz at 33 MHz,
/// inside the zero-span resolution bandwidth so the chipping telegraph
/// is observable in the recovered envelope).
pub const T3_CHIP_CYCLES: u64 = 16;
/// T4's thermal ramp time constant in seconds.
pub const T4_THERMAL_TAU_S: f64 = 2.0e-3;

/// Which Trojan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrojanKind {
    /// AM radio-carrier Trojan (750 kHz), counter-triggered.
    T1,
    /// Key-wire inverter-chain leakage amplifier, plaintext-triggered.
    T2,
    /// CDMA key-leak Trojan (small), externally enabled.
    T3,
    /// Denial-of-service power hog, externally enabled.
    T4,
}

impl TrojanKind {
    /// All four Trojans.
    pub const ALL: [TrojanKind; 4] = [
        TrojanKind::T1,
        TrojanKind::T2,
        TrojanKind::T3,
        TrojanKind::T4,
    ];

    /// Standard-cell count (Table II).
    pub fn cell_count(self) -> usize {
        match self {
            TrojanKind::T1 => 1881,
            TrojanKind::T2 => 2132,
            TrojanKind::T3 => 329,
            TrojanKind::T4 => 2181,
        }
    }

    /// Fraction of the Trojan's cells that toggle in an active
    /// payload cycle (before pattern/envelope shaping).
    ///
    /// Trojan payloads are deliberately switching-dense: T4 is a DoS
    /// power hog toggling essentially every cell per cycle, T2 an
    /// oscillating inverter chain, T1 a radio driver, T3 a spreading
    /// modulator — far busier per cell than a datapath's HD-limited
    /// ~30 %.
    pub fn activity_factor(self) -> f64 {
        match self {
            TrojanKind::T1 => 0.60,
            TrojanKind::T2 => 0.85,
            TrojanKind::T3 => 0.60,
            TrojanKind::T4 => 1.00, // DoS: deliberately power-hungry
        }
    }

    /// Index 0–3 (T1–T4).
    pub fn index(self) -> usize {
        match self {
            TrojanKind::T1 => 0,
            TrojanKind::T2 => 1,
            TrojanKind::T3 => 2,
            TrojanKind::T4 => 3,
        }
    }
}

impl fmt::Display for TrojanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrojanKind::T1 => "T1",
            TrojanKind::T2 => "T2",
            TrojanKind::T3 => "T3",
            TrojanKind::T4 => "T4",
        };
        f.write_str(s)
    }
}

/// Per-cycle context handed to each Trojan by the activity simulator.
#[derive(Debug, Clone, Copy)]
pub struct CycleContext {
    /// Absolute cycle index since power-up.
    pub cycle: u64,
    /// System clock frequency, Hz.
    pub clk_hz: f64,
    /// Plaintext of the block currently being encrypted.
    pub plaintext: [u8; 16],
    /// Cycle within the current AES block schedule (0 = load).
    pub block_cycle: u8,
    /// `true` while the AES core is actively encrypting.
    pub aes_busy: bool,
    /// External enable pin for this Trojan (`en_T1..en_T4` in Fig 2).
    pub external_enable: bool,
}

/// A live Trojan instance: trigger state plus payload activity.
#[derive(Debug, Clone)]
pub struct Trojan {
    kind: TrojanKind,
    // T1 state.
    counter: u64,
    active_until: Option<u64>,
    // T2 state.
    t2_key_burst: [f64; 12],
    t2_matched_block: bool,
    // T3 state.
    pn: Lfsr,
    pn_bit: bool,
    key_bits: [u8; 16],
    // T4 state.
    first_active_cycle: Option<u64>,
    triggered: bool,
}

impl Trojan {
    /// Creates a dormant Trojan. `key` parameterizes the key-dependent
    /// payloads (T2's bursts, T3's leaked bits).
    pub fn new(kind: TrojanKind, key: &[u8; 16]) -> Self {
        // T2's burst profile follows the key schedule's inter-round
        // Hamming distances: the inverter chain loads the key wire once
        // per round, so its current bursts trace the schedule.
        let aes = Aes128::new(key);
        let rks = aes.round_keys();
        let mut burst = [0.0f64; 12];
        for r in 0..11 {
            let hd: u32 = rks[r.min(9)]
                .iter()
                .zip(&rks[(r + 1).min(10)])
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            burst[r + 1] = 0.25 + 0.75 * hd as f64 / 128.0;
        }
        burst[0] = 0.15; // load cycle
        Trojan {
            kind,
            counter: 0,
            active_until: None,
            t2_key_burst: burst,
            t2_matched_block: false,
            pn: Lfsr::new_31bit(0x1234_5678),
            pn_bit: false,
            key_bits: *key,
            first_active_cycle: None,
            triggered: false,
        }
    }

    /// `true` if the payload was active on the most recent step.
    pub fn is_triggered(&self) -> bool {
        self.triggered
    }

    /// Advances one clock cycle; returns this cycle's payload toggle
    /// count (gate-output toggles across the Trojan's cells).
    pub fn step(&mut self, ctx: &CycleContext) -> f64 {
        let active = self.update_trigger(ctx);
        self.triggered = active;
        let idle = self.idle_activity();
        if !active {
            return idle;
        }
        let pattern = CHIP_PATTERN_11[(ctx.cycle % 11) as usize];
        let envelope = self.envelope(ctx);
        let peak = self.kind.cell_count() as f64 * self.kind.activity_factor();
        idle + peak * pattern * envelope
    }

    /// Trigger logic per the paper's Sec. V "HT Triggering Condition".
    fn update_trigger(&mut self, ctx: &CycleContext) -> bool {
        match self.kind {
            TrojanKind::T1 => {
                // Counter trigger with periodic reactivation; the external
                // en_T1 pin (used in the experiments) forces activation.
                self.counter = (self.counter + 1) & ((1 << T1_COUNTER_BITS) - 1);
                if self.counter == T1_TRIGGER_VALUE {
                    self.active_until = Some(ctx.cycle + T1_ACTIVE_CYCLES);
                }
                let counter_active = self.active_until.is_some_and(|until| ctx.cycle < until);
                counter_active || ctx.external_enable
            }
            TrojanKind::T2 => {
                // Latch the comparator verdict at block load; the en_T2
                // pin (Fig 2) forces activation for experiments.
                if ctx.block_cycle == 0 {
                    self.t2_matched_block = ctx.aes_busy
                        && ctx.plaintext[0] == T2_TRIGGER_PREFIX[0]
                        && ctx.plaintext[1] == T2_TRIGGER_PREFIX[1];
                }
                (self.t2_matched_block && ctx.aes_busy) || ctx.external_enable
            }
            TrojanKind::T3 | TrojanKind::T4 => ctx.external_enable,
        }
    }

    /// Payload envelope ∈ [0, ~1]; the Trojan-specific Fig 5 fingerprint.
    fn envelope(&mut self, ctx: &CycleContext) -> f64 {
        match self.kind {
            TrojanKind::T1 => {
                // AM radio carrier at 750 kHz.
                let t = ctx.cycle as f64 / ctx.clk_hz;
                0.5 * (1.0 + (2.0 * PI * T1_CARRIER_HZ * t).sin())
            }
            TrojanKind::T2 => {
                // Key-schedule burst profile over the 12-cycle block.
                self.t2_key_burst[(ctx.block_cycle as usize).min(11)]
            }
            TrojanKind::T3 => {
                // CDMA chipping: PN bit XOR the leaked key bit selects one
                // of two amplitude levels (a random telegraph envelope).
                if ctx.cycle % T3_CHIP_CYCLES == 0 {
                    self.pn_bit = self.pn.next_bit();
                }
                let bit_index = ((ctx.cycle / 64) % 128) as usize;
                let key_bit = (self.key_bits[bit_index / 8] >> (bit_index % 8)) & 1 == 1;
                if self.pn_bit ^ key_bit {
                    1.0
                } else {
                    0.45
                }
            }
            TrojanKind::T4 => {
                // Constant-on power hog with a slow thermal ramp.
                let first = *self.first_active_cycle.get_or_insert(ctx.cycle);
                let dt = (ctx.cycle - first) as f64 / ctx.clk_hz;
                0.8 + 0.2 * (1.0 - (-dt / T4_THERMAL_TAU_S).exp())
            }
        }
    }

    /// Dormant activity: the trigger logic alone (a counter bit or two,
    /// a comparator glitch) — orders of magnitude below the payload.
    fn idle_activity(&self) -> f64 {
        match self.kind {
            TrojanKind::T1 => 2.1, // ~2 counter bits toggle per cycle on average
            TrojanKind::T2 => 0.6, // comparator input flutter
            TrojanKind::T3 => 0.4,
            TrojanKind::T4 => 0.3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(cycle: u64, enable: bool) -> CycleContext {
        CycleContext {
            cycle,
            clk_hz: 33.0e6,
            plaintext: [0u8; 16],
            block_cycle: (cycle % 12) as u8,
            aes_busy: true,
            external_enable: enable,
        }
    }

    #[test]
    fn chip_pattern_has_strong_5_of_11_harmonic() {
        // |DFT_5| of the pattern must dominate every other non-DC bin.
        let n = 11;
        let mut mags = Vec::new();
        for k in 1..n {
            let mut re = 0.0;
            let mut im = 0.0;
            for (i, &p) in CHIP_PATTERN_11.iter().enumerate() {
                let ph = -2.0 * PI * (k * i) as f64 / n as f64;
                re += p * ph.cos();
                im += p * ph.sin();
            }
            mags.push((k, re.hypot(im)));
        }
        let (best_k, best_mag) = mags
            .iter()
            .cloned()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        // Bins 5 and 6 are conjugate mirrors; either may come out first.
        assert!(best_k == 5 || best_k == 6, "dominant harmonic {best_k}");
        assert!(best_mag > 2.0, "magnitude {best_mag}");
    }

    #[test]
    fn table2_cell_counts() {
        assert_eq!(TrojanKind::T1.cell_count(), 1881);
        assert_eq!(TrojanKind::T2.cell_count(), 2132);
        assert_eq!(TrojanKind::T3.cell_count(), 329);
        assert_eq!(TrojanKind::T4.cell_count(), 2181);
    }

    #[test]
    fn dormant_trojans_are_nearly_silent() {
        let key = [0x42u8; 16];
        for kind in TrojanKind::ALL {
            let mut t = Trojan::new(kind, &key);
            let mut max_activity = 0.0f64;
            for c in 0..10_000 {
                let a = t.step(&ctx(c, false));
                if kind == TrojanKind::T2 || kind == TrojanKind::T3 || kind == TrojanKind::T4 {
                    max_activity = max_activity.max(a);
                }
                let _ = a;
            }
            if kind != TrojanKind::T1 {
                assert!(max_activity < 5.0, "{kind} dormant activity {max_activity}");
                assert!(!t.is_triggered());
            }
        }
    }

    #[test]
    fn external_enable_activates_payloads() {
        let key = [0x42u8; 16];
        for kind in TrojanKind::ALL {
            let mut t = Trojan::new(kind, &key);
            let mut peak = 0.0f64;
            for c in 0..1000 {
                peak = peak.max(t.step(&ctx(c, true)));
            }
            assert!(t.is_triggered(), "{kind} not triggered");
            assert!(
                peak > 0.2 * kind.cell_count() as f64 * kind.activity_factor(),
                "{kind} peak {peak}"
            );
        }
    }

    #[test]
    fn t1_counter_trigger_fires_at_rollover() {
        let key = [0u8; 16];
        let mut t = Trojan::new(TrojanKind::T1, &key);
        // Before the counter reaches 0x1FFFFF nothing happens (without
        // the external enable).
        let mut activated_at = None;
        for c in 0..(T1_TRIGGER_VALUE + 10) {
            t.step(&ctx(c, false));
            if t.is_triggered() && activated_at.is_none() {
                activated_at = Some(c);
            }
        }
        let at = activated_at.expect("T1 must self-trigger");
        assert!(
            (at as i64 - T1_TRIGGER_VALUE as i64).abs() <= 1,
            "fired at {at}"
        );
    }

    #[test]
    fn t1_envelope_oscillates_at_750khz() {
        let key = [0u8; 16];
        let mut t = Trojan::new(TrojanKind::T1, &key);
        // 33 MHz / 750 kHz = 44 cycles per carrier period. Sample the
        // envelope on pattern-high cycles and find its period by peak
        // spacing over several periods.
        let mut acts = Vec::new();
        for c in 0..2000 {
            acts.push(t.step(&ctx(c, true)));
        }
        // Count sign changes of (x - mean) of the per-11-cycle maxima.
        let mut frame_max = Vec::new();
        for chunk in acts.chunks(11) {
            frame_max.push(chunk.iter().cloned().fold(0.0, f64::max));
        }
        let mean = frame_max.iter().sum::<f64>() / frame_max.len() as f64;
        let crossings = frame_max
            .windows(2)
            .filter(|w| (w[0] < mean) != (w[1] < mean))
            .count();
        // 2000 cycles = 45.5 carrier periods → 4 frames per period →
        // crossings ≈ 2 per period ≈ 90; allow wide tolerance.
        assert!((60..130).contains(&crossings), "crossings {crossings}");
    }

    #[test]
    fn t2_triggers_only_on_aaaa_prefix() {
        let key = [0x13u8; 16];
        let mut t = Trojan::new(TrojanKind::T2, &key);
        let mut c = ctx(0, false);
        c.plaintext = [0x11u8; 16];
        c.block_cycle = 0;
        t.step(&c);
        assert!(!t.is_triggered());
        c.plaintext[0] = 0xAA;
        c.plaintext[1] = 0xAA;
        c.cycle = 12;
        c.block_cycle = 0;
        t.step(&c);
        assert!(t.is_triggered());
        // Stays latched through the block.
        c.cycle = 15;
        c.block_cycle = 3;
        c.plaintext = [0u8; 16]; // comparator input changed mid-block
        t.step(&c);
        assert!(t.is_triggered());
    }

    #[test]
    fn t3_envelope_is_two_level() {
        let key = [0xA5u8; 16];
        let mut t = Trojan::new(TrojanKind::T3, &key);
        let mut levels = std::collections::BTreeSet::new();
        for c in 0..5000 {
            let a = t.step(&ctx(c, true));
            let pattern = CHIP_PATTERN_11[(c % 11) as usize];
            if pattern > 0.0 {
                levels.insert((a * 100.0).round() as i64);
            }
        }
        // Idle + two payload levels → at most a handful of distinct
        // quantized values, not a continuum.
        assert!(levels.len() <= 6, "levels {levels:?}");
        assert!(levels.len() >= 2);
    }

    #[test]
    fn t4_ramps_to_steady_state() {
        let key = [0u8; 16];
        let mut t = Trojan::new(TrojanKind::T4, &key);
        let mut first_peak = 0.0f64;
        let mut late_peak = 0.0f64;
        let tau_cycles = (T4_THERMAL_TAU_S * 33.0e6) as u64;
        for c in 0..(5 * tau_cycles) {
            let a = t.step(&ctx(c, true));
            if c < 110 {
                first_peak = first_peak.max(a);
            }
            if c > 4 * tau_cycles {
                late_peak = late_peak.max(a);
            }
        }
        assert!(late_peak > first_peak * 1.15, "{first_peak} -> {late_peak}");
    }

    #[test]
    fn envelopes_are_distinct_between_trojans() {
        // Sample the envelope on pattern-high cycles (where the payload
        // actually switches) and check the peak-normalized sequences
        // differ pairwise — this is the separability Fig 5 relies on.
        let key = [0x3Cu8; 16];
        let mut profiles = Vec::new();
        for kind in TrojanKind::ALL {
            let mut t = Trojan::new(kind, &key);
            let mut seq = Vec::new();
            for c in 0..1100u64 {
                let a = t.step(&ctx(c, true));
                if CHIP_PATTERN_11[(c % 11) as usize] > 0.0 {
                    seq.push(a);
                }
            }
            let peak = seq.iter().cloned().fold(0.0, f64::max).max(1e-12);
            profiles.push(seq.iter().map(|v| v / peak).collect::<Vec<_>>());
        }
        for i in 0..4 {
            for j in i + 1..4 {
                let a = &profiles[i];
                let b = &profiles[j];
                let n = a.len().min(b.len());
                let diff: f64 = a[..n]
                    .iter()
                    .zip(&b[..n])
                    .map(|(x, y)| (x - y).abs())
                    .sum::<f64>()
                    / n as f64;
                assert!(
                    diff > 0.02,
                    "profiles {i} and {j} too similar (diff {diff})"
                );
            }
        }
    }

    #[test]
    fn display_and_index() {
        assert_eq!(TrojanKind::T3.to_string(), "T3");
        assert_eq!(TrojanKind::T4.index(), 3);
        assert_eq!(TrojanKind::ALL.len(), 4);
    }
}
