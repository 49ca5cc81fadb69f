//! Calibration constants of the simulation substrate.
//!
//! The physics chain (toggles → current → dipole moment → flux → EMF)
//! contains quantities the paper's authors never had to publish: the
//! effective current-loop area of the power-delivery network and the
//! true sub-nanosecond sharpness of switching edges. They are collapsed
//! into the few constants below, set **once** so that the absolute SNR
//! figures of Sec. VI-B land near the paper's values; every *relative*
//! result (method ranking, localization contrast, sideband structure,
//! trace counts) then follows from the modelled physics without
//! per-experiment tuning. See DESIGN.md "Hardware substitutions".

/// Effective dipole-moment area per unit switching current, m².
///
/// Product of (a) the geometric current-return loop area of the
/// power-delivery network (mm²-scale for die-spanning supply loops) and
/// (b) a di/dt sharpness correction (~100×) for real sub-100 ps
/// switching edges that the 264 MS/s simulation cannot resolve.
/// Calibrated once so the chip's EMF dominates the instrument noise the
/// way the silicon measurements do; with this value the sensor-10 EMF
/// is ~30 mV RMS while encrypting and ~0.3 mV idle, reproducing the
/// ~41 dB Eq. (1) SNR of Sec. VI-B.
pub const EFFECTIVE_MOMENT_AREA_M2: f64 = 1.3e-4;

/// EM-source clustering tile, µm. Smaller tiles increase spatial
/// fidelity and coupling-matrix cost.
pub const CLUSTER_TILE_UM: f64 = 64.0;

/// Placement seed used for the reference chip build (any fixed value;
/// results are insensitive to it).
pub const PLACEMENT_SEED: u64 = 0xD47E_2024;

/// Simulation record length in clock cycles per acquired trace:
/// 8192 cycles × 8 samples = 65 536 samples per record (~248 µs at
/// 264 MS/s), a power of two for the FFT. The resulting ~4 kHz
/// resolution bandwidth is what lets the coherent sidebands of *small*
/// Trojans (T3, 1.14 % of cells) rise above the AES core's
/// data-dependent noise floor — the same role the bench analyzer's RBW
/// plays in the silicon measurement.
pub const RECORD_CYCLES: usize = 8192;

/// Traces averaged per displayed spectrum, as in the paper ("we averaged
/// five collected traces").
pub const TRACES_PER_SPECTRUM: usize = 5;

/// Emergent-component threshold for the golden-model-free comparison,
/// dB over the learned same-chip baseline.
pub const DETECTION_THRESHOLD_DB: f64 = 10.0;

/// Half-width, in bins, of the local-max envelope taken over a learned
/// baseline spectrum before the detection threshold compares against
/// it, so per-bin noise flicker between the learning and test windows
/// cannot false-alarm.
pub const ENVELOPE_HALF_WINDOW: usize = 8;

/// Zero-span resolution bandwidth for the identification stage, Hz.
/// Narrow enough to reject the 51 MHz member of the sideband family
/// (3 MHz away) and the AES block-rate lines (±1.25 MHz), wide enough to
/// pass T1's 750 kHz AM envelope.
pub const IDENTIFY_RBW_HZ: f64 = 0.95e6;

/// Records concatenated into one zero-span identification envelope.
pub const IDENTIFY_RECORDS: usize = 6;

/// The paper's clock frequency, Hz.
pub const CLK_HZ: f64 = 33.0e6;

/// Samples per clock cycle in the EM simulation (fixed by
/// `psa-gatesim::current`).
pub const SAMPLES_PER_CYCLE: usize = psa_gatesim::current::SAMPLES_PER_CYCLE;

/// Simulation sample rate, Hz (264 MS/s; Nyquist 132 MHz > the 120 MHz
/// displayed span).
pub fn sample_rate_hz() -> f64 {
    psa_gatesim::current::sample_rate_hz(CLK_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_rate_covers_displayed_span() {
        assert!(sample_rate_hz() / 2.0 > 120.0e6);
        assert_eq!(sample_rate_hz(), 264.0e6);
    }

    #[test]
    fn record_length_is_fft_friendly() {
        let samples = RECORD_CYCLES * SAMPLES_PER_CYCLE;
        assert_eq!(samples, 65_536);
        assert!(samples.is_power_of_two());
        // RBW fine enough for small-Trojan lines (< 10 kHz).
        let rbw = sample_rate_hz() / samples as f64;
        assert!(rbw < 10.0e3, "rbw {rbw}");
    }

    #[test]
    // The point of this test is exactly to assert on the calibration
    // constants' values, so the lint does not apply.
    #[allow(clippy::assertions_on_constants)]
    fn constants_are_positive() {
        assert!(EFFECTIVE_MOMENT_AREA_M2 > 0.0);
        assert!(CLUSTER_TILE_UM > 1.0);
        assert!(DETECTION_THRESHOLD_DB > 0.0);
        assert_eq!(TRACES_PER_SPECTRUM, 5);
    }
}
