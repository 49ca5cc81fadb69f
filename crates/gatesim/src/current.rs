//! Toggle counts → supply-current waveforms.
//!
//! Each gate-output toggle draws a charge packet `q_sw` from the supply
//! in a sub-nanosecond pulse at the clock edge. At the EM simulation
//! rate (8 samples per 33 MHz cycle = 264 MS/s) a cycle's total toggle
//! charge appears as a short triangular pulse at the start of the cycle.
//! The pulse shape conserves charge exactly: `∫ i dt = toggles · q_sw`.

use crate::activity::ActivityTrace;

/// Samples per clock cycle in the current/EM simulation.
pub const SAMPLES_PER_CYCLE: usize = 8;

/// Normalized per-cycle pulse shape (sums to 1): a fast rise and
/// two-sample decay right after the clock edge, then quiet until the next
/// edge. Index = sample within the cycle.
pub const PULSE_SHAPE: [f64; SAMPLES_PER_CYCLE] = [0.50, 0.30, 0.15, 0.05, 0.0, 0.0, 0.0, 0.0];

/// Converts one source's per-cycle toggle counts into a current waveform
/// in amperes, written into a caller-owned buffer (resized to the output
/// length) so per-record synthesis in the acquisition hot path reuses
/// allocations.
///
/// `charge_per_toggle_fc` is the mean switching charge (femtocoulombs)
/// of the source's cell mix; `clk_hz` sets the sample interval.
///
/// Each cycle writes one [`SAMPLES_PER_CYCLE`] chunk. A cycle whose
/// toggle count has the same bits as the previous cycle's copies that
/// cycle's pulse: the same IEEE operations on the same operands give
/// the same bits, and most sources repeat their count cycle after
/// cycle.
///
/// # Example
///
/// ```
/// use psa_gatesim::current::{toggles_to_current_into, SAMPLES_PER_CYCLE};
/// let mut i = Vec::new();
/// toggles_to_current_into(&[100.0, 0.0], 2.0, 33.0e6, &mut i);
/// assert_eq!(i.len(), 2 * SAMPLES_PER_CYCLE);
/// // Total charge = 100 toggles × 2 fC = 200 fC.
/// let dt = 1.0 / (33.0e6 * SAMPLES_PER_CYCLE as f64);
/// let q: f64 = i.iter().map(|a| a * dt).sum();
/// assert!((q - 200.0e-15).abs() < 1e-18);
/// ```
pub fn toggles_to_current_into(
    toggles_per_cycle: &[f64],
    charge_per_toggle_fc: f64,
    clk_hz: f64,
    out: &mut Vec<f64>,
) {
    let dt = 1.0 / (clk_hz * SAMPLES_PER_CYCLE as f64);
    let q_scale = charge_per_toggle_fc * 1.0e-15; // fC → C
    out.resize(toggles_per_cycle.len() * SAMPLES_PER_CYCLE, 0.0);
    let mut memo: Option<(u64, [f64; SAMPLES_PER_CYCLE])> = None;
    for (chunk, &toggles) in out
        .chunks_exact_mut(SAMPLES_PER_CYCLE)
        .zip(toggles_per_cycle)
    {
        let key = toggles.to_bits();
        let pulse = match memo {
            Some((bits, pulse)) if bits == key => pulse,
            _ => {
                let q_total = toggles * q_scale;
                let pulse = PULSE_SHAPE.map(|shape| q_total * shape / dt);
                memo = Some((key, pulse));
                pulse
            }
        };
        chunk.copy_from_slice(&pulse);
    }
}

/// Current waveforms for every source of an [`ActivityTrace`], in the
/// trace's deterministic source order, with per-source charge taken from
/// `charges_fc` (same order as [`Source::ALL`](crate::activity::Source::ALL)),
/// written into a caller-owned buffer: the outer vector and every
/// per-source waveform allocation are reused across records.
///
/// Sources missing from `charges_fc` default to 2.5 fC per toggle.
pub fn trace_to_currents_into(
    trace: &ActivityTrace,
    charges_fc: &[(crate::activity::Source, f64)],
    clk_hz: f64,
    out: &mut Vec<(crate::activity::Source, Vec<f64>)>,
) {
    out.truncate(trace.per_source.len());
    while out.len() < trace.per_source.len() {
        out.push((crate::activity::Source::ALL[0], Vec::new()));
    }
    for (slot, (&source, toggles)) in out.iter_mut().zip(trace.per_source.iter()) {
        let q = charges_fc
            .iter()
            .find(|(s, _)| *s == source)
            .map_or(2.5, |(_, q)| *q);
        slot.0 = source;
        toggles_to_current_into(toggles, q, clk_hz, &mut slot.1);
    }
}

/// Sample rate of the synthesized currents for a given clock.
pub fn sample_rate_hz(clk_hz: f64) -> f64 {
    clk_hz * SAMPLES_PER_CYCLE as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{ActivitySimulator, ChipConfig, Source};

    fn current(toggles: &[f64], q_fc: f64, clk_hz: f64) -> Vec<f64> {
        let mut out = Vec::new();
        toggles_to_current_into(toggles, q_fc, clk_hz, &mut out);
        out
    }

    #[test]
    fn charge_is_conserved() {
        let toggles = vec![50.0, 125.0, 0.0, 3.0];
        let q_fc = 3.1;
        let clk = 33.0e6;
        let i = current(&toggles, q_fc, clk);
        let dt = 1.0 / sample_rate_hz(clk);
        let q: f64 = i.iter().map(|a| a * dt).sum();
        let expected = toggles.iter().sum::<f64>() * q_fc * 1.0e-15;
        assert!((q - expected).abs() < 1e-20 + 1e-12 * expected);
    }

    #[test]
    fn pulse_shape_sums_to_one() {
        let s: f64 = PULSE_SHAPE.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pulse_is_at_cycle_start() {
        let i = current(&[1.0], 1.0, 33.0e6);
        assert!(i[0] > 0.0);
        assert_eq!(i[SAMPLES_PER_CYCLE - 1], 0.0);
        assert!(i[0] > i[1]);
    }

    #[test]
    fn output_length_scales() {
        let i = current(&[1.0; 100], 1.0, 33.0e6);
        assert_eq!(i.len(), 100 * SAMPLES_PER_CYCLE);
    }

    #[test]
    fn magnitude_order_is_realistic() {
        // ~3000 toggles × 2.5 fC in ~1 ns ⇒ milliamp-scale peaks.
        let i = current(&[3000.0], 2.5, 33.0e6);
        let peak = i.iter().cloned().fold(0.0, f64::max);
        assert!(peak > 1e-4 && peak < 1e-1, "peak {peak} A");
    }

    #[test]
    fn trace_to_currents_covers_all_sources() {
        let mut sim = ActivitySimulator::new(ChipConfig::default());
        let trace = sim.advance(50);
        let mut currents = Vec::new();
        trace_to_currents_into(&trace, &[(Source::AesCore, 3.9)], 33.0e6, &mut currents);
        assert_eq!(currents.len(), Source::ALL.len());
        for (_, i) in &currents {
            assert_eq!(i.len(), 50 * SAMPLES_PER_CYCLE);
        }
        // Charge conservation through the whole path for one source.
        let aes_toggles: f64 = trace.per_source[&Source::AesCore].iter().sum();
        let aes_i = &currents
            .iter()
            .find(|(s, _)| *s == Source::AesCore)
            .unwrap()
            .1;
        let dt = 1.0 / sample_rate_hz(33.0e6);
        let q: f64 = aes_i.iter().map(|a| a * dt).sum();
        assert!((q - aes_toggles * 3.9e-15).abs() < 1e-12 * q.abs().max(1e-20));
    }

    #[test]
    fn spectrum_has_clock_harmonics() {
        // The pulse train at the clock rate must put most of its energy
        // at multiples of f_clk: check the 33 MHz component dominates a
        // non-harmonic probe frequency via a Goertzel-style projection.
        let mut sim = ActivitySimulator::new(ChipConfig {
            aes_mode: crate::activity::AesMode::Idle,
            ..ChipConfig::default()
        });
        let trace = sim.advance(4096);
        let i = current(&trace.per_source[&Source::AesCore], 2.5, 33.0e6);
        let fs = sample_rate_hz(33.0e6);
        let project = |f: f64| {
            let mut re = 0.0;
            let mut im = 0.0;
            for (n, &x) in i.iter().enumerate() {
                let ph = 2.0 * std::f64::consts::PI * f * n as f64 / fs;
                re += x * ph.cos();
                im += x * ph.sin();
            }
            re.hypot(im)
        };
        let clock = project(33.0e6);
        let off = project(19.7e6);
        assert!(clock > 100.0 * off, "clock {clock} vs off-harmonic {off}");
    }

    /// The push-and-divide synthesis the memoized one replaced.
    fn naive_current(toggles: &[f64], q_fc: f64, clk_hz: f64) -> Vec<f64> {
        let dt = 1.0 / (clk_hz * SAMPLES_PER_CYCLE as f64);
        let q_scale = q_fc * 1.0e-15;
        let mut out = Vec::new();
        for &t in toggles {
            let q_total = t * q_scale;
            for &shape in PULSE_SHAPE.iter() {
                out.push(q_total * shape / dt);
            }
        }
        out
    }

    #[test]
    fn memoized_pulses_match_naive_synthesis_bitwise() {
        let inputs: [&[f64]; 6] = [
            &[954.0; 64],
            &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 2.0, 2.0, 1.0],
            &[0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 5.0, 5.0, -0.0],
            &[
                f64::NAN,
                f64::NAN,
                3.0,
                f64::NAN,
                f64::INFINITY,
                f64::INFINITY,
            ],
            &[
                -f64::NAN,
                f64::NAN,
                -f64::NAN,
                1e-300,
                1e-300,
                f64::MIN_POSITIVE,
            ],
            &[],
        ];
        // One reused buffer: it shrinks, grows and keeps stale values.
        let mut out = vec![7.0; 1000];
        for toggles in inputs {
            for (q_fc, clk) in [(2.5, 33.0e6), (-3.9, 17.0e6), (0.0, 1.0)] {
                toggles_to_current_into(toggles, q_fc, clk, &mut out);
                let want = naive_current(toggles, q_fc, clk);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(&want), "{toggles:?} at {q_fc} fC");
            }
        }
        // ±0.0 are distinct keys: a negative charge makes −0.0 and +0.0
        // pulses differ in sign.
        toggles_to_current_into(&[0.0, -0.0], -1.0, 33.0e6, &mut out);
        assert!(out[0].is_sign_negative() && out[SAMPLES_PER_CYCLE].is_sign_positive());
    }
}
