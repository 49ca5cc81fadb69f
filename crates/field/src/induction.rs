//! Faraday induction: currents → induced sensor voltage.
//!
//! The PSA senses `v(t) = −dΦ/dt = −Σ_s k_s · dm_s/dt`, where `k_s` is a
//! source's effective coupling (flux per unit moment) and
//! `m_s(t) = I_s(t)·A_loop` its moment waveform. The derivative is taken
//! with a central difference at the simulation rate.

use crate::error::FieldError;

/// Effective current-loop area of one switching cell cluster, m²:
/// the cell's current circulates through the local power grid, enclosing
/// on the order of a few µm² (calibrated constant, see
/// `psa-core::calib`).
pub const DEFAULT_LOOP_AREA_M2: f64 = 3.0e-12;

/// Central-difference derivative of a series sampled at `fs_hz`, into a
/// caller-owned buffer (cleared first) so hot loops can reuse the
/// allocation across records. Endpoints use one-sided differences; the
/// output length equals the input's.
pub fn derivative_into(x: &[f64], fs_hz: f64, out: &mut Vec<f64>) {
    out.clear();
    let n = x.len();
    if n == 0 {
        return;
    }
    if n == 1 {
        out.push(0.0);
        return;
    }
    out.reserve(n);
    out.push((x[1] - x[0]) * fs_hz);
    for i in 1..n - 1 {
        out.push((x[i + 1] - x[i - 1]) * 0.5 * fs_hz);
    }
    out.push((x[n - 1] - x[n - 2]) * fs_hz);
}

/// Induced EMF from several sources into one sensor.
///
/// `sources` pairs each source's current waveform (amperes, all the same
/// length) with its effective coupling `k` (Wb per A·m²); `loop_area_m2`
/// converts current to moment. `flux_scratch` holds the superposed flux
/// waveform and `out` the EMF; both are cleared and refilled, so a
/// per-worker acquisition context can run record after record without
/// reallocating.
///
/// # Errors
///
/// Returns [`FieldError::DimensionMismatch`] when waveform lengths
/// differ, or [`FieldError::InvalidParameter`] for an empty source list
/// or non-positive sample rate.
pub fn induced_emf_into(
    sources: &[(&[f64], f64)],
    loop_area_m2: f64,
    fs_hz: f64,
    flux_scratch: &mut Vec<f64>,
    out: &mut Vec<f64>,
) -> Result<(), FieldError> {
    if sources.is_empty() {
        return Err(FieldError::InvalidParameter {
            what: "source list must be non-empty",
        });
    }
    if fs_hz <= 0.0 {
        return Err(FieldError::InvalidParameter {
            what: "sample rate must be positive",
        });
    }
    let n = sources[0].0.len();
    for (wave, _) in sources {
        if wave.len() != n {
            return Err(FieldError::DimensionMismatch {
                expected: n,
                got: wave.len(),
            });
        }
    }
    // Superpose moments weighted by coupling first, then differentiate
    // once (linearity). The coupling-row × waveform batch kernel keeps
    // the historical accumulation order, so results stay bit-identical.
    flux_scratch.clear();
    flux_scratch.resize(n, 0.0);
    psa_dsp::batch::weighted_row_sum_into(sources, loop_area_m2, flux_scratch).map_err(|_| {
        FieldError::DimensionMismatch {
            expected: n,
            got: 0,
        }
    })?;
    derivative_into(flux_scratch, fs_hz, out);
    for vi in out.iter_mut() {
        *vi = -*vi;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn derivative(x: &[f64], fs_hz: f64) -> Vec<f64> {
        let mut out = Vec::new();
        derivative_into(x, fs_hz, &mut out);
        out
    }

    /// [`induced_emf_into`] with fresh buffers.
    fn induced_emf(
        sources: &[(&[f64], f64)],
        loop_area_m2: f64,
        fs_hz: f64,
    ) -> Result<Vec<f64>, FieldError> {
        let (mut flux, mut out) = (Vec::new(), Vec::new());
        induced_emf_into(sources, loop_area_m2, fs_hz, &mut flux, &mut out)?;
        Ok(out)
    }

    #[test]
    fn derivative_of_ramp_is_constant() {
        let fs = 100.0;
        let x: Vec<f64> = (0..50).map(|i| 3.0 * i as f64 / fs).collect();
        let d = derivative(&x, fs);
        for &v in &d {
            assert!((v - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn derivative_of_sine_is_cosine() {
        let fs = 10_000.0;
        let f0 = 50.0;
        let x: Vec<f64> = (0..2000)
            .map(|i| (2.0 * PI * f0 * i as f64 / fs).sin())
            .collect();
        let d = derivative(&x, fs);
        for (i, &di) in d.iter().enumerate().take(1990).skip(10) {
            let expected = 2.0 * PI * f0 * (2.0 * PI * f0 * i as f64 / fs).cos();
            assert!((di - expected).abs() < 0.01 * 2.0 * PI * f0, "sample {i}");
        }
    }

    #[test]
    fn derivative_degenerate_lengths() {
        assert!(derivative(&[], 1.0).is_empty());
        assert_eq!(derivative(&[5.0], 1.0), vec![0.0]);
    }

    #[test]
    fn emf_sign_and_scaling() {
        // Rising current through positive coupling → negative EMF (Lenz).
        let i: Vec<f64> = (0..100).map(|n| n as f64 * 1e-3).collect();
        let k = 2.0e-3;
        let v = induced_emf(&[(&i, k)], DEFAULT_LOOP_AREA_M2, 1.0e6).unwrap();
        assert!(v.iter().all(|&x| x < 0.0));
        // Doubling the coupling doubles the EMF.
        let v2 = induced_emf(&[(&i, 2.0 * k)], DEFAULT_LOOP_AREA_M2, 1.0e6).unwrap();
        for (a, b) in v.iter().zip(&v2) {
            assert!((b / a - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn superposition() {
        let a: Vec<f64> = (0..64).map(|n| (n as f64 * 0.3).sin()).collect();
        let b: Vec<f64> = (0..64).map(|n| (n as f64 * 0.7).cos()).collect();
        let fs = 1.0e6;
        let va = induced_emf(&[(&a, 1.0)], 1.0, fs).unwrap();
        let vb = induced_emf(&[(&b, 0.5)], 1.0, fs).unwrap();
        let vab = induced_emf(&[(&a, 1.0), (&b, 0.5)], 1.0, fs).unwrap();
        for i in 0..64 {
            assert!((vab[i] - (va[i] + vb[i])).abs() < 1e-9 * (1.0 + vab[i].abs()));
        }
    }

    #[test]
    fn into_variant_reuses_buffers_and_matches() {
        let a: Vec<f64> = (0..128).map(|n| (n as f64 * 0.3).sin()).collect();
        let b: Vec<f64> = (0..128).map(|n| (n as f64 * 0.7).cos()).collect();
        let mut flux = vec![9.9; 5]; // stale contents must not leak through
        let mut out = vec![7.7; 999];
        induced_emf_into(
            &[(&a, 1.0e-3), (&b, 0.5e-3)],
            DEFAULT_LOOP_AREA_M2,
            1.0e6,
            &mut flux,
            &mut out,
        )
        .unwrap();
        let fresh =
            induced_emf(&[(&a, 1.0e-3), (&b, 0.5e-3)], DEFAULT_LOOP_AREA_M2, 1.0e6).unwrap();
        assert_eq!(out, fresh);
    }

    #[test]
    fn validates_inputs() {
        assert!(induced_emf(&[], 1.0, 1.0).is_err());
        let a = vec![0.0; 4];
        let b = vec![0.0; 5];
        assert!(induced_emf(&[(&a, 1.0), (&b, 1.0)], 1.0, 1.0).is_err());
        assert!(induced_emf(&[(&a, 1.0)], 1.0, 0.0).is_err());
    }

    #[test]
    fn realistic_magnitude() {
        // A 33 MHz pulse train of ~3 mA peaks with coupling ~1e-3 /m and
        // loop area 3e-12 m² gives µV-scale EMF before amplification.
        let fs = 264.0e6;
        let mut i = vec![0.0; 1024];
        for c in (0..1024).step_by(8) {
            i[c] = 3.0e-3;
            if c + 1 < 1024 {
                i[c + 1] = 1.5e-3;
            }
        }
        let v = induced_emf(&[(&i, 1.0e-3)], DEFAULT_LOOP_AREA_M2, fs).unwrap();
        let peak = v.iter().map(|x| x.abs()).fold(0.0, f64::max);
        assert!(peak > 1e-9 && peak < 1e-2, "peak {peak} V");
    }
}
