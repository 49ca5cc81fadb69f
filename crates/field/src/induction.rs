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

/// The flux weight of one source: its coupling `k` (Wb per A·m²)
/// times the loop area (m²) that turns its current into a moment, so
/// the source adds `weight · I` to the sensor's flux.
#[inline]
pub fn flux_weight(coupling: f64, loop_area_m2: f64) -> f64 {
    coupling * loop_area_m2
}

/// The EMF `−dΦ/dt` at an interior sample from the flux of its two
/// neighbours: the central difference `(Φ[i+1] − Φ[i−1])·0.5·fs`,
/// negated.
#[inline]
pub fn emf_central(prev: f64, next: f64, fs_hz: f64) -> f64 {
    -((next - prev) * 0.5 * fs_hz)
}

/// The EMF `−dΦ/dt` at a record's first or last sample from the flux
/// of that sample and its one neighbour: the one-sided difference
/// `(Φ[to] − Φ[from])·fs`, negated. A one-sample record has no
/// neighbour; its EMF is `−0.0`.
#[inline]
pub fn emf_one_sided(from: f64, to: f64, fs_hz: f64) -> f64 {
    -((to - from) * fs_hz)
}

/// Induced EMF from several sources into one sensor.
///
/// `sources` pairs each source's current waveform (amperes, all the same
/// length) with its effective coupling `k` (Wb per A·m²); `loop_area_m2`
/// converts current to moment. The flux `Φ[i] = Σ flux_weight(k)·I[i]`
/// is summed from `0.0` in source order; the EMF is then
/// [`emf_central`] inside the record and [`emf_one_sided`] at its two
/// ends. `flux_scratch` holds the flux and `out` the EMF; both are
/// cleared and refilled, so a caller can run record after record
/// without reallocating.
///
/// # Errors
///
/// Returns [`FieldError::DimensionMismatch`] when waveform lengths
/// differ, or [`FieldError::InvalidParameter`] for an empty source list
/// or a sample rate that is not finite and positive.
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
    if !(fs_hz.is_finite() && fs_hz > 0.0) {
        return Err(FieldError::InvalidParameter {
            what: "sample rate must be finite and positive",
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
    // once (linearity).
    flux_scratch.clear();
    flux_scratch.resize(n, 0.0);
    for (wave, k) in sources {
        let w = flux_weight(*k, loop_area_m2);
        for (f, &i) in flux_scratch.iter_mut().zip(wave.iter()) {
            *f += w * i;
        }
    }
    let f = &flux_scratch[..];
    out.clear();
    match n {
        0 => {}
        1 => out.push(-0.0),
        _ => {
            out.reserve(n);
            out.push(emf_one_sided(f[0], f[1], fs_hz));
            out.extend(f.windows(3).map(|w| emf_central(w[0], w[2], fs_hz)));
            out.push(emf_one_sided(f[n - 2], f[n - 1], fs_hz));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// `dx/dt`: the EMF of `x` as a flux through a unit weight, negated.
    fn derivative(x: &[f64], fs_hz: f64) -> Vec<f64> {
        let emf = induced_emf(&[(x, 1.0)], 1.0, fs_hz).unwrap();
        emf.iter().map(|v| -v).collect()
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
        for fs in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    induced_emf(&[(&a, 1.0)], 1.0, fs),
                    Err(FieldError::InvalidParameter { .. })
                ),
                "fs {fs}"
            );
        }
    }

    /// The EMF as it was computed before the per-sample formulas: the
    /// weighted flux, its derivative, then a negation pass.
    fn historical_emf(sources: &[(&[f64], f64)], area: f64, fs: f64) -> Vec<f64> {
        let n = sources[0].0.len();
        let mut flux = vec![0.0; n];
        for (row, k) in sources {
            let w = k * area;
            for (f, &x) in flux.iter_mut().zip(row.iter()) {
                *f += w * x;
            }
        }
        let mut d = Vec::new();
        if n == 1 {
            d.push(0.0);
        } else if n > 1 {
            d.push((flux[1] - flux[0]) * fs);
            for i in 1..n - 1 {
                d.push((flux[i + 1] - flux[i - 1]) * 0.5 * fs);
            }
            d.push((flux[n - 1] - flux[n - 2]) * fs);
        }
        d.iter().map(|v| -v).collect()
    }

    #[test]
    fn emf_matches_historical_arithmetic_bitwise() {
        for n in [0usize, 1, 2, 3, 64, 1001] {
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin() * 1e-3).collect();
            let b: Vec<f64> = (0..n)
                .map(|i| {
                    if i % 3 == 0 {
                        -0.0
                    } else {
                        (i as f64 * 0.7).cos()
                    }
                })
                .collect();
            let sources: [(&[f64], f64); 2] = [(&a, 1.7e-3), (&b, -0.4e-3)];
            let got = induced_emf(&sources, DEFAULT_LOOP_AREA_M2, 264.0e6).unwrap();
            let want = historical_emf(&sources, DEFAULT_LOOP_AREA_M2, 264.0e6);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "n {n}");
        }
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
