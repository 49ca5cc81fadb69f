//! Real-input FFT via the N/2 complex-packing trick.
//!
//! Every trace the acquisition pipeline transforms is real-valued, yet a
//! complex FFT spends half its butterflies on the (zero) imaginary
//! lanes. This module packs a real record of even length `N` into an
//! `N/2`-point complex signal `z[m] = x[2m] + i·x[2m+1]`, runs one
//! half-length complex FFT, and unpacks the one-sided spectrum
//! `X[0..=N/2]` with an `O(N)` twiddle pass:
//!
//! ```text
//! Xe[k] = (Z[k] + conj(Z[N/2-k])) / 2        (FFT of even samples)
//! Xo[k] = (Z[k] - conj(Z[N/2-k])) / 2i       (FFT of odd samples)
//! X[k]  = Xe[k] + e^{-2πik/N} · Xo[k]
//! ```
//!
//! Cost per record drops from one `N`-point complex FFT to one
//! `N/2`-point FFT plus `O(N)` unpacking — close to a 2× reduction in
//! butterfly work for the 65 536-sample records of the hot path.
//!
//! # Equivalence to the complex path
//!
//! The packed transform evaluates the *same* DFT with a different
//! floating-point operation order, so results agree with
//! [`crate::fft::rfft`] to rounding: per bin within a few ulp of the
//! spectrum's magnitude scale (the sweep tests in this module assert
//! `|X_packed - X_complex| ≤ 1e-12 · max|X|` across sizes and seeds).
//! Outputs are **not** bit-identical to the complex path — callers that
//! need bitwise reproducibility must stay on one path; the spectrum
//! pipeline ([`crate::spectrum::try_amplitude_spectrum`] and
//! [`crate::batch::SpectrumScratch`]) switched to this path as a unit,
//! so batch-vs-oneshot remains bit-identical.

use crate::complex::Complex;
use crate::error::DspError;
use crate::fft;
use std::f64::consts::PI;

/// A precomputed real-input FFT of one fixed power-of-two length.
///
/// Owns the half-length [`FftPlan`](crate::batch::FftPlan) and the
/// unpacking twiddles `e^{-2πik/N}`; [`forward_into`](Self::forward_into)
/// then runs with zero allocations once the caller's buffers are warm.
///
/// # Example
///
/// ```
/// use psa_dsp::rfft::RfftPlan;
/// use psa_dsp::fft;
/// let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.2).sin()).collect();
/// let plan = RfftPlan::new(64)?;
/// let packed = plan.forward(&x)?;           // one-sided, 33 bins
/// let full = fft::rfft(&x)?;                // complex reference path
/// assert_eq!(packed.len(), fft::one_sided_len(64));
/// for (p, f) in packed.iter().zip(&full) {
///     assert!((*p - *f).abs() < 1e-9);
/// }
/// # Ok::<(), psa_dsp::DspError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RfftPlan {
    n: usize,
    /// Half-length complex plan (`None` only for the degenerate `n == 1`).
    half: Option<crate::batch::FftPlan>,
    /// Unpacking twiddles `e^{-2πik/n}` for `k = 0..=n/2`.
    twiddles: Vec<Complex>,
}

impl RfftPlan {
    /// Plans a real-input FFT of length `n`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] unless `n` is a nonzero power
    /// of two.
    pub fn new(n: usize) -> Result<Self, DspError> {
        if !fft::is_power_of_two(n) {
            return Err(DspError::InvalidLength {
                what: "rfft plan size (must be a power of two)",
                got: n,
            });
        }
        if n == 1 {
            return Ok(RfftPlan {
                n,
                half: None,
                twiddles: Vec::new(),
            });
        }
        let h = n / 2;
        let step = -2.0 * PI / n as f64;
        Ok(RfftPlan {
            n,
            half: Some(crate::batch::FftPlan::new(h)?),
            twiddles: (0..=h).map(|k| Complex::cis(step * k as f64)).collect(),
        })
    }

    /// The planned (real) input length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`: [`RfftPlan::new`] rejects length 0.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// One-sided forward transform into caller-owned buffers.
    ///
    /// `packed` holds the half-length packed signal (scratch, cleared and
    /// refilled) and `out` receives the `n/2 + 1` one-sided bins; a hot
    /// loop reusing both buffers performs no allocations after the first
    /// call.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] when `input.len()` differs
    /// from the planned length.
    pub fn forward_into(
        &self,
        input: &[f64],
        packed: &mut Vec<Complex>,
        out: &mut Vec<Complex>,
    ) -> Result<(), DspError> {
        if input.len() != self.n {
            return Err(DspError::InvalidLength {
                what: "rfft plan input (length must match the plan)",
                got: input.len(),
            });
        }
        out.clear();
        let Some(half_plan) = &self.half else {
            // n == 1: the DFT of one sample is itself.
            out.push(Complex::new(input[0], 0.0));
            return Ok(());
        };
        let h = self.n / 2;

        // Pack x[2m] + i·x[2m+1] and run the half-length complex FFT.
        packed.clear();
        packed.extend(input.chunks_exact(2).map(|p| Complex::new(p[0], p[1])));
        half_plan.forward(packed)?;

        // Unpack: even/odd split via conjugate symmetry, then the twiddle
        // rotation recombines them into the one-sided spectrum.
        out.reserve(h + 1);
        let z0 = packed[0];
        out.push(Complex::new(z0.re + z0.im, 0.0)); // DC
        for k in 1..h {
            let zk = packed[k];
            let zc = packed[h - k].conj();
            let xe = Complex::new((zk.re + zc.re) * 0.5, (zk.im + zc.im) * 0.5);
            let d = zk - zc;
            // Xo = d / 2i = (d · -i) / 2.
            let xo = Complex::new(d.im * 0.5, -d.re * 0.5);
            out.push(xe + self.twiddles[k] * xo);
        }
        out.push(Complex::new(z0.re - z0.im, 0.0)); // Nyquist
        Ok(())
    }

    /// One-sided forward transform, allocating fresh buffers.
    ///
    /// # Errors
    ///
    /// Same as [`forward_into`](Self::forward_into).
    pub fn forward(&self, input: &[f64]) -> Result<Vec<Complex>, DspError> {
        let mut packed = Vec::new();
        let mut out = Vec::new();
        self.forward_into(input, &mut packed, &mut out)?;
        Ok(out)
    }
}

/// One-sided spectrum (`n/2 + 1` bins) of a real signal of any length.
///
/// Power-of-two lengths take the packed half-length path; other lengths
/// fall back to the full complex transform (Bluestein for non powers of
/// two) truncated to one side. This is the kernel behind
/// [`crate::spectrum::try_amplitude_spectrum`].
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] when `input` is empty.
pub fn rfft_one_sided(input: &[f64]) -> Result<Vec<Complex>, DspError> {
    if input.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let n = input.len();
    if fft::is_power_of_two(n) {
        RfftPlan::new(n)?.forward(input)
    } else {
        let mut full = fft::rfft(input)?;
        full.truncate(fft::one_sided_len(n));
        Ok(full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random signal for a given seed.
    fn noise(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    fn max_mag(spec: &[Complex]) -> f64 {
        spec.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    #[test]
    fn packed_matches_complex_path_across_sizes_and_seeds() {
        // The tentpole equivalence sweep: packed rfft vs the complex
        // reference across power-of-two sizes and several seeds, bounded
        // at 1e-12 of the spectrum scale (a few ulp).
        for n in [2usize, 4, 8, 64, 256, 1024, 4096, 65536] {
            for seed in [1u64, 7, 42] {
                let x = noise(n, seed.wrapping_add(n as u64));
                let packed = rfft_one_sided(&x).unwrap();
                let full = fft::rfft(&x).unwrap();
                assert_eq!(packed.len(), fft::one_sided_len(n));
                let scale = max_mag(&full).max(1.0);
                for (k, (p, f)) in packed.iter().zip(&full).enumerate() {
                    let err = (*p - *f).abs();
                    assert!(
                        err <= 1e-12 * scale,
                        "n={n} seed={seed} bin {k}: |Δ|={err:e} scale={scale:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_and_odd_lengths() {
        // n == 1: identity.
        let one = rfft_one_sided(&[3.25]).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0], Complex::new(3.25, 0.0));
        // n == 2: sum and difference.
        let two = rfft_one_sided(&[1.5, -0.5]).unwrap();
        assert_eq!(two.len(), 2);
        assert!((two[0].re - 1.0).abs() < 1e-15 && two[0].im == 0.0);
        assert!((two[1].re - 2.0).abs() < 1e-15 && two[1].im == 0.0);
        // Odd lengths go through the Bluestein fallback.
        let x = noise(255, 9);
        let spec = rfft_one_sided(&x).unwrap();
        let full = fft::rfft(&x).unwrap();
        assert_eq!(spec.len(), 128);
        let scale = max_mag(&full).max(1.0);
        for (p, f) in spec.iter().zip(&full) {
            assert!((*p - *f).abs() <= 1e-9 * scale);
        }
        // Empty input is rejected.
        assert!(matches!(rfft_one_sided(&[]), Err(DspError::EmptyInput)));
    }

    #[test]
    fn tone_amplitude_and_bin_are_exact() {
        let n = 256;
        let fs = 1000.0;
        let f0 = 125.0; // exactly bin 32
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * f0 * i as f64 / fs).cos())
            .collect();
        let spec = rfft_one_sided(&x).unwrap();
        let bin = fft::freq_bin(f0, n, fs);
        assert!((spec[bin].abs() - n as f64 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn plan_validates_lengths_and_reports_shape() {
        assert!(RfftPlan::new(0).is_err());
        assert!(RfftPlan::new(12).is_err());
        let plan = RfftPlan::new(16).unwrap();
        assert_eq!(plan.len(), 16);
        assert!(!plan.is_empty());
        assert!(plan.forward(&[0.0; 8]).is_err());
    }

    #[test]
    fn forward_into_reuses_buffers_and_matches_forward() {
        let plan = RfftPlan::new(128).unwrap();
        let x = noise(128, 3);
        let y = noise(128, 4);
        let mut packed = Vec::new();
        let mut out = Vec::new();
        plan.forward_into(&x, &mut packed, &mut out).unwrap();
        let fresh_x = plan.forward(&x).unwrap();
        assert_eq!(out, fresh_x);
        // Stale buffer contents must not leak into a second transform.
        plan.forward_into(&y, &mut packed, &mut out).unwrap();
        let fresh_y = plan.forward(&y).unwrap();
        assert_eq!(out, fresh_y);
    }

    #[test]
    fn parseval_energy_conserved_one_sided() {
        let x = noise(512, 11);
        let spec = rfft_one_sided(&x).unwrap();
        let n = x.len();
        let time_energy: f64 = x.iter().map(|v| v * v).sum();
        // One-sided Parseval: interior bins count twice (conjugate pair).
        let mut freq_energy = spec[0].norm_sqr() + spec[n / 2].norm_sqr();
        for z in &spec[1..n / 2] {
            freq_energy += 2.0 * z.norm_sqr();
        }
        freq_energy /= n as f64;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-10);
    }
}
