//! Fast Fourier transforms.
//!
//! An iterative radix-2 Cooley–Tukey FFT for power-of-two lengths, extended
//! to arbitrary lengths with Bluestein's chirp-z algorithm. Also provides
//! real-input conveniences used by the spectrum module.
//!
//! Conventions: the forward transform is `X[k] = Σ x[n]·e^{-2πi kn/N}`
//! (no normalization); the inverse divides by `N`, so
//! `ifft(fft(x)) == x`.

use crate::complex::Complex;
use crate::error::DspError;
use std::f64::consts::PI;

/// Returns `true` if `n` is a power of two (and nonzero).
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Next power of two `>= n` (with `next_pow2(0) == 1`).
#[inline]
pub fn next_pow2(n: usize) -> usize {
    n.next_power_of_two()
}

/// In-place forward FFT for power-of-two lengths.
///
/// # Errors
///
/// Returns [`DspError::InvalidLength`] if `data.len()` is not a power of two
/// or is zero.
///
/// # Example
///
/// ```
/// use psa_dsp::{fft, Complex};
/// let mut x = vec![Complex::ONE; 4];
/// fft::fft(&mut x)?;
/// assert!((x[0].re - 4.0).abs() < 1e-12); // DC bin collects everything
/// assert!(x[1].abs() < 1e-12);
/// # Ok::<(), psa_dsp::DspError>(())
/// ```
pub fn fft(data: &mut [Complex]) -> Result<(), DspError> {
    transform_pow2(data, false)
}

/// In-place inverse FFT for power-of-two lengths (normalized by `1/N`).
///
/// # Errors
///
/// Returns [`DspError::InvalidLength`] if `data.len()` is not a power of two
/// or is zero.
pub fn ifft(data: &mut [Complex]) -> Result<(), DspError> {
    transform_pow2(data, true)?;
    let n = data.len() as f64;
    for z in data.iter_mut() {
        *z = *z / n;
    }
    Ok(())
}

fn transform_pow2(data: &mut [Complex], inverse: bool) -> Result<(), DspError> {
    let n = data.len();
    if !is_power_of_two(n) {
        return Err(DspError::InvalidLength {
            what: "fft size (must be a power of two)",
            got: n,
        });
    }
    if n == 1 {
        return Ok(());
    }

    // Bit-reversal permutation.
    let levels = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - levels)) & (n - 1);
        if j > i {
            data.swap(i, j);
        }
    }

    // Iterative butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut size = 2;
    while size <= n {
        let half = size / 2;
        let step = sign * 2.0 * PI / size as f64;
        // Precompute the twiddles for this stage once.
        let twiddles: Vec<Complex> = (0..half).map(|k| Complex::cis(step * k as f64)).collect();
        for start in (0..n).step_by(size) {
            for k in 0..half {
                let even = data[start + k];
                let odd = data[start + k + half] * twiddles[k];
                data[start + k] = even + odd;
                data[start + k + half] = even - odd;
            }
        }
        size *= 2;
    }
    Ok(())
}

/// Forward FFT of arbitrary length, out of place.
///
/// Power-of-two lengths use the radix-2 kernel directly; other lengths use
/// Bluestein's chirp-z transform (exact to floating-point rounding).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] when `input` is empty.
pub fn fft_any(input: &[Complex]) -> Result<Vec<Complex>, DspError> {
    if input.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let n = input.len();
    if is_power_of_two(n) {
        let mut buf = input.to_vec();
        fft(&mut buf)?;
        return Ok(buf);
    }
    bluestein(input, false)
}

/// Bluestein chirp-z transform: expresses an N-point DFT as a convolution,
/// evaluated with a power-of-two FFT of length >= 2N-1.
fn bluestein(input: &[Complex], inverse: bool) -> Result<Vec<Complex>, DspError> {
    let n = input.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    // Forward chirp is e^{-iπk²/n} (from nk = (n²+k²-(k-n)²)/2); inverse
    // conjugates it. Use k² mod 2n to keep angles small and exact.
    let chirp: Vec<Complex> = (0..n)
        .map(|k| {
            let k2 = (k as u128 * k as u128) % (2 * n as u128);
            Complex::cis(sign * PI * k2 as f64 / n as f64)
        })
        .collect();

    let m = next_pow2(2 * n - 1);
    let mut a = vec![Complex::ZERO; m];
    let mut b = vec![Complex::ZERO; m];
    for k in 0..n {
        a[k] = input[k] * chirp[k];
        b[k] = chirp[k].conj();
    }
    for k in 1..n {
        b[m - k] = chirp[k].conj();
    }
    fft(&mut a)?;
    fft(&mut b)?;
    for k in 0..m {
        a[k] *= b[k];
    }
    ifft(&mut a)?;
    Ok((0..n).map(|k| a[k] * chirp[k]).collect())
}

/// FFT of a real signal; returns the full complex spectrum of length
/// `input.len()`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] when `input` is empty.
pub fn rfft(input: &[f64]) -> Result<Vec<Complex>, DspError> {
    let buf: Vec<Complex> = input.iter().map(|&x| Complex::new(x, 0.0)).collect();
    fft_any(&buf)
}

/// One-sided spectrum length for a real FFT of length `n`: `n/2 + 1`.
#[inline]
pub fn one_sided_len(n: usize) -> usize {
    n / 2 + 1
}

/// Frequency in hertz of bin `k` for an FFT of length `n` at sample rate
/// `fs_hz`.
#[inline]
pub fn bin_freq(k: usize, n: usize, fs_hz: f64) -> f64 {
    k as f64 * fs_hz / n as f64
}

/// Closest FFT bin for frequency `freq_hz` with FFT length `n` at sample
/// rate `fs_hz`.
#[inline]
pub fn freq_bin(freq_hz: f64, n: usize, fs_hz: f64) -> usize {
    ((freq_hz * n as f64 / fs_hz).round() as usize).min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: Complex, b: Complex, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a} (tol {tol})");
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![Complex::ZERO; 8];
        x[0] = Complex::ONE;
        fft(&mut x).unwrap();
        for z in x {
            assert_close(z, Complex::ONE, 1e-12);
        }
    }

    #[test]
    fn fft_of_dc_is_impulse() {
        let mut x = vec![Complex::ONE; 16];
        fft(&mut x).unwrap();
        assert_close(x[0], Complex::new(16.0, 0.0), 1e-12);
        for z in &x[1..] {
            assert!(z.abs() < 1e-12);
        }
    }

    #[test]
    fn fft_matches_dft_small() {
        // Compare against a direct O(n²) DFT on random-ish data.
        let x: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()))
            .collect();
        let mut fast = x.clone();
        fft(&mut fast).unwrap();
        for (k, &fk) in fast.iter().enumerate() {
            let mut acc = Complex::ZERO;
            for (n, &xn) in x.iter().enumerate() {
                acc += xn * Complex::cis(-2.0 * PI * (k * n) as f64 / x.len() as f64);
            }
            assert_close(fk, acc, 1e-9);
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let orig: Vec<Complex> = (0..64)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        let mut x = orig.clone();
        fft(&mut x).unwrap();
        ifft(&mut x).unwrap();
        for (a, b) in x.iter().zip(orig.iter()) {
            assert_close(*a, *b, 1e-10);
        }
    }

    #[test]
    fn fft_rejects_non_power_of_two() {
        let mut x = vec![Complex::ZERO; 12];
        assert!(matches!(fft(&mut x), Err(DspError::InvalidLength { .. })));
    }

    #[test]
    fn fft_any_matches_dft_for_odd_length() {
        let n = 15;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 1.7).cos(), (i as f64 * 0.3).sin()))
            .collect();
        let fast = fft_any(&x).unwrap();
        for (k, &fk) in fast.iter().enumerate() {
            let mut acc = Complex::ZERO;
            for (m, &xm) in x.iter().enumerate() {
                acc += xm * Complex::cis(-2.0 * PI * (k * m) as f64 / n as f64);
            }
            assert_close(fk, acc, 1e-9);
        }
    }

    #[test]
    fn rfft_tone_lands_in_expected_bin() {
        let n = 256;
        let fs = 1000.0;
        let f0 = 125.0; // exactly bin 32
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * f0 * i as f64 / fs).cos())
            .collect();
        let spec = rfft(&x).unwrap();
        let bin = freq_bin(f0, n, fs);
        assert_eq!(bin, 32);
        assert!((spec[bin].abs() - n as f64 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn rfft_conjugate_symmetry() {
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.2).sin() + 0.3).collect();
        let spec = rfft(&x).unwrap();
        let n = spec.len();
        for k in 1..n / 2 {
            assert_close(spec[n - k], spec[k].conj(), 1e-9);
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let x: Vec<f64> = (0..128)
            .map(|i| (i as f64 * 0.11).sin() * (i as f64 * 0.013).cos())
            .collect();
        let spec = rfft(&x).unwrap();
        let time_energy: f64 = x.iter().map(|v| v * v).sum();
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-10);
    }

    #[test]
    fn linearity_of_fft() {
        let a: Vec<Complex> = (0..32).map(|i| Complex::new(i as f64, 0.0)).collect();
        let b: Vec<Complex> = (0..32).map(|i| Complex::new(0.0, (i * i) as f64)).collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let fa = fft_any(&a).unwrap();
        let fb = fft_any(&b).unwrap();
        let fsum = fft_any(&sum).unwrap();
        for k in 0..32 {
            assert_close(fsum[k], fa[k] + fb[k], 1e-8);
        }
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(fft_any(&[]), Err(DspError::EmptyInput)));
        assert!(matches!(rfft(&[]), Err(DspError::EmptyInput)));
    }

    #[test]
    fn helpers_behave() {
        assert!(is_power_of_two(1));
        assert!(is_power_of_two(1024));
        assert!(!is_power_of_two(0));
        assert!(!is_power_of_two(12));
        assert_eq!(next_pow2(5), 8);
        assert_eq!(one_sided_len(4096), 2049);
        assert!((bin_freq(32, 256, 1000.0) - 125.0).abs() < 1e-12);
    }

    #[test]
    fn shift_theorem() {
        // x[n-1] circular shift multiplies spectrum by e^{-2πik/N}.
        let n = 16;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.77).sin(), 0.0))
            .collect();
        let mut shifted = vec![Complex::ZERO; n];
        for i in 0..n {
            shifted[(i + 1) % n] = x[i];
        }
        let fx = fft_any(&x).unwrap();
        let fs = fft_any(&shifted).unwrap();
        for k in 0..n {
            let expected = fx[k] * Complex::cis(-2.0 * PI * k as f64 / n as f64);
            assert_close(fs[k], expected, 1e-9);
        }
    }
}
