//! Crate smoke test: the FFT entry point matches a direct DFT.

use psa_dsp::{fft, Complex};
use std::f64::consts::PI;

#[test]
fn fft_matches_direct_dft_smoke() {
    let n = 64;
    let x: Vec<Complex> = (0..n)
        .map(|i| Complex::new((i as f64 * 0.3).sin(), 0.0))
        .collect();
    let spec = fft::fft_any(&x).unwrap();
    for (k, s) in spec.iter().enumerate() {
        let direct = x
            .iter()
            .enumerate()
            .fold(Complex::new(0.0, 0.0), |acc, (t, v)| {
                acc + *v * Complex::cis(-2.0 * PI * (k * t) as f64 / n as f64)
            });
        assert!((*s - direct).abs() < 1e-9);
    }
}
