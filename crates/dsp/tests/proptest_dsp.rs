//! Property-based tests for the DSP substrate.
//!
//! The container has no network access, so instead of the `proptest`
//! crate these properties are checked over a deterministic seeded sweep:
//! every case derives its inputs from `SmallRng`, which keeps failures
//! reproducible (the failing seed is in the assertion message).

use psa_dsp::rng::SmallRng;
use psa_dsp::window::Window;
use psa_dsp::{fft, filter, spectrum, stats, Complex};

const CASES: u64 = 64;

/// A random vector with values in `[lo, hi)` and length in `[min_len, max_len)`.
fn vec_in(rng: &mut SmallRng, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
    let n = min_len + rng.gen_index(max_len - min_len);
    (0..n).map(|_| lo + (hi - lo) * rng.gen_f64()).collect()
}

fn finite_signal(rng: &mut SmallRng, max_len: usize) -> Vec<f64> {
    vec_in(rng, -1.0e3, 1.0e3, 1, max_len)
}

/// fft matches the direct O(N²) DFT, at any length.
#[test]
fn fft_matches_direct_dft() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let re = vec_in(&mut rng, -1.0e3, 1.0e3, 1, 257);
        let x: Vec<Complex> = re.iter().map(|&r| Complex::new(r, -r * 0.5)).collect();
        let n = x.len();
        let scale: f64 = x.iter().map(|v| v.abs()).sum();
        let spec = fft::fft_any(&x).unwrap();
        for (k, s) in spec.iter().enumerate() {
            let direct = x
                .iter()
                .enumerate()
                .fold(Complex::new(0.0, 0.0), |acc, (t, v)| {
                    acc + *v
                        * Complex::cis(
                            -2.0 * std::f64::consts::PI * ((k * t) % n) as f64 / n as f64,
                        )
                });
            assert!(
                (*s - direct).abs() < 1e-9 * (1.0 + scale),
                "seed {case} bin {k}"
            );
        }
    }
}

/// Parseval: time-domain energy equals frequency-domain energy / N.
#[test]
fn parseval_holds() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let x = finite_signal(&mut rng, 300);
        let spec = fft::rfft(&x).unwrap();
        let te: f64 = x.iter().map(|v| v * v).sum();
        let fe: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64;
        assert!((te - fe).abs() <= 1e-6 * (1.0 + te), "seed {case}");
    }
}

/// FFT linearity: F(a+b) == F(a) + F(b).
#[test]
fn fft_linearity() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let a = vec_in(&mut rng, -100.0, 100.0, 64, 65);
        let b = vec_in(&mut rng, -100.0, 100.0, 64, 65);
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let fa = fft::rfft(&a).unwrap();
        let fb = fft::rfft(&b).unwrap();
        let fs = fft::rfft(&sum).unwrap();
        for k in 0..64 {
            assert!(
                (fs[k] - (fa[k] + fb[k])).abs() < 1e-6,
                "seed {case} bin {k}"
            );
        }
    }
}

/// Real-input FFT spectra are conjugate-symmetric.
#[test]
fn rfft_symmetry() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let x = finite_signal(&mut rng, 200);
        let spec = fft::rfft(&x).unwrap();
        let n = spec.len();
        for k in 1..n / 2 {
            let d = spec[n - k] - spec[k].conj();
            assert!(
                d.abs() < 1e-6 * (1.0 + spec[k].abs()),
                "seed {case} bin {k}"
            );
        }
    }
}

/// Amplitude spectrum values are non-negative and finite.
#[test]
fn amplitude_spectrum_nonnegative() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let x = finite_signal(&mut rng, 256);
        let s = spectrum::amplitude_spectrum(&x, Window::Hann);
        assert!(s.iter().all(|&v| v >= 0.0 && v.is_finite()), "seed {case}");
    }
}

/// Convolution is commutative.
#[test]
fn convolution_commutes() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let a = vec_in(&mut rng, -10.0, 10.0, 1, 40);
        let b = vec_in(&mut rng, -10.0, 10.0, 1, 40);
        let ab = filter::convolve(&a, &b);
        let ba = filter::convolve(&b, &a);
        assert_eq!(ab.len(), ba.len(), "seed {case}");
        for (x, y) in ab.iter().zip(&ba) {
            assert!((x - y).abs() < 1e-9, "seed {case}");
        }
    }
}

/// RMS is invariant to sign flips and scales linearly with gain.
#[test]
fn rms_properties() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let x = finite_signal(&mut rng, 200);
        let k = 0.01 + 99.99 * rng.gen_f64();
        let flipped: Vec<f64> = x.iter().map(|v| -v).collect();
        assert!(
            (stats::rms(&x) - stats::rms(&flipped)).abs() < 1e-9,
            "seed {case}"
        );
        let scaled: Vec<f64> = x.iter().map(|v| v * k).collect();
        assert!(
            (stats::rms(&scaled) - k * stats::rms(&x)).abs() < 1e-6 * (1.0 + stats::rms(&x) * k),
            "seed {case}"
        );
    }
}

/// Percentiles are monotone in p and bracketed by the extremes.
#[test]
fn percentile_monotone() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let x = finite_signal(&mut rng, 100);
        let lo = x.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = x.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
            let v = stats::percentile(&x, p);
            assert!(v >= prev - 1e-12, "seed {case} p {p}");
            assert!(v >= lo - 1e-12 && v <= hi + 1e-12, "seed {case} p {p}");
            prev = v;
        }
    }
}

/// Welford running stats match batch stats.
#[test]
fn running_matches_batch() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let x = finite_signal(&mut rng, 300);
        let mut r = stats::Running::new();
        for &v in &x {
            r.push(v);
        }
        assert!(
            (r.mean() - stats::mean(&x)).abs() < 1e-6 * (1.0 + stats::mean(&x).abs()),
            "seed {case}"
        );
        assert!(
            (r.variance() - stats::variance(&x)).abs() < 1e-5 * (1.0 + stats::variance(&x)),
            "seed {case}"
        );
    }
}

/// Window coherent gain is in (0, 1] for every window.
#[test]
fn window_gains_bounded() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let n = 2 + rng.gen_index(510);
        for w in Window::ALL {
            let cg = w.coherent_gain(n);
            assert!(cg > 0.0 && cg <= 1.0 + 1e-12, "{w} cg={cg} seed {case}");
        }
    }
}

/// Resampling a constant series stays constant.
#[test]
fn resample_constant() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let v = -100.0 + 200.0 * rng.gen_f64();
        let n = 1 + rng.gen_index(49);
        let m = 1 + rng.gen_index(199);
        let series = vec![v; n];
        let out = spectrum::resample_linear(&series, m).unwrap();
        assert_eq!(out.len(), m, "seed {case}");
        assert!(out.iter().all(|&o| (o - v).abs() < 1e-9), "seed {case}");
    }
}
