//! Noise sources of the measurement chain.
//!
//! Three noise families matter to the SNR comparison (paper Sec. VI-B):
//! Johnson–Nyquist thermal noise of the coil + T-gate resistance, the
//! amplifier's input-referred noise, and — for *external* probes only —
//! the ambient/environment noise floor that on-chip sensors are shielded
//! from by proximity and differential readout.

use psa_dsp::fastmath;
use psa_dsp::rng::SmallRng;

/// Boltzmann constant, J/K.
pub const K_BOLTZMANN: f64 = 1.380649e-23;

/// RMS thermal (Johnson–Nyquist) noise voltage of a resistance `r_ohm`
/// at temperature `t_kelvin` over bandwidth `bw_hz`:
/// `v = sqrt(4·k·T·R·B)`.
///
/// # Example
///
/// ```
/// use psa_field::noise::thermal_noise_vrms;
/// // 1 kΩ at 290 K over 1 Hz ≈ 4 nV.
/// let v = thermal_noise_vrms(1000.0, 290.0, 1.0);
/// assert!((v - 4.0e-9).abs() < 0.1e-9);
/// ```
pub fn thermal_noise_vrms(r_ohm: f64, t_kelvin: f64, bw_hz: f64) -> f64 {
    (4.0 * K_BOLTZMANN * t_kelvin * r_ohm.max(0.0) * bw_hz.max(0.0)).sqrt()
}

/// A seeded Gaussian noise generator (Box–Muller over a seeded [`SmallRng`]).
#[derive(Debug, Clone)]
pub struct GaussianNoise {
    rng: SmallRng,
    sigma: f64,
    spare: Option<f64>,
}

impl GaussianNoise {
    /// Creates a generator with standard deviation `sigma`.
    pub fn new(sigma: f64, seed: u64) -> Self {
        GaussianNoise {
            rng: SmallRng::seed_from_u64(seed),
            sigma,
            spare: None,
        }
    }

    /// The configured standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// One sample.
    // Generator-style `next()` is the intended API; these are not iterators
    // (no natural end, and `Iterator::next` would box every sample in Some).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> f64 {
        if let Some(s) = self.spare.take() {
            return s * self.sigma;
        }
        let (u1, u2) = self.uniforms();
        let (c, s) = box_muller(u1, u2);
        self.spare = Some(s);
        c * self.sigma
    }

    /// A vector of `n` samples.
    pub fn samples(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next()).collect()
    }

    /// Overwrites `out` with the next `out.len()` samples, without
    /// allocating. Bit-identical to calling [`next`](Self::next) once per
    /// element: a pending spare is emitted first, each Box–Muller pair
    /// fills two slots with the same expressions, and an odd tail leaves
    /// its spare pending.
    ///
    /// The pairs run in two passes over `out`: the first stores each
    /// pair's two uniforms in its two slots, in the generator's draw
    /// order; the second turns them into normals in place through
    /// straight-line kernels, with no call or data-dependent branch in
    /// the loop.
    pub fn fill(&mut self, out: &mut [f64]) {
        let mut start = 0;
        if let (Some(first), Some(s)) = (out.first_mut(), self.spare) {
            *first = s * self.sigma;
            self.spare = None;
            start = 1;
        }
        let body = &mut out[start..];
        let (pairs, tail) = body.split_at_mut(body.len() & !1);
        for pair in pairs.chunks_exact_mut(2) {
            (pair[0], pair[1]) = self.uniforms();
        }
        let sigma = self.sigma;
        for pair in pairs.chunks_exact_mut(2) {
            let (c, s) = box_muller(pair[0], pair[1]);
            pair[0] = c * sigma;
            pair[1] = s * sigma;
        }
        if let [last] = tail {
            *last = self.next();
        }
    }

    /// The two uniforms of one Box–Muller pair: `u1` in `(0, 1)` for the
    /// radius, then `u2` in `[0, 1)` for the angle.
    fn uniforms(&mut self) -> (f64, f64) {
        let u1 = self.rng.gen_open01();
        let u2 = self.rng.gen_f64();
        (u1, u2)
    }
}

/// One Box–Muller pair of unit normals, `(r·cos θ, r·sin θ)` with
/// `r = √(−2·ln u1)` and `θ = 2π·u2`. `u1` lies in `[2⁻⁵³, 1)` and `θ`
/// in `[0, 2π)`, the domains of the in-tree `ln` and `sincos` kernels;
/// each output is within 1e-14 of the libm evaluation of the same
/// formula (the tolerance policy in `PERFORMANCE.md`).
#[inline(always)]
fn box_muller(u1: f64, u2: f64) -> (f64, f64) {
    let r = (-2.0 * fastmath::ln(u1)).sqrt();
    let (sin, cos) = fastmath::sincos(2.0 * std::f64::consts::PI * u2);
    (r * cos, r * sin)
}

/// A 1/f ("flicker") noise generator: a sum of first-order low-pass
/// filtered white sources with octave-spaced corner frequencies
/// (Voss-McCartney style), normalized to the requested RMS.
#[derive(Debug, Clone)]
pub struct PinkNoise {
    white: GaussianNoise,
    state: [f64; 7],
    alphas: [f64; 7],
    target_rms: f64,
    warmup_done: bool,
}

impl PinkNoise {
    /// Creates a pink-noise generator with approximate RMS `rms`.
    pub fn new(rms: f64, seed: u64) -> Self {
        // Octave-spaced poles.
        let mut alphas = [0.0; 7];
        for (i, a) in alphas.iter_mut().enumerate() {
            *a = 1.0 / (1 << (i + 1)) as f64;
        }
        PinkNoise {
            white: GaussianNoise::new(1.0, seed),
            state: [0.0; 7],
            alphas,
            target_rms: rms,
            warmup_done: false,
        }
    }

    /// One sample.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> f64 {
        if !self.warmup_done {
            for _ in 0..256 {
                self.raw();
            }
            self.warmup_done = true;
        }
        self.raw() * self.target_rms / 1.9 // measured RMS of the raw sum
    }

    fn raw(&mut self) -> f64 {
        let w = self.white.next();
        let mut acc = 0.0;
        for (s, a) in self.state.iter_mut().zip(&self.alphas) {
            *s += a * (w - *s);
            acc += *s;
        }
        acc
    }

    /// A vector of `n` samples.
    pub fn samples(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thermal_noise_reference_values() {
        // 50 Ω at 290 K over 120 MHz ≈ 9.8 µV.
        let v = thermal_noise_vrms(50.0, 290.0, 120.0e6);
        assert!((v - 9.8e-6).abs() < 0.3e-6, "{v}");
        assert_eq!(thermal_noise_vrms(0.0, 290.0, 1.0), 0.0);
        assert_eq!(thermal_noise_vrms(-5.0, 290.0, 1.0), 0.0);
    }

    #[test]
    fn gaussian_moments() {
        let mut g = GaussianNoise::new(2.0, 42);
        let xs = g.samples(200_000);
        let mean: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        let var: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.02, "sigma {}", var.sqrt());
    }

    #[test]
    fn gaussian_deterministic_with_seed() {
        let mut a = GaussianNoise::new(1.0, 7);
        let mut b = GaussianNoise::new(1.0, 7);
        assert_eq!(a.samples(32), b.samples(32));
        let mut c = GaussianNoise::new(1.0, 8);
        assert_ne!(a.samples(32), c.samples(32));
    }

    #[test]
    fn fill_matches_next_bitwise() {
        for sigma in [1.0, 0.37, 0.0] {
            for lead in 0..3 {
                for n in [0, 1, 2, 3, 8, 33] {
                    let mut a = GaussianNoise::new(sigma, 11);
                    let mut b = GaussianNoise::new(sigma, 11);
                    for _ in 0..lead {
                        a.next();
                        b.next();
                    }
                    let mut filled = vec![f64::NAN; n];
                    a.fill(&mut filled);
                    let streamed = b.samples(n);
                    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&filled),
                        bits(&streamed),
                        "σ {sigma} lead {lead} n {n}"
                    );
                    // The generator state carries on identically.
                    assert_eq!(a.next().to_bits(), b.next().to_bits());
                }
            }
        }
    }

    #[test]
    fn unit_draws_stay_within_tolerance_of_libm_box_muller() {
        // The same uniforms through libm's ln/sin/cos: the policy bound
        // on a unit-normal draw is 1e-14 absolute.
        let n = 1 << 18;
        let mut fast = vec![0.0; n];
        GaussianNoise::new(1.0, 0x5EED).fill(&mut fast);
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        let mut worst: f64 = 0.0;
        for pair in fast.chunks_exact(2) {
            let u1 = rng.gen_open01();
            let u2 = rng.gen_f64();
            let r = (-2.0 * u1.ln()).sqrt();
            let th = 2.0 * std::f64::consts::PI * u2;
            worst = worst
                .max((pair[0] - r * th.cos()).abs())
                .max((pair[1] - r * th.sin()).abs());
        }
        assert!(worst <= 1e-14, "max unit-draw deviation {worst:e}");
    }

    #[test]
    fn pink_noise_rms_close_to_target() {
        let mut p = PinkNoise::new(3.0, 11);
        let xs = p.samples(100_000);
        let rms = (xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64).sqrt();
        assert!((rms - 3.0).abs() < 1.0, "rms {rms}");
    }

    #[test]
    fn pink_noise_is_low_frequency_heavy() {
        // Compare low-lag autocorrelation: pink noise must be much more
        // correlated sample-to-sample than white noise.
        let mut p = PinkNoise::new(1.0, 5);
        let xs = p.samples(50_000);
        let mean: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        let var: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        let lag1: f64 = xs
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>()
            / (xs.len() - 1) as f64;
        let rho = lag1 / var;
        assert!(rho > 0.5, "lag-1 autocorrelation {rho}");
    }
}
