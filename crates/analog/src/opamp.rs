//! Op-amp model (paper Sec. VI-A: THS4504, 50 dB DC gain, 200 MHz
//! gain-bandwidth, used open-loop on each PSA output channel).
//!
//! A single-pole model: DC gain `A0`, corner `fc = GBW/A0`, output
//! saturation, and input-referred noise density. Time-domain
//! amplification uses the matching first-order IIR so the frequency
//! response and the sample stream agree.

use std::f64::consts::PI;

/// Single-pole op-amp.
///
/// # Example
///
/// ```
/// use psa_analog::opamp::OpAmp;
/// let amp = OpAmp::ths4504();
/// assert!((amp.gain_at_hz(0.0) - 316.2).abs() < 1.0);
/// // Above the corner the gain falls ~GBW/f.
/// let g48 = amp.gain_at_hz(48.0e6);
/// assert!((g48 - 200.0 / 48.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpAmp {
    /// DC gain, linear (50 dB → ~316).
    pub dc_gain: f64,
    /// Gain-bandwidth product, Hz.
    pub gbw_hz: f64,
    /// Output saturation, ± volts.
    pub vout_max: f64,
    /// Input-referred noise density, V/√Hz.
    pub input_noise_v_per_rthz: f64,
}

impl OpAmp {
    /// The THS4504 as configured on the paper's PCB (5 V supply;
    /// ~±4.8 V output swing).
    pub fn ths4504() -> Self {
        OpAmp {
            dc_gain: 316.23, // 50 dB
            gbw_hz: 200.0e6,
            vout_max: 4.8,
            input_noise_v_per_rthz: 9.8e-9, // datasheet-class
        }
    }

    /// Corner frequency of the single-pole response, Hz.
    pub fn corner_hz(&self) -> f64 {
        self.gbw_hz / self.dc_gain
    }

    /// Gain magnitude at `freq_hz`.
    pub fn gain_at_hz(&self, freq_hz: f64) -> f64 {
        let fc = self.corner_hz();
        self.dc_gain / (1.0 + (freq_hz / fc).powi(2)).sqrt()
    }

    /// Input-referred RMS noise over bandwidth `bw_hz`.
    pub fn input_noise_vrms(&self, bw_hz: f64) -> f64 {
        self.input_noise_v_per_rthz * bw_hz.max(0.0).sqrt()
    }

    /// The single-pole response at sample rate `fs_hz`: the IIR
    /// coefficients and the output rails.
    pub fn single_pole(&self, fs_hz: f64) -> SinglePole {
        let fc = self.corner_hz();
        let a = (-2.0 * PI * fc / fs_hz).exp();
        SinglePole {
            a,
            b: (1.0 - a) * self.dc_gain,
            vout_max: self.vout_max,
        }
    }

    /// Amplifies a sample stream at rate `fs_hz` through the single-pole
    /// response with saturation, in place, so hot acquisition loops can
    /// reuse one record buffer end to end. The IIR state starts at `0.0`.
    pub fn amplify_in_place(&self, signal: &mut [f64], fs_hz: f64) {
        let pole = self.single_pole(fs_hz);
        let mut y = 0.0;
        for x in signal.iter_mut() {
            y = pole.step(y, *x);
            *x = pole.output(y);
        }
    }
}

/// The amplifier's sample-domain response at one rate, as
/// [`OpAmp::single_pole`] derives it: the first-order IIR
/// `y ← a·y + b·x` and the clamp to `±vout_max` that reads the output
/// off the state. The state itself is not clamped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SinglePole {
    a: f64,
    b: f64,
    vout_max: f64,
}

impl SinglePole {
    /// The next IIR state after input sample `x`.
    #[inline]
    pub fn step(&self, y: f64, x: f64) -> f64 {
        self.a * y + self.b * x
    }

    /// The output sample of state `y`: `y` clamped to the rails.
    #[inline]
    pub fn output(&self, y: f64) -> f64 {
        y.clamp(-self.vout_max, self.vout_max)
    }
}

impl Default for OpAmp {
    fn default() -> Self {
        OpAmp::ths4504()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn amplified(amp: &OpAmp, signal: &[f64], fs_hz: f64) -> Vec<f64> {
        let mut out = signal.to_vec();
        amp.amplify_in_place(&mut out, fs_hz);
        out
    }

    #[test]
    fn dc_gain_is_50db() {
        let amp = OpAmp::ths4504();
        let db = 20.0 * amp.gain_at_hz(0.0).log10();
        assert!((db - 50.0).abs() < 0.01);
    }

    #[test]
    fn unity_gain_near_gbw() {
        let amp = OpAmp::ths4504();
        let g = amp.gain_at_hz(200.0e6);
        assert!((g - 1.0).abs() < 0.1, "gain at GBW {g}");
    }

    #[test]
    fn iir_matches_analytic_gain() {
        let amp = OpAmp::ths4504();
        let fs = 264.0e6;
        for f0 in [5.0e6, 48.0e6, 84.0e6] {
            let n = 65536;
            let x: Vec<f64> = (0..n)
                .map(|i| 1e-4 * (2.0 * PI * f0 * i as f64 / fs).sin())
                .collect();
            let y = amplified(&amp, &x, fs);
            // Compare steady-state halves only (skip the IIR transient).
            let rms = |v: &[f64]| (v.iter().map(|s| s * s).sum::<f64>() / v.len() as f64).sqrt();
            let measured = rms(&y[n / 2..]) / rms(&x[n / 2..]);
            let expected = amp.gain_at_hz(f0);
            let ratio = measured / expected;
            // The backward-Euler IIR warps upward near Nyquist (84 MHz is
            // 0.32·fs); agreement within ~25 % across the band is the
            // fidelity this model claims.
            assert!(
                (0.8..1.25).contains(&ratio),
                "f0 {f0}: measured {measured}, expected {expected}"
            );
        }
    }

    #[test]
    fn saturation_clamps() {
        let amp = OpAmp::ths4504();
        let x = vec![1.0; 100]; // 1 V DC × 316 would be 316 V
        let y = amplified(&amp, &x, 264.0e6);
        assert!(y.iter().all(|&v| v <= amp.vout_max));
        assert!((y.last().unwrap() - amp.vout_max).abs() < 1e-12);
    }

    #[test]
    fn noise_scales_with_sqrt_bandwidth() {
        let amp = OpAmp::ths4504();
        let n1 = amp.input_noise_vrms(1.0e6);
        let n4 = amp.input_noise_vrms(4.0e6);
        assert!((n4 / n1 - 2.0).abs() < 1e-12);
        assert_eq!(amp.input_noise_vrms(-1.0), 0.0);
    }

    #[test]
    fn amplify_preserves_length_and_linearity() {
        let amp = OpAmp::ths4504();
        let x: Vec<f64> = (0..256).map(|i| 1e-6 * (i as f64 * 0.1).sin()).collect();
        let y1 = amplified(&amp, &x, 264.0e6);
        assert_eq!(y1.len(), x.len());
        let x2: Vec<f64> = x.iter().map(|v| v * 2.0).collect();
        let y2 = amplified(&amp, &x2, 264.0e6);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((b - 2.0 * a).abs() < 1e-12);
        }
    }
}
