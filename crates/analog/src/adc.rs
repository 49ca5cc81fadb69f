//! Analog-to-digital conversion.
//!
//! Models the RASC-class ADC that digitizes the amplified PSA output for
//! run-time processing: range clamping, uniform quantization, and an
//! ideal-SNR helper for sizing.

use crate::error::AnalogError;
use psa_dsp::fastmath;

/// A uniform mid-tread quantizer with a bipolar full-scale range.
///
/// # Example
///
/// ```
/// use psa_analog::adc::Adc;
/// let adc = Adc::new(12, 2.0)?; // 12 bits over ±1 V
/// let mut q = [0.0, 0.5, 2.0, -3.0];
/// adc.quantize_in_place(&mut q);
/// assert_eq!(q[0], 0.0);
/// assert!((q[1] - 0.5).abs() < adc.lsb());
/// assert!(q[2] <= 1.0 && q[3] >= -1.0); // clamped to full scale
/// # Ok::<(), psa_analog::AnalogError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adc {
    bits: u32,
    full_scale_v: f64,
}

impl Adc {
    /// Creates an ADC with `bits` resolution over a peak-to-peak range
    /// of `full_scale_v` volts (bipolar: ±FS/2).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for 0 or > 24 bits or a
    /// non-positive range.
    pub fn new(bits: u32, full_scale_v: f64) -> Result<Self, AnalogError> {
        if bits == 0 || bits > 24 {
            return Err(AnalogError::InvalidParameter {
                what: "adc resolution must be 1..=24 bits",
            });
        }
        if full_scale_v <= 0.0 {
            return Err(AnalogError::InvalidParameter {
                what: "adc full scale must be positive",
            });
        }
        Ok(Adc { bits, full_scale_v })
    }

    /// The RASC-class capture ADC: 12 bits over ±3.3 V (matched to the
    /// amplifier's output swing).
    pub fn rasc() -> Self {
        Adc::new(12, 6.6).expect("constants are valid")
    }

    /// One least-significant-bit step, volts.
    pub fn lsb(&self) -> f64 {
        self.full_scale_v / (1u64 << self.bits) as f64
    }

    /// The output code of sample `x`: `x` clamped to ±FS/2, in LSBs,
    /// rounded half away from zero. It is an integer of magnitude at
    /// most `2^(bits−1)`, or `−0.0` (a small negative sample), or NaN.
    #[inline]
    pub fn code(&self, x: f64) -> f64 {
        let half = self.full_scale_v / 2.0;
        fastmath::round(x.clamp(-half, half) / self.lsb())
    }

    /// The quantized sample of output code `code`, volts.
    #[inline]
    pub fn level(&self, code: f64) -> f64 {
        code * self.lsb()
    }

    /// Quantizes a sample stream in place (clamping to ±FS/2 first), so
    /// hot acquisition loops can reuse one record buffer end to end:
    /// each sample becomes the [`level`](Self::level) of its
    /// [`code`](Self::code).
    pub fn quantize_in_place(&self, signal: &mut [f64]) {
        for x in signal.iter_mut() {
            *x = self.level(self.code(*x));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn quantized(adc: &Adc, signal: &[f64]) -> Vec<f64> {
        let mut out = signal.to_vec();
        adc.quantize_in_place(&mut out);
        out
    }

    #[test]
    fn lsb_and_validation() {
        let adc = Adc::new(10, 1.024).unwrap();
        assert!((adc.lsb() - 0.001).abs() < 1e-12);
        assert!(Adc::new(0, 1.0).is_err());
        assert!(Adc::new(25, 1.0).is_err());
        assert!(Adc::new(10, 0.0).is_err());
    }

    #[test]
    fn quantization_error_bounded_by_half_lsb() {
        let adc = Adc::new(8, 2.0).unwrap();
        let x: Vec<f64> = (0..1000).map(|i| 0.9 * (i as f64 * 0.013).sin()).collect();
        let q = quantized(&adc, &x);
        for (orig, quant) in x.iter().zip(&q) {
            assert!((orig - quant).abs() <= adc.lsb() / 2.0 + 1e-15);
        }
    }

    #[test]
    fn clamping_at_full_scale() {
        let adc = Adc::new(8, 2.0).unwrap();
        let q = quantized(&adc, &[5.0, -5.0]);
        assert!((q[0] - 1.0).abs() < adc.lsb());
        assert!((q[1] + 1.0).abs() < adc.lsb());
    }

    #[test]
    fn measured_snr_close_to_ideal() {
        // Quantize a near-full-scale sine and compare SNR to 6.02b+1.76.
        let adc = Adc::new(10, 2.0).unwrap();
        let n = 65536;
        let x: Vec<f64> = (0..n)
            .map(|i| 0.99 * (2.0 * PI * 1001.0 * i as f64 / n as f64).sin())
            .collect();
        let q = quantized(&adc, &x);
        let err: Vec<f64> = x.iter().zip(&q).map(|(a, b)| a - b).collect();
        let p_sig: f64 = x.iter().map(|v| v * v).sum();
        let p_err: f64 = err.iter().map(|v| v * v).sum();
        let snr = 10.0 * (p_sig / p_err).log10();
        let ideal = 6.02 * adc.bits as f64 + 1.76;
        assert!((snr - ideal).abs() < 2.0, "snr {snr}");
    }

    #[test]
    fn quantizer_matches_libm_round_bitwise() {
        // The in-tree round must leave every quantized sample exactly as
        // `f64::round` produced it.
        let adc = Adc::rasc();
        let lsb = adc.lsb();
        let half = 3.3;
        let mut xs = vec![0.0, f64::NAN, half, 2.0 * half, f64::INFINITY, 1e-300];
        for k in [0.0, 1.0, 2.0, 7.0, 1000.0, 2046.0, 2047.0, 2048.0] {
            let tie = (k + 0.5) * lsb;
            let (up, down) = (tie.to_bits() + 1, tie.to_bits() - 1);
            xs.extend([k * lsb, tie, f64::from_bits(up), f64::from_bits(down)]);
        }
        for x in xs.clone() {
            xs.push(-x);
        }
        let libm = |x: f64| (x.clamp(-half, half) / lsb).round();
        let quantized = quantized(&adc, &xs);
        for (x, q) in xs.iter().zip(&quantized) {
            assert_eq!(q.to_bits(), (libm(*x) * lsb).to_bits(), "quantize({x:e})");
        }
    }

    #[test]
    fn rasc_preset() {
        let adc = Adc::rasc();
        assert_eq!(adc.bits, 12);
    }
}
