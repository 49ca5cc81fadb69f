//! Analysis windows for spectral estimation.
//!
//! The spectrum-analyzer model applies a window before each FFT to control
//! spectral leakage, exactly like the bench instrument the paper used. Each
//! window's coherent and noise gains are tracked so amplitude and power
//! spectra can be correctly normalized.

use std::f64::consts::PI;
use std::fmt;

/// Window function selector.
///
/// # Example
///
/// ```
/// use psa_dsp::window::Window;
///
/// let w = Window::Hann.coefficients(8);
/// assert_eq!(w.len(), 8);
/// assert!(w[0] < 1e-12); // Hann tapers to zero at the edges
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Window {
    /// No tapering (all ones). Best amplitude accuracy for bin-centred
    /// tones, worst leakage.
    Rectangular,
    /// Hann (raised cosine). Good general-purpose default.
    #[default]
    Hann,
    /// Hamming; non-zero edges, slightly better close-in sidelobes.
    Hamming,
    /// Blackman; lower sidelobes, wider main lobe.
    Blackman,
    /// 4-term Blackman-Harris; very low sidelobes.
    BlackmanHarris,
    /// Flat-top; amplitude-accurate for off-bin tones, very wide main lobe.
    /// This is what bench spectrum analyzers use for amplitude readout.
    FlatTop,
}

impl Window {
    /// All window variants, for sweeps and tests.
    pub const ALL: [Window; 6] = [
        Window::Rectangular,
        Window::Hann,
        Window::Hamming,
        Window::Blackman,
        Window::BlackmanHarris,
        Window::FlatTop,
    ];

    /// Generates the window coefficients for length `n`.
    ///
    /// Uses the periodic (DFT-even) convention, which is correct for
    /// spectral analysis. Lengths 0 and 1 return `vec![]` and `vec![1.0]`
    /// respectively.
    pub fn coefficients(self, n: usize) -> Vec<f64> {
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![1.0];
        }
        let nf = n as f64;
        (0..n)
            .map(|i| {
                let x = 2.0 * PI * i as f64 / nf;
                match self {
                    Window::Rectangular => 1.0,
                    Window::Hann => 0.5 - 0.5 * x.cos(),
                    Window::Hamming => 0.54 - 0.46 * x.cos(),
                    Window::Blackman => 0.42 - 0.5 * x.cos() + 0.08 * (2.0 * x).cos(),
                    Window::BlackmanHarris => {
                        0.35875 - 0.48829 * x.cos() + 0.14128 * (2.0 * x).cos()
                            - 0.01168 * (3.0 * x).cos()
                    }
                    Window::FlatTop => {
                        0.21557895 - 0.41663158 * x.cos() + 0.277263158 * (2.0 * x).cos()
                            - 0.083578947 * (3.0 * x).cos()
                            + 0.006947368 * (4.0 * x).cos()
                    }
                }
            })
            .collect()
    }

    /// Generates *symmetric* window coefficients for length `n`.
    ///
    /// The symmetric convention (denominator `n-1`) is the right one for
    /// FIR filter design, where the taps must be exactly mirror-symmetric
    /// for linear phase; the periodic convention of
    /// [`coefficients`](Self::coefficients) is the right one for spectral
    /// analysis.
    pub fn coefficients_symmetric(self, n: usize) -> Vec<f64> {
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![1.0];
        }
        let denom = (n - 1) as f64;
        (0..n)
            .map(|i| {
                let x = 2.0 * PI * i as f64 / denom;
                match self {
                    Window::Rectangular => 1.0,
                    Window::Hann => 0.5 - 0.5 * x.cos(),
                    Window::Hamming => 0.54 - 0.46 * x.cos(),
                    Window::Blackman => 0.42 - 0.5 * x.cos() + 0.08 * (2.0 * x).cos(),
                    Window::BlackmanHarris => {
                        0.35875 - 0.48829 * x.cos() + 0.14128 * (2.0 * x).cos()
                            - 0.01168 * (3.0 * x).cos()
                    }
                    Window::FlatTop => {
                        0.21557895 - 0.41663158 * x.cos() + 0.277263158 * (2.0 * x).cos()
                            - 0.083578947 * (3.0 * x).cos()
                            + 0.006947368 * (4.0 * x).cos()
                    }
                }
            })
            .collect()
    }

    /// Coherent gain: mean of the coefficients. Divide a windowed FFT
    /// magnitude by `n * coherent_gain` to recover tone amplitude.
    pub fn coherent_gain(self, n: usize) -> f64 {
        let w = self.coefficients(n);
        if w.is_empty() {
            return 0.0;
        }
        w.iter().sum::<f64>() / n as f64
    }

    /// Applies the window to `signal` in place.
    ///
    /// # Example
    ///
    /// ```
    /// use psa_dsp::window::Window;
    /// let mut x = vec![1.0; 4];
    /// Window::Hamming.apply(&mut x);
    /// assert!((x[0] - 0.08).abs() < 1e-12);
    /// ```
    pub fn apply(self, signal: &mut [f64]) {
        let w = self.coefficients(signal.len());
        for (s, wi) in signal.iter_mut().zip(w) {
            *s *= wi;
        }
    }

    /// Returns a windowed copy of `signal`.
    pub fn applied(self, signal: &[f64]) -> Vec<f64> {
        let mut out = signal.to_vec();
        self.apply(&mut out);
        out
    }
}

impl fmt::Display for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Window::Rectangular => "rectangular",
            Window::Hann => "hann",
            Window::Hamming => "hamming",
            Window::Blackman => "blackman",
            Window::BlackmanHarris => "blackman-harris",
            Window::FlatTop => "flat-top",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangular_is_all_ones() {
        let w = Window::Rectangular.coefficients(16);
        assert!(w.iter().all(|&v| v == 1.0));
        assert!((Window::Rectangular.coherent_gain(16) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn hann_tapers_to_zero_and_peaks_at_one() {
        let n = 64;
        let w = Window::Hann.coefficients(n);
        assert!(w[0].abs() < 1e-12);
        let max = w.iter().cloned().fold(0.0, f64::max);
        assert!((max - 1.0).abs() < 1e-3);
    }

    #[test]
    fn hann_coherent_gain_is_half() {
        // Periodic Hann sums to exactly n/2.
        assert!((Window::Hann.coherent_gain(256) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn all_windows_are_nonnegative_or_near_zero() {
        // Flat-top dips slightly negative by design; everything else is >= 0.
        for win in Window::ALL {
            let w = win.coefficients(128);
            let min = w.iter().cloned().fold(f64::INFINITY, f64::min);
            if win == Window::FlatTop {
                assert!(min > -0.1);
            } else {
                assert!(min >= -1e-12, "{win} has negative coefficient {min}");
            }
        }
    }

    #[test]
    fn all_windows_unit_peak_normalizable() {
        for win in Window::ALL {
            let w = win.coefficients(257);
            let max = w.iter().cloned().fold(0.0, f64::max);
            assert!(max <= 1.0 + 1e-6, "{win} peak {max}");
            assert!(max > 0.2, "{win} peak {max}");
        }
    }

    #[test]
    fn degenerate_lengths() {
        for win in Window::ALL {
            assert!(win.coefficients(0).is_empty());
            assert_eq!(win.coefficients(1), vec![1.0]);
        }
    }

    #[test]
    fn apply_matches_applied() {
        let x: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let mut inplace = x.clone();
        Window::Blackman.apply(&mut inplace);
        assert_eq!(inplace, Window::Blackman.applied(&x));
    }

    #[test]
    fn display_names() {
        assert_eq!(Window::Hann.to_string(), "hann");
        assert_eq!(Window::FlatTop.to_string(), "flat-top");
    }
}
