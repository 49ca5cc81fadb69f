//! Zero-span mode: recover the time-domain envelope of one frequency
//! component.
//!
//! The paper's key identification step (Sec. VI-D, Fig 5) tunes the
//! spectrum analyzer to a prominent frequency component (48 MHz) and uses
//! *zero-span* mode to observe that component's amplitude versus time —
//! different Trojans imprint different modulation envelopes on the same
//! sideband. Digitally this is a down-conversion: multiply by a complex
//! exponential at the tuned frequency, low-pass to the resolution
//! bandwidth, decimate, and take the magnitude.
//!
//! Selectivity matters here: neighbouring spectral lines sit only a few
//! megahertz away (the 51 MHz member of the same sideband family, the
//! AES block-rate lines at ±1.25 MHz), so the filter is implemented in
//! **two decimating stages** — a wide anti-alias low-pass at the input
//! rate, then a sharp low-pass at the decimated rate where narrow
//! transition bands are affordable.
//!
//! The demodulator streams: [`ZeroSpan::stream`] takes the input in
//! pieces (one record at a time, say), mixes each block and runs the
//! first stage over it at once, carrying only the last `taps − 1`
//! mixed samples across pieces, so the input is never held whole. The
//! slice forms ([`ZeroSpan::envelope`],
//! [`envelope_trimmed`](ZeroSpan::envelope_trimmed)) push one piece.

use crate::complex::Complex;
use crate::error::DspError;
use crate::filter::{Decimator, FirFilter};
use crate::window::Window;
use std::f64::consts::PI;

/// Input samples a [`ZeroSpanStream`] mixes and filters per step: the
/// most it buffers at the input rate beyond the filter's carry.
const BLOCK: usize = 4096;

/// Configuration of a zero-span measurement.
///
/// # Example
///
/// ```
/// use psa_dsp::zero_span::ZeroSpan;
///
/// // Tune 48 MHz at 264 MS/s with a 3 MHz resolution bandwidth.
/// let zs = ZeroSpan::with_rbw(48.0e6, 264.0e6, 3.0e6)?;
/// assert!(zs.output_fs_hz() > 2.0 * 3.0e6);
/// # Ok::<(), psa_dsp::DspError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ZeroSpan {
    center_hz: f64,
    fs_hz: f64,
    stage1: FirFilter,
    decim1: usize,
    stage2: FirFilter,
    decim2: usize,
}

impl ZeroSpan {
    /// Creates a zero-span demodulator at `center_hz` for input sampled
    /// at `fs_hz`, with resolution bandwidth `rbw_hz` (the low-pass
    /// cutoff after mixing, clamped to `fs/8`).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::FrequencyOutOfRange`] when the centre
    /// frequency is outside `(0, fs/2)` (NaN included), or
    /// [`DspError::NonPositive`] for a sample rate or `rbw_hz` that is
    /// not finite and positive.
    pub fn with_rbw(center_hz: f64, fs_hz: f64, rbw_hz: f64) -> Result<Self, DspError> {
        if !(fs_hz.is_finite() && fs_hz > 0.0) {
            return Err(DspError::NonPositive {
                what: "sample rate",
            });
        }
        if !(center_hz > 0.0 && center_hz < fs_hz / 2.0) {
            return Err(DspError::FrequencyOutOfRange {
                freq_hz: center_hz,
                fs_hz,
            });
        }
        if !(rbw_hz.is_finite() && rbw_hz > 0.0) {
            return Err(DspError::NonPositive {
                what: "resolution bandwidth",
            });
        }
        let rbw = rbw_hz.min(fs_hz / 8.0);

        // Stage 1: anti-alias for the first decimation. Decimate as far
        // as the 129-tap transition allows while keeping the band of
        // interest clean.
        let decim1 = ((fs_hz / (10.0 * rbw)).floor() as usize).clamp(1, 16);
        let fs1 = fs_hz / decim1 as f64;
        let cutoff1 = (0.4 * fs1).min(0.45 * fs_hz);
        let stage1 = FirFilter::low_pass(cutoff1, fs_hz, 129, Window::Hamming)?;

        // Stage 2: the sharp RBW filter at the decimated rate, where
        // 301 taps give a transition band of a few percent of fs1.
        let stage2 = FirFilter::low_pass(rbw, fs1, 301, Window::Hamming)?;
        let decim2 = ((fs1 / (8.0 * rbw)).floor() as usize).max(1);

        Ok(ZeroSpan {
            center_hz,
            fs_hz,
            stage1,
            decim1,
            stage2,
            decim2,
        })
    }

    /// Output sample rate after both decimations.
    pub fn output_fs_hz(&self) -> f64 {
        self.fs_hz / (self.decim1 * self.decim2) as f64
    }

    /// Starts a streaming measurement of an input of exactly `len`
    /// samples, to be [`push`](ZeroSpanStream::push)ed in pieces of any
    /// size. Its envelope is bit-identical to the slice forms' on the
    /// concatenated pieces.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] when `len == 0`.
    pub fn stream(&self, len: usize) -> Result<ZeroSpanStream<'_>, DspError> {
        if len == 0 {
            return Err(DspError::EmptyInput);
        }
        let carry = self.stage1.taps().len() - 1;
        let n1 = len.div_ceil(self.decim1);
        Ok(ZeroSpanStream {
            zs: self,
            stage1: Decimator::new(&self.stage1, self.decim1),
            w: 2.0 * PI * self.center_hz / self.fs_hz,
            len,
            pushed: 0,
            start: 0,
            i_mixed: Vec::with_capacity(carry + BLOCK),
            q_mixed: Vec::with_capacity(carry + BLOCK),
            i1: Vec::with_capacity(n1),
            q1: Vec::with_capacity(n1),
        })
    }

    /// Returns the amplitude envelope of the tuned component versus time —
    /// the zero-span "screen trace" (Fig 5). The scale matches tone
    /// amplitude: a pure tone of amplitude `A` at the centre frequency
    /// produces an envelope of `A`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] when `signal` is empty.
    pub fn envelope(&self, signal: &[f64]) -> Result<Vec<f64>, DspError> {
        let mut stream = self.stream(signal.len())?;
        stream.push(signal)?;
        stream.finish()
    }

    /// Samples [`envelope_trimmed`](Self::envelope_trimmed) returns for
    /// an `n`-sample input (zero when the input is too short).
    pub fn trimmed_len(&self, n: usize) -> usize {
        let len = n.div_ceil(self.decim1).div_ceil(self.decim2);
        len.saturating_sub(2 * self.trim())
    }

    /// Envelope samples trimmed at each end: the two filters' edge
    /// transients at the output rate.
    fn trim(&self) -> usize {
        let trim1 = self.stage1.taps().len() / (self.decim1 * self.decim2);
        let trim2 = self.stage2.taps().len() / self.decim2;
        (trim1 + trim2).max(1)
    }

    /// Envelope with the filters' edge transients trimmed.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] when `signal` is empty, or
    /// [`DspError::InvalidLength`] when it is shorter than the combined
    /// transient.
    pub fn envelope_trimmed(&self, signal: &[f64]) -> Result<Vec<f64>, DspError> {
        let mut stream = self.stream(signal.len())?;
        stream.push(signal)?;
        stream.finish_trimmed()
    }
}

/// A zero-span measurement fed in pieces, from [`ZeroSpan::stream`].
///
/// Each [`push`](Self::push) mixes its samples to baseband,
/// `x[n]·cos(ωn)` and `−x[n]·sin(ωn)` with `n` the sample's index in
/// the whole input, and runs stage 1 over every output whose inputs
/// have all arrived. Only the mixed samples later outputs still read
/// (the filter's `taps − 1`) are carried to the next block. Stage 2
/// runs over the stage-1 outputs once the input is complete. Every
/// output sums the same products in the same order however the input
/// was split.
#[derive(Debug)]
pub struct ZeroSpanStream<'z> {
    zs: &'z ZeroSpan,
    stage1: Decimator,
    /// The tuned frequency in radians per input sample.
    w: f64,
    /// The declared input length.
    len: usize,
    /// Input samples pushed so far.
    pushed: usize,
    /// Input index of `i_mixed[0]` and `q_mixed[0]`.
    start: usize,
    /// The mixed samples from `start` on.
    i_mixed: Vec<f64>,
    q_mixed: Vec<f64>,
    /// Stage-1 outputs so far.
    i1: Vec<f64>,
    q1: Vec<f64>,
}

impl ZeroSpanStream<'_> {
    /// Feeds the next `chunk` of the input.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] when the chunk would take the
    /// input past its declared length; nothing of it is taken.
    pub fn push(&mut self, chunk: &[f64]) -> Result<(), DspError> {
        if chunk.len() > self.len - self.pushed {
            return Err(DspError::InvalidLength {
                what: "zero-span input past its declared length",
                got: self.pushed + chunk.len(),
            });
        }
        for block in chunk.chunks(BLOCK) {
            for (n, &x) in (self.pushed..).zip(block) {
                self.i_mixed.push(x * (self.w * n as f64).cos());
                self.q_mixed.push(-x * (self.w * n as f64).sin());
            }
            self.pushed += block.len();
            let (done, ready) = (self.i1.len(), self.stage1.ready(self.pushed, self.len));
            for (mixed, out) in [(&self.i_mixed, &mut self.i1), (&self.q_mixed, &mut self.q1)] {
                self.stage1
                    .run(mixed, self.start, self.len, done..ready, out);
            }
            // Drop the mixed samples no later output reads.
            let keep = self.stage1.first_input(ready).min(self.pushed);
            self.i_mixed.drain(..keep - self.start);
            self.q_mixed.drain(..keep - self.start);
            self.start = keep;
        }
        Ok(())
    }

    /// Runs stage 2 over the complete input: the envelope
    /// [`ZeroSpan::envelope`] returns for it, or
    /// [`DspError::InvalidLength`] when fewer samples than the declared
    /// length were pushed.
    fn finish(self) -> Result<Vec<f64>, DspError> {
        if self.pushed < self.len {
            return Err(DspError::InvalidLength {
                what: "zero-span input ended before its declared length",
                got: self.pushed,
            });
        }
        let zs = self.zs;
        let i2 = zs.stage2.filter_decimated(&self.i1, zs.decim2)?;
        let q2 = zs.stage2.filter_decimated(&self.q1, zs.decim2)?;
        Ok(i2
            .into_iter()
            .zip(q2)
            .map(|(i, q)| 2.0 * Complex::new(i, q).abs())
            .collect())
    }

    /// Runs stage 2 over the complete input and returns the envelope
    /// [`ZeroSpan::envelope_trimmed`] returns for it: the filters' edge
    /// transients trimmed.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] when fewer samples than the
    /// declared length were pushed, or when the input is shorter than
    /// the combined transient.
    pub fn finish_trimmed(self) -> Result<Vec<f64>, DspError> {
        let trim = self.zs.trim();
        let mut env = self.finish()?;
        if env.len() <= 2 * trim {
            return Err(DspError::InvalidLength {
                what: "signal too short for zero-span transient trim",
                got: env.len(),
            });
        }
        env.truncate(env.len() - trim);
        env.drain(..trim);
        Ok(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A resolution bandwidth wide enough to follow megahertz-scale
    /// envelopes.
    const RBW_HZ: f64 = 3.0e6;

    #[test]
    fn tone_at_center_gives_flat_envelope_at_amplitude() {
        let fs = 264.0e6;
        let f0 = 48.0e6;
        let zs = ZeroSpan::with_rbw(f0, fs, RBW_HZ).unwrap();
        let n = 65536;
        let x: Vec<f64> = (0..n)
            .map(|i| 0.8 * (2.0 * PI * f0 * i as f64 / fs).sin())
            .collect();
        let env = zs.envelope_trimmed(&x).unwrap();
        let mean = env.iter().sum::<f64>() / env.len() as f64;
        assert!((mean - 0.8).abs() < 0.02, "mean {mean}");
        let max_dev = env.iter().map(|v| (v - mean).abs()).fold(0.0, f64::max);
        assert!(max_dev < 0.05, "max deviation {max_dev}");
    }

    #[test]
    fn off_tune_tone_is_rejected() {
        let fs = 264.0e6;
        let zs = ZeroSpan::with_rbw(48.0e6, fs, RBW_HZ).unwrap();
        let n = 65536;
        // 33 MHz clock fundamental, 15 MHz away: far outside the RBW.
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * 33.0e6 * i as f64 / fs).sin())
            .collect();
        let env = zs.envelope_trimmed(&x).unwrap();
        let mean = env.iter().sum::<f64>() / env.len() as f64;
        assert!(mean < 5e-3, "leakage {mean}");
    }

    #[test]
    fn narrow_rbw_rejects_3mhz_neighbour() {
        // The 51 MHz member of the sideband family is 3 MHz from the
        // 48 MHz line; a 1 MHz RBW must suppress it decisively.
        let fs = 264.0e6;
        let zs = ZeroSpan::with_rbw(48.0e6, fs, 0.95e6).unwrap();
        let n = 262_144;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                1.0 * (2.0 * PI * 51.0e6 * t).sin()
            })
            .collect();
        let env = zs.envelope_trimmed(&x).unwrap();
        let mean = env.iter().sum::<f64>() / env.len() as f64;
        assert!(mean < 0.02, "3 MHz neighbour leaks {mean}");
    }

    #[test]
    fn narrow_rbw_passes_750khz_am() {
        let fs = 264.0e6;
        let f0 = 48.0e6;
        let fm = 750.0e3;
        let zs = ZeroSpan::with_rbw(f0, fs, 0.95e6).unwrap();
        let n = 262_144;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                (1.0 + 0.5 * (2.0 * PI * fm * t).sin()) * (2.0 * PI * f0 * t).cos()
            })
            .collect();
        let env = zs.envelope_trimmed(&x).unwrap();
        let mean = env.iter().sum::<f64>() / env.len() as f64;
        let crossings = env
            .windows(2)
            .filter(|w| (w[0] < mean) != (w[1] < mean))
            .count();
        let duration = env.len() as f64 / zs.output_fs_hz();
        let est = crossings as f64 / 2.0 / duration;
        assert!((est - fm).abs() / fm < 0.15, "envelope frequency {est}");
    }

    #[test]
    fn am_modulation_recovered() {
        let fs = 264.0e6;
        let f0 = 48.0e6;
        let fm = 750.0e3;
        let m = 0.5;
        let zs = ZeroSpan::with_rbw(f0, fs, RBW_HZ).unwrap();
        let n = 65536;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                (1.0 + m * (2.0 * PI * fm * t).sin()) * (2.0 * PI * f0 * t).cos()
            })
            .collect();
        let env = zs.envelope_trimmed(&x).unwrap();
        let max = env.iter().cloned().fold(0.0, f64::max);
        let min = env.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((max - 1.5).abs() < 0.1, "max {max}");
        assert!((min - 0.5).abs() < 0.1, "min {min}");
    }

    #[test]
    fn validates_parameters() {
        assert!(ZeroSpan::with_rbw(0.0, 1e6, RBW_HZ).is_err());
        assert!(ZeroSpan::with_rbw(6e5, 1e6, RBW_HZ).is_err());
        assert!(ZeroSpan::with_rbw(1e3, 0.0, RBW_HZ).is_err());
        assert!(ZeroSpan::with_rbw(48e6, 264e6, 0.0).is_err());
        let zs = ZeroSpan::with_rbw(48e6, 264e6, RBW_HZ).unwrap();
        assert!(zs.envelope(&[]).is_err());
    }

    #[test]
    fn rejects_non_finite_centre() {
        for f0 in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    ZeroSpan::with_rbw(f0, 264e6, RBW_HZ),
                    Err(DspError::FrequencyOutOfRange { .. })
                ),
                "centre {f0}"
            );
        }
    }

    #[test]
    fn rejects_non_finite_sample_rate() {
        for fs in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    ZeroSpan::with_rbw(48e6, fs, RBW_HZ),
                    Err(DspError::NonPositive { .. })
                ),
                "fs {fs}"
            );
        }
    }

    #[test]
    fn rejects_non_finite_rbw() {
        for rbw in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    ZeroSpan::with_rbw(48e6, 264e6, rbw),
                    Err(DspError::NonPositive { .. })
                ),
                "rbw {rbw}"
            );
        }
    }

    /// The envelope by full-rate mixing, full-rate "same"-mode
    /// filtering of each stage by direct linear convolution (zero
    /// samples skipped), `step_by` decimation and trimming.
    fn reference_envelope_trimmed(zs: &ZeroSpan, signal: &[f64]) -> Vec<f64> {
        let filter = |taps: &[f64], x: &[f64], decim: usize| -> Vec<f64> {
            let mut full = vec![0.0; x.len() + taps.len() - 1];
            for (i, &v) in x.iter().enumerate() {
                if v != 0.0 {
                    for (j, &t) in taps.iter().enumerate() {
                        full[i + j] += v * t;
                    }
                }
            }
            let delay = (taps.len() - 1) / 2;
            full.into_iter()
                .skip(delay)
                .take(x.len())
                .step_by(decim)
                .collect()
        };
        let w = 2.0 * PI * zs.center_hz / zs.fs_hz;
        let mix = |f: fn(f64) -> f64, sign: f64| -> Vec<f64> {
            let x: Vec<f64> = (0..signal.len())
                .map(|n| sign * signal[n] * f(w * n as f64))
                .collect();
            let x1 = filter(zs.stage1.taps(), &x, zs.decim1);
            filter(zs.stage2.taps(), &x1, zs.decim2)
        };
        let (i2, q2) = (mix(f64::cos, 1.0), mix(f64::sin, -1.0));
        let env: Vec<f64> = i2
            .iter()
            .zip(&q2)
            .map(|(&i, &q)| 2.0 * Complex::new(i, q).abs())
            .collect();
        let trim = zs.trim();
        env[trim..env.len() - trim].to_vec()
    }

    #[test]
    fn stream_matches_full_rate_reference_for_any_split_bitwise() {
        let fs = 264.0e6;
        let zs = ZeroSpan::with_rbw(48.0e6, fs, 0.95e6).unwrap();
        let mut state = 0x5EED_2E20u64;
        let n = 3 * BLOCK + 1001;
        // Noise with runs of exact zeros of both signs.
        let x: Vec<f64> = (0..n)
            .map(|i| match i % 97 {
                0..=4 => 0.0,
                5 => -0.0,
                _ => {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
                }
            })
            .collect();
        let want: Vec<u64> = reference_envelope_trimmed(&zs, &x)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        for chunk in [1, 7, 128, 129, BLOCK - 1, BLOCK, BLOCK + 5, n] {
            let mut stream = zs.stream(n).unwrap();
            for piece in x.chunks(chunk) {
                stream.push(piece).unwrap();
            }
            let got: Vec<u64> = stream
                .finish_trimmed()
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got, want, "chunk {chunk}");
        }
    }

    #[test]
    fn stream_rejects_overrun_and_early_finish() {
        let zs = ZeroSpan::with_rbw(48.0e6, 264.0e6, RBW_HZ).unwrap();
        assert!(matches!(zs.stream(0), Err(DspError::EmptyInput)));
        let x = vec![0.25; 12_000];
        let mut stream = zs.stream(x.len()).unwrap();
        stream.push(&x[..9000]).unwrap();
        assert!(matches!(
            stream.push(&x[..3001]),
            Err(DspError::InvalidLength { got: 12_001, .. })
        ));
        // The rejected chunk is not taken: the rest still completes it.
        stream.push(&x[9000..]).unwrap();
        assert!(matches!(
            stream.push(&[1.0]),
            Err(DspError::InvalidLength { .. })
        ));
        assert_eq!(
            stream.finish_trimmed().unwrap(),
            zs.envelope_trimmed(&x).unwrap()
        );
        let mut early = zs.stream(x.len()).unwrap();
        early.push(&x[1..]).unwrap();
        assert!(matches!(
            early.finish(),
            Err(DspError::InvalidLength { got: 11_999, .. })
        ));
        assert!(zs.stream(x.len()).unwrap().finish_trimmed().is_err());
    }

    #[test]
    fn output_rate_covers_the_rbw_and_oversized_rbw_clamps() {
        let zs = ZeroSpan::with_rbw(10.0e6, 264.0e6, 2.0e6).unwrap();
        assert!(zs.output_fs_hz() > 2.0 * 2.0e6);
        // An oversized RBW clamps to fs/8, a cutoff the RBW filter can
        // realize, and so decimates by nothing.
        let wide = ZeroSpan::with_rbw(48.0e6, 264.0e6, 1.0e9).unwrap();
        assert_eq!(wide.output_fs_hz(), 264.0e6);
    }

    #[test]
    fn two_tone_selects_only_tuned_component() {
        let fs = 264.0e6;
        let zs = ZeroSpan::with_rbw(84.0e6, fs, 2.0e6).unwrap();
        let n = 65536;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                0.3 * (2.0 * PI * 84.0e6 * t).sin() + 1.0 * (2.0 * PI * 48.0e6 * t).sin()
            })
            .collect();
        let env = zs.envelope_trimmed(&x).unwrap();
        let mean = env.iter().sum::<f64>() / env.len() as f64;
        assert!((mean - 0.3).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn short_signal_trim_error() {
        let zs = ZeroSpan::with_rbw(48.0e6, 264.0e6, RBW_HZ).unwrap();
        assert!(matches!(
            zs.envelope_trimmed(&vec![0.0; 64]),
            Err(DspError::InvalidLength { .. })
        ));
    }
}
