//! Batched spectral analysis: reusable per-worker state for the
//! acquisition → detection hot path.
//!
//! The campaign engine (`psa-runtime`) re-runs the same windowed
//! real-input FFT thousands of times per sweep. Everything that depends
//! only on the record length and window lives in the process-wide
//! [`SpectrumPlan`] (planned once per process); this module holds what
//! each worker owns:
//!
//! * [`SpectrumScratch`] — the work buffers of the amplitude-spectrum
//!   and trace-averaging pipelines, plus an `Arc` of the shared plan of
//!   the last record length seen.
//!
//! Outputs are bit-identical to the corresponding one-shot functions
//! ([`crate::spectrum::try_amplitude_spectrum`],
//! [`crate::spectrum::average_traces`]); tests assert exact equality.
//! The one-shot spectrum runs the same shared plan, so the equality
//! holds by construction.

use crate::error::DspError;
use crate::fft;
use crate::rfft::SpectrumPlan;
use crate::spectrum;
use crate::window::Window;
use std::sync::Arc;

/// Reusable spectral-analysis scratch for one worker.
///
/// Owns the work buffers of the amplitude-spectrum pipeline (split
/// spectrum, amplitudes, averaging accumulator), sized lazily on first
/// use, and shares the immutable [`SpectrumPlan`] of its record length
/// and window with every other scratch in the process. All outputs are
/// bit-identical to the one-shot functions in [`crate::spectrum`].
///
/// # Example
///
/// ```
/// use psa_dsp::{batch::SpectrumScratch, spectrum, window::Window};
/// let signal: Vec<f64> = (0..256).map(|i| (i as f64 * 0.1).sin()).collect();
/// let mut scratch = SpectrumScratch::new(Window::Hann);
/// let batched = scratch.amplitude_spectrum(&signal)?.to_vec();
/// assert_eq!(batched, spectrum::try_amplitude_spectrum(&signal, Window::Hann)?);
/// # Ok::<(), psa_dsp::DspError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SpectrumScratch {
    window: Window,
    /// The shared plan of the last record length seen.
    plan: Option<Arc<SpectrumPlan>>,
    re: Vec<f64>,
    im: Vec<f64>,
    amp: Vec<f64>,
    acc: Vec<f64>,
}

impl SpectrumScratch {
    /// Creates an empty scratch for `window`; buffers are sized on first
    /// use.
    pub fn new(window: Window) -> Self {
        SpectrumScratch {
            window,
            plan: None,
            re: Vec::new(),
            im: Vec::new(),
            amp: Vec::new(),
            acc: Vec::new(),
        }
    }

    /// The analysis window in use.
    pub fn window(&self) -> Window {
        self.window
    }

    /// One-sided amplitude spectrum of `signal`, borrowed from the
    /// internal buffer (valid until the next call). Bit-identical to
    /// [`spectrum::try_amplitude_spectrum`]: both run the shared
    /// [`SpectrumPlan`] of `(signal.len(), window)`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] when `signal` is empty.
    pub fn amplitude_spectrum(&mut self, signal: &[f64]) -> Result<&[f64], DspError> {
        let n = signal.len();
        let plan = match &self.plan {
            Some(plan) if plan.n() == n => plan,
            _ => self.plan.insert(SpectrumPlan::shared(n, self.window)?),
        };
        plan.amplitude_into(signal, &mut self.re, &mut self.im, &mut self.amp)?;
        Ok(&self.amp)
    }

    /// Averaged one-sided amplitude spectrum over `records`, converted to
    /// dB — the acquisition hot path's full-resolution detector spectrum.
    /// Bit-identical to mapping [`spectrum::try_amplitude_spectrum`] over
    /// the records, [`spectrum::average_traces`], and
    /// [`spectrum::amplitude_db`].
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] when `records` is empty (or any
    /// record is), and [`DspError::InvalidLength`] when records have
    /// differing lengths.
    pub fn averaged_spectrum_db(&mut self, records: &[Vec<f64>]) -> Result<Vec<f64>, DspError> {
        let first = records.first().ok_or(DspError::EmptyInput)?;
        let n = first.len();
        let half = fft::one_sided_len(n);
        self.acc.clear();
        self.acc.resize(half, 0.0);
        // Swap the accumulator out so `add_amplitude_spectrum` can
        // borrow `self` mutably inside the loop.
        let mut acc = std::mem::take(&mut self.acc);
        let result = records.iter().try_for_each(|r| {
            if r.len() != n {
                return Err(DspError::InvalidLength {
                    what: "trace length (all traces must match)",
                    got: r.len(),
                });
            }
            self.add_amplitude_spectrum(r, &mut acc)
        });
        let out = result.map(|()| {
            let mut out = acc.clone();
            mean_amplitude_db_in_place(&mut out, records.len());
            out
        });
        self.acc = acc;
        out
    }

    /// Adds `signal`'s one-sided amplitude spectrum into `acc`, bin by
    /// bin: one addend of [`averaged_spectrum_db`]. Summing records in
    /// order and finishing with [`mean_amplitude_db_in_place`] is
    /// bit-identical to [`averaged_spectrum_db`] over the same records,
    /// without holding the records.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] when `signal` is empty and
    /// [`DspError::InvalidLength`] when `acc` is not one-sided length.
    ///
    /// [`averaged_spectrum_db`]: Self::averaged_spectrum_db
    pub fn add_amplitude_spectrum(
        &mut self,
        signal: &[f64],
        acc: &mut [f64],
    ) -> Result<(), DspError> {
        if signal.is_empty() {
            return Err(DspError::EmptyInput);
        }
        if acc.len() != fft::one_sided_len(signal.len()) {
            return Err(DspError::InvalidLength {
                what: "spectrum accumulator (must be one-sided length)",
                got: acc.len(),
            });
        }
        let amp = self.amplitude_spectrum(signal)?;
        for (a, v) in acc.iter_mut().zip(amp) {
            *a += v;
        }
        Ok(())
    }
}

/// Turns a sum of `count` amplitude spectra into their mean in dB, in
/// place: the last step of [`SpectrumScratch::averaged_spectrum_db`].
pub fn mean_amplitude_db_in_place(sums: &mut [f64], count: usize) {
    let k = count as f64;
    for a in sums {
        *a = spectrum::amplitude_db(*a / k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.11).sin() * (i as f64 * 0.037).cos() + 0.2)
            .collect()
    }

    #[test]
    fn scratch_matches_oneshot_spectrum_bitwise() {
        for window in [Window::Hann, Window::FlatTop, Window::Rectangular] {
            let mut scratch = SpectrumScratch::new(window);
            for n in [256usize, 255, 4096] {
                let x = signal(n);
                let batched = scratch.amplitude_spectrum(&x).unwrap().to_vec();
                let oneshot = spectrum::try_amplitude_spectrum(&x, window).unwrap();
                assert_eq!(batched.len(), oneshot.len());
                for (a, b) in batched.iter().zip(&oneshot) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{window} n={n}");
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_is_history_independent() {
        // A worker context must give the same answer regardless of what
        // it processed before — the parallel-equivalence contract.
        // A fresh scratch takes the shared plan the used one built.
        let y = signal(1024);
        let mut used = SpectrumScratch::new(Window::Hann);
        used.amplitude_spectrum(&y).unwrap();
        used.averaged_spectrum_db(&[y.clone(), y]).unwrap();
        for n in [512usize, 4096, 64, 4096, 255, 512] {
            let x = signal(n);
            let mut fresh = SpectrumScratch::new(Window::Hann);
            let expected = fresh.amplitude_spectrum(&x).unwrap().to_vec();
            let got = used.amplitude_spectrum(&x).unwrap().to_vec();
            assert!(
                expected.len() == got.len()
                    && expected
                        .iter()
                        .zip(&got)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                "n={n}"
            );
        }
    }

    #[test]
    fn scratches_of_one_length_and_window_share_one_plan() {
        let x = signal(2048);
        let mut a = SpectrumScratch::new(Window::Hann);
        let mut b = SpectrumScratch::new(Window::Hann);
        let mut flat = SpectrumScratch::new(Window::FlatTop);
        a.amplitude_spectrum(&x).unwrap();
        b.amplitude_spectrum(&x).unwrap();
        flat.amplitude_spectrum(&x).unwrap();
        let plan = |s: &SpectrumScratch| Arc::clone(s.plan.as_ref().unwrap());
        assert!(Arc::ptr_eq(&plan(&a), &plan(&b)));
        assert!(!Arc::ptr_eq(&plan(&a), &plan(&flat)));
        // A clone shares it too, and a length change swaps it.
        let c = a.clone();
        assert!(Arc::ptr_eq(&plan(&a), &plan(&c)));
        a.amplitude_spectrum(&x[..1024]).unwrap();
        assert!(!Arc::ptr_eq(&plan(&a), &plan(&b)));
    }

    #[test]
    fn averaged_db_matches_oneshot_pipeline_bitwise() {
        let records: Vec<Vec<f64>> = (0..4)
            .map(|k| {
                let mut r = signal(1024);
                for v in &mut r {
                    *v += k as f64 * 0.01;
                }
                r
            })
            .collect();
        let mut scratch = SpectrumScratch::new(Window::Hann);
        let batched = scratch.averaged_spectrum_db(&records).unwrap();
        let linear: Vec<Vec<f64>> = records
            .iter()
            .map(|r| spectrum::try_amplitude_spectrum(r, Window::Hann).unwrap())
            .collect();
        let avg = spectrum::average_traces(&linear).unwrap();
        let oneshot: Vec<f64> = avg.into_iter().map(spectrum::amplitude_db).collect();
        assert_eq!(batched.len(), oneshot.len());
        for (a, b) in batched.iter().zip(&oneshot) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn averaged_db_validates_input() {
        let mut scratch = SpectrumScratch::new(Window::Hann);
        assert!(scratch.averaged_spectrum_db(&[]).is_err());
        assert!(scratch
            .averaged_spectrum_db(&[vec![1.0; 8], vec![1.0; 16]])
            .is_err());
        // And the scratch stays usable after an error.
        assert!(scratch.averaged_spectrum_db(&[vec![1.0; 8]]).is_ok());
    }

    #[test]
    fn streamed_sum_matches_averaged_db_bitwise() {
        // The record-at-a-time path (sum rows, then finish) is the
        // batch path without holding the records.
        let records: Vec<Vec<f64>> = (0..3)
            .map(|k| signal(512).iter().map(|v| v * (1.0 + k as f64)).collect())
            .collect();
        let mut scratch = SpectrumScratch::new(Window::Hann);
        let held = scratch.averaged_spectrum_db(&records).unwrap();
        let mut sum = vec![0.0; fft::one_sided_len(512)];
        for r in &records {
            scratch.add_amplitude_spectrum(r, &mut sum).unwrap();
        }
        mean_amplitude_db_in_place(&mut sum, records.len());
        assert!(held
            .iter()
            .zip(&sum)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(scratch
            .add_amplitude_spectrum(&records[0], &mut [0.0; 8])
            .is_err());
        assert!(scratch.add_amplitude_spectrum(&[], &mut [0.0; 1]).is_err());
    }
}
