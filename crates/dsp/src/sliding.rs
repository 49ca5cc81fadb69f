//! Sliding-window averaged spectra, maintained incrementally.
//!
//! The streaming run-time monitor averages the amplitude spectra of the
//! last `K` records every tick. Recomputing that from the raw ring costs
//! `K` FFTs per tick; [`SlidingSpectrum`] instead keeps the per-record
//! amplitude rows (each produced by **one** FFT when its record arrives)
//! and re-sums the `K` cached rows in ring order on every query. The f64
//! additions happen in the same order as
//! [`crate::batch::SpectrumScratch::averaged_spectrum_db`] over the same
//! records, so the averaged dB spectrum is **bit-identical** to a fresh
//! full-window recompute — one FFT per tick instead of `K`, with no
//! change in output bytes.

use crate::error::DspError;
use crate::spectrum;
use std::collections::VecDeque;

/// A ring of per-record amplitude-spectrum rows plus the machinery to
/// query their average in dB.
///
/// Buffers recycle: once the ring is full, each [`push_row`] reuses the
/// evicted row's allocation, so the steady-state stream allocates
/// nothing.
///
/// # Example
///
/// ```
/// use psa_dsp::sliding::SlidingSpectrum;
/// let mut s = SlidingSpectrum::new(3)?;
/// for t in 0..5u32 {
///     let row: Vec<f64> = (0..4).map(|k| (t * 4 + k) as f64).collect();
///     s.push_row(&row)?;
/// }
/// assert_eq!(s.len(), 3); // rows 2, 3, 4 remain
/// let mut db = Vec::new();
/// s.averaged_db_into(&mut db)?;
/// assert_eq!(db.len(), 4);
/// # Ok::<(), psa_dsp::DspError>(())
/// ```
///
/// [`push_row`]: Self::push_row
#[derive(Debug, Clone)]
pub struct SlidingSpectrum {
    capacity: usize,
    /// Cached rows, oldest first.
    rows: VecDeque<Vec<f64>>,
}

impl SlidingSpectrum {
    /// A sliding spectrum over the last `capacity` rows.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] when `capacity` is zero.
    pub fn new(capacity: usize) -> Result<Self, DspError> {
        if capacity == 0 {
            return Err(DspError::InvalidLength {
                what: "sliding window capacity",
                got: 0,
            });
        }
        Ok(SlidingSpectrum {
            capacity,
            rows: VecDeque::with_capacity(capacity),
        })
    }

    /// Rows currently held (≤ capacity during warm fill).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` while no row has been pushed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Pushes one record's amplitude row, evicting the oldest once the
    /// window is full (the evicted allocation is recycled for the copy).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty row and
    /// [`DspError::InvalidLength`] when `row`'s bin count differs from
    /// the rows already held.
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), DspError> {
        if row.is_empty() {
            return Err(DspError::EmptyInput);
        }
        if let Some(first) = self.rows.front() {
            if first.len() != row.len() {
                return Err(DspError::InvalidLength {
                    what: "sliding spectrum row (bin count must match the window)",
                    got: row.len(),
                });
            }
        }
        let mut slot = if self.rows.len() == self.capacity {
            self.rows.pop_front().unwrap_or_default()
        } else {
            Vec::new()
        };
        slot.clear();
        slot.extend_from_slice(row);
        self.rows.push_back(slot);
        Ok(())
    }

    /// The window-averaged spectrum in dB, into a caller-owned buffer
    /// (cleared first).
    ///
    /// Sums the rows oldest→newest — the identical f64 sequence
    /// [`crate::batch::SpectrumScratch::averaged_spectrum_db`] executes
    /// over the same records, hence bit-identical output.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] when no row has been pushed.
    pub fn averaged_db_into(&self, out: &mut Vec<f64>) -> Result<(), DspError> {
        let first = self.rows.front().ok_or(DspError::EmptyInput)?;
        let k = self.rows.len() as f64;
        out.clear();
        out.resize(first.len(), 0.0);
        for r in &self.rows {
            for (a, v) in out.iter_mut().zip(r) {
                *a += v;
            }
        }
        for a in out.iter_mut() {
            *a = spectrum::amplitude_db(*a / k);
        }
        Ok(())
    }

    /// [`averaged_db_into`](Self::averaged_db_into) allocating the
    /// output.
    ///
    /// # Errors
    ///
    /// Same as [`averaged_db_into`](Self::averaged_db_into).
    pub fn averaged_db(&self) -> Result<Vec<f64>, DspError> {
        let mut out = Vec::new();
        self.averaged_db_into(&mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::SpectrumScratch;
    use crate::window::Window;

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

    /// Reference: fresh full-window average through the scratch pipeline.
    fn fresh_window_db(scratch: &mut SpectrumScratch, records: &[Vec<f64>]) -> Vec<f64> {
        scratch.averaged_spectrum_db(records).unwrap()
    }

    #[test]
    fn window_average_is_bit_identical_to_fresh_recompute() {
        let depth = 5;
        let mut scratch = SpectrumScratch::new(Window::Hann);
        let mut sliding = SlidingSpectrum::new(depth).unwrap();
        let mut window: Vec<Vec<f64>> = Vec::new();
        let mut out = Vec::new();
        for t in 0..20u64 {
            let record = noise(512, t);
            let row = scratch.amplitude_spectrum(&record).unwrap().to_vec();
            sliding.push_row(&row).unwrap();
            window.push(record);
            if window.len() > depth {
                window.remove(0);
            }
            sliding.averaged_db_into(&mut out).unwrap();
            let fresh = fresh_window_db(&mut scratch, &window);
            assert_eq!(out.len(), fresh.len());
            for (a, b) in out.iter().zip(&fresh) {
                assert_eq!(a.to_bits(), b.to_bits(), "tick {t}");
            }
        }
    }

    #[test]
    fn warm_fill_and_eviction_track_the_window() {
        let mut s = SlidingSpectrum::new(2).unwrap();
        assert!(s.is_empty());
        assert!(s.averaged_db().is_err());
        s.push_row(&[1.0, 1.0]).unwrap();
        assert_eq!(s.len(), 1);
        s.push_row(&[3.0, 3.0]).unwrap();
        s.push_row(&[5.0, 5.0]).unwrap(); // evicts the 1.0 row
        assert_eq!(s.len(), 2);
        let db = s.averaged_db().unwrap();
        // Mean of 3 and 5 is 4 → 20·log10(4).
        assert!((db[0] - 20.0 * 4.0f64.log10()).abs() < 1e-12);
    }

    #[test]
    fn validates_inputs() {
        assert!(SlidingSpectrum::new(0).is_err());
        let mut s = SlidingSpectrum::new(2).unwrap();
        assert!(s.push_row(&[]).is_err());
        s.push_row(&[1.0, 2.0]).unwrap();
        assert!(s.push_row(&[1.0, 2.0, 3.0]).is_err());
        assert_eq!(s.capacity, 2);
    }

    #[test]
    fn steady_state_recycles_row_buffers() {
        let mut s = SlidingSpectrum::new(3).unwrap();
        for t in 0..3u64 {
            s.push_row(&noise(32, t)).unwrap();
        }
        let mut ptrs: Vec<usize> = s.rows.iter().map(|r| r.as_ptr() as usize).collect();
        ptrs.sort_unstable();
        for t in 3..12u64 {
            s.push_row(&noise(32, t)).unwrap();
            let mut now: Vec<usize> = s.rows.iter().map(|r| r.as_ptr() as usize).collect();
            now.sort_unstable();
            assert_eq!(now, ptrs, "tick {t}: buffer set changed");
        }
    }
}
