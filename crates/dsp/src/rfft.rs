//! Real-input spectra through one shared, split-format plan.
//!
//! Every trace the acquisition pipeline transforms is real-valued, so a
//! complex FFT would spend half its butterflies on zero imaginary
//! lanes. [`SpectrumPlan`] packs a real record of even length `N` into
//! an `N/2`-point complex signal `z[m] = x[2m] + i·x[2m+1]`, runs one
//! half-length complex FFT, and unpacks the one-sided spectrum
//! `X[0..=N/2]` with an `O(N)` twiddle pass:
//!
//! ```text
//! Xe[k] = (Z[k] + conj(Z[N/2-k])) / 2        (FFT of even samples)
//! Xo[k] = (Z[k] - conj(Z[N/2-k])) / 2i       (FFT of odd samples)
//! X[k]  = Xe[k] + e^{-2πik/N} · Xo[k]
//! ```
//!
//! The plan keeps the complex signal as two `f64` arrays (`re`, `im`)
//! rather than an array of [`Complex`]:
//!
//! * **Pack.** The record is windowed and gathered straight into
//!   bit-reversed order through a precomputed index table, so no swap
//!   pass runs per call; the first two butterfly stages run on the way.
//! * **Butterflies.** Pairs of radix-2 stages run as one radix-4 pass
//!   over the split arrays (a lone last stage stays radix-2 when the
//!   stage count is odd). Each butterfly still computes `even ± odd·w`
//!   with [`Complex`]'s multiply formula and the twiddles
//!   `Complex::cis(step·k)` of the stage, so every value sees the same
//!   `f64` operations in the same order as the textbook iterative
//!   radix-2 transform of [`crate::fft::fft`].
//! * **Unpack.** Bins `k` and `N/2-k` are unpacked in place, then
//!   [`SpectrumPlan::amplitude_into`] runs one `x²+y²` pass and one
//!   `sqrt` pass; a bin whose square is not a positive normal finite
//!   number takes libm `hypot`, exactly [`fastmath::hypot`]'s rule.
//!
//! A plan is immutable and holds everything that depends only on the
//! record length and the window: coefficients, coherent gain, gather
//! table and twiddles. [`SpectrumPlan::shared`] hands out one `Arc` per
//! `(n, window)` for the whole process, so a fresh
//! [`crate::batch::SpectrumScratch`] (and every one-shot call) skips
//! planning. Lengths that are not powers of two take Bluestein's
//! transform, the arithmetic of [`crate::fft::fft_any`], through a plan
//! of its own (the chirp and its kernel's transform) that the shared
//! plan holds; no campaign record length does, but the identification
//! envelope (11 980 samples) does.
//!
//! # Equivalence to the complex path
//!
//! The packed transform evaluates the *same* DFT as [`crate::fft::rfft`]
//! in a different operation order, so the two agree to rounding: per
//! bin within a few ulp of the spectrum's magnitude scale (the sweep
//! tests assert `|X_packed - X_complex| ≤ 1e-12 · max|X|`). They are
//! **not** bit-identical. Every amplitude spectrum in the workspace
//! ([`crate::spectrum::try_amplitude_spectrum`],
//! [`crate::batch::SpectrumScratch`], [`rfft_one_sided`]) runs the one
//! plan, so batch and one-shot spectra are bit-identical by
//! construction.

use crate::complex::Complex;
use crate::error::DspError;
use crate::fastmath;
use crate::fft;
use crate::window::Window;
use std::f64::consts::PI;
use std::sync::{Arc, Mutex, PoisonError};

/// Plans already built in this process, one per `(n, window)`. A linear
/// scan: a process uses a handful of lengths.
static SHARED: Mutex<Vec<Arc<SpectrumPlan>>> = Mutex::new(Vec::new());

/// Bluestein plans kept in [`SHARED`]; beyond this many the oldest is
/// dropped, so a sweep over many odd lengths stays bounded.
const BLUESTEIN_CAP: usize = 8;

/// An immutable one-sided spectrum plan for one record length and
/// window.
///
/// # Example
///
/// ```
/// use psa_dsp::{rfft::SpectrumPlan, spectrum, window::Window};
/// use std::sync::Arc;
/// let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.2).sin()).collect();
/// let plan = SpectrumPlan::shared(64, Window::Hann)?;
/// assert!(Arc::ptr_eq(&plan, &SpectrumPlan::shared(64, Window::Hann)?));
/// let (mut re, mut im, mut amp) = (Vec::new(), Vec::new(), Vec::new());
/// plan.amplitude_into(&x, &mut re, &mut im, &mut amp)?;
/// assert_eq!(amp, spectrum::try_amplitude_spectrum(&x, Window::Hann)?);
/// # Ok::<(), psa_dsp::DspError>(())
/// ```
#[derive(Debug)]
pub struct SpectrumPlan {
    n: usize,
    window: Window,
    /// Window coefficients. A packed plan stores them in gather order:
    /// pair `j` holds the coefficients of samples `2·gather[j]` and
    /// `2·gather[j] + 1`.
    coeffs: Vec<f64>,
    coherent_gain: f64,
    /// `gather[j]` is `j` bit-reversed over `log2(n/2)` bits; empty when
    /// the plan takes the Bluestein path (and for `n == 1`).
    gather: Vec<usize>,
    /// The transform of a length that is not a power of two.
    bluestein: Option<fft::BluesteinPlan>,
    /// Butterfly twiddles: the stage of half-size `m` reads
    /// `[m-1, 2m-1)`, entry `k` being `Complex::cis(-2π/(2m) · k)`.
    stage_re: Vec<f64>,
    stage_im: Vec<f64>,
    /// Unpacking twiddles `e^{-2πik/n}`, `k = 0..=n/2`.
    unpack_re: Vec<f64>,
    unpack_im: Vec<f64>,
}

impl SpectrumPlan {
    /// The plan for `n`-sample records under `window`.
    ///
    /// Plans are built once per process and shared: every call with the
    /// same `(n, window)` returns the same `Arc`, as long as the plan is
    /// cached. Power-of-two plans stay for the process; of the Bluestein
    /// plans the newest eight stay.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] when `n` is zero.
    pub fn shared(n: usize, window: Window) -> Result<Arc<Self>, DspError> {
        if n == 0 {
            return Err(DspError::EmptyInput);
        }
        // Planning finishes before the push, so a cache poisoned by a
        // panic elsewhere still holds only complete plans.
        let mut plans = SHARED.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(plan) = plans.iter().find(|p| p.n == n && p.window == window) {
            return Ok(Arc::clone(plan));
        }
        let plan = Arc::new(SpectrumPlan::new(n, window));
        let is_bluestein = |p: &Arc<SpectrumPlan>| p.bluestein.is_some();
        if is_bluestein(&plan) && plans.iter().filter(|p| is_bluestein(p)).count() >= BLUESTEIN_CAP
        {
            if let Some(oldest) = plans.iter().position(is_bluestein) {
                plans.remove(oldest);
            }
        }
        plans.push(Arc::clone(&plan));
        Ok(plan)
    }

    fn new(n: usize, window: Window) -> Self {
        let coeffs = window.coefficients(n);
        let coherent_gain = window.coherent_gain(n);
        let mut plan = SpectrumPlan {
            n,
            window,
            coeffs,
            coherent_gain,
            gather: Vec::new(),
            bluestein: None,
            stage_re: Vec::new(),
            stage_im: Vec::new(),
            unpack_re: Vec::new(),
            unpack_im: Vec::new(),
        };
        if !fft::is_power_of_two(n) {
            plan.bluestein = Some(fft::BluesteinPlan::new(n));
            return plan;
        }
        if n < 2 {
            return plan;
        }
        let h = n / 2;
        let bits = h.trailing_zeros();
        plan.gather = (0..h)
            .map(|j| match bits {
                0 => 0,
                b => j.reverse_bits() >> (usize::BITS - b),
            })
            .collect();
        plan.coeffs = plan
            .gather
            .iter()
            .flat_map(|&g| [plan.coeffs[2 * g], plan.coeffs[2 * g + 1]])
            .collect();
        let mut size = 2;
        while size <= h {
            let step = -2.0 * PI / size as f64;
            for k in 0..size / 2 {
                let w = Complex::cis(step * k as f64);
                plan.stage_re.push(w.re);
                plan.stage_im.push(w.im);
            }
            size *= 2;
        }
        let step = -2.0 * PI / n as f64;
        for k in 0..=h {
            let w = Complex::cis(step * k as f64);
            plan.unpack_re.push(w.re);
            plan.unpack_im.push(w.im);
        }
        plan
    }

    /// The record length this plan transforms.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Windows `signal` and writes its one-sided spectrum (`n/2 + 1`
    /// bins) into `re` and `im`, which are cleared first; warm buffers
    /// make the power-of-two path allocation-free. Fails with
    /// [`DspError::InvalidLength`] when `signal.len()` differs from the
    /// planned length.
    fn forward_split(
        &self,
        signal: &[f64],
        re: &mut Vec<f64>,
        im: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        let n = self.n;
        if signal.len() != n {
            return Err(DspError::InvalidLength {
                what: "spectrum plan input (length must match the plan)",
                got: signal.len(),
            });
        }
        re.clear();
        im.clear();
        if self.gather.is_empty() {
            // Bluestein for other lengths (allocating), identity for n == 1.
            let windowed: Vec<Complex> = signal
                .iter()
                .zip(&self.coeffs)
                .map(|(&x, &w)| Complex::new(x * w, 0.0))
                .collect();
            let full = match &self.bluestein {
                Some(plan) => plan.transform(&windowed),
                None => windowed,
            };
            for z in &full[..fft::one_sided_len(n)] {
                re.push(z.re);
                im.push(z.im);
            }
            return Ok(());
        }
        let h = n / 2;
        re.resize(h + 1, 0.0);
        im.resize(h + 1, 0.0);

        // Window and pack x[2m] + i·x[2m+1] straight into bit-reversed
        // order, running the first two butterfly stages on the way.
        let (zr, zi) = (&mut re[..h], &mut im[..h]);
        let pack = |g: usize, w: &[f64]| [signal[2 * g] * w[0], signal[2 * g + 1] * w[1]];
        let mut m = 1;
        if h >= 4 {
            let ((ar, ai), (br, bi)) = (self.stage(1), self.stage(2));
            for (((r, i), g), w) in zr
                .chunks_exact_mut(4)
                .zip(zi.chunks_exact_mut(4))
                .zip(self.gather.chunks_exact(4))
                .zip(self.coeffs.chunks_exact(8))
            {
                let ([x0r, x0i], [x1r, x1i]) = (pack(g[0], &w[..2]), pack(g[1], &w[2..4]));
                let ([x2r, x2i], [x3r, x3i]) = (pack(g[2], &w[4..6]), pack(g[3], &w[6..]));
                let [p0r, p0i, p1r, p1i] = butterfly(x0r, x0i, x1r, x1i, ar[0], ai[0]);
                let [p2r, p2i, p3r, p3i] = butterfly(x2r, x2i, x3r, x3i, ar[0], ai[0]);
                [r[0], i[0], r[2], i[2]] = butterfly(p0r, p0i, p2r, p2i, br[0], bi[0]);
                [r[1], i[1], r[3], i[3]] = butterfly(p1r, p1i, p3r, p3i, br[1], bi[1]);
            }
            m = 4;
        } else {
            for (((r, i), &g), w) in zr
                .iter_mut()
                .zip(zi.iter_mut())
                .zip(&self.gather)
                .zip(self.coeffs.chunks_exact(2))
            {
                [*r, *i] = pack(g, w);
            }
        }
        // The remaining stages of half-size m, 2m, …, h/2, two at a time.
        while 4 * m <= h {
            radix4_pass(zr, zi, self.stage(m), self.stage(2 * m));
            m *= 4;
        }
        if m < h {
            radix2_stage(zr, zi, self.stage(m));
        }

        // Unpack bins k and h-k together, in place; DC and Nyquist come
        // from z[0] alone.
        let (z0r, z0i) = (re[0], im[0]);
        re[0] = z0r + z0i;
        im[0] = 0.0;
        re[h] = z0r - z0i;
        im[h] = 0.0;
        if h >= 2 {
            let mid = h / 2;
            let (ur, ui) = (&self.unpack_re[..=h], &self.unpack_im[..=h]);
            (re[mid], im[mid]) = unpack_bin(re[mid], im[mid], re[mid], im[mid], ur[mid], ui[mid]);
            // Bins 1..mid (ascending) against their partners h-1..mid
            // (descending).
            let len = mid - 1;
            let (lo_r, hi_r) = re[1..h].split_at_mut(mid);
            let (lo_i, hi_i) = im[1..h].split_at_mut(mid);
            let (lo_r, lo_i, hi_r, hi_i) = (
                &mut lo_r[..len],
                &mut lo_i[..len],
                &mut hi_r[..len],
                &mut hi_i[..len],
            );
            let (lo_ur, lo_ui) = (&ur[1..mid], &ui[1..mid]);
            let (hi_ur, hi_ui) = (&ur[mid + 1..h], &ui[mid + 1..h]);
            for t in 0..len {
                let s = len - 1 - t;
                let (kr, ki, jr, ji) = (lo_r[t], lo_i[t], hi_r[s], hi_i[s]);
                (lo_r[t], lo_i[t]) = unpack_bin(kr, ki, jr, ji, lo_ur[t], lo_ui[t]);
                (hi_r[s], hi_i[s]) = unpack_bin(jr, ji, kr, ki, hi_ur[s], hi_ui[s]);
            }
        }
        Ok(())
    }

    /// Twiddles of the butterfly stage of half-size `m`.
    fn stage(&self, m: usize) -> (&[f64], &[f64]) {
        (
            &self.stage_re[m - 1..2 * m - 1],
            &self.stage_im[m - 1..2 * m - 1],
        )
    }

    /// One-sided amplitude spectrum of `signal` into `amp`, scaled so a
    /// sine of amplitude `A` reads `A` at its bin (window coherent gain
    /// compensated; DC and Nyquist are not doubled). `re` and `im` are
    /// work buffers that receive the split one-sided spectrum; warm
    /// buffers make the power-of-two path allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] when `signal.len()` differs
    /// from the planned length.
    pub fn amplitude_into(
        &self,
        signal: &[f64],
        re: &mut Vec<f64>,
        im: &mut Vec<f64>,
        amp: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        self.forward_split(signal, re, im)?;
        let n = self.n;
        let half = fft::one_sided_len(n);
        let scale = 2.0 / (n as f64 * self.coherent_gain);
        // Bins 1..interior are doubled; the last bin of an even length
        // is Nyquist.
        let interior = if n % 2 == 0 { half - 1 } else { half };
        amp.clear();
        amp.extend(re.iter().zip(im.iter()).map(|(&x, &y)| x * x + y * y));
        let mut fallback = false;
        for a in &mut amp[1..interior] {
            let sq = *a;
            fallback |= !(f64::MIN_POSITIVE..f64::INFINITY).contains(&sq);
            *a = sq.sqrt() * scale;
        }
        if fallback {
            // A square left the normal range: redo the interior with the
            // scalar kernel, whose libm fallback handles it.
            for k in 1..interior {
                amp[k] = fastmath::hypot(re[k], im[k]) * scale;
            }
        }
        amp[0] = fastmath::hypot(re[0], im[0]) * (scale / 2.0);
        if interior < half {
            amp[interior] = fastmath::hypot(re[interior], im[interior]) * (scale / 2.0);
        }
        Ok(())
    }
}

/// `(even ± odd·w)` for one radix-2 butterfly, with `odd·w` in
/// [`Complex`]'s multiply formula.
#[inline(always)]
fn butterfly(er: f64, ei: f64, or: f64, oi: f64, wr: f64, wi: f64) -> [f64; 4] {
    let (tr, ti) = (or * wr - oi * wi, or * wi + oi * wr);
    [er + tr, ei + ti, er - tr, ei - ti]
}

/// The radix-2 stage of half-size `m`: pairs `(k, m+k)` of each block
/// of `2m`, with twiddle `a[k]`.
fn radix2_stage(re: &mut [f64], im: &mut [f64], (ar, ai): (&[f64], &[f64])) {
    let m = ar.len();
    let ai = &ai[..m];
    for (r, i) in re.chunks_exact_mut(2 * m).zip(im.chunks_exact_mut(2 * m)) {
        let (r0, r1) = r.split_at_mut(m);
        let (i0, i1) = i.split_at_mut(m);
        let (r1, i1) = (&mut r1[..m], &mut i1[..m]);
        for k in 0..m {
            [r0[k], i0[k], r1[k], i1[k]] = butterfly(r0[k], i0[k], r1[k], i1[k], ar[k], ai[k]);
        }
    }
}

/// The radix-2 stages of half-sizes `m` and `2m` as one pass over
/// blocks of `4m`: quarters `(0,1)` and `(2,3)` with `a[k]`, then
/// `(0,2)` with `b[k]` and `(1,3)` with `b[m+k]`.
///
/// The butterflies run four `k` at a time in explicit lanes (loads of
/// `[f64; 4]`, the same [`butterfly`] per lane), then a scalar tail;
/// each lane's arithmetic is the scalar loop's, so the bits are too.
fn radix4_pass(
    re: &mut [f64],
    im: &mut [f64],
    (ar, ai): (&[f64], &[f64]),
    (br, bi): (&[f64], &[f64]),
) {
    const LANES: usize = 4;
    let m = ar.len();
    let (ar, ai) = (&ar[..m], &ai[..m]);
    let (b0r, b1r) = (&br[..m], &br[m..2 * m]);
    let (b0i, b1i) = (&bi[..m], &bi[m..2 * m]);
    let wide = m - m % LANES;
    for (r, i) in re.chunks_exact_mut(4 * m).zip(im.chunks_exact_mut(4 * m)) {
        let (r0, r) = r.split_at_mut(m);
        let (r1, r) = r.split_at_mut(m);
        let (r2, r3) = r.split_at_mut(m);
        let (i0, i) = i.split_at_mut(m);
        let (i1, i) = i.split_at_mut(m);
        let (i2, i3) = i.split_at_mut(m);
        let (r3, i3) = (&mut r3[..m], &mut i3[..m]);
        for k in (0..wide).step_by(LANES) {
            let load = |x: &[f64]| -> [f64; LANES] { std::array::from_fn(|l| x[k + l]) };
            let (x0r, x0i, x1r, x1i) = (load(r0), load(i0), load(r1), load(i1));
            let (x2r, x2i, x3r, x3i) = (load(r2), load(i2), load(r3), load(i3));
            let (war, wai) = (load(ar), load(ai));
            let (w0r, w0i, w1r, w1i) = (load(b0r), load(b0i), load(b1r), load(b1i));
            let mut y = [[0.0; LANES]; 8];
            for l in 0..LANES {
                let [p0r, p0i, p1r, p1i] =
                    butterfly(x0r[l], x0i[l], x1r[l], x1i[l], war[l], wai[l]);
                let [p2r, p2i, p3r, p3i] =
                    butterfly(x2r[l], x2i[l], x3r[l], x3i[l], war[l], wai[l]);
                [y[0][l], y[1][l], y[4][l], y[5][l]] =
                    butterfly(p0r, p0i, p2r, p2i, w0r[l], w0i[l]);
                [y[2][l], y[3][l], y[6][l], y[7][l]] =
                    butterfly(p1r, p1i, p3r, p3i, w1r[l], w1i[l]);
            }
            let outs = [&mut *r0, &mut *i0, &mut *r1, &mut *i1];
            let outs = outs
                .into_iter()
                .chain([&mut *r2, &mut *i2, &mut *r3, &mut *i3]);
            for (out, y) in outs.zip(&y) {
                out[k..k + LANES].copy_from_slice(y);
            }
        }
        for k in wide..m {
            let [p0r, p0i, p1r, p1i] = butterfly(r0[k], i0[k], r1[k], i1[k], ar[k], ai[k]);
            let [p2r, p2i, p3r, p3i] = butterfly(r2[k], i2[k], r3[k], i3[k], ar[k], ai[k]);
            [r0[k], i0[k], r2[k], i2[k]] = butterfly(p0r, p0i, p2r, p2i, b0r[k], b0i[k]);
            [r1[k], i1[k], r3[k], i3[k]] = butterfly(p1r, p1i, p3r, p3i, b1r[k], b1i[k]);
        }
    }
}

/// Bin `k` of the one-sided spectrum from packed `z[k]` and its
/// partner `p = z[h-k]`, with unpacking twiddle `w = e^{-2πik/n}`.
#[inline(always)]
fn unpack_bin(zr: f64, zi: f64, pr: f64, pi: f64, wr: f64, wi: f64) -> (f64, f64) {
    // conj(z[h-k])
    let (cr, ci) = (pr, -pi);
    let (er, ei) = ((zr + cr) * 0.5, (zi + ci) * 0.5);
    let (dr, di) = (zr - cr, zi - ci);
    // Xo = d / 2i = (d · -i) / 2.
    let (or, oi) = (di * 0.5, -dr * 0.5);
    (er + (wr * or - wi * oi), ei + (wr * oi + wi * or))
}

/// One-sided spectrum (`n/2 + 1` bins) of a real signal of any length,
/// unwindowed: the [`SpectrumPlan`] of [`Window::Rectangular`], whose
/// unit coefficients leave every sample unchanged.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] when `input` is empty.
pub fn rfft_one_sided(input: &[f64]) -> Result<Vec<Complex>, DspError> {
    let plan = SpectrumPlan::shared(input.len(), Window::Rectangular)?;
    let (mut re, mut im) = (Vec::new(), Vec::new());
    plan.forward_split(input, &mut re, &mut im)?;
    Ok(re
        .into_iter()
        .zip(im)
        .map(|(re, im)| Complex::new(re, im))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectrum;

    /// Deterministic pseudo-random signal for a given seed.
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

    fn max_mag(spec: &[Complex]) -> f64 {
        spec.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// The array-of-`Complex` amplitude path this plan replaced,
    /// verbatim: window, pack, in-place bit-reversal swaps, radix-2
    /// stages with per-stage twiddle tables, unpack, `hypot` per bin;
    /// other lengths through the unplanned Bluestein transform.
    mod historical {
        use crate::complex::Complex;
        use crate::{fastmath, fft, window::Window};
        use std::f64::consts::PI;

        fn fft_plan_forward(data: &mut [Complex]) {
            transform(data, false);
        }

        fn transform(data: &mut [Complex], inverse: bool) {
            let n = data.len();
            if n == 1 {
                return;
            }
            let levels = n.trailing_zeros();
            for i in 0..n {
                let j = (i.reverse_bits() >> (usize::BITS - levels)) & (n - 1);
                if j > i {
                    data.swap(i, j);
                }
            }
            let sign = if inverse { 1.0 } else { -1.0 };
            let mut size = 2;
            while size <= n {
                let half = size / 2;
                let step = sign * 2.0 * PI / size as f64;
                let twiddles: Vec<Complex> =
                    (0..half).map(|k| Complex::cis(step * k as f64)).collect();
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
        }

        /// The Bluestein transform as it was before it was planned:
        /// chirp and twiddles recomputed on every call.
        pub fn bluestein(input: &[Complex]) -> Vec<Complex> {
            let n = input.len();
            let sign = -1.0;
            let chirp: Vec<Complex> = (0..n)
                .map(|k| {
                    let k2 = (k as u128 * k as u128) % (2 * n as u128);
                    Complex::cis(sign * PI * k2 as f64 / n as f64)
                })
                .collect();
            let m = fft::next_pow2(2 * n - 1);
            let mut a = vec![Complex::ZERO; m];
            let mut b = vec![Complex::ZERO; m];
            for k in 0..n {
                a[k] = input[k] * chirp[k];
                b[k] = chirp[k].conj();
            }
            for k in 1..n {
                b[m - k] = chirp[k].conj();
            }
            transform(&mut a, false);
            transform(&mut b, false);
            for k in 0..m {
                a[k] *= b[k];
            }
            transform(&mut a, true);
            for z in a.iter_mut() {
                *z = *z / m as f64;
            }
            (0..n).map(|k| a[k] * chirp[k]).collect()
        }

        pub fn one_sided(input: &[f64]) -> Vec<Complex> {
            let n = input.len();
            if !fft::is_power_of_two(n) {
                let complex: Vec<Complex> = input.iter().map(|&x| Complex::new(x, 0.0)).collect();
                let mut full = bluestein(&complex);
                full.truncate(fft::one_sided_len(n));
                return full;
            }
            if n == 1 {
                return vec![Complex::new(input[0], 0.0)];
            }
            let h = n / 2;
            let step = -2.0 * PI / n as f64;
            let twiddles: Vec<Complex> = (0..=h).map(|k| Complex::cis(step * k as f64)).collect();
            let mut packed: Vec<Complex> = input
                .chunks_exact(2)
                .map(|p| Complex::new(p[0], p[1]))
                .collect();
            fft_plan_forward(&mut packed);
            let mut out = Vec::with_capacity(h + 1);
            let z0 = packed[0];
            out.push(Complex::new(z0.re + z0.im, 0.0));
            for k in 1..h {
                let zk = packed[k];
                let zc = packed[h - k].conj();
                let xe = Complex::new((zk.re + zc.re) * 0.5, (zk.im + zc.im) * 0.5);
                let d = zk - zc;
                let xo = Complex::new(d.im * 0.5, -d.re * 0.5);
                out.push(xe + twiddles[k] * xo);
            }
            out.push(Complex::new(z0.re - z0.im, 0.0));
            out
        }

        pub fn amplitude(signal: &[f64], window: Window) -> Vec<f64> {
            let n = signal.len();
            let coeffs = window.coefficients(n);
            let real: Vec<f64> = signal.iter().zip(&coeffs).map(|(&x, &w)| x * w).collect();
            let spec = one_sided(&real);
            let scale = 2.0 / (n as f64 * window.coherent_gain(n));
            let half = fft::one_sided_len(n);
            spec.iter()
                .take(half)
                .enumerate()
                .map(|(k, z)| {
                    let s = if k == 0 || (n % 2 == 0 && k == half - 1) {
                        scale / 2.0
                    } else {
                        scale
                    };
                    fastmath::hypot(z.re, z.im) * s
                })
                .collect()
        }
    }

    fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (k, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what} bin {k}: {a:e} vs {b:e}");
        }
    }

    /// The plan's spectra against the historical path, bit for bit.
    fn assert_matches_historical(x: &[f64], what: &str) {
        for window in [Window::Hann, Window::FlatTop, Window::Rectangular] {
            let amp = spectrum::try_amplitude_spectrum(x, window).unwrap();
            assert_bits(
                &amp,
                &historical::amplitude(x, window),
                &format!("{what} {window}"),
            );
        }
        let z = rfft_one_sided(x).unwrap();
        let want = historical::one_sided(x);
        assert_eq!(z.len(), want.len(), "{what}");
        for (k, (a, b)) in z.iter().zip(&want).enumerate() {
            assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "{what} complex bin {k}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn plan_is_bit_identical_to_the_historical_path() {
        for bits in 1..=16 {
            let n = 1usize << bits;
            for seed in [1u64, 7, 42] {
                let x = noise(n, seed.wrapping_add(n as u64));
                assert_matches_historical(&x, &format!("n={n} seed={seed}"));
            }
        }
        assert_matches_historical(&[3.25], "n=1");
    }

    #[test]
    fn signed_zeros_and_hypot_fallback_bins_are_bit_identical() {
        for n in [2usize, 4, 8, 32, 1024, 4096] {
            assert_matches_historical(&vec![0.0; n], &format!("zeros n={n}"));
            assert_matches_historical(&vec![-0.0; n], &format!("-zeros n={n}"));
            let signs: Vec<f64> = (0..n)
                .map(|i| if i % 3 == 0 { -0.0 } else { 0.0 })
                .collect();
            assert_matches_historical(&signs, &format!("±0 n={n}"));
            // Squares that underflow below MIN_POSITIVE or overflow to ∞
            // take the libm fallback.
            for magnitude in [1e-160, 1e-300, 1e160, 1e300] {
                let x: Vec<f64> = noise(n, 5).iter().map(|v| v * magnitude).collect();
                assert_matches_historical(&x, &format!("n={n} scale {magnitude:e}"));
            }
            // One loud sample over zeros, and sparse ±0 between.
            let mut spike = signs.clone();
            spike[n / 2] = 1e-170;
            assert_matches_historical(&spike, &format!("spike n={n}"));
        }
    }

    #[test]
    fn bluestein_lengths_are_bit_identical() {
        // 11 980 is the identification envelope's length.
        for n in [3usize, 5, 12, 255, 1000, 11_980] {
            assert_matches_historical(&noise(n, 9), &format!("n={n}"));
            assert_matches_historical(&vec![0.0; n], &format!("zeros n={n}"));
        }
    }

    #[test]
    fn cached_bluestein_plans_match_fresh_plans_bitwise() {
        for n in [3usize, 7, 255, 1001, 11_980] {
            let x = noise(n, 13);
            let cached = SpectrumPlan::shared(n, Window::Hann).unwrap();
            assert!(Arc::ptr_eq(
                &cached,
                &SpectrumPlan::shared(n, Window::Hann).unwrap()
            ));
            let fresh = SpectrumPlan::new(n, Window::Hann);
            let (mut re, mut im, mut amp) = (Vec::new(), Vec::new(), Vec::new());
            cached
                .amplitude_into(&x, &mut re, &mut im, &mut amp)
                .unwrap();
            let (mut re2, mut im2, mut amp2) = (Vec::new(), Vec::new(), Vec::new());
            fresh
                .amplitude_into(&x, &mut re2, &mut im2, &mut amp2)
                .unwrap();
            assert_bits(&re, &re2, &format!("re n={n}"));
            assert_bits(&im, &im2, &format!("im n={n}"));
            assert_bits(&amp, &amp2, &format!("amplitude n={n}"));
            // The complex transform of any length against the unplanned
            // Bluestein arithmetic.
            let z: Vec<Complex> = x
                .iter()
                .zip(noise(n, 14))
                .map(|(&a, b)| Complex::new(a, b))
                .collect();
            let planned = fft::fft_any(&z).unwrap();
            let historical = historical::bluestein(&z);
            assert!(
                planned.iter().zip(&historical).all(|(a, b)| {
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
                }),
                "fft_any n={n}"
            );
        }
    }

    #[test]
    fn bluestein_cache_stays_bounded() {
        // Lengths no other test plans, so the count is this test's own.
        let lengths: Vec<usize> = (0..BLUESTEIN_CAP + 3).map(|i| 3001 + 2 * i).collect();
        for &n in &lengths {
            SpectrumPlan::shared(n, Window::FlatTop).unwrap();
        }
        let plans = SHARED.lock().unwrap();
        let kept = plans.iter().filter(|p| p.bluestein.is_some()).count();
        assert!(kept <= BLUESTEIN_CAP, "{kept} Bluestein plans kept");
        let newest = lengths[lengths.len() - 1];
        assert!(plans
            .iter()
            .any(|p| p.n == newest && p.window == Window::FlatTop));
    }

    #[test]
    fn power_of_two_plans_are_shared_per_length_and_window() {
        let a = SpectrumPlan::shared(256, Window::Hann).unwrap();
        let b = SpectrumPlan::shared(256, Window::Hann).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let other_window = SpectrumPlan::shared(256, Window::FlatTop).unwrap();
        assert!(!Arc::ptr_eq(&a, &other_window));
        let other_len = SpectrumPlan::shared(512, Window::Hann).unwrap();
        assert!(!Arc::ptr_eq(&a, &other_len));
        // Bluestein plans are cached too.
        let c = SpectrumPlan::shared(255, Window::Hann).unwrap();
        let d = SpectrumPlan::shared(255, Window::Hann).unwrap();
        assert!(Arc::ptr_eq(&c, &d));
    }

    #[test]
    fn packed_matches_complex_path_across_sizes_and_seeds() {
        // Packed rfft vs the complex reference across power-of-two sizes
        // and several seeds, bounded at 1e-12 of the spectrum scale (a
        // few ulp).
        for n in [2usize, 4, 8, 64, 256, 1024, 4096, 65536] {
            for seed in [1u64, 7, 42] {
                let x = noise(n, seed.wrapping_add(n as u64));
                let packed = rfft_one_sided(&x).unwrap();
                let full = fft::rfft(&x).unwrap();
                assert_eq!(packed.len(), fft::one_sided_len(n));
                let scale = max_mag(&full).max(1.0);
                for (k, (p, f)) in packed.iter().zip(&full).enumerate() {
                    let err = (*p - *f).abs();
                    assert!(
                        err <= 1e-12 * scale,
                        "n={n} seed={seed} bin {k}: |Δ|={err:e} scale={scale:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_and_odd_lengths() {
        // n == 1: identity.
        let one = rfft_one_sided(&[3.25]).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0], Complex::new(3.25, 0.0));
        // n == 2: sum and difference.
        let two = rfft_one_sided(&[1.5, -0.5]).unwrap();
        assert_eq!(two.len(), 2);
        assert!((two[0].re - 1.0).abs() < 1e-15 && two[0].im == 0.0);
        assert!((two[1].re - 2.0).abs() < 1e-15 && two[1].im == 0.0);
        // Odd lengths go through the Bluestein fallback.
        let x = noise(255, 9);
        let spec = rfft_one_sided(&x).unwrap();
        let full = fft::rfft(&x).unwrap();
        assert_eq!(spec.len(), 128);
        let scale = max_mag(&full).max(1.0);
        for (p, f) in spec.iter().zip(&full) {
            assert!((*p - *f).abs() <= 1e-9 * scale);
        }
        // Empty input is rejected.
        assert!(matches!(rfft_one_sided(&[]), Err(DspError::EmptyInput)));
    }

    #[test]
    fn tone_amplitude_and_bin_are_exact() {
        let n = 256;
        let fs = 1000.0;
        let f0 = 125.0; // exactly bin 32
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * f0 * i as f64 / fs).cos())
            .collect();
        let spec = rfft_one_sided(&x).unwrap();
        let bin = fft::freq_bin(f0, n, fs);
        assert!((spec[bin].abs() - n as f64 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn plan_validates_lengths() {
        assert!(matches!(
            SpectrumPlan::shared(0, Window::Hann),
            Err(DspError::EmptyInput)
        ));
        let plan = SpectrumPlan::shared(16, Window::Hann).unwrap();
        assert_eq!(plan.n(), 16);
        let (mut re, mut im) = (Vec::new(), Vec::new());
        assert!(plan.forward_split(&[0.0; 8], &mut re, &mut im).is_err());
    }

    #[test]
    fn forward_split_reuses_buffers() {
        let plan = SpectrumPlan::shared(128, Window::Hann).unwrap();
        let x = noise(128, 3);
        let y = noise(128, 4);
        let (mut re, mut im) = (Vec::new(), Vec::new());
        plan.forward_split(&x, &mut re, &mut im).unwrap();
        let (x_re, x_im) = (re.clone(), im.clone());
        // Stale buffer contents must not leak into a second transform.
        plan.forward_split(&y, &mut re, &mut im).unwrap();
        let (mut fresh_re, mut fresh_im) = (Vec::new(), Vec::new());
        plan.forward_split(&y, &mut fresh_re, &mut fresh_im)
            .unwrap();
        assert_eq!((&re, &im), (&fresh_re, &fresh_im));
        plan.forward_split(&x, &mut fresh_re, &mut fresh_im)
            .unwrap();
        assert_eq!((x_re, x_im), (fresh_re, fresh_im));
    }

    #[test]
    fn parseval_energy_conserved_one_sided() {
        let x = noise(512, 11);
        let spec = rfft_one_sided(&x).unwrap();
        let n = x.len();
        let time_energy: f64 = x.iter().map(|v| v * v).sum();
        // One-sided Parseval: interior bins count twice (conjugate pair).
        let mut freq_energy = spec[0].norm_sqr() + spec[n / 2].norm_sqr();
        for z in &spec[1..n / 2] {
            freq_energy += 2.0 * z.norm_sqr();
        }
        freq_energy /= n as f64;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-10);
    }
}
