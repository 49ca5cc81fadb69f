//! In-tree elementary-function kernels for the per-sample record loops.
//!
//! Every record of every campaign runs four per-sample loops: the
//! Box–Muller front-end noise (`ln`, `sin`, `cos`), the amplitude
//! spectrum's magnitudes (`hypot`), the dB conversion (`log10`), and
//! the ADC quantizer (`round`). On the baseline x86-64 target each of
//! those is an out-of-line libm call. The kernels here are small,
//! branch-free and inlinable, so the loops they sit in stay straight-line
//! code:
//!
//! * [`ln`] and [`log10`] — fdlibm's reduction to `1 + f` with `f` in
//!   `[√2/2 − 1, √2 − 1)` and its `Lg1..Lg7` minimax polynomial for
//!   `log(1 + f)`; `log10` carries the result in a split hi/lo pair.
//! * [`sincos`] — a three-round Cody–Waite reduction by `π/2` (151 bits
//!   of `π/2`) and fdlibm's `S1..S6` / `C1..C6` kernels, sharing one
//!   reduction between `sin` and `cos`.
//! * [`hypot`] — `√(x² + y²)`, with `f64::hypot` kept only for the
//!   inputs whose squared sum is not a normal number.
//! * [`round`] — `f64::round` by round-to-even-and-adjust,
//!   bit-identical.
//!
//! Each kernel states its domain and its error bound against the
//! correctly rounded result; the tests sweep each domain against `std`
//! and assert the bound in ulps. The tolerance policy these bounds feed
//! is written once in `PERFORMANCE.md`.
//!
//! Constants are kept as their IEEE-754 bit patterns (the fdlibm
//! sources give the same words in hex) and turned into `f64` with
//! `f64::from_bits` where they are used, so no decimal literal relies on
//! round-to-nearest parsing (`f64::from_bits` is not `const` at the
//! workspace's minimum Rust version).

/// `ln 2` as a hi/lo pair: the high word has 32 significant bits, so
/// `k·hi` is exact for any binary exponent `k`.
const LN2: [u64; 2] = [0x3FE6_2E42_FEE0_0000, 0x3DEA_39EF_3579_3C76];
/// `log10 2` as a hi/lo pair (`k·hi` exact).
const LOG10_2: [u64; 2] = [0x3FD3_4413_509F_6000, 0x3D59_FEF3_11F1_2B36];
/// `1 / ln 10` as a hi/lo pair (33 significant bits in the high word).
const IVLN10: [u64; 2] = [0x3FDB_CB7B_1520_0000, 0x3DBB_9438_CA9A_ADD5];

/// fdlibm's minimax coefficients `Lg1..Lg7` of
/// `R(z) ≈ (log(1 + f) − f + f²/2 − s·f²/2) / s`, `s = f / (2 + f)`,
/// `z = s²`: `|R − (Lg1·z + … + Lg7·z⁷)| < 2⁻⁵⁸·⁴⁵`.
const LG: [u64; 7] = [
    0x3FE5_5555_5555_5593,
    0x3FD9_9999_9997_FA04,
    0x3FD2_4924_9422_9359,
    0x3FCC_71C5_1D8E_78AF,
    0x3FC7_4664_96CB_03DE,
    0x3FC3_9A09_D078_C69F,
    0x3FC2_F112_DF3E_5244,
];

/// `2/π`.
const INV_PIO2: u64 = 0x3FE4_5F30_6DC9_C883;
/// `π/2` in three 33-bit words plus a 53-bit tail: `n·word` is exact for
/// `|n| < 2²⁰`, and the four words carry 151 bits of `π/2`.
const PIO2: [u64; 4] = [
    0x3FF9_21FB_5440_0000,
    0x3DD0_B461_1A60_0000,
    0x3BA3_198A_2E00_0000,
    0x397B_839A_2520_49C1,
];
/// `1.5·2⁵²`: adding and subtracting it rounds a `|t| < 2⁵¹` to the
/// nearest integer (ties to even).
const TOINT: u64 = 0x4338_0000_0000_0000;

/// fdlibm's `sin` kernel coefficients `S1..S6` on `[−π/4, π/4]`:
/// `|sin x / x − (1 + S1·x² + … + S6·x¹²)| ≤ 2⁻⁵⁸`.
const S: [u64; 6] = [
    0xBFC5_5555_5555_5549,
    0x3F81_1111_1110_F8A6,
    0xBF2A_01A0_19C1_61D5,
    0x3EC7_1DE3_57B1_FE7D,
    0xBE5A_E5E6_8A2B_9CEB,
    0x3DE5_D93A_5ACF_D57C,
];

/// fdlibm's `cos` kernel coefficients `C1..C6` on `[−π/4, π/4]`:
/// `|cos x − (1 − x²/2 + C1·x⁴ + … + C6·x¹⁴)| ≤ 2⁻⁵⁸`.
const C: [u64; 6] = [
    0x3FA5_5555_5555_554C,
    0xBF56_C16C_16C1_5177,
    0x3EFA_01A0_19CB_1590,
    0xBE92_7E4F_809C_52AD,
    0x3E21_EE9E_BDB4_B1C4,
    0xBDA8_FAE9_BE88_38D4,
];

/// Splits a positive normal `x` into `x = 2^k · (1 + f)` with
/// `1 + f` in `[√2/2, √2)`, and returns `(f, k)`.
#[inline(always)]
fn reduce_log(x: f64) -> (f64, f64) {
    let bits = x.to_bits();
    // Bias the high word so the exponent steps up exactly where the
    // mantissa crosses √2 (0x3FE6A09E is the high word of √2/2).
    let hx = ((bits >> 32) as u32).wrapping_add(0x3FF0_0000 - 0x3FE6_A09E);
    let k = (hx >> 20) as i32 - 0x3FF;
    let hm = u64::from((hx & 0x000F_FFFF) + 0x3FE6_A09E);
    let m = f64::from_bits(hm << 32 | (bits & 0xFFFF_FFFF));
    (m - 1.0, f64::from(k))
}

/// `s·(f²/2 + R(s²))` with `s = f / (2 + f)`, and `f²/2`: the pieces
/// of `log(1 + f) = f − f²/2 + s·(f²/2 + R)` both logarithms share.
#[inline(always)]
fn log1p_tail(f: f64) -> (f64, f64) {
    let [lg1, lg2, lg3, lg4, lg5, lg6, lg7] = LG.map(f64::from_bits);
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (lg2 + w * (lg4 + w * lg6));
    let t2 = z * (lg1 + w * (lg3 + w * (lg5 + w * lg7)));
    (s * (hfsq + t2 + t1), hfsq)
}

/// Natural logarithm of a positive normal `x`
/// (`f64::MIN_POSITIVE ≤ x < ∞`).
///
/// fdlibm's algorithm: error below 1 ulp, so the result is one of the
/// two doubles bracketing `ln x`, and `ln 1 = +0` exactly. Outside the
/// domain (zero, negative, subnormal, infinite or NaN input) the result
/// is unspecified; callers guard those cases.
///
/// # Example
///
/// ```
/// use psa_dsp::fastmath;
/// assert_eq!(fastmath::ln(1.0), 0.0);
/// assert!((fastmath::ln(0.5) + std::f64::consts::LN_2).abs() < 1e-16);
/// ```
#[inline]
pub fn ln(x: f64) -> f64 {
    let (f, k) = reduce_log(x);
    let (tail, hfsq) = log1p_tail(f);
    let [ln2_hi, ln2_lo] = LN2.map(f64::from_bits);
    tail + k * ln2_lo - hfsq + f + k * ln2_hi
}

/// Base-10 logarithm of a positive normal `x`
/// (`f64::MIN_POSITIVE ≤ x < ∞`).
///
/// fdlibm's algorithm: `log(1 + f)` is carried as a hi/lo pair (`hi`
/// with 20 significant bits, so its product with the 33-bit high word
/// of `1/ln 10` is exact) and `k·log10 2` is added with a compensated
/// sum. Error below 1 ulp; `log10(10ⁿ) = n`
/// exactly for the powers of ten the tests sweep. Outside the domain
/// the result is unspecified.
///
/// # Example
///
/// ```
/// use psa_dsp::fastmath;
/// assert_eq!(fastmath::log10(1000.0), 3.0);
/// assert_eq!(fastmath::log10(1.0), 0.0);
/// ```
#[inline]
pub fn log10(x: f64) -> f64 {
    let (f, k) = reduce_log(x);
    let (tail, hfsq) = log1p_tail(f);
    let hi = f64::from_bits((f - hfsq).to_bits() & 0xFFFF_FFFF_0000_0000);
    let lo = f - hi - hfsq + tail;
    let [ivln10_hi, ivln10_lo] = IVLN10.map(f64::from_bits);
    let [log10_2_hi, log10_2_lo] = LOG10_2.map(f64::from_bits);
    let val_hi = hi * ivln10_hi;
    let y = k * log10_2_hi;
    let val_lo = k * log10_2_lo + (lo + hi) * ivln10_lo + lo * ivln10_hi;
    let w = y + val_hi;
    (val_lo + ((y - w) + val_hi)) + w
}

/// `sin(x + y)` for a reduced `|x| ≤ π/4` with tail `|y| ≤ ulp(x)/2`.
#[inline(always)]
fn kernel_sin(x: f64, y: f64) -> f64 {
    let [s1, s2, s3, s4, s5, s6] = S.map(f64::from_bits);
    let z = x * x;
    let w = z * z;
    let r = s2 + z * (s3 + z * s4) + z * w * (s5 + z * s6);
    let v = z * x;
    x - ((z * (0.5 * y - v * r) - y) - v * s1)
}

/// `cos(x + y)` for a reduced `|x| ≤ π/4` with tail `|y| ≤ ulp(x)/2`.
#[inline(always)]
fn kernel_cos(x: f64, y: f64) -> f64 {
    let [c1, c2, c3, c4, c5, c6] = C.map(f64::from_bits);
    let z = x * x;
    let w = z * z;
    let r = z * (c1 + z * (c2 + z * c3)) + w * w * (c4 + z * (c5 + z * c6));
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    w + (((1.0 - w) - hz) + (z * r - x * y))
}

/// `(sin θ, cos θ)` for `θ` in `[0, 2π]`.
///
/// One reduction serves both results: `θ = n·π/2 + (y0 + y1)` with `n`
/// the nearest integer to `θ·2/π`, computed in three Cody–Waite rounds
/// so `y0 + y1` stays accurate right next to the multiples of `π/2`,
/// where `sin` or `cos` is tiny. The quadrant `n mod 4` then swaps and
/// negates the two kernel values without a branch. Error below 1 ulp
/// for each result on the documented domain (the reduction stays exact
/// for `|θ| < 2²⁰·π/2`, but only `[0, 2π]` is swept by the tests).
///
/// # Example
///
/// ```
/// use psa_dsp::fastmath;
/// let (s, c) = fastmath::sincos(0.5);
/// assert!((s - 0.5f64.sin()).abs() <= f64::EPSILON * s);
/// assert!((c - 0.5f64.cos()).abs() <= f64::EPSILON * c);
/// ```
#[inline]
pub fn sincos(theta: f64) -> (f64, f64) {
    let [pio2_1, pio2_2, pio2_3, pio2_3t] = PIO2.map(f64::from_bits);
    let toint = f64::from_bits(TOINT);
    let n = (theta * f64::from_bits(INV_PIO2) + toint) - toint;
    // First round: `n·pio2_1` is exact and so is the subtraction
    // (Sterbenz), leaving `r` with the reduction's full 53 bits.
    let r = theta - n * pio2_1;
    // Second and third rounds subtract the next 33-bit words of π/2;
    // `e2` and `e3` are their subtractions' rounding errors
    // (`r − w2 = r2 + e2`), folded into the 53-bit tail.
    let w2 = n * pio2_2;
    let r2 = r - w2;
    let e2 = (r - r2) - w2;
    let w3 = n * pio2_3;
    let r3 = r2 - w3;
    let e3 = (r2 - r3) - w3;
    let w = n * pio2_3t - (e3 + e2);
    let y0 = r3 - w;
    let y1 = (r3 - y0) - w;

    let s = kernel_sin(y0, y1);
    let c = kernel_cos(y0, y1);
    // Quadrant q: (sin, cos) = (s, c), (c, −s), (−s, −c), (−c, s).
    let q = n as i64;
    let odd = q & 1 != 0;
    let (sin, cos) = if odd { (c, -s) } else { (s, c) };
    let flip = ((q as u64) & 2) << 62;
    (
        f64::from_bits(sin.to_bits() ^ flip),
        f64::from_bits(cos.to_bits() ^ flip),
    )
}

/// `√(x² + y²)`: the magnitude of `x + iy`.
///
/// When `x² + y²` is a normal number the squared sum and the root are
/// computed directly (error at most one rounding beyond `f64::hypot`'s;
/// the tests bound it at 1 ulp). A squared sum that underflowed,
/// overflowed or is NaN falls back to `f64::hypot`, which scales first,
/// so zero, subnormal, huge, infinite and NaN components keep
/// `f64::hypot`'s result exactly.
///
/// # Example
///
/// ```
/// use psa_dsp::fastmath;
/// assert_eq!(fastmath::hypot(3.0, 4.0), 5.0);
/// assert_eq!(fastmath::hypot(1e200, 1e200), 1e200f64.hypot(1e200));
/// ```
#[inline]
pub fn hypot(x: f64, y: f64) -> f64 {
    let sq = x * x + y * y;
    if (f64::MIN_POSITIVE..f64::INFINITY).contains(&sq) {
        sq.sqrt()
    } else {
        x.hypot(y)
    }
}

/// `f64::round` (half away from zero), bit-identical for every input
/// including `±0.0`, infinities and NaN, without the libm call the
/// baseline x86-64 target makes for it.
///
/// Below 2⁵² in magnitude, adding and subtracting 2⁵² rounds `|x|` to
/// an integer exactly, with ties to even; the remainder `|x| − t` is
/// then exact, and a tie that went down to the even integer (remainder
/// exactly one half) goes up instead. The sign is copied back, so
/// `−0.3` rounds to `−0.0`. Larger magnitudes, infinities and NaN take
/// `x + 0.0`: the first two are already integral and come back
/// unchanged, and a NaN comes back quieted, as libm returns it. Both
/// outcomes are computed and one is selected, with no branch, so a
/// sample loop that calls it vectorizes.
///
/// # Example
///
/// ```
/// use psa_dsp::fastmath;
/// assert_eq!(fastmath::round(2.5), 3.0);
/// assert_eq!(fastmath::round(-2.5), -3.0);
/// assert_eq!(fastmath::round(-0.3).to_bits(), (-0.0f64).to_bits());
/// ```
#[inline]
pub fn round(x: f64) -> f64 {
    const TWO52: f64 = 4_503_599_627_370_496.0;
    let a = x.abs();
    let t = (a + TWO52) - TWO52;
    let t = t + if a - t >= 0.5 { 1.0 } else { 0.0 };
    let small = t.copysign(x);
    // `|x| ≥ 2⁵²` is never −0.0, so `x + 0.0` is `x` there.
    let large = x + 0.0;
    if a < TWO52 {
        small
    } else {
        large
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// Distance in representable doubles between two finite values of
    /// the same sign (or zeros).
    fn ulps(a: f64, b: f64) -> u64 {
        let key = |x: f64| {
            let bits = x.to_bits() as i64;
            if bits < 0 {
                i64::MIN - bits
            } else {
                bits
            }
        };
        key(a).abs_diff(key(b))
    }

    /// Dense sweep of `[lo, hi)`: a uniform grid plus a geometric one,
    /// so both ends of a wide interval get points.
    fn sweep(lo: f64, hi: f64, n: usize) -> impl Iterator<Item = f64> {
        let lin = (0..n).map(move |i| lo + (hi - lo) * i as f64 / n as f64);
        let ratio = (hi / lo).powf(1.0 / n as f64);
        let geo = (0..n).map(move |i| lo * ratio.powi(i as i32));
        lin.chain(geo).filter(move |x| *x >= lo && *x < hi)
    }

    fn max_ulps(xs: impl Iterator<Item = f64>, f: impl Fn(f64) -> (f64, f64)) -> (u64, f64) {
        let mut worst = (0, f64::NAN);
        for x in xs {
            let (got, want) = f(x);
            let d = ulps(got, want);
            if d > worst.0 {
                worst = (d, x);
            }
        }
        worst
    }

    #[test]
    fn constants_match_their_decimal_values() {
        let pair = |[hi, lo]: [u64; 2]| f64::from_bits(hi) + f64::from_bits(lo);
        let [p1, p2, p3, _] = PIO2.map(f64::from_bits);
        let checks = [
            (pair(LN2), std::f64::consts::LN_2),
            (pair(LOG10_2), std::f64::consts::LOG10_2),
            (pair(IVLN10), std::f64::consts::LOG10_E),
            (p1 + p2 + p3, std::f64::consts::FRAC_PI_2),
            (f64::from_bits(INV_PIO2), std::f64::consts::FRAC_2_PI),
            (f64::from_bits(TOINT), 6_755_399_441_055_744.0),
        ];
        for (i, (got, want)) in checks.into_iter().enumerate() {
            assert!(ulps(got, want) <= 1, "constant {i}: {got:e} vs {want:e}");
        }
        // The leading terms of the Taylor series the kernels refine.
        assert!((f64::from_bits(S[0]) + 1.0 / 6.0).abs() < 1e-15);
        assert!((f64::from_bits(C[0]) - 1.0 / 24.0).abs() < 1e-15);
        assert!((f64::from_bits(LG[0]) - 2.0 / 3.0).abs() < 1e-14);
    }

    #[test]
    fn ln_is_within_one_ulp_of_std_on_the_uniform_range() {
        // The Box–Muller radius takes ln of u in [2⁻⁵³, 1).
        let lo = 2f64.powi(-53);
        let (worst, at) = max_ulps(sweep(lo, 1.0, 200_000), |x| (ln(x), x.ln()));
        assert!(worst <= 1, "ln: {worst} ulp at {at:e}");
        // Points next to 1, where ln x ≈ x − 1 is tiny.
        let mut x = 1.0f64;
        for _ in 0..4096 {
            x = f64::from_bits(x.to_bits() - 1);
            assert!(ulps(ln(x), x.ln()) <= 1, "ln near 1 at {x:e}");
        }
        assert_eq!(ln(1.0).to_bits(), 0.0f64.to_bits());
        // Powers of two and their neighbours.
        for e in -53..=0 {
            let p = 2f64.powi(e);
            for x in [
                p,
                f64::from_bits(p.to_bits() - 1),
                f64::from_bits(p.to_bits() + 1),
            ] {
                if (lo..1.0).contains(&x) {
                    assert!(ulps(ln(x), x.ln()) <= 1, "ln at 2^{e} neighbour {x:e}");
                }
            }
        }
    }

    #[test]
    fn ln_covers_the_whole_normal_range() {
        let (worst, at) = max_ulps(sweep(f64::MIN_POSITIVE, f64::MAX, 50_000), |x| {
            (ln(x), x.ln())
        });
        assert!(worst <= 1, "ln: {worst} ulp at {at:e}");
    }

    #[test]
    fn sincos_is_within_one_ulp_of_std_on_zero_to_two_pi() {
        let two_pi = 2.0 * PI;
        let mut points: Vec<f64> = sweep(1e-300, two_pi, 200_000).collect();
        // The Box–Muller angles themselves: 2π·u on the 2⁻⁵³ grid.
        points.extend((0..200_000u64).map(|i| two_pi * (i as f64 / 200_000.0)));
        points.push(two_pi * (1.0 - 2f64.powi(-53)));
        points.push(two_pi);
        points.push(0.0);
        // k·π/2 and their neighbours, where sin or cos is tiny.
        for k in 0..=4 {
            let x = k as f64 * std::f64::consts::FRAC_PI_2;
            for d in -64i64..=64 {
                let bits = (x.to_bits() as i64 + d).max(0) as u64;
                let x = f64::from_bits(bits);
                if (0.0..=two_pi).contains(&x) {
                    points.push(x);
                }
            }
        }
        let (ws, at_s) = max_ulps(points.iter().copied(), |x| (sincos(x).0, x.sin()));
        let (wc, at_c) = max_ulps(points.iter().copied(), |x| (sincos(x).1, x.cos()));
        assert!(ws <= 1, "sin: {ws} ulp at {at_s:e}");
        assert!(wc <= 1, "cos: {wc} ulp at {at_c:e}");
        assert_eq!(sincos(0.0), (0.0, 1.0));
    }

    #[test]
    fn sincos_quadrants_have_the_right_signs() {
        // One point well inside each quadrant: a swapped or mis-signed
        // quadrant shows as a sign or magnitude error here, not as ulps.
        for q in 0..4 {
            let x = (q as f64 + 0.3) * std::f64::consts::FRAC_PI_2;
            let (s, c) = sincos(x);
            assert!((s - x.sin()).abs() < 1e-15, "sin quadrant {q}");
            assert!((c - x.cos()).abs() < 1e-15, "cos quadrant {q}");
        }
    }

    #[test]
    fn log10_is_within_two_ulp_of_std() {
        // Two, not one: glibc's log10 is not faithful (it is up to
        // ≈1.1 ulp off, e.g. at x = 0.5636765918736993, checked against
        // a 50-digit reference), so it and a faithful kernel can sit on
        // either side of a neighbour. The kernel itself measured 0.54 ulp
        // there.
        let (worst, at) = max_ulps(sweep(1e-15, 1e6, 200_000), |x| (log10(x), x.log10()));
        assert!(worst <= 2, "log10: {worst} ulp at {at:e}");
        let (worst, at) = max_ulps(sweep(f64::MIN_POSITIVE, f64::MAX, 50_000), |x| {
            (log10(x), x.log10())
        });
        assert!(worst <= 2, "log10 (normal range): {worst} ulp at {at:e}");
    }

    #[test]
    fn log10_of_exact_powers_of_ten_is_exact() {
        let mut p = 1.0f64;
        for n in 0..=22 {
            assert_eq!(log10(p), n as f64, "log10(1e{n})");
            p *= 10.0;
        }
        // Negative powers are not exact doubles; they stay within 1 ulp.
        for n in 1..=15 {
            let x = 10f64.powi(-n);
            assert!(ulps(log10(x), -(n as f64)) <= 1, "log10(1e-{n})");
        }
    }

    #[test]
    fn hypot_is_within_one_ulp_and_keeps_std_at_the_edges() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for e in [-150, -60, -8, 0, 8, 60, 150] {
            let scale = 2f64.powi(e);
            for _ in 0..20_000 {
                let (x, y) = (next() * scale, next() * scale);
                assert!(ulps(hypot(x, y), x.hypot(y)) <= 1, "hypot({x:e}, {y:e})");
            }
        }
        let edges = [
            0.0,
            -0.0,
            5e-324,
            1e-200,
            1e200,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for &x in &edges {
            for &y in &edges {
                assert_eq!(
                    hypot(x, y).to_bits(),
                    x.hypot(y).to_bits(),
                    "hypot({x:e}, {y:e})"
                );
            }
        }
    }

    #[test]
    fn round_matches_std_bitwise() {
        let two52 = 2f64.powi(52);
        let mut xs = vec![
            0.0,
            0.5,
            0.49999999999999994,
            1.5,
            2.5,
            1e300,
            f64::MIN_POSITIVE,
            5e-324,
            f64::INFINITY,
            f64::NAN,
            two52,
            two52 - 0.5,
            two52 - 1.0,
            two52 + 1.0,
            2f64.powi(53),
            // Signed zeros, and magnitudes at and beyond 2⁵², which take
            // the pass-through arm.
            -0.0,
            two52 + 2.0,
            two52 * 1.5,
            2f64.powi(63),
            f64::MAX,
            f64::NEG_INFINITY,
            // Quiet and signalling NaNs with payloads, both signs: libm
            // returns each quieted with its sign and payload.
            -f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001),
            f64::from_bits(0xFFF0_0000_0000_0001),
            f64::from_bits(0x7FF4_0000_0000_0000),
            f64::from_bits(0x7FF8_0000_DEAD_BEEF),
        ];
        for d in 1..=8u64 {
            xs.push(f64::from_bits(two52.to_bits() - d));
            xs.push(f64::from_bits(two52.to_bits() + d));
        }
        for k in 0..=4096 {
            xs.push(k as f64 + 0.5);
            xs.push(k as f64);
            xs.push(f64::from_bits((k as f64 + 0.5).to_bits() - 1));
            xs.push(f64::from_bits((k as f64 + 0.5).to_bits() + 1));
        }
        let mut state = 7u64;
        for _ in 0..100_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            xs.push(f64::from_bits(state));
            xs.push(((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 8192.0);
        }
        for x in xs.clone() {
            xs.push(-x);
        }
        for x in xs {
            assert_eq!(round(x).to_bits(), x.round().to_bits(), "round({x:e})");
        }
    }
}
