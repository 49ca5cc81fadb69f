//! Minimal complex-number arithmetic.
//!
//! A deliberately small `f64` complex type — only the operations the rest of
//! the workspace needs (FFT butterflies, mixing, magnitude extraction). Kept
//! local so the workspace has no numerical dependencies.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// # Example
///
/// ```
/// use psa_dsp::Complex;
///
/// let z = Complex::new(3.0, 4.0);
/// assert_eq!(z.abs(), 5.0);
/// assert_eq!((z * z.conj()).re, 25.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates `r·e^{iθ}` from polar coordinates.
    ///
    /// # Example
    ///
    /// ```
    /// use psa_dsp::Complex;
    /// let z = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_2);
    /// assert!((z.re).abs() < 1e-12);
    /// assert!((z.im - 2.0).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex::new(r * theta.cos(), r * theta.sin())
    }

    /// Unit phasor `e^{iθ}`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²` (avoids the square root).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex::new(self.re * k, self.im * k)
    }

    /// Reciprocal `1/z`.
    ///
    /// Returns non-finite components when `z` is zero, mirroring `f64`
    /// division semantics.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Complex::new(self.re / d, -self.im / d)
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::new(re, 0.0)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    // Division via the reciprocal is the intended formula, not a typo.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn construction_and_constants() {
        assert_eq!(Complex::ZERO, Complex::new(0.0, 0.0));
        assert_eq!(Complex::ONE, Complex::new(1.0, 0.0));
        assert_eq!(Complex::I, Complex::new(0.0, 1.0));
        assert_eq!(Complex::from(2.5), Complex::new(2.5, 0.0));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Complex::new(1.5, -2.0);
        let b = Complex::new(-0.5, 3.25);
        assert_eq!(a + b - b, a);
        let mut c = a;
        c += b;
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn multiplication_matches_expansion() {
        let a = Complex::new(2.0, 3.0);
        let b = Complex::new(4.0, -5.0);
        // (2+3i)(4-5i) = 8 - 10i + 12i + 15 = 23 + 2i
        let p = a * b;
        assert!((p.re - 23.0).abs() < EPS);
        assert!((p.im - 2.0).abs() < EPS);
    }

    #[test]
    fn i_squared_is_minus_one() {
        let p = Complex::I * Complex::I;
        assert!((p.re + 1.0).abs() < EPS);
        assert!(p.im.abs() < EPS);
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-3.0, 0.5);
        let q = (a * b) / b;
        assert!((q.re - a.re).abs() < 1e-10);
        assert!((q.im - a.im).abs() < 1e-10);
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::from_polar(3.0, 1.234);
        assert!((z.abs() - 3.0).abs() < EPS);
        assert!((z.im.atan2(z.re) - 1.234).abs() < EPS);
    }

    #[test]
    fn cis_is_unit_magnitude() {
        for k in 0..32 {
            let z = Complex::cis(k as f64 * 0.7);
            assert!((z.abs() - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn conjugate_properties() {
        let z = Complex::new(1.25, -4.5);
        assert_eq!(z.conj().conj(), z);
        let p = z * z.conj();
        assert!((p.im).abs() < EPS);
        assert!((p.re - z.norm_sqr()).abs() < EPS);
    }

    #[test]
    fn norm_sqr_consistent_with_abs() {
        let z = Complex::new(-2.0, 7.0);
        assert!((z.norm_sqr() - z.abs() * z.abs()).abs() < 1e-9);
    }

    #[test]
    fn recip_is_inverse() {
        let z = Complex::new(0.3, -0.7);
        let p = z * z.recip();
        assert!((p.re - 1.0).abs() < EPS);
        assert!(p.im.abs() < EPS);
    }

    #[test]
    fn sum_over_iterator() {
        let zs = [
            Complex::new(1.0, 1.0),
            Complex::new(2.0, -1.0),
            Complex::new(-3.0, 0.5),
        ];
        let s: Complex = zs.iter().copied().sum();
        assert!((s.re - 0.0).abs() < EPS);
        assert!((s.im - 0.5).abs() < EPS);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn neg_negates_both_parts() {
        let z = -Complex::new(1.0, -2.0);
        assert_eq!(z, Complex::new(-1.0, 2.0));
    }

    #[test]
    fn scalar_ops() {
        let z = Complex::new(1.0, -2.0) * 2.0;
        assert_eq!(z, Complex::new(2.0, -4.0));
        assert_eq!(z / 2.0, Complex::new(1.0, -2.0));
    }
}
