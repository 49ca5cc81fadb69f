//! Electromagnetic-field substrate for the PSA reproduction.
//!
//! Replaces the physical magnetic coupling between the chip's switching
//! currents and the sensing structures:
//!
//! * [`dipole`] — each cluster of switching cells is a vertical magnetic
//!   dipole; `Bz` and its flux through arbitrary rectangles/polygons are
//!   integrated with Gauss–Legendre quadrature. The closed-form on-axis
//!   flux `Φ = µ0·m·R²/(2(R²+h²)^{3/2})` decays like 1/R for large loops —
//!   the *flux self-cancellation* that motivates the PSA over a single
//!   whole-chip coil.
//! * [`coupling`] — precomputed cluster→sensor coupling matrices.
//! * [`emitter`] — on-demand coupling rows for placeable synthetic
//!   emitters (the localization-accuracy atlas).
//! * [`induction`] — Faraday induction: v(t) = −Σ M·dI/dt.
//! * [`noise`] — Johnson–Nyquist thermal noise and the seeded Gaussian
//!   generator every noise draw comes from (the amplifier's input noise
//!   lives in `psa-analog`, the external probes' ambient floor in
//!   [`probe`]).
//! * [`probe`] — external probe geometries (Langer LF1, ICR HH100-6) and
//!   the whole-die single-coil sensor of He et al. (DAC'20), the two
//!   baselines PSA is compared against in Table I.
//!
//! # Example
//!
//! ```
//! use psa_field::dipole::Dipole;
//! use psa_layout::Point;
//!
//! let d = Dipole::new(Point::new(500.0, 500.0), 1.0e-12);
//! // Flux through a small loop right above beats a whole-die loop:
//! let small = psa_layout::Rect::new(450.0, 450.0, 550.0, 550.0);
//! let large = psa_layout::Rect::new(0.0, 0.0, 1000.0, 1000.0);
//! let phi_small = d.flux_through_polygon(&small.to_polygon(), 5.0);
//! let phi_large = d.flux_through_polygon(&large.to_polygon(), 5.0);
//! assert!(phi_small > 0.9 * phi_large); // large loop gains almost nothing
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coupling;
pub mod dipole;
pub mod emitter;
pub mod error;
pub mod induction;
pub mod noise;
pub mod probe;

pub use error::FieldError;
