//! Digital activity substrate for the PSA reproduction.
//!
//! Electromagnetic emanations come from switching currents. This crate
//! produces cycle-accurate switching activity for the paper's test chip:
//!
//! * [`aes`] — a real AES-128 (FIPS-197) whose round-by-round Hamming
//!   distances drive the data-dependent part of the activity (the standard
//!   side-channel power abstraction).
//! * [`uart`] — RS232 framing used to stream plaintext/ciphertext, with
//!   its own (slow) switching activity.
//! * [`lfsr`] — the on-chip pattern generator (`en_LFSR` pin in Fig 2).
//! * [`trojan`] — models of T1–T4 with the Table II cell counts and the
//!   paper's triggering conditions, each producing a distinct payload
//!   activity envelope (the fingerprints of Fig 5).
//! * [`activity`] — per-cycle, per-module toggle counts for a whole
//!   encryption schedule.
//! * [`current`] — converts toggle counts into supply-current waveforms
//!   i(t) at the EM simulation rate (triangular per-edge pulses).
//! * [`synth`] — parametric *synthetic* Trojan emitters (drive strength,
//!   switching signature) placeable anywhere on the die, the emission
//!   side of the localization-accuracy atlas.
//!
//! # Example
//!
//! ```
//! use psa_gatesim::aes::Aes128;
//!
//! // FIPS-197 test vector.
//! let key = [0u8; 16];
//! let aes = Aes128::new(&key);
//! let ct = aes.encrypt_block(&[0u8; 16]);
//! assert_eq!(ct[0], 0x66);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod aes;
pub mod current;
pub mod error;
pub mod lfsr;
pub mod synth;
pub mod trojan;
pub mod uart;

pub use error::GatesimError;
