//! Tamper-resilience checks (paper Sec. IV).
//!
//! The PSA defends itself: "any modifications that disable the PSA will
//! trigger alarms during the test phase, as the PSA will return testing
//! values". This module implements the structural test-phase check:
//! every preset programming must extract exactly one closed loop (an
//! open = cut wire or stuck-open switch; an extra loop = short or
//! stuck-closed switch).

use crate::coil::extract_all_cycles;
use crate::error::ArrayError;
use crate::lattice::Lattice;
use crate::program::{decode_psa_sel, SwitchMatrix};
use std::fmt;

/// Verdict of a tamper check.
#[derive(Debug, Clone, PartialEq)]
pub enum TamperVerdict {
    /// Every sensor programming extracts exactly one loop.
    Clean,
    /// A sensor programming produced no closed loop (open circuit).
    OpenCircuit {
        /// The sensor that failed.
        sensor: usize,
    },
    /// A sensor programming produced extra loops (short circuit).
    ShortCircuit {
        /// The sensor that failed.
        sensor: usize,
        /// Number of loops found.
        loops: usize,
    },
}

impl fmt::Display for TamperVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TamperVerdict::Clean => write!(f, "clean"),
            TamperVerdict::OpenCircuit { sensor } => {
                write!(f, "open circuit on sensor {sensor}")
            }
            TamperVerdict::ShortCircuit { sensor, loops } => {
                write!(f, "short circuit on sensor {sensor} ({loops} loops)")
            }
        }
    }
}

/// Test-phase structural check: programs every preset sensor through
/// the decoder and verifies exactly one loop extracts. A fault injector
/// can corrupt the matrix between programming and checking via
/// `corrupt`.
///
/// # Errors
///
/// Propagates lattice/decoder errors ([`ArrayError`]) that indicate a
/// misconfigured bank rather than tampering.
pub fn structural_check(
    lattice: &Lattice,
    corrupt: impl Fn(&mut SwitchMatrix, usize),
) -> Result<TamperVerdict, ArrayError> {
    for sensor in 0..16usize {
        let mut m = SwitchMatrix::new(lattice);
        decode_psa_sel(&mut m, sensor as u8)?;
        corrupt(&mut m, sensor);
        let cycles = extract_all_cycles(lattice, &m)?;
        match cycles.len() {
            1 => {}
            0 => return Ok(TamperVerdict::OpenCircuit { sensor }),
            n => return Ok(TamperVerdict::ShortCircuit { sensor, loops: n }),
        }
    }
    Ok(TamperVerdict::Clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untampered_bank_is_clean() {
        let l = Lattice::date24();
        let v = structural_check(&l, |_, _| {}).unwrap();
        assert_eq!(v, TamperVerdict::Clean);
    }

    #[test]
    fn stuck_open_switch_detected() {
        let l = Lattice::date24();
        // Corrupt sensor 10: open its outer top-right corner switch.
        let v = structural_check(&l, |m, sensor| {
            if sensor == 10 {
                m.open(16, 28).unwrap();
            }
        })
        .unwrap();
        assert_eq!(v, TamperVerdict::OpenCircuit { sensor: 10 });
    }

    #[test]
    fn stuck_closed_switch_detected() {
        let l = Lattice::date24();
        // Add a second full rectangle on sensor 3's programming.
        let v = structural_check(&l, |m, sensor| {
            if sensor == 3 {
                m.program_rectangle(30, 0, 34, 4).unwrap();
            }
        })
        .unwrap();
        assert_eq!(
            v,
            TamperVerdict::ShortCircuit {
                sensor: 3,
                loops: 2
            }
        );
    }

    #[test]
    fn verdicts_display() {
        assert_eq!(TamperVerdict::Clean.to_string(), "clean");
        assert!(TamperVerdict::OpenCircuit { sensor: 2 }
            .to_string()
            .contains("sensor 2"));
        assert!(TamperVerdict::ShortCircuit {
            sensor: 1,
            loops: 3
        }
        .to_string()
        .contains("3 loops"));
    }
}
