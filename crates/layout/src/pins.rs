//! QFN package IO pin assignment (paper Fig 2).
//!
//! The test chip uses a 6 mm × 6 mm QFN with 8 IO pins per side. The
//! right side carries the four differential PSA output channels
//! (`Sensor1±` … `Sensor4±`); the bottom carries power and the 4-bit
//! `PSA_sel` sensor-select bus; the left and top carry UART, clock,
//! reset, and the Trojan enable/observation pins used in the experiments.

use std::fmt;

/// Which side of the QFN package a pin is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PinSide {
    /// Left edge (pins 1–8, bottom to top).
    Left,
    /// Top edge (pins 9–16, left to right).
    Top,
    /// Right edge (pins 17–24, top to bottom).
    Right,
    /// Bottom edge (pins 25–32, right to left).
    Bottom,
}

impl fmt::Display for PinSide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PinSide::Left => "left",
            PinSide::Top => "top",
            PinSide::Right => "right",
            PinSide::Bottom => "bottom",
        };
        f.write_str(s)
    }
}

/// One package pin.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pin {
    /// 1-based package pin number (1–32).
    pub number: u8,
    /// Side of the package.
    pub side: PinSide,
    /// Signal name as in Fig 2.
    pub name: String,
}

/// The full test-chip pinout.
///
/// # Example
///
/// ```
/// use psa_layout::pins::Pinout;
/// let pinout = Pinout::date24_test_chip();
/// assert_eq!(pinout.pins().len(), 32);
/// // The PSA's differential outputs occupy the whole right side.
/// assert_eq!(pinout.find("Sensor1+").unwrap().side, psa_layout::pins::PinSide::Right);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pinout {
    pins: Vec<Pin>,
}

impl Pinout {
    /// Builds the Fig 2 pin assignment (8 pins per side, 32 total).
    pub fn date24_test_chip() -> Self {
        let left = [
            "VDD", "en_T2", "inv_out", "load_out", "en_T3", "dy_out", "en_T4", "VSS",
        ];
        let top = [
            "en_T1", "am_out", "CLK", "rst_n", "en_UART", "en_LFSR", "Drdy1", "VSS",
        ];
        let right = [
            "Sensor4+", "Sensor4-", "Sensor3+", "Sensor3-", "Sensor2+", "Sensor2-", "Sensor1+",
            "Sensor1-",
        ];
        let bottom = [
            "VDD", "VSS", "UART_in", "UART_out", "PSA_sel0", "PSA_sel1", "PSA_sel2", "PSA_sel3",
        ];
        let mut pins = Vec::with_capacity(32);
        let mut number = 1u8;
        for (side, names) in [
            (PinSide::Left, &left),
            (PinSide::Top, &top),
            (PinSide::Right, &right),
            (PinSide::Bottom, &bottom),
        ] {
            for name in names.iter() {
                pins.push(Pin {
                    number,
                    side,
                    name: (*name).to_string(),
                });
                number += 1;
            }
        }
        Pinout { pins }
    }

    /// All pins in package order.
    pub fn pins(&self) -> &[Pin] {
        &self.pins
    }

    /// Finds a pin by exact signal name (first match for shared rails).
    pub fn find(&self, name: &str) -> Option<&Pin> {
        self.pins.iter().find(|p| p.name == name)
    }

    /// All pins on one side, in package order.
    pub fn side(&self, side: PinSide) -> Vec<&Pin> {
        self.pins.iter().filter(|p| p.side == side).collect()
    }
}

impl Default for Pinout {
    fn default() -> Self {
        Pinout::date24_test_chip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirty_two_pins_eight_per_side() {
        let pinout = Pinout::date24_test_chip();
        assert_eq!(pinout.pins().len(), 32);
        for side in [PinSide::Left, PinSide::Top, PinSide::Right, PinSide::Bottom] {
            assert_eq!(pinout.side(side).len(), 8, "{side}");
        }
    }

    #[test]
    fn pin_numbers_sequential() {
        let pinout = Pinout::date24_test_chip();
        for (i, p) in pinout.pins().iter().enumerate() {
            assert_eq!(p.number as usize, i + 1);
        }
    }

    #[test]
    fn trojan_enables_present() {
        let pinout = Pinout::date24_test_chip();
        for name in ["en_T1", "en_T2", "en_T3", "en_T4"] {
            assert!(pinout.find(name).is_some(), "{name} missing");
        }
        assert!(pinout.find("no_such_pin").is_none());
    }

    #[test]
    fn clock_and_reset_on_top() {
        let pinout = Pinout::default();
        assert_eq!(pinout.find("CLK").unwrap().side, PinSide::Top);
        assert_eq!(pinout.find("rst_n").unwrap().side, PinSide::Top);
    }
}
