//! RS232 UART framing and activity.
//!
//! The test chip streams plaintext in and ciphertext out over a UART
//! (Fig 2: `UART_in`/`UART_out`). Its switching activity is slow compared
//! to the AES core but contributes low-frequency content to the spectra,
//! and the UART-paced operating mode reproduces the bursty encryption
//! schedule of the bench setup.

use crate::error::GatesimError;

/// UART configuration: 8N1 framing at a given baud rate, clocked from the
/// 33 MHz system clock.
///
/// # Example
///
/// ```
/// use psa_gatesim::uart::Uart;
/// let uart = Uart::new(115_200, 33_000_000.0)?;
/// // One 8N1 frame = 10 bit times.
/// let cycles_per_bit = (33_000_000.0_f64 / 115_200.0).round() as u64;
/// assert_eq!(uart.cycles_per_byte(), 10 * cycles_per_bit);
/// # Ok::<(), psa_gatesim::GatesimError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Uart {
    cycles_per_bit: u64,
}

impl Uart {
    /// Creates a UART at `baud` with system clock `clk_hz`.
    ///
    /// # Errors
    ///
    /// Returns [`GatesimError::InvalidParameter`] when the baud rate is 0
    /// or exceeds half the clock.
    pub fn new(baud: u32, clk_hz: f64) -> Result<Self, GatesimError> {
        if baud == 0 || (baud as f64) > clk_hz / 2.0 {
            return Err(GatesimError::InvalidParameter {
                what: "uart baud rate",
            });
        }
        Ok(Uart {
            cycles_per_bit: (clk_hz / baud as f64).round() as u64,
        })
    }

    /// System-clock cycles per 8N1 byte frame (start + 8 data + stop).
    pub fn cycles_per_byte(&self) -> u64 {
        self.cycles_per_bit * 10
    }

    /// Cycles to transfer a 16-byte AES block.
    pub fn cycles_per_block(&self) -> u64 {
        self.cycles_per_byte() * 16
    }

    /// Serializes a byte into its 8N1 line bit sequence (start bit low,
    /// LSB-first data, stop bit high).
    pub fn frame_bits(byte: u8) -> [bool; 10] {
        let mut bits = [false; 10];
        bits[0] = false; // start
        for i in 0..8 {
            bits[1 + i] = (byte >> i) & 1 == 1;
        }
        bits[9] = true; // stop
        bits
    }

    /// Line transitions in one frame (the TX driver's switching
    /// activity).
    pub fn frame_transitions(byte: u8) -> u32 {
        let bits = Self::frame_bits(byte);
        let mut t = 0;
        // The line idles high before the start bit.
        let mut prev = true;
        for b in bits {
            if b != prev {
                t += 1;
            }
            prev = b;
        }
        // Return to idle (stop bit is already high, so no extra edge).
        t
    }

    /// Mean per-cycle toggle activity while a frame of `byte` is on the
    /// wire, given the UART's internal logic (shift register + counter ≈
    /// a dozen flops ticking at the bit rate).
    pub fn activity_per_cycle(&self, byte: u8) -> f64 {
        let edges = Self::frame_transitions(byte) as f64;
        let internal = 12.0 * 10.0; // shift/counter updates per frame
        (edges + internal) / self.cycles_per_byte() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framing_of_0x55() {
        // 0x55 = 01010101 LSB-first alternates every bit.
        let bits = Uart::frame_bits(0x55);
        assert!(!bits[0]);
        assert!(bits[9]);
        for i in 0..8 {
            assert_eq!(bits[1 + i], i % 2 == 0);
        }
        // idle->start edge, then 8 data transitions, then data->stop edge..
        assert_eq!(Uart::frame_transitions(0x55), 10);
    }

    #[test]
    fn framing_of_0x00_and_0xff() {
        // 0x00: idle->start(1 edge, stays low through data), low->stop(1).
        assert_eq!(Uart::frame_transitions(0x00), 2);
        // 0xff: idle->start, start->data1, stays high through stop.
        assert_eq!(Uart::frame_transitions(0xff), 2);
    }

    #[test]
    fn cycle_accounting() {
        let uart = Uart::new(1_000_000, 33_000_000.0).unwrap();
        assert_eq!(uart.cycles_per_bit, 33);
        assert_eq!(uart.cycles_per_byte(), 330);
        assert_eq!(uart.cycles_per_block(), 5280);
    }

    #[test]
    fn validates_baud() {
        assert!(Uart::new(0, 33e6).is_err());
        assert!(Uart::new(20_000_000, 33e6).is_err());
        assert!(Uart::new(115_200, 33e6).is_ok());
    }

    #[test]
    fn activity_is_small_and_positive() {
        let uart = Uart::new(115_200, 33e6).unwrap();
        for byte in [0x00u8, 0xff, 0x55, 0xa7] {
            let a = uart.activity_per_cycle(byte);
            assert!(a > 0.0 && a < 1.0, "activity {a}");
        }
    }

    #[test]
    fn busier_bytes_make_more_edges() {
        assert!(Uart::frame_transitions(0x55) > Uart::frame_transitions(0x0f));
        assert!(Uart::frame_transitions(0x0f) > Uart::frame_transitions(0x00));
    }
}
