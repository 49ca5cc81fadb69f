//! Linear-feedback shift registers.
//!
//! The test chip has an `en_LFSR` pin (Fig 2): an on-chip pattern
//! generator that feeds the AES core with plaintexts so encryption can
//! run back-to-back without waiting on the UART. The same primitive
//! generates T3's CDMA spreading code.

use crate::error::GatesimError;

/// A Fibonacci LFSR over up to 64 bits.
///
/// # Example
///
/// ```
/// use psa_gatesim::lfsr::Lfsr;
/// // Maximal-length 16-bit LFSR: period 65535.
/// let mut l = Lfsr::new(0xACE1, 0b10_1101, 16).expect("width 16 is valid");
/// let first = l.next_bit();
/// let _ = first;
/// assert_ne!(l.state(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr {
    state: u64,
    taps: u64,
    width: u32,
}

impl Lfsr {
    /// Creates an LFSR with the given tap mask and width (bits). The
    /// feedback bit is the parity of `state & taps` and is shifted into
    /// the MSB (Fibonacci form). A zero seed is silently replaced by 1
    /// (the all-zero state is a fixed point).
    ///
    /// # Errors
    ///
    /// [`GatesimError::InvalidParameter`] if `width` is 0 or exceeds 64.
    pub fn new(seed: u64, taps: u64, width: u32) -> Result<Self, GatesimError> {
        if !(1..=64).contains(&width) {
            return Err(GatesimError::InvalidParameter {
                what: "LFSR width must be in 1..=64",
            });
        }
        Ok(Self::with_width(seed, taps, width))
    }

    /// [`Lfsr::new`] for a width already known to lie in `1..=64`.
    fn with_width(seed: u64, taps: u64, width: u32) -> Self {
        let mask = u64::MAX >> (64 - width);
        let state = seed & mask;
        Lfsr {
            state: if state == 0 { 1 } else { state },
            taps: taps & mask,
            width,
        }
    }

    /// Maximal-length 31-bit LFSR (polynomial x³¹+x²⁸+1, feedback =
    /// bit 0 ⊕ bit 3) — cheap and long.
    pub fn new_31bit(seed: u32) -> Self {
        Lfsr::with_width(seed as u64, 0b1001, 31)
    }

    /// The current register state.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Advances one step and returns the output bit.
    pub fn next_bit(&mut self) -> bool {
        let fb = (self.state & self.taps).count_ones() & 1;
        let out = self.state & 1 == 1;
        self.state = (self.state >> 1) | ((fb as u64) << (self.width - 1));
        out
    }

    /// Advances eight steps and returns their output bits, LSB first.
    ///
    /// When every tap lies below `width − 7` the eight steps collapse
    /// into one leap: the outputs are the low state byte, and feedback
    /// bit `k` is the parity of the taps read `k` places up, which for
    /// such taps are all original state bits. So the eight feedback
    /// bits are the XOR over taps `p` of `state >> p`, and they enter
    /// at `width − 8`. Other tap sets step eight times.
    fn next_byte(&mut self) -> u8 {
        if self.width < 8 || self.taps >> (self.width - 7) != 0 {
            let mut byte = 0u8;
            for bit in 0..8 {
                byte |= (self.next_bit() as u8) << bit;
            }
            return byte;
        }
        let mut feedback = 0u64;
        let mut taps = self.taps;
        while taps != 0 {
            feedback ^= self.state >> taps.trailing_zeros();
            taps &= taps - 1;
        }
        let out = self.state as u8;
        self.state = (self.state >> 8) | ((feedback & 0xFF) << (self.width - 8));
        out
    }

    /// Generates a 16-byte plaintext block.
    pub fn next_block(&mut self) -> [u8; 16] {
        std::array::from_fn(|_| self.next_byte())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_seed_is_fixed_up() {
        let l = Lfsr::new(0, 0b11, 4).expect("width 4 is valid");
        assert_ne!(l.state(), 0);
    }

    #[test]
    fn sixteen_bit_lfsr_has_maximal_period() {
        let mut l = Lfsr::new(0xACE1, 0b10_1101, 16).expect("width 16 is valid");
        let start = l.state();
        let mut period = 0u64;
        loop {
            l.next_bit();
            period += 1;
            if l.state() == start || period > 70_000 {
                break;
            }
        }
        assert_eq!(period, 65_535);
    }

    #[test]
    fn state_never_zero() {
        let mut l = Lfsr::new(1, 0b10_1101, 16).expect("width 16 is valid");
        for _ in 0..10_000 {
            l.next_bit();
            assert_ne!(l.state(), 0);
        }
    }

    #[test]
    fn bytes_are_balanced() {
        // Rough balance check: ones fraction within 45-55 % over 4 kB.
        let mut l = Lfsr::new_31bit(0xDEADBEEF);
        let bytes: Vec<u8> = (0..4096).map(|_| l.next_byte()).collect();
        let ones: u32 = bytes.iter().map(|b| b.count_ones()).sum();
        let frac = ones as f64 / (4096.0 * 8.0);
        assert!((0.45..0.55).contains(&frac), "ones fraction {frac}");
    }

    #[test]
    fn blocks_differ() {
        let mut l = Lfsr::new_31bit(7);
        let a = l.next_block();
        let b = l.next_block();
        assert_ne!(a, b);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Lfsr::new_31bit(123);
        let mut b = Lfsr::new_31bit(123);
        for _ in 0..100 {
            assert_eq!(a.next_bit(), b.next_bit());
        }
    }

    #[test]
    fn out_of_range_width_is_an_error() {
        assert!(Lfsr::new(1, 1, 0).is_err());
        assert!(Lfsr::new(1, 1, 65).is_err());
        assert!(Lfsr::new(1, 1, 1).is_ok());
        assert!(Lfsr::new(1, 1, 64).is_ok());
    }

    /// Eight `next_bit` steps packed LSB-first: the reference the byte
    /// leap must reproduce.
    fn bitwise_byte(l: &mut Lfsr) -> u8 {
        (0..8).fold(0u8, |byte, bit| byte | (l.next_bit() as u8) << bit)
    }

    fn assert_leap_matches_bits(seed: u64, taps: u64, width: u32) {
        let mut leap = Lfsr::new(seed, taps, width).expect("valid width");
        let mut bits = leap.clone();
        for i in 0..512 {
            assert_eq!(
                leap.next_byte(),
                bitwise_byte(&mut bits),
                "byte {i}, taps {taps:#b}, width {width}"
            );
            assert_eq!(leap, bits, "state after byte {i}");
        }
    }

    #[test]
    fn byte_leap_matches_eight_bit_steps() {
        // The plaintext and spreading-code generators take the leap.
        assert_leap_matches_bits(0x5EED, 0b1001, 31);
        assert_leap_matches_bits(0xACE1, 0b10_1101, 16);
        // Highest taps the leap accepts: width − 8.
        assert_leap_matches_bits(0xDEAD_BEEF, 1 | 1 << 23, 31);
        assert_leap_matches_bits(u64::MAX, 1 | 1 << 3 | 1 << 56, 64);
        // Width 8 leaps only with tap 0.
        assert_leap_matches_bits(0xA5, 1, 8);
    }

    #[test]
    fn taps_near_the_top_fall_back_to_bit_steps() {
        // A tap at width − 7 or above reads a feedback bit within the
        // byte, and widths under 8 cannot hold a byte of state.
        assert_leap_matches_bits(0xDEAD_BEEF, 1 | 1 << 24, 31);
        assert_leap_matches_bits(0xA5, 0b11, 8);
        assert_leap_matches_bits(0x1234, 1 << 15 | 1, 16);
        assert_leap_matches_bits(0b101, 0b11, 4);
        assert_leap_matches_bits(1, 1, 1);
    }

    #[test]
    fn blocks_and_bit_steps_are_one_stream() {
        let mut by_block = Lfsr::new_31bit(0x5EED);
        let mut by_bits = by_block.clone();
        for _ in 0..64 {
            let block = by_block.next_block();
            let bytes: Vec<u8> = (0..16).map(|_| bitwise_byte(&mut by_bits)).collect();
            assert_eq!(block.as_slice(), bytes.as_slice());
        }
    }
}
