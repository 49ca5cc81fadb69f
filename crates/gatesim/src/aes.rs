//! AES-128 (FIPS-197), with per-round state access.
//!
//! The test chip's main circuit is an AES-128-LUT core. The EM signal's
//! data-dependent component comes from how many bits of the 128-bit state
//! flip between rounds, so [`Aes128::encrypt_trace`] exposes every round
//! state. The implementation is the straightforward byte-oriented
//! FIPS-197 algorithm (table-free S-box lookups from a fixed array —
//! matching the LUT architecture of the silicon).

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

#[inline]
fn xtime(x: u8) -> u8 {
    (x << 1) ^ (((x >> 7) & 1) * 0x1b)
}

/// An AES-128 cipher with a fixed key schedule.
///
/// # Example
///
/// ```
/// use psa_gatesim::aes::Aes128;
/// // FIPS-197 Appendix C.1 vector.
/// let key: [u8; 16] = [
///     0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
///     0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f,
/// ];
/// let pt: [u8; 16] = [
///     0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
///     0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff,
/// ];
/// let aes = Aes128::new(&key);
/// let ct = aes.encrypt_block(&pt);
/// assert_eq!(ct[0], 0x69);
/// assert_eq!(ct[15], 0x5a);
/// ```
#[derive(Debug, Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
}

impl Aes128 {
    /// Expands `key` into the 11 round keys.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for r in 0..11 {
            for c in 0..4 {
                round_keys[r][4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        Aes128 { round_keys }
    }

    /// The expanded round keys (11 × 16 bytes).
    pub fn round_keys(&self) -> &[[u8; 16]; 11] {
        &self.round_keys
    }

    /// Encrypts one block.
    pub fn encrypt_block(&self, plaintext: &[u8; 16]) -> [u8; 16] {
        self.encrypt_visiting(plaintext, |_, _| {})
    }

    /// Encrypts one block, returning all intermediate states:
    /// `[plaintext⊕k0, after round 1, …, after round 10]` — 11 entries,
    /// preceded by the raw plaintext for HD-against-load, so 12 total.
    pub fn encrypt_trace(&self, plaintext: &[u8; 16]) -> Vec<[u8; 16]> {
        let mut states = Vec::with_capacity(12);
        states.push(*plaintext);
        self.encrypt_visiting(plaintext, |_, state| states.push(*state));
        states
    }

    /// Per-round Hamming distances of the state register: 11 values, one
    /// per register update (load + 10 rounds). This is the standard
    /// side-channel switching model for a round-per-cycle AES core.
    pub fn round_hamming_distances(&self, plaintext: &[u8; 16]) -> [u32; 11] {
        let mut hds = [0u32; 11];
        let mut prev = u128::from_le_bytes(*plaintext);
        self.encrypt_visiting(plaintext, |update, state| {
            let next = u128::from_le_bytes(*state);
            hds[update] = (prev ^ next).count_ones();
            prev = next;
        });
        hds
    }

    /// The one AES round body: hands each of the 11 state-register
    /// updates (`plaintext⊕k0`, then rounds 1–10) to `visit` with its
    /// index, and returns the ciphertext.
    #[inline]
    fn encrypt_visiting(
        &self,
        plaintext: &[u8; 16],
        mut visit: impl FnMut(usize, &[u8; 16]),
    ) -> [u8; 16] {
        let mut s = *plaintext;
        add_round_key(&mut s, &self.round_keys[0]);
        visit(0, &s);
        for round in 1..=10 {
            s = sub_shift(&s);
            if round != 10 {
                mix_columns(&mut s);
            }
            add_round_key(&mut s, &self.round_keys[round]);
            visit(round, &s);
        }
        s
    }
}

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk) {
        *s ^= k;
    }
}

/// ShiftRows as a gather: output byte `i` is input byte
/// `SHIFT_ROWS[i]`. State layout: byte `i` is row `i % 4`, column
/// `i / 4` (FIPS-197 column-major convention), and row `r` rotates left
/// by `r` columns.
const SHIFT_ROWS: [usize; 16] = [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11];

/// SubBytes and ShiftRows in one pass (S-box lookups commute with the
/// byte permutation).
fn sub_shift(state: &[u8; 16]) -> [u8; 16] {
    std::array::from_fn(|i| SBOX[state[SHIFT_ROWS[i]] as usize])
}

fn mix_columns(state: &mut [u8; 16]) {
    for col in 0..4 {
        let a = [
            state[4 * col],
            state[4 * col + 1],
            state[4 * col + 2],
            state[4 * col + 3],
        ];
        state[4 * col] = xtime(a[0]) ^ (xtime(a[1]) ^ a[1]) ^ a[2] ^ a[3];
        state[4 * col + 1] = a[0] ^ xtime(a[1]) ^ (xtime(a[2]) ^ a[2]) ^ a[3];
        state[4 * col + 2] = a[0] ^ a[1] ^ xtime(a[2]) ^ (xtime(a[3]) ^ a[3]);
        state[4 * col + 3] = (xtime(a[0]) ^ a[0]) ^ a[1] ^ a[2] ^ xtime(a[3]);
    }
}

/// Number of differing bits between two 16-byte blocks.
pub fn hamming_distance(a: &[u8; 16], b: &[u8; 16]) -> u32 {
    (u128::from_le_bytes(*a) ^ u128::from_le_bytes(*b)).count_ones()
}

/// Number of set bits in a block.
pub fn hamming_weight(a: &[u8; 16]) -> u32 {
    u128::from_le_bytes(*a).count_ones()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fips_key() -> [u8; 16] {
        [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ]
    }

    #[test]
    fn fips197_appendix_c1_vector() {
        let pt: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expected: [u8; 16] = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        assert_eq!(Aes128::new(&fips_key()).encrypt_block(&pt), expected);
    }

    #[test]
    fn zero_key_zero_plaintext_vector() {
        // Well-known vector: AES-128(0,0) = 66e94bd4ef8a2c3b884cfa59ca342b2e.
        let expected: [u8; 16] = [
            0x66, 0xe9, 0x4b, 0xd4, 0xef, 0x8a, 0x2c, 0x3b, 0x88, 0x4c, 0xfa, 0x59, 0xca, 0x34,
            0x2b, 0x2e,
        ];
        assert_eq!(Aes128::new(&[0; 16]).encrypt_block(&[0; 16]), expected);
    }

    #[test]
    fn key_schedule_first_and_last_round_keys() {
        // FIPS-197 Appendix A.1: last round key for the 000102..0f key.
        let aes = Aes128::new(&fips_key());
        assert_eq!(aes.round_keys()[0], fips_key());
        let rk10: [u8; 16] = [
            0x13, 0x11, 0x1d, 0x7f, 0xe3, 0x94, 0x4a, 0x17, 0xf3, 0x07, 0xa7, 0x8b, 0x4d, 0x2b,
            0x30, 0xc5,
        ];
        assert_eq!(aes.round_keys()[10], rk10);
    }

    #[test]
    fn trace_has_12_states_and_ends_with_ciphertext() {
        let aes = Aes128::new(&fips_key());
        let pt = [0x42u8; 16];
        let trace = aes.encrypt_trace(&pt);
        assert_eq!(trace.len(), 12);
        assert_eq!(trace[0], pt);
        assert_eq!(*trace.last().unwrap(), aes.encrypt_block(&pt));
    }

    #[test]
    fn round_hds_are_plausible() {
        // Mean HD per round of a 128-bit state is ~64 for random-looking
        // data; every round must flip at least a few bits.
        let aes = Aes128::new(&fips_key());
        let hds = aes.round_hamming_distances(&[0x5a; 16]);
        assert_eq!(hds.len(), 11);
        for &hd in &hds {
            assert!(hd > 16, "suspiciously low HD {hd}");
            assert!(hd <= 128);
        }
        let mean: f64 = hds.iter().map(|&h| h as f64).sum::<f64>() / 11.0;
        assert!((40.0..90.0).contains(&mean), "mean HD {mean}");
    }

    #[test]
    fn different_plaintexts_give_different_hd_profiles() {
        let aes = Aes128::new(&fips_key());
        let a = aes.round_hamming_distances(&[0x00; 16]);
        let b = aes.round_hamming_distances(&[0xff; 16]);
        assert_ne!(a, b);
    }

    #[test]
    fn encryption_is_deterministic() {
        let aes = Aes128::new(&[7; 16]);
        assert_eq!(aes.encrypt_block(&[9; 16]), aes.encrypt_block(&[9; 16]));
    }

    #[test]
    fn avalanche_effect() {
        // Flipping one plaintext bit flips ~half the ciphertext bits.
        let aes = Aes128::new(&fips_key());
        let mut pt = [0x33u8; 16];
        let c1 = aes.encrypt_block(&pt);
        pt[0] ^= 0x01;
        let c2 = aes.encrypt_block(&pt);
        let hd = hamming_distance(&c1, &c2);
        assert!((40..=90).contains(&hd), "avalanche HD {hd}");
    }

    #[test]
    fn hamming_helpers() {
        assert_eq!(hamming_distance(&[0; 16], &[0xff; 16]), 128);
        assert_eq!(hamming_weight(&[0x0f; 16]), 64);
        assert_eq!(hamming_distance(&[3; 16], &[3; 16]), 0);
    }

    #[test]
    fn shift_rows_reference() {
        // Column-major layout: state[r + 4c]. Row 1 rotates left by 1.
        // As a gather, output byte i is input byte SHIFT_ROWS[i].
        let s = SHIFT_ROWS;
        // Row 0 unchanged: bytes 0,4,8,12.
        assert_eq!([s[0], s[4], s[8], s[12]], [0, 4, 8, 12]);
        // Row 1 rotated: 1,5,9,13 -> 5,9,13,1.
        assert_eq!([s[1], s[5], s[9], s[13]], [5, 9, 13, 1]);
        // Row 2 rotated by 2.
        assert_eq!([s[2], s[6], s[10], s[14]], [10, 14, 2, 6]);
        // Row 3 rotated by 3.
        assert_eq!([s[3], s[7], s[11], s[15]], [15, 3, 7, 11]);
    }

    /// The byte-at-a-time FIPS-197 pipeline the fused round replaced:
    /// separate SubBytes and ShiftRows passes, every state collected
    /// into a `Vec`, byte-wise Hamming distances.
    mod reference {
        use super::super::{add_round_key, mix_columns, SBOX};

        fn shift_rows(state: &mut [u8; 16]) {
            let s = *state;
            for row in 1..4 {
                for col in 0..4 {
                    state[row + 4 * col] = s[row + 4 * ((col + row) % 4)];
                }
            }
        }

        pub fn encrypt_trace(round_keys: &[[u8; 16]; 11], pt: &[u8; 16]) -> Vec<[u8; 16]> {
            let mut states = vec![*pt];
            let mut s = *pt;
            add_round_key(&mut s, &round_keys[0]);
            states.push(s);
            for (round, rk) in round_keys.iter().enumerate().skip(1) {
                for b in s.iter_mut() {
                    *b = SBOX[*b as usize];
                }
                shift_rows(&mut s);
                if round != 10 {
                    mix_columns(&mut s);
                }
                add_round_key(&mut s, rk);
                states.push(s);
            }
            states
        }

        pub fn round_hamming_distances(round_keys: &[[u8; 16]; 11], pt: &[u8; 16]) -> Vec<u32> {
            encrypt_trace(round_keys, pt)
                .windows(2)
                .map(|w| {
                    w[0].iter()
                        .zip(&w[1])
                        .map(|(x, y)| (x ^ y).count_ones())
                        .sum()
                })
                .collect()
        }
    }

    #[test]
    fn fused_rounds_match_reference_pipeline() {
        let mut pts = crate::lfsr::Lfsr::new_31bit(0x5EED);
        for key in [[0u8; 16], fips_key(), [0xff; 16], [0x2b; 16]] {
            let aes = Aes128::new(&key);
            let rk = aes.round_keys();
            for i in 0..256 {
                let pt = match i {
                    0 => [0u8; 16],
                    1 => [0xff; 16],
                    _ => pts.next_block(),
                };
                let trace = reference::encrypt_trace(rk, &pt);
                assert_eq!(aes.encrypt_trace(&pt), trace);
                assert_eq!(aes.encrypt_block(&pt), trace[11]);
                assert_eq!(
                    aes.round_hamming_distances(&pt).as_slice(),
                    reference::round_hamming_distances(rk, &pt).as_slice()
                );
            }
        }
    }

    #[test]
    fn wide_hamming_helpers_match_bytewise_counts() {
        let mut l = crate::lfsr::Lfsr::new_16bit(0xACE1);
        for _ in 0..256 {
            let a = l.next_block();
            let b = l.next_block();
            let bytewise: u32 = a.iter().zip(&b).map(|(x, y)| (x ^ y).count_ones()).sum();
            assert_eq!(hamming_distance(&a, &b), bytewise);
            assert_eq!(hamming_weight(&a), a.iter().map(|x| x.count_ones()).sum());
        }
    }
}
