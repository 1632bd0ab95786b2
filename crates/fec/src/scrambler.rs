//! 802.11 data scrambler.
//!
//! The standard's frame-synchronous scrambler is a 7-bit LFSR with
//! generator `x^7 + x^4 + 1` (IEEE 802.11-2012 §18.3.5.5). The transmitter
//! seeds it with a nonzero 7-bit initial state carried implicitly in the
//! first 7 scrambled bits of the SERVICE field; descrambling is the
//! identical operation, so one type serves both directions.
//!
//! [`Scrambler`] works a bit at a time; [`keystream_words`] gives the
//! same keystream 64 bits at a time, for the transmitter's bit pass and
//! the receiver's descrambler.

use std::sync::OnceLock;

/// The 802.11 frame-synchronous scrambler / descrambler.
#[derive(Clone, Debug)]
pub struct Scrambler {
    state: u8, // 7-bit LFSR state, bit 0 = x^1 ... bit 6 = x^7
}

impl Scrambler {
    /// Creates a scrambler with the given 7-bit seed.
    ///
    /// # Panics
    ///
    /// Panics when `seed` is zero (an all-zero LFSR never leaves the zero
    /// state) or wider than 7 bits.
    pub fn new(seed: u8) -> Self {
        assert!(seed != 0, "scrambler seed must be nonzero");
        assert!(
            seed < 0x80,
            "scrambler seed is a 7-bit value, got {seed:#x}"
        );
        Self { state: seed }
    }

    /// Produces the next keystream bit and advances the LFSR.
    pub fn next_bit(&mut self) -> u8 {
        // Feedback: x^7 xor x^4 (bits 6 and 3 of the state).
        let fb = ((self.state >> 6) ^ (self.state >> 3)) & 1;
        self.state = ((self.state << 1) | fb) & 0x7F;
        fb
    }

    /// Scrambles (or descrambles) a bit sequence in place.
    pub fn scramble_in_place(&mut self, bits: &mut [u8]) {
        for b in bits.iter_mut() {
            *b ^= self.next_bit();
        }
    }

    /// Scrambles (or descrambles) a bit sequence, returning a new vector.
    pub fn scramble(&mut self, bits: &[u8]) -> Vec<u8> {
        let mut out = bits.to_vec();
        self.scramble_in_place(&mut out);
        out
    }

    /// Current 7-bit LFSR state.
    pub fn state(&self) -> u8 {
        self.state
    }
}

/// Period of the keystream: the `x^7 + x^4 + 1` LFSR is maximal-length,
/// so every nonzero seed repeats after 127 bits.
pub const PERIOD: usize = 127;

/// One seed's keystream as 64-bit words, one per phase: bit `k` of word
/// `p` is keystream bit `(p + k) mod 127`, so a word-wide scrambler at
/// phase `p` XORs its next 64 bits with word `p` and moves on to phase
/// `(p + 64) mod 127`. The low byte of word `p` is the keystream octet
/// at phase `p`. Built once per seed, on first use.
///
/// # Panics
///
/// Panics on the seeds [`Scrambler::new`] rejects.
pub fn keystream_words(seed: u8) -> &'static [u64; PERIOD] {
    static WORDS: [OnceLock<[u64; PERIOD]>; 0x80] = [const { OnceLock::new() }; 0x80];
    let mut s = Scrambler::new(seed);
    WORDS[seed as usize].get_or_init(|| {
        // Bits 0..192 of the keystream: one period, then the 64 bits a
        // word at the last phase runs into.
        let mut bits = [0u64; 3];
        for i in 0..192 {
            bits[i / 64] |= u64::from(s.next_bit()) << (i % 64);
        }
        std::array::from_fn(|p| {
            let pair = u128::from(bits[p / 64]) | u128::from(bits[p / 64 + 1]) << 64;
            (pair >> (p % 64)) as u64
        })
    })
}

/// Recovers the scrambler seed from the first 7 descrambled-to-zero bits.
///
/// 802.11 transmits the SERVICE field's first 7 bits as zeros; after
/// scrambling they equal the keystream, so the receiver can solve for the
/// initial state. `first7` holds those 7 received (scrambled) bits in
/// transmission order. Returns `None` for the impossible all-zero state.
pub fn recover_seed(first7: &[u8; 7]) -> Option<u8> {
    // The keystream bits are successive feedback outputs; run the LFSR
    // relation backwards. keystream[i] = s6(i) ^ s3(i), and the state shifts
    // left absorbing the keystream. Brute force over 127 states is simpler
    // and obviously correct at this size.
    for seed in 1u8..0x80 {
        let mut s = Scrambler::new(seed);
        if (0..7).all(|i| s.next_bit() == first7[i]) {
            return Some(seed);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scramble_descramble_roundtrip() {
        let bits: Vec<u8> = (0..256).map(|i| ((i * 7) % 3 == 0) as u8).collect();
        let mut tx = Scrambler::new(0x5D);
        let scrambled = tx.scramble(&bits);
        assert_ne!(scrambled, bits);
        let mut rx = Scrambler::new(0x5D);
        assert_eq!(rx.scramble(&scrambled), bits);
    }

    #[test]
    fn known_keystream_prefix() {
        // With the all-ones seed the 802.11 keystream starts
        // 0000 1110 1111 0010 ... (§18.3.5.5 example, first bits 00001110...).
        let mut s = Scrambler::new(0x7F);
        let ks: Vec<u8> = (0..16).map(|_| s.next_bit()).collect();
        assert_eq!(&ks[..8], &[0, 0, 0, 0, 1, 1, 1, 0]);
        assert_eq!(&ks[8..16], &[1, 1, 1, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn period_is_127() {
        let mut s = Scrambler::new(0x01);
        let first: Vec<u8> = (0..127).map(|_| s.next_bit()).collect();
        let second: Vec<u8> = (0..127).map(|_| s.next_bit()).collect();
        assert_eq!(first, second);
        // A maximal-length sequence of period 127 has 64 ones.
        assert_eq!(first.iter().filter(|&&b| b == 1).count(), 64);
    }

    #[test]
    fn seed_recovery() {
        for seed in [0x01u8, 0x2A, 0x7F, 0x55] {
            let mut s = Scrambler::new(seed);
            // First 7 scrambled bits of an all-zero prefix = keystream.
            let mut first7 = [0u8; 7];
            for b in &mut first7 {
                *b = s.next_bit();
            }
            assert_eq!(recover_seed(&first7), Some(seed));
        }
    }

    #[test]
    fn keystream_words_match_the_lfsr() {
        for seed in 1..0x80u8 {
            let mut s = Scrambler::new(seed);
            let ks: Vec<u8> = (0..PERIOD + 64).map(|_| s.next_bit()).collect();
            for (p, &w) in keystream_words(seed).iter().enumerate() {
                for (k, &bit) in ks[p..p + 64].iter().enumerate() {
                    assert_eq!((w >> k) as u8 & 1, bit, "seed {seed:#x} phase {p} bit {k}");
                }
            }
        }
    }

    #[test]
    fn all_zero_keystream_is_unreachable() {
        assert_eq!(recover_seed(&[0; 7]), None);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn rejects_zero_seed() {
        Scrambler::new(0);
    }

    #[test]
    #[should_panic(expected = "7-bit")]
    fn rejects_wide_seed() {
        Scrambler::new(0x80);
    }
}
