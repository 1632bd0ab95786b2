//! 802.11 data scrambler.
//!
//! The standard's frame-synchronous scrambler is a 7-bit LFSR with
//! generator `x^7 + x^4 + 1` (IEEE 802.11-2012 §18.3.5.5). The transmitter
//! seeds it with a nonzero 7-bit initial state carried implicitly in the
//! first 7 scrambled bits of the SERVICE field; descrambling is the
//! identical operation, so one type serves both directions.

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
