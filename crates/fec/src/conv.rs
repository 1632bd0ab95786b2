//! Rate-1/2, constraint-length-7 convolutional encoder.
//!
//! This is the industry-standard K=7 code used by 802.11 (IEEE 802.11-2012
//! §18.3.5.6): generator polynomials g0 = 133₈ and g1 = 171₈. Each input bit
//! produces two output bits (A from g0 first, then B from g1). Higher code
//! rates are obtained by puncturing (see [`mod@crate::puncture`]).
//!
//! The encoder state is the last six input bits; appending six zero "tail"
//! bits returns it to the zero state, which is what the Viterbi decoder's
//! terminated mode assumes.

/// Constraint length of the 802.11 code.
pub const CONSTRAINT_LEN: usize = 7;
/// Number of trellis states (2^(K-1)).
pub const NUM_STATES: usize = 64;
/// Generator polynomial g0 = 133 octal.
pub const G0: u32 = 0o133;
/// Generator polynomial g1 = 171 octal.
pub const G1: u32 = 0o171;
/// Number of zero tail bits that terminate the trellis.
pub const TAIL_BITS: usize = 6;

#[inline]
fn parity(x: u32) -> u8 {
    (x.count_ones() & 1) as u8
}

/// Computes the two output bits for an input `bit` entering `state`
/// (state = previous six input bits, newest in the MSB position of 6 bits).
///
/// Returns `(a, b, next_state)`.
#[inline]
pub fn encode_step(state: u8, bit: u8) -> (u8, u8, u8) {
    debug_assert!(bit <= 1);
    debug_assert!(state < NUM_STATES as u8);
    // Shift register contents, newest bit first: [bit, s5..s0].
    let reg = ((bit as u32) << 6) | state as u32;
    let a = parity(reg & G0);
    let b = parity(reg & G1);
    let next_state = ((reg >> 1) & 0x3F) as u8;
    (a, b, next_state)
}

/// Encodes up to 64 input bits at once: [`encode_step`] applied to bits
/// `0..n` of `x` in order (first bit in bit 0), from `state`.
///
/// Returns the A and B output words (the outputs of input bit `k` in
/// bit `k`; bits `n..` are unspecified) and the state after bit `n - 1`.
/// Each output is an XOR of the input delayed by the generator's taps;
/// the delayed words take their first bits from `state`.
#[inline]
pub fn encode_word(state: u8, x: u64, n: u32) -> (u64, u64, u8) {
    debug_assert!((1..=64).contains(&n));
    debug_assert!(state < NUM_STATES as u8);
    let state = u64::from(state);
    let (mut a, mut b) = (0, 0);
    for d in 0..CONSTRAINT_LEN as u32 {
        // Input bit k - d: bit 5 of `state` is the bit before bit 0.
        let delayed = if d == 0 { x } else { x << d | state >> (6 - d) };
        let tap = 6 - d;
        if G0 >> tap & 1 == 1 {
            a ^= delayed;
        }
        if G1 >> tap & 1 == 1 {
            b ^= delayed;
        }
    }
    let next = (u128::from(x) << 6 | u128::from(state)) >> n;
    (a, b, next as u8 & 0x3F)
}

/// The streaming convolutional encoder.
#[derive(Clone, Debug, Default)]
pub struct ConvEncoder {
    state: u8,
}

impl ConvEncoder {
    /// Creates an encoder in the all-zero state.
    pub fn new() -> Self {
        Self { state: 0 }
    }

    /// Encodes a block of bits; output has twice the length
    /// (`[a0, b0, a1, b1, ...]`).
    pub fn encode(&mut self, bits: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(bits.len() * 2);
        for &bit in bits {
            assert!(bit <= 1, "input bit {bit} is not 0 or 1");
            let (a, b, next) = encode_step(self.state, bit);
            out.push(a);
            out.push(b);
            self.state = next;
        }
        out
    }

    /// Current 6-bit encoder state.
    pub fn state(&self) -> u8 {
        self.state
    }

    /// Resets to the all-zero state.
    pub fn reset(&mut self) {
        self.state = 0;
    }
}

/// Convenience: encodes `bits` followed by six zero tail bits, starting from
/// the zero state, so the trellis terminates at state zero. Output length is
/// `2 * (bits.len() + 6)`.
pub fn encode_terminated(bits: &[u8]) -> Vec<u8> {
    let mut enc = ConvEncoder::new();
    let mut out = enc.encode(bits);
    out.extend(enc.encode(&[0u8; TAIL_BITS]));
    debug_assert_eq!(enc.state(), 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_input_gives_zero_output() {
        let mut e = ConvEncoder::new();
        assert_eq!(e.encode(&[0; 10]), vec![0; 20]);
        assert_eq!(e.state(), 0);
    }

    #[test]
    fn impulse_response_is_the_generators() {
        // A single 1 followed by zeros reads out the generator taps:
        // g0 = 133o = 1011011b, g1 = 171o = 1111001b, MSB = newest bit.
        let mut e = ConvEncoder::new();
        let out = e.encode(&[1, 0, 0, 0, 0, 0, 0]);
        let a_bits: Vec<u8> = out.iter().step_by(2).copied().collect();
        let b_bits: Vec<u8> = out.iter().skip(1).step_by(2).copied().collect();
        // g0 taps from MSB (current bit) to LSB (oldest): 1,0,1,1,0,1,1
        assert_eq!(a_bits, vec![1, 0, 1, 1, 0, 1, 1]);
        // g1 taps: 1,1,1,1,0,0,1
        assert_eq!(b_bits, vec![1, 1, 1, 1, 0, 0, 1]);
    }

    #[test]
    fn encoder_is_linear() {
        let x: Vec<u8> = vec![1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0];
        let y: Vec<u8> = vec![0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 1];
        let xy: Vec<u8> = x.iter().zip(&y).map(|(a, b)| a ^ b).collect();
        let ex = ConvEncoder::new().encode(&x);
        let ey = ConvEncoder::new().encode(&y);
        let exy = ConvEncoder::new().encode(&xy);
        let want: Vec<u8> = ex.iter().zip(&ey).map(|(a, b)| a ^ b).collect();
        assert_eq!(exy, want);
    }

    #[test]
    fn terminated_encoding_returns_to_zero_state() {
        let bits = vec![1, 1, 0, 1, 0, 0, 1];
        let out = encode_terminated(&bits);
        assert_eq!(out.len(), 2 * (bits.len() + TAIL_BITS));
    }

    #[test]
    fn state_tracks_last_six_bits() {
        let mut e = ConvEncoder::new();
        e.encode(&[1, 0, 1, 1, 0, 1]);
        // State holds the six most recent bits; after pushing b0..b5 the
        // newest (b5=1) sits in bit 5, oldest (b0=1) in bit 0.
        assert_eq!(e.state(), 0b101101);
    }

    #[test]
    fn word_encoder_matches_the_bit_encoder() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for n in (1..=64u32).cycle().take(2_000) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let state = (x >> 58) as u8;
            let (a, b, next) = encode_word(state, x, n);
            let mut s = state;
            for k in 0..n {
                let (want_a, want_b, ns) = encode_step(s, (x >> k) as u8 & 1);
                assert_eq!(((a >> k) as u8 & 1, (b >> k) as u8 & 1), (want_a, want_b));
                s = ns;
            }
            assert_eq!(next, s, "n {n}");
        }
    }

    #[test]
    #[should_panic(expected = "not 0 or 1")]
    fn rejects_non_binary_input() {
        ConvEncoder::new().encode(&[0, 2]);
    }

    #[test]
    fn free_distance_is_ten() {
        // The K=7 (133,171) code has free distance 10: no nonzero terminated
        // codeword of modest length has weight < 10. Exhaustively check all
        // short inputs.
        let mut min_weight = usize::MAX;
        for len in 1..=8usize {
            for pattern in 1u32..(1 << len) {
                let bits: Vec<u8> = (0..len).map(|i| ((pattern >> i) & 1) as u8).collect();
                let cw = encode_terminated(&bits);
                let w = cw.iter().filter(|&&b| b == 1).count();
                min_weight = min_weight.min(w);
            }
        }
        assert_eq!(min_weight, 10);
    }
}
