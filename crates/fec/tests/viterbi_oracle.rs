//! The four `ViterbiDecoder` front ends against the forward-scatter
//! oracle in `mimonet_oracle::viterbi` on deterministic streams: random
//! hard bits with erasures, random LLRs with depunctured zeros, and
//! hostile inputs (±0, ±inf, NaN, ±1e300, ±f64::MAX and subnormal LLRs,
//! out-of-range hard bits, lengths 0–3000, odd and too short included).
//! Decoded bits and errors must be identical.

use mimonet_fec::conv::TAIL_BITS;
use mimonet_fec::viterbi::{
    decode_hard, decode_hard_unterminated, decode_soft, decode_soft_unterminated, Symbol,
};
use mimonet_oracle::viterbi;

fn to_symbols(bits: &[u8]) -> Vec<Symbol> {
    bits.iter().map(|&b| Symbol::bit(b)).collect()
}

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    // Small deterministic PRBS for tests.
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x & 1) as u8
        })
        .collect()
}

/// Deterministic f64 in [-4, 4] for LLR fuzzing.
fn llr_pattern(len: usize, seed: u64) -> Vec<f64> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x & 0xFFFF) as f64 / 65535.0 - 0.5) * 8.0
        })
        .collect()
}

#[test]
fn table_driven_matches_reference_hard_random_with_erasures() {
    for seed in 0..20u64 {
        let len = 2 * (TAIL_BITS + 4 + (seed as usize * 7) % 90);
        let bits = pattern(len, seed.wrapping_mul(0x9E37).wrapping_add(1));
        let mut syms = to_symbols(&bits);
        // Scatter erasures (including adjacent pairs) over the stream.
        for i in (seed as usize % 5..len).step_by(5 + (seed as usize % 3)) {
            syms[i] = Symbol::Erased;
        }
        assert_eq!(
            decode_hard(&syms).unwrap(),
            viterbi::decode_hard(&syms).unwrap(),
            "terminated hard, seed {seed}"
        );
        assert_eq!(
            decode_hard_unterminated(&syms).unwrap(),
            viterbi::decode_hard_unterminated(&syms).unwrap(),
            "unterminated hard, seed {seed}"
        );
    }
}

#[test]
fn table_driven_matches_reference_soft_random() {
    for seed in 0..20u64 {
        let len = 2 * (TAIL_BITS + 2 + (seed as usize * 11) % 120);
        let mut llrs = llr_pattern(len, seed.wrapping_mul(0xC2B2).wrapping_add(3));
        // Zero LLRs model depunctured erasures.
        for i in (seed as usize % 4..len).step_by(6) {
            llrs[i] = 0.0;
        }
        assert_eq!(
            decode_soft(&llrs).unwrap(),
            viterbi::decode_soft(&llrs).unwrap(),
            "terminated soft, seed {seed}"
        );
        assert_eq!(
            decode_soft_unterminated(&llrs).unwrap(),
            viterbi::decode_soft_unterminated(&llrs).unwrap(),
            "unterminated soft, seed {seed}"
        );
    }
}

/// Stream lengths for the hostile-input checks: empty, odd, too short
/// for a terminated block (< 12), exactly the tail, and long.
const HOSTILE_LENS: [usize; 16] = [
    0, 1, 2, 3, 10, 11, 12, 13, 14, 97, 98, 500, 1001, 2048, 2999, 3000,
];

/// Deterministic soft stream: finite LLRs in [-4, 4], with one value in
/// `every` (on average) replaced by ±0.0, ±inf, NaN, ±1e300, ±f64::MAX
/// (metrics overflow to ±inf within two steps) or a subnormal.
fn hostile_llrs(len: usize, seed: u64, every: u64) -> Vec<f64> {
    const SPECIAL: [f64; 14] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        1e300,
        -1e300,
        f64::MAX,
        -f64::MAX,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE / 3.0,
        -1e-310,
    ];
    let mut x = seed.wrapping_mul(0x9E37_79B9) | 1;
    llr_pattern(len, seed)
        .into_iter()
        .map(|l| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x.is_multiple_of(every) {
                SPECIAL[(x >> 16) as usize % SPECIAL.len()]
            } else {
                l
            }
        })
        .collect()
}

/// Deterministic hard stream: one symbol in `every` (on average) is
/// `Erased` or an out-of-range `Bit(b)`, `b ≥ 2`.
fn hostile_symbols(len: usize, seed: u64, every: u64) -> Vec<Symbol> {
    let mut x = seed.wrapping_mul(0xC2B2_AE35) | 1;
    pattern(len, seed)
        .into_iter()
        .map(|b| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match (x.is_multiple_of(every), (x >> 16) % 4) {
                (true, 0) => Symbol::Erased,
                (true, 1) => Symbol::Bit(2),
                (true, 2) => Symbol::Bit(0x80 | b),
                (true, _) => Symbol::Bit(u8::MAX),
                (false, _) => Symbol::Bit(b),
            }
        })
        .collect()
}

#[test]
fn hostile_soft_inputs_match_reference() {
    for len in HOSTILE_LENS {
        for (k, every) in [1u64, 3, 17, 200].into_iter().enumerate() {
            let llrs = hostile_llrs(len, 31 * len as u64 + k as u64, every);
            assert_eq!(
                decode_soft(&llrs),
                viterbi::decode_soft(&llrs),
                "terminated soft, len {len}, every {every}"
            );
            assert_eq!(
                decode_soft_unterminated(&llrs),
                viterbi::decode_soft_unterminated(&llrs),
                "unterminated soft, len {len}, every {every}"
            );
        }
    }
}

#[test]
fn hostile_hard_inputs_match_reference() {
    for len in HOSTILE_LENS {
        for (k, every) in [1u64, 3, 17, 200].into_iter().enumerate() {
            let syms = hostile_symbols(len, 37 * len as u64 + k as u64, every);
            assert_eq!(
                decode_hard(&syms),
                viterbi::decode_hard(&syms),
                "terminated hard, len {len}, every {every}"
            );
            assert_eq!(
                decode_hard_unterminated(&syms),
                viterbi::decode_hard_unterminated(&syms),
                "unterminated hard, len {len}, every {every}"
            );
        }
    }
}
