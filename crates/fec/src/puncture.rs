//! Puncturing and depuncturing for the 802.11 code-rate family.
//!
//! The rate-1/2 mother code (see [`crate::conv`]) is punctured to 2/3, 3/4
//! or 5/6 by deleting coded bits in the fixed patterns of IEEE 802.11-2012
//! §18.3.5.6 / 802.11n §20.3.11.6. The receiver re-inserts erasures at the
//! deleted positions before Viterbi decoding.

use crate::viterbi::Symbol;

/// The code rates supported by the transceiver.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CodeRate {
    /// Rate 1/2 — the unpunctured mother code.
    R1_2,
    /// Rate 2/3 — one of every four coded bits removed.
    R2_3,
    /// Rate 3/4 — two of every six coded bits removed.
    R3_4,
    /// Rate 5/6 (802.11n) — four of every ten coded bits removed.
    R5_6,
}

impl CodeRate {
    /// Puncture pattern over one period of the *coded* stream
    /// (`[a0,b0,a1,b1,...]`): `true` = keep, `false` = delete.
    pub const fn pattern(self) -> &'static [bool] {
        match self {
            // No puncturing.
            CodeRate::R1_2 => &[true, true],
            // Keep A1 B1 A2, drop B2.
            CodeRate::R2_3 => &[true, true, true, false],
            // Keep A1 B1 A2 B3, drop B2 A3.
            CodeRate::R3_4 => &[true, true, true, false, false, true],
            // Keep A1 B1 A2 B3 A4 B5, drop B2 A3 B4 A5.
            CodeRate::R5_6 => &[
                true, true, true, false, false, true, true, false, false, true,
            ],
        }
    }

    /// Offsets of the kept positions within one period of
    /// [`CodeRate::pattern`], ascending.
    fn kept_offsets(self) -> &'static [usize] {
        match self {
            CodeRate::R1_2 => &[0, 1],
            CodeRate::R2_3 => &[0, 1, 2],
            CodeRate::R3_4 => &[0, 1, 2, 5],
            CodeRate::R5_6 => &[0, 1, 2, 5, 6, 9],
        }
    }

    /// Numerator of the rate (data bits per period).
    pub const fn k(self) -> usize {
        match self {
            CodeRate::R1_2 => 1,
            CodeRate::R2_3 => 2,
            CodeRate::R3_4 => 3,
            CodeRate::R5_6 => 5,
        }
    }

    /// Denominator of the rate (transmitted bits per period).
    pub fn n(self) -> usize {
        match self {
            CodeRate::R1_2 => 2,
            CodeRate::R2_3 => 3,
            CodeRate::R3_4 => 4,
            CodeRate::R5_6 => 6,
        }
    }

    /// The rate as a float, `k/n`.
    pub fn as_f64(self) -> f64 {
        self.k() as f64 / self.n() as f64
    }

    /// Number of transmitted bits produced by `data_bits` information bits
    /// passed through encode → puncture (excluding tail handling; use on
    /// tail-included lengths).
    pub fn coded_len(self, mother_coded_len: usize) -> usize {
        let p = self.pattern();
        let keep_per_period = p.iter().filter(|&&k| k).count();
        let full = mother_coded_len / p.len();
        let rem = mother_coded_len % p.len();
        let partial = p[..rem].iter().filter(|&&k| k).count();
        full * keep_per_period + partial
    }
}

impl std::fmt::Display for CodeRate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodeRate::R1_2 => write!(f, "1/2"),
            CodeRate::R2_3 => write!(f, "2/3"),
            CodeRate::R3_4 => write!(f, "3/4"),
            CodeRate::R5_6 => write!(f, "5/6"),
        }
    }
}

/// Data bits [`puncture_word`] takes at most: a whole number of periods
/// of every rate (1, 2, 3 and 5 data bits), so each block of this many
/// starts a period and one mask per rate serves every block.
pub const WORD_DATA_BITS: u32 = 30;

/// The kept positions of one block's mother code and the steps that
/// compress them to the low bits.
struct BlockMask {
    /// Bit `t` set when mother bit `t` (`t < 2 * WORD_DATA_BITS`) is kept.
    keep: u64,
    /// How many a full block keeps.
    count: u32,
    /// [`compress`]'s bits to move at each stage.
    steps: [u64; 6],
}

impl BlockMask {
    const fn new(rate: CodeRate) -> Self {
        let pattern = rate.pattern();
        let mut keep = 0u64;
        let mut t = 0;
        while t < 2 * WORD_DATA_BITS as usize {
            if pattern[t % pattern.len()] {
                keep |= 1 << t;
            }
            t += 1;
        }
        Self {
            keep,
            count: keep.count_ones(),
            steps: compress_steps(keep),
        }
    }
}

/// The stages of compressing the bits `mask` selects to the low end
/// (Hacker's Delight §7-4): stage `i` moves the bits of its entry right
/// by `2^i`.
const fn compress_steps(mut mask: u64) -> [u64; 6] {
    let mut steps = [0; 6];
    // Bit t of `zeros` counts (mod 2) the unselected bits below t.
    let mut zeros = !mask << 1;
    let mut i = 0;
    while i < 6 {
        let mut parity = zeros ^ zeros << 1;
        parity ^= parity << 2;
        parity ^= parity << 4;
        parity ^= parity << 8;
        parity ^= parity << 16;
        parity ^= parity << 32;
        let mv = parity & mask;
        mask = mask ^ mv | mv >> (1 << i);
        zeros &= !parity;
        steps[i] = mv;
        i += 1;
    }
    steps
}

/// Moves the bits of `x` to the low end, in order, by the stages of
/// [`compress_steps`]; `x` must have no bits outside their mask.
#[inline]
fn compress(mut x: u64, steps: &[u64; 6]) -> u64 {
    for (i, &mv) in steps.iter().enumerate() {
        let t = x & mv;
        x = x ^ t | t >> (1 << i);
    }
    x
}

/// Bit `k` of `x` to bit `2k`.
#[inline]
fn spread(x: u32) -> u64 {
    let mut x = u64::from(x);
    x = (x | x << 16) & 0x0000_FFFF_0000_FFFF;
    x = (x | x << 8) & 0x00FF_00FF_00FF_00FF;
    x = (x | x << 4) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | x << 2) & 0x3333_3333_3333_3333;
    (x | x << 1) & 0x5555_5555_5555_5555
}

/// Punctures the mother code of `n` (1–[`WORD_DATA_BITS`]) data bits at
/// once, the word-wide form of [`puncture`]. The first data bit must
/// start a period of the rate. `a` and `b` hold the data bits' A and B
/// outputs (data bit `k` in bit `k`; bits `n..` are ignored). Returns
/// the kept bits in stream order from bit 0, and how many there are.
#[inline]
pub fn puncture_word(rate: CodeRate, a: u32, b: u32, n: u32) -> (u64, u32) {
    static MASKS: [BlockMask; 4] = [
        BlockMask::new(CodeRate::R1_2),
        BlockMask::new(CodeRate::R2_3),
        BlockMask::new(CodeRate::R3_4),
        BlockMask::new(CodeRate::R5_6),
    ];
    debug_assert!((1..=WORD_DATA_BITS).contains(&n));
    let mask = &MASKS[rate as usize];
    let mother = spread(a) | spread(b) << 1;
    let (keep, count) = if n == WORD_DATA_BITS {
        (mask.keep, mask.count)
    } else {
        let keep = mask.keep & u64::MAX >> (64 - 2 * n);
        (keep, keep.count_ones())
    };
    (compress(mother & keep, &mask.steps), count)
}

/// Removes punctured positions from a mother-coded stream.
pub fn puncture(coded: &[u8], rate: CodeRate) -> Vec<u8> {
    let p = rate.pattern();
    coded
        .iter()
        .enumerate()
        .filter(|(i, _)| p[i % p.len()])
        .map(|(_, &b)| b)
        .collect()
}

/// Re-inserts erasures at punctured positions, producing a hard-decision
/// stream of `mother_len` symbols for the Viterbi decoder.
///
/// # Panics
///
/// Panics if `punctured.len()` does not match
/// `rate.coded_len(mother_len)` — a framing bug upstream.
pub fn depuncture_hard(punctured: &[u8], rate: CodeRate, mother_len: usize) -> Vec<Symbol> {
    let expect = rate.coded_len(mother_len);
    assert_eq!(
        punctured.len(),
        expect,
        "punctured stream length {} != expected {} for rate {} and mother length {}",
        punctured.len(),
        expect,
        rate,
        mother_len
    );
    let p = rate.pattern();
    let mut it = punctured.iter();
    (0..mother_len)
        .map(|i| {
            if p[i % p.len()] {
                Symbol::Bit(*it.next().expect("length checked above"))
            } else {
                Symbol::Erased
            }
        })
        .collect()
}

/// Soft-decision counterpart of [`depuncture_hard`]: re-inserts LLR `0.0`
/// (no information) at punctured positions.
pub fn depuncture_soft(punctured: &[f64], rate: CodeRate, mother_len: usize) -> Vec<f64> {
    let mut out = Vec::new();
    depuncture_soft_into(punctured, rate, mother_len, &mut out);
    out
}

/// [`depuncture_soft`] writing into a caller-owned vector (cleared first;
/// capacity is reused) — the allocation-free path for the RX FEC stage.
///
/// # Panics
///
/// Panics on the same length mismatch as [`depuncture_soft`].
pub fn depuncture_soft_into(
    punctured: &[f64],
    rate: CodeRate,
    mother_len: usize,
    out: &mut Vec<f64>,
) {
    let expect = rate.coded_len(mother_len);
    assert_eq!(
        punctured.len(),
        expect,
        "punctured LLR length {} != expected {} for rate {} and mother length {}",
        punctured.len(),
        expect,
        rate,
        mother_len
    );
    // Sized first (a warmed vector keeps its length), then each element
    // written once: a period at a time, its kept offsets from the inputs
    // and the rest erasures.
    out.truncate(mother_len);
    out.resize(mother_len, 0.0);
    match rate {
        CodeRate::R1_2 => out.copy_from_slice(punctured),
        CodeRate::R2_3 => depuncture_periods::<4, 3>(punctured, rate, out),
        CodeRate::R3_4 => depuncture_periods::<6, 4>(punctured, rate, out),
        CodeRate::R5_6 => depuncture_periods::<10, 6>(punctured, rate, out),
    }
}

/// Writes `out` period by period: the `i`-th kept offset of each `P`-long
/// period takes the period's input `i`, the other offsets `+0.0`. A
/// partial last period keeps a prefix of the kept offsets.
#[inline(always)]
fn depuncture_periods<const P: usize, const K: usize>(
    punctured: &[f64],
    rate: CodeRate,
    out: &mut [f64],
) {
    let kept: [usize; K] = rate
        .kept_offsets()
        .try_into()
        .expect("K is the rate's kept count per period");
    let period = |llrs: &[f64]| {
        let mut block = [0.0; P];
        for (&k, &llr) in kept.iter().zip(llrs) {
            block[k] = llr;
        }
        block
    };
    let full = out.len() / P;
    let (body, last) = out.split_at_mut(full * P);
    let (inputs, rest) = punctured.split_at(full * K);
    for (block, llrs) in body.chunks_exact_mut(P).zip(inputs.chunks_exact(K)) {
        block.copy_from_slice(&period(llrs));
    }
    last.copy_from_slice(&period(rest)[..last.len()]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::encode_terminated;
    use crate::viterbi::{decode_hard, decode_soft};

    fn prbs(len: usize, mut x: u64) -> Vec<u8> {
        x |= 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x & 1) as u8
            })
            .collect()
    }

    #[test]
    fn rate_arithmetic() {
        assert_eq!(CodeRate::R1_2.as_f64(), 0.5);
        assert!((CodeRate::R2_3.as_f64() - 2.0 / 3.0).abs() < 1e-12);
        assert!((CodeRate::R3_4.as_f64() - 0.75).abs() < 1e-12);
        assert!((CodeRate::R5_6.as_f64() - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn pattern_keep_counts_match_rates() {
        for r in [
            CodeRate::R1_2,
            CodeRate::R2_3,
            CodeRate::R3_4,
            CodeRate::R5_6,
        ] {
            let p = r.pattern();
            // Period covers 2*k mother bits and keeps n of them.
            assert_eq!(p.len(), 2 * r.k());
            assert_eq!(p.iter().filter(|&&b| b).count(), r.n());
            let kept: Vec<usize> = (0..p.len()).filter(|&i| p[i]).collect();
            assert_eq!(r.kept_offsets(), kept, "rate {r}");
        }
    }

    #[test]
    fn puncture_word_matches_puncture() {
        for rate in [
            CodeRate::R1_2,
            CodeRate::R2_3,
            CodeRate::R3_4,
            CodeRate::R5_6,
        ] {
            for seed in 1..400u64 {
                let coded = prbs(64, seed);
                let word = |plane: usize| {
                    (0..32).fold(0u32, |w, k| w | u32::from(coded[2 * k + plane]) << k)
                };
                let (a, b) = (word(0), word(1));
                for n in 1..=WORD_DATA_BITS {
                    let want = puncture(&coded[..2 * n as usize], rate);
                    let (got, count) = puncture_word(rate, a, b, n);
                    assert_eq!(count as usize, want.len(), "rate {rate} n {n}");
                    for (k, &bit) in want.iter().enumerate() {
                        assert_eq!((got >> k) as u8 & 1, bit, "rate {rate} n {n}");
                    }
                    assert_eq!(got >> count, 0, "rate {rate} n {n}");
                }
            }
        }
    }

    #[test]
    fn rate_1_2_is_identity() {
        let coded = prbs(40, 9);
        assert_eq!(puncture(&coded, CodeRate::R1_2), coded);
    }

    #[test]
    fn coded_len_counts() {
        // 24 mother bits at 3/4: periods of 6 keep 4 → 16.
        assert_eq!(CodeRate::R3_4.coded_len(24), 16);
        // Partial period: 26 mother bits = 4 periods + 2 → 16 + 2 kept.
        assert_eq!(CodeRate::R3_4.coded_len(26), 18);
        assert_eq!(CodeRate::R5_6.coded_len(20), 12);
        assert_eq!(CodeRate::R1_2.coded_len(10), 10);
    }

    #[test]
    fn puncture_depuncture_positions() {
        let coded: Vec<u8> = (0..12).map(|i| (i % 2) as u8).collect();
        let tx = puncture(&coded, CodeRate::R3_4);
        assert_eq!(tx.len(), 8);
        let rx = depuncture_hard(&tx, CodeRate::R3_4, 12);
        for (i, s) in rx.iter().enumerate() {
            let kept = CodeRate::R3_4.pattern()[i % 6];
            match s {
                Symbol::Bit(b) => {
                    assert!(kept);
                    assert_eq!(*b, coded[i]);
                }
                Symbol::Erased => assert!(!kept),
            }
        }
    }

    #[test]
    fn end_to_end_all_rates_clean_channel() {
        for rate in [
            CodeRate::R1_2,
            CodeRate::R2_3,
            CodeRate::R3_4,
            CodeRate::R5_6,
        ] {
            // Pick a data length that makes the mother length divisible by
            // the pattern period to keep the test simple.
            let data = prbs(114, 1234);
            let mother = encode_terminated(&data);
            let tx = puncture(&mother, rate);
            let rx = depuncture_hard(&tx, rate, mother.len());
            let decoded = decode_hard(&rx).unwrap_or_else(|e| panic!("rate {rate}: {e}"));
            assert_eq!(decoded, data, "rate {rate}");
        }
    }

    #[test]
    fn end_to_end_soft_all_rates() {
        for rate in [CodeRate::R2_3, CodeRate::R3_4, CodeRate::R5_6] {
            let data = prbs(114, 77);
            let mother = encode_terminated(&data);
            let tx = puncture(&mother, rate);
            let llrs: Vec<f64> = tx
                .iter()
                .map(|&b| if b == 0 { 3.0 } else { -3.0 })
                .collect();
            let rx = depuncture_soft(&llrs, rate, mother.len());
            assert_eq!(decode_soft(&rx).unwrap(), data, "rate {rate}");
        }
    }

    #[test]
    fn punctured_code_still_corrects_an_error() {
        let data = prbs(114, 5);
        let mother = encode_terminated(&data);
        let mut tx = puncture(&mother, CodeRate::R2_3);
        tx[30] ^= 1;
        let rx = depuncture_hard(&tx, CodeRate::R2_3, mother.len());
        assert_eq!(decode_hard(&rx).unwrap(), data);
    }

    #[test]
    #[should_panic(expected = "punctured stream length")]
    fn depuncture_length_mismatch_panics() {
        depuncture_hard(&[1, 0, 1], CodeRate::R3_4, 24);
    }

    #[test]
    fn display_names() {
        assert_eq!(CodeRate::R1_2.to_string(), "1/2");
        assert_eq!(CodeRate::R5_6.to_string(), "5/6");
    }
}
