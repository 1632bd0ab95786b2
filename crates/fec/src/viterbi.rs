//! Viterbi decoding for the K=7 (133, 171) convolutional code.
//!
//! Two front ends share one trellis search:
//!
//! * [`decode_soft`] takes log-likelihood ratios (LLRs, positive ⇒ bit 0
//!   more likely, the convention produced by `mimonet-detect`'s demappers)
//!   and uses correlation branch metrics, which is the max-likelihood
//!   metric for BPSK-like per-bit channels;
//! * [`decode_hard`] takes hard bits (0/1) and makes Hamming-metric
//!   decisions, by searching on the bits as ±1 LLRs (see
//!   [`ViterbiDecoder`] for why the decisions are identical).
//!
//! Both run one branchless search, a butterfly add-compare-select over
//! the 64 trellis states that LLVM autovectorizes (see
//! [`ViterbiDecoder`]). Its survivors and decoded bits are identical to
//! the naive forward scatter kept as the oracle in the dev-only
//! `mimonet-oracle` crate (`mimonet_oracle::viterbi`), which this
//! crate's integration tests and proptests compare it against.
//!
//! Punctured positions are passed as *erasures*: [`Symbol::Erased`] for hard
//! input, LLR 0.0 for soft input — both contribute nothing to any branch
//! metric, which is exactly the ML treatment of depunctured bits.
//!
//! Decoding is block-oriented with a terminated trellis (six zero tail bits,
//! as produced by [`crate::conv::encode_terminated`]); `decode_*` returns the
//! data bits *without* the tail.

// Index-based loops here are the clearer expression of the math
// (matrix/carrier indexing); silence the iterator-style suggestion.
#![allow(clippy::needless_range_loop)]
use crate::conv::{encode_step, NUM_STATES, TAIL_BITS};

/// One received coded bit for hard-decision decoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Symbol {
    /// A received hard bit.
    Bit(u8),
    /// A punctured (never transmitted) position.
    Erased,
}

impl Symbol {
    /// Wraps a 0/1 bit.
    pub fn bit(b: u8) -> Self {
        debug_assert!(b <= 1);
        Symbol::Bit(b)
    }
}

/// Errors from the decoder front ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViterbiError {
    /// Input length is odd — the rate-1/2 mother code emits bit pairs.
    OddLength(usize),
    /// Input is shorter than the six tail-bit pairs.
    TooShort(usize),
}

impl std::fmt::Display for ViterbiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViterbiError::OddLength(n) => {
                write!(f, "coded input length {n} is odd; expected (A,B) pairs")
            }
            ViterbiError::TooShort(n) => {
                write!(f, "coded input length {n} too short for a terminated block")
            }
        }
    }
}

impl std::error::Error for ViterbiError {}

/// Number of butterflies per trellis step: butterfly `j` joins
/// predecessors `2j`, `2j + 1` to next states `j`, `j + 32`.
const HALF: usize = NUM_STATES / 2;

/// Survivor words per trellis step: one byte per state, eight states per
/// `u64`.
const SURV_WORDS: usize = NUM_STATES / 8;

/// Precomputed trellis, built once lazily (64 states is tiny).
///
/// The encoder shifts each input bit into the state's top bit, so next
/// state `ns` is entered from exactly two states, `2(ns & 31)` and
/// `2(ns & 31) + 1`, both on input bit `ns >> 5`. Branch `k` of `ns` is
/// the one leaving `2(ns & 31) + k`: ascending (state, bit) order, the
/// order a forward state sweep visits them, which fixes the decoder's
/// compare-select tie-breaking.
///
/// Both generators (133₈, 171₈) tap the input bit and the oldest state
/// bit, so flipping either flips both coded bits. Butterfly `j` (branches
/// from `2j`, `2j + 1` into `j`, `j + 32`) therefore codes `(a, b)`,
/// `(ā, b̄)`, `(ā, b̄)`, `(a, b)`: its soft rewards are `R, −R, −R, R`,
/// where `R`, the reward of `2j → j`, is one of `p = a0 + b0`,
/// `q = a0 − b0`, `−q` or `−p`. Two bitmasks per butterfly pick it.
struct Trellis {
    // [j] -> all ones where butterfly j's R is ±q (a ≠ b), else 0.
    use_q: [u64; HALF],
    // [j] -> the f64 sign bit where butterfly j's R is −p or −q (a = 1).
    negate: [u64; HALF],
    // −∞, read from memory: against a literal −∞ the optimizer rewrites
    // `c > floor` into an inequality-and-ordered test, while a runtime
    // floor keeps each compare-select a single `max`.
    floor: f64,
}

impl Trellis {
    fn new() -> Self {
        let mut use_q = [0u64; HALF];
        let mut negate = [0u64; HALF];
        for j in 0..HALF {
            let lo = (2 * j) as u8;
            let (a, b, ns) = encode_step(lo, 0);
            debug_assert_eq!(ns as usize, j);
            debug_assert_eq!(encode_step(lo + 1, 0), (a ^ 1, b ^ 1, j as u8));
            debug_assert_eq!(encode_step(lo, 1), (a ^ 1, b ^ 1, (j + HALF) as u8));
            debug_assert_eq!(encode_step(lo + 1, 1), (a, b, (j + HALF) as u8));
            use_q[j] = if a != b { u64::MAX } else { 0 };
            negate[j] = if a == 1 { 1 << 63 } else { 0 };
        }
        Self {
            use_q,
            negate,
            floor: NEG,
        }
    }
}

fn trellis() -> &'static Trellis {
    use std::sync::OnceLock;
    static T: OnceLock<Trellis> = OnceLock::new();
    T.get_or_init(Trellis::new)
}

const NEG: f64 = f64::NEG_INFINITY;

/// A reusable Viterbi decoder: one state-parallel search serves hard and
/// soft decoding.
///
/// Each trellis step runs 32 butterflies over fixed-size 64-entry
/// arrays. Butterfly `j` reads the metrics of states `2j` and `2j + 1`,
/// picks its reward `R` from `p = a0 + b0` and `q = a0 − b0`
/// (`a0 = 0.5·llr[2t]`, `b0 = 0.5·llr[2t+1]`, computed once per step)
/// with two bitmasks, and forms the four candidates `m[2j] + R`,
/// `m[2j+1] − R` (into `j`) and `m[2j] − R`, `m[2j+1] + R` (into
/// `j + 32`). Each next state keeps the better candidate through two
/// strict compare-selects, `c0 > floor` then `c1 > m0`, where the floor
/// is −∞: each is one `max`. No lane branches on its data and lanes
/// never mix, so the loop autovectorizes under the
/// [`F64x4`](mimonet_dsp::simd::F64x4) bit-identity rule. The survivors
/// and decoded bits are identical to the naive forward scatter kept as
/// the oracle `mimonet_oracle::viterbi`:
///
/// * the scatter's reward `r(a) + r(b)` is `a0·sa + b0·sb` with signs
///   `sa, sb ∈ {+1, −1}`, and `±a0 ± b0` equals it exactly except, at
///   most, for the sign of an exact zero (`x + (−x)` is `+0` while
///   `−(x + (−x))` is `−0`); a zero's sign changes no compare and no
///   sum with a non-zero operand, so the two searches take the same
///   decisions and their metrics differ at most in the sign of zeros;
/// * the scatter skips `-inf` states, and visits the two branches of a
///   next state in ascending (state, bit) order, updating on a strict
///   `>`; the selects compute `-inf + r` (`-inf` or NaN) unconditionally,
///   which never wins a strict compare, and take the branches in that
///   same order, so ties, `-inf` and NaN resolve exactly alike — and a
///   NaN never becomes a metric;
/// * each state's survivor byte keeps the decision `g1` (branch 1 won)
///   and `valid` (the new metric is above −∞); traceback rebuilds
///   `prev = 2(s & 31) + g1` and `bit = s >> 5`, and `(0, 0)` (the
///   scatter's untouched entry) where `valid` is clear.
///
/// Hard symbols run through the same search as LLRs `Bit(0) → +1.0`,
/// `Bit(1) → −1.0`, anything else `→ 0.0`. A Hamming branch reward (1
/// per matching bit) equals that soft reward plus 0.5 per non-erased
/// bit — one constant per step, shared by every branch — and every
/// metric stays a multiple of ½ far below 2^52, so every compare, the
/// survivors and the final argmax come out as under Hamming metrics.
///
/// Buffers grow to the largest block seen and are then reused; the
/// survivor rows a block needs are overwritten, never cleared. Decoding a
/// warmed decoder into a warmed output vector performs no heap
/// allocation.
#[derive(Clone, Debug, Default)]
pub struct ViterbiDecoder {
    // survivor[t][s % 8] byte s / 8 = g1 | valid << 1 for state s; only
    // grows, and rows past the current block are stale.
    survivor: Vec<[u64; SURV_WORDS]>,
    // Hard symbols staged as ±1/0 LLRs.
    hard_llrs: Vec<f64>,
}

impl ViterbiDecoder {
    /// Creates a decoder with empty scratch buffers (they grow on first
    /// use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks the stream length, then decodes `llrs` into `out`
    /// (cleared first): all steps when unterminated, the data bits
    /// without the tail when terminated.
    fn decode_into(
        survivor: &mut Vec<[u64; SURV_WORDS]>,
        llrs: &[f64],
        terminated: bool,
        out: &mut Vec<u8>,
    ) -> Result<(), ViterbiError> {
        out.clear();
        if !llrs.len().is_multiple_of(2) {
            return Err(ViterbiError::OddLength(llrs.len()));
        }
        let steps = llrs.len() / 2;
        if terminated && steps < TAIL_BITS {
            return Err(ViterbiError::TooShort(llrs.len()));
        }
        let tr = trellis();
        let mut metric = &mut [NEG; NUM_STATES];
        metric[0] = 0.0; // encoder starts in the zero state
        let mut next = &mut [NEG; NUM_STATES];
        // Every word of the first `steps` rows is overwritten below.
        if survivor.len() < steps {
            survivor.resize(steps, [0; SURV_WORDS]);
        }
        let survivor = &mut survivor[..steps];
        for (pair, surv) in llrs.chunks_exact(2).zip(survivor.iter_mut()) {
            acs_step(tr, metric, 0.5 * pair[0], 0.5 * pair[1], next, surv);
            std::mem::swap(&mut metric, &mut next);
        }

        // Final state: zero for terminated blocks, otherwise best metric
        // (last max wins on ties).
        let mut state = if terminated {
            0usize
        } else {
            metric
                .iter()
                .enumerate()
                .max_by(|a, b| {
                    a.1.partial_cmp(b.1)
                        .expect("metrics are never NaN: NaN never wins a strict compare")
                })
                .map(|(i, _)| i)
                .unwrap_or(0)
        };
        out.resize(steps, 0);
        for (bit, surv) in out.iter_mut().zip(survivor.iter()).rev() {
            let byte = (surv[state % SURV_WORDS] >> (8 * (state / SURV_WORDS))) as usize;
            // All ones if `valid`; else the path goes through (0, 0).
            let keep = ((byte >> 1) & 1).wrapping_neg();
            *bit = ((state >> 5) & keep) as u8;
            state = (2 * (state & 31) + (byte & 1)) & keep;
        }
        if terminated {
            out.truncate(steps - TAIL_BITS);
        }
        Ok(())
    }

    /// Stages hard symbols as ±1/0 LLRs and decodes them.
    fn decode_symbols_into(
        &mut self,
        coded: &[Symbol],
        terminated: bool,
        out: &mut Vec<u8>,
    ) -> Result<(), ViterbiError> {
        self.hard_llrs.clear();
        self.hard_llrs.extend(coded.iter().map(|s| match s {
            Symbol::Bit(0) => 1.0,
            Symbol::Bit(1) => -1.0,
            _ => 0.0,
        }));
        Self::decode_into(&mut self.survivor, &self.hard_llrs, terminated, out)
    }

    /// [`decode_hard`] into a caller-owned vector (cleared first; capacity
    /// is reused).
    pub fn decode_hard_into(
        &mut self,
        coded: &[Symbol],
        out: &mut Vec<u8>,
    ) -> Result<(), ViterbiError> {
        self.decode_symbols_into(coded, true, out)
    }

    /// [`decode_hard_unterminated`] into a caller-owned vector (cleared
    /// first; capacity is reused).
    pub fn decode_hard_unterminated_into(
        &mut self,
        coded: &[Symbol],
        out: &mut Vec<u8>,
    ) -> Result<(), ViterbiError> {
        self.decode_symbols_into(coded, false, out)
    }

    /// [`decode_soft`] into a caller-owned vector (cleared first; capacity
    /// is reused).
    pub fn decode_soft_into(
        &mut self,
        llrs: &[f64],
        out: &mut Vec<u8>,
    ) -> Result<(), ViterbiError> {
        Self::decode_into(&mut self.survivor, llrs, true, out)
    }

    /// [`decode_soft_unterminated`] into a caller-owned vector (cleared
    /// first; capacity is reused).
    pub fn decode_soft_unterminated_into(
        &mut self,
        llrs: &[f64],
        out: &mut Vec<u8>,
    ) -> Result<(), ViterbiError> {
        Self::decode_into(&mut self.survivor, llrs, false, out)
    }
}

/// One add-compare-select step of [`ViterbiDecoder`]'s search: 32
/// butterflies, each writing two next-state metrics to `next` and their
/// survivor bytes to `surv`.
#[inline]
fn acs_step(
    tr: &Trellis,
    metric: &[f64; NUM_STATES],
    a0: f64,
    b0: f64,
    next: &mut [f64; NUM_STATES],
    surv: &mut [u64; SURV_WORDS],
) {
    let p = (a0 + b0).to_bits();
    let pq = p ^ (a0 - b0).to_bits();
    let floor = tr.floor;
    let (lo, hi) = next.split_at_mut(HALF);
    // State s's survivor byte is byte s / 8 of word s % 8: row k of
    // eight butterflies fills byte k (next states j) and byte k + 4
    // (next states j + 32) of every word, one word per lane, so the
    // packing needs no shuffles.
    const ROWS: usize = HALF / SURV_WORDS;
    let mut words = [0u64; SURV_WORDS];
    for k in 0..ROWS {
        for w in 0..SURV_WORDS {
            let j = SURV_WORDS * k + w;
            // R = ±p or ±q: the use_q mask swaps in q's bits, the negate
            // mask flips the sign bit.
            let r = f64::from_bits(p ^ (pq & tr.use_q[j]) ^ tr.negate[j]);
            let (m0, m1) = (metric[2 * j], metric[2 * j + 1]);
            let (n, d) = compare_select(m0 + r, m1 - r, floor);
            lo[j] = n;
            words[w] |= d << (8 * k);
            let (n, d) = compare_select(m0 - r, m1 + r, floor);
            hi[j] = n;
            words[w] |= d << (8 * (k + ROWS));
        }
    }
    *surv = words;
}

/// Keeps the better of one next state's two candidates, branch 0 first,
/// through strict compare-selects against `floor` (−∞). Each select is
/// one `max`: it takes its second operand when the first is not greater,
/// NaN included. Returns the metric and the survivor byte
/// `g1 | valid << 1`.
#[inline(always)]
fn compare_select(c0: f64, c1: f64, floor: f64) -> (f64, u64) {
    let m0 = if c0 > floor { c0 } else { floor };
    let g1 = c1 > m0;
    let m = if g1 { c1 } else { m0 };
    (m, g1 as u64 | ((m > floor) as u64) << 1)
}

/// Runs `f` with a per-thread shared [`ViterbiDecoder`], so the free
/// `decode_*` functions reuse metric/survivor buffers across calls.
fn with_decoder<R>(f: impl FnOnce(&mut ViterbiDecoder) -> R) -> R {
    use std::cell::RefCell;
    thread_local! {
        static DECODER: RefCell<ViterbiDecoder> = RefCell::new(ViterbiDecoder::new());
    }
    DECODER.with(|d| f(&mut d.borrow_mut()))
}

/// Hard-decision decoding of a terminated block.
///
/// `coded` holds the (possibly depunctured) coded stream as
/// `[a0, b0, a1, b1, ...]` with erasures at punctured positions. Returns the
/// decoded data bits with the six tail bits stripped.
pub fn decode_hard(coded: &[Symbol]) -> Result<Vec<u8>, ViterbiError> {
    let mut out = Vec::new();
    with_decoder(|d| d.decode_hard_into(coded, &mut out))?;
    Ok(out)
}

/// Hard-decision decoding of an *unterminated* stream: the trellis may end
/// in any state (the survivor with the best metric wins) and **all** input
/// positions decode to output bits — nothing is stripped.
///
/// This is the mode for the 802.11 DATA field, whose six tail bits sit
/// between the PSDU and the scrambled pad bits, so the encoder does not
/// finish in the zero state.
pub fn decode_hard_unterminated(coded: &[Symbol]) -> Result<Vec<u8>, ViterbiError> {
    let mut out = Vec::new();
    with_decoder(|d| d.decode_hard_unterminated_into(coded, &mut out))?;
    Ok(out)
}

/// Soft-decision decoding of an unterminated stream; see
/// [`decode_hard_unterminated`].
pub fn decode_soft_unterminated(llrs: &[f64]) -> Result<Vec<u8>, ViterbiError> {
    let mut out = Vec::new();
    with_decoder(|d| d.decode_soft_unterminated_into(llrs, &mut out))?;
    Ok(out)
}

/// Soft-decision decoding of a terminated block.
///
/// `llrs[i]` is the log-likelihood ratio of coded bit `i`:
/// `log P(bit=0) - log P(bit=1)` (positive ⇒ 0 more likely). Punctured
/// positions must carry LLR `0.0`. Returns data bits without the tail.
pub fn decode_soft(llrs: &[f64]) -> Result<Vec<u8>, ViterbiError> {
    let mut out = Vec::new();
    with_decoder(|d| d.decode_soft_into(llrs, &mut out))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::encode_terminated;

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

    #[test]
    fn clean_roundtrip_hard() {
        let data = pattern(200, 42);
        let coded = encode_terminated(&data);
        let decoded = decode_hard(&to_symbols(&coded)).unwrap();
        assert_eq!(decoded, data);
    }

    #[test]
    fn clean_roundtrip_soft() {
        let data = pattern(177, 7);
        let coded = encode_terminated(&data);
        let llrs: Vec<f64> = coded
            .iter()
            .map(|&b| if b == 0 { 4.0 } else { -4.0 })
            .collect();
        let decoded = decode_soft(&llrs).unwrap();
        assert_eq!(decoded, data);
    }

    #[test]
    fn corrects_scattered_bit_errors() {
        // Free distance 10 ⇒ any 4 errors sufficiently separated correct.
        let data = pattern(120, 99);
        let mut coded = encode_terminated(&data);
        for &pos in &[5usize, 60, 130, 200] {
            coded[pos] ^= 1;
        }
        let decoded = decode_hard(&to_symbols(&coded)).unwrap();
        assert_eq!(decoded, data);
    }

    #[test]
    fn corrects_burst_of_four_within_capability() {
        let data = pattern(100, 3);
        let mut coded = encode_terminated(&data);
        // Four errors in a short span: within d_free/2 for this code only if
        // spread over ≥ the traceback span; use pairs 40,41 and 80,81.
        coded[40] ^= 1;
        coded[41] ^= 1;
        coded[80] ^= 1;
        coded[81] ^= 1;
        assert_eq!(decode_hard(&to_symbols(&coded)).unwrap(), data);
    }

    #[test]
    fn erasures_decode_like_punctured_bits() {
        let data = pattern(90, 17);
        let coded = encode_terminated(&data);
        let mut syms = to_symbols(&coded);
        // Erase every 6th coded bit (a rate-ish 6/5 puncture — well within
        // the code's margin on a clean channel).
        for i in (0..syms.len()).step_by(6) {
            syms[i] = Symbol::Erased;
        }
        assert_eq!(decode_hard(&syms).unwrap(), data);
    }

    #[test]
    fn soft_zero_llrs_at_punctures() {
        let data = pattern(90, 21);
        let coded = encode_terminated(&data);
        let mut llrs: Vec<f64> = coded
            .iter()
            .map(|&b| if b == 0 { 2.0 } else { -2.0 })
            .collect();
        for i in (0..llrs.len()).step_by(6) {
            llrs[i] = 0.0;
        }
        assert_eq!(decode_soft(&llrs).unwrap(), data);
    }

    #[test]
    fn soft_outperforms_hard_with_weak_bits() {
        // Flip three bits but mark them as low-confidence in the soft input;
        // soft decoding must recover, as must hard (3 < d_free/2), but a
        // soft decoder with *confidence* on correct bits and doubt on
        // errors converges with far fewer metric ties.
        let data = pattern(60, 5);
        let coded = encode_terminated(&data);
        let mut llrs: Vec<f64> = coded
            .iter()
            .map(|&b| if b == 0 { 5.0 } else { -5.0 })
            .collect();
        for &pos in &[10usize, 50, 90] {
            // wrong sign but small magnitude
            llrs[pos] = -llrs[pos].signum() * 0.2;
        }
        assert_eq!(decode_soft(&llrs).unwrap(), data);
    }

    #[test]
    fn empty_data_block() {
        // Only the 6 tail bits.
        let coded = encode_terminated(&[]);
        assert_eq!(coded.len(), 12);
        assert_eq!(decode_hard(&to_symbols(&coded)).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            decode_hard(&[Symbol::bit(0)]),
            Err(ViterbiError::OddLength(1))
        );
        assert_eq!(
            decode_hard(&to_symbols(&[0, 0])),
            Err(ViterbiError::TooShort(2))
        );
        assert_eq!(decode_soft(&[0.0; 3]), Err(ViterbiError::OddLength(3)));
        assert_eq!(decode_soft(&[0.0; 4]), Err(ViterbiError::TooShort(4)));
    }

    #[test]
    fn unterminated_decodes_full_stream() {
        // Encode WITHOUT tail bits: the encoder ends in a data-dependent
        // state; the unterminated decoder must still recover everything.
        let data = pattern(150, 31);
        let coded = crate::conv::ConvEncoder::new().encode(&data);
        let got = decode_hard_unterminated(&to_symbols(&coded)).unwrap();
        assert_eq!(got, data);
        let llrs: Vec<f64> = coded
            .iter()
            .map(|&b| if b == 0 { 3.0 } else { -3.0 })
            .collect();
        assert_eq!(decode_soft_unterminated(&llrs).unwrap(), data);
    }

    #[test]
    fn unterminated_corrects_errors_midstream() {
        let data = pattern(150, 8);
        let mut coded = crate::conv::ConvEncoder::new().encode(&data);
        for &p in &[40usize, 120, 200] {
            coded[p] ^= 1;
        }
        assert_eq!(decode_hard_unterminated(&to_symbols(&coded)).unwrap(), data);
    }

    #[test]
    fn unterminated_empty_input() {
        assert_eq!(decode_hard_unterminated(&[]).unwrap(), Vec::<u8>::new());
        assert_eq!(decode_soft_unterminated(&[]).unwrap(), Vec::<u8>::new());
        assert_eq!(
            decode_soft_unterminated(&[1.0]),
            Err(ViterbiError::OddLength(1))
        );
    }

    #[test]
    fn all_erased_still_terminates() {
        // With no channel information the decoder must still return *some*
        // path ending in state 0 (all-zero data is such a path).
        let syms = vec![Symbol::Erased; 2 * (20 + TAIL_BITS)];
        let out = decode_hard(&syms).unwrap();
        assert_eq!(out.len(), 20);
    }
}
