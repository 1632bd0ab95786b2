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
//! the 64 trellis states (see [`ViterbiDecoder`]). It has three forms: a
//! portable loop that LLVM autovectorizes, and on x86-64 two intrinsics
//! forms, eight butterflies per register on CPUs with AVX-512F and DQ and
//! four on CPUs with AVX2. Each decode runs the widest form the CPU has,
//! picked at run time ([`kernel`] names it). All three produce the same
//! survivors and final metrics, bit for bit, and their decoded bits are
//! identical to the naive forward scatter kept as the oracle in the
//! dev-only `mimonet-oracle` crate (`mimonet_oracle::viterbi`), which
//! this crate's integration tests and proptests compare it against.
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

/// Survivor byte words per trellis step in the baseline and AVX2 forms:
/// one byte per state, eight states per `u64`.
const BYTE_WORDS: usize = NUM_STATES / 8;

/// One trellis step's survivors as two bit planes, 16 bytes: bit `s` of
/// `g1` is set where branch 1 won into state `s`, bit `s` of `valid`
/// where state `s`'s new metric is above −∞.
#[repr(C)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Row {
    g1: u64,
    valid: u64,
}

impl Row {
    /// Folds byte words into the planes. Byte `k` of word `w` is state
    /// `8k + w`'s `g1 | valid << 1`, two bits, so word `w + 4` shifted up
    /// 4 and word `w + 2` shifted up 2 fit beside word `w`'s bits: one
    /// shift-OR per word leaves two words for [`Row::from_pair`].
    #[inline(always)]
    fn from_byte_words(words: &[u64; BYTE_WORDS]) -> Self {
        let y: [u64; 4] = std::array::from_fn(|i| words[i] | words[i + 4] << 4);
        Row::from_pair([y[0] | y[2] << 2, y[1] | y[3] << 2])
    }

    /// The planes from two folded words: bits `2m` and `2m + 1` of byte
    /// `k` of `z[i]` are the `g1` and `valid` bits of state `8k + 2m + i`.
    #[inline(always)]
    fn from_pair(z: [u64; 2]) -> Self {
        const EVEN: u64 = 0x5555_5555_5555_5555;
        Row {
            g1: z[0] & EVEN | (z[1] & EVEN) << 1,
            valid: z[0] >> 1 & EVEN | z[1] & !EVEN,
        }
    }
}

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
/// [`F64x4`](mimonet_dsp::simd::F64x4) bit-identity rule. On x86-64 CPUs
/// the same operations run as intrinsics, eight butterflies per 512-bit
/// register with AVX-512F and DQ, else four per 256-bit register with AVX2
/// (`vmaxpd` is the strict select in both), with the same survivor rows
/// and final metrics. The survivors and decoded bits are
/// identical to the naive forward scatter kept as the oracle
/// `mimonet_oracle::viterbi`:
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
/// * each step keeps two bit planes, 16 bytes: bit `s` of `g1` is state
///   `s`'s decision (branch 1 won) and bit `s` of `valid` says its new
///   metric is above −∞; traceback rebuilds `prev = 2(s & 31) + g1` and
///   `bit = s >> 5`, and `(0, 0)` (the scatter's untouched entry) where
///   `valid` is clear.
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
    // survivor[t] holds step t's `g1` and `valid` planes, bit s for state
    // s; only grows, and rows past the current block are stale.
    survivor: Vec<Row>,
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
        survivor: &mut Vec<Row>,
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
        // Every byte of the first `steps` rows is overwritten below.
        if survivor.len() < steps {
            survivor.resize(steps, Row::default());
        }
        let survivor = &mut survivor[..steps];
        let metric = forward(trellis(), llrs, survivor);
        traceback(survivor, &metric, terminated, out);
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

/// Names the form of the forward search that [`ViterbiDecoder`] runs on
/// this CPU: `"avx512"` on x86-64 CPUs with AVX-512F and AVX-512DQ,
/// `"avx2"` on other x86-64 CPUs with AVX2, `"baseline"` everywhere else.
/// All three forms make the same decisions; this only says which one a
/// measured speed came from.
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx512::detected() {
        return "avx512";
    } else if avx2::detected() {
        return "avx2";
    }
    "baseline"
}

/// Runs the forward search over `llrs`, one trellis step per pair, into
/// `survivor` (one row per step), and returns the final path metrics. It
/// takes the AVX-512 form where the CPU has AVX-512F and DQ, else the AVX2
/// form where the CPU has that, else the baseline loop.
fn forward(tr: &Trellis, llrs: &[f64], survivor: &mut [Row]) -> [f64; NUM_STATES] {
    #[cfg(target_arch = "x86_64")]
    if let Some(metric) = avx512::forward(tr, llrs, survivor) {
        return metric;
    } else if let Some(metric) = avx2::forward(tr, llrs, survivor) {
        return metric;
    }
    forward_baseline(tr, llrs, survivor)
}

/// The portable forward search: [`acs_step`] per trellis step, which LLVM
/// vectorizes for the build target (SSE2 pairs on baseline x86-64).
fn forward_baseline(tr: &Trellis, llrs: &[f64], survivor: &mut [Row]) -> [f64; NUM_STATES] {
    let mut metric = &mut [NEG; NUM_STATES];
    metric[0] = 0.0; // encoder starts in the zero state
    let mut next = &mut [NEG; NUM_STATES];
    for (pair, surv) in llrs.chunks_exact(2).zip(survivor.iter_mut()) {
        acs_step(tr, metric, 0.5 * pair[0], 0.5 * pair[1], next, surv);
        std::mem::swap(&mut metric, &mut next);
    }
    *metric
}

/// Rebuilds the decoded bits of a finished search into `out`: one bit per
/// survivor row, without the tail when `terminated`.
///
/// Each row is read at its own address, whatever the state. `path` keeps
/// the state in its low six bits: a shift by `path` reads bit `path & 63`,
/// so on a row whose states are all valid a step is `prev = 2s + g1`,
/// one bit test and one shift-add, and bit 5 is the decoded bit. Rows
/// with an invalid state, the first five and any after a ±∞ or NaN LLR,
/// take the general rule, which sends an invalid state to `(0, 0)`.
fn traceback(survivor: &[Row], metric: &[f64; NUM_STATES], terminated: bool, out: &mut Vec<u8>) {
    let steps = survivor.len();
    // Final state: zero for terminated blocks, otherwise best metric
    // (last max wins on ties).
    let mut path = if terminated {
        0u64
    } else {
        metric
            .iter()
            .enumerate()
            .max_by(|a, b| {
                a.1.partial_cmp(b.1)
                    .expect("metrics are never NaN: NaN never wins a strict compare")
            })
            .map(|(i, _)| i as u64)
            .unwrap_or(0)
    };
    out.resize(steps, 0);
    for (bit, row) in out.iter_mut().zip(survivor).rev() {
        let Row { g1, valid } = *row;
        if valid == !0 {
            *bit = (path >> 5) as u8 & 1;
            path = path << 1 | (g1 >> (path & 63)) & 1;
        } else {
            let s = path & 63;
            // All ones if `valid`; else the path goes through (0, 0).
            let keep = (valid >> s & 1).wrapping_neg();
            *bit = (s >> 5 & keep) as u8;
            path = (s << 1 | g1 >> s & 1) & keep;
        }
    }
    if terminated {
        out.truncate(steps - TAIL_BITS);
    }
}

/// One add-compare-select step of [`ViterbiDecoder`]'s search: 32
/// butterflies, each writing two next-state metrics to `next` and their
/// survivor bits to `surv`.
#[inline]
fn acs_step(
    tr: &Trellis,
    metric: &[f64; NUM_STATES],
    a0: f64,
    b0: f64,
    next: &mut [f64; NUM_STATES],
    surv: &mut Row,
) {
    let p = (a0 + b0).to_bits();
    let pq = p ^ (a0 - b0).to_bits();
    let floor = tr.floor;
    let (lo, hi) = next.split_at_mut(HALF);
    // State s's survivor byte is byte s / 8 of word s % 8: row k of
    // eight butterflies fills byte k (next states j) and byte k + 4
    // (next states j + 32) of every word, one word per lane, so the
    // packing needs no shuffles. The words then fold into the row.
    const ROWS: usize = HALF / BYTE_WORDS;
    let mut words = [0u64; BYTE_WORDS];
    for k in 0..ROWS {
        for w in 0..BYTE_WORDS {
            let j = BYTE_WORDS * k + w;
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
    *surv = Row::from_byte_words(&words);
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

/// The AVX2 form of the forward search: four butterflies per 256-bit
/// register. Every state goes through [`acs_step`]'s IEEE operations in
/// the same order (no FMA, no reassociation), and `vmaxpd` has the
/// strict select's semantics, so survivors and final metrics are
/// bit-identical to the baseline loop's.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Row, Trellis, HALF, NEG, NUM_STATES};
    use std::arch::x86_64::*;

    /// Butterfly groups per step: group `g` is butterflies `4g..4g + 4`.
    const GROUPS: usize = HALF / 4;
    /// Registers per set of 64 metrics: register `i` holds states
    /// `4i..4i + 4`.
    const REGS: usize = NUM_STATES / 4;

    /// Whether this CPU runs the AVX2 form.
    pub(super) fn detected() -> bool {
        std::is_x86_feature_detected!("avx2")
    }

    /// [`super::forward`] in the AVX2 form, or `None` if the CPU lacks
    /// AVX2.
    pub(super) fn forward(
        tr: &Trellis,
        llrs: &[f64],
        survivor: &mut [Row],
    ) -> Option<[f64; NUM_STATES]> {
        if !detected() {
            return None;
        }
        assert_eq!(survivor.len(), llrs.len() / 2, "one survivor row per step");
        // SAFETY: the CPU has AVX2, checked just above.
        Some(unsafe { search(tr, llrs, survivor) })
    }

    /// The search itself. Code without AVX2 enabled may call it only
    /// after checking that the CPU has AVX2, as [`forward`] does.
    #[target_feature(enable = "avx2")]
    fn search(tr: &Trellis, llrs: &[f64], survivor: &mut [Row]) -> [f64; NUM_STATES] {
        // Group g's `use_q` and `negate` masks, one lane per butterfly.
        let mut masks = [[_mm256_setzero_pd(); 2]; GROUPS];
        for g in 0..GROUPS {
            let js = 4 * g..4 * g + 4;
            masks[g] = [lanes(&tr.use_q[js.clone()]), lanes(&tr.negate[js])];
        }
        let floor = _mm256_set1_pd(tr.floor);
        let mut metric = &mut [_mm256_set1_pd(NEG); REGS];
        metric[0] = _mm256_setr_pd(0.0, NEG, NEG, NEG); // the zero state
        let mut next = &mut [_mm256_set1_pd(NEG); REGS];
        for (pair, surv) in llrs.chunks_exact(2).zip(survivor.iter_mut()) {
            step(
                &masks,
                floor,
                metric,
                0.5 * pair[0],
                0.5 * pair[1],
                next,
                surv,
            );
            std::mem::swap(&mut metric, &mut next);
        }
        let mut out = [NEG; NUM_STATES];
        for (chunk, &v) in out.chunks_exact_mut(4).zip(metric.iter()) {
            // SAFETY: `chunk` is four contiguous, writable f64s; the store
            // needs no alignment.
            unsafe { _mm256_storeu_pd(chunk.as_mut_ptr(), v) };
        }
        out
    }

    /// Four `Trellis` mask words as the bit patterns of one register.
    #[target_feature(enable = "avx2")]
    fn lanes(m: &[u64]) -> __m256d {
        _mm256_castsi256_pd(_mm256_setr_epi64x(
            m[0] as i64,
            m[1] as i64,
            m[2] as i64,
            m[3] as i64,
        ))
    }

    /// One [`super::acs_step`]: group `g` reads registers `2g`, `2g + 1`
    /// and writes next states `4g..4g + 4` (register `g`) and
    /// `32 + 4g..32 + 4g + 4` (register `8 + g`).
    #[target_feature(enable = "avx2")]
    fn step(
        masks: &[[__m256d; 2]; GROUPS],
        floor: __m256d,
        metric: &[__m256d; REGS],
        a0: f64,
        b0: f64,
        next: &mut [__m256d; REGS],
        surv: &mut Row,
    ) {
        let p = (a0 + b0).to_bits();
        let pq = _mm256_castsi256_pd(_mm256_set1_epi64x((p ^ (a0 - b0).to_bits()) as i64));
        let p = _mm256_castsi256_pd(_mm256_set1_epi64x(p as i64));
        // `g1` at bits 0 and 32, `valid` at bits 1 and 33 of each lane.
        let g1_bits = _mm256_set1_epi64x(0x1_0000_0001);
        let valid_bits = _mm256_set1_epi64x(0x2_0000_0002);
        // Byte words 0..4 (even groups) and 4..8 (odd groups): lane
        // `l` of group `g` is word 4(g % 2) + l, and its next states `j`
        // and `j + 32` are bytes g / 2 and g / 2 + 4, as in `acs_step`.
        // Bytes k = 3, 2, 1, 0 go in by shifting the words up a byte.
        let mut words = [_mm256_setzero_si256(); 2];
        for k in (0..GROUPS / 2).rev() {
            for (w, g) in words.iter_mut().zip([2 * k, 2 * k + 1]) {
                let [use_q, negate] = masks[g];
                let r = _mm256_xor_pd(_mm256_xor_pd(p, _mm256_and_pd(pq, use_q)), negate);
                // States 8g..8g + 8 split into m0 = m[2j] and
                // m1 = m[2j + 1], j = 4g..4g + 4 in natural order.
                let (a, b) = (metric[2 * g], metric[2 * g + 1]);
                let m0 = _mm256_permute4x64_pd::<0b11_01_10_00>(_mm256_unpacklo_pd(a, b));
                let m1 = _mm256_permute4x64_pd::<0b11_01_10_00>(_mm256_unpackhi_pd(a, b));
                let (n, g1_lo, valid_lo) =
                    compare_select(_mm256_add_pd(m0, r), _mm256_sub_pd(m1, r), floor);
                next[g] = n;
                let (n, g1_hi, valid_hi) =
                    compare_select(_mm256_sub_pd(m0, r), _mm256_add_pd(m1, r), floor);
                next[GROUPS + g] = n;
                // Low half of each lane from next state j, high half
                // from j + 32.
                let g1 = _mm256_blend_epi32::<0b1010_1010>(g1_lo, g1_hi);
                let valid = _mm256_blend_epi32::<0b1010_1010>(valid_lo, valid_hi);
                let d = _mm256_or_si256(
                    _mm256_and_si256(g1, g1_bits),
                    _mm256_and_si256(valid, valid_bits),
                );
                *w = _mm256_or_si256(_mm256_slli_epi64::<8>(*w), d);
            }
        }
        // Fold the words as `Row::from_byte_words` does: lane `l` takes
        // word `4 + l` up 4, then the high half (words 2, 3) goes up 2
        // onto the low half (words 0, 1).
        let y = _mm256_or_si256(words[0], _mm256_slli_epi64::<4>(words[1]));
        let z = _mm_or_si128(
            _mm256_castsi256_si128(y),
            _mm_slli_epi64::<2>(_mm256_extracti128_si256::<1>(y)),
        );
        *surv = Row::from_pair([
            _mm_cvtsi128_si64(z) as u64,
            _mm_extract_epi64::<1>(z) as u64,
        ]);
    }

    /// [`super::compare_select`] on four states: `vmaxpd` returns its
    /// second operand on NaN or when the first is not greater, exactly
    /// the strict select, and `_CMP_GT_OQ` is the strict, NaN-false `>`.
    /// Returns the metrics and the all-ones-or-zero lane masks `g1` and
    /// `valid`.
    #[target_feature(enable = "avx2")]
    fn compare_select(c0: __m256d, c1: __m256d, floor: __m256d) -> (__m256d, __m256i, __m256i) {
        let s0 = _mm256_max_pd(c0, floor);
        let g1 = _mm256_cmp_pd::<_CMP_GT_OQ>(c1, s0);
        let m = _mm256_max_pd(c1, s0);
        let valid = _mm256_cmp_pd::<_CMP_GT_OQ>(m, floor);
        (m, _mm256_castpd_si256(g1), _mm256_castpd_si256(valid))
    }
}

/// The AVX-512 form of the forward search: eight butterflies per 512-bit
/// register. As in the AVX2 form, every state goes through
/// [`acs_step`]'s IEEE operations in the same order and `vmaxpd` is the
/// strict select, so survivors and final metrics are bit-identical to the
/// baseline loop's. It needs AVX-512F, and AVX-512DQ for `kmovb`, which
/// stores each compare's lane mask straight into its row byte.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{Row, Trellis, HALF, NEG, NUM_STATES};
    use std::arch::x86_64::*;

    /// Butterfly groups per step: group `g` is butterflies `8g..8g + 8`.
    const GROUPS: usize = HALF / 8;
    /// Registers per set of 64 metrics: register `i` holds states
    /// `8i..8i + 8`.
    const REGS: usize = NUM_STATES / 8;

    /// Whether this CPU runs the AVX-512 form (AVX-512F and AVX-512DQ).
    pub(super) fn detected() -> bool {
        std::is_x86_feature_detected!("avx512f") && std::is_x86_feature_detected!("avx512dq")
    }

    /// [`super::forward`] in the AVX-512 form, or `None` if the CPU lacks
    /// AVX-512F or AVX-512DQ.
    pub(super) fn forward(
        tr: &Trellis,
        llrs: &[f64],
        survivor: &mut [Row],
    ) -> Option<[f64; NUM_STATES]> {
        if !detected() {
            return None;
        }
        assert_eq!(survivor.len(), llrs.len() / 2, "one survivor row per step");
        // SAFETY: the CPU has AVX-512F and AVX-512DQ, checked just above.
        Some(unsafe { search(tr, llrs, survivor) })
    }

    /// The search itself. Code without AVX-512F and DQ enabled may call it
    /// only after checking that the CPU has both, as [`forward`] does.
    #[target_feature(enable = "avx512f,avx512dq")]
    fn search(tr: &Trellis, llrs: &[f64], survivor: &mut [Row]) -> [f64; NUM_STATES] {
        // Group g's `use_q` and `negate` masks, one lane per butterfly.
        let mut masks = [[_mm512_setzero_si512(); 2]; GROUPS];
        for g in 0..GROUPS {
            let js = 8 * g..8 * g + 8;
            masks[g] = [lanes(&tr.use_q[js.clone()]), lanes(&tr.negate[js])];
        }
        let floor = _mm512_set1_pd(tr.floor);
        let mut metric = &mut [_mm512_set1_pd(NEG); REGS];
        metric[0] = _mm512_setr_pd(0.0, NEG, NEG, NEG, NEG, NEG, NEG, NEG); // the zero state
        let mut next = &mut [_mm512_set1_pd(NEG); REGS];
        for (pair, surv) in llrs.chunks_exact(2).zip(survivor.iter_mut()) {
            step(
                &masks,
                floor,
                metric,
                0.5 * pair[0],
                0.5 * pair[1],
                next,
                surv,
            );
            std::mem::swap(&mut metric, &mut next);
        }
        let mut out = [NEG; NUM_STATES];
        for (chunk, &v) in out.chunks_exact_mut(8).zip(metric.iter()) {
            // SAFETY: `chunk` is eight contiguous, writable f64s; the store
            // needs no alignment.
            unsafe { _mm512_storeu_pd(chunk.as_mut_ptr(), v) };
        }
        out
    }

    /// Eight `Trellis` mask words as the lanes of one register.
    #[target_feature(enable = "avx512f")]
    fn lanes(m: &[u64]) -> __m512i {
        _mm512_setr_epi64(
            m[0] as i64,
            m[1] as i64,
            m[2] as i64,
            m[3] as i64,
            m[4] as i64,
            m[5] as i64,
            m[6] as i64,
            m[7] as i64,
        )
    }

    /// One [`super::acs_step`]: group `g` reads registers `2g`, `2g + 1`
    /// and writes next states `8g..8g + 8` (register `g`) and
    /// `32 + 8g..32 + 8g + 8` (register `4 + g`).
    #[target_feature(enable = "avx512f,avx512dq")]
    fn step(
        masks: &[[__m512i; 2]; GROUPS],
        floor: __m512d,
        metric: &[__m512d; REGS],
        a0: f64,
        b0: f64,
        next: &mut [__m512d; REGS],
        surv: &mut Row,
    ) {
        let p = (a0 + b0).to_bits();
        let pq = _mm512_set1_epi64((p ^ (a0 - b0).to_bits()) as i64);
        let p = _mm512_set1_epi64(p as i64);
        // Lanes 0, 2, …, 14 and 1, 3, …, 15 of a register pair.
        let even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
        let odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
        // Lane `l` of group `g` is state `8g + l` (`j`) and state
        // `32 + 8g + l` (`j + 32`), so each compare's mask is one byte of
        // a plane: byte g or g + 4 of `g1` (row bytes 0..8) or of `valid`
        // (row bytes 8..16).
        let row: *mut u8 = (surv as *mut Row).cast();
        for g in 0..GROUPS {
            let [use_q, negate] = masks[g];
            let r = _mm512_castsi512_pd(_mm512_xor_si512(
                _mm512_xor_si512(p, _mm512_and_si512(pq, use_q)),
                negate,
            ));
            // States 16g..16g + 16 split into m0 = m[2j] and
            // m1 = m[2j + 1], j = 8g..8g + 8 in natural order.
            let (a, b) = (metric[2 * g], metric[2 * g + 1]);
            let m0 = _mm512_permutex2var_pd(a, even, b);
            let m1 = _mm512_permutex2var_pd(a, odd, b);
            let (n, g1_lo, valid_lo) =
                compare_select(_mm512_add_pd(m0, r), _mm512_sub_pd(m1, r), floor);
            next[g] = n;
            let (n, g1_hi, valid_hi) =
                compare_select(_mm512_sub_pd(m0, r), _mm512_add_pd(m1, r), floor);
            next[GROUPS + g] = n;
            // SAFETY: `Row` is two `repr(C)` u64s, so `row` points at 16
            // writable bytes, `g1` then `valid`, and every offset here is
            // below 16 (g < 4).
            unsafe {
                _store_mask8(row.add(g), g1_lo);
                _store_mask8(row.add(GROUPS + g), g1_hi);
                _store_mask8(row.add(8 + g), valid_lo);
                _store_mask8(row.add(8 + GROUPS + g), valid_hi);
            }
        }
    }

    /// [`super::compare_select`] on eight states: `vmaxpd` returns its
    /// second operand on NaN or when the first is not greater, exactly
    /// the strict select, and `_CMP_GT_OQ` is the strict, NaN-false `>`.
    /// Returns the metrics and the lane masks `g1` and `valid`.
    #[target_feature(enable = "avx512f")]
    fn compare_select(c0: __m512d, c1: __m512d, floor: __m512d) -> (__m512d, __mmask8, __mmask8) {
        let s0 = _mm512_max_pd(c0, floor);
        let g1 = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(c1, s0);
        let m = _mm512_max_pd(c1, s0);
        let valid = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(m, floor);
        (m, g1, valid)
    }
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

    /// Xorshift64 stream for the forms and traceback tests.
    struct Xorshift(u64);

    impl Xorshift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Uniform in [-1, 1).
        fn signed_unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }
    }

    /// One stream of `2 * steps` LLRs of the given kind: random, a noisy
    /// punctured codeword, tie-heavy half-integers with `b = ±a`, or
    /// hostile values.
    fn forms_stream(rng: &mut Xorshift, kind: u64, steps: usize) -> Vec<f64> {
        const HOSTILE: [f64; 12] = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE / 4.0,
            5e-324,
            -5e-324,
            1.0,
        ];
        let n = 2 * steps;
        match kind {
            0 => (0..n).map(|_| 8.0 * rng.signed_unit()).collect(),
            1 => {
                let data: Vec<u8> = (0..steps).map(|_| rng.below(2) as u8).collect();
                let period = 3 + rng.below(4) as usize;
                crate::conv::ConvEncoder::new()
                    .encode(&data)
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| {
                        let noise = 0.6 * (rng.signed_unit() + rng.signed_unit());
                        if i % period == period - 1 {
                            0.0
                        } else {
                            2.0 * (1.0 - 2.0 * b as f64) + noise
                        }
                    })
                    .collect()
            }
            2 => {
                let mut llrs = Vec::with_capacity(n);
                for _ in 0..steps {
                    let a = (rng.below(17) as f64 - 8.0) / 2.0;
                    let b = match rng.below(3) {
                        0 => a,
                        1 => -a,
                        _ => (rng.below(17) as f64 - 8.0) / 2.0,
                    };
                    llrs.extend([a, b]);
                }
                llrs
            }
            _ => (0..n)
                .map(|_| {
                    if rng.below(3) == 0 {
                        HOSTILE[rng.below(HOSTILE.len() as u64) as usize]
                    } else {
                        4.0 * rng.signed_unit()
                    }
                })
                .collect(),
        }
    }

    /// Every wide form the CPU has (AVX2, AVX-512F+DQ) and the baseline
    /// loop on the same streams: equal survivor rows, bit-equal final
    /// metrics, and equal decoded bits terminated and unterminated. The
    /// wide forms write into rows of all ones, so a survivor byte a form
    /// leaves unwritten fails the row comparison. A form the CPU lacks is
    /// skipped with a note, and `kernel()` must name the form the dispatch
    /// picks.
    #[test]
    fn wide_forms_match_baseline_loop_bit_for_bit() {
        #[cfg(target_arch = "x86_64")]
        {
            type Form = fn(&Trellis, &[f64], &mut [Row]) -> Option<[f64; NUM_STATES]>;
            let forms: [(&str, &str, Form); 2] = [
                ("avx2", "AVX2", avx2::forward),
                ("avx512", "AVX-512F+DQ", avx512::forward),
            ];
            let tr = trellis();
            let mut rng = Xorshift(0x5EED_AF20);
            let mut ran = [false; 2];
            let (mut streams, mut total_steps) = (0, 0);
            for case in 0..202u64 {
                let steps = match case {
                    0..=3 => 0,
                    4..=7 => 1,
                    8..=11 => TAIL_BITS,
                    12..=15 => 1500,
                    // One `bulk_mimo` frame: 24 symbols of 520 data bits.
                    16..=17 => 12_480,
                    _ => rng.below(1501) as usize,
                };
                let kind = case % 4;
                let llrs = forms_stream(&mut rng, kind, steps);
                let mut surv_base = vec![Row::default(); steps];
                let base = forward_baseline(tr, &llrs, &mut surv_base);
                for ((name, _, form), ran) in forms.iter().zip(&mut ran) {
                    let ones = Row { g1: !0, valid: !0 };
                    let mut surv_wide = vec![ones; steps];
                    let Some(wide) = form(tr, &llrs, &mut surv_wide) else {
                        continue;
                    };
                    *ran = true;
                    let what = format!("{name} form, case {case}, kind {kind}, {steps} steps");
                    assert_eq!(surv_base, surv_wide, "survivor rows, {what}");
                    assert_eq!(
                        base.map(f64::to_bits),
                        wide.map(f64::to_bits),
                        "metrics, {what}"
                    );
                    for terminated in [false, true] {
                        if terminated && steps < TAIL_BITS {
                            continue;
                        }
                        let (mut bits_base, mut bits_wide) = (Vec::new(), Vec::new());
                        traceback(&surv_base, &base, terminated, &mut bits_base);
                        traceback(&surv_wide, &wide, terminated, &mut bits_wide);
                        assert_eq!(bits_base, bits_wide, "decoded bits, {what}");
                    }
                }
                streams += 1;
                total_steps += steps;
            }
            // The dispatch takes the widest form the CPU has.
            let picked = match ran {
                [_, true] => "avx512",
                [true, false] => "avx2",
                [false, false] => "baseline",
            };
            assert_eq!(kernel(), picked);
            for ((name, feature, _), ran) in forms.iter().zip(ran) {
                if ran {
                    println!(
                        "viterbi forms: {name} form compared with the baseline loop \
                         on {streams} streams, {total_steps} trellis steps"
                    );
                } else {
                    println!(
                        "viterbi forms: this CPU lacks {feature}; the {name} form was not run"
                    );
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        println!("viterbi forms: not x86-64; only the baseline loop exists");
    }

    /// Traceback by the general rule alone, from `state`: a valid state
    /// steps to `2(s & 31) + g1`, an invalid one sends the path through
    /// `(0, 0)`. Also returns how many rows from `from` on the path met
    /// with an invalid state.
    fn traceback_one_rule(survivor: &[Row], mut state: usize, from: usize) -> (Vec<u8>, usize) {
        let mut bits = vec![0u8; survivor.len()];
        let mut invalid = 0;
        for (t, row) in survivor.iter().enumerate().rev() {
            if row.valid >> state & 1 == 1 {
                bits[t] = (state >> 5) as u8;
                state = 2 * (state & 31) + (row.g1 >> state & 1) as usize;
            } else {
                invalid += usize::from(t >= from);
                state = 0;
            }
        }
        (bits, invalid)
    }

    /// Clean streams fill every row from step `TAIL_BITS - 1` on with valid
    /// states, so `traceback` takes its two-operation step there. Streams
    /// with ±∞ or NaN LLRs after step `TAIL_BITS` leave later rows with
    /// invalid states, which take the general rule, and decoded paths
    /// through them. Both must decode as a one-rule reference does.
    #[test]
    fn traceback_matches_one_rule_reference_on_both_row_kinds() {
        const INF: f64 = f64::INFINITY;
        const SPOILERS: [[f64; 2]; 5] = [
            [f64::NAN, 1.0],
            [INF, -INF],
            [-INF, INF],
            [INF, 0.5],
            [-0.5, f64::NAN],
        ];
        let tr = trellis();
        let mut rng = Xorshift(0x7ACE_BAC4);
        let (mut partial_rows, mut invalid_visits) = (0, 0);
        for case in 0..96u64 {
            let steps = TAIL_BITS + 1 + rng.below(800) as usize;
            let mut llrs = forms_stream(&mut rng, 1 + case % 2, steps);
            let hostile = case % 3 != 0;
            if hostile {
                for _ in 0..1 + rng.below(3) {
                    let t = TAIL_BITS + rng.below((steps - TAIL_BITS) as u64) as usize;
                    let spoiler = SPOILERS[rng.below(SPOILERS.len() as u64) as usize];
                    llrs[2 * t..2 * t + 2].copy_from_slice(&spoiler);
                }
            }
            let mut surv = vec![Row::default(); steps];
            let metric = forward(tr, &llrs, &mut surv);
            assert!(surv[..TAIL_BITS - 1].iter().all(|r| r.valid != !0));
            let partial = surv[TAIL_BITS - 1..]
                .iter()
                .filter(|r| r.valid != !0)
                .count();
            if !hostile {
                assert_eq!(
                    partial, 0,
                    "case {case}: a clean stream fills every later row"
                );
            }
            partial_rows += partial;
            for terminated in [false, true] {
                let mut got = Vec::new();
                traceback(&surv, &metric, terminated, &mut got);
                // The final state: zero, or the last best metric.
                let start = if terminated {
                    0
                } else {
                    (0..NUM_STATES).fold(
                        0,
                        |best, s| if metric[s] >= metric[best] { s } else { best },
                    )
                };
                let (mut want, invalid) = traceback_one_rule(&surv, start, TAIL_BITS);
                if terminated {
                    want.truncate(steps - TAIL_BITS);
                }
                assert_eq!(got, want, "case {case}, terminated {terminated}");
                invalid_visits += invalid;
            }
        }
        assert!(
            partial_rows > 0,
            "no row past the fill-up had an invalid state"
        );
        assert!(invalid_visits > 0, "no decoded path met an invalid state");
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
