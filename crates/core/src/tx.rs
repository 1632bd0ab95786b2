//! The MIMO-OFDM transmitter: PSDU bytes → per-antenna baseband sample
//! streams, in the 802.11n mixed-format frame the paper implements.
//!
//! Frame layout (80-sample symbols unless noted):
//!
//! ```text
//! L-STF (160) | L-LTF (160) | L-SIG | HT-SIG1 | HT-SIG2 | HT-STF |
//! HT-LTF1 [| HT-LTF2] | DATA...
//! ```
//!
//! The legacy portion (through HT-SIG) is transmitted identically from all
//! antennas with per-antenna cyclic shifts; the HT portion maps each
//! spatial stream to one antenna (direct mapping). Every antenna's output
//! is scaled by `1/sqrt(n_tx)` so total radiated power is 1 regardless of
//! antenna count — the convention the channel simulator's SNR definition
//! assumes.

use crate::config::TxConfig;
use mimonet_dsp::complex::Complex64;
use mimonet_fec::conv::{encode_step, encode_word};
use mimonet_fec::interleaver::Interleaver;
use mimonet_fec::puncture::{puncture_word, CodeRate, WORD_DATA_BITS};
use mimonet_fec::scrambler::{keystream_words, PERIOD};
use mimonet_frame::carriers::{carrier_to_bin, FFT_LEN, PILOT_CARRIERS, SYM_LEN};
use mimonet_frame::mcs::{Mcs, MAX_MCS};
use mimonet_frame::modulation::Modulation;
use mimonet_frame::ofdm::{apply_cyclic_shift, ht_cyclic_shift, legacy_cyclic_shift, Ofdm};
use mimonet_frame::pilots::{ht_pilots, legacy_pilots};
use mimonet_frame::preamble::{htltf_time, htstf_time, lltf_time, lstf_time, num_htltf};
use mimonet_frame::psdu::{SERVICE_BITS, TAIL_BITS};
use mimonet_frame::sig::{HtSig, LSig};
use mimonet_frame::Layout;
use std::sync::OnceLock;

/// Number of pre-data symbols that consume pilot-polarity indices:
/// L-SIG (p_0) + two HT-SIG symbols (p_1, p_2); data starts at p_3.
pub const DATA_POLARITY_OFFSET: usize = 3;

/// Samples in the frame before the HT-STF for an HT mixed frame:
/// L-STF + L-LTF + L-SIG + 2 × HT-SIG.
pub const PRE_HT_LEN: usize = 160 + 160 + 80 + 160;

/// Most coded bits one OFDM symbol carries: 52 carriers × 6 bits × 4
/// streams.
const MAX_CBPS: usize = 52 * 6 * 4;

/// Total frame length in samples for a PSDU of `psdu_len` octets at
/// `mcs` — what [`Transmitter::transmit`] produces, computed from the
/// MCS alone.
pub fn frame_len(mcs: &Mcs, psdu_len: usize) -> usize {
    let n_sym = mcs.num_symbols(psdu_len * 8);
    PRE_HT_LEN + 80 + num_htltf(mcs.n_streams) * 80 + n_sym * 80
}

/// The transmitter. Cheap to build: everything that depends only on the
/// MCS or the antenna count (the data path's gather and constellation,
/// the training fields, the OFDM plan) lives in process-wide tables built
/// on first use.
#[derive(Clone, Debug)]
pub struct Transmitter {
    cfg: TxConfig,
    plan: &'static McsPlan,
    training: &'static Training,
    /// The keystream words of `cfg.scrambler_seed`.
    keystream: &'static [u64; PERIOD],
}

/// Transmit-side errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxError {
    /// PSDU exceeds the 16-bit HT length field.
    PsduTooLong(usize),
    /// PSDU is empty.
    EmptyPsdu,
}

impl std::fmt::Display for TxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxError::PsduTooLong(n) => write!(f, "PSDU of {n} octets exceeds 65535"),
            TxError::EmptyPsdu => write!(f, "PSDU must not be empty"),
        }
    }
}

impl std::error::Error for TxError {}

/// What the data path needs for one MCS.
#[derive(Debug)]
struct McsPlan {
    /// The fused stream-parse + interleave gather (the transmit twin of
    /// the receiver's `rx_gather`): interleaved bit `p` of stream `s` is
    /// coded bit `gather[s * n_cbpss + p]` of the symbol.
    gather: Vec<u16>,
    /// The constellation from [`Modulation::map_bits`], indexed by the
    /// mapped bits (first bit in bit 0).
    points: Vec<Complex64>,
}

impl McsPlan {
    fn get(mcs: &Mcs) -> &'static Self {
        static PLANS: [OnceLock<McsPlan>; MAX_MCS as usize + 1] =
            [const { OnceLock::new() }; MAX_MCS as usize + 1];
        PLANS[mcs.index as usize].get_or_init(|| Self {
            gather: tx_gather(mcs.n_cbpss(), mcs.n_bpsc(), mcs.n_streams),
            points: mcs.modulation.constellation(),
        })
    }
}

/// The gather behind [`McsPlan::gather`]. Equal, bit for bit, to
/// [`parse_streams`] followed by each stream's [`Interleaver::table`]
/// scatter.
fn tx_gather(n_cbpss: usize, n_bpsc: usize, n_ss: usize) -> Vec<u16> {
    let group = (n_bpsc / 2).max(1);
    let mut gather = vec![0u16; n_ss * n_cbpss];
    for (s, stream) in gather.chunks_exact_mut(n_cbpss).enumerate() {
        let table = Interleaver::ht(n_cbpss, n_bpsc, s, n_ss).table();
        for (j, &t) in table.iter().enumerate() {
            // Bit j of stream s is bit (j % group) of the parser's group
            // (j / group) * n_ss + s.
            stream[t as usize] = (((j / group) * n_ss + s) * group + j % group) as u16;
        }
    }
    gather
}

/// The frame's fixed training fields for one antenna count, after the
/// antenna scale: they depend only on the antenna and `n_tx`.
#[derive(Debug)]
struct Training {
    /// Per antenna: L-STF then L-LTF.
    legacy: Vec<Vec<Complex64>>,
    /// Per antenna: HT-STF then the HT-LTFs.
    ht: Vec<Vec<Complex64>>,
}

impl Training {
    fn get(n_tx: usize) -> &'static Self {
        static TRAINING: [OnceLock<Training>; 4] = [const { OnceLock::new() }; 4];
        TRAINING[n_tx - 1].get_or_init(|| {
            let ofdm = Ofdm::new();
            let scale = antenna_scale(n_tx);
            let scaled = |xs: Vec<Complex64>| -> Vec<Complex64> {
                xs.iter().map(|x| x.scale(scale)).collect()
            };
            Self {
                legacy: (0..n_tx)
                    .map(|a| scaled([lstf_time(a, n_tx), lltf_time(a, n_tx)].concat()))
                    .collect(),
                ht: (0..n_tx)
                    .map(|a| {
                        let mut field = htstf_time(&ofdm, a, n_tx);
                        for ltf in 0..num_htltf(n_tx) {
                            field.extend(htltf_time(&ofdm, a, n_tx, ltf));
                        }
                        scaled(field)
                    })
                    .collect(),
            }
        })
    }
}

/// Per-antenna power normalization: every antenna's output is scaled by
/// `1/sqrt(n_tx)`. Applied as its own multiply after the OFDM scale —
/// folding the two scales into one product would change rounding.
fn antenna_scale(n_tx: usize) -> f64 {
    1.0 / (n_tx as f64).sqrt()
}

/// The process-wide 64-point OFDM engine.
fn ofdm() -> &'static Ofdm {
    static OFDM: OnceLock<Ofdm> = OnceLock::new();
    OFDM.get_or_init(Ofdm::new)
}

/// Words of packed coded bits one OFDM symbol fills, with room for the
/// last push's spill.
const CODED_WORDS: usize = MAX_CBPS / 64 + 2;

/// The DATA field's coded bits, one OFDM symbol at a time: scramble,
/// encode and puncture 64 data bits at a time
/// (`SERVICE | PSDU | tail | pad`, the tail re-zeroed after scrambling).
struct BitPass<'a> {
    psdu: &'a [u8],
    keystream: &'static [u64; PERIOD],
    rate: CodeRate,
    /// First tail bit.
    tail: usize,
    /// Next data bit.
    next: usize,
    /// Scrambler keystream phase of `next`.
    phase: usize,
    /// Encoder state: the last six data bits.
    state: u8,
}

impl<'a> BitPass<'a> {
    fn new(tx: &'a Transmitter, psdu: &'a [u8]) -> Self {
        Self {
            psdu,
            keystream: tx.keystream,
            rate: tx.cfg.mcs.code_rate,
            tail: SERVICE_BITS + psdu.len() * 8,
            next: 0,
            phase: 0,
            state: 0,
        }
    }

    /// The next 64 data bits, scrambled, first in bit 0.
    fn data_word(&self) -> u64 {
        // Before scrambling, every bit outside the PSDU is zero.
        let mut x = psdu_bits(self.psdu, self.next as isize - SERVICE_BITS as isize);
        x ^= self.keystream[self.phase];
        // The tail is zero after scrambling: clear its bits where they
        // fall in this word, from bit `tail - next` on.
        let shift = self.tail as isize - self.next as isize + 64;
        if (0..128).contains(&shift) {
            let tail = (1u128 << TAIL_BITS) - 1;
            x &= !((tail << shift) >> 64) as u64;
        }
        x
    }

    /// Encodes the next `n_data` data bits into `out`, which must hold
    /// exactly their punctured coded bits (one per byte).
    fn fill(&mut self, n_data: usize, out: &mut [u8]) {
        let block = WORD_DATA_BITS as usize;
        let mut coded = [0u64; CODED_WORDS];
        let mut len = 0;
        let end = self.next + n_data;
        // Two puncture blocks per data word. A symbol starts a puncture
        // period, and so does every block after it.
        while self.next < end {
            let n = (end - self.next).min(2 * block);
            let (a, b, state) = encode_word(self.state, self.data_word(), n as u32);
            self.state = state;
            for first in (0..n).step_by(block) {
                let m = (n - first).min(block) as u32;
                let (a, b) = ((a >> first) as u32, (b >> first) as u32);
                let (bits, count) = puncture_word(self.rate, a, b, m);
                let (w, r) = (len / 64, len % 64);
                coded[w] |= bits << r;
                if r > 0 {
                    coded[w + 1] |= bits >> (64 - r);
                }
                len += count as usize;
            }
            self.next += n;
            self.phase += n;
            if self.phase >= PERIOD {
                self.phase -= PERIOD;
            }
        }
        assert_eq!(len, out.len(), "puncture periods end on symbol boundaries");
        let mut bytes = coded.iter().flat_map(|w| w.to_le_bytes());
        let mut eights = out.chunks_exact_mut(8);
        for (eight, byte) in eights.by_ref().zip(bytes.by_ref()) {
            eight.copy_from_slice(&ONE_BIT_BYTES[usize::from(byte)].to_le_bytes());
        }
        let last = bytes.next().unwrap_or(0);
        for (k, bit) in eights.into_remainder().iter_mut().enumerate() {
            *bit = last >> k & 1;
        }
    }
}

/// PSDU bits `j..j + 64` (LSB first in each octet, first in bit 0), zero
/// outside the PSDU.
fn psdu_bits(psdu: &[u8], j: isize) -> u64 {
    let (first, shift) = (j.div_euclid(8), j.rem_euclid(8));
    let mut window = [0u8; 16];
    match usize::try_from(first) {
        Ok(b) if b + 16 <= psdu.len() => window.copy_from_slice(&psdu[b..b + 16]),
        _ => {
            for (k, slot) in window[..9].iter_mut().enumerate() {
                let at = usize::try_from(first + k as isize).ok();
                *slot = at.and_then(|b| psdu.get(b)).copied().unwrap_or(0);
            }
        }
    }
    (u128::from_le_bytes(window) >> shift) as u64
}

/// Byte `k` of entry `x` is bit `k` of `x`: eight packed coded bits as
/// eight one-bit bytes.
static ONE_BIT_BYTES: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut x = 0;
    while x < 256 {
        let mut k = 0;
        while k < 8 {
            table[x] |= (((x >> k) & 1) as u64) << (8 * k);
            k += 1;
        }
        x += 1;
    }
    table
};

impl Transmitter {
    /// Creates a transmitter.
    ///
    /// # Panics
    ///
    /// Panics if the scrambler seed is zero or wider than 7 bits.
    pub fn new(cfg: TxConfig) -> Self {
        Self {
            plan: McsPlan::get(&cfg.mcs),
            training: Training::get(cfg.mcs.n_streams),
            keystream: keystream_words(cfg.scrambler_seed),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TxConfig {
        &self.cfg
    }

    /// The MCS in use.
    pub fn mcs(&self) -> Mcs {
        self.cfg.mcs
    }

    /// Total frame length in samples for a PSDU of `psdu_len` octets.
    pub fn frame_len(&self, psdu_len: usize) -> usize {
        frame_len(&self.cfg.mcs, psdu_len)
    }

    /// The punctured (over-the-air) coded bit stream for a PSDU — the
    /// reference the link instrumentation compares received LLR hard
    /// decisions against to measure *pre-FEC* (uncoded) BER.
    pub fn coded_bits(&self, psdu: &[u8]) -> Vec<u8> {
        let mcs = self.cfg.mcs;
        let n_sym = mcs.num_symbols(psdu.len() * 8);
        let mut out = vec![0u8; n_sym * mcs.n_cbps()];
        let mut pass = BitPass::new(self, psdu);
        for sym in out.chunks_exact_mut(mcs.n_cbps()) {
            pass.fill(mcs.n_dbps(), sym);
        }
        out
    }

    /// Builds the per-antenna sample streams for one PSDU.
    pub fn transmit(&self, psdu: &[u8]) -> Result<Vec<Vec<Complex64>>, TxError> {
        let mut streams = vec![Vec::new(); self.cfg.mcs.n_streams];
        self.transmit_into(psdu, 0, &mut streams)?;
        Ok(streams)
    }

    /// Appends one frame for `psdu` ([`Self::frame_len`] samples, the
    /// ones [`Self::transmit`] returns), then `gap` zero samples, to each
    /// antenna's buffer in `out` (one per TX antenna). A warmed caller
    /// whose buffers have the capacity allocates nothing here.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not the MCS's stream count.
    pub fn transmit_into(
        &self,
        psdu: &[u8],
        gap: usize,
        out: &mut [Vec<Complex64>],
    ) -> Result<(), TxError> {
        if psdu.is_empty() {
            return Err(TxError::EmptyPsdu);
        }
        if psdu.len() > u16::MAX as usize {
            return Err(TxError::PsduTooLong(psdu.len()));
        }
        let mcs = self.cfg.mcs;
        let n_tx = mcs.n_streams;
        assert_eq!(out.len(), n_tx, "one output buffer per TX antenna");
        let len = self.frame_len(psdu.len());
        for s in out.iter_mut() {
            s.reserve(len + gap);
        }
        let scale = antenna_scale(n_tx);

        // ---- Legacy preamble ----
        for (s, field) in out.iter_mut().zip(&self.training.legacy) {
            s.extend_from_slice(field);
        }

        // ---- L-SIG ----
        // The legacy LENGTH/RATE announce a 6 Mb/s frame spanning the HT
        // duration (spoofing); receivers in this workspace read HT-SIG for
        // the real parameters.
        let lsig = LSig::new(6.0, (psdu.len() as u16).clamp(1, 4095)).bits();
        let mut lsig_coded = [0u8; 2 * LSig::BITS];
        conv_encode(&lsig, &mut lsig_coded);
        let lsig_sym = legacy_bpsk_symbol(&lsig_coded, 0, false);
        append_legacy_symbol(out, &lsig_sym, scale);

        // ---- HT-SIG (two QBPSK symbols) ----
        let htsig = HtSig::new(mcs.index, psdu.len() as u16).bits();
        let mut htsig_coded = [0u8; 2 * HtSig::BITS];
        conv_encode(&htsig, &mut htsig_coded);
        for (i, half) in htsig_coded.chunks_exact(48).enumerate() {
            let sym = legacy_bpsk_symbol(half, 1 + i, true);
            append_legacy_symbol(out, &sym, scale);
        }

        // ---- HT-STF and HT-LTFs ----
        for (s, field) in out.iter_mut().zip(&self.training.ht) {
            s.extend_from_slice(field);
        }

        // ---- HT-Data ----
        let n_cbpss = mcs.n_cbpss();
        let n_bpsc = mcs.n_bpsc();
        let n_sym = mcs.num_symbols(psdu.len() * 8);
        let mut pass = BitPass::new(self, psdu);
        let mut coded = [0u8; MAX_CBPS];
        let coded = &mut coded[..mcs.n_cbps()];
        let data_scale = Ofdm::unit_power_scale(56);
        let carriers = Layout::Ht.data_carriers();
        let mut sym_out = [Complex64::ZERO; SYM_LEN];
        for sym in 0..n_sym {
            pass.fill(mcs.n_dbps(), coded);
            let gathers = self.plan.gather.chunks_exact(n_cbpss);
            for (stream, (s, gather)) in out.iter_mut().zip(gathers).enumerate() {
                let mut bins = [Complex64::ZERO; FFT_LEN];
                for (&k, idx) in carriers.iter().zip(gather.chunks_exact(n_bpsc)) {
                    let point = idx
                        .iter()
                        .enumerate()
                        .fold(0, |acc, (i, &j)| acc | (coded[j as usize] as usize) << i);
                    bins[carrier_to_bin(k)] = self.plan.points[point];
                }
                let pil = ht_pilots(stream, n_tx, sym, DATA_POLARITY_OFFSET);
                for (&k, &p) in PILOT_CARRIERS.iter().zip(&pil) {
                    bins[carrier_to_bin(k)] = Complex64::from_re(p);
                }
                apply_cyclic_shift(&mut bins, ht_cyclic_shift(stream, n_tx));
                ofdm().modulate_into(&mut bins, data_scale, &mut sym_out);
                s.extend(sym_out.iter().map(|x| x.scale(scale)));
            }
        }

        for s in out.iter_mut() {
            s.resize(s.len() + gap, Complex64::ZERO);
        }
        Ok(())
    }
}

/// Rate-1/2 K = 7 encoding of `bits` from the zero state into `out`
/// (`[a0, b0, a1, b1, …]`).
fn conv_encode(bits: &[u8], out: &mut [u8]) {
    let mut state = 0;
    for (&bit, ab) in bits.iter().zip(out.chunks_exact_mut(2)) {
        let (a, b, next) = encode_step(state, bit);
        ab[0] = a;
        ab[1] = b;
        state = next;
    }
}

/// One legacy-format BPSK (or QBPSK when `quadrature`) symbol carrying
/// 48 already-coded bits, with pilots at polarity index `sym_index`.
/// Returns the *unshifted* frequency bins; CSD is applied per antenna by
/// [`append_legacy_symbol`].
fn legacy_bpsk_symbol(
    coded_bits: &[u8],
    sym_index: usize,
    quadrature: bool,
) -> [Complex64; FFT_LEN] {
    static INTERLEAVE: OnceLock<Vec<u32>> = OnceLock::new();
    let table = INTERLEAVE.get_or_init(|| Interleaver::legacy(48, 1).table());
    assert_eq!(coded_bits.len(), 48, "legacy symbol carries 48 coded bits");
    let mut interleaved = [0u8; 48];
    for (&b, &t) in coded_bits.iter().zip(table) {
        interleaved[t as usize] = b;
    }
    let rot = if quadrature {
        Complex64::I
    } else {
        Complex64::ONE
    };
    let mut bins = [Complex64::ZERO; FFT_LEN];
    for (&k, &b) in Layout::Legacy.data_carriers().iter().zip(&interleaved) {
        bins[carrier_to_bin(k)] = Modulation::Bpsk.map_bits(&[b]) * rot;
    }
    let pil = legacy_pilots(sym_index, 0);
    for (&k, &p) in PILOT_CARRIERS.iter().zip(&pil) {
        bins[carrier_to_bin(k)] = Complex64::from_re(p);
    }
    bins
}

/// Appends a legacy symbol to every antenna with its legacy CSD and the
/// antenna scale.
fn append_legacy_symbol(streams: &mut [Vec<Complex64>], bins: &[Complex64; FFT_LEN], scale: f64) {
    let n_tx = streams.len();
    let mut sym = [Complex64::ZERO; SYM_LEN];
    for (a, s) in streams.iter_mut().enumerate() {
        let mut shifted = *bins;
        apply_cyclic_shift(&mut shifted, legacy_cyclic_shift(a, n_tx));
        ofdm().modulate_into(&mut shifted, Ofdm::unit_power_scale(52), &mut sym);
        s.extend(sym.iter().map(|x| x.scale(scale)));
    }
}

/// The 802.11n stream parser: distributes one symbol's coded bits
/// round-robin in groups of `s = max(1, n_bpsc/2)` bits per stream.
pub fn parse_streams(bits: &[u8], n_streams: usize, n_bpsc: usize) -> Vec<Vec<u8>> {
    let s = (n_bpsc / 2).max(1);
    assert_eq!(
        bits.len() % (n_streams * s),
        0,
        "bit count {} not divisible by {} streams × s={}",
        bits.len(),
        n_streams,
        s
    );
    let per_stream = bits.len() / n_streams;
    let mut out = vec![Vec::with_capacity(per_stream); n_streams];
    for (g, group) in bits.chunks(s).enumerate() {
        out[g % n_streams].extend_from_slice(group);
    }
    out
}

/// Inverse of [`parse_streams`] over per-stream LLR vectors.
pub fn deparse_streams_soft(streams: &[Vec<f64>], n_bpsc: usize) -> Vec<f64> {
    let s = (n_bpsc / 2).max(1);
    let n_streams = streams.len();
    let per_stream = streams[0].len();
    assert!(
        streams.iter().all(|v| v.len() == per_stream),
        "ragged streams"
    );
    assert_eq!(per_stream % s, 0, "stream length not a multiple of s");
    let mut out = Vec::with_capacity(per_stream * n_streams);
    let groups_per_stream = per_stream / s;
    for g in 0..groups_per_stream {
        for stream in streams.iter().take(n_streams) {
            out.extend_from_slice(&stream[g * s..(g + 1) * s]);
        }
    }
    out
}

/// [`deparse_streams_soft`] over a flat stream-major slab
/// (`streams[st * per_stream + i]`, `per_stream = streams.len() /
/// n_streams`), *appending* to `out`. Emits the same values in the same
/// order as the nested variant. Test-only: the receiver's fused gather
/// table replaces it, and the gather's unit test uses it as the oracle.
#[cfg(test)]
pub(crate) fn deparse_streams_soft_flat(
    streams: &[f64],
    n_streams: usize,
    n_bpsc: usize,
    out: &mut Vec<f64>,
) {
    let s = (n_bpsc / 2).max(1);
    assert!(n_streams > 0, "need at least one stream");
    assert_eq!(streams.len() % n_streams, 0, "ragged streams");
    let per_stream = streams.len() / n_streams;
    assert_eq!(per_stream % s, 0, "stream length not a multiple of s");
    out.reserve(streams.len());
    let groups_per_stream = per_stream / s;
    for g in 0..groups_per_stream {
        for st in 0..n_streams {
            let base = st * per_stream + g * s;
            out.extend_from_slice(&streams[base..base + s]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TxConfig;
    use mimonet_dsp::complex::mean_power;

    fn tx(mcs: u8) -> Transmitter {
        Transmitter::new(TxConfig::new(mcs).unwrap())
    }

    #[test]
    fn deparse_flat_matches_nested() {
        for (n_streams, n_bpsc, per_stream) in [(1usize, 1usize, 52usize), (2, 2, 104), (2, 6, 312)]
        {
            let nested: Vec<Vec<f64>> = (0..n_streams)
                .map(|st| {
                    (0..per_stream)
                        .map(|i| (st * per_stream + i) as f64 * 0.25 - 7.0)
                        .collect()
                })
                .collect();
            let flat: Vec<f64> = nested.iter().flatten().copied().collect();
            let want = deparse_streams_soft(&nested, n_bpsc);
            let mut got = vec![-1.0; 3]; // pre-existing content must be kept
            deparse_streams_soft_flat(&flat, n_streams, n_bpsc, &mut got);
            assert_eq!(got[..3], [-1.0, -1.0, -1.0]);
            assert_eq!(got[3..], want[..], "ns={n_streams} bpsc={n_bpsc}");
        }
    }

    #[test]
    fn frame_lengths() {
        // MCS8 (2 streams, BPSK 1/2): N_DBPS = 52.
        let t = tx(8);
        let psdu = vec![0u8; 100];
        // bits: 16 + 800 + 6 = 822 → 16 symbols (822/52 = 15.8).
        let streams = t.transmit(&psdu).unwrap();
        assert_eq!(streams.len(), 2);
        let want = PRE_HT_LEN + 80 + 2 * 80 + 16 * 80;
        assert_eq!(streams[0].len(), want);
        assert_eq!(streams[1].len(), want);
        assert_eq!(t.frame_len(100), want);

        // The MCS-only length matches what every MCS transmits.
        for index in 0..=31u8 {
            let t = tx(index);
            for len in [1usize, 2, 40, 333, 1500] {
                let streams = t.transmit(&vec![0x5Au8; len]).unwrap();
                assert_eq!(streams.len(), t.mcs().n_streams);
                for s in &streams {
                    assert_eq!(s.len(), frame_len(&t.mcs(), len), "MCS{index} {len} B");
                }
                assert_eq!(t.frame_len(len), frame_len(&t.mcs(), len));
            }
        }
    }

    #[test]
    fn gather_matches_parser_and_interleaver() {
        for index in 0..=31u8 {
            let mcs = Mcs::from_index(index).unwrap();
            let (n_cbpss, n_bpsc, n_ss) = (mcs.n_cbpss(), mcs.n_bpsc(), mcs.n_streams);
            let n_cbps = n_ss * n_cbpss;
            // Run the parser and the interleavers on bit plane k of each
            // coded bit's position; the planes spell out, for every
            // interleaved bit, which coded bit landed there.
            let mut want = vec![0usize; n_cbps];
            for k in 0..usize::BITS - n_cbps.leading_zeros() {
                let plane: Vec<u8> = (0..n_cbps).map(|i| ((i >> k) & 1) as u8).collect();
                for (st, bits) in parse_streams(&plane, n_ss, n_bpsc).iter().enumerate() {
                    let il = Interleaver::ht(n_cbpss, n_bpsc, st, n_ss).interleave(bits);
                    for (w, &b) in want[st * n_cbpss..].iter_mut().zip(&il) {
                        *w |= (b as usize) << k;
                    }
                }
            }
            let got: Vec<usize> = tx_gather(n_cbpss, n_bpsc, n_ss)
                .iter()
                .map(|&j| j as usize)
                .collect();
            assert_eq!(got, want, "MCS{index}");
        }
    }

    /// The transmitter's bit pass against the per-bit stages it fuses, on
    /// every scrambler seed and MCS. The lengths put the first tail bit
    /// (`16 + 8 * len`) at every byte offset of a 64-bit word: 1–9 B and
    /// 62–66 B walk it through one word and across the next boundary.
    /// MCSs of one code rate and one padded length share a reference.
    #[test]
    fn coded_bits_match_the_scramble_encode_puncture_pipeline() {
        use mimonet_fec::puncture::puncture;
        use mimonet_fec::ConvEncoder;
        use mimonet_frame::psdu::{assemble_data_bits, scramble_data_bits};
        use std::collections::HashMap;
        for len in (1..=9).chain(62..=66).chain([500, 1500, 4095]) {
            let psdu: Vec<u8> = (0..len).map(|i| (i * 151 + 7) as u8).collect();
            for seed in 1..0x80u8 {
                let mut wants = HashMap::new();
                for index in 0..=31u8 {
                    let mut cfg = TxConfig::new(index).unwrap();
                    cfg.scrambler_seed = seed;
                    let t = Transmitter::new(cfg);
                    let mcs = t.mcs();
                    let key = (mcs.code_rate, mcs.num_symbols(len * 8) * mcs.n_dbps());
                    let want = wants.entry(key).or_insert_with(|| {
                        let mut bits = assemble_data_bits(&psdu, &mcs);
                        scramble_data_bits(&mut bits, len, seed);
                        puncture(&ConvEncoder::new().encode(&bits), mcs.code_rate)
                    });
                    assert!(
                        t.coded_bits(&psdu) == *want,
                        "MCS{index} seed {seed:#x} {len} B"
                    );
                }
            }
        }
    }

    #[test]
    fn siso_frame_has_one_stream() {
        let t = tx(0);
        let streams = t.transmit(&[1, 2, 3]).unwrap();
        assert_eq!(streams.len(), 1);
        assert_eq!(streams[0].len(), t.frame_len(3));
    }

    #[test]
    fn total_power_is_unity() {
        for mcs in [0u8, 3, 8, 11] {
            let t = tx(mcs);
            let streams = t.transmit(&[0xA5; 200]).unwrap();
            let total: f64 = streams.iter().map(|s| mean_power(s)).sum();
            assert!(
                (total - 1.0).abs() < 0.12,
                "MCS{mcs}: total mean power {total}"
            );
        }
    }

    #[test]
    fn frame_starts_with_lstf() {
        let t = tx(8);
        let streams = t.transmit(&[0u8; 10]).unwrap();
        let want = lstf_time(0, 2);
        let scale = 1.0 / 2f64.sqrt();
        for i in 0..160 {
            assert!(streams[0][i].dist(want[i].scale(scale)) < 1e-9);
        }
    }

    #[test]
    fn rejects_bad_psdu() {
        let t = tx(0);
        assert_eq!(t.transmit(&[]), Err(TxError::EmptyPsdu));
        let big = vec![0u8; 70_000];
        assert_eq!(t.transmit(&big), Err(TxError::PsduTooLong(70_000)));
    }

    #[test]
    fn stream_parser_round_robin() {
        // QPSK: s = 1 → strict alternation.
        let bits: Vec<u8> = (0..8).map(|i| (i % 2) as u8).collect();
        let out = parse_streams(&bits, 2, 2);
        assert_eq!(out[0], vec![0, 0, 0, 0]);
        assert_eq!(out[1], vec![1, 1, 1, 1]);
        // 64-QAM: s = 3 → groups of three.
        let bits: Vec<u8> = (0..12).map(|i| (i / 3 % 2) as u8).collect();
        let out = parse_streams(&bits, 2, 6);
        assert_eq!(out[0], vec![0, 0, 0, 0, 0, 0]);
        assert_eq!(out[1], vec![1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn stream_parser_single_stream_is_identity() {
        let bits: Vec<u8> = (0..26).map(|i| (i % 2) as u8).collect();
        assert_eq!(parse_streams(&bits, 1, 4)[0], bits);
    }

    #[test]
    fn deparse_inverts_parse() {
        for n_bpsc in [1usize, 2, 4, 6] {
            let s = (n_bpsc / 2).max(1);
            let n = 2 * s * 10;
            let bits: Vec<u8> = (0..n).map(|i| ((i * 7) % 2) as u8).collect();
            let parsed = parse_streams(&bits, 2, n_bpsc);
            let soft: Vec<Vec<f64>> = parsed
                .iter()
                .map(|v| v.iter().map(|&b| if b == 0 { 1.0 } else { -1.0 }).collect())
                .collect();
            let merged = deparse_streams_soft(&soft, n_bpsc);
            let hard: Vec<u8> = merged
                .iter()
                .map(|&l| if l > 0.0 { 0 } else { 1 })
                .collect();
            assert_eq!(hard, bits, "n_bpsc {n_bpsc}");
        }
    }

    #[test]
    fn different_seeds_give_different_waveforms() {
        let mut cfg = TxConfig::new(8).unwrap();
        cfg.scrambler_seed = 0x11;
        let t1 = Transmitter::new(cfg.clone());
        cfg.scrambler_seed = 0x12;
        let t2 = Transmitter::new(cfg);
        let a = t1.transmit(&[0xFFu8; 50]).unwrap();
        let b = t2.transmit(&[0xFFu8; 50]).unwrap();
        // Preambles identical...
        for i in 0..PRE_HT_LEN {
            assert!(a[0][i].dist(b[0][i]) < 1e-12);
        }
        // ...data differs.
        let data_start = PRE_HT_LEN + 80 + 160;
        let diff: f64 = (data_start..a[0].len())
            .map(|i| a[0][i].dist(b[0][i]))
            .sum();
        assert!(diff > 1.0);
    }
}
