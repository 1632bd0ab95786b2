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
use mimonet_fec::interleaver::Interleaver;
use mimonet_fec::puncture::puncture;
use mimonet_fec::ConvEncoder;
use mimonet_frame::carriers::{carrier_to_bin, FFT_LEN};
use mimonet_frame::mcs::Mcs;
use mimonet_frame::modulation::Modulation;
use mimonet_frame::ofdm::{apply_cyclic_shift, ht_cyclic_shift, legacy_cyclic_shift, Ofdm};
use mimonet_frame::pilots::{ht_pilots, legacy_pilots};
use mimonet_frame::preamble::{htltf_time, htstf_time, lltf_time, lstf_time, num_htltf};
use mimonet_frame::psdu::{assemble_data_bits, scramble_data_bits};
use mimonet_frame::sig::{HtSig, LSig};
use mimonet_frame::Layout;

/// Number of pre-data symbols that consume pilot-polarity indices:
/// L-SIG (p_0) + two HT-SIG symbols (p_1, p_2); data starts at p_3.
pub const DATA_POLARITY_OFFSET: usize = 3;

/// Samples in the frame before the HT-STF for an HT mixed frame:
/// L-STF + L-LTF + L-SIG + 2 × HT-SIG.
pub const PRE_HT_LEN: usize = 160 + 160 + 80 + 160;

/// The transmitter. Holds a planned FFT; reuse across frames.
#[derive(Clone, Debug)]
pub struct Transmitter {
    cfg: TxConfig,
    ofdm: Ofdm,
    /// Per-stream HT interleaver permutations for the fixed MCS
    /// ([`Interleaver::table`]).
    interleave: Vec<Vec<u32>>,
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

impl Transmitter {
    /// Creates a transmitter.
    pub fn new(cfg: TxConfig) -> Self {
        let mcs = cfg.mcs;
        let interleave = (0..mcs.n_streams)
            .map(|s| Interleaver::ht(mcs.n_cbpss(), mcs.n_bpsc(), s, mcs.n_streams).table())
            .collect();
        Self {
            cfg,
            ofdm: Ofdm::new(),
            interleave,
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
        let mcs = self.cfg.mcs;
        let n_sym = mcs.num_symbols(psdu_len * 8);
        PRE_HT_LEN + 80 + num_htltf(mcs.n_streams) * 80 + n_sym * 80
    }

    /// The punctured (over-the-air) coded bit stream for a PSDU — the
    /// reference the link instrumentation compares received LLR hard
    /// decisions against to measure *pre-FEC* (uncoded) BER.
    pub fn coded_bits(&self, psdu: &[u8]) -> Vec<u8> {
        let mcs = self.cfg.mcs;
        let mut bits = assemble_data_bits(psdu, &mcs);
        scramble_data_bits(&mut bits, psdu.len(), self.cfg.scrambler_seed);
        let coded = ConvEncoder::new().encode(&bits);
        puncture(&coded, mcs.code_rate)
    }

    /// Builds the per-antenna sample streams for one PSDU.
    pub fn transmit(&self, psdu: &[u8]) -> Result<Vec<Vec<Complex64>>, TxError> {
        if psdu.is_empty() {
            return Err(TxError::EmptyPsdu);
        }
        if psdu.len() > u16::MAX as usize {
            return Err(TxError::PsduTooLong(psdu.len()));
        }
        let mcs = self.cfg.mcs;
        let n_tx = mcs.n_streams;
        let antenna_scale = 1.0 / (n_tx as f64).sqrt();

        let mut streams: Vec<Vec<Complex64>> = (0..n_tx)
            .map(|_| Vec::with_capacity(self.frame_len(psdu.len())))
            .collect();

        // ---- Legacy preamble ----
        for (a, s) in streams.iter_mut().enumerate() {
            s.extend(lstf_time(a, n_tx));
            s.extend(lltf_time(a, n_tx));
        }

        // ---- L-SIG ----
        // The legacy LENGTH/RATE announce a 6 Mb/s frame spanning the HT
        // duration (spoofing); receivers in this workspace read HT-SIG for
        // the real parameters.
        let lsig = LSig::new(6.0, (psdu.len() as u16).clamp(1, 4095));
        let lsig_coded = ConvEncoder::new().encode(&lsig.encode());
        debug_assert_eq!(lsig_coded.len(), 48);
        let lsig_sym = self.legacy_bpsk_symbol(&lsig_coded, 0, false);
        self.append_legacy_symbol(&mut streams, &lsig_sym);

        // ---- HT-SIG (two QBPSK symbols) ----
        let htsig = HtSig::new(mcs.index, psdu.len() as u16);
        let coded = ConvEncoder::new().encode(&htsig.encode());
        debug_assert_eq!(coded.len(), 96);
        for (i, half) in coded.chunks(48).enumerate() {
            let sym = self.legacy_bpsk_symbol(half, 1 + i, true);
            self.append_legacy_symbol(&mut streams, &sym);
        }

        // ---- HT-STF and HT-LTFs ----
        let n_ltf = num_htltf(n_tx);
        for (a, s) in streams.iter_mut().enumerate() {
            s.extend(htstf_time(&self.ofdm, a, n_tx));
        }
        for ltf in 0..n_ltf {
            for (a, s) in streams.iter_mut().enumerate() {
                s.extend(htltf_time(&self.ofdm, a, n_tx, ltf));
            }
        }

        // ---- HT-Data ----
        let mut bits = assemble_data_bits(psdu, &mcs);
        scramble_data_bits(&mut bits, psdu.len(), self.cfg.scrambler_seed);
        let coded = ConvEncoder::new().encode(&bits);
        let tx_bits = puncture(&coded, mcs.code_rate);
        debug_assert_eq!(tx_bits.len() % mcs.n_cbps(), 0);
        let n_sym = tx_bits.len() / mcs.n_cbps();

        let mut interleaved = vec![0u8; mcs.n_cbpss()];
        for sym in 0..n_sym {
            let sym_bits = &tx_bits[sym * mcs.n_cbps()..(sym + 1) * mcs.n_cbps()];
            let stream_bits = parse_streams(sym_bits, n_tx, mcs.n_bpsc());
            for (stream, s_bits) in stream_bits.iter().enumerate() {
                for (&b, &t) in s_bits.iter().zip(&self.interleave[stream]) {
                    interleaved[t as usize] = b;
                }
                let symbols = mcs.modulation.map(&interleaved);
                let td = self.ht_data_symbol(&symbols, stream, n_tx, sym, mcs.modulation);
                streams[stream].extend(td);
            }
        }

        // ---- Per-antenna power normalization ----
        for s in &mut streams {
            for x in s.iter_mut() {
                *x = x.scale(antenna_scale);
            }
        }
        Ok(streams)
    }

    /// One legacy-format BPSK (or QBPSK when `quadrature`) symbol carrying
    /// 48 already-coded bits, with pilots at polarity index `sym_index`.
    /// Returns the *unshifted* frequency bins; CSD is applied per antenna by
    /// [`Self::append_legacy_symbol`].
    fn legacy_bpsk_symbol(
        &self,
        coded_bits: &[u8],
        sym_index: usize,
        quadrature: bool,
    ) -> [Complex64; FFT_LEN] {
        assert_eq!(coded_bits.len(), 48, "legacy symbol carries 48 coded bits");
        let il = Interleaver::legacy(48, 1);
        let interleaved = il.interleave(coded_bits);
        let data = Modulation::Bpsk.map(&interleaved);
        let rot = if quadrature {
            Complex64::I
        } else {
            Complex64::ONE
        };
        let mut bins = [Complex64::ZERO; FFT_LEN];
        for (i, &k) in Layout::Legacy.data_carriers().iter().enumerate() {
            bins[carrier_to_bin(k)] = data[i] * rot;
        }
        let pil = legacy_pilots(sym_index, 0);
        for (i, &k) in mimonet_frame::carriers::PILOT_CARRIERS.iter().enumerate() {
            bins[carrier_to_bin(k)] = Complex64::from_re(pil[i]);
        }
        bins
    }

    /// Appends a legacy symbol to every antenna with its legacy CSD.
    fn append_legacy_symbol(&self, streams: &mut [Vec<Complex64>], bins: &[Complex64; FFT_LEN]) {
        let n_tx = streams.len();
        for (a, s) in streams.iter_mut().enumerate() {
            let mut shifted = *bins;
            apply_cyclic_shift(&mut shifted, legacy_cyclic_shift(a, n_tx));
            s.extend(
                self.ofdm
                    .modulate_bins(&shifted, Ofdm::unit_power_scale(52)),
            );
        }
    }

    /// One HT data symbol for `stream`: 52 data carriers + 4 pilots, HT
    /// CSD, 56-carrier power scale.
    fn ht_data_symbol(
        &self,
        symbols: &[Complex64],
        stream: usize,
        n_sts: usize,
        sym_index: usize,
        _modulation: Modulation,
    ) -> Vec<Complex64> {
        debug_assert_eq!(symbols.len(), 52);
        let mut bins = [Complex64::ZERO; FFT_LEN];
        for (i, &k) in Layout::Ht.data_carriers().iter().enumerate() {
            bins[carrier_to_bin(k)] = symbols[i];
        }
        let pil = ht_pilots(stream, n_sts, sym_index, DATA_POLARITY_OFFSET);
        for (i, &k) in mimonet_frame::carriers::PILOT_CARRIERS.iter().enumerate() {
            bins[carrier_to_bin(k)] = Complex64::from_re(pil[i]);
        }
        apply_cyclic_shift(&mut bins, ht_cyclic_shift(stream, n_sts));
        self.ofdm.modulate_bins(&bins, Ofdm::unit_power_scale(56))
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
