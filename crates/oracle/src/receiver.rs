//! The pre-optimization receiver, kept verbatim.
//!
//! [`ReferenceReceiver`] is the straightforward allocate-per-stage
//! implementation the zero-copy [`mimonet::rx::Receiver`] replaced: it
//! copies the capture window per scan attempt, CFO-corrects whole buffers
//! eagerly, and allocates fresh vectors in every stage. It exists for two
//! reasons:
//!
//! * **Equivalence oracle** — `tests/equivalence.rs` asserts the
//!   optimized receiver produces *bit-identical* frames, errors and scan
//!   statistics on randomized captures.
//! * **Benchmark baseline** — the hot-path benchmarks report the
//!   optimized receiver's speedup against this implementation.
//!
//! Do not "improve" this module; its value is that it does not change.

use mimonet::config::RxConfig;
use mimonet::rx::{RxError, RxFrame, ScanStats, MAX_FRAME_SPAN, TIMING_BACKOFF, VDB_SNR_DB};
use mimonet::tx::{deparse_streams_soft, DATA_POLARITY_OFFSET};
use mimonet_detect::chanest::ChannelEstimate;
use mimonet_detect::snr::snr_from_ltf_repetitions;
use mimonet_detect::{
    estimate_mimo_htltf, prepare as prepare_detector, smooth_frequency, Prepared,
};
use mimonet_dsp::complex::Complex64;
use mimonet_dsp::stats::lin_to_db;
use mimonet_fec::interleaver::Interleaver;
use mimonet_fec::puncture::depuncture_soft;
use mimonet_fec::viterbi::decode_soft_unterminated;
use mimonet_fec::{decode_hard, Symbol};
use mimonet_frame::carriers::{carrier_to_bin, FFT_LEN, PILOT_CARRIERS};
use mimonet_frame::mcs::Mcs;
use mimonet_frame::ofdm::Ofdm;
use mimonet_frame::pilots::{ht_pilots, legacy_pilots};
use mimonet_frame::preamble::num_htltf;
use mimonet_frame::psdu::descramble_data_bits;
use mimonet_frame::sig::{HtSig, LSig, SigError};
use mimonet_frame::Layout;
use mimonet_sync::{fine_timing, DetectorConfig, PacketDetector, VanDeBeek};

/// The pre-optimization receiver. Same configuration, same outputs as
/// [`mimonet::rx::Receiver`] — different (allocation-heavy) mechanics.
#[derive(Clone, Debug)]
pub struct ReferenceReceiver {
    cfg: RxConfig,
    ofdm: Ofdm,
}

impl ReferenceReceiver {
    /// Creates a reference receiver.
    pub fn new(cfg: RxConfig) -> Self {
        Self {
            cfg,
            ofdm: Ofdm::new(),
        }
    }

    /// Scans a long multi-frame capture, decoding every frame it finds —
    /// the copy-per-window implementation [`mimonet::rx::Receiver::scan`]
    /// replaced.
    pub fn scan(&self, rx: &[Vec<Complex64>]) -> (Vec<(usize, RxFrame)>, ScanStats) {
        const ERROR_STRIDE: usize = 400;
        let len = rx.iter().map(|a| a.len()).min().unwrap_or(0);
        let mut out = Vec::new();
        let mut stats = ScanStats::default();
        let mut offset = 0usize;
        while offset + 640 < len {
            let hi = (offset + MAX_FRAME_SPAN).min(len);
            let window: Vec<Vec<Complex64>> = rx.iter().map(|a| a[offset..hi].to_vec()).collect();
            match self.receive(&window) {
                Ok(frame) => {
                    let end = frame.frame_end;
                    out.push((offset, frame));
                    offset += end.max(ERROR_STRIDE);
                }
                Err(RxError::NoPacket) => {
                    if hi == len {
                        break;
                    }
                    offset = hi - 640;
                }
                Err(RxError::AntennaMismatch { .. }) => {
                    break;
                }
                Err(e) => {
                    stats.rescans += 1;
                    match e {
                        RxError::LSig(_) | RxError::HtSig(_) | RxError::TooManyStreams { .. } => {
                            stats.header_errors += 1
                        }
                        RxError::Fec => stats.fec_errors += 1,
                        _ => stats.sync_errors += 1,
                    }
                    offset += ERROR_STRIDE;
                }
            }
        }
        stats.frames = out.len();
        (out, stats)
    }

    /// Attempts to detect and decode one frame from per-antenna buffers.
    pub fn receive(&self, rx: &[Vec<Complex64>]) -> Result<RxFrame, RxError> {
        if rx.len() != self.cfg.n_rx {
            return Err(RxError::AntennaMismatch {
                expected: self.cfg.n_rx,
                got: rx.len(),
            });
        }
        let len = rx[0].len();
        if rx.iter().any(|a| a.len() != len) {
            return Err(RxError::AntennaMismatch {
                expected: self.cfg.n_rx,
                got: rx.len(),
            });
        }

        // --- 1. Packet detection + coarse CFO ---
        let mut detector = PacketDetector::new(self.cfg.n_rx, DetectorConfig::default());
        let refs: Vec<&[Complex64]> = rx.iter().map(|a| a.as_slice()).collect();
        let det = detector.detect(&refs).ok_or(RxError::NoPacket)?;

        // --- 2. Coarse CFO correction (whole buffer) ---
        let mut bufs: Vec<Vec<Complex64>> = rx.to_vec();
        let mut total_cfo = det.coarse_cfo;
        for b in &mut bufs {
            mimonet_channel::impairments::apply_cfo(b, -det.coarse_cfo, 0.0);
        }

        // --- 3. Fine timing: locate the first L-LTF body ---
        let cfg_det = DetectorConfig::default();
        let approx_stf_start = det
            .confirmed_at
            .saturating_sub(cfg_det.lag + cfg_det.window + cfg_det.min_run - 1);
        let ltf_guess = approx_stf_start + 160 + 32;
        let ltf_start = if self.cfg.fine_timing {
            let win_lo = ltf_guess.saturating_sub(40);
            let win_hi = (ltf_guess + 40 + 128 + 64).min(len);
            if win_hi <= win_lo + 64 {
                return Err(RxError::SyncLost);
            }
            let windows: Vec<&[Complex64]> = bufs.iter().map(|b| &b[win_lo..win_hi]).collect();
            let ft = fine_timing(&windows).ok_or(RxError::SyncLost)?;
            win_lo + ft.ltf_start
        } else {
            let win_lo = (ltf_guess + 128).min(len);
            let win_hi = (win_lo + 480).min(len);
            if win_hi >= win_lo + 160 {
                let windows: Vec<&[Complex64]> = bufs.iter().map(|b| &b[win_lo..win_hi]).collect();
                let vdb = VanDeBeek::new(64, 16, VDB_SNR_DB);
                match vdb.estimate(&windows) {
                    Some(est) => {
                        let r = (est.timing % 80) as isize;
                        let delta = if r > 40 { r - 80 } else { r };
                        (ltf_guess as isize + delta).max(0) as usize
                    }
                    None => ltf_guess,
                }
            } else {
                ltf_guess
            }
        };
        let ltf_start = ltf_start.saturating_sub(TIMING_BACKOFF);
        if ltf_start + 128 > len {
            return Err(RxError::BufferTooShort);
        }

        // --- 4. Fine CFO from the LTF repetitions ---
        let mut gamma = Complex64::ZERO;
        for b in &bufs {
            let b1 = &b[ltf_start..ltf_start + 64];
            let b2 = &b[ltf_start + 64..ltf_start + 128];
            gamma += mimonet_dsp::complex::dot_conj(b1, b2);
        }
        let fine_cfo = -gamma.arg() / (2.0 * std::f64::consts::PI);
        total_cfo += fine_cfo;
        for b in &mut bufs {
            mimonet_channel::impairments::apply_cfo(b, -fine_cfo, 0.0);
        }

        // --- 5. SNR and noise variance from the corrected LTFs ---
        let scale52 = Ofdm::unit_power_scale(52);
        let scale56 = Ofdm::unit_power_scale(56);
        let mut snr_acc = 0.0;
        let mut legacy_est: Vec<ChannelEstimate> = Vec::with_capacity(self.cfg.n_rx);
        let mut noise_bin_var = 0.0;
        for b in &bufs {
            let b1 = &b[ltf_start..ltf_start + 64];
            let b2 = &b[ltf_start + 64..ltf_start + 128];
            snr_acc += snr_from_ltf_repetitions(b1, b2).unwrap_or(0.0);
            let f1 = self.ofdm.demodulate_window(b1, scale52);
            let f2 = self.ofdm.demodulate_window(b2, scale52);
            let mut acc = 0.0;
            let mut n = 0.0;
            for k in -26..=26i32 {
                if k == 0 {
                    continue;
                }
                let bin = carrier_to_bin(k);
                acc += f1[bin].dist_sqr(f2[bin]);
                n += 1.0;
            }
            noise_bin_var += acc / n / 2.0;
            legacy_est.push(mimonet_detect::estimate_siso_lltf(&f1, &f2));
        }
        let snr_db = lin_to_db(snr_acc / self.cfg.n_rx as f64);
        let noise_var_sig = (noise_bin_var / self.cfg.n_rx as f64).max(1e-12);
        let noise_var_data = noise_var_sig * 56.0 / 52.0;

        // --- 6. L-SIG and HT-SIG ---
        let lsig_start = ltf_start + 128;
        if lsig_start + 3 * 80 > len {
            return Err(RxError::BufferTooShort);
        }
        let lsig_bits = self.decode_legacy_symbol(&bufs, lsig_start, &legacy_est, 0, false)?;
        let mut lsig24 = decode_hard(&to_symbols(&lsig_bits)).map_err(|_| RxError::SyncLost)?;
        lsig24.extend_from_slice(&[0; 6]);
        let _lsig = LSig::decode(&lsig24).map_err(RxError::LSig)?;

        let ht1 = self.decode_legacy_symbol(&bufs, lsig_start + 80, &legacy_est, 1, true)?;
        let ht2 = self.decode_legacy_symbol(&bufs, lsig_start + 160, &legacy_est, 2, true)?;
        let mut coded = ht1;
        coded.extend(ht2);
        let mut htsig_bits = decode_hard(&to_symbols(&coded)).map_err(|_| RxError::SyncLost)?;
        htsig_bits.extend_from_slice(&[0; 6]);
        let htsig = HtSig::decode(&htsig_bits).map_err(RxError::HtSig)?;
        let mcs =
            Mcs::from_index(htsig.mcs).map_err(|_| RxError::HtSig(SigError::BadMcs(htsig.mcs)))?;
        let n_ss = mcs.n_streams;
        if n_ss > self.cfg.n_rx {
            return Err(RxError::TooManyStreams {
                streams: n_ss,
                antennas: self.cfg.n_rx,
            });
        }

        // --- 7. HT-LTF channel estimation ---
        let n_ltf = num_htltf(n_ss);
        let htltf_start = lsig_start + 240 + 80; // skip HT-STF
        if htltf_start + n_ltf * 80 > len {
            return Err(RxError::BufferTooShort);
        }
        let mut ltf_bins: Vec<Vec<[Complex64; FFT_LEN]>> = Vec::with_capacity(n_ltf);
        for i in 0..n_ltf {
            let base = htltf_start + i * 80;
            let per_rx: Vec<[Complex64; FFT_LEN]> = bufs
                .iter()
                .map(|b| self.ofdm.demodulate(&b[base..base + 80], scale56))
                .collect();
            ltf_bins.push(per_rx);
        }
        let mut chan = estimate_mimo_htltf(&ltf_bins, n_ss);
        if self.cfg.smoothing > 0 && htsig.smoothing {
            chan = smooth_frequency(&chan, self.cfg.smoothing);
        }

        // --- 8/9. Data symbols ---
        let n_sym = mcs.num_symbols(htsig.length as usize * 8);
        let data_start = htltf_start + n_ltf * 80;
        if data_start + n_sym * 80 > len {
            return Err(RxError::BufferTooShort);
        }

        let interleavers: Vec<Interleaver> = (0..n_ss)
            .map(|s| Interleaver::ht(mcs.n_cbpss(), mcs.n_bpsc(), s, n_ss))
            .collect();
        let data_carriers = Layout::Ht.data_carriers();
        let mut prepared: Vec<Prepared> = Vec::with_capacity(data_carriers.len());
        for &k in data_carriers {
            let h = chan.at(k).ok_or(RxError::Detector)?;
            prepared.push(
                prepare_detector(self.cfg.detector, h, noise_var_data, mcs.modulation)
                    .map_err(|_| RxError::Detector)?,
            );
        }
        let mut tracker = mimonet_sync::PhaseTracker::new(0.5);
        let mut evm = mimonet_detect::EvmSnrEstimator::new();
        let mut all_llrs: Vec<f64> = Vec::with_capacity(n_sym * mcs.n_cbps());

        for sym in 0..n_sym {
            let base = data_start + sym * 80;
            let mut bins: Vec<[Complex64; FFT_LEN]> = bufs
                .iter()
                .map(|b| self.ofdm.demodulate(&b[base..base + 80], scale56))
                .collect();

            if self.cfg.pilot_tracking {
                let mut obs = Vec::with_capacity(4 * self.cfg.n_rx);
                for (i, &k) in PILOT_CARRIERS.iter().enumerate() {
                    if let Some(h) = chan.at(k) {
                        for r in 0..self.cfg.n_rx {
                            let mut expected = Complex64::ZERO;
                            for s in 0..n_ss {
                                let p = ht_pilots(s, n_ss, sym, DATA_POLARITY_OFFSET)[i];
                                expected += h[(r, s)] * p;
                            }
                            obs.push((k, expected, bins[r][carrier_to_bin(k)]));
                        }
                    }
                }
                if let Some(est) = tracker.update(&obs) {
                    for b in bins.iter_mut() {
                        for k in -28..=28i32 {
                            if k == 0 {
                                continue;
                            }
                            let bin = carrier_to_bin(k);
                            b[bin] *= est.correction(k);
                        }
                    }
                }
            }

            let mut stream_llrs: Vec<Vec<f64>> = vec![Vec::with_capacity(mcs.n_cbpss()); n_ss];
            for (det, &k) in prepared.iter().zip(data_carriers) {
                let y: Vec<Complex64> = bins.iter().map(|b| b[carrier_to_bin(k)]).collect();
                let decisions = det.apply(&y);
                for (s, d) in decisions.iter().enumerate() {
                    stream_llrs[s].extend(&d.llrs);
                    evm.push_decided(d.symbol, mcs.modulation);
                }
            }

            let deinterleaved: Vec<Vec<f64>> = stream_llrs
                .iter()
                .enumerate()
                .map(|(s, l)| interleavers[s].deinterleave_soft(l))
                .collect();
            all_llrs.extend(deparse_streams_soft(&deinterleaved, mcs.n_bpsc()));
        }

        // --- 10. FEC decode + descramble ---
        let mother_len = 2 * n_sym * mcs.n_dbps();
        let full_llrs = depuncture_soft(&all_llrs, mcs.code_rate, mother_len);
        let decoded = if self.cfg.soft_decoding {
            decode_soft_unterminated(&full_llrs).map_err(|_| RxError::Fec)?
        } else {
            let hard: Vec<Symbol> = full_llrs
                .iter()
                .map(|&l| {
                    if l == 0.0 {
                        Symbol::Erased
                    } else {
                        Symbol::Bit(if l > 0.0 { 0 } else { 1 })
                    }
                })
                .collect();
            mimonet_fec::decode_hard_unterminated(&hard).map_err(|_| RxError::Fec)?
        };
        let psdu = descramble_data_bits(&decoded, htsig.length as usize).ok_or(RxError::Fec)?;

        Ok(RxFrame {
            psdu,
            mcs: htsig.mcs,
            snr_db,
            cfo: total_cfo,
            timing: ltf_start,
            evm_snr_db: evm.snr_db(),
            frame_end: data_start + n_sym * 80,
            coded_hard: all_llrs
                .iter()
                .map(|&l| if l > 0.0 { 0 } else { 1 })
                .collect(),
        })
    }

    /// Demodulates and MRC-equalizes one legacy symbol, returning the 48
    /// deinterleaved coded bits.
    fn decode_legacy_symbol(
        &self,
        bufs: &[Vec<Complex64>],
        start: usize,
        legacy_est: &[ChannelEstimate],
        sym_index: usize,
        quadrature: bool,
    ) -> Result<Vec<u8>, RxError> {
        let scale52 = Ofdm::unit_power_scale(52);
        let bins: Vec<[Complex64; FFT_LEN]> = bufs
            .iter()
            .map(|b| self.ofdm.demodulate(&b[start..start + 80], scale52))
            .collect();

        let pil = legacy_pilots(sym_index, 0);
        let mut phase_acc = Complex64::ZERO;
        for (i, &k) in PILOT_CARRIERS.iter().enumerate() {
            for (r, est) in legacy_est.iter().enumerate() {
                if let Some(h) = est.at(k) {
                    let expected = h[(0, 0)] * pil[i];
                    phase_acc += bins[r][carrier_to_bin(k)] * expected.conj();
                }
            }
        }
        let derot = if phase_acc.abs() > 1e-12 {
            Complex64::cis(-phase_acc.arg())
        } else {
            Complex64::ONE
        };

        let rot = if quadrature {
            Complex64::new(0.0, -1.0)
        } else {
            Complex64::ONE
        };
        let mut hard = Vec::with_capacity(48);
        for &k in Layout::Legacy.data_carriers() {
            let bin = carrier_to_bin(k);
            let mut num = Complex64::ZERO;
            let mut den = 0.0;
            for (r, est) in legacy_est.iter().enumerate() {
                if let Some(h) = est.at(k) {
                    let hv = h[(0, 0)];
                    num += bins[r][bin] * hv.conj();
                    den += hv.norm_sqr();
                }
            }
            if den <= 1e-15 {
                return Err(RxError::SyncLost);
            }
            let eq = num.scale(1.0 / den) * derot * rot;
            hard.push(if eq.re > 0.0 { 1 } else { 0 });
        }
        let il = Interleaver::legacy(48, 1);
        Ok(il.deinterleave(&hard))
    }
}

fn to_symbols(bits: &[u8]) -> Vec<Symbol> {
    bits.iter().map(|&b| Symbol::Bit(b)).collect()
}
