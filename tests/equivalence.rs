//! Equivalence proptests: the zero-copy receiver against the verbatim
//! pre-optimization implementation, `mimonet_oracle::ReferenceReceiver`
//! (the dev-only `mimonet-oracle` crate keeps it out of the library).
//!
//! The optimization contract is *bit identity*, not approximate
//! agreement: every floating-point operation in the hot path was kept in
//! its original order, so `Receiver` and `ReferenceReceiver` must agree
//! on every field of every frame (`RxFrame` is `PartialEq`, comparing
//! `f64`s exactly), on every error, and on every scan statistic — across
//! random MCS, payloads, channels, impairments and receiver ablations.

use mimonet::config::TxConfig;
use mimonet::tx::Transmitter;
use mimonet::{Receiver, RxConfig};
use mimonet_channel::{ChannelConfig, ChannelSim, Fading};
use mimonet_detect::DetectorKind;
use mimonet_dsp::complex::Complex64;
use mimonet_oracle::ReferenceReceiver;
use proptest::prelude::*;

/// Transmit one frame and pad it with lead-in/out silence.
fn padded_frame(mcs: u8, psdu: &[u8], lead: usize) -> Vec<Vec<Complex64>> {
    let tx = Transmitter::new(TxConfig::new(mcs).unwrap());
    let mut streams = tx.transmit(psdu).unwrap();
    for s in &mut streams {
        let mut padded = vec![Complex64::ZERO; lead];
        padded.extend_from_slice(s);
        padded.extend(vec![Complex64::ZERO; 80]);
        *s = padded;
    }
    streams
}

fn rx_config(n_rx: usize, detector: DetectorKind, soft: bool, fine: bool, pilot: bool) -> RxConfig {
    let mut cfg = RxConfig::new(n_rx);
    cfg.detector = detector;
    cfg.soft_decoding = soft;
    cfg.fine_timing = fine;
    cfg.pilot_tracking = pilot;
    cfg
}

fn detector_kind(idx: u8) -> DetectorKind {
    match idx % 3 {
        0 => DetectorKind::Mmse,
        1 => DetectorKind::Zf,
        _ => DetectorKind::Ml,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Single-frame receive: identical `Ok(frame)` (every field, exact
    /// f64 bits) or identical `Err` on random links — including low-SNR
    /// points where one of the two would first diverge if the optimized
    /// arithmetic differed by even an ulp.
    #[test]
    fn receive_matches_reference(
        mcs in 0u8..16,
        len in 20usize..180,
        snr_centi in 600u32..3500,
        seed in any::<u64>(),
        cfo_milli in -400i32..400,
        det_idx in 0u8..3,
        soft in any::<bool>(),
        fine in any::<bool>(),
        pilot in any::<bool>(),
        rayleigh in any::<bool>(),
    ) {
        let snr = f64::from(snr_centi) / 100.0;
        let psdu: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(7)).collect();
        let n_tx = if mcs >= 8 { 2 } else { 1 };
        // The ideal (identity) channel requires square dimensions; a
        // Rayleigh channel can also exercise the 1x2 SIMO geometry.
        let n_rx = if rayleigh { 2 } else { n_tx };
        let streams = padded_frame(mcs, &psdu, 120);
        let mut chan = ChannelConfig::awgn(n_tx, n_rx, snr);
        chan.cfo_norm = f64::from(cfo_milli) / 1000.0;
        if rayleigh {
            chan.fading = Fading::RayleighFlat;
        }
        let mut sim = ChannelSim::new(chan, seed);
        let (noisy, _) = sim.apply(&streams);

        let cfg = rx_config(n_rx, detector_kind(det_idx), soft, fine, pilot);
        let got = Receiver::new(cfg.clone()).receive(&noisy);
        let want = ReferenceReceiver::new(cfg).receive(&noisy);
        prop_assert_eq!(got, want);
    }

    /// Multi-frame scan: identical frame list (offsets + exact frames)
    /// and identical robustness statistics. This covers the view-based
    /// scan window logic (stride advance, NoPacket overlap rescan) and
    /// workspace reuse across back-to-back decodes within one capture.
    #[test]
    fn scan_matches_reference(
        n_frames in 1usize..4,
        base_len in 30usize..100,
        gap in 150usize..400,
        snr_centi in 900u32..3200,
        seed in any::<u64>(),
        mcs in 8u8..13,
    ) {
        let mut capture: Vec<Vec<Complex64>> = vec![vec![Complex64::ZERO; 150]; 2];
        for k in 0..n_frames {
            let psdu: Vec<u8> = (0..base_len + 11 * k).map(|i| i as u8).collect();
            let streams = padded_frame(mcs, &psdu, 0);
            for (c, s) in capture.iter_mut().zip(&streams) {
                c.extend_from_slice(s);
                c.extend(vec![Complex64::ZERO; gap]);
            }
        }
        let snr = f64::from(snr_centi) / 100.0;
        let mut sim = ChannelSim::new(ChannelConfig::awgn(2, 2, snr), seed);
        let (noisy, _) = sim.apply(&capture);

        let cfg = RxConfig::new(2);
        let (got_frames, got_stats) = Receiver::new(cfg.clone()).scan(&noisy);
        let (want_frames, want_stats) = ReferenceReceiver::new(cfg).scan(&noisy);
        prop_assert_eq!(got_frames, want_frames);
        prop_assert_eq!(got_stats, want_stats);
    }
}

/// Deterministic spot checks on receiver ablations the proptests sample
/// only occasionally: smoothing on, hard decoding, VdB timing fallback.
#[test]
fn ablations_match_reference() {
    let psdu: Vec<u8> = (0..90u8).collect();
    let streams = padded_frame(9, &psdu, 120);
    let mut chan = ChannelConfig::awgn(2, 2, 22.0);
    chan.cfo_norm = 0.15;
    let mut sim = ChannelSim::new(chan, 77);
    let (noisy, _) = sim.apply(&streams);

    for (soft, fine, smoothing) in [
        (true, true, 2usize),
        (false, false, 0),
        (true, false, 1),
        (false, true, 3),
    ] {
        let mut cfg = RxConfig::new(2);
        cfg.soft_decoding = soft;
        cfg.fine_timing = fine;
        cfg.smoothing = smoothing;
        let got = Receiver::new(cfg.clone()).receive(&noisy);
        let want = ReferenceReceiver::new(cfg).receive(&noisy);
        assert_eq!(got, want, "soft={soft} fine={fine} smoothing={smoothing}");
    }
}
