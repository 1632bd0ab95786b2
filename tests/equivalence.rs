//! Equivalence proptests: the zero-copy receiver against the verbatim
//! pre-optimization implementation, `mimonet_oracle::ReferenceReceiver`
//! (the dev-only `mimonet-oracle` crate keeps it out of the library).
//!
//! The optimization contract is *bit identity*, not approximate
//! agreement: every floating-point operation in the hot path was kept in
//! its original order, so `Receiver` and `ReferenceReceiver` must agree
//! on every field of every frame (`RxFrame` is `PartialEq`, comparing
//! `f64`s exactly), on every error, and on every scan statistic — across
//! random MCS, payloads, channels, impairments and receiver ablations,
//! and on captures with long idle stretches.

use mimonet::config::TxConfig;
use mimonet::tx::Transmitter;
use mimonet::{Receiver, RxConfig, RxFrame, RxWorkspace};
use mimonet_channel::presets::tgn;
use mimonet_channel::{ChannelConfig, ChannelSim, Fading, TgnModel};
use mimonet_detect::DetectorKind;
use mimonet_dsp::complex::Complex64;
use mimonet_oracle::ReferenceReceiver;
use proptest::prelude::*;

/// Transmit one frame and pad it with lead-in and trailing silence.
fn padded_frame(mcs: u8, psdu: &[u8], lead: usize, tail: usize) -> Vec<Vec<Complex64>> {
    let tx = Transmitter::new(TxConfig::new(mcs).unwrap());
    let mut streams = tx.transmit(psdu).unwrap();
    for s in &mut streams {
        let mut padded = vec![Complex64::ZERO; lead];
        padded.extend_from_slice(s);
        padded.extend(vec![Complex64::ZERO; tail]);
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
        let streams = padded_frame(mcs, &psdu, 120, 80);
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
            let streams = padded_frame(mcs, &psdu, 0, 80);
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
    let streams = padded_frame(9, &psdu, 120, 80);
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

/// Four 220-byte MCS 9 frames, each followed by 80,000 idle samples: far
/// longer gaps than the scan proptest draws. The reference scan copies
/// the rest of the capture at every decode attempt; `Receiver::scan`
/// borrows it.
#[test]
fn long_idle_scan_matches_reference() {
    let mut capture: Vec<Vec<Complex64>> = vec![vec![Complex64::ZERO; 200]; 2];
    for k in 0..4usize {
        let psdu: Vec<u8> = (0..220).map(|i| (i + 13 * k) as u8).collect();
        for (c, s) in capture.iter_mut().zip(padded_frame(9, &psdu, 0, 80_000)) {
            c.extend(s);
        }
    }
    let mut sim = ChannelSim::new(ChannelConfig::awgn(2, 2, 30.0), 0x407B);
    let (noisy, _) = sim.apply(&capture);
    assert_eq!(noisy[0].len(), 329_160);

    let cfg = RxConfig::new(2);
    let (got_frames, got_stats) = Receiver::new(cfg.clone()).scan(&noisy);
    let (want_frames, want_stats) = ReferenceReceiver::new(cfg).scan(&noisy);
    assert_eq!(want_frames.len(), 4, "every frame must decode");
    assert_eq!(got_frames, want_frames);
    assert_eq!(got_stats, want_stats);
}

/// One 500-byte MCS 9 frame with a 48,000-sample idle tail, decoded
/// twice through one workspace and one `RxFrame`: the warmed
/// `receive_into` stops at the frame's end, the reference corrects the
/// whole capture's CFO, and both must give the same frame.
#[test]
fn warmed_receive_into_matches_reference() {
    let streams = padded_frame(9, &[0xA5; 500], 160, 48_000);
    let mut sim = ChannelSim::new(ChannelConfig::awgn(2, 2, 30.0), 0x407B ^ 1);
    let (noisy, _) = sim.apply(&streams);
    assert_eq!(noisy[0].len(), 52_080);

    let cfg = RxConfig::new(2);
    let want = ReferenceReceiver::new(cfg.clone())
        .receive(&noisy)
        .expect("the reference decodes");
    let rx = Receiver::new(cfg);
    let views: Vec<&[Complex64]> = noisy.iter().map(|s| s.as_slice()).collect();
    let mut ws = RxWorkspace::new();
    let mut frame = RxFrame::default();
    for call in 0..2 {
        rx.receive_into(&views, &mut ws, &mut frame)
            .expect("receive_into decodes");
        assert_eq!(frame, want, "call {call}");
    }
}

/// PSDU lengths whose frames carry `n_sym` ≡ 0, 1, 2, 3 (mod 4) data
/// symbols (4, 5, 6 and 7 of them) at MCS 9 and MCS 15, with the SNR
/// each MCS decodes at under TGn-D. The receiver detects data symbols
/// four at a time, so each length ends its last group at a different
/// lane.
const LANE_TAIL_CASES: [(u8, f64, [usize; 4]); 2] = [
    (9, 30.0, [40, 55, 70, 80]),
    (15, 38.0, [200, 300, 350, 420]),
];

/// A 2x2 TGn model D channel (frequency selective, 50 ns RMS delay
/// spread) with carrier offset `cfo`.
fn tgn_d(snr: f64, cfo: f64) -> ChannelConfig {
    let mut chan = tgn(TgnModel::D, 2, 2, snr);
    chan.cfo_norm = cfo;
    chan
}

/// Single-frame receive at every data-symbol count mod 4, on both MCS,
/// both CFO signs and the linear detectors (ML too at MCS 9, where its
/// joint constellation is small): each must match the reference and
/// reach the data symbols (decode, or fail only in FEC).
#[test]
fn lane_tails_receive_matches_reference() {
    let mut seed = 0x7A11u64;
    for (mcs, snr, lens) in LANE_TAIL_CASES {
        for len in lens {
            let psdu: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
            let streams = padded_frame(mcs, &psdu, 120, 80);
            for cfo in [0.3, -0.3] {
                seed += 1;
                let mut sim = ChannelSim::new(tgn_d(snr, cfo), seed);
                let (noisy, _) = sim.apply(&streams);
                let kinds: &[DetectorKind] = if mcs == 9 {
                    &[DetectorKind::Mmse, DetectorKind::Zf, DetectorKind::Ml]
                } else {
                    &[DetectorKind::Mmse, DetectorKind::Zf]
                };
                for &kind in kinds {
                    let cfg = rx_config(2, kind, true, true, true);
                    let got = Receiver::new(cfg.clone()).receive(&noisy);
                    let want = ReferenceReceiver::new(cfg).receive(&noisy);
                    let case = format!("MCS {mcs} {len} B cfo {cfo} {kind} seed {seed}");
                    assert!(
                        matches!(want, Ok(_) | Err(mimonet::RxError::Fec)),
                        "{case}: the reference must reach the data symbols, got {want:?}"
                    );
                    assert_eq!(got, want, "{case}");
                }
            }
        }
    }
}

/// The same frames back to back in one capture per MCS and CFO sign,
/// scanned: every frame's data symbols end at a different lane, and the
/// workspace carries each frame's lane slabs into the next decode.
#[test]
fn lane_tails_scan_matches_reference() {
    let mut seed = 0x5CA7u64;
    for (mcs, snr, lens) in LANE_TAIL_CASES {
        let mut capture: Vec<Vec<Complex64>> = vec![vec![Complex64::ZERO; 150]; 2];
        for len in lens.into_iter().chain(lens.into_iter().rev()) {
            let psdu: Vec<u8> = (0..len).map(|i| (i * 3 + len) as u8).collect();
            for (c, s) in capture.iter_mut().zip(padded_frame(mcs, &psdu, 0, 300)) {
                c.extend(s);
            }
        }
        for cfo in [0.3, -0.3] {
            seed += 1;
            let mut sim = ChannelSim::new(tgn_d(snr, cfo), seed);
            let (noisy, _) = sim.apply(&capture);
            let cfg = RxConfig::new(2);
            let (got_frames, got_stats) = Receiver::new(cfg.clone()).scan(&noisy);
            let (want_frames, want_stats) = ReferenceReceiver::new(cfg).scan(&noisy);
            let case = format!("MCS {mcs} cfo {cfo} seed {seed}");
            assert!(
                want_frames.len() >= 6,
                "{case}: most frames must decode, got {}",
                want_frames.len()
            );
            assert_eq!(got_frames, want_frames, "{case}");
            assert_eq!(got_stats, want_stats, "{case}");
        }
    }
}

/// Without fine timing the receiver refines timing with a Van de Beek
/// search over the 480 samples after the L-LTF. With one HT-LTF (one
/// stream) that window reaches past the start of the data symbols, so
/// the first data windows are partly corrected before the data loop
/// starts. SISO and 1x2 frames at MCS 0 and 3, at three CFOs.
#[test]
fn vdb_window_past_the_data_start_matches_reference() {
    let mut seed = 0x7DB0u64;
    for (mcs, len) in [(0u8, 60usize), (3, 200)] {
        let psdu: Vec<u8> = (0..len).map(|i| (i * 11 + 5) as u8).collect();
        let streams = padded_frame(mcs, &psdu, 120, 80);
        for (n_rx, fading) in [(1, Fading::Ideal), (2, Fading::RayleighFlat)] {
            for cfo in [0.0, 0.21, -0.33] {
                seed += 1;
                let mut chan = ChannelConfig::awgn(1, n_rx, 25.0);
                chan.fading = fading;
                chan.cfo_norm = cfo;
                let mut sim = ChannelSim::new(chan, seed);
                let (noisy, _) = sim.apply(&streams);
                let cfg = rx_config(n_rx, DetectorKind::Mmse, true, false, true);
                let got = Receiver::new(cfg.clone()).receive(&noisy);
                let want = ReferenceReceiver::new(cfg).receive(&noisy);
                let case = format!("MCS {mcs} 1x{n_rx} cfo {cfo} seed {seed}");
                assert!(
                    matches!(want, Ok(_) | Err(mimonet::RxError::Fec)),
                    "{case}: the reference must reach the data symbols, got {want:?}"
                );
                assert_eq!(got, want, "{case}");
            }
        }
    }
}
