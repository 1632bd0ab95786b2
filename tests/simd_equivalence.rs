//! SIMD/batch equivalence proptests: every vectorized kernel against its
//! scalar implementation, and the multi-frame batch receive path
//! against per-frame decoding.
//!
//! The contract is *bit identity*, not approximate agreement: each lane
//! of a vectorized kernel owns one independent output (a lag, a symbol,
//! an observation) and performs the scalar operation sequence exactly,
//! so outputs are compared with `to_bits`/`PartialEq` on raw `f64`s. The
//! receiver runs the lane kernels on every data symbol. The scalar
//! detector and demapper (`apply_into`, `demap_soft_into`) stay public
//! library API and are the lane kernels' oracles here; the scalar
//! correlator and the reference receiver are oracles from
//! `mimonet-oracle`.

use mimonet::config::TxConfig;
use mimonet::tx::Transmitter;
use mimonet::{Receiver, RxBatch, RxConfig, RxFrame, RxWorkspace};
use mimonet_channel::{ChannelConfig, ChannelSim};
use mimonet_detect::{prepare, CMat, DetectorKind, Prepared};
use mimonet_dsp::complex::Complex64;
use mimonet_dsp::correlate::normalized_cross_correlate_into;
use mimonet_frame::carriers::FFT_LEN;
use mimonet_frame::Modulation;
use mimonet_oracle::correlate::normalized_cross_correlate_scalar_into;
use mimonet_oracle::ReferenceReceiver;
use proptest::prelude::*;

fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn complex_bits_eq(a: Complex64, b: Complex64) -> bool {
    bits_eq(a.re, b.re) && bits_eq(a.im, b.im)
}

fn modulation(idx: u8) -> Modulation {
    match idx % 4 {
        0 => Modulation::Bpsk,
        1 => Modulation::Qpsk,
        2 => Modulation::Qam16,
        _ => Modulation::Qam64,
    }
}

fn detector_kind(idx: u8) -> DetectorKind {
    match idx % 3 {
        0 => DetectorKind::Mmse,
        1 => DetectorKind::Zf,
        _ => DetectorKind::Ml,
    }
}

/// Soft-demaps one quad with four scalar calls and with one lane call;
/// true when every LLR agrees bit for bit.
fn demap_lanes_match(m: Modulation, nv: f64, ys: [Complex64; 4]) -> bool {
    let bp = m.bits_per_symbol();
    let mut want = vec![0.0f64; 4 * bp];
    for (lane, &y) in ys.iter().enumerate() {
        m.demap_soft_into(y, nv, &mut want[lane * bp..(lane + 1) * bp]);
    }
    let mut got = vec![0.0f64; 4 * bp];
    m.demap_soft_x4_into(ys, nv, &mut got, 0, bp);
    want.iter().zip(&got).all(|(x, y)| bits_eq(*x, *y))
}

/// Detects four observations with four scalar `apply_into` calls and
/// with one `apply_x4_into` call (the observations placed at one FFT bin
/// of a four-symbol bin slab, the outputs in one carrier's slabs); true
/// when every symbol and LLR agrees bit for bit.
fn detect_lanes_match(prep: &Prepared, ys: [&[Complex64]; 4]) -> bool {
    let n_ss = prep.n_ss();
    let bp = prep.modulation().bits_per_symbol();
    let mut want_syms = vec![Complex64::ZERO; 4 * n_ss];
    let mut want_llrs = vec![0.0f64; 4 * n_ss * bp];
    for (lane, y) in ys.iter().enumerate() {
        prep.apply_into(
            y,
            &mut want_syms[lane * n_ss..(lane + 1) * n_ss],
            &mut want_llrs[lane * n_ss * bp..(lane + 1) * n_ss * bp],
        );
    }
    const BIN: usize = 9;
    let n_rx = ys[0].len();
    let mut bins = vec![[Complex64::ZERO; FFT_LEN]; 4 * n_rx];
    for (lane, y) in ys.iter().enumerate() {
        for (r, &v) in y.iter().enumerate() {
            bins[lane * n_rx + r][BIN] = v;
        }
    }
    let mut got_syms = vec![Complex64::ZERO; 4 * n_ss];
    let mut got_llrs = vec![0.0f64; 4 * n_ss * bp];
    prep.apply_x4_into(&bins, BIN, 0, &mut got_syms, &mut got_llrs);
    want_syms
        .iter()
        .zip(&got_syms)
        .all(|(x, y)| complex_bits_eq(*x, *y))
        && want_llrs
            .iter()
            .zip(&got_llrs)
            .all(|(x, y)| bits_eq(*x, *y))
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Correlation: the four-lags-per-lane SoA kernel against the scalar
    /// sliding window, across lengths that leave 0..=7 remainder lags
    /// for the scalar tail (the 8/4/1-lane split points).
    #[test]
    fn correlate_simd_matches_scalar(
        sig_len in 8usize..120,
        ref_len in 1usize..24,
        seed in any::<u64>(),
    ) {
        prop_assume!(ref_len <= sig_len);
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let sig: Vec<Complex64> = (0..sig_len).map(|_| Complex64::new(next(), next())).collect();
        let pat: Vec<Complex64> = (0..ref_len).map(|_| Complex64::new(next(), next())).collect();
        let mut a = Vec::new();
        let mut b = Vec::new();
        normalized_cross_correlate_scalar_into(&sig, &pat, &mut a);
        normalized_cross_correlate_into(&sig, &pat, &mut b);
        prop_assert_eq!(a.len(), b.len());
        prop_assert!(a.iter().zip(&b).all(|(x, y)| bits_eq(*x, *y)));
    }

    /// Soft demapping: four lanes at once against four scalar calls, for
    /// every constellation.
    #[test]
    fn demap_x4_matches_scalar(
        mod_idx in 0u8..4,
        nv_centi in 1u32..500,
        seed in any::<u64>(),
    ) {
        let m = modulation(mod_idx);
        let nv = f64::from(nv_centi) / 100.0;
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            3.0 * ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
        };
        let ys = [
            Complex64::new(next(), next()),
            Complex64::new(next(), next()),
            Complex64::new(next(), next()),
            Complex64::new(next(), next()),
        ];
        prop_assert!(demap_lanes_match(m, nv, ys));
    }

    /// Lane detection: four observations at once against four scalar
    /// `apply_into` calls, across detector kinds, stream counts, and
    /// constellations.
    #[test]
    fn detect_x4_matches_scalar(
        det_idx in 0u8..3,
        mod_idx in 0u8..4,
        n_ss in 1usize..3,
        nv_centi in 1u32..300,
        seed in any::<u64>(),
    ) {
        let m = modulation(mod_idx);
        let nv = f64::from(nv_centi) / 100.0;
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut h = CMat::zeros(n_ss, n_ss);
        for r in 0..n_ss {
            for c in 0..n_ss {
                h[(r, c)] = Complex64::new(2.0 * next(), 2.0 * next())
                    + if r == c { Complex64::ONE } else { Complex64::ZERO };
            }
        }
        let prep = match prepare(detector_kind(det_idx), &h, nv, m) {
            Ok(p) => p,
            Err(_) => return Ok(()), // singular draw — nothing to compare
        };
        let ys: Vec<Vec<Complex64>> = (0..4)
            .map(|_| (0..n_ss).map(|_| Complex64::new(3.0 * next(), 3.0 * next())).collect())
            .collect();
        prop_assert!(detect_lanes_match(&prep, [&ys[0], &ys[1], &ys[2], &ys[3]]));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `receive_batch` against per-frame `receive_into` *and* the
    /// pre-optimization reference receiver, across batch sizes 1..=16,
    /// mixed MCS (distinct coded lengths in one batch), detector kinds,
    /// and SNRs low enough to produce mixed Ok/Err slots.
    #[test]
    fn receive_batch_matches_per_frame(
        n in 1usize..17,
        mcs_base in 8u8..14,
        mixed in any::<bool>(),
        det_idx in 0u8..3,
        snr_centi in 700u32..3000,
        seed in any::<u64>(),
    ) {
        let snr = f64::from(snr_centi) / 100.0;
        let mut captures: Vec<Vec<Vec<Complex64>>> = Vec::new();
        for k in 0..n {
            // Mixed batches alternate MCS (different coded lengths);
            // uniform batches repeat one MCS, so one coded length.
            let mcs = if mixed { 8 + ((mcs_base - 8 + k as u8) % 6) } else { mcs_base };
            let psdu: Vec<u8> = (0..30 + 7 * k).map(|i| (i as u8).wrapping_mul(29)).collect();
            let streams = padded_frame(mcs, &psdu, 60);
            let mut sim = ChannelSim::new(
                ChannelConfig::awgn(2, 2, snr),
                seed.wrapping_add(k as u64),
            );
            let (noisy, _) = sim.apply(&streams);
            captures.push(noisy);
        }

        let mut cfg = RxConfig::new(2);
        cfg.detector = detector_kind(det_idx);
        let rx = Receiver::new(cfg.clone());
        let reference = ReferenceReceiver::new(cfg);

        let mut ws = RxWorkspace::new();
        let mut batch = RxBatch::new();
        rx.receive_batch(&captures, &mut ws, &mut batch);
        prop_assert_eq!(batch.len(), n);

        let mut frame = RxFrame::default();
        for (i, cap) in captures.iter().enumerate() {
            let views: Vec<&[Complex64]> = cap.iter().map(|s| s.as_slice()).collect();
            let want = rx
                .receive_into(&views, &mut ws, &mut frame)
                .map(|()| frame.clone());
            let got = batch.result(i).cloned().map_err(Clone::clone);
            prop_assert_eq!(&got, &want, "slot {} disagrees with receive_into", i);
            let oracle = reference.receive(cap);
            prop_assert_eq!(got, oracle, "slot {} disagrees with the reference", i);
        }

        // The ok-view helpers agree with the per-slot outcomes.
        let oks: Vec<usize> = batch.ok_frames().map(|(i, _)| i).collect();
        let expect: Vec<usize> = (0..n).filter(|&i| batch.result(i).is_ok()).collect();
        prop_assert_eq!(batch.ok_count(), expect.len());
        prop_assert_eq!(oks, expect);
    }

}

/// 512 64-QAM symbol quads, soft-demapped at noise variance 0.02: a
/// fixed sweep of the widest constellation.
#[test]
fn qam64_demap_sweep_matches_scalar() {
    for q in 0..512 {
        let quad: [Complex64; 4] = std::array::from_fn(|lane| {
            let i = q * 4 + lane;
            Complex64::cis(i as f64 * 0.913) * (0.4 + 0.9 * ((i % 11) as f64 / 10.0))
        });
        assert!(demap_lanes_match(Modulation::Qam64, 0.02, quad), "quad {q}");
    }
}

/// 256 observation quads through one fixed 2x2 MMSE detector prepared
/// for 64-QAM at noise variance 0.01: the per-carrier inner loop of the
/// blocked data-symbol path.
#[test]
fn mmse_detect_sweep_matches_scalar() {
    let h = CMat::new(
        2,
        2,
        [
            Complex64::new(0.92, 0.11),
            Complex64::new(0.21, -0.33),
            Complex64::new(-0.27, 0.18),
            Complex64::new(1.04, -0.06),
        ],
    );
    let prep = prepare(DetectorKind::Mmse, &h, 0.01, Modulation::Qam64).unwrap();
    let ys: Vec<[Complex64; 2]> = (0..256 * 4)
        .map(|i| {
            [
                Complex64::cis(i as f64 * 0.71) * (0.5 + 0.6 * ((i % 13) as f64 / 12.0)),
                Complex64::cis(i as f64 * 1.13) * (0.5 + 0.6 * ((i % 17) as f64 / 16.0)),
            ]
        })
        .collect();
    for (q, quad) in ys.chunks_exact(4).enumerate() {
        assert!(
            detect_lanes_match(&prep, [&quad[0], &quad[1], &quad[2], &quad[3]]),
            "quad {q}"
        );
    }
}

/// Hard-decoding batches take the same per-capture path as soft ones;
/// the batch path must still agree slot-for-slot with per-frame receives.
#[test]
fn receive_batch_matches_hard_decoding() {
    let mut captures: Vec<Vec<Vec<Complex64>>> = Vec::new();
    for k in 0..5usize {
        let psdu: Vec<u8> = (0..50 + 10 * k).map(|i| i as u8).collect();
        let streams = padded_frame(9, &psdu, 60);
        let mut sim = ChannelSim::new(ChannelConfig::awgn(2, 2, 25.0), 42 + k as u64);
        let (noisy, _) = sim.apply(&streams);
        captures.push(noisy);
    }
    let mut cfg = RxConfig::new(2);
    cfg.soft_decoding = false;
    let rx = Receiver::new(cfg);
    let mut ws = RxWorkspace::new();
    let mut batch = RxBatch::new();
    rx.receive_batch(&captures, &mut ws, &mut batch);
    let mut frame = RxFrame::default();
    for (i, cap) in captures.iter().enumerate() {
        let views: Vec<&[Complex64]> = cap.iter().map(|s| s.as_slice()).collect();
        let want = rx
            .receive_into(&views, &mut ws, &mut frame)
            .map(|()| frame.clone());
        let got = batch.result(i).cloned().map_err(Clone::clone);
        assert_eq!(got, want, "hard-decoding slot {i}");
    }
}
