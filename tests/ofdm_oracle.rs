//! `Ofdm::demodulate`, `Ofdm::demodulate_window` and
//! `Ofdm::modulate_into` against the same steps run on the FFT oracle
//! (`mimonet_oracle::fft::ReferenceFft`), bit for bit.
//!
//! `tests/equivalence.rs` cannot see a change in the transform: its
//! `ReferenceReceiver` demodulates through the same `Ofdm` as the
//! receiver it checks. This file pins that `Ofdm` to the oracle loop, so
//! the receiver's data path, checked against `ReferenceReceiver`, is
//! pinned to it too.

use mimonet_dsp::complex::C64;
use mimonet_frame::carriers::{CP_LEN, FFT_LEN, SYM_LEN};
use mimonet_frame::ofdm::Ofdm;
use mimonet_oracle::fft::ReferenceFft;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The scales the transceiver uses (52 and 56 occupied carriers) plus two
/// plain ones.
fn scales() -> [f64; 4] {
    [
        Ofdm::unit_power_scale(52),
        Ofdm::unit_power_scale(56),
        1.0,
        2.5,
    ]
}

/// `n`-sample inputs: two random draws and two signed-zero patterns.
fn inputs(n: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<C64>> {
    let mut random = |scale: f64| -> Vec<C64> {
        (0..n)
            .map(|_| {
                C64::new(
                    rng.gen_range(-1.0..1.0) * scale,
                    rng.gen_range(-1.0..1.0) * scale,
                )
            })
            .collect()
    };
    let a = random(1.0);
    let b = random(40.0);
    let neg_zero = vec![C64::new(-0.0, -0.0); n];
    let sparse: Vec<C64> = (0..n)
        .map(|i| {
            if i % 6 == 2 {
                C64::new(-0.75, 0.125 * i as f64)
            } else {
                C64::new(if i % 2 == 0 { -0.0 } else { 0.0 }, -0.0)
            }
        })
        .collect();
    vec![a, b, neg_zero, sparse]
}

fn assert_bits_eq(got: &[C64], want: &[C64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
            "{what}: index {i}: {g:?} vs oracle {w:?}"
        );
    }
}

/// The oracle's demodulation: the FFT of the 64-sample window, each bin
/// scaled by `1 / scale`.
fn oracle_demodulate(oracle: &ReferenceFft, window: &[C64], scale: f64) -> Vec<C64> {
    let mut bins = window.to_vec();
    oracle.forward(&mut bins);
    let k = 1.0 / scale;
    bins.iter().map(|b| b.scale(k)).collect()
}

#[test]
fn demodulate_and_demodulate_window_match_the_oracle() {
    let ofdm = Ofdm::new();
    let oracle = ReferenceFft::new(FFT_LEN);
    let mut rng = ChaCha8Rng::seed_from_u64(0x0FD1);
    for (case, symbol) in inputs(SYM_LEN, &mut rng).into_iter().enumerate() {
        for scale in scales() {
            let want = oracle_demodulate(&oracle, &symbol[CP_LEN..], scale);
            let got = ofdm.demodulate(&symbol, scale);
            assert_bits_eq(
                &got,
                &want,
                &format!("demodulate case {case} scale {scale}"),
            );
            let got = ofdm.demodulate_window(&symbol[CP_LEN..], scale);
            assert_bits_eq(
                &got,
                &want,
                &format!("demodulate_window case {case} scale {scale}"),
            );
        }
    }
}

#[test]
fn modulate_into_matches_the_oracle() {
    let ofdm = Ofdm::new();
    let oracle = ReferenceFft::new(FFT_LEN);
    let mut rng = ChaCha8Rng::seed_from_u64(0x0FD2);
    for (case, bins) in inputs(FFT_LEN, &mut rng).into_iter().enumerate() {
        for scale in scales() {
            let mut td = bins.clone();
            oracle.inverse(&mut td);
            let mut want = Vec::with_capacity(SYM_LEN);
            want.extend(td[FFT_LEN - CP_LEN..].iter().map(|x| x.scale(scale)));
            want.extend(td.iter().map(|x| x.scale(scale)));

            let mut got_bins = [C64::ZERO; FFT_LEN];
            got_bins.copy_from_slice(&bins);
            let mut got = [C64::ZERO; SYM_LEN];
            ofdm.modulate_into(&mut got_bins, scale, &mut got);
            let what = format!("modulate_into case {case} scale {scale}");
            assert_bits_eq(&got, &want, &what);
            // The unscaled IFFT output stays in the caller's bins.
            assert_bits_eq(&got_bins, &td, &format!("{what}: bins"));
        }
    }
}

#[test]
fn a_transmitted_symbol_round_trips_like_the_oracle() {
    // One data-symbol-shaped input: 56 occupied carriers modulated at the
    // data scale, then demodulated by both sides.
    let ofdm = Ofdm::new();
    let oracle = ReferenceFft::new(FFT_LEN);
    let scale = Ofdm::unit_power_scale(56);
    let carriers: Vec<(i32, C64)> = (-28..=28)
        .filter(|&k| k != 0)
        .map(|k| (k, C64::cis(0.3 * k as f64)))
        .collect();
    let symbol = ofdm.modulate_carriers(&carriers, scale);
    let want = oracle_demodulate(&oracle, &symbol[CP_LEN..], scale);
    assert_bits_eq(&ofdm.demodulate(&symbol, scale), &want, "round trip");
}
