//! The lane correlator against its two oracles in
//! `mimonet_oracle::correlate`: the per-lag form within rounding noise
//! (the sliding window energy reassociates the sum), and the scalar
//! sliding twin bit for bit.

use mimonet_dsp::complex::C64;
use mimonet_dsp::correlate::{normalized_cross_correlate, normalized_cross_correlate_into};
use mimonet_oracle::correlate::{
    normalized_cross_correlate_reference, normalized_cross_correlate_scalar_into,
};

#[test]
fn sliding_energy_matches_reference() {
    // Mixed signal: silence, a tone, impulses — exercises both the
    // zero-energy clamp and the running update.
    let mut signal = vec![C64::ZERO; 30];
    signal.extend((0..80).map(|i| C64::cis(i as f64 * 0.4) * (0.5 + (i % 7) as f64)));
    signal.extend(vec![C64::ZERO; 20]);
    signal.push(C64::new(3.0, -2.0));
    signal.extend(vec![C64::ZERO; 30]);
    let reference: Vec<C64> = (0..16).map(|i| C64::cis(i as f64 * 1.3)).collect();
    let fast = normalized_cross_correlate(&signal, &reference);
    let slow = normalized_cross_correlate_reference(&signal, &reference);
    assert_eq!(fast.len(), slow.len());
    for (d, (f, s)) in fast.iter().zip(&slow).enumerate() {
        assert!((f - s).abs() < 1e-9, "lag {d}: {f} vs {s}");
    }
}

#[test]
fn simd_lags_match_scalar_bit_for_bit() {
    // Lengths straddling lane boundaries (n % 4 ∈ {0,1,2,3}) plus a
    // signal with silence so the zero-energy clamp fires in both.
    for (sig_len, ref_len) in [(64usize, 16usize), (61, 7), (40, 13), (23, 23), (9, 4)] {
        let mut signal: Vec<C64> = (0..sig_len)
            .map(|i| C64::new((i as f64 * 0.37).sin() * 1.5, (i as f64 * 0.61).cos()))
            .collect();
        for s in signal.iter_mut().take(6) {
            *s = C64::ZERO;
        }
        let reference: Vec<C64> = (0..ref_len)
            .map(|i| C64::cis(i as f64 * 1.17) * (0.4 + 0.2 * i as f64))
            .collect();
        let mut scalar = Vec::new();
        let mut simd = Vec::new();
        normalized_cross_correlate_scalar_into(&signal, &reference, &mut scalar);
        normalized_cross_correlate_into(&signal, &reference, &mut simd);
        assert_eq!(scalar, simd, "sig={sig_len} ref={ref_len}");
    }
}
