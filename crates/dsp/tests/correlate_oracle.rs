//! The lane correlator against its two oracles in
//! `mimonet_oracle::correlate`: the per-lag form within rounding noise
//! (the sliding window energy reassociates the sum) and at the same
//! peak, and the scalar sliding twin bit for bit.

use mimonet_dsp::complex::C64;
use mimonet_dsp::correlate::{argmax, normalized_cross_correlate, normalized_cross_correlate_into};
use mimonet_oracle::correlate::{
    normalized_cross_correlate_reference, normalized_cross_correlate_scalar_into,
};

/// STF-search shape: a 4,096-sample signal scanned with the 64-sample
/// pattern `signal[512..576]`, so the running energy slides over 4,033
/// lags.
fn long_search() -> (Vec<C64>, Vec<C64>) {
    let signal: Vec<C64> = (0..4096)
        .map(|i| C64::cis(i as f64 * 0.37) * (1.0 + 0.1 * (i % 7) as f64))
        .collect();
    let reference = signal[512..576].to_vec();
    (signal, reference)
}

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
    for (signal, reference) in [(signal, reference), long_search()] {
        let fast = normalized_cross_correlate(&signal, &reference);
        let slow = normalized_cross_correlate_reference(&signal, &reference);
        let n = signal.len();
        assert_eq!(fast.len(), slow.len(), "sig={n}");
        for (d, (f, s)) in fast.iter().zip(&slow).enumerate() {
            assert!((f - s).abs() < 1e-9, "sig={n} lag {d}: {f} vs {s}");
        }
        assert_eq!(argmax(&fast), argmax(&slow), "sig={n}: peak");
    }
}

#[test]
fn simd_lags_match_scalar_bit_for_bit() {
    // Lengths straddling lane boundaries (n % 4 ∈ {0,1,2,3}) plus a
    // signal with silence so the zero-energy clamp fires in both.
    let mut cases: Vec<(Vec<C64>, Vec<C64>)> =
        [(64usize, 16usize), (61, 7), (40, 13), (23, 23), (9, 4)]
            .into_iter()
            .map(|(sig_len, ref_len)| {
                let mut signal: Vec<C64> = (0..sig_len)
                    .map(|i| C64::new((i as f64 * 0.37).sin() * 1.5, (i as f64 * 0.61).cos()))
                    .collect();
                for s in signal.iter_mut().take(6) {
                    *s = C64::ZERO;
                }
                let reference: Vec<C64> = (0..ref_len)
                    .map(|i| C64::cis(i as f64 * 1.17) * (0.4 + 0.2 * i as f64))
                    .collect();
                (signal, reference)
            })
            .collect();
    cases.push(long_search());
    for (signal, reference) in &cases {
        let mut scalar = Vec::new();
        let mut simd = Vec::new();
        normalized_cross_correlate_scalar_into(signal, reference, &mut scalar);
        normalized_cross_correlate_into(signal, reference, &mut simd);
        assert_eq!(scalar, simd, "sig={} ref={}", signal.len(), reference.len());
    }
}
