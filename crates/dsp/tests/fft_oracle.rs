//! `Fft::forward` and `Fft::inverse` against the per-stage-table loop in
//! `mimonet_oracle::fft`, bit for bit: every output component must carry
//! the oracle's exact bits, signs of zero included, on every power-of-two
//! size from 1 to 4,096.

use mimonet_dsp::complex::C64;
use mimonet_dsp::fft::Fft;
use mimonet_oracle::fft::ReferenceFft;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The inputs each size is checked on: random samples at two scales, and
/// three signed-zero patterns (all `-0.0`, alternating `±0.0`, and sparse
/// values on a `-0.0` floor) whose butterflies produce zeros of both
/// signs.
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
    let unit = random(1.0);
    let wide = random(1e3);
    let neg_zero = vec![C64::new(-0.0, -0.0); n];
    let alternating: Vec<C64> = (0..n)
        .map(|i| {
            let z = if i % 2 == 0 { 0.0 } else { -0.0 };
            C64::new(z, -z)
        })
        .collect();
    let sparse: Vec<C64> = (0..n)
        .map(|i| {
            if i % 5 == 1 {
                C64::new(0.5 * i as f64, -0.25)
            } else {
                C64::new(-0.0, if i % 3 == 0 { 0.0 } else { -0.0 })
            }
        })
        .collect();
    vec![unit, wide, neg_zero, alternating, sparse]
}

fn assert_bits_eq(got: &[C64], want: &[C64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
            "{what}: bin {i}: {g:?} vs oracle {w:?}"
        );
    }
}

#[test]
fn forward_and_inverse_match_the_oracle_bit_for_bit() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xF0F7);
    for log2 in 0..=12 {
        let n = 1usize << log2;
        let fft = Fft::new(n);
        let oracle = ReferenceFft::new(n);
        for (case, x) in inputs(n, &mut rng).into_iter().enumerate() {
            let mut got = x.clone();
            let mut want = x.clone();
            fft.forward(&mut got);
            oracle.forward(&mut want);
            assert_bits_eq(&got, &want, &format!("forward n={n} case {case}"));

            let mut got = x.clone();
            let mut want = x;
            fft.inverse(&mut got);
            oracle.inverse(&mut want);
            assert_bits_eq(&got, &want, &format!("inverse n={n} case {case}"));
        }
    }
}

#[test]
fn one_plan_matches_the_oracle_across_reuse() {
    // A plan is reused for many transforms in the receiver: alternate
    // directions through one plan and one buffer, as a round trip does.
    let mut rng = ChaCha8Rng::seed_from_u64(0xF0F8);
    let fft = Fft::new(64);
    let oracle = ReferenceFft::new(64);
    let mut got: Vec<C64> = (0..64)
        .map(|_| C64::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)))
        .collect();
    let mut want = got.clone();
    for round in 0..8 {
        fft.forward(&mut got);
        oracle.forward(&mut want);
        assert_bits_eq(&got, &want, &format!("round {round} forward"));
        fft.inverse(&mut got);
        oracle.inverse(&mut want);
        assert_bits_eq(&got, &want, &format!("round {round} inverse"));
    }
}
