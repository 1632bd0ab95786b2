//! Property-based tests of the DSP substrate's algebraic invariants.

use mimonet_dsp::complex::{dot_conj, energy, Complex64};
use mimonet_dsp::correlate::{lagged_autocorrelation, normalized_cross_correlate};
use mimonet_dsp::fft::{fft, fftshift, ifft, ifftshift};
use mimonet_dsp::stats::{Merge, Running};
use proptest::prelude::*;

fn small_f64() -> impl Strategy<Value = f64> {
    (-100.0..100.0f64).prop_filter("finite", |v| v.is_finite())
}

fn complex() -> impl Strategy<Value = Complex64> {
    (small_f64(), small_f64()).prop_map(|(re, im)| Complex64::new(re, im))
}

fn complex_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Complex64>> {
    prop::collection::vec(complex(), len)
}

proptest! {
    #[test]
    fn complex_mul_is_commutative_and_associative(a in complex(), b in complex(), c in complex()) {
        prop_assert!((a * b).dist(b * a) < 1e-6);
        let lhs = (a * b) * c;
        let rhs = a * (b * c);
        prop_assert!(lhs.dist(rhs) <= 1e-6 * (1.0 + lhs.abs()));
    }

    #[test]
    fn complex_distributive_law(a in complex(), b in complex(), c in complex()) {
        let lhs = a * (b + c);
        let rhs = a * b + a * c;
        prop_assert!(lhs.dist(rhs) <= 1e-6 * (1.0 + lhs.abs()));
    }

    #[test]
    fn conjugation_is_an_involution_and_multiplicative(a in complex(), b in complex()) {
        prop_assert_eq!(a.conj().conj(), a);
        prop_assert!((a * b).conj().dist(a.conj() * b.conj()) < 1e-6);
    }

    #[test]
    fn magnitude_is_multiplicative(a in complex(), b in complex()) {
        prop_assert!(((a * b).abs() - a.abs() * b.abs()).abs() <= 1e-6 * (1.0 + a.abs() * b.abs()));
    }

    #[test]
    fn nonzero_division_roundtrips(a in complex(), b in complex()) {
        prop_assume!(b.abs() > 1e-3);
        let q = a / b;
        prop_assert!((q * b).dist(a) <= 1e-6 * (1.0 + a.abs()));
    }

    #[test]
    fn triangle_inequality(a in complex(), b in complex()) {
        prop_assert!((a + b).abs() <= a.abs() + b.abs() + 1e-9);
    }
}

fn pow2_vec() -> impl Strategy<Value = Vec<Complex64>> {
    (2u32..9).prop_flat_map(|log| prop::collection::vec(complex(), 1usize << log))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_roundtrip(x in pow2_vec()) {
        let y = ifft(&fft(&x));
        for (a, b) in x.iter().zip(&y) {
            prop_assert!(a.dist(*b) < 1e-6 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn fft_is_linear(x in pow2_vec(), k in complex()) {
        let scaled: Vec<Complex64> = x.iter().map(|&v| v * k).collect();
        let fx = fft(&x);
        let fscaled = fft(&scaled);
        for (a, b) in fx.iter().zip(&fscaled) {
            prop_assert!((*a * k).dist(*b) < 1e-5 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn parseval_holds(x in pow2_vec()) {
        let f = fft(&x);
        let et = energy(&x);
        let ef = energy(&f) / x.len() as f64;
        prop_assert!((et - ef).abs() <= 1e-6 * (1.0 + et));
    }

    #[test]
    fn fftshift_roundtrip(x in complex_vec(1..64)) {
        prop_assert_eq!(ifftshift(&fftshift(&x)), x);
    }

    #[test]
    fn circular_time_shift_preserves_spectrum_magnitude(x in pow2_vec()) {
        let n = x.len();
        let mut shifted = x.clone();
        shifted.rotate_left(n / 3 % n.max(1));
        let a = fft(&x);
        let b = fft(&shifted);
        for (u, v) in a.iter().zip(&b) {
            prop_assert!((u.abs() - v.abs()).abs() <= 1e-6 * (1.0 + u.abs()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn normalized_correlation_bounded(
        signal in complex_vec(8..128),
        reference in complex_vec(1..8),
    ) {
        for v in normalized_cross_correlate(&signal, &reference) {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&v));
        }
    }

    #[test]
    fn autocorrelation_metric_bounded(x in complex_vec(24..96)) {
        for (g, p) in lagged_autocorrelation(&x, 4, 8) {
            // |gamma| <= phi (Cauchy-Schwarz + AM-GM).
            prop_assert!(g.abs() <= p + 1e-6 * (1.0 + p));
        }
    }

    #[test]
    fn dot_conj_cauchy_schwarz(a in complex_vec(1..32), b in complex_vec(1..32)) {
        let n = a.len().min(b.len());
        let d = dot_conj(&a[..n], &b[..n]).abs();
        let bound = (energy(&a[..n]) * energy(&b[..n])).sqrt();
        prop_assert!(d <= bound + 1e-6 * (1.0 + bound));
    }
}

proptest! {
    #[test]
    fn running_stats_match_naive(xs in prop::collection::vec(-1e6..1e6f64, 1..200)) {
        let mut r = Running::new();
        for &x in &xs {
            r.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        prop_assert!((r.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((r.variance() - var).abs() <= 1e-5 * (1.0 + var));
        prop_assert_eq!(r.count(), xs.len() as u64);
    }

    #[test]
    fn running_merge_is_order_independent(
        xs in prop::collection::vec(-1e3..1e3f64, 1..100),
        split in 0usize..100,
    ) {
        let split = split % xs.len();
        let mut whole = Running::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Running::new();
        let mut b = Running::new();
        for &x in &xs[..split] {
            a.push(x);
        }
        for &x in &xs[split..] {
            b.push(x);
        }
        // merge in both orders
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert!((ab.mean() - whole.mean()).abs() < 1e-9 * (1.0 + whole.mean().abs()));
        prop_assert!((ba.variance() - whole.variance()).abs() < 1e-6 * (1.0 + whole.variance()));
        prop_assert_eq!(ab.count(), whole.count());
    }
}
