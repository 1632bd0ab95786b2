//! The two correlators `mimonet_dsp::correlate::normalized_cross_correlate_into`
//! is checked against:
//!
//! * [`normalized_cross_correlate_reference`] recomputes the window
//!   energy from scratch at every lag — the pre-optimization form, the
//!   "before" side of the hot-path benchmark, and the oracle the sliding
//!   energy must match within rounding noise;
//! * [`normalized_cross_correlate_scalar_into`] slides the energy like
//!   the lane kernel but takes one lag at a time — the oracle the lane
//!   kernel must match bit for bit, and the "before" side of the lane
//!   benchmark.
//!
//! Both fold each lag's correlation with a private copy of `dot_conj`
//! in the library's `k` order, so they share no code with the kernel
//! they check.

use mimonet_dsp::complex::Complex64;

/// `sum_k a[k] * conj(b[k])` over the common prefix, folded in
/// ascending `k` — the order of `mimonet_dsp::complex::dot_conj` and of
/// every lane of the correlator kernel.
fn dot_conj(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    a.iter()
        .zip(b.iter())
        .fold(Complex64::ZERO, |acc, (&x, &y)| acc + x * y.conj())
}

/// Scalar implementation of `normalized_cross_correlate_into` — the
/// test oracle the lane kernel must match bit-for-bit.
pub fn normalized_cross_correlate_scalar_into(
    signal: &[Complex64],
    reference: &[Complex64],
    out: &mut Vec<f64>,
) {
    out.clear();
    if reference.is_empty() || reference.len() > signal.len() {
        return;
    }
    let l = reference.len();
    let n = signal.len() - l + 1;
    let r_energy: f64 = reference.iter().map(|x| x.norm_sqr()).sum();
    if r_energy <= f64::EPSILON {
        out.resize(n, 0.0);
        return;
    }
    // Prime the window energy, then slide: add the entering sample, drop
    // the leaving one. Clamp at zero — the running difference can dip to a
    // tiny negative value once the true energy is ~0.
    let mut s_energy: f64 = signal[..l].iter().map(|x| x.norm_sqr()).sum();
    for d in 0..n {
        let win = &signal[d..d + l];
        let e = s_energy.max(0.0);
        out.push(if e <= f64::EPSILON {
            0.0
        } else {
            dot_conj(win, reference).abs() / (e * r_energy).sqrt()
        });
        if d + 1 < n {
            s_energy += signal[d + l].norm_sqr() - signal[d].norm_sqr();
        }
    }
}

/// Reference implementation of `normalized_cross_correlate` that
/// recomputes the window energy from scratch at every lag — O(len(r)) per
/// lag. Kept as the equivalence oracle for tests and as the "before" side
/// of the hot-path benchmark.
pub fn normalized_cross_correlate_reference(
    signal: &[Complex64],
    reference: &[Complex64],
) -> Vec<f64> {
    if reference.is_empty() || reference.len() > signal.len() {
        return Vec::new();
    }
    let r_energy: f64 = reference.iter().map(|x| x.norm_sqr()).sum();
    if r_energy <= f64::EPSILON {
        return vec![0.0; signal.len() - reference.len() + 1];
    }
    let n = signal.len() - reference.len() + 1;
    (0..n)
        .map(|d| {
            let win = &signal[d..d + reference.len()];
            let s_energy: f64 = win.iter().map(|x| x.norm_sqr()).sum();
            if s_energy <= f64::EPSILON {
                0.0
            } else {
                dot_conj(win, reference).abs() / (s_energy * r_energy).sqrt()
            }
        })
        .collect()
}
