//! Correlation primitives used by packet detection and fine timing.
//!
//! Two families live here:
//!
//! * **Sliding cross-correlation** against a known reference (matched
//!   filtering against a preamble) — [`cross_correlate`] and the normalized
//!   variant used for detection thresholds.
//! * **Lagged autocorrelation** of a signal with a delayed copy of itself —
//!   the core of Schmidl–Cox-style detectors and the Van de Beek metric;
//!   [`SlidingAutocorrelator`] maintains the running sums in O(1) per sample.
//!
//! The normalized cross-correlation has one implementation, the lane
//! kernel behind [`normalized_cross_correlate_into`]. Its two oracles —
//! the per-lag form it replaced and a scalar twin it must match bit for
//! bit — live in the dev-only `mimonet-oracle` crate
//! (`mimonet_oracle::correlate`), which this crate's integration tests
//! compare it against.

use crate::complex::{dot_conj, split_complex, Complex64};
use crate::simd::F64x4;
use std::cell::RefCell;

/// Cross-correlates `signal` against `reference` at every alignment where the
/// reference fits entirely inside the signal.
///
/// Output length is `signal.len() - reference.len() + 1`; entry `d` is
/// `sum_k signal[d+k] * conj(reference[k])`.
///
/// Returns an empty vector when the reference is longer than the signal.
pub fn cross_correlate(signal: &[Complex64], reference: &[Complex64]) -> Vec<Complex64> {
    if reference.is_empty() || reference.len() > signal.len() {
        return Vec::new();
    }
    let n = signal.len() - reference.len() + 1;
    (0..n)
        .map(|d| dot_conj(&signal[d..d + reference.len()], reference))
        .collect()
}

/// Normalized cross-correlation magnitude in `[0, 1]`:
/// `|<s_d, r>| / (||s_d|| * ||r||)`, where `s_d` is the signal window at
/// offset `d`. Windows with (near-)zero energy produce 0.
///
/// The window energy `||s_d||²` is maintained as a running sum — O(1) per
/// lag, mirroring [`SlidingAutocorrelator`] — instead of being recomputed
/// from scratch at every offset. The running update reassociates the
/// floating-point summation, so individual values can differ from the
/// per-window form (the per-lag test oracle in `mimonet_oracle::correlate`)
/// by rounding noise; peak positions and threshold decisions are unaffected.
pub fn normalized_cross_correlate(signal: &[Complex64], reference: &[Complex64]) -> Vec<f64> {
    let mut out = Vec::new();
    normalized_cross_correlate_into(signal, reference, &mut out);
    out
}

thread_local! {
    /// SoA scratch for the vectorized correlator: split-re/im signal
    /// slabs plus the precomputed per-lag window energies. Thread-local
    /// and capacity-retaining, so warmed callers allocate nothing.
    static CORR_SCRATCH: RefCell<(Vec<f64>, Vec<f64>, Vec<f64>)> =
        const { RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// [`normalized_cross_correlate`] writing into a caller-owned vector
/// (cleared first; capacity is reused) so warmed-up callers allocate
/// nothing.
///
/// Vectorized: four adjacent *lags* per [`F64x4`] lane over a flat
/// split-re/im (SoA) copy of the signal. Each `k` step broadcasts
/// `reference[k]` and loads four contiguous signal samples, and every
/// lane accumulates its own lag's correlation in the scalar `k` order —
/// so each lane reproduces the scalar [`dot_conj`] fold exactly and the
/// output is bit-identical to a one-lag-at-a-time sliding correlator
/// (the scalar test oracle in `mimonet_oracle::correlate`).
/// The window-energy slide stays scalar (it is O(1) per lag and
/// sequential by design).
pub fn normalized_cross_correlate_into(
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
    CORR_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let (s_re, s_im, energies) = &mut *scratch;
        split_complex(signal, s_re, s_im);
        // The one-lag-at-a-time running energy slide, recorded per lag
        // so the blocked main loop can consume it out of step.
        energies.clear();
        energies.reserve(n);
        let mut s_energy: f64 = signal[..l].iter().map(|x| x.norm_sqr()).sum();
        for d in 0..n {
            energies.push(s_energy);
            if d + 1 < n {
                s_energy += signal[d + l].norm_sqr() - signal[d].norm_sqr();
            }
        }
        let mut push_lag = |d: usize, corr_abs: f64| {
            let e = energies[d].max(0.0);
            out.push(if e <= f64::EPSILON {
                0.0
            } else {
                corr_abs / (e * r_energy).sqrt()
            });
        };
        let mut d = 0;
        // Two independent lag quads per pass: the broadcast of
        // `reference[k]` is amortized over eight lags and the two
        // accumulator pairs give the out-of-order core independent
        // dependency chains. Each lane still folds in the scalar k order.
        while d + 8 <= n {
            let mut acc_re0 = F64x4::ZERO;
            let mut acc_im0 = F64x4::ZERO;
            let mut acc_re1 = F64x4::ZERO;
            let mut acc_im1 = F64x4::ZERO;
            // Lanes d..d+8 read signal[d+k..d+k+8]: contiguous in SoA.
            let wr = &s_re[d..d + l + 7];
            let wi = &s_im[d..d + l + 7];
            for (k, r) in reference.iter().enumerate() {
                let br = F64x4::splat(r.re);
                let bi = F64x4::splat(r.im);
                let xr0 = F64x4::load(wr, k);
                let xi0 = F64x4::load(wi, k);
                let xr1 = F64x4::load(wr, k + 4);
                let xi1 = F64x4::load(wi, k + 4);
                // x * r.conj(), in the exact op order of Complex64::mul
                // (negated-product subtraction == addition, bit-exact).
                acc_re0 += xr0 * br + xi0 * bi;
                acc_im0 += xi0 * br - xr0 * bi;
                acc_re1 += xr1 * br + xi1 * bi;
                acc_im1 += xi1 * br - xr1 * bi;
            }
            for lane in 0..4 {
                push_lag(d + lane, acc_re0.lane(lane).hypot(acc_im0.lane(lane)));
            }
            for lane in 0..4 {
                push_lag(d + 4 + lane, acc_re1.lane(lane).hypot(acc_im1.lane(lane)));
            }
            d += 8;
        }
        while d + 4 <= n {
            let mut acc_re = F64x4::ZERO;
            let mut acc_im = F64x4::ZERO;
            // Lanes d..d+4 read signal[d+k..d+k+4]: contiguous in SoA.
            let wr = &s_re[d..d + l + 3];
            let wi = &s_im[d..d + l + 3];
            for (k, r) in reference.iter().enumerate() {
                let br = F64x4::splat(r.re);
                let bi = F64x4::splat(r.im);
                let xr = F64x4::load(wr, k);
                let xi = F64x4::load(wi, k);
                acc_re += xr * br + xi * bi;
                acc_im += xi * br - xr * bi;
            }
            for lane in 0..4 {
                push_lag(d + lane, acc_re.lane(lane).hypot(acc_im.lane(lane)));
            }
            d += 4;
        }
        // Remainder lags (n not a multiple of the lane width): scalar.
        for d in d..n {
            push_lag(d, dot_conj(&signal[d..d + l], reference).abs());
        }
    });
}

/// Index of the maximum value in a real slice; `None` for empty input.
/// Ties resolve to the earliest index, matching "first peak wins" detection
/// semantics.
pub fn argmax(xs: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in xs.iter().enumerate() {
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Running lagged autocorrelation over a sliding window.
///
/// At each pushed sample the correlator maintains, in O(1):
///
/// * `gamma = sum_{k in window} x[k] * conj(x[k+lag])` — the complex
///   correlation between the window and its lag-delayed copy, and
/// * `phi = 1/2 * sum_{k in window} (|x[k]|^2 + |x[k+lag]|^2)` — the
///   corresponding energy term.
///
/// These are exactly the Γ(θ) and Φ(θ) sums of the Van de Beek ML estimator
/// (and of Schmidl–Cox when `lag == window`). The caller defines which sample
/// index the window refers to; see `mimonet-sync` for usage.
#[derive(Clone, Debug)]
pub struct SlidingAutocorrelator {
    lag: usize,
    window: usize,
    history: Vec<Complex64>, // ring buffer of the last `lag + window` samples
    head: usize,             // next write slot
    filled: usize,
    gamma: Complex64,
    phi: f64,
}

impl SlidingAutocorrelator {
    /// Creates a correlator with the given delay `lag` and summation window
    /// length `window` (both in samples, both nonzero).
    pub fn new(lag: usize, window: usize) -> Self {
        assert!(lag > 0 && window > 0, "lag and window must be nonzero");
        Self {
            lag,
            window,
            history: vec![Complex64::ZERO; lag + window],
            head: 0,
            filled: 0,
            gamma: Complex64::ZERO,
            phi: 0.0,
        }
    }

    /// Number of samples that must be pushed before outputs are valid.
    pub fn warmup(&self) -> usize {
        self.lag + self.window
    }

    /// `true` once enough samples have been pushed for `gamma`/`phi` to cover
    /// a full window.
    pub fn is_warm(&self) -> bool {
        self.filled >= self.warmup()
    }

    fn at(&self, age: usize) -> Complex64 {
        // age 0 = most recently pushed sample.
        let len = self.history.len();
        self.history[(self.head + len - 1 - age) % len]
    }

    /// Pushes one sample and updates the running sums.
    ///
    /// After pushing sample `x[n]`, the window covers pairs
    /// `(x[n - lag - window + 1 + k], x[n - window + 1 + k])` for
    /// `k in 0..window`; i.e. the *newest* pair is `(x[n-lag], x[n])`.
    pub fn push(&mut self, x: Complex64) {
        // The pair leaving the window (only once warm): the oldest pair is
        // (x[n - lag - window + 1], x[n - window + 1]) *before* this push.
        if self.is_warm() {
            let old_early = self.at(self.lag + self.window - 1);
            let old_late = self.at(self.window - 1);
            self.gamma -= old_early * old_late.conj();
            self.phi -= 0.5 * (old_early.norm_sqr() + old_late.norm_sqr());
        }

        self.history[self.head] = x;
        self.head = (self.head + 1) % self.history.len();
        self.filled = (self.filled + 1).min(self.warmup() + 1);

        // The pair entering: (x[n - lag], x[n]) where x[n] = just pushed.
        if self.filled > self.lag {
            let early = self.at(self.lag);
            let late = x;
            self.gamma += early * late.conj();
            self.phi += 0.5 * (early.norm_sqr() + late.norm_sqr());
        }
    }

    /// Current complex correlation sum Γ. Valid once [`Self::is_warm`].
    pub fn gamma(&self) -> Complex64 {
        self.gamma
    }

    /// Current energy sum Φ. Valid once [`Self::is_warm`].
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// Normalized correlation magnitude `|Γ| / Φ` in `[0, 1]` (up to noise);
    /// the standard plateau/peak detection metric. Returns 0 when Φ is
    /// negligible.
    pub fn metric(&self) -> f64 {
        if self.phi <= f64::EPSILON {
            0.0
        } else {
            self.gamma.abs() / self.phi
        }
    }

    /// Resets all state, as after `new`.
    pub fn reset(&mut self) {
        self.history.fill(Complex64::ZERO);
        self.head = 0;
        self.filled = 0;
        self.gamma = Complex64::ZERO;
        self.phi = 0.0;
    }
}

/// Batch lagged autocorrelation: for each position where a full window of
/// pairs is available, returns `(gamma, phi)` as defined on
/// [`SlidingAutocorrelator`] — i.e. `gamma = sum_k x[i+k] * conj(x[i+k+lag])`,
/// the Van de Beek convention. Output index `i` covers pairs
/// `(x[i+k], x[i+k+lag])` for `k in 0..window`.
pub fn lagged_autocorrelation(x: &[Complex64], lag: usize, window: usize) -> Vec<(Complex64, f64)> {
    if x.len() < lag + window {
        return Vec::new();
    }
    let n = x.len() - lag - window + 1;
    let mut out = Vec::with_capacity(n);
    let mut corr = SlidingAutocorrelator::new(lag, window);
    for (i, &s) in x.iter().enumerate() {
        corr.push(s);
        if i + 1 >= lag + window {
            out.push((corr.gamma(), corr.phi()));
        }
    }
    debug_assert_eq!(out.len(), n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C64;

    #[test]
    fn cross_correlation_peaks_at_embedded_reference() {
        let reference: Vec<C64> = (0..16)
            .map(|i| C64::cis(i as f64 * 1.1) * (1.0 + 0.1 * i as f64))
            .collect();
        let mut signal = vec![C64::new(0.01, -0.02); 100];
        let offset = 37;
        for (k, &r) in reference.iter().enumerate() {
            signal[offset + k] = r;
        }
        let c = normalized_cross_correlate(&signal, &reference);
        assert_eq!(argmax(&c), Some(offset));
        assert!(c[offset] > 0.99);
    }

    #[test]
    fn normalized_correlation_is_bounded() {
        let reference: Vec<C64> = (0..8).map(|i| C64::cis(i as f64)).collect();
        let signal: Vec<C64> = (0..64).map(|i| C64::cis(i as f64 * 0.3)).collect();
        for v in normalized_cross_correlate(&signal, &reference) {
            assert!((0.0..=1.0 + 1e-12).contains(&v));
        }
    }

    #[test]
    fn cross_correlate_handles_degenerate_inputs() {
        let sig = vec![C64::ONE; 4];
        assert!(cross_correlate(&sig, &[]).is_empty());
        assert!(cross_correlate(&sig, &[C64::ONE; 5]).is_empty());
        assert!(normalized_cross_correlate(&[], &sig).is_empty());
    }

    #[test]
    fn into_variant_reuses_buffer_and_clears() {
        let signal: Vec<C64> = (0..40).map(|i| C64::cis(i as f64 * 0.2)).collect();
        let reference: Vec<C64> = (0..8).map(|i| C64::cis(i as f64)).collect();
        let mut out = vec![99.0; 7];
        normalized_cross_correlate_into(&signal, &reference, &mut out);
        assert_eq!(out, normalized_cross_correlate(&signal, &reference));
        // Degenerate input leaves the buffer empty, not stale.
        normalized_cross_correlate_into(&[], &reference, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn argmax_basics() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[1.0]), Some(0));
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), Some(1));
        // Ties resolve to the earliest.
        assert_eq!(argmax(&[2.0, 5.0, 5.0]), Some(1));
    }

    fn naive_lagged(x: &[C64], lag: usize, window: usize) -> Vec<(C64, f64)> {
        if x.len() < lag + window {
            return Vec::new();
        }
        (0..=x.len() - lag - window)
            .map(|i| {
                let mut g = C64::ZERO;
                let mut p = 0.0;
                for k in 0..window {
                    g += x[i + k] * x[i + k + lag].conj();
                    p += 0.5 * (x[i + k].norm_sqr() + x[i + k + lag].norm_sqr());
                }
                (g, p)
            })
            .collect()
    }

    #[test]
    fn sliding_matches_naive() {
        let x: Vec<C64> = (0..60)
            .map(|i| C64::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
            .collect();
        for &(lag, window) in &[(1usize, 1usize), (4, 8), (16, 16), (16, 32), (7, 3)] {
            let got = lagged_autocorrelation(&x, lag, window);
            let want = naive_lagged(&x, lag, window);
            assert_eq!(got.len(), want.len(), "lag={lag} window={window}");
            for (i, ((gg, gp), (wg, wp))) in got.iter().zip(&want).enumerate() {
                assert!(
                    gg.dist(*wg) < 1e-9,
                    "gamma mismatch at {i} lag={lag} w={window}"
                );
                assert!((gp - wp).abs() < 1e-9, "phi mismatch at {i}");
            }
        }
    }

    #[test]
    fn periodic_signal_saturates_metric() {
        // A signal with period `lag` has |gamma| == phi, metric == 1.
        let lag = 16;
        let base: Vec<C64> = (0..lag).map(|i| C64::cis(i as f64 * 0.9)).collect();
        let x: Vec<C64> = (0..4 * lag).map(|i| base[i % lag]).collect();
        let mut c = SlidingAutocorrelator::new(lag, lag);
        for &s in &x {
            c.push(s);
        }
        assert!(c.is_warm());
        assert!((c.metric() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut c = SlidingAutocorrelator::new(4, 4);
        for i in 0..20 {
            c.push(C64::cis(i as f64));
        }
        assert!(c.is_warm());
        c.reset();
        assert!(!c.is_warm());
        assert_eq!(c.gamma(), C64::ZERO);
        assert_eq!(c.phi(), 0.0);
    }

    #[test]
    fn warmup_accounting() {
        let mut c = SlidingAutocorrelator::new(3, 5);
        assert_eq!(c.warmup(), 8);
        for i in 0..7 {
            c.push(C64::ONE);
            assert!(!c.is_warm(), "not warm after {} samples", i + 1);
        }
        c.push(C64::ONE);
        assert!(c.is_warm());
    }

    #[test]
    fn empty_or_short_input_yields_empty_batch() {
        assert!(lagged_autocorrelation(&[], 4, 4).is_empty());
        assert!(lagged_autocorrelation(&[C64::ONE; 7], 4, 4).is_empty());
        assert_eq!(lagged_autocorrelation(&[C64::ONE; 8], 4, 4).len(), 1);
    }
}
