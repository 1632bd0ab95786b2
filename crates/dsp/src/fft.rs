//! Radix-2 decimation-in-time FFT / IFFT.
//!
//! OFDM modulation in this workspace uses a 64-point transform, so an
//! iterative radix-2 kernel with precomputed twiddles is ample. The planner
//! ([`Fft`]) precomputes the bit-reversal permutation and one flat twiddle
//! table per direction once, and is then reusable (and cheap to clone) for
//! any number of transforms of that size — the same pattern FFTW/RustFFT
//! planners use.
//!
//! Every transform runs one butterfly loop: each stage walks its blocks
//! with `chunks_exact_mut`, splits each block into halves with
//! `split_at_mut` and zips them with the stage's slice of the flat table.
//! [`Fft::forward`] and [`Fft::inverse`] first permute their input into
//! bit-reversed order with a swap prologue. A caller that fills the input
//! itself can write each sample straight to its bit-reversed slot
//! ([`Fft::bitrev`]) and call [`Fft::forward_bit_reversed`], which skips
//! the prologue: `Ofdm`'s demodulators gather their windows that way, and
//! the receiver writes its CFO-corrected data windows straight to those
//! slots. `crates/dsp/tests/fft_oracle.rs` checks every output bit for
//! bit against the per-stage-table oracle loop in `mimonet_oracle::fft`.
//!
//! Conventions: forward transform uses `exp(-i 2 pi k n / N)` with no
//! scaling; inverse uses `exp(+i 2 pi k n / N)` scaled by `1/N`, so
//! `ifft(fft(x)) == x`.

use crate::complex::Complex64;

/// A planned fixed-size FFT.
///
/// # Examples
///
/// ```
/// use mimonet_dsp::fft::Fft;
/// use mimonet_dsp::complex::Complex64;
///
/// let fft = Fft::new(64);
/// let mut buf = vec![Complex64::ONE; 64];
/// fft.forward(&mut buf);
/// // A constant signal concentrates all energy in bin 0.
/// assert!((buf[0].re - 64.0).abs() < 1e-9);
/// assert!(buf[1].abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct Fft {
    n: usize,
    /// Every stage's twiddle factors back to back: the stage whose
    /// butterflies span `2m` samples reads `[m - 1, 2m - 1)`.
    twiddles_fwd: Vec<Complex64>,
    twiddles_inv: Vec<Complex64>,
    bitrev: Vec<u32>,
}

impl Fft {
    /// Plans a transform of size `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n > 0,
            "FFT size must be a power of two, got {n}"
        );
        let stages = n.trailing_zeros() as usize;

        let mut bitrev = vec![0u32; n];
        for (i, slot) in bitrev.iter_mut().enumerate() {
            *slot = (i as u32).reverse_bits() >> (32 - stages.max(1) as u32);
        }
        if n == 1 {
            bitrev[0] = 0;
        }

        let mut twiddles_fwd = Vec::with_capacity(n - 1);
        let mut twiddles_inv = Vec::with_capacity(n - 1);
        for s in 0..stages {
            let m = 1usize << s; // half the butterfly span at this stage
            for k in 0..m {
                let theta = std::f64::consts::PI * k as f64 / m as f64;
                twiddles_fwd.push(Complex64::cis(-theta));
                twiddles_inv.push(Complex64::cis(theta));
            }
        }

        Self {
            n,
            twiddles_fwd,
            twiddles_inv,
            bitrev,
        }
    }

    /// The planned transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the planned size is zero. [`Fft::new`] rejects `n == 0`,
    /// so this is always `false` for a constructed plan; it exists (honestly
    /// computed, not hardcoded) because clippy expects `is_empty` alongside
    /// `len`.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The bit-reversal permutation: input sample `j` of a transform sits
    /// at `buf[bitrev()[j]]` when the butterflies start. The permutation
    /// is its own inverse.
    pub fn bitrev(&self) -> &[u32] {
        &self.bitrev
    }

    fn check_len(&self, buf: &[Complex64]) {
        assert_eq!(
            buf.len(),
            self.n,
            "buffer length {} does not match planned FFT size {}",
            buf.len(),
            self.n
        );
    }

    /// The radix-2 butterflies over a buffer in bit-reversed order, stage
    /// by stage with `twiddles` (one direction's flat table). The stages
    /// of one, two and four butterflies per block run with a fixed block
    /// size, which the compiler unrolls; larger stages share one loop.
    fn butterflies(&self, buf: &mut [Complex64], twiddles: &[Complex64]) {
        let mut m = 1;
        while m < self.n {
            let tw = &twiddles[m - 1..2 * m - 1];
            match m {
                1 => stage(buf, 1, tw),
                2 => stage(buf, 2, tw),
                4 => stage(buf, 4, tw),
                _ => stage(buf, m, tw),
            }
            m <<= 1;
        }
    }

    /// Permutes `buf` into bit-reversed order in place.
    fn permute(&self, buf: &mut [Complex64]) {
        for (i, &j) in self.bitrev.iter().enumerate() {
            let j = j as usize;
            if j > i {
                buf.swap(i, j);
            }
        }
    }

    /// In-place forward transform (time → frequency, unscaled).
    pub fn forward(&self, buf: &mut [Complex64]) {
        self.check_len(buf);
        self.permute(buf);
        self.butterflies(buf, &self.twiddles_fwd);
    }

    /// [`Fft::forward`] of input the caller already loaded in bit-reversed
    /// order (sample `j` at `buf[self.bitrev()[j]]`): the butterflies
    /// alone, with no permutation prologue.
    pub fn forward_bit_reversed(&self, buf: &mut [Complex64]) {
        self.check_len(buf);
        self.butterflies(buf, &self.twiddles_fwd);
    }

    /// In-place inverse transform (frequency → time, scaled by `1/N`).
    pub fn inverse(&self, buf: &mut [Complex64]) {
        self.check_len(buf);
        self.permute(buf);
        self.butterflies(buf, &self.twiddles_inv);
        let inv_n = 1.0 / self.n as f64;
        for x in buf.iter_mut() {
            *x = x.scale(inv_n);
        }
    }
}

/// One butterfly stage over a buffer in bit-reversed order: each block of
/// `2m` samples joins `lo[k]` and `hi[k]·tw[k]` for `k < m`. Always
/// inlined, so a call with a literal `m` runs a fixed-size block.
#[inline(always)]
fn stage(buf: &mut [Complex64], m: usize, tw: &[Complex64]) {
    for block in buf.chunks_exact_mut(2 * m) {
        let (lo, hi) = block.split_at_mut(m);
        for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
            let x = *a;
            let y = *b * w;
            *a = x + y;
            *b = x - y;
        }
    }
}

/// Runs `f` with a cached plan of size `n`, planning (and memoizing, per
/// thread) on first use. One-shot callers hit the planner exactly once per
/// (thread, size) instead of rebuilding twiddle tables on every call.
fn with_cached_plan<R>(n: usize, f: impl FnOnce(&Fft) -> R) -> R {
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    thread_local! {
        static PLANS: RefCell<BTreeMap<usize, Fft>> = const { RefCell::new(BTreeMap::new()) };
    }
    PLANS.with(|plans| {
        let mut plans = plans.borrow_mut();
        let plan = plans.entry(n).or_insert_with(|| Fft::new(n));
        f(plan)
    })
}

/// One-shot forward FFT of a slice, returning a new vector.
/// Plans are cached per thread and size; for tight loops that can hold a
/// planner across calls, prefer [`Fft`] directly.
pub fn fft(x: &[Complex64]) -> Vec<Complex64> {
    let mut buf = x.to_vec();
    with_cached_plan(x.len(), |plan| plan.forward(&mut buf));
    buf
}

/// One-shot inverse FFT of a slice, returning a new vector.
/// Plans are cached per thread and size, like [`fft`].
pub fn ifft(x: &[Complex64]) -> Vec<Complex64> {
    let mut buf = x.to_vec();
    with_cached_plan(x.len(), |plan| plan.inverse(&mut buf));
    buf
}

/// Rotates a spectrum so that index 0 (DC) moves to the middle — the
/// classic `fftshift`. For even `n` the negative frequencies come first.
pub fn fftshift(x: &[Complex64]) -> Vec<Complex64> {
    let n = x.len();
    let half = n.div_ceil(2);
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&x[half..]);
    out.extend_from_slice(&x[..half]);
    out
}

/// Inverse of [`fftshift`].
pub fn ifftshift(x: &[Complex64]) -> Vec<Complex64> {
    let n = x.len();
    let half = n / 2;
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&x[half..]);
    out.extend_from_slice(&x[..half]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C64;

    fn naive_dft(x: &[C64], sign: f64) -> Vec<C64> {
        let n = x.len();
        (0..n)
            .map(|k| {
                (0..n)
                    .map(|t| {
                        x[t] * C64::cis(
                            sign * 2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64,
                        )
                    })
                    .sum()
            })
            .collect()
    }

    fn assert_close(a: &[C64], b: &[C64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(x.dist(*y) < tol, "index {i}: {x:?} vs {y:?} (tol {tol})");
        }
    }

    #[test]
    fn matches_naive_dft_various_sizes() {
        for &n in &[1usize, 2, 4, 8, 16, 64, 128] {
            let x: Vec<C64> = (0..n)
                .map(|i| C64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect();
            let got = fft(&x);
            let want = naive_dft(&x, -1.0);
            assert_close(&got, &want, 1e-9 * n as f64);
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let n = 64;
        let x: Vec<C64> = (0..n)
            .map(|i| C64::new((i as f64).sin(), (i as f64 * 2.0).cos()))
            .collect();
        let y = ifft(&fft(&x));
        assert_close(&y, &x, 1e-10);
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let mut x = vec![C64::ZERO; 32];
        x[0] = C64::ONE;
        let y = fft(&x);
        for v in &y {
            assert!(v.dist(C64::ONE) < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let k0 = 5;
        let x: Vec<C64> = (0..n)
            .map(|t| C64::cis(2.0 * std::f64::consts::PI * (k0 * t) as f64 / n as f64))
            .collect();
        let y = fft(&x);
        for (k, v) in y.iter().enumerate() {
            if k == k0 {
                assert!((v.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(v.abs() < 1e-9, "bin {k} leaked {v:?}");
            }
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let n = 128;
        let x: Vec<C64> = (0..n)
            .map(|i| C64::new((i as f64 * 1.3).sin(), (i as f64 * 0.7).sin()))
            .collect();
        let y = fft(&x);
        let et: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let ef: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        assert!((et - ef).abs() < 1e-8);
    }

    #[test]
    fn linearity() {
        let n = 16;
        let a: Vec<C64> = (0..n).map(|i| C64::new(i as f64, -(i as f64))).collect();
        let b: Vec<C64> = (0..n).map(|i| C64::new((i as f64).cos(), 0.5)).collect();
        let sum: Vec<C64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fsum = fft(&sum);
        let want: Vec<C64> = fa.iter().zip(&fb).map(|(&x, &y)| x + y).collect();
        assert_close(&fsum, &want, 1e-10);
    }

    #[test]
    fn shift_roundtrip() {
        let x: Vec<C64> = (0..8).map(|i| C64::from_re(i as f64)).collect();
        assert_eq!(ifftshift(&fftshift(&x)), x);
        // For even n, fftshift puts bin n/2 first.
        assert_eq!(fftshift(&x)[0], C64::from_re(4.0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        Fft::new(48);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn rejects_wrong_buffer_length() {
        let f = Fft::new(8);
        let mut b = vec![C64::ZERO; 4];
        f.forward(&mut b);
    }

    #[test]
    fn forward_bit_reversed_skips_only_the_permutation() {
        let f = Fft::new(64);
        let x: Vec<C64> = (0..64)
            .map(|i| C64::new((i as f64 * 0.3).sin(), -(i as f64)))
            .collect();
        let mut want = x.clone();
        f.forward(&mut want);
        let mut loaded = vec![C64::ZERO; 64];
        for (j, &slot) in f.bitrev().iter().enumerate() {
            loaded[slot as usize] = x[j];
        }
        f.forward_bit_reversed(&mut loaded);
        assert_eq!(loaded, want);
    }

    #[test]
    fn planner_is_reusable() {
        let f = Fft::new(64);
        let x: Vec<C64> = (0..64).map(|i| C64::from_re(i as f64)).collect();
        let mut b1 = x.clone();
        let mut b2 = x.clone();
        f.forward(&mut b1);
        f.forward(&mut b2);
        assert_eq!(b1, b2);
        f.inverse(&mut b1);
        assert_close(&b1, &x, 1e-9);
    }
}
