//! The radix-2 FFT loop `mimonet_dsp::fft::Fft` ran before its flat
//! rewrite, kept verbatim.
//!
//! [`ReferenceFft`] plans one nested twiddle table per stage and
//! direction, permutes its input with the bit-reversal swap prologue and
//! indexes every butterfly operand. `crates/dsp/tests/fft_oracle.rs` and
//! `tests/ofdm_oracle.rs` check the production transform and the OFDM
//! (de)modulator built on it against this loop bit for bit, because
//! `tests/equivalence.rs` cannot: its `ReferenceReceiver` demodulates
//! through the same `Ofdm` as the receiver it checks.
//!
//! Do not "improve" this module; its value is that it does not change.

use mimonet_dsp::complex::Complex64;

/// Transform direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Direction {
    /// Time → frequency, `exp(-i...)`, unscaled.
    Forward,
    /// Frequency → time, `exp(+i...)`, scaled by `1/N`.
    Inverse,
}

/// The pre-rewrite planned FFT: same conventions as
/// `mimonet_dsp::fft::Fft` (forward unscaled, inverse scaled by `1/N`).
#[derive(Clone, Debug)]
pub struct ReferenceFft {
    n: usize,
    // twiddles[s] holds the factors for stage with half-size m = 2^s.
    twiddles_fwd: Vec<Vec<Complex64>>,
    twiddles_inv: Vec<Vec<Complex64>>,
    bitrev: Vec<u32>,
}

impl ReferenceFft {
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

        let mut twiddles_fwd = Vec::with_capacity(stages);
        let mut twiddles_inv = Vec::with_capacity(stages);
        for s in 0..stages {
            let m = 1usize << s; // half the butterfly span at this stage
            let mut tf = Vec::with_capacity(m);
            let mut ti = Vec::with_capacity(m);
            for k in 0..m {
                let theta = std::f64::consts::PI * k as f64 / m as f64;
                tf.push(Complex64::cis(-theta));
                ti.push(Complex64::cis(theta));
            }
            twiddles_fwd.push(tf);
            twiddles_inv.push(ti);
        }

        Self {
            n,
            twiddles_fwd,
            twiddles_inv,
            bitrev,
        }
    }

    /// The in-place transform behind [`ReferenceFft::forward`] and
    /// [`ReferenceFft::inverse`]: bit-reversal permutation, scalar radix-2
    /// butterflies, then the `1/N` scaling for the inverse.
    fn run(&self, buf: &mut [Complex64], dir: Direction) {
        assert_eq!(
            buf.len(),
            self.n,
            "buffer length {} does not match planned FFT size {}",
            buf.len(),
            self.n
        );
        let n = self.n;
        for i in 0..n {
            let j = self.bitrev[i] as usize;
            if j > i {
                buf.swap(i, j);
            }
        }
        if n == 1 {
            return;
        }

        let tables = match dir {
            Direction::Forward => &self.twiddles_fwd,
            Direction::Inverse => &self.twiddles_inv,
        };
        for (s, tw) in tables.iter().enumerate() {
            let m = 1usize << s; // half span
            let span = m << 1;
            let mut base = 0;
            while base < n {
                for k in 0..m {
                    let w = tw[k];
                    let a = buf[base + k];
                    let b = buf[base + k + m] * w;
                    buf[base + k] = a + b;
                    buf[base + k + m] = a - b;
                }
                base += span;
            }
        }

        if dir == Direction::Inverse {
            let inv_n = 1.0 / n as f64;
            for x in buf.iter_mut() {
                *x = x.scale(inv_n);
            }
        }
    }

    /// In-place forward transform (time → frequency, unscaled).
    pub fn forward(&self, buf: &mut [Complex64]) {
        self.run(buf, Direction::Forward);
    }

    /// In-place inverse transform (frequency → time, scaled by `1/N`).
    pub fn inverse(&self, buf: &mut [Complex64]) {
        self.run(buf, Direction::Inverse);
    }
}
