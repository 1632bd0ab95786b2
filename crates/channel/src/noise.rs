//! Gaussian noise generation and SNR bookkeeping.
//!
//! Implemented with a Box–Muller transform over `rand`'s uniform source so
//! the workspace needs no external distribution crate. All SNRs in MIMONet
//! are defined as **total received signal power / noise power per receive
//! antenna**, with unit-power transmit normalization (see DESIGN.md).
//!
//! [`randn`] and [`crandn`] draw one Gaussian or one complex sample at a
//! time. [`add_awgn`] gives every sample the bits of
//! `*x += crandn(rng).scale(sigma)`, but works on blocks of 256
//! samples: one `fill_bytes` draws a block's uniforms, `sqrt` runs over
//! the whole block, and the `cos` calls go in an order grouped by
//! argument range, which keeps glibc's range-reduction branches
//! predictable. Each Gaussian still takes the same libm calls on the same
//! arguments, combined by the same operations in the same order. A block
//! in which `randn` would reject a uniform goes through `crandn` itself.

use mimonet_dsp::complex::Complex64;
use rand::{Rng, RngCore};
use std::f64::consts::{FRAC_1_SQRT_2, PI};

/// Samples per [`add_awgn`] block. 256 samples are 1,024 words (8 KiB) of
/// keystream and 512 Gaussians, whose `cos` calls then run about 32 to a
/// range class.
const BLOCK: usize = 256;
/// Gaussians per block: two per complex sample.
const GAUSS: usize = 2 * BLOCK;
/// `cos` argument classes: the top bits of each `u2` word.
const CLASS_BITS: u32 = 4;

/// Draws a standard normal (mean 0, variance 1) real sample.
pub fn randn<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Box–Muller; reject u1 == 0 to keep ln finite.
    loop {
        let u1: f64 = rng.gen();
        if u1 > f64::MIN_POSITIVE {
            let u2: f64 = rng.gen();
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

/// Draws a circularly-symmetric complex Gaussian with **unit total
/// variance** (each component has variance 1/2).
pub fn crandn<R: Rng + ?Sized>(rng: &mut R) -> Complex64 {
    let s = std::f64::consts::FRAC_1_SQRT_2;
    Complex64::new(randn(rng) * s, randn(rng) * s)
}

/// Adds complex AWGN of total variance `noise_power` to `signal` in place.
///
/// Every sample gets exactly what `*x += crandn(rng).scale(sigma)` would
/// add, and the generator ends where that loop leaves it; the work runs
/// in blocks of 256 samples (module docs).
pub fn add_awgn<R: Rng + ?Sized>(rng: &mut R, signal: &mut [Complex64], noise_power: f64) {
    assert!(noise_power >= 0.0, "noise power must be non-negative");
    if noise_power == 0.0 {
        return;
    }
    let sigma = noise_power.sqrt();
    // Per block, Gaussian `2i` goes to the real part of sample `i` and
    // `2i + 1` to its imaginary part. Each has two keystream words (`u1`,
    // `u2`, as little-endian bytes), a radius (`-2 ln u1`, then its square
    // root), a phase (`2π u2`, then its cosine) and a `cos` argument
    // class; `order` lists the Gaussians grouped by class.
    let mut words = [0u8; 8 * 2 * GAUSS];
    let mut radius = [0.0; GAUSS];
    let mut phase = [0.0; GAUSS];
    let mut class = [0u8; GAUSS];
    let mut order = [0u16; GAUSS];
    'blocks: for block in signal.chunks_mut(BLOCK) {
        let n = 2 * block.len();
        let words = &mut words[..8 * 2 * n];
        rng.fill_bytes(words);
        let mut src = BlockWords {
            words: words.chunks_exact(8),
            rng,
        };
        for g in 0..n {
            let u1: f64 = src.gen();
            // `randn` accepts only `u1 > f64::MIN_POSITIVE` (a uniform is
            // never NaN). A rejected `u1` shifts the pairing of every
            // later word, so the block takes the scalar path. Each sample
            // draws at least its four words, so that path reads all of
            // the block's words before the generator's.
            if u1 <= f64::MIN_POSITIVE {
                let mut src = BlockWords {
                    words: words.chunks_exact(8),
                    rng,
                };
                for x in block.iter_mut() {
                    *x += crandn(&mut src).scale(sigma);
                }
                continue 'blocks;
            }
            let u2: f64 = src.gen();
            radius[g] = -2.0 * u1.ln();
            phase[g] = 2.0 * PI * u2;
            // `u2 · 2^k` is exact, so this is the top `k` bits of its word.
            class[g] = (u2 * (1 << CLASS_BITS) as f64) as u8;
        }
        for r in &mut radius[..n] {
            *r = r.sqrt();
        }
        // A counting sort of the indices by class; each `cos` is stored
        // back at its Gaussian's index.
        let mut start = [0u16; (1 << CLASS_BITS) + 1];
        for &c in &class[..n] {
            start[c as usize + 1] += 1;
        }
        for c in 1..start.len() {
            start[c] += start[c - 1];
        }
        for (g, &c) in class[..n].iter().enumerate() {
            order[start[c as usize] as usize] = g as u16;
            start[c as usize] += 1;
        }
        for &g in &order[..n] {
            let g = g as usize;
            phase[g] = phase[g].cos();
        }
        let gauss = radius.chunks_exact(2).zip(phase.chunks_exact(2));
        for (x, (r, c)) in block.iter_mut().zip(gauss) {
            let re = (r[0] * c[0]) * FRAC_1_SQRT_2;
            let im = (r[1] * c[1]) * FRAC_1_SQRT_2;
            *x += Complex64::new(re, im).scale(sigma);
        }
    }
}

/// A block's words, then the generator's. The block draws its uniforms
/// through it with `Rng::gen`, as `randn` does, and a block that falls
/// back to [`crandn`] reads them again in the scalar draw order.
struct BlockWords<'a, R: ?Sized> {
    words: std::slice::ChunksExact<'a, u8>,
    rng: &'a mut R,
}

impl<R: RngCore + ?Sized> RngCore for BlockWords<'_, R> {
    /// Not a split word: `randn` draws only `next_u64`.
    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }

    fn next_u64(&mut self) -> u64 {
        match self.words.next() {
            Some(w) => u64::from_le_bytes(w.try_into().expect("8-byte chunks")),
            None => self.rng.next_u64(),
        }
    }
}

/// Noise power per receive antenna for a given SNR in dB, assuming unit
/// total received signal power.
pub fn noise_power_for_snr_db(snr_db: f64) -> f64 {
    mimonet_dsp::stats::db_to_lin(-snr_db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimonet_dsp::complex::mean_power;
    use mimonet_dsp::stats::Running;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The block form's oracle: one `crandn` per sample, as `add_awgn`
    /// was written before it worked in blocks.
    fn add_awgn_per_sample<R: Rng + ?Sized>(
        rng: &mut R,
        signal: &mut [Complex64],
        noise_power: f64,
    ) {
        let sigma = noise_power.sqrt();
        for x in signal.iter_mut() {
            *x += crandn(rng).scale(sigma);
        }
    }

    /// Each sample's bits, with every NaN folded to one value as
    /// tests/burst_pin.rs does.
    fn bits(xs: &[Complex64]) -> Vec<[u64; 2]> {
        let fold = |x: f64| {
            if x.is_nan() {
                0x7ff8_0000_0000_0000
            } else {
                x.to_bits()
            }
        };
        xs.iter().map(|x| [fold(x.re), fold(x.im)]).collect()
    }

    /// `n` samples cycling through −0.0, subnormals, ±∞, NaN and
    /// ordinary values on both parts.
    fn awkward_signal(n: usize) -> Vec<Complex64> {
        let parts = [
            -0.0,
            0.0,
            f64::from_bits(1),
            -2.2e-310,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1.0,
            -0.37,
            1e300,
            f64::MIN_POSITIVE,
        ];
        (0..n)
            .map(|i| Complex64::new(parts[i % parts.len()], parts[(3 * i + 1) % parts.len()]))
            .collect()
    }

    /// Runs `add_awgn` and the per-sample oracle from clones of `rng` and
    /// asserts the same bits and the same next word.
    fn assert_matches_per_sample<R: RngCore + Clone>(
        rng: &R,
        n: usize,
        noise_power: f64,
        case: &str,
    ) {
        let signal = awkward_signal(n);
        let (mut block_rng, mut scalar_rng) = (rng.clone(), rng.clone());
        let mut got = signal.clone();
        add_awgn(&mut block_rng, &mut got, noise_power);
        let mut want = signal;
        add_awgn_per_sample(&mut scalar_rng, &mut want, noise_power);
        assert!(bits(&got) == bits(&want), "{case}: samples differ");
        assert_eq!(
            block_rng.next_u64(),
            scalar_rng.next_u64(),
            "{case}: next word"
        );
    }

    #[test]
    fn block_awgn_matches_one_crandn_per_sample() {
        for n in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2_960, 4_160] {
            for odd_word in [false, true] {
                for noise_power in [1.0, noise_power_for_snr_db(34.0)] {
                    let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
                    if odd_word {
                        rng.next_u32();
                    }
                    let case = format!("{n} samples, odd word {odd_word}, power {noise_power}");
                    assert_matches_per_sample(&rng, n, noise_power, &case);
                }
            }
        }
    }

    /// ChaCha8 words with some replaced, by their index in the stream
    /// of `u64` words.
    #[derive(Clone)]
    struct Scripted {
        rng: ChaCha8Rng,
        drawn: usize,
        script: Vec<(usize, u64)>,
    }

    impl RngCore for Scripted {
        /// The low half of a whole word: this source counts `u64`s.
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }

        fn next_u64(&mut self) -> u64 {
            let word = self.rng.next_u64();
            self.drawn += 1;
            let at = self.drawn - 1;
            self.script
                .iter()
                .find(|&&(i, _)| i == at)
                .map_or(word, |&(_, w)| w)
        }
    }

    #[test]
    fn a_rejected_uniform_keeps_the_scalar_draw_order() {
        // Gaussian g of block b draws u1 at word 4·BLOCK·b + 2g, as long
        // as no earlier word was rejected; a word below 2^11 makes u1 zero.
        let u1 = |block: usize, g: usize| 4 * BLOCK * block + 2 * g;
        let last = 2 * BLOCK - 1;
        let scripts: [(&str, Vec<(usize, u64)>); 7] = [
            ("first Gaussian", vec![(u1(0, 0), 0)]),
            ("middle Gaussian", vec![(u1(1, BLOCK), 0x7ff)]),
            ("last Gaussian", vec![(u1(2, last), 1)]),
            ("last Gaussian of the short block", vec![(u1(3, 33), 0)]),
            ("twice in a row", vec![(u1(1, 7), 0), (u1(1, 7) + 1, 0x400)]),
            ("a small u2 only", vec![(u1(0, 5) + 1, 0)]),
            (
                "in three blocks",
                vec![(u1(0, 0), 0), (u1(1, BLOCK) + 1, 3), (u1(2, last) + 2, 0)],
            ),
        ];
        for (case, script) in scripts {
            for noise_power in [1.0, noise_power_for_snr_db(20.0)] {
                let rng = Scripted {
                    rng: ChaCha8Rng::seed_from_u64(31),
                    drawn: 0,
                    script: script.clone(),
                };
                assert_matches_per_sample(&rng, 3 * BLOCK + 17, noise_power, case);
            }
        }
    }

    #[test]
    fn randn_moments() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut r = Running::new();
        for _ in 0..200_000 {
            r.push(randn(&mut rng));
        }
        assert!(r.mean().abs() < 0.01, "mean {}", r.mean());
        assert!((r.variance() - 1.0).abs() < 0.02, "var {}", r.variance());
    }

    #[test]
    fn crandn_is_circular_unit_power() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let xs: Vec<_> = (0..100_000).map(|_| crandn(&mut rng)).collect();
        let p = mean_power(&xs);
        assert!((p - 1.0).abs() < 0.02, "power {p}");
        // Components uncorrelated: E[re*im] ≈ 0.
        let cross: f64 = xs.iter().map(|z| z.re * z.im).sum::<f64>() / xs.len() as f64;
        assert!(cross.abs() < 0.01);
        // Rotation invariance of the mean phasor.
        let m: Complex64 = xs
            .iter()
            .copied()
            .sum::<Complex64>()
            .scale(1.0 / xs.len() as f64);
        assert!(m.abs() < 0.02);
    }

    #[test]
    fn awgn_hits_requested_snr() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for snr_db in [0.0, 10.0, 20.0] {
            let clean = vec![Complex64::ONE; 50_000];
            let mut noisy = clean.clone();
            add_awgn(&mut rng, &mut noisy, noise_power_for_snr_db(snr_db));
            let noise: Vec<Complex64> = noisy.iter().zip(&clean).map(|(a, b)| *a - *b).collect();
            let measured = mimonet_dsp::stats::lin_to_db(mean_power(&clean) / mean_power(&noise));
            assert!(
                (measured - snr_db).abs() < 0.3,
                "target {snr_db} dB, measured {measured} dB"
            );
        }
    }

    #[test]
    fn zero_noise_is_identity() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut x = vec![Complex64::new(1.0, -2.0); 8];
        let orig = x.clone();
        add_awgn(&mut rng, &mut x, 0.0);
        assert_eq!(x, orig);
    }

    #[test]
    fn seeded_noise_is_reproducible() {
        let gen = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut x = vec![Complex64::ZERO; 16];
            add_awgn(&mut rng, &mut x, 1.0);
            x
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8));
    }
}
