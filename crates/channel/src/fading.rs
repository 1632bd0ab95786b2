//! MIMO fading channel models.
//!
//! Three models of increasing realism, all block-fading (constant over one
//! frame, redrawn per frame — appropriate for indoor 802.11 where coherence
//! time spans many frames):
//!
//! * [`MimoChannelMatrix::identity`] — ideal wires, for calibration;
//! * [`MimoChannelMatrix::rayleigh_flat`] — i.i.d. flat Rayleigh entries,
//!   the canonical spatial-multiplexing analysis channel;
//! * [`TappedDelayLine`] — frequency-selective Rayleigh with an exponential
//!   power-delay profile parameterized like the IEEE TGn indoor models
//!   (see [`crate::tgn`]).

use crate::noise::crandn;
use mimonet_dsp::complex::Complex64;
use mimonet_dsp::filter::convolve;
use rand::Rng;

/// A flat (single-tap) MIMO channel matrix `H`, `n_rx × n_tx`.
#[derive(Clone, Debug, PartialEq)]
pub struct MimoChannelMatrix {
    n_rx: usize,
    n_tx: usize,
    h: Vec<Complex64>, // row-major [rx][tx]
}

impl MimoChannelMatrix {
    /// Builds from a row-major coefficient vector.
    ///
    /// # Panics
    ///
    /// Panics if `h.len() != n_rx * n_tx` or either dimension is zero.
    pub fn new(n_rx: usize, n_tx: usize, h: Vec<Complex64>) -> Self {
        assert!(n_rx > 0 && n_tx > 0, "channel dimensions must be nonzero");
        assert_eq!(h.len(), n_rx * n_tx, "coefficient count mismatch");
        Self { n_rx, n_tx, h }
    }

    /// The identity channel (requires `n_rx == n_tx`).
    pub fn identity(n: usize) -> Self {
        let mut h = vec![Complex64::ZERO; n * n];
        for i in 0..n {
            h[i * n + i] = Complex64::ONE;
        }
        Self::new(n, n, h)
    }

    /// Draws an i.i.d. flat Rayleigh matrix: each entry CN(0, 1), so the
    /// average received power per RX antenna equals the total transmitted
    /// power (unit with our TX normalization).
    pub fn rayleigh_flat<R: Rng + ?Sized>(rng: &mut R, n_rx: usize, n_tx: usize) -> Self {
        let h = (0..n_rx * n_tx).map(|_| crandn(rng)).collect();
        Self::new(n_rx, n_tx, h)
    }

    /// Receive antenna count.
    pub fn n_rx(&self) -> usize {
        self.n_rx
    }

    /// Transmit antenna count.
    pub fn n_tx(&self) -> usize {
        self.n_tx
    }

    /// Coefficient `h[rx][tx]`.
    pub fn at(&self, rx: usize, tx: usize) -> Complex64 {
        self.h[rx * self.n_tx + tx]
    }

    /// Applies the channel to per-antenna transmit streams (all the same
    /// length), producing per-RX-antenna streams: `y_r = sum_t h[r][t] x_t`.
    ///
    /// # Panics
    ///
    /// Panics if `tx.len() != n_tx` or stream lengths differ.
    pub fn apply(&self, tx: &[Vec<Complex64>]) -> Vec<Vec<Complex64>> {
        let mut rx = vec![Vec::new(); self.n_rx];
        self.apply_into(tx, &mut rx);
        rx
    }

    /// [`Self::apply`] into caller-owned buffers, one per RX antenna,
    /// each overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `tx.len() != n_tx`, `rx.len() != n_rx` or stream lengths
    /// differ.
    pub fn apply_into(&self, tx: &[Vec<Complex64>], rx: &mut [Vec<Complex64>]) {
        assert_eq!(tx.len(), self.n_tx, "expected {} TX streams", self.n_tx);
        assert_eq!(rx.len(), self.n_rx, "expected {} RX buffers", self.n_rx);
        let len = tx.first().map_or(0, |s| s.len());
        assert!(
            tx.iter().all(|s| s.len() == len),
            "TX stream lengths differ"
        );
        for (r, y) in rx.iter_mut().enumerate() {
            y.clear();
            y.resize(len, Complex64::ZERO);
            for (t, stream) in tx.iter().enumerate() {
                let h = self.at(r, t);
                for (yi, &xi) in y.iter_mut().zip(stream) {
                    *yi += h * xi;
                }
            }
        }
    }

    /// Frobenius norm squared of H (total channel gain).
    pub fn frobenius_sqr(&self) -> f64 {
        self.h.iter().map(|c| c.norm_sqr()).sum()
    }
}

/// A frequency-selective MIMO channel: an independent FIR impulse response
/// per (rx, tx) antenna pair.
#[derive(Clone, Debug)]
pub struct TappedDelayLine {
    n_rx: usize,
    n_tx: usize,
    /// `taps[rx][tx]` is that pair's impulse response.
    taps: Vec<Vec<Vec<Complex64>>>,
}

impl TappedDelayLine {
    /// Builds from explicit per-pair impulse responses.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent dimensions or empty responses.
    pub fn new(taps: Vec<Vec<Vec<Complex64>>>) -> Self {
        let n_rx = taps.len();
        assert!(n_rx > 0, "need at least one RX row");
        let n_tx = taps[0].len();
        assert!(n_tx > 0, "need at least one TX column");
        for row in &taps {
            assert_eq!(row.len(), n_tx, "ragged tap matrix");
            for ir in row {
                assert!(!ir.is_empty(), "empty impulse response");
            }
        }
        Self { n_rx, n_tx, taps }
    }

    /// Draws i.i.d. Rayleigh taps with the given power-delay profile
    /// (linear power per tap, need not be normalized — it will be scaled to
    /// sum to 1 so the average channel gain per antenna pair is unity).
    pub fn rayleigh<R: Rng + ?Sized>(rng: &mut R, n_rx: usize, n_tx: usize, pdp: &[f64]) -> Self {
        assert!(!pdp.is_empty(), "power-delay profile must be non-empty");
        let total: f64 = pdp.iter().sum();
        assert!(total > 0.0, "power-delay profile must have positive power");
        let taps = (0..n_rx)
            .map(|_| {
                (0..n_tx)
                    .map(|_| {
                        pdp.iter()
                            .map(|&p| crandn(rng).scale((p / total).sqrt()))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Self::new(taps)
    }

    /// Receive antenna count.
    pub fn n_rx(&self) -> usize {
        self.n_rx
    }

    /// Transmit antenna count.
    pub fn n_tx(&self) -> usize {
        self.n_tx
    }

    /// Impulse response for an antenna pair.
    pub fn impulse_response(&self, rx: usize, tx: usize) -> &[Complex64] {
        &self.taps[rx][tx]
    }

    /// Longest impulse response across pairs (delay spread in samples).
    pub fn max_delay(&self) -> usize {
        self.taps
            .iter()
            .flat_map(|row| row.iter().map(|ir| ir.len()))
            .max()
            .unwrap_or(0)
    }

    /// Applies the channel: per-RX sums of per-pair convolutions. Output
    /// streams are `len + max_delay - 1` samples (the tail rings out).
    pub fn apply(&self, tx: &[Vec<Complex64>]) -> Vec<Vec<Complex64>> {
        assert_eq!(tx.len(), self.n_tx, "expected {} TX streams", self.n_tx);
        let len = tx.first().map_or(0, |s| s.len());
        assert!(
            tx.iter().all(|s| s.len() == len),
            "TX stream lengths differ"
        );
        let out_len = len + self.max_delay() - 1;
        (0..self.n_rx)
            .map(|r| {
                let mut y = vec![Complex64::ZERO; out_len];
                for (t, stream) in tx.iter().enumerate() {
                    let conv = convolve(stream, &self.taps[r][t]);
                    for (yi, ci) in y.iter_mut().zip(conv) {
                        *yi += ci;
                    }
                }
                y
            })
            .collect()
    }

    /// Frequency response of pair `(rx, tx)` at logical subcarrier `k` of an
    /// `n_fft`-point OFDM system.
    pub fn freq_response(&self, rx: usize, tx: usize, k: i32, n_fft: usize) -> Complex64 {
        self.taps[rx][tx]
            .iter()
            .enumerate()
            .map(|(d, &h)| {
                h * Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 * d as f64 / n_fft as f64)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimonet_dsp::complex::C64;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn identity_passes_streams_through() {
        let ch = MimoChannelMatrix::identity(2);
        let tx = vec![
            vec![C64::new(1.0, 2.0), C64::new(3.0, -1.0)],
            vec![C64::new(-1.0, 0.0), C64::new(0.0, 1.0)],
        ];
        let rx = ch.apply(&tx);
        assert_eq!(rx, tx);
    }

    #[test]
    fn flat_channel_mixes_streams() {
        let h = vec![
            C64::new(1.0, 0.0),
            C64::new(0.0, 1.0), // rx0 = x0 + j*x1
            C64::new(2.0, 0.0),
            C64::new(0.0, 0.0), // rx1 = 2*x0
        ];
        let ch = MimoChannelMatrix::new(2, 2, h);
        let tx = vec![vec![C64::ONE], vec![C64::ONE]];
        let rx = ch.apply(&tx);
        assert!(rx[0][0].dist(C64::new(1.0, 1.0)) < 1e-12);
        assert!(rx[1][0].dist(C64::new(2.0, 0.0)) < 1e-12);
    }

    #[test]
    fn rayleigh_flat_statistics() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut gain = 0.0;
        let trials = 5000;
        for _ in 0..trials {
            let ch = MimoChannelMatrix::rayleigh_flat(&mut rng, 2, 2);
            gain += ch.frobenius_sqr();
        }
        // E[|h|^2] = 1 per entry → E[frobenius] = 4.
        let avg = gain / trials as f64;
        assert!((avg - 4.0).abs() < 0.15, "avg Frobenius {avg}");
    }

    #[test]
    fn rayleigh_phase_is_uniformish() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let mut quadrants = [0usize; 4];
        for _ in 0..4000 {
            let ch = MimoChannelMatrix::rayleigh_flat(&mut rng, 1, 1);
            let a = ch.at(0, 0).arg();
            let q = ((a + std::f64::consts::PI) / (std::f64::consts::PI / 2.0)) as usize;
            quadrants[q.min(3)] += 1;
        }
        for &q in &quadrants {
            assert!((800..1200).contains(&q), "quadrants {quadrants:?}");
        }
    }

    #[test]
    fn tdl_single_tap_equals_flat() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let tdl = TappedDelayLine::rayleigh(&mut rng, 2, 2, &[1.0]);
        let tx = vec![
            (0..10).map(|i| C64::cis(i as f64)).collect::<Vec<_>>(),
            (0..10)
                .map(|i| C64::cis(-0.5 * i as f64))
                .collect::<Vec<_>>(),
        ];
        let rx = tdl.apply(&tx);
        assert_eq!(rx[0].len(), 10); // no tail for single tap
        let flat = MimoChannelMatrix::new(
            2,
            2,
            vec![
                tdl.impulse_response(0, 0)[0],
                tdl.impulse_response(0, 1)[0],
                tdl.impulse_response(1, 0)[0],
                tdl.impulse_response(1, 1)[0],
            ],
        );
        let rx2 = flat.apply(&tx);
        for (a, b) in rx[0].iter().zip(&rx2[0]) {
            assert!(a.dist(*b) < 1e-12);
        }
    }

    #[test]
    fn tdl_delays_extend_output() {
        let taps = vec![vec![vec![C64::ZERO, C64::ZERO, C64::ONE]]]; // pure 2-sample delay
        let tdl = TappedDelayLine::new(taps);
        let tx = vec![vec![C64::ONE, C64::new(2.0, 0.0)]];
        let rx = tdl.apply(&tx);
        assert_eq!(rx[0].len(), 4);
        assert!(rx[0][0].abs() < 1e-12);
        assert!(rx[0][1].abs() < 1e-12);
        assert!(rx[0][2].dist(C64::ONE) < 1e-12);
        assert!(rx[0][3].dist(C64::new(2.0, 0.0)) < 1e-12);
    }

    #[test]
    fn tdl_pdp_normalization() {
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let mut gain = 0.0;
        let trials = 4000;
        for _ in 0..trials {
            let tdl = TappedDelayLine::rayleigh(&mut rng, 1, 1, &[4.0, 2.0, 1.0]);
            gain += tdl
                .impulse_response(0, 0)
                .iter()
                .map(|h| h.norm_sqr())
                .sum::<f64>();
        }
        let avg = gain / trials as f64;
        assert!((avg - 1.0).abs() < 0.05, "avg gain {avg}");
    }

    #[test]
    fn freq_response_matches_tone_through_channel() {
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let tdl = TappedDelayLine::rayleigh(&mut rng, 1, 1, &[1.0, 0.5, 0.25]);
        let n = 64;
        let k = 7i32;
        let tone: Vec<C64> = (0..4 * n)
            .map(|t| C64::cis(2.0 * std::f64::consts::PI * k as f64 * t as f64 / n as f64))
            .collect();
        let rx = tdl.apply(std::slice::from_ref(&tone));
        // In steady state, rx = H(k) * tone.
        let h = tdl.freq_response(0, 0, k, n);
        for t in 10..100 {
            assert!(rx[0][t].dist(h * tone[t]) < 1e-9, "t={t}");
        }
    }

    #[test]
    #[should_panic(expected = "TX stream lengths differ")]
    fn ragged_streams_rejected() {
        let ch = MimoChannelMatrix::identity(2);
        ch.apply(&[vec![C64::ONE], vec![C64::ONE, C64::ONE]]);
    }

    #[test]
    #[should_panic(expected = "coefficient count")]
    fn wrong_coefficient_count_rejected() {
        MimoChannelMatrix::new(2, 2, vec![C64::ONE; 3]);
    }
}
