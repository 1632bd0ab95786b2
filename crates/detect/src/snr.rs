//! Fine-grained SNR estimation — the paper's instrumentation for
//! "evaluating the channel conditions".
//!
//! Two estimators with different latencies and assumptions:
//!
//! * [`snr_from_ltf_repetitions`] — **preamble-based**: the two L-LTF
//!   repetitions carry identical signal and independent noise, so the
//!   half-sum estimates signal power and the half-difference estimates
//!   noise power. Available before any data is decoded; one estimate per
//!   frame per antenna.
//! * [`EvmSnrEstimator`] — **decision-directed (EVM)**: accumulates
//!   `|y - decision|^2` against `|decision|^2` over equalized data
//!   symbols. Fine-grained (updates every symbol, usable per subcarrier
//!   region), but biased at very low SNR where decisions are wrong.

use mimonet_dsp::complex::Complex64;
use mimonet_dsp::stats::lin_to_db;
use mimonet_frame::modulation::Modulation;

/// SNR estimate from two noisy repetitions of the same 64-sample signal
/// (time or frequency domain — linearity makes them equivalent).
///
/// Returns the linear SNR estimate; may be tiny or negative-biased at very
/// low SNR (clamped at 0). `None` if the windows are empty or mismatched.
pub fn snr_from_ltf_repetitions(rep1: &[Complex64], rep2: &[Complex64]) -> Option<f64> {
    if rep1.is_empty() || rep1.len() != rep2.len() {
        return None;
    }
    let n = rep1.len() as f64;
    let mut sig = 0.0;
    let mut noise = 0.0;
    for (&a, &b) in rep1.iter().zip(rep2) {
        sig += (a + b).scale(0.5).norm_sqr();
        noise += (a - b).scale(0.5).norm_sqr();
    }
    sig /= n;
    noise /= n;
    // The half-sum still contains noise/2; unbias both.
    let noise_unbiased = noise; // E[|w1-w2|^2]/4 * 2 components = sigma^2/2 each... see below
                                // E[|(a-b)/2|^2] = sigma^2/2 where sigma^2 is per-repetition noise.
    let sigma2 = 2.0 * noise_unbiased;
    let signal = (sig - sigma2 / 2.0).max(0.0);
    if sigma2 <= 0.0 {
        return Some(f64::INFINITY);
    }
    Some(signal / sigma2)
}

/// Multi-antenna preamble SNR: averages per-antenna estimates in the
/// linear domain (total signal over total noise).
pub fn snr_from_ltf_mimo(reps: &[(&[Complex64], &[Complex64])]) -> Option<f64> {
    if reps.is_empty() {
        return None;
    }
    let mut acc = 0.0;
    let mut count = 0usize;
    for (a, b) in reps {
        acc += snr_from_ltf_repetitions(a, b)?;
        count += 1;
    }
    Some(acc / count as f64)
}

/// Decision-directed EVM accumulator.
#[derive(Clone, Debug, Default)]
pub struct EvmSnrEstimator {
    err: f64,
    sig: f64,
    n: u64,
}

impl EvmSnrEstimator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one equalized observation against its known transmitted symbol
    /// (pilot-aided mode).
    #[inline]
    pub fn push_known(&mut self, observed: Complex64, transmitted: Complex64) {
        self.err += observed.dist_sqr(transmitted);
        self.sig += transmitted.norm_sqr();
        self.n += 1;
    }

    /// Adds one equalized observation, slicing it to the nearest
    /// constellation point (decision-directed mode).
    #[inline]
    pub fn push_decided(&mut self, observed: Complex64, modulation: Modulation) {
        self.push_known(observed, modulation.decide(observed));
    }

    /// Number of accumulated observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Error vector magnitude, RMS, normalized to RMS signal amplitude
    /// (the conventional EVM definition). `None` when empty.
    pub fn evm(&self) -> Option<f64> {
        if self.n == 0 || self.sig <= 0.0 {
            return None;
        }
        Some((self.err / self.sig).sqrt())
    }

    /// SNR estimate in linear units: `1 / EVM^2`.
    pub fn snr(&self) -> Option<f64> {
        let evm = self.evm()?;
        if evm <= 0.0 {
            return Some(f64::INFINITY);
        }
        Some(1.0 / (evm * evm))
    }

    /// SNR estimate in dB.
    pub fn snr_db(&self) -> Option<f64> {
        self.snr().map(lin_to_db)
    }

    /// Clears the accumulator.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimonet_channel::noise::crandn;
    use mimonet_dsp::complex::C64;
    use mimonet_dsp::stats::db_to_lin;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn reps_at_snr(rng: &mut ChaCha8Rng, snr_db: f64, n: usize) -> (Vec<C64>, Vec<C64>) {
        let sigma2 = db_to_lin(-snr_db);
        let clean: Vec<C64> = (0..n).map(|_| crandn(rng)).collect();
        let r1 = clean
            .iter()
            .map(|&c| c + crandn(rng).scale(sigma2.sqrt()))
            .collect();
        let r2 = clean
            .iter()
            .map(|&c| c + crandn(rng).scale(sigma2.sqrt()))
            .collect();
        (r1, r2)
    }

    #[test]
    fn preamble_estimator_tracks_truth() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for snr_db in [0.0, 5.0, 10.0, 20.0, 30.0] {
            // Average 100 frames of 64-sample LTFs.
            let mut acc = 0.0;
            let frames = 100;
            for _ in 0..frames {
                let (r1, r2) = reps_at_snr(&mut rng, snr_db, 64);
                acc += snr_from_ltf_repetitions(&r1, &r2).unwrap();
            }
            let est_db = lin_to_db(acc / frames as f64);
            assert!(
                (est_db - snr_db).abs() < 1.0,
                "target {snr_db} dB, estimated {est_db} dB"
            );
        }
    }

    #[test]
    fn preamble_estimator_identical_reps_is_infinite() {
        let r: Vec<C64> = (0..64).map(|i| C64::cis(i as f64)).collect();
        assert_eq!(snr_from_ltf_repetitions(&r, &r), Some(f64::INFINITY));
    }

    #[test]
    fn preamble_estimator_degenerate_inputs() {
        assert_eq!(snr_from_ltf_repetitions(&[], &[]), None);
        let a = vec![C64::ONE; 4];
        let b = vec![C64::ONE; 5];
        assert_eq!(snr_from_ltf_repetitions(&a, &b), None);
    }

    #[test]
    fn mimo_preamble_average() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let (a1, a2) = reps_at_snr(&mut rng, 10.0, 64);
        let (b1, b2) = reps_at_snr(&mut rng, 10.0, 64);
        let joint = snr_from_ltf_mimo(&[(&a1, &a2), (&b1, &b2)]).unwrap();
        let s1 = snr_from_ltf_repetitions(&a1, &a2).unwrap();
        let s2 = snr_from_ltf_repetitions(&b1, &b2).unwrap();
        assert!((joint - (s1 + s2) / 2.0).abs() < 1e-12);
        assert_eq!(snr_from_ltf_mimo(&[]), None);
    }

    #[test]
    fn evm_known_symbols_exact() {
        let mut est = EvmSnrEstimator::new();
        // Error power = 0.01 against unit symbols → SNR 20 dB, EVM 10%.
        for i in 0..1000 {
            let tx = C64::cis(i as f64);
            let rx = tx + C64::from_polar(0.1, i as f64 * 2.7);
            est.push_known(rx, tx);
        }
        assert!((est.evm().unwrap() - 0.1).abs() < 1e-12);
        assert!((est.snr_db().unwrap() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn evm_decision_directed_matches_at_high_snr() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let m = Modulation::Qam16;
        let snr_db = 25.0;
        let sigma2 = db_to_lin(-snr_db);
        let mut est = EvmSnrEstimator::new();
        for _ in 0..20_000 {
            let bits: Vec<u8> = (0..4).map(|_| rng.gen_range(0..2u8)).collect();
            let tx = m.map_bits(&bits);
            let rx = tx + crandn(&mut rng).scale(sigma2.sqrt());
            est.push_decided(rx, m);
        }
        let got = est.snr_db().unwrap();
        assert!((got - snr_db).abs() < 0.7, "got {got} dB");
    }

    #[test]
    fn evm_decision_directed_biased_at_low_snr() {
        // With frequent decision errors, the estimator reports *higher*
        // SNR than the truth (errors snap to the nearest point). Document
        // the bias direction.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let m = Modulation::Qam16;
        let snr_db = 5.0;
        let sigma2 = db_to_lin(-snr_db);
        let mut est = EvmSnrEstimator::new();
        for _ in 0..20_000 {
            let bits: Vec<u8> = (0..4).map(|_| rng.gen_range(0..2u8)).collect();
            let tx = m.map_bits(&bits);
            let rx = tx + crandn(&mut rng).scale(sigma2.sqrt());
            est.push_decided(rx, m);
        }
        let got = est.snr_db().unwrap();
        assert!(got > snr_db + 1.0, "expected optimistic bias, got {got} dB");
    }

    #[test]
    fn evm_empty_and_reset() {
        let mut est = EvmSnrEstimator::new();
        assert_eq!(est.evm(), None);
        assert_eq!(est.snr_db(), None);
        est.push_known(C64::ONE, C64::ONE);
        assert_eq!(est.count(), 1);
        est.reset();
        assert_eq!(est.count(), 0);
        assert_eq!(est.snr(), None);
    }
}
