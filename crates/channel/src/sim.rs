//! Composable end-to-end channel simulator — the workspace's stand-in for
//! the paper's USRP front ends and over-the-air propagation.
//!
//! [`ChannelSim`] applies, in physical order: MIMO fading → timing offset →
//! sampling-frequency offset → carrier frequency offset → IQ imbalance →
//! DC offset → AWGN → ADC quantization. Every knob defaults to "ideal", so
//! experiments enable exactly the impairments they study. The simulator is
//! seeded and returns the ground truth ([`ChannelTruth`]) for estimator-
//! accuracy experiments.

use crate::doppler::TimeVaryingChannel;
use crate::fading::{MimoChannelMatrix, TappedDelayLine};
use crate::impairments::{
    apply_cfo, apply_dc_offset, apply_iq_imbalance, apply_sfo, apply_timing_offset, quantize,
};
use crate::noise::{add_awgn, noise_power_for_snr_db};
use crate::tgn::TgnModel;
use mimonet_dsp::complex::Complex64;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Fading model selection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fading {
    /// Ideal identity channel (n_rx must equal n_tx).
    Ideal,
    /// Block flat Rayleigh, i.i.d. entries.
    RayleighFlat,
    /// Frequency-selective TGn-style model.
    Tgn(TgnModel),
    /// Time-varying flat Rayleigh (Jakes) with the given maximum Doppler
    /// in cycles/sample — the channel ages *within* the frame.
    Jakes {
        /// Maximum Doppler frequency, normalized to the sample rate.
        fd_norm: f64,
    },
}

/// Complete channel configuration. Start from `ChannelConfig::clean(...)`
/// and set fields.
#[derive(Clone, Debug)]
pub struct ChannelConfig {
    /// Transmit antennas.
    pub n_tx: usize,
    /// Receive antennas.
    pub n_rx: usize,
    /// SNR in dB (signal power is the *total* received signal power per RX
    /// antenna under unit-total-power transmission).
    pub snr_db: f64,
    /// Fading model.
    pub fading: Fading,
    /// Carrier frequency offset in subcarrier spacings (±0.5 is the
    /// acquisition range of CP-based estimators).
    pub cfo_norm: f64,
    /// Sampling frequency offset in ppm.
    pub sfo_ppm: f64,
    /// Timing offset in samples (≥ 0; the frame starts this late in the RX
    /// buffer).
    pub timing_offset: f64,
    /// IQ gain imbalance (linear fraction).
    pub iq_epsilon: f64,
    /// IQ phase skew in radians.
    pub iq_phi: f64,
    /// DC offset added at the receiver.
    pub dc_offset: Complex64,
    /// ADC bits (`None` = ideal converter).
    pub adc_bits: Option<u32>,
    /// ADC full scale.
    pub adc_full_scale: f64,
}

impl ChannelConfig {
    /// An ideal, noiseless, impairment-free wire between `n` antennas.
    pub fn clean(n_tx: usize, n_rx: usize) -> Self {
        Self {
            n_tx,
            n_rx,
            snr_db: f64::INFINITY,
            fading: Fading::Ideal,
            cfo_norm: 0.0,
            sfo_ppm: 0.0,
            timing_offset: 0.0,
            iq_epsilon: 0.0,
            iq_phi: 0.0,
            dc_offset: Complex64::ZERO,
            adc_bits: None,
            adc_full_scale: 4.0,
        }
    }

    /// AWGN-only channel at `snr_db`.
    pub fn awgn(n_tx: usize, n_rx: usize, snr_db: f64) -> Self {
        Self {
            snr_db,
            ..Self::clean(n_tx, n_rx)
        }
    }
}

/// Ground truth the simulator used for one frame, for estimator-accuracy
/// experiments.
#[derive(Clone, Debug)]
pub struct ChannelTruth {
    /// Flat channel matrix, when the fading model is flat.
    pub flat: Option<MimoChannelMatrix>,
    /// Tapped-delay-line realization, when frequency selective.
    pub tdl: Option<TappedDelayLine>,
    /// The CFO that was applied (subcarrier spacings).
    pub cfo_norm: f64,
    /// The timing offset that was applied (samples).
    pub timing_offset: f64,
    /// Noise power per RX antenna that was added.
    pub noise_power: f64,
}

/// The seeded channel simulator.
#[derive(Clone, Debug)]
pub struct ChannelSim {
    cfg: ChannelConfig,
    rng: ChaCha8Rng,
    /// The last burst's ground truth ([`Self::apply_into`] lends it out).
    truth: ChannelTruth,
}

impl ChannelSim {
    /// Creates a simulator with a deterministic seed.
    pub fn new(cfg: ChannelConfig, seed: u64) -> Self {
        assert!(
            cfg.n_tx > 0 && cfg.n_rx > 0,
            "antenna counts must be nonzero"
        );
        if matches!(cfg.fading, Fading::Ideal) {
            assert_eq!(cfg.n_tx, cfg.n_rx, "ideal channel requires n_tx == n_rx");
        }
        let truth = ChannelTruth {
            // The identity never changes, so it is built once here.
            flat: matches!(cfg.fading, Fading::Ideal)
                .then(|| MimoChannelMatrix::identity(cfg.n_tx)),
            tdl: None,
            cfo_norm: cfg.cfo_norm,
            timing_offset: cfg.timing_offset,
            noise_power: if cfg.snr_db.is_finite() {
                noise_power_for_snr_db(cfg.snr_db)
            } else {
                0.0
            },
        };
        Self {
            cfg,
            rng: ChaCha8Rng::seed_from_u64(seed),
            truth,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.cfg
    }

    /// Passes one frame (per-TX-antenna streams) through the channel,
    /// drawing a fresh fading realization, and returns the per-RX-antenna
    /// streams plus the ground truth.
    pub fn apply(&mut self, tx: &[Vec<Complex64>]) -> (Vec<Vec<Complex64>>, ChannelTruth) {
        let mut rx = vec![Vec::new(); self.cfg.n_rx];
        let truth = self.apply_into(tx, &mut rx).clone();
        (rx, truth)
    }

    /// [`Self::apply`] into caller-owned buffers: `rx` holds one buffer
    /// per RX antenna, each overwritten with that antenna's stream. The
    /// samples and the random draws are exactly [`Self::apply`]'s. With
    /// identity fading and no timing offset, a caller whose buffers have
    /// the capacity allocates nothing here.
    ///
    /// # Panics
    ///
    /// Panics if `tx.len()` is not `n_tx` or `rx.len()` is not `n_rx`.
    pub fn apply_into(
        &mut self,
        tx: &[Vec<Complex64>],
        rx: &mut [Vec<Complex64>],
    ) -> &ChannelTruth {
        assert_eq!(
            tx.len(),
            self.cfg.n_tx,
            "expected {} TX streams",
            self.cfg.n_tx
        );
        assert_eq!(
            rx.len(),
            self.cfg.n_rx,
            "expected {} RX buffers",
            self.cfg.n_rx
        );

        // 1. Fading.
        match self.cfg.fading {
            Fading::Ideal => identity_into(tx, rx),
            Fading::RayleighFlat => {
                let ch =
                    MimoChannelMatrix::rayleigh_flat(&mut self.rng, self.cfg.n_rx, self.cfg.n_tx);
                ch.apply_into(tx, rx);
                self.truth.flat = Some(ch);
            }
            Fading::Tgn(model) => {
                let ch = model.realize(&mut self.rng, self.cfg.n_rx, self.cfg.n_tx);
                for (dst, src) in rx.iter_mut().zip(ch.apply(tx)) {
                    *dst = src;
                }
                self.truth.tdl = Some(ch);
            }
            Fading::Jakes { fd_norm } => {
                let mut ch =
                    TimeVaryingChannel::new(&mut self.rng, self.cfg.n_rx, self.cfg.n_tx, fd_norm);
                for (dst, src) in rx.iter_mut().zip(ch.apply(tx)) {
                    *dst = src;
                }
            }
        }

        // 2. Receiver clock/oscillator impairments: identical across RX
        //    chains (one LO and one sampling clock per device, as on a
        //    USRP with a shared daughterboard clock). `phase0` is drawn
        //    even without CFO, so the noise draws do not depend on it.
        let phase0 = self.rng.gen::<f64>() * 2.0 * std::f64::consts::PI;
        for s in rx.iter_mut() {
            // At offset 0 `apply_timing_offset` returns an unchanged
            // copy, so that copy is skipped.
            if self.cfg.timing_offset != 0.0 {
                *s = apply_timing_offset(s, self.cfg.timing_offset);
            }
            if self.cfg.sfo_ppm != 0.0 {
                *s = apply_sfo(s, self.cfg.sfo_ppm);
            }
            if self.cfg.cfo_norm != 0.0 {
                apply_cfo(s, self.cfg.cfo_norm, phase0);
            }
            if self.cfg.iq_epsilon != 0.0 || self.cfg.iq_phi != 0.0 {
                apply_iq_imbalance(s, self.cfg.iq_epsilon, self.cfg.iq_phi);
            }
            if self.cfg.dc_offset != Complex64::ZERO {
                apply_dc_offset(s, self.cfg.dc_offset);
            }
        }

        // 3. Noise and quantization.
        for stream in rx.iter_mut() {
            add_awgn(&mut self.rng, stream, self.truth.noise_power);
            if let Some(bits) = self.cfg.adc_bits {
                quantize(stream, bits, self.cfg.adc_full_scale);
            }
        }
        &self.truth
    }
}

/// The identity channel into `rx`. For finite samples the matrix
/// product `0 + 1·x + 0·x'` equals `x + 0.0` bit for bit: both turn −0
/// into +0 and leave every other value alone. `0 · inf` is NaN, though,
/// so a burst with any non-finite sample takes the product itself.
fn identity_into(tx: &[Vec<Complex64>], rx: &mut [Vec<Complex64>]) {
    if tx.iter().all(|s| s.iter().all(|x| x.is_finite())) {
        let len = tx.first().map_or(0, |s| s.len());
        assert!(
            tx.iter().all(|s| s.len() == len),
            "TX stream lengths differ"
        );
        for (y, x) in rx.iter_mut().zip(tx) {
            y.clear();
            y.extend(x.iter().map(|v| Complex64::new(v.re + 0.0, v.im + 0.0)));
        }
    } else {
        MimoChannelMatrix::identity(tx.len()).apply_into(tx, rx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimonet_dsp::complex::{mean_power, C64};

    fn tone(n: usize, f: f64) -> Vec<C64> {
        (0..n)
            .map(|i| C64::cis(2.0 * std::f64::consts::PI * f * i as f64))
            .collect()
    }

    #[test]
    fn clean_channel_is_identity() {
        let mut sim = ChannelSim::new(ChannelConfig::clean(2, 2), 1);
        let tx = vec![tone(100, 0.03), tone(100, 0.07)];
        let (rx, truth) = sim.apply(&tx);
        assert_eq!(rx.len(), 2);
        for (r, t) in rx.iter().zip(&tx) {
            for (a, b) in r.iter().zip(t) {
                assert!(a.dist(*b) < 1e-12);
            }
        }
        assert_eq!(truth.noise_power, 0.0);
        assert!(truth.flat.is_some());
    }

    #[test]
    fn awgn_snr_measured() {
        let cfg = ChannelConfig::awgn(1, 1, 15.0);
        let mut sim = ChannelSim::new(cfg, 2);
        let tx = vec![tone(100_000, 0.01)];
        let (rx, truth) = sim.apply(&tx);
        let noise: Vec<C64> = rx[0].iter().zip(&tx[0]).map(|(a, b)| *a - *b).collect();
        let snr = mimonet_dsp::stats::lin_to_db(mean_power(&tx[0]) / mean_power(&noise));
        assert!((snr - 15.0).abs() < 0.3, "snr {snr}");
        assert!((truth.noise_power - mimonet_dsp::stats::db_to_lin(-15.0)).abs() < 1e-12);
    }

    #[test]
    fn timing_offset_recorded_and_applied() {
        let mut cfg = ChannelConfig::clean(1, 1);
        cfg.timing_offset = 25.0;
        let mut sim = ChannelSim::new(cfg, 3);
        let tx = vec![vec![C64::ONE; 10]];
        let (rx, truth) = sim.apply(&tx);
        assert_eq!(truth.timing_offset, 25.0);
        assert_eq!(rx[0].len(), 35);
        assert!(rx[0][..25].iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn cfo_applied_identically_across_rx_antennas() {
        let mut cfg = ChannelConfig::clean(2, 2);
        cfg.cfo_norm = 0.2;
        let mut sim = ChannelSim::new(cfg, 4);
        let tx = vec![vec![C64::ONE; 64], vec![C64::ONE; 64]];
        let (rx, _) = sim.apply(&tx);
        // Identity fading + same input ⇒ the two RX streams stay equal if
        // (and only if) the CFO phase trajectory is shared.
        for (a, b) in rx[0].iter().zip(&rx[1]) {
            assert!(a.dist(*b) < 1e-12);
        }
        // The rotation rate itself is covered by the impairments tests.
    }

    #[test]
    fn rayleigh_frames_differ_between_applies() {
        let cfg = ChannelConfig {
            fading: Fading::RayleighFlat,
            ..ChannelConfig::clean(2, 2)
        };
        let mut sim = ChannelSim::new(cfg, 5);
        let tx = vec![vec![C64::ONE; 4], vec![C64::ONE; 4]];
        let (_, t1) = sim.apply(&tx);
        let (_, t2) = sim.apply(&tx);
        assert_ne!(t1.flat, t2.flat, "block fading must redraw per frame");
    }

    #[test]
    fn tgn_channel_extends_stream() {
        let cfg = ChannelConfig {
            fading: Fading::Tgn(TgnModel::D),
            ..ChannelConfig::clean(2, 2)
        };
        let mut sim = ChannelSim::new(cfg, 6);
        let tx = vec![vec![C64::ONE; 50], vec![C64::ONE; 50]];
        let (rx, truth) = sim.apply(&tx);
        let spread = truth.tdl.as_ref().unwrap().max_delay();
        assert!(spread > 1);
        assert_eq!(rx[0].len(), 50 + spread - 1);
    }

    #[test]
    fn same_seed_reproduces() {
        let cfg = ChannelConfig {
            fading: Fading::RayleighFlat,
            snr_db: 10.0,
            ..ChannelConfig::clean(2, 2)
        };
        let tx = vec![tone(64, 0.05), tone(64, 0.11)];
        let mut s1 = ChannelSim::new(cfg.clone(), 42);
        let mut s2 = ChannelSim::new(cfg, 42);
        let (r1, _) = s1.apply(&tx);
        let (r2, _) = s2.apply(&tx);
        assert_eq!(r1, r2);
    }

    #[test]
    #[should_panic(expected = "ideal channel requires")]
    fn ideal_requires_square() {
        ChannelSim::new(ChannelConfig::clean(2, 1), 0);
    }
}
