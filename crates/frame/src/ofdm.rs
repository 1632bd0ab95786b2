//! OFDM symbol assembly and disassembly (64-point IFFT/FFT + cyclic
//! prefix), shared by preamble generation and the data TX/RX chains.

// Index-based loops here are the clearer expression of the math
// (matrix/carrier indexing); silence the iterator-style suggestion.
#![allow(clippy::needless_range_loop)]
use crate::carriers::{carrier_to_bin, CP_LEN, FFT_LEN, SYM_LEN};
use mimonet_dsp::complex::Complex64;
use mimonet_dsp::fft::Fft;
use std::sync::OnceLock;

/// Assembles and disassembles OFDM symbols. Holds a planned FFT, so clone
/// or reuse rather than recreating per symbol.
#[derive(Clone, Debug)]
pub struct Ofdm {
    fft: Fft,
}

impl Default for Ofdm {
    fn default() -> Self {
        Self::new()
    }
}

impl Ofdm {
    /// Creates the 64-point engine.
    pub fn new() -> Self {
        Self {
            fft: Fft::new(FFT_LEN),
        }
    }

    /// Converts a frequency-domain map (indexed by *logical* subcarrier,
    /// entries for `-32..=31` addressed through a closure) into one
    /// time-domain symbol of `CP_LEN + FFT_LEN` samples.
    ///
    /// `scale` multiplies the IFFT output; pass
    /// [`Ofdm::unit_power_scale`]`(n_occupied)` for unit average symbol
    /// power.
    pub fn modulate_bins(&self, bins: &[Complex64; FFT_LEN], scale: f64) -> Vec<Complex64> {
        let mut td = *bins;
        let mut sym = [Complex64::ZERO; SYM_LEN];
        self.modulate_into(&mut td, scale, &mut sym);
        sym.to_vec()
    }

    /// [`Self::modulate_bins`] without allocating: transforms `bins` in
    /// place (leaving the unscaled IFFT output there) and writes the
    /// scaled, cyclic-prefixed symbol to `out`.
    pub fn modulate_into(
        &self,
        bins: &mut [Complex64; FFT_LEN],
        scale: f64,
        out: &mut [Complex64; SYM_LEN],
    ) {
        self.fft.inverse(bins);
        let (cp, body) = out.split_at_mut(CP_LEN);
        for (o, x) in cp.iter_mut().zip(&bins[FFT_LEN - CP_LEN..]) {
            *o = x.scale(scale);
        }
        for (o, x) in body.iter_mut().zip(bins.iter()) {
            *o = x.scale(scale);
        }
    }

    /// Builds the FFT-bin array from `(logical carrier, value)` pairs and
    /// modulates it. Unlisted carriers are zero.
    pub fn modulate_carriers(&self, carriers: &[(i32, Complex64)], scale: f64) -> Vec<Complex64> {
        let mut bins = [Complex64::ZERO; FFT_LEN];
        for &(k, v) in carriers {
            bins[carrier_to_bin(k)] = v;
        }
        self.modulate_bins(&bins, scale)
    }

    /// Removes the cyclic prefix from an 80-sample symbol and returns the
    /// frequency-domain bins, scaled so that
    /// `demodulate(modulate(x, s), s) == x`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol.len() != CP_LEN + FFT_LEN`.
    pub fn demodulate(&self, symbol: &[Complex64], scale: f64) -> [Complex64; FFT_LEN] {
        assert_eq!(
            symbol.len(),
            CP_LEN + FFT_LEN,
            "OFDM symbol must be {} samples, got {}",
            CP_LEN + FFT_LEN,
            symbol.len()
        );
        let mut bins = [Complex64::ZERO; FFT_LEN];
        bins.copy_from_slice(&symbol[CP_LEN..]);
        self.fft.forward(&mut bins);
        // The planner's inverse() already folds in 1/N, so the forward
        // transform undoes it exactly; only the caller's scale remains.
        let k = 1.0 / scale;
        for b in &mut bins {
            *b = b.scale(k);
        }
        bins
    }

    /// FFT of a bare 64-sample window (no cyclic prefix), same scaling as
    /// [`Ofdm::demodulate`]. Used when the receiver has already located the
    /// FFT window.
    pub fn demodulate_window(&self, window: &[Complex64], scale: f64) -> [Complex64; FFT_LEN] {
        assert_eq!(
            window.len(),
            FFT_LEN,
            "FFT window must be {FFT_LEN} samples"
        );
        let mut bins = [Complex64::ZERO; FFT_LEN];
        bins.copy_from_slice(window);
        self.fft.forward(&mut bins);
        let k = 1.0 / scale;
        for b in &mut bins {
            *b = b.scale(k);
        }
        bins
    }

    /// Scale that gives an OFDM symbol of `n_occupied` unit-power carriers
    /// an average time-domain power of 1.0: `FFT_LEN / sqrt(n_occupied)`.
    pub fn unit_power_scale(n_occupied: usize) -> f64 {
        FFT_LEN as f64 / (n_occupied as f64).sqrt()
    }
}

/// Applies a cyclic shift of `shift` samples (positive = delay) to the
/// 64-sample base of a frequency-domain symbol, expressed as the standard's
/// per-carrier phase ramp `exp(-i 2 pi k shift / N)`.
///
/// 802.11n transmits every non-primary antenna with a cyclic shift so the
/// legacy preamble does not beamform; shift values are in samples at 20 Msps
/// (200 ns = 4 samples). The ramps for the shifts the 802.11n tables use
/// are computed once per process.
pub fn apply_cyclic_shift(bins: &mut [Complex64; FFT_LEN], shift: i32) {
    if shift == 0 {
        return;
    }
    let fresh;
    let ramp = if (1 - MAX_CSD as i32..0).contains(&shift) {
        cached_ramp(shift.unsigned_abs() as usize)
    } else {
        fresh = csd_ramp(shift);
        &fresh
    };
    for (b, &r) in bins.iter_mut().zip(ramp) {
        *b *= r;
    }
}

/// One past the largest cyclic shift (in samples, negated) that the
/// 802.11n tables prescribe: −12 samples, the fourth HT stream's −600 ns.
const MAX_CSD: usize = 13;

/// The CSD phase ramp for shift `-neg_shift`, computed once per process
/// with [`csd_ramp`], so the cached values are the bits a fresh
/// computation gives.
fn cached_ramp(neg_shift: usize) -> &'static [Complex64; FFT_LEN] {
    static RAMPS: [OnceLock<[Complex64; FFT_LEN]>; MAX_CSD] = [const { OnceLock::new() }; MAX_CSD];
    RAMPS[neg_shift].get_or_init(|| csd_ramp(-(neg_shift as i32)))
}

/// The per-bin phasors `exp(-i 2 pi k shift / N)` of a cyclic shift.
fn csd_ramp(shift: i32) -> [Complex64; FFT_LEN] {
    std::array::from_fn(|bin| {
        let k = crate::carriers::bin_to_carrier(bin);
        let theta = -2.0 * std::f64::consts::PI * k as f64 * shift as f64 / FFT_LEN as f64;
        Complex64::cis(theta)
    })
}

/// Cyclic shift prescribed for `antenna` of `n_tx` during the *legacy*
/// portion of the preamble, in samples at 20 Msps (802.11n Table 20-8:
/// 0 / −200 ns for two chains, 0/−100/−200 for three, 0/−50/−100/−150
/// for four).
pub fn legacy_cyclic_shift(antenna: usize, n_tx: usize) -> i32 {
    debug_assert!(antenna < n_tx);
    match (n_tx, antenna) {
        (1, _) => 0,
        (2, 0) => 0,
        (2, 1) => -4, // −200 ns
        (3, 0) => 0,
        (3, 1) => -2, // −100 ns
        (3, 2) => -4, // −200 ns
        (4, 0) => 0,
        (4, 1) => -1, // −50 ns
        (4, 2) => -2, // −100 ns
        (4, 3) => -3, // −150 ns
        _ => panic!("unsupported antenna count {n_tx}"),
    }
}

/// Cyclic shift for the *HT* portion, in samples (802.11n Table 20-9:
/// 0 / −400 / −200 / −600 ns across up to four space-time streams).
pub fn ht_cyclic_shift(stream: usize, n_sts: usize) -> i32 {
    debug_assert!(stream < n_sts);
    match (n_sts, stream) {
        (1, _) => 0,
        (2..=4, 0) => 0,
        (2..=4, 1) => -8, // −400 ns
        (3..=4, 2) => -4, // −200 ns
        (4, 3) => -12,    // −600 ns
        _ => panic!("unsupported stream count {n_sts}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimonet_dsp::complex::C64;

    #[test]
    fn modulate_demodulate_roundtrip() {
        let ofdm = Ofdm::new();
        let mut bins = [C64::ZERO; FFT_LEN];
        for k in 1..28 {
            bins[k] = C64::new((k as f64).sin(), (k as f64).cos());
            bins[FFT_LEN - k] = C64::new(-(k as f64).cos(), 0.5);
        }
        let scale = Ofdm::unit_power_scale(54);
        let sym = ofdm.modulate_bins(&bins, scale);
        assert_eq!(sym.len(), 80);
        let back = ofdm.demodulate(&sym, scale);
        for (a, b) in bins.iter().zip(back.iter()) {
            assert!(a.dist(*b) < 1e-10);
        }
    }

    #[test]
    fn cyclic_prefix_is_a_copy_of_the_tail() {
        let ofdm = Ofdm::new();
        let sym = ofdm.modulate_carriers(&[(1, C64::ONE), (-5, C64::I)], 1.0);
        for i in 0..CP_LEN {
            assert!(sym[i].dist(sym[FFT_LEN + i]) < 1e-12);
        }
    }

    #[test]
    fn unit_power_normalization() {
        let ofdm = Ofdm::new();
        // 52 unit-power carriers.
        let carriers: Vec<(i32, C64)> = (-26..=26)
            .filter(|&k| k != 0)
            .map(|k| (k, C64::cis(k as f64 * 1.7)))
            .collect();
        let sym = ofdm.modulate_carriers(&carriers, Ofdm::unit_power_scale(52));
        let p = mimonet_dsp::complex::mean_power(&sym[CP_LEN..]);
        assert!((p - 1.0).abs() < 1e-9, "power {p}");
    }

    #[test]
    fn demodulate_window_matches_demodulate() {
        let ofdm = Ofdm::new();
        let sym = ofdm.modulate_carriers(&[(3, C64::ONE), (-3, -C64::ONE)], 2.0);
        let a = ofdm.demodulate(&sym, 2.0);
        let b = ofdm.demodulate_window(&sym[CP_LEN..], 2.0);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(x.dist(*y) < 1e-12);
        }
    }

    #[test]
    fn cyclic_shift_rotates_time_domain() {
        let ofdm = Ofdm::new();
        let carriers: Vec<(i32, C64)> = (1..=10).map(|k| (k, C64::cis(k as f64))).collect();
        let plain = ofdm.modulate_carriers(&carriers, 1.0);

        let mut bins = [C64::ZERO; FFT_LEN];
        for &(k, v) in &carriers {
            bins[carrier_to_bin(k)] = v;
        }
        apply_cyclic_shift(&mut bins, -4);
        let shifted = ofdm.modulate_bins(&bins, 1.0);

        // A shift of −4 advances the base sequence by 4 samples cyclically.
        for i in 0..FFT_LEN {
            let want = plain[CP_LEN + (i + 4) % FFT_LEN];
            assert!(
                shifted[CP_LEN + i].dist(want) < 1e-9,
                "sample {i}: {:?} vs {want:?}",
                shifted[CP_LEN + i]
            );
        }
    }

    #[test]
    fn zero_shift_is_identity() {
        let mut bins = [C64::ONE; FFT_LEN];
        let orig = bins;
        apply_cyclic_shift(&mut bins, 0);
        assert_eq!(bins, orig);
    }

    #[test]
    fn csd_tables() {
        assert_eq!(legacy_cyclic_shift(0, 2), 0);
        assert_eq!(legacy_cyclic_shift(1, 2), -4);
        assert_eq!(ht_cyclic_shift(1, 2), -8);
        assert_eq!(ht_cyclic_shift(0, 1), 0);
    }

    #[test]
    #[should_panic(expected = "80 samples")]
    fn demodulate_rejects_wrong_length() {
        Ofdm::new().demodulate(&[C64::ZERO; 64], 1.0);
    }
}
