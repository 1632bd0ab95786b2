//! MIMO detection: zero-forcing, MMSE and maximum-likelihood.
//!
//! Given the per-carrier model `y = H x + w` (`H` from
//! [`crate::chanest`], `x` the per-stream constellation symbols, `w` white
//! noise of variance `noise_var` per RX antenna), each detector returns
//! per-stream symbol estimates and per-bit LLRs (positive ⇒ bit 0, the
//! convention `mimonet_fec::viterbi::decode_soft` expects).
//!
//! * **ZF** — `x_hat = (H^H H)^-1 H^H y`. Per-stream post-detection noise
//!   is `noise_var * [(H^H H)^-1]_ss`; simple but noise-enhancing on
//!   ill-conditioned channels.
//! * **MMSE** — `W = (H^H H + noise_var I)^-1 H^H`. Output is biased
//!   (`E[x_tilde_s] = mu_s x_s` with `mu_s = [W H]_ss`); we unbias and
//!   compute the exact per-stream interference-plus-noise variance.
//! * **ML** — exhaustive max-log over the joint constellation (`M^n_ss`
//!   hypotheses; 2 streams of 64-QAM = 4096). Optimal, and the reference
//!   the F7 experiment compares against.

use crate::linalg::CMat;
use mimonet_dsp::complex::Complex64;
use mimonet_frame::carriers::FFT_LEN;
use mimonet_frame::modulation::Modulation;

/// Detector selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DetectorKind {
    /// Zero forcing.
    Zf,
    /// Linear MMSE with unbiasing.
    Mmse,
    /// Exhaustive maximum likelihood (max-log LLRs).
    Ml,
}

impl std::fmt::Display for DetectorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectorKind::Zf => write!(f, "ZF"),
            DetectorKind::Mmse => write!(f, "MMSE"),
            DetectorKind::Ml => write!(f, "ML"),
        }
    }
}

/// Per-stream detection output for one subcarrier.
#[derive(Clone, Debug)]
pub struct StreamDecision {
    /// Equalized (unbiased) symbol estimate.
    pub symbol: Complex64,
    /// Per-bit LLRs, transmission order.
    pub llrs: Vec<f64>,
}

/// Detection failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectError {
    /// Channel matrix is singular (ZF) and cannot be inverted.
    SingularChannel,
}

impl std::fmt::Display for DetectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectError::SingularChannel => write!(f, "channel matrix is singular"),
        }
    }
}

impl std::error::Error for DetectError {}

/// Detects the spatial streams on one subcarrier: [`prepare`] then
/// [`Prepared::apply`], for a caller with a single observation.
///
/// * `h` — `n_rx × n_ss` channel estimate.
/// * `y` — received frequency-domain samples, one per RX antenna.
/// * `noise_var` — complex noise variance per RX antenna.
///
/// Returns one [`StreamDecision`] per spatial stream.
pub fn detect(
    kind: DetectorKind,
    h: &CMat,
    y: &[Complex64],
    noise_var: f64,
    modulation: Modulation,
) -> Result<Vec<StreamDecision>, DetectError> {
    assert_eq!(y.len(), h.rows(), "one observation per RX antenna");
    Ok(prepare(kind, h, noise_var, modulation)?.apply(y))
}

/// A detector with per-carrier precomputation hoisted out of the
/// per-symbol loop.
///
/// On a block-fading channel `H(k)` is constant for the whole frame, so
/// the linear combining matrices (ZF/MMSE) and the ML hypothesis
/// predictions `H s` only need computing once per carrier; [`Prepared::apply`]
/// then runs per received symbol. It is the only detector implementation:
/// [`detect`] prepares one and applies it once.
// The inline stack matrices intentionally make the Linear variant big:
// boxing them would put a heap allocation back into the per-carrier
// prepare path the zero-alloc contract forbids.
#[allow(clippy::large_enum_variant)]
pub enum Prepared {
    /// Linear combiner: `x = W y`, unbias by `mu`, demap at `nv_eff`.
    /// Fully inline (no heap) — preparing and applying a ZF/MMSE detector
    /// never allocates.
    Linear {
        /// Combining matrix, `n_ss × n_rx`.
        w: CMat,
        /// Per-stream inverse unbiasing factor `mu.inv()` (`mu` is `1` for
        /// ZF), computed once at prepare time: `x / mu` is by definition
        /// `x * mu.inv()`, so multiplying by it gives the quotient's exact
        /// bits. First `n_ss` entries are meaningful.
        mu_inv: [Complex64; CMat::MAX_DIM],
        /// Per-stream effective noise variance; first `n_ss` entries are
        /// meaningful.
        nv_eff: [f64; CMat::MAX_DIM],
        /// Modulation for demapping.
        modulation: Modulation,
    },
    /// Exhaustive ML with precomputed `H s` per joint hypothesis. The
    /// hypothesis table is heap-allocated once per carrier at prepare time
    /// (up to `M^n_ss * n_rx` entries — too large for the stack at 64-QAM);
    /// applying it is allocation-free.
    Ml {
        /// Flat hypothesis predictions, stride `n_rx`:
        /// `pred[hyp * n_rx + r]` = sample predicted at antenna `r`.
        pred: Vec<Complex64>,
        /// Receive antennas (the stride of `pred`).
        n_rx: usize,
        /// Constellation points (for symbol output).
        points: Vec<Complex64>,
        /// Streams.
        n_ss: usize,
        /// Noise variance for LLR scaling.
        noise_var: f64,
        /// Modulation for bit bookkeeping.
        modulation: Modulation,
    },
}

/// Precomputes the per-carrier detector state for a block-fading frame.
pub fn prepare(
    kind: DetectorKind,
    h: &CMat,
    noise_var: f64,
    modulation: Modulation,
) -> Result<Prepared, DetectError> {
    let nv = noise_var.max(1e-12);
    let n_ss = h.cols();
    let n_rx = h.rows();
    match kind {
        DetectorKind::Zf => {
            let hh = h.hermitian();
            let ginv = hh.mul(h).inverse().ok_or(DetectError::SingularChannel)?;
            let w = ginv.mul(&hh);
            let mut nv_eff = [0.0; CMat::MAX_DIM];
            for s in 0..n_ss {
                nv_eff[s] = nv * ginv[(s, s)].re.max(1e-15);
            }
            Ok(Prepared::Linear {
                w,
                // `ONE.inv()` is `1 - 0i`: the factor `x / ONE` multiplies
                // by, signed zero included.
                mu_inv: [Complex64::ONE.inv(); CMat::MAX_DIM],
                nv_eff,
                modulation,
            })
        }
        DetectorKind::Mmse => {
            let hh = h.hermitian();
            let mut gram = hh.mul(h);
            gram.add_diag(nv);
            let w = gram.inverse().ok_or(DetectError::SingularChannel)?.mul(&hh);
            let wh = w.mul(h);
            let mut mu_inv = [Complex64::ZERO; CMat::MAX_DIM];
            let mut nv_eff = [0.0; CMat::MAX_DIM];
            for s in 0..n_ss {
                let m = wh[(s, s)];
                let m_mag = m.abs().max(1e-15);
                let mut interf = 0.0;
                for j in 0..n_ss {
                    if j != s {
                        interf += wh[(s, j)].norm_sqr();
                    }
                }
                let mut wnorm = 0.0;
                for r in 0..n_rx {
                    wnorm += w[(s, r)].norm_sqr();
                }
                mu_inv[s] = m.inv();
                nv_eff[s] = ((interf + nv * wnorm) / (m_mag * m_mag)).max(1e-15);
            }
            Ok(Prepared::Linear {
                w,
                mu_inv,
                nv_eff,
                modulation,
            })
        }
        DetectorKind::Ml => {
            let points = modulation.constellation();
            let m = points.len();
            let n_hyp = m.pow(n_ss as u32);
            let mut pred = Vec::with_capacity(n_hyp * n_rx);
            let mut idx = [0usize; CMat::MAX_DIM];
            for hyp in 0..n_hyp {
                let mut rem = hyp;
                for slot in idx[..n_ss].iter_mut() {
                    *slot = rem % m;
                    rem /= m;
                }
                for r in 0..n_rx {
                    let mut p = Complex64::ZERO;
                    for (s, &pi) in idx[..n_ss].iter().enumerate() {
                        p += h[(r, s)] * points[pi];
                    }
                    pred.push(p);
                }
            }
            Ok(Prepared::Ml {
                pred,
                n_rx,
                points,
                n_ss,
                noise_var: nv,
                modulation,
            })
        }
    }
}

/// Maximum coded bits per subcarrier (64-QAM) — sizes the stack scratch in
/// [`Prepared::apply_into`].
const MAX_BITS: usize = 6;

impl Prepared {
    /// Spatial streams this detector outputs.
    pub fn n_ss(&self) -> usize {
        match self {
            Prepared::Linear { w, .. } => w.rows(),
            Prepared::Ml { n_ss, .. } => *n_ss,
        }
    }

    /// Modulation this detector demaps.
    pub fn modulation(&self) -> Modulation {
        match self {
            Prepared::Linear { modulation, .. } | Prepared::Ml { modulation, .. } => *modulation,
        }
    }

    /// Detects one received vector (one symbol's samples on this carrier).
    pub fn apply(&self, y: &[Complex64]) -> Vec<StreamDecision> {
        let n_ss = self.n_ss();
        let bp = self.modulation().bits_per_symbol();
        let mut syms = [Complex64::ZERO; CMat::MAX_DIM];
        let mut llrs = vec![0.0; n_ss * bp];
        self.apply_into(y, &mut syms[..n_ss], &mut llrs);
        (0..n_ss)
            .map(|s| StreamDecision {
                symbol: syms[s],
                llrs: llrs[s * bp..(s + 1) * bp].to_vec(),
            })
            .collect()
    }

    /// [`Prepared::apply`] into caller-owned storage — the allocation-free
    /// path for the per-symbol RX loop. `symbols` receives one equalized
    /// symbol per stream; `llrs` receives the per-bit LLRs stream-major
    /// (`llrs[s * bits_per + b]`). Results are bit-identical to `apply`.
    ///
    /// # Panics
    ///
    /// Panics if `symbols.len() != n_ss` or
    /// `llrs.len() != n_ss * bits_per_symbol`, or on an observation-count
    /// mismatch.
    pub fn apply_into(&self, y: &[Complex64], symbols: &mut [Complex64], llrs: &mut [f64]) {
        let bits_per = self.modulation().bits_per_symbol();
        assert_eq!(symbols.len(), self.n_ss(), "one symbol slot per stream");
        assert_eq!(
            llrs.len(),
            self.n_ss() * bits_per,
            "stream-major LLR slab of n_ss * bits_per"
        );
        match self {
            Prepared::Linear {
                w,
                mu_inv,
                nv_eff,
                modulation,
            } => {
                assert_eq!(y.len(), w.cols(), "one observation per RX antenna");
                let n_ss = w.rows();
                let mut x = [Complex64::ZERO; CMat::MAX_DIM];
                w.mul_vec_into(y, &mut x[..n_ss]);
                for s in 0..n_ss {
                    let sym = x[s] * mu_inv[s];
                    symbols[s] = sym;
                    modulation.demap_soft_into(
                        sym,
                        nv_eff[s],
                        &mut llrs[s * bits_per..][..bits_per],
                    );
                }
            }
            Prepared::Ml {
                pred,
                n_rx,
                points,
                n_ss,
                noise_var,
                modulation: _,
            } => {
                let m = points.len();
                let mut best = f64::INFINITY;
                let mut best_hyp = 0usize;
                let mut min0 = [[f64::INFINITY; MAX_BITS]; CMat::MAX_DIM];
                let mut min1 = [[f64::INFINITY; MAX_BITS]; CMat::MAX_DIM];
                for (hyp, row) in pred.chunks_exact(*n_rx).enumerate() {
                    let mut d = 0.0;
                    for (yr, pr) in y.iter().zip(row) {
                        d += yr.dist_sqr(*pr);
                    }
                    if d < best {
                        best = d;
                        best_hyp = hyp;
                    }
                    let mut rem = hyp;
                    for s in 0..*n_ss {
                        let pi = rem % m;
                        rem /= m;
                        for b in 0..bits_per {
                            if (pi >> b) & 1 == 0 {
                                if d < min0[s][b] {
                                    min0[s][b] = d;
                                }
                            } else if d < min1[s][b] {
                                min1[s][b] = d;
                            }
                        }
                    }
                }
                for s in 0..*n_ss {
                    let pi = best_hyp / m.pow(s as u32) % m;
                    symbols[s] = points[pi];
                    for b in 0..bits_per {
                        llrs[s * bits_per + b] = (min1[s][b] - min0[s][b]) / noise_var;
                    }
                }
            }
        }
    }
}

impl Prepared {
    /// [`Prepared::apply_into`] for this carrier on four consecutive OFDM
    /// symbols, one per SIMD lane, read from and written into the
    /// receiver's four-symbol slabs with no staging copies:
    ///
    /// * `bins` holds the four symbols' demodulated bins, symbol-major
    ///   (`bins[lane * n_rx + r]` is symbol `lane` at antenna `r`, the
    ///   layout of [`crate::chanest::estimate_mimo_htltf_into`]); this
    ///   carrier sits at FFT bin `bin`.
    /// * `symbols` takes the equalized symbols of all `n_dc` data
    ///   carriers of the four symbols, `n_dc = symbols.len() / (4 * n_ss)`:
    ///   lane `l`, stream `s` at `symbols[(l * n_dc + carrier) * n_ss + s]`.
    /// * `llrs` takes their stream-major LLRs: with `row = n_dc *
    ///   bits_per`, lane `l`, stream `s`, bit `b` at `llrs[(l * n_ss + s) *
    ///   row + carrier * bits_per + b]`, so each lane's `n_ss * row` LLRs
    ///   are one symbol's detector output in interleaver order.
    ///
    /// The linear combine `W y` and the unbiasing product run per lane
    /// with the exact `apply_into` sequence; the soft demap, the dominant
    /// cost, then runs all four lanes through
    /// [`Modulation::demap_soft_x4_into`]. Every lane's symbols and LLRs
    /// are bit-identical to a scalar `apply_into` on that lane's
    /// observation. Lanes never mix, so a caller with fewer than four
    /// symbols left can leave any bins in the spare lanes and ignore
    /// their outputs. ML detection has no profitable lane structure (the
    /// hypothesis scan dominates) and runs four scalar applies — still
    /// bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `bins` does not hold four symbols of `n_rx` antennas, if
    /// the slabs are not four symbols of whole carriers, or if `carrier`
    /// is past their last one.
    pub fn apply_x4_into(
        &self,
        bins: &[[Complex64; FFT_LEN]],
        bin: usize,
        carrier: usize,
        symbols: &mut [Complex64],
        llrs: &mut [f64],
    ) {
        let n_ss = self.n_ss();
        let n_rx = match self {
            Prepared::Linear { w, .. } => w.cols(),
            Prepared::Ml { n_rx, .. } => *n_rx,
        };
        let bits_per = self.modulation().bits_per_symbol();
        let n_dc = symbols.len() / (4 * n_ss);
        assert!(
            bins.len() == 4 * n_rx && bin < FFT_LEN,
            "bin {bin} of four symbols' bins on {n_rx} antennas"
        );
        assert!(
            carrier < n_dc
                && symbols.len() == 4 * n_dc * n_ss
                && llrs.len() == symbols.len() * bits_per,
            "carrier {carrier} outside four-symbol slabs of {} symbols and {} LLRs",
            symbols.len(),
            llrs.len()
        );
        let row = n_dc * bits_per;
        match self {
            Prepared::Linear {
                w,
                mu_inv,
                nv_eff,
                modulation,
            } => {
                for s in 0..n_ss {
                    // `W y` row `s` in `mul_vec_into`'s summation order.
                    let x: [Complex64; 4] = std::array::from_fn(|lane| {
                        let mut acc = Complex64::ZERO;
                        for (r, b) in bins[lane * n_rx..][..n_rx].iter().enumerate() {
                            acc += w[(s, r)] * b[bin];
                        }
                        acc * mu_inv[s]
                    });
                    for (lane, &sym) in x.iter().enumerate() {
                        symbols[(lane * n_dc + carrier) * n_ss + s] = sym;
                    }
                    modulation.demap_soft_x4_into(
                        x,
                        nv_eff[s],
                        llrs,
                        s * row + carrier * bits_per,
                        n_ss * row,
                    );
                }
            }
            Prepared::Ml { .. } => {
                for lane in 0..4 {
                    let mut y = [Complex64::ZERO; CMat::MAX_DIM];
                    for (slot, b) in y.iter_mut().zip(&bins[lane * n_rx..(lane + 1) * n_rx]) {
                        *slot = b[bin];
                    }
                    let mut llr = [0.0; CMat::MAX_DIM * MAX_BITS];
                    let at = (lane * n_dc + carrier) * n_ss;
                    self.apply_into(
                        &y[..n_rx],
                        &mut symbols[at..at + n_ss],
                        &mut llr[..n_ss * bits_per],
                    );
                    for s in 0..n_ss {
                        let at = (lane * n_ss + s) * row + carrier * bits_per;
                        llrs[at..at + bits_per]
                            .copy_from_slice(&llr[s * bits_per..(s + 1) * bits_per]);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimonet_channel::noise::crandn;
    use mimonet_dsp::complex::C64;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    const KINDS: [DetectorKind; 3] = [DetectorKind::Zf, DetectorKind::Mmse, DetectorKind::Ml];

    fn random_symbols(rng: &mut ChaCha8Rng, m: Modulation, n: usize) -> (Vec<u8>, Vec<C64>) {
        let bits: Vec<u8> = (0..n * m.bits_per_symbol())
            .map(|_| rng.gen_range(0..2u8))
            .collect();
        let syms = m.map(&bits);
        (bits, syms)
    }

    fn well_conditioned_h() -> CMat {
        CMat::new(
            2,
            2,
            vec![
                C64::new(1.0, 0.2),
                C64::new(-0.3, 0.4),
                C64::new(0.2, -0.5),
                C64::new(0.9, -0.1),
            ],
        )
    }

    #[test]
    fn all_detectors_recover_noiseless_2x2() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let h = well_conditioned_h();
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ] {
            let (bits, syms) = random_symbols(&mut rng, m, 2);
            let y = h.mul_vec(&syms);
            for kind in KINDS {
                let dec = detect(kind, &h, &y, 1e-6, m).unwrap();
                for s in 0..2 {
                    let got = m.demap_hard(dec[s].symbol);
                    let want = &bits[s * m.bits_per_symbol()..(s + 1) * m.bits_per_symbol()];
                    assert_eq!(got, want, "{kind} {m} stream {s}");
                    // LLR signs agree with bits.
                    for (b, l) in want.iter().zip(&dec[s].llrs) {
                        assert!((*b == 0) == (*l > 0.0), "{kind} {m}");
                    }
                }
            }
        }
    }

    #[test]
    fn siso_detection_reduces_to_equalization() {
        let h = CMat::new(1, 1, vec![C64::new(0.5, 0.5)]);
        let x = Modulation::Qpsk.map(&[1, 0]);
        let y = h.mul_vec(&x);
        for kind in KINDS {
            let dec = detect(kind, &h, &y, 1e-4, Modulation::Qpsk).unwrap();
            assert!(dec[0].symbol.dist(x[0]) < 1e-3, "{kind}");
        }
    }

    #[test]
    fn zf_rejects_singular_channel() {
        let h = CMat::new(2, 2, vec![C64::ONE, C64::ONE, C64::ONE, C64::ONE]);
        let y = [C64::ONE, C64::ONE];
        assert!(matches!(
            detect(DetectorKind::Zf, &h, &y, 0.1, Modulation::Bpsk),
            Err(DetectError::SingularChannel)
        ));
        // MMSE regularizes and survives.
        assert!(detect(DetectorKind::Mmse, &h, &y, 0.1, Modulation::Bpsk).is_ok());
        // ML always works.
        assert!(detect(DetectorKind::Ml, &h, &y, 0.1, Modulation::Bpsk).is_ok());
    }

    /// Monte-Carlo BER comparison on an ill-conditioned channel: ML must
    /// beat ZF, and MMSE must sit in between (or tie ML).
    #[test]
    fn detector_ordering_on_hard_channel() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        // Nearly rank-deficient channel.
        let h = CMat::new(
            2,
            2,
            vec![
                C64::new(1.0, 0.0),
                C64::new(0.95, 0.05),
                C64::new(0.7, -0.2),
                C64::new(0.75, -0.15),
            ],
        );
        let m = Modulation::Qpsk;
        let nv: f64 = 0.05;
        let mut errs = [0usize; 3];
        let trials = 2000;
        for _ in 0..trials {
            let (bits, syms) = random_symbols(&mut rng, m, 2);
            let mut y = h.mul_vec(&syms);
            for v in &mut y {
                *v += crandn(&mut rng).scale(nv.sqrt());
            }
            for (ki, kind) in KINDS.iter().enumerate() {
                let dec = detect(*kind, &h, &y, nv, m).unwrap();
                for s in 0..2 {
                    let got = m.demap_hard(dec[s].symbol);
                    let want = &bits[s * 2..s * 2 + 2];
                    errs[ki] += got.iter().zip(want).filter(|(a, b)| a != b).count();
                }
            }
        }
        let [zf, mmse, ml] = errs;
        assert!(ml < zf, "ML {ml} must beat ZF {zf}");
        assert!(mmse <= zf, "MMSE {mmse} must not lose to ZF {zf}");
        assert!(ml <= mmse, "ML {ml} must not lose to MMSE {mmse}");
        assert!(zf > 0, "channel must actually be stressful");
    }

    #[test]
    fn mmse_unbiasing_centers_constellation() {
        // At moderate noise the unbiased MMSE output should average to the
        // transmitted symbol, not a shrunk version of it.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let h = well_conditioned_h();
        let m = Modulation::Bpsk;
        let nv: f64 = 0.5;
        let mut mean = C64::ZERO;
        let trials = 3000;
        for _ in 0..trials {
            // Stream 0 fixed at +1; stream 1 random so its residual
            // interference averages out and only stream 0's bias remains.
            let other = if rng.gen_bool(0.5) { 1 } else { 0 };
            let tx = m.map(&[1, other]);
            let mut y = h.mul_vec(&tx);
            for v in &mut y {
                *v += crandn(&mut rng).scale(nv.sqrt());
            }
            let dec = detect(DetectorKind::Mmse, &h, &y, nv, m).unwrap();
            mean += dec[0].symbol;
        }
        mean = mean.scale(1.0 / trials as f64);
        let want = C64::ONE;
        assert!(mean.dist(want) < 0.07, "biased mean {mean:?} vs {want:?}");
    }

    #[test]
    fn llr_magnitude_grows_with_snr() {
        let h = well_conditioned_h();
        let m = Modulation::Qpsk;
        let x = m.map(&[0, 1, 1, 0]);
        let y = h.mul_vec(&x);
        for kind in KINDS {
            let lo = detect(kind, &h, &y, 0.5, m).unwrap();
            let hi = detect(kind, &h, &y, 0.05, m).unwrap();
            assert!(
                hi[0].llrs[0].abs() > lo[0].llrs[0].abs(),
                "{kind}: hi {} lo {}",
                hi[0].llrs[0],
                lo[0].llrs[0]
            );
        }
    }

    #[test]
    fn ml_llr_is_max_log_exact_for_bpsk_siso() {
        let h = CMat::new(1, 1, vec![C64::ONE]);
        let y = [C64::new(0.3, 0.0)];
        let nv = 0.2;
        let dec = detect(DetectorKind::Ml, &h, &y, nv, Modulation::Bpsk).unwrap();
        // min1 = |0.3-1|^2 = 0.49, min0 = |0.3+1|^2 = 1.69;
        // llr = (0.49-1.69)/0.2 = -6.
        assert!(
            (dec[0].llrs[0] + 6.0).abs() < 1e-9,
            "llr {}",
            dec[0].llrs[0]
        );
    }

    #[test]
    fn prepared_detectors_match_one_shot() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let h = well_conditioned_h();
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16] {
            for kind in KINDS {
                let prepared = prepare(kind, &h, 0.07, m).unwrap();
                for _ in 0..30 {
                    let (_, syms) = random_symbols(&mut rng, m, 2);
                    let mut y = h.mul_vec(&syms);
                    for v in &mut y {
                        *v += crandn(&mut rng).scale(0.07f64.sqrt());
                    }
                    let a = detect(kind, &h, &y, 0.07, m).unwrap();
                    let b = prepared.apply(&y);
                    for (da, db) in a.iter().zip(&b) {
                        assert_eq!(da.symbol.re.to_bits(), db.symbol.re.to_bits(), "{kind} {m}");
                        assert_eq!(da.symbol.im.to_bits(), db.symbol.im.to_bits(), "{kind} {m}");
                        let bits = |l: &[f64]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&da.llrs), bits(&db.llrs), "{kind} {m}");
                    }
                }
            }
        }
    }

    #[test]
    fn apply_into_matches_apply() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let h = well_conditioned_h();
        let mut syms = [C64::ZERO; CMat::MAX_DIM];
        let mut llrs = [0.0; CMat::MAX_DIM * 6];
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam64] {
            let bp = m.bits_per_symbol();
            for kind in KINDS {
                let prepared = prepare(kind, &h, 0.09, m).unwrap();
                for _ in 0..20 {
                    let (_, tx) = random_symbols(&mut rng, m, 2);
                    let mut y = h.mul_vec(&tx);
                    for v in &mut y {
                        *v += crandn(&mut rng).scale(0.09f64.sqrt());
                    }
                    let a = prepared.apply(&y);
                    prepared.apply_into(&y, &mut syms[..2], &mut llrs[..2 * bp]);
                    for s in 0..2 {
                        assert_eq!(syms[s], a[s].symbol, "{kind} {m} stream {s}");
                        assert_eq!(
                            &llrs[s * bp..(s + 1) * bp],
                            a[s].llrs.as_slice(),
                            "{kind} {m} stream {s}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn apply_x4_matches_scalar_bit_for_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let h = well_conditioned_h();
        // Three carriers of two streams per slab, detected at carrier 1
        // from FFT bin 5; NaN canaries show any write outside its slots.
        let (n_dc, carrier, bin) = (3, 1, 5);
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ] {
            let bp = m.bits_per_symbol();
            for kind in KINDS {
                let prepared = prepare(kind, &h, 0.11, m).unwrap();
                for _ in 0..10 {
                    let mut bins = vec![[C64::ZERO; FFT_LEN]; 4 * 2];
                    let ys: Vec<Vec<C64>> = (0..4)
                        .map(|lane| {
                            let (_, tx) = random_symbols(&mut rng, m, 2);
                            let mut y = h.mul_vec(&tx);
                            for (r, v) in y.iter_mut().enumerate() {
                                *v += crandn(&mut rng).scale(0.11f64.sqrt());
                                bins[lane * 2 + r][bin] = *v;
                            }
                            y
                        })
                        .collect();
                    let mut syms = vec![C64::new(f64::NAN, f64::NAN); 4 * n_dc * 2];
                    let mut llrs = vec![f64::NAN; 4 * n_dc * 2 * bp];
                    prepared.apply_x4_into(&bins, bin, carrier, &mut syms, &mut llrs);
                    let mut want_syms = [C64::ZERO; CMat::MAX_DIM];
                    let mut want_llrs = [0.0; CMat::MAX_DIM * 6];
                    for lane in 0..4 {
                        prepared.apply_into(
                            &ys[lane],
                            &mut want_syms[..2],
                            &mut want_llrs[..2 * bp],
                        );
                        for s in 0..2 {
                            let got = syms[(lane * n_dc + carrier) * 2 + s];
                            assert_eq!(got, want_syms[s], "{kind} {m} lane {lane}");
                            for b in 0..bp {
                                let got = llrs[(lane * 2 + s) * n_dc * bp + carrier * bp + b];
                                assert_eq!(
                                    got.to_bits(),
                                    want_llrs[s * bp + b].to_bits(),
                                    "{kind} {m} lane {lane} stream {s} bit {b}"
                                );
                            }
                        }
                    }
                    let written = syms.iter().filter(|x| !x.is_nan()).count();
                    assert_eq!(written, 4 * 2, "{kind} {m}: symbol slots written");
                    let written = llrs.iter().filter(|x| !x.is_nan()).count();
                    assert_eq!(written, 4 * 2 * bp, "{kind} {m}: LLR slots written");
                }
            }
        }
    }

    #[test]
    fn prepare_rejects_singular_zf() {
        let h = CMat::new(2, 2, vec![C64::ONE, C64::ONE, C64::ONE, C64::ONE]);
        assert!(matches!(
            prepare(DetectorKind::Zf, &h, 0.1, Modulation::Bpsk),
            Err(DetectError::SingularChannel)
        ));
        assert!(prepare(DetectorKind::Mmse, &h, 0.1, Modulation::Bpsk).is_ok());
    }

    #[test]
    #[should_panic(expected = "one observation per RX antenna")]
    fn wrong_observation_count_panics() {
        let h = well_conditioned_h();
        let _ = detect(DetectorKind::Zf, &h, &[C64::ONE], 0.1, Modulation::Bpsk);
    }
}
