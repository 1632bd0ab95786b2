//! Constellation mapping and demapping (gray-coded BPSK / QPSK / 16-QAM /
//! 64-QAM per IEEE 802.11-2012 §18.3.5.8).
//!
//! Mapping consumes bits LSB... wait — bits are consumed in transmission
//! order, first bit = in-phase MSB, per the standard's Table 18-9..18-12.
//! Demapping produces either hard bits or per-bit LLRs
//! (`log P(0) − log P(1)`, positive ⇒ 0); the max-log approximation is used
//! for the LLRs, which is what practical receivers (and gr-ieee802-11) do.

use mimonet_dsp::complex::Complex64;
use mimonet_dsp::simd::F64x4;

/// Modulation order used on data subcarriers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// 1 bit/carrier.
    Bpsk,
    /// 2 bits/carrier.
    Qpsk,
    /// 4 bits/carrier.
    Qam16,
    /// 6 bits/carrier.
    Qam64,
}

impl Modulation {
    /// Coded bits per subcarrier (N_BPSC).
    pub fn bits_per_symbol(self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }

    /// Normalization factor K_MOD so the constellation has unit average
    /// energy.
    pub fn kmod(self) -> f64 {
        match self {
            Modulation::Bpsk => 1.0,
            Modulation::Qpsk => 1.0 / 2f64.sqrt(),
            Modulation::Qam16 => 1.0 / 10f64.sqrt(),
            Modulation::Qam64 => 1.0 / 42f64.sqrt(),
        }
    }

    /// All constellation points, indexed by the integer whose bit `i`
    /// (LSB = first transmitted bit) is the i-th mapped bit.
    pub fn constellation(self) -> Vec<Complex64> {
        let m = self.bits_per_symbol();
        (0..(1usize << m))
            .map(|idx| {
                let bits: Vec<u8> = (0..m).map(|i| ((idx >> i) & 1) as u8).collect();
                self.map_bits(&bits)
            })
            .collect()
    }

    /// Gray map for one axis: `bits` are the per-axis bits in transmission
    /// order, producing amplitudes {±1}, {±1,±3} or {±1,±3,±5,±7}.
    fn axis_level(bits: &[u8]) -> f64 {
        match bits.len() {
            1 => {
                if bits[0] == 0 {
                    -1.0
                } else {
                    1.0
                }
            }
            2 => {
                // Gray: 00→−3, 01→−1, 11→+1, 10→+3
                match (bits[0], bits[1]) {
                    (0, 0) => -3.0,
                    (0, 1) => -1.0,
                    (1, 1) => 1.0,
                    (1, 0) => 3.0,
                    _ => unreachable!(),
                }
            }
            3 => {
                // Gray: 000→−7, 001→−5, 011→−3, 010→−1,
                //       110→+1, 111→+3, 101→+5, 100→+7
                match (bits[0], bits[1], bits[2]) {
                    (0, 0, 0) => -7.0,
                    (0, 0, 1) => -5.0,
                    (0, 1, 1) => -3.0,
                    (0, 1, 0) => -1.0,
                    (1, 1, 0) => 1.0,
                    (1, 1, 1) => 3.0,
                    (1, 0, 1) => 5.0,
                    (1, 0, 0) => 7.0,
                    _ => unreachable!(),
                }
            }
            n => panic!("unsupported axis width {n}"),
        }
    }

    /// Maps `bits_per_symbol` bits (transmission order) to one point.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != self.bits_per_symbol()`.
    pub fn map_bits(self, bits: &[u8]) -> Complex64 {
        assert_eq!(
            bits.len(),
            self.bits_per_symbol(),
            "{self:?} maps {} bits at a time",
            self.bits_per_symbol()
        );
        let k = self.kmod();
        match self {
            Modulation::Bpsk => Complex64::new(Self::axis_level(&bits[..1]) * k, 0.0),
            Modulation::Qpsk => Complex64::new(
                Self::axis_level(&bits[..1]) * k,
                Self::axis_level(&bits[1..2]) * k,
            ),
            Modulation::Qam16 => Complex64::new(
                Self::axis_level(&bits[..2]) * k,
                Self::axis_level(&bits[2..4]) * k,
            ),
            Modulation::Qam64 => Complex64::new(
                Self::axis_level(&bits[..3]) * k,
                Self::axis_level(&bits[3..6]) * k,
            ),
        }
    }

    /// Maps a whole bit stream; length must be a multiple of
    /// `bits_per_symbol`.
    pub fn map(self, bits: &[u8]) -> Vec<Complex64> {
        assert!(
            bits.len().is_multiple_of(self.bits_per_symbol()),
            "bit stream length {} not a multiple of {}",
            bits.len(),
            self.bits_per_symbol()
        );
        bits.chunks(self.bits_per_symbol())
            .map(|c| self.map_bits(c))
            .collect()
    }

    /// Bits carried on the in-phase axis (the rest ride quadrature).
    fn i_axis_bits(self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 1,
            Modulation::Qam16 => 2,
            Modulation::Qam64 => 3,
        }
    }

    /// All levels on one axis of width `w` bits, indexed by the axis bit
    /// pattern (bit i of the index = i-th transmitted bit of that axis),
    /// *unscaled* — multiply by [`Self::kmod`] at the point of use. Static
    /// so the demappers never allocate; the entries are exactly what
    /// [`Self::axis_level`] produces for each index's bit pattern.
    fn axis_levels(w: usize) -> &'static [f64] {
        match w {
            1 => &AXIS_1,
            2 => &AXIS_2,
            3 => &AXIS_3,
            n => panic!("unsupported axis width {n}"),
        }
    }

    /// Hard-decision demapping of one symbol (minimum distance).
    ///
    /// Gray square constellations separate per axis, so this is an
    /// O(sqrt(M)) search rather than O(M).
    pub fn demap_hard(self, y: Complex64) -> Vec<u8> {
        let wi = self.i_axis_bits();
        let wq = self.bits_per_symbol() - wi;
        let k = self.kmod();
        let mut out = Vec::with_capacity(self.bits_per_symbol());
        let nearest = |v: f64, w: usize| -> usize {
            let mut best = 0usize;
            let mut bd = f64::INFINITY;
            for (idx, &lvl0) in Self::axis_levels(w).iter().enumerate() {
                let lvl = lvl0 * k;
                let d = (v - lvl) * (v - lvl);
                if d < bd {
                    bd = d;
                    best = idx;
                }
            }
            best
        };
        let bi = nearest(y.re, wi);
        for i in 0..wi {
            out.push(((bi >> i) & 1) as u8);
        }
        if wq > 0 {
            let bq = nearest(y.im, wq);
            for i in 0..wq {
                out.push(((bq >> i) & 1) as u8);
            }
        }
        out
    }

    /// Hard decision as a constellation point: the nearest transmit symbol
    /// to `y`. Exactly `map_bits(&demap_hard(y))` — the per-axis searches
    /// share `axis_levels`, whose entries match `axis_level` bit for bit —
    /// but without materializing the bit vector, so the per-symbol EVM
    /// accumulation in the RX hot loop never allocates.
    ///
    /// Each axis keeps `demap_hard`'s rule, the first strict minimum in
    /// `axis_levels` order, but over a fixed-size level table and with
    /// selects rather than branches: which level wins follows the noise,
    /// so a branch per level mispredicts often.
    #[inline]
    pub fn decide(self, y: Complex64) -> Complex64 {
        let k = self.kmod();
        match self {
            Modulation::Bpsk => Complex64::new(nearest_level(y.re, &AXIS_1, k), 0.0),
            Modulation::Qpsk => Complex64::new(
                nearest_level(y.re, &AXIS_1, k),
                nearest_level(y.im, &AXIS_1, k),
            ),
            Modulation::Qam16 => Complex64::new(
                nearest_level(y.re, &AXIS_2, k),
                nearest_level(y.im, &AXIS_2, k),
            ),
            Modulation::Qam64 => Complex64::new(
                nearest_level(y.re, &AXIS_3, k),
                nearest_level(y.im, &AXIS_3, k),
            ),
        }
    }

    /// Max-log LLR demapping of one symbol.
    ///
    /// `noise_var` is the complex noise variance N0 on this subcarrier
    /// (after equalization scaling). LLR convention:
    /// `llr = (min_{s: bit=1} |y-s|² − min_{s: bit=0} |y-s|²) / N0`,
    /// so positive values favour bit 0 — the convention
    /// `mimonet_fec::viterbi::decode_soft` expects.
    ///
    /// Because the constellations are gray-coded and square, the joint 2-D
    /// minimization separates per axis: the quadrature term is common to
    /// both hypotheses of an in-phase bit and cancels in the difference,
    /// leaving two O(sqrt(M)) scans. (Exactly equal to the full 2-D
    /// max-log — the tests enforce it.)
    pub fn demap_soft(self, y: Complex64, noise_var: f64) -> Vec<f64> {
        let mut out = vec![0.0; self.bits_per_symbol()];
        self.demap_soft_into(y, noise_var, &mut out);
        out
    }

    /// [`Self::demap_soft`] into a caller-owned slice — the allocation-free
    /// path for the per-carrier RX loop. Produces bit-identical LLRs.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.bits_per_symbol()`.
    pub fn demap_soft_into(self, y: Complex64, noise_var: f64, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            self.bits_per_symbol(),
            "{self:?} demaps {} LLRs at a time",
            self.bits_per_symbol()
        );
        let nv = noise_var.max(1e-12);
        let wi = self.i_axis_bits();
        let wq = self.bits_per_symbol() - wi;
        let k = self.kmod();
        let axis_llrs = |v: f64, w: usize, out: &mut [f64]| {
            let levels = Self::axis_levels(w);
            for (bit, llr) in out.iter_mut().enumerate().take(w) {
                let mut d0 = f64::INFINITY;
                let mut d1 = f64::INFINITY;
                for (idx, &lvl0) in levels.iter().enumerate() {
                    let lvl = lvl0 * k;
                    let d = (v - lvl) * (v - lvl);
                    if (idx >> bit) & 1 == 0 {
                        d0 = d0.min(d);
                    } else {
                        d1 = d1.min(d);
                    }
                }
                *llr = (d1 - d0) / nv;
            }
        };
        axis_llrs(y.re, wi, &mut out[..wi]);
        if wq > 0 {
            axis_llrs(y.im, wq, &mut out[wi..]);
        }
    }

    /// [`Self::demap_soft_into`] for four symbols at once, one per SIMD
    /// lane, written straight into four rows of a caller's LLR slab: lane
    /// `l`'s LLRs go to `out[at + l * lane_stride..][..bits_per_symbol]`.
    /// All four share `noise_var` (they come from the same prepared
    /// carrier), and each lane runs the exact scalar operation sequence —
    /// same squared distances, same `f64::min` scan over the axis levels,
    /// same final division — so every lane's LLRs are bit-identical to a
    /// scalar [`Self::demap_soft_into`] call on that symbol.
    ///
    /// # Panics
    ///
    /// Panics if the rows overlap (`lane_stride < bits_per_symbol`) or the
    /// last one runs past the end of `out`.
    #[inline]
    pub fn demap_soft_x4_into(
        self,
        ys: [Complex64; 4],
        noise_var: f64,
        out: &mut [f64],
        at: usize,
        lane_stride: usize,
    ) {
        let bits = self.bits_per_symbol();
        assert!(
            lane_stride >= bits && at + 3 * lane_stride + bits <= out.len(),
            "{self:?} demaps {bits} LLRs per lane: rows {lane_stride} apart from {at} \
             do not fit a slab of {}",
            out.len()
        );
        let nv = F64x4::splat(noise_var.max(1e-12));
        let k = self.kmod();
        let re = F64x4([ys[0].re, ys[1].re, ys[2].re, ys[3].re]);
        let im = F64x4([ys[0].im, ys[1].im, ys[2].im, ys[3].im]);
        let rows = |llrs: &[F64x4], out: &mut [f64]| {
            for (lane, row) in out[at..].chunks_mut(lane_stride).take(4).enumerate() {
                for (slot, llr) in row[..llrs.len()].iter_mut().zip(llrs) {
                    *slot = llr.lane(lane);
                }
            }
        };
        match self {
            Modulation::Bpsk => {
                let mut llrs = [F64x4::ZERO; 1];
                axis_llrs_x4(re, &AXIS_1, k, nv, &mut llrs);
                rows(&llrs, out);
            }
            Modulation::Qpsk => {
                let mut llrs = [F64x4::ZERO; 2];
                let (i, q) = llrs.split_at_mut(1);
                axis_llrs_x4(re, &AXIS_1, k, nv, i);
                axis_llrs_x4(im, &AXIS_1, k, nv, q);
                rows(&llrs, out);
            }
            Modulation::Qam16 => {
                let mut llrs = [F64x4::ZERO; 4];
                let (i, q) = llrs.split_at_mut(2);
                axis_llrs_x4(re, &AXIS_2, k, nv, i);
                axis_llrs_x4(im, &AXIS_2, k, nv, q);
                rows(&llrs, out);
            }
            Modulation::Qam64 => {
                let mut llrs = [F64x4::ZERO; 6];
                let (i, q) = llrs.split_at_mut(3);
                axis_llrs_x4(re, &AXIS_3, k, nv, i);
                axis_llrs_x4(im, &AXIS_3, k, nv, q);
                rows(&llrs, out);
            }
        }
    }
}

/// Gray axis levels of widths 1, 2 and 3 bits, unscaled, in
/// [`Modulation::axis_levels`] order.
const AXIS_1: [f64; 2] = [-1.0, 1.0];
const AXIS_2: [f64; 4] = [-3.0, 3.0, -1.0, 1.0];
const AXIS_3: [f64; 8] = [-7.0, 7.0, -1.0, 1.0, -5.0, 5.0, -3.0, 3.0];

/// [`Modulation::decide`]'s search on one axis: the first level (scaled
/// by `k`) at strictly the smallest squared distance from `v`, taken
/// with selects.
#[inline(always)]
fn nearest_level<const N: usize>(v: f64, levels: &[f64; N], k: f64) -> f64 {
    let mut best = 0.0;
    let mut bd = f64::INFINITY;
    for &lvl0 in levels {
        let lvl = lvl0 * k;
        let d = (v - lvl) * (v - lvl);
        let closer = d < bd;
        best = if closer { lvl } else { best };
        bd = if closer { d } else { bd };
    }
    best
}

/// One axis of [`Modulation::demap_soft_x4_into`]: the max-log LLRs of
/// the `log2(N)` bits on that axis into `llrs[bit]`, one lane per symbol.
/// The squared distances are a pure function of (v, level), so computing
/// each one once and re-scanning per bit feeds every `min` the exact
/// values the scalar per-bit recomputation produces — bit-identical, at a
/// fraction of the multiplies.
#[inline(always)]
fn axis_llrs_x4<const N: usize>(
    v: F64x4,
    levels: &[f64; N],
    k: f64,
    nv: F64x4,
    llrs: &mut [F64x4],
) {
    let ds: [F64x4; N] = std::array::from_fn(|idx| {
        let diff = v - F64x4::splat(levels[idx] * k);
        diff * diff
    });
    for (bit, llr) in llrs.iter_mut().enumerate() {
        let mut d0 = F64x4::splat(f64::INFINITY);
        let mut d1 = F64x4::splat(f64::INFINITY);
        for (idx, &d) in ds.iter().enumerate() {
            if (idx >> bit) & 1 == 0 {
                d0 = d0.min(d);
            } else {
                d1 = d1.min(d);
            }
        }
        *llr = (d1 - d0) / nv;
    }
}

impl std::fmt::Display for Modulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Modulation::Bpsk => write!(f, "BPSK"),
            Modulation::Qpsk => write!(f, "QPSK"),
            Modulation::Qam16 => write!(f, "16-QAM"),
            Modulation::Qam64 => write!(f, "64-QAM"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimonet_dsp::complex::C64;

    const ALL: [Modulation; 4] = [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
    ];

    #[test]
    fn decide_matches_demap_then_map() {
        for m in ALL {
            let mut x = 0x1234_5678_9ABC_DEF0u64;
            for _ in 0..500 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let re = ((x & 0xFFFF) as f64 / 65535.0 - 0.5) * 4.0;
                let im = (((x >> 16) & 0xFFFF) as f64 / 65535.0 - 0.5) * 4.0;
                let y = C64::new(re, im);
                let via_bits = m.map_bits(&m.demap_hard(y));
                assert_eq!(m.decide(y), via_bits, "{m:?} at {y:?}");
            }
        }
    }

    fn prbs(len: usize, mut x: u64) -> Vec<u8> {
        x |= 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x & 1) as u8
            })
            .collect()
    }

    #[test]
    fn constellations_have_unit_average_energy() {
        for m in ALL {
            let pts = m.constellation();
            assert_eq!(pts.len(), 1 << m.bits_per_symbol());
            let avg: f64 = pts.iter().map(|p| p.norm_sqr()).sum::<f64>() / pts.len() as f64;
            assert!((avg - 1.0).abs() < 1e-12, "{m}: avg energy {avg}");
        }
    }

    #[test]
    fn constellation_points_are_distinct() {
        for m in ALL {
            let pts = m.constellation();
            for i in 0..pts.len() {
                for j in (i + 1)..pts.len() {
                    assert!(pts[i].dist(pts[j]) > 1e-9, "{m}: {i} and {j} coincide");
                }
            }
        }
    }

    #[test]
    fn gray_coding_neighbors_differ_by_one_bit() {
        // Along each axis, adjacent amplitude levels must differ in exactly
        // one bit — check via 16-QAM rows.
        let m = Modulation::Qam16;
        let pts = m.constellation();
        let k = m.kmod();
        // Collect (I level, index) for points with the same Q bits (=0b00).
        let mut row: Vec<(f64, usize)> = (0..16)
            .filter(|i| (i >> 2) & 0b11 == 0)
            .map(|i| (pts[i].re / k, i))
            .collect();
        row.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in row.windows(2) {
            let diff = (w[0].1 ^ w[1].1).count_ones();
            assert_eq!(diff, 1, "adjacent I levels differ by {diff} bits");
        }
    }

    #[test]
    fn known_bpsk_and_qpsk_points() {
        assert_eq!(Modulation::Bpsk.map_bits(&[0]), C64::new(-1.0, 0.0));
        assert_eq!(Modulation::Bpsk.map_bits(&[1]), C64::new(1.0, 0.0));
        let s = 1.0 / 2f64.sqrt();
        assert!(Modulation::Qpsk.map_bits(&[1, 1]).dist(C64::new(s, s)) < 1e-12);
        assert!(Modulation::Qpsk.map_bits(&[0, 0]).dist(C64::new(-s, -s)) < 1e-12);
    }

    #[test]
    fn known_64qam_extremes() {
        let k = 1.0 / 42f64.sqrt();
        // bits (1,0,0) on I → +7, (1,0,0) on Q → +7
        let p = Modulation::Qam64.map_bits(&[1, 0, 0, 1, 0, 0]);
        assert!(p.dist(C64::new(7.0 * k, 7.0 * k)) < 1e-12);
    }

    #[test]
    fn hard_demap_roundtrip_noiseless() {
        for m in ALL {
            let bits = prbs(m.bits_per_symbol() * 64, 3);
            for chunk in bits.chunks(m.bits_per_symbol()) {
                let y = m.map_bits(chunk);
                assert_eq!(m.demap_hard(y), chunk, "{m}");
            }
        }
    }

    #[test]
    fn hard_demap_tolerates_small_noise() {
        for m in ALL {
            let bits = prbs(m.bits_per_symbol() * 32, 11);
            // Perturbation well inside half the minimum distance.
            let eps = match m {
                Modulation::Bpsk => 0.4,
                Modulation::Qpsk => 0.25,
                Modulation::Qam16 => 0.1,
                Modulation::Qam64 => 0.05,
            };
            for (i, chunk) in bits.chunks(m.bits_per_symbol()).enumerate() {
                let y = m.map_bits(chunk) + C64::new(eps * ((i % 3) as f64 - 1.0), eps * 0.7);
                assert_eq!(m.demap_hard(y), chunk, "{m} sym {i}");
            }
        }
    }

    #[test]
    fn soft_demap_sign_matches_hard_decision() {
        for m in ALL {
            let bits = prbs(m.bits_per_symbol() * 32, 21);
            for chunk in bits.chunks(m.bits_per_symbol()) {
                let y = m.map_bits(chunk);
                let llrs = m.demap_soft(y, 0.1);
                for (b, l) in chunk.iter().zip(&llrs) {
                    // bit 0 ⇒ positive LLR.
                    assert!((*b == 0) == (*l > 0.0), "{m}: bit {b} got LLR {l}");
                }
            }
        }
    }

    #[test]
    fn soft_demap_scales_inversely_with_noise() {
        let m = Modulation::Qpsk;
        let y = m.map_bits(&[1, 0]);
        let l1 = m.demap_soft(y, 0.1);
        let l2 = m.demap_soft(y, 0.2);
        for (a, b) in l1.iter().zip(&l2) {
            assert!((a / b - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn soft_demap_ambiguous_point_gives_zero_llr() {
        // Exactly between BPSK points.
        let l = Modulation::Bpsk.demap_soft(C64::ZERO, 1.0);
        assert!(l[0].abs() < 1e-12);
    }

    #[test]
    fn axis_demap_equals_exhaustive_2d_maxlog() {
        // The per-axis shortcut must reproduce the full 2-D max-log LLRs
        // exactly, for arbitrary received points.
        for m in ALL {
            let points = m.constellation();
            let nb = m.bits_per_symbol();
            for t in 0..200 {
                let y = C64::new(
                    ((t * 37) % 41) as f64 / 10.0 - 2.0,
                    ((t * 53) % 47) as f64 / 12.0 - 2.0,
                );
                let nv = 0.17;
                let fast = m.demap_soft(y, nv);
                // Reference: brute force over the full constellation.
                #[allow(clippy::needless_range_loop)] // bit doubles as a shift count
                for bit in 0..nb {
                    let mut d0 = f64::INFINITY;
                    let mut d1 = f64::INFINITY;
                    for (idx, &s) in points.iter().enumerate() {
                        let d = y.dist_sqr(s);
                        if (idx >> bit) & 1 == 0 {
                            d0 = d0.min(d);
                        } else {
                            d1 = d1.min(d);
                        }
                    }
                    let want = (d1 - d0) / nv;
                    assert!(
                        (fast[bit] - want).abs() <= 1e-9 * (1.0 + want.abs()),
                        "{m} bit {bit}: fast {} vs exhaustive {want}",
                        fast[bit]
                    );
                }
                // Hard decisions must also agree with nearest-point search.
                let hard = m.demap_hard(y);
                let best = points
                    .iter()
                    .enumerate()
                    .min_by(|a, b| y.dist_sqr(*a.1).partial_cmp(&y.dist_sqr(*b.1)).unwrap())
                    .map(|(i, _)| i)
                    .unwrap();
                let want_bits: Vec<u8> = (0..nb).map(|i| ((best >> i) & 1) as u8).collect();
                assert_eq!(hard, want_bits, "{m} at {y:?}");
            }
        }
    }

    #[test]
    fn static_axis_levels_match_gray_map() {
        for w in 1..=3usize {
            let levels = Modulation::axis_levels(w);
            assert_eq!(levels.len(), 1 << w);
            for (idx, &lvl) in levels.iter().enumerate() {
                let bits: Vec<u8> = (0..w).map(|i| ((idx >> i) & 1) as u8).collect();
                assert_eq!(lvl, Modulation::axis_level(&bits), "w={w} idx={idx}");
            }
        }
    }

    #[test]
    fn demap_soft_into_matches_and_reuses() {
        let mut buf = [0.0; 6];
        for m in ALL {
            let nb = m.bits_per_symbol();
            for t in 0..50 {
                let y = C64::new(
                    ((t * 31) % 23) as f64 / 8.0 - 1.5,
                    ((t * 17) % 29) as f64 / 9.0 - 1.5,
                );
                let fresh = m.demap_soft(y, 0.21);
                m.demap_soft_into(y, 0.21, &mut buf[..nb]);
                assert_eq!(&buf[..nb], fresh.as_slice(), "{m} t={t}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "demaps")]
    fn demap_soft_into_wrong_length_panics() {
        Modulation::Qpsk.demap_soft_into(C64::ZERO, 0.1, &mut [0.0; 3]);
    }

    #[test]
    fn demap_x4_matches_scalar_bit_for_bit() {
        for m in ALL {
            let nb = m.bits_per_symbol();
            for t in 0..40 {
                let ys: [C64; 4] = std::array::from_fn(|lane| {
                    let s = t * 4 + lane;
                    C64::new(
                        ((s * 31 + 7) % 53) as f64 / 11.0 - 2.3,
                        ((s * 17 + 3) % 47) as f64 / 9.0 - 2.6,
                    )
                });
                for nv in [0.0, 1e-13, 0.21, 3.7] {
                    // Rows 9 apart from offset 2, so a write to the wrong
                    // row or offset lands on a NaN canary or misses.
                    let mut slab = [f64::NAN; 2 + 3 * 9 + 6];
                    m.demap_soft_x4_into(ys, nv, &mut slab, 2, 9);
                    for lane in 0..4 {
                        let got = &slab[2 + lane * 9..][..nb];
                        let mut want = [0.0; 6];
                        m.demap_soft_into(ys[lane], nv, &mut want[..nb]);
                        for b in 0..nb {
                            assert!(
                                got[b].to_bits() == want[b].to_bits(),
                                "{m} t={t} lane={lane} bit={b}: {} vs {}",
                                got[b],
                                want[b]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "demaps")]
    fn demap_x4_wrong_length_panics() {
        // Four 6-LLR rows 6 apart need 24 slots.
        Modulation::Qam64.demap_soft_x4_into([C64::ZERO; 4], 0.1, &mut [0.0; 23], 0, 6);
    }

    #[test]
    fn map_block_length_check() {
        let m = Modulation::Qam16;
        assert_eq!(m.map(&prbs(64, 1)).len(), 16);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn map_rejects_ragged_stream() {
        Modulation::Qam64.map(&[1, 0, 1]);
    }
}
