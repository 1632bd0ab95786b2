//! Per-OFDM-symbol block interleaver (802.11a §18.3.5.7, extended with the
//! 802.11n per-spatial-stream frequency rotation of §20.3.11.8.2).
//!
//! The interleaver operates on one OFDM symbol's worth of coded bits per
//! spatial stream (`n_cbpss` bits). Two permutations are applied:
//!
//! 1. adjacent coded bits map onto non-adjacent subcarriers
//!    (row/column write/read over 16 columns — 13 in our 52-carrier HT
//!    configuration per the standard's `N_COL` table; we parameterize), and
//! 2. adjacent coded bits alternate between more and less significant
//!    constellation bit positions.
//!
//! For the second and later spatial streams, 802.11n adds a frequency
//! *rotation* so the same coded bit never rides the same subcarrier on two
//! streams — this is what gives spatial multiplexing its interleaving
//! diversity. We implement the standard's third permutation with
//! `N_ROT = 11` base rotation.

/// Interleaver configuration for one spatial stream of one OFDM symbol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interleaver {
    /// Coded bits per symbol per spatial stream.
    n_cbpss: usize,
    /// Coded bits per subcarrier (1, 2, 4, 6 for BPSK..64-QAM).
    n_bpsc: usize,
    /// Number of interleaver columns (16 for legacy 48-carrier symbols,
    /// 13 for HT 52-carrier symbols).
    n_col: usize,
    /// Index of this spatial stream (0-based) for the frequency rotation.
    stream: usize,
    /// Total number of spatial streams.
    n_streams: usize,
}

impl Interleaver {
    /// Creates an interleaver.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (`n_cbpss` not divisible by
    /// `n_bpsc * n_col`, zero sizes, or `stream >= n_streams`).
    pub fn new(
        n_cbpss: usize,
        n_bpsc: usize,
        n_col: usize,
        stream: usize,
        n_streams: usize,
    ) -> Self {
        assert!(
            n_cbpss > 0 && n_bpsc > 0 && n_col > 0,
            "zero-size interleaver"
        );
        assert!(
            n_cbpss.is_multiple_of(n_bpsc * n_col),
            "N_CBPSS {n_cbpss} must be a multiple of N_BPSC {n_bpsc} * N_COL {n_col}"
        );
        assert!(
            stream < n_streams,
            "stream {stream} out of range (of {n_streams})"
        );
        Self {
            n_cbpss,
            n_bpsc,
            n_col,
            stream,
            n_streams,
        }
    }

    /// Legacy 802.11a geometry: 48 data carriers, 16 columns, single stream.
    pub fn legacy(n_cbps: usize, n_bpsc: usize) -> Self {
        Self::new(n_cbps, n_bpsc, 16, 0, 1)
    }

    /// HT (802.11n, 20 MHz) geometry: 52 data carriers, 13 columns.
    pub fn ht(n_cbpss: usize, n_bpsc: usize, stream: usize, n_streams: usize) -> Self {
        Self::new(n_cbpss, n_bpsc, 13, stream, n_streams)
    }

    /// Number of bits this interleaver permutes.
    pub fn len(&self) -> usize {
        self.n_cbpss
    }

    /// Always false (constructor enforces nonzero length).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The whole permutation as a lookup table, computed once from the
    /// closed form: `table[k]` is the interleaved position of input bit
    /// `k`, so interleaving writes `out[table[k]] = bits[k]` and
    /// deinterleaving reads `out[k] = bits[table[k]]`. Hot loops build
    /// this once per geometry and index it instead of re-deriving every
    /// position with integer divisions.
    pub fn table(&self) -> Vec<u32> {
        (0..self.n_cbpss)
            .map(|k| self.map_index(k) as u32)
            .collect()
    }

    /// Maps input bit index `k` to its interleaved position.
    fn map_index(&self, k: usize) -> usize {
        let n = self.n_cbpss;
        let ncol = self.n_col;
        let nrow = n / ncol;
        let s = (self.n_bpsc / 2).max(1);

        // First permutation: write row-wise, read column-wise.
        let i = nrow * (k % ncol) + k / ncol;
        // Second permutation: rotate within groups of s across the symbol.
        let j = s * (i / s) + (i + n - (ncol * i) / n) % s;
        // Third permutation (HT frequency rotation) for streams > 0:
        // rotate by J(iss) = ((iss*2) mod 3 + 3*floor(iss/3)) * N_ROT * N_BPSC.
        if self.n_streams > 1 {
            let nrot = 11usize; // 20 MHz value from the standard
            let iss = self.stream;
            let j_iss = ((iss * 2) % 3 + 3 * (iss / 3)) * nrot * self.n_bpsc;
            (j + n - j_iss % n) % n
        } else {
            j
        }
    }

    /// Interleaves one symbol's worth of bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != self.len()`.
    pub fn interleave(&self, bits: &[u8]) -> Vec<u8> {
        assert_eq!(
            bits.len(),
            self.n_cbpss,
            "interleaver expects exactly one symbol"
        );
        let mut out = vec![0u8; self.n_cbpss];
        for (k, &b) in bits.iter().enumerate() {
            out[self.map_index(k)] = b;
        }
        out
    }

    /// Inverse permutation.
    pub fn deinterleave(&self, bits: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; self.n_cbpss];
        self.deinterleave_into(bits, &mut out);
        out
    }

    /// Inverse permutation written into a caller-owned slice — the
    /// allocation-free path for the legacy-symbol header decode.
    ///
    /// # Panics
    ///
    /// Panics if either slice length differs from `self.len()`.
    pub fn deinterleave_into(&self, bits: &[u8], out: &mut [u8]) {
        assert_eq!(
            bits.len(),
            self.n_cbpss,
            "deinterleaver expects exactly one symbol"
        );
        assert_eq!(
            out.len(),
            self.n_cbpss,
            "deinterleaver output must be exactly one symbol"
        );
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = bits[self.map_index(k)];
        }
    }

    /// Inverse permutation over soft values (LLRs).
    pub fn deinterleave_soft(&self, llrs: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n_cbpss];
        self.deinterleave_soft_into(llrs, &mut out);
        out
    }

    /// Inverse permutation over soft values written into a caller-owned
    /// slice — the allocation-free path for the per-symbol RX loop.
    ///
    /// # Panics
    ///
    /// Panics if either slice length differs from `self.len()`.
    pub fn deinterleave_soft_into(&self, llrs: &[f64], out: &mut [f64]) {
        assert_eq!(
            llrs.len(),
            self.n_cbpss,
            "deinterleaver expects exactly one symbol"
        );
        assert_eq!(
            out.len(),
            self.n_cbpss,
            "deinterleaver output must be exactly one symbol"
        );
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = llrs[self.map_index(k)];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn mapping_is_a_permutation() {
        for (ncbpss, nbpsc, ncol, ns) in [
            (48usize, 1usize, 16usize, 1usize), // legacy BPSK
            (96, 2, 16, 1),                     // legacy QPSK
            (192, 4, 16, 1),                    // legacy 16-QAM
            (288, 6, 16, 1),                    // legacy 64-QAM
            (52, 1, 13, 2),                     // HT BPSK 2 streams
            (104, 2, 13, 2),                    // HT QPSK
            (208, 4, 13, 2),
            (312, 6, 13, 2),
        ] {
            for stream in 0..ns {
                let il = Interleaver::new(ncbpss, nbpsc, ncol, stream, ns);
                let mut seen = vec![false; ncbpss];
                for k in 0..ncbpss {
                    let m = il.map_index(k);
                    assert!(m < ncbpss);
                    assert!(
                        !seen[m],
                        "collision at {m} (ncbpss={ncbpss}, stream={stream})"
                    );
                    seen[m] = true;
                }
            }
        }
    }

    #[test]
    fn tables_equal_the_closed_form_for_every_geometry() {
        let mut geometries = Vec::new();
        for n_bpsc in [1usize, 2, 4, 6] {
            geometries.push(Interleaver::legacy(48 * n_bpsc, n_bpsc));
            for n_ss in [1usize, 2] {
                for stream in 0..n_ss {
                    geometries.push(Interleaver::ht(52 * n_bpsc, n_bpsc, stream, n_ss));
                }
            }
        }
        for il in geometries {
            let table = il.table();
            assert_eq!(table.len(), il.len(), "{il:?}");
            let mut seen = vec![false; il.len()];
            for (k, &t) in table.iter().enumerate() {
                assert_eq!(t as usize, il.map_index(k), "{il:?} bit {k}");
                assert!(!seen[t as usize], "{il:?}: {t} hit twice");
                seen[t as usize] = true;
            }
        }
    }

    #[test]
    fn roundtrip_all_geometries() {
        for (ncbpss, nbpsc) in [(52usize, 1usize), (104, 2), (208, 4), (312, 6)] {
            for stream in 0..2 {
                let il = Interleaver::ht(ncbpss, nbpsc, stream, 2);
                let bits = prbs(ncbpss, 0xABCD + stream as u64);
                assert_eq!(il.deinterleave(&il.interleave(&bits)), bits);
            }
        }
    }

    #[test]
    fn soft_roundtrip_matches_hard() {
        let il = Interleaver::ht(104, 2, 1, 2);
        let bits = prbs(104, 33);
        let interleaved = il.interleave(&bits);
        let soft: Vec<f64> = interleaved
            .iter()
            .map(|&b| if b == 0 { 1.0 } else { -1.0 })
            .collect();
        let de = il.deinterleave_soft(&soft);
        for (b, l) in bits.iter().zip(&de) {
            assert_eq!(*b == 0, *l > 0.0);
        }
    }

    #[test]
    fn adjacent_bits_separate_onto_distant_carriers() {
        // The whole point of the first permutation: consecutive coded bits
        // must land at least N_ROW/2 positions apart for BPSK.
        let il = Interleaver::legacy(48, 1);
        for k in 0..47 {
            let d = (il.map_index(k) as isize - il.map_index(k + 1) as isize).unsigned_abs();
            assert!(d >= 3, "bits {k},{} land {d} apart", k + 1);
        }
    }

    #[test]
    fn known_legacy_bpsk_mapping() {
        // 802.11a BPSK: s=1, so permutation reduces to the row/column map
        // i = 3*(k mod 16) + floor(k/16).
        let il = Interleaver::legacy(48, 1);
        for k in 0..48 {
            assert_eq!(il.map_index(k), 3 * (k % 16) + k / 16);
        }
    }

    #[test]
    fn streams_get_distinct_mappings() {
        let il0 = Interleaver::ht(104, 2, 0, 2);
        let il1 = Interleaver::ht(104, 2, 1, 2);
        let differing = (0..104)
            .filter(|&k| il0.map_index(k) != il1.map_index(k))
            .count();
        assert_eq!(differing, 104, "rotation must move every bit");
        // And the offset should be the standard's 2*11*N_BPSC rotation.
        let delta = (il0.map_index(0) as isize - il1.map_index(0) as isize).rem_euclid(104);
        assert_eq!(delta as usize, 44); // J(1) = 2 * N_ROT * N_BPSC = 2*11*2
    }

    #[test]
    #[should_panic(expected = "exactly one symbol")]
    fn wrong_length_panics() {
        Interleaver::legacy(48, 1).interleave(&[0; 47]);
    }

    #[test]
    #[should_panic(expected = "multiple of")]
    fn inconsistent_geometry_panics() {
        Interleaver::new(50, 1, 16, 0, 1);
    }
}
