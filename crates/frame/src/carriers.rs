//! OFDM subcarrier layout for the 20 MHz 802.11 channelization.
//!
//! Both the legacy (802.11a) and HT (802.11n) mixed-format layouts use a
//! 64-point FFT with a 16-sample cyclic prefix. Subcarriers are indexed by
//! *logical* frequency `-32..=31`; index 0 is DC and is always null.
//!
//! | format | data carriers | pilots | occupied |
//! |--------|---------------|--------|----------|
//! | legacy | 48            | ±7, ±21| −26..26  |
//! | HT     | 52            | ±7, ±21| −28..28  |

/// FFT size of the 20 MHz channelization.
pub const FFT_LEN: usize = 64;
/// Cyclic-prefix length (0.8 µs at 20 Msps).
pub const CP_LEN: usize = 16;
/// Total samples per OFDM symbol including the cyclic prefix.
pub const SYM_LEN: usize = FFT_LEN + CP_LEN;

/// Pilot subcarrier positions (logical indices), common to both formats.
pub const PILOT_CARRIERS: [i32; 4] = [-21, -7, 7, 21];

/// Number of data carriers in the legacy format.
pub const LEGACY_DATA_CARRIERS: usize = 48;
/// Number of data carriers in the HT format.
pub const HT_DATA_CARRIERS: usize = 52;

/// Subcarrier layout descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// 802.11a legacy: occupied −26..26.
    Legacy,
    /// 802.11n HT 20 MHz: occupied −28..28.
    Ht,
}

impl Layout {
    /// The highest occupied |subcarrier| index.
    pub fn edge(self) -> i32 {
        match self {
            Layout::Legacy => 26,
            Layout::Ht => 28,
        }
    }

    /// Data subcarrier logical indices in increasing frequency order
    /// (pilots and DC excluded). Static — call sites never allocate.
    pub fn data_carriers(self) -> &'static [i32] {
        match self {
            Layout::Legacy => &LEGACY_DATA_TABLE,
            Layout::Ht => &HT_DATA_TABLE,
        }
    }
}

/// Builds a data-carrier table at compile time: every index in
/// `-edge..=edge` except DC and the four pilots. `PILOT_CARRIERS` is
/// restated inline because slice `contains` is not const; the test
/// `data_carriers_match_filter_formula` pins the two definitions together.
const fn build_data_carriers<const N: usize>(edge: i32) -> [i32; N] {
    let mut out = [0i32; N];
    let mut k = -edge;
    let mut i = 0;
    while k <= edge {
        if k != 0 && k != -21 && k != -7 && k != 7 && k != 21 {
            out[i] = k;
            i += 1;
        }
        k += 1;
    }
    assert!(i == N, "carrier count mismatch");
    out
}

static LEGACY_DATA_TABLE: [i32; LEGACY_DATA_CARRIERS] = build_data_carriers(26);
static HT_DATA_TABLE: [i32; HT_DATA_CARRIERS] = build_data_carriers(28);

/// Maps a logical subcarrier index (−32..=31) to its FFT bin (0..=63).
/// Negative frequencies occupy the upper half of the FFT input.
pub fn carrier_to_bin(k: i32) -> usize {
    debug_assert!((-(FFT_LEN as i32) / 2..FFT_LEN as i32 / 2).contains(&k));
    k.rem_euclid(FFT_LEN as i32) as usize
}

/// Inverse of [`carrier_to_bin`]: maps an FFT bin to the logical index.
pub fn bin_to_carrier(bin: usize) -> i32 {
    debug_assert!(bin < FFT_LEN);
    if bin < FFT_LEN / 2 {
        bin as i32
    } else {
        bin as i32 - FFT_LEN as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_carrier_counts() {
        assert_eq!(Layout::Legacy.data_carriers().len(), 48);
        assert_eq!(Layout::Ht.data_carriers().len(), 52);
    }

    #[test]
    fn data_carriers_exclude_pilots_and_dc() {
        for layout in [Layout::Legacy, Layout::Ht] {
            let dc = layout.data_carriers();
            assert!(!dc.contains(&0));
            for p in PILOT_CARRIERS {
                assert!(!dc.contains(&p));
            }
            assert!(dc.windows(2).all(|w| w[0] < w[1]), "sorted ascending");
        }
    }

    #[test]
    fn data_carriers_match_filter_formula() {
        for layout in [Layout::Legacy, Layout::Ht] {
            let edge = layout.edge();
            let want: Vec<i32> = (-edge..=edge)
                .filter(|&k| k != 0 && !PILOT_CARRIERS.contains(&k))
                .collect();
            assert_eq!(layout.data_carriers(), want.as_slice());
        }
    }

    #[test]
    fn bin_mapping_roundtrip() {
        for k in -32..32 {
            let bin = carrier_to_bin(k);
            assert!(bin < FFT_LEN);
            assert_eq!(bin_to_carrier(bin), k);
        }
    }

    #[test]
    fn bin_mapping_known_points() {
        assert_eq!(carrier_to_bin(0), 0);
        assert_eq!(carrier_to_bin(1), 1);
        assert_eq!(carrier_to_bin(-1), 63);
        assert_eq!(carrier_to_bin(-26), 38);
        assert_eq!(carrier_to_bin(26), 26);
    }

    #[test]
    fn symbol_timing_constants() {
        assert_eq!(SYM_LEN, 80);
        assert_eq!(FFT_LEN, 64);
        assert_eq!(CP_LEN, 16);
    }
}
