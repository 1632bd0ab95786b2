//! Transmitter and receiver configuration.

use mimonet_detect::DetectorKind;
use mimonet_frame::mcs::{InvalidMcs, Mcs};

/// Transmitter configuration.
#[derive(Clone, Debug)]
pub struct TxConfig {
    /// Modulation and coding scheme (0–15; 8–15 are two-stream).
    pub mcs: Mcs,
    /// 7-bit scrambler seed (nonzero). Real transmitters rotate this per
    /// frame; the receiver recovers it from the SERVICE field either way.
    pub scrambler_seed: u8,
}

impl TxConfig {
    /// Creates a config for `mcs_index` with the default scrambler seed.
    pub fn new(mcs_index: u8) -> Result<Self, InvalidMcs> {
        Ok(Self {
            mcs: Mcs::from_index(mcs_index)?,
            scrambler_seed: 0x5D,
        })
    }
}

/// Receiver configuration.
#[derive(Clone, Debug)]
pub struct RxConfig {
    /// Number of receive antennas.
    pub n_rx: usize,
    /// MIMO detector.
    pub detector: DetectorKind,
    /// Use soft-decision (LLR) Viterbi decoding; hard otherwise.
    pub soft_decoding: bool,
    /// Enable pilot-based phase tracking on data symbols.
    pub pilot_tracking: bool,
    /// Enable L-LTF cross-correlation fine timing. When disabled, the
    /// receiver refines the detector's coarse position with the
    /// MIMO-extended Van de Beek CP metric instead (the paper's
    /// synchronization algorithm).
    pub fine_timing: bool,
    /// Channel-estimate frequency smoothing half-width (0 = off). Only
    /// applied when HT-SIG advertises smoothing.
    pub smoothing: usize,
}

impl RxConfig {
    /// Default receiver: MMSE, soft decoding, tracking and fine timing on.
    pub fn new(n_rx: usize) -> Self {
        assert!(n_rx >= 1, "need at least one RX antenna");
        Self {
            n_rx,
            detector: DetectorKind::Mmse,
            soft_decoding: true,
            pilot_tracking: true,
            fine_timing: true,
            smoothing: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_config_validates_mcs() {
        assert!(TxConfig::new(15).is_ok());
        assert!(TxConfig::new(31).is_ok());
        assert!(TxConfig::new(32).is_err());
    }

    #[test]
    fn rx_defaults() {
        let cfg = RxConfig::new(2);
        assert_eq!(cfg.n_rx, 2);
        assert_eq!(cfg.detector, DetectorKind::Mmse);
        assert!(cfg.soft_decoding && cfg.pilot_tracking && cfg.fine_timing);
        assert_eq!(cfg.smoothing, 0);
    }

    #[test]
    #[should_panic(expected = "at least one RX")]
    fn zero_antennas_rejected() {
        RxConfig::new(0);
    }
}
