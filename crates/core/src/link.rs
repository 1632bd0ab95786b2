//! Monte-Carlo link-level simulator: seeded TX → channel → RX loops with
//! full BER/PER/SNR/sync-accuracy instrumentation. Every figure in
//! EXPERIMENTS.md is a sweep over [`LinkSim`] runs.

use crate::burst::{self, BurstScratch};
use crate::config::{RxConfig, TxConfig};
use crate::metrics::{BerCounter, PerCounter, RecoveryCounter};
use crate::rx::{Receiver, RxError, TIMING_BACKOFF};
use crate::telemetry::{FrameOutcomes, StageProfile};
use crate::tx::Transmitter;
use mimonet_channel::{ChannelConfig, ChannelSim};
use mimonet_dsp::complex::Complex64;
use mimonet_dsp::stats::{Merge, Running};
use mimonet_frame::psdu::Mpdu;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Link simulation configuration.
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// MCS index (0–15).
    pub mcs: u8,
    /// MAC payload size in octets (PSDU adds 22 octets of header + FCS).
    pub payload_len: usize,
    /// Channel between the radios.
    pub channel: ChannelConfig,
    /// Receiver settings.
    pub rx: RxConfig,
}

impl LinkConfig {
    /// A sensible default link: given MCS over the given channel, default
    /// receiver sized to the MCS's stream count (or the channel's RX
    /// count, whichever is larger).
    pub fn new(mcs: u8, payload_len: usize, channel: ChannelConfig) -> Self {
        let rx = RxConfig::new(channel.n_rx);
        Self {
            mcs,
            payload_len,
            channel,
            rx,
        }
    }
}

/// Aggregated statistics from a batch of frames.
#[derive(Clone, Debug, Default)]
pub struct LinkStats {
    /// Packet delivery with failure attribution.
    pub per: PerCounter,
    /// Post-FEC BER over the payloads of frames whose PSDU decoded with
    /// the right length (including FCS failures — that's where the
    /// residual errors live).
    pub payload_ber: BerCounter,
    /// Pre-FEC (coded-stream) BER over the same frames — the "uncoded"
    /// curve of experiment F6.
    pub coded_ber: BerCounter,
    /// Preamble SNR estimates (dB).
    pub snr_est_db: Running,
    /// EVM-derived SNR estimates (dB).
    pub evm_snr_db: Running,
    /// CFO estimation error (estimate − truth), subcarrier spacings.
    pub cfo_error: Running,
    /// Timing estimation error in samples (flat channels only; multipath
    /// makes "true" timing ambiguous).
    pub timing_error: Running,
    /// Fault-injection and recovery accounting. Stays all-zero for
    /// ordinary (fault-free) links; populated by the chaos harness.
    pub recovery: RecoveryCounter,
    /// Per-frame outcome taxonomy: every frame lands in exactly one
    /// terminal class, so `outcomes.total() == per.sent()` and loss is
    /// attributable to a named RX stage. Counts only — deterministic.
    pub outcomes: FrameOutcomes,
}

/// Folds another batch's statistics into this one. Merging batches in a
/// fixed order is exactly equivalent to accumulating the underlying
/// frames in that order (counters add; moment stats use the parallel
/// Welford combination), which is what makes sharded parallel sweeps
/// bit-reproducible.
impl Merge for LinkStats {
    fn merge(&mut self, other: &Self) {
        self.per.merge(&other.per);
        self.payload_ber.merge(&other.payload_ber);
        self.coded_ber.merge(&other.coded_ber);
        self.snr_est_db.merge(&other.snr_est_db);
        self.evm_snr_db.merge(&other.evm_snr_db);
        self.cfo_error.merge(&other.cfo_error);
        self.timing_error.merge(&other.timing_error);
        self.recovery.merge(&other.recovery);
        self.outcomes.merge(&other.outcomes);
    }
}

impl serde::Serialize for LinkStats {
    fn serialize(&self) -> serde::Value {
        serde::Value::object([
            ("per", self.per.serialize()),
            ("payload_ber", self.payload_ber.serialize()),
            ("coded_ber", self.coded_ber.serialize()),
            ("snr_est_db", self.snr_est_db.serialize()),
            ("evm_snr_db", self.evm_snr_db.serialize()),
            ("cfo_error", self.cfo_error.serialize()),
            ("timing_error", self.timing_error.serialize()),
            ("recovery", self.recovery.serialize()),
            ("outcomes", self.outcomes.serialize()),
        ])
    }
}

/// The seeded link simulator.
pub struct LinkSim {
    cfg: LinkConfig,
    tx: Transmitter,
    rx: Receiver,
    chan: ChannelSim,
    rng: ChaCha8Rng,
    seq: u16,
    /// Burst buffers, reused frame to frame.
    burst: BurstScratch,
    rx_streams: Vec<Vec<Complex64>>,
}

impl LinkSim {
    /// Creates a simulator. `seed` drives payloads, channel realizations
    /// and noise — the same seed reproduces the same statistics exactly.
    pub fn new(cfg: LinkConfig, seed: u64) -> Self {
        let tx = Transmitter::new(TxConfig::new(cfg.mcs).expect("valid MCS"));
        assert_eq!(
            cfg.channel.n_tx,
            tx.mcs().n_streams,
            "channel n_tx must match the MCS stream count"
        );
        let rx = Receiver::new(cfg.rx.clone());
        let chan = ChannelSim::new(
            cfg.channel.clone(),
            mimonet_dsp::seedtree::salted(seed, mimonet_dsp::seedtree::CHANNEL_SALT),
        );
        Self {
            rx_streams: vec![Vec::new(); cfg.channel.n_rx],
            cfg,
            tx,
            rx,
            chan,
            rng: ChaCha8Rng::seed_from_u64(seed),
            seq: 0,
            burst: BurstScratch::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// Airtime of one frame in microseconds (samples / 20 Msps).
    pub fn frame_airtime_us(&self) -> f64 {
        let psdu_len = self.cfg.payload_len + 22;
        self.tx.frame_len(psdu_len) as f64 / 20.0
    }

    /// Runs one frame through the link, updating `stats`.
    pub fn run_frame(&mut self, stats: &mut LinkStats) {
        self.run_frame_profiled(stats, &mut StageProfile::default());
    }

    /// [`Self::run_frame`] with RX-stage timing spans recorded into
    /// `profile` (see [`crate::Receiver::receive_profiled`]).
    pub fn run_frame_profiled(&mut self, stats: &mut LinkStats, profile: &mut StageProfile) {
        let payload: Vec<u8> = (0..self.cfg.payload_len).map(|_| self.rng.gen()).collect();
        let mpdu = Mpdu::data([0x02; 6], [0x04; 6], self.seq, payload.clone());
        self.seq = (self.seq + 1) & 0x0FFF;
        let psdu = mpdu.to_psdu();

        let truth = burst::generate(
            &self.tx,
            &mut self.chan,
            std::slice::from_ref(&psdu),
            burst::LEAD_IN,
            burst::LEAD_OUT,
            &mut self.burst,
            &mut self.rx_streams,
        )
        .expect("valid PSDU");

        match self.rx.receive_profiled(&self.rx_streams, profile) {
            Ok(frame) => {
                stats.snr_est_db.push(frame.snr_db);
                if let Some(e) = frame.evm_snr_db {
                    stats.evm_snr_db.push(e);
                }
                stats.cfo_error.push(frame.cfo - truth.cfo_norm);
                if truth.tdl.is_none() {
                    // The receiver deliberately backs its window into the
                    // CP; measure against the position it *aims* for.
                    let intended = burst::LEAD_IN as f64 + truth.timing_offset + 160.0 + 32.0
                        - TIMING_BACKOFF as f64;
                    stats.timing_error.push(frame.timing as f64 - intended);
                }

                if frame.psdu.len() == psdu.len() {
                    stats.payload_ber.compare_bytes(&psdu, &frame.psdu);
                    let reference = self.tx.coded_bits(&psdu);
                    if frame.coded_hard.len() == reference.len() {
                        stats.coded_ber.compare_bits(&reference, &frame.coded_hard);
                    }
                    match Mpdu::from_psdu(&frame.psdu) {
                        Some(got) if got.payload == payload => {
                            stats.per.record_ok();
                            stats.outcomes.record_ok();
                        }
                        _ => {
                            stats.per.record_fcs_failure();
                            stats.outcomes.record_payload_fail();
                        }
                    }
                } else {
                    // HT-SIG CRC passed but announced the wrong length —
                    // an undetected header corruption.
                    stats.per.record_header_failure();
                    stats.outcomes.header_fail += 1;
                }
            }
            Err(e) => {
                stats.outcomes.record_error(&e);
                match e {
                    // FEC failures keep their historical sync-class PER
                    // attribution (they used to surface as `SyncLost`);
                    // the fine-grained split lives in `outcomes`.
                    RxError::NoPacket
                    | RxError::SyncLost
                    | RxError::BufferTooShort
                    | RxError::Fec => stats.per.record_sync_failure(),
                    RxError::LSig(_)
                    | RxError::HtSig(_)
                    | RxError::TooManyStreams { .. }
                    | RxError::Detector => stats.per.record_header_failure(),
                    RxError::AntennaMismatch { .. } => {
                        unreachable!("configuration bug: antenna counts were validated in new()")
                    }
                }
            }
        }
    }

    /// Runs `n` frames and returns the aggregated statistics.
    pub fn run(&mut self, n: usize) -> LinkStats {
        let mut stats = LinkStats::default();
        for _ in 0..n {
            self.run_frame(&mut stats);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimonet_channel::{Fading, TgnModel};

    #[test]
    fn clean_link_delivers_everything() {
        let cfg = LinkConfig::new(8, 100, ChannelConfig::awgn(2, 2, 30.0));
        let mut sim = LinkSim::new(cfg, 42);
        let stats = sim.run(10);
        assert_eq!(stats.per.sent(), 10);
        assert_eq!(stats.per.ok(), 10, "PER failures: {:?}", stats.per);
        assert_eq!(stats.payload_ber.errors(), 0);
        assert_eq!(stats.coded_ber.errors(), 0);
        assert_eq!(stats.snr_est_db.count(), 10);
    }

    #[test]
    fn low_snr_link_fails() {
        let cfg = LinkConfig::new(15, 200, ChannelConfig::awgn(2, 2, 3.0));
        let mut sim = LinkSim::new(cfg, 43);
        let stats = sim.run(10);
        assert!(
            stats.per.per() > 0.5,
            "MCS15 at 3 dB must mostly fail: {:?}",
            stats.per
        );
    }

    #[test]
    fn seeds_reproduce() {
        let cfg = LinkConfig::new(9, 64, ChannelConfig::awgn(2, 2, 12.0));
        let a = LinkSim::new(cfg.clone(), 7).run(20);
        let b = LinkSim::new(cfg, 7).run(20);
        assert_eq!(a.per.ok(), b.per.ok());
        assert_eq!(a.payload_ber.errors(), b.payload_ber.errors());
        assert_eq!(a.coded_ber.errors(), b.coded_ber.errors());
    }

    #[test]
    fn coded_ber_nonzero_when_payload_clean() {
        // At a mid SNR the FEC should be cleaning up a nonzero channel BER.
        let cfg = LinkConfig::new(9, 300, ChannelConfig::awgn(2, 2, 10.0));
        let mut sim = LinkSim::new(cfg, 44);
        let stats = sim.run(30);
        assert!(stats.coded_ber.errors() > 0, "expected raw channel errors");
        assert!(
            stats.payload_ber.ber() < stats.coded_ber.ber(),
            "FEC must reduce BER: payload {} vs coded {}",
            stats.payload_ber.ber(),
            stats.coded_ber.ber()
        );
    }

    #[test]
    fn rayleigh_fading_link_runs() {
        let mut chan = ChannelConfig::awgn(2, 2, 25.0);
        chan.fading = Fading::RayleighFlat;
        let cfg = LinkConfig::new(8, 100, chan);
        let stats = LinkSim::new(cfg, 45).run(20);
        assert_eq!(stats.per.sent(), 20);
        assert!(
            stats.per.ok() > 0,
            "some frames should survive 25 dB Rayleigh"
        );
    }

    #[test]
    fn tgn_channel_link_runs() {
        let mut chan = ChannelConfig::awgn(2, 2, 30.0);
        chan.fading = Fading::Tgn(TgnModel::B);
        let cfg = LinkConfig::new(9, 100, chan);
        let stats = LinkSim::new(cfg, 46).run(15);
        assert!(stats.per.ok() > 10, "TGn-B at 30 dB: {:?}", stats.per);
    }

    #[test]
    fn timing_and_cfo_statistics_recorded() {
        let mut chan = ChannelConfig::awgn(1, 1, 25.0);
        chan.cfo_norm = 0.2;
        chan.timing_offset = 17.0;
        let cfg = LinkConfig::new(0, 80, chan);
        let stats = LinkSim::new(cfg, 47).run(10);
        assert!(stats.cfo_error.count() > 0);
        assert!(
            stats.cfo_error.rms() < 0.02,
            "cfo rms {}",
            stats.cfo_error.rms()
        );
        assert!(stats.timing_error.count() > 0);
        assert!(
            stats.timing_error.rms() <= 2.0,
            "timing rms {}",
            stats.timing_error.rms()
        );
    }

    #[test]
    fn airtime_matches_rate_table() {
        // MCS8, 100-byte payload: PSDU 122 B = 976 bits; N_DBPS 52 →
        // ceil(998/52) = 20 symbols; preamble 560 + HT-STF/LTFs 240 →
        // (800 + 1600) samples = 120 µs.
        let cfg = LinkConfig::new(8, 100, ChannelConfig::awgn(2, 2, 20.0));
        let sim = LinkSim::new(cfg, 48);
        let t = sim.frame_airtime_us();
        assert!((t - 120.0).abs() < 1e-9, "airtime {t}");
    }

    #[test]
    #[should_panic(expected = "channel n_tx must match")]
    fn mismatched_channel_rejected() {
        let cfg = LinkConfig::new(8, 100, ChannelConfig::awgn(1, 1, 20.0));
        LinkSim::new(cfg, 0);
    }
}
