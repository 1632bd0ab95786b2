//! The burst generator: PSDUs through the transmitter, back to back, then
//! one pass of the channel simulator — the generation half of every link
//! the workspace simulates.
//!
//! [`generate`] composes [`Transmitter::transmit_into`] and
//! [`ChannelSim::apply_into`]. Both write into caller-owned buffers, so a
//! caller that keeps its [`BurstScratch`] and receive buffers across
//! bursts reuses their capacity instead of allocating per frame. The
//! scratch also keeps when the last burst's two halves ran, which is
//! what a traced caller records.

use crate::tx::{Transmitter, TxError};
use mimonet_channel::{ChannelSim, ChannelTruth};
use mimonet_dsp::complex::Complex64;
use std::time::Instant;

/// Silence before a burst's first frame, samples, so packet detection has
/// a noise floor to rise from.
pub const LEAD_IN: usize = 160;
/// Silence after a one-frame link burst's frame, samples, so channel tails
/// ring out inside the burst.
pub const LEAD_OUT: usize = 80;
/// Silence after each frame of a multi-frame capture or scenario round,
/// samples.
pub const GAP: usize = 240;

/// The transmitted burst, one buffer per TX antenna, kept between calls
/// to [`generate`] so its capacity is reused, and the timing of the last
/// call.
#[derive(Clone, Debug, Default)]
pub struct BurstScratch {
    tx: Vec<Vec<Complex64>>,
    timing: Option<BurstTiming>,
}

impl BurstScratch {
    /// When the last successful [`generate`] call's transmit and channel
    /// halves ran; `None` before the first.
    pub fn timing(&self) -> Option<BurstTiming> {
        self.timing
    }
}

/// When one [`generate`] call ran.
#[derive(Clone, Copy, Debug)]
pub struct BurstTiming {
    /// The transmit half (the lead-in and every frame) began.
    pub start: Instant,
    /// The transmit half ended and the channel half began.
    pub transmitted: Instant,
    /// The channel half ended.
    pub end: Instant,
}

impl BurstTiming {
    /// Wall time of the transmit half, ns.
    pub fn transmit_ns(&self) -> u64 {
        (self.transmitted - self.start).as_nanos() as u64
    }

    /// Wall time of the channel half, ns.
    pub fn channel_ns(&self) -> u64 {
        (self.end - self.transmitted).as_nanos() as u64
    }
}

/// Transmits `psdus` back to back — `lead_in` zero samples, then each
/// frame followed by `gap` zero samples — and passes the whole burst
/// through `chan` once, into `rx` (one buffer per RX antenna,
/// overwritten). Returns the channel's ground truth for the burst.
///
/// Frame `k` starts at sample `lead_in + k * (frame_len + gap)` of the
/// burst, where `frame_len` is [`Transmitter::frame_len`] (all PSDUs of
/// one length give frames of one length).
///
/// # Panics
///
/// Panics if `chan` is not configured for the transmitter's antenna
/// count or `rx.len()` is not the channel's RX antenna count.
pub fn generate<'c, P: AsRef<[u8]>>(
    tx: &Transmitter,
    chan: &'c mut ChannelSim,
    psdus: &[P],
    lead_in: usize,
    gap: usize,
    scratch: &mut BurstScratch,
    rx: &mut [Vec<Complex64>],
) -> Result<&'c ChannelTruth, TxError> {
    let start = Instant::now();
    let bufs = &mut scratch.tx;
    bufs.resize_with(tx.mcs().n_streams, Vec::new);
    for b in bufs.iter_mut() {
        b.clear();
        b.resize(lead_in, Complex64::ZERO);
    }
    for psdu in psdus {
        tx.transmit_into(psdu.as_ref(), gap, bufs)?;
    }
    let transmitted = Instant::now();
    let truth = chan.apply_into(bufs, rx);
    scratch.timing = Some(BurstTiming {
        start,
        transmitted,
        end: Instant::now(),
    });
    Ok(truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TxConfig;
    use mimonet_channel::ChannelConfig;

    #[test]
    fn burst_matches_transmit_pad_apply() {
        let tx = Transmitter::new(TxConfig::new(9).unwrap());
        let psdus = [vec![0x3Cu8; 120], vec![0xA5u8; 120]];
        let cfg = ChannelConfig::awgn(2, 2, 25.0);

        // The composition written out by hand.
        let mut want_tx = vec![vec![Complex64::ZERO; 50]; 2];
        for p in &psdus {
            for (w, s) in want_tx.iter_mut().zip(tx.transmit(p).unwrap()) {
                w.extend(s);
                w.extend([Complex64::ZERO; 30]);
            }
        }
        let mut reference = ChannelSim::new(cfg.clone(), 9);

        let mut chan = ChannelSim::new(cfg, 9);
        let mut scratch = BurstScratch::default();
        let mut rx = vec![Vec::new(); 2];
        for _ in 0..2 {
            // Consecutive bursts reuse the warm buffers.
            let (want, _) = reference.apply(&want_tx);
            generate(&tx, &mut chan, &psdus, 50, 30, &mut scratch, &mut rx).unwrap();
            assert_eq!(rx, want);
        }
        assert_eq!(rx[0].len(), 50 + 2 * (tx.frame_len(120) + 30));
    }

    #[test]
    fn scratch_keeps_the_last_burst_timing() {
        let tx = Transmitter::new(TxConfig::new(9).unwrap());
        let mut chan = ChannelSim::new(ChannelConfig::awgn(2, 2, 25.0), 3);
        let mut scratch = BurstScratch::default();
        let mut rx = vec![Vec::new(); 2];
        assert!(scratch.timing().is_none(), "no burst yet");
        let before = Instant::now();
        generate(&tx, &mut chan, &[[7u8; 40]], 10, 10, &mut scratch, &mut rx).unwrap();
        let t = scratch.timing().expect("timed burst");
        assert!(before <= t.start && t.start <= t.transmitted && t.transmitted <= t.end);
        assert_eq!(
            t.transmit_ns() + t.channel_ns(),
            (t.end - t.start).as_nanos() as u64
        );
    }

    #[test]
    fn empty_psdu_is_an_error() {
        let tx = Transmitter::new(TxConfig::new(0).unwrap());
        let mut chan = ChannelSim::new(ChannelConfig::clean(1, 1), 1);
        let mut rx = vec![Vec::new()];
        let empty: [&[u8]; 1] = [&[]];
        let got = generate(
            &tx,
            &mut chan,
            &empty,
            10,
            10,
            &mut BurstScratch::default(),
            &mut rx,
        );
        assert_eq!(got.err(), Some(TxError::EmptyPsdu));
    }
}
