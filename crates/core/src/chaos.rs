//! Chaos harness: multi-frame link captures under seeded fault schedules.
//!
//! One chaos trial builds a capture of `n_frames` back-to-back frames,
//! passes it through the channel simulator, applies a deterministic
//! [`FaultSchedule`], then lets [`Receiver::scan`] pick up the pieces.
//! Frames are classified against the schedule's damage window — inside it
//! (allowed to die) versus after it (must mostly survive) — into
//! [`LinkStats::recovery`], which is what `tests/chaos_soak.rs` and the
//! `fig_chaos` figure assert on.
//!
//! Everything is a pure function of `(config, seed)`: trial seeds derive
//! with the sweep engine's [`mix`](mimonet_dsp::seedtree::mix), so a
//! chaos sweep is bit-identical at any `--threads` count.

use crate::burst::{self, BurstScratch, GAP, LEAD_IN};
use crate::config::{RxConfig, TxConfig};
use crate::link::LinkStats;
use crate::rx::{Receiver, RxError, RxFrame};
use crate::sweep::{ShardCtx, SweepResult, SweepSpec};
use crate::telemetry::RxCaptureProfile;
use crate::tx::Transmitter;
use mimonet_channel::{ChannelConfig, ChannelSim, FaultReport, FaultSchedule, FaultSpec};
use mimonet_dsp::seedtree;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// PSDU length of every chaos frame, octets.
const PAYLOAD_LEN: usize = 80;

/// Configuration for one chaos capture: `n_frames` frames of 80-octet
/// PSDUs, the first [`LEAD_IN`] samples into the capture and each
/// followed by [`GAP`] samples of silence, scanned by a default receiver
/// sized to the channel.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// MCS index for every frame.
    pub mcs: u8,
    /// Frames in the capture.
    pub n_frames: usize,
    /// Channel between the radios.
    pub channel: ChannelConfig,
    /// The fault schedule specification.
    pub faults: FaultSpec,
}

impl ChaosConfig {
    /// A chaos capture of `n_frames` frames at `mcs` over `channel` with
    /// `faults`.
    pub fn new(mcs: u8, n_frames: usize, channel: ChannelConfig, faults: FaultSpec) -> Self {
        Self {
            mcs,
            n_frames,
            channel,
            faults,
        }
    }
}

/// Runs one seeded chaos capture, folding delivery and recovery counts
/// into `stats`. Returns what the fault schedule did to the samples.
///
/// Frame classification against the schedule's damage window
/// ([`FaultSchedule::window`]): a frame whose samples overlap the window
/// is *faulted* (allowed to fail); a frame starting at or after the
/// window's end is *post-fault* (counted toward
/// [`crate::metrics::RecoveryCounter::post_fault_recovery`]). With an
/// empty schedule every frame counts as post-fault, so the recovery
/// metric degenerates to plain delivery rate.
pub fn run_chaos_capture(cfg: &ChaosConfig, seed: u64, stats: &mut LinkStats) -> FaultReport {
    run_chaos_capture_profiled(cfg, seed, stats, &mut RxCaptureProfile::default())
}

/// [`run_chaos_capture`] that additionally records RX-stage telemetry
/// into `cap` and attributes **every** lost frame to a named outcome in
/// [`LinkStats::outcomes`] — `outcomes.total()` grows by exactly
/// `cfg.n_frames` per capture. Attribution, per lost frame:
///
/// 1. an unclaimed *decoded* frame overlapping the sent span means the
///    pipeline ran end to end but the bits were wrong → `payload_fail`;
/// 2. else a failed decode attempt (scan error event) near the sent span
///    names the stage that rejected it → its error class;
/// 3. else the detector never fired on it → `sync_miss`.
///
/// The scenario engine scores its one-frame rounds by the same rule.
pub fn run_chaos_capture_profiled(
    cfg: &ChaosConfig,
    seed: u64,
    stats: &mut LinkStats,
    cap: &mut RxCaptureProfile,
) -> FaultReport {
    let tx = Transmitter::new(TxConfig::new(cfg.mcs).expect("valid MCS"));
    let n_tx = tx.mcs().n_streams;
    assert_eq!(
        cfg.channel.n_tx, n_tx,
        "channel n_tx must match the MCS stream count"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    // --- The multi-frame capture through the channel ---
    let psdus: Vec<Vec<u8>> = (0..cfg.n_frames)
        .map(|_| (0..PAYLOAD_LEN).map(|_| rng.gen()).collect())
        .collect();
    let mut sim = ChannelSim::new(
        cfg.channel.clone(),
        seedtree::salted(seed, seedtree::CHANNEL_SALT),
    );
    let mut rx_streams = vec![Vec::new(); cfg.channel.n_rx];
    burst::generate(
        &tx,
        &mut sim,
        &psdus,
        LEAD_IN,
        GAP,
        &mut BurstScratch::default(),
        &mut rx_streams,
    )
    .expect("valid PSDU");
    // (sample span in the capture, PSDU) per frame.
    let frame_len = tx.frame_len(PAYLOAD_LEN);
    let sent: Vec<((usize, usize), Vec<u8>)> = psdus
        .into_iter()
        .enumerate()
        .map(|(k, psdu)| {
            let start = LEAD_IN + k * (frame_len + GAP);
            ((start, start + frame_len), psdu)
        })
        .collect();

    // --- Faults on the received samples ---
    let capture_len = rx_streams.iter().map(|a| a.len()).min().unwrap_or(0);
    let sched = FaultSchedule::generate(
        &cfg.faults,
        capture_len,
        seedtree::salted(seed, seedtree::FAULT_SALT),
    );
    let report = sched.apply(&mut rx_streams);

    // --- Scan and score ---
    let receiver = Receiver::new(RxConfig::new(cfg.channel.n_rx));
    let ev_base = cap.events.len();
    let (frames, scan) = receiver.scan_profiled(&rx_streams, cap);
    stats.recovery.record_events(report.events.len() as u64);
    stats.recovery.record_rescans(scan.rescans as u64);

    // This capture's failed-attempt events; each may explain one frame.
    let events = &cap.events[ev_base..];
    for (((start, end), _), fate) in sent.iter().zip(frame_fates(&sent, &frames, events)) {
        let ok = matches!(fate, Fate::Delivered(_));
        if ok {
            stats.per.record_ok();
        } else {
            stats.per.record_sync_failure();
        }
        match fate {
            Fate::Delivered(_) => stats.outcomes.record_ok(),
            Fate::Corrupt(_) => stats.outcomes.record_payload_fail(),
            Fate::Rejected(j) => stats.outcomes.record_error(&events[j].1),
            Fate::Missed => stats.outcomes.record_sync_miss(),
        }
        match sched.window() {
            Some((lo, hi)) if *start < hi && *end > lo => stats.recovery.record_faulted(ok),
            Some((_, hi)) if *start >= hi => stats.recovery.record_post_fault(ok),
            Some(_) => {} // entirely before the window: plain traffic
            None => stats.recovery.record_post_fault(ok),
        }
    }
    report
}

/// What became of one sent frame in a scanned capture. Indices point
/// into the `frames` and `events` given to [`frame_fates`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fate {
    /// Decoded frame `i` carries the sent PSDU.
    Delivered(usize),
    /// Decoded frame `i` overlaps the sent span with other bits: the
    /// pipeline ran end to end and got them wrong (`payload_fail`).
    Corrupt(usize),
    /// Failed decode attempt `j` reached the sent span; its error names
    /// the stage that rejected the frame.
    Rejected(usize),
    /// Detection never fired near it (`sync_miss`).
    Missed,
}

/// Decides the fate of each sent frame, in send order.
///
/// `sent` holds each frame's sample span `[start, end)` in the capture and
/// its PSDU; `frames` the scan's decoded frames and `events` its failed
/// decode attempts, each keyed by the capture offset of its window. Each
/// decoded frame and each event explains at most one sent frame: the
/// first that claims it. A sent frame is
/// 1. [`Fate::Delivered`] by the first unclaimed decoded frame with the
///    same PSDU; else
/// 2. [`Fate::Corrupt`] through the first unclaimed decoded frame whose
///    `[off + timing, off + frame_end)` overlaps the sent span; else
/// 3. [`Fate::Rejected`] by the first unused event whose window
///    `[off, off + 640)` reaches the sent span (a window starts up to one
///    detection span early); else
/// 4. [`Fate::Missed`].
pub(crate) fn frame_fates<P: AsRef<[u8]>>(
    sent: &[((usize, usize), P)],
    frames: &[(usize, RxFrame)],
    events: &[(usize, RxError)],
) -> Vec<Fate> {
    let mut claimed = vec![false; frames.len()];
    let mut used = vec![false; events.len()];
    let mut fates = Vec::with_capacity(sent.len());
    for &((start, end), ref psdu) in sent {
        let fate = frames
            .iter()
            .zip(&claimed)
            .position(|((_, f), &c)| !c && f.psdu == psdu.as_ref())
            .map(Fate::Delivered)
            .or_else(|| {
                frames
                    .iter()
                    .zip(&claimed)
                    .position(|((off, f), &c)| {
                        !c && off + f.timing < end && off + f.frame_end > start
                    })
                    .map(Fate::Corrupt)
            })
            .or_else(|| {
                events
                    .iter()
                    .zip(&used)
                    .position(|((off, _), &u)| !u && *off < end && off + 640 > start)
                    .map(Fate::Rejected)
            })
            .unwrap_or(Fate::Missed);
        match fate {
            Fate::Delivered(i) | Fate::Corrupt(i) => claimed[i] = true,
            Fate::Rejected(j) => used[j] = true,
            Fate::Missed => {}
        }
        fates.push(fate);
    }
    fates
}

/// Standard shard body for chaos sweeps: `ctx.trials` independent seeded
/// captures, each with its own derived seed.
pub fn chaos_shard(cfg: &ChaosConfig, ctx: &ShardCtx, stats: &mut LinkStats) {
    for t in 0..ctx.trials {
        let capture_seed =
            seedtree::trial_seed(ctx.seed, seedtree::CHAOS_TAG, ctx.trial_offset + t);
        run_chaos_capture(cfg, capture_seed, stats);
    }
}

/// Runs a chaos-config sweep to completion — composes with the parallel
/// engine bit-identically at any thread count.
pub fn run_chaos(spec: &SweepSpec<ChaosConfig>) -> SweepResult<LinkStats> {
    spec.run(chaos_shard)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg() -> ChaosConfig {
        ChaosConfig::new(
            8,
            4,
            ChannelConfig::awgn(2, 2, 30.0),
            FaultSpec::harsh_mid_capture(),
        )
    }

    #[test]
    fn fault_free_capture_delivers_everything() {
        let cfg = ChaosConfig {
            faults: FaultSpec::none(),
            ..base_cfg()
        };
        let mut stats = LinkStats::default();
        let report = run_chaos_capture(&cfg, 5, &mut stats);
        assert!(report.events.is_empty());
        assert_eq!(stats.per.sent(), 4);
        assert_eq!(stats.per.ok(), 4, "clean capture: {:?}", stats.per);
        assert_eq!(stats.recovery.post_fault(), (4, 4));
        assert_eq!(stats.recovery.post_fault_recovery(), 1.0);
    }

    #[test]
    fn faulted_capture_is_damaged_but_accounted() {
        let cfg = base_cfg();
        let mut stats = LinkStats::default();
        let report = run_chaos_capture(&cfg, 11, &mut stats);
        assert!(!report.events.is_empty());
        assert!(report.corrupted_samples + report.zeroed_samples > 0);
        assert_eq!(stats.per.sent(), 4);
        let (f_sent, _) = stats.recovery.faulted();
        let (p_sent, _) = stats.recovery.post_fault();
        assert!(
            f_sent + p_sent <= 4,
            "classified frames cannot exceed transmitted"
        );
    }

    #[test]
    fn captures_reproduce_per_seed() {
        let cfg = base_cfg();
        let run = |seed| {
            let mut stats = LinkStats::default();
            run_chaos_capture(&cfg, seed, &mut stats);
            (
                stats.per.ok(),
                stats.recovery.rescans(),
                stats.recovery.post_fault(),
            )
        };
        assert_eq!(run(3), run(3));
    }

    /// A frame decoded in the scan window at `off`, spanning
    /// `[off + timing, off + frame_end)`.
    fn decoded(off: usize, timing: usize, frame_end: usize, psdu: &[u8]) -> (usize, RxFrame) {
        let f = RxFrame {
            psdu: psdu.to_vec(),
            timing,
            frame_end,
            ..RxFrame::default()
        };
        (off, f)
    }

    const X: &[u8] = &[1, 2, 3];
    const Y: &[u8] = &[4, 5, 6];
    const Z: &[u8] = &[7, 8, 9];

    #[test]
    fn fates_deliver_the_matching_psdu_before_an_earlier_twin() {
        let frames = [decoded(0, 120, 480, Y), decoded(0, 120, 480, X)];
        let fates = frame_fates(&[((100, 500), X)], &frames, &[]);
        assert_eq!(fates, [Fate::Delivered(1)]);
    }

    #[test]
    fn fates_blame_an_unclaimed_corrupt_twin() {
        // The first decoded frame is delivered as the first sent frame
        // and runs into the second one's span; the twin search must skip
        // it and blame the second decoded frame.
        let sent = [((100, 500), X), ((600, 1000), Y)];
        let frames = [decoded(80, 40, 560, X), decoded(590, 40, 400, Z)];
        let fates = frame_fates(&sent, &frames, &[]);
        assert_eq!(fates, [Fate::Delivered(0), Fate::Corrupt(1)]);
        // Spans that only touch the sent span do not overlap it.
        let touching = [decoded(0, 0, 100, Z), decoded(500, 0, 100, Z)];
        let fates = frame_fates(&sent[..1], &touching, &[]);
        assert_eq!(fates, [Fate::Missed]);
    }

    #[test]
    fn fates_name_the_scan_event_that_rejected_a_frame() {
        // A window reaches 640 samples past its offset: the first one
        // ends exactly where the frame starts.
        let events = [(360, RxError::SyncLost), (361, RxError::Fec)];
        let fates = frame_fates(&[((1000, 2000), X)], &[], &events);
        assert_eq!(fates, [Fate::Rejected(1)]);
    }

    #[test]
    fn fates_miss_a_frame_nothing_reached() {
        let frames = [decoded(400, 100, 300, Y)];
        let events = [(500, RxError::NoPacket)];
        let fates = frame_fates(&[((100, 500), X)], &frames, &events);
        assert_eq!(fates, [Fate::Missed]);
    }

    #[test]
    fn fates_claim_each_decoded_frame_once_for_equal_psdus() {
        let sent = [((0, 100), X), ((200, 300), X)];
        let both = [decoded(0, 0, 100, X), decoded(200, 0, 100, X)];
        let fates = frame_fates(&sent, &both, &[]);
        assert_eq!(fates, [Fate::Delivered(0), Fate::Delivered(1)]);
        let fates = frame_fates(&sent, &both[..1], &[]);
        assert_eq!(fates, [Fate::Delivered(0), Fate::Missed]);
    }

    #[test]
    fn fates_blame_one_event_on_the_first_frame_only() {
        let sent = [((100, 300), X), ((350, 600), Y)];
        let events = [(200, RxError::NoPacket)];
        let fates = frame_fates(&sent, &[], &events);
        assert_eq!(fates, [Fate::Rejected(0), Fate::Missed]);
    }
}
