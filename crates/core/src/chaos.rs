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
use crate::rx::Receiver;
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
    let mut event_used = vec![false; events.len()];
    let mut claimed = vec![false; frames.len()];
    for ((start, end), psdu) in &sent {
        let delivered = frames
            .iter()
            .enumerate()
            .find(|(i, (_, f))| !claimed[*i] && &f.psdu == psdu)
            .map(|(i, _)| i);
        if let Some(i) = delivered {
            claimed[i] = true;
        }
        let ok = delivered.is_some();
        if ok {
            stats.per.record_ok();
            stats.outcomes.record_ok();
        } else {
            stats.per.record_sync_failure();
            // A decoded frame whose samples overlap the sent span but
            // whose PSDU matched nothing: the pipeline ran end to end and
            // produced wrong bits — a payload failure.
            let corrupt_twin = frames.iter().enumerate().find(|(i, (off, f))| {
                !claimed[*i] && off + f.timing < *end && off + f.frame_end > *start
            });
            if let Some((i, _)) = corrupt_twin {
                claimed[i] = true;
                stats.outcomes.record_payload_fail();
            } else {
                // A failed decode attempt whose window reaches the sent
                // span names the stage that rejected this frame. Windows
                // start up to one detection span (640 samples) early.
                let blamed = events
                    .iter()
                    .enumerate()
                    .find(|(j, (off, _))| !event_used[*j] && *off < *end && off + 640 > *start);
                match blamed {
                    Some((j, (_, e))) => {
                        event_used[j] = true;
                        stats.outcomes.record_error(e);
                    }
                    // Detection never fired anywhere near it.
                    None => stats.outcomes.record_sync_miss(),
                }
            }
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
}
