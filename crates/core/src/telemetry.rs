//! RX-chain telemetry: per-stage timing spans and the frame-outcome
//! taxonomy.
//!
//! Two complementary views of the receive pipeline:
//!
//! * [`StageProfile`] — *where the time goes*: wall-clock spans per
//!   pipeline stage ([`RxStage`]), recorded by
//!   [`crate::Receiver::receive_profiled`]. Stage nanoseconds are
//!   wall-clock and therefore excluded from deterministic renderings
//!   (`to_value(false)`); stage call counts are pure functions of the
//!   input and always kept.
//! * [`FrameOutcomes`] — *where the frames go*: every transmitted frame
//!   lands in exactly one terminal class (ok, sync miss, header fail,
//!   detector fail, FEC fail, payload CRC fail), so
//!   `total() == frames sent` and loss is attributable to a named stage
//!   instead of a boolean. Purely counting, hence deterministic and safe
//!   inside [`crate::LinkStats`].
//!
//! Both merge associatively in the [`Merge`] sense, so they
//! compose with the sharded sweep engine bit-identically at any thread
//! count. The `telemetry-off` feature compiles the stage clock out
//! (counts remain — they are semantics, not telemetry).

use crate::rx::RxError;
use mimonet_dsp::stats::Merge;

/// The receive pipeline stages a [`StageProfile`] distinguishes — the
/// numbered phases of [`crate::Receiver::receive`] grouped into spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RxStage {
    /// STF plateau search + coarse CFO estimate (stage 1).
    Detect = 0,
    /// Coarse CFO correction, fine timing, fine CFO (stages 2–4).
    Sync = 1,
    /// SNR / noise-variance estimation from the L-LTF (stage 5).
    SnrEst = 2,
    /// L-SIG and HT-SIG decode (stage 6).
    Header = 3,
    /// HT-LTF MIMO channel estimation (stage 7).
    ChanEst = 4,
    /// Data symbols: FFT, pilot tracking, MIMO detection, deinterleave
    /// (stages 8–9).
    Equalize = 5,
    /// Depuncture, Viterbi, descramble (stage 10).
    Fec = 6,
}

/// Number of [`RxStage`] variants.
pub const STAGE_COUNT: usize = 7;

impl RxStage {
    /// All stages, pipeline order.
    pub const ALL: [RxStage; STAGE_COUNT] = [
        RxStage::Detect,
        RxStage::Sync,
        RxStage::SnrEst,
        RxStage::Header,
        RxStage::ChanEst,
        RxStage::Equalize,
        RxStage::Fec,
    ];

    /// Short stable name (JSON keys, table rows).
    pub fn name(self) -> &'static str {
        match self {
            RxStage::Detect => "detect",
            RxStage::Sync => "sync",
            RxStage::SnrEst => "snr_est",
            RxStage::Header => "header",
            RxStage::ChanEst => "chanest",
            RxStage::Equalize => "equalize",
            RxStage::Fec => "fec",
        }
    }

    /// The stage a receive error terminates in — the attribution used
    /// when a decode attempt fails partway through the pipeline.
    pub fn of_error(e: &RxError) -> RxStage {
        match e {
            RxError::AntennaMismatch { .. } | RxError::NoPacket => RxStage::Detect,
            RxError::SyncLost | RxError::BufferTooShort => RxStage::Sync,
            RxError::LSig(_) | RxError::HtSig(_) | RxError::TooManyStreams { .. } => {
                RxStage::Header
            }
            RxError::Detector => RxStage::Equalize,
            RxError::Fec => RxStage::Fec,
        }
    }
}

/// Per-stage execution counts and wall-clock spans for the RX pipeline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageProfile {
    /// Times each stage ran.
    pub calls: [u64; STAGE_COUNT],
    /// Wall time per stage, ns (all-zero under `telemetry-off`).
    pub ns: [u64; STAGE_COUNT],
}

impl StageProfile {
    /// Records one execution of `stage` taking `ns` nanoseconds.
    pub fn record(&mut self, stage: RxStage, ns: u64) {
        self.calls[stage as usize] += 1;
        self.ns[stage as usize] += ns;
    }

    /// Total stage-span time, ns.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Total stage executions.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Serializes per-stage objects; `include_ns = false` drops the
    /// wall-clock fields (the deterministic rendering).
    pub fn to_value(&self, include_ns: bool) -> serde::Value {
        use serde::Serialize;
        serde::Value::object(RxStage::ALL.map(|s| {
            let mut fields = vec![("calls", self.calls[s as usize].serialize())];
            if include_ns {
                fields.push(("ns", self.ns[s as usize].serialize()));
            }
            (s.name(), serde::Value::object(fields))
        }))
    }

    /// Renders a per-stage table (calls, ms, % of total stage time).
    /// Timing columns are dashed out when the profile carries no spans
    /// (deterministic mode / `telemetry-off`).
    pub fn render_table(&self) -> String {
        // Calls column is 13 wide: u64 counts beyond 1e9 (soak-scale
        // runs) must keep the columns aligned, not shove them over.
        let total = self.total_ns();
        let mut out = format!(
            "{:<10} {:>13} {:>10} {:>7}\n",
            "stage", "calls", "ms", "%time"
        );
        out.push_str(&format!("{}\n", "-".repeat(43)));
        for s in RxStage::ALL {
            let ns = self.ns[s as usize];
            let (ms, pct) = if total > 0 {
                (
                    format!("{:10.3}", ns as f64 / 1e6),
                    format!("{:6.1}%", 100.0 * ns as f64 / total as f64),
                )
            } else {
                (format!("{:>10}", "-"), format!("{:>7}", "-"))
            };
            out.push_str(&format!(
                "{:<10} {:>13} {} {}\n",
                s.name(),
                self.calls[s as usize],
                ms,
                pct
            ));
        }
        out
    }
}

impl Merge for StageProfile {
    fn merge(&mut self, other: &Self) {
        for i in 0..STAGE_COUNT {
            self.calls[i] += other.calls[i];
            self.ns[i] += other.ns[i];
        }
    }
}

/// Monotonic lap timer feeding a [`StageProfile`]. Compiled to a pure
/// call-counter under `telemetry-off`.
#[derive(Clone, Copy, Debug)]
pub struct StageClock {
    #[cfg(not(feature = "telemetry-off"))]
    last: std::time::Instant,
}

impl StageClock {
    /// Starts the clock.
    pub fn start() -> Self {
        Self {
            #[cfg(not(feature = "telemetry-off"))]
            last: std::time::Instant::now(),
        }
    }

    /// Ends the span that began at the previous lap (or at `start`),
    /// attributing it to `stage`, and begins the next span.
    pub fn lap(&mut self, profile: &mut StageProfile, stage: RxStage) {
        #[cfg(not(feature = "telemetry-off"))]
        {
            let now = std::time::Instant::now();
            profile.record(stage, now.duration_since(self.last).as_nanos() as u64);
            self.last = now;
        }
        #[cfg(feature = "telemetry-off")]
        profile.record(stage, 0);
    }
}

/// Terminal classification of every transmitted frame — the outcome
/// taxonomy. Each frame lands in exactly one bucket, so
/// [`FrameOutcomes::total`] equals the number of frames sent and frame
/// loss is attributable to a named pipeline stage. All counts, no clocks:
/// deterministic, and safe to serialize inside sweep statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameOutcomes {
    /// Delivered intact (FCS passed).
    pub ok: u64,
    /// Never (correctly) detected or synchronized: no STF plateau, lost
    /// sync, truncated buffer.
    pub sync_miss: u64,
    /// L-SIG / HT-SIG decode, CRC or field validation failed — including
    /// a CRC-colliding header announcing the wrong length.
    pub header_fail: u64,
    /// MIMO detection failed (singular channel under ZF).
    pub detector_fail: u64,
    /// Viterbi / descrambler failure in the FEC stage.
    pub fec_fail: u64,
    /// Decoded end to end but the payload was corrupt (FCS mismatch).
    pub payload_fail: u64,
}

impl FrameOutcomes {
    /// Records a delivered frame.
    pub fn record_ok(&mut self) {
        self.ok += 1;
    }

    /// Records a frame that decoded but failed the payload CRC.
    pub fn record_payload_fail(&mut self) {
        self.payload_fail += 1;
    }

    /// Records a frame lost to a pipeline error, classified by stage.
    pub fn record_error(&mut self, e: &RxError) {
        match RxStage::of_error(e) {
            RxStage::Detect | RxStage::Sync | RxStage::SnrEst => self.sync_miss += 1,
            RxStage::Header | RxStage::ChanEst => self.header_fail += 1,
            RxStage::Equalize => self.detector_fail += 1,
            RxStage::Fec => self.fec_fail += 1,
        }
    }

    /// Records a frame lost with no decode attempt to blame — the
    /// detector never fired on it.
    pub fn record_sync_miss(&mut self) {
        self.sync_miss += 1;
    }

    /// Frames accounted for, across every bucket.
    pub fn total(&self) -> u64 {
        self.ok
            + self.sync_miss
            + self.header_fail
            + self.detector_fail
            + self.fec_fail
            + self.payload_fail
    }

    /// Frames in any loss bucket.
    pub fn losses(&self) -> u64 {
        self.total() - self.ok
    }

    /// `(name, count)` rows, taxonomy order.
    pub fn rows(&self) -> [(&'static str, u64); 6] {
        [
            ("ok", self.ok),
            ("sync_miss", self.sync_miss),
            ("header_fail", self.header_fail),
            ("detector_fail", self.detector_fail),
            ("fec_fail", self.fec_fail),
            ("payload_fail", self.payload_fail),
        ]
    }

    /// Renders the taxonomy as an aligned two-column table. The count
    /// column is 13 wide so multi-billion-frame soak totals stay
    /// aligned.
    pub fn render_table(&self) -> String {
        let mut out = format!("{:<14} {:>13}\n", "outcome", "frames");
        out.push_str(&format!("{}\n", "-".repeat(28)));
        for (name, count) in self.rows() {
            out.push_str(&format!("{name:<14} {count:>13}\n"));
        }
        out.push_str(&format!("{:<14} {:>13}\n", "total", self.total()));
        out
    }
}

impl Merge for FrameOutcomes {
    fn merge(&mut self, other: &Self) {
        self.ok += other.ok;
        self.sync_miss += other.sync_miss;
        self.header_fail += other.header_fail;
        self.detector_fail += other.detector_fail;
        self.fec_fail += other.fec_fail;
        self.payload_fail += other.payload_fail;
    }
}

impl serde::Serialize for FrameOutcomes {
    fn serialize(&self) -> serde::Value {
        let mut fields: Vec<(&str, serde::Value)> = self
            .rows()
            .iter()
            .map(|&(k, v)| (k, v.serialize()))
            .collect();
        fields.push(("total", self.total().serialize()));
        serde::Value::object(fields)
    }
}

/// Everything one profiled [`crate::Receiver::scan_profiled`] pass
/// records: the aggregated stage spans plus the offset and error of every
/// failed decode attempt — the raw material the chaos harness uses to
/// attribute each lost frame to a stage.
#[derive(Clone, Debug, Default)]
pub struct RxCaptureProfile {
    /// Stage spans aggregated over every decode attempt in the capture.
    pub stages: StageProfile,
    /// `(capture offset, error)` per failed decode attempt, scan order.
    /// The offset is where the failing window began; the frame the
    /// attempt was chewing on starts at or after it.
    pub events: Vec<(usize, RxError)>,
}

/// Stage spans add; events append.
impl Merge for RxCaptureProfile {
    fn merge(&mut self, other: &Self) {
        self.stages.merge(&other.stages);
        self.events.extend(other.events.iter().cloned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_account_for_every_frame() {
        let mut o = FrameOutcomes::default();
        o.record_ok();
        o.record_payload_fail();
        o.record_error(&RxError::NoPacket);
        o.record_error(&RxError::SyncLost);
        o.record_error(&RxError::HtSig(mimonet_frame::sig::SigError::BadMcs(99)));
        o.record_error(&RxError::Detector);
        o.record_error(&RxError::Fec);
        o.record_sync_miss();
        assert_eq!(o.total(), 8);
        assert_eq!(o.losses(), 7);
        assert_eq!(o.sync_miss, 3);
        assert_eq!(o.header_fail, 1);
        assert_eq!(o.detector_fail, 1);
        assert_eq!(o.fec_fail, 1);
        assert_eq!(o.payload_fail, 1);
    }

    #[test]
    fn outcomes_merge_is_sum() {
        let mut a = FrameOutcomes {
            ok: 1,
            sync_miss: 2,
            ..Default::default()
        };
        let b = FrameOutcomes {
            ok: 3,
            fec_fail: 1,
            ..Default::default()
        };
        Merge::merge(&mut a, &b);
        assert_eq!(a.ok, 4);
        assert_eq!(a.sync_miss, 2);
        assert_eq!(a.fec_fail, 1);
        assert_eq!(a.total(), 7);
    }

    #[test]
    fn stage_profile_records_and_renders() {
        let mut p = StageProfile::default();
        p.record(RxStage::Detect, 1_000_000);
        p.record(RxStage::Fec, 3_000_000);
        p.record(RxStage::Fec, 1_000_000);
        assert_eq!(p.calls[RxStage::Fec as usize], 2);
        assert_eq!(p.total_ns(), 5_000_000);
        let table = p.render_table();
        assert!(table.contains("detect"));
        assert!(table.contains("fec"));
        let det = serde::json::to_string(&p.to_value(false));
        assert!(!det.contains("\"ns\""), "{det}");
        assert!(det.contains("\"calls\":2"));
    }

    #[test]
    fn stage_clock_laps_accumulate() {
        let mut p = StageProfile::default();
        let mut c = StageClock::start();
        c.lap(&mut p, RxStage::Detect);
        c.lap(&mut p, RxStage::Sync);
        assert_eq!(p.calls[RxStage::Detect as usize], 1);
        assert_eq!(p.calls[RxStage::Sync as usize], 1);
    }

    /// The *intended* terminal stage for every error variant, spelled
    /// out in an exhaustive `match` with no wildcard: adding an
    /// `RxError` variant fails to compile here until its attribution is
    /// decided — a new variant can never land in a catch-all bucket.
    fn intended_stage(e: &RxError) -> RxStage {
        match e {
            RxError::AntennaMismatch { .. } => RxStage::Detect,
            RxError::NoPacket => RxStage::Detect,
            RxError::SyncLost => RxStage::Sync,
            RxError::BufferTooShort => RxStage::Sync,
            RxError::LSig(_) => RxStage::Header,
            RxError::HtSig(_) => RxStage::Header,
            RxError::TooManyStreams { .. } => RxStage::Header,
            RxError::Detector => RxStage::Equalize,
            RxError::Fec => RxStage::Fec,
        }
    }

    /// One exemplar per `RxError` variant. Keep in sync with
    /// `intended_stage` — the count assertion below catches drift.
    fn error_exemplars() -> Vec<RxError> {
        vec![
            RxError::AntennaMismatch {
                expected: 2,
                got: 1,
            },
            RxError::NoPacket,
            RxError::SyncLost,
            RxError::BufferTooShort,
            RxError::LSig(mimonet_frame::sig::SigError::Parity),
            RxError::HtSig(mimonet_frame::sig::SigError::BadMcs(99)),
            RxError::TooManyStreams {
                streams: 2,
                antennas: 1,
            },
            RxError::Detector,
            RxError::Fec,
        ]
    }

    #[test]
    fn error_stage_attribution_covers_every_variant() {
        // Variant count pinned by the exhaustive match arm count in
        // `intended_stage` (9 arms): bump both when RxError grows.
        let exemplars = error_exemplars();
        assert_eq!(exemplars.len(), 9, "exemplar per RxError variant");
        let mut discriminants = std::collections::HashSet::new();
        for e in &exemplars {
            assert!(
                discriminants.insert(std::mem::discriminant(e)),
                "duplicate exemplar for {e:?}"
            );
            assert_eq!(
                RxStage::of_error(e),
                intended_stage(e),
                "of_error disagrees with the intended attribution for {e:?}"
            );
        }
        // Every attribution must land in a distinct intended bucket of
        // the outcome taxonomy, not a default: exercise record_error
        // and check each error moved exactly one named-loss counter.
        for e in &exemplars {
            let mut o = FrameOutcomes::default();
            o.record_error(e);
            assert_eq!(o.total(), 1);
            assert_eq!(o.ok, 0, "{e:?} must count as a loss");
        }
    }

    #[test]
    fn stage_table_layout_survives_giant_counts() {
        let mut p = StageProfile::default();
        p.calls[RxStage::Detect as usize] = 12_345_678_901; // > 1e9
        p.calls[RxStage::Fec as usize] = 7;
        let table = p.render_table();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines[0], "stage              calls         ms   %time");
        assert_eq!(lines[1], "-".repeat(43));
        assert_eq!(lines[2], "detect       12345678901          -       -");
        assert_eq!(lines[8], "fec                    7          -       -");
        // Every row keeps the same width — the alignment contract.
        let widths: std::collections::HashSet<usize> = lines.iter().map(|l| l.len()).collect();
        assert_eq!(widths.len(), 1, "ragged table: {table}");
    }

    #[test]
    fn outcome_table_layout_survives_giant_counts() {
        let o = FrameOutcomes {
            ok: 9_876_543_210_123,
            sync_miss: 1,
            ..Default::default()
        };
        let table = o.render_table();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines[0], "outcome               frames");
        assert_eq!(lines[1], "-".repeat(28));
        assert_eq!(lines[2], "ok             9876543210123");
        assert_eq!(lines[3], "sync_miss                  1");
        assert_eq!(lines[8], "total          9876543210124");
        let widths: std::collections::HashSet<usize> = lines.iter().map(|l| l.len()).collect();
        assert_eq!(widths.len(), 1, "ragged table: {table}");
    }
}
