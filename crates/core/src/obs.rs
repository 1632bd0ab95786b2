//! `mimonet-obs` — the structured trace plane: typed frame-lifecycle
//! events, a bounded lock-cheap ring collector, seedtree-minted
//! trace/span ids, SLO monitors, and Prometheus/Chrome-trace rendering.
//!
//! # Trace model
//!
//! A *trace* follows one frame across the whole pipeline — TX encode,
//! channel apply, every RX stage, transport enqueue/dequeue, retry,
//! resume, shed. Trace ids are minted from the seed tree
//! (`trial_seed(root, TRACE_TAG, frame_index)`), so a client and a
//! server derive the **same** id for the same frame independently; span
//! ids are `mix(trace_id ^ mix(SPAN_TAG ^ kind))`, a pure value either
//! end can compute. Under `MIMONET_DETERMINISTIC` (or an explicitly
//! deterministic collector) timestamps come from a virtual clock and
//! durations from a [`VirtualLatency`] model, so an exported trace is
//! byte-identical run to run — the property the `fig_obs` golden pins.
//!
//! # Collector discipline
//!
//! [`TraceCollector`] is a fixed-capacity overwrite-oldest ring behind
//! one uncontended mutex; [`TraceEvent`] is `Copy`, so recording an
//! event performs **zero heap allocations** — the alloc-regression test
//! extends its warmed `receive_into` pin to the traced path. Under the
//! `telemetry-off` feature `record` compiles to a no-op and `events()`
//! is empty: the trace plane is observability, never semantics.
//!
//! # SLO monitors
//!
//! [`SloSpec`] declares thresholds (p99 stage latency, drop rate,
//! resume rate, completion); [`SloSpec::evaluate`] grades a set of
//! trace events plus delivery counts into a [`SloReport`] of named
//! pass/fail objectives. `fig_resilience`/`fig_capacity` embed the
//! verdicts; `fig_obs` proves a deterministic injected p99 regression
//! flags while the baseline passes.

use crate::sweep::Merge;
use crate::telemetry::{RxStage, StageProfile};
use mimonet_dsp::seedtree;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Frame-lifecycle event kinds — the stations a frame passes on its way
/// from a TX payload to a delivered (or lost) PSDU.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TraceEventKind {
    /// Transmitter encoded the frame into per-antenna samples.
    TxEncode = 0,
    /// Channel simulator applied fading + noise to a burst.
    ChannelApply = 1,
    /// RX packet detection ([`RxStage::Detect`]).
    Detect = 2,
    /// RX synchronization ([`RxStage::Sync`]).
    Sync = 3,
    /// RX SNR estimation ([`RxStage::SnrEst`]).
    SnrEst = 4,
    /// RX L-SIG/HT-SIG decode ([`RxStage::Header`]).
    Header = 5,
    /// RX MIMO channel estimation ([`RxStage::ChanEst`]).
    ChanEst = 6,
    /// RX detection/equalization ([`RxStage::Equalize`]).
    Equalize = 7,
    /// RX FEC decode ([`RxStage::Fec`]).
    Fec = 8,
    /// Frame decoded end to end.
    FrameOk = 9,
    /// Decode attempt failed (arg = failing stage code).
    FrameFail = 10,
    /// Transport accepted the frame/request for delivery.
    TransportEnqueue = 11,
    /// Transport delivered the frame to the consumer.
    TransportDequeue = 12,
    /// A resilience policy retried the session (arg = attempt).
    Retry = 13,
    /// A cut session resumed from a stored token (arg = next frame).
    Resume = 14,
    /// The frame was shed under overload.
    Shed = 15,
}

/// Number of [`TraceEventKind`] variants.
pub const TRACE_KIND_COUNT: usize = 16;

impl TraceEventKind {
    /// All kinds, lifecycle order.
    pub const ALL: [TraceEventKind; TRACE_KIND_COUNT] = [
        TraceEventKind::TxEncode,
        TraceEventKind::ChannelApply,
        TraceEventKind::Detect,
        TraceEventKind::Sync,
        TraceEventKind::SnrEst,
        TraceEventKind::Header,
        TraceEventKind::ChanEst,
        TraceEventKind::Equalize,
        TraceEventKind::Fec,
        TraceEventKind::FrameOk,
        TraceEventKind::FrameFail,
        TraceEventKind::TransportEnqueue,
        TraceEventKind::TransportDequeue,
        TraceEventKind::Retry,
        TraceEventKind::Resume,
        TraceEventKind::Shed,
    ];

    /// Stable wire/JSON code.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Self::code`].
    pub fn from_code(code: u8) -> Option<TraceEventKind> {
        TraceEventKind::ALL.get(code as usize).copied()
    }

    /// Short stable name (trace-event `name`, metric labels).
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::TxEncode => "tx_encode",
            TraceEventKind::ChannelApply => "channel_apply",
            TraceEventKind::Detect => "detect",
            TraceEventKind::Sync => "sync",
            TraceEventKind::SnrEst => "snr_est",
            TraceEventKind::Header => "header",
            TraceEventKind::ChanEst => "chanest",
            TraceEventKind::Equalize => "equalize",
            TraceEventKind::Fec => "fec",
            TraceEventKind::FrameOk => "frame_ok",
            TraceEventKind::FrameFail => "frame_fail",
            TraceEventKind::TransportEnqueue => "transport_enqueue",
            TraceEventKind::TransportDequeue => "transport_dequeue",
            TraceEventKind::Retry => "retry",
            TraceEventKind::Resume => "resume",
            TraceEventKind::Shed => "shed",
        }
    }

    /// The event kind an RX pipeline stage records as.
    pub fn of_stage(stage: RxStage) -> TraceEventKind {
        match stage {
            RxStage::Detect => TraceEventKind::Detect,
            RxStage::Sync => TraceEventKind::Sync,
            RxStage::SnrEst => TraceEventKind::SnrEst,
            RxStage::Header => TraceEventKind::Header,
            RxStage::ChanEst => TraceEventKind::ChanEst,
            RxStage::Equalize => TraceEventKind::Equalize,
            RxStage::Fec => TraceEventKind::Fec,
        }
    }

    /// Nominal virtual duration, ns — the deterministic stand-in for a
    /// wall clock under [`VirtualLatency`]. Rough proportions of the
    /// measured stage profile, stable by construction.
    pub fn base_virtual_ns(self) -> u64 {
        match self {
            TraceEventKind::TxEncode => 25_000,
            TraceEventKind::ChannelApply => 15_000,
            TraceEventKind::Detect => 12_000,
            TraceEventKind::Sync => 20_000,
            TraceEventKind::SnrEst => 4_000,
            TraceEventKind::Header => 6_000,
            TraceEventKind::ChanEst => 9_000,
            TraceEventKind::Equalize => 30_000,
            TraceEventKind::Fec => 45_000,
            TraceEventKind::FrameOk | TraceEventKind::FrameFail => 1_000,
            TraceEventKind::TransportEnqueue | TraceEventKind::TransportDequeue => 8_000,
            TraceEventKind::Retry | TraceEventKind::Resume | TraceEventKind::Shed => 2_000,
        }
    }
}

/// Mints the trace id for frame `frame_index` of the session rooted at
/// `root` — `trial_seed(root, TRACE_TAG, frame_index)`, derivable on
/// both ends of the wire.
pub fn frame_trace_id(root: u64, frame_index: u32) -> u64 {
    seedtree::trial_seed(root, seedtree::TRACE_TAG, frame_index as usize)
}

/// Mints the span id for `kind` within `trace_id`. Repeated events of
/// one kind in one trace are laps of the same logical span.
pub fn span_id(trace_id: u64, kind: TraceEventKind) -> u64 {
    seedtree::mix(trace_id ^ seedtree::mix(seedtree::SPAN_TAG ^ kind.code() as u64))
}

/// One recorded lifecycle event. `Copy` and fixed-size so ring writes
/// never touch the heap.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// The frame's trace id ([`frame_trace_id`]).
    pub trace_id: u64,
    /// The span id ([`span_id`]; pure function of trace id + kind).
    pub span_id: u64,
    /// What happened.
    pub kind: TraceEventKind,
    /// Frame index within the session.
    pub frame: u32,
    /// Event start timestamp, ns (virtual under a deterministic
    /// collector, collector-epoch wall clock otherwise).
    pub t_ns: u64,
    /// Event duration, ns.
    pub dur_ns: u64,
    /// Kind-specific argument (stage code, attempt, call count, ...).
    pub arg: u64,
}

/// Deterministic stand-in for wall-clock stage durations: a pure
/// function of `(salt, trace_id, kind, frame)` with a tunable tail
/// inflation — the "deterministic fault preset" the SLO CI check uses
/// to inject a p99 regression that flags reproducibly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VirtualLatency {
    /// Stream salt; two models with different salts draw different
    /// jitter.
    pub salt: u64,
    /// Stage whose tail is inflated (`None` = clean baseline).
    pub inflate_kind: Option<TraceEventKind>,
    /// Extra ns added to an inflated occurrence.
    pub inflate_ns: u64,
    /// One in `inflate_period` traces is inflated (0 = never).
    pub inflate_period: u64,
}

impl VirtualLatency {
    /// Clean baseline: nominal durations + deterministic jitter, no
    /// tail.
    pub fn baseline(salt: u64) -> Self {
        Self {
            salt,
            inflate_kind: None,
            inflate_ns: 0,
            inflate_period: 0,
        }
    }

    /// The regression preset: ~2% of traces pay `inflate_ns` extra in
    /// `kind` — enough to blow any sane p99 threshold while leaving
    /// p50 untouched.
    pub fn regression(salt: u64, kind: TraceEventKind, inflate_ns: u64) -> Self {
        Self {
            salt,
            inflate_kind: Some(kind),
            inflate_ns,
            inflate_period: 50,
        }
    }

    /// The virtual duration of one event — pure, deterministic.
    pub fn dur_ns(&self, kind: TraceEventKind, trace_id: u64, frame: u32) -> u64 {
        let base = kind.base_virtual_ns();
        let jitter =
            seedtree::mix(self.salt ^ trace_id ^ seedtree::mix(kind.code() as u64 ^ frame as u64))
                % (base / 4 + 1);
        let mut d = base + jitter;
        if self.inflate_kind == Some(kind)
            && self.inflate_period > 0
            && seedtree::mix(self.salt ^ trace_id).is_multiple_of(self.inflate_period)
        {
            d += self.inflate_ns;
        }
        d
    }
}

struct Ring {
    slots: Vec<TraceEvent>,
    #[cfg_attr(feature = "telemetry-off", allow(dead_code))]
    capacity: usize,
    /// Next write position once the ring is full.
    head: usize,
}

/// Bounded, lock-cheap, overwrite-oldest trace-event collector.
///
/// The ring is preallocated at construction; [`TraceCollector::record`]
/// is one short mutex hold and one `Copy` slot write — zero heap
/// allocations, safe on the RX hot path. When the ring wraps, the
/// oldest events are overwritten and counted in
/// [`TraceCollector::dropped`], so truncation is visible, never silent.
pub struct TraceCollector {
    ring: Mutex<Ring>,
    dropped: AtomicU64,
    /// Virtual-time cursor (deterministic mode).
    #[cfg_attr(feature = "telemetry-off", allow(dead_code))]
    vclock: AtomicU64,
    deterministic: bool,
    #[cfg_attr(feature = "telemetry-off", allow(dead_code))]
    model: Option<VirtualLatency>,
    #[cfg(not(feature = "telemetry-off"))]
    epoch: std::time::Instant,
}

impl TraceCollector {
    /// A live collector holding at most `capacity` events, wall-clock
    /// timestamps relative to construction.
    pub fn new(capacity: usize) -> Self {
        Self::build(capacity, false, None)
    }

    /// A byte-deterministic collector: virtual timestamps, durations
    /// from `model`. What `fig_obs` and `MIMONET_DETERMINISTIC`
    /// sessions use.
    pub fn deterministic(capacity: usize, model: VirtualLatency) -> Self {
        Self::build(capacity, true, Some(model))
    }

    /// Honors the `MIMONET_DETERMINISTIC` environment contract: any
    /// value but `"0"` selects the deterministic collector with a
    /// baseline model salted by `salt`.
    pub fn from_env(capacity: usize, salt: u64) -> Self {
        let det = std::env::var("MIMONET_DETERMINISTIC").is_ok_and(|v| v != "0");
        if det {
            Self::deterministic(capacity, VirtualLatency::baseline(salt))
        } else {
            Self::new(capacity)
        }
    }

    fn build(capacity: usize, deterministic: bool, model: Option<VirtualLatency>) -> Self {
        assert!(capacity > 0, "trace ring capacity must be nonzero");
        Self {
            ring: Mutex::new(Ring {
                slots: Vec::with_capacity(capacity),
                capacity,
                head: 0,
            }),
            dropped: AtomicU64::new(0),
            vclock: AtomicU64::new(0),
            deterministic,
            model,
            #[cfg(not(feature = "telemetry-off"))]
            epoch: std::time::Instant::now(),
        }
    }

    /// `true` when timestamps/durations are virtual (byte-stable).
    pub fn is_deterministic(&self) -> bool {
        self.deterministic
    }

    /// Records one event that ends now: [`Self::record_at`] with
    /// `Instant::now()`. No-op under `telemetry-off`.
    #[cfg(not(feature = "telemetry-off"))]
    pub fn record(
        &self,
        trace_id: u64,
        kind: TraceEventKind,
        frame: u32,
        measured_ns: u64,
        arg: u64,
    ) {
        self.record_at(trace_id, kind, frame, measured_ns, arg, Instant::now());
    }

    /// Records one event that ended at `end`. `measured_ns` is the
    /// wall-clock duration the caller observed; a deterministic collector
    /// replaces it with the [`VirtualLatency`] model's value and ignores
    /// `end`. No-op under `telemetry-off`.
    #[cfg(not(feature = "telemetry-off"))]
    pub fn record_at(
        &self,
        trace_id: u64,
        kind: TraceEventKind,
        frame: u32,
        measured_ns: u64,
        arg: u64,
        end: Instant,
    ) {
        let dur_ns = match &self.model {
            Some(m) => m.dur_ns(kind, trace_id, frame),
            None => measured_ns,
        };
        let t_ns = if self.deterministic {
            // Virtual time: events abut with a fixed 1 µs gap, so the
            // timeline is a pure function of the record sequence.
            self.vclock.fetch_add(dur_ns + 1_000, Ordering::Relaxed)
        } else {
            let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
            end_ns.saturating_sub(dur_ns)
        };
        let ev = TraceEvent {
            trace_id,
            span_id: span_id(trace_id, kind),
            kind,
            frame,
            t_ns,
            dur_ns,
            arg,
        };
        let mut ring = self.ring.lock().unwrap();
        if ring.slots.len() < ring.capacity {
            ring.slots.push(ev);
        } else {
            let head = ring.head;
            ring.slots[head] = ev;
            ring.head = (head + 1) % ring.capacity;
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `telemetry-off`: the trace plane compiles to a no-op.
    #[cfg(feature = "telemetry-off")]
    pub fn record(
        &self,
        _trace_id: u64,
        _kind: TraceEventKind,
        _frame: u32,
        _measured_ns: u64,
        _arg: u64,
    ) {
    }

    /// `telemetry-off`: the trace plane compiles to a no-op.
    #[cfg(feature = "telemetry-off")]
    pub fn record_at(
        &self,
        _trace_id: u64,
        _kind: TraceEventKind,
        _frame: u32,
        _measured_ns: u64,
        _arg: u64,
        _end: Instant,
    ) {
    }

    /// Events recorded so far, oldest first. Allocates (snapshot) —
    /// export path, not hot path.
    pub fn events(&self) -> Vec<TraceEvent> {
        let ring = self.ring.lock().unwrap();
        let mut out = Vec::with_capacity(ring.slots.len());
        out.extend_from_slice(&ring.slots[ring.head..]);
        out.extend_from_slice(&ring.slots[..ring.head]);
        out
    }

    /// Events overwritten after the ring filled.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().slots.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Records one frame's receive as trace events that end at `end`: one
/// span per executed RX stage (duration = the stage's ns in `profile`,
/// arg = its calls), then [`TraceEventKind::FrameOk`], or
/// [`TraceEventKind::FrameFail`] with the failing stage's code as arg.
/// The stage spans tile the frame in pipeline order: each ends at `end`
/// minus the time of the executed stages after it, so the last ends at
/// `end`. `profile` holds this frame's receive alone, and `failed` is
/// [`RxStage::of_error`] of its error. [`traced_receive_into`] and the
/// engine's decode turns both record through this, so the stage-to-event
/// encoding lives here only.
pub fn record_receive(
    collector: &TraceCollector,
    trace_id: u64,
    frame_index: u32,
    profile: &StageProfile,
    failed: Option<RxStage>,
    end: Instant,
) {
    // Time of the stages still to record; a stage that did not run has
    // none.
    let mut after: u64 = profile.ns.iter().sum();
    for s in RxStage::ALL {
        let calls = profile.calls[s as usize];
        if calls > 0 {
            let ns = profile.ns[s as usize];
            after -= ns;
            let stage_end = end
                .checked_sub(std::time::Duration::from_nanos(after))
                .unwrap_or(end);
            collector.record_at(
                trace_id,
                TraceEventKind::of_stage(s),
                frame_index,
                ns,
                calls,
                stage_end,
            );
        }
    }
    let (kind, arg) = match failed {
        None => (TraceEventKind::FrameOk, 0),
        Some(stage) => (TraceEventKind::FrameFail, stage as u64),
    };
    collector.record_at(trace_id, kind, frame_index, 0, arg, end);
}

/// Traced variant of the zero-alloc receive path: runs
/// [`crate::Receiver::receive_profiled_into`], records the frame through
/// [`record_receive`], and adds its stage profile to `profile`. Adds
/// zero heap allocations over the untraced call.
#[allow(clippy::too_many_arguments)]
pub fn traced_receive_into(
    rx: &crate::rx::Receiver,
    views: &[&[mimonet_dsp::complex::Complex64]],
    ws: &mut crate::rx::RxWorkspace,
    profile: &mut StageProfile,
    frame: &mut crate::rx::RxFrame,
    collector: &TraceCollector,
    trace_id: u64,
    frame_index: u32,
) -> Result<(), crate::rx::RxError> {
    let mut own = StageProfile::default();
    let res = rx.receive_profiled_into(views, ws, &mut own, frame);
    record_receive(
        collector,
        trace_id,
        frame_index,
        &own,
        res.as_ref().err().map(RxStage::of_error),
        Instant::now(),
    );
    profile.merge(&own);
    res
}

// --- SLO monitors ---

/// Delivery-side counts an SLO evaluation grades alongside the trace
/// events. All plain counts — deterministic by construction.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SloCounts {
    /// Frames the workload intended to deliver.
    pub frames_expected: u64,
    /// Frames actually delivered intact.
    pub frames_delivered: u64,
    /// Frames dropped/shed/lost.
    pub drops: u64,
    /// Session resume operations.
    pub resumes: u64,
    /// Connection/session attempts (≥ sessions run).
    pub attempts: u64,
}

/// One declarative service-level objective set. Evaluate with
/// [`SloSpec::evaluate`].
#[derive(Clone, Debug, PartialEq)]
pub struct SloSpec {
    /// Name of the spec (report key).
    pub name: String,
    /// Max p99 duration per event kind, ns. Kinds absent from the
    /// recorded events are skipped (no data ≠ breach).
    pub p99_stage_ns: Vec<(TraceEventKind, u64)>,
    /// Max `drops / frames_expected`.
    pub max_drop_rate: Option<f64>,
    /// Max `resumes / attempts`.
    pub max_resume_rate: Option<f64>,
    /// Min `frames_delivered / frames_expected`.
    pub min_completion: Option<f64>,
}

impl SloSpec {
    /// The default link-service SLO: per-stage p99 bounds sized ~3x the
    /// virtual-latency nominals (tight enough that the 2% regression
    /// preset breaches, loose enough that baseline jitter never does),
    /// ≤2% drops, ≤50% resume rate, ≥95% completion.
    pub fn link_default() -> Self {
        Self {
            name: "link-default".into(),
            p99_stage_ns: RxStage::ALL
                .map(TraceEventKind::of_stage)
                .map(|k| (k, k.base_virtual_ns() * 3))
                .into(),
            max_drop_rate: Some(0.02),
            max_resume_rate: Some(0.5),
            min_completion: Some(0.95),
        }
    }

    /// Grades `events` + `counts` against every declared objective.
    pub fn evaluate(&self, events: &[TraceEvent], counts: &SloCounts) -> SloReport {
        let mut outcomes = Vec::new();
        for &(kind, max_ns) in &self.p99_stage_ns {
            let mut durs: Vec<u64> = events
                .iter()
                .filter(|e| e.kind == kind)
                .map(|e| e.dur_ns)
                .collect();
            if durs.is_empty() {
                continue;
            }
            durs.sort_unstable();
            let p99 = durs[(durs.len() - 1) * 99 / 100];
            outcomes.push(SloOutcome {
                objective: format!("p99_{}_ns", kind.name()),
                observed: p99 as f64,
                threshold: max_ns as f64,
                pass: p99 <= max_ns,
            });
        }
        let expected = counts.frames_expected.max(1) as f64;
        if let Some(max) = self.max_drop_rate {
            let rate = counts.drops as f64 / expected;
            outcomes.push(SloOutcome {
                objective: "drop_rate".into(),
                observed: rate,
                threshold: max,
                pass: rate <= max,
            });
        }
        if let Some(max) = self.max_resume_rate {
            let rate = counts.resumes as f64 / counts.attempts.max(1) as f64;
            outcomes.push(SloOutcome {
                objective: "resume_rate".into(),
                observed: rate,
                threshold: max,
                pass: rate <= max,
            });
        }
        if let Some(min) = self.min_completion {
            let rate = counts.frames_delivered as f64 / expected;
            outcomes.push(SloOutcome {
                objective: "completion".into(),
                observed: rate,
                threshold: min,
                pass: rate >= min,
            });
        }
        SloReport {
            name: self.name.clone(),
            outcomes,
        }
    }
}

/// One graded objective.
#[derive(Clone, Debug, PartialEq)]
pub struct SloOutcome {
    /// Objective key, e.g. `"p99_fec_ns"` or `"completion"`.
    pub objective: String,
    /// Measured value.
    pub observed: f64,
    /// Declared bound.
    pub threshold: f64,
    /// Whether the objective held.
    pub pass: bool,
}

/// Every objective of one [`SloSpec`] evaluation.
#[derive(Clone, Debug, PartialEq)]
pub struct SloReport {
    /// The spec's name.
    pub name: String,
    /// Graded objectives, spec order.
    pub outcomes: Vec<SloOutcome>,
}

impl SloReport {
    /// `true` when every objective held.
    pub fn passed(&self) -> bool {
        self.outcomes.iter().all(|o| o.pass)
    }

    /// Objectives that breached.
    pub fn breaches(&self) -> Vec<&SloOutcome> {
        self.outcomes.iter().filter(|o| !o.pass).collect()
    }

    /// JSON rendering (figure meta embeds).
    pub fn to_value(&self) -> serde::Value {
        use serde::Serialize;
        serde::Value::object(vec![
            ("name", serde::Value::Str(self.name.clone())),
            ("pass", self.passed().serialize()),
            (
                "objectives",
                serde::Value::Array(
                    self.outcomes
                        .iter()
                        .map(|o| {
                            serde::Value::object(vec![
                                ("objective", serde::Value::Str(o.objective.clone())),
                                ("observed", o.observed.serialize()),
                                ("threshold", o.threshold.serialize()),
                                ("pass", o.pass.serialize()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

// --- Prometheus text exposition ---

/// Whether a metric is monotone or instantaneous — the only two
/// Prometheus types the daemon exposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing.
    Counter,
    /// Goes up and down.
    Gauge,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One metric sample for the text exposition.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSample {
    /// Metric name (`[a-z_][a-z0-9_]*`, `mimonet_` prefixed by
    /// convention).
    pub name: &'static str,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// One-line help string.
    pub help: &'static str,
    /// The value.
    pub value: u64,
}

/// Renders Prometheus text exposition format: `# HELP` + `# TYPE` +
/// sample line per metric, stable order.
pub fn render_prometheus(samples: &[MetricSample]) -> String {
    let mut out = String::new();
    for s in samples {
        out.push_str(&format!("# HELP {} {}\n", s.name, s.help));
        out.push_str(&format!("# TYPE {} {}\n", s.name, s.kind.as_str()));
        out.push_str(&format!("{} {}\n", s.name, s.value));
    }
    out
}

/// Lints a Prometheus text exposition: every sample must have a legal,
/// unique name and a preceding `# TYPE` declaring `counter` or `gauge`.
/// Returns the list of violations (empty = clean) — the CI job fails on
/// any.
pub fn lint_prometheus(text: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let mut typed: std::collections::HashMap<&str, &str> = std::collections::HashMap::new();
    let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
    let legal = |name: &str| {
        !name.is_empty()
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
            && name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (name, kind) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            if !legal(name) {
                problems.push(format!("line {ln}: illegal metric name {name:?}"));
            }
            if !matches!(kind, "counter" | "gauge") {
                problems.push(format!(
                    "line {ln}: unstable metric type {kind:?} for {name}"
                ));
            }
            if typed.insert(name, kind).is_some() {
                problems.push(format!("line {ln}: duplicate # TYPE for {name}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let name = line.split_whitespace().next().unwrap_or("");
        let base = name.split('{').next().unwrap_or("");
        if !legal(base) {
            problems.push(format!("line {ln}: illegal metric name {base:?}"));
        }
        if !typed.contains_key(base) {
            problems.push(format!("line {ln}: sample {base} has no # TYPE"));
        }
        if !seen.insert(name) {
            problems.push(format!("line {ln}: duplicate sample {name}"));
        }
    }
    problems
}

// --- Chrome trace-event export ---

/// One process lane of a Chrome/Perfetto trace export.
#[derive(Clone, Debug)]
pub struct TraceProcess<'a> {
    /// `pid` in the exported trace (1 = client, 2 = server by
    /// convention).
    pub pid: u32,
    /// Process lane label.
    pub name: &'a str,
    /// The lane's events.
    pub events: &'a [TraceEvent],
}

/// Renders Chrome trace-event JSON (the `traceEvents` array format
/// Perfetto and `chrome://tracing` load). Every event is a complete
/// (`ph:"X"`) span; `tid` is the frame index, so one frame is one row,
/// and `args.trace_id`/`args.span_id` carry the correlation ids as hex
/// strings (JSON numbers lose u64 precision).
pub fn chrome_trace(processes: &[TraceProcess<'_>]) -> serde::Value {
    use serde::Serialize;
    let mut events = Vec::new();
    for p in processes {
        events.push(serde::Value::object(vec![
            ("name", serde::Value::Str("process_name".into())),
            ("ph", serde::Value::Str("M".into())),
            ("pid", (p.pid as u64).serialize()),
            ("tid", 0u64.serialize()),
            (
                "args",
                serde::Value::object(vec![("name", serde::Value::Str(p.name.into()))]),
            ),
        ]));
        for e in p.events {
            events.push(serde::Value::object(vec![
                ("name", serde::Value::Str(e.kind.name().into())),
                ("cat", serde::Value::Str("mimonet".into())),
                ("ph", serde::Value::Str("X".into())),
                // Microseconds; integer division keeps the JSON free of
                // float-formatting wobble.
                ("ts", (e.t_ns / 1_000).serialize()),
                ("dur", (e.dur_ns / 1_000).max(1).serialize()),
                ("pid", (p.pid as u64).serialize()),
                ("tid", (e.frame as u64).serialize()),
                (
                    "args",
                    serde::Value::object(vec![
                        (
                            "trace_id",
                            serde::Value::Str(format!("{:#018x}", e.trace_id)),
                        ),
                        ("span_id", serde::Value::Str(format!("{:#018x}", e.span_id))),
                        ("arg", e.arg.serialize()),
                    ]),
                ),
            ]));
        }
    }
    serde::Value::object(vec![
        ("traceEvents", serde::Value::Array(events)),
        ("displayTimeUnit", serde::Value::Str("ms".into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_round_trip() {
        for k in TraceEventKind::ALL {
            assert_eq!(TraceEventKind::from_code(k.code()), Some(k));
        }
        assert_eq!(TraceEventKind::from_code(TRACE_KIND_COUNT as u8), None);
    }

    #[test]
    fn trace_and_span_ids_are_pure_and_distinct() {
        let a = frame_trace_id(7, 0);
        assert_eq!(a, frame_trace_id(7, 0), "minting must be pure");
        assert_ne!(a, frame_trace_id(7, 1));
        assert_ne!(a, frame_trace_id(8, 0));
        let mut seen = std::collections::HashSet::new();
        for k in TraceEventKind::ALL {
            assert!(seen.insert(span_id(a, k)), "span collision for {k:?}");
        }
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let c = TraceCollector::new(4);
        for i in 0..6u32 {
            c.record(frame_trace_id(1, i), TraceEventKind::Detect, i, 10, 0);
        }
        let evs = c.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(c.dropped(), 2);
        // Oldest-first: frames 2..6 survive.
        assert_eq!(
            evs.iter().map(|e| e.frame).collect::<Vec<_>>(),
            [2, 3, 4, 5]
        );
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn record_at_stamps_the_measured_end() {
        use std::time::Duration;
        let c = TraceCollector::new(4);
        let end = c.epoch + Duration::from_micros(50);
        c.record_at(frame_trace_id(1, 0), TraceEventKind::Fec, 0, 20_000, 3, end);
        let ev = c.events()[0];
        assert_eq!((ev.t_ns, ev.dur_ns, ev.arg), (30_000, 20_000, 3));
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn record_receive_encodes_stages_then_the_outcome() {
        let c = TraceCollector::new(16);
        let mut profile = StageProfile::default();
        profile.record(RxStage::Detect, 5);
        profile.record(RxStage::Sync, 7);
        profile.record(RxStage::Sync, 1);
        let id = frame_trace_id(2, 4);
        record_receive(&c, id, 4, &profile, Some(RxStage::Sync), Instant::now());
        let got: Vec<_> = c
            .events()
            .iter()
            .map(|e| (e.kind, e.frame, e.dur_ns, e.arg))
            .collect();
        assert_eq!(
            got,
            [
                (TraceEventKind::Detect, 4, 5, 1),
                (TraceEventKind::Sync, 4, 8, 2),
                (TraceEventKind::FrameFail, 4, 0, RxStage::Sync as u64),
            ]
        );
        record_receive(&c, id, 4, &StageProfile::default(), None, Instant::now());
        assert_eq!(c.events().last().unwrap().kind, TraceEventKind::FrameOk);
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn live_stage_spans_tile_the_frame_in_pipeline_order() {
        use std::time::Duration;
        let c = TraceCollector::new(16);
        let mut profile = StageProfile::default();
        profile.record(RxStage::Detect, 5_000);
        profile.record(RxStage::Sync, 7_000);
        profile.record(RxStage::Sync, 2_000);
        profile.record(RxStage::Equalize, 11_000);
        profile.record(RxStage::Fec, 13_000);
        let end = c.epoch + Duration::from_micros(100);
        record_receive(&c, frame_trace_id(3, 1), 1, &profile, None, end);
        let events = c.events();
        let (stages, outcome) = events.split_at(events.len() - 1);
        assert_eq!(
            stages.iter().map(|e| e.kind).collect::<Vec<_>>(),
            [
                TraceEventKind::Detect,
                TraceEventKind::Sync,
                TraceEventKind::Equalize,
                TraceEventKind::Fec,
            ],
            "pipeline order"
        );
        assert_eq!(
            stages[0].t_ns,
            100_000 - 38_000,
            "the spans cover the stages' time"
        );
        for pair in stages.windows(2) {
            assert_eq!(
                pair[0].t_ns + pair[0].dur_ns,
                pair[1].t_ns,
                "{:?} must end where {:?} starts",
                pair[0].kind,
                pair[1].kind
            );
        }
        let last = stages[stages.len() - 1];
        assert_eq!(
            last.t_ns + last.dur_ns,
            100_000,
            "the last stage ends at the frame's end"
        );
        assert_eq!(
            (outcome[0].kind, outcome[0].t_ns),
            (TraceEventKind::FrameOk, 100_000)
        );
    }

    #[cfg(feature = "telemetry-off")]
    #[test]
    fn telemetry_off_compiles_record_to_a_noop() {
        let c = TraceCollector::new(4);
        c.record(frame_trace_id(1, 0), TraceEventKind::Detect, 0, 10, 0);
        assert!(c.is_empty());
        assert_eq!(c.dropped(), 0);
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn deterministic_collector_is_byte_stable_under_sleeps() {
        let run = || {
            let c = TraceCollector::deterministic(64, VirtualLatency::baseline(9));
            for i in 0..5u32 {
                let t = frame_trace_id(3, i);
                c.record(t, TraceEventKind::Detect, i, 123 + i as u64, 0);
                std::thread::sleep(std::time::Duration::from_millis(1));
                c.record(t, TraceEventKind::Fec, i, 456, 0);
            }
            serde::json::to_string(&chrome_trace(&[TraceProcess {
                pid: 1,
                name: "rx",
                events: &c.events(),
            }]))
        };
        assert_eq!(run(), run(), "virtual timeline must ignore wall time");
    }

    #[test]
    fn regression_preset_breaches_p99_baseline_does_not() {
        let spec = SloSpec::link_default();
        let grade = |model: VirtualLatency| {
            let mut events = Vec::new();
            for i in 0..200u32 {
                let t = frame_trace_id(11, i);
                for k in [TraceEventKind::Detect, TraceEventKind::Fec] {
                    events.push(TraceEvent {
                        trace_id: t,
                        span_id: span_id(t, k),
                        kind: k,
                        frame: i,
                        t_ns: 0,
                        dur_ns: model.dur_ns(k, t, i),
                        arg: 0,
                    });
                }
            }
            let counts = SloCounts {
                frames_expected: 200,
                frames_delivered: 200,
                ..Default::default()
            };
            spec.evaluate(&events, &counts)
        };
        let base = grade(VirtualLatency::baseline(11));
        assert!(base.passed(), "baseline must hold: {:?}", base.breaches());
        let reg = grade(VirtualLatency::regression(
            11,
            TraceEventKind::Fec,
            10_000_000,
        ));
        assert!(!reg.passed(), "regression preset must flag");
        let breaches = reg.breaches();
        assert!(
            breaches.iter().all(|o| o.objective == "p99_fec_ns"),
            "only the injected stage may breach: {breaches:?}"
        );
    }

    #[test]
    fn slo_counts_objectives_grade_rates() {
        let spec = SloSpec {
            name: "t".into(),
            p99_stage_ns: vec![],
            max_drop_rate: Some(0.1),
            max_resume_rate: Some(0.25),
            min_completion: Some(0.9),
        };
        let good = spec.evaluate(
            &[],
            &SloCounts {
                frames_expected: 100,
                frames_delivered: 95,
                drops: 5,
                resumes: 1,
                attempts: 8,
            },
        );
        assert!(good.passed());
        let bad = spec.evaluate(
            &[],
            &SloCounts {
                frames_expected: 100,
                frames_delivered: 50,
                drops: 50,
                resumes: 6,
                attempts: 8,
            },
        );
        assert_eq!(bad.breaches().len(), 3);
    }

    #[test]
    fn prometheus_render_passes_its_own_lint() {
        let text = render_prometheus(&[
            MetricSample {
                name: "mimonet_connections_total",
                kind: MetricKind::Counter,
                help: "Connections accepted.",
                value: 3,
            },
            MetricSample {
                name: "mimonet_active_sessions",
                kind: MetricKind::Gauge,
                help: "Sessions executing now.",
                value: 1,
            },
        ]);
        assert_eq!(lint_prometheus(&text), Vec::<String>::new());
    }

    #[test]
    fn prometheus_lint_catches_violations() {
        let dup = "# TYPE m counter\nm 1\nm 2\n";
        assert!(!lint_prometheus(dup).is_empty());
        let untyped = "m_untyped 1\n";
        assert!(!lint_prometheus(untyped).is_empty());
        let badname = "# TYPE BadName counter\nBadName 1\n";
        assert!(!lint_prometheus(badname).is_empty());
        let badkind = "# TYPE m histogram\nm 1\n";
        assert!(!lint_prometheus(badkind).is_empty());
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn chrome_trace_correlates_by_trace_id() {
        let client = TraceCollector::deterministic(16, VirtualLatency::baseline(1));
        let server = TraceCollector::deterministic(16, VirtualLatency::baseline(1));
        let t = frame_trace_id(5, 0);
        client.record(t, TraceEventKind::TransportEnqueue, 0, 0, 0);
        server.record(t, TraceEventKind::Detect, 0, 0, 0);
        let v = chrome_trace(&[
            TraceProcess {
                pid: 1,
                name: "client",
                events: &client.events(),
            },
            TraceProcess {
                pid: 2,
                name: "server",
                events: &server.events(),
            },
        ]);
        let json = serde::json::to_string(&v);
        let id = format!("{t:#018x}");
        assert_eq!(
            json.matches(&id).count(),
            2,
            "both lanes must carry the same trace id: {json}"
        );
        assert!(json.contains("\"traceEvents\""));
    }
}
