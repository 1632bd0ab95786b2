//! The metric catalogue and the per-layer probes.
//!
//! [`END_TO_END`] and [`LAYERS`] are the benchmark's metric list;
//! `BENCHMARK.json` repeats them and `tests/manifest.rs` keeps the two in
//! step. Each per-layer metric names the `(end-to-end metric, workload)`
//! pairs it should move: the prediction a change to that layer is judged
//! against.
//!
//! The probes time calls into each layer's public functions from this
//! file, in process, on the workload's own session preset: the transmit
//! → channel → receive path the engine's compute plane runs per session,
//! the capture path's read and scan, the flowgraph the engine falls back
//! to for traced sessions, and the wire codec on the message mix the
//! workload put on the wire. Nothing inside the program changes to be
//! measured.

use crate::spans::SpanLog;
use mimonet::blocks::{frame_burst_len, LEAD_IN, LEAD_OUT};
use mimonet::config::RxConfig;
use mimonet::{
    LinkTracer, Merge, Receiver, RxBatch, RxCaptureProfile, RxFrame, RxWorkspace, StageProfile,
    TraceCollector, Transmitter,
};
use mimonet_channel::{ChannelConfig, ChannelSim};
use mimonet_dsp::complex::Complex64;
use mimonet_io::capture::read_capture;
use mimonet_io::session::{
    run_session_observed, score_decoded, score_scan, session_psdus, validate_config, Scheduler,
    SessionObserver,
};
use mimonet_io::wire::{decode, encode, DecodedFrame, SessionConfig, WireMsg};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A metric as `BENCHMARK.json` lists it.
#[derive(Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

/// A per-layer metric and the `(end-to-end metric, workload)` pairs a
/// change to its layer should move.
#[derive(Debug)]
pub struct LayerDef {
    pub metric: MetricDef,
    pub moves: &'static [(&'static str, &'static str)],
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static [(&'static str, &'static str)],
) -> LayerDef {
    LayerDef {
        metric: def(name, unit, better),
        moves,
    }
}

/// End-to-end metrics, measured with tracing off.
pub static END_TO_END: [MetricDef; 5] = [
    def("frames_per_s", "1/s", "higher"),
    def("cpu_ms_per_frame", "ms", "lower"),
    def("latency_p50_ms", "ms", "lower"),
    def("latency_p90_ms", "ms", "lower"),
    def("setup_s", "s", "lower"),
];

/// Throughput of every engine workload: what failed, refused or shed
/// frames take away from.
const ENGINE_FPS: &[(&str, &str)] = &[
    ("frames_per_s", "bulk_mimo"),
    ("frames_per_s", "control_siso"),
    ("frames_per_s", "traced_session"),
];

const EVERY_FPS: &[(&str, &str)] = &[
    ("frames_per_s", "bulk_mimo"),
    ("frames_per_s", "control_siso"),
    ("frames_per_s", "capture_replay"),
    ("frames_per_s", "traced_session"),
];

const EVERY_P90: &[(&str, &str)] = &[
    ("latency_p90_ms", "bulk_mimo"),
    ("latency_p90_ms", "control_siso"),
    ("latency_p90_ms", "capture_replay"),
    ("latency_p90_ms", "traced_session"),
];

/// Work moved into set-up or caches shows as memory held.
const EVERY_SETUP: &[(&str, &str)] = &[
    ("setup_s", "bulk_mimo"),
    ("setup_s", "control_siso"),
    ("setup_s", "capture_replay"),
    ("setup_s", "traced_session"),
];

/// The flowgraph runtime and trace plane run only for traced sessions.
const TRACED: &[(&str, &str)] = &[
    ("frames_per_s", "traced_session"),
    ("latency_p50_ms", "traced_session"),
];

const SCAN_PATH: &[(&str, &str)] = &[("frames_per_s", "capture_replay")];

/// Per-session fixed costs: most of a 1-frame session, a sliver of a
/// 16-frame one.
const SESSION_FIXED: &[(&str, &str)] = &[
    ("cpu_ms_per_frame", "control_siso"),
    ("cpu_ms_per_frame", "traced_session"),
];

/// Per-layer metrics, recorded by the traced run of each workload. A
/// layer the workload does not exercise reads 0.
pub static LAYERS: &[LayerDef] = &[
    layer(
        "tx.ns_per_frame",
        "ns",
        "lower",
        &[
            ("frames_per_s", "bulk_mimo"),
            ("cpu_ms_per_frame", "bulk_mimo"),
        ],
    ),
    layer(
        "channel.ns_per_frame",
        "ns",
        "lower",
        &[
            ("frames_per_s", "bulk_mimo"),
            ("cpu_ms_per_frame", "bulk_mimo"),
            ("setup_s", "capture_replay"),
        ],
    ),
    layer("rx.detect.ns_per_frame", "ns", "lower", SCAN_PATH),
    layer("rx.sync.ns_per_frame", "ns", "lower", SCAN_PATH),
    layer("rx.snr_est.ns_per_frame", "ns", "lower", SCAN_PATH),
    layer("rx.header.ns_per_frame", "ns", "lower", SCAN_PATH),
    layer(
        "rx.chanest.ns_per_frame",
        "ns",
        "lower",
        &[("frames_per_s", "bulk_mimo")],
    ),
    layer(
        "rx.equalize.ns_per_frame",
        "ns",
        "lower",
        &[("frames_per_s", "bulk_mimo")],
    ),
    layer(
        "rx.fec.ns_per_frame",
        "ns",
        "lower",
        &[
            ("frames_per_s", "bulk_mimo"),
            ("frames_per_s", "capture_replay"),
        ],
    ),
    layer(
        "rx.batch.ns_per_frame",
        "ns",
        "lower",
        &[
            ("frames_per_s", "bulk_mimo"),
            ("cpu_ms_per_frame", "bulk_mimo"),
        ],
    ),
    layer("rx.scan.ns_per_capture", "ns", "lower", SCAN_PATH),
    layer("rx.scan.rescans", "count", "lower", SCAN_PATH),
    layer("rx.scan.found_ratio", "ratio", "higher", SCAN_PATH),
    layer("capture.read.ns_per_capture", "ns", "lower", SCAN_PATH),
    layer("wire.decode.ns_per_msg", "ns", "lower", SCAN_PATH),
    layer(
        "wire.encode.ns_per_msg",
        "ns",
        "lower",
        &[
            ("latency_p50_ms", "control_siso"),
            ("latency_p90_ms", "control_siso"),
            ("latency_p50_ms", "traced_session"),
        ],
    ),
    layer(
        "wire.bytes_per_frame",
        "bytes",
        "lower",
        &[("frames_per_s", "traced_session")],
    ),
    layer("session.prep_ns", "ns", "lower", SESSION_FIXED),
    layer("session.score_ns", "ns", "lower", SESSION_FIXED),
    layer(
        "client.first_reply_ms",
        "ms",
        "lower",
        &[
            ("latency_p50_ms", "control_siso"),
            ("latency_p50_ms", "bulk_mimo"),
        ],
    ),
    layer(
        "client.stream_ms",
        "ms",
        "lower",
        &[("latency_p50_ms", "bulk_mimo")],
    ),
    layer(
        "engine.overhead_ms_per_session",
        "ms",
        "lower",
        &[
            ("latency_p50_ms", "control_siso"),
            ("cpu_ms_per_frame", "control_siso"),
            ("latency_p50_ms", "traced_session"),
        ],
    ),
    layer(
        "engine.batch_occupancy",
        "frames",
        "higher",
        &[("frames_per_s", "bulk_mimo")],
    ),
    layer("engine.sessions_failed", "count", "lower", ENGINE_FPS),
    layer("engine.protocol_errors", "count", "lower", ENGINE_FPS),
    layer("engine.shed_total", "count", "lower", ENGINE_FPS),
    layer("runtime.tx.work_ns_per_frame", "ns", "lower", TRACED),
    layer("runtime.tx.blocked_ns_per_frame", "ns", "lower", TRACED),
    layer("runtime.channel.work_ns_per_frame", "ns", "lower", TRACED),
    layer(
        "runtime.channel.blocked_ns_per_frame",
        "ns",
        "lower",
        TRACED,
    ),
    layer("runtime.rx.work_ns_per_frame", "ns", "lower", TRACED),
    layer("runtime.rx.blocked_ns_per_frame", "ns", "lower", TRACED),
    layer("obs.trace_events_per_frame", "events", "lower", TRACED),
    layer(
        "client.updates_per_session",
        "count",
        "lower",
        &[("latency_p50_ms", "traced_session")],
    ),
    layer(
        "loadgen.late_p99_ms",
        "ms",
        "lower",
        &[("latency_p90_ms", "control_siso")],
    ),
    layer(
        "loadgen.backlog_max",
        "count",
        "lower",
        &[("latency_p90_ms", "control_siso")],
    ),
    layer("bench.trace_overhead_frac", "ratio", "lower", EVERY_FPS),
    layer("bench.error_rate", "ratio", "lower", EVERY_FPS),
    layer("bench.latency_samples", "count", "higher", EVERY_P90),
    layer("bench.peak_rss_mb", "MiB", "lower", EVERY_SETUP),
];

/// The catalogue entry of a metric name (end-to-end or per-layer).
pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(LAYERS.iter().map(|l| &l.metric))
        .find(|d| d.name == name)
}

/// Frames per `receive_batch` call in the engine's decode plane (its
/// `BATCH_MAX`: two full `ViterbiDecoderX4` lane groups).
pub const ENGINE_BATCH: usize = 8;

/// Trace ring of a probed traced session (the engine's capacity).
const TRACE_RING: usize = 64 * 1024;

/// Calls `once` into a throwaway accumulator to warm workspaces and
/// caches, then into the kept one until `budget` has passed (at least
/// once).
fn repeat_for<A: Default>(
    budget: Duration,
    mut once: impl FnMut(&mut A) -> Result<(), String>,
) -> Result<A, String> {
    once(&mut A::default())?;
    let mut acc = A::default();
    let t = Instant::now();
    loop {
        once(&mut acc)?;
        if t.elapsed() >= budget {
            return Ok(acc);
        }
    }
}

/// What the engine's direct path (compute plane) costs per call on one
/// preset, summed over the probed sessions.
#[derive(Debug, Default)]
pub struct LinkCosts {
    pub sessions: u64,
    pub frames: u64,
    /// `validate_config` + `session_psdus`.
    pub prep_ns: u64,
    /// `Transmitter::transmit`.
    pub tx_ns: u64,
    /// `ChannelSim::apply` on the framed burst.
    pub channel_ns: u64,
    /// `Receiver::receive_profiled_into`, per stage.
    pub rx: StageProfile,
    /// `Receiver::receive_batch` at [`ENGINE_BATCH`] frames per call.
    pub batch_ns: u64,
    pub batch_frames: u64,
    /// `score_decoded`.
    pub score_ns: u64,
}

/// Replays the compute plane's work for `cfg`'s sessions in process:
/// generation (transmit, lead-in/out framing, channel), a per-frame
/// profiled receive for the stage split, the cross-session batch
/// receive, and scoring. Every frame must decode to the seed's bytes.
pub fn probe_link(
    cfg: &SessionConfig,
    budget: Duration,
    log: &mut SpanLog,
) -> Result<LinkCosts, String> {
    let tx_cfg = validate_config(cfg).map_err(|e| e.to_string())?;
    let n = tx_cfg.mcs.n_streams;
    let burst_len = frame_burst_len(&tx_cfg, cfg.payload_len as usize);
    let tx = Transmitter::new(tx_cfg);
    let rx = Receiver::new(RxConfig::new(n));
    let mut ws = RxWorkspace::new();
    let mut batch = RxBatch::new();
    let mut frame = RxFrame::default();
    repeat_for(budget, |acc: &mut LinkCosts| {
        let id = acc.sessions;
        let ((checked, psdus), ns) = log.time("session.prep", id, || {
            (validate_config(cfg), session_psdus(cfg))
        });
        checked.map_err(|e| e.to_string())?;
        acc.prep_ns += ns;

        let mut sim = ChannelSim::new(ChannelConfig::awgn(n, n, cfg.snr_db), cfg.seed);
        let mut bursts = Vec::with_capacity(psdus.len());
        for psdu in &psdus {
            let (streams, ns) = log.time("tx.transmit", id, || tx.transmit(psdu));
            acc.tx_ns += ns;
            let framed: Vec<Vec<Complex64>> = streams
                .map_err(|e| format!("transmit: {e:?}"))?
                .into_iter()
                .map(|s| {
                    let mut b = Vec::with_capacity(burst_len);
                    b.resize(LEAD_IN, Complex64::ZERO);
                    b.extend_from_slice(&s);
                    b.resize(b.len() + LEAD_OUT, Complex64::ZERO);
                    b
                })
                .collect();
            let ((mut received, _), ns) = log.time("channel.apply", id, || sim.apply(&framed));
            acc.channel_ns += ns;
            for s in &mut received {
                s.truncate(burst_len);
            }
            bursts.push(received);
        }

        let mut decoded = Vec::with_capacity(bursts.len());
        for burst in &bursts {
            let views: Vec<&[Complex64]> = burst.iter().map(Vec::as_slice).collect();
            let (res, _) = log.time("rx.receive", id, || {
                rx.receive_profiled_into(&views, &mut ws, &mut acc.rx, &mut frame)
            });
            if res.is_ok() {
                decoded.push(DecodedFrame {
                    index: decoded.len() as u32,
                    snr_db: frame.snr_db,
                    psdu: frame.psdu.clone(),
                    trace: 0,
                });
            }
        }
        let (stats, ns) = log.time("session.score", id, || score_decoded(&psdus, &decoded));
        acc.score_ns += ns;
        if stats.per.ok() != u64::from(cfg.n_frames) {
            return Err(format!(
                "probe decoded {}/{} frames of the preset",
                stats.per.ok(),
                cfg.n_frames
            ));
        }

        // The decode plane's batches, filled with this preset's bursts
        // as it would be by that many concurrent sessions of it.
        for c in 0..bursts.len().div_ceil(ENGINE_BATCH) {
            let captures: Vec<&Vec<Vec<Complex64>>> = (0..ENGINE_BATCH)
                .map(|i| &bursts[(c * ENGINE_BATCH + i) % bursts.len()])
                .collect();
            let ((), ns) = log.time("rx.receive_batch", id, || {
                rx.receive_batch(&captures, &mut ws, &mut batch)
            });
            acc.batch_ns += ns;
            acc.batch_frames += ENGINE_BATCH as u64;
            if batch.ok_count() != ENGINE_BATCH {
                return Err("batch receive lost frames of the preset".into());
            }
        }
        acc.sessions += 1;
        acc.frames += bursts.len() as u64;
        Ok(())
    })
}

/// What the engine's observability fallback costs: one traced session
/// through the full flowgraph on the single-thread scheduler.
#[derive(Debug, Default)]
pub struct ObservedCosts {
    pub sessions: u64,
    pub frames: u64,
    /// `run_session_observed`, whole session.
    pub session_ns: u64,
    /// Per flowgraph block: `(name, work ns, blocked ns)`, summed.
    pub blocks: Vec<(String, u64, u64)>,
}

/// Runs `cfg` (traced, with telemetry rounds) through
/// `run_session_observed` as the engine's fallback does.
pub fn probe_observed(
    cfg: &SessionConfig,
    budget: Duration,
    log: &mut SpanLog,
) -> Result<ObservedCosts, String> {
    repeat_for(budget, |acc: &mut ObservedCosts| {
        let collector = Arc::new(TraceCollector::new(TRACE_RING));
        let mut on_update = |_round: u32, _json: &str| {};
        let observer = SessionObserver {
            tracer: Some(LinkTracer {
                collector,
                root: cfg.trace,
            }),
            on_update: Some(&mut on_update),
        };
        let (res, ns) = log.time("session.observed", acc.sessions, || {
            run_session_observed(cfg, Scheduler::SingleThread, observer)
        });
        let out = res.map_err(|e| e.to_string())?;
        if out.stats.per.ok() != u64::from(cfg.n_frames) {
            return Err("traced probe session lost frames".into());
        }
        acc.session_ns += ns;
        acc.sessions += 1;
        acc.frames += u64::from(cfg.n_frames);
        for b in &out.telemetry.blocks {
            let blocked = b.blocked_input_ns + b.blocked_output_ns;
            match acc.blocks.iter_mut().find(|(name, ..)| *name == b.name) {
                Some(entry) => {
                    entry.1 += b.work_ns;
                    entry.2 += blocked;
                }
                None => acc.blocks.push((b.name.clone(), b.work_ns, blocked)),
            }
        }
        Ok(())
    })
}

/// What the capture path costs per replay.
#[derive(Debug, Default)]
pub struct CaptureCosts {
    pub captures: u64,
    /// `read_capture`.
    pub read_ns: u64,
    /// `Receiver::scan_profiled`, whole capture.
    pub scan_ns: u64,
    /// Stage split of the scans.
    pub stages: StageProfile,
    /// Frames the scans found.
    pub found: u64,
    pub rescans: u64,
}

/// Reads and scans the capture at `path` as `replay_scan` does, with the
/// stage split; every PSDU must decode.
pub fn probe_capture(
    path: &Path,
    psdus: &[Vec<u8>],
    n_streams: usize,
    budget: Duration,
    log: &mut SpanLog,
) -> Result<CaptureCosts, String> {
    let rx = Receiver::new(RxConfig::new(n_streams));
    repeat_for(budget, |acc: &mut CaptureCosts| {
        let id = acc.captures;
        let (read, ns) = log.time("capture.read", id, || read_capture(path));
        let (_, streams) = read.map_err(|e| e.to_string())?;
        acc.read_ns += ns;
        let mut profile = RxCaptureProfile::default();
        let ((frames, scan), ns) =
            log.time("rx.scan", id, || rx.scan_profiled(&streams, &mut profile));
        acc.scan_ns += ns;
        if score_scan(psdus, &frames, &scan).per.ok() != psdus.len() as u64 {
            return Err("capture probe lost frames".into());
        }
        acc.stages.merge(&profile.stages);
        acc.found += frames.len() as u64;
        acc.rescans += scan.rescans as u64;
        acc.captures += 1;
        Ok(())
    })
}

/// The capture file's messages, decoded in order: `capture_replay`'s
/// wire mix.
pub fn capture_mix(path: &Path) -> Result<Vec<WireMsg>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut mix = Vec::new();
    let mut off = 0;
    while off < bytes.len() {
        let (msg, n) = decode(&bytes[off..]).map_err(|e| e.to_string())?;
        mix.push(msg);
        off += n;
    }
    Ok(mix)
}

/// Wire codec cost over a message mix, summed.
#[derive(Debug, Default)]
pub struct CodecCosts {
    pub msgs: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
}

/// Encodes and decodes every message of `mix`; each must round-trip.
pub fn probe_codec(
    mix: &[WireMsg],
    budget: Duration,
    log: &mut SpanLog,
) -> Result<CodecCosts, String> {
    if mix.is_empty() {
        return Err("no wire message mix to probe".into());
    }
    repeat_for(budget, |acc: &mut CodecCosts| {
        for msg in mix {
            let (frame, ns) = log.time("wire.encode", acc.msgs, || encode(msg));
            acc.encode_ns += ns;
            let (res, ns) = log.time("wire.decode", acc.msgs, || decode(&frame));
            acc.decode_ns += ns;
            let (back, used) = res.map_err(|e| e.to_string())?;
            if used != frame.len() || &back != msg {
                return Err("wire codec round trip changed a message".into());
            }
            acc.msgs += 1;
        }
        Ok(())
    })
}
