//! The engine's compute plane: a fixed worker pool that executes
//! admitted sessions and drains their decode jobs in batches drawn
//! **across sessions**.
//!
//! A session's DSP is a pure per-frame pipeline (the flowgraph proves
//! it): PSDU → transmit with lead-in/out framing → channel (stateful,
//! per-session, burst order) → `Receiver::receive`. The engine exploits
//! that shape directly instead of spinning a flowgraph per session:
//!
//! * a **generation turn** advances one session by a window of frames —
//!   one [`mimonet::burst::generate`] call per burst, through the
//!   worker's reused transmit buffers — and enqueues one decode job per
//!   burst; the task then goes to the back of the generation queue, so
//!   active sessions round-robin and their bursts interleave. Generation
//!   is not cheap: transmit plus channel was about half of a `bulk_mimo`
//!   frame's CPU time before the burst generator dropped their per-frame
//!   re-work, and the channel's Gaussian noise is still a large share;
//! * a **decode turn** drains up to `BATCH_MAX` decode jobs from the
//!   shared queue — *regardless of which session they came from* — and
//!   runs each stream-count group through one
//!   [`Receiver::receive_batch`] call, a loop of one-frame decodes over
//!   one workspace. Every frame decodes on its own, so grouping never
//!   changes a decoded byte (pinned by `tests/simd_equivalence.rs`), and
//!   the engine's per-session output is byte-identical to the session
//!   flowgraph ([`crate::session::run_session`]) no matter how sessions
//!   interleave.
//!
//! The decode queue is what lets one session use two workers: an idle
//! worker decodes a session's queued bursts while another is still
//! generating that session's next window. A one-queue plane (a turn
//! generates a window, requeues the session, then decodes the window in
//! one `receive_batch` call) is 82 lines shorter and was measured
//! against it on `bench_e2e`. `bulk_mimo` throughput stayed flat (617 →
//! 619 frames/s, median of 4 alternating 25 s pairs), but `setup_s`,
//! which times warm-up sessions run one at a time, rose 0.082 → 0.111 s
//! (1.35×, worse in 4 of 4 pairs), past the benchmark's 25% bound.
//! One-frame windows did not recover it (0.065 → 0.070 s, medians of
//! five 6 s runs). So the two queues stay.
//!
//! Every session takes this path, traced (`trace != 0`) and
//! telemetry-streaming (`telemetry_every > 0`) ones included, so the
//! thread set stays constant and a trace describes the executor that
//! serves all traffic. A traced burst carries its generation turn's
//! timing ([`BurstScratch::timing`]) to its decode job, and its decode
//! turn keeps the frame's stage profile ([`RxBatch::profile`]). When the
//! session's last frame lands, its events are recorded in one canonical
//! order — frame by frame in lifecycle order (`TxEncode`,
//! `ChannelApply`, each executed RX stage, `FrameOk`/`FrameFail`), then
//! one `TransportEnqueue` per delivered frame in decode order — each
//! stamped with the end time its turn measured. Two workers may handle
//! one session's frames at once, and a deterministic collector's
//! virtual clock follows record order, so recording at the end is what
//! keeps a deterministic trace byte-stable. The session's telemetry
//! rounds are computed then too, by the same function the in-process
//! run uses (`session::telemetry_rounds`).

use super::{EngineShared, ShardHandle};
use crate::queue::{BoundedQueue, OverflowPolicy};
use crate::session::{
    score_decoded, session_psdus, telemetry_rounds, validate_config, SessionError,
};
use crate::store::StoredSession;
use crate::wire::{DecodedFrame, SessionConfig};
use mimonet::blocks::{frame_burst_len, LEAD_IN, LEAD_OUT};
use mimonet::burst::{self, BurstScratch, BurstTiming};
use mimonet::config::{RxConfig, TxConfig};
use mimonet::obs::{
    record_receive, SloCounts, SloSpec, TraceCollector, TraceEvent, TraceEventKind,
};
use mimonet::tx::Transmitter;
use mimonet::{frame_trace_id, Receiver, RxBatch, RxStage, RxWorkspace, StageProfile};
use mimonet_channel::{ChannelConfig, ChannelSim};
use mimonet_dsp::complex::Complex64;
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Frames a generation turn advances one session by. Small enough that
/// another worker decodes a window's bursts while this session's next
/// window is generated, large enough to amortize the queue traffic.
const GEN_WINDOW: u32 = 8;

/// Most decode jobs one decode turn drains from the queue; each
/// stream-count group of them is one `receive_batch` call.
const BATCH_MAX: usize = 8;

/// Decode queue depth — bounds in-flight burst memory. Must comfortably
/// exceed `workers × GEN_WINDOW` so generation turns never deadlock on
/// their own output.
const DECODE_QUEUE_DEPTH: usize = 1024;

/// Generation queue depth — one slot per admitted session, so it must
/// exceed any plausible admission cap (a full queue would block the
/// shard thread submitting the session).
const GEN_QUEUE_DEPTH: usize = 8192;

/// Most trace events one frame of a session records: `TxEncode`,
/// `ChannelApply`, one per RX stage, `FrameOk` or `FrameFail`, and
/// `TransportEnqueue`. A traced session's collector holds this many per
/// frame, so its ring never overwrites an event.
const TRACE_EVENTS_PER_FRAME: usize = 2 + mimonet::STAGE_COUNT + 2;

/// One admitted session moving through the compute plane.
pub(crate) struct SessionRun {
    /// Owning connection (shard-local id).
    pub conn: u64,
    /// Shard that streams the reply.
    pub shard: usize,
    /// The validated request.
    pub cfg: SessionConfig,
    /// Resume token, assigned at admission (issued in `SessionAccept`).
    pub token: u64,
    /// Overload shed decided at admission: stream control, withhold data.
    pub shed: bool,
    /// The validated transmit config.
    tx_cfg: TxConfig,
    /// Samples per burst: the frame plus its lead-in and lead-out.
    burst_len: usize,
    /// The session's PSDUs, drawn once at admission: its generation
    /// turns transmit them and its last decode scores against them.
    psdus: Vec<Vec<u8>>,
    /// A traced session's event collector, sized to the session; `None`
    /// when untraced.
    collector: Option<TraceCollector>,
    state: Mutex<RunState>,
}

/// A decoded frame's payload: its SNR estimate and PSDU bytes; `None`
/// when the decode failed (frame lost).
type FrameOutcome = Option<(f64, Vec<u8>)>;

struct RunState {
    /// Per-frame decode outcome: `None` = in flight, `Some(..)` =
    /// decode finished (see [`FrameOutcome`]).
    slots: Vec<Option<FrameOutcome>>,
    /// Per-frame turn measurements of a traced session (empty when
    /// untraced), recorded as events once every frame has landed.
    traces: Vec<Option<FrameTrace>>,
    done: u32,
}

/// What a traced frame's two turns measured.
struct FrameTrace {
    /// When the generation turn's transmit and channel halves ran.
    burst: BurstTiming,
    /// The frame's RX stage profile.
    profile: StageProfile,
    /// When the frame's decode ended within its decode turn.
    decoded_at: Instant,
    /// The stage that failed, `None` when the frame decoded.
    failed: Option<RxStage>,
}

impl SessionRun {
    /// Validates `cfg` and builds the run. Nothing is sized from the
    /// request before it is validated, so a hostile `n_frames` is a
    /// typed error, not an allocation.
    pub(crate) fn new(
        conn: u64,
        shard: usize,
        cfg: SessionConfig,
        token: u64,
        shed: bool,
    ) -> Result<Self, SessionError> {
        let tx_cfg = validate_config(&cfg)?;
        let n = cfg.n_frames as usize;
        let collector = (cfg.trace != 0)
            .then(|| TraceCollector::from_env(n * TRACE_EVENTS_PER_FRAME, cfg.trace));
        let traces = match collector {
            Some(_) => (0..n).map(|_| None).collect(),
            None => Vec::new(),
        };
        Ok(Self {
            conn,
            shard,
            burst_len: frame_burst_len(&tx_cfg, cfg.payload_len as usize),
            psdus: session_psdus(&cfg),
            collector,
            cfg,
            token,
            shed,
            tx_cfg,
            state: Mutex::new(RunState {
                slots: vec![None; n],
                traces,
                done: 0,
            }),
        })
    }
}

/// A finished session, handed back to the owning shard: `session` is
/// parked in the store under `token` and ready to stream, and `updates`
/// are its telemetry rounds, which go out before `SessionAccept`.
pub(crate) struct Completion {
    pub conn: u64,
    pub token: u64,
    pub shed: bool,
    pub session: StoredSession,
    pub updates: Vec<(u32, String)>,
}

/// A session on the generation queue: its transmitter, its channel and
/// the next frame to generate.
struct GenTask {
    run: Arc<SessionRun>,
    tx: Transmitter,
    sim: ChannelSim,
    next: u32,
}

/// One burst awaiting decode — sessions interleave freely here.
struct DecodeJob {
    run: Arc<SessionRun>,
    frame: u32,
    n_streams: usize,
    bufs: Vec<Vec<Complex64>>,
    /// The generation turn's timing, kept for traced sessions only.
    timing: Option<BurstTiming>,
}

/// The worker pool plus its two queues.
pub(crate) struct ComputePlane {
    gen: Arc<BoundedQueue<GenTask>>,
    decode: Arc<BoundedQueue<DecodeJob>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ComputePlane {
    /// Spawns `n_workers` compute threads draining the shared queues.
    pub(crate) fn spawn(
        n_workers: usize,
        shared: Arc<EngineShared>,
        shards: Vec<ShardHandle>,
    ) -> Self {
        let gen: Arc<BoundedQueue<GenTask>> =
            Arc::new(BoundedQueue::new(GEN_QUEUE_DEPTH, OverflowPolicy::Block));
        let decode: Arc<BoundedQueue<DecodeJob>> =
            Arc::new(BoundedQueue::new(DECODE_QUEUE_DEPTH, OverflowPolicy::Block));
        let workers = (0..n_workers)
            .map(|_| {
                let gen = gen.clone();
                let decode = decode.clone();
                let shared = shared.clone();
                let shards = shards.clone();
                std::thread::spawn(move || worker_loop(&gen, &decode, &shared, &shards))
            })
            .collect();
        Self {
            gen,
            decode,
            workers,
        }
    }

    /// Admits a (validated) session into the plane.
    pub(crate) fn submit(&self, run: Arc<SessionRun>) {
        let n_streams = run.tx_cfg.mcs.n_streams;
        self.gen.push(GenTask {
            tx: Transmitter::new(run.tx_cfg.clone()),
            sim: ChannelSim::new(
                ChannelConfig::awgn(n_streams, n_streams, run.cfg.snr_db),
                run.cfg.seed,
            ),
            next: 0,
            run,
        });
    }

    /// Closes the queues and joins every worker.
    pub(crate) fn shutdown(self) {
        self.gen.close();
        self.decode.close();
        for h in self.workers {
            let _ = h.join();
        }
    }
}

fn worker_loop(
    gen: &BoundedQueue<GenTask>,
    decode: &BoundedQueue<DecodeJob>,
    shared: &EngineShared,
    shards: &[ShardHandle],
) {
    // Per-stream-count receiver + scratch: sessions with the same
    // antenna count share one batch call even across MCS presets.
    let mut rx_by_streams: HashMap<usize, (Receiver, RxWorkspace, RxBatch)> = HashMap::new();
    // Transmit-side burst buffers, shared by every session this worker
    // generates for.
    let mut burst = BurstScratch::default();
    let mut jobs: Vec<DecodeJob> = Vec::with_capacity(BATCH_MAX);
    loop {
        // Decode-first: drain queued bursts before generating more.
        jobs.clear();
        while jobs.len() < BATCH_MAX {
            match decode.try_pop() {
                Some(j) => jobs.push(j),
                None => break,
            }
        }
        if !jobs.is_empty() {
            decode_jobs(&mut jobs, &mut rx_by_streams, shared, shards);
            continue;
        }
        match gen.pop_timeout(Duration::from_millis(10)) {
            Some(task) => generation_turn(task, &mut burst, gen, decode),
            None => {
                if gen.is_terminated() && decode.is_terminated() {
                    return;
                }
            }
        }
    }
}

/// Advances one session by up to [`GEN_WINDOW`] frames: transmit +
/// channel per burst (session-ordered — the channel simulator draws one
/// fading realization per burst from the session seed), one decode job
/// per burst. Unfinished tasks rejoin the queue tail so sessions
/// round-robin.
fn generation_turn(
    mut task: GenTask,
    burst: &mut BurstScratch,
    gen: &BoundedQueue<GenTask>,
    decode: &BoundedQueue<DecodeJob>,
) {
    let run = &task.run;
    let n_streams = run.tx_cfg.mcs.n_streams;
    let end = (task.next + GEN_WINDOW).min(run.cfg.n_frames);
    while task.next < end {
        let frame = task.next;
        // The only per-burst allocation: the buffers the decode job owns.
        let mut bufs: Vec<Vec<Complex64>> = (0..n_streams)
            .map(|_| Vec::with_capacity(run.burst_len))
            .collect();
        burst::generate(
            &task.tx,
            &mut task.sim,
            std::slice::from_ref(&run.psdus[frame as usize]),
            LEAD_IN,
            LEAD_OUT,
            burst,
            &mut bufs,
        )
        .expect("validated PSDU");
        // Channel tails may extend the stream; clip to the burst so the
        // receiver sees exactly what the flowgraph's chunking delivers.
        for b in &mut bufs {
            b.truncate(run.burst_len);
        }
        decode.push(DecodeJob {
            run: run.clone(),
            frame,
            n_streams,
            bufs,
            timing: burst.timing().filter(|_| run.collector.is_some()),
        });
        task.next += 1;
    }
    if task.next < run.cfg.n_frames {
        gen.push(task);
    }
}

/// Decodes a drained batch of jobs — grouped by antenna count, each
/// group one `receive_batch` call over frames from any session.
fn decode_jobs(
    jobs: &mut Vec<DecodeJob>,
    rx_by_streams: &mut HashMap<usize, (Receiver, RxWorkspace, RxBatch)>,
    shared: &EngineShared,
    shards: &[ShardHandle],
) {
    jobs.sort_by_key(|j| j.n_streams);
    let mut start = 0;
    while start < jobs.len() {
        let n_streams = jobs[start].n_streams;
        let mut end = start + 1;
        while end < jobs.len() && jobs[end].n_streams == n_streams {
            end += 1;
        }
        let group = &jobs[start..end];
        let (rx, ws, batch) = rx_by_streams.entry(n_streams).or_insert_with(|| {
            (
                Receiver::new(RxConfig::new(n_streams)),
                RxWorkspace::new(),
                RxBatch::new(),
            )
        });
        let captures: Vec<&Vec<Vec<Complex64>>> = group.iter().map(|j| &j.bufs).collect();
        let batch_start = Instant::now();
        rx.receive_batch(&captures, ws, batch);
        shared.stats.decode_batches.fetch_add(1, Ordering::Relaxed);
        shared
            .stats
            .decode_batched_frames
            .fetch_add(group.len() as u64, Ordering::Relaxed);
        // The slots decode one after another and their stage spans tile
        // each decode, so slot `i` ended when the spans of slots 0..=i
        // had run.
        let mut decoded_at = batch_start;
        for (i, job) in group.iter().enumerate() {
            let result = batch.result(i);
            decoded_at += Duration::from_nanos(batch.profile(i).total_ns());
            let trace = job.timing.map(|burst| FrameTrace {
                burst,
                profile: batch.profile(i).clone(),
                decoded_at,
                failed: result.err().map(RxStage::of_error),
            });
            let outcome = result.ok().map(|f| (f.snr_db, f.psdu.clone()));
            record_result(job, outcome, trace, shared, shards);
        }
        start = end;
    }
    jobs.clear();
}

/// Lands one frame outcome in its session; the last frame finalizes the
/// session, parks it in the resume store and notifies the owning shard.
fn record_result(
    job: &DecodeJob,
    outcome: FrameOutcome,
    trace: Option<FrameTrace>,
    shared: &EngineShared,
    shards: &[ShardHandle],
) {
    let run = &job.run;
    let frame = job.frame as usize;
    let mut st = run
        .state
        .lock()
        .expect("no worker panics holding a session");
    debug_assert!(st.slots[frame].is_none(), "frame decoded twice");
    st.slots[frame] = Some(outcome);
    if trace.is_some() {
        st.traces[frame] = trace;
    }
    st.done += 1;
    if st.done < run.cfg.n_frames {
        return;
    }
    // Every frame has landed, so no other worker touches the state now.
    // Assemble the reply exactly as `run_session` does: successes in
    // burst order, re-indexed by decode position (the hub message
    // order), each tagged with its burst's trace id when traced.
    let mut decoded = Vec::new();
    for (burst, slot) in st.slots.iter().enumerate() {
        if let Some(Some((snr_db, psdu))) = slot {
            decoded.push(DecodedFrame {
                index: decoded.len() as u32,
                snr_db: *snr_db,
                psdu: psdu.clone(),
                trace: match run.cfg.trace {
                    0 => 0,
                    root => frame_trace_id(root, burst as u32),
                },
            });
        }
    }
    let trace = match &run.collector {
        Some(collector) => {
            record_trace(run, collector, &st.traces, &decoded);
            let events = collector.events();
            grade_slo(&run.cfg, &events, decoded.len(), shared);
            events
        }
        None => Vec::new(),
    };
    drop(st);
    let stats = score_decoded(&run.psdus, &decoded);
    let summary = engine_summary(&run.cfg);
    let updates = telemetry_rounds(decoded.len(), run.cfg.telemetry_every, &summary);
    let session = StoredSession {
        frames: decoded,
        stats_json: serde::json::to_string(&stats.serialize()),
        telemetry_json: serde::json::to_string(&Value::object(summary)),
        trace,
    };
    shared
        .store
        .lock()
        .expect("no thread panics holding the resume store")
        .insert(shared.config.resume_capacity, run.token, session.clone());
    let handle = &shards[run.shard];
    handle
        .completions
        .lock()
        .expect("no thread panics holding a shard's completions")
        .push_back(Completion {
            conn: run.conn,
            token: run.token,
            shed: run.shed,
            session,
            updates,
        });
    handle.waker.wake();
}

/// Records a finished traced session's events in canonical order: frame
/// by frame in lifecycle order, each stamped with the end time its turn
/// measured, then one `TransportEnqueue` per delivered frame in decode
/// order.
fn record_trace(
    run: &SessionRun,
    collector: &TraceCollector,
    traces: &[Option<FrameTrace>],
    decoded: &[DecodedFrame],
) {
    for (frame, t) in traces.iter().enumerate() {
        let t = t.as_ref().expect("every traced frame lands with its trace");
        let frame = frame as u32;
        let id = frame_trace_id(run.cfg.trace, frame);
        collector.record_at(
            id,
            TraceEventKind::TxEncode,
            frame,
            t.burst.transmit_ns(),
            u64::from(run.cfg.payload_len),
            t.burst.transmitted,
        );
        collector.record_at(
            id,
            TraceEventKind::ChannelApply,
            frame,
            t.burst.channel_ns(),
            run.burst_len as u64,
            t.burst.end,
        );
        record_receive(collector, id, frame, &t.profile, t.failed, t.decoded_at);
    }
    for d in decoded {
        collector.record(
            d.trace,
            TraceEventKind::TransportEnqueue,
            d.index,
            0,
            d.psdu.len() as u64,
        );
    }
}

/// Grades a traced session's events against the default link SLO, so a
/// scraper sees breaches without pulling the trace itself.
fn grade_slo(cfg: &SessionConfig, events: &[TraceEvent], delivered: usize, shared: &EngineShared) {
    let delivered = delivered as u64;
    let verdict = SloSpec::link_default().evaluate(
        events,
        &SloCounts {
            frames_expected: u64::from(cfg.n_frames),
            frames_delivered: delivered,
            drops: u64::from(cfg.n_frames) - delivered,
            resumes: 0,
            attempts: 1,
        },
    );
    shared.stats.slo_evaluations.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .slo_breaches
        .fetch_add(verdict.breaches().len() as u64, Ordering::Relaxed);
}

/// The engine's per-session telemetry object, as fields: the wire field
/// is opaque JSON, and the engine has no flowgraph blocks to snapshot,
/// so it reports its own (deterministic) execution shape instead. The
/// final `Telemetry` message carries it as is; each telemetry round
/// carries it behind the round's number and decode count.
fn engine_summary(cfg: &SessionConfig) -> Vec<(&'static str, Value)> {
    vec![
        (
            "engine",
            Value::object(vec![
                ("scheduler", Value::Str("engine-direct".into())),
                ("frames", Value::U64(u64::from(cfg.n_frames))),
                ("gen_window", Value::U64(u64::from(GEN_WINDOW))),
                ("batch_max", Value::U64(BATCH_MAX as u64)),
            ]),
        ),
        ("blocks", Value::Array(Vec::new())),
    ]
}
